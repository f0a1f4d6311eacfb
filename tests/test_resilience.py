"""Numerical resilience: SCF recovery cascade and divergence sentinels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calculators import PairwisePotentialCalculator
from repro.chem import Molecule
from repro.frag import FragmentedSystem
from repro.md import (
    FailurePolicy,
    NumericalDivergenceError,
    WorkerFailure,
    run_parallel,
    run_serial,
)
from repro.md.scheduler import AsyncCoordinator
from repro.md.integrators import maxwell_boltzmann_velocities
from repro.numerics import ensure_finite
from repro.scf import (
    DEFAULT_LADDER,
    RecoveryStage,
    SCFConvergenceError,
    rhf,
    rhf_with_recovery,
)
from repro.systems import water_cluster
from repro.trace import Tracer, recording

from .conftest import faulty_calculator as _faulty

BIG = 1.0e6
DIMER_NATOMS = 6


def stretched_water(factor: float = 2.2) -> Molecule:
    """Water with both OH bonds stretched — a pathological SCF case."""
    base = Molecule.from_angstrom(
        ["O", "H", "H"],
        [[0.0, 0.0, 0.1173], [0.0, 0.7572, -0.4692], [0.0, -0.7572, -0.4692]],
    )
    c = base.coords.copy()
    c[1] = c[0] + factor * (c[1] - c[0])
    c[2] = c[0] + factor * (c[2] - c[0])
    return base.with_coords(c)


class TestEnsureFinite:
    def test_passes_finite(self):
        ensure_finite("ctx", energy=1.0, gradient=np.ones((2, 3)))

    def test_skips_none(self):
        ensure_finite("ctx", energy=1.0, gradient=None)

    def test_raises_on_nan_with_context(self):
        with pytest.raises(NumericalDivergenceError, match="forces"):
            ensure_finite("step 3", forces=np.array([1.0, np.nan]))
        with pytest.raises(NumericalDivergenceError, match="step 3"):
            ensure_finite("step 3", forces=np.array([1.0, np.nan]))

    def test_raises_on_inf_scalar(self):
        with pytest.raises(NumericalDivergenceError, match="energy"):
            ensure_finite("ctx", energy=float("inf"))

    def test_is_typed_runtime_error(self):
        assert issubclass(NumericalDivergenceError, RuntimeError)


class TestSCFSentinels:
    def test_nan_perturbation_raises_typed_error(self, water):
        """A NaN one-electron perturbation must surface as a typed
        divergence error, never as a silently NaN SCF energy."""
        ref = rhf(water)
        n = len(ref.eps)
        with pytest.raises(NumericalDivergenceError):
            rhf(water, h_extra=np.full((n, n), np.nan))

    def test_damping_validation(self, water):
        with pytest.raises(ValueError, match="damping"):
            rhf(water, damping=1.0)
        with pytest.raises(ValueError, match="damping"):
            rhf(water, damping=-0.1)

    def test_max_iter_validation(self, water):
        with pytest.raises(ValueError, match="max_iter"):
            rhf(water, max_iter=0)


class TestRecoveryStage:
    def test_overrides_merge_over_caller(self):
        stage = RecoveryStage("s", {"damping": 0.3, "level_shift": 0.5})
        out = stage.apply({"max_iter": 10, "damping": 0.0})
        assert out == {"max_iter": 10, "damping": 0.3, "level_shift": 0.5}

    def test_max_iter_scale_multiplies(self):
        stage = RecoveryStage("s", {"max_iter_scale": 4})
        assert stage.apply({"max_iter": 10})["max_iter"] == 40
        # defaults to scaling rhf's own default budget
        assert stage.apply({})["max_iter"] == 600

    def test_default_ladder_escalation_order(self):
        names = [s.name for s in DEFAULT_LADDER]
        assert names == [
            "damp", "level-shift", "diis-reset", "core-guess", "max-iter"
        ]


class TestRecoveryCascade:
    def test_clean_solve_reports_empty_recovery(self, water):
        res = rhf_with_recovery(water)
        assert res.recovery == ()
        assert res.converged

    def test_clean_solve_matches_bare(self, water):
        assert rhf_with_recovery(water).energy == rhf(water).energy

    def test_bare_fails_on_stretched_geometry(self):
        """The bare DIIS loop is chaotic on stretched water (its
        iteration count moves by tens under rounding-level changes).
        Factor 2.7 keeps a margin a rounding change in the integrals
        cannot cross: the bare loop needs 106-155 iterations across
        three Boys implementations (2.5 needed 50-74 and sat on the
        50-iteration budget), and the first rung alone recovers it at
        budgets 30, 40 and 50 under all of them."""
        with pytest.raises(SCFConvergenceError):
            rhf(stretched_water(2.7), max_iter=50)

    def test_cascade_recovers_stretched_geometry(self):
        """The acceptance case: a geometry the bare loop cannot converge
        must converge through the ladder, recording the path taken."""
        mol = stretched_water(2.7)
        with recording(Tracer()) as tracer:
            res = rhf_with_recovery(mol, max_iter=50)
        assert res.converged
        assert np.isfinite(res.energy)
        assert res.recovery == ("damp",)  # first rung suffices here
        names = [e.get("name") for e in tracer.events]
        assert "scf.recover" in names
        assert "scf.recovered" in names

    def test_cascade_climbs_full_ladder(self):
        """A tight iteration budget defeats the early rungs too; the run
        must survive all the way to the raised-iteration rung."""
        mol = stretched_water(2.2)
        with pytest.raises(SCFConvergenceError):
            rhf(mol, max_iter=15)
        res = rhf_with_recovery(mol, max_iter=15)
        assert res.converged
        assert res.recovery[-1] == "max-iter"
        assert len(res.recovery) == len(DEFAULT_LADDER)

    @pytest.mark.parametrize("sample", range(12))
    def test_outcomes_hold_under_rounding_level_nudges(self, sample):
        """Both stretched fixtures keep their outcome when the geometry
        moves by 1e-11 bohr (what a rounding change in the integrals
        amounts to): counted at f0d7141 over 40 such samples, 40/40
        each way; a dozen are pinned here."""
        rng = np.random.default_rng(sample)
        for factor, max_iter, climbed in (
            (2.7, 50, ("damp",)),
            (2.2, 15, tuple(stage.name for stage in DEFAULT_LADDER)),
        ):
            mol = stretched_water(factor)
            mol = mol.with_coords(
                mol.coords + 1e-11 * rng.standard_normal(mol.coords.shape)
            )
            with pytest.raises(SCFConvergenceError):
                rhf(mol, max_iter=max_iter)
            res = rhf_with_recovery(mol, max_iter=max_iter)
            assert res.converged
            assert res.recovery == climbed

    def test_cascade_recovers_without_diis(self):
        """With DIIS disabled entirely the bare loop limit-cycles; the
        ladder must still find a converged solution."""
        mol = stretched_water(2.2)
        with pytest.raises(SCFConvergenceError):
            rhf(mol, use_diis=False, max_iter=150)
        res = rhf_with_recovery(mol, use_diis=False, max_iter=150)
        assert res.converged
        assert res.recovery  # some rung was needed

    def test_exhausted_ladder_raises_chained(self, monkeypatch):
        import repro.scf.recovery as recovery

        hopeless = (RecoveryStage("hopeless", {"max_iter": 2}),)
        monkeypatch.setattr(recovery, "DEFAULT_LADDER", hopeless)
        with pytest.raises(SCFConvergenceError, match="exhausted"):
            rhf_with_recovery(stretched_water(2.5), max_iter=2)

    def test_diis_singular_subspace_degrades_gracefully(self):
        """Duplicate error vectors make the DIIS B-matrix exactly
        singular; the accelerator must shrink its subspace and fall back
        to the bare Fock matrix instead of recursing forever."""
        from repro.scf import DIIS

        d = DIIS(max_vecs=4)
        F = np.eye(3)
        err = np.full((3, 3), 1e-3)
        for _ in range(6):
            out = d.update(F, err)
            assert np.all(np.isfinite(out))


class TestLevelShiftRegression:
    """The returned eps/C must come from the bare (unshifted) converged
    Fock matrix — a leaked level shift offsets every virtual orbital."""

    @pytest.mark.parametrize("use_diis", [True, False])
    def test_eps_unshifted(self, water, use_diis):
        ref = rhf(water, use_diis=use_diis)
        shifted = rhf(water, use_diis=use_diis, level_shift=0.5)
        assert shifted.energy == pytest.approx(ref.energy, abs=1e-8)
        # a leaked shift would move virtuals by +0.5 Ha; require far
        # better agreement than that on every orbital
        np.testing.assert_allclose(shifted.eps, ref.eps, atol=1e-5)

    def test_eps_unshifted_with_damping(self, water):
        ref = rhf(water)
        shifted = rhf(water, level_shift=0.5, damping=0.3, diis_restart=8)
        np.testing.assert_allclose(shifted.eps, ref.eps, atol=1e-5)


@pytest.fixture(scope="module")
def w4_system():
    return FragmentedSystem.by_components(water_cluster(4, seed=6))


@pytest.fixture(scope="module")
def surrogate():
    return PairwisePotentialCalculator()


def _coordinator(system, nsteps=2, **kw):
    v0 = maxwell_boltzmann_velocities(system.parent.masses_au, 150, seed=4)
    base = dict(
        nsteps=nsteps, dt_fs=0.5, r_dimer_bohr=BIG, mbe_order=2,
        velocities=v0, replan_interval=3,
    )
    base.update(kw)
    return AsyncCoordinator(system, **base)


class TestInjectedNumericalFaults:
    def test_scf_fail_mode_raises_typed(self, surrogate):
        calc = _faulty(surrogate, "scf_fail")
        with pytest.raises(SCFConvergenceError, match="planned"):
            calc.energy_gradient(water_cluster(1, seed=0))

    def test_scf_fail_retried_to_clean_run(self, w4_system, surrogate):
        """An injected SCF failure (cascade exhausted on a worker) rides
        the ordinary retry path and leaves a clean trajectory."""
        faulty = _faulty(
            surrogate, "scf_fail", natoms=DIMER_NATOMS, attempts=1
        )
        co = _coordinator(w4_system)
        report = run_parallel(co, faulty, nworkers=2)
        assert co.done()
        assert report.clean
        assert report.retries > 0

    def test_nan_forces_quarantined_never_silent(self, w4_system, surrogate):
        """Persistent NaN forces must become typed quarantine records —
        and must never reach the integrator as NaN coordinates."""
        faulty = _faulty(
            surrogate, "nan_forces", natoms=DIMER_NATOMS, attempts=99
        )
        co = _coordinator(w4_system)
        report = run_parallel(
            co, faulty, nworkers=2,
            policy=FailurePolicy(max_retries=1, quarantine=True),
        )
        assert co.done()
        assert not report.clean
        assert all(
            "NumericalDivergenceError" in q.error for q in report.quarantined
        )
        # the trajectory that survives quarantine is finite everywhere
        _, pe, ke = co.trajectory_energies()
        assert np.all(np.isfinite(pe)) and np.all(np.isfinite(ke))
        assert np.all(np.isfinite(co.coords))

    def test_nan_forces_serial_raises_typed(self, w4_system, surrogate):
        """The serial driver retries under the default policy; a NaN that
        persists ends the run with a typed divergence as the cause."""
        faulty = _faulty(
            surrogate, "nan_forces", natoms=DIMER_NATOMS, attempts=99
        )
        co = _coordinator(w4_system)
        with pytest.raises(WorkerFailure) as failure:
            run_serial(co, faulty)
        assert isinstance(failure.value.__cause__, NumericalDivergenceError)
