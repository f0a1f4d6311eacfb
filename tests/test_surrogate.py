"""Online committee surrogates for the MBE tail with uncertainty gating.

Covers the invariant descriptor, the committee's interpolation vs
extrapolation disagreement (the GP posterior sigma must grow off the
training manifold), the gated serve path through both MD drivers, the
serve-streak refresh and checkpoint round-trips (the bitwise matrix
with the surrogate on is `tests/test_one_run_mode.py`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.calculators import PairwisePotentialCalculator
from repro.constants import BOHR_PER_ANGSTROM
from repro.md import AsyncCoordinator, read_checkpoint, run_aimd, run_serial
from repro.md.integrators import maxwell_boltzmann_velocities
from repro.surrogate import (
    DEFAULT_TOL_DIMER,
    DEFAULT_TOL_TRIMER,
    KernelRidgeCommittee,
    SurrogateManager,
    descriptor,
)
from repro.systems import glycine_fragmented

R_DIMER = 6.0 * BOHR_PER_ANGSTROM


class _Mol:
    """Minimal fragment stand-in for manager unit tests."""

    def __init__(self, coords, symbols=("H", "H", "H")):
        self.coords = np.asarray(coords, dtype=float)
        self.symbols = tuple(symbols)
        self.charge = 0
        self.natoms = self.coords.shape[0]


def _triangle(scale: float = 1.0, jitter: float = 0.0, seed: int = 0):
    rng = np.random.default_rng(seed)
    base = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.7, 1.2, 0.0]])
    return scale * base + jitter * rng.standard_normal((3, 3))


class TestDescriptor:
    def test_rotation_translation_invariance(self):
        coords = _triangle()
        d0 = descriptor(coords)
        theta = 0.7
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        moved = coords @ rot.T + np.array([3.0, -2.0, 5.0])
        np.testing.assert_allclose(descriptor(moved), d0, atol=1e-12)

    def test_smooth_in_coordinates(self):
        coords = _triangle()
        d0 = descriptor(coords)
        d1 = descriptor(coords + 1e-6)
        assert np.abs(d1 - d0).max() < 1e-4

    def test_degenerate_sizes(self):
        assert descriptor(np.zeros((1, 3))).shape == (0,)
        assert descriptor(np.zeros((0, 3))).shape == (0,)


class TestCommitteeUncertainty:
    def _window(self, n=12, seed=3):
        rng = np.random.default_rng(seed)
        x = np.stack(
            [descriptor(_triangle(jitter=0.02, seed=s)) for s in range(n)]
        )
        y = np.stack(
            [
                np.concatenate([[float(xi.sum())], 0.1 * xi[:3]])
                for xi in x
            ]
        )
        return x, y + 1e-3 * rng.standard_normal(y.shape)

    def test_interpolation_is_confident(self):
        x, y = self._window()
        com = KernelRidgeCommittee(seed=1)
        com.fit(x, y)
        mean, dis = com.predict(x[0])
        assert mean.shape == y.shape[1:]
        assert dis < 0.1 * y[:, 0].std()

    def test_extrapolation_disagreement_grows_to_target_scale(self):
        """Off the training manifold the GP posterior sigma must recover
        the full target scale -- bootstrap members alone collapse to
        their means there, which is exactly the over-confidence failure
        the variance term exists to close."""
        x, y = self._window()
        com = KernelRidgeCommittee(seed=1)
        com.fit(x, y)
        _, dis_in = com.predict(x[0])
        far = descriptor(_triangle(scale=5.0))
        _, dis_out = com.predict(far)
        target_scale = max(
            float(y[:, 0].std()), float(y[:, 1:].std(axis=0).max())
        )
        assert dis_out > 10.0 * dis_in
        assert dis_out >= 0.9 * target_scale

    def test_refit_is_bitwise_reproducible(self):
        x, y = self._window()
        a = KernelRidgeCommittee(seed=5)
        b = KernelRidgeCommittee(seed=5)
        a.fit(x, y)
        b.fit(x, y)
        q = descriptor(_triangle(jitter=0.05, seed=99))
        ma, da = a.predict(q)
        mb, db = b.predict(q)
        np.testing.assert_array_equal(ma, mb)
        assert da == db

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fit"):
            KernelRidgeCommittee().predict(np.zeros(3))


class TestManagerGate:
    def _trained_manager(self, **kw):
        mgr = SurrogateManager(
            tol_dimer=1e-2, min_train=4, seed=0, **kw
        )
        for s in range(6):
            mol = _Mol(_triangle(jitter=0.01, seed=s))
            mgr.observe((0, 1), mol, -1.0 + 1e-4 * s, 1e-4 * np.ones((3, 3)))
        return mgr

    def test_cold_class_refuses(self):
        mgr = SurrogateManager(min_train=4)
        assert mgr.predict((0, 1), _Mol(_triangle())) is None
        assert mgr.refused_cold == 1

    def test_monomers_never_served(self):
        mgr = self._trained_manager()
        assert mgr.predict((0,), _Mol(_triangle())) is None

    def test_serve_accumulates_coefficient_scaled_bound(self):
        mgr = self._trained_manager()
        mol = _Mol(_triangle(jitter=0.01, seed=1))
        out = mgr.predict((0, 1), mol, coefficient=-2.0)
        assert out is not None
        energy, grad, dis = out
        assert grad.shape == (3, 3)
        assert mgr.neglected_bound == pytest.approx(2.0 * mgr.tol_dimer)
        assert mgr.served_by_order == {2: 1}

    def test_uncertain_geometry_refuses(self):
        """Far off the training manifold the GP sigma approaches the
        target spread, so a class whose energies genuinely vary must
        refuse there (near-constant targets may serve anywhere -- the
        bound scales with what is actually at stake)."""
        mgr = SurrogateManager(tol_dimer=1e-2, min_train=4, seed=0)
        for s in range(6):
            mol = _Mol(_triangle(jitter=0.01, seed=s))
            mgr.observe((0, 1), mol, -1.0 + 0.5 * s, np.zeros((3, 3)))
        far = _Mol(_triangle(scale=4.0))
        assert mgr.predict((0, 1), far) is None
        assert mgr.refused_uncertain == 1

    def test_streak_cap_forces_refresh(self):
        """After max_serve_streak consecutive serves the gate must refuse
        once (forcing a full solve), and the observe() of that solve
        re-arms serving."""
        mgr = self._trained_manager(max_serve_streak=3)
        mol = _Mol(_triangle(jitter=0.01, seed=1))
        for _ in range(3):
            assert mgr.predict((0, 1), mol) is not None
        assert mgr.predict((0, 1), mol) is None
        assert mgr.refused_refresh == 1
        mgr.observe((0, 1), mol, -1.0, np.zeros((3, 3)))
        assert mgr.predict((0, 1), mol) is not None

    def test_state_dict_round_trip(self):
        mgr = self._trained_manager(max_serve_streak=3)
        mol = _Mol(_triangle(jitter=0.01, seed=1))
        mgr.predict((0, 1), mol)
        meta, arrays = mgr.state_dict()
        other = SurrogateManager(
            tol_dimer=1e-2, min_train=4, seed=0, max_serve_streak=3
        )
        other.load_state(meta, arrays)
        assert other.stats() == mgr.stats()
        a = mgr.predict((0, 1), mol)
        b = other.predict((0, 1), mol)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_config_mismatch_on_resume_raises(self):
        mgr = self._trained_manager()
        meta, arrays = mgr.state_dict()
        other = SurrogateManager(tol_dimer=5e-3, min_train=4, seed=0)
        with pytest.raises(ValueError, match="tol_dimer"):
            other.load_state(meta, arrays)

    def test_state_dict_is_json_clean(self):
        import json

        mgr = self._trained_manager()
        mgr.predict((0, 1), _Mol(_triangle(jitter=0.01, seed=1)))
        meta, _ = mgr.state_dict()
        json.dumps(meta)  # no np scalars may leak into the meta dict

    def test_default_tols_ordered(self):
        assert 0 < DEFAULT_TOL_TRIMER < DEFAULT_TOL_DIMER


@pytest.fixture(scope="module")
def glycine4():
    return glycine_fragmented(4)


@pytest.fixture(scope="module")
def v0(glycine4):
    return maxwell_boltzmann_velocities(
        glycine4.parent.masses_au, 300.0, seed=7
    )


class _Counting:
    def __init__(self, inner):
        self.inner = inner
        self.polymer_solves = 0

    def energy_gradient(self, mol):
        key = getattr(mol, "frag_key", None)
        if key is not None and len(key) > 1:
            self.polymer_solves += 1
        return self.inner.energy_gradient(mol)


def _sync_run(system, v, surrogate=None, **kw):
    calc = _Counting(PairwisePotentialCalculator())
    base = dict(
        nsteps=24, dt_fs=0.25, r_dimer_bohr=R_DIMER, mbe_order=2,
        replan_interval=4, velocities=v.copy(), surrogate=surrogate,
    )
    base.update(kw)
    traj = run_aimd(system, calc, **base)
    return traj, calc


class TestSyncDriver:
    def test_serves_cut_solves_within_bound(self, glycine4, v0):
        traj_ref, calc_ref = _sync_run(glycine4, v0)
        mgr = SurrogateManager(tol_dimer=5e-4, min_train=6, seed=7)
        traj_sur, calc_sur = _sync_run(glycine4, v0, surrogate=mgr)
        assert mgr.served > 0
        assert calc_sur.polymer_solves < calc_ref.polymer_solves
        dev = np.abs(
            np.asarray(traj_ref.total) - np.asarray(traj_sur.total)
        ).max()
        assert dev <= mgr.neglected_bound

    def test_release_pass_gathers_its_gated_fragments_once(
            self, glycine4, v0, monkeypatch):
        """A release pass builds the fragments the gate sees in one
        gather (`FragmentLayout.molecules`), however many polymers it
        releases, and serves as many as one at a time would."""
        from repro.frag.monomer import FragmentLayout

        gathers = []
        molecules = FragmentLayout.molecules
        monkeypatch.setattr(FragmentLayout, "molecules", staticmethod(
            lambda layouts, coords: gathers.append(len(layouts))
            or molecules(layouts, coords)))
        passes = []
        release_ready = AsyncCoordinator._release_ready

        def counted(co, step, only_monomer=None):
            before = len(gathers)
            release_ready(co, step, only_monomer)
            passes.append(gathers[before:])

        monkeypatch.setattr(AsyncCoordinator, "_release_ready", counted)
        mgr = SurrogateManager(tol_dimer=5e-4, min_train=6, seed=7)
        _sync_run(glycine4, v0, surrogate=mgr)
        assert mgr.served > 0
        assert max(len(p) for p in passes) == 1
        assert max(sum(p) for p in passes) > 1

    def test_surrogate_requires_fragmented_system(self, glycine4):
        mgr = SurrogateManager()
        with pytest.raises(ValueError, match="FragmentedSystem"):
            run_aimd(
                glycine4.parent, PairwisePotentialCalculator(),
                nsteps=2, dt_fs=0.5, surrogate=mgr,
            )

    def test_checkpoint_resume_is_bitwise(self, glycine4, v0, tmp_path):
        """A resumed surrogate run must continue bitwise: the
        checkpoint carries the training windows + streaks, and the
        committee is a seeded function of the window."""
        ck = tmp_path / "ck.npz"
        mgr_full = SurrogateManager(tol_dimer=5e-4, min_train=6, seed=7)
        traj_full, _ = _sync_run(
            glycine4, v0, surrogate=mgr_full,
            checkpoint_path=ck, checkpoint_every=16,
        )
        ckpt = read_checkpoint(ck, mol=glycine4.parent)
        assert ckpt.step < 24
        assert "surrogate" in ckpt.sections
        mgr_res = SurrogateManager(tol_dimer=5e-4, min_train=6, seed=7)
        traj_res, _ = _sync_run(
            glycine4, v0, surrogate=mgr_res, resume=ckpt,
        )
        np.testing.assert_array_equal(
            np.asarray(traj_full.total), np.asarray(traj_res.total)
        )
        assert mgr_res.stats()["served"] == mgr_full.stats()["served"]


class TestCoordinator:
    def _run(self, glycine4, v0, surrogate=None, **kw):
        calc = _Counting(PairwisePotentialCalculator())
        co = AsyncCoordinator(
            glycine4, nsteps=24, dt_fs=0.25, r_dimer_bohr=R_DIMER,
            mbe_order=2, replan_interval=4, velocities=v0.copy(),
            temperature_k=0.0, surrogate=surrogate, **kw,
        )
        run_serial(co, calc)
        return co, calc

    def test_gated_tasks_never_scheduled(self, glycine4, v0):
        co_ref, calc_ref = self._run(glycine4, v0)
        mgr = SurrogateManager(tol_dimer=5e-4, min_train=6, seed=7)
        co_sur, calc_sur = self._run(glycine4, v0, surrogate=mgr)
        assert mgr.served > 0
        assert co_sur.surrogate_tasks_avoided == mgr.served
        assert calc_sur.polymer_solves < calc_ref.polymer_solves
        _, pe_ref, _ = co_ref.trajectory_energies()
        _, pe_sur, _ = co_sur.trajectory_energies()
        dev = np.abs(np.asarray(pe_ref) - np.asarray(pe_sur)).max()
        assert dev <= mgr.neglected_bound


class TestServeSpec:
    def test_jobspec_surrogate_round_trips(self):
        from repro.serve.session import JobSpec

        spec = JobSpec(
            job_id="a", system={"kind": "water", "n": 2},
            surrogate={"tol_dimer": 1e-3, "min_train": 4},
        )
        again = JobSpec.from_dict(spec.to_dict())
        assert again.surrogate == {"tol_dimer": 1e-3, "min_train": 4}


class TestOneTrimerGateRule:
    def test_both_front_doors_ask_the_manager(self, monkeypatch, tmp_path):
        """`aimd --surrogate-tol` and `submit --surrogate-tol` derive the
        trimer gate from the one rule beside the defaults."""
        import json

        import repro.surrogate as surrogate
        from repro.chem.xyz import save_xyz
        from repro.cli import main
        from repro.surrogate import manager
        from repro.systems import water_cluster

        monkeypatch.setattr(manager, "DEFAULT_TOL_TRIMER", 1e-5)
        expected = manager.gate_tolerances(1e-3)
        assert expected == (1e-3, 1e-3 * (1e-5 / DEFAULT_TOL_DIMER))

        built = []

        class Spy(SurrogateManager):
            def __init__(self, **kw):
                built.append((kw["tol_dimer"], kw["tol_trimer"]))
                super().__init__(**kw)

        monkeypatch.setattr(surrogate, "SurrogateManager", Spy)
        xyz = str(tmp_path / "w3.xyz")
        save_xyz(water_cluster(3, seed=1), xyz)
        tail = ["--surrogate-tail", "--surrogate-tol", "1e-3"]
        assert main(["aimd", xyz, "--surrogate", "--steps", "1",
                     "--r-dimer", "30", "--order", "2", *tail]) == 0
        specs = str(tmp_path / "jobs.json")
        assert main(["submit", specs, "--job-id", "a", "--system", "water",
                     "-n", "3", "--method", "surrogate", *tail]) == 0
        with open(specs, encoding="utf-8") as fh:
            job = json.load(fh)[0]["surrogate"]
        assert built == [expected]
        assert (job["tol_dimer"], job["tol_trimer"]) == expected
