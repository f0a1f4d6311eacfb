"""r-RESPA multiple-time-step integration across MBE tiers.

Covers the tier split's exactness, barriered dynamics and checkpoint
round-trips through `run_aimd` (including SIGKILL mid-outer-cycle), the
same engine without the barrier, and the CLI flags.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.calculators import PairwisePotentialCalculator
from repro.constants import BOHR_PER_ANGSTROM
from repro.frag.mbe import build_plan, mbe_energy_gradient
from repro.md import (
    AsyncCoordinator,
    CheckpointError,
    SlowTierState,
    TieredMBEForces,
    read_checkpoint,
    run_aimd,
    run_serial,
    slow_tier_items,
)
from repro.md.integrators import maxwell_boltzmann_velocities
from repro.systems import glycine_fragmented, water_cluster

SRC = str(Path(__file__).resolve().parents[1] / "src")
R_DIMER = 6.0 * BOHR_PER_ANGSTROM


@pytest.fixture(scope="module")
def surrogate():
    return PairwisePotentialCalculator()


@pytest.fixture(scope="module")
def glycine4():
    return glycine_fragmented(4)


@pytest.fixture(scope="module")
def v0(glycine4):
    return maxwell_boltzmann_velocities(
        glycine4.parent.masses_au, 300.0, seed=7
    )


def _run(system, calc, v, **kw):
    base = dict(
        nsteps=16, dt_fs=0.25, r_dimer_bohr=R_DIMER, mbe_order=2,
        replan_interval=4, velocities=v.copy(),
    )
    base.update(kw)
    return run_aimd(system, calc, **base)


class TestTierSplit:
    def test_fast_plus_slow_is_exact_mbe(self, glycine4, surrogate):
        """The tier split must reproduce the full MBE bit-for-bit in
        exact arithmetic: fast (all monomers at +1) + slow (polymers at
        c, monomers at c_m - 1) == inclusion-exclusion assembly."""
        plan = build_plan(glycine4, R_DIMER, order=2)
        e_ref, g_ref = mbe_energy_gradient(glycine4, plan, surrogate)
        tiers = TieredMBEForces(glycine4, surrogate)
        tiers.plan = plan
        coords = glycine4.parent.coords
        e_f, g_f = tiers.fast(coords)
        e_s, g_s = tiers.slow(coords)
        assert e_f + e_s == pytest.approx(e_ref, abs=1e-12)
        np.testing.assert_allclose(g_f + g_s, g_ref, atol=1e-12)

    def test_monomer_solves_reused_at_boundaries(self, glycine4, surrogate):
        plan = build_plan(glycine4, R_DIMER, order=2)
        tiers = TieredMBEForces(glycine4, surrogate)
        tiers.plan = plan
        coords = glycine4.parent.coords
        tiers.fast(coords)
        tiers.slow(coords)
        n_mono_corrections = sum(
            1 for key, _ in slow_tier_items(plan, glycine4.nmonomers)
            if len(key) == 1
        )
        assert n_mono_corrections > 0
        assert tiers.monomer_reuses == n_mono_corrections

    def test_slow_before_plan_raises(self, glycine4, surrogate):
        tiers = TieredMBEForces(glycine4, surrogate)
        with pytest.raises(RuntimeError, match="plan"):
            tiers.slow(glycine4.parent.coords)


class TestSlowTierState:
    def test_held_estimate_is_constant(self):
        s = SlowTierState(k=4)
        f = np.ones((3, 3))
        s.push(0, f, -1.0)
        for step in (0, 1, 3):
            e, out = s.estimate(step)
            assert e == -1.0
            np.testing.assert_array_equal(out, f)


class TestSyncDriverMTS:
    def test_drift_comparable_to_baseline(self, glycine4, surrogate, v0):
        base = _run(glycine4, surrogate, v0)
        k4 = _run(glycine4, surrogate, v0, mts_k=4)
        d_base = abs(base.total[-1] - base.total[0])
        d_k4 = abs(k4.total[-1] - k4.total[0])
        assert d_k4 < 10 * max(d_base, 1e-7)
        # trajectories stay close over this short window
        dev = np.max(np.abs(k4.coords[-1] - base.coords[-1]))
        assert dev < 1e-2  # Bohr

    def test_requires_fragmented_system(self, surrogate):
        with pytest.raises(ValueError, match="FragmentedSystem"):
            run_aimd(water_cluster(2), surrogate, nsteps=2, dt_fs=0.5,
                     mts_k=2)

    def test_mid_cycle_checkpoint_resume_bitwise(
        self, glycine4, surrogate, v0, tmp_path
    ):
        """Resume from a checkpoint *inside* an outer cycle (step 6 is
        phase 2 of k=4) and reproduce the uninterrupted run bitwise —
        the held slow forces ride the checkpoint."""
        ck = tmp_path / "ck.npz"
        full = _run(glycine4, surrogate, v0, nsteps=12, mts_k=4,
                    replan_interval=2)
        _run(glycine4, surrogate, v0, nsteps=6, mts_k=4, replan_interval=2,
             checkpoint_path=ck, checkpoint_every=2)
        ckpt = read_checkpoint(ck, mol=glycine4.parent)
        assert ckpt.step == 6
        fast, slow = ckpt.sections["tiers"][0]["held"]
        assert fast["tier"] == 0 and fast["step"] == 6  # the cut's own
        assert slow["tier"] == 1 and slow["k"] == 4
        assert slow["step"] == 4  # held boundary, not the step
        resumed = _run(glycine4, surrogate, v0, nsteps=12, mts_k=4,
                       replan_interval=2, resume=ckpt)
        np.testing.assert_array_equal(full.potential, resumed.potential)
        np.testing.assert_array_equal(full.kinetic, resumed.kinetic)
        np.testing.assert_array_equal(full.coords[-1], resumed.coords[-1])
        np.testing.assert_array_equal(
            full.velocities[-1], resumed.velocities[-1]
        )

    def test_k_mismatch_raises(self, glycine4, surrogate, v0, tmp_path):
        ck = tmp_path / "ck.npz"
        _run(glycine4, surrogate, v0, nsteps=6, mts_k=4,
             checkpoint_path=ck, checkpoint_every=2)
        ckpt = read_checkpoint(ck, mol=glycine4.parent)
        with pytest.raises(CheckpointError, match="does not match"):
            _run(glycine4, surrogate, v0, nsteps=12, mts_k=2,
                 resume=ckpt)

    def test_mts_checkpoint_into_plain_run_raises(
        self, glycine4, surrogate, v0, tmp_path
    ):
        ck = tmp_path / "ck.npz"
        _run(glycine4, surrogate, v0, nsteps=6, mts_k=4,
             checkpoint_path=ck, checkpoint_every=2)
        ckpt = read_checkpoint(ck, mol=glycine4.parent)
        with pytest.raises(CheckpointError, match="mts"):
            _run(glycine4, surrogate, v0, nsteps=12, resume=ckpt)


_KILL_SCRIPT = """
import os, signal, sys
import numpy as np
from repro.calculators import PairwisePotentialCalculator
from repro.constants import BOHR_PER_ANGSTROM
from repro.md import run_aimd
from repro.md.integrators import maxwell_boltzmann_velocities
from repro.systems import glycine_fragmented

class KillAfter:
    def __init__(self, inner, ncalls):
        self.inner, self.ncalls, self.calls = inner, ncalls, 0
    def energy_gradient(self, mol):
        self.calls += 1
        if self.calls > self.ncalls:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.energy_gradient(mol)

system = glycine_fragmented(4)
v0 = maxwell_boltzmann_velocities(system.parent.masses_au, 300.0, seed=7)
run_aimd(system, KillAfter(PairwisePotentialCalculator(), 60),
         nsteps=16, dt_fs=0.25, r_dimer_bohr=6.0 * BOHR_PER_ANGSTROM,
         mbe_order=2, replan_interval=2, velocities=v0, mts_k=4,
         checkpoint_path=sys.argv[1], checkpoint_every=2)
raise SystemExit("should have been killed")
"""


class TestSigkillResumeMTS:
    def test_sigkill_mid_outer_cycle_resume_bitwise(
        self, glycine4, surrogate, v0, tmp_path
    ):
        """The acceptance criterion: SIGKILL an MTS run mid-trajectory,
        resume from the latest checkpoint (which lands inside an outer
        cycle), and reproduce the uninterrupted run bitwise."""
        ck = tmp_path / "ck.npz"
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_SCRIPT, str(ck)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert ck.exists()
        ckpt = read_checkpoint(ck, mol=glycine4.parent)
        assert 0 < ckpt.step < 16
        assert "tiers" in ckpt.sections
        resumed = _run(glycine4, surrogate, v0, mts_k=4,
                       replan_interval=2, resume=ckpt)
        full = _run(glycine4, surrogate, v0, mts_k=4, replan_interval=2)
        np.testing.assert_array_equal(full.potential, resumed.potential)
        np.testing.assert_array_equal(full.kinetic, resumed.kinetic)
        np.testing.assert_array_equal(full.coords[-1], resumed.coords[-1])


class TestCoordinatorMTS:
    def _coord(self, v, nsteps=16, resume=None, **kw):
        system = glycine_fragmented(4)
        kw.setdefault("replan_interval", 4)
        c = AsyncCoordinator(
            system, nsteps=nsteps, dt_fs=0.25, r_dimer_bohr=R_DIMER,
            mbe_order=2, velocities=v.copy(),
            warm_start=False, resume=resume, **kw)
        run_serial(c, PairwisePotentialCalculator())
        return c

    def test_matches_sync_driver(self, glycine4, surrogate, v0):
        """The coordinator's task-by-task tier split must integrate the
        same dynamics as the sync driver's closed-form split."""
        c = self._coord(v0, mts_k=4)
        traj = _run(glycine4, surrogate, v0, mts_k=4)
        _, pe, ke = c.trajectory_energies()
        np.testing.assert_allclose(pe, traj.potential, atol=1e-12)
        np.testing.assert_allclose(ke, traj.kinetic, atol=1e-12)

    def test_k1_is_plain_path(self, v0):
        a = self._coord(v0)
        b = self._coord(v0, mts_k=1)
        _, pe_a, ke_a = a.trajectory_energies()
        _, pe_b, ke_b = b.trajectory_energies()
        np.testing.assert_array_equal(pe_a, pe_b)
        np.testing.assert_array_equal(ke_a, ke_b)
        assert not b.mts

    def test_inner_steps_skip_polymer_tasks(self, v0):
        k4 = self._coord(v0, mts_k=4)
        base = self._coord(v0)
        assert k4.mts_tasks_skipped > 0
        assert k4.tasks_issued < base.tasks_issued
        assert k4.mts_slow_evals == 16 // 4 + 1  # boundaries incl. step 0

    def test_deterministic_resume_bitwise(self, v0, tmp_path):
        ck = tmp_path / "ck.npz"
        full = self._coord(v0, mts_k=4, checkpoint_path=ck,
                           checkpoint_every=4, checkpoint_keep=4)
        t_f, pe_f, ke_f = full.trajectory_energies()
        # pick the rotated generation written at step 8 (not the first)
        ckpt = None
        for q in [ck] + [Path(str(ck) + f".{i}") for i in range(1, 5)]:
            if q.exists():
                c0 = read_checkpoint(q, mol=glycine_fragmented(4).parent)
                if c0.step == 8:
                    ckpt = c0
        assert ckpt is not None
        assert ckpt.sections["tiers"][0]["held"][0]["step"] == 8
        res = self._coord(v0, mts_k=4, resume=ckpt)
        t_r, pe_r, ke_r = res.trajectory_energies()
        np.testing.assert_array_equal(pe_f, pe_r)
        np.testing.assert_array_equal(ke_f, ke_r)
        np.testing.assert_array_equal(full.coords, res.coords)
        np.testing.assert_array_equal(full.velocities, res.velocities)

    def test_mid_cycle_resume_rejected(self, glycine4, surrogate, v0,
                                       tmp_path):
        """A checkpoint with no MTS state, cut inside what the resuming
        run treats as an outer cycle: the held slow forces cannot be
        reconstructed, so the engine refuses from both entry points."""
        ck = tmp_path / "ck.npz"
        self._coord(v0, nsteps=8, replan_interval=2, checkpoint_path=ck,
                    checkpoint_every=6)
        ckpt = read_checkpoint(ck, mol=glycine4.parent)
        assert ckpt.step == 6
        assert [h["tier"] for h in ckpt.sections["tiers"][0]["held"]] == [0]
        with pytest.raises(CheckpointError, match="inside an outer cycle"):
            self._coord(v0, replan_interval=2, mts_k=4, resume=ckpt)
        with pytest.raises(CheckpointError, match="inside an outer cycle"):
            _run(glycine4, surrogate, v0, replan_interval=2, mts_k=4,
                 resume=ckpt)
        # the same cut is fine where every tier is due anyway (its plain
        # tier-0 forces are not this split's: the step is evaluated again)
        self._coord(v0, replan_interval=2, mts_k=2, resume=ckpt)


class TestTiersSection:
    """The engine's own checkpoint section (`_HeldTiers`): what
    `SlowTierState.state_dict/from_state` used to round-trip."""

    def _cut(self, v0, tmp_path):
        system = glycine_fragmented(4)
        kw = dict(dt_fs=0.25, r_dimer_bohr=R_DIMER, mbe_order=2,
                  velocities=v0.copy(),
                  replan_interval=2, mts_k=4)
        ck = tmp_path / "ck.npz"
        co = AsyncCoordinator(system, nsteps=10, checkpoint_path=ck,
                              checkpoint_every=10, **kw)
        run_serial(co, PairwisePotentialCalculator())
        return system, kw, read_checkpoint(ck, mol=system.parent)

    def test_state_roundtrip(self, v0, tmp_path):
        """file -> engine buffers -> `state_dict` is the identity: tier 0
        at the cut 10, held boundary 8, their energies and forces."""
        from repro.md.scheduler import _HeldTiers

        system, kw, ckpt = self._cut(v0, tmp_path)
        meta, arrays = ckpt.sections["tiers"]
        assert meta == {"held": [
            {"tier": 0, "k": 1, "step": 10, "e": meta["held"][0]["e"]},
            {"tier": 1, "k": 4, "step": 8, "e": meta["held"][1]["e"]},
        ]}
        assert sorted(arrays) == ["0.forces", "1.forces"]
        resumed = AsyncCoordinator(system, nsteps=12, resume=ckpt, **kw)
        meta2, arrays2 = _HeldTiers(resumed, 10).state_dict()
        assert meta2 == meta
        for name, value in arrays.items():
            assert arrays2[name].tobytes() == value.tobytes()

    def test_named_boundary_without_forces_raises(self, v0, tmp_path):
        system, kw, ckpt = self._cut(v0, tmp_path)
        meta, arrays = ckpt.sections["tiers"]
        ckpt.sections["tiers"] = (meta, {})
        with pytest.raises(CheckpointError, match="held forces"):
            AsyncCoordinator(system, nsteps=12, resume=ckpt, **kw)

    def test_extrapolated_slow_force_refused(self, v0, tmp_path):
        """A hand-written current-version section declaring the removed
        extrapolation mode is refused, not silently run as impulses."""
        system, kw, ckpt = self._cut(v0, tmp_path)
        meta, arrays = ckpt.sections["tiers"]
        ckpt.sections["tiers"] = ({**meta, "extrapolate": True}, arrays)
        with pytest.raises(CheckpointError, match="extrapolated slow force"):
            AsyncCoordinator(system, nsteps=12, resume=ckpt, **kw)

    def test_plain_run_holds_tier_zero(self, v0, tmp_path):
        """One timescale still holds its forces at the cut, so the
        resumed run evaluates nothing twice."""
        system = glycine_fragmented(4)
        ck = tmp_path / "ck.npz"
        co = AsyncCoordinator(system, nsteps=4, dt_fs=0.25,
                              r_dimer_bohr=R_DIMER, mbe_order=2,
                              velocities=v0.copy(), replan_interval=2,
                              checkpoint_path=ck, checkpoint_every=4)
        run_serial(co, PairwisePotentialCalculator())
        meta, arrays = read_checkpoint(ck, mol=system.parent).sections["tiers"]
        assert [(h["tier"], h["k"], h["step"]) for h in meta["held"]] \
            == [(0, 1, 4)]
        assert sorted(arrays) == ["0.forces"]


class TestCliMTS:
    def test_cli_flags(self, tmp_path, capsys):
        from repro.chem.xyz import save_xyz
        from repro.cli import main
        from repro.systems import glycine_chain

        xyz = tmp_path / "gly.xyz"
        save_xyz(glycine_chain(4), xyz)
        rc = main(["aimd", str(xyz), "--surrogate", "--steps", "8",
                   "--dt", "0.25", "--order", "2", "--r-dimer", "6",
                   "--mts-k", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mts: k=4" in out
        assert "slow-tier evaluations" in out


class TestOneSlowTierMode:
    def test_removed_options_are_gone(self):
        """Impulse r-RESPA is the only slow-tier mode: no extrapolated
        slow force and no per-order ``k`` ladder, on any surface."""
        import inspect

        from repro.cli import build_parser
        from repro.serve import JobSpec

        for fn in (AsyncCoordinator, run_aimd):
            params = inspect.signature(fn).parameters
            assert "mts_extrapolate" not in params
            assert "mts_k_trimer" not in params
        parser = build_parser()
        for argv in (["aimd", "x.xyz", "--mts-extrapolate"],
                     ["submit", "jobs.json", "--job-id", "j",
                      "--mts-extrapolate"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        # the retired keys are unknown ones, whatever their value
        for retired in ({"extrapolate": True}, {"extrapolate": False},
                        {"k_trimer": 8}):
            with pytest.raises(ValueError, match="unknown mts options"):
                JobSpec(job_id="j", system={"kind": "water"},
                        mts={"k": 4, **retired})
