"""Thermostats, trajectory IO, and the smooth-switching MD path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calculators import PairwisePotentialCalculator
from repro.constants import BOHR_PER_ANGSTROM
from repro.frag import FragmentedSystem
from repro.md import (
    BerendsenThermostat,
    LangevinThermostat,
    read_trajectory_xyz,
    run_aimd,
    write_trajectory_xyz,
)
from repro.md.integrators import (
    instantaneous_temperature,
    maxwell_boltzmann_velocities,
)
from repro.systems import water_cluster


class TestThermostats:
    def test_berendsen_drives_to_target(self):
        masses = np.ones(50) * 1837.0
        rng = np.random.default_rng(0)
        v = rng.standard_normal((50, 3)) * 1e-4  # hot start
        th = BerendsenThermostat(temperature_k=300.0, tau_fs=10.0)
        temps = []
        for _ in range(400):
            v = th.apply(v, masses, dt_fs=1.0)
            temps.append(instantaneous_temperature(masses, v))
        assert temps[-1] == pytest.approx(300.0, rel=0.05)

    def test_berendsen_zero_velocity_safe(self):
        masses = np.ones(3) * 1837.0
        v = np.zeros((3, 3))
        th = BerendsenThermostat(temperature_k=300.0)
        out = th.apply(v, masses, 1.0)
        np.testing.assert_array_equal(out, 0.0)

    def test_langevin_equilibrates(self):
        masses = np.ones(200) * 1837.0
        v = np.zeros((200, 3))
        th = LangevinThermostat(temperature_k=250.0, friction_per_fs=0.05, seed=1)
        temps = []
        for _ in range(600):
            v = th.apply(v, masses, dt_fs=1.0)
            temps.append(instantaneous_temperature(masses, v))
        # long-time average near the target
        assert np.mean(temps[300:]) == pytest.approx(250.0, rel=0.1)

    def test_langevin_deterministic_with_seed(self):
        masses = np.ones(5) * 1837.0
        v0 = np.ones((5, 3)) * 1e-4
        a = LangevinThermostat(300.0, seed=7).apply(v0.copy(), masses, 1.0)
        b = LangevinThermostat(300.0, seed=7).apply(v0.copy(), masses, 1.0)
        np.testing.assert_array_equal(a, b)

    def test_nvt_md_holds_temperature(self):
        mol = water_cluster(5, seed=3)
        fs = FragmentedSystem.by_components(mol)
        calc = PairwisePotentialCalculator()
        th = BerendsenThermostat(temperature_k=200.0, tau_fs=5.0)
        traj = run_aimd(
            fs, calc, nsteps=80, dt_fs=0.5, r_dimer_bohr=1e9, mbe_order=2,
            temperature_k=400.0, seed=2, thermostat=th,
        )
        # kinetic temperature of late frames pulled toward 200 K
        ke_late = np.mean(traj.kinetic[-20:])
        t_late = 2 * ke_late / (3 * mol.natoms * 3.166811563e-6)
        assert t_late < 330.0


class TestTrajectoryIO:
    def test_roundtrip(self, tmp_path):
        mol = water_cluster(2, seed=1)
        calc = PairwisePotentialCalculator()
        traj = run_aimd(mol, calc, nsteps=5, dt_fs=0.5, temperature_k=100)
        path = tmp_path / "traj.xyz"
        write_trajectory_xyz(traj, mol, path)
        mol2, back = read_trajectory_xyz(path)
        assert mol2.symbols == mol.symbols
        assert len(back.times_fs) == 6
        np.testing.assert_allclose(back.times_fs, traj.times_fs, atol=1e-9)
        np.testing.assert_allclose(back.potential, traj.potential, atol=1e-9)
        np.testing.assert_allclose(back.kinetic, traj.kinetic, atol=1e-9)
        np.testing.assert_allclose(back.coords[3], traj.coords[3], atol=1e-7)

    def test_empty_file_raises(self, tmp_path):
        p = tmp_path / "empty.xyz"
        p.write_text("")
        with pytest.raises(ValueError):
            read_trajectory_xyz(p)


class TestSmoothSwitchingMD:
    def test_runs_and_conserves(self):
        mol = water_cluster(4, seed=6)
        fs = FragmentedSystem.by_components(mol)
        calc = PairwisePotentialCalculator()
        traj = run_aimd(
            fs, calc, nsteps=40, dt_fs=0.5,
            r_dimer_bohr=6.0 * BOHR_PER_ANGSTROM, mbe_order=2,
            temperature_k=150, seed=4, smooth_switching=True,
        )
        tot = traj.total
        assert np.abs(tot - tot[0]).max() < 2e-3

    def test_matches_hard_cutoff_when_all_inside(self):
        """With every pair well inside r_on the switch is identically 1
        and both paths produce the same trajectory."""
        mol = water_cluster(3, seed=8)
        fs = FragmentedSystem.by_components(mol)
        calc = PairwisePotentialCalculator()
        v0 = maxwell_boltzmann_velocities(mol.masses_au, 100, seed=9)
        kw = dict(nsteps=10, dt_fs=0.5, r_dimer_bohr=1e9, mbe_order=2,
                  velocities=v0)
        hard = run_aimd(fs, calc, **kw)
        smooth = run_aimd(fs, calc, smooth_switching=True, **kw)
        np.testing.assert_allclose(smooth.total, hard.total, atol=1e-10)
        np.testing.assert_allclose(
            smooth.coords[-1], hard.coords[-1], atol=1e-10
        )


class TestRestart:
    def test_split_run_equals_unbroken(self, tmp_path):
        """10 steps = 5 steps + restart + 5 steps, bit-for-bit (NVE Verlet
        is deterministic)."""
        from repro.md import load_restart, save_restart

        mol = water_cluster(3, seed=12)
        fs = FragmentedSystem.by_components(mol)
        calc = PairwisePotentialCalculator()
        v0 = maxwell_boltzmann_velocities(mol.masses_au, 150, seed=1)
        kw = dict(dt_fs=0.5, r_dimer_bohr=1e9, mbe_order=2)
        full = run_aimd(fs, calc, nsteps=10, velocities=v0, **kw)
        first = run_aimd(fs, calc, nsteps=5, velocities=v0, **kw)
        ckpt = tmp_path / "restart.npz"
        save_restart(ckpt, first)
        coords, vel, t0 = load_restart(ckpt)
        assert t0 == pytest.approx(2.5)
        restarted = FragmentedSystem(mol.with_coords(coords), fs.monomers)
        second = run_aimd(restarted, calc, nsteps=5, velocities=vel, **kw)
        np.testing.assert_allclose(second.coords[-1], full.coords[-1], atol=1e-12)
        np.testing.assert_allclose(
            second.potential[-1], full.potential[-1], atol=1e-12
        )

    def test_empty_trajectory_raises(self, tmp_path):
        from repro.md import save_restart
        from repro.md.aimd import Trajectory

        with pytest.raises(ValueError):
            save_restart(tmp_path / "x.npz", Trajectory())


class TestDofAccounting:
    """The 3N-3 degree-of-freedom fixes: center-of-mass-free velocity
    fields must report (and be initialized at) the exact target
    temperature instead of running systematically cold/hot by
    3N/(3N-3)."""

    def test_default_ndof(self):
        from repro.md import default_ndof

        assert default_ndof(1) == 3   # floor: no division by zero
        assert default_ndof(2) == 3
        assert default_ndof(3) == 6
        assert default_ndof(30) == 87
        assert default_ndof(3, com_removed=False) == 9

    @pytest.mark.parametrize("natoms", [3, 30])
    def test_initial_temperature_is_exact(self, natoms):
        """After COM removal + rescale the instantaneous temperature
        equals the request exactly — for a 3-atom fragment the old
        unrescaled draw started ~33% cold on average."""
        rng = np.random.default_rng(4)
        masses = 1837.0 * (1.0 + rng.random(natoms))
        v = maxwell_boltzmann_velocities(masses, 300.0, seed=11)
        assert instantaneous_temperature(masses, v) == pytest.approx(
            300.0, abs=1e-9
        )
        # and the COM really is at rest
        p = (v * masses[:, None]).sum(axis=0)
        np.testing.assert_allclose(p, 0.0, atol=1e-12)

    def test_single_atom_and_zero_temperature_guards(self):
        masses = np.array([1837.0])
        v = maxwell_boltzmann_velocities(masses, 300.0, seed=0)
        assert np.all(np.isfinite(v))
        v0 = maxwell_boltzmann_velocities(np.ones(4) * 1837.0, 0.0, seed=0)
        np.testing.assert_array_equal(v0, 0.0)

    def test_ndof_override(self):
        masses = np.ones(4) * 1837.0
        v = maxwell_boltzmann_velocities(masses, 300.0, seed=3)
        t_internal = instantaneous_temperature(masses, v)
        t_full = instantaneous_temperature(masses, v, ndof=12)
        assert t_full == pytest.approx(t_internal * 9 / 12)


class TestBerendsenClamp:
    def test_large_dt_over_tau_does_not_freeze(self):
        """dt/tau > 1 with a hot system used to drive lam2 negative and
        sqrt(max(lam2, 0)) zeroed the velocities; the smooth clamp
        degrades into an exact rescale to the target instead."""
        masses = np.ones(6) * 1837.0
        v = maxwell_boltzmann_velocities(masses, 1200.0, seed=5)
        th = BerendsenThermostat(temperature_k=300.0, tau_fs=0.25)
        out = th.apply(v, masses, dt_fs=1.0)  # dt/tau = 4
        assert np.any(out != 0.0)
        assert instantaneous_temperature(masses, out) == pytest.approx(
            300.0, abs=1e-9
        )

    def test_clamp_emits_tracer_instant(self):
        from repro.trace import Tracer

        masses = np.ones(6) * 1837.0
        v = maxwell_boltzmann_velocities(masses, 1200.0, seed=5)
        tracer = Tracer()
        th = BerendsenThermostat(temperature_k=300.0, tau_fs=0.25,
                                 tracer=tracer)
        th.apply(v, masses, dt_fs=1.0)
        events = tracer.instants("thermostat.clamp")
        assert len(events) == 1
        # gentle coupling emits nothing
        th.apply(v, masses, dt_fs=0.1)
        assert len(tracer.instants("thermostat.clamp")) == 1


class TestLangevinComDrift:
    def test_mean_temperature_matches_target_with_com_removal(self):
        """Regression for the DOF accounting: a small system thermalized
        by Langevin with COM projection must average the *target*
        temperature over 3N-3 DOF.  Without the fix (plain OU noise,
        3N divisor) the same measurement reads ~25% low for 4 atoms."""
        natoms = 4
        masses = np.ones(natoms) * 1837.0
        th = LangevinThermostat(temperature_k=250.0, friction_per_fs=0.05,
                                seed=9, remove_com_drift=True)
        v = maxwell_boltzmann_velocities(masses, 250.0, seed=2)
        temps = []
        for _ in range(4000):
            v = th.apply(v, masses, dt_fs=1.0)
            temps.append(instantaneous_temperature(masses, v))
        mean_t = np.mean(temps[1000:])
        assert mean_t == pytest.approx(250.0, rel=0.05)
        # the old accounting would have reported 250 * 9/12 = 187.5 K
        assert abs(mean_t - 187.5) > 30.0

    def test_com_momentum_stays_zero(self):
        masses = np.ones(5) * 1837.0
        th = LangevinThermostat(temperature_k=300.0, seed=1,
                                remove_com_drift=True)
        v = np.zeros((5, 3))
        for _ in range(50):
            v = th.apply(v, masses, dt_fs=1.0)
            p = (v * masses[:, None]).sum(axis=0)
            np.testing.assert_allclose(p, 0.0, atol=1e-10)

    def test_rng_state_roundtrip_bitwise(self):
        masses = np.ones(4) * 1837.0
        v0 = np.ones((4, 3)) * 1e-4
        a = LangevinThermostat(300.0, seed=3, remove_com_drift=True)
        b = LangevinThermostat(300.0, seed=99, remove_com_drift=True)
        a.apply(v0.copy(), masses, 1.0)  # advance the stream
        b.load_state(*a.state_dict())
        va = a.apply(v0.copy(), masses, 1.0)
        vb = b.apply(v0.copy(), masses, 1.0)
        np.testing.assert_array_equal(va, vb)
