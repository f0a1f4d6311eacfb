"""The thermostat, trajectory IO, and the smooth-switching MD path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calculators import PairwisePotentialCalculator
from repro.constants import BOHR_PER_ANGSTROM
from repro.frag import FragmentedSystem
from repro.md import (
    LocalLangevinThermostat,
    TrajectoryStreamWriter,
    read_trajectory_stream,
    run_aimd,
)
from repro.md.integrators import (
    instantaneous_temperature,
    maxwell_boltzmann_velocities,
)
from repro.systems import water_cluster


class TestThermostats:
    def test_langevin_equilibrates(self):
        """Per-monomer updates, fresh noise per (step, monomer): the
        long-time mean temperature lands on the target."""
        masses = np.ones(200) * 1837.0
        v = np.zeros((200, 3))
        th = LocalLangevinThermostat(temperature_k=250.0,
                                     friction_per_fs=0.05, seed=1)
        monomers = np.split(np.arange(200), 50)  # 50 monomers of 4 atoms
        temps = []
        for step in range(600):
            for m, rows in enumerate(monomers):
                v[rows] = th.apply_rows(v[rows], masses[rows], 1.0,
                                        step=step, monomer=m)
            temps.append(instantaneous_temperature(masses, v))
        # long-time average near the target
        assert np.mean(temps[300:]) == pytest.approx(250.0, rel=0.1)

    def test_langevin_deterministic_with_seed(self):
        masses = np.ones(5) * 1837.0
        v0 = np.ones((5, 3)) * 1e-4

        def kick(seed, step=3, monomer=2):
            return LocalLangevinThermostat(300.0, seed=seed).apply_rows(
                v0.copy(), masses, 1.0, step=step, monomer=monomer)

        np.testing.assert_array_equal(kick(7), kick(7))
        for other in (kick(8), kick(7, step=4), kick(7, monomer=1)):
            assert np.abs(other - kick(7)).max() > 0.0

    def test_nvt_md_holds_temperature(self):
        mol = water_cluster(5, seed=3)
        fs = FragmentedSystem.by_components(mol)
        calc = PairwisePotentialCalculator()
        th = LocalLangevinThermostat(temperature_k=200.0,
                                     friction_per_fs=0.2, seed=2)
        traj = run_aimd(
            fs, calc, nsteps=80, dt_fs=0.5, r_dimer_bohr=1e9, mbe_order=2,
            temperature_k=400.0, seed=2, thermostat=th,
        )
        # kinetic temperature of late frames pulled to 200 K (the NVE
        # run from the same start reads ~260 K there)
        ke_late = np.mean(traj.kinetic[-20:])
        t_late = 2 * ke_late / (3 * mol.natoms * 3.166811563e-6)
        assert t_late == pytest.approx(200.0, rel=0.2)


class TestTrajectoryIO:
    def test_roundtrip(self, tmp_path):
        mol = water_cluster(2, seed=1)
        calc = PairwisePotentialCalculator()
        traj = run_aimd(mol, calc, nsteps=5, dt_fs=0.5, temperature_k=100)
        path = tmp_path / "traj.xyz"
        with TrajectoryStreamWriter(path, mol) as writer:
            for frame in zip(traj.times_fs, traj.potential, traj.kinetic,
                             traj.coords):
                writer.append_frame(*frame)
        mol2, back = read_trajectory_stream(path)
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
            read_trajectory_stream(p)


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

    def test_thermostat_refused(self):
        """The switched path is a bare whole-system Verlet loop: a
        thermostat is refused up front, not half-applied."""
        fs = FragmentedSystem.by_components(water_cluster(2, seed=8))
        with pytest.raises(ValueError, match="thermostat"):
            run_aimd(fs, PairwisePotentialCalculator(), nsteps=2, dt_fs=0.5,
                     r_dimer_bohr=1e9, mbe_order=2, smooth_switching=True,
                     thermostat=LocalLangevinThermostat(300.0))


class TestRestart:
    def test_split_run_equals_unbroken(self, tmp_path):
        """10 steps = 5 steps + restart + 5 steps, bit-for-bit (NVE Verlet
        is deterministic)."""
        from repro.md.trajio import write_restart

        mol = water_cluster(3, seed=12)
        fs = FragmentedSystem.by_components(mol)
        calc = PairwisePotentialCalculator()
        v0 = maxwell_boltzmann_velocities(mol.masses_au, 150, seed=1)
        kw = dict(dt_fs=0.5, r_dimer_bohr=1e9, mbe_order=2)
        full = run_aimd(fs, calc, nsteps=10, velocities=v0, **kw)
        first = run_aimd(fs, calc, nsteps=5, velocities=v0, **kw)
        ckpt = tmp_path / "restart.npz"
        write_restart(ckpt, first.coords[-1], first.velocities[-1],
                      first.times_fs[-1])
        with np.load(ckpt, allow_pickle=False) as data:
            coords, vel = data["coords"], data["velocities"]
            t0 = float(data["time_fs"])
        assert t0 == pytest.approx(2.5)
        restarted = FragmentedSystem(mol.with_coords(coords), fs.monomers)
        second = run_aimd(restarted, calc, nsteps=5, velocities=vel, **kw)
        np.testing.assert_allclose(second.coords[-1], full.coords[-1], atol=1e-12)
        np.testing.assert_allclose(
            second.potential[-1], full.potential[-1], atol=1e-12
        )


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
