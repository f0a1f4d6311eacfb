"""Crash-safe checkpointing: format validation, kill/resume equivalence."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.calculators import PairwisePotentialCalculator
from repro.chem import Molecule
from repro.frag import FragmentedSystem
from repro.md import (
    AsyncCoordinator,
    Checkpoint,
    CheckpointError,
    LocalLangevinThermostat,
    atomic_savez,
    read_checkpoint,
    read_checkpoint_with_fallback,
    rotation_path,
    run_aimd,
    run_parallel,
    run_serial,
    write_checkpoint,
)
from repro.md.integrators import maxwell_boltzmann_velocities
from repro.md.trajio import write_restart
from repro.systems import water_cluster

BIG = 1.0e6
SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def surrogate():
    return PairwisePotentialCalculator()


def _full_checkpoint(mol) -> Checkpoint:
    rng = np.random.default_rng(0)
    return Checkpoint(
        step=4,
        time_fs=2.0,
        coords=mol.coords + 0.01,
        velocities=rng.normal(size=mol.coords.shape) * 1e-4,
        symbols=tuple(mol.symbols),
        charge=mol.charge,
        times_fs=np.array([0.0, 0.5, 1.0, 1.5, 2.0]),
        potential=rng.normal(size=5),
        kinetic=np.abs(rng.normal(size=5)),
        reference=2,
        sections={
            "frames": ({}, {
                "coords": np.stack([mol.coords + 0.001 * i for i in range(5)]),
                "velocities": np.stack(
                    [rng.normal(size=mol.coords.shape) for _ in range(5)]
                ),
            }),
            "thermostat": ({"kind": "langevin", "rng": {"state": 123}}, {}),
            "driver": ({"tasks_completed": 7, "retries": 1}, {}),
        },
    )


def _restamp(path, arrays=(), **meta_changes):
    """Rewrite ``path`` with meta keys changed and arrays added, checksum
    refreshed: what the writer refuses to produce (it stamps the one
    current version, and files only declared sections' arrays) has to
    be crafted."""
    from repro.md.checkpoint import _payload_checksum

    with np.load(path, allow_pickle=False) as data:
        payload = {k: data[k] for k in data.files if k != "checksum"}
    meta = json.loads(str(payload["meta"]))
    meta.update(meta_changes)
    payload["meta"] = np.array(json.dumps(meta))
    payload.update(arrays)
    payload["checksum"] = np.array(_payload_checksum(payload))
    atomic_savez(path, **payload)


def _final_energy(text: str) -> str:
    """The line CLI runs are compared on, as a string."""
    lines = [ln for ln in text.splitlines()
             if ln.startswith("final total energy:")]
    assert lines, text
    return lines[-1]


class TestCheckpointFormat:
    def test_round_trip_preserves_everything(self, tmp_path):
        mol = water_cluster(2, seed=1)
        ck = _full_checkpoint(mol)
        path = tmp_path / "ck.npz"
        write_checkpoint(path, ck)
        back = read_checkpoint(path, mol=mol)
        assert back.reference == 2
        _assert_same(back, ck)

    def test_write_emits_tracer_event(self, tmp_path):
        from repro.trace import Tracer, recording

        mol = water_cluster(1, seed=1)
        with recording(Tracer()) as tracer:
            write_checkpoint(tmp_path / "ck.npz", _full_checkpoint(mol))
        assert any(e.get("name") == "checkpoint.write"
                   for e in tracer.events)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            read_checkpoint(tmp_path / "nope.npz")

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(b"this is not an npz archive at all")
        with pytest.raises(CheckpointError, match="unreadable"):
            read_checkpoint(path)

    def test_tampered_payload_fails_checksum(self, tmp_path):
        """Flipping payload bits must trip the checksum, not produce a
        silently-wrong trajectory."""
        mol = water_cluster(2, seed=1)
        path = tmp_path / "ck.npz"
        write_checkpoint(path, _full_checkpoint(mol))
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        tampered = np.array(arrays["coords"])
        tampered[0, 0] += 1e-9  # one ulp-scale bit flip
        arrays["coords"] = tampered
        np.savez(path, **arrays)  # keeps the stale checksum
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_missing_checksum_rejected(self, tmp_path):
        path = tmp_path / "ck.npz"
        np.savez(path, coords=np.zeros((3, 3)),
                 meta=np.array(json.dumps({"magic": "x"})))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        """One format is read: a file of an older (one slot per feature)
        or a newer version is refused, and the error names the version
        found."""
        mol = water_cluster(1, seed=1)
        path = tmp_path / "ck.npz"
        write_checkpoint(path, _full_checkpoint(mol))
        for version in (1, 3, 4, 999):
            _restamp(path, version=version)
            with pytest.raises(CheckpointError,
                               match=rf"format version {version};"):
                read_checkpoint(path)

    def test_mismatched_molecule_rejected(self, tmp_path):
        mol = water_cluster(1, seed=1)
        path = tmp_path / "ck.npz"
        write_checkpoint(path, _full_checkpoint(mol))
        other = Molecule(["N", "H", "H"], mol.coords)
        with pytest.raises(CheckpointError, match="different system"):
            read_checkpoint(path, mol=other)
        charged = Molecule(list(mol.symbols), mol.coords, charge=2)
        with pytest.raises(CheckpointError, match="different system"):
            read_checkpoint(path, mol=charged)


class TestAtomicWrite:
    def test_no_tmp_files_left_behind(self, tmp_path):
        path = tmp_path / "a.npz"
        atomic_savez(path, x=np.arange(4))
        atomic_savez(path, x=np.arange(8))  # overwrite in place
        with np.load(path) as data:
            assert data["x"].shape == (8,)
        assert os.listdir(tmp_path) == ["a.npz"]

    def test_failed_write_preserves_previous_file(self, tmp_path, monkeypatch):
        from repro.md import checkpoint as ckmod

        path = tmp_path / "a.npz"
        atomic_savez(path, x=np.arange(4))

        def boom(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(ckmod.os, "fsync", boom)
        with pytest.raises(OSError):
            atomic_savez(path, x=np.arange(8))
        monkeypatch.undo()
        with np.load(path) as data:  # old content intact, no torn file
            assert data["x"].shape == (4,)
        assert os.listdir(tmp_path) == ["a.npz"]


class TestRestartIO:
    def test_round_trip_with_validation(self, tmp_path):
        """The three arrays come back as written, shaped for the system."""
        mol = water_cluster(2, seed=2)
        rng = np.random.default_rng(3)
        coords, vel = mol.coords + 0.01, rng.normal(size=mol.coords.shape)
        path = tmp_path / "restart.npz"
        write_restart(path, coords, vel, 1.5)
        with np.load(path, allow_pickle=False) as data:
            assert sorted(data.files) == ["coords", "time_fs", "velocities"]
            assert data["coords"].shape == data["velocities"].shape \
                == (mol.natoms, 3)
            np.testing.assert_array_equal(data["coords"], coords)
            np.testing.assert_array_equal(data["velocities"], vel)
            assert float(data["time_fs"]) == 1.5

    def test_bare_path_gets_npz_suffix(self, tmp_path):
        mol = water_cluster(1, seed=2)
        write_restart(tmp_path / "restart", mol.coords, mol.coords, 0.0)
        assert os.listdir(tmp_path) == ["restart.npz"]

    def test_failed_write_preserves_previous_restart(self, tmp_path,
                                                     monkeypatch):
        """A write that dies before its rename leaves the previous
        restart intact and no temporary file behind."""
        from repro.md import checkpoint as ckmod

        mol = water_cluster(1, seed=2)
        path = tmp_path / "restart.npz"
        write_restart(path, mol.coords, mol.coords, 0.5)

        def boom(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(ckmod.os, "fsync", boom)
        with pytest.raises(OSError):
            write_restart(path, mol.coords + 1.0, mol.coords, 1.0)
        monkeypatch.undo()
        with np.load(path) as data:
            assert float(data["time_fs"]) == 0.5
            np.testing.assert_array_equal(data["coords"], mol.coords)
        assert os.listdir(tmp_path) == ["restart.npz"]


def _coordinator(system, nsteps, **kw):
    v0 = maxwell_boltzmann_velocities(system.parent.masses_au, 200, seed=8)
    base = dict(
        nsteps=nsteps, dt_fs=0.5, r_dimer_bohr=BIG, mbe_order=2,
        velocities=v0, replan_interval=2,
    )
    base.update(kw)
    return AsyncCoordinator(system, **base)


class TestSchedulerResume:
    @pytest.fixture(scope="class")
    def system(self):
        return FragmentedSystem.by_components(water_cluster(3, seed=2))

    def test_serial_resume_is_bitwise_exact(self, system, surrogate,
                                            tmp_path):
        full = _coordinator(system, nsteps=8)
        run_serial(full, surrogate)
        ck = tmp_path / "ck.npz"
        part = _coordinator(system, nsteps=4, checkpoint_path=ck,
                            checkpoint_every=4)
        run_serial(part, surrogate)
        ckpt = read_checkpoint(ck, mol=system.parent)
        assert ckpt.step == 4
        resumed = _coordinator(system, nsteps=8, resume=ckpt)
        run_serial(resumed, surrogate)
        t_f, pe_f, ke_f = full.trajectory_energies()
        t_r, pe_r, ke_r = resumed.trajectory_energies()
        np.testing.assert_array_equal(t_f, t_r)
        np.testing.assert_array_equal(pe_f, pe_r)
        np.testing.assert_array_equal(ke_f, ke_r)
        np.testing.assert_array_equal(full.coords, resumed.coords)
        np.testing.assert_array_equal(full.velocities, resumed.velocities)

    def test_parallel_resume_is_bitwise_exact(self, system, surrogate,
                                              tmp_path):
        full = _coordinator(system, nsteps=6)
        run_parallel(full, surrogate, nworkers=2)
        ck = tmp_path / "ck.npz"
        part = _coordinator(system, nsteps=4, checkpoint_path=ck,
                            checkpoint_every=2)
        run_parallel(part, surrogate, nworkers=2)
        ckpt = read_checkpoint(ck, mol=system.parent)
        assert ckpt.step == 4
        assert "driver" in ckpt.sections  # fault accounting travels along
        resumed = _coordinator(system, nsteps=6, resume=ckpt)
        report = run_parallel(resumed, surrogate, nworkers=2)
        assert report.clean
        _, pe_f, ke_f = full.trajectory_energies()
        _, pe_r, ke_r = resumed.trajectory_energies()
        np.testing.assert_array_equal(pe_f, pe_r)
        np.testing.assert_array_equal(ke_f, ke_r)

    def test_resume_keeps_reference_monomer(self, system, surrogate,
                                            tmp_path):
        ck = tmp_path / "ck.npz"
        part = _coordinator(system, nsteps=4, checkpoint_path=ck,
                            checkpoint_every=4, reference=1)
        run_serial(part, surrogate)
        ckpt = read_checkpoint(ck)
        resumed = _coordinator(system, nsteps=6, resume=ckpt)
        assert resumed.reference == 1

    def test_misaligned_checkpoint_rejected(self, system):
        ckpt = Checkpoint(
            step=3, time_fs=1.5,
            coords=system.parent.coords.copy(),
            velocities=np.zeros_like(system.parent.coords),
            symbols=tuple(system.parent.symbols),
        )
        with pytest.raises(CheckpointError, match="replan_interval"):
            _coordinator(system, nsteps=8, resume=ckpt)

    def test_wrong_system_size_rejected(self, system):
        ckpt = Checkpoint(
            step=4, time_fs=2.0,
            coords=np.zeros((3, 3)), velocities=np.zeros((3, 3)),
            symbols=("O", "H", "H"),
        )
        with pytest.raises(CheckpointError, match="atoms"):
            _coordinator(system, nsteps=8, resume=ckpt)


class TestRunAimdResume:
    def test_thermostat_rng_round_trips(self, surrogate, tmp_path):
        """A Langevin (stochastic) run must resume bitwise: each
        monomer's noise at a step derives from (seed, step, monomer), so
        the resumed run draws exactly what the uninterrupted one drew."""
        system = FragmentedSystem.by_components(water_cluster(2, seed=5))
        mol = system.parent
        kw = dict(dt_fs=0.5, seed=1, r_dimer_bohr=BIG, mbe_order=2,
                  replan_interval=2)

        def thermostat():
            return LocalLangevinThermostat(300.0, friction_per_fs=0.05, seed=7)

        ck = tmp_path / "ck.npz"
        full = run_aimd(system, surrogate, nsteps=10,
                        thermostat=thermostat(), **kw)
        run_aimd(system, surrogate, nsteps=4, thermostat=thermostat(),
                 checkpoint_path=ck, checkpoint_every=4, **kw)
        ckpt = read_checkpoint(ck, mol=mol)
        assert ckpt.sections["thermostat"] == ({"kind": "local-langevin"}, {})
        resumed = run_aimd(system, surrogate, nsteps=10,
                           thermostat=thermostat(), resume=ckpt, **kw)
        assert len(resumed.times_fs) == len(full.times_fs)
        np.testing.assert_array_equal(full.potential, resumed.potential)
        np.testing.assert_array_equal(full.kinetic, resumed.kinetic)
        np.testing.assert_array_equal(full.coords[-1], resumed.coords[-1])
        np.testing.assert_array_equal(full.velocities[-1],
                                      resumed.velocities[-1])
        # the noise matters: this is not the NVE trajectory
        nve = run_aimd(system, surrogate, nsteps=10, **kw)
        assert np.abs(np.subtract(nve.kinetic, full.kinetic)).max() > 1e-6

    def test_fragmented_resume_bitwise(self, surrogate, tmp_path):
        mol = water_cluster(2, seed=5)
        system = FragmentedSystem.by_components(mol)
        kw = dict(
            dt_fs=0.5, r_dimer_bohr=BIG, r_trimer_bohr=BIG / 2,
            replan_interval=2, velocities=np.zeros_like(mol.coords),
        )
        full = run_aimd(system, surrogate, nsteps=8, **kw)
        ck = tmp_path / "ck.npz"
        run_aimd(system, surrogate, nsteps=4, checkpoint_path=ck,
                 checkpoint_every=4, **kw)
        resumed = run_aimd(system, surrogate, nsteps=8,
                           resume=read_checkpoint(ck, mol=mol), **kw)
        np.testing.assert_array_equal(full.potential, resumed.potential)
        np.testing.assert_array_equal(full.coords[-1], resumed.coords[-1])

    def test_resume_validation_matches_the_coordinator(self, surrogate,
                                                        tmp_path):
        """One validator: what the coordinator rejects, `run_aimd`
        rejects (it used to return a too-long history / resume a
        fragmented run mid-window without complaint)."""
        mol = water_cluster(2, seed=5)
        system = FragmentedSystem.by_components(mol)
        kw = dict(dt_fs=0.5, r_dimer_bohr=BIG, r_trimer_bohr=BIG / 2,
                  velocities=np.zeros_like(mol.coords))
        ck = tmp_path / "ck.npz"
        run_aimd(system, surrogate, nsteps=6, replan_interval=2,
                 checkpoint_path=ck, checkpoint_every=6, **kw)
        ckpt = read_checkpoint(ck, mol=mol)
        assert ckpt.step == 6
        with pytest.raises(CheckpointError, match="beyond nsteps=4"):
            run_aimd(system, surrogate, nsteps=4, replan_interval=2,
                     resume=ckpt, **kw)
        with pytest.raises(CheckpointError, match="replan_interval=4"):
            run_aimd(system, surrogate, nsteps=8, replan_interval=4,
                     resume=ckpt, **kw)

    def test_frozen_plan_never_checkpoints(self, surrogate, tmp_path):
        """replan_interval=0 freezes the step-0 plan, which a resume
        cannot reconstruct — so no checkpoint may ever be written."""
        system = FragmentedSystem.by_components(water_cluster(2, seed=5))
        ck = tmp_path / "ck.npz"
        run_aimd(system, surrogate, nsteps=4, dt_fs=0.5,
                 r_dimer_bohr=BIG, r_trimer_bohr=BIG / 2,
                 replan_interval=0, velocities=np.zeros((6, 3)),
                 checkpoint_path=ck, checkpoint_every=2)
        assert not ck.exists()


_KILL_AFTER = """
import os, signal, sys
import numpy as np

class KillAfter:
    def __init__(self, inner, ncalls):
        self.inner, self.ncalls, self.calls = inner, ncalls, 0
    def energy_gradient(self, mol):
        self.calls += 1
        if self.calls > self.ncalls:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.energy_gradient(mol)
"""

_KILL_SCRIPT = _KILL_AFTER + """
from repro.calculators import PairwisePotentialCalculator
from repro.md import run_aimd
from repro.systems import water_cluster

mol = water_cluster(2, seed=5)
run_aimd(mol, KillAfter(PairwisePotentialCalculator(), 7),
         nsteps=10, dt_fs=0.5, seed=1,
         checkpoint_path=sys.argv[1], checkpoint_every=2)
raise SystemExit("should have been killed")
"""

#: argv: mode (serial | parallel | kill | resume), output .npz, checkpoint.
#: MBE2 of two monomers is the dimer alone: one RI-HF solve a step.
_QM_SCRIPT = _KILL_AFTER + """
from repro.calculators import GuessCache, RIHFCalculator
from repro.frag import FragmentedSystem
from repro.md import AsyncCoordinator, read_checkpoint, run_parallel, run_serial
from repro.md.integrators import maxwell_boltzmann_velocities
from repro.systems import water_cluster

mode, out, ck = sys.argv[1:]
system = FragmentedSystem.by_components(water_cluster(2, seed=5))
# its own cache: the kill wrapper would hide an attached one
calc = RIHFCalculator(basis="sto-3g", int_screen=1e-12,
                      guess_cache=GuessCache())
kw = dict(
    nsteps=6, dt_fs=0.5, r_dimer_bohr=1.0e6, mbe_order=2, replan_interval=2,
    velocities=maxwell_boltzmann_velocities(system.parent.masses_au, 200, seed=8),
)
if mode == "kill":
    calc = KillAfter(calc, 5)
    kw.update(checkpoint_path=ck, checkpoint_every=2)
elif mode == "resume":
    kw.update(resume=read_checkpoint(ck, mol=system.parent))
engine = AsyncCoordinator(system, **kw)
if mode == "parallel":
    run_parallel(engine, calc, nworkers=2)
else:
    run_serial(engine, calc)
_, pe, ke = engine.trajectory_energies()
np.savez(out, coords=engine.coords, velocities=engine.velocities,
         potential=pe, kinetic=ke)
"""


class TestSigkillResume:
    def test_sigkill_mid_run_then_resume_matches_uninterrupted(
        self, surrogate, tmp_path
    ):
        """The acceptance criterion: SIGKILL the process mid-trajectory,
        resume from the latest checkpoint, and reproduce the
        uninterrupted run bitwise."""
        ck = tmp_path / "ck.npz"
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_SCRIPT, str(ck)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert ck.exists()

        mol = water_cluster(2, seed=5)
        ckpt = read_checkpoint(ck, mol=mol)
        assert 0 < ckpt.step < 10  # died mid-run with state on disk
        resumed = run_aimd(mol, surrogate, nsteps=10, dt_fs=0.5,
                           resume=ckpt)
        full = run_aimd(mol, surrogate, nsteps=10, dt_fs=0.5, seed=1)
        np.testing.assert_array_equal(full.potential, resumed.potential)
        np.testing.assert_array_equal(full.kinetic, resumed.kinetic)
        np.testing.assert_array_equal(full.coords[-1], resumed.coords[-1])
        np.testing.assert_array_equal(
            full.velocities[-1], resumed.velocities[-1]
        )


class TestQMDeterminism:
    """The QM path, warm starts and Schwarz screening on: an RI-HF
    sto-3g water dimer, Schwarz-screened at the CLI default, is
    byte-identical across fresh processes, across SIGKILL-and-resume and
    across drivers (a resumed process starts with an empty workspace:
    the checkpoint's fragment records carry the densities, and every
    evaluation screens with its own geometry's tables). Every run is a
    child process with BLAS pinned to one thread (the stated condition
    of the contract); the comparison is on ``tobytes()``, not on printed
    digits."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("qm")
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

        def run(mode, returncode=0):
            proc = subprocess.run(
                [sys.executable, "-c", _QM_SCRIPT, mode,
                 str(tmp / "out.npz"), str(tmp / "ck.npz")],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == returncode, proc.stderr
            if returncode == 0:
                with np.load(tmp / "out.npz") as z:
                    return {k: z[k] for k in z.files}

        return run

    @pytest.fixture(scope="class")
    def uninterrupted(self, run):
        return run("serial")

    @staticmethod
    def assert_same_bytes(got, want):
        assert want["potential"].shape == (7,)
        for name, ref in want.items():
            same = got[name].tobytes() == ref.tobytes()
            assert same, (f"{name} differs by up to "
                          f"{np.abs(got[name] - ref).max():.3e}")

    def test_fresh_processes_are_byte_identical(self, run, uninterrupted):
        self.assert_same_bytes(run("serial"), uninterrupted)

    def test_sigkill_then_resume_is_byte_identical(self, run, uninterrupted):
        run("kill", returncode=-signal.SIGKILL)
        self.assert_same_bytes(run("resume"), uninterrupted)

    def test_parallel_is_byte_identical_to_serial(self, run, uninterrupted):
        self.assert_same_bytes(run("parallel"), uninterrupted)


class TestCliResume:
    def test_cli_resume_reproduces_final_energy(self, tmp_path, capsys):
        from repro.chem.xyz import save_xyz
        from repro.cli import main

        mol = water_cluster(3, seed=4)
        xyz = tmp_path / "w3.xyz"
        save_xyz(mol, xyz)
        ck = tmp_path / "ck.npz"
        common = ["aimd", str(xyz), "--surrogate", "--dt", "0.5"]
        assert main(common + ["--steps", "8"]) == 0
        full_out = capsys.readouterr().out
        assert main(common + ["--steps", "4", "--checkpoint", str(ck),
                              "--checkpoint-every", "4"]) == 0
        capsys.readouterr()
        assert main(common + ["--steps", "8", "--resume", str(ck)]) == 0
        resumed_out = capsys.readouterr().out
        assert "resuming from" in resumed_out
        assert _final_energy(full_out) == _final_energy(resumed_out)


class TestRotationAndFallback:
    """keep-N rotation plus last-good fallback under every corruption
    mode the chaos engine injects (ISSUE satellite: corrupted-checkpoint
    coverage)."""

    def _write_generations(self, tmp_path, mol, steps, keep=3):
        path = tmp_path / "ck.npz"
        for s in steps:
            ck = _full_checkpoint(mol)
            ck.step = s
            write_checkpoint(path, ck, keep=keep)
        return path

    def test_rotation_chain_keeps_newest_n(self, tmp_path):
        mol = water_cluster(2, seed=1)
        path = self._write_generations(tmp_path, mol, [1, 2, 3, 4], keep=3)
        assert read_checkpoint(path).step == 4
        assert read_checkpoint(rotation_path(path, 1)).step == 3
        assert read_checkpoint(rotation_path(path, 2)).step == 2
        assert not rotation_path(path, 3).exists()  # oldest dropped

    def test_keep_one_leaves_no_rotations(self, tmp_path):
        mol = water_cluster(2, seed=1)
        path = self._write_generations(tmp_path, mol, [1, 2], keep=1)
        assert read_checkpoint(path).step == 2
        assert not rotation_path(path, 1).exists()

    def test_fallback_prefers_valid_primary(self, tmp_path):
        mol = water_cluster(2, seed=1)
        path = self._write_generations(tmp_path, mol, [1, 2])
        ck, used = read_checkpoint_with_fallback(path, mol=mol)
        assert used == path and ck.step == 2

    @pytest.mark.parametrize("kind", ["ckpt_torn", "ckpt_bitflip"])
    def test_fallback_after_injected_corruption(self, tmp_path, kind):
        from repro.faults import corrupt_checkpoint
        from repro.trace import Tracer, recording

        mol = water_cluster(2, seed=1)
        path = self._write_generations(tmp_path, mol, [1, 2])
        corrupt_checkpoint(path, kind, seed=3)
        with pytest.raises(CheckpointError):
            read_checkpoint(path, mol=mol)  # typed, never silent
        with recording(Tracer()) as tracer:
            ck, used = read_checkpoint_with_fallback(path, mol=mol)
        assert used == rotation_path(path, 1)
        assert ck.step == 1
        falls = [e for e in tracer.events if e.get("name") == "ckpt.fallback"]
        assert falls and str(path) in str(falls[0])

    def test_fallback_after_truncation_to_garbage(self, tmp_path):
        mol = water_cluster(2, seed=1)
        path = self._write_generations(tmp_path, mol, [1, 2])
        path.write_bytes(path.read_bytes()[:40])
        ck, used = read_checkpoint_with_fallback(path, mol=mol)
        assert used == rotation_path(path, 1) and ck.step == 1

    def test_fallback_after_bad_version(self, tmp_path):
        mol = water_cluster(2, seed=1)
        path = self._write_generations(tmp_path, mol, [1, 2])
        bad = _full_checkpoint(mol)
        bad.step = 9
        write_checkpoint(path, bad)  # overwrites primary, keeps .1
        _restamp(path, version=99)
        with pytest.raises(CheckpointError, match="format version"):
            read_checkpoint(path, mol=mol)
        ck, used = read_checkpoint_with_fallback(path, mol=mol)
        assert used == rotation_path(path, 1) and ck.step == 1

    def test_fallback_after_stale_checksum(self, tmp_path):
        """Payload edited without refreshing the checksum — the stale
        digest must fail verification and fall back."""
        mol = water_cluster(2, seed=1)
        path = self._write_generations(tmp_path, mol, [1, 2])
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["coords"] = np.array(arrays["coords"]) + 1.0
        atomic_savez(path, **arrays)  # keeps the old checksum array
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path, mol=mol)
        ck, used = read_checkpoint_with_fallback(path, mol=mol)
        assert used == rotation_path(path, 1) and ck.step == 1

    def test_missing_primary_falls_back(self, tmp_path):
        """Covers the instant between rotation and the new primary's
        atomic write."""
        mol = water_cluster(2, seed=1)
        path = self._write_generations(tmp_path, mol, [1, 2])
        os.unlink(path)
        ck, used = read_checkpoint_with_fallback(path, mol=mol)
        assert used == rotation_path(path, 1) and ck.step == 1

    def test_whole_chain_corrupt_enumerates_failures(self, tmp_path):
        from repro.faults import corrupt_checkpoint

        mol = water_cluster(2, seed=1)
        path = self._write_generations(tmp_path, mol, [1, 2])
        corrupt_checkpoint(path, "ckpt_torn", seed=0)
        corrupt_checkpoint(rotation_path(path, 1), "ckpt_bitflip", seed=0)
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            read_checkpoint_with_fallback(path, mol=mol)

    def test_fault_plan_corrupts_only_the_primary(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec
        from repro.trace import Tracer, recording

        mol = water_cluster(2, seed=1)
        path = tmp_path / "ck.npz"
        plan = FaultPlan(seed=5, specs=[FaultSpec(kind="ckpt_torn", step=8)])
        with recording(Tracer()) as tracer:
            for s in [4, 8]:
                ck = _full_checkpoint(mol)
                ck.step = s
                write_checkpoint(path, ck, keep=2, fault_plan=plan)
        assert any(e.get("name") == "fault.inject" for e in tracer.events)
        assert plan.audit_summary() == {"ckpt_torn": 1}
        with pytest.raises(CheckpointError):
            read_checkpoint(path, mol=mol)
        ck, used = read_checkpoint_with_fallback(path, mol=mol)
        assert used == rotation_path(path, 1) and ck.step == 4

    def test_corruption_is_seed_deterministic(self, tmp_path):
        from repro.faults import corrupt_checkpoint

        mol = water_cluster(2, seed=1)
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        for p in (a, b):
            write_checkpoint(p, _full_checkpoint(mol))
        da = corrupt_checkpoint(a, "ckpt_bitflip", seed=11)
        db = corrupt_checkpoint(b, "ckpt_bitflip", seed=11)
        assert da["offset"] == db["offset"] and da["bit"] == db["bit"]
        assert a.read_bytes() == b.read_bytes()
        assert corrupt_checkpoint(a, "ckpt_torn", seed=1)["cut"] != 0

    def test_fallback_walks_past_a_gap_in_the_rotations(self, tmp_path):
        """`_rotate_checkpoints` with keep >= 3 renames .1 -> .2 before
        path -> .1; a kill between the two leaves ``path`` and
        ``path.2`` with no ``path.1``. A damaged primary must then still
        find the valid ``.2`` (the walk used to stop at the first gap)."""
        mol = water_cluster(2, seed=1)
        path = self._write_generations(tmp_path, mol, [1, 2, 3], keep=3)
        os.unlink(rotation_path(path, 1))
        path.write_bytes(path.read_bytes()[:40])
        ck, used = read_checkpoint_with_fallback(path, mol=mol)
        assert used == rotation_path(path, 2) and ck.step == 1


# --------------------------------------------------------------------------
# schema properties
# --------------------------------------------------------------------------

_NAMES = st.text("abcxyzXYZ019_-", min_size=1, max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda leaf: st.lists(leaf, max_size=3)
    | st.dictionaries(st.text(max_size=4), leaf, max_size=3),
    max_leaves=6,
)
_DTYPES = st.sampled_from(
    ["<f8", ">f8", "<f4", "<i8", "<i4", "u1", "?", "<c16"]
)


@st.composite
def _arrays(draw):
    a = draw(hnp.arrays(
        dtype=draw(_DTYPES),
        shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    ))
    # 0-d and empty arrays come from the shapes; strided and
    # Fortran-ordered views from here
    view = draw(st.sampled_from(["as is", "reversed", "transposed"]))
    if view == "reversed" and a.ndim:
        a = a[::-1]
    elif view == "transposed":
        a = a.T
    return a


_SECTIONS = st.dictionaries(
    _NAMES,
    st.tuples(
        st.dictionaries(st.text(max_size=4), _JSON, max_size=3),
        # an array name may contain the separator, a section name may not
        st.dictionaries(st.text("ab01_.", min_size=1, max_size=5), _arrays(),
                        max_size=3),
    ),
    max_size=4,
)


def _core(step=4, **kw) -> Checkpoint:
    mol = water_cluster(1, seed=1)
    rng = np.random.default_rng(step)
    return Checkpoint(
        step=step, time_fs=0.5 * step, coords=mol.coords + 0.01 * step,
        velocities=rng.normal(size=mol.coords.shape) * 1e-4,
        symbols=tuple(mol.symbols), times_fs=0.5 * np.arange(step + 1),
        potential=rng.normal(size=step + 1),
        kinetic=np.abs(rng.normal(size=step + 1)), reference=0, **kw,
    )


def _assert_same(got: Checkpoint, want: Checkpoint) -> None:
    """Equal state: core scalars ``==``, meta ``==``, every array bitwise
    with dtype and shape."""
    def same_array(x, y):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.ascontiguousarray(x).tobytes() == \
            np.ascontiguousarray(y).tobytes()

    for name in ("step", "time_fs", "symbols", "charge", "reference"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("coords", "velocities", "times_fs", "potential", "kinetic"):
        same_array(getattr(got, name), getattr(want, name))
    assert list(got.sections) == list(want.sections)
    for name, (meta, arrays) in want.sections.items():
        assert got.sections[name][0] == meta
        assert list(got.sections[name][1]) == list(arrays)
        for key, value in arrays.items():
            same_array(got.sections[name][1][key], value)


def _stored_checksum(path) -> str:
    with np.load(path, allow_pickle=False) as data:
        return str(data["checksum"])


class TestSchemaProperties:
    @settings(max_examples=60, deadline=None)
    @given(sections=_SECTIONS)
    def test_sections_round_trip_property(self, sections):
        """Any subset of sections with any small meta/arrays comes back
        equal, and write -> read -> write stores the same checksum (not
        the same bytes: zip entries carry a timestamp)."""
        ck = _core(sections=sections)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.npz"), Path(tmp, "b.npz")
            write_checkpoint(first, ck)
            back = read_checkpoint(first)
            _assert_same(back, ck)
            write_checkpoint(second, back)
            assert _stored_checksum(first) == _stored_checksum(second)

    @given(name=st.text("ab.", min_size=1, max_size=4).filter(lambda s: "." in s))
    def test_separator_in_a_section_name_property(self, name):
        """... is refused at write: the reader could not split it back."""
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ValueError, match="section name"):
                write_checkpoint(Path(tmp, "a.npz"),
                                 _core(sections={name: ({}, {})}))
            assert os.listdir(tmp) == []  # refused before anything is written

    def test_object_arrays_refused_at_write_property(self, tmp_path):
        """``allow_pickle=False`` is a reader property; the writer must
        not produce what the reader would then have to refuse."""
        bad = {"s": ({}, {"a": np.array([{"x": 1}], dtype=object)})}
        with pytest.raises(ValueError, match="object dtype"):
            write_checkpoint(tmp_path / "a.npz", _core(sections=bad))

    def test_undeclared_array_rejected_property(self, tmp_path):
        """An array no declared section claims is a malformed file, not
        something to drop silently."""
        path = tmp_path / "a.npz"
        for stray in ("t.a", "stray"):
            write_checkpoint(path, _core(sections={"s": ({}, {"a": np.ones(2)})}))
            _restamp(path, arrays={stray: np.zeros(1)})
            with pytest.raises(CheckpointError, match="no declared section"):
                read_checkpoint(path)

    @pytest.fixture(scope="class")
    def generations(self, tmp_path_factory):
        """Two written generations (keep=2) and their bytes."""
        tmp = tmp_path_factory.mktemp("generations")
        path = tmp / "ck.npz"
        sections = {"s": ({"k": [1, 2.5, None]}, {"a.b": np.arange(6.0)})}
        old, new = _core(2, sections=sections), _core(4, sections=sections)
        write_checkpoint(path, old, keep=2)
        write_checkpoint(path, new, keep=2)
        return path, path.read_bytes(), old, new

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corruption_property(self, generations, data):
        """Truncation at any offset is a `CheckpointError`; any single
        bit flip is a `CheckpointError` or the state that was written (a
        flip in a zip header field that carries no state, e.g. an entry
        timestamp, is not corruption of the state) — never a different
        `Checkpoint`. The fallback chain on the damaged primary returns
        one of the two written states' files and nothing else."""
        path, good, old, new = generations
        offset = data.draw(st.integers(0, len(good) - 1), label="offset")
        try:
            path.write_bytes(good[:offset])
            with pytest.raises(CheckpointError):
                read_checkpoint(path)
            ck, used = read_checkpoint_with_fallback(path)
            assert used == rotation_path(path, 1)
            _assert_same(ck, old)

            flipped = bytearray(good)
            flipped[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
            path.write_bytes(bytes(flipped))
            try:
                _assert_same(read_checkpoint(path), new)
            except CheckpointError:
                pass
            ck, used = read_checkpoint_with_fallback(path)
            if used == path:
                _assert_same(ck, new)
            else:
                assert used == rotation_path(path, 1)
                _assert_same(ck, old)
        finally:
            path.write_bytes(good)


class TestTiersSection:
    @pytest.mark.parametrize("mts_k", [1, 2])
    def test_two_slow_tiers_refused_as_a_mismatch(self, surrogate, tmp_path,
                                                 mts_k):
        """A current-version file whose tiers are a per-order ``k``
        ladder (slow tiers k = 2 and 4) matches no run of the one-slow-
        tier engine: it is refused as any other tier mismatch."""
        system = FragmentedSystem.by_components(water_cluster(3, seed=4))
        kw = dict(dt_fs=0.5, r_dimer_bohr=BIG, r_trimer_bohr=BIG,
                  mbe_order=3, replan_interval=2,
                  velocities=np.zeros_like(system.parent.coords))
        ck = tmp_path / "ck.npz"
        run_aimd(system, surrogate, nsteps=4, mts_k=2, checkpoint_path=ck,
                 checkpoint_every=4, **kw)
        ckpt = read_checkpoint(ck, mol=system.parent)
        meta, arrays = ckpt.sections["tiers"]
        assert [(h["tier"], h["k"]) for h in meta["held"]] == [(0, 1), (1, 2)]
        ckpt.sections["tiers"] = (
            {"held": [*meta["held"], {"tier": 2, "k": 4, "step": 4, "e": 0.0}]},
            {**arrays, "2.forces": arrays["1.forces"]},
        )
        write_checkpoint(ck, ckpt)
        ladder = read_checkpoint(ck, mol=system.parent)
        with pytest.raises(CheckpointError, match="does not match"):
            run_aimd(system, surrogate, nsteps=8, mts_k=mts_k, resume=ladder,
                     **kw)


class TestFragmentsSection:
    """The engine's ``fragments`` section (`FragmentRecords`)."""

    def test_round_trip_and_mismatched_records_dropped(self):
        from repro.calculators import FragmentRecord
        from repro.md.scheduler import FragmentRecords

        rng = np.random.default_rng(0)

        def record(natoms, nbf, n):
            return FragmentRecord(
                tuple(rng.standard_normal((nbf, nbf)) for _ in range(n)),
                natoms)

        natoms = {(0,): 3, (0, 1): 6, (1,): 3}.get
        records = FragmentRecords(natoms)
        records[(0,)], records[(0, 1)] = record(3, 7, 2), record(6, 14, 3)
        records[(1,)] = FragmentRecord()  # nothing to carry: not written
        meta, arrays = records.state_dict()
        back = FragmentRecords(natoms)
        back.load_state(meta, arrays)
        assert sorted(back) == [(0,), (0, 1)]
        for key, rec in back.items():
            want = records[key]
            assert rec.natoms == want.natoms
            assert [d.tobytes() for d in rec.densities] == [
                d.tobytes() for d in want.densities]
        assert back.nbytes == records.nbytes
        # a fragment that no longer has the atoms its record was made
        # for starts cold; so does one the system does not have
        other = FragmentRecords({(0,): 4, (0, 1): 6}.get)
        other.load_state(meta, arrays)
        assert sorted(other) == [(0, 1)]
        assert FragmentRecords(natoms).state_dict() is None


class TestSchemaOwnership:
    def test_no_legacy_slot_names(self):
        """The container knows no feature and reads one format: no
        legacy slot name is spelt anywhere under ``src/repro``, and
        `md/checkpoint.py` imports none of the section owners. (The
        engine statistic ``mts_slow_evals`` is not a slot.)"""
        import ast
        import re

        legacy = re.compile(
            r"mts_slow(?!_evals)|step3|e_slow3|surrogate_arrays"
            r"|frame_coords|frame_velocities"
        )
        root = Path(SRC) / "repro"
        offenders = []
        for path in sorted(root.rglob("*.py")):
            text = path.read_text()
            offenders += [f"{path.relative_to(root)}: {ln.strip()}"
                          for ln in text.splitlines() if legacy.search(ln)]
            if path == root / "md" / "checkpoint.py":
                imported = [
                    getattr(n, "module", None) or n.names[0].name
                    for n in ast.walk(ast.parse(text))
                    if isinstance(n, (ast.Import, ast.ImportFrom))
                ]
                assert not [m for m in imported if re.search(
                    r"\b(mts|surrogate|drivers)\b", m)], imported
        assert not offenders, offenders


class TestQuarantineSurvivesResume:
    """A fragment zeroed before the cut stays reported after it: the
    ``driver`` section carries the records, not their count."""

    @pytest.fixture(scope="class")
    def system(self):
        return FragmentedSystem.by_components(water_cluster(3, seed=2))

    def test_restored_report_keeps_its_quarantine_records(
        self, system, surrogate, tmp_path
    ):
        from repro.faults import FaultPlan, FaultPlanCalculator, FaultSpec
        from repro.md import DriverReport, FailurePolicy

        plan = FaultPlan(seed=1, specs=[
            FaultSpec(kind="transient", step=1, key=(0, 1), attempts=99)])
        ck = tmp_path / "ck.npz"
        part = _coordinator(system, nsteps=4, checkpoint_path=ck,
                            checkpoint_every=2)
        report = run_parallel(
            part, FaultPlanCalculator(surrogate, plan), nworkers=2,
            policy=FailurePolicy(max_retries=0, quarantine=True))
        assert [(q.key, q.step) for q in report.quarantined] == [((0, 1), 1)]
        ckpt = read_checkpoint(ck, mol=system.parent)
        restored = DriverReport()
        restored.load_state(*ckpt.sections["driver"])
        assert restored.clean is False
        assert restored.quarantined == report.quarantined
        # ... and the resumed driver's own report starts from it
        resumed = _coordinator(system, nsteps=6, resume=ckpt)
        after = run_parallel(resumed, surrogate, nworkers=2)
        assert after.clean is False
        assert after.quarantined == report.quarantined
        assert after.tasks_completed > report.tasks_completed

    def test_cli_prints_the_quarantine_again_after_resume(
        self, tmp_path, capsys
    ):
        from repro.chem.xyz import save_xyz
        from repro.cli import main
        from repro.faults import FaultPlan, FaultSpec

        xyz, ck = tmp_path / "w3.xyz", tmp_path / "ck.npz"
        save_xyz(water_cluster(3, seed=4), xyz)
        FaultPlan(seed=1, specs=[
            FaultSpec(kind="transient", step=1, key=(0, 1), attempts=99),
        ]).save(tmp_path / "plan.json")
        common = ["aimd", str(xyz), "--surrogate", "--dt", "0.5",
                  "--workers", "2", "--max-retries", "0",
                  "--quarantine", "--r-dimer", "30", "--order", "2"]
        assert main(common + ["--steps", "4", "--checkpoint", str(ck),
                              "--checkpoint-every", "4", "--fault-plan",
                              str(tmp_path / "plan.json")]) == 0
        first = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("QUARANTINED polymer (0, 1) step 1")]
        assert len(first) == 1
        assert main(common + ["--steps", "8", "--resume", str(ck)]) == 0
        again = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("QUARANTINED polymer")]
        assert again == first
