"""One run mode: every run resumes bitwise and is independent of how
many workers ran it, with warm starts, Schwarz screening and the
surrogate on.

What a fragment carries from one evaluation to the next — its
warm-start densities (`repro.calculators.FragmentRecord`) — is
trajectory state: it rides the task to whichever worker runs it, comes
back with the result and goes into the checkpoint at a cut the next
step's tasks wait for. The matrix runs one trajectory five ways
(serial; serial, cut and resumed; two worker processes; two workers,
cut and resumed; two workers with one dying at step 1) and compares the
bytes of the energy arrays.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.calculators import (
    GuessCache,
    PairwisePotentialCalculator,
    RIHFCalculator,
)
from repro.constants import BOHR_PER_ANGSTROM
from repro.faults import FaultPlan, FaultPlanCalculator, FaultSpec
from repro.frag import FragmentedSystem
from repro.integrals import IntegralWorkspace
from repro.md import AsyncCoordinator, read_checkpoint, run_parallel, run_serial
from repro.md.integrators import maxwell_boltzmann_velocities
from repro.surrogate import SurrogateManager
from repro.systems import glycine_fragmented, water_cluster

#: steps between checkpoint cuts in every leg
EVERY = 4


def _legs(make, calc, serial_calc, nsteps: int, cut: int, crash: FaultSpec,
          tmp_path) -> dict:
    """The five legs' finished coordinators, by name. ``make(nsteps,
    **kw)`` builds a fresh coordinator, ``calc()`` a calculator a worker
    process can take, ``serial_calc`` the uninterrupted serial leg's."""
    legs = {}
    co = make(nsteps)
    run_serial(co, serial_calc)
    legs["serial"] = co

    ck = tmp_path / "serial.npz"
    run_serial(make(cut, checkpoint_path=ck, checkpoint_every=EVERY), calc())
    co = make(nsteps, resume=read_checkpoint(ck))
    run_serial(co, calc())
    legs["serial, resumed"] = co

    co = make(nsteps)
    run_parallel(co, calc(), nworkers=2)
    legs["2 workers"] = co

    ck = tmp_path / "parallel.npz"
    run_parallel(make(cut, checkpoint_path=ck, checkpoint_every=EVERY),
                 calc(), nworkers=2)
    co = make(nsteps, resume=read_checkpoint(ck))
    run_parallel(co, calc(), nworkers=2)
    legs["2 workers, resumed"] = co

    co = make(nsteps)
    report = run_parallel(
        co, FaultPlanCalculator(calc(), FaultPlan(specs=[crash])), nworkers=2)
    assert report.pool_restarts >= 1 and report.clean
    legs["2 workers, a worker dies"] = co
    return legs


def _assert_bitwise(legs: dict) -> None:
    _, pe, ke = legs["serial"].trajectory_energies()
    for name, co in legs.items():
        _, pe_got, ke_got = co.trajectory_energies()
        assert pe_got.tobytes() == pe.tobytes(), f"{name}: potential"
        assert ke_got.tobytes() == ke.tobytes(), f"{name}: kinetic"


class TestOneRunMode:
    def test_qm_matrix_bitwise(self, tmp_path):
        """RI-HF sto-3g water trimer, screened at the CLI default,
        asynchronous, warm starts on: the serial leg takes warm solves
        and evicts nothing, and the two-worker leg reports the serial
        leg's warm starts."""
        system = FragmentedSystem.by_components(water_cluster(3, seed=1))
        assert system.nmonomers == 3
        v0 = maxwell_boltzmann_velocities(system.parent.masses_au, 300.0,
                                          seed=8)

        def make(nsteps, **kw):
            return AsyncCoordinator(
                system, nsteps=nsteps, dt_fs=0.5, r_dimer_bohr=1.0e6,
                mbe_order=2, replan_interval=EVERY, velocities=v0, **kw)

        ws = IntegralWorkspace()
        legs = _legs(
            make, lambda: RIHFCalculator(int_screen=1e-12),
            RIHFCalculator(int_screen=1e-12, workspace=ws), nsteps=8, cut=4,
            crash=FaultSpec(kind="crash", step=1, key=(0, 1)),
            tmp_path=tmp_path,
        )
        _assert_bitwise(legs)
        assert ws.evictions == 0
        cache = legs["serial"].guess_cache
        assert cache.hits >= 1
        assert legs["2 workers"].guess_cache.stats() == cache.stats()
        # records that crossed a process boundary account like local ones
        assert legs["2 workers"].records.nbytes == legs["serial"].records.nbytes

    def test_surrogate_matrix_bitwise(self, tmp_path):
        """The pairwise potential with the online surrogate serving the
        tail: the committee trains in key order when a step retires, so
        its gate decisions are the same in every leg."""
        system = glycine_fragmented(4)
        v0 = maxwell_boltzmann_velocities(system.parent.masses_au, 300.0,
                                          seed=7)

        def make(nsteps, **kw):
            return AsyncCoordinator(
                system, nsteps=nsteps, dt_fs=0.25,
                r_dimer_bohr=6.0 * BOHR_PER_ANGSTROM, mbe_order=2,
                replan_interval=EVERY, velocities=v0,
                surrogate=SurrogateManager(tol_dimer=5e-4, min_train=6,
                                           seed=7), **kw)

        legs = _legs(
            make, PairwisePotentialCalculator, PairwisePotentialCalculator(),
            nsteps=24, cut=12, crash=FaultSpec(kind="crash", step=1,
                                               key=(0, 1)),
            tmp_path=tmp_path,
        )
        _assert_bitwise(legs)
        served = legs["serial"].surrogate.served
        assert served >= 1
        assert all(co.surrogate.served == served for co in legs.values())

    def test_removed_options_are_gone(self, tmp_path):
        """One run mode on every surface: no ``deterministic`` switch, no
        exact-re-screen scope, no process-global or service-wide guess
        cache, no job-namespaced keys, no nearest-sibling Schwarz scan."""
        import repro.calculators as calculators
        from repro.cli import build_parser
        from repro.integrals.workspace import _Scope
        from repro.md.scheduler import evaluate_fragments
        from repro.serve import JobSpec, TrajectoryJob, TrajectoryService
        from repro.store import BoundedStore

        assert "deterministic" not in inspect.signature(
            AsyncCoordinator).parameters
        co = AsyncCoordinator(
            FragmentedSystem.by_components(water_cluster(2, seed=1)),
            nsteps=1, dt_fs=0.5, r_dimer_bohr=1.0e6, mbe_order=2)
        assert not hasattr(co, "deterministic")
        assert not hasattr(co, "surrogate_disabled_deterministic")
        assert "deterministic" not in {f.name for f in dataclasses.fields(JobSpec)}
        assert list(inspect.signature(evaluate_fragments).parameters) == [
            "calculator", "molecules"]
        assert list(inspect.signature(IntegralWorkspace.scope).parameters) \
            == ["self"]
        assert not hasattr(_Scope, "exact")
        assert not hasattr(IntegralWorkspace, "SIBLING_SHARE")
        assert not hasattr(calculators, "get_guess_cache")
        assert not hasattr(calculators, "_GLOBAL_GUESS_CACHE")
        assert not issubclass(GuessCache, BoundedStore)
        assert not hasattr(TrajectoryJob, "namespace_task")
        assert not hasattr(TrajectoryService(tmp_path), "guess_cache")
        parser = build_parser()
        for argv in (["aimd", "x.xyz", "--deterministic"],
                     ["submit", "jobs.json", "--job-id", "j",
                      "--deterministic"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
