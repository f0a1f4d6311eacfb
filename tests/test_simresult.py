"""SimResult/aggregate-result metrics and simulator bookkeeping."""

from __future__ import annotations

import pytest

from repro.cluster import (
    FRONTIER,
    PERLMUTTER,
    AggregateResult,
    ClusterSimulator,
    SimResult,
    simulate_aimd,
)
from repro.constants import BOHR_PER_ANGSTROM
from repro.frag import FragmentedSystem
from repro.systems import water_cluster


def _result(**kw):
    base = dict(
        machine="Frontier", nodes=2, nworkers=16, total_time_s=10.0,
        step_finish_s={0: 3.0, 1: 7.0, 2: 10.0}, counted_flops=1.0e15,
        busy_time_s=120.0, tasks=30,
    )
    base.update(kw)
    return SimResult(**base)


class TestSimResult:
    def test_nevals(self):
        assert _result().nevals == 3

    def test_time_per_step_is_throughput(self):
        r = _result()
        assert r.time_per_step() == pytest.approx(10.0 / 3.0)

    def test_flop_rate(self):
        r = _result()
        assert r.flop_rate_pflops == pytest.approx(0.1)

    def test_utilization(self):
        r = _result()
        assert r.worker_utilization == pytest.approx(120.0 / 160.0)

    def test_single_eval(self):
        r = _result(step_finish_s={0: 10.0})
        assert r.time_per_step() == pytest.approx(10.0)


class TestAggregateResult:
    def test_fraction_of_peak(self):
        r = AggregateResult(
            machine="Frontier", nodes=9408, nworkers=10, nsteps=3,
            time_per_step_s=100.0,
            counted_flops_per_step=FRONTIER.peak_pflops() * 1e15 * 100.0 * 0.5,
        )
        assert r.fraction_of_peak(FRONTIER) == pytest.approx(0.5)


class TestSimulatorBookkeeping:
    def test_counts_match_coordinator(self):
        mol = water_cluster(4, seed=10)
        fs = FragmentedSystem.by_components(mol)
        r = simulate_aimd(
            fs, PERLMUTTER, 1, nsteps=2, r_dimer_bohr=1e9,
            r_trimer_bohr=None, mbe_order=2,
        )
        # 4 monomers + 6 dimers per step, 3 eval steps
        assert r.tasks == 10 * 3
        assert len(r.step_finish_s) == 3
        assert r.total_time_s > 0
        assert 0 < r.worker_utilization <= 1

    def test_step_finish_monotone(self):
        mol = water_cluster(5, seed=11)
        fs = FragmentedSystem.by_components(mol)
        r = simulate_aimd(
            fs, FRONTIER, 1, nsteps=3,
            r_dimer_bohr=12 * BOHR_PER_ANGSTROM,
            r_trimer_bohr=7 * BOHR_PER_ANGSTROM, mbe_order=3,
        )
        times = [r.step_finish_s[s] for s in sorted(r.step_finish_s)]
        assert all(a <= b + 1e-12 for a, b in zip(times, times[1:]))

    def test_gcds_per_worker_reduces_workers(self):
        sim1 = ClusterSimulator(FRONTIER, 4, gcds_per_worker=1)
        sim4 = ClusterSimulator(FRONTIER, 4, gcds_per_worker=4)
        assert sim4.nworkers == sim1.nworkers // 4


class TestEnergyToSolution:
    def test_frontier_more_efficient_than_perlmutter(self):
        """Paper Sec. VII-C: Frontier 53 GFLOP/J vs Perlmutter 27 — the
        same workload costs roughly half the energy on Frontier."""
        from repro.cluster import simulate_workload, urea_workload

        stats = urea_workload(400, r_dimer_angstrom=12.0, r_trimer_angstrom=12.0)
        rf = simulate_workload(stats, FRONTIER, 8)
        rp = simulate_workload(stats, PERLMUTTER, 8)
        ef = rf.energy_megajoules_per_step(FRONTIER)
        ep = rp.energy_megajoules_per_step(PERLMUTTER)
        assert ef < ep
        assert ep / ef == pytest.approx(53.0 / 27.0, rel=0.05)

    def test_simresult_energy(self):
        r = _result(counted_flops=53.0e9 * 1.0e6)  # exactly 1 MJ on Frontier
        assert r.energy_megajoules(FRONTIER) == pytest.approx(1.0)
