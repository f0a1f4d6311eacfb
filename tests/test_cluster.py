"""Cluster simulation: machines, cost model, event and aggregate sims."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    FRONTIER,
    PERLMUTTER,
    ClusterSimulator,
    FragmentCostModel,
    PAPER_CALIBRATED,
    calibrate_gemm,
    count_polymers,
    group_centroids,
    list_schedule_makespan,
    parallel_efficiency,
    simulate_aimd,
    simulate_workload,
    strong_scaling_curve,
    urea_molecule_centroids,
    urea_workload,
)
from repro.constants import BOHR_PER_ANGSTROM
from repro.frag import FragmentedSystem
from repro.md import AsyncCoordinator
from repro.systems import prp_like_fibril, water_cluster

BIG = 1.0e6


class TestMachines:
    def test_frontier_peak(self):
        # paper: 1.715 EFLOP/s sustainable peak
        assert FRONTIER.peak_pflops() == pytest.approx(1715.7, rel=0.01)
        assert FRONTIER.total_gcds() == 9408 * 8

    def test_perlmutter_peak(self):
        # paper: 113 PFLOP/s sustainable peak
        assert PERLMUTTER.peak_pflops() == pytest.approx(113.0, rel=0.01)

    def test_partial_nodes(self):
        assert FRONTIER.peak_pflops(1024) < FRONTIER.peak_pflops()


class TestCostModel:
    def test_flops_increase_with_size(self):
        cm = FragmentCostModel()
        f1 = cm.total_flops(32)
        f2 = cm.total_flops(64)
        assert f2 > 8 * f1  # superquartic growth

    def test_quintic_asymptotics(self):
        cm = FragmentCostModel()
        r = cm.total_flops(2000) / cm.total_flops(1000)
        assert 2**4 < r < 2**5.5

    def test_efficiency_rises_with_fragment_size(self):
        """Small fragments are dominated by FLOP-inefficient classes —
        the paper's observed 31-35% vs 59% of peak."""
        cm = PAPER_CALIBRATED
        fr = [cm.achieved_fraction_of_peak(ne, FRONTIER) for ne in (38, 128, 384)]
        assert fr[0] < fr[1] < fr[2]
        assert fr[2] > 0.5

    def test_time_on_more_gcds_faster(self):
        cm = FragmentCostModel()
        assert cm.time_on(384, FRONTIER, ngcds=2) < cm.time_on(384, FRONTIER, ngcds=1)

    def test_memory_matches_paper_limit(self):
        """~1k basis functions fit a 40 GB GPU (paper Sec. V-E)."""
        cm = FragmentCostModel()
        ne_1k_bf = int(1000 / cm.bf_ratio)
        assert cm.memory_gb(ne_1k_bf) < 40.0
        assert cm.memory_gb(int(1400 / cm.bf_ratio)) > 40.0

    def test_calibration(self):
        cm = FragmentCostModel()
        measured = [(32, 2.0 * cm.gemm_flops(32)), (64, 2.0 * cm.gemm_flops(64))]
        cal = calibrate_gemm(cm, measured)
        assert cal.gemm_scale == pytest.approx(2.0, rel=1e-6)
        assert cal.gemm_flops(32) == pytest.approx(measured[0][1], rel=1e-6)

    def test_calibration_empty_raises(self):
        with pytest.raises(ValueError):
            calibrate_gemm(FragmentCostModel(), [])


class TestWorkloads:
    def test_urea_centroid_count(self):
        c = urea_molecule_centroids(500)
        assert c.shape == (500, 3)

    def test_grouping(self):
        c = urea_molecule_centroids(64)
        g = group_centroids(c, 4)
        assert g.shape == (16, 3)

    def test_polymer_counts_scale_with_cutoff(self):
        c = group_centroids(urea_molecule_centroids(400), 4)
        small = count_polymers(c, 8.0, 8.0, 128)
        big = count_polymers(c, 14.0, 14.0, 128)
        assert big.ndimers > small.ndimers
        assert big.ntrimers > small.ntrimers

    def test_headline_system_statistics(self):
        """The 2-million-electron system's polymer population (paper:
        >2.8M polymer contributions, 2,043,328 electrons)."""
        w = urea_workload(63854)
        assert w.nmonomers * w.electrons_per_monomer > 2.0e6
        assert w.npolymers > 2.8e6

    def test_polymer_electron_array(self):
        c = group_centroids(urea_molecule_centroids(64), 4)
        w = count_polymers(c, 12.0, 12.0, 128)
        e = w.polymer_electrons()
        assert len(e) == w.npolymers
        assert set(np.unique(e)) <= {128, 256, 384}


class TestListScheduling:
    def test_empty(self):
        assert list_schedule_makespan(np.array([]), 4) == 0.0

    def test_single_worker_sums(self):
        costs = np.array([1.0, 2.0, 3.0])
        assert list_schedule_makespan(costs, 1) == pytest.approx(6.0)

    def test_many_workers_max(self):
        costs = np.array([1.0, 2.0, 3.0])
        assert list_schedule_makespan(costs, 10) == pytest.approx(3.0)

    def test_coordinator_serialization(self):
        costs = np.ones(1000) * 1e-6
        fast = list_schedule_makespan(costs, 100, coordinator_service_s=0.0)
        slow = list_schedule_makespan(costs, 100, coordinator_service_s=1e-3)
        assert slow > 1000 * 1e-3  # serial coordinator dominates
        assert slow > fast

    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_makespan_bounds(self, costs, nworkers):
        costs = np.array(costs)
        ms = list_schedule_makespan(costs, nworkers)
        assert ms >= max(costs.sum() / nworkers, costs.max()) - 1e-12
        assert ms <= costs.sum() + 1e-12


class TestAggregate:
    @pytest.fixture(scope="class")
    def small_workload(self):
        return urea_workload(400, r_dimer_angstrom=12.0, r_trimer_angstrom=12.0)

    def test_async_beats_sync(self, small_workload):
        a = simulate_workload(small_workload, FRONTIER, 2, nsteps=3)
        s = simulate_workload(small_workload, FRONTIER, 2, nsteps=3, synchronous=True)
        assert a.time_per_step_s <= s.time_per_step_s + 1e-12

    def test_strong_scaling_monotone(self, small_workload):
        res = strong_scaling_curve(small_workload, FRONTIER, [1, 2, 4])
        times = [r.time_per_step_s for r in res]
        assert times[0] > times[1] > times[2]
        eff = parallel_efficiency(res)
        assert eff[0] == pytest.approx(1.0)
        assert all(0 < e <= 1.0 + 1e-9 for e in eff)

    def test_flop_rate_below_peak(self, small_workload):
        r = simulate_workload(small_workload, FRONTIER, 4)
        assert 0.0 < r.fraction_of_peak(FRONTIER) < 1.0


class TestEventSimulator:
    @pytest.fixture(scope="class")
    def fibril_system(self):
        return prp_like_fibril()

    def _sim(self, system, sync: bool, nodes=64, nsteps=5):
        return simulate_aimd(
            system, PERLMUTTER, nodes, nsteps,
            r_dimer_bohr=22 * BOHR_PER_ANGSTROM,
            r_trimer_bohr=9 * BOHR_PER_ANGSTROM,
            mbe_order=3, synchronous=sync,
        )

    def test_async_faster_than_sync(self, fibril_system):
        ra = self._sim(fibril_system, sync=False)
        rs = self._sim(fibril_system, sync=True)
        assert ra.total_time_s < rs.total_time_s
        # the paper reports 24-40% step-latency improvements
        speedup = rs.time_per_step() / ra.time_per_step()
        assert speedup > 1.05

    def test_utilization_bounds(self, fibril_system):
        r = self._sim(fibril_system, sync=False)
        assert 0.0 < r.worker_utilization <= 1.0

    def test_every_polymer_computed_once_per_step(self, fibril_system):
        r = self._sim(fibril_system, sync=False, nsteps=2)
        # nsteps+1 evaluation steps, identical frozen-geometry workloads
        assert r.tasks % 3 == 0

    def test_flops_counted(self, fibril_system):
        r = self._sim(fibril_system, sync=False)
        assert r.counted_flops > 0
        assert r.flop_rate_pflops < PERLMUTTER.peak_pflops(16)

    def test_more_nodes_not_slower(self, fibril_system):
        r1 = self._sim(fibril_system, sync=False, nodes=4)
        r2 = self._sim(fibril_system, sync=False, nodes=64)
        assert r2.total_time_s <= r1.total_time_s + 1e-9

    #: ``(total_time_s, step_finish_s, tasks, counted_flops)`` of the
    #: 4-node, 2-step fibril run per mode, recorded before the simulator
    #: lost its node-failure mode; virtual time is deterministic, so the
    #: failure-free path must reproduce them exactly
    PINNED = {
        True: (11.663664964071282,
               {0: 3.887885654690422, 1: 7.775775309380835,
                2: 11.663664964071282},
               2592, 720580912282121.2),
        False: (11.52389815185836,
                {0: 6.222675946399729, 1: 10.079090059250994,
                 2: 11.52389815185836},
                2592, 720580912282122.8),
    }

    @pytest.mark.parametrize("sync", [True, False])
    def test_failure_free_run_pinned(self, fibril_system, sync):
        r = self._sim(fibril_system, sync=sync, nodes=4, nsteps=2)
        assert (r.total_time_s, r.step_finish_s, r.tasks,
                r.counted_flops) == self.PINNED[sync]

    def test_deadlock_free_with_caps_and_windows(self):
        """Capped fibril + small replan window + sync barriers: the
        combination that would expose release/dependency bugs."""
        fs = prp_like_fibril()
        r = simulate_aimd(
            fs, FRONTIER, 2, 5,
            r_dimer_bohr=15 * BOHR_PER_ANGSTROM,
            r_trimer_bohr=7 * BOHR_PER_ANGSTROM,
            synchronous=True, replan_interval=2,
        )
        assert len(r.step_finish_s) == 6

    def test_simulator_reuses_real_coordinator(self):
        mol = water_cluster(5, seed=1)
        fs = FragmentedSystem.by_components(mol)
        sim = ClusterSimulator(PERLMUTTER, 1)
        co = AsyncCoordinator(
            fs, nsteps=2, dt_fs=1.0, r_dimer_bohr=BIG, mbe_order=2,
            temperature_k=0.0, clock=sim.clock, build_molecules=False,
        )
        res = sim.run(co)
        assert co.done()
        assert res.tasks == (5 + 10) * 3
