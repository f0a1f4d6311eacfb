"""Failure-aware campaigns: node MTBF compounding and Young-Daly
economics."""

from __future__ import annotations

import pytest

from repro.cluster import (
    FRONTIER,
    NodeFailureModel,
    expected_makespan,
    failure_adjusted_efficiency,
    optimal_interval,
    replay_campaign,
    simulate_workload,
    urea_workload,
    young_daly_interval,
)

HOUR = 3600.0


class TestNodeFailureModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="mtbf_hours"):
            NodeFailureModel(mtbf_hours=0.0)

    def test_system_mtbf_compounds_linearly(self):
        m = NodeFailureModel(mtbf_hours=40000.0)
        assert m.system_mtbf_s(1) == m.mtbf_s
        assert m.system_mtbf_s(9408) == pytest.approx(m.mtbf_s / 9408)
        # the paper-scale allocation: system MTBF of a few hours
        assert 3.0 * HOUR < m.system_mtbf_s(9408) < 6.0 * HOUR


class TestYoungDaly:
    # the ISSUE's acceptance scenario: Frontier-like system MTBF at
    # 9,408 nodes, a 60 s checkpoint, a 4x 3.16 h production campaign
    M = 4.25 * HOUR
    DELTA = 60.0
    W = 4 * 3.16 * HOUR
    R = 120.0

    def test_interval_formula(self):
        assert young_daly_interval(self.M, self.DELTA) == pytest.approx(
            (2 * self.DELTA * self.M) ** 0.5
        )
        with pytest.raises(ValueError):
            young_daly_interval(-1.0, 1.0)

    def test_expected_makespan_failure_free_limit(self):
        """As MTBF -> inf the Daly formula reduces to W (1 + delta/tau)."""
        tau = 1800.0
        span = expected_makespan(self.W, 1e12, tau, self.DELTA)
        assert span == pytest.approx(
            self.W * (1 + self.DELTA / tau), rel=1e-6
        )

    def test_makespan_minimized_near_young_daly(self):
        tau_yd = young_daly_interval(self.M, self.DELTA)
        at_opt = expected_makespan(self.W, self.M, tau_yd, self.DELTA,
                                   self.R)
        assert at_opt > self.W
        for off in (tau_yd / 4, tau_yd * 4):
            assert expected_makespan(
                self.W, self.M, off, self.DELTA, self.R
            ) > at_opt

    def test_replayed_optimum_agrees_with_young_daly(self):
        """The ISSUE acceptance criterion: the *empirically* best
        interval from the seeded Monte-Carlo replay lands within 20%
        of the Young-Daly estimate."""
        tau_yd = young_daly_interval(self.M, self.DELTA)
        best, result = optimal_interval(
            self.W, self.M, self.DELTA, self.R, seed=0, replicas=16,
        )
        assert 0.8 < best / tau_yd < 1.25
        assert result.failures > 0


class TestReplayCampaign:
    def test_reproducible_and_seed_sensitive(self):
        kw = dict(work_s=10 * HOUR, mtbf_s=2 * HOUR, interval_s=1800.0,
                  checkpoint_cost_s=30.0, restart_cost_s=60.0,
                  downtime_s=120.0, replicas=8)
        a = replay_campaign(seed=3, **kw)
        b = replay_campaign(seed=3, **kw)
        c = replay_campaign(seed=4, **kw)
        assert a.samples == b.samples
        assert a.makespan_s == b.makespan_s
        assert a.samples != c.samples

    def test_failure_free_campaign_pays_only_checkpoints(self):
        r = replay_campaign(work_s=HOUR, mtbf_s=1e15, interval_s=600.0,
                            checkpoint_cost_s=10.0, replicas=2)
        assert r.failures == 0
        # 6 segments, the last is not sealed
        assert r.makespan_s == pytest.approx(HOUR + 2 * 5 * 10.0 / 2)
        assert 0.9 < r.efficiency < 1.0

    def test_failures_account_lost_work_and_downtime(self):
        r = replay_campaign(work_s=4 * HOUR, mtbf_s=0.5 * HOUR,
                            interval_s=900.0, checkpoint_cost_s=15.0,
                            restart_cost_s=60.0, downtime_s=300.0,
                            seed=1, replicas=4)
        assert r.failures > 0
        assert r.lost_work_s > 0
        assert r.downtime_s == pytest.approx(300.0 * r.failures)
        assert r.restart_overhead_s == pytest.approx(60.0 * r.failures)
        assert r.makespan_s > 4 * HOUR
        assert 0.0 < r.efficiency < 1.0


class TestFailureAdjustedEfficiency:
    @pytest.fixture(scope="class")
    def projection(self):
        stats = urea_workload(2000)
        return simulate_workload(stats, FRONTIER, 512, nsteps=3)

    def test_bounded_and_optimal_beats_bad_interval(self, projection):
        model = NodeFailureModel(mtbf_hours=40000.0)
        eff = failure_adjusted_efficiency(
            projection, model, checkpoint_cost_s=60.0,
            restart_cost_s=120.0, nsteps_total=500,
        )
        assert 0.0 < eff < 1.0
        tau_yd = young_daly_interval(
            model.system_mtbf_s(projection.nodes), 60.0
        )
        bad = failure_adjusted_efficiency(
            projection, model, checkpoint_cost_s=60.0,
            restart_cost_s=120.0, nsteps_total=500,
            interval_s=tau_yd / 20,
        )
        assert bad < eff
