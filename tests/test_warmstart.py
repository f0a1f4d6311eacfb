"""Cross-step SCF warm starts: dm0 seeding, GuessCache, incremental replan."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.basis.basisset import BasisSet
from repro.calculators import FragmentRecord, GuessCache, RIHFCalculator
from repro.frag import FragmentedSystem, build_plan
from repro.frag.mbe import update_plan
from repro.integrals import overlap
from repro.md.aimd import run_aimd
from repro.md.drivers import run_serial
from repro.md.scheduler import AsyncCoordinator
from repro.scf import rhf
from repro.scf.recovery import rhf_with_recovery
from repro.systems import water_cluster, water_monomer
from repro.trace import Tracer, recording


# --------------------------------------------------------------------------
# dm0 seeding in the SCF core
# --------------------------------------------------------------------------

class TestDm0:
    def test_warm_start_matches_cold(self):
        mol = water_monomer()
        ref = rhf(mol, "sto-3g", ri=True)
        c = mol.coords.copy()
        c[0, 2] += 0.02
        moved = mol.with_coords(c)
        cold = rhf(moved, "sto-3g", ri=True)
        warm = rhf(moved, "sto-3g", ri=True, dm0=ref.D)
        assert warm.warm_started
        assert not cold.warm_started
        assert warm.energy == pytest.approx(cold.energy, abs=1e-8)
        assert warm.niter < cold.niter
        assert warm.n_iter == warm.niter  # alias

    def test_wrong_shape_discarded(self):
        mol = water_monomer()
        res = rhf(mol, "sto-3g", ri=True, dm0=np.eye(3))
        assert not res.warm_started

    def test_nonfinite_discarded(self):
        mol = water_monomer()
        bs = BasisSet.build(mol, "sto-3g")
        bad = np.full((bs.nbf, bs.nbf), np.nan)
        res = rhf(mol, "sto-3g", ri=True, dm0=bad)
        assert not res.warm_started

    def test_wrong_electron_count_discarded(self):
        mol = water_monomer()
        ref = rhf(mol, "sto-3g", ri=True)
        res = rhf(mol, "sto-3g", ri=True, dm0=3.0 * ref.D)
        assert not res.warm_started
        assert res.energy == pytest.approx(ref.energy, abs=1e-9)


class TestRecoveryColdStartRung:
    def test_bad_warm_start_falls_back_to_cold_guess(self):
        """A poisoned density that passes validation costs one extra
        solve: the cascade's first rung drops dm0 and re-solves cold."""
        mol = water_monomer()
        bs = BasisSet.build(mol, "sto-3g")
        S = overlap(bs)
        rng = np.random.default_rng(7)
        g = np.abs(rng.normal(size=(bs.nbf, bs.nbf)))
        g = g + g.T
        # scale to the correct electron count so rhf accepts it
        g *= mol.nelectrons / float(np.sum(g * S))
        cold = rhf(mol, "sto-3g", ri=True)
        # an iteration budget the cold guess meets but the garbage
        # guess does not, forcing the cascade to escalate
        budget = cold.niter + 2
        from repro.scf.rhf import SCFConvergenceError

        with pytest.raises(SCFConvergenceError):
            rhf(mol, "sto-3g", ri=True, dm0=g, max_iter=budget)
        res = rhf_with_recovery(mol, "sto-3g", ri=True, dm0=g,
                                max_iter=budget)
        assert res.recovery[0] == "cold-start"
        assert res.energy == pytest.approx(cold.energy, abs=1e-9)

    def test_good_warm_start_no_recovery(self):
        mol = water_monomer()
        ref = rhf(mol, "sto-3g", ri=True)
        res = rhf_with_recovery(mol, "sto-3g", ri=True, dm0=ref.D)
        assert res.recovery == ()
        assert res.warm_started


# --------------------------------------------------------------------------
# GuessCache semantics
# --------------------------------------------------------------------------

class TestGuessCache:
    """The policy over a fragment's record: `get` extrapolates what the
    record carries, `put` returns the record with a density appended,
    `record` counts a solve; the cache itself holds no density."""

    def test_hit_after_put(self):
        cache = GuessCache()
        D = np.eye(4)
        empty = FragmentRecord()
        assert cache.get(empty, natoms=3) is None
        rec = cache.put(empty, D, natoms=3)
        assert cache.get(rec, natoms=3) is D
        assert empty.densities == ()  # records are never changed in place
        cache.record(hit=False, n_iter=9)
        cache.record(hit=True, n_iter=4)
        assert cache.hits == 1 and cache.misses == 1

    def test_natoms_mismatch_invalidates(self):
        cache = GuessCache()
        rec = cache.put(FragmentRecord(), np.eye(4), natoms=6)
        assert cache.get(rec, natoms=7) is None

    def test_disabled_is_statistics_only(self):
        cache = GuessCache(enabled=False)
        rec = cache.put(FragmentRecord(), np.eye(4), natoms=3)
        assert rec.densities == ()
        assert cache.get(FragmentRecord((np.eye(4),), 3), natoms=3) is None
        cache.record(hit=False, n_iter=9)
        assert cache.misses == 1
        assert cache.stats()["iters_cold"] == 9

    def test_history_extrapolation(self):
        cache = GuessCache()
        d0, d1, d2 = np.eye(4), 2 * np.eye(4), 4 * np.eye(4)
        rec = cache.put(FragmentRecord(), d0, natoms=3)
        assert cache.get(rec, natoms=3) is d0
        rec = cache.put(rec, d1, natoms=3)
        np.testing.assert_allclose(cache.get(rec, natoms=3), 2 * d1 - d0)
        rec = cache.put(rec, d2, natoms=3)
        np.testing.assert_allclose(
            cache.get(rec, natoms=3), 3 * d2 - 3 * d1 + d0
        )

    def test_history_depth_bounded(self):
        cache = GuessCache()
        D = np.eye(4)
        rec = FragmentRecord()
        for k in range(1, 6):
            rec = cache.put(rec, k * D, natoms=3)
        # the last HISTORY densities only: bytes stay bounded
        assert GuessCache.HISTORY == 3
        assert [d[0, 0] for d in rec.densities] == [3.0, 4.0, 5.0]

    def test_put_natoms_change_resets_history(self):
        cache = GuessCache()
        rec = cache.put(FragmentRecord(), np.eye(4), natoms=3)
        rec = cache.put(rec, 2 * np.eye(4), natoms=5)  # fragment changed
        assert len(rec.densities) == 1 and rec.natoms == 5
        np.testing.assert_allclose(cache.get(rec, natoms=5), 2 * np.eye(4))

    def test_stats_snapshot(self):
        cache = GuessCache()
        cache.record(hit=True, n_iter=4)
        assert cache.stats() == {"hits": 1, "misses": 0, "iters_warm": 4,
                                 "iters_cold": 0}


# --------------------------------------------------------------------------
# fragment identity tags
# --------------------------------------------------------------------------

class TestFragKey:
    def test_fragment_molecule_sets_key(self):
        fs = FragmentedSystem.by_components(water_cluster(3, seed=0))
        mol, _, _ = fs.fragment_molecule((0, 2))
        assert mol.frag_key == (0, 2)

    def test_frag_key_survives_pickling(self):
        fs = FragmentedSystem.by_components(water_cluster(2, seed=0))
        mol, _, _ = fs.fragment_molecule((1,))
        clone = pickle.loads(pickle.dumps(mol))
        assert clone.frag_key == (1,)

    def test_plain_molecule_has_no_key(self):
        assert water_monomer().frag_key is None


# --------------------------------------------------------------------------
# incremental replanning
# --------------------------------------------------------------------------

class TestUpdatePlan:
    @pytest.fixture(scope="class")
    def w6(self):
        return FragmentedSystem.by_components(water_cluster(6, seed=2))

    def _cutoffs(self, fs):
        # mid-range cutoffs so perturbations actually move polymers
        # across the boundary
        cents = fs.centroids()
        d = np.linalg.norm(cents[:, None] - cents[None, :], axis=-1)
        r_d = float(np.median(d[d > 0]))
        return r_d, 1.1 * r_d

    @pytest.mark.parametrize("order", [2, 3])
    def test_matches_fresh_build(self, w6, order):
        r_d, r_t = self._cutoffs(w6)
        prev = build_plan(w6, r_d, r_t, order=order)
        rng = np.random.default_rng(5)
        for trial in range(4):
            coords = w6.parent.coords + 0.6 * rng.normal(
                size=w6.parent.coords.shape
            )
            fresh = build_plan(w6, r_d, r_t, order=order, coords=coords)
            inc, diff = update_plan(
                w6, prev, r_d, r_t, order=order, coords=coords
            )
            assert inc.coefficients == fresh.coefficients
            assert inc.dimers == fresh.dimers
            assert inc.trimers == fresh.trimers
            assert diff.reused + len(diff.added) == len(fresh.fragments)
            assert set(diff.removed).isdisjoint(fresh.fragments)
            prev = inc

    def test_no_motion_no_diff(self, w6):
        r_d, r_t = self._cutoffs(w6)
        prev = build_plan(w6, r_d, r_t, order=3)
        inc, diff = update_plan(w6, prev, r_d, r_t, order=3)
        assert diff.nchanged == 0
        assert diff.reused == len(prev.fragments)
        assert inc.coefficients == prev.coefficients

    def test_requires_trimer_cutoff(self, w6):
        prev = build_plan(w6, 5.0, 6.0, order=2)
        with pytest.raises(ValueError, match="trimer cutoff"):
            update_plan(w6, prev, 5.0, order=3)


# --------------------------------------------------------------------------
# MD integration: warm vs cold trajectories
# --------------------------------------------------------------------------

class TestAimdWarmStart:
    def test_warm_matches_cold_with_fewer_iterations(self):
        fs = FragmentedSystem.by_components(water_cluster(2, seed=1))
        kwargs = dict(
            nsteps=3, dt_fs=0.5, temperature_k=50.0, seed=0,
            r_dimer_bohr=1.0e6, mbe_order=2, replan_interval=1,
        )
        # enabled=False counts iterations without ever serving a guess,
        # so the two runs are instrumented identically
        cold_calc = RIHFCalculator(guess_cache=GuessCache(enabled=False))
        cold = run_aimd(fs, cold_calc, warm_start=False, **kwargs)
        warm_calc = RIHFCalculator()
        warm = run_aimd(fs, warm_calc, warm_start=True, **kwargs)

        cache = warm_calc.guess_cache
        assert cache is not None and cache.hits > 0
        np.testing.assert_allclose(
            warm.potential, cold.potential, atol=1e-8
        )
        np.testing.assert_allclose(np.asarray(warm.total)[-1],
                                   np.asarray(cold.total)[-1], atol=1e-8)
        cold_iters = cold_calc.guess_cache.stats()["iters_cold"]
        warm_iters = cache.iters_warm + cache.iters_cold
        assert warm_iters < cold_iters

    def test_no_warm_start_leaves_calculator_untouched(self):
        fs = FragmentedSystem.by_components(water_cluster(2, seed=1))
        calc = RIHFCalculator()
        run_aimd(fs, calc, nsteps=1, dt_fs=0.5, temperature_k=50.0,
                 r_dimer_bohr=1.0e6, mbe_order=2, warm_start=False)
        assert calc.guess_cache is None

    def test_caller_supplied_cache_respected(self):
        fs = FragmentedSystem.by_components(water_cluster(2, seed=1))
        mine = GuessCache()
        calc = RIHFCalculator(guess_cache=mine)
        run_aimd(fs, calc, nsteps=1, dt_fs=0.5, temperature_k=50.0,
                 r_dimer_bohr=1.0e6, mbe_order=2, warm_start=True)
        assert calc.guess_cache is mine
        assert mine.hits + mine.misses > 0  # the run counts into it


class TestSchedulerWarmStart:
    def _coordinator(self, fs, **kw):
        return AsyncCoordinator(
            fs, nsteps=2, dt_fs=0.5, r_dimer_bohr=1.0e6,
            mbe_order=2, temperature_k=50.0, seed=0,
            replan_interval=1, **kw,
        )

    def test_run_serial_populates_cache_and_replans_incrementally(self):
        fs = FragmentedSystem.by_components(water_cluster(2, seed=0))
        coordinator = self._coordinator(fs)
        calc = RIHFCalculator()
        run_serial(coordinator, calc)
        assert calc.guess_cache is coordinator.guess_cache
        assert coordinator.guess_cache.hits > 0
        assert coordinator.replans_incremental >= 1
        assert coordinator.replan_reused > 0


# --------------------------------------------------------------------------
# tracer integration
# --------------------------------------------------------------------------

class TestWarmStartTracing:
    def test_instants_and_aggregation(self):
        fs = FragmentedSystem.by_components(water_cluster(2, seed=0))
        mol, _, _ = fs.fragment_molecule((0,))
        mol.record = FragmentRecord()
        calc = RIHFCalculator(guess_cache=GuessCache())
        with recording(Tracer()) as tracer:
            calc.energy_gradient(mol)  # miss
            calc.energy_gradient(mol)  # hit: the record it left (same geometry)
        count, sums = tracer.aggregate_instants("scf.warm_start")
        assert count == 2
        assert sums["hit"] == 1
        assert sums["n_iter"] > 0

    def test_aggregate_ignores_non_numeric_args(self):
        tracer = Tracer()
        tracer.instant("x", label="abc", v=2)
        tracer.instant("x", label="def", v=3.5)
        count, sums = tracer.aggregate_instants("x")
        assert count == 2
        assert sums == {"v": 5.5}
