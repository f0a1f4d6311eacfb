"""GEMM auto-tuner and FLOP accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gemm import (
    GLOBAL_COUNTER,
    VARIANTS,
    FlopCounter,
    GemmAutoTuner,
    count_flops,
    eigh_gen,
    eigh_orth,
    gemm,
    sym_inv,
    sym_inv_sqrt,
)
from repro.gemm.autotune import _gemm_variant


class TestVariants:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_variants_equal_matmul(self, variant):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((7, 11))
        B = rng.standard_normal((11, 5))
        np.testing.assert_allclose(_gemm_variant(A, B, variant), A @ B, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variants_on_noncontiguous_inputs(self, variant):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((20, 14))[::2, ::2]  # strided view
        B = rng.standard_normal((14, 6))[::2]
        np.testing.assert_allclose(_gemm_variant(A, B, variant), A @ B, atol=1e-12)


class TestAutoTuner:
    def test_trials_then_cache(self):
        tuner = GemmAutoTuner()
        rng = np.random.default_rng(2)
        A = rng.standard_normal((16, 9))
        B = rng.standard_normal((9, 12))
        ref = A @ B
        ntrials = len(VARIANTS) * tuner.trials_per_variant
        for i in range(ntrials + 2):
            np.testing.assert_allclose(tuner.gemm(A, B), ref, atol=1e-12)
        key = (16, 9, 12)
        assert key in tuner.best
        assert len(tuner.trials[key]) == ntrials
        assert tuner.best[key] in VARIANTS

    def test_best_is_fastest_trial(self):
        tuner = GemmAutoTuner()
        A = np.random.default_rng(3).standard_normal((30, 30))
        for _ in range(len(VARIANTS) * tuner.trials_per_variant):
            tuner.gemm(A, A)
        (key, picked, times), = tuner.report()
        assert times[picked] == min(times.values())

    def test_multiple_trials_per_variant(self):
        """Each variant is sampled trials_per_variant times round-robin,
        and the winner is judged on its minimum sample."""
        tuner = GemmAutoTuner(trials_per_variant=3)
        A = np.eye(8)
        key = (8, 8, 8)
        for i in range(len(VARIANTS) * 3):
            tuner.gemm(A, A)
            if i < len(VARIANTS) * 3 - 1:
                assert key not in tuner.best  # not committed early
        assert key in tuner.best
        per_variant = {}
        for v, _ in tuner.trials[key]:
            per_variant[v] = per_variant.get(v, 0) + 1
        assert per_variant == {v: 3 for v in VARIANTS}
        (_, picked, times), = tuner.report()
        assert times[picked] == min(times.values())

    def test_min_over_trials_rejects_first_call_noise(self):
        """A single slow outlier sample must not veto a variant."""
        tuner = GemmAutoTuner(trials_per_variant=2)
        key = (1, 1, 1)
        # hand-crafted trial log: NN's first sample is noisy-slow, but
        # its best sample beats everything else
        tuner.trials[key] = [
            ("NN", 9.0), ("NT", 2.0), ("TN", 3.0), ("TT", 4.0),
            ("NN", 1.0), ("NT", 2.1), ("TN", 3.1), ("TT", 4.1),
        ]
        times = tuner._min_times(tuner.trials[key])
        assert times == {"NN": 1.0, "NT": 2.0, "TN": 3.0, "TT": 4.0}
        assert min(times, key=times.get) == "NN"

    def test_trial_target_lowered_mid_run_still_commits(self):
        """The completion check is >=, not ==: if the trial target drops
        below the samples already taken (trials_per_variant lowered, or
        a restored trial log past the target), the next call must still
        commit a winner instead of pinning the shape in trial mode."""
        tuner = GemmAutoTuner(trials_per_variant=3)
        A = np.eye(6)
        key = (6, 6, 6)
        for _ in range(6):  # mid-way through the 12-trial schedule
            tuner.gemm(A, A)
        assert key not in tuner.best
        tuner.trials_per_variant = 1  # target is now 4 < 7 samples
        tuner.gemm(A, A)
        assert key in tuner.best

    def test_disabled_tuner_uses_default(self):
        tuner = GemmAutoTuner(enabled=False)
        A = np.eye(4)
        tuner.gemm(A, A)
        assert not tuner.trials

    def test_shape_mismatch_raises(self):
        tuner = GemmAutoTuner()
        with pytest.raises(ValueError, match="mismatch"):
            tuner.gemm(np.ones((2, 3)), np.ones((2, 3)))

    def test_reset(self):
        tuner = GemmAutoTuner()
        A = np.eye(5)
        for _ in range(5):
            tuner.gemm(A, A)
        tuner.reset()
        assert not tuner.best and not tuner.trials


class TestPersistence:
    """Winner tables survive a save/load round trip (``--gemm-cache``)."""

    def _tuned(self) -> GemmAutoTuner:
        tuner = GemmAutoTuner(trials_per_variant=1)
        A = np.eye(6)
        B = np.eye(6)
        for _ in range(len(VARIANTS)):
            tuner.gemm(A, B)
        assert tuner.best  # the shape committed a winner
        return tuner

    def test_round_trip(self, tmp_path):
        tuner = self._tuned()
        path = str(tmp_path / "gemm.json")
        tuner.save(path)
        fresh = GemmAutoTuner()
        assert fresh.load(path) == len(tuner.best)
        assert fresh.best == tuner.best
        # a preloaded shape skips its trial phase entirely
        fresh.gemm(np.eye(6), np.eye(6))
        assert (6, 6, 6) not in fresh.trials

    def test_load_keeps_local_winners(self, tmp_path):
        tuner = self._tuned()
        path = str(tmp_path / "gemm.json")
        tuner.save(path)
        other = GemmAutoTuner()
        key = next(iter(tuner.best))
        local = "TT" if tuner.best[key] != "TT" else "NN"
        other.best[key] = local
        assert other.load(path) == 0
        assert other.best[key] == local  # own measurement wins

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "gemm.json"
        path.write_text('{"version": 99, "best": {}}')
        with pytest.raises(ValueError, match="version"):
            GemmAutoTuner().load(str(path))

    def test_load_rejects_unknown_variant(self, tmp_path):
        path = tmp_path / "gemm.json"
        path.write_text('{"version": 1, "best": {"2x2x2": "XX"}}')
        with pytest.raises(ValueError, match="variant"):
            GemmAutoTuner().load(str(path))

    def test_save_leaves_no_temp_file(self, tmp_path):
        tuner = self._tuned()
        path = tmp_path / "gemm.json"
        tuner.save(str(path))
        assert path.exists()
        assert not (tmp_path / "gemm.json.tmp").exists()


class TestFlopCounting:
    def test_gemm_counts_2mnk(self):
        with count_flops() as c:
            gemm(np.ones((3, 4)), np.ones((4, 5)))
        assert c.flops == 2 * 3 * 4 * 5
        assert c.calls == 1

    def test_counter_accumulates(self):
        ctr = FlopCounter()
        ctr.add_gemm(2, 3, 4)
        ctr.add_gemm(2, 3, 4)
        assert ctr.flops == 2 * (2 * 3 * 4 * 2)
        assert ctr.calls == 2
        assert ctr.by_shape[(2, 4, 3)] == 2

    def test_reset(self):
        ctr = FlopCounter()
        ctr.add_gemm(1, 1, 1)
        ctr.reset()
        assert ctr.snapshot() == (0, 0)

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_flops_lower_bound(self, m, k, n):
        """The runtime counter is exactly 2mnk per call (paper Sec. VI-C)."""
        before = GLOBAL_COUNTER.snapshot()[0]
        gemm(np.zeros((m, k)), np.zeros((k, n)))
        assert GLOBAL_COUNTER.snapshot()[0] - before == 2 * m * n * k


class TestLinalgHelpers:
    def test_sym_inv_sqrt(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8))
        M = A @ A.T + 8 * np.eye(8)
        X = sym_inv_sqrt(M)
        np.testing.assert_allclose(X @ M @ X, np.eye(8), atol=1e-10)

    def test_sym_inv_sqrt_screens_singular(self):
        M = np.diag([1.0, 1.0, 1e-16])
        X = sym_inv_sqrt(M)
        assert np.isfinite(X).all()

    def test_sym_inv(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        M = A @ A.T + 6 * np.eye(6)
        np.testing.assert_allclose(sym_inv(M) @ M, np.eye(6), atol=1e-9)

    def test_eigh_gen(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((7, 7))
        F = A + A.T
        B = rng.standard_normal((7, 7))
        S = B @ B.T + 7 * np.eye(7)
        eps, C = eigh_gen(F, S)
        np.testing.assert_allclose(F @ C, S @ C @ np.diag(eps), atol=1e-9)
        np.testing.assert_allclose(C.T @ S @ C, np.eye(7), atol=1e-9)
        # the SCF loop's form, in an orthogonalizer it already holds: same bits
        eps2, C2 = eigh_orth(F, sym_inv_sqrt(S))
        assert np.array_equal(eps, eps2) and np.array_equal(C, C2)
