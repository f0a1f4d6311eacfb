"""GEMM variant trials: the Table IV / Sec. V-G reproduction artefact.

BLAS exposes four algorithmic variants of ``C = A B`` via the transpose
flags (NN, NT, TN, TT); which one is fastest depends on the shape and the
library/machine, with differences up to 20x reported in the paper
(Table IV). Because an explicit transpose is cheap relative to the GEMM,
any variant can be reached by transposing inputs first.

`GemmAutoTuner` reproduces the paper's in-situ scheme: for each distinct
logical shape ``(m, k, n)``, the first calls each exercise one variant
(timed, including the cost of any layout conversion); every later call
with that shape uses the best variant observed. Trial calls return real
results.

On this CPU reproduction the "variants" are realized through memory
layout: BLAS dgemm is called through ``scipy.linalg.blas`` with
Fortran-ordered buffers, and a C-contiguous array is reachable for free
as the transpose of an F-contiguous one, so each variant maps to a
(layout(A), layout(B)) choice with genuinely different kernel paths and
copy costs — the same trade the paper tunes over.

Nothing under ``src/repro`` multiplies through this module. On
NumPy/OpenBLAS ``A @ B`` already selects the zero-copy variant from the
operands' strides, the search measured slower than ``@`` and its
timing-chosen winners made results depend on call history
(docs/PERFORMANCE.md, 'GEMM dispatch'), so the runtime path is
`repro.gemm.flops.gemm`. The tuner is reached through an explicit
instance by ``benchmarks/bench_table4_gemm_variants.py``,
``bench_autotune_speedup.py`` and the tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..store import ContentionLock
from ..trace import current

VARIANTS: tuple[str, ...] = ("NN", "NT", "TN", "TT")


def _gemm_variant(A: np.ndarray, B: np.ndarray, variant: str) -> np.ndarray:
    """Compute ``A @ B`` by steering BLAS to the requested variant.

    The trans flags refer to the buffers actually handed to dgemm:
    variant "TN" passes A's transpose (an F-copy of which is A in C
    order) with ``trans_a=1``, etc.
    """
    # imported on first use, so a process that never tunes loads no
    # scipy; the first trial's import time is one sample, which the
    # minimum over `trials_per_variant` rejects
    from scipy.linalg.blas import dgemm

    ta = variant[0] == "T"
    tb = variant[1] == "T"
    # Build the buffer whose (possibly transposed) view equals the operand.
    # np.asfortranarray(X.T) is a no-op view when X is C-contiguous, and a
    # copy otherwise — the "cheap transpose" the paper exploits.
    a_buf = np.asfortranarray(A.T) if ta else np.asfortranarray(A)
    b_buf = np.asfortranarray(B.T) if tb else np.asfortranarray(B)
    return dgemm(1.0, a_buf, b_buf, trans_a=ta, trans_b=tb)


@dataclass
class GemmAutoTuner:
    """In-situ GEMM variant tuner with per-shape caching.

    Each variant is timed ``trials_per_variant`` times (round-robin over
    the variants, so repeats of one variant are separated in time) and
    judged by its *minimum* observed duration before a winner is
    committed. A single sample — the original scheme — lets first-call
    noise (allocator warm-up, cold caches, a scheduling hiccup) lock in
    a slow variant permanently; the min over repeats is the standard
    noise-robust estimator for best-case kernel time. Trial calls still
    return real results, so no work is wasted.

    Winner-table and trial-log accesses are serialised under one
    `ContentionLock` so one tuner can be shared by concurrent threads;
    the dgemm itself runs outside the lock.
    """

    #: timed samples taken per variant before committing (noise rejection)
    trials_per_variant: int = 2
    #: shape -> chosen variant (once all trials are done)
    best: dict[tuple[int, int, int], str] = field(default_factory=dict)
    #: shape -> list of (variant, seconds) trials so far
    trials: dict[tuple[int, int, int], list[tuple[str, float]]] = field(
        default_factory=dict
    )
    _lock: ContentionLock = field(
        default_factory=ContentionLock, repr=False, compare=False
    )

    def gemm(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """``A @ B`` through the trialled (then committed) variant."""
        m, k = A.shape
        k2, n = B.shape
        if k != k2:
            raise ValueError(f"gemm shape mismatch: {A.shape} @ {B.shape}")
        key = (m, k, n)
        with self._lock:
            chosen = self.best.get(key)
            if chosen is None:
                done = self.trials.setdefault(key, [])
                variant = VARIANTS[len(done) % len(VARIANTS)]
        if chosen is not None:
            return _gemm_variant(A, B, chosen)
        t0 = time.perf_counter()
        out = _gemm_variant(A, B, variant)
        elapsed = time.perf_counter() - t0
        with self._lock:
            done.append((variant, elapsed))
            # >= rather than ==: the trial target can move below
            # len(done) mid-run (trials_per_variant lowered, or a
            # restored trials list already past it), and an equality
            # check would then never fire and pin the shape in trial
            # mode forever
            if key not in self.best and \
                    len(done) >= len(VARIANTS) * max(1, self.trials_per_variant):
                times = self._min_times(done)
                self.best[key] = min(times, key=times.get)
                if tracer := current():
                    tracer.instant(
                        "gemm.autotune", cat="gemm", shape=str(key),
                        variant=self.best[key],
                        trials=len(done),
                    )
        return out

    @staticmethod
    def _min_times(done: list[tuple[str, float]]) -> dict[str, float]:
        times: dict[str, float] = {}
        for v, t in done:
            times[v] = min(t, times.get(v, t))
        return times

    def report(self) -> list[tuple[tuple[int, int, int], str, dict[str, float]]]:
        """Tuning decisions: (shape, best variant, per-variant min seconds)."""
        with self._lock:
            out = []
            for key, picked in self.best.items():
                out.append((key, picked, self._min_times(self.trials[key])))
            return out

    def stats(self) -> dict:
        """Counters snapshot (shapes tuned / in trial, contention)."""
        with self._lock:
            return {
                "shapes_tuned": len(self.best),
                "shapes_in_trial": sum(
                    1 for k in self.trials if k not in self.best
                ),
                "contentions": self._lock.contentions,
            }

    def reset(self) -> None:
        """Forget all trials and cached variant choices."""
        with self._lock:
            self.best.clear()
            self.trials.clear()


#: Kept only because ``benchmarks/spine`` reads ``stats()["shapes_tuned"]``;
#: nothing under ``src/`` multiplies through it, so it stays empty.
GLOBAL_TUNER = GemmAutoTuner()
