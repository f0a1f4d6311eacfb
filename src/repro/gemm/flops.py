"""Runtime FLOP accounting.

The paper counts floating-point work at runtime by incrementing a local
counter by ``2 m n k`` on every GEMM call (Sec. VI-C), giving an exact
lower bound on executed FLOPs that is reduced across ranks at the end of
the run. We reproduce that exactly: every matrix multiplication in the
SCF/MP2/gradient stack goes through `gemm` below, which reports to the
process-global counter; the integral layer's stacked contractions go
through `bgemm`, the same count over a stack of slices. The counter is
also consumed by the cluster simulator to assign per-fragment FLOP
costs.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class FlopCounter:
    """Thread-safe accumulator of GEMM FLOPs and call statistics."""

    flops: int = 0
    calls: int = 0
    by_shape: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add_gemm(self, m: int, n: int, k: int, batch: int = 1) -> None:
        """Record one call multiplying ``batch`` ``(m x k) @ (k x n)``
        pairs (``2 m n k`` FLOPs each)."""
        work = 2 * m * n * k * batch
        with self._lock:
            self.flops += work
            self.calls += 1
            key = (m, k, n)
            self.by_shape[key] = self.by_shape.get(key, 0) + batch

    def reset(self) -> None:
        """Zero the counters."""
        with self._lock:
            self.flops = 0
            self.calls = 0
            self.by_shape = {}

    def snapshot(self) -> tuple[int, int]:
        """(flops, calls) at this instant."""
        with self._lock:
            return self.flops, self.calls


#: Process-global counter used by `gemm`.
GLOBAL_COUNTER = FlopCounter()


def gemm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """FLOP-counted 2-D matrix multiplication ``A @ B``.

    All dense-linear-algebra bottlenecks of the SCF/MP2 stack call this
    instead of ``@`` so that runtime FLOP accounting matches the paper's
    methodology. ``np.matmul`` picks the BLAS transpose flags from the
    operands' strides (C- and transposed-contiguous operands reach
    ``dgemm`` without a copy), so the result is a function of the
    operands alone — not of timing or call history.
    """
    m, k = A.shape
    k2, n = B.shape
    if k != k2:
        raise ValueError(f"gemm shape mismatch: {A.shape} @ {B.shape}")
    GLOBAL_COUNTER.add_gemm(m, n, k)
    return A @ B


def bgemm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """FLOP-counted stacked matrix multiplication ``np.matmul(A, B)``.

    ``A (..., m, k)`` and ``B (..., k, n)`` carry leading stack axes
    that broadcast; each pair of slices is one GEMM (a slice's result
    depends on that slice alone, so a stack of one is bitwise `gemm`).
    The counter takes ``2 m n k`` per slice in one update per call.
    """
    *lead_a, m, k = A.shape
    *lead_b, k2, n = B.shape
    if k != k2:
        raise ValueError(f"bgemm shape mismatch: {A.shape} @ {B.shape}")
    lead = np.broadcast_shapes(tuple(lead_a), tuple(lead_b))
    GLOBAL_COUNTER.add_gemm(m, n, k, batch=math.prod(lead))
    return np.matmul(A, B)


@contextmanager
def count_flops():
    """Context manager yielding a fresh view of FLOPs spent inside it.

    Example::

        with count_flops() as c:
            run_scf(...)
        print(c.flops)
    """

    start_flops, start_calls = GLOBAL_COUNTER.snapshot()

    class _View:
        @property
        def flops(self) -> int:
            """GEMM FLOPs executed inside the context so far."""
            return GLOBAL_COUNTER.snapshot()[0] - start_flops

        @property
        def calls(self) -> int:
            """GEMM calls executed inside the context so far."""
            return GLOBAL_COUNTER.snapshot()[1] - start_calls

    yield _View()
