"""Table IV — DGEMM variant (NN/NT/TN/TT) performance on matrix shapes
arising in RI-MP2 gradient calculations.

The paper measures up to 20x between variants on an MI250X GCD for
three tall-skinny shapes; which variant wins is shape/machine/library
dependent — precisely why the paper's auto-tuner exists. We time the
same four variants through the identical dispatch machinery on this
machine's BLAS (shapes scaled to CPU-feasible sizes, same aspect
ratios), next to ``np.matmul`` on the same operands — what
`repro.gemm.gemm` runs, and on C-contiguous operands the zero-copy TT
layout — and verify an explicit `GemmAutoTuner` picks the fastest
variant it trialled.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import format_table
from repro.gemm import VARIANTS, GemmAutoTuner
from repro.gemm.autotune import _gemm_variant

#: paper shapes (m, k, n) scaled by ~1/8 in the large dimension
SHAPES = [
    (960, 40560, 960),
    (120, 369735, 120),
    (192, 92256, 192),
]


def _rate_gflops(m: int, k: int, n: int, seconds: float) -> float:
    return 2.0 * m * n * k / seconds / 1.0e9


def test_table4_gemm_variants(run_once, record_output):
    rng = np.random.default_rng(0)

    def experiment():
        rows = []
        winners = {}
        for m, k, n in SHAPES:
            A = rng.standard_normal((m, k))
            B = rng.standard_normal((k, n))
            calls = {v: (lambda v=v: _gemm_variant(A, B, v)) for v in VARIANTS}
            calls["@"] = lambda: A @ B
            rates = {}
            for name, call in calls.items():
                call()  # warm up caches/threads
                t0 = time.perf_counter()
                call()
                rates[name] = _rate_gflops(m, k, n, time.perf_counter() - t0)
            matmul = rates.pop("@")
            best = max(rates, key=rates.get)
            winners[(m, k, n)] = (best, rates)
            rows.append(
                (m, k, n)
                + tuple(f"{rates[v]:.2f}" for v in VARIANTS)
                + (f"{matmul:.2f}", best,
                   f"{rates[best] / min(rates.values()):.2f}x")
            )
        table = format_table(
            ["m", "k", "n", *(f"{v} GF/s" for v in VARIANTS), "@ GF/s",
             "best", "best/worst"],
            rows,
            title=(
                "Table IV (CPU BLAS reproduction) — GEMM variant performance "
                "on RI-MP2 gradient shapes\n(paper: MI250X GCD, 0.33-19.5 "
                "TFLOP/s spread, up to 20x between variants)"
            ),
        )
        return table, winners

    table, winners = run_once(experiment)
    record_output("table4_gemm_variants", table)

    # an explicit tuner must converge to the per-shape best variant
    m, k, n = SHAPES[1]
    A = rng.standard_normal((m, k))
    B = rng.standard_normal((k, n))
    tuner = GemmAutoTuner()
    for _ in range(len(VARIANTS) * tuner.trials_per_variant + 1):
        tuner.gemm(A, B)
    picked = tuner.best[(m, k, n)]
    (_, _, trial_times), = tuner.report()
    assert trial_times[picked] == min(trial_times.values())
