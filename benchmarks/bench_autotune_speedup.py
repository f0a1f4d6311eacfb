"""Sec. V-G numbers — what GEMM variant tuning is worth on an AIMD shape mix.

The paper reports 13% (urea trimer) and 12% (paracetamol trimer) AIMD
speedups from runtime variant tuning on a single MI250X GCD, exploiting
the fact that the same GEMM shapes recur 10-100x per gradient and again
every time step. We record the shape mix of one RI-HF + RI-MP2 gradient
of a urea monomer (the AIMD inner loop) from the runtime FLOP counter
and replay it — C-contiguous operands, each shape weighted by its call
count — through ``@`` (what `repro.gemm.gemm` runs), each fixed
variant, and an explicit `GemmAutoTuner` after its trial phase. On
NumPy/OpenBLAS ``@`` already dispatches the zero-copy variant from the
operands' strides, so the search has one answer and the tuner's
bookkeeping is what is left to measure; nothing here asserts that
tuning beats ``@``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import format_table
from repro.gemm import GLOBAL_COUNTER, VARIANTS, GemmAutoTuner
from repro.gemm.autotune import _gemm_variant
from repro.mp2.rimp2_grad import rimp2_gradient
from repro.scf import rhf
from repro.systems import urea_molecule

BASIS = "sto-3g"
#: timed repeats per (shape, route); a call costs the best of them
REPEATS = 15
BEST, TUNER = "best variant per shape", "tuner (post-trial)"


def _gradient_shape_mix(mol) -> dict[tuple[int, int, int], int]:
    """``(m, k, n) -> calls`` of one RI-HF + RI-MP2 gradient."""
    before = dict(GLOBAL_COUNTER.by_shape)
    rimp2_gradient(rhf(mol, BASIS, ri=True))
    return {
        shape: calls - before.get(shape, 0)
        for shape, calls in GLOBAL_COUNTER.by_shape.items()
        if calls > before.get(shape, 0)
    }


def _best_of(call) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def test_autotune_aimd_speedup(run_once, record_output):
    mix = _gradient_shape_mix(urea_molecule())

    def experiment():
        rng = np.random.default_rng(0)
        tuner = GemmAutoTuner()
        #: count-weighted seconds per route
        total = dict.fromkeys(["@", *VARIANTS, BEST, TUNER], 0.0)
        for (m, k, n), calls in mix.items():
            A = rng.standard_normal((m, k))
            B = rng.standard_normal((k, n))
            for _ in range(len(VARIANTS) * tuner.trials_per_variant):
                tuner.gemm(A, B)
            per_call = {"@": _best_of(lambda: A @ B)}
            for v in VARIANTS:
                per_call[v] = _best_of(lambda: _gemm_variant(A, B, v))
            per_call[BEST] = min(per_call[v] for v in VARIANTS)
            per_call[TUNER] = _best_of(lambda: tuner.gemm(A, B))
            for route, seconds in per_call.items():
                total[route] += calls * seconds
        assert len(tuner.best) == len(mix)
        table = format_table(
            ["route", "count-weighted ms", "vs @"],
            [(route, f"{1e3 * t:.2f}", f"{t / total['@']:.2f}x")
             for route, t in total.items()],
            title=(
                "Sec. V-G (CPU reproduction) — one urea RI-MP2 gradient's "
                f"GEMM mix ({len(mix)} shapes, {sum(mix.values())} calls) "
                "replayed per route\n(paper: +13% urea / +12% paracetamol "
                "from tuning on an MI250X GCD; here `@` is the runtime path)"
            ),
        )
        return table, total[TUNER], total[BEST]

    table, t_tuner, t_best = run_once(experiment)
    record_output("autotune_speedup", table)
    # the tuner's picks (plus its lock and table lookup) stay within
    # noise of the best variant it could have trialled
    assert t_tuner < 1.25 * t_best
