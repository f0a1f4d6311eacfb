"""Tuned, FLOP-counted dense linear algebra (paper Secs. V-G, VI-C)."""

from .autotune import (
    VARIANTS,
    GemmAutoTuner,
    GLOBAL_TUNER,
    gemm,
    set_autotune,
)
from .flops import GLOBAL_COUNTER, FlopCounter, count_flops
from .linalg import cholesky_solve_posdef, eigh_gen, eigh_orth, sym_inv, sym_inv_sqrt

__all__ = [
    "FlopCounter",
    "GLOBAL_COUNTER",
    "GLOBAL_TUNER",
    "GemmAutoTuner",
    "VARIANTS",
    "cholesky_solve_posdef",
    "count_flops",
    "eigh_gen",
    "eigh_orth",
    "gemm",
    "set_autotune",
    "sym_inv",
    "sym_inv_sqrt",
]
