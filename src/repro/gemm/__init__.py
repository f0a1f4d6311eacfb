"""FLOP-counted dense linear algebra (paper Sec. VI-C) and the GEMM
variant-trial artefact of Sec. V-G / Table IV."""

from .autotune import GLOBAL_TUNER, VARIANTS, GemmAutoTuner
from .flops import GLOBAL_COUNTER, FlopCounter, bgemm, count_flops, gemm
from .linalg import eigh_orth, sym_inv_sqrt

__all__ = [
    "FlopCounter",
    "GLOBAL_COUNTER",
    "GLOBAL_TUNER",
    "GemmAutoTuner",
    "VARIANTS",
    "bgemm",
    "count_flops",
    "eigh_orth",
    "gemm",
    "sym_inv_sqrt",
]
