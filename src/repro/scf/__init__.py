"""Restricted Hartree-Fock solvers (conventional and RI) and gradients."""

from ..numerics import NumericalDivergenceError
from .diis import DIIS
from .grad import rhf_gradient_conventional, rhf_gradient_ri
from .recovery import DEFAULT_LADDER, RecoveryStage, rhf_with_recovery
from .rhf import (
    SCFConvergenceError,
    SCFResult,
    build_ri_tensors,
    prepare_solves,
    rhf,
)

__all__ = [
    "DEFAULT_LADDER",
    "DIIS",
    "NumericalDivergenceError",
    "RecoveryStage",
    "SCFConvergenceError",
    "SCFResult",
    "build_ri_tensors",
    "prepare_solves",
    "rhf",
    "rhf_gradient_conventional",
    "rhf_gradient_ri",
    "rhf_with_recovery",
]
