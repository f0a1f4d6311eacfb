"""Online committee surrogates for the MBE dimer/trimer tail.

See ``repro.surrogate.manager`` for the uncertainty-gated serving layer
and ``repro.surrogate.model`` for the descriptor + kernel-ridge committee.
"""

from .manager import (
    DEFAULT_TOL_DIMER,
    DEFAULT_TOL_TRIMER,
    SurrogateManager,
    gate_tolerances,
)
from .model import KernelRidgeCommittee, descriptor

__all__ = [
    "SurrogateManager",
    "KernelRidgeCommittee",
    "descriptor",
    "DEFAULT_TOL_DIMER",
    "DEFAULT_TOL_TRIMER",
    "gate_tolerances",
]
