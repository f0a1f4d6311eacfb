"""MP2 correlation energies and the analytic RI-MP2 gradient."""

from .mp2 import MP2Result, mo_b_tensor, mp2, mp2_conventional, mp2_ri, scs_theta
from .rimp2_grad import (
    CorrectionCoefficients,
    MP2GradientResult,
    mo_tensors,
    mp2_correction_coefficients,
    rimp2_gradient,
    rimp2_gradient_coefficients,
    rimp2_gradient_conventional_hf,
)
from .zvector import apply_orbital_hessian, hessian_blocks, solve_zvector

__all__ = [
    "CorrectionCoefficients",
    "MP2GradientResult",
    "MP2Result",
    "apply_orbital_hessian",
    "hessian_blocks",
    "mo_b_tensor",
    "mo_tensors",
    "mp2",
    "mp2_conventional",
    "mp2_ri",
    "scs_theta",
    "mp2_correction_coefficients",
    "rimp2_gradient",
    "rimp2_gradient_coefficients",
    "rimp2_gradient_conventional_hf",
    "solve_zvector",
]
