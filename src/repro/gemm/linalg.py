"""Shared dense linear-algebra helpers built on the counted GEMM."""

from __future__ import annotations

import numpy as np

from .flops import gemm


def sym_inv_sqrt(M: np.ndarray, threshold: float = 1.0e-10) -> np.ndarray:
    """Symmetric inverse square root ``M^{-1/2}`` with eigenvalue screening.

    Eigenvalues below ``threshold * max_eig`` are projected out (canonical
    orthogonalization), which keeps near-singular overlap matrices
    numerically safe. (The RI metric is not screened: its fit is one
    Cholesky factor, `repro.scf.rhf`.)
    """
    w, V = np.linalg.eigh(M)
    cut = threshold * w[-1]
    keep = w > cut
    inv_sqrt = np.zeros_like(w)
    inv_sqrt[keep] = 1.0 / np.sqrt(w[keep])
    return (V * inv_sqrt[None, :]) @ V.T


def eigh_orth(F: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``F C = S C eps`` in a given orthogonalizer ``X = S^{-1/2}`` — for
    callers that solve many ``F`` in one overlap (the SCF loop)."""
    Ft = gemm(gemm(X, F), X)
    Ft = 0.5 * (Ft + Ft.T)
    eps, Ct = np.linalg.eigh(Ft)
    C = gemm(X, Ct)
    return eps, C
