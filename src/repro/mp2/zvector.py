"""Z-vector (coupled-perturbed HF) solver for the MP2 relaxed density.

Solves, for the occupied-virtual multiplier ``z``,

    (eps_a - eps_i) z_ai + sum_bj A_ai,bj z_bj = Theta_ai

with the closed-shell orbital Hessian

    A_ai,bj = 4 (ai|bj) - (ab|ij) - (aj|ib).

All two-electron integrals enter through the fitted MO tensor
``Bmo[p,q,P]``, so the operator application is a short GEMM sequence —
the same structure the paper relies on. A dense solve is used for small
``ov`` dimensions and a matrix-free conjugate-gradient (on the
symmetric positive-definite operator) otherwise.
"""

from __future__ import annotations

import numpy as np

from ..gemm import gemm


def hessian_blocks(Bmo: np.ndarray, Bx: np.ndarray, eps: np.ndarray,
                   nocc: int) -> dict[str, np.ndarray]:
    """The operator `apply_orbital_hessian` applies: the diagonal
    ``eps_a - eps_i`` and the contiguous blocks its GEMMs read, ``ai``
    of ``Bmo[p, q, P]`` for the Coulomb term and the ``vv``, ``oo``,
    ``ov`` and ``vo`` blocks of the exchange layout ``Bx[p, P, q]``."""
    o, v = slice(None, nocc), slice(nocc, None)
    blocks = {"ai": Bmo[v, o], "vv": Bx[v, :, v], "oo": Bx[o, :, o],
              "ov": Bx[o, :, v], "vo": Bx[v, :, o]}
    blk = {k: np.ascontiguousarray(b) for k, b in blocks.items()}
    blk["diag"] = eps[nocc:, None] - eps[None, :nocc]
    return blk


def apply_orbital_hessian(z: np.ndarray, blk: dict) -> np.ndarray:
    """``(A z)_ai`` including the diagonal ``(eps_a - eps_i)`` term, for
    a ``(nvirt, nocc)`` trial vector ``z`` and the `hessian_blocks`."""
    nvirt, nocc = z.shape
    naux = blk["ai"].shape[2]
    Bai = blk["ai"].reshape(nvirt * nocc, naux)
    # Coulomb-like: 4 sum_P B_ai^P (sum_bj B_bj^P z_bj)
    w = gemm(Bai.T, z.reshape(-1, 1))
    out = blk["diag"] * z + 4.0 * gemm(Bai, w).reshape(nvirt, nocc)
    # Exchange 1: -(ab|ij) z_bj = -sum_Pj (sum_b B_ab^P z_bj) B_ij^P
    V = gemm(blk["vv"].reshape(nvirt * naux, nvirt), z)  # [a, P, j]
    out -= gemm(V.reshape(nvirt, naux * nocc),
                blk["oo"].reshape(nocc, naux * nocc).T)
    # Exchange 2: -(aj|ib) z_bj = -sum_Pj B_aj^P (sum_b B_ib^P z_bj)
    U = gemm(blk["ov"].reshape(nocc * naux, nvirt), z)  # [i, P, j]
    out -= gemm(blk["vo"].reshape(nvirt, naux * nocc),
                U.reshape(nocc, naux * nocc).T)
    return out


def solve_zvector(
    theta: np.ndarray,
    Bmo: np.ndarray,
    Bx: np.ndarray,
    eps: np.ndarray,
    nocc: int,
    tol: float = 1.0e-11,
    max_cycles: int = 200,
    dense_cutoff: int = 4000,
) -> np.ndarray:
    """Solve ``A z = Theta`` for the Z-vector, with the fitted MO tensor
    in both layouts, ``Bmo[p, q, P]`` and ``Bx[p, P, q]``
    (`repro.mp2.rimp2_grad.mo_tensors`).

    Uses a dense factorization when ``nvirt * nocc <= dense_cutoff``;
    otherwise preconditioned conjugate gradients with the orbital-energy
    diagonal as preconditioner.
    """
    nmo, _, naux = Bmo.shape
    nvirt = nmo - nocc
    ov = nvirt * nocc
    if ov <= dense_cutoff:
        # M[a,i,b,j] = (ai|bj); (aj|ib) = (aj|bi) is M[a,j,b,i]
        Bai = np.ascontiguousarray(Bmo[nocc:, :nocc, :]).reshape(ov, naux)
        Bab = Bmo[nocc:, nocc:, :].reshape(nvirt * nvirt, naux)
        Bij = Bmo[:nocc, :nocc, :].reshape(nocc * nocc, naux)
        M = gemm(Bai, Bai.T).reshape(nvirt, nocc, nvirt, nocc)
        N = gemm(Bab, Bij.T).reshape(nvirt, nvirt, nocc, nocc)  # (ab|ij)
        A = 4.0 * M - N.transpose(0, 2, 1, 3) - M.transpose(0, 3, 2, 1)
        A = A.reshape(ov, ov)
        A[np.diag_indices(ov)] += (eps[nocc:, None] - eps[None, :nocc]).ravel()
        return np.linalg.solve(A, theta.ravel()).reshape(nvirt, nocc)

    # Preconditioned CG (A is SPD for a stable SCF reference).
    blk = hessian_blocks(Bmo, Bx, eps, nocc)
    diag = blk["diag"]
    z = theta / diag
    r = theta - apply_orbital_hessian(z, blk)
    p = r / diag
    rs = float(np.sum(r * (r / diag)))
    for _ in range(max_cycles):
        Ap = apply_orbital_hessian(p, blk)
        alpha = rs / float(np.sum(p * Ap))
        z += alpha * p
        r -= alpha * Ap
        if float(np.max(np.abs(r))) < tol:
            break
        rs_new = float(np.sum(r * (r / diag)))
        p = r / diag + (rs_new / rs) * p
        rs = rs_new
    else:
        raise RuntimeError("Z-vector CG did not converge")
    return z
