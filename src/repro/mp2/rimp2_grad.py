"""Analytic RI-HF + RI-MP2 nuclear gradient (paper Sec. V-E and Appendix).

Implements the synergistic formulation in which *no* four-center
integrals or derivatives appear: the full gradient is

    E^xi = sum_{mn P} Z_{mn}^P (mn|P)^xi  +  sum_{PQ} zeta_PQ (P|Q)^xi
         + sum_{mn} Pc_{mn} h^xi_{mn}     +  sum_{mn} Ws_{mn} S^xi_{mn}
         + E_nuc^xi

where the coefficient tensors are computed *first* and the integral
derivatives are contracted on the fly (never stored), exactly as the
paper organizes the computation.

Derivation notes (closed-shell, canonical real orbitals; the factor
conventions here are validated against finite differences in the test
suite):

* amplitudes ``t_ijab = (ia|jb)/Delta``, ``theta = 2t - t(ab-swap)``;
  ``E2 = sum theta (ia|jb)``.
* denominator response gives the unrelaxed densities (occupation-1)
  ``P_ij = -sum_kab theta_ikab t_jkab``,
  ``P_ab = +sum_ijc theta_ijac t_ijbc``.
* orbital rotations U produce the Lagrangian
  ``Theta_ai = 4 I1_ai - 4 I2_ia + 2 A[P0]_ai`` with
  ``I1_pi = sum_jab theta_ijab (pa|jb)``,
  ``I2_pa = sum_ijb theta_ijab (ip|jb)``,
  solved by the Z-vector equation ``A z = Theta``.
* the total Fock-response coefficient is
  ``Pc = 2 P0 (oo, vv)  (+)  -z/2 (ov, vo)``; it contracts both the
  core-Hamiltonian derivative and the *separable* two-electron
  coefficients (Pc x D^HF patterns).
* all overlap-derivative terms are collected in the MO matrix ``SW``
  (built below) and contracted as ``sum SW_pq S^xi_pq``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gemm import gemm
from ..integrals import (
    contract_eri2c_deriv,
    contract_eri3c_deriv,
    contract_hcore_deriv,
    contract_overlap_deriv,
)
from ..scf.grad import contract_ri_gradients, ri_twoelectron_coefficients
from ..scf.rhf import SCFResult
from .zvector import solve_zvector


@dataclass
class MP2GradientResult:
    """Gradient plus the relaxed-density intermediates (for testing)."""

    gradient: np.ndarray  # (natoms, 3), Hartree/Bohr
    e_corr: float
    Pc_mo: np.ndarray  # Fock-response coefficient matrix (MO)
    z: np.ndarray  # Z-vector (nvirt, nocc)
    P0_oo: np.ndarray
    P0_vv: np.ndarray


def mo_tensors(res: SCFResult) -> tuple[np.ndarray, np.ndarray]:
    """The fitted tensor in the full MO basis, ``Bmo[p, q, P]``, and the
    exchange layout the two-GEMM exchange contractions read,
    ``Bx[p, P, q]`` (the second GEMM's natural output)."""
    n, _, naux = res.B.shape
    C = res.C
    nmo = C.shape[1]
    half = gemm(C.T, res.B.reshape(n, n * naux)).reshape(nmo, n, naux)
    half = np.ascontiguousarray(half.transpose(0, 2, 1)).reshape(nmo * naux, n)
    Bx = gemm(half, C).reshape(nmo, naux, nmo)
    return np.ascontiguousarray(Bx.transpose(0, 2, 1)), Bx


def a_sym_contract(X: np.ndarray, Bmo: np.ndarray, Bx: np.ndarray) -> np.ndarray:
    """``R_pq = sum_rs [4(pq|rs) - (pr|qs) - (ps|qr)] X_rs`` (X symmetric).

    For symmetric X the two exchange terms are equal, so
    ``R = 4 J[X] - 2 K[X]`` with RI-factorized J (on ``Bmo[p, q, P]``)
    and K (on ``Bx[p, P, q]``), two GEMMs each.
    """
    nmo, _, naux = Bmo.shape
    Bf = Bmo.reshape(nmo * nmo, naux)
    w = gemm(Bf.T, X.reshape(-1, 1))
    R = 4.0 * gemm(Bf, w).reshape(nmo, nmo)
    BX = gemm(Bx.reshape(nmo * naux, nmo), X)  # [p, P, s]
    R -= 2.0 * gemm(BX.reshape(nmo, naux * nmo), Bx.reshape(nmo, naux * nmo).T)
    return R


@dataclass
class CorrectionCoefficients:
    """MP2-correction derivative coefficients (HF reference excluded)."""

    Pc_ao: np.ndarray
    SW_ao: np.ndarray
    Z3c: np.ndarray
    zeta: np.ndarray
    e_corr: float
    Pc_mo: np.ndarray
    z: np.ndarray
    P0_oo: np.ndarray
    P0_vv: np.ndarray


def _gradient_terms(res: SCFResult, c_os: float, c_ss: float,
                    hf: bool) -> CorrectionCoefficients:
    """The MP2 Lagrangian of an SCF reference carrying RI tensors, and
    the coefficient pass on it (`ri_twoelectron_coefficients`): ``Z3c``
    and ``zeta`` hold the RI-HF terms too when ``hf``; ``Pc_ao`` and
    ``SW_ao`` are the MP2 terms alone either way.

    ``c_os``/``c_ss`` spin-component-scale the correlation treatment
    (SCS-MP2). The entire Lagrangian machinery flows through ``theta``,
    so scaling it is the complete change: E2, densities, Z-vector and
    all derivative coefficients become those of the scaled functional.
    Amplitudes are held as ``[i, a, j, b]``, so every contraction below
    is one GEMM on a reshape (the pair symmetry ``theta_iajb =
    theta_jbia`` moves the summed indices to one end)."""
    if res.B is None:
        raise ValueError("RI-MP2 gradient requires RI tensors on the SCF result")
    nocc = res.nocc
    C, eps = res.C, res.eps
    nmo = C.shape[1]
    nvirt = nmo - nocc
    naux = res.B.shape[2]
    ov = nocc * nvirt

    # ---- amplitudes [i, a, j, b] -------------------------------------------
    Bmo, Bx = mo_tensors(res)
    Bia = np.ascontiguousarray(Bmo[:nocc, nocc:, :]).reshape(ov, naux)
    iajb = gemm(Bia, Bia.T).reshape(nocc, nvirt, nocc, nvirt)
    d_ia = eps[:nocc, None] - eps[None, nocc:]
    t2 = iajb / (d_ia[:, :, None, None] + d_ia[None, None, :, :])
    theta = (c_os + c_ss) * t2 - c_ss * t2.transpose(0, 3, 2, 1)
    e_corr = float(np.sum(theta * iajb))

    # ---- unrelaxed densities (occupation-1) ------------------------------
    # P0_ij = -sum_kab theta_ikab t_jkab; P0_ab = sum_ijc theta_ijac t_ijbc
    P0_oo = -gemm(theta.reshape(nocc, -1), t2.reshape(nocc, -1).T)
    P0_vv = gemm(theta.reshape(-1, nvirt).T, t2.reshape(-1, nvirt))

    # ---- 3-index two-particle density (Gamma-hat, B level) ---------------
    # Gh[i, a, P] = sum_jb theta_ijab B_jb^P
    Gh = gemm(theta.reshape(ov, ov), Bia).reshape(nocc, nvirt, naux)

    # ---- Lagrangian intermediates -----------------------------------------
    # I1[p, i] = sum_aP Bmo[p, a, P] Gh[i, a, P]
    I1 = gemm(Bmo[:, nocc:, :].reshape(nmo, nvirt * naux),
              Gh.reshape(nocc, nvirt * naux).T)
    # I2[p, a] = sum_iP Bmo[p, i, P] Gh[i, a, P]
    I2 = gemm(Bmo[:, :nocc, :].reshape(nmo, nocc * naux),
              np.ascontiguousarray(Gh.transpose(0, 2, 1)).reshape(nocc * naux, nvirt))

    P0_full = np.zeros((nmo, nmo))
    P0_full[:nocc, :nocc] = P0_oo
    P0_full[nocc:, nocc:] = P0_vv
    AP0 = a_sym_contract(P0_full, Bmo, Bx)

    theta_ai = (
        4.0 * I1[nocc:, :]
        - 4.0 * I2[:nocc, :].T
        + 2.0 * AP0[nocc:, :nocc]
    )

    # ---- Z-vector ----------------------------------------------------------
    z = solve_zvector(theta_ai, Bmo, Bx, eps, nocc)

    # ---- Fock-response coefficient matrix Pc ------------------------------
    Pc = np.zeros((nmo, nmo))
    Pc[:nocc, :nocc] = 2.0 * P0_oo
    Pc[nocc:, nocc:] = 2.0 * P0_vv
    Pc[nocc:, :nocc] = -0.5 * z
    Pc[:nocc, nocc:] = -0.5 * z.T
    Pc_ao = gemm(gemm(C, Pc), C.T)

    # ---- overlap-derivative coefficient matrix SW -------------------------
    Xz = np.zeros((nmo, nmo))
    Xz[nocc:, :nocc] = 0.5 * z
    Xz[:nocc, nocc:] = 0.5 * z.T
    Az = a_sym_contract(Xz, Bmo, Bx)

    eo = eps[:nocc]
    ev = eps[nocc:]
    SW = np.zeros((nmo, nmo))
    SW[:nocc, :nocc] = (
        -(eo[:, None] + eo[None, :]) * P0_oo
        - AP0[:nocc, :nocc]
        - 2.0 * I1[:nocc, :]
        + 0.5 * Az[:nocc, :nocc]
    )
    SW[nocc:, nocc:] = (
        -(ev[:, None] + ev[None, :]) * P0_vv - 2.0 * I2[nocc:, :]
    )
    SW[:nocc, nocc:] = -4.0 * I2[:nocc, :]
    SW[nocc:, :nocc] = z * eo[None, :]
    SW_ao = gemm(gemm(C, SW), C.T)

    # ---- two-electron coefficients: separable (Pc) and non-separable (G,
    # the J^{-1}-level Gamma), with the HF terms when asked, in one pass
    G = gemm(Gh.reshape(ov, naux), res.Linv).reshape(nocc, nvirt, naux)
    Z3c, zeta = ri_twoelectron_coefficients(res, Pc_ao, G, hf=hf)

    return CorrectionCoefficients(
        Pc_ao=Pc_ao, SW_ao=SW_ao, Z3c=Z3c, zeta=zeta, e_corr=e_corr,
        Pc_mo=Pc, z=z, P0_oo=P0_oo, P0_vv=P0_vv,
    )


def mp2_correction_coefficients(
    res: SCFResult, c_os: float = 1.0, c_ss: float = 1.0
) -> CorrectionCoefficients:
    """All MP2-gradient coefficient tensors for an SCF reference that
    carries RI tensors (the HF part of the gradient is *not* included):
    the MP2 terms of `rimp2_gradient_coefficients`. ``c_os``/``c_ss``
    spin-component-scale them (SCS-MP2)."""
    return _gradient_terms(res, c_os, c_ss, hf=False)


def rimp2_gradient_coefficients(res: SCFResult, c_os: float = 1.0,
                                c_ss: float = 1.0):
    """The coefficients of the four derivative classes in the RI-HF +
    RI-MP2 gradient of one SCF reference, HF plus MP2 — ``(X, Z3c,
    zeta, W)`` for h, (mn|P), (P|Q) and S, what
    `repro.scf.grad.contract_ri_gradients` contracts — and the MP2
    intermediates of `MP2GradientResult` (``e_corr`` among them). The
    two-electron coefficients of both are one pass
    (`repro.scf.grad.ri_twoelectron_coefficients`)."""
    if res.method != "ri-rhf":
        raise ValueError("RI-MP2 gradient requires an RI SCF reference")
    cc = _gradient_terms(res, c_os, c_ss, hf=True)
    eps_o = res.eps[: res.nocc]
    W_hf = 2.0 * gemm(res.C_occ * eps_o[None, :], res.C_occ.T)
    coefs = (res.D + cc.Pc_ao, cc.Z3c, cc.zeta, cc.SW_ao - W_hf)
    return coefs, dict(e_corr=cc.e_corr, Pc_mo=cc.Pc_mo, z=cc.z,
                       P0_oo=cc.P0_oo, P0_vv=cc.P0_vv)


def rimp2_gradient(res: SCFResult, return_intermediates: bool = False,
                   c_os: float = 1.0, c_ss: float = 1.0,
                   int_screen: float = 0.0, workspace=None):
    """Analytic gradient of the RI-HF + RI-MP2 total energy.

    The paper's synergistic formulation: HF and MP2 coefficient tensors
    share the same four integral-derivative classes, so a single
    contraction pass (h^xi, S^xi, (mn|P)^xi, (P|Q)^xi) covers the whole
    gradient and *no* four-center derivative ever appears. The
    coefficients come first (`rimp2_gradient_coefficients`), the
    contraction is an evaluation of one (`contract_ri_gradients`).

    Args:
        res: converged RI-HF result (``rhf(..., ri=True)``).
        return_intermediates: return `MP2GradientResult` instead of the
            bare array.
        int_screen: Schwarz screening threshold for the three-center
            derivative contraction (0 disables).
        workspace: the `repro.integrals.IntegralWorkspace` serving
            cached bound tables to the drivers, run in one scope of it
            (None: the process workspace).

    Returns:
        ``(natoms, 3)`` gradient in Hartree/Bohr (or the result object).
    """
    coefs, parts = rimp2_gradient_coefficients(res, c_os, c_ss)
    grad = contract_ri_gradients(
        [res.mol], [res.basis], [res.aux], [c[None] for c in coefs],
        int_screen, workspace,
    )[0]
    if return_intermediates:
        return MP2GradientResult(gradient=grad, **parts)
    return grad


def rimp2_gradient_conventional_hf(
    res: SCFResult, aux=None, return_e_corr: bool = False
):
    """Gradient of conventional-HF + RI-MP2 — the baseline RI-HF replaces.

    This is the "without RI-HF" curve of the paper's Fig. 3: the HF
    component uses explicit four-center integrals and their derivatives
    (`contract_eri4c_deriv_hf`), while the MP2 correction is RI-based.
    The cost difference against `rimp2_gradient` quantifies what
    eliminating four-center integral derivatives buys for small
    fragments.

    Note: the orbital-response (CPHF) and separable coefficients are
    evaluated at the RI level against the exact-HF reference — the
    standard RI-CPHF approximation — so the gradient is exact only to
    the RI fitting accuracy (~1e-5 Ha/Bohr with the auto-generated
    auxiliary bases).
    """
    from ..integrals import contract_eri4c_deriv_hf
    from ..scf.rhf import build_ri_tensors

    if res.method != "rhf":
        raise ValueError("expected a conventional (ri=False) SCF reference")
    mol, basis = res.mol, res.basis
    natoms = mol.natoms
    if res.B is None:
        if aux is None:
            raise ValueError("pass an auxiliary BasisSet for the MP2 part")
        res.aux = aux
        res.B, res.Linv = build_ri_tensors(basis, aux)
    cc = mp2_correction_coefficients(res)
    eps_o = res.eps[: res.nocc]
    W_hf = 2.0 * gemm(res.C_occ * eps_o[None, :], res.C_occ.T)
    grad = mol.nuclear_repulsion_gradient()
    grad += contract_hcore_deriv(basis, mol, res.D + cc.Pc_ao)
    # HF two-electron part: four-center derivatives (the bottleneck)
    grad += contract_eri4c_deriv_hf(basis, res.D, natoms)
    # MP2 correction: RI three-/two-center derivative contractions
    grad += contract_eri3c_deriv(basis, res.aux, cc.Z3c, natoms)
    grad += contract_eri2c_deriv(res.aux, cc.zeta, natoms)
    grad += contract_overlap_deriv(basis, cc.SW_ao - W_hf)
    if return_e_corr:
        return grad, cc.e_corr
    return grad

