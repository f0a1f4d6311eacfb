"""Analytic RHF nuclear gradients: conventional and RI variants.

The RI-HF gradient eliminates four-center integral derivatives entirely
(paper Sec. V-E): all two-electron derivative work reduces to contractions
of coefficient tensors with ``(mu nu|P)^xi`` and ``(P|Q)^xi``. The
coefficients are derived against the *raw* three-center integrals and the
raw metric J (the ``J^{-1}`` formulation), which avoids differentiating
the fit factor. With ``Y = (mu nu|Q) J^{-1}_QP = B L^{-1}`` (the fit
tensor times the metric's inverse Cholesky factor), the energy depends
on the integrals only through ``(mn|ls)_RI = sum_PQ (mn|P) J^{-1}_PQ
(ls|Q)``, and the chain rule of ``J^{-1}`` ties the metric coefficient
to the three-center one:

    zeta = dE/d(P|Q) = -1/2 sym(Y^T Z3c),      Z3c = dE/d(mn|P)

For HF (``c = Y^T D``):

    Z3c = D (x) c - 1/2 D Y^P D

and the MP2 correction adds its separable (``Pc``) and non-separable
(``G``) terms to the same tensor (`ri_twoelectron_coefficients`), so
``Y`` is formed once and ``zeta`` is one GEMM (docs/THEORY.md §2, §5).
"""

from __future__ import annotations

import numpy as np

from ..gemm import bgemm, gemm
from ..integrals import (
    ERI4C_SCREEN,
    contract_eri2c_deriv,
    contract_eri3c_deriv,
    contract_eri4c_deriv_hf,
    contract_hcore_deriv,
    contract_overlap_deriv,
)
from ..integrals.workspace import evaluation_scope
from .rhf import SCFResult


def _energy_weighted_density(res: SCFResult) -> np.ndarray:
    """W_mn = 2 sum_i eps_i C_mi C_ni (occupation-2 convention)."""
    Co = res.C_occ
    eps_o = res.eps[: res.nocc]
    return 2.0 * gemm(Co * eps_o[None, :], Co.T)


def rhf_gradient_conventional(
    res: SCFResult, workspace=None, int_screen: float = ERI4C_SCREEN
) -> np.ndarray:
    """Analytic gradient of a conventional (four-center) RHF energy.

    Returns ``(natoms, 3)`` in Hartree/Bohr. ``workspace`` serves the
    Schwarz bounds; the drivers share the pair plan inside one scope of
    it. ``int_screen`` is the four-center driver's threshold; ``0.0``
    is the exact (unscreened) path, which also skips the Schwarz/Dmax
    table builds entirely.
    """
    mol = res.mol
    natoms = mol.natoms
    g = mol.nuclear_repulsion_gradient()
    W = _energy_weighted_density(res)
    with evaluation_scope(workspace):
        g += contract_hcore_deriv(res.basis, mol, res.D, workspace)
        g += contract_eri4c_deriv_hf(
            res.basis, res.D, natoms, screen=int_screen, workspace=workspace
        )
        g -= contract_overlap_deriv(res.basis, W, workspace)
    return g


def ri_twoelectron_coefficients(
    res: SCFResult, Pc: np.ndarray | None = None, G: np.ndarray | None = None,
    hf: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-electron derivative coefficients ``(Z3c, zeta)`` of the RI
    path, in one pass of counted GEMMs.

    ``Z3c`` has shape ``(nbf, nbf, naux)`` and contracts with
    ``(mu nu|P)^xi``; ``zeta`` has shape ``(naux, naux)`` and contracts
    with ``(P|Q)^xi``. With ``Y = B L^{-1}`` (formed once), ``c = Y^T D``
    and ``cP = Y^T Pc``:

        Z3c  = (hf D + Pc) (x) c + D (x) cP - (hf D/2 + Pc) Y^P D
               + 4 C_occ G^P C_virt^T
        zeta = -1/2 sym(Y^T Z3c)

    ``hf`` includes the RI-HF terms; ``Pc`` (AO, the MP2 Fock-response
    density) adds the separable MP2 terms and ``G`` (``(nocc, nvirt,
    naux)``, ``J^{-1}`` level) the non-separable ones. RI-HF is
    ``Pc = G = None`` (``hf`` is then implied): one fit, ``c``, and a
    rank-1 Coulomb term.
    """
    if res.B is None or res.Linv is None:
        raise ValueError("SCF result does not carry RI tensors (run with ri=True)")
    D = res.D
    n, _, naux = res.B.shape
    # the Coulomb-type terms as sum_k left_k (x) (Y^T right_k), and the
    # density A of the exchange-type term -(A Y^P D)
    if Pc is None:
        left, right, A = [D], [D], 0.5 * D
    else:
        left, right = [D + Pc if hf else Pc, D], [D, Pc]
        A = 0.5 * D + Pc if hf else Pc
    Y = gemm(res.B.reshape(n * n, naux), res.Linv)  # (n*n, naux): T3 J^{-1}
    # the fit coefficients Y^T right_k, one GEMM
    fits = gemm(Y.T, np.stack([r.ravel() for r in right], axis=1)).T
    # -(A Y^P D)_mn: l in one GEMM, s in one per m
    AY = gemm(-A, Y.reshape(n, n * naux)).reshape(n, n, naux)
    Z3c = bgemm(D, AY)
    Zf = Z3c.reshape(n * n, naux)  # a view: the terms below add in place
    Zf += gemm(np.stack([l.ravel() for l in left], axis=1), fits)
    if G is not None:
        Co, Cv = res.C_occ, res.C_virt
        o, v = G.shape[:2]
        CG = gemm(4.0 * Co, G.reshape(o, v * naux)).reshape(n, v, naux)
        Z3c += bgemm(Cv, CG)  # 4 C_occ G^P C_virt^T
    YZ = gemm(Y.T, Zf)
    zeta = -0.25 * (YZ + YZ.T)
    return Z3c, zeta


def ri_gradient_coefficients(res: SCFResult):
    """The coefficients an RI-HF gradient contracts the four derivative
    classes with (`contract_ri_gradients`): ``(D, Z3c, zeta, -W)`` for
    h, (mn|P), (P|Q) and S."""
    Z3c, zeta = ri_twoelectron_coefficients(res)
    return res.D, Z3c, zeta, -_energy_weighted_density(res)


def contract_ri_gradients(mols, bases, auxs, coefs, int_screen: float = 0.0,
                          workspace=None) -> list[np.ndarray]:
    """RI gradients of the fragments of one evaluation, ``(natoms, 3)``
    each: nuclear repulsion plus ``sum X h^xi + sum Z3c (mn|P)^xi + sum
    zeta (P|Q)^xi + sum W S^xi`` with each fragment's coefficients
    ``coefs = (X, Z3c, zeta, W)`` (``X[f]`` and so on), one call of each
    derivative driver for all of them (no four-center derivative): the
    derivative integrals of a block the fragments share are computed
    once and each fragment contracts its own coefficients with them.

    ``int_screen``/``workspace`` enable Schwarz screening on cached
    bounds; the four drivers run inside one scope of the workspace.
    """
    X, Z3c, zeta, W = coefs
    natoms = [mol.natoms for mol in mols]
    g = [mol.nuclear_repulsion_gradient() for mol in mols]
    with evaluation_scope(workspace):
        # the small table sets first: each is let go by the derivative
        # that reads it, before the three-centre one is read
        h = contract_hcore_deriv(bases, mols, X, workspace)
        j = contract_eri2c_deriv(auxs, zeta, natoms, workspace)
        t = contract_eri3c_deriv(bases, auxs, Z3c, natoms,
                                 screen=int_screen, workspace=workspace)
        s = contract_overlap_deriv(bases, W, workspace)
    for part in (h, t, j, s):
        for gf, pf in zip(g, part):
            gf += pf
    return g


def rhf_gradient_ri(
    res: SCFResult, int_screen: float = 0.0, workspace=None
) -> np.ndarray:
    """Analytic gradient of an RI-HF energy (no four-center derivatives).

    ``int_screen``/``workspace`` enable Schwarz screening on cached
    bounds; the four drivers run inside one scope of the workspace.
    """
    coefs = [c[None] for c in ri_gradient_coefficients(res)]
    return contract_ri_gradients([res.mol], [res.basis], [res.aux], coefs,
                                 int_screen, workspace)[0]

