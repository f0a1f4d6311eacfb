"""One-electron integrals: overlap, kinetic, nuclear attraction.

Dense matrices plus *contracted derivative* drivers that accumulate
``sum_{mu nu} X_{mu nu} d(integral)/d(atom coordinates)`` directly into a
``(natoms, 3)`` gradient, mirroring the paper's design where integral
derivatives are consumed on the fly and never stored (Sec. V-E).

The runtime drivers are the shell-class kernels in `batch.py`, exported
under their plain names by `repro.integrals`. The per-pair ``*_loop``
functions here are the reference the tests compare those against;
nothing under ``src/`` calls them.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..basis.basisset import BasisSet
    from ..chem.molecule import Molecule
from .batch import (
    contract_kinetic_deriv,
    contract_nuclear_deriv,
    kinetic,
    nuclear,
)
from .engine import (
    comp_arrays,
    pair_data,
    r_tables_batch,
    stack_driver,
    w_deriv,
    w_tensor,
)

if TYPE_CHECKING:
    from .workspace import IntegralWorkspace

_SQ = np.pi**1.5


def _pair_norms(sha, shb) -> np.ndarray:
    return np.outer(sha.comp_norms, shb.comp_norms)


def _pd(workspace, sha, shb, di: int, dj: int):
    """Pair tables from the workspace (unified headroom) or fresh.

    The cached tables carry ``(di=1, dj=2)`` headroom, a superset of what
    every one-electron driver needs, and their shared entries are bitwise
    identical to a minimal build.
    """
    if workspace is not None:
        return workspace.pair_data(sha, shb)
    return pair_data(sha, shb, di, dj)


def overlap_loop(
    basis: BasisSet, workspace: IntegralWorkspace | None = None
) -> np.ndarray:
    """Reference per-pair overlap driver."""
    n = basis.nbf
    S = np.zeros((n, n))
    for ish, sha in enumerate(basis.shells):
        oa = basis.offsets[ish]
        ca = comp_arrays(sha.l)
        for jsh in range(ish, basis.nshells):
            shb = basis.shells[jsh]
            ob = basis.offsets[jsh]
            cb = comp_arrays(shb.l)
            pd = _pd(workspace, sha, shb, 0, 0)
            W = w_tensor(pd, ca, cb, (0, 0, 0))[:, :, :, 0, 0, 0]
            pref = pd.cc * (np.pi / pd.p) ** 1.5
            blk = np.einsum("n,nab->ab", pref, W) * _pair_norms(sha, shb)
            S[oa : oa + sha.nfunc, ob : ob + shb.nfunc] = blk
            S[ob : ob + shb.nfunc, oa : oa + sha.nfunc] = blk.T
    return S


def _kinetic_block(pd, ca, cb) -> np.ndarray:
    """Kinetic-energy block for one shell pair.

    Uses the 1D relation
    ``K_ij = -1/2 [ j(j-1) S_{i,j-2} - 2b(2j+1) S_{ij} + 4 b^2 S_{i,j+2} ]``
    where ``S_ij = E_0^{ij}`` (the common ``(pi/p)^{3/2}`` is applied once).
    Requires pair data with ``dj >= 2`` headroom.
    """
    b = pd.b
    Svals = []  # per-dim (n, A, B) overlap 1D factors
    Kvals = []
    for dim in range(3):
        ia = ca[:, None, dim]
        jb = cb[None, :, dim]
        E = pd.E[:, dim]
        s = E[:, ia, jb, 0]
        jm2 = np.maximum(jb - 2, 0)
        s_m2 = E[:, ia, jm2, 0]
        s_p2 = E[:, ia, jb + 2, 0]
        k = -0.5 * (
            (jb * (jb - 1))[None] * s_m2
            - 2.0 * b[:, None, None] * (2 * jb + 1)[None] * s
            + 4.0 * b[:, None, None] ** 2 * s_p2
        )
        Svals.append(s)
        Kvals.append(k)
    tot = (
        Kvals[0] * Svals[1] * Svals[2]
        + Svals[0] * Kvals[1] * Svals[2]
        + Svals[0] * Svals[1] * Kvals[2]
    )
    pref = pd.cc * (np.pi / pd.p) ** 1.5
    return np.einsum("n,nab->ab", pref, tot)


def kinetic_loop(
    basis: BasisSet, workspace: IntegralWorkspace | None = None
) -> np.ndarray:
    """Reference per-pair kinetic-energy driver."""
    n = basis.nbf
    T = np.zeros((n, n))
    for ish, sha in enumerate(basis.shells):
        oa = basis.offsets[ish]
        ca = comp_arrays(sha.l)
        for jsh in range(ish, basis.nshells):
            shb = basis.shells[jsh]
            ob = basis.offsets[jsh]
            cb = comp_arrays(shb.l)
            pd = _pd(workspace, sha, shb, 0, 2)
            blk = _kinetic_block(pd, ca, cb) * _pair_norms(sha, shb)
            T[oa : oa + sha.nfunc, ob : ob + shb.nfunc] = blk
            T[ob : ob + shb.nfunc, oa : oa + sha.nfunc] = blk.T
    return T


def _nuclear_R(pd, tbox, centers: np.ndarray) -> np.ndarray:
    """R tensors for all (primitive pair, nucleus) combos.

    Returns shape ``(nC, n, nT)`` with nT the flattened Hermite box.
    """
    nC = centers.shape[0]
    n = pd.nprim
    p_rep = np.tile(pd.p, nC)
    PQ = (pd.P[None, :, :] - centers[:, None, :]).reshape(nC * n, 3)
    R = r_tables_batch(tbox[0], tbox[1], tbox[2], p_rep, PQ)
    return R.reshape(nC, n, -1)


def nuclear_loop(
    basis: BasisSet, mol: Molecule,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """Reference per-pair nuclear-attraction driver."""
    n = basis.nbf
    V = np.zeros((n, n))
    Z = mol.atomic_numbers.astype(float)
    centers = mol.coords
    for ish, sha in enumerate(basis.shells):
        oa = basis.offsets[ish]
        ca = comp_arrays(sha.l)
        for jsh in range(ish, basis.nshells):
            shb = basis.shells[jsh]
            ob = basis.offsets[jsh]
            cb = comp_arrays(shb.l)
            pd = _pd(workspace, sha, shb, 0, 0)
            L = sha.l + shb.l
            tbox = (L, L, L)
            W = w_tensor(pd, ca, cb, tbox)
            Wf = W.reshape(pd.nprim, sha.nfunc * shb.nfunc, -1)
            R = _nuclear_R(pd, tbox, centers)  # (nC, n, nT)
            pref = pd.cc * (2.0 * np.pi / pd.p)
            # a fixed path: the charges and prefactors into R, then W
            t = np.einsum("c,cnt->nt", Z, R, optimize=False) * pref[:, None]
            blk = -np.einsum("nxt,nt->x", Wf, t, optimize=False)
            blk = blk.reshape(sha.nfunc, shb.nfunc) * _pair_norms(sha, shb)
            V[oa : oa + sha.nfunc, ob : ob + shb.nfunc] = blk
            V[ob : ob + shb.nfunc, oa : oa + sha.nfunc] = blk.T
    return V


@stack_driver
def hcore(
    bases, mols,
    workspace: IntegralWorkspace | None = None,
) -> list[np.ndarray]:
    """Core Hamiltonians h = T + V of every fragment (``mols``, each in
    its basis), ``(nbf, nbf)`` each."""
    return [t + v for t, v in zip(kinetic(bases, workspace),
                                  nuclear(bases, mols, workspace))]


# --------------------------------------------------------------------------
# Contracted derivatives
# --------------------------------------------------------------------------

def contract_overlap_deriv_loop(
    basis: BasisSet, X: np.ndarray,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """Reference per-pair overlap-derivative driver."""
    natoms = int(max(sh.atom for sh in basis.shells)) + 1
    g = np.zeros((natoms, 3))
    Xs = X + X.T  # S^xi is symmetric; fold the ish<jsh restriction in
    for ish, sha in enumerate(basis.shells):
        oa = basis.offsets[ish]
        ca = comp_arrays(sha.l)
        for jsh in range(ish + 1, basis.nshells):
            shb = basis.shells[jsh]
            if sha.atom == shb.atom:
                continue  # derivative vanishes by invariance
            ob = basis.offsets[jsh]
            cb = comp_arrays(shb.l)
            pd = _pd(workspace, sha, shb, 1, 0)
            pref = pd.cc * (np.pi / pd.p) ** 1.5
            Xblk = Xs[oa : oa + sha.nfunc, ob : ob + shb.nfunc] * _pair_norms(sha, shb)
            for axis in range(3):
                dW = w_deriv(pd, ca, cb, (0, 0, 0), "bra", axis)[:, :, :, 0, 0, 0]
                val = float(np.einsum("n,nab,ab->", pref, dW, Xblk))
                g[sha.atom, axis] += val
                g[shb.atom, axis] -= val
    return g


def contract_kinetic_deriv_loop(
    basis: BasisSet, X: np.ndarray,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """Reference per-pair kinetic-derivative driver."""
    natoms = int(max(sh.atom for sh in basis.shells)) + 1
    g = np.zeros((natoms, 3))
    Xs = X + X.T  # T^xi is symmetric: halve the pair loop
    for ish, sha in enumerate(basis.shells):
        oa = basis.offsets[ish]
        ca = comp_arrays(sha.l)
        for jsh in range(ish + 1, basis.nshells):
            shb = basis.shells[jsh]
            if sha.atom == shb.atom:
                continue
            ob = basis.offsets[jsh]
            cb = comp_arrays(shb.l)
            pd = _pd(workspace, sha, shb, 1, 2)
            Xblk = Xs[oa : oa + sha.nfunc, ob : ob + shb.nfunc] * _pair_norms(sha, shb)
            for axis in range(3):
                blk = _kinetic_deriv_block(pd, ca, cb, axis)
                val = float(np.einsum("ab,ab->", blk, Xblk))
                g[sha.atom, axis] += val
                g[shb.atom, axis] -= val
    return g


def _kinetic_deriv_block(pd, ca, cb, axis) -> np.ndarray:
    """Bra-center derivative of the kinetic block along ``axis``."""
    b = pd.b
    Svals = []
    Kvals = []
    for dim in range(3):
        E = pd.E[:, dim]
        ia = ca[:, None, dim]
        jb = cb[None, :, dim]
        if dim == axis:
            # Differentiate the bra index: f(i) -> 2a f(i+1) - i f(i-1)
            a = pd.a[:, None, None]
            iam = np.maximum(ia - 1, 0)
            s = 2.0 * a * E[:, ia + 1, jb, 0] - ia[None] * E[:, iam, jb, 0]
            jm2 = np.maximum(jb - 2, 0)
            s_m2 = 2.0 * a * E[:, ia + 1, jm2, 0] - ia[None] * E[:, iam, jm2, 0]
            s_p2 = 2.0 * a * E[:, ia + 1, jb + 2, 0] - ia[None] * E[:, iam, jb + 2, 0]
        else:
            s = E[:, ia, jb, 0]
            jm2 = np.maximum(jb - 2, 0)
            s_m2 = E[:, ia, jm2, 0]
            s_p2 = E[:, ia, jb + 2, 0]
        k = -0.5 * (
            (jb * (jb - 1))[None] * s_m2
            - 2.0 * b[:, None, None] * (2 * jb + 1)[None] * s
            + 4.0 * b[:, None, None] ** 2 * s_p2
        )
        Svals.append(s)
        Kvals.append(k)
    tot = (
        Kvals[0] * Svals[1] * Svals[2]
        + Svals[0] * Kvals[1] * Svals[2]
        + Svals[0] * Svals[1] * Kvals[2]
    )
    pref = pd.cc * (np.pi / pd.p) ** 1.5
    return np.einsum("n,nab->ab", pref, tot)


def contract_nuclear_deriv_loop(
    basis: BasisSet, mol: Molecule, X: np.ndarray,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """Reference per-pair nuclear-derivative driver."""
    natoms = mol.natoms
    g = np.zeros((natoms, 3))
    Z = mol.atomic_numbers.astype(float)
    centers = mol.coords
    Xs = X + X.T  # V^xi is symmetric: halve the pair loop
    for ish, sha in enumerate(basis.shells):
        oa = basis.offsets[ish]
        ca = comp_arrays(sha.l)
        for jsh in range(ish, basis.nshells):
            shb = basis.shells[jsh]
            ob = basis.offsets[jsh]
            cb = comp_arrays(shb.l)
            pd = _pd(workspace, sha, shb, 1, 1)
            L = sha.l + shb.l + 1
            tbox = (L, L, L)
            R = _nuclear_R(pd, tbox, centers)  # (nC, n, nT)
            pref = pd.cc * (2.0 * np.pi / pd.p)
            Xsrc = Xs if ish != jsh else X
            Xblk = Xsrc[oa : oa + sha.nfunc, ob : ob + shb.nfunc] * _pair_norms(sha, shb)
            for axis in range(3):
                for side, shell in (("bra", sha), ("ket", shb)):
                    dW = w_deriv(pd, ca, cb, tbox, side, axis)
                    dWf = dW.reshape(pd.nprim, sha.nfunc * shb.nfunc, -1)
                    # per-nucleus contracted values (nC,), on a fixed
                    # path: the coefficients into dW, then R
                    t = np.einsum("nxt,x->nt", dWf, Xblk.ravel(),
                                  optimize=False) * pref[:, None]
                    vals = -np.einsum("cnt,nt->c", R, t,
                                      optimize=False) * Z
                    g[shell.atom, axis] += vals.sum()
                    # operator-center terms: dV_C/dC -= this side's deriv
                    g[:, axis] -= vals
    return g


@stack_driver
def contract_hcore_deriv(
    bases, mols, X,
    workspace: IntegralWorkspace | None = None,
) -> list[np.ndarray]:
    """``sum X_{f mu nu} dh_{mu nu}/dR`` with h = T + V for every
    fragment, ``X[f] (nbf, nbf)``: ``(natoms, 3)`` each."""
    return [t + v for t, v in zip(
        contract_kinetic_deriv(bases, X, workspace),
        contract_nuclear_deriv(bases, mols, X, workspace))]

