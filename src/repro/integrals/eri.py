"""Electron-repulsion integrals: two-, three- and four-center classes.

All classes share one general bra-pair x ket-pair Hermite contraction
(`_eri_general`). Auxiliary (RI) shells enter as "pairs" with a zero-
exponent dummy partner, under which the machinery reduces to the single-
Gaussian Hermite expansion. Derivative drivers contract coefficient
tensors against integral first derivatives on the fly, exactly as the
paper's gradient is organized (coefficients first, derivatives never
stored).

Screening and reuse (paper Sec. V: every bottleneck reduces to
*screened*, dense contractions): the three-center drivers accept a
Cauchy-Schwarz ``screen`` threshold — a bra shell pair is skipped when
``Q_ab * max_P Q_P`` (times the local coefficient magnitude, for the
derivative drivers) cannot exceed it — plus an optional
`IntegralWorkspace` that serves cached shell-pair expansion tables,
auxiliary group scaffolding and bound tables across calls and MD steps.
Every screened driver accumulates the summed bound of what it skipped,
so callers get a rigorous estimate of the neglected contribution.

The runtime three-center and Schwarz drivers are the shell-class kernels
in `batch.py` (Hermite simplex, one GEMM per class and aux group, one
`CoulombTables` set per evaluation), and the two-center drivers here
call the same kernels and the same table builder. `eri3c_loop`,
`contract_eri3c_deriv_loop` and `schwarz_pair_bounds_loop` keep the full
Hermite cube: they are the per-pair reference of the tests, never called
under ``src/``.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..basis.basisset import BasisSet
    from .workspace import IntegralWorkspace
from ..gemm import bgemm
from .engine import (
    AuxGroup,
    PairData,
    aux_group_data,
    canonical_shell_pairs,
    comp_arrays,
    hermite_box,
    hermite_simplex,
    pair_data,
    r_tables_batch,
    single_data,
    stack_driver,
    w_deriv,
    w_tensor,
)

_TWO_PI_52 = 2.0 * np.pi**2.5

#: derivative integrals grow like ``2 alpha x extent`` relative to the
#: plain Schwarz bound; screening decisions on derivative drivers absorb
#: that in a conservative prefactor
DERIV_SAFETY = 50.0


def _bra_pair(workspace, sha, shb, di: int, dj: int) -> PairData:
    """Shell-pair tables from the workspace (unified headroom) or fresh."""
    if workspace is not None:
        return workspace.pair_data(sha, shb)
    return pair_data(sha, shb, di, dj)


def _aux_groups(workspace, aux, di: int = 0) -> list[AuxGroup]:
    if workspace is not None:
        return workspace.aux_groups(aux, di=di)
    return aux_group_data(aux, di=di)


def _schwarz_table(basis, workspace) -> np.ndarray:
    """Schwarz bound table from the evaluation's scratch, or freshly built.

    Every screened driver — the loop references included — takes its
    skip decisions from this one table, so they agree exactly.
    """
    return _schwarz_tables([basis], workspace)[0]


def _schwarz_tables(bases, workspace) -> list[np.ndarray]:
    """`_schwarz_table` of every basis of a call."""
    if workspace is not None:
        return workspace.schwarz_bounds_stack(bases)
    from .batch import schwarz_pair_bounds

    return schwarz_pair_bounds(bases)


def _aux_bounds(aux, workspace) -> np.ndarray:
    if workspace is not None:
        return workspace.aux_function_bounds(aux)
    return aux_function_bounds(aux)


def _combined_R(bra: PairData, ket: PairData, tbox_b, tbox_k) -> np.ndarray:
    """R tensors over the combined Hermite box for every (n, m) primitive
    pair combination. Shape ``(n, m, TX+1, TY+1, TZ+1)``."""
    n, m = bra.nprim, ket.nprim
    p = bra.p[:, None].repeat(m, axis=1).ravel()
    q = np.tile(ket.p, n)
    alpha = p * q / (p + q)
    PQ = (bra.P[:, None, :] - ket.P[None, :, :]).reshape(n * m, 3)
    TX = tbox_b[0] + tbox_k[0]
    TY = tbox_b[1] + tbox_k[1]
    TZ = tbox_b[2] + tbox_k[2]
    R = r_tables_batch(TX, TY, TZ, alpha, PQ)
    return R.reshape(n, m, TX + 1, TY + 1, TZ + 1)


def _kfac(bra: PairData, ket: PairData) -> np.ndarray:
    """Prefactor ``2 pi^{5/2} / (p q sqrt(p+q))`` with contraction coefs,
    shape ``(n, m)``."""
    p = bra.p[:, None]
    q = ket.p[None, :]
    return (
        _TWO_PI_52
        / (p * q * np.sqrt(p + q))
        * bra.cc[:, None]
        * ket.cc[None, :]
    )


def _contract(bra_W, ket_W, R, K, tb_idx, tk_idx) -> np.ndarray:
    """Assemble the ERI block.

    Args:
        bra_W: ``(n, nA*nB, Tb)`` flattened bra expansion.
        ket_W: ``(m, nC*nD, Tk)`` flattened ket expansion with the
            ``(-1)^{tau+nu+phi}`` phase folded in.
        R: combined Hermite tensor ``(n, m, TX+1, TY+1, TZ+1)``.
        K: prefactors ``(n, m)``.
        tb_idx, tk_idx: Hermite boxes, shapes ``(Tb, 3)``, ``(Tk, 3)``.

    Returns:
        ``(nA*nB, nC*nD)`` block.
    """
    tsum = tb_idx[:, None, :] + tk_idx[None, :, :]  # (Tb, Tk, 3)
    M = R[:, :, tsum[..., 0], tsum[..., 1], tsum[..., 2]]  # (n, m, Tb, Tk)
    # a fixed path: K into the kernel, the bra over (n, t), the ket over
    # (m, s)
    n, X, Tb = bra_W.shape
    m, Y, Tk = ket_W.shape
    KM = (M * K[:, :, None, None]).transpose(0, 2, 1, 3).reshape(n * Tb, m * Tk)
    t1 = bra_W.transpose(1, 0, 2).reshape(X, n * Tb) @ KM
    return t1 @ ket_W.transpose(0, 2, 1).reshape(m * Tk, Y)


def _phase(tk_idx: np.ndarray) -> np.ndarray:
    return (-1.0) ** tk_idx.sum(axis=1)


def _eri_general(bra: PairData, ket: PairData, ca, cb, cc, cd) -> np.ndarray:
    """General (ab|cd) block over Cartesian components, un-normalized."""
    lb = (int(ca[:, 0].max() + cb[:, 0].max()), int(ca[:, 1].max() + cb[:, 1].max()),
          int(ca[:, 2].max() + cb[:, 2].max()))
    lk = (int(cc[:, 0].max() + cd[:, 0].max()), int(cc[:, 1].max() + cd[:, 1].max()),
          int(cc[:, 2].max() + cd[:, 2].max()))
    tb_idx = hermite_box(lb)
    tk_idx = hermite_box(lk)
    Wb = w_tensor(bra, ca, cb, lb).reshape(bra.nprim, len(ca) * len(cb), -1)
    Wk = w_tensor(ket, cc, cd, lk).reshape(ket.nprim, len(cc) * len(cd), -1)
    Wk = Wk * _phase(tk_idx)[None, None, :]
    R = _combined_R(bra, ket, lb, lk)
    K = _kfac(bra, ket)
    blk = _contract(Wb, Wk, R, K, tb_idx, tk_idx)
    return blk.reshape(len(ca), len(cb), len(cc), len(cd))


_S_COMP = comp_arrays(0)


def _eri2c_tables(workspace, auxs, sites):
    """The `CoulombTables` of every ordered (bra group, ket group) pair
    of the metric, over the (site, site) blocks some fragment holds: the
    bra is the site group as one-primitive "pairs", the ket its sites
    one at a time. Returns the set and each fragment's blocks among them
    (`batch._pairs_of_sites`)."""
    from .batch import _coulomb_tables, _pairs_of_sites, _site_bras

    blocks, mine = _pairs_of_sites(sites)
    tabs = _coulomb_tables(
        workspace, "eri2c", (auxs,), None, _site_bras(sites),
        [dict(qk=grp.qk.reshape(-1, 1), Pk=grp.Pk.reshape(-1, 1, 3),
              l=grp.l) for grp in sites.groups], blocks,
    )
    return tabs, mine


def _site_pairs(tabs, gb, gk, Wb, grp_b, grp_k, Lb, width):
    """``(n, width, C_k)`` of every (site, site) block of groups ``(gb,
    gk)``: the bra site's rows ``Wb (M_b, width, Tb)`` through the
    block's kernel ``(Tb, Tk)`` and the ket site's expansion ``(Tk,
    C_k)`` — two GEMMs per block, shapes fixed by the two groups — then
    normalized by both sites' ``comp_norms`` (the bra's repeated down
    the rows in groups of ``C_b``)."""
    from . import batch as kernels

    codes = tabs.blocks[gb, gk]
    nsite = grp_k.qk.size
    bra, ket = codes // nsite, codes % nsite
    WkT = grp_k.WkT.reshape(nsite, grp_k.Tk, grp_k.C)
    norms_b = grp_b.comp_norms.reshape(-1, grp_b.C)
    norms_k = grp_k.comp_norms.reshape(-1, grp_k.C)
    reps = width // grp_b.C
    out = np.empty((codes.size, width, grp_k.C))
    K, Tk = Wb.shape[2], grp_k.Tk
    for sites, sel, r in kernels._runs(bra, max(width, K) * Tk):
        M2 = tabs.kernel(gb, gk, sel, Lb).reshape(-1, r, K, Tk)
        t1 = bgemm(Wb[sites][:, None], M2).reshape(-1, width, Tk)
        blk = bgemm(t1, WkT[ket[sel]])
        blk = blk * np.tile(norms_b[bra[sel]], reps)[:, :, None]
        out[sel] = blk * norms_k[ket[sel]][:, None, :]
    return out


#: (fitting composition, two group keys) -> `_metric_map`; geometry-free
_METRIC_MAPS: dict[tuple, tuple] = {}


def _metric_map(aux, grp_b, grp_k, fb, fk):
    """Where a fragment's (site, site) block elements of one pair of
    groups land in its flat ``(naux, naux)`` metric: ``(direct, image,
    same)`` — the ``(P|Q)`` and ``(Q|P)`` positions, ``(n_b n_k, C_b
    C_k)`` in block order, and which blocks pair two sites of one atom.
    Memoised on the composition."""
    from .workspace import basis_composition_key

    key = (basis_composition_key(aux), grp_b.ls, grp_b.m, grp_k.ls, grp_k.m)
    maps = _METRIC_MAPS.get(key)
    if maps is None:
        fi_b = fb.func_idx.reshape(-1, grp_b.C)[:, None, :, None]
        fi_k = fk.func_idx.reshape(-1, grp_k.C)[None, :, None, :]
        n = fi_b.shape[0] * fi_k.shape[1]
        index = np.int32 if aux.nbf ** 2 < 2**31 else np.intp
        same = (np.repeat(fb.atoms, grp_b.m)[:, None]
                == np.repeat(fk.atoms, grp_k.m)[None, :])
        maps = ((fi_b * aux.nbf + fi_k).reshape(n, -1).astype(index),
                (fi_k * aux.nbf + fi_b).reshape(n, -1).astype(index),
                same.ravel())
        if len(_METRIC_MAPS) >= 1024:
            _METRIC_MAPS.clear()
        _METRIC_MAPS[key] = maps
    return maps


def _flat_metrics(auxs):
    """One zeroed buffer holding every fragment's ``(naux, naux)``
    matrix, the matrices as views of it, and their offsets."""
    offs = np.cumsum([0] + [aux.nbf ** 2 for aux in auxs])
    flat = np.zeros(offs[-1])
    return flat, [flat[lo:hi].reshape(aux.nbf, aux.nbf)
                  for lo, hi, aux in zip(offs[:-1], offs[1:], auxs)], offs


@stack_driver
def eri2c(auxs, workspace: IntegralWorkspace | None = None) -> list:
    """Two-center Coulomb metrics ``(P|Q)`` of every fitting basis of a
    call, ``(naux, naux)`` each.

    A block is a pair of auxiliary sites (`engine.AuxGroup`), computed
    once for the call (the lower triangle of group pairs is the upper
    one's image); each fragment gathers its own. ``workspace`` serves
    the cached (geometry-independent) group scaffolding and keeps the
    Hermite Coulomb tables of every ordered pair for
    `contract_eri2c_deriv`.
    """
    from .batch import _gather, _record_blocks, site_plan

    sites = site_plan(auxs, workspace).per_site()
    tabs, mine = _eri2c_tables(workspace, auxs, sites)
    flat, J, offs = _flat_metrics(auxs)
    computed = sum(sites.groups[gb].C * sites.groups[gk].C * codes.size
                   for (gb, gk), codes in tabs.blocks.items())
    for gb, sb in enumerate(sites.groups):
        # the 3c kernel with a one-primitive "pair" per bra site; the
        # bra expansion is the ket one with the +-1 phase taken back
        Wb = (sb.Wk * _phase(hermite_simplex(sb.l))).reshape(-1, sb.C, sb.Tk)
        for gk in range(gb, len(sites.groups)):
            if (gb, gk) not in mine:
                continue
            sk = sites.groups[gk]
            blk = _site_pairs(tabs, gb, gk, Wb, sb, sk, sb.l, sb.C)
            pos, direct, image = [], [], []
            for f, fb, fk, at in mine[gb, gk]:
                d, i, _ = _metric_map(auxs[f], sb, sk, fb, fk)
                pos.append(at.ravel())
                direct.append((d + offs[f]).ravel())
                image.append((i + offs[f]).ravel())
            # the (Q|P) image last: on a diagonal block it is what stays
            vals = _gather(blk, pos).ravel()
            flat[np.concatenate(direct)] = vals
            flat[np.concatenate(image)] = vals
    _record_blocks(workspace, "2c", sum(aux.nbf ** 2 for aux in auxs),
                   computed)
    return J


def _eri2c_pershell(aux: BasisSet) -> np.ndarray:
    """Per-shell-pair ``(P|Q)`` of one fitting basis: the reference
    `eri2c` is tested against (contracted shells included)."""
    n = aux.nbf
    J = np.zeros((n, n))
    singles = [single_data(sh) for sh in aux.shells]
    comps = [comp_arrays(sh.l) for sh in aux.shells]
    for i, shp in enumerate(aux.shells):
        op = aux.offsets[i]
        for j in range(i, aux.nshells):
            shq = aux.shells[j]
            oq = aux.offsets[j]
            blk = _eri_general(singles[i], singles[j], comps[i], _S_COMP, comps[j], _S_COMP)
            blk = blk[:, 0, :, 0] * np.outer(shp.comp_norms, shq.comp_norms)
            J[op : op + shp.nfunc, oq : oq + shq.nfunc] = blk
            J[oq : oq + shq.nfunc, op : op + shp.nfunc] = blk.T
    return J


def _group_M(
    bra: PairData, grp: AuxGroup, tbox_b: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Hermite kernel pieces for one (bra pair, aux group) combination.

    Returns ``(M2, Wk)`` where ``M2`` is the gathered, prefactor-folded
    Hermite Coulomb tensor reshaped to ``(n*Tb, m*Tk)`` and ``Wk`` the
    ket expansion ``(m, C, Tk)`` with the Hermite phase folded in. These
    depend only on geometry, so derivative drivers reuse them across all
    six (side, axis) combinations.
    """
    lk = (grp.lmax, grp.lmax, grp.lmax)
    tk_idx = hermite_box(lk)
    tb_idx = hermite_box(tbox_b)
    Wk = w_tensor(grp.pd, grp.comps, _S_COMP, lk)[:, :, 0, :, :, :]
    m, C = grp.func_idx.shape
    Wk = Wk.reshape(m, C, -1) * _phase(tk_idx)[None, None, :]
    R = _combined_R(bra, grp.pd, tbox_b, lk)
    K = _kfac(bra, grp.pd)
    tsum = tb_idx[:, None, :] + tk_idx[None, :, :]
    M = R[:, :, tsum[..., 0], tsum[..., 1], tsum[..., 2]]  # (n, m, Tb, Tk)
    M *= K[:, :, None, None]
    n = M.shape[0]
    Tb = tb_idx.shape[0]
    Tk = tk_idx.shape[0]
    M2 = np.ascontiguousarray(M.transpose(0, 2, 1, 3)).reshape(n * Tb, m * Tk)
    return M2, Wk


def _group_apply(M2: np.ndarray, Wk: np.ndarray, Wb: np.ndarray) -> np.ndarray:
    """Contract a bra expansion ``Wb (n, X, Tb)`` with cached kernel
    pieces, producing per-aux-shell blocks ``(m, X, C)``."""
    n, X, Tb = Wb.shape
    m, C, Tk = Wk.shape
    t1 = np.ascontiguousarray(Wb.transpose(1, 0, 2)).reshape(X, n * Tb) @ M2
    t1 = np.ascontiguousarray(t1.reshape(X, m, Tk).transpose(1, 0, 2))
    return np.matmul(t1, Wk.transpose(0, 2, 1))


def _group_kernel(
    bra: PairData,
    grp: AuxGroup,
    Wb: np.ndarray,
    tbox_b: tuple[int, int, int],
) -> np.ndarray:
    """One-shot grouped 3c contraction (build kernel, apply bra)."""
    M2, Wk = _group_M(bra, grp, tbox_b)
    return _group_apply(M2, Wk, Wb)


def eri3c_loop(
    basis: BasisSet,
    aux: BasisSet,
    screen: float = 0.0,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """Reference per-pair implementation of `repro.integrals.eri3c`
    (tests compare the batched driver against it; no runtime caller).

    Auxiliary shells are processed in site groups (`engine.AuxGroup`):
    the whole fitting basis acts as a handful of 'super-shells', so
    Python overhead is amortized over the full auxiliary dimension.

    With ``screen > 0`` a bra shell pair is skipped when its Schwarz
    bound ``Q_ab * max_P Q_P`` cannot reach the threshold — every
    neglected integral is individually below ``screen`` and the summed
    bound of everything skipped is accounted to the workspace
    (`IntegralWorkspace.record_screen`). ``workspace`` additionally
    serves cached pair tables, aux scaffolding and bound tables.
    """
    nb, na = basis.nbf, aux.nbf
    out = np.zeros((nb, nb, na))
    groups = _aux_groups(workspace, aux)
    Q = None
    if screen > 0.0:
        Q = _schwarz_table(basis, workspace)
        qaux = _aux_bounds(aux, workspace)
        qaux_max = float(qaux.max())
        qaux_sum = float(qaux.sum())
    nskip = 0
    npairs = 0
    neglected = 0.0
    for ish, jsh in canonical_shell_pairs(basis):
        sha = basis.shells[ish]
        shb = basis.shells[jsh]
        oa = basis.offsets[ish]
        ca = comp_arrays(sha.l)
        npairs += 1
        if Q is not None and Q[ish, jsh] * qaux_max <= screen:
            nskip += 1
            nfab = sha.nfunc * shb.nfunc * (1 if ish == jsh else 2)
            neglected += Q[ish, jsh] * qaux_sum * nfab
            continue
        ob = basis.offsets[jsh]
        cb = comp_arrays(shb.l)
        bra = _bra_pair(workspace, sha, shb, 0, 0)
        L = sha.l + shb.l
        tbox_b = (L, L, L)
        Wb = w_tensor(bra, ca, cb, tbox_b).reshape(bra.nprim, -1, (L + 1) ** 3)
        norms_ab = np.outer(sha.comp_norms, shb.comp_norms)
        for grp in groups:
            blk = _group_kernel(bra, grp, Wb, tbox_b)  # (m, X, C)
            C = blk.shape[2]
            blk = blk.reshape(-1, sha.nfunc, shb.nfunc, C)
            blk = blk * norms_ab[None, :, :, None] * grp.comp_norms[:, None, None, :]
            func_idx = grp.func_idx
            out[oa : oa + sha.nfunc, ob : ob + shb.nfunc, func_idx] = blk.transpose(
                1, 2, 0, 3
            )
            if ish != jsh:
                out[ob : ob + shb.nfunc, oa : oa + sha.nfunc, func_idx] = (
                    blk.transpose(2, 1, 0, 3)
                )
    if workspace is not None and screen > 0.0:
        workspace.record_screen("eri3c", npairs, nskip, neglected)
    return out


def eri4c(basis: BasisSet) -> np.ndarray:
    """Four-center ERIs ``(mu nu | la si)``, shape ``(nbf,)*4``.

    Exploits bra/ket pair symmetry and bra<->ket symmetry (8-fold).
    Intended for validation and for the conventional-HF baseline on
    small systems only — the RI path never calls this.
    """
    n = basis.nbf
    out = np.zeros((n, n, n, n))
    shells = basis.shells
    offs = basis.offsets
    comps = [comp_arrays(sh.l) for sh in shells]
    npairs = canonical_shell_pairs(basis)
    pds = {ij: pair_data(shells[ij[0]], shells[ij[1]]) for ij in npairs}
    for pi, (i, j) in enumerate(npairs):
        for i2, j2 in npairs[pi:]:
            blk = _eri_general(
                pds[(i, j)], pds[(i2, j2)], comps[i], comps[j], comps[i2], comps[j2]
            )
            blk = (
                blk
                * shells[i].comp_norms[:, None, None, None]
                * shells[j].comp_norms[None, :, None, None]
                * shells[i2].comp_norms[None, None, :, None]
                * shells[j2].comp_norms[None, None, None, :]
            )
            sl = (
                slice(offs[i], offs[i] + shells[i].nfunc),
                slice(offs[j], offs[j] + shells[j].nfunc),
                slice(offs[i2], offs[i2] + shells[i2].nfunc),
                slice(offs[j2], offs[j2] + shells[j2].nfunc),
            )
            out[sl[0], sl[1], sl[2], sl[3]] = blk
            out[sl[1], sl[0], sl[2], sl[3]] = blk.transpose(1, 0, 2, 3)
            out[sl[0], sl[1], sl[3], sl[2]] = blk.transpose(0, 1, 3, 2)
            out[sl[1], sl[0], sl[3], sl[2]] = blk.transpose(1, 0, 3, 2)
            out[sl[2], sl[3], sl[0], sl[1]] = blk.transpose(2, 3, 0, 1)
            out[sl[3], sl[2], sl[0], sl[1]] = blk.transpose(3, 2, 0, 1)
            out[sl[2], sl[3], sl[1], sl[0]] = blk.transpose(2, 3, 1, 0)
            out[sl[3], sl[2], sl[1], sl[0]] = blk.transpose(3, 2, 1, 0)
    return out


# --------------------------------------------------------------------------
# Contracted derivative drivers
# --------------------------------------------------------------------------

def _deriv_blocks_pairwise(bra, ket, ca, cb, cc, cd, sides):
    """First-derivative blocks of (ab|cd) for the requested sides.

    ``sides`` is a sequence drawn from {"braA", "braB", "ketC", "ketD"}.
    The bra (ket) Hermite box is enlarged by one only when a bra (ket)
    side is differentiated, so the pair data only needs headroom on the
    differentiated sides. Returns dict side -> array (3, nA, nB, nC, nD).
    """
    bx = 1 if any(s.startswith("bra") for s in sides) else 0
    kx = 1 if any(s.startswith("ket") for s in sides) else 0
    lb = (int(ca[:, 0].max() + cb[:, 0].max()) + bx,
          int(ca[:, 1].max() + cb[:, 1].max()) + bx,
          int(ca[:, 2].max() + cb[:, 2].max()) + bx)
    lk = (int(cc[:, 0].max() + cd[:, 0].max()) + kx,
          int(cc[:, 1].max() + cd[:, 1].max()) + kx,
          int(cc[:, 2].max() + cd[:, 2].max()) + kx)
    tb_idx = hermite_box(lb)
    tk_idx = hermite_box(lk)
    R = _combined_R(bra, ket, lb, lk)
    K = _kfac(bra, ket)
    phase = _phase(tk_idx)
    Wb0 = w_tensor(bra, ca, cb, lb).reshape(bra.nprim, len(ca) * len(cb), -1)
    Wk0 = w_tensor(ket, cc, cd, lk).reshape(ket.nprim, len(cc) * len(cd), -1)
    Wk0p = Wk0 * phase[None, None, :]
    out = {}
    shape = (3, len(ca), len(cb), len(cc), len(cd))
    for side in sides:
        blocks = np.empty(shape)
        for axis in range(3):
            if side == "braA":
                dW = w_deriv(bra, ca, cb, lb, "bra", axis).reshape(bra.nprim, -1, Wb0.shape[2])
                blk = _contract(dW, Wk0p, R, K, tb_idx, tk_idx)
            elif side == "braB":
                dW = w_deriv(bra, ca, cb, lb, "ket", axis).reshape(bra.nprim, -1, Wb0.shape[2])
                blk = _contract(dW, Wk0p, R, K, tb_idx, tk_idx)
            elif side == "ketC":
                dW = w_deriv(ket, cc, cd, lk, "bra", axis).reshape(ket.nprim, -1, Wk0.shape[2])
                blk = _contract(Wb0, dW * phase[None, None, :], R, K, tb_idx, tk_idx)
            elif side == "ketD":
                dW = w_deriv(ket, cc, cd, lk, "ket", axis).reshape(ket.nprim, -1, Wk0.shape[2])
                blk = _contract(Wb0, dW * phase[None, None, :], R, K, tb_idx, tk_idx)
            else:
                raise ValueError(side)
            blocks[axis] = blk.reshape(shape[1:])
        out[side] = blocks
    return out


@stack_driver
def contract_eri2c_deriv(
    auxs, zeta, natoms,
    workspace: IntegralWorkspace | None = None,
) -> list:
    """``g[f] = sum_{PQ} zeta_{f PQ} d(P|Q)/dR`` for every fragment,
    ``zeta[f] (naux, naux)``: ``(natoms, 3)`` each (``natoms`` one count
    for all, or one per fragment).

    Uses ``d/dQ = -d/dP``. The three bra-site derivative integrals of
    every (site, site) block are computed once, on the Hermite Coulomb
    tables `eri2c` left at these geometries; each fragment contracts
    its own ``zeta`` with them.
    """
    from .batch import _gather, _pieces, _w_deriv_class, site_plan

    F = len(auxs)
    natoms = [natoms] * F if np.ndim(natoms) == 0 else list(natoms)
    # every fragment's gradient, one block of rows each: a fragment's
    # rows see its own terms only, in its own order
    offs = np.cumsum([0] + natoms)
    G = np.zeros((offs[-1], 3))
    # one unit of E-table headroom for the differentiated (bra) side; the
    # ket expansions read the same tables' lower entries
    sites = site_plan(auxs, workspace, di=1).per_site()
    tabs, mine = _eri2c_tables(workspace, auxs, sites)
    for gb, sb in enumerate(sites.groups):
        L = sb.l + 1
        X = sb.C
        # the three bra-centre derivative expansions as one operand
        E = sb.E.reshape(-1, 1, *sb.E.shape[2:])
        a = sb.qk.reshape(-1, 1)
        dW = np.stack(
            [
                _w_deriv_class(E, a, np.zeros_like(a), sb.comps, _S_COMP,
                               hermite_simplex(L), "bra", axis)
                for axis in range(3)
            ],
            axis=1,
        ).reshape(a.size, 3 * X, -1)
        for gk, sk in enumerate(sites.groups):
            if (gb, gk) not in mine:
                continue
            dI = _site_pairs(tabs, gb, gk, dW, sb, sk, L, 3 * X)
            dI = dI.reshape(-1, 3, X * sk.C)
            for piece in _pieces(mine[gb, gk], 5 * X * sk.C):
                pos, zg, same, bra, ket = [], [], [], [], []
                for f, fb, fk, at in piece:
                    d, _, s = _metric_map(auxs[f], sb, sk, fb, fk)
                    pos.append(at.ravel())
                    zg.append(zeta[f].reshape(-1)[d])
                    same.append(s)
                    bra.append(offs[f] + np.repeat(fb.atoms, sb.m))
                    ket.append(offs[f] + np.repeat(fk.atoms, sk.m))
                # gathered coefficients; same-atom pairs: the derivative
                # vanishes by invariance
                zg = np.concatenate(zg)
                zg[np.concatenate(same)] = 0.0
                vals = bgemm(_gather(dI, pos), zg[:, :, None])[..., 0]
                lo, on_b, on_k = 0, [], []
                for (*_, at), atoms_b in zip(piece, bra):
                    n, m = at.shape
                    v = vals[lo:lo + n * m].reshape(n, m, 3)
                    lo += n * m
                    on_b.append(v.sum(axis=1))
                    on_k.append(v.sum(axis=0))
                np.add.at(G, np.concatenate(bra), np.concatenate(on_b))
                np.subtract.at(G, np.concatenate(ket), np.concatenate(on_k))
    return [G[lo:hi] for lo, hi in zip(offs[:-1], offs[1:])]


def _zblk_table(basis: BasisSet, Z: np.ndarray) -> np.ndarray:
    """Per-shell-block coefficient magnitudes ``Zblk[..., i, j] = max
    |Z|`` over the (i, j) function block (all aux); ``Z (..., nbf, nbf,
    naux)`` may lead with a stack axis. Shared with the loop reference
    so screening decisions agree exactly (a max is exact in any
    order)."""
    offs = np.asarray(basis.offsets)
    Zabs = np.maximum(Z.max(axis=-1), -Z.min(axis=-1))
    Zabs = np.maximum.reduceat(Zabs, offs, axis=-2)
    return np.maximum.reduceat(Zabs, offs, axis=-1)


def contract_eri3c_deriv_loop(
    basis: BasisSet, aux: BasisSet, Z: np.ndarray, natoms: int,
    screen: float = 0.0,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """Reference per-pair ``sum Z d(mu nu|P)/dR`` driver (tests compare
    `repro.integrals.contract_eri3c_deriv` against it; no runtime caller).

    ``Z`` has shape ``(nbf, nbf, naux)`` and need not be symmetric in
    (mu, nu). Auxiliary-center derivatives follow from translational
    invariance (``dP = -(dA + dB)``); auxiliary shells are processed in
    site groups.

    With ``screen > 0`` a bra shell pair is skipped when ``DERIV_SAFETY *
    Q_ab * max_P Q_P * max |Z|`` over the pair's coefficient slice cannot
    reach the threshold. Skipping drops the pair's bra derivatives
    together with their translational-invariance images on the auxiliary
    centers, so the screened gradient still sums exactly to zero over all
    atoms. The summed bound of everything skipped is accounted to the
    workspace.
    """
    g = np.zeros((natoms, 3))
    groups = _aux_groups(workspace, aux)
    group_idx = [grp.func_idx for grp in groups]
    # (mu nu|P) is symmetric in (mu, nu): only the symmetric part of Z
    # contributes, and shell pairs can be restricted to ish <= jsh.
    Z = 0.5 * (Z + Z.transpose(1, 0, 2))
    Q = None
    if screen > 0.0:
        Q = _schwarz_table(basis, workspace)
        qaux = _aux_bounds(aux, workspace)
        qaux_max = float(qaux.max())
        qaux_sum = float(qaux.sum())
        Zblk = _zblk_table(basis, Z)
    nskip = 0
    npairs = 0
    neglected = 0.0
    for ish, jsh in canonical_shell_pairs(basis):
        sha = basis.shells[ish]
        shb = basis.shells[jsh]
        oa = basis.offsets[ish]
        ca = comp_arrays(sha.l)
        pair_fac = 1.0 if ish == jsh else 2.0
        npairs += 1
        if Q is not None and (
            DERIV_SAFETY * Q[ish, jsh] * qaux_max * Zblk[ish, jsh]
            <= screen
        ):
            nskip += 1
            neglected += (
                DERIV_SAFETY * Q[ish, jsh] * Zblk[ish, jsh] * qaux_sum
                * sha.nfunc * shb.nfunc * pair_fac
            )
            continue
        ob = basis.offsets[jsh]
        cb = comp_arrays(shb.l)
        bra = _bra_pair(workspace, sha, shb, 1, 1)
        L = sha.l + shb.l + 1
        tbox_b = (L, L, L)
        tb_idx = hermite_box(tbox_b)
        norms_ab = np.outer(sha.comp_norms, shb.comp_norms).ravel()
        dWb = {}
        for axis in range(3):
            dWb[("bra", axis)] = w_deriv(bra, ca, cb, tbox_b, "bra", axis).reshape(
                bra.nprim, -1, tb_idx.shape[0]
            )
            dWb[("ket", axis)] = w_deriv(bra, ca, cb, tbox_b, "ket", axis).reshape(
                bra.nprim, -1, tb_idx.shape[0]
            )
        for grp, fi in zip(groups, group_idx):
            C = fi.shape[1]
            m = grp.pd.nprim
            # coefficients for this (bra pair, group): (m, X, C)
            zg = Z[oa : oa + sha.nfunc, ob : ob + shb.nfunc, fi]
            zg = zg.reshape(-1, m, C).transpose(1, 0, 2) * norms_ab[None, :, None]
            zg = zg * (pair_fac * grp.comp_norms)[:, None, :]
            M2, Wk = _group_M(bra, grp, tbox_b)
            for axis in range(3):
                dA_blk = _group_apply(M2, Wk, dWb[("bra", axis)])
                dB_blk = _group_apply(M2, Wk, dWb[("ket", axis)])
                vA = np.einsum("mxc,mxc->m", dA_blk, zg)
                vB = np.einsum("mxc,mxc->m", dB_blk, zg)
                g[sha.atom, axis] += vA.sum()
                g[shb.atom, axis] += vB.sum()
                np.subtract.at(g[:, axis], grp.atoms, vA + vB)
    if workspace is not None and screen > 0.0:
        workspace.record_screen("eri3c_deriv", npairs, nskip, neglected)
    return g


def schwarz_pair_bounds_loop(
    basis: BasisSet, workspace: IntegralWorkspace | None = None
) -> np.ndarray:
    """Reference per-pair Schwarz bound driver: builds each full
    ``(ab|ab)`` block and takes its diagonal (tests only)."""
    nsh = basis.nshells
    Q = np.zeros((nsh, nsh))
    for i, j in canonical_shell_pairs(basis):
        sha = basis.shells[i]
        shb = basis.shells[j]
        ca = comp_arrays(sha.l)
        cb = comp_arrays(shb.l)
        pd = _bra_pair(workspace, sha, shb, 0, 0)
        blk = _eri_general(pd, pd, ca, cb, ca, cb)
        na, nb = len(ca), len(cb)
        diag = np.abs(
            blk.reshape(na * nb, na * nb)[np.diag_indices(na * nb)]
        )
        Q[i, j] = Q[j, i] = float(np.sqrt(diag.max()))
    return Q


def aux_function_bounds(aux: BasisSet) -> np.ndarray:
    """Cauchy-Schwarz bounds ``Q_P = sqrt((P|P))`` per auxiliary function.

    Shape ``(naux,)``. ``(P|P)`` is translation invariant, so identical
    shells (same momentum, exponents, coefficients — the common case for
    even-tempered fitting bases) share one evaluation.
    """
    q = np.empty(aux.nbf)
    memo: dict[tuple, np.ndarray] = {}
    for i, sh in enumerate(aux.shells):
        key = (sh.l, sh.exps.tobytes(), sh.coefs.tobytes())
        vals = memo.get(key)
        if vals is None:
            sd = single_data(sh)
            comps = comp_arrays(sh.l)
            blk = _eri_general(sd, sd, comps, _S_COMP, comps, _S_COMP)
            diag = np.abs(np.diagonal(blk[:, 0, :, 0])) * sh.comp_norms**2
            vals = np.sqrt(diag)
            memo[key] = vals
        off = aux.offsets[i]
        q[off : off + sh.nfunc] = vals
    return q


def contract_eri4c_deriv_hf(
    basis: BasisSet, D: np.ndarray, natoms: int, screen: float = 1.0e-11,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """Two-electron part of the conventional RHF gradient.

    ``g = 1/2 sum_{mnls} (mn|ls)^xi [D_mn D_ls - 1/2 D_ms D_nl]`` with D
    the (doubly occupied) AO density. The ordered sum is folded onto
    canonical shell quartets (i<=j, (ij)<=(kl)) by accumulating the
    permutation images into one coefficient tensor,

        Gamma_tot = 8 D_mn D_ls - 2 (D_ms D_nl + D_ml D_ns),

    weighted by the quartet's degeneracy/8. The fourth center's
    derivative follows from translational invariance. This is the
    four-center bottleneck RI-HF eliminates (paper Fig. 3).

    ``workspace`` serves the Schwarz bound and per-shell-block ``Dmax``
    tables (recomputed from scratch on every call otherwise) plus the
    pair expansion tables. With ``screen <= 0`` (exact mode) the strict
    ``< screen`` test can never skip a quartet, so neither table is
    built at all — ``--int-screen 0`` no longer pays for (or caches)
    Schwarz bounds it cannot use.
    """
    from .workspace import _dmax_table

    g = np.zeros((natoms, 3))
    shells = basis.shells
    offs = basis.offsets
    comps = [comp_arrays(sh.l) for sh in shells]
    npairs = canonical_shell_pairs(basis)
    pds = {
        ij: _bra_pair(workspace, shells[ij[0]], shells[ij[1]], 1, 1)
        for ij in npairs
    }
    if screen > 0.0:
        Q = _schwarz_table(basis, workspace)
        if workspace is not None:
            Dmax = workspace.dmax_blocks(basis, D)
        else:
            Dmax = _dmax_table(basis, D)
    else:
        Q = None
        Dmax = None
    safety = DERIV_SAFETY
    nskip = 0
    nquartets = 0
    neglected = 0.0
    for pi, (i, j) in enumerate(npairs):
        si = slice(offs[i], offs[i] + shells[i].nfunc)
        sj = slice(offs[j], offs[j] + shells[j].nfunc)
        for k, l in npairs[pi:]:
            atoms = (shells[i].atom, shells[j].atom, shells[k].atom, shells[l].atom)
            if atoms[0] == atoms[1] == atoms[2] == atoms[3]:
                continue
            nquartets += 1
            if Q is not None:
                gbound = 8.0 * max(
                    Dmax[i, j] * Dmax[k, l],
                    Dmax[i, l] * Dmax[j, k],
                    Dmax[i, k] * Dmax[j, l],
                )
                if safety * Q[i, j] * Q[k, l] * gbound < screen:
                    nskip += 1
                    neglected += (
                        safety * Q[i, j] * Q[k, l] * gbound
                        * shells[i].nfunc * shells[j].nfunc
                        * shells[k].nfunc * shells[l].nfunc
                    )
                    continue
            sk = slice(offs[k], offs[k] + shells[k].nfunc)
            sl_ = slice(offs[l], offs[l] + shells[l].nfunc)
            deg = (
                (2.0 if i != j else 1.0)
                * (2.0 if k != l else 1.0)
                * (2.0 if (i, j) != (k, l) else 1.0)
            )
            w = 0.5 * deg / 8.0
            gamma = w * (
                8.0 * np.einsum("ab,cd->abcd", D[si, sj], D[sk, sl_])
                - 2.0 * np.einsum("ad,bc->abcd", D[si, sl_], D[sj, sk])
                - 2.0 * np.einsum("ac,bd->abcd", D[si, sk], D[sj, sl_])
            )
            gamma = (
                gamma
                * shells[i].comp_norms[:, None, None, None]
                * shells[j].comp_norms[None, :, None, None]
                * shells[k].comp_norms[None, None, :, None]
                * shells[l].comp_norms[None, None, None, :]
            )
            d = _deriv_blocks_pairwise(
                pds[(i, j)], pds[(k, l)], comps[i], comps[j], comps[k], comps[l],
                ("braA", "braB", "ketC"),
            )
            vA = np.einsum("xabcd,abcd->x", d["braA"], gamma)
            vB = np.einsum("xabcd,abcd->x", d["braB"], gamma)
            vC = np.einsum("xabcd,abcd->x", d["ketC"], gamma)
            g[atoms[0]] += vA
            g[atoms[1]] += vB
            g[atoms[2]] += vC
            g[atoms[3]] -= vA + vB + vC
    if workspace is not None:
        workspace.record_screen("eri4c_deriv", nquartets, nskip, neglected)
    return g
