"""Electron-repulsion integrals: two-, three- and four-center classes.

Every class runs on the shell-class kernels of `batch.py`: a shell pair
class (`batch.PairPlan`) or an auxiliary site group (`batch.SitePlan`)
is the bra, a Hermite Gaussian is the ket — an auxiliary site, a site of
the metric, or the pair class of a four-centre block at its pair centre
— and a block is two stacked GEMMs through its Hermite Coulomb kernel
(`batch._build_tables`, `engine.r_tables_simplex` on the Hermite
simplex). Derivative drivers contract coefficient tensors against
integral first derivatives on the fly, exactly as the paper's gradient
is organized (coefficients first, derivatives never stored); each
differentiates bra centres only (`batch._w_deriv_stack`) and takes the
rest from translational invariance or from the swapped block.

Screening and reuse (paper Sec. V: every bottleneck reduces to
*screened*, dense contractions): the three- and four-centre drivers
accept a Cauchy-Schwarz ``screen`` threshold — a bra shell pair is
skipped when its bound (times the local coefficient or density
magnitude, for the derivative drivers) cannot exceed it — plus an
optional `IntegralWorkspace` that serves the evaluation's pair plan,
auxiliary site groups and bound tables. Every screened driver
accumulates the summed bound of what it skipped, so callers get a
rigorous estimate of the neglected contribution. Like every driver,
each runs in a scope of its workspace (`engine.in_scope`; None is the
process workspace).

The three-centre and Schwarz drivers live in `batch.py`; the
two-centre metric, the auxiliary bounds and the four-centre drivers of
the conventional-HF baseline live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..basis.basisset import BasisSet
    from .workspace import IntegralWorkspace
from ..gemm import bgemm
from .engine import (
    comp_arrays,
    hermite_simplex,
    in_scope,
    stack_driver,
)

_TWO_PI_52 = 2.0 * np.pi**2.5

#: derivative integrals grow like ``2 alpha x extent`` relative to the
#: plain Schwarz bound; screening decisions on derivative drivers absorb
#: that in a conservative prefactor
DERIV_SAFETY = 50.0


def _phase(tk_idx: np.ndarray) -> np.ndarray:
    return (-1.0) ** tk_idx.sum(axis=1)


_S_COMP = comp_arrays(0)


def _eri2c_tables(workspace, auxs, sites):
    """The `CoulombTables` of every ordered (bra group, ket group) pair
    of the metric, over the (site, site) blocks some fragment holds: the
    bra is the site group as one-primitive "pairs", the ket its sites
    one at a time. Returns the set and the call's `_MetricLayout`,
    the plan of the fitting bases' compositions."""
    from .batch import _site_bras

    layout = workspace.plan("eri2c", workspace.stack(auxs).key,
                            lambda: _metric_layout(auxs, sites))
    tabs = workspace.coulomb_tables("eri2c", (auxs,), None, _site_bras(sites),
                                    _site_kets(sites), layout.blocks)
    return tabs, layout


def _site_kets(sites):
    """The site groups' sites one at a time, as the metric's ket side."""
    return [dict(qk=grp.qk.reshape(-1, 1), Pk=grp.Pk.reshape(-1, 1, 3),
                 l=grp.l) for grp in sites.groups]


def _site_rows(grp):
    """A site group as the metric's bra rows ``(sites, C, Tk)``: the 3c
    kernel with a one-primitive "pair" per bra site, whose expansion is
    the ket one with the +-1 phase taken back."""
    return (grp.Wk * _phase(hermite_simplex(grp.l))).reshape(-1, grp.C,
                                                             grp.Tk)


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


@dataclass
class _SitePairs:
    """The (site, site) blocks of one pair of groups the call's
    fragments hold, one per (fragment, bra site, ket site) in that
    order: the block's position among the pair's blocks (``pos``),
    whether its two sites are on one atom (``same``) and its bra and
    ket site *slots* — a (fragment, site) — whose fragment, own atom
    and function indices are the slots' arrays. Where a block's ``(C_b,
    C_k)`` elements land in the call's flat metric: ``b_row[bslot] +
    k_col[kslot]`` for ``(P|Q)``, ``k_row[kslot] + b_col[bslot]`` for
    ``(Q|P)`` (``row = offset + function * naux``)."""

    pos: np.ndarray
    same: np.ndarray
    bslot: np.ndarray
    kslot: np.ndarray
    b_frag: np.ndarray
    b_atom: np.ndarray
    b_row: np.ndarray
    b_col: np.ndarray
    k_frag: np.ndarray
    k_atom: np.ndarray
    k_row: np.ndarray
    k_col: np.ndarray

    def positions(self, image: bool = False) -> np.ndarray:
        """Where the blocks' ``(n, C_b, C_k)`` elements land: ``(P|Q)``,
        or its ``(Q|P)`` image."""
        if image:
            return (self.k_row[self.kslot][:, None, :]
                    + self.b_col[self.bslot][:, :, None])
        return (self.b_row[self.bslot][:, :, None]
                + self.k_col[self.kslot][:, None, :])


@dataclass
class _MetricLayout:
    """The metric's plan of a call: the flat offset of every fragment's
    ``(naux, naux)`` matrix, and per ordered pair of (merged) site
    groups its sorted block codes and `_SitePairs`. Geometry-free."""

    offs: np.ndarray
    blocks: dict
    pairs: dict


def _metric_layout(auxs, sites) -> _MetricLayout:
    """The `_MetricLayout` of a call's fitting bases (``sites`` their
    per-site `batch.SitePlan`)."""
    from .batch import _flat_offsets, _pairs_of_sites

    blocks, mine = _pairs_of_sites(sites)
    offs, _ = _flat_offsets([(aux.nbf, aux.nbf) for aux in auxs])
    pairs = {}
    for (gb, gk), held in mine.items():
        Cb, Ck = sites.groups[gb].C, sites.groups[gk].C
        parts, nb, nk = [], 0, 0
        for f, fb, fk, at in held:
            n_b, n_k = at.shape
            naux = auxs[f].nbf
            fi_b = fb.func_idx.reshape(-1, Cb)
            fi_k = fk.func_idx.reshape(-1, Ck)
            atoms_b = np.repeat(fb.atoms, sites.groups[gb].m)
            atoms_k = np.repeat(fk.atoms, sites.groups[gk].m)
            parts.append((
                at.ravel().astype(np.int32),
                (atoms_b[:, None] == atoms_k[None, :]).ravel(),
                (nb + np.repeat(np.arange(n_b), n_k)).astype(np.int32),
                (nk + np.tile(np.arange(n_k), n_b)).astype(np.int32),
                np.full(n_b, f), atoms_b, offs[f] + fi_b * naux, fi_b,
                np.full(n_k, f), atoms_k, offs[f] + fi_k * naux, fi_k,
            ))
            nb, nk = nb + n_b, nk + n_k
        pairs[gb, gk] = _SitePairs(*(np.concatenate(x) for x in zip(*parts)))
    return _MetricLayout(offs, blocks, pairs)


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
    from .batch import flat_zeros

    sites = workspace.site_plan(auxs).per_site()
    tabs, layout = _eri2c_tables(workspace, auxs, sites)
    flat, J, _ = flat_zeros([(aux.nbf, aux.nbf) for aux in auxs])
    computed = sum(sites.groups[gb].C * sites.groups[gk].C * codes.size
                   for (gb, gk), codes in tabs.blocks.items())
    for gb, sb in enumerate(sites.groups):
        Wb = _site_rows(sb)
        for gk in range(gb, len(sites.groups)):
            held = layout.pairs.get((gb, gk))
            if held is None:
                continue
            sk = sites.groups[gk]
            vals = _site_pairs(tabs, gb, gk, Wb, sb, sk, sb.l, sb.C)[held.pos]
            # the (Q|P) image last: on a diagonal block it is what stays
            flat[held.positions()] = vals
            flat[held.positions(image=True)] = vals
    workspace.record_blocks("2c", sum(aux.nbf ** 2 for aux in auxs), computed)
    return J


# --------------------------------------------------------------------------
# Contracted derivative drivers
# --------------------------------------------------------------------------

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
    tables `eri2c` left at these geometries and the bra expansions the
    site plan holds; each fragment contracts its own ``zeta`` with them.
    """
    from .batch import _chunks, _sums_in_order, flat_of

    F = len(auxs)
    natoms = [natoms] * F if np.ndim(natoms) == 0 else list(natoms)
    # every fragment's gradient, one block of rows each: a fragment's
    # rows see its own terms only, in its own order
    offs = np.cumsum([0] + natoms)
    G = np.zeros((offs[-1], 3))
    # one unit of E-table headroom for the differentiated (bra) side; the
    # ket expansions read the same tables' lower entries
    sites = workspace.site_plan(auxs, di=1).per_site()
    tabs, layout = _eri2c_tables(workspace, auxs, sites)
    zeta = flat_of(zeta)
    for gb, (sb, dW) in enumerate(zip(sites.groups, sites.bra_derivs)):
        L = sb.l + 1
        X = sb.C
        for gk, sk in enumerate(sites.groups):
            held = layout.pairs.get((gb, gk))
            if held is None:
                continue
            dI = _site_pairs(tabs, gb, gk, dW, sb, sk, L, 3 * X)
            dI = dI.reshape(-1, 3, X * sk.C)
            # every fragment's coefficients at once; same-atom pairs:
            # the derivative vanishes by invariance
            zg = zeta[held.positions()].reshape(held.pos.size, -1)
            zg[held.same] = 0.0
            vals = np.empty((held.pos.size, 3))
            for sl in _chunks(held.pos.size, 5 * X * sk.C):
                vals[sl] = bgemm(dI[held.pos[sl]], zg[sl, :, None])[..., 0]
            # each bra site's sum over its ket sites, each ket site's
            # over its bra sites, in the fragment's order
            np.add.at(G, offs[held.b_frag] + held.b_atom,
                      _sums_in_order(vals, held.bslot, held.b_frag.size))
            np.subtract.at(G, offs[held.k_frag] + held.k_atom,
                           _sums_in_order(vals, held.kslot, held.k_frag.size))
    return [G[lo:hi] for lo, hi in zip(offs[:-1], offs[1:])]


def _zblk_table(basis: BasisSet, Z: np.ndarray) -> np.ndarray:
    """Per-shell-block coefficient magnitudes ``Zblk[..., i, j] = max
    |Z|`` over the (i, j) function block (all aux); ``Z (..., nbf, nbf,
    naux)`` may lead with a stack axis (a max is exact in any order).
    ``Z[..., None]`` of a density is its per-shell-block ``Dmax``."""
    offs = np.asarray(basis.offsets)
    Zabs = np.maximum(Z.max(axis=-1), -Z.min(axis=-1))
    Zabs = np.maximum.reduceat(Zabs, offs, axis=-2)
    return np.maximum.reduceat(Zabs, offs, axis=-1)




def aux_function_bounds(aux: BasisSet, budget: int) -> np.ndarray:
    """Cauchy-Schwarz bounds ``Q_P = sqrt((P|P))`` per auxiliary function.

    Shape ``(naux,)``: the diagonal of every site's ``(site|site)``
    block of the metric, on `eri2c`'s site kernels (one block a site,
    tables within ``budget`` bytes, nothing shared with an evaluation:
    ``(P|P)`` is translation invariant, so the workspace caches the
    bounds on composition — `IntegralWorkspace.aux_function_bounds`,
    the one caller).
    """
    from .batch import CoulombTables, _build_site_plan, _site_bras
    from .workspace import stack_centres

    sites = _build_site_plan([aux], 0).placed(stack_centres([aux])).per_site()
    bras, kets = _site_bras(sites), _site_kets(sites)
    q = np.empty(aux.nbf)
    for g, (grp, fs) in enumerate(zip(sites.groups, sites.frags[0])):
        own = np.sort(fs.ids)
        tabs = CoulombTables(bras, kets, {(g, g): own * grp.qk.size + own},
                             budget)
        blk = _site_pairs(tabs, g, g, _site_rows(grp), grp, grp, grp.l,
                          grp.C)
        at = fs.func_idx.reshape(-1, grp.C)[np.argsort(fs.ids)]
        q[at] = np.sqrt(np.abs(np.diagonal(blk, axis1=1, axis2=2)))
    return q


# --------------------------------------------------------------------------
# Four-centre integrals: the conventional-HF baseline (paper Fig. 3)
# --------------------------------------------------------------------------

#: Schwarz x Dmax threshold of the four-centre gradient: the default of
#: `contract_eri4c_deriv_hf`, `scf.grad.rhf_gradient_conventional` and
#: `calculators.ConventionalHFCalculator` (``0.0`` is exact and builds
#: no bound table)
ERI4C_SCREEN = 1.0e-11


def _quartets(rows):
    """The canonical pairs of pairs of ``rows`` — ``(class, FragPairs)``
    of the one basis of a pair plan, which holds every class of it: for
    every class pair ``i <= j`` (class order), the pair rows ``(rb,
    rk)`` of its blocks — ``rb <= rk`` when the two classes are one — so
    each unordered pair of shell pairs is one block."""
    for i, (clb, fpb) in enumerate(rows):
        for j in range(i, len(rows)):
            clk, fpk = rows[j]
            if i == j:
                rb, rk = np.triu_indices(fpb.npair)
            else:
                rb, rk = np.divmod(np.arange(fpb.npair * fpk.npair),
                                   fpk.npair)
            yield i, j, rb, rk


def _ket_expansion(cls) -> np.ndarray:
    """A shell class as a four-centre ket: its component expansion on
    the simplex ``la + lb`` with the Hermite phase ``(-1)^(t+u+v)``
    folded in, ``(Q, nfa*nfb, T*N)`` (Hermite row major: the column
    order of `batch._kernel`)."""
    from .batch import _w_class

    tuv = hermite_simplex(cls.la + cls.lb)
    W = _w_class(cls.E, comp_arrays(cls.la), comp_arrays(cls.lb), tuv)
    W = (W * _phase(tuv)).transpose(0, 1, 2, 4, 3)
    return np.ascontiguousarray(W).reshape(cls.npair, cls.nfa * cls.nfb, -1)


def _pair_tables(order, clb, pb, clk, pk) -> np.ndarray:
    """The Hermite Coulomb tables ``(q, Nb, nsimplex(order), Nk)`` of
    the blocks (bra pairs ``pb`` of class ``clb``, ket pairs ``pk`` of
    ``clk``): the ket pair's primitives are Hermite Gaussians at their
    centres, ``2 pi^{5/2} cc cc' / (p q sqrt(p + q))`` folded in."""
    from .batch import _build_tables, _ket_inputs

    def inputs():
        ket = dict(qk=clk.p[pk][:, None, :], cck=clk.cc[pk][:, None, :],
                   Pk=clk.P[pk][:, None])
        return _ket_inputs(clb.p[pb], clb.cc[pb], clb.P[pb], ket)

    return _build_tables([(order, inputs)])[0]


def _functions(cls, fp, rows):
    """Function indices ``(q, nfa)``, ``(q, nfb)`` of pair rows."""
    from .batch import _block_indices

    return _block_indices(fp.oa[rows], cls.nfa, fp.ob[rows], cls.nfb)


@in_scope
def eri4c(basis: BasisSet,
          workspace: IntegralWorkspace | None = None) -> np.ndarray:
    """Four-center ERIs ``(mu nu | la si)``, shape ``(nbf,)*4``.

    A block is a canonical pair of canonical shell pairs, so the 8-fold
    symmetry leaves each integral computed once: the bra pair's
    expansion through the block's Hermite Coulomb kernel (tables at
    order ``la + lb + lc + ld``), then the ket pair's expansion, one
    stacked GEMM each. For the conventional-HF baseline on small
    systems only — the RI path never calls this. ``workspace`` serves
    the pair plan.
    """
    from .batch import _chunks, _kernel, _w_class, simplex_sum_index

    n = basis.nbf
    out = np.zeros((n, n, n, n))
    plan = workspace.pair_plan([basis])
    rows = list(zip(plan.classes, plan.frags[0]))
    bras = [_w_class(cls.E, comp_arrays(cls.la), comp_arrays(cls.lb),
                     hermite_simplex(cls.la + cls.lb))
            .reshape(cls.npair, cls.nfa * cls.nfb, -1) for cls, _ in rows]
    kets = [_ket_expansion(cls) for cls, _ in rows]
    for i, j, rb, rk in _quartets(rows):
        (clb, fpb), (clk, fpk) = rows[i], rows[j]
        Lb, Lk = clb.la + clb.lb, clk.la + clk.lb
        idx = simplex_sum_index(Lb, Lk)
        norms = np.multiply.outer(clb.norms, clk.norms)
        fa, fb = _functions(clb, fpb, rb)
        fc, fd = _functions(clk, fpk, rk)
        per_block = clb.nprim * idx.size * clk.nprim
        for sl in _chunks(rb.size, per_block):
            pb, pk = fpb.at[rb[sl]], fpk.at[rk[sl]]
            M2 = _kernel(_pair_tables(Lb + Lk, clb, pb, clk, pk), idx)
            blk = bgemm(bgemm(bras[i][pb], M2), kets[j][pk].transpose(0, 2, 1))
            blk = blk.reshape(-1, *norms.shape) * norms
            a, b = fa[sl][:, :, None, None, None], fb[sl][:, None, :, None, None]
            c, d = fc[sl][:, None, None, :, None], fd[sl][:, None, None, None, :]
            for at in ((a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                       (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a)):
                out[at] = blk
    return out


def _block_bounds(Q, Dmax, fpb, rb, fpk, rk) -> np.ndarray:
    """Each block's bound on any element of its derivative contribution
    (both orders), ``DERIV_SAFETY Q_ij Q_kl 8 max(Dmax_ij Dmax_kl,
    Dmax_il Dmax_jk, Dmax_ik Dmax_jl)``: the Schwarz bound of its
    integrals times the largest density product its coefficients
    meet."""
    i, j, k, l = fpb.ish[rb], fpb.jsh[rb], fpk.ish[rk], fpk.jsh[rk]
    g = 8.0 * np.maximum(np.maximum(Dmax[i, j] * Dmax[k, l],
                                    Dmax[i, l] * Dmax[j, k]),
                         Dmax[i, k] * Dmax[j, l])
    return DERIV_SAFETY * Q[i, j] * Q[k, l] * g


def _gamma(D, clb, fpb, rb, clk, fpk, rk) -> np.ndarray:
    """The HF density coefficients of blocks, ``(q, nfa*nfb, nfc*nfd)``:
    ``w Gamma`` with ``Gamma_{ab,cd} = 8 D_ab D_cd - 2 (D_ad D_bc + D_ac
    D_bd)``, normalized, and ``w = 1/2``, halved again for each pair of
    a shell with itself (its images are its own functions)."""
    a, b = _functions(clb, fpb, rb)
    c, d = _functions(clk, fpk, rk)

    def Dg(x, y):
        return D[x[:, :, None], y[:, None, :]]

    G = 8.0 * Dg(a, b)[:, :, :, None, None] * Dg(c, d)[:, None, None]
    G -= 2.0 * Dg(a, d)[:, :, None, None, :] * Dg(b, c)[:, None, :, :, None]
    G -= 2.0 * Dg(a, c)[:, :, None, :, None] * Dg(b, d)[:, None, :, None, :]
    w = 0.5 * np.where(fpb.diag[rb], 0.5, 1.0) * np.where(fpk.diag[rk], 0.5, 1.0)
    G *= np.multiply.outer(clb.norms, clk.norms) * w[:, None, None, None, None]
    return G.reshape(rb.size, clb.nfa * clb.nfb, clk.nfa * clk.nfb)


def _bra_derivs(M2, dW, G, ket) -> np.ndarray:
    """``(q, 6)``: the bra-centre derivatives (``A`` x, y, z, then ``B``)
    of each block contracted with its coefficients ``G (q, X, Y)`` — the
    coefficients through the ket expansion ``(q, Y, J)`` and the kernel
    ``M2 (q, K, J)`` first, then the derivative expansion ``dW (q, 6, X,
    K)``: three stacked GEMMs."""
    U = bgemm(M2, bgemm(G, ket).transpose(0, 2, 1))
    q = U.shape[0]
    return bgemm(dW.reshape(q, 6, -1),
                 U.transpose(0, 2, 1).reshape(q, -1, 1))[..., 0]


@in_scope
def contract_eri4c_deriv_hf(
    basis: BasisSet, D: np.ndarray, natoms: int,
    screen: float = ERI4C_SCREEN,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """Two-electron part of the conventional RHF gradient.

    ``g = 1/2 sum_{mnls} (mn|ls)^xi [D_mn D_ls - 1/2 D_ms D_nl]`` with D
    the (doubly occupied) AO density. Over ordered pairs of canonical
    shell pairs the sum is the bra-centre derivatives alone: the ket
    derivative of a block is the bra derivative of the swapped block,
    which the order also visits. A block's permutation images fold into
    one coefficient tensor (`_gamma`), and every canonical block's one
    Hermite Coulomb table (order ``la + lb + lc + ld + 1``) serves both
    its orders, the swapped one through the ``(-1)^(t+u+v)`` phase.
    Blocks on one atom are skipped (their derivatives cancel). This is
    the four-center bottleneck RI-HF eliminates (paper Fig. 3).

    With ``screen > 0`` a block whose Schwarz x Dmax bound
    (`_block_bounds`) falls below it is dropped whole, both orders, so
    the gradient still sums to zero over the atoms; the blocks kept are
    the rows of the stacked GEMMs, so the screen costs no batching. The
    workspace records the blocks (those not on one atom), the dropped
    ones and their summed bound, ``bound nf_i nf_j nf_k nf_l`` a block,
    as one exactly rounded sum. With ``screen <= 0`` no bound table is
    built. ``workspace`` serves the pair plan, the classes' derivative
    expansions and the Schwarz table of the evaluation's scratch.
    """
    from .batch import _chunks, _deriv_expansions, _kernel, simplex_sum_index

    g = np.zeros((natoms, 3))
    plan = workspace.pair_plan([basis])
    rows = list(zip(plan.classes, plan.frags[0]))
    dWs = _deriv_expansions(plan.classes, workspace)
    kets = [_ket_expansion(cls) for cls, _ in rows]
    if screen > 0.0:
        Q = workspace.schwarz_bounds_stack([basis])[0]
        Dmax = _zblk_table(basis, D[..., None])
    nblocks, dropped = 0, []
    for i, j, rb, rk in _quartets(rows):
        (clb, fpb), (clk, fpk) = rows[i], rows[j]
        live = ~((fpb.atom_a[rb] == fpb.atom_b[rb])
                 & (fpk.atom_a[rk] == fpk.atom_b[rk])
                 & (fpb.atom_a[rb] == fpk.atom_a[rk]))
        nblocks += int(live.sum())
        if screen > 0.0:
            bound = _block_bounds(Q, Dmax, fpb, rb, fpk, rk)
            drop = live & (bound < screen)
            dropped.append(bound[drop] * (clb.nfa * clb.nfb * clk.nfa * clk.nfb))
            live &= ~drop
        live = np.flatnonzero(live)
        if not live.size:
            continue
        rb, rk = rb[live], rk[live]
        rev = (i != j) | (rb != rk)
        Lb, Lk = clb.la + clb.lb, clk.la + clk.lb
        order = Lb + Lk + 1
        phase = _phase(hermite_simplex(order))[None, None, :, None]
        idx_f = simplex_sum_index(Lb + 1, Lk, order)
        idx_r = simplex_sum_index(Lk + 1, Lb, order)
        vf = np.zeros((rb.size, 6))
        vr = np.zeros((rb.size, 6))
        # largest per-block intermediate: a direction's kernel
        per_block = clb.nprim * clk.nprim * max(idx_f.size, idx_r.size)
        for sl in _chunks(rb.size, per_block):
            pb, pk = fpb.at[rb[sl]], fpk.at[rk[sl]]
            R = _pair_tables(order, clb, pb, clk, pk)
            G = _gamma(D, clb, fpb, rb[sl], clk, fpk, rk[sl])
            vf[sl] = _bra_derivs(_kernel(R, idx_f), dWs[i][pb], G, kets[j][pk])
            r = np.flatnonzero(rev[sl])
            if r.size:
                Rr = (R[r] * phase).transpose(0, 3, 2, 1)
                vr[sl][r] = _bra_derivs(_kernel(Rr, idx_r), dWs[j][pk[r]],
                                        G[r].transpose(0, 2, 1),
                                        kets[i][pb[r]])
        for fp, rows_, v in ((fpb, rb, vf), (fpk, rk, vr)):
            np.add.at(g, fp.atom_a[rows_], v[:, :3])
            np.add.at(g, fp.atom_b[rows_], v[:, 3:])
    lost = np.concatenate(dropped) if dropped else np.zeros(0)
    workspace.record_screen("eri4c_deriv", nblocks, lost.size, math.fsum(lost))
    return g
