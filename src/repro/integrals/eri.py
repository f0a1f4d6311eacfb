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
rigorous estimate of the neglected contribution.

The three-centre and Schwarz drivers live in `batch.py`; the
two-centre metric, the auxiliary bounds and the four-centre drivers of
the conventional-HF baseline live here.
"""

from __future__ import annotations

import math

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..basis.basisset import BasisSet
    from .workspace import IntegralWorkspace
from ..gemm import bgemm
from .engine import (
    AuxGroup,
    aux_group_data,
    comp_arrays,
    hermite_simplex,
    stack_driver,
)

_TWO_PI_52 = 2.0 * np.pi**2.5

#: derivative integrals grow like ``2 alpha x extent`` relative to the
#: plain Schwarz bound; screening decisions on derivative drivers absorb
#: that in a conservative prefactor
DERIV_SAFETY = 50.0


def _aux_groups(workspace, aux, di: int = 0) -> list[AuxGroup]:
    if workspace is not None:
        return workspace.aux_groups(aux, di=di)
    return aux_group_data(aux, di=di)


def _schwarz_tables(bases, workspace) -> list[np.ndarray]:
    """The Schwarz bound table of every basis of a call, from the
    evaluation's scratch or freshly built: every screened driver takes
    its skip decisions from it."""
    if workspace is not None:
        return workspace.schwarz_bounds_stack(bases)
    from .batch import schwarz_pair_bounds

    return schwarz_pair_bounds(bases)


def _aux_bounds(aux, workspace) -> np.ndarray:
    if workspace is not None:
        return workspace.aux_function_bounds(aux)
    return aux_function_bounds(aux)


def _phase(tk_idx: np.ndarray) -> np.ndarray:
    return (-1.0) ** tk_idx.sum(axis=1)


_S_COMP = comp_arrays(0)


def _eri2c_tables(workspace, auxs, sites):
    """The `CoulombTables` of every ordered (bra group, ket group) pair
    of the metric, over the (site, site) blocks some fragment holds: the
    bra is the site group as one-primitive "pairs", the ket its sites
    one at a time. Returns the set and each fragment's blocks among them
    (`batch._pairs_of_sites`)."""
    from .batch import _coulomb_tables, _pairs_of_sites, _site_bras

    blocks, mine = _pairs_of_sites(sites)
    tabs = _coulomb_tables(workspace, "eri2c", (auxs,), None,
                           _site_bras(sites), _site_kets(sites), blocks)
    return tabs, mine


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
        Wb = _site_rows(sb)
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
    naux)`` may lead with a stack axis (a max is exact in any order).
    ``Z[..., None]`` of a density is its per-shell-block ``Dmax``."""
    offs = np.asarray(basis.offsets)
    Zabs = np.maximum(Z.max(axis=-1), -Z.min(axis=-1))
    Zabs = np.maximum.reduceat(Zabs, offs, axis=-2)
    return np.maximum.reduceat(Zabs, offs, axis=-1)




def aux_function_bounds(aux: BasisSet) -> np.ndarray:
    """Cauchy-Schwarz bounds ``Q_P = sqrt((P|P))`` per auxiliary function.

    Shape ``(naux,)``: the diagonal of every site's ``(site|site)``
    block of the metric, on `eri2c`'s site kernels (one block a site,
    nothing shared with an evaluation: ``(P|P)`` is translation
    invariant, so the workspace caches the bounds on composition).
    """
    from .batch import CoulombTables, _site_bras, site_plan
    from .workspace import table_budget

    sites = site_plan([aux]).per_site()
    bras, kets = _site_bras(sites), _site_kets(sites)
    q = np.empty(aux.nbf)
    for g, (grp, fs) in enumerate(zip(sites.groups, sites.frags[0])):
        own = np.sort(fs.ids)
        tabs = CoulombTables(bras, kets, {(g, g): own * grp.qk.size + own},
                             table_budget(None))
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


def eri4c(basis: BasisSet) -> np.ndarray:
    """Four-center ERIs ``(mu nu | la si)``, shape ``(nbf,)*4``.

    A block is a canonical pair of canonical shell pairs, so the 8-fold
    symmetry leaves each integral computed once: the bra pair's
    expansion through the block's Hermite Coulomb kernel (tables at
    order ``la + lb + lc + ld``), then the ket pair's expansion, one
    stacked GEMM each. For the conventional-HF baseline on small
    systems only — the RI path never calls this.
    """
    from .batch import _chunks, _kernel, _w_class, pair_plan, simplex_sum_index

    n = basis.nbf
    out = np.zeros((n, n, n, n))
    plan = pair_plan([basis])
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
    from .batch import _chunks, _deriv_expansions, _kernel, pair_plan, simplex_sum_index

    g = np.zeros((natoms, 3))
    plan = pair_plan([basis], workspace)
    rows = list(zip(plan.classes, plan.frags[0]))
    dWs = _deriv_expansions(plan.classes, workspace)
    kets = [_ket_expansion(cls) for cls, _ in rows]
    if screen > 0.0:
        Q = _schwarz_tables([basis], workspace)[0]
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
    if workspace is not None:
        lost = np.concatenate(dropped) if dropped else np.zeros(0)
        workspace.record_screen("eri4c_deriv", nblocks, lost.size, math.fsum(lost))
    return g
