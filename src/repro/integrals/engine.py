"""Batched shell-pair machinery for McMurchie-Davidson integrals.

The integral drivers (`onee`, `eri`) are built on three primitives:

* `pair_data` / `single_data` — per-primitive-pair Hermite expansion
  tables ``E[n, dim, i, j, t]`` plus composite exponents/centers.
* `w_tensor` — the per-pair Cartesian-component expansion tensor
  ``W[n, A, B, t, u, v]`` obtained by gathering E tables for the actual
  component powers of the shell pair.
* `w_deriv` — the same tensor differentiated with respect to a bra or
  ket *center* coordinate via the exact distribution identity

      d/dA_x Omega_ij = 2a Omega_{i+1,j} - i Omega_{i-1,j},

  which turns every integral derivative into integrals of shifted
  angular momentum (no derivative Hermite kernels needed; operator-center
  derivatives follow from translational invariance in the callers).

Everything is vectorized over primitive pairs; Python loops only run
over shells, which keeps laptop-scale molecules fast without any
compiled extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from typing import TYPE_CHECKING

from ..chem.molecule import Molecule

if TYPE_CHECKING:
    from ..basis.shell import Shell
from .boys import boys_table
from .hermite import cartesian_components


def e_tables_batch(
    imax: int, jmax: int, AB: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Hermite E tables for a batch of primitive pairs, all three dims.

    Args:
        imax, jmax: maximum powers (including any derivative headroom).
        AB: separation ``A - B``; either a 3-vector shared by every
            primitive pair, or per-pair separations of shape ``(n, 3)``
            (the shell-class kernels batch across shell pairs).
        a, b: exponent arrays of shape ``(n,)``. ``b`` may be all zeros
            for single-Gaussian (auxiliary) expansions.

    Returns:
        ``E`` of shape ``(n, 3, imax+1, jmax+1, imax+jmax+1)``.
    """
    AB = np.asarray(AB, dtype=float)
    n = a.shape[0]
    p = a + b
    q = a * b / p
    tmax = imax + jmax
    E = np.zeros((n, 3, imax + 1, jmax + 1, tmax + 1))
    inv2p = 1.0 / (2.0 * p)
    for dim in range(3):
        # Scalar separation multiplies through unchanged; the per-pair
        # variant runs the same IEEE ops elementwise, so shared-AB
        # results are bitwise independent of which form the caller used.
        Q = float(AB[dim]) if AB.ndim == 1 else AB[:, dim]
        Ed = E[:, dim]
        Ed[:, 0, 0, 0] = np.exp(-q * Q * Q)
        Xpa = -(b / p) * Q
        Xpb = (a / p) * Q
        for i in range(imax):
            for t in range(i + 1):
                val = Xpa * Ed[:, i, 0, t]
                if t > 0:
                    val = val + inv2p * Ed[:, i, 0, t - 1]
                if t + 1 <= i:
                    val = val + (t + 1) * Ed[:, i, 0, t + 1]
                Ed[:, i + 1, 0, t] = val
            Ed[:, i + 1, 0, i + 1] = inv2p * Ed[:, i, 0, i]
        for i in range(imax + 1):
            for j in range(jmax):
                for t in range(i + j + 1):
                    val = Xpb * Ed[:, i, j, t]
                    if t > 0:
                        val = val + inv2p * Ed[:, i, j, t - 1]
                    if t + 1 <= i + j:
                        val = val + (t + 1) * Ed[:, i, j, t + 1]
                    Ed[:, i, j + 1, t] = val
                Ed[:, i, j + 1, i + j + 1] = inv2p * Ed[:, i, j, i + j]
    return E


#: cap on the Hermite-Coulomb recursion scratch tensor: a larger one is
#: slightly faster on the largest table sets, but it is also what
#: building an evaluation's tables adds on top of the tables it holds
#: (at 16 MiB the water-tetramer RI-MP2 run peaked ~9 MB higher);
#: smaller wastes the fixed per-call recursion overhead
_R_SCRATCH_BYTES = 4 << 20


def r_tables_batch(
    tmax: int, umax: int, vmax: int, p: np.ndarray, PQ: np.ndarray
) -> np.ndarray:
    """Hermite Coulomb tensors ``R^0_{tuv}`` for a batch.

    Args:
        tmax, umax, vmax: per-dimension Hermite orders.
        p: composite exponents, shape ``(n,)``.
        PQ: composite center separations, shape ``(n, 3)``.

    Returns:
        ``R`` of shape ``(n, tmax+1, umax+1, vmax+1)``.

    The scratch tensor keeps the batch axis *last* so every slice the
    downward recursion reads or writes is contiguous, and batches are
    split so the scratch stays cache-resident. Both are pure layout
    choices: every operation is elementwise along the batch axis, so
    the returned values are bitwise independent of them.
    """
    from .boys import boys_array  # the reference Boys; runtime uses the table

    n = p.shape[0]
    nmax = tmax + umax + vmax
    per_item = (nmax + 1) * (tmax + 1) * (umax + 1) * (vmax + 1) * 8
    chunk = max(64, _R_SCRATCH_BYTES // per_item)
    if n > chunk:
        out = np.empty((n, tmax + 1, umax + 1, vmax + 1))
        for lo in range(0, n, chunk):
            hi = lo + chunk
            out[lo:hi] = r_tables_batch(tmax, umax, vmax, p[lo:hi], PQ[lo:hi])
        return out
    T = p * np.einsum("ni,ni->n", PQ, PQ)
    F = boys_array(nmax, T)  # (n, nmax+1)
    # empty, not zeros: level m of the recursion only ever reads entries
    # written at level m+1, and every entry the caller sees (level 0) is
    # written unconditionally
    Rn = np.empty((nmax + 1, tmax + 1, umax + 1, vmax + 1, n))
    scale = np.ones(n)
    for m in range(nmax + 1):
        Rn[m, 0, 0, 0] = scale * F[:, m]
        scale = scale * (-2.0 * p)
    x = PQ[:, 0][None, :]
    y = PQ[:, 1][None, :]
    z = PQ[:, 2][None, :]
    for total in range(1, nmax + 1):
        hi = nmax - total + 1  # recursion fills orders [0, hi) at this level
        for t in range(min(total, tmax) + 1):
            for u in range(min(total - t, umax) + 1):
                v = total - t - u
                if v < 0 or v > vmax:
                    continue
                if t > 0:
                    val = x * Rn[1 : hi + 1, t - 1, u, v]
                    if t > 1:
                        val = val + (t - 1) * Rn[1 : hi + 1, t - 2, u, v]
                elif u > 0:
                    val = y * Rn[1 : hi + 1, t, u - 1, v]
                    if u > 1:
                        val = val + (u - 1) * Rn[1 : hi + 1, t, u - 2, v]
                else:
                    val = z * Rn[1 : hi + 1, t, u, v - 1]
                    if v > 1:
                        val = val + (v - 1) * Rn[1 : hi + 1, t, u, v - 2]
                Rn[0:hi, t, u, v] = val
    return np.ascontiguousarray(Rn[0].transpose(3, 0, 1, 2))


@lru_cache(maxsize=None)
def _graded_simplex(lmax: int):
    """Recursion layout of `r_tables_simplex`: the simplex in blocks of
    equal total order ``k``, each block listing ``(t+1, u, v)`` for the
    previous block's rows, then ``(0, k-j, j)`` for ``j = 0..k``.

    In that order every branch of the downward recursion reads and
    writes whole contiguous row ranges: the ``t >= 1`` rows of block
    ``k`` are block ``k-1`` shifted, the ``t >= 2`` rows block ``k-2``
    shifted, and likewise for ``u`` inside the ``t = 0`` tails.
    Returns the block offsets, the rows as a float array, and the
    `hermite_simplex` position of every row.
    """
    blocks = [[(0, 0, 0)]]
    for k in range(1, lmax + 1):
        shifted = [(t + 1, u, v) for t, u, v in blocks[-1]]
        blocks.append(shifted + [(0, k - j, j) for j in range(k + 1)])
    rows = sum(blocks, [])
    offs = np.cumsum([0] + [len(blk) for blk in blocks])
    simplex = [tuple(tuv) for tuv in hermite_simplex(lmax)]
    at = [simplex.index(tuv) for tuv in rows]
    return offs, np.array(rows, dtype=float), np.array(at)


def r_tables_simplex(
    lmax: int, p: np.ndarray, PQ: np.ndarray, scale: np.ndarray | None = None
) -> np.ndarray:
    """Hermite Coulomb tensors ``scale * R^0_{tuv}`` for ``t+u+v <= lmax``.

    Same recursion as `r_tables_batch`, run to total order ``lmax``
    only (Boys orders ``0..lmax``), with ``scale`` (default one, shaped
    like ``p``) folded into its ``F_m`` seeds. A batch ``p`` of shape
    ``(rows, m)`` (``PQ`` one more axis, of 3) gives ``(rows,
    nsimplex(lmax), m)``: the Hermite rows in `hermite_simplex` order
    between the batch's two axes, the layout the kernels read, written
    by the recursion's one final gather. A 1-D batch is one row:
    ``(nsimplex(lmax), n)``. Every operation is elementwise along the
    batch, so values are independent of the batch split.
    """
    if p.ndim == 1:
        one = None if scale is None else scale[None]
        return r_tables_simplex(lmax, p[None], PQ[None], one)[0]
    rows, m = p.shape
    offs, graded, at = _graded_simplex(lmax)
    ns = int(offs[-1])
    chunk = max(64, _R_SCRATCH_BYTES // ((lmax + 1) * ns * 8))
    if rows * m > chunk:
        # whole rows per chunk; a row wider than a chunk, a column range
        step = max(1, chunk // m)
        width = min(m, chunk)
        out = np.empty((rows, ns, m))
        for lo in range(0, rows, step):
            for c0 in range(0, m, width):
                blk = (slice(lo, lo + step), slice(c0, c0 + width))
                out[blk[0], :, blk[1]] = r_tables_simplex(
                    lmax, p[blk], PQ[blk], None if scale is None else scale[blk]
                )
        return out
    n = rows * m
    p = p.reshape(n)
    PQ = PQ.reshape(n, 3)
    T = p * np.einsum("ni,ni->n", PQ, PQ)
    F = boys_table(lmax, T)  # order-major: one contiguous row per seed
    # batch axis last: every range below is a contiguous block per order
    Rn = np.empty((lmax + 1, ns, n))
    seed = np.ones(n) if scale is None else scale.reshape(n)
    minus2p = -2.0 * p
    for k in range(lmax + 1):
        np.multiply(seed, F[k], out=Rn[k, 0])
        if k < lmax:
            seed = seed * minus2p
    x, y, z = PQ[:, 0], PQ[:, 1], PQ[:, 2]
    for k in range(1, lmax + 1):
        hi = lmax - k + 1  # orders [0, hi) are still needed at level k
        o1, o0, o2 = offs[k - 1], offs[k], offs[k + 1]
        up = Rn[1 : hi + 1]
        new = Rn[:hi]
        tail = o2 - k - 1  # first t = 0 row of this block
        np.multiply(x, up[:, o1:o0], out=new[:, o0:tail])
        np.multiply(y, up[:, o0 - k : o0], out=new[:, tail : o2 - 1])
        np.multiply(z, up[:, o0 - 1], out=new[:, o2 - 1])
        if k > 1:
            om = offs[k - 2]
            t2 = slice(o0, o0 + o1 - om)  # rows with t >= 2
            u2 = slice(tail, o2 - 2)      # t = 0 rows with u >= 2
            new[:, t2] += (graded[t2, 0, None] - 1.0) * up[:, om:o1]
            new[:, u2] += (graded[u2, 1, None] - 1.0) * up[:, o1 - k + 1 : o1]
            new[:, o2 - 1] += (k - 1.0) * up[:, o1 - 1]
    out = np.empty((rows, ns, m))
    out[:, at] = Rn[0].reshape(ns, rows, m).transpose(1, 0, 2)
    return out


@dataclass
class PairData:
    """Primitive-pair expansion data for one shell pair."""

    sha: Shell
    shb: Shell
    a: np.ndarray  # (n,) bra exponents
    b: np.ndarray  # (n,) ket exponents (zeros for single expansions)
    cc: np.ndarray  # (n,) contraction coefficient products
    p: np.ndarray  # (n,) composite exponents
    P: np.ndarray  # (n, 3) composite centers
    E: np.ndarray  # (n, 3, imax+1, jmax+1, tmax+1)
    imax: int
    jmax: int

    @property
    def nprim(self) -> int:
        return self.a.shape[0]


def pair_data(sha: Shell, shb: Shell, di: int = 0, dj: int = 0) -> PairData:
    """Expansion tables for a genuine two-shell pair.

    ``di``/``dj`` request extra angular-momentum headroom on the bra/ket
    side for derivative integrals.
    """
    a = np.repeat(sha.exps, shb.nprim)
    b = np.tile(shb.exps, sha.nprim)
    cc = np.repeat(sha.coefs, shb.nprim) * np.tile(shb.coefs, sha.nprim)
    p = a + b
    P = (a[:, None] * sha.center[None, :] + b[:, None] * shb.center[None, :]) / p[:, None]
    AB = sha.center - shb.center
    imax = sha.l + di
    jmax = shb.l + dj
    E = e_tables_batch(imax, jmax, AB, a, b)
    return PairData(sha, shb, a, b, cc, p, P, E, imax, jmax)


def single_data(sh: Shell, di: int = 0) -> PairData:
    """Expansion tables for a single shell (RI auxiliary function).

    Treated as a pair with a dummy ``b = 0`` partner on the same center,
    under which the E recursion reduces to the single-Gaussian Hermite
    expansion.
    """
    a = sh.exps.copy()
    b = np.zeros_like(a)
    cc = sh.coefs.copy()
    p = a.copy()
    P = np.repeat(sh.center[None, :], len(a), axis=0)
    imax = sh.l + di
    E = e_tables_batch(imax, 0, np.zeros(3), a, b)
    return PairData(sh, sh, a, b, cc, p, P, E, imax, 0)


def canonical_shell_pairs(basis) -> list[tuple[int, int]]:
    """THE canonical bra shell-pair enumeration: ``(i, j)`` with
    ``i <= j``, lexicographic.

    Every pair-driven driver (Schwarz, `eri3c`, the 3c/4c derivative
    contractions, the shell-class partition) must enumerate pairs
    through this one function: screening bookkeeping accumulates
    neglected bounds *in pair order*, so two drivers disagreeing on the
    order (or worse, the set) of pairs would silently desynchronize the
    accounting from the blocks actually skipped.
    """
    nsh = basis.nshells
    return [(i, j) for i in range(nsh) for j in range(i, nsh)]


def stack_driver(driver):
    """One name for an integral driver, given a list of fragments or one.

    Every driver takes a list of fragments — bases of any compositions,
    with the molecules and coefficient arrays of the same fragments —
    as one evaluation, and returns one result per fragment. Given one
    basis in place of the list, every basis and molecule argument is a
    list of one, every array argument gains a leading fragment axis and
    the result is the one fragment's: the same kernels, the same bits.
    """
    @wraps(driver)
    def call(first, *args, **kwargs):
        if isinstance(first, (list, tuple)):
            return driver(first, *args, **kwargs)
        one = (type(first), Molecule)

        def lift(arg):
            if isinstance(arg, one):
                return [arg]
            return arg[None] if isinstance(arg, np.ndarray) else arg

        return driver([first], *map(lift, args),
                      **{k: lift(v) for k, v in kwargs.items()})[0]

    return call


@lru_cache(maxsize=None)
def comp_arrays(l: int) -> np.ndarray:
    """Cartesian component power array, shape ``(ncart(l), 3)``.

    Memoized: every shell loop in the integral drivers asks for the same
    handful of momenta. The cached array is marked read-only so an
    accidental in-place edit fails loudly instead of corrupting every
    future caller.
    """
    arr = np.array(cartesian_components(l), dtype=int)
    arr.setflags(write=False)
    return arr


@dataclass
class AuxGroup:
    """A batch of auxiliary *sites* carrying the same angular momenta.

    A site is a (centre, exponent) pair; an even-tempered fitting basis
    puts its s, p and d shells on one exponent ladder per atom, so a
    site usually holds several single-primitive shells. Everything the
    Hermite machinery needs from a primitive — its E table ``E[i, 0, t]``
    and its Coulomb table against a bra — depends on the exponent and
    the centre only, so the sites of a group are processed as one 'ket'
    whose component axis stacks the components of every ``l`` the sites
    carry. When no two shells share a site (cc-pVDZ-RIFIT would be such
    a basis) the groups are the per-``l`` shell batches.

    Attributes:
        ls: angular momenta every site of the group carries, ascending.
        pd: PairData whose primitive axis enumerates the sites (E tables
            up to ``lmax``; ``cc`` is one, the shells' contraction
            coefficients differ per ``l`` and ride in ``comp_norms``).
        atoms: owning atom per site, shape ``(m,)``.
        shells: one member shell index per site, shape ``(m,)`` (where
            the site's centre is read from).
        comps: stacked Cartesian component powers, ``(C, 3)``:
            `comp_arrays` of each ``l`` in ``ls``, concatenated.
        func_idx: basis-function index of every (site, component),
            shape ``(m, C)``.
        comp_norms: contraction coefficient times component
            normalization of every (site, component), shape ``(m, C)``.
    """

    ls: tuple[int, ...]
    pd: PairData
    atoms: np.ndarray
    shells: np.ndarray
    comps: np.ndarray
    func_idx: np.ndarray
    comp_norms: np.ndarray

    @property
    def lmax(self) -> int:
        """Highest angular momentum of the group: the order of its ket
        Hermite simplex and of the E tables it needs."""
        return self.ls[-1]


def aux_group_data(aux, di: int = 0) -> list[AuxGroup]:
    """Group an auxiliary basis's shells by site, and sites by the set
    of angular momenta they carry (sorted by ``lmax``).

    Every shell must be single-primitive (true for the auto-generated
    even-tempered fitting bases). ``di`` adds derivative headroom.
    """
    # (atom, centre, exponent) -> one {l: shell index} per site; a second
    # shell of the same l on the same exponent opens another site
    sites: dict[tuple, list[dict[int, int]]] = {}
    for idx, sh in enumerate(aux.shells):
        if sh.nprim != 1:
            raise ValueError("aux grouping requires single-primitive shells")
        slots = sites.setdefault(
            (sh.atom, sh.center.tobytes(), sh.exps.tobytes()), []
        )
        slot = next((s for s in slots if sh.l not in s), None)
        if slot is None:
            slot = {}
            slots.append(slot)
        slot[sh.l] = idx
    by_ls: dict[tuple[int, ...], list[dict[int, int]]] = {}
    for slots in sites.values():
        for slot in slots:
            by_ls.setdefault(tuple(sorted(slot)), []).append(slot)
    groups = []
    for ls, members in sorted(by_ls.items(), key=lambda kv: (kv[0][-1], kv[0])):
        def stacked(per_shell):
            """``(m, C)``: a per-shell vector of each ``l``, side by side."""
            return np.array([
                np.concatenate([per_shell(aux.shells[slot[l]], slot[l])
                                for l in ls])
                for slot in members
            ])

        first = [aux.shells[slot[ls[0]]] for slot in members]
        a = np.array([sh.exps[0] for sh in first])
        b = np.zeros_like(a)
        P = np.array([sh.center for sh in first])
        imax = ls[-1] + di
        E = e_tables_batch(imax, 0, np.zeros(3), a, b)
        pd = PairData(
            first[0], first[0], a, b, np.ones_like(a), a.copy(), P, E, imax, 0
        )
        groups.append(
            AuxGroup(
                ls=ls,
                pd=pd,
                atoms=np.array([sh.atom for sh in first]),
                shells=np.array([slot[ls[0]] for slot in members]),
                comps=np.concatenate([comp_arrays(l) for l in ls]),
                func_idx=stacked(
                    lambda sh, i: aux.offsets[i] + np.arange(sh.nfunc)
                ),
                comp_norms=stacked(lambda sh, i: sh.coefs[0] * sh.comp_norms),
            )
        )
    return groups


def w_tensor(pd: PairData, ca: np.ndarray, cb: np.ndarray, tbox: tuple[int, int, int]) -> np.ndarray:
    """Component expansion tensor ``W[n, A, B, t, u, v]``.

    Args:
        pd: pair data with E tables covering the requested powers.
        ca, cb: component power arrays for bra and ket, shapes (A,3), (B,3).
        tbox: inclusive per-dimension Hermite maxima (tx, ty, tz).
    """
    Gs = []
    for dim in range(3):
        # (n, A, B, T)
        G = pd.E[:, dim][:, ca[:, None, dim], cb[None, :, dim], : tbox[dim] + 1]
        Gs.append(G)
    return np.einsum("nabt,nabu,nabv->nabtuv", Gs[0], Gs[1], Gs[2])


def w_deriv(
    pd: PairData,
    ca: np.ndarray,
    cb: np.ndarray,
    tbox: tuple[int, int, int],
    side: str,
    axis: int,
) -> np.ndarray:
    """``d/dX_axis`` of `w_tensor`, where X is the bra (``side='bra'``) or
    ket (``side='ket'``) shell center.

    Requires the pair data to have been built with one extra unit of
    angular momentum headroom on the differentiated side.
    """
    Gs = []
    for dim in range(3):
        ia = ca[:, None, dim]
        jb = cb[None, :, dim]
        T = tbox[dim] + 1
        if dim == axis:
            if side == "bra":
                up = pd.E[:, dim][:, ia + 1, jb, :T]
                lo_idx = np.maximum(ia - 1, 0)
                lo = pd.E[:, dim][:, lo_idx, jb, :T]
                G = 2.0 * pd.a[:, None, None, None] * up - ia[None, :, :, None] * lo
            elif side == "ket":
                up = pd.E[:, dim][:, ia, jb + 1, :T]
                lo_idx = np.maximum(jb - 1, 0)
                lo = pd.E[:, dim][:, ia, lo_idx, :T]
                G = 2.0 * pd.b[:, None, None, None] * up - jb[None, :, :, None] * lo
            else:
                raise ValueError(f"side must be 'bra' or 'ket', got {side!r}")
        else:
            G = pd.E[:, dim][:, ia, jb, :T]
        Gs.append(G)
    return np.einsum("nabt,nabu,nabv->nabtuv", Gs[0], Gs[1], Gs[2])


@lru_cache(maxsize=None)
def hermite_box(tbox: tuple[int, int, int]) -> np.ndarray:
    """All (t, u, v) triples of the inclusive box, shape (nT, 3), C-order.

    Memoized (read-only result): the distinct boxes in a run are the few
    angular-momentum sums of the basis, re-requested per shell pair.
    """
    tx, ty, tz = tbox
    t, u, v = np.meshgrid(
        np.arange(tx + 1), np.arange(ty + 1), np.arange(tz + 1), indexing="ij"
    )
    box = np.stack([t.ravel(), u.ravel(), v.ravel()], axis=1)
    box.setflags(write=False)
    return box


@lru_cache(maxsize=None)
def hermite_simplex(L: int) -> np.ndarray:
    """All (t, u, v) with ``t + u + v <= L``, C-order, shape
    ``((L+1)(L+2)(L+3)/6, 3)`` — the part of `hermite_box` ``(L, L, L)``
    on which an expansion of total angular momentum ``L`` can be
    nonzero (``E[i, j, t] = 0`` for ``t > i + j`` in every dimension).
    Memoized, read-only.
    """
    rows = [
        (t, u, v)
        for t in range(L + 1)
        for u in range(L + 1 - t)
        for v in range(L + 1 - t - u)
    ]
    simplex = np.array(rows, dtype=np.intp)
    simplex.setflags(write=False)
    return simplex


@lru_cache(maxsize=None)
def simplex_sum_index(lb: int, lk: int, order: int | None = None) -> np.ndarray:
    """Row of `hermite_simplex` ``(order)`` holding ``tb + tk`` for
    every bra row ``tb`` of simplex ``lb`` and ket row ``tk`` of simplex
    ``lk``: the one gather table, shape ``(Tb, Tk)``, that turns a
    packed `r_tables_simplex` table into the bra x ket Hermite kernel.
    ``order`` (default, and at least, ``lb + lk``) is the order the
    table was built at: a lower-order simplex is a subset of its rows."""
    L = lb + lk if order is None else order
    if L < lb + lk:
        raise ValueError(f"order-{L} table cannot serve rows {lb} + {lk}")
    total = hermite_simplex(L)
    pos = np.empty((L + 1, L + 1, L + 1), dtype=np.intp)
    pos[total[:, 0], total[:, 1], total[:, 2]] = np.arange(total.shape[0])
    ts = hermite_simplex(lb)[:, None, :] + hermite_simplex(lk)[None, :, :]
    idx = pos[ts[..., 0], ts[..., 1], ts[..., 2]]
    idx.setflags(write=False)
    return idx
