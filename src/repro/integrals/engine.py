"""Hermite machinery shared by the shell-class kernels of `batch`.

* `e_tables_batch` — Hermite expansion tables ``E[n, dim, i, j, t]``
  of a batch of primitive pairs (an auxiliary site is a pair with a
  zero-exponent partner on its own centre).
* `r_tables_simplex` — Hermite Coulomb tables ``R^0_{tuv}`` on the
  simplex ``t + u + v <= L`` (`hermite_simplex`), from the tabulated
  Boys function; `batch._build_tables` is its one caller.
* `aux_group_data` — an auxiliary basis's shells grouped by site.
* `canonical_shell_pairs`, `stack_driver`, `in_scope`, `comp_arrays` —
  the pair enumeration, the one-or-many calling convention, the one
  way into the integral layer (a scope of a workspace) and the
  component powers every driver shares.

Everything is vectorized over primitive pairs; Python loops only run
over Hermite orders and angular momenta.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from ..chem.molecule import Molecule
from .boys import boys_table
from .hermite import cartesian_components
from .workspace import get_workspace


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

    The downward Hermite recursion ``R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v}
    + X R^{n+1}_{t,u,v}`` (likewise in ``u``, ``v``), run to total order
    ``lmax`` only (Boys orders ``0..lmax``), with ``scale`` (default one, shaped
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


def in_scope(fn):
    """Run ``fn`` in a scope of its ``workspace`` argument (positional
    or keyword): None is the process workspace (`workspace.
    get_workspace`), and a scope already open on the calling thread is
    joined (`IntegralWorkspace.scope`). The one way into the integral
    layer: every driver is wrapped in it, and so is every SCF / gradient
    function that calls several drivers at one geometry (`scf.rhf.
    prepare_solves`, `scf.grad.contract_ri_gradients`, `scf.grad.
    rhf_gradient_conventional`); below them the workspace is never None
    and its scratch always exists."""
    at = list(inspect.signature(fn).parameters).index("workspace")

    @wraps(fn)
    def call(*args, **kwargs):
        if len(args) > at:
            ws = args[at]
            if ws is None:
                ws = get_workspace()
                args = (*args[:at], ws, *args[at + 1:])
        else:
            ws = kwargs.get("workspace")
            if ws is None:
                ws = kwargs["workspace"] = get_workspace()
        with ws.scope():
            return fn(*args, **kwargs)

    return call


def stack_driver(driver):
    """One name for an integral driver, given a list of fragments or one.

    Every driver takes a list of fragments — bases of any compositions,
    with the molecules and coefficient arrays of the same fragments —
    as one evaluation, and returns one result per fragment. Given one
    basis in place of the list, every basis and molecule argument is a
    list of one, every array argument gains a leading fragment axis and
    the result is the one fragment's: the same kernels, the same bits.
    Either way it runs `in_scope` of its workspace.
    """
    driver = in_scope(driver)

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
        a: exponent of every site, shape ``(m,)``.
        E: every site's E tables up to ``lmax`` (plus any derivative
            headroom), ``(m, 3, imax+1, 1, imax+1)``: geometry-free, the
            zero-exponent partner sits on the site's own centre (the
            shells' contraction coefficients differ per ``l`` and ride
            in ``comp_norms``).
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
    a: np.ndarray
    E: np.ndarray
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
        groups.append(
            AuxGroup(
                ls=ls,
                a=a,
                E=e_tables_batch(ls[-1] + di, 0, np.zeros(3), a,
                                 np.zeros_like(a)),
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


@lru_cache(maxsize=None)
def hermite_simplex(L: int) -> np.ndarray:
    """All (t, u, v) with ``t + u + v <= L``, C-order, shape
    ``((L+1)(L+2)(L+3)/6, 3)`` — the part of the Hermite cube ``(L+1)^3``
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
