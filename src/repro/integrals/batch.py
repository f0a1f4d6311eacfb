"""Shell-pair-class batched integral kernels.

Instead of looping Python over individual shell pairs, the drivers here
partition the canonical bra pair list (`canonical_shell_pairs`) into
**classes** — pairs sharing ``(la, lb, npa, npb)`` — pack each class's
exponents, contraction products, centers and Hermite E tables into flat
arrays, and evaluate all surviving (post-Schwarz) pairs of a class in a
handful of dense array ops. This amortizes interpreter overhead over the
whole class, which is where the per-step cost lived after PR 5's
screening/caching work (ROADMAP item 1), and is the same layout the
paper needs to feed accelerators as large dense batches. The kernels
are NumPy; a second array library re-enters behind the stacked calls of
ROADMAP item 2 (docs/PERFORMANCE.md, "One array library").

Contract (see docs/PERFORMANCE.md). These kernels are the only runtime
implementation of the public drivers; the per-pair ``*_loop`` functions
in `onee.py`/`eri.py` are the reference the tests compare against.
What is pinned:

* **Determinism** — the same inputs give bit-identical outputs from run
  to run and for any `_CHUNK_ELEMS`: per-pair rows are independent,
  gradients accumulate per class in class order from whole-class
  arrays, and the neglected bound is one exactly rounded `math.fsum`.
  This is what bitwise resume rests on.
* **Screening decisions** — skip masks and pair counts are identical to
  the reference's (same Schwarz table, same comparison).
* **Tolerance vs the reference** — matrices and 3c tensors to rtol
  1e-12, contracted gradients to atol 1e-12 Ha/bohr.

Summation order, operand layouts and Hermite ranges are *not* pinned to
the loop code's. The kernels here evaluate only the Hermite rows with
``t + u + v <= L`` (`engine.hermite_simplex`, packed R tables from
`engine.r_tables_simplex`) and contract each (class chunk, aux group)
with one stacked GEMM; the reference keeps the full ``(L+1)^3`` cube, so
the tolerance clause is a cross-check of the trimming.

The Hermite Coulomb tables of an evaluation are built once
(`CoulombTables`): a value driver and the derivative driver that follows
it read one set, built at the derivative's order ``L + l + 1`` with one
column per auxiliary *site* (`engine.AuxGroup`), and handed from the one
to the other through the evaluation's `IntegralWorkspace.scope`. A table
is held in the layout its kernels read — pair-major ``(q, N,
nsimplex, m)``, the kind's prefactor folded into the recursion's
``F_m`` seeds — so a kernel is one ``take`` along the simplex axis.
`_build_tables` is the only caller of the recursion, one call per
(class, ket group); a column is bitwise independent of how it was come
by. Each class's bra-derivative expansion is built once per evaluation
too and held on the class (`_deriv_expansions`): the nuclear and the
three-centre derivative read one.

**Stacks.** Every driver takes a *stack*: the bases (and molecules) of
fragments of one composition, evaluated as one. The stack is a longer
pair axis: the class partition of the composition is repeated with
every fragment's centres (``ShellClass.frag`` names each pair's
fragment, fragment-major), the ket centres are gathered per pair, blocks
scatter into ``(F, nbf, nbf[, naux])`` and gradients accumulate per
fragment. Each driver has one name: given one basis in place of the
list, it is a stack of one (`engine.stack_driver`).
Since a pair's rows are independent of the chunk they are in, a
fragment's result is bitwise independent of the stack it rode in: the
reductions read C-contiguous operands, so they run the same way for any
number of pairs, and the per-fragment sums over a class run over the
fragment's own contiguous run of pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from ..gemm import bgemm
from .engine import (
    canonical_shell_pairs,
    comp_arrays,
    e_tables_batch,
    hermite_simplex,
    r_tables_simplex,
    simplex_sum_index,
    stack_driver,
)
from .eri import (
    DERIV_SAFETY,
    _TWO_PI_52,
    _S_COMP,
    _aux_bounds,
    _aux_groups,
    _phase,
    _schwarz_tables,
    _zblk_table,
)
from .workspace import table_budget

if TYPE_CHECKING:
    from ..basis.basisset import BasisSet
    from .workspace import IntegralWorkspace

__all__ = [
    "CoulombTables",
    "ShellClass",
    "build_shell_classes",
    "canonical_shell_pairs",
    "schwarz_pair_bounds",
    "stack_shell_classes",
    "table_bytes",
]

#: element budget for the largest per-chunk intermediate (~1 MB f64:
#: the chunk's working set stays cache-resident, and a stack's pair axis
#: adds a few MB at most to what its tables hold); per-pair rows are
#: independent, so chunking never changes results
_CHUNK_ELEMS = 1 << 18


# --------------------------------------------------------------------------
# Shell-pair class partition and packing
# --------------------------------------------------------------------------

@dataclass
class ShellClass:
    """All canonical shell pairs sharing ``(la, lb, npa, npb)``, packed.

    Per-pair arrays are stacked along a leading axis of length ``Q``
    (pairs, canonical order within the class); per-primitive arrays have
    a second axis of length ``N = npa * npb``, laid out exactly like
    `engine.pair_data` (bra-major). ``E`` carries the workspace-unified
    ``(di=1, dj=2)`` derivative headroom: lower-index entries of the E
    recursion are independent of headroom, so every driver can gather
    from the one table. In a stack the pair axis runs over every
    fragment's pairs, fragment-major; ``frag`` names each pair's
    fragment, the other index arrays are the fragment's own.
    """

    la: int
    lb: int
    imax: int
    jmax: int
    frag: np.ndarray      # (Q,) fragment of the stack, ascending
    ish: np.ndarray       # (Q,) bra shell index
    jsh: np.ndarray       # (Q,) ket shell index
    oa: np.ndarray        # (Q,) bra function offset
    ob: np.ndarray        # (Q,) ket function offset
    atom_a: np.ndarray    # (Q,)
    atom_b: np.ndarray    # (Q,)
    diag: np.ndarray      # (Q,) bool, ish == jsh
    a: np.ndarray         # (Q, N) bra exponents, bra-major layout
    b: np.ndarray         # (Q, N) ket exponents
    cc: np.ndarray        # (Q, N) contraction coefficient products
    p: np.ndarray         # (Q, N) total exponents a + b
    P: np.ndarray         # (Q, N, 3) Gaussian product centers
    AB: np.ndarray        # (Q, 3) center separations A - B
    E: np.ndarray         # (Q, N, 3, imax+1, jmax+1, imax+jmax+1)
    norms: np.ndarray     # (nfa, nfb) component normalization outer
    #: (Q, 6, nfa*nfb, N*nsimplex(la+lb+1)): the bra-derivative
    #: expansion, once built (`_deriv_expansions`); a subset has none
    dW: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def npair(self) -> int:
        return int(self.ish.shape[0])

    @property
    def nprim(self) -> int:
        return int(self.a.shape[1])

    @property
    def nfa(self) -> int:
        return (self.la + 1) * (self.la + 2) // 2

    @property
    def nfb(self) -> int:
        return (self.lb + 1) * (self.lb + 2) // 2

    def subset(self, mask: np.ndarray) -> "ShellClass":
        """Survivor view after a screening decision (boolean mask)."""
        per_pair = ("frag", "ish", "jsh", "oa", "ob", "atom_a", "atom_b",
                    "diag", "a", "b", "cc", "p", "P", "AB", "E")
        return replace(self, **{f: getattr(self, f)[mask] for f in per_pair})


def _class_partition(basis: BasisSet):
    """Group canonical pairs by ``(la, lb, npa, npb)``; pack statics.

    Returns a list of dicts (sorted by class key) holding the index
    arrays and geometry-independent packed arrays.
    """
    shells = basis.shells
    offs = np.asarray(basis.offsets)
    by_key: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
    for i, j in canonical_shell_pairs(basis):
        key = (shells[i].l, shells[j].l, shells[i].nprim, shells[j].nprim)
        by_key.setdefault(key, []).append((i, j))
    parts = []
    for key in sorted(by_key):
        la, lb, npa, npb = key
        ish, jsh = np.asarray(by_key[key], dtype=np.intp).T
        exps_a = np.stack([shells[i].exps for i in ish])
        exps_b = np.stack([shells[j].exps for j in jsh])
        coefs_a = np.stack([shells[i].coefs for i in ish])
        coefs_b = np.stack([shells[j].coefs for j in jsh])
        # bra-major primitive layout, as in engine.pair_data
        a = np.repeat(exps_a, npb, axis=1)
        b = np.tile(exps_b, (1, npa))
        cc = np.repeat(coefs_a, npb, axis=1) * np.tile(coefs_b, (1, npa))
        parts.append(
            dict(
                la=la, lb=lb,
                ish=ish, jsh=jsh,
                oa=offs[ish], ob=offs[jsh],
                atom_a=np.asarray([shells[i].atom for i in ish], dtype=np.intp),
                atom_b=np.asarray([shells[j].atom for j in jsh], dtype=np.intp),
                diag=ish == jsh,
                a=a, b=b, cc=cc,
                norms=np.outer(
                    shells[ish[0]].comp_norms, shells[jsh[0]].comp_norms
                ),
            )
        )
    return parts


def _build_shell_classes(bases) -> list[ShellClass]:
    """Pack every shell-pair class of a stack of bases of one composition
    (fresh, no caching): the partition of the first, its pairs repeated
    with the centres of every basis, fragment-major, and one E-table
    build per class for the whole stack."""
    F = len(bases)
    centers = np.array([[sh.center for sh in basis.shells] for basis in bases])
    classes = []
    for part in _class_partition(bases[0]):
        la, lb = part["la"], part["lb"]
        Q, N = part["a"].shape
        a, b, cc = (np.tile(part[k], (F, 1)) for k in ("a", "b", "cc"))
        p = a + b
        A = centers[:, part["ish"]].reshape(F * Q, 3)
        B = centers[:, part["jsh"]].reshape(F * Q, 3)
        P = (
            a[:, :, None] * A[:, None, :] + b[:, :, None] * B[:, None, :]
        ) / p[:, :, None]
        AB = A - B
        imax, jmax = la + 1, lb + 2
        E = e_tables_batch(
            imax, jmax, np.repeat(AB, N, axis=0), a.ravel(), b.ravel()
        ).reshape(F * Q, N, 3, imax + 1, jmax + 1, imax + jmax + 1)
        each = {k: np.tile(part[k], F) for k in (
            "ish", "jsh", "oa", "ob", "atom_a", "atom_b", "diag")}
        classes.append(
            ShellClass(
                la=la, lb=lb, imax=imax, jmax=jmax,
                frag=np.repeat(np.arange(F), Q), **each,
                a=a, b=b, cc=cc, p=p, P=P, AB=AB, E=E,
                norms=part["norms"],
            )
        )
    return classes


def stack_shell_classes(
    bases, workspace: IntegralWorkspace | None = None
) -> list[ShellClass]:
    """Shell-pair classes of a stack from the workspace's scratch, or
    freshly packed."""
    if workspace is not None:
        return workspace.shell_classes(bases)
    return _build_shell_classes(bases)


def build_shell_classes(
    basis: BasisSet, workspace: IntegralWorkspace | None = None
) -> list[ShellClass]:
    """`stack_shell_classes` of one basis."""
    return stack_shell_classes([basis], workspace)


def _chunks(nq: int, per_pair_elems: int):
    """Deterministic pair-axis chunking under the element budget."""
    step = max(1, _CHUNK_ELEMS // max(1, int(per_pair_elems)))
    for lo in range(0, nq, step):
        yield slice(lo, min(lo + step, nq))


def _segments(frag: np.ndarray, nfrag: int) -> list[slice]:
    """Each fragment's run of pairs along a (fragment-major) pair axis."""
    bounds = np.searchsorted(frag, np.arange(nfrag + 1))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


# --------------------------------------------------------------------------
# Shared gather/contraction helpers (engine.w_tensor / engine.w_deriv
# with a leading pair axis, on simplex rows)
# --------------------------------------------------------------------------

def _einsum(spec: str, *ops):
    """einsum pinned to ``optimize=False``: a fixed, batch-size
    invariant contraction path."""
    return np.einsum(spec, *ops, optimize=False)


def _w_factors(E, ca, cb, tuv):
    """The three 1-D factors ``[q, A, B, n, s]`` of `_w_class`."""
    n = np.arange(E.shape[1])[:, None]
    ia = ca[:, None, None, None, :]
    jb = cb[None, :, None, None, :]
    return [E[:, n, d, ia[..., d], jb[..., d], tuv[:, d]] for d in range(3)]


def _w_class(E, ca, cb, tuv):
    """``W[q, A, B, n, s]`` — the class's Cartesian-component expansion
    on the Hermite rows ``tuv`` (shape ``(S, 3)``), gathered straight
    into the layout whose ``reshape(q, A*B, N*S)`` is a GEMM operand.

    The runtime passes `hermite_simplex` rows: with ``E[i, j, t] = 0``
    for ``t > i + j`` in every dimension, the rest of the Hermite cube
    is exactly zero.

    The gathers leave the factors pair-fastest; the product is laid out
    C-contiguous, so a GEMM reading it takes the same route (BLAS) for
    any number of pairs and a pair's result does not depend on the
    chunk or the stack it is in.
    """
    Gx, Gy, Gz = _w_factors(E, ca, cb, tuv)
    return np.multiply(Gx * Gy, Gz, order="C")


def _w_deriv_1d(E, aexp, bexp, ca, cb, tuv, side, dim):
    """1-D factor of `_w_class` along ``dim``, differentiated in the bra
    or ket center: ``d/dA_x Omega_ij = 2a Omega_{i+1,j} - i Omega_{i-1,j}``;
    the shifted-up term reaches one Hermite order further, so the
    runtime rows are those of the simplex one order up."""
    if side not in ("bra", "ket"):
        raise ValueError(f"side must be 'bra' or 'ket', got {side!r}")
    n = np.arange(E.shape[1])[:, None]
    ia = ca[:, None, None, None, dim]
    jb = cb[None, :, None, None, dim]
    t = tuv[:, dim]
    if side == "bra":
        return (
            2.0 * aexp[:, None, None, :, None] * E[:, n, dim, ia + 1, jb, t]
            - ia * E[:, n, dim, np.maximum(ia - 1, 0), jb, t]
        )
    return (
        2.0 * bexp[:, None, None, :, None] * E[:, n, dim, ia, jb + 1, t]
        - jb * E[:, n, dim, ia, np.maximum(jb - 1, 0), t]
    )


def _w_deriv_class(E, aexp, bexp, ca, cb, tuv, side, axis):
    """``d/dX_axis`` of `_w_class` (X the bra or ket center)."""
    Gs = _w_factors(E, ca, cb, tuv)
    Gs[axis] = _w_deriv_1d(E, aexp, bexp, ca, cb, tuv, side, axis)
    return Gs[0] * Gs[1] * Gs[2]


def _w_deriv_stack(E, aexp, bexp, ca, cb, tuv):
    """The six (side, axis) derivative expansions of a class chunk as
    one GEMM operand ``(q, 6, A*B, N*S)``: bra x, y, z, then ket. Each
    1-D factor is gathered once and the products of the two
    undifferentiated ones are shared between the sides. The operand is
    C-contiguous (see `_w_class`)."""
    G = _w_factors(E, ca, cb, tuv)
    rest = (G[1] * G[2], G[0] * G[2], G[0] * G[1])
    dW = np.empty((E.shape[0], 6, *rest[0].shape[1:]))
    for i, side in enumerate(("bra", "ket")):
        for axis in range(3):
            np.multiply(
                _w_deriv_1d(E, aexp, bexp, ca, cb, tuv, side, axis),
                rest[axis], out=dW[:, 3 * i + axis],
            )
    return dW.reshape(dW.shape[0], 6, len(ca) * len(cb), -1)


def _deriv_expansions(classes, workspace) -> list[np.ndarray]:
    """Every class's `_w_deriv_stack` operand over all its pairs, on the
    derivative's simplex ``la + lb + 1``: built once per evaluation and
    held on the class — which lives in the evaluation's scratch and is
    freed with it — so the nuclear derivative slices it and the
    three-centre derivative takes its kept rows. A class's rows are
    independent of the pairs beside them, so a held operand is bitwise
    the one a chunk would build."""
    built = 0
    for cls in classes:
        if cls.dW is None:
            cls.dW = _w_deriv_stack(
                cls.E, cls.a, cls.b, comp_arrays(cls.la), comp_arrays(cls.lb),
                hermite_simplex(cls.la + cls.lb + 1),
            )
            built += cls.dW.nbytes
    if workspace is not None:
        workspace.record_bra_expansions(
            built, sum(cls.dW.nbytes for cls in classes))
    return [cls.dW for cls in classes]


def _block_indices(oa, nfa, ob, nfb):
    """Broadcastable function-index arrays for block scatter."""
    rows = oa[:, None] + np.arange(nfa)[None, :]
    cols = ob[:, None] + np.arange(nfb)[None, :]
    return rows, cols


def _scatter_blocks(out, frag, rows, cols, blk):
    """Write ``(Q, nfa, nfb)`` blocks into ``out (F, nbf, nbf)``, then
    every transposed image (diagonal blocks end up holding ``blk.T``)."""
    f = frag[:, None, None]
    out[f, rows[:, :, None], cols[:, None, :]] = blk
    out[f, cols[:, :, None], rows[:, None, :]] = blk.transpose(0, 2, 1)


# --------------------------------------------------------------------------
# Hermite Coulomb tables, built once per evaluation
# --------------------------------------------------------------------------

def _build_tables(requests):
    """Kernel-layout tables for ``(order, inputs)`` requests, ``inputs()``
    returning the recursion's ``alpha (q, N, m)``, ``PQ`` (one more axis,
    of 3) and seed prefactor ``K (q, N, m)`` (`_ket_inputs`): the one
    caller of `r_tables_simplex`, one call per request, each request's
    inputs formed just before its call and dropped after. Returns each
    request's table ``(q, N, nsimplex(order), m)``, the kind's prefactor
    folded in.

    Every operation from ``alpha`` to ``R`` is elementwise along the
    batch, so a column is bitwise independent of the request it came in
    and of any batch split.
    """
    out = []
    for order, inputs in requests:
        alpha, PQ, K = inputs()
        q, N, m = alpha.shape
        R = r_tables_simplex(order, alpha.reshape(q * N, m),
                             PQ.reshape(q * N, m, 3), K.reshape(q * N, m))
        out.append(R.reshape(q, N, -1, m))
    return out


def _ket_inputs(p, cc, P, ket, frag=None):
    """Recursion inputs between a bra chunk (``p``, contraction
    products ``cc (q, N)``, centers ``P (q, N, 3)``) and the ``m``
    columns of ``ket`` — a `_group_statics` entry, or any mapping with
    exponents ``qk`` and centers ``Pk`` that broadcast against ``(q, N,
    m)``: composite exponents ``alpha = pq / (p + q)``, separations
    ``P - C`` and the kind's prefactor ``K``, which the recursion folds
    into its seeds: ``2 pi^{5/2} cc cck / (p q sqrt(p + q))`` (an aux
    group has no ``cck``: its contraction coefficients differ per
    component and ride in ``comp_norms``). ``qk = None`` is a set of
    point charges: ``alpha = p``, ``K = 2 pi cc / p``. With the pairs'
    fragments ``frag (q,)``, ``Pk (F, m, 3)`` holds every fragment's
    centres and each pair reads its own."""
    p4 = p[:, :, None]
    c4 = cc[:, :, None]
    qk = ket["qk"]
    Pk = ket["Pk"] if frag is None else ket["Pk"][frag][:, None]
    PQ = P[:, :, None, :] - Pk
    if qk is None:
        shape = PQ.shape[:-1]
        K = c4 * (2.0 * np.pi / p4)
        return np.broadcast_to(p4, shape), PQ, np.broadcast_to(K, shape)
    num = _TWO_PI_52 * c4
    if "cck" in ket:
        num = num * ket["cck"]
    pq, s = p4 * qk, p4 + qk
    return pq / s, PQ, num / (pq * np.sqrt(s))


def _kernel(R, idx):
    """The Hermite Coulomb kernel ``M2 (q, N*Tb, Tk*m)`` of a
    kernel-layout table ``R (q, N, nsimplex, m)``: its rows ``idx (Tb,
    Tk)`` (`simplex_sum_index` at the table's order), one contiguous
    take along the simplex axis."""
    q, N, _, m = R.shape
    Tb, Tk = idx.shape
    return np.take(R, idx.ravel(), axis=2).reshape(q, N * Tb, Tk * m)


def _bra(cls: ShellClass, ids=None):
    """A shell class — its pairs ``ids``, default all — as the bra side
    of a `CoulombTables` set."""
    sel = slice(None) if ids is None else ids
    return dict(
        ids=np.arange(cls.npair) if ids is None else ids,
        p=cls.p[sel], cc=cls.cc[sel], P=cls.P[sel], frag=cls.frag[sel],
        L=cls.la + cls.lb,
    )


def _table_bytes(order: int, npairs: int, width: int) -> int:
    """Bytes of the table of ``npairs`` bra pairs at ``order``
    with ``width`` columns a pair: what `CoulombTables` holds for one
    (class, group), and what `table_bytes` sums from a composition."""
    return 8 * hermite_simplex(order).shape[0] * npairs * width


class CoulombTables:
    """The Hermite Coulomb tables of one evaluation, built once.

    One set serves a value driver and the derivative driver that follows
    it at the same geometry (`eri3c` / `contract_eri3c_deriv`, `eri2c` /
    `contract_eri2c_deriv`, `nuclear` / `contract_nuclear_deriv`). For
    bra class ``ci`` (a mapping with the pairs' class-local ``ids``,
    ``p``, ``cc (q, N)``, centers ``P`` and total momentum ``L``) and
    ket column group ``gi`` (``qk``, ``Pk``, simplex order ``l``) it
    holds the table ``R (q, N, nsimplex(L + l + 1), m)`` in the layout
    its kernels read — pair-major, the simplex axis between the bra
    primitive and the ket column — with the kind's prefactor folded
    into the recursion's seeds (`_ket_inputs`): the order the derivative
    reads whole and of which the value driver reads the order-``L + l``
    sub-simplex (`engine.simplex_sum_index`) — one rule, so a pair's
    table never depends on who built it. A kernel is one ``take`` along
    the simplex axis (`kernel`).

    What a set *holds* is bounded by ``budget`` bytes (classes in order,
    whatever fits); `table` builds the rest chunk by chunk as it is
    asked for, by the same `_build_tables`. ``found`` is the `payload`
    another driver of this evaluation left in its scope: its tables
    are used where they are (they count against the budget), and the
    pairs this driver keeps that the other one screened out are built
    beside them (``rebuilt_pairs``). Found, rebuilt and chunk-built
    columns are bitwise equal (`_build_tables`).
    """

    def __init__(self, bras, kets, budget: int, found=None) -> None:
        self.bras, self.kets = bras, kets
        self.ids = [bra["ids"] for bra in bras]
        #: (ci, gi) -> (tables, cols): ``cols[i]`` is the column of this
        #: set's pair ``i`` in ``tables`` laid side by side (the found
        #: one, then the rebuilt pairs'); None when it is ``i`` itself
        self.R: dict[tuple[int, int], tuple[list, np.ndarray | None]] = {}
        #: whether every (class, group) fit the budget
        self.complete = True
        self.rebuilt_pairs = 0
        found_ids, found_R = found if found is not None else ([], {})
        self.nbytes = sum(8 * R.size for R in found_R.values())
        requests, targets = [], []
        for ci, ids in enumerate(self.ids):
            if not ids.size:
                continue
            cols = missing = None
            if found is not None and not np.array_equal(found_ids[ci], ids):
                # the other driver's mask differs: where it has my pairs
                # (a class it dropped whole has no table to be found)
                have = found_ids[ci]
                if have.size:
                    cols = np.minimum(np.searchsorted(have, ids), have.size - 1)
                    missing = np.nonzero(have[cols] != ids)[0]
                    cols[missing] = have.size + np.arange(missing.size)
                self.rebuilt_pairs += ids.size if missing is None else missing.size
            for gi in range(len(kets)):
                have = found_R.get((ci, gi))
                if have is not None and (missing is None or not missing.size):
                    self.R[ci, gi] = [have], cols
                    continue
                order, width = self._dims(ci, gi)
                count = ids.size if have is None else missing.size
                nbytes = _table_bytes(order, count, width)
                if self.nbytes + nbytes > budget:
                    self.complete = False
                    continue
                self.nbytes += nbytes
                if have is None:
                    self.R[ci, gi] = [], None
                    requests.append(self._request(ci, gi, slice(None)))
                else:
                    self.R[ci, gi] = [have], cols
                    requests.append(self._request(ci, gi, missing))
                targets.append((ci, gi))
        #: distinct orders built, and the size of what was built
        self.orders = sorted({order for order, _ in requests})
        self.elements = 0
        for key, R in zip(targets, _build_tables(requests)):
            self.R[key][0].append(R)
            self.elements += R.size

    @property
    def payload(self):
        """What another driver finds of a set built from nothing: the
        pair ids and one table per held (class, group)."""
        return self.ids, {key: tables[0] for key, (tables, _) in self.R.items()}

    def _dims(self, ci: int, gi: int) -> tuple[int, int]:
        """Table order and columns per pair of (class, group)."""
        bra, ket = self.bras[ci], self.kets[gi]
        return (
            bra["L"] + ket["l"] + 1,
            bra["p"].shape[1] * ket["Pk"].shape[-2],
        )

    def _request(self, ci: int, gi: int, sel):
        """The `_build_tables` request for pairs ``sel`` of (class,
        group)."""
        bra, ket = self.bras[ci], self.kets[gi]
        frag = bra.get("frag")
        return self._dims(ci, gi)[0], lambda: _ket_inputs(
            bra["p"][sel], bra["cc"][sel], bra["P"][sel], ket,
            None if frag is None else frag[sel],
        )

    def table(self, ci: int, gi: int, sl: slice):
        """``R (q, N, nsimplex, m)`` of pairs ``sl`` of class ``ci``
        against group ``gi``: a view of the held table (its pairs
        gathered where the masks differ), or built now when the class is
        beyond the budget."""
        held = self.R.get((ci, gi))
        if held is None:
            return _build_tables([self._request(ci, gi, sl)])[0]
        tables, cols = held
        if cols is None:
            return tables[0][sl]
        cols = cols[sl]
        out = np.empty((cols.size, *tables[0].shape[1:]))
        first = 0
        for R in tables:
            here = (cols >= first) & (cols < first + R.shape[0])
            out[here] = R[cols[here] - first]
            first += R.shape[0]
        return out

    def kernel(self, ci: int, gi: int, sl: slice, Lb: int):
        """`_kernel` of pairs ``sl`` of class ``ci`` against group
        ``gi`` on the bra rows of simplex ``Lb`` (the class's ``L``, or
        ``L + 1`` for its derivative)."""
        idx = simplex_sum_index(Lb, self.kets[gi]["l"], self._dims(ci, gi)[0])
        return _kernel(self.table(ci, gi, sl), idx)


def _coulomb_tables(workspace, kind, stacks, points, bras, kets) -> CoulombTables:
    """This driver's `CoulombTables`, through the evaluation's scratch
    (`IntegralWorkspace.coulomb_tables`) when there is a workspace."""
    def build(found, budget):
        return CoulombTables(bras, kets, budget, found)

    if workspace is None:
        return build(None, table_budget(None))
    return workspace.coulomb_tables(kind, stacks, points, build)


def table_bytes(basis: BasisSet, aux: BasisSet, natoms: int,
                workspace: IntegralWorkspace | None = None) -> int:
    """The bytes of a fragment's largest Hermite Coulomb table set
    (`eri3c`, `nuclear` or `eri2c`) with nothing screened, plus its
    held bra-derivative expansions (`_deriv_expansions`), from its
    composition alone and by the drivers' own arithmetic: what one more
    fragment of this composition adds to what a stack holds."""
    shells = basis.shells
    classes: dict[tuple, int] = {}
    for i, j in canonical_shell_pairs(basis):
        key = (shells[i].l, shells[j].l, shells[i].nprim * shells[j].nprim)
        classes[key] = classes.get(key, 0) + 1
    sites = [(grp.lmax, grp.func_idx.shape[0])
             for grp in _aux_groups(workspace, aux)]
    eri3c = sum(_table_bytes(la + lb + l + 1, Q, N * m)
                for (la, lb, N), Q in classes.items() for l, m in sites)
    nuclear = sum(_table_bytes(la + lb + 1, Q, N * natoms)
                  for (la, lb, N), Q in classes.items())
    eri2c = sum(_table_bytes(lb + lk + 1, mb, mk)
                for lb, mb in sites for lk, mk in sites)
    nf = [(l + 1) * (l + 2) // 2 for l in range(max(sh.l for sh in shells) + 1)]
    expansions = sum(_table_bytes(la + lb + 1, Q, 6 * nf[la] * nf[lb] * N)
                     for (la, lb, N), Q in classes.items())
    return max(eri3c, nuclear, eri2c) + expansions


# --------------------------------------------------------------------------
# One-electron matrices
# --------------------------------------------------------------------------

def _overlap_1d(E, ca, cb):
    """Per-primitive overlap factors ``[q, n, A, B]`` of a class."""
    G = E[:, :, 0, ca[:, None, 0], cb[None, :, 0], 0]
    G = G * E[:, :, 1, ca[:, None, 1], cb[None, :, 1], 0]
    return G * E[:, :, 2, ca[:, None, 2], cb[None, :, 2], 0]


def _onee_blocks(tot, p, cc, norms):
    """Contract per-primitive factors ``tot[q, n, A, B]`` with the
    Gaussian-product prefactor: normalized blocks ``(q, A, B)``."""
    pref = cc * (np.pi / p) ** 1.5
    # the gathered factors made contiguous: the reduction then runs the
    # same way for any number of pairs
    return _einsum(
        "qn,qnab->qab", pref, np.ascontiguousarray(tot)
    ) * norms[None]


def _onee_stack(bases, workspace, factors) -> np.ndarray:
    """A one-electron matrix of every basis of a stack, ``(F, nbf,
    nbf)``, from per-class primitive factors ``factors(cls, ca, cb) ->
    [q, n, A, B]``."""
    out = np.zeros((len(bases), bases[0].nbf, bases[0].nbf))
    for cls in stack_shell_classes(bases, workspace):
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        blk = _onee_blocks(factors(cls, ca, cb), cls.p, cls.cc, cls.norms)
        rows, cols = _block_indices(cls.oa, cls.nfa, cls.ob, cls.nfb)
        _scatter_blocks(out, cls.frag, rows, cols, blk)
    return out


@stack_driver
def overlap(
    bases,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """Overlap matrices of a stack of bases of one composition, shape
    ``(F, nbf, nbf)``."""
    return _onee_stack(
        bases, workspace, lambda cls, ca, cb: _overlap_1d(cls.E, ca, cb)
    )


def _kinetic_1d(E, bexp, ca, cb, deriv_axis=None, aexp=None):
    """Per-dimension overlap/kinetic 1D factors for a class, mirroring
    `onee._kinetic_block` (``deriv_axis=None``) or
    `onee._kinetic_deriv_block` (bra-derivative along ``deriv_axis``)."""
    Svals, Kvals = [], []
    for dim in range(3):
        ia = ca[:, None, dim]
        jb = cb[None, :, dim]
        jm2 = np.maximum(jb - 2, 0)
        if dim == deriv_axis:
            a4 = aexp[:, :, None, None]
            iam = np.maximum(ia - 1, 0)
            s = (
                2.0 * a4 * E[:, :, dim, ia + 1, jb, 0]
                - ia[None, None] * E[:, :, dim, iam, jb, 0]
            )
            s_m2 = (
                2.0 * a4 * E[:, :, dim, ia + 1, jm2, 0]
                - ia[None, None] * E[:, :, dim, iam, jm2, 0]
            )
            s_p2 = (
                2.0 * a4 * E[:, :, dim, ia + 1, jb + 2, 0]
                - ia[None, None] * E[:, :, dim, iam, jb + 2, 0]
            )
        else:
            s = E[:, :, dim, ia, jb, 0]
            s_m2 = E[:, :, dim, ia, jm2, 0]
            s_p2 = E[:, :, dim, ia, jb + 2, 0]
        b4 = bexp[:, :, None, None]
        k = -0.5 * (
            (jb * (jb - 1))[None, None] * s_m2
            - 2.0 * b4 * (2 * jb + 1)[None, None] * s
            + 4.0 * b4**2 * s_p2
        )
        Svals.append(s)
        Kvals.append(k)
    return (
        Kvals[0] * Svals[1] * Svals[2]
        + Svals[0] * Kvals[1] * Svals[2]
        + Svals[0] * Svals[1] * Kvals[2]
    )


@stack_driver
def kinetic(
    bases,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """Kinetic-energy matrices of a stack, shape ``(F, nbf, nbf)``."""
    return _onee_stack(
        bases, workspace, lambda cls, ca, cb: _kinetic_1d(cls.E, cls.b, ca, cb)
    )


def _nuclear_blocks(E, R, Z, ca, cb, norms):
    """Nuclear-attraction blocks ``(q, nfa, nfb)`` of one class chunk
    for point charges ``Z``; ``R (q, N, nsimplex(L + 1), nC)`` is the
    chunk's `CoulombTables` view."""
    L = int(ca[0].sum() + cb[0].sum())  # component powers sum to l
    tuv = hermite_simplex(L)
    qc, N = R.shape[:2]
    nT = tuv.shape[0]
    W = _w_class(E, ca, cb, tuv).reshape(qc, -1, N * nT)
    rows = simplex_sum_index(L, 0, L + 1)[:, 0]
    # pair-major and contiguous, as every operand here: a pair's block
    # does not depend on the chunk or the stack it is in
    t1 = _einsum("qntc,c->qnt", np.take(R, rows, axis=2), Z)
    val = -_einsum("qxk,qk->qx", W, t1.reshape(qc, N * nT))
    return val.reshape(qc, len(ca), len(cb)) * norms[None]


def _nuclear_tables(workspace, bases, mols, bras):
    """The `CoulombTables` between ``bras`` and the nuclei of each
    fragment's molecule (point charges: one ket group of order 0
    without an exponent)."""
    ket = dict(qk=None, Pk=np.stack([mol.coords for mol in mols]), l=0)
    points = np.concatenate([
        np.column_stack([mol.atomic_numbers, mol.coords]) for mol in mols
    ])
    return _coulomb_tables(
        workspace, "nuclear", (bases,), points, bras, [ket]
    )


@stack_driver
def nuclear(
    bases,
    mols,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """Nuclear-attraction matrices (negative definite) of a stack
    (``mols`` of one composition, each in its basis), shape ``(F, nbf,
    nbf)``."""
    V = np.zeros((len(bases), bases[0].nbf, bases[0].nbf))
    nC = mols[0].natoms
    Z = mols[0].atomic_numbers.astype(float)
    classes = stack_shell_classes(bases, workspace)
    tabs = _nuclear_tables(
        workspace, bases, mols, [_bra(cls) for cls in classes]
    )
    for ci, cls in enumerate(classes):
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        nT = hermite_simplex(cls.la + cls.lb + 1).shape[0]
        N, X = cls.nprim, cls.nfa * cls.nfb
        blk_all = np.empty((cls.npair, cls.nfa, cls.nfb))
        # largest per-pair intermediates: R (nC, N, nT) and W (X, N, nT)
        for sl in _chunks(cls.npair, max(nC, X) * N * nT):
            blk_all[sl] = _nuclear_blocks(
                cls.E[sl], tabs.table(ci, 0, sl), Z, ca, cb, cls.norms,
            )
        rows, cols = _block_indices(cls.oa, cls.nfa, cls.ob, cls.nfb)
        _scatter_blocks(V, cls.frag, rows, cols, blk_all)
    return V


# --------------------------------------------------------------------------
# One-electron contracted derivatives
# --------------------------------------------------------------------------

def _contract_bra_deriv(bases, X, workspace, deriv_1d) -> np.ndarray:
    """``g[f, atom, xyz] = sum_{mu nu} X_{f mu nu} dM_{mu nu}/d(atom,
    xyz)`` for every fragment ``f`` of a stack and a one-electron matrix
    ``M`` whose bra-differentiated per-primitive factors are
    ``deriv_1d(E, a, b, ca, cb, axis) -> [q, n, A, B]``.

    Translational invariance (``dM/dB = -dM/dA``) means only bra
    derivatives are computed; same-atom pairs vanish and are skipped.
    """
    natoms = int(max(sh.atom for sh in bases[0].shells)) + 1
    g = np.zeros((len(bases), natoms, 3))
    Xs = X + X.transpose(0, 2, 1)
    for cls in stack_shell_classes(bases, workspace):
        mask = (~cls.diag) & (cls.atom_a != cls.atom_b)
        if not mask.any():
            continue
        sub = cls.subset(mask)
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        pref = sub.cc * (np.pi / sub.p) ** 1.5
        rows, cols = _block_indices(sub.oa, cls.nfa, sub.ob, cls.nfb)
        Xblk = Xs[
            sub.frag[:, None, None], rows[:, :, None], cols[:, None, :]
        ] * cls.norms[None]
        vals = np.empty((sub.npair, 3))
        for axis in range(3):
            blk = _einsum(
                "qn,qnab->qab", pref, np.ascontiguousarray(
                    deriv_1d(sub.E, sub.a, sub.b, ca, cb, axis)),
            )
            vals[:, axis] = _einsum("qab,qab->q", blk, Xblk)
        np.add.at(g, (sub.frag, sub.atom_a), vals)
        np.subtract.at(g, (sub.frag, sub.atom_b), vals)
    return g


def _overlap_deriv_1d(E, a, b, ca, cb, axis):
    # the overlap is the (0, 0, 0) Hermite term
    dW = _w_deriv_class(E, a, b, ca, cb, hermite_simplex(0), "bra", axis)
    return dW[..., 0].transpose(0, 3, 1, 2)


def _kinetic_deriv_1d(E, a, b, ca, cb, axis):
    return _kinetic_1d(E, b, ca, cb, deriv_axis=axis, aexp=a)


@stack_driver
def contract_overlap_deriv(
    bases,
    X: np.ndarray,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """``sum X_{f mu nu} dS_{mu nu}/dR`` via bra-side differentiation for
    every fragment of a stack, ``X (F, nbf, nbf)``: shape ``(F, natoms,
    3)``."""
    return _contract_bra_deriv(bases, X, workspace, _overlap_deriv_1d)


@stack_driver
def contract_kinetic_deriv(
    bases,
    X: np.ndarray,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """``sum X_{f mu nu} dT_{mu nu}/dR`` via bra-side differentiation for
    every fragment of a stack."""
    return _contract_bra_deriv(bases, X, workspace, _kinetic_deriv_1d)


@stack_driver
def contract_nuclear_deriv(
    bases,
    mols,
    X: np.ndarray,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """``sum X_{f mu nu} dV_{mu nu}/dR`` for every fragment of a stack,
    including operator-center terms: shape ``(F, natoms, 3)``.

    Bra/ket derivatives come from the angular-momentum shift; the
    derivative with respect to each nuclear position C follows from
    translational invariance of each C term:
    ``dV_C/dC = -(dV_C/dA + dV_C/dB)``.
    """
    F, natoms = len(bases), mols[0].natoms
    g = np.zeros((F, natoms, 3))
    Zh = mols[0].atomic_numbers.astype(float)
    nC = natoms
    Xs = X + X.transpose(0, 2, 1)
    classes = stack_shell_classes(bases, workspace)
    tabs = _nuclear_tables(
        workspace, bases, mols, [_bra(cls) for cls in classes]
    )
    dWs = _deriv_expansions(classes, workspace)
    for ci, (cls, dW) in enumerate(zip(classes, dWs)):
        nT = hermite_simplex(cls.la + cls.lb + 1).shape[0]
        N, X_ = cls.nprim, cls.nfa * cls.nfb
        rows, cols = _block_indices(cls.oa, cls.nfa, cls.ob, cls.nfb)
        at = (cls.frag[:, None, None], rows[:, :, None], cols[:, None, :])
        Xg = np.where(cls.diag[:, None, None], X[at], Xs[at]) * cls.norms[None]
        Xf = Xg.reshape(cls.npair, X_)
        # per-class accumulators so chunking cannot change the result
        vals_all = np.empty((cls.npair, 2, 3, nC))
        # largest per-pair intermediates: R (N, nT, nC), t1 (6, N, nT)
        for sl in _chunks(cls.npair, max(nC, 6) * N * nT):
            R = tabs.table(ci, 0, sl)
            qc = R.shape[0]
            # all six (side, axis) operands through one pair of GEMMs
            t1 = bgemm(Xf[sl][:, None, None, :], dW[sl])
            v = -bgemm(t1.reshape(qc, 6, N * nT), R.reshape(qc, N * nT, nC))
            vals_all[sl] = v.reshape(qc, 2, 3, nC) * Zh
        segments = _segments(cls.frag, F)
        for si, atoms_side in enumerate((cls.atom_a, cls.atom_b)):
            for axis in range(3):
                v = vals_all[:, si, axis, :]
                np.add.at(g[..., axis], (cls.frag, atoms_side), v.sum(axis=1))
                for f, seg in enumerate(segments):
                    g[f, :, axis] -= v[seg].sum(axis=0)
    return g


# --------------------------------------------------------------------------
# Schwarz bounds
# --------------------------------------------------------------------------

@stack_driver
def schwarz_pair_bounds(
    bases,
    workspace: IntegralWorkspace | None = None,
    frags=None,
) -> np.ndarray:
    """Cauchy-Schwarz bounds ``Q_ij = max sqrt((ab|ab))`` per shell pair
    of the fragments ``frags`` (default all) of a stack, shape
    ``(len(frags), nshells, nshells)``, from the stack's shell classes.

    Standard screening for all ERI classes: ``|(ab|cd)| <= Q_ab Q_cd``
    and ``|(ab|P)| <= Q_ab Q_P``. The bound ignores the component
    normalization (O(1) factors). Only the diagonal of each ``(ab|ab)``
    block is assembled. ``workspace`` serves the packed shell classes;
    cached *bound tables* live one level up in
    `IntegralWorkspace.schwarz_bounds_stack`, the one table per fragment
    every screened driver (and the loop reference) takes its decisions
    from.
    """
    frags = np.arange(len(bases)) if frags is None else np.asarray(frags)
    row = np.full(len(bases), -1)
    row[frags] = np.arange(frags.size)
    nsh = bases[0].nshells
    Qmat = np.zeros((frags.size, nsh, nsh))
    for cls in stack_shell_classes(bases, workspace):
        if frags.size < len(bases):
            cls = cls.subset(row[cls.frag] >= 0)
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        L = cls.la + cls.lb
        tuv = hermite_simplex(L)
        Tb = tuv.shape[0]
        phase = _phase(tuv)
        N, X = cls.nprim, cls.nfa * cls.nfb
        bound_all = np.empty(cls.npair)
        # largest per-pair intermediate: the gathered (N*Tb, N*Tb) kernel
        for sl in _chunks(cls.npair, N * N * Tb * Tb):
            p = cls.p[sl]
            cc = cls.cc[sl]
            P = cls.P[sl]
            qc = cls.p[sl].shape[0]
            Wb = _w_class(cls.E[sl], ca, cb, tuv)
            # ket columns of the kernel run (Tb, N)
            Wk = (Wb * phase).transpose(0, 1, 2, 4, 3).reshape(qc, X, Tb * N)
            # the pair's own primitives are the ket; no derivative
            # driver follows, so the table is built here at order 2L
            ket = dict(qk=p[:, None, :], cck=cc[:, None, :], Pk=P[:, None])
            R, = _build_tables([(2 * L, lambda: _ket_inputs(p, cc, P, ket))])
            M2 = _kernel(R, simplex_sum_index(L, L))
            t1 = bgemm(Wb.reshape(qc, X, N * Tb), M2)
            diag = _einsum("qxk,qxk->qx", t1, Wk)
            bound_all[sl] = np.sqrt(np.max(np.abs(diag), axis=1))
        at = row[cls.frag]
        Qmat[at, cls.ish, cls.jsh] = bound_all
        Qmat[at, cls.jsh, cls.ish] = bound_all
    return Qmat


# --------------------------------------------------------------------------
# Three-center integrals and derivative contraction
# --------------------------------------------------------------------------

def _group_statics(groups, auxs):
    """Per-auxiliary-group ket expansions on the simplex rows of the
    group's ``lmax`` (Hermite phase folded in), built once per call: the
    one place that turns an `AuxGroup` into what the kernels read —
    ``(m, C, Tk, Wk, func_idx, comp_norms, atoms)`` plus the ket side
    of its `CoulombTables` (``qk``, ``Pk``, ``l``). ``groups`` are those
    of the stack's composition and ``auxs`` its fitting bases: ``Pk (F,
    m, 3)`` holds the sites' centres in every fragment, nothing else
    depends on the geometry."""
    centers = np.array([[sh.center for sh in aux.shells] for aux in auxs])
    statics = []
    for grp in groups:
        tuv = hermite_simplex(grp.lmax)
        m, C = grp.func_idx.shape
        Wk = _w_class(grp.pd.E[:, None], grp.comps, _S_COMP, tuv)
        Wk = Wk.reshape(m, C, -1) * _phase(tuv)
        statics.append(
            dict(
                grp=grp, l=grp.lmax, m=m, C=C, Tk=tuv.shape[0],
                qk=grp.pd.p, Pk=centers[:, grp.shells], Wk=Wk,
                func_idx=grp.func_idx,
                comp_norms=grp.comp_norms,
                atoms=grp.atoms,
            )
        )
    return statics


def _group_apply_batched(M2, st, Wb2):
    """Contract bra expansions ``Wb2 (qc, X, N*Tb)`` with the kernel
    pieces of one aux group: ``(qc, m, X, C)`` blocks."""
    qc, X, _ = Wb2.shape
    t1 = bgemm(Wb2, M2)
    t1 = np.ascontiguousarray(
        t1.reshape(qc, X, st["Tk"], st["m"]).transpose(0, 3, 1, 2)
    )
    return bgemm(t1, st["Wk"].transpose(0, 2, 1)[None])


def _eri3c_scatter(out, st, M2, Wb2, norms, frag, rows, cols, off):
    """Contract one (bra chunk, aux group), normalize, and write the
    ``(mu nu|P)`` blocks and their ``(nu mu|P)`` images (off-diagonal
    pairs ``off``) into ``out (F, nbf, nbf, naux)``."""
    nfa, nfb = norms.shape
    blk = _group_apply_batched(M2, st, Wb2)
    blk = blk.reshape(-1, st["m"], nfa, nfb, st["C"])
    blk = blk * norms[None, None, :, :, None]
    blk = blk * st["comp_norms"][None, :, None, None, :]
    fi = st["func_idx"][None, None, None, :, :]
    f = frag[:, None, None, None, None]
    out[
        f, rows[:, :, None, None, None], cols[:, None, :, None, None], fi
    ] = blk.transpose(0, 2, 3, 1, 4)
    if off.size:
        out[
            f[off], cols[off][:, :, None, None, None],
            rows[off][:, None, :, None, None], fi,
        ] = blk[off].transpose(0, 3, 2, 1, 4)


def _record_screens(workspace, kind, npairs, nfrag, skipped) -> None:
    """One `IntegralWorkspace.record_screen` per fragment of a stack;
    ``skipped`` holds per class the fragments of its skipped pairs and
    their bounds. A fragment's neglected bound is one exactly rounded
    sum, independent of class order, chunking and stack."""
    if skipped:
        frag = np.concatenate([f for f, _ in skipped])
        bound = np.concatenate([b for _, b in skipped])
    else:
        frag, bound = np.empty(0, dtype=np.intp), np.empty(0)
    for f in range(nfrag):
        mine = bound[frag == f]
        workspace.record_screen(kind, npairs, mine.size, math.fsum(mine))


@stack_driver
def eri3c(
    bases,
    auxs,
    screen: float = 0.0,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """Three-center integrals ``(mu nu | P)`` of every fragment of a
    stack, shape ``(F, nbf, nbf, naux)``.

    With ``screen > 0`` a bra shell pair of a fragment is skipped when
    its Schwarz bound ``Q_ab * max_P Q_P`` (the fragment's own table)
    cannot reach the threshold — every neglected integral is
    individually below ``screen`` and the summed bound of everything
    skipped is accounted to the workspace, per fragment
    (`IntegralWorkspace.record_screen`). ``workspace`` additionally
    serves cached shell classes, aux scaffolding and bound tables.
    """
    F = len(bases)
    out = np.zeros((F, bases[0].nbf, bases[0].nbf, auxs[0].nbf))
    statics = _group_statics(_aux_groups(workspace, auxs[0]), auxs)
    classes = stack_shell_classes(bases, workspace)
    Q = None
    if screen > 0.0:
        Q = _schwarz_tables(bases, workspace)
        qaux = _aux_bounds(auxs[0], workspace)
        qaux_max = float(qaux.max())
        qaux_sum = float(qaux.sum())
    skipped: list[tuple[np.ndarray, np.ndarray]] = []
    kept, bras = [], []
    for cls in classes:
        ids = None
        if Q is not None:
            qv = Q[cls.frag, cls.ish, cls.jsh]
            keep = qv * qaux_max > screen
            if not keep.all():
                skip = ~keep
                nfab = (cls.nfa * cls.nfb) * np.where(cls.diag[skip], 1.0, 2.0)
                skipped.append((cls.frag[skip], qv[skip] * qaux_sum * nfab))
                ids = np.nonzero(keep)[0]
        kept.append(ids)
        bras.append(_bra(cls, ids))
    tabs = _coulomb_tables(
        workspace, "eri3c", (bases, auxs), None, bras, statics
    )
    for ci, (cls, ids) in enumerate(zip(classes, kept)):
        npair = cls.npair if ids is None else ids.size
        if npair == 0:
            continue
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        L = cls.la + cls.lb
        tuv = hermite_simplex(L)
        Tb = tuv.shape[0]
        N, X = cls.nprim, cls.nfa * cls.nfb
        # largest per-pair intermediates: the gathered kernel M2
        # (N*Tb, Tk*m), the bra operand (X, N*Tb), their product
        mTk = max(st["m"] * st["Tk"] for st in statics)
        per_pair = max(N * Tb * mTk, X * N * Tb, X * mTk)
        for sl in _chunks(npair, per_pair):
            # the kept pairs of the chunk, gathered chunk by chunk
            at = sl if ids is None else ids[sl]
            Wb2 = _w_class(cls.E[at], ca, cb, tuv).reshape(-1, X, N * Tb)
            rows, cols = _block_indices(cls.oa[at], cls.nfa, cls.ob[at],
                                        cls.nfb)
            off = np.nonzero(~cls.diag[at])[0]
            for gi, st in enumerate(statics):
                _eri3c_scatter(
                    out, st, tabs.kernel(ci, gi, sl, L), Wb2, cls.norms,
                    cls.frag[at], rows, cols, off,
                )
    if workspace is not None and screen > 0.0:
        _record_screens(workspace, "eri3c",
                        len(canonical_shell_pairs(bases[0])), F, skipped)
    return out


def _eri3c_deriv_values(Zs, at, norms_flat, pfac, st, dW, M2) -> np.ndarray:
    """Contracted ``(q, 6, m)`` values of one (bra chunk, aux group):
    the coefficients of the chunk's pairs ``at = (frag, rows, cols)``
    folded into the group's ket expansion, against the stacked bra
    derivative operand ``dW`` through the group's kernel ``M2``. The
    chunk's intermediates die with the call."""
    frag, rows, cols = at
    qc, X = rows.shape[0], norms_flat.size
    fi = st["func_idx"]
    # gathered straight into the (q, m, X, C) layout
    zg = Zs[
        frag[:, None, None, None, None],
        rows[:, None, :, None, None],
        cols[:, None, None, :, None],
        fi[None, :, None, None, :],
    ].reshape(qc, st["m"], X, st["C"])
    zg = zg * norms_flat[None, None, :, None]
    zg = zg * (pfac[:, None, None] * st["comp_norms"][None])[:, :, None, :]
    # Z folded into the ket expansion once per group:
    # ZW[q, m, x, tau] = sum_c zg[q, m, x, c] Wk[m, c, tau]
    ZW = bgemm(zg, st["Wk"][None])
    t1 = bgemm(dW, M2).reshape(qc, 6, X, st["Tk"], st["m"])
    return _einsum("qsxtm,qmxt->qsm", t1, ZW)


@stack_driver
def contract_eri3c_deriv(
    bases,
    auxs,
    Z: np.ndarray,
    natoms: int,
    screen: float = 0.0,
    workspace: IntegralWorkspace | None = None,
) -> np.ndarray:
    """``g[f] = sum_{mu nu P} Z_{f mu nu P} d(mu nu|P)/dR`` for every
    fragment of a stack, shape ``(F, natoms, 3)``.

    ``Z`` has shape ``(F, nbf, nbf, naux)`` and need not be symmetric in
    (mu, nu). Auxiliary-center derivatives follow from translational
    invariance (``dP = -(dA + dB)``).

    With ``screen > 0`` a bra shell pair is skipped when ``DERIV_SAFETY *
    Q_ab * max_P Q_P * max |Z|`` over the pair's coefficient slice cannot
    reach the threshold. Skipping drops the pair's bra derivatives
    together with their translational-invariance images on the auxiliary
    centers, so the screened gradient still sums to zero over all atoms.
    The summed bound of everything skipped is accounted to the
    workspace, per fragment.

    Per-(pair, group, axis) contracted values fill whole-class arrays
    chunk by chunk; the gradient is accumulated from those once per
    class and fragment, so the result does not depend on the chunk size
    or on the stack.
    """
    F = len(bases)
    g = np.zeros((F, natoms, 3))
    statics = _group_statics(_aux_groups(workspace, auxs[0]), auxs)
    classes = stack_shell_classes(bases, workspace)
    Zs = Z + Z.transpose(0, 2, 1, 3)
    Zs *= 0.5
    Q = None
    if screen > 0.0:
        Q = _schwarz_tables(bases, workspace)
        qaux = _aux_bounds(auxs[0], workspace)
        qaux_max = float(qaux.max())
        qaux_sum = float(qaux.sum())
        Zblk = _zblk_table(bases[0], Zs)
    skipped: list[tuple[np.ndarray, np.ndarray]] = []
    kept, bras = [], []
    for cls in classes:
        ids = None
        if Q is not None:
            qv = Q[cls.frag, cls.ish, cls.jsh]
            zv = Zblk[cls.frag, cls.ish, cls.jsh]
            keep = DERIV_SAFETY * qv * qaux_max * zv > screen
            if not keep.all():
                skip = ~keep
                skipped.append((cls.frag[skip], (
                    DERIV_SAFETY * qv[skip] * zv[skip] * qaux_sum
                    * cls.nfa * cls.nfb * np.where(cls.diag[skip], 1.0, 2.0)
                )))
                ids = np.nonzero(keep)[0]
        kept.append(ids)
        bras.append(_bra(cls, ids))
    # the tables `eri3c` left in this evaluation's scratch, completed by
    # the pairs this mask keeps and that one dropped
    tabs = _coulomb_tables(
        workspace, "eri3c", (bases, auxs), None, bras, statics
    )
    dWs = _deriv_expansions(classes, workspace)
    for ci, (cls, ids, dW_all) in enumerate(zip(classes, kept, dWs)):
        sel = slice(None) if ids is None else ids
        frag = cls.frag[sel]
        npair = frag.size
        if npair == 0:
            continue
        L = cls.la + cls.lb + 1
        Tb = hermite_simplex(L).shape[0]
        N, X = cls.nprim, cls.nfa * cls.nfb
        rows, cols = _block_indices(cls.oa[sel], cls.nfa, cls.ob[sel], cls.nfb)
        pfac = np.where(cls.diag[sel], 1.0, 2.0)
        norms_flat = cls.norms.ravel()
        # per-pair bra/ket-center sums (Q, 3) and, per group, the
        # per-aux-site vA + vB (Q, 3, m) that go onto the aux centers
        sA = np.zeros((npair, 3))
        sB = np.zeros((npair, 3))
        vAB = [np.empty((npair, 3, st["m"])) for st in statics]
        # largest per-pair intermediates: the gathered kernel M2
        # (N*Tb, Tk*m), the stacked bra operand (6X, N*Tb), their product
        mTk = max(st["m"] * st["Tk"] for st in statics)
        per_pair = max(N * Tb * mTk, 6 * X * N * Tb, 6 * X * mTk)
        for sl in _chunks(npair, per_pair):
            # the held expansion's kept rows, gathered chunk by chunk
            at = sl if ids is None else ids[sl]
            dW = dW_all[at].reshape(-1, 6 * X, N * Tb)
            for gi, st in enumerate(statics):
                v = _eri3c_deriv_values(
                    Zs, (frag[sl], rows[sl], cols[sl]), norms_flat,
                    pfac[sl], st, dW, tabs.kernel(ci, gi, sl, L),
                )
                sA[sl] += v[:, :3].sum(axis=2)
                sB[sl] += v[:, 3:].sum(axis=2)
                vAB[gi][sl] = v[:, :3] + v[:, 3:]
            del dW  # before the next chunk's rows are gathered
        np.add.at(g, (frag, cls.atom_a[sel]), sA)
        np.add.at(g, (frag, cls.atom_b[sel]), sB)
        segments = [(f, seg) for f, seg in enumerate(_segments(frag, F))
                    if seg.stop > seg.start]
        for st, v in zip(statics, vAB):
            for f, seg in segments:
                np.subtract.at(g[f], st["atoms"], v[seg].sum(axis=0).T)
    if workspace is not None and screen > 0.0:
        _record_screens(workspace, "eri3c_deriv",
                        len(canonical_shell_pairs(bases[0])), F, skipped)
    return g
