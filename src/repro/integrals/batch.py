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
are NumPy; a second array library re-enters behind the batched calls of
ROADMAP item 2 (docs/PERFORMANCE.md, "One array library").

Contract (see docs/PERFORMANCE.md). These kernels are the only
implementation of the public drivers — the two- and four-centre
drivers in `eri.py` run on them too. What is pinned:

* **Determinism** — the same inputs give bit-identical outputs from run
  to run and for any `_CHUNK_ELEMS`: per-block rows are independent,
  gradients accumulate per class in class order from whole-class
  arrays, and the neglected bound is one exactly rounded `math.fsum`.
  This is what bitwise resume rests on.
* **Screening decisions** — every screened driver of an evaluation
  takes its skip masks from the one Schwarz table of each fragment.
* **Tolerance vs the reference** — against the independent
  per-primitive reference of the tests (Obara-Saika /
  Taketa-Huzinaga-Oohata, its own Boys function): matrices and
  integral tensors to rtol 1e-12, contracted gradients to atol 1e-12
  Ha/bohr.

The kernels evaluate only the Hermite rows with ``t + u + v <= L``
(`engine.hermite_simplex`, packed R tables from
`engine.r_tables_simplex`) and contract each (class, ket group) block
list with stacked GEMMs.

**One evaluation per call.** Every driver takes a list of fragments —
bases of any compositions, with the molecules and coefficient arrays of
the same fragments — and returns one result per fragment; given one
basis in place of the list it is a list of one (`engine.stack_driver`).
The fragments of a call are one evaluation of the integral layer: a
shell is keyed by its momentum, primitives and centre, so a shell pair
two fragments hold at the same geometry is *one* pair of the call's
`PairPlan`, and an auxiliary atom (its centre and its sites'
exponents) one atom of its `SitePlan`. What is computed is a list of
**blocks**, each once: a shell pair (overlap, kinetic), a pair with a
nucleus (nuclear attraction), a pair with an auxiliary atom's sites
(``(mu nu|P)``), a pair of sites (``(P|Q)``), and the derivative
integrals of each. A fragment gathers its values from the
blocks, and a derivative driver contracts each fragment's own
coefficients against the shared derivative integrals, in the
fragment's own pair and site order.

**Bitwise per fragment.** A fragment's results are the ones it gets
alone, whatever else the call holds. Two rules make it so. A block is
computed by operations that are elementwise along the block axis (the
E tables, the Hermite Coulomb recursion, the gathers) or by stacked
GEMMs whose batch axis is the block axis — the one axis of
``np.matmul`` a slice's bits do not depend on (OpenBLAS rounds a dgemm
element differently for other M and N extents, and at other column
positions) — so each GEMM's shape is fixed by the (class, site group,
sites per atom) alone: the auxiliary atom and the nucleus sit on the
batch axis, and only an atom's own sites share N, always in its
element's order. Everything after the gather runs on the fragment's
own arrays, whose shapes are those it has alone.

The Hermite Coulomb tables of an evaluation are built once
(`CoulombTables`): a value driver and the derivative driver that follows
it read one set, built at the derivative's order ``L + l + 1`` with one
table per block, and handed from the one to the other through the
evaluation's `IntegralWorkspace.scope`. A table is held in the layout
its kernels read — ``(blocks, N, nsimplex, m)``, the kind's prefactor
folded into the recursion's ``F_m`` seeds — so a kernel is one ``take``
along the simplex axis. `_build_tables` is the only caller of the
recursion, one call per (class, ket group); a table is bitwise
independent of how it was come by. Each class's bra-derivative
expansion is built once per evaluation too and held on the class
(`_deriv_expansions`): the nuclear and the three-centre derivative read
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
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
from .workspace import basis_composition_key, table_budget

if TYPE_CHECKING:
    from ..basis.basisset import BasisSet
    from .workspace import IntegralWorkspace

__all__ = [
    "CoulombTables",
    "PairPlan",
    "ShellClass",
    "SitePlan",
    "build_shell_classes",
    "canonical_shell_pairs",
    "pair_plan",
    "schwarz_pair_bounds",
    "site_plan",
    "table_bytes",
]

#: element budget for the largest per-chunk intermediate (~1 MB f64:
#: the chunk's working set stays cache-resident); per-block rows are
#: independent, so chunking never changes results
_CHUNK_ELEMS = 1 << 18


# --------------------------------------------------------------------------
# Shell-pair classes: the distinct pairs of an evaluation
# --------------------------------------------------------------------------

@dataclass
class ShellClass:
    """The distinct shell pairs of an evaluation sharing ``(la, lb, npa,
    npb)``, packed.

    Per-pair arrays are stacked along a leading axis of length ``Q``;
    per-primitive arrays have a second axis of length ``N = npa * npb``,
    bra-major (the bra primitive's index runs slowest). ``E`` carries
    the workspace-unified ``(di=1, dj=2)`` derivative headroom: lower-
    index entries of the E recursion are independent of headroom, so
    every driver can gather from the one table. Which fragment holds
    which pair, and under which of its own shell indices, is the
    `PairPlan`'s (`FragPairs`).
    """

    la: int
    lb: int
    imax: int
    jmax: int
    key: tuple            # (la, lb, npa, npb)
    a: np.ndarray         # (Q, N) bra exponents, bra-major layout
    b: np.ndarray         # (Q, N) ket exponents
    cc: np.ndarray        # (Q, N) contraction coefficient products
    p: np.ndarray         # (Q, N) total exponents a + b
    P: np.ndarray         # (Q, N, 3) Gaussian product centers
    AB: np.ndarray        # (Q, 3) center separations A - B
    E: np.ndarray         # (Q, N, 3, imax+1, jmax+1, imax+jmax+1)
    diag: np.ndarray      # (Q,) bool, a shell with itself
    #: (Q,) elements a pair covers of a fragment's atom blocks ``I <= J``:
    #: ``nfa * nfb``, twice that for two shells of one atom (the block
    #: holds the pair and its image)
    w: np.ndarray
    norms: np.ndarray     # (nfa, nfb) component normalization outer
    #: (Q, 6, nfa*nfb, N*nsimplex(la+lb+1)): the bra-derivative
    #: expansion, once built (`_deriv_expansions`); a subset has none
    dW: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def npair(self) -> int:
        return int(self.a.shape[0])

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
        """The pairs ``mask`` selects (boolean or indices)."""
        per_pair = ("a", "b", "cc", "p", "P", "AB", "E", "diag", "w")
        return replace(self, **{f: getattr(self, f)[mask] for f in per_pair})


@dataclass
class FragPairs:
    """One fragment's canonical pairs of one class: ``at`` places each
    among the class's distinct pairs, the rest are the fragment's own
    shell indices, function offsets and atoms."""

    at: np.ndarray        # (q,) index into the class's pairs
    ish: np.ndarray       # (q,) bra shell index
    jsh: np.ndarray       # (q,) ket shell index
    oa: np.ndarray        # (q,) bra function offset
    ob: np.ndarray        # (q,) ket function offset
    atom_a: np.ndarray    # (q,)
    atom_b: np.ndarray    # (q,)
    diag: np.ndarray      # (q,) bool, ish == jsh

    @property
    def npair(self) -> int:
        return int(self.at.shape[0])


@dataclass
class PairPlan:
    """The distinct shell pairs of an evaluation's orbital bases:
    ``classes`` in class-key order, and ``frags[f][ci]`` — fragment
    ``f``'s pairs of class ``ci`` (None when it has none)."""

    classes: list[ShellClass]
    frags: list[list[FragPairs | None]]

    def holders(self, ci: int):
        """``(f, FragPairs)`` of every fragment holding class ``ci``."""
        return [(f, fp[ci]) for f, fp in enumerate(self.frags)
                if fp[ci] is not None]


def _shell_key(sh) -> tuple:
    """What a shell's integrals depend on: momentum, primitives, centre."""
    return (sh.l, sh.exps.tobytes(), sh.coefs.tobytes(), sh.center.tobytes())


#: composition key -> `_class_partition`; geometry-free, so a run needs
#: only the few compositions it meets
_PARTITIONS: dict[tuple, list[dict]] = {}


def _class_partition(basis: BasisSet) -> list[dict]:
    """Group canonical pairs by ``(la, lb, npa, npb)``; pack statics.

    Returns a list of dicts (sorted by class key) holding the index
    arrays and geometry-independent packed arrays, memoised on the
    basis composition.
    """
    comp = basis_composition_key(basis)
    parts = _PARTITIONS.get(comp)
    if parts is not None:
        return parts
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
        # bra-major primitive layout
        a = np.repeat(exps_a, npb, axis=1)
        b = np.tile(exps_b, (1, npa))
        cc = np.repeat(coefs_a, npb, axis=1) * np.tile(coefs_b, (1, npa))
        parts.append(
            dict(
                key=key, la=la, lb=lb,
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
    if len(_PARTITIONS) >= 256:
        _PARTITIONS.clear()
    _PARTITIONS[comp] = parts
    return parts


def _pair_codes(bases):
    """Every fragment's canonical pairs as codes over the call's distinct
    shells: returns the representative shells, and per class key the
    ``(f, part, codes)`` of each fragment holding it, in fragment
    order."""
    ids: dict[tuple, int] = {}
    reps, gids = [], []
    for basis in bases:
        mine = np.empty(basis.nshells, dtype=np.intp)
        for s, sh in enumerate(basis.shells):
            key = _shell_key(sh)
            g = ids.get(key)
            if g is None:
                g = ids[key] = len(reps)
                reps.append(sh)
            mine[s] = g
        gids.append(mine)
    S = len(reps)
    by_key: dict[tuple, list] = {}
    for f, basis in enumerate(bases):
        g = gids[f]
        for part in _class_partition(basis):
            codes = g[part["ish"]] * S + g[part["jsh"]]
            by_key.setdefault(part["key"], []).append((f, part, codes))
    return reps, by_key


def _build_pair_plan(bases) -> PairPlan:
    """The `PairPlan` of a list of bases (fresh, no caching): one
    `e_tables_batch` call per class over its distinct pairs."""
    reps, by_key = _pair_codes(bases)
    S = len(reps)
    centers = np.array([sh.center for sh in reps])
    classes = []
    frags: list[list] = [[None] * len(by_key) for _ in bases]
    for ci, key in enumerate(sorted(by_key)):
        entries = by_key[key]
        la, lb = key[0], key[1]
        codes = np.concatenate([c for _, _, c in entries])
        first, inverse = _distinct(codes)
        uniq = codes[first]
        a, b, cc = (np.concatenate([part[k] for _, part, _ in entries])[first]
                    for k in ("a", "b", "cc"))
        Q, N = a.shape
        p = a + b
        A, B = centers[uniq // S], centers[uniq % S]
        P = (
            a[:, :, None] * A[:, None, :] + b[:, :, None] * B[:, None, :]
        ) / p[:, :, None]
        AB = A - B
        imax, jmax = la + 1, lb + 2
        E = e_tables_batch(
            imax, jmax, np.repeat(AB, N, axis=0), a.ravel(), b.ravel()
        ).reshape(Q, N, 3, imax + 1, jmax + 1, imax + jmax + 1)
        nf = (la + 1) * (la + 2) // 2 * ((lb + 1) * (lb + 2) // 2)
        diag = uniq // S == uniq % S
        images = ~diag & ~AB.any(axis=1)
        classes.append(ShellClass(
            la=la, lb=lb, imax=imax, jmax=jmax, key=key,
            a=a, b=b, cc=cc, p=p, P=P, AB=AB, E=E, diag=diag,
            w=nf * np.where(images, 2, 1), norms=entries[0][1]["norms"],
        ))
        lo = 0
        for f, part, c in entries:
            frags[f][ci] = FragPairs(
                at=inverse.ravel()[lo:lo + c.size],
                **{k: part[k] for k in ("ish", "jsh", "oa", "ob",
                                        "atom_a", "atom_b", "diag")},
            )
            lo += c.size
    return PairPlan(classes, frags)


def pair_plan(bases, workspace: IntegralWorkspace | None = None) -> PairPlan:
    """The `PairPlan` of a list of bases from the workspace's scratch,
    or freshly built."""
    if workspace is not None:
        return workspace.pair_plan(bases)
    return _build_pair_plan(bases)


def build_shell_classes(
    basis: BasisSet, workspace: IntegralWorkspace | None = None
) -> list[ShellClass]:
    """The shell classes of one basis (`pair_plan` of a list of one)."""
    return pair_plan([basis], workspace).classes


def _chunks(nq: int, per_pair_elems: int):
    """Deterministic block-axis chunking under the element budget."""
    step = max(1, _CHUNK_ELEMS // max(1, int(per_pair_elems)))
    for lo in range(0, nq, step):
        yield slice(lo, min(lo + step, nq))


def _gather(blocks: np.ndarray, pos: list) -> np.ndarray:
    """``blocks`` at the concatenated positions ``pos`` — the blocks
    themselves when that is every block in order (one fragment)."""
    at = np.concatenate(pos)
    if at.size == blocks.shape[0] and np.array_equal(at, np.arange(at.size)):
        return blocks
    return blocks[at]


def _pieces(holders, per_block_elems: int):
    """``holders`` — ``(f, rows, columns, positions)`` of each fragment's
    blocks — in consecutive pieces whose gathered blocks stay under the
    element budget (a fragment is never split)."""
    lo = 0
    while lo < len(holders):
        hi, size = lo + 1, holders[lo][3].size * per_block_elems
        while hi < len(holders):
            size += holders[hi][3].size * per_block_elems
            if size > _CHUNK_ELEMS:
                break
            hi += 1
        yield holders[lo:hi]
        lo = hi


def _run_lengths(values: np.ndarray):
    """Where each run of equal neighbours starts, and its length."""
    starts = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate(([0], starts))
    return starts, np.diff(np.append(starts, values.size))


def _runs(pair: np.ndarray, per_block_elems: int):
    """The blocks of a sorted block list as grids of equal runs: yields
    ``(pairs (P,), sel, r)`` with ``sel`` the positions (a slice where
    they are contiguous) of ``P`` pairs' ``r`` blocks each, pair-major,
    chunked under the element budget. A pair's operand then enters a
    stacked GEMM once per grid row, broadcast over its ``r`` blocks,
    instead of once per block."""
    if not pair.size:
        return
    r = int(np.searchsorted(pair, pair[0], side="right"))
    if pair.size % r == 0 and pair.size * per_block_elems <= _CHUNK_ELEMS:
        pairs = pair[::r]
        if np.array_equal(np.repeat(pairs, r), pair):
            # every pair the same run, one chunk: the common case
            yield pairs, slice(0, pair.size), r
            return
    starts, counts = _run_lengths(pair)
    lengths = [counts[0]] if counts.min() == counts.max() else np.unique(counts)
    for r in lengths:
        which = np.arange(counts.size) if len(lengths) == 1 else np.flatnonzero(
            counts == r)
        step = max(1, _CHUNK_ELEMS // max(1, int(per_block_elems * r)))
        for lo in range(0, which.size, step):
            first = starts[which[lo:lo + step]]
            if np.array_equal(first, first[0] + r * np.arange(first.size)):
                sel = slice(first[0], first[0] + r * first.size)
            else:
                sel = (first[:, None] + np.arange(r)).ravel()
            yield pair[first], sel, int(r)


# --------------------------------------------------------------------------
# Auxiliary sites and nuclei: the distinct ket centres of an evaluation
# --------------------------------------------------------------------------

@dataclass
class SiteGroup:
    """The distinct auxiliary atoms of an evaluation whose sites carry
    the angular momenta ``ls`` (`engine.AuxGroup`, merged over
    fragments), ``m`` sites an atom: a (pair, atom) block is the unit of
    the three-centre kernels, its ``m`` sites on the GEMM's N axis. Per
    atom and site: exponents ``qk (A, m)``, centres ``Pk (A, m, 3)``
    (the atom's, ``m`` times), E tables ``E (A, m, 3, lmax+di+1, 1,
    .)``, contraction coefficient times component normalization
    ``comp_norms (A, m, C)`` and the ket expansion ``Wk (A, m, C, Tk)``
    on the simplex rows of ``lmax`` with the Hermite phase folded in."""

    ls: tuple
    comps: np.ndarray
    qk: np.ndarray
    Pk: np.ndarray
    E: np.ndarray
    comp_norms: np.ndarray
    Wk: np.ndarray

    @property
    def l(self) -> int:
        return self.ls[-1]

    @property
    def natom(self) -> int:
        return int(self.qk.shape[0])

    @property
    def m(self) -> int:
        return int(self.qk.shape[1])

    @property
    def C(self) -> int:
        return int(self.comps.shape[0])

    @property
    def Tk(self) -> int:
        return int(self.Wk.shape[3])

    @property
    def ket(self) -> dict:
        """The ket side of a `CoulombTables` set."""
        return dict(qk=self.qk, Pk=self.Pk, l=self.l)

    @cached_property
    def WkT(self) -> np.ndarray:
        """``Wk`` as the right-hand GEMM operand ``(A, m, Tk, C)``."""
        return np.ascontiguousarray(self.Wk.transpose(0, 1, 3, 2))


@dataclass
class FragSites:
    """One fragment's atoms of one `SiteGroup`, in its own order."""

    ids: np.ndarray         # (a,) index into the group's atoms
    func_idx: np.ndarray    # (a, m, C) the fragment's function indices
    atoms: np.ndarray       # (a,) the fragment's own atom indices

    def sites(self, m: int) -> np.ndarray:
        """The sites, ``(a * m,)``, as indices into the group's sites
        laid out atom-major (the metric's blocks are pairs of sites)."""
        return (self.ids[:, None] * m + np.arange(m)).ravel()


@dataclass
class SitePlan:
    """The distinct auxiliary atoms of an evaluation's fitting bases:
    ``groups`` ordered by ``(lmax, ls, m)``, ``frags[f][gi]`` fragment
    ``f``'s atoms of group ``gi`` (or None)."""

    groups: list[SiteGroup]
    frags: list[list[FragSites | None]]
    _per_site: "SitePlan | None" = field(default=None, init=False, repr=False)

    def holders(self, gi: int):
        return [(f, fs[gi]) for f, fs in enumerate(self.frags)
                if fs[gi] is not None]

    def per_site(self) -> "SitePlan":
        """The plan with the groups of one ``ls`` merged and every site
        an atom of its own (``m = 1``): the metric's blocks are pairs of
        sites. Built once per plan."""
        if self._per_site is None:
            self._per_site = self._merged()
        return self._per_site

    def _merged(self) -> "SitePlan":
        by_ls: dict[tuple, list[int]] = {}
        for gi, grp in enumerate(self.groups):
            by_ls.setdefault(grp.ls, []).append(gi)
        groups, frags = [], [[] for _ in self.frags]
        for ls, members in by_ls.items():
            merged = [self.groups[gi] for gi in members]
            offs = np.cumsum([0] + [grp.qk.size for grp in merged])

            def cat(name):
                return np.concatenate([
                    getattr(grp, name).reshape(-1, 1, *getattr(grp, name).shape[2:])
                    for grp in merged])

            C = merged[0].C
            groups.append(SiteGroup(ls=ls, comps=merged[0].comps, qk=cat("qk"),
                                    Pk=cat("Pk"), E=cat("E"),
                                    comp_norms=cat("comp_norms"), Wk=cat("Wk")))
            for f, row in enumerate(self.frags):
                held = [(off, row[gi], grp.m)
                        for off, gi, grp in zip(offs, members, merged)
                        if row[gi] is not None]
                frags[f].append(None if not held else FragSites(
                    ids=np.concatenate([off + fs.sites(m) for off, fs, m in held]),
                    func_idx=np.concatenate([fs.func_idx.reshape(-1, 1, C)
                                             for _, fs, _ in held]),
                    atoms=np.concatenate([np.repeat(fs.atoms, m)
                                          for _, fs, m in held]),
                ))
        return SitePlan(groups, frags)


def _distinct(keys):
    """The first occurrence of each distinct key and every key's index
    among them — ``np.unique``'s, but in order of first occurrence, so
    that keys already distinct (one fragment) are their own order."""
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.ravel()]


def _union(parts, size: int):
    """The sorted distinct codes (each below ``size``) of the arrays
    ``parts``, and where each part's codes sit among them."""
    if len(parts) == 1:
        codes = parts[0].ravel()
        if codes.size < 2 or (codes[1:] > codes[:-1]).all():
            return codes, [np.arange(codes.size).reshape(parts[0].shape)]
    seen = np.zeros(size, dtype=bool)
    for codes in parts:
        seen[codes] = True
    rank = np.cumsum(seen) - 1
    return np.flatnonzero(seen), [rank[codes] for codes in parts]


def _atom_runs(grp):
    """A site group's sites (atom-major, as `engine.aux_group_data`
    lists them) cut into its atoms: ``(start, m)`` of each."""
    return _run_lengths(grp.atoms)


def _site_codes(auxs, workspace, di: int = 0):
    """Every fragment's site groups cut into atoms, each atom's index
    among the call's distinct atoms of its ``(ls, m)`` — an atom is its
    centre and its sites' exponents. The groups of a composition are
    looked up once (`_aux_groups`, the first fragment's) and every
    other fragment of it reads its own centres. Returns per ``(ls, m)``
    the ``[group, first occurrences, holders, rows]`` — ``rows`` one
    ``(centre, exponents)`` row per held atom, ``holders`` ``(f, grp,
    sites (a, m))`` — and per fragment ``{(ls, m): (grp, sites,
    ids)}``."""
    scaffolds: dict[tuple, list] = {}
    holders: dict[tuple, list] = {}
    for f, aux in enumerate(auxs):
        comp = basis_composition_key(aux)
        groups = scaffolds.get(comp)
        if groups is None:
            groups = scaffolds[comp] = _aux_groups(workspace, aux, di)
        centers = np.array([sh.center for sh in aux.shells])
        for grp in groups:
            starts, counts = _atom_runs(grp)
            P = centers[grp.shells]
            for m in np.unique(counts):
                first = starts[counts == m]
                sites = first[:, None] + np.arange(m)
                rows = np.column_stack([P[first], grp.a[sites]])
                holders.setdefault((grp.ls, int(m)), []).append(
                    (f, grp, sites, rows))
    frags: list[dict] = [{} for _ in auxs]
    reps = {}
    for key, held in holders.items():
        rows = np.concatenate([r for *_, r in held])
        keys = rows.view(np.dtype((np.void, 8 * rows.shape[1])))
        first, inverse = _distinct(keys.ravel())
        lo = 0
        for f, grp, sites, r in held:
            frags[f][key] = grp, sites, inverse[lo:lo + r.shape[0]]
            lo += r.shape[0]
        reps[key] = [first, held, rows]
    return reps, frags


def site_plan(auxs, workspace: IntegralWorkspace | None = None,
              di: int = 0) -> SitePlan:
    """The `SitePlan` of a list of fitting bases (E tables with ``di``
    units of derivative headroom), from the workspace's scratch or
    freshly built."""
    if workspace is not None:
        return workspace.site_plan(auxs, di)
    return _build_site_plan(auxs, None, di)


def _build_site_plan(auxs, workspace, di: int) -> SitePlan:
    """`site_plan`, built."""
    reps, per_frag = _site_codes(auxs, workspace, di)
    order = sorted(reps, key=lambda key: (key[0][-1], key[0], key[1]))
    groups = []
    for ls, m in order:
        first, held, rows = reps[ls, m]
        grp0 = held[0][1]

        def per_site(get):
            return np.concatenate([get(grp)[sites] for _, grp, sites, _ in held])[first]

        E = per_site(lambda grp: grp.E)
        tuv = hermite_simplex(ls[-1])
        A, C = first.size, grp0.comps.shape[0]
        Wk = _w_class(E.reshape(A * m, 1, *E.shape[2:]), grp0.comps,
                      _S_COMP, tuv)
        groups.append(SiteGroup(
            ls=ls, comps=grp0.comps, qk=rows[first, 3:],
            Pk=np.repeat(rows[first, None, :3], m, axis=1), E=E,
            comp_norms=per_site(lambda grp: grp.comp_norms),
            Wk=(Wk.reshape(A * m, C, -1) * _phase(tuv)).reshape(A, m, C, -1),
        ))
    frags = []
    for mine in per_frag:
        row: list = [None] * len(groups)
        for gi, key in enumerate(order):
            if key in mine:
                grp, sites, ids = mine[key]
                row[gi] = FragSites(ids=ids, func_idx=grp.func_idx[sites],
                                    atoms=grp.atoms[sites[:, 0]])
        frags.append(row)
    return SitePlan(groups, frags)


def _nuclei(mols):
    """The distinct nuclei of an evaluation — ``(Z, coords)`` — and each
    fragment's atoms among them."""
    rows = np.concatenate([np.column_stack([mol.atomic_numbers, mol.coords])
                           for mol in mols])
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, 32)))
    first, inverse = _distinct(keys.ravel())
    bounds = np.cumsum([0] + [mol.natoms for mol in mols])
    return (rows[first, 0], rows[first, 1:],
            [inverse[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])])


def _blocks(pairs: PairPlan, kets, keep=None):
    """The blocks of every (class ci, ket group gi): sorted codes ``pair
    * A + atom`` of the union over fragments of each fragment's kept
    pairs with its ket atoms, and where each fragment's blocks sit in
    them. ``kets[gi]`` is ``(A, {f: atoms})``, the atoms a `FragSites`
    or an index array; ``keep[f][ci]`` the fragment's kept pair rows
    (None: all). Returns ``blocks {(ci, gi): codes}`` and ``mine {(ci,
    gi): [(f, rows, atoms, positions (q, a))]}``."""
    blocks, mine = {}, {}
    for ci, cls in enumerate(pairs.classes):
        holders = pairs.holders(ci)
        for gi, (A, cols) in enumerate(kets):
            parts = []
            for f, fp in holders:
                col = cols.get(f)
                if col is None:
                    continue
                rows = None if keep is None else keep[f][ci]
                at = fp.at if rows is None else fp.at[rows]
                if not at.size:
                    continue
                ids = col if isinstance(col, np.ndarray) else col.ids
                parts.append((f, rows, col, at[:, None] * A + ids[None, :]))
            if not parts:
                continue
            blocks[ci, gi], pos = _union([c for *_, c in parts],
                                         cls.npair * A)
            mine[ci, gi] = [(f, rows, col, p)
                            for (f, rows, col, _), p in zip(parts, pos)]
    return blocks, mine


# --------------------------------------------------------------------------
# Shared gather/contraction helpers: component expansions of a class
# (and their centre derivatives) with a leading pair axis, on simplex rows
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
    C-contiguous, so a GEMM reading a gathered block of it takes the
    same route (BLAS) for any number of blocks.
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
    freed with it — so the nuclear derivative and the three-centre
    derivative gather their blocks' rows from it. A class's rows are
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


def _scatter_blocks(out, rows, cols, blk):
    """Write ``(q, nfa, nfb)`` blocks into ``out (nbf, nbf)``, then
    every transposed image (diagonal blocks end up holding ``blk.T``)."""
    out[rows[:, :, None], cols[:, None, :]] = blk
    out[cols[:, :, None], rows[:, None, :]] = blk.transpose(0, 2, 1)


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


def _ket_inputs(p, cc, P, ket):
    """Recursion inputs between a bra chunk (``p``, contraction
    products ``cc (q, N)``, centers ``P (q, N, 3)``) and ket columns —
    a mapping with exponents ``qk`` and centers ``Pk`` that broadcast
    against ``(q, N, m)``: composite exponents ``alpha = pq / (p + q)``,
    separations ``P - C`` and the kind's prefactor ``K``, which the
    recursion folds into its seeds: ``2 pi^{5/2} cc cck / (p q sqrt(p +
    q))`` (an aux group has no ``cck``: its contraction coefficients
    differ per component and ride in ``comp_norms``). ``qk = None`` is a
    set of point charges: ``alpha = p``, ``K = 2 pi cc / p``."""
    p4 = p[:, :, None]
    c4 = cc[:, :, None]
    qk = ket["qk"]
    PQ = P[:, :, None, :] - ket["Pk"]
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
    q, N, ns, m = R.shape
    Tb, Tk = idx.shape
    if Tk == 1 and Tb == ns and np.array_equal(idx[:, 0], np.arange(ns)):
        return R.reshape(q, N * Tb, m)  # every row, in order
    return np.take(R, idx.ravel(), axis=2).reshape(q, N * Tb, Tk * m)


def _bra(cls: ShellClass) -> dict:
    """A shell class as the bra side of a `CoulombTables` set."""
    return dict(p=cls.p, cc=cls.cc, P=cls.P, L=cls.la + cls.lb)


def _table_bytes(order: int, nblocks: int, width: int) -> int:
    """Bytes of the table of ``nblocks`` blocks at ``order`` with
    ``width`` columns a block (bra primitives times ket columns): what
    `CoulombTables` holds for one (class, group), and what `table_bytes`
    sums."""
    return 8 * hermite_simplex(order).shape[0] * nblocks * width


class CoulombTables:
    """The Hermite Coulomb tables of one evaluation, built once.

    One set serves a value driver and the derivative driver that follows
    it at the same geometry (`eri3c` / `contract_eri3c_deriv`, `eri2c` /
    `contract_eri2c_deriv`, `nuclear` / `contract_nuclear_deriv`). Bra
    class ``ci`` is a mapping with ``p``, ``cc (Q, N)``, centres ``P``
    and total momentum ``L``; ket group ``gi`` one with ``qk (A, m)``
    (or None: point charges), ``Pk (A, m, 3)`` — ``A`` atoms of ``m``
    columns each — and simplex order ``l``; ``blocks[ci, gi]`` the
    sorted block codes ``pair * A + atom`` this driver reads. A block's
    table ``R (N, nsimplex(L + l + 1), m)`` is
    held in the layout its kernels read, with the kind's prefactor
    folded into the recursion's seeds (`_ket_inputs`): the order the
    derivative reads whole and of which the value driver reads the
    order-``L + l`` sub-simplex (`engine.simplex_sum_index`) — one rule,
    so a block's table never depends on who built it. A kernel is one
    ``take`` along the simplex axis (`kernel`).

    What a set *holds* is bounded by ``budget`` bytes ((class, group)s
    in order, whatever fits); `table` builds the rest chunk by chunk as
    it is asked for, by the same `_build_tables`. ``found`` is the
    `payload` another driver of this evaluation left in its scope: its
    tables are used where they are (they count against the budget), and
    the blocks this driver reads that the other one did not are built
    beside them (``rebuilt_pairs`` counts their distinct bra pairs).
    Found, rebuilt and chunk-built tables are bitwise equal
    (`_build_tables`).
    """

    def __init__(self, bras, kets, blocks, budget: int, found=None) -> None:
        self.bras, self.kets, self.blocks = bras, kets, blocks
        #: (ci, gi) -> (tables, cols): ``cols[i]`` is the row of this
        #: set's block ``i`` in ``tables`` laid end to end (the found
        #: one, then the rebuilt blocks'); None when it is ``i`` itself
        self.R: dict[tuple[int, int], tuple[list, np.ndarray | None]] = {}
        #: whether every (class, group) fit the budget
        self.complete = True
        found_blocks, found_R = found if found is not None else ({}, {})
        self.nbytes = sum(8 * R.size for R in found_R.values())
        requests, targets = [], []
        rebuilt: dict[int, list] = {}
        for key in sorted(blocks):
            ci, gi = key
            codes = blocks[key]
            A = kets[gi]["Pk"].shape[0]
            cols = missing = None
            if found is not None:
                have_codes = found_blocks.get(key, codes[:0])
                if not np.array_equal(have_codes, codes):
                    # the other driver's blocks differ: where it has mine
                    if have_codes.size:
                        cols = np.minimum(np.searchsorted(have_codes, codes),
                                          have_codes.size - 1)
                        missing = np.nonzero(have_codes[cols] != codes)[0]
                        cols[missing] = have_codes.size + np.arange(missing.size)
                    new = codes if missing is None else codes[missing]
                    rebuilt.setdefault(ci, []).append(new // A)
            have = found_R.get(key)
            if have is not None and (missing is None or not missing.size):
                self.R[key] = [have], cols
                continue
            order, width = self._dims(ci, gi)
            count = codes.size if have is None else missing.size
            nbytes = _table_bytes(order, count, width)
            if self.nbytes + nbytes > budget:
                self.complete = False
                continue
            self.nbytes += nbytes
            if have is None:
                self.R[key] = [], None
                requests.append(self._request(ci, gi, codes))
            else:
                self.R[key] = [have], cols
                requests.append(self._request(ci, gi, codes[missing]))
            targets.append(key)
        self.rebuilt_pairs = sum(np.unique(np.concatenate(p)).size
                                 for p in rebuilt.values())
        #: distinct orders built, and the size of what was built
        self.orders = sorted({order for order, _ in requests})
        self.elements = 0
        for key, R in zip(targets, _build_tables(requests)):
            self.R[key][0].append(R)
            self.elements += R.size

    @property
    def payload(self):
        """What another driver finds of a set built from nothing: the
        block codes and one table per held (class, group)."""
        return self.blocks, {key: tables[0]
                             for key, (tables, _) in self.R.items()}

    def _dims(self, ci: int, gi: int) -> tuple[int, int]:
        """Table order and columns per block of (class, group)."""
        return (self.bras[ci]["L"] + self.kets[gi]["l"] + 1,
                self.bras[ci]["p"].shape[1] * self.kets[gi]["Pk"].shape[1])

    def _request(self, ci: int, gi: int, codes):
        """The `_build_tables` request for the blocks ``codes`` of
        (class, group)."""
        bra, ket = self.bras[ci], self.kets[gi]
        A = ket["Pk"].shape[0]

        def inputs():
            pair, atom = codes // A, codes % A
            qk = ket["qk"]
            one = dict(qk=None if qk is None else qk[atom][:, None, :],
                       Pk=ket["Pk"][atom][:, None])
            return _ket_inputs(bra["p"][pair], bra["cc"][pair],
                               bra["P"][pair], one)

        return self._dims(ci, gi)[0], inputs

    def table(self, ci: int, gi: int, sl):
        """``R (n, N, nsimplex, m)`` of the blocks ``sl`` (a slice or
        positions of this set's codes) of class ``ci`` against group
        ``gi``: a view of the held table (its blocks gathered where the
        sets differ), or built now when beyond the budget."""
        held = self.R.get((ci, gi))
        if held is None:
            codes = self.blocks[ci, gi][sl]
            return _build_tables([self._request(ci, gi, codes)])[0]
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

    def kernel(self, ci: int, gi: int, sl, Lb: int):
        """`_kernel` of the blocks ``sl`` of class ``ci`` against group
        ``gi`` on the bra rows of simplex ``Lb`` (the class's ``L``, or
        ``L + 1`` for its derivative): ``(n, N*Tb, Tk*m)``."""
        idx = simplex_sum_index(Lb, self.kets[gi]["l"], self._dims(ci, gi)[0])
        return _kernel(self.table(ci, gi, sl), idx)


def _coulomb_tables(workspace, kind, stacks, points, bras, kets,
                    blocks) -> CoulombTables:
    """This driver's `CoulombTables`, through the evaluation's scratch
    (`IntegralWorkspace.coulomb_tables`) when there is a workspace."""
    def build(found, budget):
        return CoulombTables(bras, kets, blocks, budget, found)

    if workspace is None:
        return build(None, table_budget(None))
    return workspace.coulomb_tables(kind, stacks, points, build)


def _site_columns(sites: SitePlan):
    """`_blocks`' ket side for the auxiliary groups."""
    return [(grp.natom, dict(sites.holders(gi)))
            for gi, grp in enumerate(sites.groups)]


def _nuclear_columns(mols):
    """`_blocks`' ket side for the nuclei: one group, the distinct
    nuclei; and the nuclei themselves."""
    Z, coords, frags = _nuclei(mols)
    return [(Z.size, dict(enumerate(frags)))], Z, coords


def _pairs_of_sites(sites: SitePlan):
    """The blocks of every ordered (site group, site group) pair: the
    union over fragments of each fragment's sites of the one against
    its sites of the other, a site indexed atom-major. Returns ``blocks
    {(gb, gk): codes}`` and ``mine {(gb, gk): [(f, FragSites b,
    FragSites k, positions (a_b m_b, a_k m_k))]}``."""
    blocks, mine = {}, {}
    for gb, grp_b in enumerate(sites.groups):
        for gk, grp_k in enumerate(sites.groups):
            parts = [(f, row[gb], row[gk]) for f, row in enumerate(sites.frags)
                     if row[gb] is not None and row[gk] is not None]
            if not parts:
                continue
            blocks[gb, gk], pos = _union(
                [fb.sites(grp_b.m)[:, None] * grp_k.qk.size
                 + fk.sites(grp_k.m)[None, :] for _, fb, fk in parts],
                grp_b.qk.size * grp_k.qk.size)
            mine[gb, gk] = [(*part, p) for part, p in zip(parts, pos)]
    return blocks, mine


def _site_bras(sites: SitePlan) -> list[dict]:
    """The site groups' sites as one-primitive bra "pairs" of the
    metric, atom-major."""
    return [dict(p=grp.qk.reshape(-1, 1), cc=np.ones((grp.qk.size, 1)),
                 P=grp.Pk.reshape(-1, 1, 3), L=grp.l) for grp in sites.groups]


def table_bytes(bases, auxs, mols,
                workspace: IntegralWorkspace | None = None) -> int:
    """The bytes of the largest Hermite Coulomb table set (`eri3c`,
    `nuclear` or `eri2c`) of one evaluation of these fragments with
    nothing screened, plus the held bra-derivative expansions
    (`_deriv_expansions`), counted over the call's distinct blocks by
    the drivers' own arithmetic without building any: what the
    evaluation holds against `table_budget`."""
    reps, by_key = _pair_codes(bases)
    site_reps, site_frags = _site_codes(auxs, workspace)
    natom = {key: rep[0].size for key, rep in site_reps.items()}
    Z, _, nuclei = _nuclei(mols)
    nf = [(l + 1) * (l + 2) // 2 for l in range(8)]
    eri3c = nuclear = expansions = 0
    for (la, lb, npa, npb), entries in by_key.items():
        N = npa * npb
        pairs, at = _union([c for _, _, c in entries], len(reps) ** 2)
        at = {f: a for (f, _, _), a in zip(entries, at)}
        expansions += _table_bytes(la + lb + 1, pairs.size,
                                   6 * nf[la] * nf[lb] * N)
        nuclear += _table_bytes(la + lb + 1, _union(
            [a[:, None] * Z.size + nuclei[f][None, :] for f, a in at.items()],
            pairs.size * Z.size)[0].size, N)
        for (ls, m), A in natom.items():
            held = [(at[f], row[ls, m][2]) for f, row in enumerate(site_frags)
                    if (ls, m) in row and f in at]
            if held:
                n = _union([a[:, None] * A + ids[None, :] for a, ids in held],
                           pairs.size * A)[0].size
                eri3c += _table_bytes(la + lb + ls[-1] + 1, n, N * m)
    # the metric's sites, per ls: its (ls, m) groups' sites end to end
    nsite: dict[tuple, int] = {}
    held = [{} for _ in site_frags]
    for (ls, m), A in sorted(natom.items()):
        for f, row in enumerate(site_frags):
            if (ls, m) in row:
                ids = row[ls, m][2]
                held[f].setdefault(ls, []).append(
                    nsite.get(ls, 0) + (ids[:, None] * m + np.arange(m)).ravel())
        nsite[ls] = nsite.get(ls, 0) + A * m
    eri2c = 0
    for lb_, nb_ in nsite.items():
        for lk_, nk_ in nsite.items():
            parts = [np.concatenate(row[lb_])[:, None] * nk_
                     + np.concatenate(row[lk_])[None, :]
                     for row in held if lb_ in row and lk_ in row]
            if parts:
                eri2c += _table_bytes(lb_[-1] + lk_[-1] + 1,
                                      _union(parts, nb_ * nk_)[0].size, 1)
    return max(eri3c, nuclear, eri2c) + expansions


def _record_blocks(workspace, family, requested, computed) -> None:
    """Account a value driver's block counts (`IntegralWorkspace.
    record_blocks`), in elements."""
    if workspace is not None:
        workspace.record_blocks(family, int(requested), int(computed))


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


def _onee(plan, bases, factors) -> list[np.ndarray]:
    """A one-electron matrix of every basis of a call, ``(nbf, nbf)``
    each, from per-class primitive factors ``factors(cls, ca, cb) ->
    [q, n, A, B]`` of the plan's distinct pairs."""
    out = [np.zeros((basis.nbf, basis.nbf)) for basis in bases]
    for ci, cls in enumerate(plan.classes):
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        blk = _onee_blocks(factors(cls, ca, cb), cls.p, cls.cc, cls.norms)
        for f, fp in plan.holders(ci):
            rows, cols = _block_indices(fp.oa, cls.nfa, fp.ob, cls.nfb)
            _scatter_blocks(out[f], rows, cols, blk[fp.at])
    return out


@stack_driver
def overlap(
    bases,
    workspace: IntegralWorkspace | None = None,
) -> list[np.ndarray]:
    """Overlap matrices of every fragment, ``(nbf, nbf)`` each. Its
    shell pairs are the S/T family of the workspace's block counts."""
    plan = pair_plan(bases, workspace)
    _record_blocks(
        workspace, "st",
        sum(plan.classes[ci].w[fp.at].sum()
            for row in plan.frags for ci, fp in enumerate(row)
            if fp is not None),
        sum(cls.w.sum() for cls in plan.classes),
    )
    return _onee(
        plan, bases, lambda cls, ca, cb: _overlap_1d(cls.E, ca, cb)
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
) -> list[np.ndarray]:
    """Kinetic-energy matrices of every fragment, ``(nbf, nbf)`` each."""
    return _onee(
        pair_plan(bases, workspace), bases,
        lambda cls, ca, cb: _kinetic_1d(cls.E, cls.b, ca, cb),
    )


def _nuclear_tables(workspace, bases, mols, plan):
    """The `CoulombTables` between the call's distinct pairs and its
    distinct nuclei (point charges: one ket group of order 0 without an
    exponent), over the (pair, nucleus) blocks some fragment holds; and
    the blocks' owners and the nuclear charges."""
    kets, Z, coords = _nuclear_columns(mols)
    blocks, mine = _blocks(plan, kets)
    points = np.concatenate([
        np.column_stack([mol.atomic_numbers, mol.coords]) for mol in mols
    ])
    tabs = _coulomb_tables(
        workspace, "nuclear", (bases,), points,
        [_bra(cls) for cls in plan.classes],
        [dict(qk=None, Pk=coords[:, None], l=0)], blocks,
    )
    return tabs, mine, Z


@stack_driver
def nuclear(
    bases,
    mols,
    workspace: IntegralWorkspace | None = None,
) -> list[np.ndarray]:
    """Nuclear-attraction matrices (negative definite) of every fragment
    (``mols``, each in its basis), ``(nbf, nbf)`` each.

    A block is a shell pair with one nucleus, computed once
    (``(X, N T) @ (N T, 1)`` per block); a fragment sums its own nuclei's
    blocks, weighted by their charges."""
    V = [np.zeros((basis.nbf, basis.nbf)) for basis in bases]
    plan = pair_plan(bases, workspace)
    tabs, mine, Z = _nuclear_tables(workspace, bases, mols, plan)
    requested = computed = 0
    for ci, cls in enumerate(plan.classes):
        if (ci, 0) not in mine:
            continue
        L = cls.la + cls.lb
        tuv = hermite_simplex(L)
        N, X, nT = cls.nprim, cls.nfa * cls.nfb, tuv.shape[0]
        W = _w_class(cls.E, comp_arrays(cls.la), comp_arrays(cls.lb),
                     tuv).reshape(cls.npair, X, N * nT)
        rows = simplex_sum_index(L, 0, L + 1)[:, 0]
        codes = tabs.blocks[ci, 0]
        pair = codes // Z.size
        vals = np.empty((codes.size, X))
        # largest per-block intermediate: R (N, nT)
        for pairs, sel, r in _runs(pair, N * nT):
            R = np.take(tabs.table(ci, 0, sel)[..., 0], rows, axis=2)
            vals[sel] = bgemm(W[pairs][:, None],
                              R.reshape(-1, r, N * nT, 1)).reshape(-1, X)
        computed += cls.w[pair].sum()
        for f, _, nuc, pos in mine[ci, 0]:
            fp = plan.frags[f][ci]
            requested += cls.w[fp.at].sum() * nuc.size
            blk = -_einsum("qcx,c->qx", vals[pos], Z[nuc])
            blk = blk.reshape(-1, cls.nfa, cls.nfb) * cls.norms[None]
            rows_f, cols_f = _block_indices(fp.oa, cls.nfa, fp.ob, cls.nfb)
            _scatter_blocks(V[f], rows_f, cols_f, blk)
    _record_blocks(workspace, "v", requested, computed)
    return V


# --------------------------------------------------------------------------
# One-electron contracted derivatives
# --------------------------------------------------------------------------

def _contract_bra_deriv(bases, X, workspace, deriv_1d) -> list[np.ndarray]:
    """``g[f][atom, xyz] = sum_{mu nu} X_{f mu nu} dM_{mu nu}/d(atom,
    xyz)`` for every fragment ``f`` and a one-electron matrix ``M``
    whose bra-differentiated per-primitive factors are ``deriv_1d(E, a,
    b, ca, cb, axis) -> [q, n, A, B]``: the derivative blocks of every
    distinct pair computed once, each fragment's coefficients
    contracted against its own.

    Translational invariance (``dM/dB = -dM/dA``) means only bra
    derivatives are computed; same-atom pairs vanish and are skipped.
    """
    plan = pair_plan(bases, workspace)
    g = [np.zeros((int(max(sh.atom for sh in basis.shells)) + 1, 3))
         for basis in bases]
    Xs = [x + x.T for x in X]
    for ci, cls in enumerate(plan.classes):
        apart = cls.AB.any(axis=1)  # two atoms: a nonvanishing derivative
        if not apart.any():
            continue
        sub = cls.subset(apart)
        row = np.cumsum(apart) - 1
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        pref = sub.cc * (np.pi / sub.p) ** 1.5
        dblk = np.empty((sub.npair, 3, cls.nfa, cls.nfb))
        for axis in range(3):
            dblk[:, axis] = _einsum(
                "qn,qnab->qab", pref, np.ascontiguousarray(
                    deriv_1d(sub.E, sub.a, sub.b, ca, cb, axis)),
            )
        for f, fp in plan.holders(ci):
            mask = (~fp.diag) & (fp.atom_a != fp.atom_b)
            if not mask.any():
                continue
            rows, cols = _block_indices(fp.oa[mask], cls.nfa, fp.ob[mask],
                                        cls.nfb)
            Xblk = Xs[f][rows[:, :, None], cols[:, None, :]] * cls.norms[None]
            vals = _einsum("qsab,qab->qs", dblk[row[fp.at[mask]]], Xblk)
            np.add.at(g[f], fp.atom_a[mask], vals)
            np.subtract.at(g[f], fp.atom_b[mask], vals)
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
    X,
    workspace: IntegralWorkspace | None = None,
) -> list[np.ndarray]:
    """``sum X_{f mu nu} dS_{mu nu}/dR`` via bra-side differentiation for
    every fragment, ``X[f] (nbf, nbf)``: ``(natoms, 3)`` each."""
    return _contract_bra_deriv(bases, X, workspace, _overlap_deriv_1d)


@stack_driver
def contract_kinetic_deriv(
    bases,
    X,
    workspace: IntegralWorkspace | None = None,
) -> list[np.ndarray]:
    """``sum X_{f mu nu} dT_{mu nu}/dR`` via bra-side differentiation for
    every fragment."""
    return _contract_bra_deriv(bases, X, workspace, _kinetic_deriv_1d)


@stack_driver
def contract_nuclear_deriv(
    bases,
    mols,
    X,
    workspace: IntegralWorkspace | None = None,
) -> list[np.ndarray]:
    """``sum X_{f mu nu} dV_{mu nu}/dR`` for every fragment, including
    operator-center terms: ``(natoms, 3)`` each.

    Bra/ket derivatives come from the angular-momentum shift; the
    derivative with respect to each nuclear position C follows from
    translational invariance of each C term:
    ``dV_C/dC = -(dV_C/dA + dV_C/dB)``. The six derivative integrals of
    every (pair, nucleus) block are computed once (``(6 X, N T) @ (N T,
    1)`` per block); each fragment contracts its own ``X`` with them.
    """
    g = [np.zeros((mol.natoms, 3)) for mol in mols]
    plan = pair_plan(bases, workspace)
    tabs, mine, Z = _nuclear_tables(workspace, bases, mols, plan)
    dWs = _deriv_expansions(plan.classes, workspace)
    Xs = [x + x.T for x in X]
    for ci, (cls, dW) in enumerate(zip(plan.classes, dWs)):
        if (ci, 0) not in mine:
            continue
        K = cls.nprim * hermite_simplex(cls.la + cls.lb + 1).shape[0]
        nx = cls.nfa * cls.nfb
        codes = tabs.blocks[ci, 0]
        pair = codes // Z.size
        dV = np.empty((codes.size, 6, nx))
        W = dW.reshape(cls.npair, 6 * nx, K)
        # largest per-block intermediate: the table (K,)
        for pairs, sel, r in _runs(pair, K):
            R = tabs.table(ci, 0, sel).reshape(-1, r, K, 1)
            dV[sel] = -bgemm(W[pairs][:, None], R).reshape(-1, 6, nx)
        for f, _, nuc, pos in mine[ci, 0]:
            fp = plan.frags[f][ci]
            rows, cols = _block_indices(fp.oa, cls.nfa, fp.ob, cls.nfb)
            at = (rows[:, :, None], cols[:, None, :])
            Xg = np.where(fp.diag[:, None, None], X[f][at], Xs[f][at])
            Xf = (Xg * cls.norms[None]).reshape(fp.npair, nx)
            vals = _einsum("qcsx,qx->qsc", dV[pos], Xf) * Z[nuc]
            vals = vals.reshape(fp.npair, 2, 3, nuc.size)
            for si, atoms_side in enumerate((fp.atom_a, fp.atom_b)):
                for axis in range(3):
                    v = vals[:, si, axis, :]
                    np.add.at(g[f][:, axis], atoms_side, v.sum(axis=1))
                    g[f][:, axis] -= v.sum(axis=0)
    return g


# --------------------------------------------------------------------------
# Schwarz bounds
# --------------------------------------------------------------------------

@stack_driver
def schwarz_pair_bounds(
    bases,
    workspace: IntegralWorkspace | None = None,
    frags=None,
) -> list[np.ndarray]:
    """Cauchy-Schwarz bounds ``Q_ij = max sqrt((ab|ab))`` per shell pair
    of the fragments ``frags`` (default all) of a call, ``(nshells,
    nshells)`` each, each distinct pair bounded once.

    Standard screening for all ERI classes: ``|(ab|cd)| <= Q_ab Q_cd``
    and ``|(ab|P)| <= Q_ab Q_P``. The bound ignores the component
    normalization (O(1) factors). Only the diagonal of each ``(ab|ab)``
    block is assembled. ``workspace`` serves the pair plan; the one
    table per fragment of an evaluation, which every screened driver
    (and the loop reference) takes its decisions from, is built here
    through `IntegralWorkspace.schwarz_bounds_stack`.
    """
    frags = list(range(len(bases))) if frags is None else list(frags)
    plan = pair_plan(bases, workspace)
    out = [np.zeros((bases[f].nshells, bases[f].nshells)) for f in frags]
    for ci, cls in enumerate(plan.classes):
        held = [(k, plan.frags[f][ci]) for k, f in enumerate(frags)
                if plan.frags[f][ci] is not None]
        if not held:
            continue
        need = np.zeros(cls.npair, dtype=bool)
        for _, fp in held:
            need[fp.at] = True
        sub = cls.subset(need)
        row = np.cumsum(need) - 1
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        L = cls.la + cls.lb
        tuv = hermite_simplex(L)
        Tb = tuv.shape[0]
        phase = _phase(tuv)
        N, X = cls.nprim, cls.nfa * cls.nfb
        bound = np.empty(sub.npair)
        # largest per-pair intermediate: the gathered (N*Tb, N*Tb) kernel
        for sl in _chunks(sub.npair, N * N * Tb * Tb):
            p = sub.p[sl]
            cc = sub.cc[sl]
            P = sub.P[sl]
            qc = p.shape[0]
            Wb = _w_class(sub.E[sl], ca, cb, tuv)
            # ket columns of the kernel run (Tb, N)
            Wk = (Wb * phase).transpose(0, 1, 2, 4, 3).reshape(qc, X, Tb * N)
            # the pair's own primitives are the ket; no derivative
            # driver follows, so the table is built here at order 2L
            ket = dict(qk=p[:, None, :], cck=cc[:, None, :], Pk=P[:, None])
            R, = _build_tables([(2 * L, lambda: _ket_inputs(p, cc, P, ket))])
            M2 = _kernel(R, simplex_sum_index(L, L))
            t1 = bgemm(Wb.reshape(qc, X, N * Tb), M2)
            diag = _einsum("qxk,qxk->qx", t1, Wk)
            bound[sl] = np.sqrt(np.max(np.abs(diag), axis=1))
        for k, fp in held:
            b = bound[row[fp.at]]
            out[k][fp.ish, fp.jsh] = b
            out[k][fp.jsh, fp.ish] = b
    return out


# --------------------------------------------------------------------------
# Three-center integrals and derivative contraction
# --------------------------------------------------------------------------

def _screen_pairs(plan, bases, auxs, screen, workspace, kind, Zblk=None):
    """Each fragment's kept pair rows per class (None: all), from its own
    Schwarz table: ``Q_ab * max_P Q_P > screen`` for the values, and
    ``DERIV_SAFETY * Q_ab * max_P Q_P * max |Z| > screen`` with the
    per-block coefficient magnitudes ``Zblk`` for the derivative. One
    `IntegralWorkspace.record_screen` per fragment: its neglected bound
    is one exactly rounded sum, independent of class order, chunking
    and the call."""
    keep = [[None] * len(plan.classes) for _ in bases]
    if screen <= 0.0:
        return keep
    Qs = _schwarz_tables(bases, workspace)
    for f, (basis, aux) in enumerate(zip(bases, auxs)):
        qaux = _aux_bounds(aux, workspace)
        qaux_max = float(qaux.max())
        qaux_sum = float(qaux.sum())
        skipped = []
        for ci, fp in enumerate(plan.frags[f]):
            if fp is None:
                continue
            cls = plan.classes[ci]
            qv = Qs[f][fp.ish, fp.jsh]
            nfab = (cls.nfa * cls.nfb) * np.where(fp.diag, 1.0, 2.0)
            if Zblk is None:
                kept = qv * qaux_max > screen
                bound = qv * qaux_sum * nfab
            else:
                zv = Zblk[f][fp.ish, fp.jsh]
                kept = DERIV_SAFETY * qv * qaux_max * zv > screen
                bound = DERIV_SAFETY * qv * zv * qaux_sum * nfab
            if not kept.all():
                skipped.append(bound[~kept])
                keep[f][ci] = np.nonzero(kept)[0]
        if workspace is not None:
            mine = np.concatenate(skipped) if skipped else np.empty(0)
            nsh = basis.nshells
            workspace.record_screen(kind, nsh * (nsh + 1) // 2,
                                    mine.size, math.fsum(mine))
    return keep


def _eri3c_tables(workspace, bases, auxs, plan, sites, keep):
    """The `CoulombTables` of the (pair, site) blocks the fragments'
    kept pairs hold, and each fragment's blocks among them."""
    blocks, mine = _blocks(plan, _site_columns(sites), keep)
    tabs = _coulomb_tables(
        workspace, "eri3c", (bases, auxs), None,
        [_bra(cls) for cls in plan.classes],
        [grp.ket for grp in sites.groups], blocks,
    )
    return tabs, mine


def _bra_kernel(tabs, ci, gi, grp, W, Lb, width):
    """``(n, width, Tk, m)`` of every (pair, atom) block of (class
    ``ci``, group ``gi``): the bra rows ``W (Q, width, N*Tb)`` of each
    block's pair through its kernel ``(N*Tb, Tk*m)`` — one GEMM a block,
    the atom's ``m`` sites on its N axis, so its shape is fixed by the
    class, the group and its sites per atom."""
    codes = tabs.blocks[ci, gi]
    m, Tk = grp.m, grp.Tk
    K = W.shape[2]
    out = None
    # largest per-block intermediates: the kernel (K, Tk m), the product
    for pairs, sel, r in _runs(codes // grp.natom, max(width, K) * Tk * m):
        M2 = tabs.kernel(ci, gi, sel, Lb).reshape(-1, r, K, Tk * m)
        t1 = bgemm(W[pairs][:, None], M2).reshape(-1, width, Tk, m)
        if t1.shape[0] == codes.size:
            return t1  # one chunk held every block
        if out is None:
            out = np.empty((codes.size, width, Tk, m))
        out[sel] = t1
    return out


def _three_centre(tabs, ci, gi, cls, grp, W, Lb):
    """``(n, m, nfa*nfb, C)``, the ``(mu nu|P)`` of every (pair, atom)
    block of (class ``ci``, group ``gi``): `_bra_kernel`, then each
    site's ``(nfa*nfb, Tk)`` through the site's ket expansion ``(Tk,
    C)``, one GEMM a site; normalized by ``cls.norms`` and the site's
    ``comp_norms``."""
    atom = tabs.blocks[ci, gi] % grp.natom
    t1 = np.ascontiguousarray(_bra_kernel(
        tabs, ci, gi, grp, W, Lb, cls.nfa * cls.nfb).transpose(0, 3, 1, 2))
    blk = bgemm(t1, grp.WkT[atom]) * cls.norms.reshape(1, 1, -1, 1)
    return blk * grp.comp_norms[atom][:, :, None, :]


#: (orbital and fitting compositions, class key, (ls, m)) -> `_tensor_map`;
#: geometry-free, so a run needs only the few compositions it meets,
#: and dropped whole past `_TENSOR_MAP_BYTES`
_TENSOR_MAPS: dict[tuple, tuple] = {}
_TENSOR_MAP_BYTES = 8 << 20


def _tensor_map(basis, aux, cls, fp, fs, group):
    """Where a fragment's (pair, atom) block elements of one (class,
    group) land in its flat ``(nbf, nbf, naux)`` tensor: ``(direct,
    image)``, each ``(q, a * m * nfa * nfb * C)`` in block order —
    ``(mu nu|P)`` and its ``(nu mu|P)`` image. Memoised on the
    compositions."""
    key = (basis_composition_key(basis), basis_composition_key(aux),
           cls.key, group)
    maps = _TENSOR_MAPS.get(key)
    if maps is None:
        r, c = _block_indices(fp.oa, cls.nfa, fp.ob, cls.nfb)
        fi = fs.func_idx[None, :, :, None, None, :]
        q = fp.npair
        index = np.int32 if basis.nbf ** 2 * aux.nbf < 2**31 else np.intp
        maps = tuple(
            (x[:, None, None, :, :, None] * aux.nbf + fi).reshape(q, -1)
            .astype(index)
            for x in (r[:, :, None] * basis.nbf + c[:, None, :],
                      c[:, None, :] * basis.nbf + r[:, :, None])
        )
        # a snapshot: another thread of the process may be adding maps
        held = sum(m.nbytes for entry in tuple(_TENSOR_MAPS.values())
                   for m in entry)
        if held > _TENSOR_MAP_BYTES:
            _TENSOR_MAPS.clear()
        _TENSOR_MAPS[key] = maps
    return maps


@stack_driver
def eri3c(
    bases,
    auxs,
    screen: float = 0.0,
    workspace: IntegralWorkspace | None = None,
) -> list[np.ndarray]:
    """Three-center integrals ``(mu nu | P)`` of every fragment,
    ``(nbf, nbf, naux)`` each.

    A block is a shell pair with an auxiliary site, computed once for
    the call; each fragment scatters its own. With ``screen > 0`` a bra
    shell pair of a fragment is skipped when its Schwarz bound ``Q_ab *
    max_P Q_P`` (the fragment's own table) cannot reach the threshold —
    every neglected integral is individually below ``screen`` and the
    summed bound of everything skipped is accounted to the workspace,
    per fragment (`IntegralWorkspace.record_screen`). ``workspace``
    additionally serves the pair plan, aux scaffolding and bound
    tables.
    """
    out = [np.zeros((b.nbf, b.nbf, a.nbf)) for b, a in zip(bases, auxs)]
    plan = pair_plan(bases, workspace)
    sites = site_plan(auxs, workspace)
    keep = _screen_pairs(plan, bases, auxs, screen, workspace, "eri3c")
    tabs, mine = _eri3c_tables(workspace, bases, auxs, plan, sites, keep)
    requested = computed = 0
    for ci, cls in enumerate(plan.classes):
        L = cls.la + cls.lb
        tuv = hermite_simplex(L)
        X = cls.nfa * cls.nfb
        W = None
        for gi, grp in enumerate(sites.groups):
            if (ci, gi) not in mine:
                continue
            if W is None:
                W = _w_class(cls.E, comp_arrays(cls.la), comp_arrays(cls.lb),
                             tuv).reshape(cls.npair, X, -1)
            blk = _three_centre(tabs, ci, gi, cls, grp, W, L)
            per_atom = grp.m * grp.C
            computed += per_atom * cls.w[tabs.blocks[ci, gi] // grp.natom].sum()
            for f, rows, fs, at in mine[ci, gi]:
                fp = plan.frags[f][ci]
                direct, image = _tensor_map(bases[f], auxs[f], cls, fp, fs,
                                            (grp.ls, grp.m))
                off, held = ~fp.diag, fp.at
                if rows is not None:
                    direct, image = direct[rows], image[rows]
                    off, held = off[rows], held[rows]
                requested += per_atom * fs.ids.size * cls.w[held].sum()
                mine_blk = blk[at].reshape(at.shape[0], -1)
                flat = out[f].reshape(-1)
                flat[direct] = mine_blk
                # the (nu mu|P) images of the off-diagonal pairs
                flat[image[off]] = mine_blk[off]
    _record_blocks(workspace, "3c", requested, computed)
    return out


@stack_driver
def contract_eri3c_deriv(
    bases,
    auxs,
    Z,
    natoms,
    screen: float = 0.0,
    workspace: IntegralWorkspace | None = None,
) -> list[np.ndarray]:
    """``g[f] = sum_{mu nu P} Z_{f mu nu P} d(mu nu|P)/dR`` for every
    fragment, ``(natoms, 3)`` each (``natoms`` one count for all, or one
    per fragment).

    ``Z[f]`` has shape ``(nbf, nbf, naux)`` and need not be symmetric in
    (mu, nu). Auxiliary-center derivatives follow from translational
    invariance (``dP = -(dA + dB)``). The six derivative integrals of
    every (pair, site) block the fragments keep are computed once; each
    fragment contracts its own coefficients with them (one ``(6, X C)
    @ (X C, 1)`` per block it holds).

    With ``screen > 0`` a bra shell pair is skipped when ``DERIV_SAFETY *
    Q_ab * max_P Q_P * max |Z|`` over the pair's coefficient slice cannot
    reach the threshold. Skipping drops the pair's bra derivatives
    together with their translational-invariance images on the auxiliary
    centers, so the screened gradient still sums to zero over all atoms.
    The summed bound of everything skipped is accounted to the
    workspace, per fragment.

    Per-(pair, group) contracted values fill whole-class arrays; the
    gradient is accumulated from those once per class, so the result
    does not depend on the chunk size or on the call.
    """
    F = len(bases)
    natoms = [natoms] * F if np.ndim(natoms) == 0 else list(natoms)
    g = [np.zeros((n, 3)) for n in natoms]
    plan = pair_plan(bases, workspace)
    sites = site_plan(auxs, workspace)
    Zblk = None
    if screen > 0.0:
        # (mu nu|P) is symmetric in (mu, nu): the symmetric part of Z
        # is what a pair's derivative meets
        Zblk = [_zblk_table(basis, 0.5 * (z + z.transpose(1, 0, 2)))
                for basis, z in zip(bases, Z)]
    keep = _screen_pairs(plan, bases, auxs, screen, workspace,
                         "eri3c_deriv", Zblk)
    # the tables `eri3c` left in this evaluation's scratch, completed by
    # the blocks this mask keeps and that one dropped
    tabs, mine = _eri3c_tables(workspace, bases, auxs, plan, sites, keep)
    dWs = _deriv_expansions(plan.classes, workspace)
    for ci, (cls, dW) in enumerate(zip(plan.classes, dWs)):
        L = cls.la + cls.lb + 1
        X = cls.nfa * cls.nfb
        W = dW.reshape(cls.npair, 6 * X, -1)
        norms_flat = cls.norms.ravel()
        # per fragment: bra/ket-centre sums (q, 3) and, per group, the
        # per-site vA + vB (q, m, 3) that go onto the aux centres
        acc: dict[int, list] = {}
        for gi, grp in enumerate(sites.groups):
            if (ci, gi) not in mine:
                continue
            m, C, Tk = grp.m, grp.C, grp.Tk
            # a block's six derivatives over its sites' (x, t) rows
            k = X * Tk * m
            t1 = _bra_kernel(tabs, ci, gi, grp, W, L, 6 * X).reshape(-1, 6, k)
            cn = grp.comp_norms[:, :, None, :] * norms_flat[:, None]
            for piece in _pieces(mine[ci, gi], 8 * m * X * max(C, Tk)):
                pos, ZW = [], []
                for f, rows, fs, at in piece:
                    fp = plan.frags[f][ci]
                    direct, image = _tensor_map(bases[f], auxs[f], cls, fp,
                                                fs, (grp.ls, grp.m))
                    diag = fp.diag
                    if rows is not None:
                        direct, image, diag = direct[rows], image[rows], diag[rows]
                    z = Z[f].reshape(-1)
                    # the symmetric part of the fragment's Z, normalized
                    # (an off-diagonal pair stands for its (nu mu|P)
                    # image) and folded into its sites' ket expansions
                    zg = (z[direct] + z[image]) * 0.5
                    zg = zg.reshape(*at.shape, m, X, C) * cn[fs.ids]
                    zg *= np.where(diag, 1.0, 2.0)[:, None, None, None, None]
                    pos.append(at.ravel())
                    ZW.append(np.ascontiguousarray(
                        bgemm(zg, grp.Wk[fs.ids]).transpose(0, 1, 3, 4, 2)
                    ).reshape(at.size, k, 1))
                ZW = np.concatenate(ZW)
                v = bgemm(_gather(t1, pos), ZW)[..., 0]
                lo = 0
                for f, _, fs, at in piece:
                    q, a = at.shape
                    vf = v[lo:lo + q * a].reshape(q, a, 6)
                    lo += q * a
                    if f not in acc:
                        acc[f] = [np.zeros((q, 3)), np.zeros((q, 3)), []]
                    sA, sB, vAB = acc[f]
                    sA += vf[:, :, :3].sum(axis=1)
                    sB += vf[:, :, 3:].sum(axis=1)
                    vAB.append((fs.atoms, vf[:, :, :3] + vf[:, :, 3:]))
            del t1  # before the next group's blocks are built
        for f, (sA, sB, vAB) in acc.items():
            fp = plan.frags[f][ci]
            sel = slice(None) if keep[f][ci] is None else keep[f][ci]
            np.add.at(g[f], fp.atom_a[sel], sA)
            np.add.at(g[f], fp.atom_b[sel], sB)
            for atoms, v in vAB:
                np.subtract.at(g[f], atoms, v.sum(axis=0))
    return g
