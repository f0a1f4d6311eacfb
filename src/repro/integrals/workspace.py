"""Cross-call integral workspace: screening bounds and shell-pair caching.

An MBE-AIMD step evaluates thousands of fragment energy/gradient pairs.
Inside one of them the overlap/kinetic/nuclear/3c/derivative drivers
would each rebuild the same shell-pair Hermite E tables; across them
every solve would rebuild the auxiliary-basis site grouping (whose E
tables do not depend on geometry at all — the dummy partner sits on the
same center), and every screened driver its own Cauchy-Schwarz bound
table (as expensive as a full `eri3c` build). This is the redundant
work the paper's performance model assumes away (Sec. V: all
bottlenecks reduce to *screened*, dense GEMMs) and that CP2K's exascale
effort attributes to missing integral reuse.

`IntegralWorkspace` is the per-process fix — a `repro.store.BoundedStore`
(LRU byte budget and lock: million-fragment plans cannot
exhaust worker memory) plus the integral products:

* **Composition keys** — entries are keyed on the *composition* of the
  bases (per-shell angular momentum, owning atom, exponents and
  contraction coefficients) and on which of a call's shells share a
  centre (`StackKey`), never on object identity, so the bases of the
  same fragments at the next MD step hit.
* **Plans once per composition** — what depends on compositions alone
  is built once and kept in the store (`plan`): a call's pair and site
  layouts, its block lists and the scatter maps that put every
  fragment's blocks of a (class, group) in place in one operation,
  and the calculators' groups and bases; the auxiliary function bounds
  too. An evaluation computes only what its geometry changes: the
  centres, product centres, E tables, Schwarz tables and screening
  masks (which select rows of the plans' blocks) and its Hermite
  Coulomb tables.
* **State vs scratch** — what is keyed on the exact centres (the plans
  placed at them, the Hermite Coulomb tables, the Schwarz bound tables)
  is one evaluation's scratch, since an MD geometry never recurs:
  shared by the drivers inside the calling thread's `scope`, dropped at
  its exit. Every driver runs in a scope of a workspace
  (`engine.in_scope`): it joins the one open on the calling thread or
  opens its own, and ``workspace=None`` is the process workspace
  (`get_workspace`), so the scratch exists whenever a driver asks for
  it. The fragments of a calculator call (or of one group of it) are
  one evaluation (`evaluation`): each shell pair, auxiliary site and
  nucleus they share is one entry of its plans, and every integral
  block is computed once.
* **Screen where you stand** — every evaluation screens each fragment
  with the Schwarz table of its own geometry, built once on the
  evaluation's pair plan (`schwarz_bounds_stack`). Screening is a
  function of the current geometry alone: the same in a resumed
  process, on another worker or after an eviction, whatever the
  fragment's history.

All caching is *exact* (served arrays are bitwise what a fresh build
would produce); only the screening threshold (``screen`` / the
calculators' ``int_screen``) changes numbers, and the workspace tracks
the summed neglected Schwarz bound so callers can report a rigorous
error estimate (rigorous with no stale term: every bound it sums comes
from the table of the geometry evaluated). Its ``int.screen`` /
``workspace.hit`` instants go to the calling thread's tracer
(`repro.trace.current`): a workspace holds none.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from ..store import BoundedStore, payload_nbytes
from ..trace import current

#: default screening threshold for the calculators / CLI (``--int-screen``);
#: the neglected per-integral bound, chosen so total energies stay within
#: 1e-9 Ha of the unscreened path on the benchmark systems
DEFAULT_INT_SCREEN = 1.0e-12

#: default byte budget of a workspace
DEFAULT_MAX_BYTES = 256 * 2**20

def _shell_sig(sh) -> tuple:
    """Geometry-free identity of one shell (momentum, atom, primitives)."""
    return (sh.l, sh.atom, sh.exps.tobytes(), sh.coefs.tobytes())


def basis_composition_key(basis) -> tuple:
    """Geometry-free identity of a whole basis (shell order included),
    memoised on the basis: every product of every driver of an
    evaluation asks for it again (ten times for a fitting basis)."""
    key = basis.__dict__.get("_composition_key")
    if key is None:
        key = tuple(_shell_sig(sh) for sh in basis.shells)
        basis.__dict__["_composition_key"] = key
    return key


def _centers(basis) -> np.ndarray:
    """The centre of every shell of a basis, ``(nshells, 3)``, memoised
    on the basis like its composition key."""
    centres = basis.__dict__.get("_centres")
    if centres is None:
        centres = np.array([sh.center for sh in basis.shells]).reshape(-1, 3)
        basis.__dict__["_centres"] = centres
    return centres


def stack_centres(bases) -> np.ndarray:
    """The shell centres of a list of bases, end to end."""
    return np.concatenate([_centers(basis) for basis in bases])


class StackKey:
    """The geometry-free identity of a list of bases: each one's
    composition and which of the call's shells share a centre (the
    index of each shell's centre among the call's distinct centres).
    Two lists with equal keys have the same plans (`batch.PairLayout`,
    `batch.SitePlan`, the block lists and scatter maps): a shell pair,
    an auxiliary atom or a block is shared by the same fragments.
    The hash is taken once."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple) -> None:
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is StackKey
                                 and self._hash == other._hash
                                 and self.parts == other.parts)


class Stack:
    """A list of bases as the workspace keys it: its `StackKey` (``key``),
    its shells' centres end to end (``centres``) and the exact-geometry
    key of its scratch products (``where``)."""

    __slots__ = ("bases", "key", "centres", "where")

    def __init__(self, bases) -> None:
        self.bases = tuple(bases)
        self.centres = stack_centres(bases)
        rows = np.ascontiguousarray(self.centres).view(
            np.dtype((np.void, 24))).ravel()
        _, first, pattern = np.unique(rows, return_index=True,
                                      return_inverse=True)
        # centre ids in order of first occurrence
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.size)
        self.key = StackKey((
            tuple(basis_composition_key(basis) for basis in bases),
            rank[pattern.ravel()].astype(np.int32).tobytes(),
        ))
        self.where = (self.key, self.centres.tobytes())


#: the block families a value driver counts (`IntegralWorkspace.
#: record_blocks`): ``(mu nu|P)``, ``(P|Q)``, overlap / kinetic pairs,
#: and (pair, nucleus) nuclear-attraction blocks
BLOCK_FAMILIES = ("3c", "2c", "st", "v")


def _no_blocks() -> dict:
    return {family: 0 for family in BLOCK_FAMILIES}


class _Scratch(dict):
    """One evaluation's geometry-keyed products, and what its Hermite
    Coulomb tables cost: the largest set it built plus the bra-derivative
    expansions held on its shell classes (``table_bytes``), the pairs a
    derivative driver rebuilt beside the set it found, and the block
    elements its value drivers were asked for and computed."""

    def __init__(self) -> None:
        super().__init__()
        self.sets_peak_bytes = 0
        self.expansion_bytes = 0
        self.rebuilt_pairs = 0
        self.elements_requested = _no_blocks()
        self.elements_computed = _no_blocks()

    @property
    def table_bytes(self) -> int:
        return self.sets_peak_bytes + self.expansion_bytes


class _Scope(threading.local):
    """The calling thread's current evaluation."""

    #: the evaluation's geometry-keyed products; None outside any scope,
    #: where no driver runs
    scratch: _Scratch | None = None


class IntegralWorkspace(BoundedStore):
    """Per-process store of integral-engine intermediates.

    Cross-step state, keyed on basis composition and kept in the store:

    * `plan` — a call's geometry-free plans (`batch.PairLayout`, the
      site plan `batch.SitePlan`, `batch.ThreeCentreLayout`, the
      metric's and the nuclei's block lists, the calculators' groups
      and bases), keyed by the `StackKey` of its bases;
    * `aux_function_bounds` — per-auxiliary-function bounds
      ``sqrt((P|P))`` (translation invariant, cached exactly).

    One evaluation's scratch, keyed on the exact geometry (or density)
    as well, shared by the drivers inside one `scope` and dropped with
    it — never in the store, so never evicted, never another thread's:

    * `pair_plan` — the distinct shell pairs of the evaluation's
      bases, packed per class for the batched kernels, and each
      fragment's pairs among them (`repro.integrals.batch.PairPlan`);
    * `schwarz_bounds_stack` — the Cauchy-Schwarz shell-pair bound
      table of each fragment at its own geometry, which every screened
      driver takes its skip decisions from;
    * `coulomb_tables` — the Hermite Coulomb tables
      (`batch.CoulombTables`) a value driver builds and the derivative
      driver that follows it reads, at most `TABLE_SHARE` of the byte
      budget.

    Budget and lock are the store's (`repro.store.BoundedStore`);
    scratch lookups count in the same ``hits`` / ``misses`` as the
    store's. The scratch methods run inside a `scope`, as every driver
    does.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        super().__init__(max_bytes)
        self._scope = _Scope()
        # the largest Hermite Coulomb table set ever held
        self.tables_peak_bytes = 0
        # screening accounting (accumulated by the screened drivers)
        self.pairs_total = 0
        self.pairs_skipped = 0
        self.neglected_bound = 0.0
        # block elements the value drivers were asked for and computed
        self.elements_requested = _no_blocks()
        self.elements_computed = _no_blocks()

    @contextmanager
    def scope(self):
        """The calling thread's evaluation scratch (`_scratch`): joined
        if one is open, else opened here and dropped at exit
        (`evaluation` always opens one of its own)."""
        scope = self._scope
        if scope.scratch is not None:
            yield
            return
        scope.scratch = _Scratch()
        try:
            yield
        finally:
            scope.scratch = None

    @contextmanager
    def evaluation(self):
        """One evaluation of the integral layer on the calling thread —
        what a calculator runs each group of fragments in: a fresh
        scratch for the block, even inside an enclosing scope, dropped
        at its exit and the enclosing one put back. Yields the scratch,
        whose ``table_bytes`` / ``rebuilt_pairs`` tell what its tables
        cost."""
        scope = self._scope
        saved, scope.scratch = scope.scratch, _Scratch()
        try:
            yield scope.scratch
        finally:
            scope.scratch = saved

    def _scratch(self, key: tuple, build):
        """``(payload, hit)`` under ``key``: found in the calling
        thread's scratch, or ``build()`` and kept there for the rest of
        the evaluation. Counted like a store lookup."""
        scratch = self._scope.scratch
        payload = scratch.get(key)
        hit = payload is not None
        with self._lock:
            self._count(hit)
        if not hit:
            payload = scratch[key] = build()
        return payload, hit

    def _instant(self, name: str, **args) -> None:
        """Emit one instant into the calling thread's tracer."""
        if tracer := current():
            tracer.instant(name, cat="integrals", **args)

    # ------------------------------------------------------------------
    # screening bound tables
    # ------------------------------------------------------------------
    def schwarz_bounds_stack(self, bases) -> list[np.ndarray]:
        """Cauchy-Schwarz shell-pair bounds of every basis of a call, each
        at its own geometry (scratch).

        The tables this evaluation's scratch does not hold yet are built
        in one call on its pair plan (`batch.schwarz_pair_bounds`) and
        kept for the rest of the evaluation, where its other screened
        drivers find them. Nothing goes into the store: a table is a
        function of the geometry it screens, never of an earlier one.
        """
        from .batch import schwarz_pair_bounds

        scratch = self._scope.scratch
        keys = [("schwarz", basis_composition_key(basis),
                 _centers(basis).tobytes()) for basis in bases]
        out = [scratch.get(key) for key in keys]
        todo = [f for f, Q in enumerate(out) if Q is None]
        with self._lock:
            for Q in out:
                self._count(Q is not None)
        if todo:
            built = schwarz_pair_bounds(bases, workspace=self, frags=todo)
            for f, Q in zip(todo, built):
                self._instant("workspace.hit", product="schwarz", hit=False)
                out[f] = scratch[keys[f]] = Q
        return out

    def aux_function_bounds(self, aux) -> np.ndarray:
        """Per-auxiliary-function bounds ``sqrt((P|P))``, shape (naux,).

        ``(P|P)`` is translation invariant, so the table depends only on
        the composition and caches exactly.
        """
        from .eri import aux_function_bounds

        key = ("auxbound", basis_composition_key(aux))
        q = self._get(key)
        if q is None:
            q = aux_function_bounds(aux, table_budget(self))
            self._put(key, q)
        return q

    # ------------------------------------------------------------------
    # plans: geometry-free, one per composition of a call
    # ------------------------------------------------------------------
    def stack(self, bases) -> Stack:
        """The `Stack` of a list of bases, worked out once per evaluation
        (kept in its scratch under the bases' identities, which it keeps
        alive)."""
        scratch = self._scope.scratch
        key = ("stack", *map(id, bases))
        found = scratch.get(key)
        if found is None:
            found = scratch[key] = Stack(bases)
        return found

    def plan(self, kind: str, key, build):
        """The plan ``kind`` of the call whose stacks' `StackKey` is
        ``key``: from the store, or ``build()`` and kept there. A plan
        depends on compositions and shared centres alone, so it serves
        every geometry of them; it is counted in the store's bytes and
        evicted like any entry (one larger than the whole budget is
        not kept), and its lookups are not counted as hits or misses
        (the products built from it are)."""
        full = ("plan", kind, key)
        plan = self._lookup(full)
        if plan is None:
            plan = build()
            # one larger than the whole budget is the call's alone
            if payload_nbytes(plan) <= self.max_bytes:
                self._put(full, plan)
        return plan

    # ------------------------------------------------------------------
    # batched shell-class tables
    # ------------------------------------------------------------------
    def pair_plan(self, bases):
        """The `batch.PairPlan` of a list of bases: their distinct shell
        pairs packed per class for the batched kernels, and each
        fragment's pairs among them.

        Scratch, keyed on the bases' `Stack` (compositions and exact
        shell centres): the packed E tables are geometry-dependent, so
        the drivers of one evaluation (overlap/kinetic/nuclear/Schwarz/
        3c/derivatives) share a single build and the next MD step is
        left nothing. What is geometry-free in it — the pairs, classes
        and fragments' pairs (`batch.PairLayout`) — is the plan the
        store keeps, so a build only places it at the centres.
        """
        from .batch import _pair_layout, _place_pairs

        stack = self.stack(bases)

        def build():
            layout = self.plan("pairs", stack.key, lambda: _pair_layout(bases))
            return _place_pairs(layout, stack.centres)

        plan, hit = self._scratch(("classtab", stack.where), build)
        self._instant("workspace.hit", product="shell_classes", hit=hit)
        return plan

    def site_plan(self, auxs, di: int = 0):
        """The `batch.SitePlan` of a list of fitting bases: the store's
        geometry-free plan placed at the bases' centres, once per
        evaluation, kept in its scratch, uncounted."""
        from .batch import _build_site_plan

        stack = self.stack(auxs)
        scratch = self._scope.scratch
        key = ("siteplan", stack.where, di)
        plan = scratch.get(key)
        if plan is None:
            plan = scratch[key] = self.plan(
                "sites", (stack.key, di),
                lambda: _build_site_plan(auxs, di)).placed(stack.centres)
        return plan

    # ------------------------------------------------------------------
    # Hermite Coulomb tables
    # ------------------------------------------------------------------
    #: share of ``max_bytes`` one evaluation's table set may hold
    TABLE_SHARE = 1.0 / 16.0

    def coulomb_tables(self, kind: str, stacks, points, bras, kets, blocks):
        """This evaluation's `batch.CoulombTables` for a driver pair.

        ``kind`` names the pair (``eri3c``, ``eri2c``, ``nuclear``),
        ``stacks`` the basis lists (one per side: the evaluation's
        orbital and fitting bases) and ``points`` any further array the
        tables depend on (the nuclei); ``bras``, ``kets`` and ``blocks``
        are the driver's set (`batch.CoulombTables`).

        A set is built from the payload found (or from nothing) within
        `table_budget` — `TABLE_SHARE` of ``max_bytes``, a bound on what
        one evaluation *holds*; what does not fit is built by the driver
        as it goes. The first driver of a pair keeps the set it built
        from nothing, the other builds its own from that one's payload
        and takes it out of the scratch, so a set lives from its value
        driver to its derivative. Found and rebuilt tables are bitwise
        equal: the scratch only saves time.
        """
        from .batch import CoulombTables

        key = ("coultab", kind, *(self.stack(stack).where for stack in stacks),
               None if points is None else points.tobytes())
        budget = table_budget(self)
        tabs, hit = self._scratch(
            key, lambda: CoulombTables(bras, kets, blocks, budget))
        scratch = self._scope.scratch
        if hit:
            # the set is handed on once: the driver that finds it is its
            # last reader, and the evaluation holds it no longer
            del scratch[key]
            tabs = CoulombTables(bras, kets, blocks, budget, tabs.payload)
        with self._lock:
            self.tables_peak_bytes = max(self.tables_peak_bytes, tabs.nbytes)
        scratch.sets_peak_bytes = max(scratch.sets_peak_bytes, tabs.nbytes)
        scratch.rebuilt_pairs += tabs.rebuilt_pairs
        self._instant(
            "workspace.hit", product="coulomb_tables", kind=kind,
            hit=hit, orders=tabs.orders,
            elements=tabs.elements, nbytes=tabs.nbytes, kept=tabs.complete,
            rebuilt_pairs=tabs.rebuilt_pairs,
        )
        return tabs

    def record_bra_expansions(self, built: int, nbytes: int) -> None:
        """Account a derivative driver's request for its classes'
        bra-derivative expansions (`batch._deriv_expansions`): ``built``
        bytes of them made now (none: every one found on its class),
        ``nbytes`` held. What the scratch holds counts in its
        ``table_bytes``."""
        self._scope.scratch.expansion_bytes += built
        self._instant("workspace.hit", product="bra_expansions",
                      hit=built == 0, nbytes=nbytes)

    def record_blocks(self, family: str, requested: int,
                      computed: int) -> None:
        """Account a value driver's blocks of ``family`` (one of
        `BLOCK_FAMILIES`), in elements of its fragments' atom blocks:
        ``requested`` summed over the fragments, ``computed`` over the
        distinct blocks evaluated once. The scratch counts them too,
        for its evaluation."""
        requested, computed = int(requested), int(computed)
        with self._lock:
            self.elements_requested[family] += requested
            self.elements_computed[family] += computed
        scratch = self._scope.scratch
        scratch.elements_requested[family] += requested
        scratch.elements_computed[family] += computed

    # ------------------------------------------------------------------
    # screening statistics
    # ------------------------------------------------------------------
    def record_screen(self, kind: str, pairs_total: int, pairs_skipped: int,
                      neglected_bound: float) -> None:
        """Account one screened driver pass (and emit ``int.screen``)."""
        with self._lock:
            self.pairs_total += int(pairs_total)
            self.pairs_skipped += int(pairs_skipped)
            self.neglected_bound += float(neglected_bound)
        self._instant(
            "int.screen", kind=kind,
            pairs=int(pairs_total), skipped=int(pairs_skipped),
            neglected=float(neglected_bound),
        )

    def stats(self) -> dict:
        """Counters snapshot (cache traffic + screening accounting)."""
        with self._lock:
            return dict(
                super().stats(),
                tables_peak_bytes=self.tables_peak_bytes,
                pairs_total=self.pairs_total,
                pairs_skipped=self.pairs_skipped,
                neglected_bound=self.neglected_bound,
                elements_requested=dict(self.elements_requested),
                elements_computed=dict(self.elements_computed),
            )


def table_budget(workspace: IntegralWorkspace) -> int:
    """Bytes one evaluation's Hermite Coulomb tables may hold:
    `IntegralWorkspace.TABLE_SHARE` of the workspace's byte budget."""
    return int(workspace.TABLE_SHARE * workspace.max_bytes)


#: the process workspace: built with the module, so every thread that
#: asks gets this one
_PROCESS_WORKSPACE = IntegralWorkspace()


def get_workspace() -> IntegralWorkspace:
    """The process's shared `IntegralWorkspace`: what ``workspace=None``
    means to every driver, SCF and gradient entry point and calculator."""
    return _PROCESS_WORKSPACE
