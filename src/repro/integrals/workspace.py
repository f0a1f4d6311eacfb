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
(LRU byte budget, lock, attribution: million-fragment plans cannot
exhaust worker memory) plus the integral products:

* **Composition keys** — entries are keyed on the *composition* of the
  basis (per-shell angular momentum, owning atom, exponents and
  contraction coefficients), never on object identity, so the freshly
  rebuilt `BasisSet` of the same fragment at the next MD step hits.
* **State vs scratch** — what can serve the *next* geometry lives in
  the store: the auxiliary site groups are geometry-independent, and
  so are the auxiliary function bounds. What is keyed on the exact
  centers (class and Hermite Coulomb tables, and the Schwarz bound
  tables) is one evaluation's scratch, since an MD geometry never
  recurs: shared by the drivers inside the calling thread's `scope`,
  dropped at its exit. The fragments of a calculator call (or of one
  group of it) are one evaluation (`evaluation`): each shell pair,
  auxiliary site and nucleus they share is one entry of its plans, and
  every integral block is computed once.
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
from contextlib import contextmanager, nullcontext

import numpy as np

from ..store import BoundedStore
from ..trace import current

#: default screening threshold for the calculators / CLI (``--int-screen``);
#: the neglected per-integral bound, chosen so total energies stay within
#: 1e-9 Ha of the unscreened path on the benchmark systems
DEFAULT_INT_SCREEN = 1.0e-12

#: default byte budget of a workspace
DEFAULT_MAX_BYTES = 256 * 2**20

#: `IntegralWorkspace.scope` argument left as the enclosing scope set it
_KEEP = object()


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
    return np.array([sh.center for sh in basis.shells])


def _stack_key(bases) -> tuple:
    """Key material of a list of bases: each one's composition and
    centres."""
    return tuple((basis_composition_key(basis), _centers(basis).tobytes())
                 for basis in bases)


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
    """What the calling thread's current evaluation asked for."""

    tenant: str | None = None
    #: the evaluation's geometry-keyed products; None outside any scope
    scratch: _Scratch | None = None


class IntegralWorkspace(BoundedStore):
    """Per-process store of integral-engine intermediates.

    Cross-step state, keyed on basis composition and kept in the store:

    * `aux_groups` — the auxiliary site grouping (`engine.AuxGroup`),
      geometry-independent, E tables included;
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

    Budget, lock and ``enabled`` are the store's
    (`repro.store.BoundedStore`); hits and misses belong to the tenant
    of the calling thread's `scope`, and scratch lookups count in the
    same ``hits`` / ``misses``.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES,
                 enabled: bool = True) -> None:
        super().__init__(max_bytes, enabled)
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

    def _tenant_of(self, key: tuple) -> str | None:
        """Traffic belongs to the calling thread's tenant."""
        return self._scope.tenant

    @contextmanager
    def scope(self, tenant=_KEEP):
        """One evaluation's settings, for the calling thread only.

        ``tenant``, when given, receives the hits and misses (and is put
        back on exit): a calculator's scope leaves alone the tenant
        `evaluate_fragments` scoped around it. The outermost scope on a
        thread also opens the evaluation's scratch (`_scratch`); nested
        ones share it, its exit drops it (`evaluation` opens one of its
        own).
        """
        scope = self._scope
        saved = scope.tenant, scope.scratch
        if tenant is not _KEEP:
            scope.tenant = tenant
        if scope.scratch is None:
            scope.scratch = _Scratch()
        try:
            yield
        finally:
            scope.tenant, scope.scratch = saved

    @contextmanager
    def evaluation(self):
        """One evaluation of the integral layer on the calling thread —
        what a calculator runs each group of fragments in: a fresh
        scratch for the block, even inside an enclosing scope (whose
        tenant still holds), dropped at its exit and the
        enclosing one put back. Yields the scratch, whose
        ``table_bytes`` / ``rebuilt_pairs`` tell what its tables
        cost."""
        scope = self._scope
        saved, scope.scratch = scope.scratch, _Scratch()
        try:
            yield scope.scratch
        finally:
            scope.scratch = saved

    def _scratch(self, key: tuple, build):
        """``(payload, hit)`` under ``key``: found in the calling
        thread's scratch, or ``build()`` — kept for the rest of the
        evaluation, or nowhere with no scope open or ``enabled=False``.
        Counted like a store lookup."""
        scratch = self._scope.scratch if self.enabled else None
        payload = None if scratch is None else scratch.get(key)
        hit = payload is not None
        with self._lock:
            self._count("hits" if hit else "misses", self._scope.tenant)
        if not hit:
            payload = build()
            if scratch is not None:
                scratch[key] = payload
        return payload, hit

    def _instant(self, name: str, **args) -> None:
        """Emit one instant into the calling thread's tracer."""
        if tracer := current():
            tracer.instant(name, cat="integrals", **args)

    # ------------------------------------------------------------------
    # auxiliary group scaffolding
    # ------------------------------------------------------------------
    def aux_groups(self, aux, di: int = 0) -> list:
        """Auxiliary site groups (`engine.aux_group_data`) of a fitting
        basis, cached on its composition alone: nothing in them depends
        on geometry (a site's zero-exponent partner sits on its own
        centre, so its E tables are the same everywhere, and the
        drivers read the centres from the basis)."""
        from .engine import aux_group_data

        key = ("auxgrp", basis_composition_key(aux), di)
        groups = self._get(key)
        self._instant("workspace.hit", product="aux_groups",
                      hit=groups is not None, di=di)
        if groups is None:
            groups = aux_group_data(aux, di=di)
            self._put(key, groups)
        return groups

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

        scratch = self._scope.scratch if self.enabled else None
        keys = [("schwarz", basis_composition_key(basis),
                 _centers(basis).tobytes()) for basis in bases]
        out = [None if scratch is None else scratch.get(key) for key in keys]
        todo = [f for f, Q in enumerate(out) if Q is None]
        with self._lock:
            for Q in out:
                self._count("misses" if Q is None else "hits",
                            self._scope.tenant)
        if todo:
            built = schwarz_pair_bounds(bases, workspace=self, frags=todo)
            for f, Q in zip(todo, built):
                self._instant("workspace.hit", product="schwarz", hit=False)
                out[f] = Q
                if scratch is not None:
                    scratch[keys[f]] = Q
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
            q = aux_function_bounds(aux)
            self._put(key, q)
        return q

    # ------------------------------------------------------------------
    # batched shell-class tables
    # ------------------------------------------------------------------
    def pair_plan(self, bases):
        """The `batch.PairPlan` of a list of bases: their distinct shell
        pairs packed per class for the batched kernels, and each
        fragment's pairs among them.

        Scratch, keyed on every basis's composition and exact shell
        centers: the packed E tables are geometry-dependent, so the
        drivers of one evaluation (overlap/kinetic/nuclear/Schwarz/3c/
        derivatives) share a single build and the next MD step is left
        nothing.
        """
        from .batch import _build_pair_plan

        key = ("classtab", _stack_key(bases))
        plan, hit = self._scratch(key, lambda: _build_pair_plan(bases))
        self._instant("workspace.hit", product="shell_classes", hit=hit)
        return plan

    def shell_classes(self, bases) -> list:
        """The shell classes of `pair_plan`."""
        return self.pair_plan(bases).classes

    def site_plan(self, auxs, di: int = 0):
        """The `batch.SitePlan` of a list of fitting bases, built once per
        evaluation and kept in its scratch beside the counted products
        it is made of (`aux_groups`), uncounted."""
        from .batch import _build_site_plan

        scratch = self._scope.scratch if self.enabled else None
        key = ("siteplan", _stack_key(auxs), di)
        plan = None if scratch is None else scratch.get(key)
        if plan is None:
            plan = _build_site_plan(auxs, self, di)
            if scratch is not None:
                scratch[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Hermite Coulomb tables
    # ------------------------------------------------------------------
    #: share of ``max_bytes`` one evaluation's table set may hold
    TABLE_SHARE = 1.0 / 16.0

    def coulomb_tables(self, kind: str, stacks, points, build):
        """This evaluation's `batch.CoulombTables` for a driver pair.

        ``kind`` names the pair (``eri3c``, ``eri2c``, ``nuclear``),
        ``stacks`` the basis lists (one per side: the evaluation's
        orbital and fitting bases) and ``points`` any further array the
        tables depend on (the nuclei).

        ``build(found, budget)`` makes the driver's set from the payload
        found (or None) within ``budget`` bytes — `TABLE_SHARE` of
        ``max_bytes``, a bound on what one evaluation *holds*; what does
        not fit is built by the driver as it goes. The first driver of a
        pair keeps the set it built from nothing, the other builds its
        own from that one's payload and takes it out of the scratch, so
        a set lives from its value driver to its derivative. Found and
        rebuilt tables are bitwise equal: the scratch only saves time.
        """
        key = ("coultab", kind, *(_stack_key(stack) for stack in stacks),
               None if points is None else points.tobytes())
        budget = table_budget(self)
        tabs, hit = self._scratch(key, lambda: build(None, budget))
        if hit:
            # the set is handed on once: the driver that finds it is its
            # last reader, and the evaluation holds it no longer
            self._scope.scratch.pop(key, None)
            tabs = build(tabs.payload, budget)
        with self._lock:
            self.tables_peak_bytes = max(self.tables_peak_bytes, tabs.nbytes)
        scratch = self._scope.scratch
        if scratch is not None:
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
        ``nbytes`` held. What an open scratch holds counts in its
        ``table_bytes``."""
        scratch = self._scope.scratch if self.enabled else None
        if scratch is not None:
            scratch.expansion_bytes += built
        self._instant("workspace.hit", product="bra_expansions",
                      hit=built == 0, nbytes=nbytes)

    def record_blocks(self, family: str, requested: int,
                      computed: int) -> None:
        """Account a value driver's blocks of ``family`` (one of
        `BLOCK_FAMILIES`), in elements of its fragments' atom blocks:
        ``requested`` summed over the fragments, ``computed`` over the
        distinct blocks evaluated once. An open scratch counts them
        too, for its evaluation."""
        with self._lock:
            self.elements_requested[family] += requested
            self.elements_computed[family] += computed
        scratch = self._scope.scratch if self.enabled else None
        if scratch is not None:
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


def table_budget(workspace: IntegralWorkspace | None) -> int:
    """Bytes one evaluation's Hermite Coulomb tables may hold:
    `IntegralWorkspace.TABLE_SHARE` of the workspace's byte budget — of
    the default budget for a driver called without a workspace, so it
    merges the same classes either way."""
    if workspace is None:
        return int(IntegralWorkspace.TABLE_SHARE * DEFAULT_MAX_BYTES)
    return int(workspace.TABLE_SHARE * workspace.max_bytes)


def evaluation_scope(workspace: IntegralWorkspace | None):
    """What a function calling several drivers at one geometry runs
    them in, so they share one scratch (or nothing to share it in)."""
    return nullcontext() if workspace is None else workspace.scope()


#: process-global workspace used by the calculators when none is given
_GLOBAL_WORKSPACE: IntegralWorkspace | None = None


def get_workspace() -> IntegralWorkspace:
    """The per-process shared `IntegralWorkspace` (created on first use)."""
    global _GLOBAL_WORKSPACE
    if _GLOBAL_WORKSPACE is None:
        _GLOBAL_WORKSPACE = IntegralWorkspace()
    return _GLOBAL_WORKSPACE
