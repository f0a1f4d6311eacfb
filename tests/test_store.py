"""`repro.store`: the one bounded store behind the warm layer.

`IntegralWorkspace` is a `BoundedStore` plus its products, so the
budget/counting rules are stated once, as invariants, and run against
both classes:

* a `hypothesis` state machine (put / get / discard / clear; random
  sizes, zero included; with a tight and with an unreachable byte
  budget);
* a four-thread put/get hammer asserting the same conservation laws;
* `ContentionLock` counts every waiter (the four hand-written
  ``_locked`` copies it replaces counted *before* acquiring, unlocked);
* an AST guard: the plumbing and the `GuessCache` construction site
  exist where they should and nowhere else; and the one byte budget is
  the only bound a store has.
"""

from __future__ import annotations

import ast
import inspect
import random
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.calculators import GuessCache
from repro.integrals.workspace import IntegralWorkspace
from repro.store import BoundedStore, ContentionLock, payload_nbytes

#: payload sizes are multiples of this many bytes
UNIT = 1024
#: a byte budget no run below can reach: nothing is ever evicted
UNBOUNDED = 2**40


def _payload(units: int) -> np.ndarray:
    return np.zeros(units * UNIT // 8)


class _Bare:
    """Drive a plain `BoundedStore`."""

    make = BoundedStore

    def __init__(self, **kw) -> None:
        self.store = self.make(**kw)

    def key(self, i) -> tuple:
        return (i,)

    def put(self, i, units) -> tuple:
        self.store._put(self.key(i), _payload(units))
        return self.key(i)

    def get(self, i):
        return self.store._get(self.key(i))

    def discard(self, i) -> None:
        self.store._discard(self.key(i))


class _Workspace(_Bare):
    """Drive `IntegralWorkspace`, each lookup and store inside the
    calling thread's scope."""

    make = IntegralWorkspace

    def key(self, i) -> tuple:
        return ("k", i)

    def put(self, i, units) -> tuple:
        with self.store.scope():
            return super().put(i, units)

    def get(self, i):
        with self.store.scope():
            return super().get(i)


DRIVERS = {"store": _Bare, "workspace": _Workspace}

KEYS = st.integers(0, 11)


def check_conservation(store: BoundedStore, lookups: int,
                       just_stored: tuple | None) -> None:
    """The laws that hold after any sequence of operations, from any
    number of threads; ``just_stored`` is the key of the last put that
    nothing has dropped since (None if there is none)."""
    entries = list(store._entries.values())
    stats = store.stats()
    # the byte total is the sum over the entries, each sized by what it
    # keeps alive
    assert all(nb == payload_nbytes(p) for p, nb in entries)
    assert store.nbytes == stats["nbytes"] == sum(nb for _, nb in entries)
    assert stats["entries"] == len(store) == len(entries)
    # the budget holds, unless one entry alone is over it
    assert store.nbytes <= store.max_bytes or len(entries) == 1
    # the budget never evicts the key just stored
    assert just_stored is None or just_stored in store._entries
    # every lookup is counted once
    assert store.hits + store.misses == stats["hits"] + stats["misses"] \
        == lookups


class StoreMachine(RuleBasedStateMachine):
    driver = _Bare

    @initialize(budget=st.sampled_from([6 * UNIT, UNBOUNDED]))
    def build(self, budget):
        self.d = self.driver(max_bytes=budget)
        self.store = self.d.store
        self.lookups = 0
        self.just_stored = None

    # up to one payload over the tight budget on its own
    @rule(i=KEYS, units=st.integers(0, 7))
    def put(self, i, units):
        before = set(self.store._entries)
        evictions = self.store.evictions
        self.just_stored = self.d.put(i, units)
        gone = before - set(self.store._entries)
        assert self.store.evictions - evictions == len(gone)
        if self.store.max_bytes == UNBOUNDED:
            assert gone == set()

    @rule(i=KEYS)
    def get(self, i):
        present = self.d.key(i) in self.store._entries
        self.lookups += 1
        assert (self.d.get(i) is not None) == present

    @rule(i=KEYS)
    def discard(self, i):
        evictions = self.store.evictions
        self.d.discard(i)
        assert self.d.key(i) not in self.store._entries
        assert self.store.evictions == evictions
        if self.d.key(i) == self.just_stored:
            self.just_stored = None

    @rule()
    def clear(self):
        self.store.clear()
        assert len(self.store) == 0 and self.store.nbytes == 0
        self.just_stored = None

    @invariant()
    def conserved(self):
        check_conservation(self.store, self.lookups, self.just_stored)


def _machine(name: str):
    cls = type(f"{name}_machine", (StoreMachine,), {"driver": DRIVERS[name]})
    cls.TestCase.settings = settings(
        max_examples=60, stateful_step_count=40, deadline=None
    )
    return cls.TestCase


TestBoundedStoreMachine = _machine("store")
TestWorkspaceMachine = _machine("workspace")


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_four_thread_hammer_conserves(name):
    """Four threads put/get on one store under a tight byte budget,
    switching every few bytecodes and inside every critical section: a
    lost update to the byte total or counters breaks
    `check_conservation`."""
    d = DRIVERS[name](max_bytes=8 * UNIT)
    store = d.store
    #: the key of the last put that stored bytes (a put of none never
    #: evicts, so that key survives to the end)
    last = [None]

    def charge_mid_update(delta):
        if delta > 0:  # a put's charge: its entry was just appended
            last[0] = next(reversed(store._entries))
        # the byte-total update, with the interpreter given away between
        # its read and its write: outside the lock, an update is lost
        total = store._nbytes
        time.sleep(0)
        store._nbytes = total + delta

    store._charge = charge_mid_update
    lookups = [0] * 4
    errors = []
    gate = threading.Barrier(4)

    def work(n: int) -> None:
        rng = random.Random(n)
        try:
            gate.wait(timeout=10)  # or the first thread is done by then
            for _ in range(1000):
                if rng.random() < 0.5:
                    d.put(rng.randrange(6), rng.randrange(4))
                else:
                    d.get(rng.randrange(6))
                    lookups[n] += 1
        except Exception as err:  # noqa: BLE001 — reported below
            errors.append(err)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert store.contentions > 0  # the threads did meet
    check_conservation(store, sum(lookups), last[0])


class TestContentionLock:
    def test_two_waiters_count_as_two(self):
        """One thread holds, two block, release: exactly two contentions
        (counted after the blocking acquire, so neither can be lost)."""
        lock = ContentionLock()
        arrived = [threading.Event(), threading.Event()]

        def waiter(n: int) -> None:
            arrived[n].set()
            with lock:
                pass

        threads = [threading.Thread(target=waiter, args=(n,))
                   for n in range(2)]
        with lock:
            for t in threads:
                t.start()
            for event in arrived:
                assert event.wait(timeout=10)
            # both are now one statement from the lock this thread holds
            for t in threads:
                t.join(timeout=0.2)
            assert all(t.is_alive() for t in threads)
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert lock.contentions == 2

    def test_reentrant_acquire_is_not_contention(self):
        lock = ContentionLock()
        with lock, lock, lock:
            pass
        assert lock.contentions == 0

    def test_every_lock_holder_reports_it(self):
        """The classes that used to carry a ``_locked`` copy read their
        count from the one lock (`GuessCache` shares nothing between
        threads any more and holds none)."""
        from repro.gemm import GemmAutoTuner
        from repro.surrogate import SurrogateManager

        assert not hasattr(GuessCache(), "_lock")
        for obj in (IntegralWorkspace(), GemmAutoTuner(),
                    SurrogateManager()):
            assert isinstance(obj._lock, ContentionLock)
            obj._lock.contentions = 7
            assert obj.stats()["contentions"] == 7


class TestOneWarmLayer:
    """AST guard, modelled on `test_no_runtime_caller_of_loop_reference`."""

    @pytest.fixture(scope="class")
    def trees(self):
        import repro

        root = Path(repro.__file__).parent
        return {str(p.relative_to(root)): ast.parse(p.read_text())
                for p in root.rglob("*.py")}

    @staticmethod
    def _name(node) -> str:
        return getattr(node, "attr", None) or getattr(node, "id", "")

    def test_only_the_store_builds_a_counting_lock(self, trees):
        offenders = []
        for rel, tree in trees.items():
            if rel == "store.py":
                continue
            nodes = list(ast.walk(tree))
            if any(isinstance(n, ast.FunctionDef) and n.name == "_locked"
                   for n in nodes):
                offenders.append(f"{rel}: defines _locked")
            rlock = any(isinstance(n, ast.Call)
                        and self._name(n.func) == "RLock" for n in nodes)
            counter = any(
                isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                and any("contentions" in self._name(t) for t in
                        (n.targets if isinstance(n, ast.Assign)
                         else [n.target]))
                for n in nodes
            )
            if rlock and counter:
                offenders.append(f"{rel}: RLock beside a contentions counter")
        assert offenders == []

    def test_guess_cache_construction_sites(self, trees):
        """The engine builds the one cache of a run; no process-global
        or service-wide one exists."""
        sites = {rel for rel, tree in trees.items()
                 for n in ast.walk(tree)
                 if isinstance(n, ast.Call)
                 and self._name(n.func) == "GuessCache"}
        assert sites == {"md/scheduler.py"}

    def test_one_byte_budget(self):
        """A store's byte budget is the only bound on the warm layer: no
        per-job quota or counter, no cross-job seed store keyed on
        composition and geometry, no switch that turns the service's
        warm layer off — in the constructors, the cache's get / put, the
        workspace's methods or the ``serve`` command."""
        import argparse

        from repro.cli import build_parser
        from repro.serve import TrajectoryService

        def params(fn) -> list[str]:
            return [p for p in inspect.signature(fn).parameters
                    if p != "self"]

        assert params(BoundedStore) == ["max_bytes"]
        assert params(GuessCache) == ["enabled"]
        assert params(IntegralWorkspace) == ["max_bytes"]
        assert params(TrajectoryService) == [
            "out_root", "nworkers", "max_active", "pool"]
        assert params(GuessCache.get) == ["record", "natoms"]
        assert params(GuessCache.put) == ["record", "D", "natoms"]
        assert not [n for n in dir(IntegralWorkspace) if "tenant" in n]
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert {o for a in sub.choices["serve"]._actions
                for o in a.option_strings} == {
            "-h", "--help", "--out", "--workers", "--max-active", "--pool",
            "--trace", "--summary-json"}
