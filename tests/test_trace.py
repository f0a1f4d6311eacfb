"""Trace module: span/counter recording, chrome export, instrumentation."""

from __future__ import annotations

import ast
import dataclasses
import json
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.calculators import PairwisePotentialCalculator
from repro.cluster import PERLMUTTER, simulate_aimd
from repro.constants import BOHR_PER_ANGSTROM
from repro.frag import FragmentedSystem
from repro.gemm import GemmAutoTuner, VARIANTS
from repro.md import AsyncCoordinator, run_parallel, run_serial
from repro.md.integrators import maxwell_boltzmann_velocities
from repro.systems import water_cluster
from repro.trace import Tracer, current, recording

BIG = 1.0e6

#: keys every chrome trace event must carry, per phase type
REQUIRED = {"name", "ph", "ts", "pid", "tid"}


def _validate_chrome(doc: dict) -> None:
    """Assert the exported object is schema-valid chrome-trace JSON."""
    assert set(doc) >= {"traceEvents"}
    assert isinstance(doc["traceEvents"], list)
    for ev in doc["traceEvents"]:
        assert REQUIRED <= set(ev), f"missing keys in {ev}"
        assert ev["ph"] in {"X", "i", "C"}
        assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
        if ev["ph"] == "X":
            assert ev["dur"] >= 0
        if ev["ph"] == "C":
            assert "value" in ev["args"]


class TestTracer:
    def test_span_context_manager(self):
        tr = Tracer()
        with tr.span("work", cat="test", answer=42):
            pass
        (ev,) = tr.events
        assert ev["ph"] == "X" and ev["name"] == "work"
        assert ev["args"]["answer"] == 42

    def test_virtual_clock(self):
        now = [0.0]
        tr = Tracer(clock=lambda: now[0], epoch=0.0)
        tr.complete("task", start_s=1.5, dur_s=0.5)
        now[0] = 3.0
        tr.instant("done")
        a, b = tr.events
        assert a["ts"] == pytest.approx(1.5e6)
        assert a["dur"] == pytest.approx(0.5e6)
        assert b["ts"] == pytest.approx(3.0e6)

    def test_counter_and_summary(self):
        tr = Tracer(clock=lambda: 0.0, epoch=0.0)
        for v in (1, 5, 3):
            tr.counter("depth", v)
        tr.instant("tick")
        rows = tr.summary()
        kinds = {(k, n) for k, n, *_ in rows}
        assert ("counter", "depth") in kinds
        assert ("instant", "tick") in kinds
        (crow,) = [r for r in rows if r[0] == "counter"]
        _, _, count, last, mean, peak = crow
        assert count == 3 and last == 3 and peak == 5
        assert mean == pytest.approx(3.0)

    def test_event_cap_drops_not_grows(self):
        tr = Tracer(max_events=5)
        for i in range(10):
            tr.instant(f"e{i}")
        assert len(tr.events) == 5
        assert tr.dropped == 5

    def test_write_chrome_roundtrip(self, tmp_path):
        tr = Tracer()
        with tr.span("a"):
            tr.instant("b")
        tr.counter("c", 7)
        path = tmp_path / "trace.json"
        tr.write_chrome(path)
        doc = json.loads(path.read_text())
        _validate_chrome(doc)
        assert len(doc["traceEvents"]) == 3

    def test_format_summary_is_table(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        text = tr.format_summary()
        assert "span" in text and "a" in text


class TestRecording:
    def test_nests_and_restores(self):
        outer, inner = Tracer(), Tracer()
        assert current() is None
        with recording(outer) as got:
            assert got is outer and current() is outer
            with recording(inner):
                assert current() is inner
                with recording(None):
                    assert current() is None
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with recording(Tracer()):
                raise RuntimeError("boom")
        assert current() is None

    def test_per_thread(self):
        """Another thread starts with no tracer, and its recording does
        not leak into this one."""
        mine, theirs = Tracer(), Tracer()
        seen = []

        def work():
            seen.append(current())
            with recording(theirs):
                seen.append(current())

        with recording(mine):
            t = threading.Thread(target=work)
            t.start()
            t.join()
            assert current() is mine
        assert seen == [None, theirs]

    def test_no_tracer_parameters_or_fields(self):
        """The one route: no function under ``src/repro`` takes a
        ``tracer`` parameter and no dataclass has a ``tracer`` field,
        outside `repro.trace` and the `SimResult.tracer` output."""
        import repro

        root = Path(repro.__file__).parent
        found = set()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            if rel.parts[0] == "trace":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    args = node.args
                    if "tracer" in {a.arg for a in (
                            args.posonlyargs + args.args + args.kwonlyargs)}:
                        found.add(f"{rel}:{getattr(node, 'name', 'lambda')}")
                elif isinstance(node, ast.ClassDef):
                    found.update(
                        f"{rel}:{node.name}.tracer" for st in node.body
                        if isinstance(st, ast.AnnAssign)
                        and getattr(st.target, "id", None) == "tracer")
        assert found == {"cluster/events.py:SimResult.tracer"}
        from repro.cluster.events import SimResult

        assert [f.name for f in dataclasses.fields(SimResult)
                if f.name == "tracer"] == ["tracer"]


class TestSchedulerInstrumentation:
    @pytest.mark.parametrize("nworkers", [0, 2])
    def test_serial_run_emits_full_event_set(self, tmp_path, nworkers):
        system = FragmentedSystem.by_components(water_cluster(3, seed=2))
        v0 = maxwell_boltzmann_velocities(system.parent.masses_au, 100, seed=1)
        with recording(Tracer()) as tr:
            co = AsyncCoordinator(
                system, nsteps=2, dt_fs=0.5, r_dimer_bohr=BIG, mbe_order=2,
                velocities=v0,
            )
            run_parallel(co, PairwisePotentialCalculator(), nworkers=nworkers)
        names = {ev["name"] for ev in tr.events}
        assert {"task.release", "task.complete", "task.exec",
                "step.complete", "scheduler.queue_depth",
                "scheduler.in_flight", "scheduler.step_skew"} <= names
        # one span shape on any worker count: a complete event per
        # flight, every issued task in exactly one of them
        assert "task.roundtrip" not in names
        execs = [ev for ev in tr.events if ev["name"] == "task.exec"]
        assert all(ev["ph"] == "X" and ev["args"]["attempt"] == 0
                   for ev in execs)
        assert sum(ev["args"]["tasks"] for ev in execs) == co.tasks_issued
        assert Counter(k for ev in execs for k in ev["args"]["keys"]) \
            == Counter(args["key"] for args in tr.instants("task.release"))
        # one md.step span per retired step, in order, back to back
        steps = [ev for ev in tr.events if ev["name"] == "md.step"]
        assert [ev["args"]["step"] for ev in steps] == [0, 1, 2]
        assert all(ev["ph"] == "X" and ev["cat"] == "md" for ev in steps)
        for a, b in zip(steps, steps[1:]):
            assert b["ts"] == pytest.approx(a["ts"] + a["dur"])
        path = tmp_path / "run.json"
        tr.write_chrome(path)
        _validate_chrome(json.loads(path.read_text()))

    def test_one_category_per_event_name_from_either_entry_point(
        self, tmp_path
    ):
        """`run_aimd` and the coordinator are one engine, so an event
        name has one emission site and one category (``mts.slow_eval``
        used to be ``md`` from one and ``scheduler`` from the other)."""
        from repro.md import read_checkpoint, run_aimd

        system = FragmentedSystem.by_blocks(water_cluster(3, seed=2), 3)
        v0 = maxwell_boltzmann_velocities(system.parent.masses_au, 100, seed=1)
        kw = dict(dt_fs=0.5, r_dimer_bohr=BIG, r_trimer_bohr=BIG,
                  velocities=v0, replan_interval=2, mts_k=2)
        ck = tmp_path / "ck.npz"
        run_aimd(system, PairwisePotentialCalculator(), nsteps=2,
                 checkpoint_path=ck, checkpoint_every=2, **kw)
        with recording(Tracer()) as tr:
            run_aimd(system, PairwisePotentialCalculator(), nsteps=8,
                     resume=read_checkpoint(ck), **kw)
        cats: dict[str, set] = {}
        for ev in tr.events:
            cats.setdefault(ev["name"], set()).add(ev["cat"])
        assert cats["mts.slow_eval"] == {"scheduler"}
        assert cats["replan.incremental"] == {"scheduler"}
        assert cats["resume"] == {"checkpoint"}
        assert cats["md.step"] == {"md"}
        assert len(tr.instants("resume")) == 1
        evals = [(args["step"], args["tier"])
                 for args in tr.instants("mts.slow_eval")]
        # resumed at step 2, a boundary: the slow tier (1) was evaluated
        # before the cut and is next due at 4
        assert evals == [(4, 1), (6, 1), (8, 1)]

    def test_untraced_run_unchanged(self):
        """Recording must leave the trajectory identical (guard-only)."""
        system = FragmentedSystem.by_components(water_cluster(3, seed=2))
        v0 = maxwell_boltzmann_velocities(system.parent.masses_au, 100, seed=1)
        kw = dict(nsteps=3, dt_fs=0.5, r_dimer_bohr=BIG, mbe_order=2,
                  velocities=v0)
        c1 = AsyncCoordinator(system, **kw)
        run_serial(c1, PairwisePotentialCalculator())
        with recording(Tracer()):
            c2 = AsyncCoordinator(system, **kw)
            run_serial(c2, PairwisePotentialCalculator())
        np.testing.assert_array_equal(
            c1.trajectory_energies()[1], c2.trajectory_energies()[1]
        )


class TestSimulatorTrace:
    def test_virtual_time_spans(self, tmp_path):
        system = FragmentedSystem.by_components(water_cluster(4, seed=5))
        res = simulate_aimd(
            system, PERLMUTTER, nodes=1, nsteps=2,
            r_dimer_bohr=8.0 * BOHR_PER_ANGSTROM, r_trimer_bohr=None,
            mbe_order=2, trace=True,
        )
        tr = res.tracer
        assert tr is not None
        spans = [ev for ev in tr.events if ev["ph"] == "X"]
        assert spans, "simulator must emit worker spans"
        # spans live on the virtual timeline, bounded by the makespan:
        # the simulator's worker spans and the engine's retired steps
        for ev in spans:
            assert 0 <= ev["ts"] <= res.total_time_s * 1e6 + 1e-6
            assert ev["name"] in ("polymer.exec", "md.step")
        assert any(ev["name"] == "polymer.exec" for ev in spans)
        path = tmp_path / "sim.json"
        tr.write_chrome(path)
        _validate_chrome(json.loads(path.read_text()))

    def test_untraced_sim_has_no_tracer(self):
        system = FragmentedSystem.by_components(water_cluster(2, seed=5))
        res = simulate_aimd(
            system, PERLMUTTER, nodes=1, nsteps=1,
            r_dimer_bohr=BIG, r_trimer_bohr=None, mbe_order=2,
        )
        assert res.tracer is None


class TestGemmTuneTrace:
    def test_decision_event_emitted(self):
        tuner = GemmAutoTuner()
        A = np.eye(6)
        with recording(Tracer()) as tr:
            for _ in range(len(VARIANTS) * tuner.trials_per_variant):
                tuner.gemm(A, A)
        (ev,) = [e for e in tr.events if e["name"] == "gemm.autotune"]
        assert ev["args"]["shape"] == str((6, 6, 6))
        assert ev["args"]["variant"] in VARIANTS
