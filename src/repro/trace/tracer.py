"""Lightweight run-level tracing: spans, instants, and counters.

The production systems the paper targets (Frontier/Perlmutter job sizes)
live or die by observability — a stalled worker group or a retry
storm must be visible without re-running under a debugger. This
module provides the minimal instrumentation substrate the scheduler,
the execution drivers, the integral workspace, and the cluster
simulator thread their events through:

* **spans** — named intervals (task round-trips, worker busy time);
* **instants** — point events (task release, retry, quarantine,
  step completion);
* **counters** — sampled series (queue depth, tasks in flight, step
  skew).

Events are buffered in memory and exportable as Chrome-trace JSON
(`chrome://tracing` / Perfetto ``traceEvents`` format) plus an aligned
summary table. The tracer is clock-agnostic: hand it
``clock=sim.clock, epoch=0.0`` and the discrete-event cluster simulator
records *virtual* time with the same code paths used for wall-clock
runs.

Which tracer gets an event is decided here alone: a front-end runs its
work inside ``recording(tracer)`` and every emission site asks
``current()``, so a new span needs no new parameter. Emissions are
guarded with ``if tracer := current():``, so the disabled path costs
one thread-local read.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

#: Safety cap on buffered events; beyond it new events are counted but
#: dropped, so a runaway loop cannot exhaust memory through its tracer.
DEFAULT_MAX_EVENTS = 1_000_000


class _Recording(threading.local):
    tracer = None  # the calling thread's; None outside `recording`


_recording = _Recording()


def current():
    """The tracer of the calling thread's innermost `recording` block,
    or None."""
    return _recording.tracer


@contextmanager
def recording(tracer):
    """Record the calling thread's events into ``tracer`` (None: record
    none) for the block; nests, and puts the enclosing tracer back on
    exit."""
    saved, _recording.tracer = _recording.tracer, tracer
    try:
        yield tracer
    finally:
        _recording.tracer = saved


def call_recording(tracer, fn, /, *args, **kw):
    """``fn(*args, **kw)`` inside ``recording(tracer)``: module-level, so
    a pool can carry it to a worker thread or process."""
    with recording(tracer):
        return fn(*args, **kw)


class Tracer:
    """In-memory trace event buffer with Chrome-trace export.

    Parameters
    ----------
    clock:
        Time source in seconds. Defaults to ``time.perf_counter``; the
        cluster simulator passes its virtual clock.
    epoch:
        Timestamp origin. Defaults to ``clock()`` at construction so
        wall-clock traces start near zero; pass ``0.0`` for virtual
        clocks that already start at zero.
    """

    def __init__(self, clock=time.perf_counter, epoch: float | None = None,
                 max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.clock = clock
        self.epoch = clock() if epoch is None else epoch
        self.max_events = max_events
        self.events: list[dict] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _ts_us(self, t_s: float | None = None) -> float:
        t = self.clock() if t_s is None else t_s
        return (t - self.epoch) * 1.0e6

    def _emit(self, ev: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(ev)

    def complete(self, name: str, start_s: float, dur_s: float,
                 cat: str = "", tid: int = 0, **args) -> None:
        """Record a finished interval; times are in the tracer's clock."""
        self._emit({
            "name": name, "cat": cat, "ph": "X",
            "ts": self._ts_us(start_s), "dur": max(dur_s, 0.0) * 1.0e6,
            "pid": 0, "tid": tid, "args": args,
        })

    @contextmanager
    def span(self, name: str, cat: str = "", tid: int = 0, **args):
        """Context manager timing its body as a complete event."""
        start = self.clock()
        try:
            yield self
        finally:
            self.complete(name, start, self.clock() - start,
                          cat=cat, tid=tid, **args)

    def instant(self, name: str, cat: str = "", tid: int = 0, **args) -> None:
        """Record a point event (thread scope)."""
        self._emit({
            "name": name, "cat": cat, "ph": "i", "s": "t",
            "ts": self._ts_us(), "pid": 0, "tid": tid, "args": args,
        })

    def counter(self, name: str, value: float, cat: str = "") -> None:
        """Sample a counter series (rendered as a track in the viewer)."""
        self._emit({
            "name": name, "cat": cat, "ph": "C",
            "ts": self._ts_us(), "pid": 0, "tid": 0,
            "args": {"value": value},
        })

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_chrome(self) -> dict:
        """The Chrome-trace JSON object (``traceEvents`` format)."""
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> None:
        """Write the Chrome-trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def instants(self, name: str) -> list[dict]:
        """The arg dicts of every instant named ``name``, in order.

        Complements `aggregate_instants` when the individual events
        matter — e.g. pulling the per-call ``neglected_bound`` series
        out of ``int.screen`` events to check the screening error budget
        against a tolerance, where only the sum would hide one bad call.
        """
        return [
            dict(ev.get("args", {}))
            for ev in self.events
            if ev["ph"] == "i" and ev["name"] == name
        ]

    def aggregate_instants(self, name: str) -> tuple[int, dict[str, float]]:
        """Count instants named ``name`` and sum their numeric args.

        Booleans tally as 0/1, so e.g. ``scf.warm_start`` events with a
        ``hit`` flag aggregate directly into a hit count:

            count, sums = tracer.aggregate_instants("scf.warm_start")
            hit_rate = sums.get("hit", 0) / count

        Non-numeric args (strings such as fragment keys) are ignored.
        """
        count = 0
        sums: dict[str, float] = {}
        for ev in self.events:
            if ev["ph"] != "i" or ev["name"] != name:
                continue
            count += 1
            for k, v in ev.get("args", {}).items():
                if isinstance(v, (bool, int, float)):
                    sums[k] = sums.get(k, 0) + v
        return count, sums

    def summary(self) -> list[tuple[str, str, int, float, float, float]]:
        """Aggregate rows ``(kind, name, count, total_s, mean_s, max_s)``.

        Spans aggregate their durations; instants count occurrences;
        counters report (count, last, mean, max) of the sampled values.
        """
        spans: dict[str, list[float]] = {}
        instants: dict[str, int] = {}
        counters: dict[str, list[float]] = {}
        for ev in self.events:
            name = ev["name"]
            if ev["ph"] == "X":
                spans.setdefault(name, []).append(ev["dur"] / 1.0e6)
            elif ev["ph"] == "i":
                instants[name] = instants.get(name, 0) + 1
            elif ev["ph"] == "C":
                counters.setdefault(name, []).append(ev["args"]["value"])
        rows = []
        for name in sorted(spans):
            ds = spans[name]
            rows.append(("span", name, len(ds), sum(ds),
                         sum(ds) / len(ds), max(ds)))
        for name in sorted(instants):
            rows.append(("instant", name, instants[name], 0.0, 0.0, 0.0))
        for name in sorted(counters):
            vs = counters[name]
            rows.append(("counter", name, len(vs), vs[-1],
                         sum(vs) / len(vs), max(vs)))
        return rows

    def format_summary(self, title: str = "trace summary") -> str:
        """The summary as an aligned monospace table."""
        from ..analysis.report import format_table

        rows = []
        for kind, name, count, total, mean, peak in self.summary():
            if kind == "span":
                rows.append((kind, name, count, f"{total:.6f}",
                             f"{mean:.6f}", f"{peak:.6f}"))
            elif kind == "counter":
                rows.append((kind, name, count, f"{total:g}",
                             f"{mean:.3g}", f"{peak:g}"))
            else:
                rows.append((kind, name, count, "-", "-", "-"))
        return format_table(
            ["kind", "name", "count", "total_s|last", "mean", "max"],
            rows, title=title,
        )
