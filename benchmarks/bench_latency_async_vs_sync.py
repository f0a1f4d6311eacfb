"""Sec. VII-A — time-step latency: asynchronous vs synchronous stepping.

Paper measurements:
* 6PQ5 (360 atoms, 36 monomers, 22 A / 9 A cutoffs) on 64 Perlmutter
  nodes: 2.27 s/step async vs 3.0 s/step sync -> 24% speedup, 38 ps/day.
* 2BEG 4-strand (1,496 atoms, 20 A / 12 A) on 1,024 nodes: 3.4 s/step
  async vs 5.6 s/step sync -> 40% throughput gain, 25 ps/day.

We execute the *real* coordinator state machine on the virtual
Perlmutter (event simulation, calibrated cost model) for both fibril
stand-ins and report the same quantities.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import format_table
from repro.cluster import PERLMUTTER, simulate_aimd
from repro.constants import BOHR_PER_ANGSTROM
from repro.systems import abeta_like_fibril, prp_like_fibril

CASES = [
    # (label, factory, nodes, gpus/worker, r_dim A, r_tri A, paper async, paper sync)
    # 6PQ5: small uniform monomers, plenty of tasks per GPU -> 1-GPU workers
    ("6PQ5-like / 64 nodes", prp_like_fibril, 64, 1, 22.0, 9.0, 2.27, 3.0),
    # 2BEG: heterogeneous monomers; big trimers need multi-GPU worker
    # groups (paper Sec. V-D: groups "can utilize any number of GPUs")
    ("2BEG-like / 1024 nodes", abeta_like_fibril, 1024, 4, 20.0, 12.0, 3.4, 5.6),
]


def _ps_per_day(s_per_step: float, dt_fs: float = 1.0) -> float:
    return 86400.0 / s_per_step * dt_fs / 1000.0


def test_latency_async_vs_sync(run_once, record_output):
    def experiment():
        rows = []
        speedups = []
        tracer = None
        for label, factory, nodes, gpw, r_d, r_t, p_async, p_sync in CASES:
            fs = factory()
            kw = dict(
                machine=PERLMUTTER, nodes=nodes, nsteps=5,
                r_dimer_bohr=r_d * BOHR_PER_ANGSTROM,
                r_trimer_bohr=r_t * BOHR_PER_ANGSTROM,
                mbe_order=3, replan_interval=5, gcds_per_worker=gpw,
            )
            # trace the first (smaller) async run in virtual time
            ra = simulate_aimd(fs, synchronous=False, trace=tracer is None,
                               **kw)
            if tracer is None:
                tracer = ra.tracer
            rs = simulate_aimd(fs, synchronous=True, **kw)
            ta, ts = ra.time_per_step(), rs.time_per_step()
            speedup = (ts / ta - 1.0) * 100.0
            speedups.append(speedup)
            rows.append(
                (
                    label,
                    ra.tasks // 6,
                    f"{ta:.3f}",
                    f"{ts:.3f}",
                    f"{speedup:+.0f}%",
                    f"{p_async:.2f}/{p_sync:.2f} "
                    f"({(p_sync / p_async - 1) * 100:+.0f}%)",
                    f"{_ps_per_day(ta):.0f}",
                )
            )
        table = format_table(
            ["case", "polymers/step", "async s/step", "sync s/step",
             "speedup", "paper async/sync", "ps/day (async)"],
            rows,
            title=(
                "Sec. VII-A — time-step latency, async vs sync "
                "(event simulation of the real coordinator)"
            ),
        )
        return table, speedups, tracer

    table, speedups, tracer = run_once(experiment)
    record_output("latency_async_vs_sync", table)
    record_output(
        "latency_async_trace_summary",
        tracer.format_summary("6PQ5-like async run — virtual-time trace"),
    )
    # export and validate the chrome trace of the traced async run
    trace_path = Path(__file__).parent / "output" / "latency_async_trace.json"
    tracer.write_chrome(trace_path)
    doc = json.loads(trace_path.read_text())
    assert doc["traceEvents"], "trace must contain events"
    phases = {ev["ph"] for ev in doc["traceEvents"]}
    assert "X" in phases and "C" in phases  # worker spans + queue counters
    # async wins in both cases; the bigger system benefits at least
    # comparably (paper: 24% and 40%)
    assert all(s > 5.0 for s in speedups)
