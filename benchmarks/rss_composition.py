#!/usr/bin/env python3
"""Peak-RSS composition of workload A (``water4_mbe3_rimp2``).

    python benchmarks/rss_composition.py [--seed N] [--top K]

In one fresh process, BLAS pinned to one thread as the spine pins it,
prints the process's peak RSS after the interpreter starts, after
numpy, after the program's imports, after A's set-up and after one
evaluation of A's 14 MBE3 fragments (the calculator call a step
makes). A second evaluation, with a fresh integral workspace, then runs
under ``tracemalloc``: the Python-traced peak of each phase (value
drivers, per-fragment SCF + coefficients, derivative drivers), the
blocks held on entry to the derivative drivers by allocating line, and
the evaluation's GEMM FLOPs and calls. It also reports which ``scipy``
modules the process has loaded.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tracemalloc
from pathlib import Path

os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")
ROOT = Path(__file__).resolve().parents[1]


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--top", type=int, default=6)
    args = ap.parse_args()

    rows = [("interpreter", peak_mb())]
    import numpy  # noqa: F401  (the stage measured)
    rows.append(("+ numpy", peak_mb()))
    sys.path[:0] = [str(ROOT / "benchmarks" / "spine"), str(ROOT / "src")]
    import spine_workloads
    from repro import calculators
    from repro.calculators import RIMP2Calculator
    from repro.frag import build_plan
    from repro.gemm import count_flops
    from repro.integrals import IntegralWorkspace
    rows.append(("+ program imports", peak_mb()))

    inp = spine_workloads.water4_inputs(args.seed, smoke=False)
    system = inp["system"]
    plan = build_plan(system, inp["r_dimer_bohr"], inp["r_trimer_bohr"],
                      order=inp["order"])
    mols = [system.fragment_molecule(key, system.parent.coords)[0]
            for key in plan.fragments]
    rows.append(("+ A's set-up (system, plan, fragments)", peak_mb()))
    RIMP2Calculator("sto-3g", int_screen=1e-12).energy_gradients(mols)
    rows.append((f"+ one evaluation of {len(mols)} fragments", peak_mb()))

    print("| stage | peak RSS MB | added MB |\n|---|---|---|")
    last = 0.0
    for name, mb in rows:
        print(f"| {name} | {mb:.1f} | {mb - last:+.1f} |")
        last = mb

    phases = {}
    held = []
    prepare, contract = calculators.prepare_solves, calculators.contract_ri_gradients

    def traced_prepare(*a, **k):
        out = prepare(*a, **k)
        phases["value drivers + metric factor"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return out

    def traced_contract(*a, **k):
        phases["SCF + gradient coefficients"] = tracemalloc.get_traced_memory()[1]
        held.append(tracemalloc.take_snapshot())
        tracemalloc.reset_peak()
        out = contract(*a, **k)
        phases["derivative drivers"] = tracemalloc.get_traced_memory()[1]
        return out

    calculators.prepare_solves = traced_prepare
    calculators.contract_ri_gradients = traced_contract
    calc = RIMP2Calculator("sto-3g", int_screen=1e-12,
                           workspace=IntegralWorkspace())
    tracemalloc.start()
    with count_flops() as counted:
        calc.energy_gradients(mols)
    tracemalloc.stop()
    calculators.prepare_solves, calculators.contract_ri_gradients = prepare, contract

    print("\n| phase of the traced evaluation | traced peak MB |\n|---|---|")
    for name, peak in phases.items():
        print(f"| {name} | {peak / 2**20:.1f} |")
    (snap,) = held
    stats = snap.filter_traces([tracemalloc.Filter(True, "*repro*")]
                               ).statistics("lineno")
    total = sum(s.size for s in snap.statistics("filename"))
    print(f"\nHeld on entry to the derivative drivers: {total / 2**20:.1f} MB "
          "traced; largest allocating lines:\n")
    print("| line | MB | blocks |\n|---|---|---|")
    src = str(ROOT / "src") + os.sep
    for s in stats[:args.top]:
        frame = s.traceback[0]
        print(f"| `{frame.filename.replace(src, '')}:{frame.lineno}` "
              f"| {s.size / 2**20:.2f} | {s.count} |")
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    print(f"\nGEMM per evaluation: {counted.flops} FLOPs in {counted.calls} "
          f"calls; scipy modules loaded: {len(scipy)}")


if __name__ == "__main__":
    main()
