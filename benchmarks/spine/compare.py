#!/usr/bin/env python3
"""Compare two spine results, one row per (metric, workload).

``python3 benchmarks/spine/compare.py old.json new.json``

Each side is a result file written by ``run.py --out``, or a directory
of such files and of single-workload records written by
``run.py --workload W --detail F`` (several runs of one commit). A row gives both medians,
the ratio with its base, and a verdict against the bound BENCHMARK.json
stores for the metric:

* ``regressed``    — the new median is worse than the old by more than the bound;
* ``improved``     — it is better by more than the run-to-run spread;
* ``within bound`` — neither;
* ``unresolved``   — the spread is wider than the bound, so the bound
  cannot be resolved (unless every new run beats every old run).

The spread is the distance between the quartiles of a side's runs as a
share of their median (the wider side counts); with one run a side it
is unknown, and the verdict rests on the bound alone. A metric that the
records hold but BENCHMARK.json gives no bound (``steps_per_hour``) gets
its medians and ratio and the word ``recorded only``.

``compare.py --spread DIR`` prints that spread for every metric over the
runs in one directory — the number a bound has to stay above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        sys.exit(f"compare: no result files in {path}")
    # a single-workload record counts as a result with that one workload
    return [r if "workloads" in r else {"workloads": {r["workload"]: r}}
            for r in runs]


def workloads_of(runs: list[dict]) -> list[str]:
    return list(dict.fromkeys(w for r in runs for w in r["workloads"]))


def quartile_spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def metrics_of(runs: list[dict]) -> list[dict]:
    """BENCHMARK.json's end-to-end metrics, then the names the records
    hold beyond them (no bound: recorded only)."""
    bounded = json.loads(BENCHMARK.read_text())["end_to_end"]
    names = {m["name"] for m in bounded}
    others = dict.fromkeys(
        name for r in runs for w in r["workloads"].values()
        for name in w["end_to_end"] if name not in names)
    return bounded + [{"name": name, "bound": None} for name in others]


def side(runs: list[dict], workload: str, metric: str):
    """(values over runs, spread) of one metric on one workload."""
    values = [r["workloads"][workload]["end_to_end"][metric]["value"]
              for r in runs if workload in r["workloads"]]
    return values, quartile_spread(values)


def verdict(old: list[float], new: list[float], spread: float | None,
            bound: float, lower_is_better: bool) -> tuple[float, str]:
    base, med = statistics.median(old), statistics.median(new)
    worse_by = (med - base) / base if lower_is_better else (base - med) / base
    if lower_is_better:
        clean_win = max(new) < min(old)
    else:
        clean_win = min(new) > max(old)
    if spread is not None and spread > bound:
        return med / base, "improved" if clean_win and len(new) > 1 else "unresolved"
    if worse_by > bound:
        return med / base, "regressed"
    if -worse_by > (spread if spread is not None else bound):
        return med / base, "improved"
    return med / base, "within bound"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--spread", metavar="DIR",
                    help="print the run-to-run spread over one directory")
    args = ap.parse_args(argv)
    def cell(x: float | None, width: int, spec: str) -> str:
        return f"{x:{width}{spec}}" if x is not None else f"{'-':>{width}s}"

    if args.spread:
        runs = load_runs(args.spread)
        print(f"{'metric':16s} {'workload':22s} {'runs':>4s} {'median':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for m in metrics_of(runs):
            for workload in workloads_of(runs):
                values, spread = side(runs, workload, m["name"])
                print(f"{m['name']:16s} {workload:22s} {len(values):4d} "
                      f"{statistics.median(values):12.6g} "
                      f"{cell(spread, 8, '.4f')} {cell(m['bound'], 6, '.2f')}")
        return 0

    if not (args.old and args.new):
        ap.error("give old and new results, or --spread DIR")
    old_runs, new_runs = load_runs(args.old), load_runs(args.new)
    regressed = 0
    print(f"{'metric':16s} {'workload':22s} {'old':>12s} {'new':>12s} "
          f"{'new/old':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for m in metrics_of(old_runs):
        for workload in workloads_of(old_runs):
            old, s_old = side(old_runs, workload, m["name"])
            new, s_new = side(new_runs, workload, m["name"])
            if not old or not new:
                continue
            spreads = [s for s in (s_old, s_new) if s is not None]
            spread = max(spreads) if spreads else None
            if m["bound"] is None:
                ratio = statistics.median(new) / statistics.median(old)
                word = "recorded only"
            else:
                ratio, word = verdict(old, new, spread, m["bound"],
                                      m["better"] == "lower")
            regressed += word == "regressed"
            print(f"{m['name']:16s} {workload:22s} "
                  f"{statistics.median(old):12.6g} {statistics.median(new):12.6g} "
                  f"{ratio:8.4f} {cell(spread, 7, '.4f')} "
                  f"{cell(m['bound'], 6, '.2f')}  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
