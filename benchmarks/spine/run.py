#!/usr/bin/env python3
"""Measurement spine: one command, four workloads, one schema.

Two ways to call it:

``python3 benchmarks/spine/run.py [--seed N] [--traced] [--smoke] [--out F]``
    runs every workload, each in a fresh child process, untraced and
    (with ``--traced``) traced; prints every metric by name with its
    unit and writes the full result, with machine fingerprint, to ``F``
    (and a rendered ``LAYERS.md`` next to it).

``python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1``
    runs one workload in this process and prints, as the last line of
    standard output, ``{"correct", "attempted", "failed", "metrics"}``
    with the end-to-end metrics (``--trace 0``) or the per-layer
    metrics (``--trace 1``). This is the form BENCHMARK.json names.

Exit status is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: harness start: ``setup_s`` counts from here
T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("water4_mbe3_rimp2", "gly1_dz_rimp2_grad", "serve_mix4",
                  "fibril72_null_async")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]
#: every end-to-end metric a record holds. BENCHMARK.json's
#: ``end_to_end`` names the ones the driver holds to a bound, and the
#: contract's JSON line carries exactly those; ``steps_per_hour`` is
#: recorded only (README.md says why)
UNITS = {"setup_s": "s", "step_s": "s", "steps_per_hour": "1/h",
         "peak_rss_mb": "MB"}


def pin_and_import():
    """Pin BLAS to one thread (one worker models one GCD), put the
    checkout's ``src`` and this directory on the path, and only then
    import numpy and the program."""
    os.environ.update(THREAD_PINS)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"spine: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import spine_workloads
    return spine_workloads


def sample_summary(samples: list[float]) -> dict:
    """Median, quartiles and the tail: the highest percentile with at
    least ten samples beyond it where there is one, else min and max."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered),
           "min": ordered[0], "max": ordered[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"])
    if n >= 20:
        out["tail"] = {"percentile": 100.0 * (n - 10) / n,
                       "value": ordered[n - 11]}
    out["values"] = samples
    return out


def fingerprint(peak_gflops: float) -> dict:
    """Where and with what the numbers were taken."""
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha, "cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_pins": THREAD_PINS, "gemm.peak_gflops": peak_gflops,
    }


def set_up_again(args) -> float:
    """The workload's set-up once more, in a fresh process: its seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--references", args.references,
           "--outdir", args.outdir]
    proc = subprocess.run(cmd, text=True, capture_output=True, timeout=170)
    if proc.returncode:
        sys.exit(f"spine: the second set-up failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_one(args) -> int:
    """One workload in this process; the contract's JSON line last."""
    workloads = pin_and_import()
    import spine_layers as layers

    references = json.loads(Path(args.references).read_text())
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir))
    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
        smoke=args.smoke, t_start=T_START, references=references,
        workdir=workdir, setup_only=args.setup_only)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.setup_only:
        print(json.dumps({"setup_s": outcome.setup_s}))
        return 0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # set-up is a one-off, so a run sets up twice, each time in a fresh
    # process, and reports the faster: the neighbours' noise is one-sided
    # here as in step_s (a traced run does not report setup_s, and a
    # smoke run's numbers mean nothing)
    setups = [outcome.setup_s]
    if not (args.trace or args.smoke):
        setups.append(set_up_again(args))

    end_to_end = {
        "setup_s": min(setups),
        "step_s": outcome.step_s,
        "steps_per_hour": outcome.steps_per_hour,
        "peak_rss_mb": rss_mb,
    }
    failed = sum(not c["ok"] for c in outcome.checks)
    attempted = outcome.evaluations + len(outcome.checks)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "smoke": args.smoke,
        "inputs": outcome.inputs,
        "end_to_end": {k: {"value": v, "unit": UNITS[k]}
                       for k, v in end_to_end.items()},
        "samples": {"step_s": sample_summary(outcome.samples),
                    "setup_s": setups},
        "checks": outcome.checks, "attempted": attempted, "failed": failed,
        "observed": outcome.observed,
    }
    if args.trace or args.detail:
        peak = (outcome.layers.get("gemm.peak_gflops")
                or layers.dgemm_peak_gflops())
    if args.trace:
        per_layer = layers.blank_layers()
        unknown = set(outcome.layers) - set(per_layer)
        if unknown:
            raise KeyError(f"per-layer metrics not in PER_LAYER: {sorted(unknown)}")
        per_layer.update(outcome.layers)
        per_layer["gemm.peak_gflops"] = peak
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        record["per_layer"] = {k: {"value": v, "unit": units[k]}
                               for k, v in per_layer.items()}
        trace_path = outdir / f"trace_{args.workload}.json"
        ctx.spans.write_chrome(trace_path, T_START)
        record["chrome_trace"] = os.path.relpath(trace_path, ROOT)
    if args.detail:
        record["meta"] = fingerprint(peak)
        Path(args.detail).write_text(json.dumps(record, indent=1) + "\n")

    shown = record["per_layer"] if args.trace else record["end_to_end"]
    for name, m in shown.items():
        print(f"{args.workload:22s} {name:34s} {m['value']:.6g} {m['unit']}")
    metrics = shown if args.trace else {
        m["name"]: shown[m["name"]] for m in BENCHMARK["end_to_end"]}
    print(f"{args.workload:22s} step_s samples: "
          + json.dumps(record["samples"]["step_s"]))
    for c in outcome.checks:
        print(f"{args.workload:22s} check {c['name']:28s} "
              f"{'ok' if c['ok'] else 'FAILED'}  {c['detail']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


def run_all(args) -> int:
    """Every workload in a fresh child process; one result file."""
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    result = {"schema": "spine/1", "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        entry = {}
        for trace in (0, 1) if args.traced else (0,):
            detail = outdir / f"detail_{name}_{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--references", args.references, "--outdir", str(outdir),
                   "--detail", str(detail)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, text=True, capture_output=True,
                                  timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            if not detail.exists():
                continue
            record = json.loads(detail.read_text())
            detail.unlink()
            result.setdefault("meta", record.pop("meta"))
            if trace:
                entry["per_layer"] = record["per_layer"]
                entry["traced_checks"] = record["checks"]
                entry["chrome_trace"] = record["chrome_trace"]
            else:
                entry.update({k: record[k] for k in (
                    "inputs", "end_to_end", "samples", "checks",
                    "attempted", "failed", "observed")})
        result["workloads"][name] = entry
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n")
        if args.traced:
            (out.parent / "LAYERS.md").write_text(render_layers(result))
    return status


def render_layers(result: dict) -> str:
    """The per-layer table as Markdown: where a step's time goes and
    how far from the measured DGEMM peak each layer runs."""
    meta = result["meta"]
    lines = [
        "# Per-layer table", "",
        f"Commit `{meta['git_sha'][:12]}`, seed {result['seed']}, "
        f"`--seconds {result['seconds']}`; {meta['cpu']} ({meta['nproc']} cores), "
        f"numpy {meta['numpy']} / {meta['blas']}, BLAS pinned to 1 thread, "
        f"Python {meta['python']}.", "",
        "Times under `integrals`, `scf` and `mp2` are seconds per step: one "
        "probe call per fragment class, multiplied by the number of such "
        "fragments in a step. A metric reads 0 on a workload that does not "
        "execute that layer. See README.md for what each metric should move.",
        "",
    ]
    names = [n for n in result["workloads"] if "per_layer" in result["workloads"][n]]
    e2e = {n: result["workloads"][n]["end_to_end"] for n in names}
    lines += ["## End to end (untraced)", "",
              "| metric | " + " | ".join(names) + " |",
              "|---|" + "---:|" * len(names)]
    for metric in UNITS:
        lines.append(f"| `{metric}` ({UNITS[metric]}) | " + " | ".join(
            f"{e2e[n][metric]['value']:.4g}" for n in names) + " |")
    lines += ["", "## Where a step's time goes", "",
              "| workload | layer | s/step | share of probed step | GFLOP/s | % of DGEMM peak |",
              "|---|---|---:|---:|---:|---:|"]
    for n in names:
        pl = {k: v["value"] for k, v in result["workloads"][n]["per_layer"].items()}
        if not pl["scf.iter_s"]:
            continue
        integrals = sum(pl[f"integrals.{k}_s"] for k in (
            "onee", "eri3c", "eri2c", "deriv_onee", "deriv_eri3c", "deriv_eri2c"))
        rows = [
            ("integrals", integrals, pl["integrals.share"], None),
            ("scf", pl["scf.iter_s"], pl["scf.share"], ("scf.gflops", "scf.pct_peak")),
            ("mp2", pl["mp2.energy_s"] + pl["mp2.coeff_s"], pl["mp2.share"],
             ("mp2.gflops", "mp2.pct_peak")),
            ("whole step (gemm)", result["workloads"][n]["end_to_end"]["step_s"]["value"],
             1.0, ("gemm.gflops", "gemm.pct_peak")),
        ]
        for layer, secs, share, rate in rows:
            gf = f"{pl[rate[0]]:.3g}" if rate else "-"
            pk = f"{pl[rate[1]]:.3g}" if rate else "-"
            lines.append(f"| {n} | {layer} | {secs:.4g} | {share:.3f} | {gf} | {pk} |")
    lines += ["", f"Measured DGEMM peak (n=1536, best of 5, 1 thread): "
              f"{meta['gemm.peak_gflops']:.1f} GFLOP/s.", "",
              "## Every per-layer metric", "",
              "| metric | unit | " + " | ".join(names) + " |",
              "|---|---|" + "---:|" * len(names)]
    first = result["workloads"][names[0]]["per_layer"]
    for metric, m in first.items():
        lines.append(f"| `{metric}` | {m['unit']} | " + " | ".join(
            f"{result['workloads'][n]['per_layer'][metric]['value']:.4g}"
            for n in names) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="nominal length of the timed phase; sample counts "
                         "scale with it (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="--workload form: report the per-layer metrics")
    ap.add_argument("--traced", action="store_true",
                    help="all-workloads form: run each workload traced as well")
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken inputs for the harness's own tests")
    ap.add_argument("--out", help="all-workloads form: result file to write")
    ap.add_argument("--detail", help="--workload form: full record to write")
    ap.add_argument("--setup-only", action="store_true",
                    help="--workload form: set up, print the seconds, stop "
                         "(how a run times its set-up a second time)")
    ap.add_argument("--references", default=str(HERE / "references.json"))
    ap.add_argument("--outdir", default=str(ROOT / ".spine_out"),
                    help="scratch and Chrome traces (default: .spine_out)")
    ap.add_argument("--inputs", action="store_true",
                    help="print each workload's input digest and exit")
    args = ap.parse_args(argv)
    if args.workload and args.traced:
        ap.error("--traced belongs to the all-workloads form; "
                 "with --workload use --trace 1")
    if args.inputs:
        print(json.dumps(pin_and_import().input_digests(args.seed, args.smoke)))
        return 0
    t0 = time.perf_counter()
    status = run_one(args) if args.workload else run_all(args)
    if not args.workload:
        print(f"spine: {time.perf_counter() - t0:.1f} s, "
              f"{'ok' if status == 0 else 'FAILED'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
