"""Cross-step SCF warm-start savings: cold vs warm iteration counts.

Between consecutive AIMD steps every fragment moves by a fraction of a
bohr, so seeding each SCF with the fragment's previous converged density
(`repro.calculators.GuessCache`) cuts iteration counts. Production AIMD
codes report 2-4x; workload A (water tetramer, MBE3 RI-MP2, sto-3g,
seed 1, 20 steps) measures 1.2-1.4x, 8.50 iterations a warm solve
against 10.43 for its first step's cold solves and 11.56 with warm
starts off (`GuessCache` says why). This benchmark runs the same
short trajectory twice — warm starts off (cold GWH guess every solve)
and on — and records total SCF iterations, wall time, and the final
total energy of each run. The energies must agree to 1e-8 Ha: a warm
start changes the iteration path, never the converged answer.

Runnable two ways:

* ``python benchmarks/bench_warmstart.py [--smoke] [--json PATH]`` —
  standalone CLI (CI runs the ``--smoke`` variant) writing a JSON
  record under ``benchmarks/output/``;
* ``pytest benchmarks/bench_warmstart.py`` — the harness form used by
  the other paper benchmarks.

The cold run's calculator carries a ``GuessCache(enabled=False)`` — a
pure statistics collector that never serves a guess — so both runs are
instrumented by the identical code path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import format_table  # noqa: E402
from repro.calculators import GuessCache, RIHFCalculator  # noqa: E402
from repro.frag import FragmentedSystem  # noqa: E402
from repro.md.aimd import run_aimd  # noqa: E402
from repro.systems import glycine_fragmented, water_cluster  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"

#: final total energies of the warm and cold runs must agree to this
ENERGY_TOL_HA = 1.0e-8


def _run(system: FragmentedSystem, nsteps: int, warm: bool) -> dict:
    calc = RIHFCalculator(
        guess_cache=GuessCache() if warm else GuessCache(enabled=False)
    )
    t0 = time.perf_counter()
    # 0.25 fs: the standard unconstrained-H AIMD step; extrapolation
    # error scales as O(dt^3), so the step size directly sets the
    # warm-start savings
    traj = run_aimd(
        system, calc, nsteps=nsteps, dt_fs=0.25, temperature_k=100.0,
        seed=0, r_dimer_bohr=1.0e6, mbe_order=2, replan_interval=1,
        warm_start=warm,
    )
    wall = time.perf_counter() - t0
    s = calc.guess_cache.stats()
    return {
        "iters": s["iters_warm"] + s["iters_cold"],
        "hits": s["hits"],
        "misses": s["misses"],
        "wall_s": wall,
        "final_total_energy": float(traj.total[-1]),
    }


def run_experiment(smoke: bool = False) -> dict:
    """Cold/warm trajectory pairs for the glycine and water systems."""
    if smoke:
        cases = [
            ("glycine-2mer", glycine_fragmented(2), 3),
            ("water-2", FragmentedSystem.by_components(
                water_cluster(2, seed=1)), 2),
        ]
    else:
        cases = [
            ("glycine-2mer", glycine_fragmented(2), 12),
            ("water-3", FragmentedSystem.by_components(
                water_cluster(3, seed=1)), 12),
        ]
    results = {"smoke": smoke, "energy_tol_ha": ENERGY_TOL_HA, "cases": []}
    for name, system, nsteps in cases:
        cold = _run(system, nsteps, warm=False)
        warmed = _run(system, nsteps, warm=True)
        de = abs(warmed["final_total_energy"] - cold["final_total_energy"])
        results["cases"].append({
            "system": name,
            "natoms": system.parent.natoms,
            "nsteps": nsteps,
            "cold": cold,
            "warm": warmed,
            "iteration_ratio": cold["iters"] / max(warmed["iters"], 1),
            "final_energy_delta_ha": de,
        })
    return results


def format_results(results: dict) -> str:
    rows = []
    for case in results["cases"]:
        rows.append((
            case["system"],
            case["nsteps"],
            case["cold"]["iters"],
            case["warm"]["iters"],
            f"{case['iteration_ratio']:.2f}x",
            f"{case['cold']['wall_s']:.1f}",
            f"{case['warm']['wall_s']:.1f}",
            f"{case['final_energy_delta_ha']:.1e}",
        ))
    return format_table(
        ["system", "steps", "cold iters", "warm iters", "ratio",
         "cold s", "warm s", "|dE| Ha"],
        rows,
        title="Cross-step SCF warm starts — cold vs warm trajectories",
    )


def check_results(results: dict) -> None:
    """Acceptance gates: bit-compatible energies, real iteration savings."""
    for case in results["cases"]:
        assert case["final_energy_delta_ha"] <= ENERGY_TOL_HA, (
            f"{case['system']}: warm/cold energies differ by "
            f"{case['final_energy_delta_ha']:.2e} Ha"
        )
        assert case["warm"]["hits"] > 0, (
            f"{case['system']}: warm run never hit the cache"
        )
    if not results["smoke"]:
        gly = results["cases"][0]
        assert gly["iteration_ratio"] >= 1.5, (
            f"warm start saved only {gly['iteration_ratio']:.2f}x "
            "SCF iterations on glycine (expected >= 1.5x)"
        )


def _write_json(results: dict, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small systems / few steps (CI gate)")
    ap.add_argument("--json", type=Path,
                    default=OUTPUT_DIR / "warmstart.json",
                    help="JSON output path")
    args = ap.parse_args(argv)
    results = run_experiment(smoke=args.smoke)
    table = format_results(results)
    print(table)
    _write_json(results, args.json)
    print(f"\nwrote {args.json}")
    check_results(results)
    return 0


def test_warmstart_savings(run_once, record_output):
    results = run_once(lambda: run_experiment(smoke=False))
    table = format_results(results)
    record_output("warmstart", table)
    _write_json(results, OUTPUT_DIR / "warmstart.json")
    check_results(results)


if __name__ == "__main__":
    sys.exit(main())
