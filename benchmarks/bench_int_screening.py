"""Integral screening: the default Schwarz screening vs none.

Every MD step re-solves the same fragments at slightly moved geometries;
the integral workspace keeps what depends on their compositions alone
(the plans, the auxiliary bounds) and every evaluation screens each
fragment's shell pairs with the Schwarz table of its own geometry. The
workspace cannot be switched off — every driver runs in a scope of one
— so this benchmark isolates screening. It runs the same short
trajectory twice, each on a fresh `IntegralWorkspace`:

* **baseline** — ``int_screen=0`` (no integral skipped, no Schwarz
  table built);
* **default** — the default Schwarz screening tolerance: what every
  calculator runs with unless told otherwise.

Both runs use cold SCF guesses (``warm_start=False``) so the iteration
paths are identical and the comparison isolates the integral layer. The
acceptance gates: final total energies agree to 1e-9 Ha, SCF iteration
counts are *identical* (screening at 1e-12 may not perturb the
convergence path), the default run's workspace serves entries and skips
pairs, and the glycine wall-time ratio clears the floor below.

On the floor: with one kernel family the two runs do the same
per-pair arithmetic, so the ratio measures what screening removes — the
skipped long-range pairs (13% of the glycine-3mer's) — against the
Schwarz tables it builds and the SCF GEMMs, DF solves and
diagonalisation both runs share. Measured on a 2-core VM while the
baseline still ran with its workspace switched off (caching and
screening together, three repetitions each): glycine-3mer full mode
1.05x / 0.94x / 1.09x (59-61 s baseline), glycine-2mer smoke mode
1.14x / 1.04x / 1.14x (13-15 s baseline); with the Hermite-simplex
kernels, one repetition each, 1.07x (27 s) and 1.09x (6.5 s). That is a
few percent, inside the run-to-run spread, so the floor (0.85 in both
modes) only asserts that the defaults never cost wall time; the energy,
iteration-count, served-entries and skipped-pairs gates are the ones
with resolving power. The measured values are printed and recorded in
the JSON artifact. See docs/PERFORMANCE.md for the full accounting.

Runnable two ways:

* ``python benchmarks/bench_int_screening.py [--smoke] [--json PATH]`` —
  standalone CLI (CI runs the ``--smoke`` variant) writing a JSON
  record under ``benchmarks/output/``;
* ``pytest benchmarks/bench_int_screening.py`` — the harness form used
  by the other paper benchmarks.
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
from repro.integrals.workspace import (  # noqa: E402
    DEFAULT_INT_SCREEN,
    IntegralWorkspace,
)
from repro.md.aimd import run_aimd  # noqa: E402
from repro.systems import glycine_fragmented, water_cluster  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"

#: final total energies of the runs must pairwise agree to this
ENERGY_TOL_HA = 1.0e-9

#: wall-time ratio floor on the glycine chain (baseline / default),
#: full and smoke mode alike
MIN_SPEEDUP = 0.85

#: the two configurations' screening thresholds
CONFIGS = {
    "baseline": 0.0,
    "default": DEFAULT_INT_SCREEN,
}


def _run(system: FragmentedSystem, nsteps: int, config: str) -> dict:
    workspace = IntegralWorkspace()
    calc = RIHFCalculator(
        workspace=workspace,
        int_screen=CONFIGS[config],
        # disabled cache = pure statistics collector: counts the SCF
        # iterations of every solve without ever serving a guess, so
        # all runs take identical iteration paths
        guess_cache=GuessCache(enabled=False),
    )
    t0 = time.perf_counter()
    traj = run_aimd(
        system, calc, nsteps=nsteps, dt_fs=0.25, temperature_k=100.0,
        seed=0, r_dimer_bohr=1.0e6, mbe_order=2, replan_interval=1,
        warm_start=False,
    )
    wall = time.perf_counter() - t0
    ws = workspace.stats()
    gc = calc.guess_cache.stats()
    return {
        "wall_s": wall,
        "scf_iters": gc["iters_warm"] + gc["iters_cold"],
        "final_total_energy": float(traj.total[-1]),
        "workspace_hits": ws["hits"],
        "workspace_misses": ws["misses"],
        "pairs_skipped": ws["pairs_skipped"],
        "pairs_total": ws["pairs_total"],
        "neglected_bound": ws["neglected_bound"],
    }


def run_experiment(smoke: bool = False) -> dict:
    """Two-configuration trajectory runs (glycine chain + water)."""
    if smoke:
        cases = [
            ("glycine-2mer", glycine_fragmented(2), 2),
            ("water-2", FragmentedSystem.by_components(
                water_cluster(2, seed=1)), 2),
        ]
    else:
        # the 3-residue chain is the smallest system with genuinely
        # long-range shell pairs (residues 1<->3), where Schwarz
        # screening has real traction; MBE2 re-solves every monomer
        # inside two dimer fragments per step, so the shell-pair cache
        # sees the cross-fragment reuse pattern of production MBE runs
        cases = [
            ("glycine-3mer", glycine_fragmented(3), 3),
            ("water-3", FragmentedSystem.by_components(
                water_cluster(3, seed=1)), 6),
        ]
    results = {
        "smoke": smoke,
        "energy_tol_ha": ENERGY_TOL_HA,
        "min_speedup": MIN_SPEEDUP,
        "int_screen": DEFAULT_INT_SCREEN,
        "cases": [],
    }
    for name, system, nsteps in cases:
        runs = {cfg: _run(system, nsteps, cfg) for cfg in CONFIGS}
        base, dflt = runs["baseline"], runs["default"]
        results["cases"].append({
            "system": name,
            "natoms": system.parent.natoms,
            "nsteps": nsteps,
            "runs": runs,
            "speedup": base["wall_s"] / max(dflt["wall_s"], 1e-12),
            "final_energy_delta_ha": abs(
                dflt["final_total_energy"] - base["final_total_energy"]
            ),
            "scf_iters_equal": base["scf_iters"] == dflt["scf_iters"],
        })
    return results


def format_results(results: dict) -> str:
    rows = []
    for case in results["cases"]:
        runs = case["runs"]
        dflt = runs["default"]
        rows.append((
            case["system"],
            case["nsteps"],
            f"{runs['baseline']['wall_s']:.1f}",
            f"{dflt['wall_s']:.1f}",
            f"{case['speedup']:.2f}x",
            f"{dflt['pairs_skipped']}/{dflt['pairs_total']}",
            f"{case['final_energy_delta_ha']:.1e}",
        ))
    return format_table(
        ["system", "steps", "base s", "default s", "speedup", "skipped",
         "|dE| Ha"],
        rows,
        title="Integral screening — default vs none, fresh workspaces",
    )


def check_results(results: dict) -> None:
    """Acceptance gates: exact energies, identical SCF paths, speedup."""
    for case in results["cases"]:
        de = case["final_energy_delta_ha"]
        assert de <= ENERGY_TOL_HA, (
            f"{case['system']}: default final energy differs from "
            f"baseline by {de:.2e} Ha"
        )
        assert case["scf_iters_equal"], (
            f"{case['system']}: SCF iteration counts diverged: "
            + ", ".join(
                f"{k}={v['scf_iters']}" for k, v in case["runs"].items()
            )
        )
        dflt = case["runs"]["default"]
        assert dflt["workspace_hits"] > 0, (
            f"{case['system']}: the workspace never served an entry"
        )
    gly = results["cases"][0]
    assert gly["runs"]["default"]["pairs_skipped"] > 0, (
        f"{gly['system']}: default screening skipped no shell pair"
    )
    assert gly["speedup"] >= MIN_SPEEDUP, (
        f"screening sped {gly['system']} up only "
        f"{gly['speedup']:.2f}x over the unscreened baseline "
        f"(floor {MIN_SPEEDUP}x)"
    )


def _write_json(results: dict, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small systems / few steps (CI gate)")
    ap.add_argument("--json", type=Path,
                    default=OUTPUT_DIR / "int_screening.json",
                    help="JSON output path")
    args = ap.parse_args(argv)
    results = run_experiment(smoke=args.smoke)
    table = format_results(results)
    print(table)
    _write_json(results, args.json)
    print(f"\nwrote {args.json}")
    check_results(results)
    return 0


def test_int_screening_speedup(run_once, record_output):
    results = run_once(lambda: run_experiment(smoke=False))
    table = format_results(results)
    record_output("int_screening", table)
    _write_json(results, OUTPUT_DIR / "int_screening.json")
    check_results(results)


if __name__ == "__main__":
    sys.exit(main())
