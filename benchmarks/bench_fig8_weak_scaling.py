"""Fig. 8 — weak scaling on Frontier: growing urea spheres at constant
work per GCD, 512 -> 4,096 nodes (4,096 -> 32,768 GCDs) in the paper.

The paper holds ~4 polymers per GCD. At 1/8 machine scale the spheres
are small and growth is quantized (whole lattice shells), so the
realized work per GCD wobbles between points; weak efficiency is
therefore reported as the *work-throughput per GCD* relative to the
base point,

    eff_i = (work_i / gcds_i / t_i) / (work_0 / gcds_0 / t_0),

which reduces to the usual t_0/t_i when the workload match is exact.
Expected shape: near-flat, with modest degradation at the largest
count (paper: slight drop at 4,096 nodes from load-balancing
communication).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.cluster import FRONTIER, PAPER_CALIBRATED, simulate_aimd
from repro.constants import BOHR_PER_ANGSTROM
from repro.frag import FragmentedSystem, build_plan
from repro.systems import urea_cluster

GCD_COUNTS = [256, 512, 1024, 2048]
CUTOFF_A = 9.0  # tighter than the paper's 15.3 A so 1/8-scale spheres
# still carry bulk-like polymer populations


def _plan_cost(plan) -> float:
    """Modeled single-GCD cost (s) of one full MBE step."""
    cm = PAPER_CALIBRATED
    elec = {1: 128, 2: 256, 3: 384}
    return sum(cm.time_on(elec[len(key)], FRONTIER) for key in plan.fragments)


def _grow_until(predicate):
    """Grow a urea sphere until ``predicate(fs, plan)`` holds."""
    nmol = 16
    for _ in range(80):
        fs = FragmentedSystem.by_components(urea_cluster(nmol), group_size=4)
        plan = build_plan(
            fs, CUTOFF_A * BOHR_PER_ANGSTROM, CUTOFF_A * BOHR_PER_ANGSTROM,
            order=3,
        )
        if predicate(fs, plan):
            return fs, plan
        nmol = int(nmol * 1.1) + 4
    raise RuntimeError("sphere growth did not converge")


def test_fig8_weak_scaling(run_once, record_output):
    def experiment():
        rows = []
        rates = []  # work per GCD per second
        # base point: ~4 polymers per GCD at the smallest GCD count
        fs0, plan0 = _grow_until(
            lambda fs, plan: plan.npolymers >= 4 * GCD_COUNTS[0]
        )
        target = _plan_cost(plan0) / GCD_COUNTS[0]
        for gcds in GCD_COUNTS:
            nodes = gcds // FRONTIER.gcds_per_node
            fs, plan = _grow_until(
                lambda fs, plan, g=gcds: _plan_cost(plan) / g >= target
            )
            work = _plan_cost(plan) / gcds
            r = simulate_aimd(
                fs, FRONTIER, nodes, nsteps=3,
                r_dimer_bohr=CUTOFF_A * BOHR_PER_ANGSTROM,
                r_trimer_bohr=CUTOFF_A * BOHR_PER_ANGSTROM,
                mbe_order=3, replan_interval=4,
            )
            rates.append(work / r.time_per_step())
            rows.append(
                (gcds, fs.nmonomers, plan.npolymers,
                 f"{plan.npolymers / gcds:.1f}", f"{work:.0f}",
                 f"{r.time_per_step():.1f}",
                 f"{100 * r.flop_rate_pflops / FRONTIER.peak_pflops(nodes):.0f}%")
            )
        effs = [rate / rates[0] for rate in rates]
        rows = [r + (f"{100 * e:.0f}%",) for r, e in zip(rows, effs)]
        table = format_table(
            ["GCDs", "monomers", "polymers", "poly/GCD", "work/GCD (s)",
             "s/step", "% of peak", "weak eff."],
            rows,
            title=(
                "Fig. 8 (1/8 scale) — weak scaling, urea spheres at "
                "constant work per GCD\n(paper: near-flat 512->4,096 nodes "
                "with a slight drop at the largest count)"
            ),
        )
        return table, effs

    table, effs = run_once(experiment)
    record_output("fig8_weak_scaling", table)
    # near-flat work throughput per GCD across an 8x machine growth
    assert all(0.7 < e < 1.3 for e in effs)
