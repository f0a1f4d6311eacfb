"""Fig. 7 — strong scaling on Perlmutter and Frontier.

Paper setup:
* Perlmutter: 80-molecule paracetamol sphere (36 A diameter, one
  molecule per monomer), 64 -> 1,536 nodes, 91% parallel efficiency at
  the full machine.
* Frontier: 24,000-urea (4 molecules/monomer) on 1,024 -> 4,096 nodes
  (92% efficiency) and 44,532-urea on 6,164 -> 9,400 (87%).

Reproduction: the Perlmutter curve runs the real coordinator through
the event simulator at the paper's exact workload. The Frontier curve
runs at 1/8 linear scale by default (molecule count and node counts
both divided by 8, preserving polymers-per-GCD, which is what the
efficiency depends on); set REPRO_BENCH_SCALE=full for the paper's
sizes via the aggregate scheduler.
"""

from __future__ import annotations


from repro.analysis import format_table
from repro.cluster import (
    FRONTIER,
    PERLMUTTER,
    parallel_efficiency,
    simulate_aimd,
    strong_scaling_curve,
    urea_workload,
)
from repro.constants import BOHR_PER_ANGSTROM
from repro.frag import FragmentedSystem
from repro.systems import paracetamol_sphere, urea_cluster

PERLMUTTER_NODES = [64, 128, 256, 512, 1024, 1536]


def test_fig7_perlmutter_paracetamol(run_once, record_output):
    def experiment():
        mol = paracetamol_sphere(18.0)  # 36 A diameter sphere
        fs = FragmentedSystem.by_components(mol)
        rows = []
        times = []
        for nodes in PERLMUTTER_NODES:
            # with only ~80 monomers on thousands of GPUs, single big
            # trimers set the critical path: worker groups span a full
            # node (4 GPUs), as the paper's scheme allows (Sec. V-D)
            r = simulate_aimd(
                fs, PERLMUTTER, nodes, nsteps=3,
                r_dimer_bohr=20 * BOHR_PER_ANGSTROM,
                r_trimer_bohr=13 * BOHR_PER_ANGSTROM,
                mbe_order=3, replan_interval=4, gcds_per_worker=4,
            )
            times.append(r.time_per_step())
            rows.append((nodes, r.nworkers, f"{r.time_per_step():.3f}",
                         f"{r.worker_utilization:.2f}"))
        effs = [
            (times[0] / t) / (n / PERLMUTTER_NODES[0])
            for t, n in zip(times, PERLMUTTER_NODES)
        ]
        rows = [r + (f"{e * 100:.0f}%",) for r, e in zip(rows, effs)]
        table = format_table(
            ["nodes", "worker groups", "s/step", "utilization",
             "parallel eff."],
            rows,
            title=(
                f"Fig. 7 (Perlmutter) — paracetamol sphere, "
                f"{fs.nmonomers} monomers, real-coordinator event sim, "
                "4-GPU worker groups\n"
                "(paper: 91% efficiency at 1,536 nodes vs 64-node base)"
            ),
        )
        return table, effs

    table, effs = run_once(experiment)
    record_output("fig7_perlmutter", table)
    assert effs[0] == 1.0
    # paper: 91% at the full machine; high efficiency throughout
    assert all(e > 0.5 for e in effs)
    assert effs[-1] > 0.6


def test_fig7_frontier_urea(run_once, record_output, full_scale):
    def experiment():
        if full_scale:
            # paper-scale via the aggregate scheduler
            stats = urea_workload(24000)
            nodes = [1024, 2048, 4096]
            res = strong_scaling_curve(stats, FRONTIER, nodes)
            effs = parallel_efficiency(res)
            rows = [
                (r.nodes, f"{r.time_per_step_s / 60:.1f}",
                 f"{100 * e:.0f}%",
                 f"{100 * r.fraction_of_peak(FRONTIER):.0f}%")
                for r, e in zip(res, effs)
            ]
            title = (
                "Fig. 7 (Frontier, full scale, aggregate) — 24k urea\n"
                "(paper: 92% efficiency at 4,096 nodes; 62/61/56% of peak)"
            )
            table = format_table(
                ["nodes", "min/step", "parallel eff.", "% of peak"],
                rows, title=title,
            )
            return table, effs
        # 1/8-scale event simulation with the real coordinator
        mol = urea_cluster(3000)
        fs = FragmentedSystem.by_components(mol, group_size=4)
        nodes = [128, 256, 512]
        rows = []
        times = []
        fracs = []
        for n in nodes:
            r = simulate_aimd(
                fs, FRONTIER, n, nsteps=3,
                r_dimer_bohr=15.3 * BOHR_PER_ANGSTROM,
                r_trimer_bohr=15.3 * BOHR_PER_ANGSTROM,
                mbe_order=3, replan_interval=4,
            )
            times.append(r.time_per_step())
            frac = r.flop_rate_pflops / FRONTIER.peak_pflops(n)
            fracs.append(frac)
            rows.append(
                (n, r.nworkers, f"{r.time_per_step() / 60:.1f}",
                 f"{100 * frac:.0f}%")
            )
        effs = [(times[0] / t) / (n / nodes[0]) for t, n in zip(times, nodes)]
        rows = [r + (f"{100 * e:.0f}%",) for r, e in zip(rows, effs)]
        table = format_table(
            ["nodes", "GCDs", "min/step", "% of peak", "parallel eff."],
            rows,
            title=(
                f"Fig. 7 (Frontier, 1/8 scale) — 3,000-urea cluster, "
                f"{fs.nmonomers} monomers, real-coordinator event sim\n"
                "(paper at 8x size/nodes: 92% efficiency, 62->56% of peak)"
            ),
        )
        return table, effs

    table, effs = run_once(experiment)
    record_output("fig7_frontier", table)
    assert all(e > 0.5 for e in effs)
