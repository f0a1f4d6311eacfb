"""Project an MBE3/RI-MP2 AIMD workload onto the modeled exascale machines.

Given a urea-cluster size, this enumerates the real polymer population
from lattice geometry, assigns calibrated per-polymer costs, schedules
one AIMD step on Frontier and Perlmutter, and reports time per step,
sustained FLOP rate and machine fraction — the paper's Table V workflow
as a tool.

Run:  python examples/exascale_projection.py [nmolecules ...]
"""

from __future__ import annotations

import sys

from repro.analysis import format_table
from repro.cluster import (
    FRONTIER,
    PERLMUTTER,
    simulate_workload,
    urea_workload,
)

sizes = [int(a) for a in sys.argv[1:]] or [2000, 10000, 44532, 63854]

rows = []
for nmol in sizes:
    stats = urea_workload(nmol)
    electrons = stats.nmonomers * stats.electrons_per_monomer
    for machine, nodes in ((FRONTIER, FRONTIER.nodes), (PERLMUTTER, PERLMUTTER.nodes)):
        res = simulate_workload(stats, machine, nodes, nsteps=3)
        rows.append(
            (
                f"{nmol:,}",
                f"{electrons:,}",
                f"{stats.npolymers:,}",
                machine.name,
                nodes,
                f"{res.time_per_step_s / 60:.1f}",
                f"{res.flop_rate_pflops:.0f}",
                f"{100 * res.fraction_of_peak(machine):.0f}%",
            )
        )

print(format_table(
    ["urea molecules", "electrons", "polymers/step", "machine", "nodes",
     "min/step", "PFLOP/s", "% of peak"],
    rows,
    title="Exascale projections for MBE3/RI-MP2 AIMD (cc-pVDZ-scale basis, "
          "15.3 A cutoffs)",
))
print("\nThe paper's record: 63,854 urea (2,043,328 e-) at 25.6 min/step, "
      "1006.7 PFLOP/s (59% of Frontier).")
