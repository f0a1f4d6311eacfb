"""Fig. 3 — RI-MP2 gradient execution time with and without the RI-HF
approximation, across small fragment sizes.

The paper (single A100, cc-pVDZ, glycine chains) shows the RI-HF
variant faster across all accessible sizes, with the largest speedups
(up to ~6x) for the smallest fragments, where four-center integrals
and their derivatives dominate. We measure the same two code paths on
a small-fragment series (water -> urea -> Gly_1, the AIMD-relevant
regime) and label each point with the speedup, as the figure does.
"""

from __future__ import annotations

import os
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.gemm import count_flops
from repro.basis import auto_auxiliary
from repro.mp2.rimp2_grad import (
    rimp2_gradient,
    rimp2_gradient_conventional_hf,
)
from repro.scf import rhf
from repro.systems import glycine_chain, urea_molecule, water_monomer

BASIS = "sto-3g"


def _series():
    return [
        ("water", water_monomer()),
        ("urea", urea_molecule()),
        ("Gly_1", glycine_chain(1)),
    ]


def _dgemm_peak_gflops(n: int = 1024, repeats: int = 3) -> float:
    """Best-of ``repeats`` rate of one large square dgemm on this host."""
    a = np.random.default_rng(0).standard_normal((n, n))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ a
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n ** 3 / best / 1e9


def _provenance(wall_s: float) -> str:
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], capture_output=True,
            text=True, cwd=Path(__file__).parent, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unpinned")
    return (f"commit {commit}, BLAS threads {threads}, "
            f"wall {wall_s:.1f} s")


def _timed(leg):
    """Wall seconds and counted GEMM FLOPs of one leg."""
    with count_flops() as c:
        t0 = time.perf_counter()
        leg()
        wall = time.perf_counter() - t0
    return wall, c.flops


def test_fig3_rihf_vs_conventional_hf(run_once, record_output):
    def experiment():
        start = time.perf_counter()
        peak = _dgemm_peak_gflops()
        rows = []
        speedups = []
        for label, mol in _series():
            aux = auto_auxiliary(mol, BASIS)
            t_nonri, f_nonri = _timed(lambda: rimp2_gradient_conventional_hf(
                rhf(mol, BASIS, ri=False), aux=aux))
            t_ri, f_ri = _timed(lambda: rimp2_gradient(
                rhf(mol, BASIS, ri=True, aux=aux)))
            speedup = t_nonri / t_ri
            speedups.append(speedup)
            # the least share of a leg's wall time its counted GEMMs
            # need: their FLOPs at this host's large-dgemm rate
            rows.append(
                (label, mol.natoms, f"{t_nonri:.2f}", f"{t_ri:.2f}",
                 f"{speedup:.1f}x",
                 f"{f_nonri / 1e6:.1f} / {f_ri / 1e6:.1f}",
                 f"{100 * f_nonri / (peak * 1e9 * t_nonri):.1f}% / "
                 f"{100 * f_ri / (peak * 1e9 * t_ri):.1f}%")
            )
        rows.append(("paper vs ours", "", "", "",
                     f"~6x / {max(speedups):.1f}x", "", ""))
        table = format_table(
            ["fragment", "atoms", "HF+RI-MP2 grad s", "RI-HF+RI-MP2 grad s",
             "RI-HF speedup", "GEMM MFLOP (HF / RI-HF)",
             "GEMM share (HF / RI-HF)"],
            rows,
            title=(
                "Fig. 3 (scaled reproduction) — RI-MP2 gradients with vs "
                "without RI-HF\n(paper: up to 6x for small fragments on an "
                "A100, cc-pVDZ; four-center derivatives dominate small "
                "fragments; both legs run the same shell-class integral "
                "kernels)\nGEMM share: counted GEMM FLOPs at this host's "
                f"dgemm rate ({peak:.1f} GFLOP/s) over the leg's wall time"
            ),
        )
        return table + "\n" + _provenance(time.perf_counter() - start), speedups

    table, speedups = run_once(experiment)
    record_output("fig3_rihf_speedup", table)
    # RI-HF must win at every fragment size in the AIMD regime
    assert all(s > 1.0 for s in speedups)
    # and by a large factor for at least the bigger fragments
    assert max(speedups) > 4.0
