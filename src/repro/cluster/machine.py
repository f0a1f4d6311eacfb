"""Machine models for the HPC platforms in the paper (Sec. VI-A).

Numbers are taken directly from the paper: Frontier has 9,408 nodes of
4 MI250X GPUs (2 GCDs each, 22.8 TFLOP/s sustained FP64 matrix peak per
GCD, 64 GB HBM2e) for a 1.715 EFLOP/s sustainable machine peak;
Perlmutter has 1,536 GPU nodes of 4 A100s (19.5 theoretical / 18.4
sustained TFLOP/s, 40 GB) for 113 PFLOP/s. Both use a Slingshot-11
dragonfly with at most three hops.

The per-operation-class efficiency factors encode the paper's
observation that GEMMs run near peak while integral kernels and
eigensolvers are FLOP-inefficient, and that the A100 system handles
small-fragment integral/eigensolver work better than the MI250X
("more efficient random memory accesses ... and faster vendor provided
eigensolver", Sec. VII-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MachineSpec:
    """A GPU supercomputer abstraction for the event/aggregate simulators."""

    name: str
    nodes: int
    gpus_per_node: int
    gcds_per_gpu: int
    #: sustained FP64 matrix peak per GCD (TFLOP/s)
    gcd_peak_tflops: float
    gcd_mem_gb: float
    #: point-to-point message latency (seconds) on the dragonfly
    message_latency_s: float
    #: super-coordinator service time per work assignment (seconds)
    coordinator_service_s: float
    #: achievable fraction of peak per operation class
    efficiency: dict = field(
        default_factory=lambda: {"gemm": 0.85, "integrals": 0.10, "eig": 0.04}
    )
    gflops_per_joule: float = 50.0

    @property
    def gcds_per_node(self) -> int:
        """Graphics compute dies per node (GPUs x dies per GPU)."""
        return self.gpus_per_node * self.gcds_per_gpu

    def total_gcds(self, nodes: int | None = None) -> int:
        """GCD count of ``nodes`` nodes (the whole machine by default)."""
        return (nodes if nodes is not None else self.nodes) * self.gcds_per_node

    def peak_pflops(self, nodes: int | None = None) -> float:
        """Sustained FP64 peak of ``nodes`` nodes in PFLOP/s."""
        return self.total_gcds(nodes) * self.gcd_peak_tflops / 1000.0


FRONTIER = MachineSpec(
    name="Frontier",
    nodes=9408,
    gpus_per_node=4,
    gcds_per_gpu=2,
    gcd_peak_tflops=22.8,
    gcd_mem_gb=64.0,
    message_latency_s=4.0e-6,
    coordinator_service_s=4.0e-6,
    efficiency={"gemm": 0.85, "integrals": 0.055, "eig": 0.022},
    gflops_per_joule=53.0,
)

PERLMUTTER = MachineSpec(
    name="Perlmutter",
    nodes=1536,
    gpus_per_node=4,
    gcds_per_gpu=1,
    gcd_peak_tflops=18.4,
    gcd_mem_gb=40.0,
    message_latency_s=3.0e-6,
    coordinator_service_s=4.0e-6,
    # A100: better random-access integral kernels and vendor eigensolver
    efficiency={"gemm": 0.85, "integrals": 0.11, "eig": 0.05},
    gflops_per_joule=27.0,
)
