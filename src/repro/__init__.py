"""repro — fragment-based MBE3/RI-MP2 ab initio molecular dynamics.

A full-stack reproduction of "Breaking the Million-Electron and
1 EFLOP/s Barriers: Biomolecular-Scale Ab Initio Molecular Dynamics
Using MP2 Potentials" (SC 2024): a from-scratch Gaussian-integral and
RI-HF/RI-MP2 engine with analytic gradients, MBE3 molecular
fragmentation with hydrogen caps, synchronous and asynchronous AIMD
scheduling, runtime GEMM FLOP accounting (plus the paper's
variant-tuning scheme as a measured artefact), and discrete-event
models of the Frontier and Perlmutter machines for the paper's scaling
and peak-performance experiments.

Quick start::

    from repro import Molecule, rhf, mp2, rimp2_gradient
    mol = Molecule.from_angstrom(["O", "H", "H"], [...])
    scf = rhf(mol, "repro-dz", ri=True)
    corr = mp2(scf)
    grad = rimp2_gradient(scf)

See README.md and the examples/ directory.
"""

from .calculators import (
    ConventionalHFCalculator,
    PairwisePotentialCalculator,
    RIHFCalculator,
    RIMP2Calculator,
)
from .chem import Molecule
from .frag import FragmentedSystem, build_plan, mbe_energy_gradient
from .md import AsyncCoordinator, run_aimd, run_serial
from .mp2 import mp2, rimp2_gradient
from .scf import rhf

__version__ = "1.0.0"

__all__ = [
    "AsyncCoordinator",
    "ConventionalHFCalculator",
    "FragmentedSystem",
    "Molecule",
    "PairwisePotentialCalculator",
    "RIHFCalculator",
    "RIMP2Calculator",
    "build_plan",
    "mbe_energy_gradient",
    "mp2",
    "rhf",
    "rimp2_gradient",
    "run_aimd",
    "run_serial",
]
