"""Benchmark molecular systems used throughout the paper's evaluation."""

from .fibril import abeta_like_fibril, fibril, fibril_fragmented, prp_like_fibril
from .glycine import glycine_chain, glycine_fragmented, glycine_residue_atoms
from .lattice import assemble, replicate, sphere_of_molecules
from .paracetamol import paracetamol_molecule, paracetamol_sphere
from .urea import (
    radius_for_molecule_count,
    urea_cluster,
    urea_molecule,
    urea_sphere_molecule_count,
)
from .water import water_cluster, water_dimer, water_monomer

__all__ = [
    "abeta_like_fibril",
    "assemble",
    "fibril",
    "fibril_fragmented",
    "glycine_chain",
    "glycine_fragmented",
    "glycine_residue_atoms",
    "paracetamol_molecule",
    "paracetamol_sphere",
    "prp_like_fibril",
    "radius_for_molecule_count",
    "replicate",
    "sphere_of_molecules",
    "urea_cluster",
    "urea_molecule",
    "urea_sphere_molecule_count",
    "water_cluster",
    "water_dimer",
    "water_monomer",
]
