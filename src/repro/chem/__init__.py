"""Molecular structures, elements and geometry utilities."""

from .bonds import bond_graph, connected_components, detect_bonds
from .elements import Element, atomic_mass, atomic_number, covalent_radius, element
from .geometry import pairwise_distances, rotated, rotation_matrix
from .molecule import Molecule
from .xyz import format_xyz, load_xyz, parse_xyz, save_xyz

__all__ = [
    "Element",
    "Molecule",
    "atomic_mass",
    "atomic_number",
    "bond_graph",
    "connected_components",
    "covalent_radius",
    "detect_bonds",
    "element",
    "format_xyz",
    "load_xyz",
    "pairwise_distances",
    "parse_xyz",
    "rotated",
    "rotation_matrix",
    "save_xyz",
]
