"""Covalent bond detection.

Fragmentation across covalent bonds requires knowing the bond graph so
hydrogen caps can be placed (paper Sec. V-B). Bonds are detected with the
standard covalent-radius criterion: atoms *i*, *j* are bonded when

    r_ij < scale * (R_cov(i) + R_cov(j))

with ``scale = 1.2`` by default.
"""

from __future__ import annotations

import numpy as np

from ..constants import BOHR_PER_ANGSTROM
from .elements import covalent_radius
from .molecule import Molecule

DEFAULT_BOND_SCALE = 1.2


def detect_bonds(mol: Molecule, scale: float = DEFAULT_BOND_SCALE) -> list[tuple[int, int]]:
    """Return the list of bonded atom index pairs ``(i, j)`` with ``i < j``."""
    radii_bohr = np.array(
        [covalent_radius(s) * BOHR_PER_ANGSTROM for s in mol.symbols]
    )
    bonds: list[tuple[int, int]] = []
    coords = mol.coords
    for i in range(mol.natoms):
        d = np.linalg.norm(coords[i + 1 :] - coords[i], axis=1)
        cutoff = scale * (radii_bohr[i] + radii_bohr[i + 1 :])
        for off in np.nonzero(d < cutoff)[0]:
            bonds.append((i, i + 1 + int(off)))
    return bonds


def bond_graph(mol: Molecule, scale: float = DEFAULT_BOND_SCALE) -> list[list[int]]:
    """Bond connectivity as per-atom neighbour lists: ``g[a]`` holds the
    atoms bonded to atom ``a``, ascending (`detect_bonds` lists its pairs
    in lexicographic order)."""
    g: list[list[int]] = [[] for _ in range(mol.natoms)]
    for i, j in detect_bonds(mol, scale=scale):
        g[i].append(j)
        g[j].append(i)
    return g


def connected_components(mol: Molecule, scale: float = DEFAULT_BOND_SCALE) -> list[list[int]]:
    """Atom-index groups of covalently connected sub-molecules.

    A union-find over `detect_bonds`. Components are ordered by their
    first atom and list their members ascending.
    """
    parent = list(range(mol.natoms))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in detect_bonds(mol, scale=scale):
        ri, rj = root(i), root(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for a in range(mol.natoms):
        groups.setdefault(root(a), []).append(a)
    return list(groups.values())
