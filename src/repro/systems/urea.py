"""Urea molecule and crystal-lattice clusters (the paper's headline
benchmark system: spherical urea-lattice sections up to 63,854 molecules
/ 2,043,328 electrons).

The molecular geometry is constructed analytically from standard bond
parameters (planar urea: C=O 1.26 A, C-N 1.38 A, N-H 1.01 A, N-C-N
116 deg). The crystal packing is an *idealized* version of the real
tetragonal P-42_1m structure: the true cell constants (a = 5.565 A,
c = 4.684 A, 2 molecules/cell) with molecules along the c axis in
alternating orientation. See DESIGN.md for why this substitution
preserves the experiments (it reproduces the molecule count / volume
relationship, which drives polymer counts at given cutoffs).
"""

from __future__ import annotations

import numpy as np

from ..chem.geometry import rotation_matrix
from ..chem.molecule import Molecule
from ..constants import BOHR_PER_ANGSTROM
from .lattice import assemble, replicate, sphere_of_molecules

A_CELL = 5.565  # Angstrom
C_CELL = 4.684  # Angstrom
MOLECULES_PER_CELL = 2
ELECTRONS_PER_MOLECULE = 32  # CH4N2O


def urea_molecule() -> Molecule:
    """A single planar urea molecule, C at the origin, C=O along +z."""
    d_co, d_cn, d_nh = 1.26, 1.38, 1.01
    ang_ncn = np.deg2rad(116.0)
    half = ang_ncn / 2.0
    symbols = ["C", "O", "N", "N"]
    coords = [
        [0.0, 0.0, 0.0],
        [0.0, 0.0, d_co],
        [d_cn * np.sin(half), 0.0, -d_cn * np.cos(half)],
        [-d_cn * np.sin(half), 0.0, -d_cn * np.cos(half)],
    ]
    # Two in-plane hydrogens per nitrogen at ~120 deg around N.
    for sgn in (1.0, -1.0):
        npos = np.array([sgn * d_cn * np.sin(half), 0.0, -d_cn * np.cos(half)])
        to_c = -npos / np.linalg.norm(npos)
        # rotate the N->C direction by +/-120 deg in the molecular plane
        for ang in (np.deg2rad(120.0), -np.deg2rad(120.0)):
            R = rotation_matrix(np.array([0.0, 1.0, 0.0]), ang)
            h = npos + d_nh * (R @ to_c)
            symbols.append("H")
            coords.append(h.tolist())
    return Molecule.from_angstrom(symbols, np.array(coords))


def urea_lattice_molecules(na: int, nb: int, nc: int) -> list[Molecule]:
    """Urea molecules of an ``na x nb x nc`` supercell (idealized packing)."""
    lat = np.diag([A_CELL, A_CELL, C_CELL])
    m = urea_molecule()
    shift1 = np.array([0.25 * A_CELL, 0.25 * A_CELL, 0.0]) * BOHR_PER_ANGSTROM
    shift2 = np.array([0.75 * A_CELL, 0.75 * A_CELL, 0.5 * C_CELL]) * BOHR_PER_ANGSTROM
    # Orientations chosen so the closest intermolecular H...H contact is
    # ~2.0 A (realistic van der Waals packing): molecule 1 rotated 45 deg
    # about c, molecule 2 flipped and rotated 135 deg (the -4 axis motif).
    R1 = rotation_matrix(np.array([0.0, 0.0, 1.0]), np.pi / 4)
    m1 = m.with_coords(m.coords @ R1.T).translated(shift1)
    R2 = rotation_matrix(np.array([0.0, 0.0, 1.0]), 3 * np.pi / 4)
    flipped = m.with_coords(m.coords @ rotation_matrix(np.array([1.0, 0, 0]), np.pi).T)
    m2 = flipped.with_coords(flipped.coords @ R2.T).translated(shift2)
    return replicate([m1, m2], lat, na, nb, nc)


def urea_sphere_molecule_count(radius_angstrom: float) -> int:
    """Number of molecules a spherical cut would contain (no geometry
    build — used by the cluster simulator for exascale projections)."""
    density = MOLECULES_PER_CELL / (A_CELL * A_CELL * C_CELL)  # per A^3
    return int(round(density * 4.0 / 3.0 * np.pi * radius_angstrom**3))


def radius_for_molecule_count(nmol: int) -> float:
    """Inverse of `urea_sphere_molecule_count` (Angstrom)."""
    density = MOLECULES_PER_CELL / (A_CELL * A_CELL * C_CELL)
    return float((3.0 * nmol / (4.0 * np.pi * density)) ** (1.0 / 3.0))


def urea_cluster(nmol: int) -> Molecule:
    """Cluster of approximately ``nmol`` urea molecules (spherical cut)."""
    r = radius_for_molecule_count(nmol)
    # grow the radius until the count is reached
    for _ in range(40):
        n = int(np.ceil(2 * r / min(A_CELL, C_CELL))) + 2
        mols = sphere_of_molecules(urea_lattice_molecules(n, n, n), r)
        if len(mols) >= nmol:
            return assemble(mols[:nmol])
        r *= 1.06
    raise RuntimeError(f"could not assemble {nmol} urea molecules")
