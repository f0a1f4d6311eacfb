"""Paracetamol (acetaminophen, C8H9NO2) molecule and lattice clusters.

The molecule (benzene ring + para OH + acetamide group) is constructed
analytically from standard bond parameters. The lattice is an idealized
monoclinic-like packing with the experimental form-I density scale
(~1.26 g/cm^3 corresponds to about 4 molecules per ~770 A^3 cell); as
with urea (see DESIGN.md), packing realism only needs to reproduce the
molecule-count-vs-volume relation that drives polymer enumeration.
"""

from __future__ import annotations

import numpy as np

from ..chem.geometry import rotation_matrix
from ..chem.molecule import Molecule
from ..constants import BOHR_PER_ANGSTROM
from .lattice import assemble, replicate, sphere_of_molecules

# Idealized cell (Angstrom): 4 molecules in a 12.8 x 12.8 x 7.6 box
# (ring planes stacked along z, alternating in-plane orientation).
CELL = np.diag([12.8, 12.8, 7.6])
ELECTRONS_PER_MOLECULE = 80  # C8H9NO2


def paracetamol_molecule() -> Molecule:
    """A single paracetamol molecule, ring in the xy plane."""
    d_cc_ring = 1.39
    d_ch = 1.08
    d_co = 1.36  # phenol C-O
    d_oh = 0.96
    d_cn = 1.40  # ring C-N
    d_nh = 1.01
    d_namide = 1.35  # N-C(=O)
    d_c_o = 1.23
    d_c_c = 1.50  # C-CH3
    symbols: list[str] = []
    coords: list[np.ndarray] = []
    # benzene ring (C0..C5), C0 at +x
    ring = []
    for k in range(6):
        ang = np.pi / 3 * k
        p = d_cc_ring * np.array([np.cos(ang), np.sin(ang), 0.0])
        ring.append(p)
        symbols.append("C")
        coords.append(p)
    center = np.zeros(3)
    # ring hydrogens on C1, C2, C4, C5 (C0 gets OH, C3 gets N)
    for k in (1, 2, 4, 5):
        out = (ring[k] - center) / np.linalg.norm(ring[k] - center)
        symbols.append("H")
        coords.append(ring[k] + d_ch * out)
    # phenol O-H on C0
    out0 = (ring[0] - center) / np.linalg.norm(ring[0])
    O1 = ring[0] + d_co * out0
    symbols.append("O")
    coords.append(O1)
    symbols.append("H")
    coords.append(O1 + d_oh * _rot_xy(out0, 60.0))
    # amide on C3: N, H, C(=O), CH3
    out3 = (ring[3] - center) / np.linalg.norm(ring[3])
    N = ring[3] + d_cn * out3
    symbols.append("N")
    coords.append(N)
    symbols.append("H")
    coords.append(N + d_nh * _rot_xy(out3, 115.0))
    Cam = N + d_namide * _rot_xy(out3, -50.0)
    symbols.append("C")
    coords.append(Cam)
    symbols.append("O")
    coords.append(Cam + d_c_o * _rot_xy(out3, 15.0))
    Cme = Cam + d_c_c * _rot_xy(out3, -115.0)
    symbols.append("C")
    coords.append(Cme)
    # methyl hydrogens (tetrahedral-ish)
    axis = _rot_xy(out3, -115.0)
    perp1 = np.array([0.0, 0.0, 1.0])
    perp2 = np.cross(axis, perp1)
    for k in range(3):
        ang = 2 * np.pi * k / 3
        direction = 0.35 * axis + 0.94 * (np.cos(ang) * perp1 + np.sin(ang) * perp2)
        symbols.append("H")
        coords.append(Cme + 1.09 * direction / np.linalg.norm(direction))
    return Molecule.from_angstrom(symbols, np.array(coords))


def _rot_xy(v: np.ndarray, degrees: float) -> np.ndarray:
    R = rotation_matrix(np.array([0.0, 0.0, 1.0]), np.deg2rad(degrees))
    return R @ v


def paracetamol_lattice_molecules(na: int, nb: int, nc: int) -> list[Molecule]:
    """4-molecule idealized cell replicated over a supercell."""
    m = paracetamol_molecule()
    m = m.translated(-m.centroid())  # center so placements are symmetric
    motifs = []
    placements = [
        ((0.25, 0.25, 0.25), 0.0),
        ((0.75, 0.75, 0.25), np.pi / 2),
        ((0.25, 0.75, 0.75), np.pi),
        ((0.75, 0.25, 0.75), -np.pi / 2),
    ]
    for frac, ang in placements:
        R = rotation_matrix(np.array([0.0, 0.0, 1.0]), ang)
        mm = m.with_coords(m.coords @ R.T)
        shift = (np.array(frac) @ CELL) * BOHR_PER_ANGSTROM
        motifs.append(mm.translated(shift))
    return replicate(motifs, CELL, na, nb, nc)


def paracetamol_sphere(radius_angstrom: float) -> Molecule:
    """Spherical lattice section (the paper's 80-molecule, 36 A-diameter
    strong-scaling workload uses radius 18 A)."""
    n = int(np.ceil(2 * radius_angstrom / CELL.diagonal().min())) + 2
    mols = paracetamol_lattice_molecules(n, n, n)
    return assemble(sphere_of_molecules(mols, radius_angstrom))

