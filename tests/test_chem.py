"""Molecule container, elements, geometry, bonds, xyz IO."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem import (
    Molecule,
    atomic_number,
    bond_graph,
    connected_components,
    covalent_radius,
    detect_bonds,
    element,
    format_xyz,
    pairwise_distances,
    parse_xyz,
    rotated,
    rotation_matrix,
)
from repro.constants import ANGSTROM_PER_BOHR, BOHR_PER_ANGSTROM


class TestElements:
    def test_lookup_by_symbol(self):
        assert element("C").number == 6
        assert element("c").number == 6

    def test_lookup_by_number(self):
        assert element(8).symbol == "O"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            element("Xx")
        with pytest.raises(KeyError):
            element(999)

    def test_atomic_number(self):
        assert atomic_number("N") == 7

    def test_covalent_radius_ordering(self):
        assert covalent_radius("H") < covalent_radius("C")


class TestMolecule:
    def test_electron_count(self, water):
        assert water.nelectrons == 10

    def test_charge_affects_electrons(self):
        mol = Molecule(["O"], [[0, 0, 0]], charge=-2)
        assert mol.nelectrons == 10

    def test_angstrom_roundtrip(self):
        mol = Molecule.from_angstrom(["H"], [[1.0, 0, 0]])
        assert mol.coords[0, 0] == pytest.approx(BOHR_PER_ANGSTROM)

    def test_nuclear_repulsion_h2(self, h2):
        assert h2.nuclear_repulsion() == pytest.approx(1.0 / 1.4)

    def test_nuclear_repulsion_gradient_fd(self, water_distorted):
        mol = water_distorted
        g = mol.nuclear_repulsion_gradient()
        h = 1e-6
        for a, x in [(0, 0), (1, 1), (2, 2)]:
            cp = mol.coords.copy()
            cp[a, x] += h
            cm = mol.coords.copy()
            cm[a, x] -= h
            fd = (
                mol.with_coords(cp).nuclear_repulsion()
                - mol.with_coords(cm).nuclear_repulsion()
            ) / (2 * h)
            assert g[a, x] == pytest.approx(fd, abs=1e-7)

    def test_concatenate(self, h2, water):
        dimer = Molecule.concatenate([h2, water])
        assert dimer.natoms == 5
        assert dimer.nelectrons == h2.nelectrons + water.nelectrons

    def test_concatenate_empty_raises(self):
        with pytest.raises(ValueError):
            Molecule.concatenate([])

    def test_translated(self, water):
        t = water.translated([1.0, 0.0, 0.0])
        np.testing.assert_allclose(t.coords - water.coords, [[1, 0, 0]] * 3)

    def test_formula_hill_order(self, water):
        assert water.formula() == "H2O"
        urea = Molecule(["C", "O", "N", "N", "H", "H", "H", "H"], np.zeros((8, 3)))
        assert urea.formula() == "CH4N2O"

    def test_masses(self, water):
        assert water.masses_amu[0] == pytest.approx(15.9994)

    def test_center_of_mass_near_oxygen(self, water):
        com = water.center_of_mass()
        d_o = np.linalg.norm(com - water.coords[0])
        d_h = np.linalg.norm(com - water.coords[1])
        assert d_o < d_h


class TestGeometry:
    def test_pairwise_distances(self):
        pts = np.array([[0, 0, 0], [3, 4, 0]], dtype=float)
        d = pairwise_distances(pts)
        assert d[0, 1] == pytest.approx(5.0)
        assert d[0, 0] == 0.0

    def test_rotation_matrix_orthogonal(self):
        R = rotation_matrix(np.array([1.0, 2.0, 3.0]), 0.7)
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)

    @given(st.floats(min_value=-np.pi, max_value=np.pi))
    @settings(max_examples=30, deadline=None)
    def test_property_rotation_preserves_distances(self, angle):
        mol = Molecule(["H", "H"], [[0, 0, 0], [0, 0, 1.4]])
        rot = rotated(mol, np.array([0.0, 1.0, 0.0]), angle)
        assert rot.distance(0, 1) == pytest.approx(1.4, abs=1e-10)


class TestBonds:
    def test_water_bonds(self, water):
        bonds = detect_bonds(water)
        assert sorted(bonds) == [(0, 1), (0, 2)]

    def test_separated_fragments(self, water):
        dimer = Molecule.concatenate([water, water.translated([20.0, 0, 0])])
        comps = connected_components(dimer)
        assert len(comps) == 2
        assert sorted(map(len, comps)) == [3, 3]

    def test_bond_graph_nodes(self, water):
        g = bond_graph(water)
        assert len(g) == 3
        assert sum(map(len, g)) == 4


class TestXYZ:
    def test_roundtrip(self, water):
        text = format_xyz(water, comment="test")
        back = parse_xyz(text)
        np.testing.assert_allclose(back.coords, water.coords, atol=1e-9)
        assert back.symbols == water.symbols

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_xyz("not an xyz file")
        with pytest.raises(ValueError):
            parse_xyz("2\ncomment\nH 0 0 0\n")  # missing atom

    def test_format_units_angstrom(self, h2):
        text = format_xyz(h2)
        z = float(text.splitlines()[3].split()[3])
        assert z == pytest.approx(1.4 * ANGSTROM_PER_BOHR)
