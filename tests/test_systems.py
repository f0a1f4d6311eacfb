"""Benchmark system builders: composition, connectivity, packing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chem import connected_components, detect_bonds
from repro.chem.geometry import pairwise_distances
from repro.constants import ANGSTROM_PER_BOHR
from repro.systems import (
    abeta_like_fibril,
    fibril,
    fibril_fragmented,
    glycine_chain,
    glycine_fragmented,
    paracetamol_molecule,
    paracetamol_sphere,
    prp_like_fibril,
    radius_for_molecule_count,
    urea_cluster,
    urea_molecule,
    urea_sphere_molecule_count,
    water_cluster,
    water_dimer,
    water_monomer,
)


class TestWater:
    def test_monomer(self):
        w = water_monomer()
        assert w.formula() == "H2O"
        assert len(detect_bonds(w)) == 2

    def test_cluster_counts(self):
        for n in (1, 5, 17):
            c = water_cluster(n)
            assert c.natoms == 3 * n
            assert len(connected_components(c)) == n

    def test_cluster_deterministic(self):
        a = water_cluster(4, seed=3)
        b = water_cluster(4, seed=3)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_dimer_separation(self):
        d = water_dimer(3.5)
        assert len(connected_components(d)) == 2


class TestUrea:
    def test_molecule(self):
        u = urea_molecule()
        assert u.formula() == "CH4N2O"
        assert u.nelectrons == 32
        assert len(detect_bonds(u)) == 7

    def test_cluster_no_clash(self):
        cl = urea_cluster(12)
        comps = connected_components(cl)
        assert len(comps) == 12
        owner = np.empty(cl.natoms, int)
        for ci, c in enumerate(comps):
            owner[c] = ci
        d = pairwise_distances(cl.coords)
        inter = d[owner[:, None] != owner[None, :]]
        assert inter.min() * ANGSTROM_PER_BOHR > 1.5

    def test_molecule_count_roundtrip(self):
        r = radius_for_molecule_count(1000)
        assert urea_sphere_molecule_count(r) == pytest.approx(1000, rel=0.05)


class TestParacetamol:
    def test_molecule(self):
        p = paracetamol_molecule()
        assert p.formula() == "C8H9NO2"
        assert p.nelectrons == 80
        assert len(connected_components(p)) == 1
        assert len(detect_bonds(p)) == 20

    def test_cluster(self):
        """The lattice section holds whole molecules only."""
        c = paracetamol_sphere(8.0)
        parts = connected_components(c)
        assert len(parts) == 8 and all(len(part) == 20 for part in parts)


class TestGlycine:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_chain_connectivity(self, n):
        g = glycine_chain(n)
        assert len(connected_components(g)) == 1
        assert g.natoms == 7 * n + 3

    def test_chain_formula(self):
        # H-(NH-CH2-CO)n-OH: C2n H(3n+2) Nn O(n+1)
        g = glycine_chain(3)
        assert g.formula() == "C6H11N3O4"

    def test_fragmentation_even_electrons(self):
        fs = glycine_fragmented(4)
        for m in fs.monomers:
            mol, _, _ = fs.fragment_molecule((m.index,))
            assert mol.nelectrons % 2 == 0

    def test_one_peptide_bond_per_junction(self):
        fs = glycine_fragmented(4)
        caps = [len(m.caps) for m in fs.monomers]
        assert caps == [1, 2, 2, 1]

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            glycine_chain(0)


class TestFibril:
    def test_strand_stacking(self):
        f = fibril(nstrands=3, residues_per_strand=4)
        assert len(connected_components(f)) == 3

    def test_fragmented_monomer_sizes(self):
        fs = fibril_fragmented(2, 4)
        assert fs.nmonomers == 8
        sizes = []
        for m in fs.monomers:
            mol, _, _ = fs.fragment_molecule((m.index,))
            sizes.append(mol.natoms)
            assert mol.nelectrons % 2 == 0
        assert 7 <= min(sizes) and max(sizes) <= 16

    def test_prp_like_scale(self):
        """Paper 6PQ5: 360 atoms, 36 monomers, 7-14 atoms per monomer."""
        fs = prp_like_fibril()
        assert fs.nmonomers == 36
        assert 250 <= fs.parent.natoms <= 400

    def test_abeta_like_scale(self):
        """Paper 2BEG 4-strand: 1,496 atoms, ~5.5k electrons."""
        fs = abeta_like_fibril()
        assert 1300 <= fs.parent.natoms <= 1700
        assert 4500 <= fs.parent.nelectrons <= 6500
