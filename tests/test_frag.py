"""Fragmentation and MBE: coefficient identities, cap exactness, cutoffs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calculators import PairwisePotentialCalculator, RIMP2Calculator
from repro.chem import Molecule
from repro.constants import BOHR_PER_ANGSTROM
from repro.frag import (
    FragmentedSystem,
    build_plan,
    determine_cutoffs,
    dimer_contributions,
    enumerate_dimers,
    enumerate_trimers,
    mbe_energy,
    mbe_energy_gradient,
)
from repro.frag.monomer import CapBond, FragmentLayout
from repro.systems import (
    fibril_fragmented,
    glycine_fragmented,
    water_cluster,
    water_monomer,
)

BIG = 1.0e6  # cutoff larger than any system here


@pytest.fixture(scope="module")
def w4():
    mol = water_cluster(4, seed=3)
    return FragmentedSystem.by_components(mol)


class TestFragmentedSystem:
    def test_by_components(self, w4):
        assert w4.nmonomers == 4
        for m in w4.monomers:
            assert len(m.atoms) == 3
            assert not m.caps

    def test_atom_coverage_enforced(self):
        mol = water_cluster(2, seed=0)
        from repro.frag.monomer import Monomer

        with pytest.raises(ValueError, match="not assigned"):
            FragmentedSystem(mol, [Monomer(0, (0, 1, 2))])
        with pytest.raises(ValueError, match="two monomers"):
            FragmentedSystem(
                mol, [Monomer(0, tuple(range(6))), Monomer(1, (5,))]
            )

    def test_group_size(self):
        mol = water_cluster(6, seed=1)
        fs = FragmentedSystem.by_components(mol, group_size=2)
        assert fs.nmonomers == 3
        assert all(len(m.atoms) == 6 for m in fs.monomers)

    def test_centroids_shape(self, w4):
        assert w4.centroids().shape == (4, 3)

    def test_fragment_molecule_dimer(self, w4):
        mol, atoms, caps = w4.fragment_molecule((0, 2))
        assert mol.natoms == 6
        assert not caps
        assert atoms == sorted(
            list(w4.monomers[0].atoms) + list(w4.monomers[2].atoms)
        )

    def test_caps_added_for_broken_bonds(self):
        fs = glycine_fragmented(3)
        mol, atoms, caps = fs.fragment_molecule((1,))
        assert len(caps) == 2  # middle residue: both peptide bonds broken
        assert mol.natoms == len(atoms) + 2
        assert mol.symbols[-1] == "H" and mol.symbols[-2] == "H"

    def test_caps_vanish_inside_polymer(self):
        fs = glycine_fragmented(3)
        _, _, caps01 = fs.fragment_molecule((0, 1))
        assert len(caps01) == 1  # only the bond to residue 2 remains broken
        _, _, caps012 = fs.fragment_molecule((0, 1, 2))
        assert len(caps012) == 0


GLY4 = glycine_fragmented(4)


class TestFragmentLayout:
    """`FragmentLayout` against the per-atom loops it replaced, kept
    here as the straight-line reference: same bytes, not same digits."""

    @staticmethod
    def _reference_coords(atoms, caps, c):
        rows = [c[a] for a in atoms]
        for cap in caps:
            rows.append(c[cap.inner] + cap.ratio * (c[cap.outer] - c[cap.inner]))
        return np.array(rows)

    @staticmethod
    def _reference_scatter(grad_frag, atoms, caps, out, scale):
        nreal = len(atoms)
        for k, a in enumerate(atoms):
            out[a] += scale * grad_frag[k]
        for k, cap in enumerate(caps):
            gc = grad_frag[nreal + k]
            out[cap.inner] += scale * (1.0 - cap.ratio) * gc
            out[cap.outer] += scale * cap.ratio * gc

    def _check(self, lay, parent, rng, scale):
        atoms, caps = lay.atoms.tolist(), list(lay.caps)
        coords = parent.coords + 0.2 * rng.standard_normal(parent.coords.shape)
        mol = lay.molecule(coords)
        assert mol.coords.tobytes() == self._reference_coords(atoms, caps, coords).tobytes()
        assert mol.symbols == (*(parent.symbols[a] for a in atoms), *"H" * len(caps))
        assert mol.frag_key == lay.key
        grad = rng.standard_normal((mol.natoms, 3))
        start = rng.standard_normal(parent.coords.shape)
        ref = start.copy()
        self._reference_scatter(grad, atoms, caps, ref, scale)
        out = start.copy()
        lay.scatter(grad, out, scale)
        assert out.tobytes() == ref.tobytes()
        return mol, grad, start, ref

    @given(
        key=st.lists(st.integers(0, GLY4.nmonomers - 1), min_size=1,
                     max_size=3, unique=True).map(tuple),
        scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_system_layouts_match_per_atom_reference(self, key, scale, seed):
        """Random monomer subsets of a capped chain (non-adjacent
        residues keep the caps between them), in any key order."""
        lay = GLY4.layout(key)
        assert lay.charge == sum(GLY4.monomers[m].charge for m in key)
        mol, grad, start, ref = self._check(
            lay, GLY4.parent, np.random.default_rng(seed), scale)
        # the kept signatures are wrappers over the same implementation
        whole, atoms, caps = GLY4.fragment_molecule(key)
        assert (atoms, caps) == (lay.atoms.tolist(), list(lay.caps))
        assert whole.coords.tobytes() == self._reference_coords(
            atoms, caps, GLY4.parent.coords).tobytes()
        assert whole.symbols == mol.symbols
        out = start.copy()
        GLY4.layout(key).scatter(grad, out, scale)
        assert out.tobytes() == ref.tobytes()

    @given(data=st.data(), scale=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_shared_cap_atoms_accumulate_in_loop_order(self, data, scale, seed):
        """Cap sets no system produces but the scatter must still get
        right: one atom is ``inner`` of one cap and ``outer`` of another
        (and a real atom besides), so three terms land on its row and
        their order decides the last bit."""
        parent = GLY4.parent
        idx = st.integers(0, parent.natoms - 1)
        atoms = sorted(data.draw(st.sets(idx, min_size=2, max_size=12)))
        ratio = st.floats(0.3, 0.9)
        shared = data.draw(st.sampled_from(atoms))
        caps = [
            CapBond(data.draw(st.sampled_from(atoms)), data.draw(idx), data.draw(ratio))
            for _ in range(data.draw(st.integers(0, 3)))
        ]
        caps.insert(
            data.draw(st.integers(0, len(caps))),
            CapBond(shared, data.draw(idx), data.draw(ratio)),
        )
        caps.insert(
            data.draw(st.integers(0, len(caps))),
            CapBond(data.draw(st.sampled_from(atoms)), shared, data.draw(ratio)),
        )
        lay = FragmentLayout((0,), atoms, caps, parent.symbols)
        self._check(lay, parent, np.random.default_rng(seed), scale)

    def test_one_gather_for_many_is_each_alone(self):
        """`FragmentLayout.molecules` over every fragment of a capped
        fibril's plan, at two steps' coordinates: each fragment is byte
        for byte the per-atom reference's and its own layout's, with
        its symbols, charge and key."""
        fs = fibril_fragmented(2, 3)
        keys = build_plan(fs, 8.0 * BOHR_PER_ANGSTROM, 5.0 * BOHR_PER_ANGSTROM,
                          order=3).fragments
        layouts = [fs.layout(key) for key in keys]
        assert sum(len(lay.caps) for lay in layouts) > len(layouts)
        rng = np.random.default_rng(4)
        for step in range(2):
            coords = fs.parent.coords + 0.1 * step * rng.standard_normal(
                fs.parent.coords.shape)
            for lay, mol in zip(layouts, FragmentLayout.molecules(layouts, coords)):
                alone = lay.molecule(coords)
                ref = self._reference_coords(lay.atoms.tolist(), lay.caps, coords)
                assert mol.coords.tobytes() == alone.coords.tobytes() == ref.tobytes()
                assert (mol.symbols, mol.charge, mol.frag_key) == (
                    alone.symbols, alone.charge, lay.key)

    def test_layouts_are_not_kept_on_the_system(self):
        """Scratch is not state: a layout belongs to whoever asked."""
        before = set(vars(GLY4))
        assert GLY4.layout((0, 1)) is not GLY4.layout((0, 1))
        assert set(vars(GLY4)) == before


class TestEnumeration:
    def test_dimers_all_within_big_cutoff(self, w4):
        assert len(enumerate_dimers(w4, BIG)) == 6

    def test_trimers_all_within_big_cutoff(self, w4):
        assert len(enumerate_trimers(w4, BIG)) == 4

    def test_cutoff_excludes(self, w4):
        d = enumerate_dimers(w4, 0.1)
        assert d == []

    def test_trimer_requires_all_pairs(self):
        # three collinear waters at 0, 5, 10 Angstrom: only consecutive
        # pairs within 6 A, so no trimer at cutoff 6.
        w = water_monomer()
        mol = Molecule.concatenate(
            [w, w.translated([5 * BOHR_PER_ANGSTROM, 0, 0]),
             w.translated([10 * BOHR_PER_ANGSTROM, 0, 0])]
        )
        fs = FragmentedSystem.by_components(mol)
        assert len(enumerate_dimers(fs, 6 * BOHR_PER_ANGSTROM)) == 2
        assert enumerate_trimers(fs, 6 * BOHR_PER_ANGSTROM) == []
        assert len(enumerate_trimers(fs, 11 * BOHR_PER_ANGSTROM)) == 1


class TestCoefficients:
    def test_full_mbe3_coefficients_collapse(self, w4):
        """With every polymer included on n=3 monomers, MBE3 telescopes to
        the single full-system calculation."""
        mol = water_cluster(3, seed=5)
        fs = FragmentedSystem.by_components(mol)
        plan = build_plan(fs, BIG, BIG, order=3)
        nonzero = {k: c for k, c in plan.coefficients.items() if abs(c) > 1e-12}
        assert nonzero == {(0, 1, 2): 1.0}

    def test_mbe2_coefficients(self, w4):
        plan = build_plan(w4, BIG, order=2)
        # each monomer appears in 3 dimers: coefficient 1 - 3 = -2
        for m in range(4):
            assert plan.coefficients[(m,)] == pytest.approx(-2.0)
        for d in plan.dimers:
            assert plan.coefficients[d] == pytest.approx(1.0)

    def test_trimer_coefficient_always_one(self, w4):
        plan = build_plan(w4, BIG, BIG, order=3)
        for t in plan.trimers:
            assert plan.coefficients[t] == pytest.approx(1.0)

    def test_invalid_order(self, w4):
        with pytest.raises(ValueError):
            build_plan(w4, BIG, order=4)
        with pytest.raises(ValueError, match="trimer cutoff"):
            build_plan(w4, BIG, order=3)


class TestMBEExactness:
    """Sharp identities: MBE2 is exact for pairwise potentials, MBE3 for
    pairwise + three-body, and MBE-n on n monomers is exact for any
    calculator (including across H-caps)."""

    def test_mbe2_exact_for_pairwise_potential(self):
        mol = water_cluster(5, seed=7)
        fs = FragmentedSystem.by_components(mol)
        calc = PairwisePotentialCalculator()
        e_full, g_full = calc.energy_gradient(mol)
        plan = build_plan(fs, BIG, order=2)
        e, g = mbe_energy_gradient(fs, plan, calc)
        assert e == pytest.approx(e_full, abs=1e-10)
        np.testing.assert_allclose(g, g_full, atol=1e-10)

    def test_mbe3_exact_for_three_body_potential(self):
        mol = water_cluster(4, seed=9)
        fs = FragmentedSystem.by_components(mol)
        calc = PairwisePotentialCalculator(at_strength=5.0)
        e_full, g_full = calc.energy_gradient(mol)
        e2 = mbe_energy(fs, build_plan(fs, BIG, order=2), calc)
        e3, g3 = mbe_energy_gradient(fs, build_plan(fs, BIG, BIG, order=3), calc)
        assert abs(e2 - e_full) > 1e-9  # MBE2 misses 3-body
        assert e3 == pytest.approx(e_full, abs=1e-8)
        np.testing.assert_allclose(g3, g_full, atol=5e-6)

    def test_mbe2_exact_two_capped_monomers(self):
        """Gly2 split across the peptide bond: the monomer terms cancel and
        MBE2 returns exactly the unfragmented QM result, caps and all."""
        fs = glycine_fragmented(2)
        calc = RIMP2Calculator(basis="sto-3g")
        e_full, g_full = calc.energy_gradient(fs.parent)
        plan = build_plan(fs, BIG, order=2)
        e, g = mbe_energy_gradient(fs, plan, calc)
        assert e == pytest.approx(e_full, abs=1e-8)
        np.testing.assert_allclose(g, g_full, atol=1e-7)

    def test_mbe_truncation_error_decays(self):
        """MBE2 error decreases as the dimer cutoff grows (pairwise pot.,
        so the only error is cutoff truncation)."""
        mol = water_cluster(6, seed=11)
        fs = FragmentedSystem.by_components(mol)
        calc = PairwisePotentialCalculator()
        e_full, _ = calc.energy_gradient(mol)
        errs = []
        for r_ang in (3.5, 5.0, 8.0, 30.0):
            plan = build_plan(fs, r_ang * BOHR_PER_ANGSTROM, order=2)
            errs.append(abs(mbe_energy(fs, plan, calc) - e_full))
        assert errs[0] > errs[-1]
        assert errs[-1] < 1e-10


class TestCapGradientChaining:
    def test_cap_gradient_fd(self):
        """The full MBE1 (monomers-only) gradient must match finite
        differences of the MBE1 energy — exercising the cap chain rule."""
        fs = glycine_fragmented(2)
        calc = PairwisePotentialCalculator()
        plan = build_plan(fs, 0.0, order=2)  # no dimers -> monomers only
        e0, g = mbe_energy_gradient(fs, plan, calc)
        h = 1e-5
        for a, x in [(5, 0), (7, 1), (0, 2)]:  # includes capped-bond atoms
            cp = fs.parent.coords.copy()
            cp[a, x] += h
            cm = fs.parent.coords.copy()
            cm[a, x] -= h
            ep = mbe_energy(fs, plan, calc, coords=cp)
            em = mbe_energy(fs, plan, calc, coords=cm)
            # gradients are huge (LJ at bonded distances), compare relatively
            assert g[a, x] == pytest.approx((ep - em) / (2 * h), rel=1e-6, abs=1e-8)


class TestCutoffDetermination:
    def test_dimer_contributions_decay(self):
        mol = water_cluster(8, seed=13)
        fs = FragmentedSystem.by_components(mol)
        calc = PairwisePotentialCalculator()
        curve = dimer_contributions(fs, calc, reference=0)
        assert len(curve.distances_angstrom) == 7
        # contributions decay with distance: farthest < closest
        i_near = np.argmin(curve.distances_angstrom)
        i_far = np.argmax(curve.distances_angstrom)
        assert (
            curve.abs_contributions_kjmol[i_far]
            < curve.abs_contributions_kjmol[i_near]
        )

    def test_cutoff_threshold(self):
        mol = water_cluster(8, seed=13)
        fs = FragmentedSystem.by_components(mol)
        calc = PairwisePotentialCalculator()
        curve = dimer_contributions(fs, calc, reference=0)
        r = curve.cutoff(threshold_kjmol=1e-9)
        assert r == pytest.approx(curve.distances_angstrom.max())
        assert curve.cutoff(threshold_kjmol=1e9) == 0.0

    def test_determine_cutoffs_runs(self):
        mol = water_cluster(5, seed=15)
        fs = FragmentedSystem.by_components(mol)
        calc = PairwisePotentialCalculator(at_strength=1.0)
        r_d, r_t, dc, tc = determine_cutoffs(
            fs, calc, reference=0, threshold_kjmol=1e-6, trimer_scan_angstrom=20.0
        )
        assert r_d > 0
        assert tc.kind == "trimer"
        assert len(tc.abs_contributions_kjmol) > 0


class TestByBlocks:
    def test_matches_by_components_for_lattice(self):
        from repro.systems import urea_cluster

        cl = urea_cluster(24)
        a = FragmentedSystem.by_components(cl, group_size=4)
        b = FragmentedSystem.by_blocks(cl, 8, group_size=4)
        assert [m.atoms for m in a.monomers] == [m.atoms for m in b.monomers]

    def test_rejects_indivisible(self):
        from repro.systems import water_cluster as wc

        mol = wc(2, seed=0)  # 6 atoms
        with pytest.raises(ValueError, match="divisible"):
            FragmentedSystem.by_blocks(mol, 4)

    def test_ungrouped_blocks(self):
        from repro.systems import water_cluster as wc

        mol = wc(3, seed=0)
        fs = FragmentedSystem.by_blocks(mol, 3)
        assert fs.nmonomers == 3
