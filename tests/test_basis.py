"""Basis-set construction, normalization, auxiliary generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import (
    BasisSet,
    Shell,
    auto_auxiliary,
    double_factorial,
    element_auxiliary_shells,
    element_shells,
    primitive_norm,
)
from repro.integrals import overlap


class TestShell:
    def test_contracted_normalization_s(self):
        sh = Shell(0, np.zeros(3), np.array([3.0, 0.5]), np.array([0.4, 0.6]))
        bs = BasisSet([sh])
        S = overlap(bs)
        assert S[0, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_every_component_normalized(self, l):
        sh = Shell(l, np.zeros(3), np.array([1.3, 0.3]), np.array([0.7, 0.5]))
        bs = BasisSet([sh])
        S = overlap(bs)
        np.testing.assert_allclose(np.diag(S), 1.0, atol=1e-11)

    def test_exps_coefs_length_mismatch(self):
        with pytest.raises(ValueError):
            Shell(0, np.zeros(3), np.array([1.0, 2.0]), np.array([1.0]))

    def test_at_relocates(self):
        sh = Shell(1, np.zeros(3), np.array([1.0]), np.array([1.0]))
        moved = sh.at(np.array([1.0, 2.0, 3.0]), atom=5)
        np.testing.assert_allclose(moved.center, [1, 2, 3])
        assert moved.atom == 5
        assert moved.l == 1

    def test_normalization_memoised_per_signature(self):
        """Equal ``(l, exps, coefs)`` share one read-only normalised
        pair; a different contraction or momentum gets its own."""
        exps, coefs = [1.3, 0.3], [0.7, 0.5]
        a = Shell(1, np.zeros(3), exps, coefs)
        b = Shell(1, np.ones(3), np.array(exps), np.array(coefs), atom=2)
        assert a.coefs is b.coefs and a.comp_norms is b.comp_norms
        assert not a.coefs.flags.writeable and not a.comp_norms.flags.writeable
        assert not np.array_equal(Shell(1, np.zeros(3), exps, [0.7, 0.6]).coefs, a.coefs)
        assert not np.array_equal(Shell(0, np.zeros(3), exps, coefs).coefs, a.coefs)

    def test_double_factorial(self):
        assert double_factorial(-1) == 1.0
        assert double_factorial(0) == 1.0
        assert double_factorial(5) == 15.0
        assert double_factorial(6) == 48.0

    def test_primitive_norm_normalizes_gaussian(self):
        # <g|g> = 1 for normalized s primitive: closed form check
        a = 0.8
        N = primitive_norm(a, 0)
        self_overlap = N * N * (np.pi / (2 * a)) ** 1.5
        assert self_overlap == pytest.approx(1.0, rel=1e-12)


class TestBasisData:
    def test_sto3g_counts(self):
        assert len(element_shells("H", "sto-3g")) == 1
        assert len(element_shells("C", "sto-3g")) == 3  # 1s, 2s, 2p

    def test_dz_counts(self):
        # H: two s; C: 1s + 2x(2s,2p)
        assert len(element_shells("H", "repro-dz")) == 2
        assert len(element_shells("C", "repro-dz")) == 5

    def test_dzp_adds_polarization(self):
        sh_h = element_shells("H", "repro-dzp")
        assert any(l == 1 for l, _, _ in sh_h)
        sh_c = element_shells("C", "repro-dzp")
        assert any(l == 2 for l, _, _ in sh_c)

    def test_unknown_basis_raises(self):
        with pytest.raises(KeyError):
            element_shells("C", "cc-pvqz")

    def test_unknown_element_raises(self):
        with pytest.raises(KeyError):
            element_shells("Fe", "sto-3g")


class TestBasisSet:
    def test_water_sto3g_size(self, water):
        bs = BasisSet.build(water, "sto-3g")
        assert bs.nbf == 7  # O: 1s 2s 2p(3) + 2 H
        assert bs.nshells == 5

    def test_water_dz_size(self, water):
        bs = BasisSet.build(water, "repro-dz")
        assert bs.nbf == 9 + 2 + 2  # O: 1+2+6, H: 2 each

    def test_function_atoms(self, water):
        bs = BasisSet.build(water, "sto-3g")
        atoms = bs.function_atoms()
        assert atoms.tolist() == [0, 0, 0, 0, 0, 1, 2]

    def test_offsets_consistent(self, water):
        bs = BasisSet.build(water, "repro-dzp")
        total = sum(sh.nfunc for sh in bs.shells)
        assert total == bs.nbf
        assert bs.offsets[0] == 0
        for i in range(1, bs.nshells):
            assert bs.offsets[i] == bs.offsets[i - 1] + bs.shells[i - 1].nfunc


class TestAuxiliary:
    def test_covers_product_momentum(self):
        shells = element_auxiliary_shells("C", "sto-3g")
        ls = {l for l, _ in shells}
        assert max(ls) == 2  # p x p products need d fitting functions

    def test_exponent_range_covers_products(self):
        shells = element_auxiliary_shells("O", "sto-3g")
        s_exps = [e for l, e in shells if l == 0]
        prim = element_shells("O", "sto-3g")
        max_prim = max(max(exps) for _, exps, _ in prim)
        min_prim = min(min(exps) for _, exps, _ in prim)
        assert max(s_exps) >= 2 * max_prim / 2.5  # within one ladder rung
        assert min(s_exps) <= 2 * min_prim * 1.0001

    def test_all_single_primitive(self, water):
        aux = auto_auxiliary(water, "sto-3g")
        assert all(sh.nprim == 1 for sh in aux.shells)

    def test_aux_larger_than_primary(self, water):
        bs = BasisSet.build(water, "sto-3g")
        aux = auto_auxiliary(water, "sto-3g")
        assert aux.nbf > bs.nbf

    def test_beta_controls_size(self, water):
        small = auto_auxiliary(water, "sto-3g", beta=3.5)
        big = auto_auxiliary(water, "sto-3g", beta=1.8)
        assert big.nbf > small.nbf


class TestTripleZeta:
    def test_counts(self):
        assert len(element_shells("H", "repro-tz")) == 3
        assert len(element_shells("C", "repro-tz")) == 7  # 1s + 3x(2s,2p)

    def test_tzp_polarization(self):
        assert any(l == 2 for l, _, _ in element_shells("O", "repro-tzp"))
        assert any(l == 1 for l, _, _ in element_shells("H", "repro-tzp"))

    def test_variational_ladder(self, water):
        from repro.scf import rhf

        e_dz = rhf(water, "repro-dz", ri=True).energy
        e_tz = rhf(water, "repro-tz", ri=True).energy
        assert e_tz < e_dz
