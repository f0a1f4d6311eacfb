"""Integral engine validation: literature values, symmetries, quadrature,
RI factorization quality, and finite-difference derivative checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import BasisSet, auto_auxiliary
from repro.gemm import sym_inv_sqrt
from repro.integrals import (
    contract_eri2c_deriv,
    contract_eri3c_deriv,
    contract_hcore_deriv,
    contract_overlap_deriv,
    eri2c,
    eri3c,
    eri4c,
    hcore,
    kinetic,
    nuclear,
    overlap,
)


@pytest.fixture(scope="module")
def h2_basis(h2):
    return BasisSet.build(h2, "sto-3g")


class TestSzaboReference:
    """The classic H2/STO-3G numbers from Szabo & Ostlund, Table 3.5 ff."""

    def test_overlap(self, h2, h2_basis):
        S = overlap(h2_basis)
        assert S[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert S[0, 1] == pytest.approx(0.6593, abs=2e-4)

    def test_kinetic(self, h2, h2_basis):
        T = kinetic(h2_basis)
        assert T[0, 0] == pytest.approx(0.7600, abs=2e-4)
        assert T[0, 1] == pytest.approx(0.2365, abs=2e-4)

    def test_nuclear(self, h2, h2_basis):
        V = nuclear(h2_basis, h2)
        assert V[0, 0] == pytest.approx(-1.8804, abs=3e-4)
        assert V[0, 1] == pytest.approx(-1.1948, abs=3e-4)

    def test_eri(self, h2, h2_basis):
        E = eri4c(h2_basis)
        assert E[0, 0, 0, 0] == pytest.approx(0.7746, abs=2e-4)
        assert E[0, 0, 1, 1] == pytest.approx(0.5697, abs=2e-4)
        assert E[0, 1, 0, 1] == pytest.approx(0.2970, abs=2e-4)
        assert E[0, 0, 0, 1] == pytest.approx(0.4441, abs=2e-4)


class TestMatrixProperties:
    @pytest.fixture(scope="class")
    def wbasis(self, water):
        return BasisSet.build(water, "sto-3g")

    def test_overlap_normalized_diagonal(self, wbasis):
        S = overlap(wbasis)
        np.testing.assert_allclose(np.diag(S), 1.0, atol=1e-10)

    def test_overlap_symmetric_pd(self, wbasis):
        S = overlap(wbasis)
        np.testing.assert_allclose(S, S.T, atol=1e-13)
        assert np.linalg.eigvalsh(S).min() > 0

    def test_kinetic_symmetric_positive(self, wbasis):
        T = kinetic(wbasis)
        np.testing.assert_allclose(T, T.T, atol=1e-13)
        assert np.linalg.eigvalsh(T).min() > 0

    def test_nuclear_symmetric_negative_diagonal(self, water, wbasis):
        V = nuclear(wbasis, water)
        np.testing.assert_allclose(V, V.T, atol=1e-12)
        assert np.all(np.diag(V) < 0)

    def test_eri_eightfold_symmetry(self, water):
        bs = BasisSet.build(water, "sto-3g")
        E = eri4c(bs)
        np.testing.assert_allclose(E, E.transpose(1, 0, 2, 3), atol=1e-11)
        np.testing.assert_allclose(E, E.transpose(0, 1, 3, 2), atol=1e-11)
        np.testing.assert_allclose(E, E.transpose(2, 3, 0, 1), atol=1e-11)

    def test_eri_positivity(self, water):
        # (mn|mn) diagonal of the supermatrix must be non-negative.
        bs = BasisSet.build(water, "sto-3g")
        E = eri4c(bs)
        n = bs.nbf
        sup = E.reshape(n * n, n * n)
        assert np.diag(sup).min() > -1e-12

    def test_metric_positive_definite(self, water):
        aux = auto_auxiliary(water, "sto-3g")
        J = eri2c(aux)
        np.testing.assert_allclose(J, J.T, atol=1e-11)
        assert np.linalg.eigvalsh(J).min() > 0

    def test_eri3c_bra_symmetry(self, water):
        bs = BasisSet.build(water, "sto-3g")
        aux = auto_auxiliary(water, "sto-3g")
        T3 = eri3c(bs, aux)
        np.testing.assert_allclose(T3, T3.transpose(1, 0, 2), atol=1e-11)


class TestRIFactorization:
    def test_ri_reproduces_4center(self, water):
        bs = BasisSet.build(water, "sto-3g")
        aux = auto_auxiliary(water, "sto-3g")
        T3 = eri3c(bs, aux)
        J = eri2c(aux)
        B = np.einsum("mnP,PQ->mnQ", T3, sym_inv_sqrt(J))
        approx = np.einsum("mnP,lsP->mnls", B, B)
        exact = eri4c(bs)
        assert np.abs(approx - exact).max() < 2e-3
        # and the RI approximation underestimates the supermatrix diagonal
        n = bs.nbf
        diag_err = np.diag((exact - approx).reshape(n * n, n * n))
        assert diag_err.min() > -1e-10  # RI error is positive semidefinite


class TestDerivatives:
    def test_overlap_deriv_fd(self, water_distorted):
        mol = water_distorted
        bs = BasisSet.build(mol, "sto-3g")
        rng = np.random.default_rng(3)
        X = rng.standard_normal((bs.nbf, bs.nbf))
        X = X + X.T
        g = contract_overlap_deriv(bs, X)
        h = 1e-5
        for a, x in [(0, 1), (1, 0), (2, 2)]:
            cp = mol.coords.copy()
            cp[a, x] += h
            cm = mol.coords.copy()
            cm[a, x] -= h
            fd = (
                overlap(BasisSet.build(mol.with_coords(cp), "sto-3g"))
                - overlap(BasisSet.build(mol.with_coords(cm), "sto-3g"))
            ) / (2 * h)
            assert g[a, x] == pytest.approx(float((fd * X).sum()), abs=1e-9)

    def test_overlap_translation_invariance(self, water):
        bs = BasisSet.build(water, "sto-3g")
        X = np.random.default_rng(4).standard_normal((bs.nbf, bs.nbf))
        g = contract_overlap_deriv(bs, X + X.T)
        # rigid translation leaves S unchanged: sum over atoms vanishes
        np.testing.assert_allclose(g.sum(axis=0), 0.0, atol=1e-12)

    def test_hcore_deriv_fd(self, water_distorted):
        mol = water_distorted
        bs = BasisSet.build(mol, "sto-3g")
        rng = np.random.default_rng(7)
        X = rng.standard_normal((bs.nbf, bs.nbf))
        X = X + X.T
        g = contract_hcore_deriv(bs, mol, X)
        h = 1e-5
        for a, x in [(0, 0), (1, 2), (2, 1)]:
            cp = mol.coords.copy()
            cp[a, x] += h
            cm = mol.coords.copy()
            cm[a, x] -= h
            mp, mm = mol.with_coords(cp), mol.with_coords(cm)
            fd = float(
                (
                    (hcore(BasisSet.build(mp, "sto-3g"), mp)
                     - hcore(BasisSet.build(mm, "sto-3g"), mm))
                    / (2 * h)
                    * X
                ).sum()
            )
            assert g[a, x] == pytest.approx(fd, abs=5e-8)

    def test_eri3c_deriv_fd(self, water_distorted):
        mol = water_distorted
        bs = BasisSet.build(mol, "sto-3g")
        aux = auto_auxiliary(mol, "sto-3g")
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
        g = contract_eri3c_deriv(bs, aux, Z, mol.natoms)
        h = 1e-5
        for a, x in [(0, 2), (2, 0)]:
            cp = mol.coords.copy()
            cp[a, x] += h
            cm = mol.coords.copy()
            cm[a, x] -= h
            mp, mm = mol.with_coords(cp), mol.with_coords(cm)
            Tp = eri3c(BasisSet.build(mp, "sto-3g"), auto_auxiliary(mp, "sto-3g"))
            Tm = eri3c(BasisSet.build(mm, "sto-3g"), auto_auxiliary(mm, "sto-3g"))
            fd = float(((Tp - Tm) / (2 * h) * Z).sum())
            assert g[a, x] == pytest.approx(fd, abs=5e-8)

    def test_eri2c_deriv_fd(self, water_distorted):
        mol = water_distorted
        aux = auto_auxiliary(mol, "sto-3g")
        rng = np.random.default_rng(5)
        zeta = rng.standard_normal((aux.nbf, aux.nbf))
        g = contract_eri2c_deriv(aux, zeta, mol.natoms)
        h = 1e-5
        for a, x in [(0, 1), (1, 1)]:
            cp = mol.coords.copy()
            cp[a, x] += h
            cm = mol.coords.copy()
            cm[a, x] -= h
            Jp = eri2c(auto_auxiliary(mol.with_coords(cp), "sto-3g"))
            Jm = eri2c(auto_auxiliary(mol.with_coords(cm), "sto-3g"))
            fd = float(((Jp - Jm) / (2 * h) * zeta).sum())
            assert g[a, x] == pytest.approx(fd, abs=5e-8)

    def test_deriv_contractions_translation_invariance(self, water):
        bs = BasisSet.build(water, "sto-3g")
        aux = auto_auxiliary(water, "sto-3g")
        rng = np.random.default_rng(11)
        Z = rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
        g = contract_eri3c_deriv(bs, aux, Z, water.natoms)
        np.testing.assert_allclose(g.sum(axis=0), 0.0, atol=1e-10)
        zeta = rng.standard_normal((aux.nbf, aux.nbf))
        g2 = contract_eri2c_deriv(aux, zeta, water.natoms)
        np.testing.assert_allclose(g2.sum(axis=0), 0.0, atol=1e-10)
        X = rng.standard_normal((bs.nbf, bs.nbf))
        gS = contract_overlap_deriv(bs, X + X.T)
        np.testing.assert_allclose(gS.sum(axis=0), 0.0, atol=1e-10)


class TestHigherAngularMomentum:
    def test_dzp_basis_selfoverlap(self, water):
        bs = BasisSet.build(water, "repro-dzp")
        assert bs.max_l == 2
        S = overlap(bs)
        np.testing.assert_allclose(np.diag(S), 1.0, atol=1e-10)
        np.testing.assert_allclose(S, S.T, atol=1e-12)
        assert np.linalg.eigvalsh(S).min() > 1e-6

    def test_d_function_kinetic_positive(self, water):
        bs = BasisSet.build(water, "repro-dzp")
        T = kinetic(bs)
        assert np.linalg.eigvalsh(T).min() > 0


class TestSchwarz:
    def test_bounds_hold(self, water):
        from repro.integrals import schwarz_pair_bounds

        bs = BasisSet.build(water, "sto-3g")
        Q = schwarz_pair_bounds(bs)
        E = eri4c(bs)
        # per-shell-pair max |(ab|cd)| <= Q_ab Q_cd
        offs = bs.offsets
        for i, sha in enumerate(bs.shells):
            si = slice(offs[i], offs[i] + sha.nfunc)
            for j, shb in enumerate(bs.shells):
                sj = slice(offs[j], offs[j] + shb.nfunc)
                for k, shc in enumerate(bs.shells):
                    sk = slice(offs[k], offs[k] + shc.nfunc)
                    for l, shd in enumerate(bs.shells):
                        sl = slice(offs[l], offs[l] + shd.nfunc)
                        blk = np.abs(E[si, sj, sk, sl]).max()
                        assert blk <= Q[i, j] * Q[k, l] * (1 + 1e-10)

    def test_screened_gradient_matches_unscreened(self, water_distorted):
        from repro.integrals import contract_eri4c_deriv_hf

        mol = water_distorted
        bs = BasisSet.build(mol, "sto-3g")
        rng = np.random.default_rng(2)
        D = rng.standard_normal((bs.nbf, bs.nbf))
        D = D + D.T
        g_screened = contract_eri4c_deriv_hf(bs, D, mol.natoms, screen=1e-11)
        g_exact = contract_eri4c_deriv_hf(bs, D, mol.natoms, screen=0.0)
        np.testing.assert_allclose(g_screened, g_exact, atol=1e-9)
