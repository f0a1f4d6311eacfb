"""MP2 energies and the analytic RI-MP2 gradient."""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import auto_auxiliary
from repro.chem import Molecule
from repro.mp2 import (
    apply_orbital_hessian,
    full_mo_b,
    mp2,
    mp2_conventional,
    mp2_correction_coefficients,
    mp2_ri,
    rimp2_gradient,
    solve_zvector,
)
from repro.scf import rhf

from .conftest import finite_difference_gradient


class TestMP2Energies:
    def test_h2_sto3g_value(self, h2):
        res = rhf(h2, "sto-3g", ri=False)
        m = mp2_conventional(res)
        # Known STO-3G H2 MP2 correlation at 1.4 Bohr
        assert m.e_corr == pytest.approx(-0.01316, abs=3e-4)

    def test_correlation_negative(self, water):
        res = rhf(water, "sto-3g", ri=True)
        assert mp2_ri(res).e_corr < 0

    def test_ri_close_to_conventional(self, water):
        rc = rhf(water, "sto-3g", ri=False)
        rr = rhf(water, "sto-3g", ri=True)
        ec = mp2_conventional(rc).e_corr
        er = mp2_ri(rr).e_corr
        assert abs(ec - er) < 5e-4

    def test_dispatch(self, h2):
        rc = rhf(h2, "sto-3g", ri=False)
        rr = rhf(h2, "sto-3g", ri=True)
        assert mp2(rc).t2 is not None
        assert mp2(rr).B_ia is not None

    def test_bigger_basis_more_correlation(self, water):
        e_min = mp2_ri(rhf(water, "sto-3g", ri=True)).e_corr
        e_dz = mp2_ri(rhf(water, "repro-dz", ri=True)).e_corr
        assert e_dz < e_min  # more virtuals -> more correlation energy

    def test_total_energy_property(self, h2):
        res = rhf(h2, "sto-3g", ri=True)
        m = mp2_ri(res)
        assert m.e_total == pytest.approx(res.energy + m.e_corr)

    def test_amplitude_symmetry(self, water):
        res = rhf(water, "sto-3g", ri=True)
        t2 = mp2_ri(res).t2
        # t_ij^ab = t_ji^ba
        np.testing.assert_allclose(t2, t2.transpose(1, 0, 3, 2), atol=1e-12)


class TestZVector:
    def test_dense_matches_cg(self, water):
        res = rhf(water, "sto-3g", ri=True)
        Bmo = full_mo_b(res)
        nocc = res.nocc
        nvirt = Bmo.shape[0] - nocc
        rng = np.random.default_rng(0)
        theta = rng.standard_normal((nvirt, nocc))
        zd = solve_zvector(theta, Bmo, res.eps, nocc, dense_cutoff=10**9)
        zc = solve_zvector(theta, Bmo, res.eps, nocc, dense_cutoff=0)
        np.testing.assert_allclose(zd, zc, atol=1e-8)

    def test_operator_symmetric(self, water):
        res = rhf(water, "sto-3g", ri=True)
        Bmo = full_mo_b(res)
        nocc = res.nocc
        nvirt = Bmo.shape[0] - nocc
        rng = np.random.default_rng(1)
        u = rng.standard_normal((nvirt, nocc))
        v = rng.standard_normal((nvirt, nocc))
        Au = apply_orbital_hessian(u, Bmo, res.eps, nocc)
        Av = apply_orbital_hessian(v, Bmo, res.eps, nocc)
        assert float(np.sum(v * Au)) == pytest.approx(float(np.sum(u * Av)), rel=1e-9)

    def test_solution_satisfies_equation(self, water):
        res = rhf(water, "sto-3g", ri=True)
        Bmo = full_mo_b(res)
        nocc = res.nocc
        nvirt = Bmo.shape[0] - nocc
        rng = np.random.default_rng(2)
        theta = rng.standard_normal((nvirt, nocc))
        z = solve_zvector(theta, Bmo, res.eps, nocc)
        np.testing.assert_allclose(
            apply_orbital_hessian(z, Bmo, res.eps, nocc), theta, atol=1e-8
        )

    def test_relaxed_density_hellmann_feynman(self, water):
        """dE_RI-MP2/d(lambda) under h -> h + lambda V equals
        Tr[(D + Pc) V] — the Z-vector response checked independently of
        the geometric gradient (the unrelaxed Tr[D V] misses by ~1e-3)."""
        aux = auto_auxiliary(water, "sto-3g")
        res = rhf(water, "sto-3g", ri=True, aux=aux)
        n = res.basis.nbf
        A = np.random.default_rng(7).standard_normal((n, n))
        V = 0.1 * (A + A.T) / 2
        lam = 1e-4

        def etot(scale):
            r = rhf(water, "sto-3g", ri=True, aux=aux, h_extra=scale * V)
            return r.energy + mp2_ri(r).e_corr

        fd = (etot(lam) - etot(-lam)) / (2 * lam)
        Pc = mp2_correction_coefficients(res).Pc_ao
        assert fd == pytest.approx(float(np.sum((res.D + Pc) * V)), abs=1e-8)


class TestRIMP2Gradient:
    def _total(self, basis):
        def fn(mol):
            r = rhf(mol, basis, ri=True)
            return r.energy + mp2_ri(r).e_corr

        return fn

    def test_h2_fd(self, h2_bent):
        res = rhf(h2_bent, "sto-3g", ri=True)
        ga = rimp2_gradient(res)
        gf = finite_difference_gradient(self._total("sto-3g"), h2_bent)
        np.testing.assert_allclose(ga, gf, atol=5e-7)

    def test_hehp_fd(self):
        mol = Molecule(["He", "H"], [[0, 0, 0], [0.1, 0, 1.4632]], charge=1)
        res = rhf(mol, "sto-3g", ri=True)
        ga = rimp2_gradient(res)
        gf = finite_difference_gradient(self._total("sto-3g"), mol)
        np.testing.assert_allclose(ga, gf, atol=5e-7)

    def test_water_sto3g_fd(self, water_distorted):
        res = rhf(water_distorted, "sto-3g", ri=True)
        ga = rimp2_gradient(res)
        gf = finite_difference_gradient(self._total("sto-3g"), water_distorted)
        np.testing.assert_allclose(ga, gf, atol=1e-6)

    @pytest.mark.slow
    def test_water_dz_fd(self, water_distorted):
        res = rhf(water_distorted, "repro-dz", ri=True)
        ga = rimp2_gradient(res)
        gf = finite_difference_gradient(self._total("repro-dz"), water_distorted)
        np.testing.assert_allclose(ga, gf, atol=1e-6)

    def test_translation_invariance(self, water_distorted):
        res = rhf(water_distorted, "sto-3g", ri=True)
        g = rimp2_gradient(res)
        np.testing.assert_allclose(g.sum(axis=0), 0.0, atol=1e-8)

    def test_intermediates_exposed(self, h2_bent):
        res = rhf(h2_bent, "sto-3g", ri=True)
        out = rimp2_gradient(res, return_intermediates=True)
        assert out.e_corr < 0
        assert out.z.shape == (res.nvirt, res.nocc)
        # unrelaxed occupied density is negative semidefinite
        assert np.linalg.eigvalsh(out.P0_oo).max() < 1e-10
        # unrelaxed virtual density is positive semidefinite
        assert np.linalg.eigvalsh(out.P0_vv).min() > -1e-10

    def test_requires_ri_reference(self, h2):
        res = rhf(h2, "sto-3g", ri=False)
        with pytest.raises(ValueError, match="RI"):
            rimp2_gradient(res)


class TestMixedGradient:
    """Conventional-HF + RI-MP2 (the Fig. 3 'without RI-HF' baseline)."""

    def test_fd_within_ri_accuracy(self, water_distorted):
        from repro.mp2 import rimp2_gradient_conventional_hf
        from repro.scf.rhf import build_ri_tensors

        mol = water_distorted
        aux = auto_auxiliary(mol, "sto-3g")
        res = rhf(mol, "sto-3g", ri=False)
        ga, e_corr = rimp2_gradient_conventional_hf(
            res, aux=aux, return_e_corr=True
        )
        assert e_corr < 0

        def etot(m):
            r = rhf(m, "sto-3g", ri=False)
            a = auto_auxiliary(m, "sto-3g")
            r.aux = a
            r.B, r.J2c, r.Jih = build_ri_tensors(r.basis, a)
            return r.energy + mp2_ri(r).e_corr

        gf = finite_difference_gradient(etot, mol)
        # exact to the RI-CPHF approximation (documented), ~1e-5 Ha/Bohr
        np.testing.assert_allclose(ga, gf, atol=1e-4)

    def test_rejects_ri_reference(self, water):
        from repro.mp2 import rimp2_gradient_conventional_hf

        res = rhf(water, "sto-3g", ri=True)
        with pytest.raises(ValueError, match="conventional"):
            rimp2_gradient_conventional_hf(res)

    def test_requires_aux(self, water):
        from repro.mp2 import rimp2_gradient_conventional_hf

        res = rhf(water, "sto-3g", ri=False)
        with pytest.raises(ValueError, match="auxiliary"):
            rimp2_gradient_conventional_hf(res)


class TestSCSMP2:
    """Spin-component-scaled MP2 (the paper's lattice-energy method)."""

    def test_scs_energy_differs(self, water):
        from repro.mp2.mp2 import SCS_OS, SCS_SS

        res = rhf(water, "sto-3g", ri=True)
        e_mp2 = mp2_ri(res).e_corr
        e_scs = mp2_ri(res, c_os=SCS_OS, c_ss=SCS_SS).e_corr
        assert e_scs != pytest.approx(e_mp2, abs=1e-6)
        assert e_scs < 0

    def test_unit_scaling_is_mp2(self, water):
        res = rhf(water, "sto-3g", ri=True)
        assert mp2_ri(res, 1.0, 1.0).e_corr == pytest.approx(
            mp2_ri(res).e_corr, abs=1e-12
        )

    def test_scs_gradient_fd(self, water_distorted):
        from repro.mp2.mp2 import SCS_OS, SCS_SS

        res = rhf(water_distorted, "sto-3g", ri=True)
        ga = rimp2_gradient(res, c_os=SCS_OS, c_ss=SCS_SS)

        def etot(m):
            r = rhf(m, "sto-3g", ri=True)
            return r.energy + mp2_ri(r, c_os=SCS_OS, c_ss=SCS_SS).e_corr

        gf = finite_difference_gradient(etot, water_distorted)
        np.testing.assert_allclose(ga, gf, atol=1e-6)
