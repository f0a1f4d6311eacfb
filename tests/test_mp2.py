"""MP2 energies and the analytic RI-MP2 gradient."""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import BasisSet, Shell, auto_auxiliary
from repro.chem import Molecule
from repro.gemm import sym_inv_sqrt
from repro.integrals import (
    contract_eri2c_deriv,
    contract_eri3c_deriv,
    contract_hcore_deriv,
    contract_overlap_deriv,
    eri2c,
    eri3c,
)
from repro.mp2 import (
    apply_orbital_hessian,
    hessian_blocks,
    mo_tensors,
    mp2,
    mp2_conventional,
    mp2_correction_coefficients,
    mp2_ri,
    rimp2_gradient,
    rimp2_gradient_coefficients,
    solve_zvector,
)
from repro.mp2.mp2 import SCS_OS, SCS_SS
from repro.numerics import NumericalDivergenceError
from repro.scf import prepare_solves, rhf
from repro.scf.grad import ri_gradient_coefficients
from repro.scf.rhf import metric_inverse_factor
from repro.systems import glycine_chain, water_cluster

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
        Bmo, Bx = mo_tensors(res)
        nocc = res.nocc
        nvirt = Bmo.shape[0] - nocc
        rng = np.random.default_rng(0)
        theta = rng.standard_normal((nvirt, nocc))
        zd = solve_zvector(theta, Bmo, Bx, res.eps, nocc, dense_cutoff=10**9)
        zc = solve_zvector(theta, Bmo, Bx, res.eps, nocc, dense_cutoff=0)
        np.testing.assert_allclose(zd, zc, atol=1e-8)

    def test_operator_symmetric(self, water):
        res = rhf(water, "sto-3g", ri=True)
        Bmo, Bx = mo_tensors(res)
        nocc = res.nocc
        nvirt = Bmo.shape[0] - nocc
        rng = np.random.default_rng(1)
        u = rng.standard_normal((nvirt, nocc))
        v = rng.standard_normal((nvirt, nocc))
        blk = hessian_blocks(Bmo, Bx, res.eps, nocc)
        Au = apply_orbital_hessian(u, blk)
        Av = apply_orbital_hessian(v, blk)
        assert float(np.sum(v * Au)) == pytest.approx(float(np.sum(u * Av)), rel=1e-9)

    def test_solution_satisfies_equation(self, water):
        res = rhf(water, "sto-3g", ri=True)
        Bmo, Bx = mo_tensors(res)
        nocc = res.nocc
        nvirt = Bmo.shape[0] - nocc
        rng = np.random.default_rng(2)
        theta = rng.standard_normal((nvirt, nocc))
        z = solve_zvector(theta, Bmo, Bx, res.eps, nocc)
        np.testing.assert_allclose(
            apply_orbital_hessian(z, hessian_blocks(Bmo, Bx, res.eps, nocc)),
            theta, atol=1e-8
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

    def test_water_dzp_fd(self, water):
        """A polarised basis: its metric has eigenvalues below 1e-10 of
        the largest, which an eigenvalue-screened fit drops while the
        gradient formula assumes the exact ``J^{-1}`` (3.7e-7 Ha/bohr
        apart); the Cholesky fit keeps them and the two agree."""
        rng = np.random.default_rng(3)
        mol = water.with_coords(water.coords + rng.normal(scale=0.05, size=(3, 3)))
        ga = rimp2_gradient(rhf(mol, "repro-dzp", ri=True))
        gf = finite_difference_gradient(self._total("repro-dzp"), mol, h=1e-4)
        assert np.max(np.abs(ga - gf)) < 5e-8

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
            r.B, r.Linv = build_ri_tensors(r.basis, a)
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


FIT_BASES = ["sto-3g", "repro-dz", "repro-dzp", "repro-tz", "repro-tzp"]


def _fit_molecule(name: str, request) -> Molecule:
    if name == "water":
        return request.getfixturevalue("water")
    return water_cluster(3, seed=1) if name == "water3" else glycine_chain(1)


class TestRIFit:
    """The RI fit is one Cholesky factor of the metric, unscreened."""

    @pytest.mark.parametrize("basis", FIT_BASES)
    @pytest.mark.parametrize("name", ["water", "water3", "glycine"])
    def test_metric_factor_every_basis(self, basis, name, request):
        J = eri2c([auto_auxiliary(_fit_molecule(name, request), basis)])[0]
        Linv = metric_inverse_factor(J)
        assert np.array_equal(Linv, np.tril(Linv))
        # L^{-1} J L^{-T} = 1 up to a backward-stable factor's error,
        # eps * cond(J) (cond reaches 3e11 here, glycine repro-tzp)
        w = np.linalg.eigvalsh(J)
        err = np.max(np.abs(Linv @ J @ Linv.T - np.eye(len(J))))
        assert err < 1e-15 * w[-1] / w[0]

    @pytest.mark.parametrize("basis", ["sto-3g", "repro-dz", "repro-tz"])
    @pytest.mark.parametrize("name", ["water", "water3"])
    def test_metric_fit_matches_eigen_screened(self, basis, name, request):
        """Where no metric eigenvalue lies below the old 1e-10 cutoff,
        the Cholesky and eigen-screened fits give one RI-MP2 energy."""
        mol = _fit_molecule(name, request)
        bs, aux = BasisSet.build(mol, basis), auto_auxiliary(mol, basis)
        J = eri2c([aux])[0]
        w = np.linalg.eigvalsh(J)
        assert w[0] > 1e-10 * w[-1]
        res = rhf(mol, basis, ri=True, aux=aux)
        memo = prepare_solves([mol], [bs], [aux])[0]
        T3 = eri3c(bs, aux)
        n = bs.nbf
        B = (T3.reshape(n * n, -1) @ sym_inv_sqrt(J)).reshape(T3.shape)
        memo["ri"] = (B, None, aux)
        eig = rhf(mol, basis, ri=True, aux=aux, solve_memo=memo)
        assert (res.energy + mp2_ri(res).e_corr) == pytest.approx(
            eig.energy + mp2_ri(eig).e_corr, abs=1e-9)

    @pytest.mark.parametrize("basis", FIT_BASES)
    @pytest.mark.parametrize("name", ["water", "water3", "glycine"])
    def test_metric_factor_residual_is_lapacks(self, basis, name, request):
        """``|L^{-1} J L^{-T} - 1|`` within 4x of LAPACK ``dpotrf`` +
        ``dtrtri`` (SciPy's, the reference only)."""
        from scipy.linalg.lapack import dpotrf, dtrtri

        J = eri2c([auto_auxiliary(_fit_molecule(name, request), basis)])[0]
        L, info = dpotrf(J, lower=1, clean=1)
        assert info == 0
        ref, info = dtrtri(L, lower=1)
        assert info == 0
        Linv, one = metric_inverse_factor(J), np.eye(len(J))
        err = np.max(np.abs(Linv @ J @ Linv.T - one))
        assert err <= 4.0 * np.max(np.abs(ref @ J @ ref.T - one))

    @pytest.mark.parametrize("nwater", [1, 2, 3])
    def test_stacked_factor_is_each_alone(self, nwater):
        """Workload A's metric sizes (63 / 126 / 189): a stack of three
        metrics gives each member's factor bitwise."""
        J = eri2c([auto_auxiliary(water_cluster(nwater, seed=s), "sto-3g")
                   for s in (1, 2, 3)])
        assert J[0].shape == (63 * nwater,) * 2
        stacked = metric_inverse_factor(np.stack(J))
        for Jf, got in zip(J, stacked):
            assert got.tobytes() == metric_inverse_factor(Jf).tobytes()

    def test_stacked_refusal_names_its_member(self):
        """Three fragments of one metric size, the middle one's made
        singular by a duplicated auxiliary function: the stacked fit
        names that fragment, not the stack's first."""
        mols, bases, auxs = [], [], []
        for key in range(3):
            mol = water_cluster(1, seed=key + 1)
            mol.frag_key = (key,)
            aux = auto_auxiliary(mol, "sto-3g")
            s0 = aux.shells[0]
            extra = s0 if key == 1 else Shell(
                s0.l, s0.center, 3.0 * s0.exps, s0.coefs, s0.atom)
            mols.append(mol)
            bases.append(BasisSet.build(mol, "sto-3g"))
            auxs.append(BasisSet(aux.shells + [extra]))
        with pytest.raises(NumericalDivergenceError) as err:
            prepare_solves(mols, bases, auxs)
        assert "fragment (1,)" in str(err.value)
        assert "(0,)" not in str(err.value) and "pivot" not in str(err.value)
        del mols[1], bases[1], auxs[1]
        assert len(prepare_solves(mols, bases, auxs)) == 2

    def test_metric_refused_names_fragment(self, water):
        """Two identical auxiliary shells on one atom: the Cholesky
        factor fails and the fit raises, naming the fragment."""
        aux = auto_auxiliary(water, "sto-3g")
        bad = BasisSet(aux.shells + [aux.shells[0]])
        mol = water.with_coords(water.coords)
        mol.frag_key = (4, 7)
        with pytest.raises(NumericalDivergenceError, match=r"\(4, 7\)"):
            rhf(mol, "sto-3g", ri=True, aux=bad)


def _reference_coefficients(res, method: str):
    """Einsum transcription of docs/THEORY.md §2-§5: the HF, separable
    and non-separable terms, each built on its own, as ``(X_h, Z3c,
    zeta, X_S)``."""
    ein = lambda *a: np.einsum(*a, optimize=True)  # noqa: E731
    B, D, Linv, eps, C = res.B, res.D, res.Linv, res.eps, res.C
    o = res.nocc
    Co, Cv = C[:, :o], C[:, o:]
    Y = ein("mnQ,QP->mnP", B, Linv)
    c = ein("mnP,mn->P", Y, D)
    # §2: RI-HF
    DYD = ein("ml,lsP,ns->mnP", D, Y, D)
    Z3c = D[:, :, None] * c[None, None, :] - 0.5 * DYD
    zeta = -0.5 * np.outer(c, c) + 0.25 * ein("mnP,mnQ->PQ", DYD, Y)
    W_hf = 2.0 * ein("mi,i,ni->mn", Co, eps[:o], Co)
    if method == "rihf":
        return D, Z3c, zeta, -W_hf
    c_os, c_ss = (SCS_OS, SCS_SS) if method == "scs" else (1.0, 1.0)
    # §3-4: amplitudes, unrelaxed densities, Lagrangian, Z-vector
    Bmo = ein("mnP,mp,nq->pqP", B, C, C)
    Bia = Bmo[:o, o:]
    ovov = ein("iaP,jbP->ijab", Bia, Bia)
    eo, ev = eps[:o], eps[o:]
    delta = (eo[:, None, None, None] + eo[None, :, None, None]
             - ev[None, None, :, None] - ev[None, None, None, :])
    t2 = ovov / delta
    theta = (c_os + c_ss) * t2 - c_ss * t2.transpose(0, 1, 3, 2)
    P0_oo = -ein("ikab,jkab->ij", theta, t2)
    P0_vv = ein("ijac,ijbc->ab", theta, t2)
    Gh = ein("ijab,jbP->iaP", theta, Bia)
    I1 = ein("paP,iaP->pi", Bmo[:, o:], Gh)
    I2 = ein("ipP,iaP->pa", Bmo[:o], Gh)

    def A_of(X):
        return (4.0 * ein("pqP,rsP,rs->pq", Bmo, Bmo, X)
                - ein("prP,qsP,rs->pq", Bmo, Bmo, X)
                - ein("psP,qrP,rs->pq", Bmo, Bmo, X))

    nmo = C.shape[1]
    P0 = np.zeros((nmo, nmo))
    P0[:o, :o], P0[o:, o:] = P0_oo, P0_vv
    AP0 = A_of(P0)
    theta_ai = 4.0 * I1[o:] - 4.0 * I2[:o].T + 2.0 * AP0[o:, :o]
    Bai, Bab, Bij = Bmo[o:, :o], Bmo[o:, o:], Bmo[:o, :o]
    H = (4.0 * ein("aiP,bjP->aibj", Bai, Bai) - ein("abP,ijP->aibj", Bab, Bij)
         - ein("ajP,ibP->aibj", Bai, Bai.transpose(1, 0, 2)))
    nv = nmo - o
    H = H.reshape(nv * o, nv * o) + np.diag((ev[:, None] - eo[None, :]).ravel())
    z = np.linalg.solve(H, theta_ai.ravel()).reshape(nv, o)
    # §5: Pc, SW, separable and non-separable terms
    Pc = np.zeros((nmo, nmo))
    Pc[:o, :o], Pc[o:, o:] = 2.0 * P0_oo, 2.0 * P0_vv
    Pc[o:, :o], Pc[:o, o:] = -0.5 * z, -0.5 * z.T
    Pc_ao = C @ Pc @ C.T
    Xz = np.zeros((nmo, nmo))
    Xz[o:, :o], Xz[:o, o:] = 0.5 * z, 0.5 * z.T
    Az = A_of(Xz)
    SW = np.zeros((nmo, nmo))
    SW[:o, :o] = (-(eo[:, None] + eo[None, :]) * P0_oo - AP0[:o, :o]
                  - 2.0 * I1[:o] + 0.5 * Az[:o, :o])
    SW[o:, o:] = -(ev[:, None] + ev[None, :]) * P0_vv - 2.0 * I2[o:]
    SW[:o, o:] = -4.0 * I2[:o]
    SW[o:, :o] = z * eo[None, :]
    cP = ein("mnP,mn->P", Y, Pc_ao)
    Z_sep = (Pc_ao[:, :, None] * c[None, None, :]
             + D[:, :, None] * cP[None, None, :]
             - ein("ml,lsP,ns->mnP", Pc_ao, Y, D))
    zeta_sep = -np.outer(cP, c) + 0.5 * ein("mnR,ml,ns,lsS->RS", Y, Pc_ao, D, Y)
    G = ein("iaQ,QP->iaP", Gh, Linv)
    g = ein("iaQ,QP->iaP", Bia, Linv)
    Z_ns = 4.0 * ein("mi,na,iaP->mnP", Co, Cv, G)
    zeta_ns = -2.0 * ein("iaR,iaS->RS", g, G)
    return (D + Pc_ao, Z3c + Z_sep + Z_ns, zeta + zeta_sep + zeta_ns,
            C @ SW @ C.T - W_hf)


class TestCoefficientIdentity:
    """The one-pass coefficients (``Y`` once, ``zeta = -1/2 sym(Y^T
    Z3c)``) against the term-by-term transcription of THEORY.md."""

    @staticmethod
    def _coefficients(res, method):
        if method == "rihf":
            return ri_gradient_coefficients(res)
        c_os, c_ss = (SCS_OS, SCS_SS) if method == "scs" else (1.0, 1.0)
        return rimp2_gradient_coefficients(res, c_os, c_ss)[0]

    @staticmethod
    def _gradient_parts(res, coefs):
        """Each derivative class's contribution, ``(natoms, 3)`` each:
        they cancel to a gradient ~1e3 times smaller than themselves,
        so each is compared on its own scale."""
        X, Z3c, zeta, W = (c[None] for c in coefs)
        mols, bases, auxs = [res.mol], [res.basis], [res.aux]
        natoms = [res.mol.natoms]
        return [contract_hcore_deriv(bases, mols, X)[0],
                contract_eri3c_deriv(bases, auxs, Z3c, natoms)[0],
                contract_eri2c_deriv(auxs, zeta, natoms)[0],
                contract_overlap_deriv(bases, W)[0]]

    @pytest.mark.parametrize("basis", ["sto-3g", "repro-dz"])
    @pytest.mark.parametrize("method", ["rihf", "mp2", "scs"])
    def test_identity_gradient(self, basis, method):
        res = rhf(water_cluster(2, seed=1), basis, ri=True)
        parts = self._gradient_parts(res, self._coefficients(res, method))
        ref = self._gradient_parts(res, _reference_coefficients(res, method))
        for g, g_ref in zip(parts, ref):
            assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))

    @pytest.mark.parametrize("method", ["rihf", "mp2"])
    def test_identity_zeta(self, method):
        res = rhf(water_cluster(2, seed=1), "sto-3g", ri=True)
        _, Z3c, zeta, _ = self._coefficients(res, method)
        n, _, naux = res.B.shape
        Y = res.B.reshape(n * n, naux) @ res.Linv
        YZ = Y.T @ Z3c.reshape(n * n, naux)
        np.testing.assert_allclose(zeta, -0.25 * (YZ + YZ.T),
                                   atol=1e-14 * np.max(np.abs(zeta)))
        cc = mp2_correction_coefficients(res)
        YZ = Y.T @ cc.Z3c.reshape(n * n, naux)
        np.testing.assert_allclose(cc.zeta, -0.25 * (YZ + YZ.T),
                                   atol=1e-14 * np.max(np.abs(cc.zeta)))
