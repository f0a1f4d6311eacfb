"""RHF: literature energies, RI-vs-conventional consistency, gradients."""

from __future__ import annotations
import numpy as np
import pytest
from repro.chem import Molecule
from repro.scf import SCFConvergenceError, rhf
from repro.scf.grad import rhf_gradient_conventional, rhf_gradient_ri
from .conftest import finite_difference_gradient


class TestRHFEnergies:
    def test_h2_szabo(self, h2):
        res = rhf(h2, "sto-3g", ri=False)
        assert res.converged
        assert res.energy == pytest.approx(-1.1167, abs=2e-4)

    def test_hehp_szabo(self, hehp):
        res = rhf(hehp, "sto-3g", ri=False)
        assert res.energy == pytest.approx(-2.8418, abs=5e-4)

    def test_water_sto3g_range(self, water):
        res = rhf(water, "sto-3g", ri=False)
        assert -75.1 < res.energy < -74.8

    def test_ri_close_to_conventional(self, water):
        rc = rhf(water, "sto-3g", ri=False)
        rr = rhf(water, "sto-3g", ri=True)
        assert abs(rr.energy - rc.energy) < 2e-3

    def test_dz_below_sto3g(self, water):
        e_min = rhf(water, "sto-3g", ri=True).energy
        e_dz = rhf(water, "repro-dz", ri=True).energy
        assert e_dz < e_min  # variational improvement

    def test_dzp_below_dz(self, water):
        e_dz = rhf(water, "repro-dz", ri=True).energy
        e_dzp = rhf(water, "repro-dzp", ri=True).energy
        assert e_dzp < e_dz

    def test_idempotent_density(self, water):
        res = rhf(water, "sto-3g", ri=True)
        # D S D = 2 D for occupation-2 density
        np.testing.assert_allclose(res.D @ res.S @ res.D, 2.0 * res.D, atol=1e-6)

    def test_electron_count(self, water):
        res = rhf(water, "sto-3g", ri=True)
        assert float(np.sum(res.D * res.S)) == pytest.approx(water.nelectrons, abs=1e-8)

    def test_odd_electron_rejected(self):
        mol = Molecule(["H"], [[0, 0, 0]])
        with pytest.raises(ValueError, match="even electron"):
            rhf(mol, "sto-3g")

    def test_charged_species(self, water):
        cation = Molecule(water.symbols, water.coords, charge=2)
        res = rhf(cation, "sto-3g", ri=True)
        assert res.converged
        assert res.nocc == (water.nelectrons - 2) // 2

    def test_virial_ratio_near_two(self, water):
        # -V/T should be close to 2 for a reasonable wavefunction
        from repro.integrals import kinetic

        res = rhf(water, "sto-3g", ri=False)
        T = float(np.sum(res.D * kinetic(res.basis)))
        V = res.energy - T
        assert -V / T == pytest.approx(2.0, abs=0.05)

    def test_no_diis_still_converges(self, h2):
        res = rhf(h2, "sto-3g", ri=True, use_diis=False)
        ref = rhf(h2, "sto-3g", ri=True)
        assert res.energy == pytest.approx(ref.energy, abs=1e-8)

    def test_level_shift_same_answer(self, water):
        ref = rhf(water, "sto-3g", ri=True)
        res = rhf(water, "sto-3g", ri=True, level_shift=0.3)
        assert res.energy == pytest.approx(ref.energy, abs=1e-7)

    def test_max_iter_raises(self, water):
        with pytest.raises(SCFConvergenceError):
            rhf(water, "sto-3g", ri=True, max_iter=1)

    def test_orbital_energies_ordered(self, water):
        res = rhf(water, "sto-3g", ri=True)
        assert np.all(np.diff(res.eps) > -1e-10)
        # HOMO below zero, aufbau gap positive
        assert res.eps[res.nocc - 1] < 0
        assert res.eps[res.nocc] > res.eps[res.nocc - 1]


class TestRHFGradients:
    def test_conventional_fd(self, water_distorted):
        res = rhf(water_distorted, "sto-3g", ri=False)
        ga = rhf_gradient_conventional(res)
        gf = finite_difference_gradient(
            lambda m: rhf(m, "sto-3g", ri=False).energy, water_distorted
        )
        np.testing.assert_allclose(ga, gf, atol=5e-7)

    def test_ri_fd(self, water_distorted):
        res = rhf(water_distorted, "sto-3g", ri=True)
        ga = rhf_gradient_ri(res)
        gf = finite_difference_gradient(
            lambda m: rhf(m, "sto-3g", ri=True).energy, water_distorted
        )
        np.testing.assert_allclose(ga, gf, atol=5e-7)

    def test_gradient_translation_invariance(self, water_distorted):
        res = rhf(water_distorted, "sto-3g", ri=True)
        g = rhf_gradient_ri(res)
        np.testing.assert_allclose(g.sum(axis=0), 0.0, atol=1e-8)

    def test_equilibrium_small_gradient_h2(self):
        # near STO-3G H2 equilibrium (~1.35 Bohr) gradient should flip sign
        e = {}
        for r in (1.2, 1.35, 1.6):
            mol = Molecule(["H", "H"], [[0, 0, 0], [0, 0, r]])
            res = rhf(mol, "sto-3g", ri=False)
            g = rhf_gradient_conventional(res)
            e[r] = g[1, 2]
        assert e[1.2] < 0 < e[1.6]


class TestSCFGuess:
    def test_gwh_same_energy_as_core(self, water):
        e_core = rhf(water, "sto-3g", ri=True, guess="core").energy
        e_gwh = rhf(water, "sto-3g", ri=True, guess="gwh").energy
        assert e_gwh == pytest.approx(e_core, abs=1e-10)

    def test_gwh_not_slower_on_bigger_fragments(self):
        from repro.systems import urea_molecule

        mol = urea_molecule()
        n_core = rhf(mol, "sto-3g", ri=True, guess="core").niter
        n_gwh = rhf(mol, "sto-3g", ri=True, guess="gwh").niter
        assert n_gwh <= n_core

    def test_unknown_guess_raises(self, water):
        with pytest.raises(ValueError, match="guess"):
            rhf(water, "sto-3g", ri=True, guess="sad")
