"""One kernel family: the independent integral reference, and the
conventional-HF four-centre drivers checked against it.

`tests/integral_reference.py` is checked first against what does not
come from this code base — the Szabo-Ostlund H2 numbers, ``mpmath``'s
Boys function, finite differences of its own integrals — and then
serves as the oracle of `repro.integrals.eri4c` and
`contract_eri4c_deriv_hf` (the batched drivers of `tests/test_batch.py`
use it the same way).
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from repro.basis import BasisSet, Shell
from repro.calculators import ConventionalHFCalculator
from repro.integrals import (
    ERI4C_SCREEN,
    IntegralWorkspace,
    contract_eri4c_deriv_hf,
    eri4c,
)
from repro.scf import rhf
from repro.scf.grad import rhf_gradient_conventional
from repro.systems import urea_molecule

from . import integral_reference as ref


def _sym(n, seed):
    X = np.random.default_rng(seed).standard_normal((n, n))
    return X + X.T


def _d_basis() -> BasisSet:
    """Ten functions on two atoms, a d shell among them: the smallest
    basis that puts every momentum up to 2 into a four-centre block."""
    A, B = np.array([0.0, 0.1, 0.0]), np.array([0.3, -0.2, 1.5])
    return BasisSet([
        Shell(2, A, np.array([0.9]), np.array([1.0]), atom=0),
        Shell(0, B, np.array([3.0, 0.5]), np.array([0.4, 0.7]), atom=1),
        Shell(1, B, np.array([0.6]), np.array([1.0]), atom=1),
    ])


class TestReference:
    """The reference against sources outside this code base."""

    def test_boys_matches_mpmath(self):
        mpmath.mp.dps = 40
        Ts = np.array([0.0, 1e-12, 1e-3, 0.5, 1.0, 7.5, 30.0, 36.5, 80.0])
        F = ref.boys(8, Ts)
        for m in range(9):
            for T, got in zip(Ts, F[m]):
                want = (mpmath.mpf(1) / (2 * m + 1) if T == 0.0 else
                        mpmath.gammainc(m + 0.5, 0, T) / (2 * mpmath.mpf(T) ** (m + 0.5)))
                assert got == pytest.approx(float(want), rel=1e-13)

    def test_szabo_h2(self, h2):
        """Szabo & Ostlund, Table 3.5 ff."""
        bs = BasisSet.build(h2, "sto-3g")
        S, T, V = ref.overlap(bs), ref.kinetic(bs), ref.nuclear(bs, h2)
        assert S[0, 1] == pytest.approx(0.6593, abs=2e-4)
        assert T[0, 0] == pytest.approx(0.7600, abs=2e-4)
        assert T[0, 1] == pytest.approx(0.2365, abs=2e-4)
        assert V[0, 0] == pytest.approx(-1.8804, abs=3e-4)
        assert V[0, 1] == pytest.approx(-1.1948, abs=3e-4)
        E = ref.eri4c(bs)
        assert E[0, 0, 0, 0] == pytest.approx(0.7746, abs=2e-4)
        assert E[0, 0, 1, 1] == pytest.approx(0.5697, abs=2e-4)
        assert E[0, 1, 0, 1] == pytest.approx(0.2970, abs=2e-4)
        assert E[0, 0, 0, 1] == pytest.approx(0.4441, abs=2e-4)

    def test_derivative_identity_matches_differences(self, water_distorted):
        """The Gaussian derivative identity against central differences
        of the reference's own integrals."""
        mol = water_distorted
        bs = BasisSet.build(mol, "sto-3g")
        X = _sym(bs.nbf, seed=1)
        g = ref.contract_kinetic_deriv(bs, mol.natoms, X)
        h = 1e-5
        for a, x in [(0, 1), (2, 2)]:
            vals = []
            for step in (h, -h):
                coords = mol.coords.copy()
                coords[a, x] += step
                vals.append((ref.kinetic(BasisSet.build(
                    mol.with_coords(coords), "sto-3g")) * X).sum())
            assert g[a, x] == pytest.approx((vals[0] - vals[1]) / (2 * h),
                                            abs=1e-8)


class TestFourCentre:
    @pytest.mark.parametrize("case", ["water", "d-shell"])
    def test_eri4c_matches_reference(self, water, case):
        bs = (BasisSet.build(water, "sto-3g") if case == "water"
              else _d_basis())
        want = ref.eri4c(bs)
        np.testing.assert_allclose(eri4c(bs), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("case", ["water", "d-shell"])
    def test_gradient_matches_reference(self, water_distorted, case):
        """The d-shell case runs the tables up to order 9 and the
        phase-reversed kernel of the swapped blocks."""
        if case == "water":
            bs, natoms = BasisSet.build(water_distorted, "sto-3g"), 3
        else:
            bs, natoms = _d_basis(), 2
        D = _sym(bs.nbf, seed=2)
        got = contract_eri4c_deriv_hf(bs, D, natoms, screen=0.0)
        want = ref.contract_eri4c_deriv_hf(bs, D, natoms)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(want).max()))
        # every block's four centres are differentiated: the sum is zero
        np.testing.assert_allclose(got.sum(axis=0), 0.0, atol=1e-11)

    @pytest.mark.parametrize("screen", [ERI4C_SCREEN, 1e-8])
    def test_screened_within_recorded_bound(self, screen):
        """Urea's converged density: the screened gradient is the exact
        one to within the neglected bound it records."""
        mol = urea_molecule()
        res = rhf(mol, "sto-3g", ri=False)
        exact = contract_eri4c_deriv_hf(res.basis, res.D, mol.natoms,
                                        screen=0.0)
        ws = IntegralWorkspace()
        got = contract_eri4c_deriv_hf(res.basis, res.D, mol.natoms,
                                      screen=screen, workspace=ws)
        # the unit is a canonical block of shell quartets off one atom
        atoms = [sh.atom for sh in res.basis.shells]
        nsh = len(atoms)
        pairs = [(i, j) for i in range(nsh) for j in range(i, nsh)]
        assert ws.pairs_total == sum(
            len({atoms[s] for s in (*p, *q)}) > 1
            for x, p in enumerate(pairs) for q in pairs[x:])
        assert ws.pairs_skipped > 0
        assert np.abs(got - exact).max() <= ws.neglected_bound
        # a block is dropped whole: translation invariance holds exactly
        np.testing.assert_allclose(got.sum(axis=0), 0.0, atol=1e-12)

    def test_one_default_threshold(self):
        """The calculator, the gradient and the driver share one
        default, a plain float."""
        import inspect

        assert ConventionalHFCalculator().int_screen == ERI4C_SCREEN
        for fn, name in ((rhf_gradient_conventional, "int_screen"),
                         (contract_eri4c_deriv_hf, "screen")):
            default = inspect.signature(fn).parameters[name].default
            assert type(default) is float and default == ERI4C_SCREEN
