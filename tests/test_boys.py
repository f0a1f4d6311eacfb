"""Boys function: reference values, recursions, vectorized consistency."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import repro.integrals.engine as engine
from repro.integrals.boys import (
    _NTERMS,
    _SQRT_PI_OVER_2,
    MAX_ORDER,
    _PER_UNIT,
    _TMAX,
    _taylor_cols,
    boys,
    boys_array,
    boys_table,
)

try:
    import mpmath
except ImportError:  # pragma: no cover - env dependent
    mpmath = None


def boys_quadrature(m: int, T: float) -> float:
    val, _ = quad(lambda t: t ** (2 * m) * np.exp(-T * t * t), 0.0, 1.0, limit=200)
    return val


def boys_reference(mmax: int, Ts) -> np.ndarray:
    """``F_0 .. F_mmax`` order-major, rounded from 50-digit `mpmath`
    (top order from 1F1, exact downward recursion)."""
    out = np.empty((mmax + 1, len(Ts)))
    with mpmath.workdps(50):
        for j, T in enumerate(Ts):
            T = mpmath.mpf(float(T))
            F = mpmath.hyp1f1(mmax + 0.5, mmax + 1.5, -T) / (2 * mmax + 1)
            expT = mpmath.exp(-T)
            out[mmax, j] = float(F)
            for k in range(mmax, 0, -1):
                F = (2 * T * F + expT) / (2 * k - 1)
                out[k - 1, j] = float(F)
    return out


def boys_gauss_legendre(mmax: int, Ts, panels: int = 16, npts: int = 32) -> np.ndarray:
    """The same table from a composite fixed-order Gauss-Legendre rule
    on ``[0, 1]`` — the fallback reference where `mpmath` is not
    installed. A double precision sum: good to ~3e-15 while a panel
    resolves the integrand's ``1/sqrt(T)`` width (``T <~ 1e4``)."""
    x, w = np.polynomial.legendre.leggauss(npts)
    t = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).ravel()
    g = np.tile(0.5 * w / panels, panels) * np.exp(-np.asarray(Ts)[:, None] * t * t)
    return np.array([g @ t ** (2 * m) for m in range(mmax + 1)])


def _ulp_neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.abs(np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]))


def _two_branch(mmax: int, T) -> np.ndarray:
    """`boys_table` as one formula over the whole batch: both branches
    of the top order evaluated everywhere (each clamped to stay finite
    where it is not used), one selected per element, and the downward
    recursion out of place."""
    cols = _taylor_cols(mmax)
    Tc = np.minimum(T, _TMAX)
    node = np.rint(Tc * _PER_UNIT)
    d = node * (1.0 / _PER_UNIT) - Tc
    c = cols[:, node.astype(int)]
    top = c[_NTERMS - 1]
    for k in range(_NTERMS - 2, -1, -1):
        top = top * d + c[k]
    expT = np.exp(-T)
    Ta = np.maximum(T, _TMAX)
    half_inv = 0.5 / Ta
    up = _SQRT_PI_OVER_2 / np.sqrt(Ta)
    for m in range(1, mmax + 1):
        up = ((2 * m - 1) * up - expT) * half_inv
    rows = [None] * (mmax + 1)
    rows[mmax] = np.where(T > _TMAX, up, top)
    T2 = T + T
    for k in range(mmax, 0, -1):
        rows[k - 1] = (T2 * rows[k] + expT) * (1.0 / (2 * k - 1))
    return np.stack(rows)


def _accuracy_set():
    """The arguments the table is judged on: zero, tiny, every grid
    node and cell edge and the table/asymptotic switch each +-1 ulp,
    a uniform sample across the grid and past it, and large ``T``
    through ``exp(-T)`` underflow."""
    nodes = np.arange(int(_TMAX) * _PER_UNIT + 1) / _PER_UNIT
    edges = (np.arange(int(_TMAX) * _PER_UNIT) + 0.5) / _PER_UNIT
    return np.concatenate([
        [0.0],
        np.logspace(-16, -3, 120),
        _ulp_neighbours(nodes),
        _ulp_neighbours(edges),
        np.random.default_rng(7).uniform(0.0, 40.0, 10_000),
        _ulp_neighbours([_TMAX]),
        [1e2, 700.5, 1e3, 5e3],
    ])


class TestBoysTable:
    """The runtime Boys on its own, against an independent high-precision
    reference — before any integral test sees it, because the loop
    reference it is cross-checked with at 1e-12 cannot see 1e-14."""

    @pytest.fixture(scope="class")
    def reference(self):
        Ts = _accuracy_set()
        if mpmath is not None:
            return Ts, boys_reference(MAX_ORDER, Ts)
        return Ts, boys_gauss_legendre(MAX_ORDER, Ts)  # pragma: no cover

    def test_accuracy_every_order(self, reference):
        Ts, ref = reference
        for mmax in range(MAX_ORDER + 1):
            F = boys_table(mmax, Ts)
            assert F.shape == (mmax + 1, Ts.shape[0])
            err = np.abs(F / ref[: mmax + 1] - 1.0)
            assert err.max() <= 1e-14, (mmax, Ts[err.argmax() % Ts.shape[0]])

    def test_fallback_reference_agrees(self):
        """The quadrature fallback is itself good enough to judge with."""
        Ts = np.array([0.0, 1e-7, 0.3, 7.77, 35.99, 36.01, 120.0, 1e3, 5e3])
        F = boys_table(MAX_ORDER, Ts)
        np.testing.assert_allclose(F, boys_gauss_legendre(MAX_ORDER, Ts), rtol=1e-14)

    def test_reference_functions_deliver_their_tolerance(self, reference):
        """`boys` / `boys_array` (series below T = 1, incomplete gamma
        above) are good to 2e-14 — looser than the table they check."""
        Ts, ref = reference
        for mmax in (0, 5, 12, MAX_ORDER):
            F = boys_array(mmax, Ts).T
            assert np.abs(F / ref[: mmax + 1] - 1.0).max() <= 2e-14
        for j in range(0, Ts.shape[0], 97):
            np.testing.assert_allclose(boys(12, Ts[j]), ref[:13, j], rtol=2e-14)

    def test_branches_where_used_are_the_two_branch_formula(self):
        """Evaluating each branch of the top order only where it is
        used, and the recursion in place, changes no bit: ``T`` across
        ``[0, 60]``, every grid node, exactly 36 and its neighbours, in
        mixed, all-grid and all-asymptotic batches."""
        nodes = np.arange(int(_TMAX) * _PER_UNIT + 1) / _PER_UNIT
        T = np.concatenate([
            np.random.default_rng(3).uniform(0.0, 60.0, 4000),
            nodes, _ulp_neighbours([_TMAX]), [0.0, 60.0],
        ])
        assert (T == _TMAX).any()
        for mmax in range(MAX_ORDER + 1):
            for batch in (T, T[T <= _TMAX], T[T > _TMAX]):
                assert boys_table(mmax, batch).tobytes() == (
                    _two_branch(mmax, batch).tobytes())

    def test_order_above_table_rejected(self):
        with pytest.raises(ValueError, match=f"0..{MAX_ORDER}"):
            boys_table(MAX_ORDER + 1, np.array([1.0]))
        with pytest.raises(ValueError, match="outside"):
            engine.r_tables_simplex(MAX_ORDER + 1, np.ones(1), np.ones((1, 3)))

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=MAX_ORDER),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_row_independent_of_batch(self, Ts, mmax, data):
        """Elementwise along the batch axis: a ``T`` gets the same bits
        alone, in any batch, and under any R-table chunking."""
        Ts = np.array(Ts)
        i = data.draw(st.integers(min_value=0, max_value=len(Ts) - 1))
        F = boys_table(mmax, Ts)
        assert np.array_equal(F[:, i], boys_table(mmax, Ts[i : i + 1])[:, 0])
        lmax = min(mmax, 4)
        Tr = np.resize(Ts, 150)  # past the 64-element chunk floor
        p = 0.5 + Tr % 3.0
        PQ = np.sqrt(Tr / p)[:, None] * np.array([0.6, 0.0, 0.8])
        whole = engine.r_tables_simplex(lmax, p, PQ)
        saved = engine._R_SCRATCH_BYTES
        try:
            engine._R_SCRATCH_BYTES = data.draw(st.sampled_from([1, 1 << 12, 1 << 16]))
            split = engine.r_tables_simplex(lmax, p, PQ)
        finally:
            engine._R_SCRATCH_BYTES = saved
        assert np.array_equal(whole, split)


class TestBoysValues:
    def test_zero_argument(self):
        F = boys(6, 0.0)
        for m in range(7):
            assert F[m] == pytest.approx(1.0 / (2 * m + 1), rel=1e-14)

    def test_f0_closed_form(self):
        # F_0(T) = sqrt(pi/T)/2 * erf(sqrt(T))
        from scipy.special import erf

        for T in (0.1, 1.0, 5.0, 20.0, 40.0, 100.0):
            ref = 0.5 * np.sqrt(np.pi / T) * erf(np.sqrt(T))
            assert boys(0, T)[0] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("T", [1e-8, 1e-3, 0.5, 3.0, 12.0, 34.9, 35.1, 80.0])
    @pytest.mark.parametrize("m", [0, 1, 3, 6])
    def test_against_quadrature(self, m, T):
        assert boys(m, T)[m] == pytest.approx(boys_quadrature(m, T), rel=1e-9, abs=1e-15)

    def test_downward_recursion_consistency(self):
        # F_{m-1} = (2T F_m + e^{-T}) / (2m - 1)
        T = 4.7
        F = boys(8, T)
        for m in range(8, 0, -1):
            lhs = F[m - 1]
            rhs = (2 * T * F[m] + np.exp(-T)) / (2 * m - 1)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_decreasing_in_m(self):
        F = boys(10, 2.5)
        assert np.all(np.diff(F) < 0)

    def test_monotone_decreasing_in_T(self):
        Ts = np.linspace(0.0, 50.0, 200)
        vals = np.array([boys(0, T)[0] for T in Ts])
        assert np.all(np.diff(vals) < 0)


class TestBoysArray:
    def test_matches_scalar(self):
        Ts = np.array([0.0, 1e-10, 0.3, 2.0, 17.0, 35.5, 200.0])
        arr = boys_array(5, Ts)
        for i, T in enumerate(Ts):
            ref = boys(5, float(T))
            np.testing.assert_allclose(arr[i], ref, rtol=1e-11, atol=1e-300)

    @given(st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=80, deadline=None)
    def test_property_positive_and_bounded(self, T):
        F = boys_array(4, np.array([T]))[0]
        assert np.all(F > 0)
        assert np.all(F <= 1.0 + 1e-12)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=300.0), min_size=1, max_size=20)
    )
    @settings(max_examples=40, deadline=None)
    def test_property_batch_equals_scalar(self, Ts):
        Ts = np.array(Ts)
        arr = boys_array(3, Ts)
        for i, T in enumerate(Ts):
            np.testing.assert_allclose(arr[i], boys(3, float(T)), rtol=1e-10)
