"""Boys function evaluation.

The Boys function

    F_m(T) = \\int_0^1 t^{2m} exp(-T t^2) dt

is the radial kernel of all Coulomb-type Gaussian integrals. Two
independent implementations live here:

* `boys_table` — the runtime one. Top order: a 7-term Taylor expansion
  about the nearest node of a uniform grid on ``[0, 36]``, or beyond it
  the asymptotic ``F_0`` and the *upward* recursion (stable there: the
  subtracted ``exp(-T)`` is tiny); lower orders by the stable downward
  recursion. <= 3e-15 relative against 50-digit references.
* `boys` / `boys_array` — the scalar one of `hermite.r_table`, and a
  cross-check of the table: power series below ``T = 1``, regularized
  incomplete gamma function above, same downward recursion (<= 2e-14).
  No kernel calls it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_SQRT_PI_OVER_2 = 0.5 * np.sqrt(np.pi)

#: highest order `boys_table` serves: d shells with an l = 4 fitting
#: basis reach 9 in the derivative drivers, f shells would reach 13
MAX_ORDER = 16
_NTERMS = 7  # Taylor terms: remainder <= (1/64)^7 / 7! = 4.5e-17 relative
_TMAX = 36.0  # end of the grid
_PER_UNIT = 32  # grid nodes per unit of T


def _series(m: int, T, nterms: int):
    """``exp(T) F_m(T) = sum_i (2T)^i / ((2m+1)(2m+3)...(2m+2i+1))``,
    scalar or array. Every term is positive, so nothing cancels; the
    terms needed grow like ``T`` (24 reach 1e-17 for ``T < 1``)."""
    term = total = 1.0 / (2 * m + 1)
    for i in range(1, nterms):
        term = term * (2.0 * T) / (2 * m + 2 * i + 1)
        total = total + term
    return total


def boys(mmax: int, T: float) -> np.ndarray:
    """Return ``[F_0(T), ..., F_mmax(T)]`` for a scalar ``T >= 0``.

    Top order from `_series` below ``T = 1`` and from the regularized
    lower incomplete gamma function above (which below it would be off
    by up to 7e-14 relative at ``m = 12``), then downward recursion::

        F_{m-1}(T) = (2 T F_m(T) + exp(-T)) / (2 m - 1)
    """
    from scipy.special import gamma, gammainc

    T = float(T)
    out = np.empty(mmax + 1)
    expT = np.exp(-T)
    if T < 1.0:
        out[mmax] = expT * _series(mmax, T, 24)
    else:  # F_m(T) = gamma(m+1/2) * P(m+1/2, T) / (2 T^{m+1/2})
        a = mmax + 0.5
        out[mmax] = gamma(a) * gammainc(a, T) / (2.0 * T**a)
    for k in range(mmax, 0, -1):
        out[k - 1] = (2.0 * T * out[k] + expT) / (2 * k - 1)
    return out


def boys_array(mmax: int, T: np.ndarray) -> np.ndarray:
    """Vectorized `boys`: shape ``(len(T), mmax+1)``."""
    from scipy.special import gamma, gammainc

    T = np.atleast_1d(np.asarray(T, dtype=float))
    out = np.empty((T.shape[0], mmax + 1))
    a = mmax + 0.5
    expT = np.exp(-np.minimum(T, 700.0))
    Tsafe = np.maximum(T, 1.0)
    top = gamma(a) * gammainc(a, Tsafe) / (2.0 * Tsafe**a)
    out[:, mmax] = np.where(T < 1.0, expT * _series(mmax, np.minimum(T, 1.0), 24), top)
    for k in range(mmax, 0, -1):
        out[:, k - 1] = (2.0 * T * out[:, k] + expT) / (2 * k - 1)
    return out


@lru_cache(maxsize=None)
def _taylor_cols(mmax: int) -> np.ndarray:
    """Taylor coefficients ``F_{mmax+k}(T_i) / k!`` of the top order at
    every grid node, column-major ``(7, nodes)`` (65 KB): one contiguous
    row per coefficient, so the Horner step ``k`` is one ``take`` from
    it. Built on first use, in extended precision where the platform
    has it — order ``mmax + 6`` from `_series`, the rest by downward
    recursion — and rounded once."""
    T = np.arange(int(_TMAX) * _PER_UNIT + 1, dtype=np.longdouble) / _PER_UNIT
    expT = np.exp(-T)
    cols = [expT * _series(mmax + _NTERMS - 1, T, 128)]
    for k in range(mmax + _NTERMS - 1, mmax, -1):
        cols.append((2.0 * T * cols[-1] + expT) / (2 * k - 1))
    fact = [math.factorial(k) for k in range(_NTERMS)]
    table = np.ascontiguousarray(
        (np.stack(cols[::-1], axis=1) / fact).T, dtype=float
    )
    table.setflags(write=False)
    return table


def _taylor_top(mmax: int, T):
    """The top order on the grid (``T <= 36``): 7-term Horner about the
    nearest node."""
    node = np.rint(T * _PER_UNIT)
    d = node * (1.0 / _PER_UNIT) - T  # -(T - T_i): the series alternates
    node = node.astype(np.intp)
    cols = _taylor_cols(mmax)
    top = cols[_NTERMS - 1].take(node)
    for k in range(_NTERMS - 2, -1, -1):
        top *= d
        top += cols[k].take(node)
    return top


def _asymptotic_top(mmax: int, T, expT):
    """The top order past the grid (``T > 36``): ``F_0 = sqrt(pi/T)/2``
    and the upward recursion, stable there."""
    half_inv = 0.5 / T
    up = _SQRT_PI_OVER_2 / np.sqrt(T)
    for m in range(1, mmax + 1):
        up = ((2 * m - 1) * up - expT) * half_inv
    return up


def boys_table(mmax: int, T):
    """``F_0 .. F_mmax`` of a batch, order-major ``(mmax+1, n)``.

    Each branch of the top order is evaluated only where it is used;
    the downward recursion writes its rows in place. Elementwise along
    the batch axis: an element's values are bitwise independent of its
    batch.
    """
    if not 0 <= mmax <= MAX_ORDER:
        raise ValueError(f"Boys order {mmax} outside the table's 0..{MAX_ORDER}")
    out = np.empty((mmax + 1, T.shape[0]))
    expT = np.exp(-T)
    far = T > _TMAX
    if not far.any():
        out[mmax] = _taylor_top(mmax, T)
    elif far.all():
        out[mmax] = _asymptotic_top(mmax, T, expT)
    else:  # integer indices: a random boolean mask gathers slowly
        near, far = np.flatnonzero(~far), np.flatnonzero(far)
        top = out[mmax]
        top[near] = _taylor_top(mmax, T.take(near))
        top[far] = _asymptotic_top(mmax, T.take(far), expT.take(far))
    T2 = T + T
    for k in range(mmax, 0, -1):
        row = out[k - 1]
        np.multiply(T2, out[k], out=row)
        row += expT
        row *= 1.0 / (2 * k - 1)
    return out
