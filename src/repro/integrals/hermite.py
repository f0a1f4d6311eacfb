"""McMurchie-Davidson Hermite expansion machinery.

Two building blocks:

* ``e_table`` — Hermite expansion coefficients ``E_t^{ij}`` of a 1D
  Cartesian Gaussian product ``(x-A)^i (x-B)^j exp(-a(x-A)^2 - b(x-B)^2)``
  in Hermite Gaussians ``Lambda_t(x; p, P)``.
* ``r_table`` — Hermite Coulomb integrals ``R^0_{tuv}(p, PQ)`` built from
  the Boys function by the standard auxiliary-index recursion.

Both are the scalar, one-primitive spellings of the batched tables the
kernels use (`engine.e_tables_batch`, `engine.r_tables_simplex`), for
inspection and for the tests that check the batches against them; no
driver calls them. Plus the Cartesian component enumeration every
shell uses.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .boys import boys


def e_table(imax: int, jmax: int, Q: float, a: float, b: float) -> np.ndarray:
    """Hermite expansion coefficients for one Cartesian dimension.

    Args:
        imax, jmax: maximum powers on centers A and B.
        Q: ``A - B`` for this dimension.
        a, b: Gaussian exponents on A and B. ``b == 0`` reduces to the
            single-Gaussian expansion used for auxiliary (RI) functions.

    Returns:
        Array ``E`` of shape ``(imax+1, jmax+1, imax+jmax+1)`` where
        ``E[i, j, t]`` is ``E_t^{ij}``.
    """
    p = a + b
    q = a * b / p
    tmax = imax + jmax
    E = np.zeros((imax + 1, jmax + 1, tmax + 1))
    E[0, 0, 0] = np.exp(-q * Q * Q)
    Xpa = -(b / p) * Q  # P - A
    Xpb = (a / p) * Q  # P - B
    inv2p = 1.0 / (2.0 * p)
    for i in range(imax):
        for t in range(i + 1):
            val = Xpa * E[i, 0, t]
            if t > 0:
                val += inv2p * E[i, 0, t - 1]
            if t + 1 <= i:
                val += (t + 1) * E[i, 0, t + 1]
            E[i + 1, 0, t] = val
        E[i + 1, 0, i + 1] = inv2p * E[i, 0, i]
    for i in range(imax + 1):
        for j in range(jmax):
            for t in range(i + j + 1):
                val = Xpb * E[i, j, t]
                if t > 0:
                    val += inv2p * E[i, j, t - 1]
                if t + 1 <= i + j:
                    val += (t + 1) * E[i, j, t + 1]
                E[i, j + 1, t] = val
            E[i, j + 1, i + j + 1] = inv2p * E[i, j, i + j]
    return E


def r_table(tmax: int, umax: int, vmax: int, p: float, PQ: np.ndarray) -> np.ndarray:
    """Hermite Coulomb integrals ``R^0_{tuv}``.

    Args:
        tmax, umax, vmax: maximum Hermite orders per dimension.
        p: composite exponent of the charge distribution pair.
        PQ: 3-vector ``P - Q`` between composite centers.

    Returns:
        Array of shape ``(tmax+1, umax+1, vmax+1)``.
    """
    nmax = tmax + umax + vmax
    T = p * float(PQ @ PQ)
    F = boys(nmax, T)
    # R^n_{000} = (-2p)^n F_n(T)
    Rn = np.empty((nmax + 1, tmax + 1, umax + 1, vmax + 1))
    Rn[:] = 0.0
    scale = 1.0
    for n in range(nmax + 1):
        Rn[n, 0, 0, 0] = scale * F[n]
        scale *= -2.0 * p
    x, y, z = (float(c) for c in PQ)
    for total in range(1, nmax + 1):
        for t in range(min(total, tmax) + 1):
            for u in range(min(total - t, umax) + 1):
                v = total - t - u
                if v > vmax or v < 0:
                    continue
                for n in range(nmax - total + 1):
                    if t > 0:
                        val = x * Rn[n + 1, t - 1, u, v]
                        if t > 1:
                            val += (t - 1) * Rn[n + 1, t - 2, u, v]
                    elif u > 0:
                        val = y * Rn[n + 1, t, u - 1, v]
                        if u > 1:
                            val += (u - 1) * Rn[n + 1, t, u - 2, v]
                    else:
                        val = z * Rn[n + 1, t, u, v - 1]
                        if v > 1:
                            val += (v - 1) * Rn[n + 1, t, u, v - 2]
                    Rn[n, t, u, v] = val
    return Rn[0]


@lru_cache(maxsize=None)
def cartesian_components(l: int) -> tuple[tuple[int, int, int], ...]:
    """Cartesian component exponents ``(lx, ly, lz)`` for shell momentum l.

    Ordering is lexicographic with x decreasing first (the GAMESS/common
    convention): e.g. for l=1 -> x, y, z; l=2 -> xx, xy, xz, yy, yz, zz.
    Memoized (and returned as an immutable tuple): the set of momenta in
    a run is tiny while every shell loop asks for it.
    """
    comps = []
    for lx in range(l, -1, -1):
        for ly in range(l - lx, -1, -1):
            comps.append((lx, ly, l - lx - ly))
    return tuple(comps)


def ncart(l: int) -> int:
    """Number of Cartesian components of an l shell."""
    return (l + 1) * (l + 2) // 2
