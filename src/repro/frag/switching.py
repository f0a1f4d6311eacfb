"""Smooth polymer-cutoff switching (the paper's stated future work).

Hard distance cutoffs make polymer corrections drop in and out as
centroid distances fluctuate during dynamics, producing the small
total-energy jumps visible in the paper's Fig. 6 ("It is planned to
incorporate a smooth transition for these polymer cutoffs ... in future
work"). This module implements that transition:

    E = sum_I E_I + sum_{IJ} s(r_IJ) dE_IJ
      + sum_{IJK} s(r_IJ) s(r_IK) s(r_JK) dE_IJK

with a C2 quintic smoothstep ``s`` falling from 1 at ``r_on`` to 0 at
``r_cut``. The gradient picks up the geometric derivative of the
switches, which multiplies only the (small) *corrections* — so forces
stay continuous and NVE fluctuations from cutoff crossings vanish (see
``benchmarks/bench_smooth_cutoff.py``).
"""

from __future__ import annotations

import numpy as np

from .mbe import enumerate_dimers, enumerate_trimers
from .monomer import FragmentedSystem


def smoothstep(r: float, r_on: float, r_cut: float) -> tuple[float, float]:
    """Quintic switch ``s(r)`` and its derivative ``ds/dr``.

    ``s = 1`` for ``r <= r_on``, ``0`` for ``r >= r_cut``, and a C2
    polynomial in between.
    """
    if r <= r_on:
        return 1.0, 0.0
    if r >= r_cut:
        return 0.0, 0.0
    x = (r - r_on) / (r_cut - r_on)
    s = 1.0 - x**3 * (10.0 - 15.0 * x + 6.0 * x * x)
    ds = -(30.0 * x**2 - 60.0 * x**3 + 30.0 * x**4) / (r_cut - r_on)
    return s, ds


def mbe_energy_gradient_switched(
    system: FragmentedSystem,
    calculator,
    r_on_dimer: float,
    r_cut_dimer: float,
    r_on_trimer: float | None = None,
    r_cut_trimer: float | None = None,
    order: int = 3,
    coords: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """MBE energy/gradient with smoothly switched polymer corrections.

    All distances in Bohr; polymers are enumerated out to the ``r_cut``
    radii and their corrections scaled by the switch values. The
    gradient includes both the switched fragment-gradient combination
    and the switch-derivative terms (correction energies times
    ``grad s``), so it is the exact gradient of the switched energy.
    """
    if order not in (2, 3):
        raise ValueError("switched MBE supports orders 2 and 3")
    c = system.parent.coords if coords is None else coords
    natoms = system.parent.natoms
    cents = system.centroids(c)
    mono_atoms = [list(m.atoms) for m in system.monomers]

    cache: dict[tuple[int, ...], tuple[float, np.ndarray]] = {}

    def frag(key: tuple[int, ...]) -> tuple[float, np.ndarray]:
        if key not in cache:
            lay = system.layout(key)
            e, gf = calculator.energy_gradient(lay.molecule(c))
            g = np.zeros((natoms, 3))
            lay.scatter(gf, g)
            cache[key] = (e, g)
        return cache[key]

    def pair_switch(i: int, j: int, r_on: float, r_cut: float):
        rvec = cents[i] - cents[j]
        r = float(np.linalg.norm(rvec))
        s, ds = smoothstep(r, r_on, r_cut)
        return s, ds, rvec / max(r, 1e-300)

    def add_switch_gradient(g_out, i, j, factor, ds, unit):
        """Accumulate factor * ds * d r_ij / dR (centroid chain rule)."""
        gi = factor * ds * unit
        g_out[mono_atoms[i]] += gi / len(mono_atoms[i])
        g_out[mono_atoms[j]] -= gi / len(mono_atoms[j])

    energy = 0.0
    grad = np.zeros((natoms, 3))
    for m in range(system.nmonomers):
        e, g = frag((m,))
        energy += e
        grad += g

    dimers = enumerate_dimers(system, r_cut_dimer, c)
    dimer_s = {}
    for i, j in dimers:
        s, ds, unit = pair_switch(i, j, r_on_dimer, r_cut_dimer)
        dimer_s[(i, j)] = s
        if s == 0.0 and ds == 0.0:
            continue
        e_ij, g_ij = frag((i, j))
        e_i, g_i = frag((i,))
        e_j, g_j = frag((j,))
        de = e_ij - e_i - e_j
        energy += s * de
        grad += s * (g_ij - g_i - g_j)
        if ds != 0.0:
            add_switch_gradient(grad, i, j, de, ds, unit)

    if order >= 3:
        if r_cut_trimer is None:
            raise ValueError("order 3 requires trimer switch radii")
        if r_on_trimer is None:
            r_on_trimer = 0.8 * r_cut_trimer
        trimers = enumerate_trimers(system, r_cut_trimer, c)
        for i, j, k in trimers:
            sw = {}
            for a, b in ((i, j), (i, k), (j, k)):
                sw[(a, b)] = pair_switch(a, b, r_on_trimer, r_cut_trimer)
            s3 = sw[(i, j)][0] * sw[(i, k)][0] * sw[(j, k)][0]
            any_ds = any(v[1] != 0.0 for v in sw.values())
            if s3 == 0.0 and not any_ds:
                continue
            e_ijk, g_ijk = frag((i, j, k))
            de3 = e_ijk
            g3 = g_ijk.copy()
            for pair in ((i, j), (i, k), (j, k)):
                e_p, g_p = frag(pair)
                de3 -= e_p
                g3 -= g_p
            for mono in (i, j, k):
                e_m, g_m = frag((mono,))
                de3 += e_m
                g3 += g_m
            energy += s3 * de3
            grad += s3 * g3
            # product-rule switch derivatives
            for (a, b), (s_ab, ds_ab, unit_ab) in sw.items():
                if ds_ab == 0.0:
                    continue
                others = 1.0
                for key2, val in sw.items():
                    if key2 != (a, b):
                        others *= val[0]
                add_switch_gradient(grad, a, b, de3 * others, ds_ab, unit_ab)
    return energy, grad
