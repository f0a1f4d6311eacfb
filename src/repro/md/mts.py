"""r-RESPA multiple-time-step force tiers over the many-body expansion.

The MBE force splits naturally across timescales (Luehr, Markland &
Martínez, arXiv:1312.1284): the monomer self-energies are cheap and
carry the fast intramolecular motion, while the dimer/trimer correction
tier is expensive (it dominates the paper's per-step cost) and varies on
the slower intermolecular timescale.  r-RESPA exploits the split with an
impulse ("kick — k inner Verlet steps — kick") integrator:

* **fast tier** — every monomer at coefficient +1, evaluated every inner
  step of length ``dt``;
* **slow tier** — the remainder of the MBE (polymers at their plan
  coefficients, monomers at ``c_m - 1``), evaluated every ``k`` steps
  and applied as half-impulses of ``k*dt/2`` at the outer boundaries.

``fast + slow`` sums to the exact MBE by construction — monomers whose
inclusion-exclusion coefficient is not one (or is zero, so they are
absent from ``plan.fragments`` entirely) still enter the fast tier at
+1, and the slow tier carries the ``c_m - 1`` correction.

The impulse splitting is symplectic and time-reversible (each tier's
propagator is, and the composition is symmetric), so the energy drift
stays bounded like plain velocity Verlet as long as ``k*dt`` stays below
resonance with the fastest fast-tier period.  Between its boundaries
the slow tier exerts no force at all: it acts only as the two
half-impulses.

There is one integrator: the step engine (`repro.md.scheduler`) holds
the split as a list of tiers ``(k_t, {key: coefficient})`` per plan
window — plain MBE is one tier at ``k = 1``, r-RESPA is fast + slow
(`slow_tier_items`) — evaluates them task by task, with or without a
barrier, and carries the slow tier's held boundary forces across a
checkpoint cut in its own section of the file.  This module owns the
tier *definition*, and the test reference around it:

* `SlowTierState` — the slow tier's forces held from one boundary to
  the next, as `push`/`estimate`;
* `TieredMBEForces` — a closed-form, whole-system evaluation of the
  same tiers.

Nothing under ``src/`` calls either: together they are the independent
reference the engine-equivalence tests integrate against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frag.mbe import MBEPlan
from ..frag.monomer import FragmentedSystem

#: coefficients smaller than this are treated as exactly cancelled
_COEF_EPS = 1e-12


def slow_tier_items(
    plan: MBEPlan, nmonomers: int
) -> list[tuple[tuple[int, ...], float]]:
    """The slow tier as ``(fragment key, coefficient)`` pairs.

    Polymers enter at their plan coefficient; monomers enter at
    ``c_m - 1`` (the correction left over after the fast tier took every
    monomer at +1).  Monomers with coefficient zero are absent from
    ``plan.fragments`` but still carry a ``-1`` correction here —
    ``build_plan`` seeds every monomer key, so the lookup never misses.
    """
    items: list[tuple[tuple[int, ...], float]] = []
    for m in range(nmonomers):
        cm = plan.coefficients.get((m,), 0.0) - 1.0
        if abs(cm) > _COEF_EPS:
            items.append(((m,), cm))
    for key in plan.fragments:
        if len(key) > 1:
            items.append((key, plan.coefficients[key]))
    return items


class TieredMBEForces:
    """Evaluate the MBE energy/gradient split into fast and slow tiers.

    The whole-system reference for the step engine, which implements
    the same split task by task through its priority queue; only tests
    call this class.

    `fast` caches its per-monomer results (keyed by the coordinate
    array), so a `slow` call at the same geometry — the boundary
    pattern, where both tiers are evaluated back-to-back — reuses the
    monomer solves and only pays for the polymers.
    """

    def __init__(self, system: FragmentedSystem, calculator) -> None:
        self.system = system
        self.calculator = calculator
        #: current MBE plan; only the slow tier reads it (the fast tier
        #: is every monomer at +1 regardless of the plan)
        self.plan: MBEPlan | None = None
        self._mono_coords: np.ndarray | None = None
        self._mono_results: dict | None = None
        #: statistics: monomer solves served from the fast-tier cache
        self.monomer_reuses = 0

    def fast(self, coords: np.ndarray) -> tuple[float, np.ndarray]:
        """Fast-tier energy/gradient: every monomer at coefficient +1."""
        system = self.system
        energy = 0.0
        grad = np.zeros((system.parent.natoms, 3))
        results: dict[int, tuple] = {}
        for m in range(system.nmonomers):
            lay = system.layout((m,))
            e_f, g_f = self.calculator.energy_gradient(lay.molecule(coords))
            energy += e_f
            lay.scatter(g_f, grad)
            results[m] = (e_f, g_f, lay)
        self._mono_coords = coords
        self._mono_results = results
        return energy, grad

    def _cached_monomers(self, coords: np.ndarray) -> dict | None:
        if self._mono_results is None or self._mono_coords is None:
            return None
        if self._mono_coords is coords or np.array_equal(
            self._mono_coords, coords
        ):
            return self._mono_results
        return None

    def slow(self, coords: np.ndarray) -> tuple[float, np.ndarray]:
        """Slow-tier energy/gradient at the current plan.

        Monomer corrections (``c_m - 1``) reuse the solves of the last
        `fast` call when it ran at the same coordinates.
        """
        if self.plan is None:
            raise RuntimeError("TieredMBEForces.slow called before a plan was set")
        system = self.system
        energy = 0.0
        grad = np.zeros((system.parent.natoms, 3))
        cached = self._cached_monomers(coords)
        for key, c in slow_tier_items(self.plan, system.nmonomers):
            if len(key) == 1 and cached is not None:
                e_f, g_f, lay = cached[key[0]]
                self.monomer_reuses += 1
            else:
                lay = system.layout(key)
                e_f, g_f = self.calculator.energy_gradient(lay.molecule(coords))
            energy += c * e_f
            lay.scatter(g_f, grad, c)
        return energy, grad


@dataclass
class SlowTierState:
    """Slow-tier forces held from one outer boundary to the next.

    ``forces`` is the slow-tier force (``-gradient``) evaluated at outer
    boundary ``step``.  The engine keeps the same state in its own
    buffers (and round-trips it through its checkpoint section: held
    forces cannot be recomputed mid-cycle).
    """

    k: int
    #: outer boundary the current slow forces were evaluated at (-1: none)
    step: int = -1
    forces: np.ndarray | None = None
    e_slow: float = 0.0

    def push(self, step: int, forces: np.ndarray, e_slow: float) -> None:
        """Record a fresh slow-tier evaluation at outer boundary ``step``."""
        self.step = int(step)
        self.forces = forces
        self.e_slow = float(e_slow)

    def estimate(self, step: int) -> tuple[float, np.ndarray]:
        """Slow-tier (energy, forces) held at inner step ``step``: the
        values of the last boundary. The returned array is *shared* with
        the internal state — callers must not mutate it.
        """
        if self.forces is None:
            raise RuntimeError("slow tier has not been evaluated yet")
        return self.e_slow, self.forces
