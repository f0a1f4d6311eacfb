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
resonance with the fastest fast-tier period.  The optional *extrapolate*
mode instead applies a linearly-extrapolated slow force inside every
inner step (no impulses); it is only approximately reversible but
smooths the boundary impulses, which helps at larger ``k``.

There is one integrator: the step engine (`repro.md.scheduler`) holds
the split as a list of tiers ``(k_t, {key: coefficient})`` per plan
window — plain MBE is one tier at ``k = 1``, r-RESPA is fast + slow
(`slow_tier_items`), the per-order ``k`` ladder is fast + dimer + trimer
(`slow_tier_items_split`) — evaluates them task by task, with or
without a barrier, and carries the tiers it holds across a checkpoint
cut in its own section of the file.  This module owns the tier
*definitions*, and the test reference around them:

* `SlowTierState` — one slow tier's between-boundary memory (held
  forces plus the one-deep history the extrapolation needs), as
  `push`/`estimate`;
* `TieredMBEForces` — a closed-form, whole-system evaluation of the
  same tiers.

Nothing under ``src/`` calls either: together they are the independent
reference the engine-equivalence tests integrate against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def slow_tier_items_split(
    plan: MBEPlan, nmonomers: int
) -> tuple[
    list[tuple[tuple[int, ...], float]], list[tuple[tuple[int, ...], float]]
]:
    """The slow tier split by MBE order: ``(dimer tier, trimer tier)``.

    The dimer tier carries the full MBE2 correction
    ``sum_D [E_IJ - E_I - E_J]`` and the trimer tier the full MBE3
    correction ``sum_T [E_IJK - pairs + monomers]``.  Their sum equals
    `slow_tier_items` exactly: the plan coefficients are integer
    inclusion-exclusion sums over exactly these per-polymer stencils, so
    regrouping them by originating order is an identity, not an
    approximation.  This is the decomposition the per-tier ``k`` ladder
    integrates on separate timescales (dimers every ``k``, trimers every
    ``k_trimer``).
    """
    tier2: dict[tuple[int, ...], float] = {}
    tier3: dict[tuple[int, ...], float] = {}

    def add(tier: dict, key: tuple[int, ...], c: float) -> None:
        tier[key] = tier.get(key, 0.0) + c

    for i, j in plan.dimers:
        add(tier2, (i, j), 1.0)
        add(tier2, (i,), -1.0)
        add(tier2, (j,), -1.0)
    for i, j, k in plan.trimers:
        add(tier3, (i, j, k), 1.0)
        for pair in ((i, j), (i, k), (j, k)):
            add(tier3, pair, -1.0)
        for mono in (i, j, k):
            add(tier3, (mono,), 1.0)

    def items(tier: dict) -> list[tuple[tuple[int, ...], float]]:
        return sorted(
            ((k, c) for k, c in tier.items() if abs(c) > _COEF_EPS),
            key=lambda kc: (len(kc[0]), kc[0]),
        )

    return items(tier2), items(tier3)


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

    def __init__(
        self, system: FragmentedSystem, calculator, surrogate=None
    ) -> None:
        self.system = system
        self.calculator = calculator
        #: optional ``repro.surrogate.SurrogateManager``: polymer solves
        #: in the slow tier are served from the committee when its
        #: disagreement gate admits them, and full solves train it
        self.surrogate = surrogate
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
            mol, atoms, caps = system.fragment_molecule((m,), coords)
            e_f, g_f = self.calculator.energy_gradient(mol)
            energy += e_f
            system.map_gradient(g_f, atoms, caps, grad, scale=1.0)
            results[m] = (e_f, g_f, atoms, caps)
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
        return self.slow_items(
            coords, slow_tier_items(self.plan, self.system.nmonomers)
        )

    def slow_items(
        self,
        coords: np.ndarray,
        items: list[tuple[tuple[int, ...], float]],
    ) -> tuple[float, np.ndarray]:
        """Evaluate an explicit ``(key, coefficient)`` slow-tier item list.

        This is the shared engine behind `slow` (the whole slow tier) and
        the per-order ladder tiers from `slow_tier_items_split`.  Polymer
        items go through the surrogate gate when one is attached; full
        polymer solves train it.
        """
        system = self.system
        energy = 0.0
        grad = np.zeros((system.parent.natoms, 3))
        cached = self._cached_monomers(coords)
        for key, c in items:
            if len(key) == 1 and cached is not None:
                e_f, g_f, atoms, caps = cached[key[0]]
                self.monomer_reuses += 1
            else:
                mol, atoms, caps = system.fragment_molecule(key, coords)
                if self.surrogate is not None and len(key) > 1:
                    served = self.surrogate.predict(key, mol, coefficient=c)
                    if served is not None:
                        e_f, g_f = served[0], served[1]
                        energy += c * e_f
                        system.map_gradient(g_f, atoms, caps, grad, scale=c)
                        continue
                e_f, g_f = self.calculator.energy_gradient(mol)
                if self.surrogate is not None and len(key) > 1:
                    self.surrogate.observe(key, mol, e_f, g_f)
            energy += c * e_f
            system.map_gradient(g_f, atoms, caps, grad, scale=c)
        return energy, grad


@dataclass
class SlowTierState:
    """Held slow-tier forces and the history the extrapolation needs.

    ``forces`` is the slow-tier force (``-gradient``) evaluated at outer
    boundary ``step``; ``forces_prev``/``prev_step`` hold the previous
    boundary for linear extrapolation.  The engine keeps the same state
    per tier in its own buffers (and round-trips it through its
    checkpoint section: held forces cannot be recomputed mid-cycle).
    """

    k: int
    extrapolate: bool = False
    #: outer boundary the current slow forces were evaluated at (-1: none)
    step: int = -1
    prev_step: int = -1
    forces: np.ndarray | None = None
    forces_prev: np.ndarray | None = None
    e_slow: float = 0.0
    e_slow_prev: float = 0.0
    #: number of slow-tier evaluations pushed (statistics)
    nevals: int = field(default=0, compare=False)

    def push(self, step: int, forces: np.ndarray, e_slow: float) -> None:
        """Record a fresh slow-tier evaluation at outer boundary ``step``."""
        self.prev_step = self.step
        self.forces_prev = self.forces
        self.e_slow_prev = self.e_slow
        self.step = int(step)
        self.forces = forces
        self.e_slow = float(e_slow)
        self.nevals += 1

    def estimate(self, step: int) -> tuple[float, np.ndarray]:
        """Slow-tier (energy, forces) estimate at inner step ``step``.

        Held (zeroth order) by default; with ``extrapolate`` and one
        history entry, linear in step.  Exact at ``step == self.step``.
        The returned array is *shared* with the internal state — callers
        must not mutate it.
        """
        if self.forces is None:
            raise RuntimeError("slow tier has not been evaluated yet")
        if (
            not self.extrapolate
            or self.prev_step < 0
            or step == self.step
            or self.forces_prev is None
        ):
            return self.e_slow, self.forces
        frac = (step - self.step) / (self.step - self.prev_step)
        e = self.e_slow + frac * (self.e_slow - self.e_slow_prev)
        f = self.forces + frac * (self.forces - self.forces_prev)
        return e, f
