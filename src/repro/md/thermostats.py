"""Thermostats for NVT sampling (beyond the paper's NVE runs).

The paper runs microcanonical dynamics; production studies of the
applications it motivates (polymorph stability, fibril assembly) need
canonical sampling, so the library ships two standard thermostats:

* `BerendsenThermostat` — weak-coupling velocity rescaling. Simple and
  robust; does not sample the exact canonical ensemble.
* `LangevinThermostat` — stochastic friction + noise applied as an
  Ornstein-Uhlenbeck velocity update between Verlet steps (the "O" part
  of BAOAB splitting); samples the canonical ensemble for small dt.

Both thermostats accept an ``ndof`` override; the default (``None``)
counts ``3N - 3`` degrees of freedom, matching the center-of-mass-free
velocity fields produced by `maxwell_boltzmann_velocities`.  The old
``3N`` divisor under-reported the temperature, so both thermostats
silently targeted a temperature *above* the one requested (by
``3N/(3N-3)``, 50% hot for a 3-atom fragment).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import KB_HARTREE_PER_K
from .integrators import instantaneous_temperature


@dataclass
class BerendsenThermostat:
    """Weak-coupling rescaling toward a target temperature.

    The squared scale factor ``lam2 = 1 + (dt/tau)(T0/T - 1)`` turns
    negative when ``dt/tau > 1`` and the system is far hotter than the
    target — the naive ``sqrt(max(lam2, 0))`` then *zeroes* the
    velocities, silently freezing the dynamics.  The effective coupling
    ratio is therefore clamped smoothly to ``min(dt/tau, 1)``: at the
    clamp the update degrades continuously into an exact rescale to the
    target temperature (``lam2 = T0/T``, the dt/tau → 1 limit of the
    weak-coupling form), which is the strongest physically meaningful
    action the thermostat can take in one step.  When the clamp engages
    a ``thermostat.clamp`` tracer instant is emitted (when a tracer is
    attached), so pathological dt/tau ratios are visible instead of
    silently corrupting the run.
    """

    temperature_k: float
    tau_fs: float = 50.0
    #: kinetic degrees of freedom (None -> 3N-3, center-of-mass free)
    ndof: int | None = None
    #: optional `repro.trace.Tracer` for clamp diagnostics
    tracer: object | None = field(default=None, repr=False, compare=False)

    def apply(self, velocities: np.ndarray, masses_au: np.ndarray, dt_fs: float) -> np.ndarray:
        """Rescale velocities toward the target temperature."""
        t_now = instantaneous_temperature(masses_au, velocities, ndof=self.ndof)
        if t_now <= 0:
            return velocities
        ratio = dt_fs / self.tau_fs
        if ratio > 1.0:
            # smooth floor: cap the coupling at the exact-rescale limit
            # instead of letting lam2 go <= 0 and zeroing the velocities
            if self.tracer is not None:
                self.tracer.instant(
                    "thermostat.clamp", cat="md",
                    dt_over_tau=float(ratio), t_now_k=float(t_now),
                    target_k=float(self.temperature_k),
                )
            ratio = 1.0
        lam2 = 1.0 + ratio * (self.temperature_k / t_now - 1.0)
        return velocities * np.sqrt(lam2)

    def state_dict(self) -> tuple[dict, dict]:
        """Checkpoint section (stateless: parameters only)."""
        return {"kind": "berendsen"}, {}

    def load_state(self, meta: dict, arrays: dict) -> None:
        """Restore from `state_dict` output (no mutable state to restore)."""


@dataclass
class LangevinThermostat:
    """Ornstein-Uhlenbeck velocity update (friction + matched noise).

    The noise kicks every Cartesian component independently, so a plain
    OU update slowly pumps momentum into the center of mass — the
    velocity field drifts out of the center-of-mass-free ensemble that
    the ``3N - 3`` temperature accounting (and the initial conditions)
    assume.  With ``remove_com_drift=True`` the center-of-mass momentum
    the noise injected is projected back out after every update, so the
    thermostat thermalizes exactly the ``3N - 3`` internal degrees of
    freedom at the target temperature.
    """

    temperature_k: float
    friction_per_fs: float = 0.01
    seed: int = 0
    #: kinetic degrees of freedom (None -> 3N-3); used by diagnostics
    #: and kept alongside `remove_com_drift` so temperature accounting
    #: and dynamics agree about which ensemble is being sampled
    ndof: int | None = None
    #: project the center-of-mass momentum out of the noise each step
    remove_com_drift: bool = False
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def apply(self, velocities: np.ndarray, masses_au: np.ndarray, dt_fs: float) -> np.ndarray:
        """One OU step: exponential friction plus matched thermal noise."""
        c1 = np.exp(-self.friction_per_fs * dt_fs)
        sigma = np.sqrt(
            (1.0 - c1 * c1) * KB_HARTREE_PER_K * self.temperature_k / masses_au
        )
        noise = self._rng.standard_normal(velocities.shape) * sigma[:, None]
        v = c1 * velocities + noise
        if self.remove_com_drift and masses_au.shape[0] > 1:
            p = (v * masses_au[:, None]).sum(axis=0)
            v = v - p[None, :] / masses_au.sum()
        return v

    def temperature(self, velocities: np.ndarray, masses_au: np.ndarray) -> float:
        """Instantaneous temperature under this thermostat's DOF count."""
        return instantaneous_temperature(masses_au, velocities, ndof=self.ndof)

    def state_dict(self) -> tuple[dict, dict]:
        """Checkpoint section ``(meta, arrays)``: the RNG stream position.

        The bit-generator state is a JSON-serializable dict of Python
        ints, so a resumed run draws exactly the noise sequence the
        uninterrupted run would have drawn.
        """
        return {"kind": "langevin", "rng": self._rng.bit_generator.state}, {}

    def load_state(self, meta: dict, arrays: dict) -> None:
        """Restore the RNG stream recorded by `state_dict`."""
        self._rng.bit_generator.state = meta["rng"]


@dataclass
class LocalLangevinThermostat:
    """Per-monomer Langevin (OU) update with derived noise streams.

    `LangevinThermostat` draws from one sequential RNG stream, which
    ties the noise to the *order* monomers integrate in — unusable
    inside the asynchronous coordinator, where completion order depends
    on worker races. This variant derives an independent stream per
    ``(step, monomer)`` from `numpy.random.SeedSequence`, so the noise a
    monomer receives at a step is a pure function of ``(seed, step,
    monomer)``:

    * order-independent — any completion order yields the same
      trajectory;
    * stateless — nothing to checkpoint; a resumed run regenerates
      exactly the noise the uninterrupted run drew (bitwise, so a
      resumed run stays bitwise the uninterrupted one);
    * local — each monomer thermalizes its own atoms, matching the
      coordinator's per-monomer integration (no global barrier needed).

    Center-of-mass drift is not projected out (that would be a global
    operation); over long runs the total momentum performs a bounded
    random walk, as for any local Langevin scheme.
    """

    temperature_k: float
    friction_per_fs: float = 0.01
    seed: int = 0
    #: kinetic degrees of freedom (None -> 3N-3); diagnostics only
    ndof: int | None = None

    def apply_rows(self, velocities: np.ndarray, masses_au: np.ndarray,
                   dt_fs: float, step: int, monomer: int) -> np.ndarray:
        """OU update of one monomer's velocity rows at one step."""
        rng = np.random.default_rng(
            np.random.SeedSequence([int(self.seed), int(step), int(monomer)])
        )
        c1 = np.exp(-self.friction_per_fs * dt_fs)
        sigma = np.sqrt(
            (1.0 - c1 * c1) * KB_HARTREE_PER_K * self.temperature_k / masses_au
        )
        noise = rng.standard_normal(velocities.shape) * sigma[:, None]
        return c1 * velocities + noise

    def temperature(self, velocities: np.ndarray, masses_au: np.ndarray) -> float:
        """Instantaneous temperature under this thermostat's DOF count."""
        return instantaneous_temperature(masses_au, velocities, ndof=self.ndof)

    def state_dict(self) -> tuple[dict, dict]:
        """Checkpoint section (stateless: streams derive from the seed)."""
        return {"kind": "local-langevin"}, {}

    def load_state(self, meta: dict, arrays: dict) -> None:
        """Restore from `state_dict` output (no mutable state to restore)."""
