"""The thermostat for NVT sampling (beyond the paper's NVE runs).

The paper runs microcanonical dynamics checked by energy drift; the
applications it motivates (polymorph stability, fibril assembly) also
want canonical sampling. Its third mechanism is asynchronous time steps,
under which a thermostat acting on the whole system at once would need a
global barrier, so there is one thermostat, and it acts per monomer:
`LocalLangevinThermostat`, an Ornstein-Uhlenbeck velocity update (the
"O" part of BAOAB splitting) whose noise is a pure function of
``(seed, step, monomer)``.

Its ``ndof`` (diagnostics only) defaults to ``3N - 3`` degrees of
freedom, matching the center-of-mass-free velocity fields produced by
`maxwell_boltzmann_velocities`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import KB_HARTREE_PER_K
from .integrators import instantaneous_temperature


@dataclass
class LocalLangevinThermostat:
    """Per-monomer Langevin (OU) update with derived noise streams.

    One sequential RNG stream would tie the noise to the *order*
    monomers integrate in — unusable inside the asynchronous
    coordinator, where completion order depends on worker races. This
    thermostat derives an independent stream per ``(step, monomer)``
    from `numpy.random.SeedSequence`, so the noise a monomer receives at
    a step is a pure function of ``(seed, step, monomer)``:

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
