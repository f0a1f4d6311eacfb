"""Trajectory record: the pure data product of a run.

Times, energies, frames, and the conservation diagnostics computed from
them. The step engine fills one for `repro.md.aimd.run_aimd` as steps
retire; the trajectory *service* (`repro.serve`) assembles the same
record from per-step events; `repro.md.trajio` reads and writes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


#: the per-frame lists a checkpoint carries
_RECORD = ("times_fs", "potential", "kinetic", "coords", "velocities")


@dataclass
class Trajectory:
    """NVE trajectory record."""

    times_fs: list[float] = field(default_factory=list)
    potential: list[float] = field(default_factory=list)
    kinetic: list[float] = field(default_factory=list)
    coords: list[np.ndarray] = field(default_factory=list)
    velocities: list[np.ndarray] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)

    def append(self, time_fs, potential, kinetic, coords, velocities) -> None:
        """Record one frame (the arrays are stored as given, not copied)."""
        self.times_fs.append(time_fs)
        self.potential.append(potential)
        self.kinetic.append(kinetic)
        self.coords.append(coords)
        self.velocities.append(velocities)

    def state_dict(self) -> tuple[dict, dict]:
        """``(meta, arrays)`` of the ``frames`` checkpoint section: the
        record so far, wall times aside."""
        return {}, {
            name: np.asarray(getattr(self, name), dtype=float)
            for name in _RECORD
        }

    def load_state(self, meta: dict, arrays: dict) -> None:
        """Take the history a checkpoint carries (zero wall times: not
        recorded)."""
        for name in _RECORD:
            setattr(self, name, list(arrays[name]))
        self.wall_times = [0.0] * max(len(self.times_fs) - 1, 0)

    @property
    def total(self) -> np.ndarray:
        """Total energy (potential + kinetic) per frame."""
        return np.asarray(self.potential) + np.asarray(self.kinetic)

    def energy_drift(self) -> float:
        """Linear drift of the total energy, Hartree per fs."""
        t = np.asarray(self.times_fs)
        e = self.total
        if len(t) < 2:
            return 0.0
        return float(np.polyfit(t, e, 1)[0])

    def energy_fluctuation(self) -> float:
        """RMS fluctuation of the total energy about its mean (Hartree)."""
        e = self.total
        return float(np.sqrt(np.mean((e - e.mean()) ** 2)))
