"""Online per-fragment-class surrogate manager with an uncertainty gate.

``SurrogateManager`` sits between the MD drivers and the calculator: every
full polymer solve is ``observe``d as a training pair, and before a polymer
task is scheduled the driver asks ``predict`` whether the committee can
serve the contribution within the per-order disagreement bound.  When it
can, the bound is accumulated into ``neglected_bound`` -- the same
neglected-error ceiling discipline the Schwarz screener uses -- and the
full RI-MP2 solve is skipped entirely.

The disagreement is the committee energy spread plus the GP posterior
sigma of the full-data fit (see `repro.surrogate.model`); a per-class
serve-streak cap additionally forces a full-solve refresh every
``max_serve_streak`` consecutive serves, so the training window keeps
tracking the trajectory instead of freezing at serve onset.

The manager is serialised by a `repro.store.ContentionLock` (cross-thread
contention is observable in ``stats()``), and its training windows
round-trip through the ``surrogate`` checkpoint section via
``state_dict``/``load_state`` (`repro.md.checkpoint`).
"""

from __future__ import annotations

import numpy as np

from ..store import ContentionLock
from .model import KernelRidgeCommittee, descriptor

__all__ = [
    "SurrogateManager",
    "DEFAULT_TOL_DIMER",
    "DEFAULT_TOL_TRIMER",
    "gate_tolerances",
]

DEFAULT_TOL_DIMER = 5e-5  # Ha: committee-disagreement gate for dimers
DEFAULT_TOL_TRIMER = 2e-5  # Ha: trimers are smaller contributions; gate tighter


def gate_tolerances(tol: float | None) -> tuple[float, float]:
    """``(tol_dimer, tol_trimer)`` for a user-set dimer gate ``tol``
    (``--surrogate-tol``): the trimer gate keeps the defaults' ratio.
    ``None`` is the defaults themselves."""
    if tol is None:
        return DEFAULT_TOL_DIMER, DEFAULT_TOL_TRIMER
    tol = float(tol)
    return tol, tol * (DEFAULT_TOL_TRIMER / DEFAULT_TOL_DIMER)


class _ClassModel:
    """Training window + cached committee for one fragment class."""

    __slots__ = ("x", "y", "committee", "fitted_n", "streak")

    def __init__(self) -> None:
        self.x: list[np.ndarray] = []
        self.y: list[np.ndarray] = []
        self.committee: KernelRidgeCommittee | None = None
        self.fitted_n = -1
        #: consecutive serves since the last full-solve observation —
        #: bounded by ``max_serve_streak`` so the training window keeps
        #: tracking the trajectory instead of freezing at serve onset
        self.streak = 0


class SurrogateManager:
    """Committee surrogates for the MBE dimer/trimer tail, trained online."""

    def __init__(
        self,
        tol_dimer: float = DEFAULT_TOL_DIMER,
        tol_trimer: float = DEFAULT_TOL_TRIMER,
        min_train: int = 6,
        max_points: int = 64,
        members: int = 3,
        ridge: float = 1e-8,
        seed: int = 0,
        max_serve_streak: int = 8,
    ) -> None:
        if min_train < 2:
            raise ValueError("min_train must be >= 2")
        if max_points < min_train:
            raise ValueError("max_points must be >= min_train")
        if max_serve_streak < 1:
            raise ValueError("max_serve_streak must be >= 1")
        self.tol_dimer = float(tol_dimer)
        self.tol_trimer = float(tol_trimer)
        self.min_train = int(min_train)
        self.max_points = int(max_points)
        self.members = int(members)
        self.ridge = float(ridge)
        self.seed = int(seed)
        self.max_serve_streak = int(max_serve_streak)
        self._classes: dict[tuple, _ClassModel] = {}
        self._lock = ContentionLock()
        # counters
        self.trained = 0
        self.served = 0
        self.refused_cold = 0
        self.refused_uncertain = 0
        #: refusals forced by the serve-streak cap (periodic full-solve
        #: refreshes that keep the training window current)
        self.refused_refresh = 0
        self.served_by_order: dict[int, int] = {}
        self.neglected_bound = 0.0  # sum of |coef| * tol over served items
        self.disagreement_sum = 0.0  # sum of actual committee disagreements

    # -- keying ------------------------------------------------------------

    @staticmethod
    def class_key(mol, order: int) -> tuple:
        return (tuple(mol.symbols), int(getattr(mol, "charge", 0)), int(order))

    def _tol(self, order: int) -> float | None:
        if order == 2:
            return self.tol_dimer
        if order == 3:
            return self.tol_trimer
        return None

    # -- online training ---------------------------------------------------

    def observe(self, key: tuple, mol, energy: float, gradient: np.ndarray) -> None:
        """Record one full-solve result as a training pair for its class."""
        order = len(key)
        if order < 2:
            return
        x = descriptor(mol.coords)
        y = np.concatenate(
            [[float(energy)], np.asarray(gradient, dtype=float).ravel()]
        )
        with self._lock:
            model = self._classes.setdefault(self.class_key(mol, order), _ClassModel())
            model.x.append(x)
            model.y.append(y)
            if len(model.x) > self.max_points:
                del model.x[0]
                del model.y[0]
            model.fitted_n = -1  # mark dirty
            model.streak = 0
            self.trained += 1

    # -- gated serving -----------------------------------------------------

    def predict(self, key: tuple, mol, coefficient: float = 1.0):
        """Serve ``(energy, gradient, disagreement)`` or ``None`` (fall back).

        ``None`` means the caller must schedule a full solve: either the
        class is cold (fewer than ``min_train`` pairs) or the committee
        disagreement exceeds the per-order bound.  On a successful serve
        the per-order bound (scaled by ``|coefficient|``) is folded into
        ``neglected_bound``.
        """
        order = len(key)
        tol = self._tol(order)
        if tol is None:
            return None
        with self._lock:
            model = self._classes.get(self.class_key(mol, order))
            if model is None or len(model.x) < self.min_train:
                self.refused_cold += 1
                return None
            if model.streak >= self.max_serve_streak:
                # force a periodic full-solve refresh: the resulting
                # observe() call resets the streak and keeps the window
                # tracking the trajectory
                self.refused_refresh += 1
                return None
            n = len(model.x)
            if model.fitted_n != n:
                committee = KernelRidgeCommittee(
                    members=self.members, ridge=self.ridge, seed=self.seed
                )
                committee.fit(np.stack(model.x), np.stack(model.y))
                model.committee = committee
                model.fitted_n = n
            mean, spread = model.committee.predict(descriptor(mol.coords))
            if spread > tol:
                self.refused_uncertain += 1
                return None
            self.served += 1
            model.streak += 1
            self.served_by_order[order] = self.served_by_order.get(order, 0) + 1
            self.neglected_bound += abs(float(coefficient)) * tol
            self.disagreement_sum += spread
            energy = float(mean[0])
            gradient = mean[1:].reshape(mol.natoms, 3).copy()
            return energy, gradient, spread

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "classes": len(self._classes),
                "points": sum(len(m.x) for m in self._classes.values()),
                "trained": self.trained,
                "served": self.served,
                "served_by_order": dict(sorted(self.served_by_order.items())),
                "refused_cold": self.refused_cold,
                "refused_uncertain": self.refused_uncertain,
                "refused_refresh": self.refused_refresh,
                "neglected_bound": self.neglected_bound,
                "disagreement_sum": self.disagreement_sum,
                "contentions": self._lock.contentions,
            }

    # -- checkpoint section ("surrogate") ----------------------------------

    def state_dict(self) -> tuple[dict, dict]:
        """Return ``(meta, arrays)`` for the checkpoint writer.

        ``meta`` is JSON-serializable; ``arrays`` maps the names its class
        directory points at to the per-class training windows.  Committee fits are NOT stored:
        they are a pure, seeded function of the window, so refitting after
        ``load_state`` reproduces them bitwise.
        """
        with self._lock:
            classes = []
            arrays: dict[str, np.ndarray] = {}
            for i, (ckey, model) in enumerate(sorted(self._classes.items())):
                symbols, charge, order = ckey
                xname, yname = f"x{i}", f"y{i}"
                arrays[xname] = np.stack(model.x)
                arrays[yname] = np.stack(model.y)
                classes.append(
                    {
                        "symbols": list(symbols),
                        "charge": int(charge),
                        "order": int(order),
                        "streak": int(model.streak),
                        "x": xname,
                        "y": yname,
                    }
                )
            meta = {
                "config": {
                    "tol_dimer": self.tol_dimer,
                    "tol_trimer": self.tol_trimer,
                    "min_train": self.min_train,
                    "max_points": self.max_points,
                    "members": self.members,
                    "ridge": self.ridge,
                    "seed": self.seed,
                    "max_serve_streak": self.max_serve_streak,
                },
                "counters": {
                    "trained": self.trained,
                    "served": self.served,
                    "refused_cold": self.refused_cold,
                    "refused_uncertain": self.refused_uncertain,
                    "refused_refresh": self.refused_refresh,
                    "neglected_bound": self.neglected_bound,
                    "disagreement_sum": self.disagreement_sum,
                    "served_by_order": {
                        str(k): v for k, v in self.served_by_order.items()
                    },
                },
                "classes": classes,
            }
            return meta, arrays

    def load_state(self, meta: dict, arrays: dict) -> None:
        """Restore training windows + counters from a checkpoint.

        The committee configuration must match: the committee is a seeded
        function of (window, config), and a silent config change across a
        resume would break the bitwise-continuation contract.
        """
        config = meta.get("config", {})
        mine = {
            "tol_dimer": self.tol_dimer,
            "tol_trimer": self.tol_trimer,
            "min_train": self.min_train,
            "max_points": self.max_points,
            "members": self.members,
            "ridge": self.ridge,
            "seed": self.seed,
            "max_serve_streak": self.max_serve_streak,
        }
        for name, value in mine.items():
            if name in config and config[name] != value:
                raise ValueError(
                    f"surrogate config mismatch on resume: {name} "
                    f"checkpoint={config[name]!r} run={value!r}"
                )
        with self._lock:
            self._classes = {}
            for entry in meta.get("classes", []):
                ckey = (
                    tuple(entry["symbols"]),
                    int(entry["charge"]),
                    int(entry["order"]),
                )
                model = _ClassModel()
                model.x = [np.asarray(row, dtype=float) for row in arrays[entry["x"]]]
                model.y = [np.asarray(row, dtype=float) for row in arrays[entry["y"]]]
                model.streak = int(entry.get("streak", 0))
                self._classes[ckey] = model
            counters = meta.get("counters", {})
            self.trained = int(counters.get("trained", 0))
            self.served = int(counters.get("served", 0))
            self.refused_cold = int(counters.get("refused_cold", 0))
            self.refused_uncertain = int(counters.get("refused_uncertain", 0))
            self.refused_refresh = int(counters.get("refused_refresh", 0))
            self.neglected_bound = float(counters.get("neglected_bound", 0.0))
            self.disagreement_sum = float(counters.get("disagreement_sum", 0.0))
            self.served_by_order = {
                int(k): int(v)
                for k, v in counters.get("served_by_order", {}).items()
            }
