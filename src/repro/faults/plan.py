"""Typed, seeded fault schedules with an audit trail.

A `FaultPlan` is a declarative list of `FaultSpec` events plus a seed.
Whether a given spec fires at a given *site* (a task evaluation, a
checkpoint write) is a **pure function** of the plan's seed and the
site's coordinates — step, fragment key, atom count, attempt number —
computed by hashing, never by consuming mutable RNG state.  That purity
is the load-bearing property: the plan is pickled into every worker
process alongside the calculator, workers come and go (crash, hang, get
rebuilt), tasks are retried in racy orders, and yet every copy of the
plan reaches the identical verdict for the identical event.  A chaos
run is therefore replayable: same plan, same trajectory of injected
faults, same DriverReport counters.

The same hashing discipline hands out *derived seeds*
(`FaultPlan.derive_seed`) for the places that do need an RNG stream —
retry-backoff jitter in the driver and payload corruption offsets in
`repro.faults.inject.corrupt_checkpoint` — so every stochastic
ingredient of a chaos campaign hangs off the one top-level seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

#: faults injected at task-evaluation sites (worker side)
TASK_FAULT_KINDS = (
    "crash",        # os._exit: the worker process dies (pool rebuild)
    "hang",         # sleep past the task deadline (timeout detection)
    "transient",    # raise InjectedFault (plain retry path)
    "scf_fail",     # raise SCFConvergenceError (recovery-exhausted model)
    "nan_forces",   # finite energy, all-NaN gradient (divergence sentinel)
    "cache_poison", # NaN-fill the warm-start densities the task carries
)

#: faults injected at checkpoint-write sites (coordinator side)
CKPT_FAULT_KINDS = (
    "ckpt_torn",     # truncate the just-written file (torn write)
    "ckpt_bitflip",  # flip one payload bit (silent media corruption)
)

FAULT_KINDS = TASK_FAULT_KINDS + CKPT_FAULT_KINDS

#: injection sites and the kinds valid at each
SITE_KINDS = {
    "task": TASK_FAULT_KINDS,
    "checkpoint": CKPT_FAULT_KINDS,
}


def _u64(*fields) -> int:
    """Stable 64-bit hash of a heterogeneous field tuple."""
    h = hashlib.sha256()
    for f in fields:
        h.update(repr(f).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "big")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault event (or class of events).

    Match fields are conjunctive; ``None`` matches anything.  With
    ``attempts=k`` the fault fires while ``attempt < k``, so a task hit
    by a ``transient`` spec with ``attempts=2`` fails twice and
    succeeds on its third dispatch.  ``probability`` thins the matches
    stochastically but deterministically: the keep/drop draw is a hash
    of the plan seed and the event coordinates, so it replays.
    """

    kind: str
    #: MD step the fault targets (None: every step)
    step: int | None = None
    #: fragment key the fault targets, e.g. ``(0,)`` or ``(1, 2)``
    key: tuple[int, ...] | None = None
    #: fragment atom count the fault targets (incl. cap hydrogens)
    natoms: int | None = None
    #: fire while attempt < attempts (task sites only)
    attempts: int = 1
    #: probability a matching event actually fires (seeded, replayable)
    probability: float = 1.0
    #: sleep duration for ``hang`` faults (seconds)
    hang_s: float = 3600.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.key is not None:
            object.__setattr__(self, "key", tuple(int(k) for k in self.key))
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} not in [0, 1]")

    @property
    def site(self) -> str:
        """The injection site this spec belongs to."""
        return "checkpoint" if self.kind in CKPT_FAULT_KINDS else "task"

    def matches(self, *, step: int, key=None, natoms=None,
                attempt: int = 0) -> bool:
        """Pure match predicate against one event's coordinates."""
        if self.step is not None and step != self.step:
            return False
        if self.key is not None and (
            key is None or tuple(key) != self.key
        ):
            return False
        if self.natoms is not None and natoms != self.natoms:
            return False
        return attempt < self.attempts

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.step is not None:
            d["step"] = int(self.step)
        if self.key is not None:
            d["key"] = list(self.key)
        if self.natoms is not None:
            d["natoms"] = int(self.natoms)
        if self.attempts != 1:
            d["attempts"] = int(self.attempts)
        if self.probability != 1.0:
            d["probability"] = float(self.probability)
        if self.hang_s != 3600.0:
            d["hang_s"] = float(self.hang_s)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        known = {
            "kind", "step", "key", "natoms", "attempts", "probability",
            "hang_s",
        }
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec fields: {sorted(unknown)}")
        kw = dict(d)
        if "key" in kw and kw["key"] is not None:
            kw["key"] = tuple(int(k) for k in kw["key"])
        return cls(**kw)


@dataclass
class FaultRecord:
    """One injection decision that fired, for the audit trail."""

    site: str
    kind: str
    step: int
    key: tuple[int, ...] | None
    natoms: int | None
    attempt: int
    spec_index: int
    #: the seeded uniform draw that let the event through (1.0 means the
    #: spec was unconditional)
    draw: float

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "step": self.step,
            "key": list(self.key) if self.key is not None else None,
            "natoms": self.natoms,
            "attempt": self.attempt,
            "spec_index": self.spec_index,
            "draw": self.draw,
        }


@dataclass
class FaultPlan:
    """A seeded schedule of fault events plus its injection audit.

    `decide` is the single choke point every injection hook calls.  It
    is side-effect-free except for appending to ``audit`` on the calling
    process — worker processes each audit the decisions *they* evaluate;
    the authoritative cross-process record of what actually fired is the
    driver's tracer events and `DriverReport` counters, which the
    coordinator process owns.
    """

    seed: int = 0
    specs: list[FaultSpec] = field(default_factory=list)
    #: decisions that fired on *this* process (not serialized)
    audit: list[FaultRecord] = field(default_factory=list)

    # -- seeded pure draws -------------------------------------------------
    def uniform(self, *fields) -> float:
        """Deterministic U[0,1) draw keyed by the seed and ``fields``."""
        return _u64(int(self.seed), *fields) / 2.0 ** 64

    def derive_seed(self, label: str) -> int:
        """A 63-bit child seed for an RNG stream named ``label``.

        Used to seed the driver's retry-jitter RNG, checkpoint
        corruption offsets, and simulator failure streams off the one
        plan seed without stream collisions.
        """
        return _u64(int(self.seed), "derive", str(label)) >> 1

    # -- the decision ------------------------------------------------------
    def decide(self, site: str, *, step: int, key=None, natoms=None,
               attempt: int = 0) -> FaultSpec | None:
        """First spec that fires for this event, or None.

        Pure in (plan seed, specs, event coordinates): any copy of this
        plan, in any process, at any time, returns the same spec for
        the same event.
        """
        if site not in SITE_KINDS:
            raise ValueError(f"unknown fault site {site!r}")
        key = tuple(key) if key is not None else None
        for i, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if not spec.matches(step=step, key=key, natoms=natoms,
                                attempt=attempt):
                continue
            draw = 1.0
            if spec.probability < 1.0:
                draw = self.uniform(site, i, step, key, natoms, attempt)
                if draw >= spec.probability:
                    continue
            self.audit.append(FaultRecord(
                site=site, kind=spec.kind, step=int(step), key=key,
                natoms=natoms, attempt=int(attempt), spec_index=i,
                draw=draw,
            ))
            return spec
        return None

    # -- serialization -----------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": int(self.seed),
                "specs": [s.to_dict() for s in self.specs],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"fault plan is not valid JSON: {err}") from err
        if not isinstance(d, dict) or "specs" not in d:
            raise ValueError(
                "fault plan must be an object with a 'specs' list"
            )
        return cls(
            seed=int(d.get("seed", 0)),
            specs=[FaultSpec.from_dict(s) for s in d["specs"]],
        )

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    # -- bookkeeping -------------------------------------------------------
    def __getstate__(self):
        # the audit is per-process by design; a pickled copy shipped to
        # a worker starts its own trail
        state = self.__dict__.copy()
        state["audit"] = []
        return state

    def audit_summary(self) -> dict[str, int]:
        """Count of fired injections on this process, by kind."""
        out: dict[str, int] = {}
        for rec in self.audit:
            out[rec.kind] = out.get(rec.kind, 0) + 1
        return out
