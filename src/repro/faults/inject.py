"""Process-level injection hooks driven by a `FaultPlan`.

`FaultPlanCalculator` is the task-site hook: it wraps any calculator
(surrogate or QM), consults the plan on every evaluation, and either
misbehaves in the scheduled way or delegates to the wrapped calculator.
It is the repository's only fault injector: one wrapper, many typed
faults, targeted by step / fragment key / atom count. The simplest
use — "every 6-atom fragment fails its first two attempts" — is a
one-spec plan, ``FaultSpec(kind="transient", natoms=6, attempts=2)``.

`corrupt_checkpoint` is the checkpoint-site hook: it damages a
just-written checkpoint file the way real storage does — a torn
(truncated) write or a flipped bit — at a seed-determined location, so
the rotation/fallback machinery in `repro.md.checkpoint` can be
soak-tested reproducibly.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import ClassVar

from .plan import CKPT_FAULT_KINDS, FaultPlan, FaultSpec, _u64


class InjectedFault(RuntimeError):
    """A scheduled transient fault from a `FaultPlan` (retryable)."""


class FaultPlanCalculator:
    """Wrap a calculator with plan-scheduled fault injection.

    The drivers pass ``attempt`` and ``step`` through (advertised by the
    ``accepts_attempt`` / ``accepts_step`` class flags), so the plan can
    target "the dimer (1, 2) at step 3, first two attempts".  Every
    other attribute access — ``guess_cache``, ``tracer``, ``workspace``,
    statistics — is delegated to the wrapped calculator, so the drivers'
    warm-start and tracing attachment protocols see the inner
    calculator's state, not the wrapper's. ``cache_poison`` corrupts the
    fragment record the task carries.

    The wrapper is pickled to worker processes with its plan; decisions
    are pure functions of the plan seed and the event coordinates, so
    every worker's copy agrees with the parent's (see
    `repro.faults.plan`).
    """

    accepts_attempt: ClassVar[bool] = True
    accepts_step: ClassVar[bool] = True

    _OWN = ("inner", "plan")

    def __init__(self, inner, plan: FaultPlan):
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "plan", plan)

    def __getattr__(self, name):
        # only reached when normal lookup fails (e.g. mid-unpickle);
        # guard the own-slots so a missing 'inner' can't recurse
        if name in FaultPlanCalculator._OWN:
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __setattr__(self, name, value):
        # drivers attach caches/tracers onto "the calculator"; route
        # those onto the wrapped instance where the solvers look
        if name in FaultPlanCalculator._OWN:
            object.__setattr__(self, name, value)
        else:
            setattr(self.inner, name, value)

    def energy_gradient(self, mol, attempt: int = 0, step: int = 0):
        key = getattr(mol, "frag_key", None)
        natoms = getattr(mol, "natoms", None)
        spec = self.plan.decide(
            "task", step=step, key=key, natoms=natoms, attempt=attempt
        )
        if spec is not None:
            return self._inject(spec, mol, attempt, step)
        return self.inner.energy_gradient(mol)

    def _inject(self, spec: FaultSpec, mol, attempt: int, step: int):
        where = (
            f"step {step}, fragment {getattr(mol, 'frag_key', None)} "
            f"({getattr(mol, 'natoms', '?')} atoms), attempt {attempt}"
        )
        if spec.kind == "crash":
            os._exit(13)
        if spec.kind == "hang":
            time.sleep(spec.hang_s)
            raise InjectedFault(f"planned hang elapsed: {where}")
        if spec.kind == "scf_fail":
            from ..scf.rhf import SCFConvergenceError

            raise SCFConvergenceError(f"planned SCF non-convergence: {where}")
        if spec.kind == "nan_forces":
            import numpy as np

            e, g = self.inner.energy_gradient(mol)
            return e, np.full_like(np.asarray(g, dtype=float), np.nan)
        if spec.kind == "cache_poison":
            self._poison_record(mol)
            return self.inner.energy_gradient(mol)
        raise InjectedFault(f"planned transient fault: {where}")

    @staticmethod
    def _poison_record(mol) -> None:
        """NaN-fill the warm-start densities the fragment's record carries
        (a new record on the molecule, as any evaluation leaves one).

        The SCF layer discards a non-finite ``dm0``, so a poisoned
        history must cost cold-start iterations — never wrong energies;
        the chaos tests pin exactly that.
        """
        import numpy as np

        record = getattr(mol, "record", None)
        if record is None or not record.densities:
            return  # nothing carried yet; the poisoning is a no-op
        mol.record = dataclasses.replace(record, densities=tuple(
            np.full_like(D, np.nan) for D in record.densities))


# --------------------------------------------------------------------------
# checkpoint-site corruption
# --------------------------------------------------------------------------

def corrupt_checkpoint(path, kind: str, seed: int = 0) -> dict:
    """Damage a checkpoint file the way failing storage does.

    ``ckpt_torn`` truncates the file at a seed-determined fraction of
    its length (modelling a write cut short by a node loss that somehow
    bypassed the atomic-rename discipline — e.g. a stale NFS view);
    ``ckpt_bitflip`` flips a single seed-determined bit (silent media
    corruption).  Either way the damaged file must fail
    `read_checkpoint`'s checksum/structure validation, which is what
    the rotation fallback path is for.

    Returns a small description dict for tracer events / audits.
    """
    if kind not in CKPT_FAULT_KINDS:
        raise ValueError(
            f"unknown checkpoint fault {kind!r}; known: {CKPT_FAULT_KINDS}"
        )
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    n = len(data)
    if n == 0:
        return {"kind": kind, "path": path, "nbytes": 0}
    if kind == "ckpt_torn":
        # keep 25-75% of the file: always enough to look like a file,
        # never enough to parse
        cut = max(1, int(n * (0.25 + 0.5 * (_u64(seed, "cut", n) / 2.0**64))))
        data = data[:cut]
        detail = {"kind": kind, "path": path, "nbytes": n, "cut": cut}
    else:
        # flip one bit somewhere past the zip local-file header so the
        # archive still opens and the damage lands in a payload array,
        # exercising the checksum (not merely the container parser)
        lo = min(256, n - 1)
        offset = lo + _u64(seed, "offset", n) % max(n - lo, 1)
        bit = _u64(seed, "bit", n) % 8
        data[offset] ^= 1 << bit
        detail = {
            "kind": kind, "path": path, "nbytes": n,
            "offset": int(offset), "bit": int(bit),
        }
    # deliberately NOT atomic: this models the failure the atomic writer
    # exists to prevent
    with open(path, "wb") as fh:
        fh.write(data)
    return detail
