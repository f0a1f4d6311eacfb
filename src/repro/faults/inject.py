"""Process-level injection hooks driven by a `FaultPlan`.

`FaultPlanCalculator` is the task-site hook: it wraps any calculator
(surrogate or QM), consults the plan on every member of each stack a
driver hands it, and either misbehaves in the scheduled way or hands
the stack on to the wrapped calculator. It is the repository's only
fault injector: one wrapper, many typed faults, targeted by step /
fragment key / atom count. The simplest use — "every 6-atom fragment
fails its first two attempts" — is a one-spec plan,
``FaultSpec(kind="transient", natoms=6, attempts=2)``.

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

import numpy as np

from ..calculators import CalculatorWrapper, stacking
from ..scf.rhf import SCFConvergenceError
from .plan import CKPT_FAULT_KINDS, FaultPlan, FaultSpec, _u64


class InjectedFault(RuntimeError):
    """A scheduled transient fault from a `FaultPlan` (retryable)."""


class FaultPlanCalculator(CalculatorWrapper):
    """Wrap a calculator with plan-scheduled fault injection.

    Every member of a stack is a task, and its molecule carries the
    task's MD step and retry attempt (`Molecule.step` / ``attempt``, put
    on by the step engine and the driver), so the plan can target "the
    dimer (1, 2) at step 3, first two attempts" through the drivers' one
    call. The plan is decided for every member first — a raising fault
    raises before any member is evaluated; ``cache_poison`` corrupts the
    fragment record the member carries, ``nan_forces`` its result — and
    the stack then goes to the wrapped calculator in one call, so a
    chaos run takes the path a production run takes. The wrapped
    calculator is taken as a driver takes one
    (`repro.calculators.stacking`); every other attribute —
    ``guess_cache``, ``tracer``, ``workspace``, statistics — is its
    (`repro.calculators.CalculatorWrapper`), so the drivers' warm-start
    and tracing attachments see the inner calculator's state.

    The wrapper is pickled to worker processes with its plan; decisions
    are pure functions of the plan seed and the event coordinates, so
    every worker's copy agrees with the parent's (see
    `repro.faults.plan`).
    """

    _OWN = ("inner", "plan")

    def __init__(self, inner, plan: FaultPlan):
        super().__init__(stacking(inner))
        object.__setattr__(self, "plan", plan)

    def energy_gradient(self, mol):
        """`energy_gradients` of one molecule."""
        return self.energy_gradients([mol])[0]

    def energy_gradients(self, mols):
        """Decide the plan for every member, then evaluate the stack."""
        nan = []
        for i, mol in enumerate(mols):
            spec = self.plan.decide(
                "task", step=mol.step, key=getattr(mol, "frag_key", None),
                natoms=mol.natoms, attempt=mol.attempt,
            )
            if spec is None:
                continue
            if spec.kind == "nan_forces":
                nan.append(i)
            elif spec.kind == "cache_poison":
                self._poison_record(mol)
            else:
                self._raise(spec, mol)
        results = list(self.inner.energy_gradients(mols))
        for i in nan:
            e, g = results[i]
            results[i] = e, np.full_like(np.asarray(g, dtype=float), np.nan)
        return results

    @staticmethod
    def _raise(spec: FaultSpec, mol) -> None:
        """The failure ``spec`` schedules at ``mol``: a dead worker, a
        hang, a typed SCF failure or a transient fault."""
        where = (
            f"step {mol.step}, fragment {getattr(mol, 'frag_key', None)} "
            f"({mol.natoms} atoms), attempt {mol.attempt}"
        )
        if spec.kind == "crash":
            os._exit(13)
        if spec.kind == "hang":
            time.sleep(spec.hang_s)
            raise InjectedFault(f"planned hang elapsed: {where}")
        if spec.kind == "scf_fail":
            raise SCFConvergenceError(f"planned SCF non-convergence: {where}")
        raise InjectedFault(f"planned transient fault: {where}")

    @staticmethod
    def _poison_record(mol) -> None:
        """NaN-fill the warm-start densities the fragment's record carries
        (a new record on the molecule, as any evaluation leaves one).

        The SCF layer discards a non-finite ``dm0``, so a poisoned
        history must cost cold-start iterations — never wrong energies;
        the chaos tests pin exactly that.
        """
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
