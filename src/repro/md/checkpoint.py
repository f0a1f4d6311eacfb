"""Crash-safe checkpoint/resume for AIMD trajectories.

A multi-hour trajectory over thousands of fragment solves must survive a
mid-run kill (node loss, scheduler preemption, OOM) without losing the
whole run.  This module provides the persistence layer:

* **Versioned** — every file carries a magic string and a format
  version; readers reject files they do not understand instead of
  mis-parsing them.
* **Checksummed** — a SHA-256 digest over every payload array is stored
  in the file and re-verified on load, so torn or bit-rotted files fail
  loudly as `CheckpointError`, never as silently-wrong dynamics.
* **Atomically written** — the payload is serialized in memory, written
  to a temporary file in the target directory, fsynced, and
  ``os.replace``d over the destination.  A kill at any instant leaves
  either the previous checkpoint or the new one, never a torn file.
* **Rotated with last-good fallback** — with ``keep > 1``,
  `write_checkpoint` shifts prior checkpoints to ``path.1``,
  ``path.2``, ... before writing the new primary, and
  `read_checkpoint_with_fallback` walks that chain newest-first when
  the primary fails validation (emitting a ``ckpt.fallback`` tracer
  instant), so even a checkpoint corrupted *after* its atomic write —
  bit rot, a torn copy through a non-atomic transport — costs one
  checkpoint interval of progress, not the run.

This module is the file format and nothing else. There is one writer —
the step engine (`repro.md.scheduler.AsyncCoordinator`) cuts a
checkpoint at a retired, replan-aligned step, with or without a barrier
— and one resume validator, the engine's constructor; `run_aimd` and the
service go through both.

A `Checkpoint` carries everything needed for *exact* continuation:
coordinates, velocities, and time at a consistent integer step, the
per-step energy history up to that step (and the full frame history
when the run records frames, as `run_aimd` does), thermostat state
including its RNG stream, the fault-tolerance `DriverReport` counters
accumulated so far, and — for multiple-time-step runs — every slow
tier's held state (held forces and extrapolation history; see
`repro.md.mts`), which cannot be recomputed from the resumed
coordinates alone and is what lets a cut land inside an outer cycle.
With the engine's deterministic-reduction mode the resumed trajectory
is bitwise identical to an uninterrupted one.

The SCF warm-start `GuessCache` (`repro.calculators`) is deliberately
**not** part of a checkpoint: cached densities are pure accelerators, so
a resumed run restarts from cold guesses and only pays extra SCF
iterations. This is also what keeps ``--deterministic`` resumes bitwise
exact — deterministic mode disables warm starts entirely (a warm-started
density differs from a cold-started one at the convergence threshold,
and a resume necessarily loses the cache), so an uninterrupted and a
resumed deterministic run perform identical arithmetic.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: file-format identity: readers refuse anything else
CHECKPOINT_MAGIC = "repro-aimd-checkpoint"
#: version 2 added the optional multiple-time-step (r-RESPA) block:
#: an ``mts`` metadata dict plus held slow-tier force arrays. Version 3
#: added two more optional blocks: the per-tier MTS ladder's second
#: (trimer) slow tier, and the online-surrogate training state (a
#: ``surrogate`` metadata dict plus per-class training-window arrays).
#: Version-1/2 files remain readable (the blocks are simply absent), and
#: runs that use none of the optional features still write files whose
#: layout matches the version-1 original except for the version number.
CHECKPOINT_VERSION = 3
CHECKPOINT_READABLE_VERSIONS = (1, 2, 3)


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupt, incompatible, or mismatched.

    Raised on bad magic/version, checksum failure, missing payload
    arrays, malformed containers, and molecule mismatch on resume.
    """


@dataclass
class Checkpoint:
    """One consistent snapshot of a running AIMD trajectory."""

    #: integer time step the snapshot is taken at (between steps)
    step: int
    time_fs: float
    coords: np.ndarray
    velocities: np.ndarray
    #: identity of the system, validated on resume
    symbols: tuple[str, ...]
    charge: int = 0
    #: per-step energy history for steps <= ``step``
    times_fs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    potential: np.ndarray = field(default_factory=lambda: np.zeros(0))
    kinetic: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: full frame history (runs that record frames, i.e. `run_aimd`)
    frame_coords: np.ndarray | None = None
    frame_velocities: np.ndarray | None = None
    #: opaque thermostat state (incl. RNG stream), JSON-serializable
    thermostat: dict | None = None
    #: fault-tolerance counters accumulated before the snapshot
    driver: dict | None = None
    #: scheduler reference monomer (preserved so a resumed async run
    #: replays the same task priority order)
    reference: int | None = None
    #: multiple-time-step (r-RESPA) integrator state: the
    #: `repro.md.mts.SlowTierState` metadata (k, extrapolate, boundary
    #: steps, slow energies) — ``None`` for single-timescale runs
    mts: dict | None = None
    #: held slow-tier forces at the current / previous outer boundary
    #: (the extrapolation history); cannot be recomputed on resume
    mts_slow_forces: np.ndarray | None = None
    mts_slow_forces_prev: np.ndarray | None = None
    #: per-tier ladder: the trimer tier's held forces when the run
    #: integrates dimers and trimers on separate timescales (the dimer
    #: tier reuses the ``mts_slow_*`` slots above)
    mts_slow3_forces: np.ndarray | None = None
    mts_slow3_forces_prev: np.ndarray | None = None
    #: online-surrogate state: `repro.surrogate.SurrogateManager`
    #: metadata (config, counters, class directory) plus the per-class
    #: training windows in ``surrogate_arrays`` — ``None`` when the run
    #: carries no surrogate
    surrogate: dict | None = None
    surrogate_arrays: dict | None = None
    #: forces of the every-step tier at ``step`` (surrogate runs only):
    #: the resumed run must NOT evaluate them again, because that
    #: evaluation would mutate the surrogate's training windows and
    #: serve streaks a second time and break bitwise continuation — so
    #: the forces travel with the state
    forces: np.ndarray | None = None
    version: int = CHECKPOINT_VERSION


# --------------------------------------------------------------------------
# atomic write
# --------------------------------------------------------------------------

def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp + fsync + os.replace).

    The temporary file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename — atomic on POSIX.  The
    directory entry is fsynced afterwards so the rename itself survives
    a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        dirfd = os.open(path.parent if str(path.parent) else ".", os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)
    except OSError:
        # platform without directory fsync; the file itself is durable
        pass


def atomic_savez(path: str | Path, **arrays) -> None:
    """``np.savez`` through `atomic_write_bytes` (exact path, no torn file)."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    atomic_write_bytes(path, buf.getvalue())


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _payload_checksum(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over every payload array in canonical (sorted-name) order."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def rotation_path(path: str | Path, index: int) -> Path:
    """The ``index``-th rotated copy of ``path`` (index 0 is ``path``)."""
    path = Path(path)
    return path if index == 0 else path.with_name(f"{path.name}.{index}")


def _rotate_checkpoints(path: Path, keep: int) -> None:
    """Shift ``path`` -> ``path.1`` -> ... keeping ``keep`` copies total.

    Each shift is a same-directory ``os.replace`` (atomic).  Between the
    final shift and the new primary's write the primary name is briefly
    absent; `read_checkpoint_with_fallback` covers that window by
    falling back to ``path.1``.
    """
    if keep <= 1 or not path.exists():
        return
    for i in range(keep - 2, 0, -1):
        src = rotation_path(path, i)
        if src.exists():
            os.replace(src, rotation_path(path, i + 1))
    os.replace(path, rotation_path(path, 1))


def write_checkpoint(path: str | Path, ckpt: Checkpoint, tracer=None,
                     keep: int = 1, fault_plan=None) -> None:
    """Serialize and atomically write a checkpoint.

    With ``keep > 1``, previously-written checkpoints are rotated to
    ``path.1`` ... ``path.{keep-1}`` first, so the last ``keep``
    snapshots survive on disk for `read_checkpoint_with_fallback`.

    ``fault_plan`` (a `repro.faults.FaultPlan`) is the checkpoint-site
    chaos hook: after the write, the plan is consulted for a scheduled
    ``ckpt_torn``/``ckpt_bitflip`` fault at this step, and the freshly
    written primary is damaged accordingly (rotations are never
    touched — they model corruption of the *latest* file, which is
    exactly what the fallback chain exists for).  Emits ``fault.inject``
    when it fires.

    Emits a ``checkpoint.write`` tracer instant when a tracer is given.
    """
    meta = {
        "magic": CHECKPOINT_MAGIC,
        "version": int(ckpt.version),
        "step": int(ckpt.step),
        "time_fs": float(ckpt.time_fs),
        "symbols": list(ckpt.symbols),
        "charge": int(ckpt.charge),
        "thermostat": ckpt.thermostat,
        "driver": ckpt.driver,
        "reference": ckpt.reference,
    }
    if ckpt.mts is not None:
        # only MTS runs carry the key, so plain checkpoints stay
        # byte-identical to the version-1 layout
        meta["mts"] = ckpt.mts
    if ckpt.surrogate is not None:
        # likewise only surrogate runs carry the v3 surrogate block
        meta["surrogate"] = ckpt.surrogate
    arrays: dict[str, np.ndarray] = {
        "coords": np.asarray(ckpt.coords, dtype=float),
        "velocities": np.asarray(ckpt.velocities, dtype=float),
        "times_fs": np.asarray(ckpt.times_fs, dtype=float),
        "potential": np.asarray(ckpt.potential, dtype=float),
        "kinetic": np.asarray(ckpt.kinetic, dtype=float),
        "meta": np.array(json.dumps(meta)),
    }
    for name in ("mts_slow_forces", "mts_slow_forces_prev",
                 "mts_slow3_forces", "mts_slow3_forces_prev", "forces"):
        value = getattr(ckpt, name)
        if value is not None:
            arrays[name] = np.asarray(value, dtype=float)
    if ckpt.surrogate_arrays:
        for name, value in ckpt.surrogate_arrays.items():
            if not name.startswith("surrogate_"):
                raise ValueError(
                    f"surrogate payload array {name!r} must use the "
                    "'surrogate_' namespace"
                )
            arrays[name] = np.asarray(value, dtype=float)
    natoms = arrays["coords"].shape[0]
    if ckpt.frame_coords is not None and len(ckpt.frame_coords):
        arrays["frame_coords"] = np.asarray(
            ckpt.frame_coords, dtype=float
        ).reshape(-1, natoms, 3)
        arrays["frame_velocities"] = np.asarray(
            ckpt.frame_velocities, dtype=float
        ).reshape(-1, natoms, 3)
    arrays["checksum"] = np.array(_payload_checksum(arrays))
    path = Path(path)
    _rotate_checkpoints(path, keep)
    atomic_savez(path, **arrays)
    if tracer:
        tracer.instant(
            "checkpoint.write", cat="checkpoint",
            step=int(ckpt.step), path=str(path), keep=int(keep),
        )
    if fault_plan is not None:
        spec = fault_plan.decide("checkpoint", step=int(ckpt.step))
        if spec is not None:
            from ..faults.inject import corrupt_checkpoint

            detail = corrupt_checkpoint(
                path, spec.kind,
                seed=fault_plan.derive_seed(f"ckpt:{int(ckpt.step)}"),
            )
            if tracer:
                tracer.instant(
                    "fault.inject", cat="fault", site="checkpoint",
                    step=int(ckpt.step), **detail,
                )


def read_checkpoint(path: str | Path, mol=None) -> Checkpoint:
    """Load and validate a checkpoint.

    Args:
        path: file written by `write_checkpoint`.
        mol: optional `Molecule`; when given, the checkpoint's system
            identity (symbols, charge, atom count) must match.

    Raises:
        CheckpointError: on any corruption, version, or identity
            mismatch — the caller never sees a half-trusted state.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            payload = {name: data[name] for name in data.files}
    except Exception as err:
        raise CheckpointError(
            f"unreadable checkpoint {path}: {err!r}"
        ) from err

    stored_sum = payload.pop("checksum", None)
    if stored_sum is None:
        raise CheckpointError(f"checkpoint {path} carries no checksum")
    actual = _payload_checksum(payload)
    if str(stored_sum) != actual:
        raise CheckpointError(
            f"checkpoint {path} failed checksum verification "
            f"(stored {str(stored_sum)[:12]}..., computed {actual[:12]}...)"
        )

    try:
        meta = json.loads(str(payload["meta"]))
    except (KeyError, json.JSONDecodeError) as err:
        raise CheckpointError(
            f"checkpoint {path} has a malformed metadata block"
        ) from err
    if meta.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path} is not a repro AIMD checkpoint "
            f"(magic={meta.get('magic')!r})"
        )
    version = meta.get("version")
    if version not in CHECKPOINT_READABLE_VERSIONS:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}; "
            f"this build reads versions {CHECKPOINT_READABLE_VERSIONS}"
        )
    required = ("coords", "velocities", "times_fs", "potential", "kinetic")
    missing = [k for k in required if k not in payload]
    if missing:
        raise CheckpointError(
            f"checkpoint {path} is missing arrays: {missing}"
        )
    coords = payload["coords"]
    velocities = payload["velocities"]
    if coords.shape != velocities.shape or coords.ndim != 2 \
            or coords.shape[1] != 3:
        raise CheckpointError(
            f"checkpoint {path} has inconsistent state shapes "
            f"coords{coords.shape} velocities{velocities.shape}"
        )
    symbols = tuple(meta.get("symbols", ()))
    if len(symbols) != coords.shape[0]:
        raise CheckpointError(
            f"checkpoint {path}: {len(symbols)} symbols for "
            f"{coords.shape[0]} coordinate rows"
        )
    if mol is not None:
        if tuple(mol.symbols) != symbols or int(mol.charge) != int(
            meta.get("charge", 0)
        ):
            raise CheckpointError(
                f"checkpoint {path} was written for "
                f"{''.join(symbols)} (charge {meta.get('charge', 0)}), "
                f"not {''.join(mol.symbols)} (charge {mol.charge}) — "
                "refusing to resume a different system"
            )
    return Checkpoint(
        step=int(meta["step"]),
        time_fs=float(meta["time_fs"]),
        coords=coords,
        velocities=velocities,
        symbols=symbols,
        charge=int(meta.get("charge", 0)),
        times_fs=payload["times_fs"],
        potential=payload["potential"],
        kinetic=payload["kinetic"],
        frame_coords=payload.get("frame_coords"),
        frame_velocities=payload.get("frame_velocities"),
        thermostat=meta.get("thermostat"),
        driver=meta.get("driver"),
        reference=meta.get("reference"),
        mts=meta.get("mts"),
        mts_slow_forces=payload.get("mts_slow_forces"),
        mts_slow_forces_prev=payload.get("mts_slow_forces_prev"),
        mts_slow3_forces=payload.get("mts_slow3_forces"),
        mts_slow3_forces_prev=payload.get("mts_slow3_forces_prev"),
        surrogate=meta.get("surrogate"),
        forces=payload.get("forces"),
        surrogate_arrays={
            name: array
            for name, array in payload.items()
            if name.startswith("surrogate_")
        } or None,
        version=int(version),
    )


def read_checkpoint_with_fallback(
    path: str | Path, mol=None, tracer=None,
) -> tuple[Checkpoint, Path]:
    """Load the newest valid checkpoint in ``path``'s rotation chain.

    Tries ``path`` first, then ``path.1``, ``path.2``, ... (the copies
    `write_checkpoint` rotates with ``keep > 1``), newest first.  The
    first copy that passes full validation wins; if that is not the
    primary, a ``ckpt.fallback`` tracer instant records which copy was
    used and why each newer one was rejected.  A missing primary is
    treated like a corrupt one — it falls back too, which also covers
    the instant between rotation and the new primary's atomic write.

    Returns:
        ``(checkpoint, used_path)``.

    Raises:
        CheckpointError: when no copy in the chain validates; the
            message enumerates every candidate and its failure.
    """
    primary = Path(path)
    candidates = [primary]
    i = 1
    while rotation_path(primary, i).exists():
        candidates.append(rotation_path(primary, i))
        i += 1
    failures: list[tuple[Path, str]] = []
    for cand in candidates:
        try:
            ckpt = read_checkpoint(cand, mol=mol)
        except CheckpointError as err:
            failures.append((cand, str(err)))
            continue
        if failures and tracer:
            tracer.instant(
                "ckpt.fallback", cat="checkpoint", step=int(ckpt.step),
                path=str(cand),
                rejected=[str(p) for p, _ in failures],
                reasons=[msg for _, msg in failures],
            )
        return ckpt, cand
    detail = "; ".join(f"{p}: {msg}" for p, msg in failures)
    raise CheckpointError(
        f"no valid checkpoint in rotation chain of {primary} "
        f"({len(failures)} candidate(s) rejected): {detail}"
    )
