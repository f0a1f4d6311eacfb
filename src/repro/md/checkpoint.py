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

This module is the container and nothing else. A `Checkpoint` is the
core block every run has — coordinates, velocities and time at a
consistent integer step, the system identity, the energy history up to
that step, the scheduler's reference monomer — plus named *sections*,
each a ``(JSON meta, {name: ndarray})`` pair that its owner writes and
checks through ``state_dict() -> (meta, arrays)`` / ``load_state(meta,
arrays)``. The writer folds a section's meta into the one ``meta`` JSON
and its arrays under ``"<section>.<name>"`` without knowing what any
section is; the reader splits them back and rejects an array no declared
section claims. The step engine (`repro.md.scheduler.AsyncCoordinator`)
is the one writer and the one resume validator — `run_aimd` and the
service go through it — and a new stateful feature adds a section through
its owner, never a field here. There is one checksum, over the whole
payload: a reader that rejects the file on any mismatch and falls back
to the previous rotation would gain nothing from finer ones. There is
one format version, the one the writer stamps: a file of any other is
refused, naming its version (a version-4 file, whose fragment records
still carry Schwarz reference geometries, among them: screening is a
function of the current geometry and is not checkpointed).

What a run carries besides its phase-space point — held forces,
per-fragment warm-start densities, the surrogate's training windows, a
thermostat's noise stream — rides in its owners' sections, written at
a cut where every owner's state is exactly the cut's, so a resumed run
is bitwise the uninterrupted one.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..trace import current

#: file-format identity: readers refuse anything else
CHECKPOINT_MAGIC = "repro-aimd-checkpoint"
#: the core block plus named sections; the one version read or written
CHECKPOINT_VERSION = 5
#: joins a section's name to its arrays' names in the archive; a section
#: name may not contain it (an array name may)
SECTION_SEP = "."
_CORE_ARRAYS = ("coords", "velocities", "times_fs", "potential", "kinetic")


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
    #: scheduler reference monomer (preserved so a resumed async run
    #: replays the same task priority order)
    reference: int | None = None
    #: everything else a run must carry across the cut, by owner:
    #: ``name -> (JSON-serializable meta, {array name: ndarray})``
    sections: dict[str, tuple[dict, dict]] = field(default_factory=dict)


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


def write_checkpoint(path: str | Path, ckpt: Checkpoint, keep: int = 1,
                     fault_plan=None) -> None:
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

    Emits a ``checkpoint.write`` instant.
    """
    meta = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "step": int(ckpt.step),
        "time_fs": float(ckpt.time_fs),
        "symbols": list(ckpt.symbols),
        "charge": int(ckpt.charge),
        "reference": ckpt.reference,
        "sections": {name: m for name, (m, _) in ckpt.sections.items()},
    }
    arrays: dict[str, np.ndarray] = {
        name: np.asarray(getattr(ckpt, name), dtype=float)
        for name in _CORE_ARRAYS
    }
    arrays["meta"] = np.array(json.dumps(meta))
    for section, (_, section_arrays) in ckpt.sections.items():
        if SECTION_SEP in section:
            raise ValueError(
                f"checkpoint section name {section!r} contains "
                f"{SECTION_SEP!r}"
            )
        for name, value in section_arrays.items():
            key = f"{section}{SECTION_SEP}{name}"
            arrays[key] = np.asarray(value)
            if arrays[key].dtype.hasobject:  # would be pickled: unreadable
                raise ValueError(f"checkpoint array {key} has object dtype")
    arrays["checksum"] = np.array(_payload_checksum(arrays))
    path = Path(path)
    _rotate_checkpoints(path, keep)
    atomic_savez(path, **arrays)
    if tracer := current():
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


def _split_sections(meta: dict, payload: dict, path: Path) -> dict:
    """Undo the writer's fold: ``name -> (meta, arrays)`` per section."""
    sections = {name: (m, {}) for name, m in meta.get("sections", {}).items()}
    for key, array in payload.items():
        if key in _CORE_ARRAYS or key == "meta":
            continue
        section, _, name = key.partition(SECTION_SEP)
        if not name or section not in sections:
            raise CheckpointError(
                f"checkpoint {path}: array {key!r} belongs to no "
                "declared section"
            )
        sections[section][1][name] = array
    return sections


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
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}; this build "
            f"reads version {CHECKPOINT_VERSION} only"
        )
    sections = _split_sections(meta, payload, path)
    missing = [k for k in _CORE_ARRAYS if k not in payload]
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
        reference=meta.get("reference"),
        sections=sections,
    )


def read_checkpoint_with_fallback(
    path: str | Path, mol=None,
) -> tuple[Checkpoint, Path]:
    """Load the newest valid checkpoint in ``path``'s rotation chain.

    Tries ``path`` first, then every existing ``path.1``, ``path.2``,
    ... (the copies `write_checkpoint` rotates with ``keep > 1``),
    newest first, gaps in the numbering included.  The
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
    # every rotation that exists, in index order: a kill between two of
    # `_rotate_checkpoints`' renames leaves a gap (``path``, ``path.2``,
    # no ``path.1``), and the copy behind it is as good as any
    prefix = f"{primary.name}."
    try:
        names = os.listdir(primary.parent)
    except OSError:
        names = []
    indices = sorted(
        int(name[len(prefix):]) for name in names
        if name.startswith(prefix) and name[len(prefix):].isdecimal()
    )
    candidates = [primary] + [rotation_path(primary, i) for i in indices]
    failures: list[tuple[Path, str]] = []
    for cand in candidates:
        try:
            ckpt = read_checkpoint(cand, mol=mol)
        except CheckpointError as err:
            failures.append((cand, str(err)))
            continue
        if failures and (tracer := current()):
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
