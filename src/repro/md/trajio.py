"""Trajectory I/O: multi-frame XYZ with energy comments, and restarts.

`TrajectoryStreamWriter` makes torn-frame-safe incremental appends for
the trajectory service (`repro.serve`), where a reader may open the
file while a job is mid-write. Frames are appended with ``fsync``, then
a sidecar index (``<path>.idx``, written atomically) commits the new
byte count; `read_trajectory_stream` reads only committed bytes, so a
crash or a concurrently-writing job can never surface a torn frame to a
subscriber. `write_restart` writes a job's last phase-space point.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ..chem.molecule import Molecule
from ..chem.xyz import format_xyz
from .checkpoint import atomic_savez, atomic_write_bytes
from .trajectory import Trajectory


def _parse_frames(text: str, origin) -> tuple[Molecule, Trajectory]:
    from ..chem.xyz import parse_xyz

    lines = text.splitlines()
    traj = Trajectory()
    mol = None
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        n = int(lines[i].split()[0])
        block = "\n".join(lines[i : i + n + 2])
        frame = parse_xyz(block)
        comment = lines[i + 1].split()
        vals = {
            comment[k].rstrip("="): float(comment[k + 1])
            for k in range(0, len(comment) - 1, 2)
            if comment[k].endswith("=")
        }
        if mol is None:
            mol = frame
        traj.times_fs.append(vals.get("t", 0.0))
        traj.potential.append(vals.get("E_pot", 0.0))
        traj.kinetic.append(vals.get("E_kin", 0.0))
        traj.coords.append(frame.coords)
        i += n + 2
    if mol is None:
        raise ValueError(f"no frames found in {origin}")
    return mol, traj


class TrajectoryStreamWriter:
    """Torn-frame-safe incremental XYZ appends with a committed index.

    Frames are appended to the XYZ file and ``fsync``\\ ed; only then is
    the sidecar index (``<path>.idx``, a tiny JSON written atomically)
    advanced to the new byte count. A reader that honors the index
    (`read_trajectory_stream`) therefore never observes a partially
    written frame, no matter when the writing process is killed — the
    worst case is losing the single frame whose index commit had not
    landed yet.

    ``append=True`` reopens an existing stream (a resumed job): the file
    is first truncated back to the committed byte count, discarding any
    torn tail from the previous incarnation.
    """

    def __init__(self, path: str | Path, mol: Molecule,
                 append: bool = False) -> None:
        self.path = Path(path)
        self.index_path = self.path.with_name(self.path.name + ".idx")
        self.mol = mol
        if append and self.path.exists():
            committed, frames = self._read_index()
            with open(self.path, "r+b") as fh:
                fh.truncate(committed)
            self._bytes = committed
            self._frames = frames
        else:
            self._bytes = 0
            self._frames = 0
            self.path.write_bytes(b"")
            self._commit()
        self._fh = open(self.path, "ab")

    def _read_index(self) -> tuple[int, int]:
        try:
            idx = json.loads(self.index_path.read_text())
            committed = int(idx["bytes"])
            frames = int(idx["frames"])
        except (OSError, ValueError, KeyError):
            return 0, 0
        size = self.path.stat().st_size
        return min(committed, size), frames

    def _commit(self) -> None:
        atomic_write_bytes(
            self.index_path,
            json.dumps(
                {"version": 1, "bytes": self._bytes, "frames": self._frames}
            ).encode(),
        )

    @property
    def frames_committed(self) -> int:
        """Frames a stream reader is allowed to observe."""
        return self._frames

    def append_frame(self, time_fs: float, e_pot: float, e_kin: float,
                     coords: np.ndarray) -> None:
        """Append one frame and commit it to the index (fsync'd)."""
        chunk = format_xyz(
            self.mol.with_coords(coords),
            comment=(
                f"t= {time_fs:.6f} E_pot= {e_pot:.12f} E_kin= {e_kin:.12f}"
            ),
        ).encode()
        self._fh.write(chunk)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._bytes += len(chunk)
        self._frames += 1
        self._commit()

    def drop_frames_after(self, max_time_fs: float) -> int:
        """Discard committed frames with ``t > max_time_fs``.

        Used on resume: frames the previous incarnation streamed past
        the checkpoint cut are re-produced by the resumed dynamics, so
        the stale tail is cut off first. The shrunken index is committed
        *before* the file is rewritten — if the process dies in between,
        the index simply under-reports intact frames, which is safe.
        Returns the number of frames dropped.
        """
        text = self._committed_text()
        try:
            mol, traj = _parse_frames(text, self.path)
        except ValueError:
            return 0
        keep = [i for i, t in enumerate(traj.times_fs) if t <= max_time_fs]
        dropped = len(traj.times_fs) - len(keep)
        if not dropped:
            return 0
        chunks = []
        for i in keep:
            chunks.append(format_xyz(
                self.mol.with_coords(traj.coords[i]),
                comment=(
                    f"t= {traj.times_fs[i]:.6f} "
                    f"E_pot= {traj.potential[i]:.12f} "
                    f"E_kin= {traj.kinetic[i]:.12f}"
                ),
            ))
        data = "".join(chunks).encode()
        self._fh.close()
        self._bytes = len(data)
        self._frames = len(keep)
        self._commit()
        atomic_write_bytes(self.path, data)
        self._fh = open(self.path, "ab")
        return dropped

    def _committed_text(self) -> str:
        with open(self.path, "rb") as fh:
            return fh.read(self._bytes).decode()

    def close(self) -> None:
        """Close the underlying file handle (the index is already current)."""
        self._fh.close()

    def __enter__(self) -> TrajectoryStreamWriter:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trajectory_stream(path: str | Path) -> tuple[Molecule, Trajectory]:
    """Read the *committed* frames of a `TrajectoryStreamWriter` stream.

    Honors the sidecar index: bytes past the committed count (a frame
    mid-append, or a torn tail from a crash) are never parsed. Without
    an index the whole file is read.
    """
    path = Path(path)
    index_path = path.with_name(path.name + ".idx")
    committed = None
    if index_path.exists():
        try:
            committed = int(json.loads(index_path.read_text())["bytes"])
        except (ValueError, KeyError):
            committed = None
    with open(path, "rb") as fh:
        data = fh.read() if committed is None else fh.read(committed)
    return _parse_frames(data.decode(), path)


def write_restart(path: str | Path, coords, velocities, time_fs: float) -> None:
    """Write a restart file: one phase-space point and its time, as .npz
    arrays ``coords``, ``velocities`` and ``time_fs``.

    The file is written atomically (tmp + fsync + ``os.replace``) so a
    crash mid-write leaves the previous restart intact instead of a torn
    archive.
    """
    path = str(path)
    if not path.endswith(".npz"):
        # np.savez appends .npz to bare paths; keep that contract
        path += ".npz"
    atomic_savez(
        path,
        coords=np.asarray(coords, dtype=float),
        velocities=np.asarray(velocities, dtype=float),
        time_fs=np.asarray(time_fs, dtype=float),
    )
