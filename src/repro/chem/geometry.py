"""Geometric utilities shared by fragmentation and system builders."""

from __future__ import annotations

import numpy as np

from .molecule import Molecule


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense pairwise Euclidean distance matrix for ``(n, 3)`` points."""
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about ``axis`` by ``angle`` radians."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def rotated(mol: Molecule, axis: np.ndarray, angle: float,
            about: np.ndarray | None = None) -> Molecule:
    """Return ``mol`` rotated about a point (default its centroid)."""
    pivot = mol.centroid() if about is None else np.asarray(about, float)
    R = rotation_matrix(axis, angle)
    return mol.with_coords((mol.coords - pivot) @ R.T + pivot)

