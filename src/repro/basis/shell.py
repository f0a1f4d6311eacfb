"""Contracted Gaussian shells and their normalization."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..integrals.hermite import cartesian_components, ncart


def double_factorial(n: int) -> float:
    """(n)!! with (-1)!! = (0)!! = 1."""
    if n <= 0:
        return 1.0
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def primitive_norm(alpha: float, l: int) -> float:
    """Normalization of the (l,0,0) Cartesian primitive Gaussian."""
    return (
        (2.0 * alpha / np.pi) ** 0.75
        * (4.0 * alpha) ** (l / 2.0)
        / np.sqrt(double_factorial(2 * l - 1))
    )


@lru_cache(maxsize=1024)
def _normalized(l: int, exps: bytes, raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Normalized ``(coefs, comp_norms)`` of a shell, memoised on its
    ``(l, exps, coefs)`` signature: a run builds the same handful of
    shells on every atom of every fragment solve. The arrays are shared
    between the shells of a signature and therefore read-only."""
    exps = np.frombuffer(exps)
    # Bake in primitive norms, then normalize the contraction so the
    # (l,0,0) component has unit self-overlap.
    c = np.frombuffer(raw) * np.array([primitive_norm(a, l) for a in exps])
    df = double_factorial(2 * l - 1)
    ab = exps[:, None] + exps[None, :]
    s_pair = (np.pi / ab) ** 1.5 * df / (2.0 * ab) ** l
    norm2 = float(c @ s_pair @ c)
    coefs = c / np.sqrt(norm2)
    comp_norms = np.array(
        [
            np.sqrt(
                df
                / (
                    double_factorial(2 * lx - 1)
                    * double_factorial(2 * ly - 1)
                    * double_factorial(2 * lz - 1)
                )
            )
            for lx, ly, lz in cartesian_components(l)
        ]
    )
    coefs.setflags(write=False)
    comp_norms.setflags(write=False)
    return coefs, comp_norms


@dataclass
class Shell:
    """One contracted Cartesian Gaussian shell.

    ``coefs`` already include primitive norms for the (l,0,0) component
    and the overall contraction normalization, so integral kernels work
    with *unnormalized* Cartesian primitives and simply contract with
    ``coefs``. ``comp_norms[c]`` is the extra factor for Cartesian
    component ``c`` relative to (l,0,0).
    """

    l: int
    center: np.ndarray
    exps: np.ndarray
    coefs: np.ndarray
    atom: int = 0
    comp_norms: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        self.exps = np.asarray(self.exps, dtype=float).ravel()
        raw = np.asarray(self.coefs, dtype=float).ravel()
        if raw.shape != self.exps.shape:
            raise ValueError("exps and coefs must have the same length")
        self.coefs, self.comp_norms = _normalized(
            self.l, self.exps.tobytes(), raw.tobytes()
        )

    @property
    def nprim(self) -> int:
        return len(self.exps)

    @property
    def nfunc(self) -> int:
        """Number of (Cartesian) basis functions carried by this shell."""
        return ncart(self.l)

    @property
    def components(self) -> list[tuple[int, int, int]]:
        return cartesian_components(self.l)

    def at(self, center: np.ndarray, atom: int) -> "Shell":
        """Copy of this shell placed on a different center/atom."""
        s = Shell.__new__(Shell)
        s.l = self.l
        s.center = np.asarray(center, dtype=float).reshape(3).copy()
        s.exps = self.exps
        s.coefs = self.coefs
        s.atom = atom
        s.comp_norms = self.comp_norms
        return s
