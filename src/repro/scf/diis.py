"""Pulay DIIS (direct inversion in the iterative subspace) accelerator."""

from __future__ import annotations

import numpy as np


class DIIS:
    """Classic commutator-DIIS for SCF convergence.

    Stores up to ``max_vecs`` (Fock, error) pairs where the error is the
    orbital-gradient commutator ``F D S - S D F`` expressed in the
    orthonormal basis, and extrapolates the next Fock matrix.
    """

    def __init__(self, max_vecs: int = 8) -> None:
        self.max_vecs = max_vecs
        self._focks: list[np.ndarray] = []
        self._errors: list[np.ndarray] = []

    def update(self, F: np.ndarray, err: np.ndarray) -> np.ndarray:
        """Add a new pair and return the extrapolated Fock matrix."""
        self._focks.append(F.copy())
        self._errors.append(err.copy())
        if len(self._focks) > self.max_vecs:
            self._focks.pop(0)
            self._errors.pop(0)
        while True:
            n = len(self._focks)
            if n == 1:
                return F
            Bmat = np.empty((n + 1, n + 1))
            Bmat[-1, :] = -1.0
            Bmat[:, -1] = -1.0
            Bmat[-1, -1] = 0.0
            for i in range(n):
                for j in range(i, n):
                    v = float(np.vdot(self._errors[i], self._errors[j]))
                    Bmat[i, j] = v
                    Bmat[j, i] = v
            rhs = np.zeros(n + 1)
            rhs[-1] = -1.0
            try:
                coef = np.linalg.solve(Bmat, rhs)[:n]
            except np.linalg.LinAlgError:
                # Ill-conditioned subspace: drop the oldest pair and retry
                # with the smaller subspace. Must not re-append the newest
                # pair — a stalled SCF produces duplicate error vectors,
                # and re-appending keeps B singular at every depth
                # (formerly an unbounded recursion). With one pair left
                # the extrapolation degenerates to the bare F.
                self._focks.pop(0)
                self._errors.pop(0)
                continue
            out = np.zeros_like(F)
            for c, Fi in zip(coef, self._focks):
                out += c * Fi
            return out
