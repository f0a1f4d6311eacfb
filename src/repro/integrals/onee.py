"""One-electron integrals: the core Hamiltonian and its derivative.

Dense matrices plus *contracted derivative* drivers that accumulate
``sum_{mu nu} X_{mu nu} d(integral)/d(atom coordinates)`` directly into a
``(natoms, 3)`` gradient, mirroring the paper's design where integral
derivatives are consumed on the fly and never stored (Sec. V-E).

The overlap, kinetic and nuclear-attraction drivers are the shell-class
kernels in `batch.py`; the core Hamiltonian sums two of them.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from .batch import (
    contract_kinetic_deriv,
    contract_nuclear_deriv,
    kinetic,
    nuclear,
)
from .engine import stack_driver

if TYPE_CHECKING:
    from .workspace import IntegralWorkspace


@stack_driver
def hcore(
    bases, mols,
    workspace: IntegralWorkspace | None = None,
) -> list[np.ndarray]:
    """Core Hamiltonians h = T + V of every fragment (``mols``, each in
    its basis), ``(nbf, nbf)`` each."""
    return [t + v for t, v in zip(kinetic(bases, workspace),
                                  nuclear(bases, mols, workspace))]


@stack_driver
def contract_hcore_deriv(
    bases, mols, X,
    workspace: IntegralWorkspace | None = None,
) -> list[np.ndarray]:
    """``sum X_{f mu nu} dh_{mu nu}/dR`` with h = T + V for every
    fragment, ``X[f] (nbf, nbf)``: ``(natoms, 3)`` each."""
    return [t + v for t, v in zip(
        contract_kinetic_deriv(bases, X, workspace),
        contract_nuclear_deriv(bases, mols, X, workspace))]
