"""Shared fixtures: small validated molecules and SCF references."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chem import Molecule
from repro.faults import FaultPlan, FaultPlanCalculator, FaultSpec
from repro.integrals import IntegralWorkspace
from repro.trace import current


@pytest.fixture(autouse=True)
def no_tracer_outlives_its_recording():
    """Every ``recording`` block puts the thread's tracer back: no run's
    tracer is current after the test that recorded it."""
    yield
    assert current() is None


@pytest.fixture(scope="session")
def h2() -> Molecule:
    """H2 at the Szabo-Ostlund geometry (1.4 Bohr)."""
    return Molecule(["H", "H"], [[0, 0, 0], [0, 0, 1.4]])


@pytest.fixture(scope="session")
def h2_bent() -> Molecule:
    """H2 displaced off-axis so no gradient component vanishes."""
    return Molecule(["H", "H"], [[0, 0.05, 0], [0.03, 0, 1.45]])


@pytest.fixture(scope="session")
def hehp() -> Molecule:
    """HeH+ at 1.4632 Bohr (Szabo-Ostlund)."""
    return Molecule(["He", "H"], [[0, 0, 0], [0, 0, 1.4632]], charge=1)


@pytest.fixture(scope="session")
def water() -> Molecule:
    """Water at a standard experimental-ish geometry."""
    return Molecule.from_angstrom(
        ["O", "H", "H"],
        [[0.0, 0.0, 0.1173], [0.0, 0.7572, -0.4692], [0.0, -0.7572, -0.4692]],
    )


@pytest.fixture(scope="session")
def water_distorted() -> Molecule:
    """Symmetry-broken water so every gradient component is nonzero."""
    return Molecule.from_angstrom(
        ["O", "H", "H"],
        [[0.0, 0.05, 0.1173], [0.02, 0.7572, -0.4692], [0.0, -0.7572, -0.48]],
    )


def finite_difference_gradient(energy_fn, mol: Molecule, h: float = 2.0e-4) -> np.ndarray:
    """Central finite-difference gradient of ``energy_fn(mol) -> float``."""
    g = np.zeros((mol.natoms, 3))
    for a in range(mol.natoms):
        for x in range(3):
            cp = mol.coords.copy()
            cp[a, x] += h
            cm = mol.coords.copy()
            cm[a, x] -= h
            g[a, x] = (
                energy_fn(mol.with_coords(cp)) - energy_fn(mol.with_coords(cm))
            ) / (2 * h)
    return g


def table_instants(tracer) -> list[dict]:
    """The ``workspace.hit`` instants of the Hermite Coulomb table
    product, one per table request, in order."""
    return [args for args in tracer.instants("workspace.hit")
            if args["product"] == "coulomb_tables"]


def faulty_calculator(inner, kind="transient",
                      **spec_kw) -> FaultPlanCalculator:
    """Wrap ``inner`` in a one-spec fault plan: ``FaultSpec(kind, ...)``
    with e.g. ``natoms=6`` (target atom count) or ``attempts=2`` (fire
    while ``attempt < 2``)."""
    return FaultPlanCalculator(
        inner, FaultPlan(specs=[FaultSpec(kind=kind, **spec_kw)])
    )


def hermite_cube(L: int) -> np.ndarray:
    """Every (t, u, v) of the Hermite cube ``0..L`` a side, C-order."""
    return np.indices((L + 1,) * 3).reshape(3, -1).T


def pair_plan(bases):
    """The `batch.PairPlan` of a list of bases, as a driver gets it:
    from a scope of a fresh workspace."""
    ws = IntegralWorkspace()
    with ws.scope():
        return ws.pair_plan(bases)


def shell_classes(basis):
    """The shell classes of one basis (`pair_plan` of a list of one)."""
    return pair_plan([basis]).classes


def site_plan(auxs):
    """The placed `batch.SitePlan` of a list of fitting bases, from a
    scope of a fresh workspace."""
    ws = IntegralWorkspace()
    with ws.scope():
        return ws.site_plan(auxs)
