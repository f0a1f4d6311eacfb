"""Molecular structure container.

`Molecule` is the central immutable-ish data structure passed between the
integrals engine, the SCF/MP2 solvers, the fragmentation layer and the MD
driver. Coordinates are stored in **Bohr**; constructors accepting
Angstrom are provided because crystallographic and PDB-style data come in
Angstrom.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence

import numpy as np

from ..constants import BOHR_PER_ANGSTROM, ELECTRON_MASS_PER_AMU
from .elements import atomic_mass, atomic_number, element


@functools.lru_cache(maxsize=1024)
def canonical_symbols(symbols: tuple) -> tuple[str, ...]:
    """``symbols`` validated and canonicalised, once per distinct tuple.

    A trajectory builds the same few compositions (one per fragment
    class) again at every step; the memo is bounded, holds only tuples
    of strings, and hands out immutable results.
    """
    return tuple(element(s).symbol for s in symbols)


class Molecule:
    """A collection of atoms with nuclear charges and Cartesian coordinates.

    Attributes:
        symbols: tuple of element symbols, length ``natoms``.
        coords: ``(natoms, 3)`` float array, Bohr.
        charge: total molecular charge (integer).
        multiplicity: spin multiplicity 2S+1 (the engine is restricted
            closed-shell, so only 1 is accepted by the solvers).
        frag_key: optional MBE fragment identity (tuple of monomer
            indices), set by `FragmentedSystem.fragment_molecule` so
            calculators can key per-fragment caches (SCF warm starts)
            off the molecule they receive. None for whole molecules.
        record: the fragment's `repro.calculators.FragmentRecord` (its
            warm-start densities), put on a task's
            molecule by the step engine and replaced by the calculator
            that evaluates it. None outside the engine.
        step, attempt: the MD step and the retry attempt of the task the
            molecule rides (the step engine puts the step on at release,
            the driver the attempt at dispatch), which a fault plan
            targets through the drivers' one stack call. 0 outside the
            engine.
    """

    __slots__ = ("symbols", "coords", "charge", "multiplicity", "frag_key",
                 "record", "step", "attempt")

    def __init__(
        self,
        symbols: Sequence[str],
        coords_bohr: np.ndarray | Sequence[Sequence[float]],
        charge: int = 0,
        multiplicity: int = 1,
    ) -> None:
        symbols = canonical_symbols(tuple(symbols))
        coords = np.asarray(coords_bohr, dtype=float).reshape(len(symbols), 3)
        self._set(symbols, coords.copy(), int(charge), int(multiplicity))

    def _set(self, symbols, coords, charge, multiplicity) -> None:
        self.symbols: tuple[str, ...] = symbols
        self.coords: np.ndarray = coords
        self.charge = charge
        self.multiplicity = multiplicity
        self.frag_key: tuple[int, ...] | None = None
        self.record = None
        self.step = 0
        self.attempt = 0

    @classmethod
    def view(cls, symbols: tuple[str, ...], coords: np.ndarray,
             charge: int = 0) -> "Molecule":
        """A singlet over ``coords`` itself, unchecked and not copied:
        ``symbols`` canonical (`canonical_symbols`), ``coords`` a float
        ``(len(symbols), 3)`` array no one else writes — the step
        engine's fragments, rows of one gather per flight
        (`repro.frag.monomer.FragmentLayout.molecules`)."""
        mol = cls.__new__(cls)
        mol._set(symbols, coords, charge, 1)
        return mol

    # --- constructors -----------------------------------------------------
    @classmethod
    def from_angstrom(
        cls,
        symbols: Sequence[str],
        coords_angstrom: np.ndarray | Sequence[Sequence[float]],
        charge: int = 0,
        multiplicity: int = 1,
    ) -> "Molecule":
        """Build a molecule from coordinates given in Angstrom."""
        coords = np.asarray(coords_angstrom, dtype=float) * BOHR_PER_ANGSTROM
        return cls(symbols, coords, charge=charge, multiplicity=multiplicity)

    @classmethod
    def concatenate(cls, parts: Iterable["Molecule"]) -> "Molecule":
        """Union of several molecules (used to form dimers/trimers)."""
        parts = list(parts)
        if not parts:
            raise ValueError("cannot concatenate zero molecules")
        symbols: list[str] = []
        blocks: list[np.ndarray] = []
        charge = 0
        for p in parts:
            symbols.extend(p.symbols)
            blocks.append(p.coords)
            charge += p.charge
        return cls(symbols, np.vstack(blocks), charge=charge)

    # --- basic properties ---------------------------------------------------
    @property
    def natoms(self) -> int:
        return len(self.symbols)

    @property
    def atomic_numbers(self) -> np.ndarray:
        """Integer nuclear charges Z, shape ``(natoms,)``."""
        return np.array([atomic_number(s) for s in self.symbols], dtype=int)

    @property
    def nelectrons(self) -> int:
        """Number of electrons: sum(Z) - charge."""
        return int(self.atomic_numbers.sum()) - self.charge

    @property
    def masses_amu(self) -> np.ndarray:
        """Atomic masses in Dalton, shape ``(natoms,)``."""
        return np.array([atomic_mass(s) for s in self.symbols], dtype=float)

    @property
    def masses_au(self) -> np.ndarray:
        """Atomic masses in electron masses (atomic units)."""
        return self.masses_amu * ELECTRON_MASS_PER_AMU

    # --- geometry -----------------------------------------------------------
    def centroid(self) -> np.ndarray:
        """Unweighted centroid of the nuclear positions, Bohr."""
        return self.coords.mean(axis=0)

    def center_of_mass(self) -> np.ndarray:
        """Mass-weighted centre, Bohr."""
        m = self.masses_amu
        return (self.coords * m[:, None]).sum(axis=0) / m.sum()

    def nuclear_repulsion(self) -> float:
        """Classical nucleus-nucleus Coulomb repulsion energy, Hartree."""
        z = self.atomic_numbers.astype(float)
        e = 0.0
        for i in range(self.natoms):
            rij = np.linalg.norm(self.coords[i + 1 :] - self.coords[i], axis=1)
            e += float(np.sum(z[i] * z[i + 1 :] / rij))
        return e

    def nuclear_repulsion_gradient(self) -> np.ndarray:
        """Gradient of the nuclear repulsion, shape ``(natoms, 3)``, Ha/Bohr."""
        z = self.atomic_numbers.astype(float)
        grad = np.zeros_like(self.coords)
        for i in range(self.natoms):
            for j in range(i + 1, self.natoms):
                rvec = self.coords[i] - self.coords[j]
                r = np.linalg.norm(rvec)
                g = -z[i] * z[j] / r**3 * rvec
                grad[i] += g
                grad[j] -= g
        return grad

    def distance(self, i: int, j: int) -> float:
        """Internuclear distance between atoms *i* and *j*, Bohr."""
        return float(np.linalg.norm(self.coords[i] - self.coords[j]))

    def translated(self, shift_bohr: np.ndarray) -> "Molecule":
        """Return a copy translated by ``shift_bohr`` (length-3, Bohr)."""
        return Molecule(
            self.symbols,
            self.coords + np.asarray(shift_bohr, dtype=float),
            charge=self.charge,
            multiplicity=self.multiplicity,
        )

    def with_coords(self, coords_bohr: np.ndarray) -> "Molecule":
        """Return a copy with replaced coordinates (same atoms/charge)."""
        return Molecule(
            self.symbols, coords_bohr, charge=self.charge,
            multiplicity=self.multiplicity,
        )

    # --- misc ----------------------------------------------------------------
    def formula(self) -> str:
        """Hill-ordered empirical formula, e.g. ``"C2H6O"``."""
        counts: dict[str, int] = {}
        for s in self.symbols:
            counts[s] = counts.get(s, 0) + 1
        order = []
        if "C" in counts:
            order.append("C")
            if "H" in counts:
                order.append("H")
            order.extend(sorted(k for k in counts if k not in ("C", "H")))
        else:
            order.extend(sorted(counts))
        return "".join(
            f"{s}{counts[s]}" if counts[s] > 1 else s for s in order
        )

    def __len__(self) -> int:
        return self.natoms

    def __repr__(self) -> str:
        return (
            f"Molecule({self.formula()}, natoms={self.natoms}, "
            f"charge={self.charge}, nelectrons={self.nelectrons})"
        )
