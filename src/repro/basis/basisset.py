"""Molecular basis set: an ordered list of shells over a molecule."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..chem.molecule import Molecule
from .data import element_shells
from .shell import Shell


class BasisSet:
    """Ordered shells spanning a molecule, with function offsets.

    Attributes:
        shells: list of `Shell`.
        offsets: starting basis-function index of each shell.
        nbf: total number of (Cartesian) basis functions.
    """

    def __init__(self, shells: Iterable[Shell]) -> None:
        self._shells: list[Shell] | None = list(shells)
        self.offsets: list[int] = []
        n = 0
        for sh in self._shells:
            self.offsets.append(n)
            n += sh.nfunc
        self.nbf: int = n

    @property
    def shells(self) -> list[Shell]:
        """The shells; those of a `placed` basis are made when first
        read."""
        if self._shells is None:
            coords = self._coords
            self._shells = [sh.at(coords[sh.atom], sh.atom)
                            for sh in self._template.shells]
        return self._shells

    def placed(self, coords: np.ndarray) -> "BasisSet":
        """The same shells on atoms at ``coords`` ``(natoms, 3)``: the
        basis of the same fragment at another geometry, without building
        it again. It carries this basis's composition key and its own
        shell centres — the two memos the integral layer keys a basis by
        (`repro.integrals.workspace.basis_composition_key`, ``_centers``)
        — so a driver with its plans at hand never reads its `shells`,
        which are made only when something does."""
        root = self if self._shells is not None else self._template
        atoms = root.__dict__.get("_atoms")
        if atoms is None:
            atoms = root._atoms = np.array([sh.atom for sh in root.shells],
                                           dtype=np.intp)
        out = BasisSet.__new__(BasisSet)
        out._shells, out._template, out._coords = None, root, coords
        out.offsets, out.nbf = root.offsets, root.nbf
        if "_composition_key" in root.__dict__:
            out._composition_key = root._composition_key
        out._centres = np.asarray(coords, dtype=float)[atoms]
        return out

    @classmethod
    def build(cls, mol: Molecule, basis: str = "sto-3g") -> "BasisSet":
        """Construct the basis for every atom of ``mol``."""
        shells: list[Shell] = []
        for iatom, sym in enumerate(mol.symbols):
            for l, exps, coefs in element_shells(sym, basis):
                shells.append(
                    Shell(l, mol.coords[iatom], np.array(exps), np.array(coefs), atom=iatom)
                )
        return cls(shells)

    @property
    def nshells(self) -> int:
        return len(self.offsets)

    @property
    def max_l(self) -> int:
        return max(sh.l for sh in self.shells)

    def function_atoms(self) -> np.ndarray:
        """Owning atom index of every basis function, shape ``(nbf,)``."""
        out = np.empty(self.nbf, dtype=int)
        for sh, off in zip(self.shells, self.offsets):
            out[off : off + sh.nfunc] = sh.atom
        return out

    def __len__(self) -> int:
        return self.nshells

    def __repr__(self) -> str:
        return f"BasisSet(nshells={self.nshells}, nbf={self.nbf}, max_l={self.max_l})"
