"""Monomers, hydrogen caps, and the fragmented-system container."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..chem.bonds import bond_graph, connected_components
from ..chem.elements import covalent_radius
from ..chem.molecule import Molecule, canonical_symbols


@dataclass(frozen=True)
class CapBond:
    """A covalent bond broken by fragmentation, capped with hydrogen.

    The cap hydrogen sits on the inner->outer bond vector at a fixed
    fraction ``ratio`` of the bond length (paper Sec. V-B). Fixing the
    ratio (rather than the absolute X-H distance) makes the cap position
    a linear function of the two real atoms, so fragment gradients chain
    back exactly:

        dE/dr_inner += (1 - ratio) dE/dr_cap
        dE/dr_outer += ratio dE/dr_cap
    """

    inner: int  # parent atom index inside the fragment
    outer: int  # parent atom index the bond reaches (outside)
    ratio: float


@dataclass(frozen=True)
class Monomer:
    """A fragment unit: a set of parent-atom indices plus cap bonds."""

    index: int
    atoms: tuple[int, ...]
    caps: tuple[CapBond, ...] = ()
    charge: int = 0


def _cap_ratio(parent: Molecule, inner: int, outer: int) -> float:
    """Standard-length X-H cap as a fraction of the X-Y bond."""
    r_x = covalent_radius(parent.symbols[inner])
    r_y = covalent_radius(parent.symbols[outer])
    r_h = covalent_radius("H")
    return (r_x + r_h) / (r_x + r_y)


def _cap_scatter(caps) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved chain-rule targets of cap gradients: parent indices
    ``inner0, outer0, inner1, ...`` and weights ``1 - ratio0, ratio0, ...``."""
    idx = np.array([(c.inner, c.outer) for c in caps], dtype=np.intp)
    ratio = np.array([c.ratio for c in caps], dtype=float)
    return idx.reshape(-1), np.stack((1.0 - ratio, ratio), axis=1).reshape(-1)


def _scatter(
    grad_frag: np.ndarray,
    atoms: np.ndarray,
    cap_idx: np.ndarray,
    cap_w: np.ndarray,
    out: np.ndarray,
    scale: float,
) -> None:
    """``out += scale * (fragment gradient chained onto parent atoms)``.

    Real atoms are distinct, so theirs is one indexed add; a parent atom
    may be the target of several caps (and is a real atom besides), so
    the cap terms go through the unbuffered `np.add.at`, which adds in
    index order: real atoms, then inner and outer of each cap in turn.
    """
    nreal = len(atoms)
    out[atoms] += scale * grad_frag[:nreal]
    if len(cap_idx):
        np.add.at(
            out, cap_idx,
            (scale * cap_w)[:, None] * np.repeat(grad_frag[nreal:], 2, axis=0),
        )


class FragmentLayout:
    """Everything about a polymer's fragment that no geometry changes.

    Which parent atoms it holds, which broken bonds it caps, its element
    symbols and charge, and the index / weight arrays that gather its
    coordinates from the parent's and scatter its gradient back. Any
    number of fragments at one geometry are then one gather, one cap fix
    and a view each (`molecules`), and a gradient's way home one indexed
    add and one `np.add.at` (`scatter`).

    Attributes:
        key: the monomer indices.
        atoms: parent indices of the real atoms, ascending.
        caps: the active `CapBond`s (outer atom outside the fragment);
            their hydrogens follow the real atoms in this order.
        symbols: element symbols, real atoms then one ``"H"`` per cap
            (canonical: `repro.chem.molecule.canonical_symbols`).
        charge: summed monomer charges.
        gather: the parent atom each fragment row starts from — the
            real atoms, then each cap's inner atom.
        cap_outer, cap_ratio: the caps' other two columns as arrays.
        scatter_idx, scatter_w: the interleaved cap scatter targets and
            chain-rule weights (`_cap_scatter`).
    """

    __slots__ = (
        "key", "atoms", "caps", "symbols", "charge",
        "gather", "cap_outer", "cap_ratio", "is_cap", "scatter_idx",
        "scatter_w",
    )

    def __init__(
        self,
        key: tuple[int, ...],
        atoms: Sequence[int],
        caps: Sequence[CapBond],
        parent_symbols: Sequence[str],
        charge: int = 0,
    ) -> None:
        self.key = key
        self.atoms = np.asarray(atoms, dtype=np.intp)
        self.caps = tuple(caps)
        self.symbols = canonical_symbols(
            (*(parent_symbols[a] for a in atoms), *("H",) * len(self.caps))
        )
        self.charge = charge
        self.scatter_idx, self.scatter_w = _cap_scatter(self.caps)
        self.gather = np.concatenate((self.atoms, self.scatter_idx[0::2]))
        self.cap_outer = self.scatter_idx[1::2].copy()
        self.cap_ratio = self.scatter_w[1::2].copy()
        self.is_cap = np.arange(len(self.symbols)) >= len(self.atoms)

    @staticmethod
    def molecules(layouts: Sequence["FragmentLayout"],
                  coords: np.ndarray) -> list[Molecule]:
        """The capped fragments of ``layouts`` at parent coordinates
        ``coords`` (Bohr): one gather of every fragment's rows, each cap
        hydrogen moved from its inner atom along the bond in one
        elementwise pass, and per fragment a view of its own rows. The
        same elementwise operations as one fragment at a time, so the
        same bytes."""
        xyz = coords[np.concatenate([lay.gather for lay in layouts])]
        caps = np.flatnonzero(np.concatenate([lay.is_cap for lay in layouts]))
        if caps.size:
            ratio = np.concatenate([lay.cap_ratio for lay in layouts])
            outer = coords[np.concatenate([lay.cap_outer for lay in layouts])]
            hydrogens = xyz[caps]  # still at the inner atoms
            hydrogens += ratio[:, None] * (outer - hydrogens)
            xyz[caps] = hydrogens
        out, start = [], 0
        for lay in layouts:
            end = start + len(lay.symbols)
            mol = Molecule.view(lay.symbols, xyz[start:end], lay.charge)
            # tag the fragment identity so calculators can key
            # per-fragment caches (SCF warm starts) off the molecule alone
            mol.frag_key = lay.key
            out.append(mol)
            start = end
        return out

    def molecule(self, coords: np.ndarray) -> Molecule:
        """The capped fragment at parent coordinates ``coords`` (Bohr)."""
        return FragmentLayout.molecules((self,), coords)[0]

    def scatter(
        self, grad_frag: np.ndarray, out: np.ndarray, scale: float = 1.0
    ) -> None:
        """Chain a fragment gradient back onto parent atoms (in place)."""
        _scatter(
            grad_frag, self.atoms, self.scatter_idx, self.scatter_w, out, scale
        )


class FragmentedSystem:
    """A molecule split into monomers, with H-cap bookkeeping.

    The container is geometry-agnostic: all atom references are indices
    into ``parent``; pass updated coordinates to the ``*_molecule``
    builders during dynamics via `with_coords`.
    """

    def __init__(self, parent: Molecule, monomers: list[Monomer]) -> None:
        self.parent = parent
        self.monomers = monomers
        owner = {}
        for m in monomers:
            for a in m.atoms:
                if a in owner:
                    raise ValueError(f"atom {a} assigned to two monomers")
                owner[a] = m.index
        if len(owner) != parent.natoms:
            missing = set(range(parent.natoms)) - set(owner)
            raise ValueError(f"atoms not assigned to any monomer: {sorted(missing)}")
        self.atom_owner = owner

    # --- constructors -------------------------------------------------------
    @classmethod
    def by_components(
        cls, parent: Molecule, group_size: int = 1, bond_scale: float = 1.2
    ) -> "FragmentedSystem":
        """One monomer per covalently connected component (or per group of
        ``group_size`` components, as in the paper's 4-urea monomers).

        Components are grouped in spatial order (sorted by centroid along
        the first principal direction) so grouped monomers are compact.
        """
        comps = connected_components(parent, scale=bond_scale)
        if group_size > 1:
            cents = np.array([parent.coords[c].mean(axis=0) for c in comps])
            order = np.lexsort((cents[:, 2], cents[:, 1], cents[:, 0]))
            comps = [comps[i] for i in order]
            comps = [
                sorted(sum(comps[i : i + group_size], []))
                for i in range(0, len(comps), group_size)
            ]
        monomers = [
            Monomer(index=i, atoms=tuple(atoms)) for i, atoms in enumerate(comps)
        ]
        return cls(parent, monomers)

    @classmethod
    def by_blocks(
        cls, parent: Molecule, natoms_per_block: int, group_size: int = 1
    ) -> "FragmentedSystem":
        """Monomers from contiguous equal-size atom blocks.

        For lattice-builder outputs (every molecule occupies a contiguous
        index range) this skips the O(natoms^2) bond detection that
        `by_components` needs, which matters for 10^5-atom clusters.
        Blocks are grouped spatially as in `by_components`.
        """
        if parent.natoms % natoms_per_block != 0:
            raise ValueError(
                f"{parent.natoms} atoms not divisible by block size "
                f"{natoms_per_block}"
            )
        nblocks = parent.natoms // natoms_per_block
        comps = [
            list(range(b * natoms_per_block, (b + 1) * natoms_per_block))
            for b in range(nblocks)
        ]
        if group_size > 1:
            cents = np.array([parent.coords[c].mean(axis=0) for c in comps])
            order = np.lexsort((cents[:, 2], cents[:, 1], cents[:, 0]))
            comps = [comps[i] for i in order]
            comps = [
                sorted(sum(comps[i : i + group_size], []))
                for i in range(0, len(comps), group_size)
            ]
        monomers = [
            Monomer(index=i, atoms=tuple(atoms)) for i, atoms in enumerate(comps)
        ]
        return cls(parent, monomers)

    @classmethod
    def by_atom_lists(
        cls,
        parent: Molecule,
        atom_lists: list[list[int]],
        bond_scale: float = 1.2,
        charges: list[int] | None = None,
    ) -> "FragmentedSystem":
        """Monomers from explicit atom-index lists; broken covalent bonds
        are detected from the bond graph and capped with hydrogens."""
        g = bond_graph(parent, scale=bond_scale)
        owner: dict[int, int] = {}
        for i, atoms in enumerate(atom_lists):
            for a in atoms:
                owner[a] = i
        monomers = []
        for i, atoms in enumerate(atom_lists):
            caps = []
            for a in atoms:
                for nb in g[a]:
                    if owner.get(nb) != i:
                        caps.append(CapBond(a, nb, _cap_ratio(parent, a, nb)))
            monomers.append(
                Monomer(
                    index=i,
                    atoms=tuple(sorted(atoms)),
                    caps=tuple(caps),
                    charge=0 if charges is None else charges[i],
                )
            )
        return cls(parent, monomers)

    # --- geometry ------------------------------------------------------------
    @property
    def nmonomers(self) -> int:
        """Number of monomer fragments."""
        return len(self.monomers)

    def centroids(self, coords: np.ndarray | None = None) -> np.ndarray:
        """Monomer centroids, shape ``(nmonomers, 3)`` (Bohr)."""
        c = self.parent.coords if coords is None else coords
        return np.array([c[list(m.atoms)].mean(axis=0) for m in self.monomers])

    # --- fragment molecule construction --------------------------------------
    def layout(self, monomer_ids: tuple[int, ...]) -> FragmentLayout:
        """The geometry-independent half of a polymer's fragment.

        Built fresh on every call and never kept here: a caller that
        evaluates one key many times (the step engine, per plan window)
        owns the layout for as long as it needs it.
        """
        atom_set: set[int] = set()
        charge = 0
        for mid in monomer_ids:
            m = self.monomers[mid]
            atom_set.update(m.atoms)
            charge += m.charge
        caps = [
            cap
            for mid in monomer_ids
            for cap in self.monomers[mid].caps
            if cap.outer not in atom_set
        ]
        return FragmentLayout(
            tuple(monomer_ids), sorted(atom_set), caps,
            self.parent.symbols, charge,
        )

    def fragment_molecule(
        self, monomer_ids: tuple[int, ...], coords: np.ndarray | None = None
    ) -> tuple[Molecule, list[int], list[CapBond]]:
        """Build the (capped) molecule for a polymer.

        Args:
            monomer_ids: constituent monomer indices.
            coords: override parent coordinates (Bohr) for dynamics.

        Returns:
            ``(molecule, real_atom_parents, active_caps)`` where
            ``real_atom_parents[k]`` is the parent index of fragment atom
            k (real atoms first, then one entry per cap is *not*
            included — caps are appended after the real atoms in the
            same order as ``active_caps``).
        """
        lay = self.layout(monomer_ids)
        mol = lay.molecule(self.parent.coords if coords is None else coords)
        return mol, lay.atoms.tolist(), list(lay.caps)
