"""One integral evaluation per calculator call: every block once, bitwise
per fragment.

The fragments of a call are subsets of one geometry, so the integral
layer computes each block they hold once — a shell pair, a pair with a
nucleus, a pair with an auxiliary site, a pair of sites, and the
derivative integrals of each — and every fragment takes its values from
the shared blocks. The contract under test:

* **Exact block counts** — on workload A's 14 fragments (a water
  tetramer at MBE3), unscreened, the value drivers are asked for and
  compute exactly: ``(mu nu|P)`` 301 392 -> 112 392 elements, ``(P|Q)``
  254 016 -> 63 504, nuclear attraction (pair, nucleus) 14 352 -> 5 352,
  overlap / kinetic 1 946 -> 446; what is computed is the brute-force
  set of distinct atom blocks.
* **Context independence** — a fragment's S, h, ``(mu nu|P)``,
  ``(P|Q)`` and the four contracted derivatives are bitwise the ones it
  gets alone, whatever else the call holds: any subset and order of A's
  fragments, the same monomers at a displaced geometry (an asynchronous
  call mixing two steps), capped glycine fragments that share a cap H,
  and screening on, each fragment with its own geometry's Schwarz
  table. Its skip counts and neglected bound are its own.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis import BasisSet, auto_auxiliary
from repro.calculators import RIHFCalculator
from repro.frag import FragmentedSystem, build_plan
from repro.integrals import (
    IntegralWorkspace,
    contract_eri2c_deriv,
    contract_eri3c_deriv,
    contract_hcore_deriv,
    contract_overlap_deriv,
    eri2c,
    eri3c,
    hcore,
    overlap,
)
from repro.scf import prepare_solves
from repro.systems import water_cluster
from repro.systems.glycine import glycine_fragmented
from repro.trace import Tracer, recording

#: A's counts, unscreened: (requested, computed) elements per family
A_COUNTS = {"3c": (301392, 112392), "2c": (254016, 63504),
            "v": (14352, 5352), "st": (1946, 446)}


def _fragments(system, coords=None, keys=None):
    """The MBE3 fragments of ``system`` (A's cutoffs) at ``coords``."""
    coords = system.parent.coords if coords is None else coords
    if keys is None:
        keys = list(build_plan(system, 30.0, 15.0, order=3).fragments)
    return [system.fragment_molecule(key, coords)[0] for key in keys]


@pytest.fixture(scope="module")
def water4():
    system = FragmentedSystem.by_components(water_cluster(4, seed=1))
    assert system.nmonomers == 4
    mols = _fragments(system)
    assert len(mols) == 14
    rng = np.random.default_rng(3)
    moved = system.parent.coords + 0.05 * rng.standard_normal(
        system.parent.coords.shape)
    # the same monomers one step on: an asynchronous call mixes the two
    displaced = _fragments(system, moved, [(0,), (1,), (0, 1)])
    return mols, displaced


def _seed(mol) -> int:
    """A fragment's own seed: the same coefficients in any call."""
    digest = hashlib.sha256(mol.coords.tobytes() + "".join(mol.symbols)
                            .encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _evaluate(mols, screen, ws):
    """Every driver on the fragments, in one evaluation, with each
    fragment's own coefficients."""
    bases = [BasisSet.build(mol, "sto-3g") for mol in mols]
    auxs = [auto_auxiliary(mol, "sto-3g") for mol in mols]
    natoms = [mol.natoms for mol in mols]
    X, Z, zeta = [], [], []
    for basis, aux, mol in zip(bases, auxs, mols):
        rng = np.random.default_rng(_seed(mol))
        x = rng.standard_normal((basis.nbf, basis.nbf))
        X.append(x + x.T)
        Z.append(1e-3 * rng.standard_normal((basis.nbf, basis.nbf, aux.nbf)))
        zeta.append(rng.standard_normal((aux.nbf, aux.nbf)))
    with ws.scope():
        return [
            overlap(bases, ws),
            hcore(bases, mols, ws),
            eri3c(bases, auxs, screen, ws),
            eri2c(auxs, ws),
            contract_hcore_deriv(bases, mols, X, ws),
            contract_eri3c_deriv(bases, auxs, Z, natoms, screen, ws),
            contract_eri2c_deriv(auxs, zeta, natoms, ws),
            contract_overlap_deriv(bases, X, ws),
        ]


def _screened(fn, *args) -> tuple:
    """``fn(*args)`` and the screening records it emitted."""
    with recording(Tracer()) as tracer:
        out = fn(*args)
    return out, [(s["kind"], s["pairs"], s["skipped"], s["neglected"])
                 for s in tracer.instants("int.screen")]


def _brute_force(mols) -> dict:
    """``(requested, computed)`` elements per family from atom keys: the
    ``(I <= J, K)`` atom blocks of ``(mu nu|P)``, the ``(K, L)`` of
    ``(P|Q)``, the ``(I <= J, C)`` nuclear blocks and the ``(I <= J)``
    overlap blocks, each distinct key once."""
    req = dict.fromkeys(A_COUNTS, 0)
    seen: dict[str, dict] = {family: {} for family in A_COUNTS}
    for mol in mols:
        keys = [(s, x.tobytes()) for s, x in zip(mol.symbols, mol.coords)]
        nb = np.bincount(BasisSet.build(mol, "sto-3g").function_atoms(),
                         minlength=mol.natoms)
        na = np.bincount(auto_auxiliary(mol, "sto-3g").function_atoms(),
                         minlength=mol.natoms)
        blocks = {"3c": [], "2c": [], "v": [], "st": []}
        for i in range(mol.natoms):
            for j in range(i, mol.natoms):
                ij = (keys[i], keys[j])
                blocks["st"].append((ij, nb[i] * nb[j]))
                for k in range(mol.natoms):
                    blocks["3c"].append((ij + (keys[k],), nb[i] * nb[j] * na[k]))
                    blocks["v"].append((ij + (keys[k],), nb[i] * nb[j]))
            for k in range(mol.natoms):
                blocks["2c"].append(((keys[i], keys[k]), na[i] * na[k]))
        for family, items in blocks.items():
            for key, n in items:
                req[family] += int(n)
                seen[family][key] = int(n)
    return {family: (req[family], sum(seen[family].values()))
            for family in A_COUNTS}


def _counts(ws) -> dict:
    stats = ws.stats()
    return {family: (stats["elements_requested"][family],
                     stats["elements_computed"][family])
            for family in A_COUNTS}


class TestBlockCounts:
    def test_workload_a_counts_are_exact(self, water4):
        """A's 14 fragments through the calculator: each family's
        elements requested and computed, in the workspace's stats and
        on the call's ``calc.stack`` span."""
        mols, _ = water4
        ws = IntegralWorkspace()
        with recording(Tracer()) as tracer:
            RIHFCalculator(workspace=ws).energy_gradients(mols)
        assert _counts(ws) == A_COUNTS == _brute_force(mols)
        (span,) = [ev["args"] for ev in tracer.events
                   if ev["name"] == "calc.stack"]
        assert span["size"] == 14
        assert {f: (span["elements_requested"][f], span["elements_computed"][f])
                for f in A_COUNTS} == A_COUNTS

    def test_a_fragment_alone_computes_what_it_requests(self, water4):
        mols, _ = water4
        ws = IntegralWorkspace()
        _evaluate([mols[-1]], 0.0, ws)
        assert all(req == comp for req, comp in _counts(ws).values())


def _assert_alone(mols, screen=0.0):
    """Every fragment's results in the call are bitwise its results
    alone, and so are its screening records."""
    ws = IntegralWorkspace()
    whole, screens = _screened(_evaluate, mols, screen, ws)
    F = len(mols)
    for f, mol in enumerate(mols):
        alone, alone_screens = _screened(
            _evaluate, [mol], screen, IntegralWorkspace())
        for got, want in zip(whole, alone):
            assert got[f].shape == want[0].shape
            assert got[f].tobytes() == want[0].tobytes()
        # the fragment's screening records: its own pairs and bound
        assert screens[f::F] == alone_screens
    return ws


class TestContextIndependence:
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_a_fragment_is_its_own_in_any_call(self, water4, data):
        """Subsets and orders of A's fragments, with or without the same
        monomers one step on, screening off or on; unscreened, the
        computed counts are the brute-force set of distinct atom
        blocks."""
        mols, displaced = water4
        picked = data.draw(st.lists(st.sampled_from(range(14)), min_size=1,
                                    max_size=5, unique=True))
        call = [mols[i] for i in picked]
        if data.draw(st.booleans()):
            call += data.draw(st.lists(st.sampled_from(displaced), min_size=1,
                                       max_size=2, unique_by=id))
        call = data.draw(st.permutations(call))
        screen = data.draw(st.sampled_from([0.0, 1e-12]))
        ws = _assert_alone(call, screen)
        if not screen:
            assert _counts(ws) == _brute_force(call)

    def test_a_fragments_fit_is_its_own(self, water4):
        """A's 14 fragments' metrics come in three sizes, each factored
        as one stack: every fragment's ``L^{-1}`` and fit ``B`` are
        bitwise the ones it gets alone."""
        mols, _ = water4
        bases = [BasisSet.build(mol, "sto-3g") for mol in mols]
        auxs = [auto_auxiliary(mol, "sto-3g") for mol in mols]
        assert sorted({aux.nbf for aux in auxs}) == [63, 126, 189]
        whole = prepare_solves(mols, bases, auxs)
        for f, mol in enumerate(mols):
            (alone,) = prepare_solves([mol], [bases[f]], [auxs[f]])
            for got, want in zip(whole[f]["ri"][:2], alone["ri"][:2]):
                assert got.tobytes() == want.tobytes()

    def test_capped_fragments_share_a_cap_hydrogen(self):
        """Glycine residue 0 and the capped non-adjacent dimer (0, 2)
        hold residue 0's cap H at the same coordinates: its blocks are
        computed once and each fragment's results are its own."""
        system = glycine_fragmented(3)
        mols = _fragments(system, keys=[(0, 2), (0,)])
        cap = {(s, x.tobytes()) for s, x in zip(mols[0].symbols, mols[0].coords)}
        shared = [s for s, x in zip(mols[1].symbols, mols[1].coords)
                  if (s, x.tobytes()) in cap]
        assert len(shared) == mols[1].natoms and "H" in shared
        ws = _assert_alone(mols)
        counts = _counts(ws)
        assert counts == _brute_force(mols)
        assert all(comp < req for req, comp in counts.values())
