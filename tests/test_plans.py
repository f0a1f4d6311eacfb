"""Plans once per composition: what an evaluation of the integral layer
builds from the fragments' compositions and shared atoms alone — the
pair and site plans, the block lists, the scatter maps and the
calculators' groups and bases — is built once, kept in the workspace's
store and reused at every geometry of the same compositions.

A plan changes no arithmetic: every driver's output, every energy and
gradient and every screening counter from a reused plan is bitwise the
one a freshly built plan gives, whatever the plan's history (another
geometry, another screening mask, evicted and rebuilt)."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.integrals
from repro.basis import BasisSet, auto_auxiliary
from repro.calculators import RIHFCalculator, RIMP2Calculator
from repro.chem.molecule import Molecule
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
from repro.systems import water_cluster

#: skips pairs of A's fragments, a different set at each of the geometries
SCREEN = 1.0e-6


def _fragments(coords_noise: float, seed: int = 3):
    """A's 14 fragments (water tetramer, MBE3) at a displaced geometry."""
    fs = FragmentedSystem.by_components(water_cluster(4, seed=1))
    keys = build_plan(fs, 30.0, 15.0, order=3).fragments
    rng = np.random.default_rng(seed)
    coords = fs.parent.coords + coords_noise * rng.standard_normal(
        fs.parent.coords.shape)
    return [fs.fragment_molecule(key, coords)[0] for key in keys]


def _same(a, b) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _plans(ws) -> list[str]:
    return sorted(key[1] for key in ws._entries if key[0] == "plan")


def _drivers(mols, ws, screen):
    """Every driver's output for one call of ``mols`` (sto-3g, fixed
    random coefficients), in one scope of ``ws``."""
    bases = [BasisSet.build(mol, "sto-3g") for mol in mols]
    auxs = [auto_auxiliary(mol, "sto-3g") for mol in mols]
    rng = np.random.default_rng(5)
    X = [rng.standard_normal((b.nbf, b.nbf)) for b in bases]
    Z = [rng.standard_normal((b.nbf, b.nbf, a.nbf))
         for b, a in zip(bases, auxs)]
    zeta = [rng.standard_normal((a.nbf, a.nbf)) for a in auxs]
    natoms = [mol.natoms for mol in mols]
    with ws.scope():
        out = {
            "overlap": overlap(bases, ws),
            "hcore": hcore(bases, mols, ws),
            "eri3c": eri3c(bases, auxs, screen=screen, workspace=ws),
            "eri2c": eri2c(auxs, ws),
            "hcore_deriv": contract_hcore_deriv(bases, mols, X, ws),
            "overlap_deriv": contract_overlap_deriv(bases, X, ws),
            "eri2c_deriv": contract_eri2c_deriv(auxs, zeta, natoms, ws),
            "eri3c_deriv": contract_eri3c_deriv(bases, auxs, Z, natoms,
                                                screen=screen, workspace=ws),
        }
    return out


class TestReusedPlanIsAFreshOne:
    @pytest.mark.parametrize("screen", [0.0, SCREEN])
    def test_every_driver_bitwise_at_two_geometries(self, screen):
        """One workspace evaluates two geometries of the same fragments
        (the second on the plans the first built, with another screening
        mask); each call is bitwise a workspace's that has never seen
        the fragments."""
        ws = IntegralWorkspace()
        skipped = []
        for noise in (0.0, 0.1):
            mols = _fragments(noise)
            before = ws.pairs_skipped
            got = _drivers(mols, ws, screen)
            skipped.append(ws.pairs_skipped - before)
            fresh = IntegralWorkspace()
            want = _drivers(mols, fresh, screen)
            assert fresh.pairs_skipped == skipped[-1]
            for name in want:
                assert _same(got[name], want[name]), name
        if screen:
            assert skipped[0] != skipped[1] and min(skipped) > 0
        assert _plans(ws) == _plans(fresh)

    def test_a_energies_and_gradients_bitwise(self):
        """A's 14 RI-MP2 energies and gradients, screened, from plans
        built at another geometry are bitwise a cold workspace's, and so
        are the screening counters."""
        ws = IntegralWorkspace()
        calc = RIMP2Calculator(int_screen=SCREEN, workspace=ws)
        calc.energy_gradients(_fragments(0.0))
        plans = _plans(ws)
        before = ws.pairs_total, ws.pairs_skipped, ws.neglected_bound
        mols = _fragments(0.1)
        got = calc.energy_gradients(mols)
        assert _plans(ws) == plans  # nothing built again
        fresh = IntegralWorkspace()
        want = RIMP2Calculator(int_screen=SCREEN,
                               workspace=fresh).energy_gradients(mols)
        for (e, g), (e0, g0) in zip(got, want):
            assert e == e0 and g.tobytes() == g0.tobytes()
        assert (ws.pairs_total - before[0], ws.pairs_skipped - before[1],
                ws.neglected_bound - before[2]) == (
            fresh.pairs_total, fresh.pairs_skipped, fresh.neglected_bound)


class TestNewCompositionNewPlan:
    def test_changed_sharing_pattern_is_a_new_plan(self):
        """Two calls of the same elements — a dimer with a monomer — one
        sharing the monomer's atoms with the dimer, one not: each gets a
        plan of its own, and each result is its cold call's."""
        cluster = water_cluster(3, seed=2)
        waters = [Molecule(cluster.symbols[i:i + 3], cluster.coords[i:i + 3])
                  for i in range(0, cluster.natoms, 3)]
        dimer = Molecule(cluster.symbols[:6], cluster.coords[:6])
        ws = IntegralWorkspace()
        calc = RIHFCalculator(workspace=ws)
        for mols in ([dimer, waters[0]], [dimer, waters[2]]):
            n = len(ws)
            got = calc.energy_gradients(mols)
            assert len(ws) > n  # new plans, never the other call's
            want = RIHFCalculator(workspace=IntegralWorkspace()
                                  ).energy_gradients(mols)
            for (e, g), (e0, g0) in zip(got, want):
                assert e == e0 and g.tobytes() == g0.tobytes()

    def test_changed_composition_is_a_new_plan(self):
        mol = water_cluster(2, seed=3)
        ws = IntegralWorkspace()
        for name in ("sto-3g", "repro-dz"):
            n = len(ws)
            got = RIHFCalculator(name, workspace=ws).energy_gradient(mol)
            assert len(ws) > n
            want = RIHFCalculator(name, workspace=IntegralWorkspace()
                                  ).energy_gradient(mol)
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()


def test_plans_evicted_every_call_give_the_same_bits():
    """A budget that holds no plan — each is rebuilt on every call —
    gives the bits of one that holds them all."""
    small = IntegralWorkspace(max_bytes=4096)
    big = IntegralWorkspace()
    for noise in (0.0, 0.1):
        mols = _fragments(noise)
        got = RIHFCalculator(int_screen=SCREEN,
                             workspace=small).energy_gradients(mols)
        want = RIHFCalculator(int_screen=SCREEN,
                              workspace=big).energy_gradients(mols)
        assert not _plans(small) and small.nbytes <= 4096
        for (e, g), (e0, g0) in zip(got, want):
            assert e == e0 and g.tobytes() == g0.tobytes()
    assert (small.pairs_skipped, small.neglected_bound) == (
        big.pairs_skipped, big.neglected_bound)


def test_metric_bra_expansions_built_once_per_composition(monkeypatch):
    """The metric derivative's bra expansions are the site plan's: the
    first call of A's compositions builds them, a call at another
    geometry builds none, and both are bitwise a cold workspace's."""
    from repro.integrals import batch

    built = []
    inner = batch._w_deriv_1d
    monkeypatch.setattr(batch, "_w_deriv_1d",
                        lambda *args: built.append(1) or inner(*args))
    ws = IntegralWorkspace()
    counts = []
    for noise in (0.0, 0.1):
        mols = _fragments(noise)
        auxs = [auto_auxiliary(mol, "sto-3g") for mol in mols]
        rng = np.random.default_rng(5)
        zeta = [rng.standard_normal((a.nbf, a.nbf)) for a in auxs]
        natoms = [mol.natoms for mol in mols]
        n = len(built)
        with ws.scope():
            got = contract_eri2c_deriv(auxs, zeta, natoms, ws)
        counts.append(len(built) - n)
        fresh = IntegralWorkspace()
        with fresh.scope():
            want = contract_eri2c_deriv(auxs, zeta, natoms, fresh)
        assert _same(got, want)
    assert counts[0] > 0 and counts[1] == 0


def test_no_module_level_dict_cache_in_the_integral_layer():
    """What the integral layer keeps across calls lives in the
    workspace's bounded store: no module of `repro.integrals` binds a
    dict at module level (a memo beside the store has an eviction rule
    of its own and is never counted in the budget)."""
    root = Path(repro.integrals.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if isinstance(value, (ast.Dict, ast.DictComp)) or (
                        isinstance(value, ast.Call)
                        and getattr(value.func, "id", getattr(
                            value.func, "attr", None)) in (
                            "dict", "OrderedDict", "defaultdict")):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found

