"""Cross-fragment calls: the fragments of a calculator call are one
evaluation of the integral layer per group.

The contract under test:

* **Stack independence** — a fragment's integrals, contracted
  derivatives, energy and gradient are bitwise the ones it gets alone
  (a call of one), whatever it is evaluated with and in what order,
  with screening off or on and with Schwarz masks that differ inside
  the call (each fragment screened with its own geometry's table, one
  of them displaced further than the rest). End to end, a
  trajectory run by the calculator is bitwise the one run a fragment
  at a time. (`tests/test_one_evaluation.py` holds the same over
  fragments that share atoms.)
* **The group rule** — fragments that share an atom are one group;
  whole such components are packed while their distinct blocks' tables
  fit `table_budget`, every set a group builds is then held whole, and
  a group over the budget on its own builds the rest on the fly, with
  the same bits.
* **Errors stay per fragment** — an SCF that exhausts the recovery
  ladder inside a stack names its own fragment; the fault-plan wrapper
  decides every member at its own (key, step, attempt) and then hands
  the stack on, so a chaos run under `run_serial` stacks as a
  production run does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis import BasisSet, auto_auxiliary
from repro.calculators import (
    PairwisePotentialCalculator,
    RIHFCalculator,
    RIMP2Calculator,
    _stacks,
)
from repro.faults import FaultPlan, FaultPlanCalculator, FaultSpec
from repro.faults.inject import InjectedFault
from repro.frag import FragmentedSystem
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
from repro.integrals.batch import schwarz_pair_bounds, table_bytes
from repro.integrals.workspace import table_budget
from repro.md import (
    AsyncCoordinator,
    maxwell_boltzmann_velocities,
    run_aimd,
    run_serial,
)
from repro.md.scheduler import evaluate_fragments
from repro.scf.rhf import SCFConvergenceError
from repro.systems import water_cluster
from repro.trace import Tracer, recording

from .conftest import table_instants

#: the extra displacement of one fragment (bohr)
FAR = 0.4


def _fragments(n: int, count: int, seed: int):
    """``count`` water ``n``-mers of one composition, in random order:
    each nudged from a reference geometry, one of them moved ``FAR``
    besides. Returns the reference and the fragments (with ``frag_key``
    set to their index)."""
    ref = water_cluster(n, seed=3)
    rng = np.random.default_rng(seed)
    far = int(rng.integers(count))
    mols = []
    for i in range(count):
        shift = 0.02 * rng.standard_normal(ref.coords.shape)
        if i == far:
            shift = shift + FAR
        mol = ref.with_coords(ref.coords + shift)
        mol.frag_key = (i,)
        mols.append(mol)
    order = rng.permutation(count)
    return ref, [mols[i] for i in order]


def _drivers(mols, screen: float, ws, basis: str):
    """Every stacked driver on a stack, with per-fragment coefficients
    drawn from the fragment's key (so a fragment gets the same ones in
    any stack)."""
    bases = [BasisSet.build(mol, basis) for mol in mols]
    auxs = [auto_auxiliary(mol, basis) for mol in mols]
    nb, na, natoms = bases[0].nbf, auxs[0].nbf, mols[0].natoms
    coef = [np.random.default_rng(mol.frag_key[0]) for mol in mols]
    X = np.stack([r.standard_normal((nb, nb)) for r in coef])
    X = X + X.transpose(0, 2, 1)
    Z = np.stack([1e-3 * r.standard_normal((nb, nb, na)) for r in coef])
    zeta = np.stack([r.standard_normal((na, na)) for r in coef])
    with ws.scope():
        return [
            overlap(bases, ws),
            hcore(bases, mols, ws),
            eri3c(bases, auxs, screen, ws),
            eri2c(auxs, ws),
            schwarz_pair_bounds(bases, ws),
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


class TestStackIndependence:
    @settings(max_examples=16, deadline=None)
    @given(shape=st.sampled_from([(1, "sto-3g"), (2, "sto-3g"),
                                  (1, "repro-dzp")]),
           count=st.integers(1, 6), seed=st.integers(0, 2**16),
           screen=st.sampled_from([0.0, 1e-12]))
    def test_drivers(self, shape, count, seed, screen):
        """Every stacked driver; the d shells of ``repro-dzp`` are where
        a reduction over a non-contiguous operand would show."""
        n, basis = shape
        _, mols = _fragments(n, count, seed)
        whole, screens = _screened(
            _drivers, mols, screen, IntegralWorkspace(), basis)
        for f, mol in enumerate(mols):
            alone, alone_screens = _screened(
                _drivers, [mol], screen, IntegralWorkspace(), basis)
            for got, want in zip(whole, alone):
                assert got[f].tobytes() == want[0].tobytes()
            # the fragment's screening record: its own pairs and bound
            assert screens[f::count] == alone_screens

    @pytest.mark.parametrize("calculator", [RIMP2Calculator, RIHFCalculator])
    @settings(max_examples=5, deadline=None)
    @given(n=st.sampled_from([1, 2]), count=st.integers(1, 6),
           seed=st.integers(0, 2**16), screen=st.sampled_from([0.0, 1e-12]))
    def test_energy_gradients(self, calculator, n, count, seed, screen):
        _, mols = _fragments(n, count, seed)
        calc = calculator(int_screen=screen, workspace=IntegralWorkspace())
        with recording(Tracer()) as tracer:
            whole = calc.energy_gradients(mols)
        (stack,) = [ev["args"] for ev in tracer.events
                    if ev["name"] == "calc.stack"]
        assert stack["size"] == count
        for mol, (e, g) in zip(mols, whole):
            alone = calculator(int_screen=screen, workspace=IntegralWorkspace())
            e1, g1 = alone.energy_gradient(mol)
            assert e == e1 and g.tobytes() == g1.tobytes()

    def test_trajectory_equals_one_fragment_at_a_time(self):
        """Three steps of the water-tetramer MBE3 RI-MP2 workload: the
        stacking calculator and a wrapper exposing only
        ``energy_gradient`` (stacks of one) run bitwise the same
        trajectory."""

        class OneAtATime:
            def __init__(self, inner):
                self.inner = inner

            @property
            def guess_cache(self):
                return self.inner.guess_cache

            @guess_cache.setter
            def guess_cache(self, cache):
                self.inner.guess_cache = cache

            def energy_gradient(self, mol):
                return self.inner.energy_gradient(mol)

        system = FragmentedSystem.by_components(water_cluster(4, seed=1))
        assert system.nmonomers == 4
        v0 = maxwell_boltzmann_velocities(system.parent.masses_au, 300.0,
                                          seed=1)
        out = []
        for wrap in (lambda calc: calc, OneAtATime):
            calc = RIMP2Calculator("sto-3g", int_screen=1e-12,
                                   workspace=IntegralWorkspace())
            traj = run_aimd(system, wrap(calc), 3, dt_fs=0.5,
                            r_dimer_bohr=30.0, r_trimer_bohr=15.0,
                            mbe_order=3, velocities=v0)
            out.append((np.asarray(traj.coords).tobytes(),
                        np.asarray(traj.potential).tobytes()))
        assert out[0] == out[1]


class TestGroups:
    """The call is partitioned into groups, one evaluation each:
    fragments that share an atom stay together, whole such components
    are packed while their distinct blocks' tables fit `table_budget`,
    and a group over the budget on its own builds what its held tables
    leave out on the fly, with the same bits."""

    @staticmethod
    def _run(mols, share: float | None):
        ws = IntegralWorkspace()
        if share is not None:
            ws.TABLE_SHARE = share
        calc = RIMP2Calculator(int_screen=1e-12, workspace=ws)
        with recording(Tracer()) as tracer:
            results = calc.energy_gradients(mols)
        groups = [ev["args"] for ev in tracer.events
                  if ev["name"] == "calc.stack"]
        # the run's tracer takes its evaluations' table requests
        return results, groups, ws, table_instants(tracer)

    @staticmethod
    def _water4(keys):
        system = FragmentedSystem.by_components(water_cluster(4, seed=1))
        return [system.fragment_molecule(key, system.parent.coords)[0]
                for key in keys]

    def test_groups_stay_within_the_budget(self):
        """Six dimers sharing no atom are six components: with room for
        two and a half dimers' tables they go as three groups of two,
        each holding its tables whole inside the budget."""
        ref, mols = _fragments(2, 6, seed=11)
        per = table_bytes([BasisSet.build(ref, "sto-3g")],
                          [auto_auxiliary(ref, "sto-3g")], [ref])
        want, groups, _, _ = self._run(mols, None)
        assert [g["size"] for g in groups] == [6]
        share = 2.5 * per / IntegralWorkspace().max_bytes
        got, groups, ws, tables = self._run(mols, share)
        assert [g["size"] for g in groups] == [2, 2, 2]
        assert all(0 < g["table_bytes"] <= table_budget(ws) for g in groups)
        assert 0 < ws.tables_peak_bytes <= table_budget(ws)
        # every set a group builds is held whole: 3 groups x 3 kinds,
        # each built by the value driver and found by the derivative
        assert len(tables) == 18 and all(t["kept"] for t in tables)
        for (e, g), (e0, g0) in zip(got, want):
            assert e == e0 and g.tobytes() == g0.tobytes()

    def test_fragments_that_share_atoms_stay_together(self):
        """Monomer 0 and the dimer (0, 1) share monomer 0's atoms, the
        nudged waters share none: under a budget that holds the pair's
        tables and no more, the pair is one group whatever the order,
        each water another, and results come back in input order."""
        sharing = self._water4([(0,), (0, 1)])
        _, waters = _fragments(1, 2, seed=4)
        mols = [waters[0], sharing[1], waters[1], sharing[0]]
        ws = IntegralWorkspace()
        bases = [BasisSet.build(m, "sto-3g") for m in mols]
        auxs = [auto_auxiliary(m, "sto-3g") for m in mols]
        pair = table_bytes([bases[1], bases[3]], [auxs[1], auxs[3]],
                           [mols[1], mols[3]])
        # the pair's distinct blocks: its dimer's, the monomer adds none
        assert pair == table_bytes([bases[1]], [auxs[1]], [mols[1]])
        ws.TABLE_SHARE = pair / ws.max_bytes
        groups = [idx for idx, _, _ in _stacks(mols, "sto-3g", ws)]
        assert groups == [[0], [1, 3], [2]]
        got, _, _, _ = self._run(mols, pair / ws.max_bytes)
        for mol, (e, g) in zip(mols, got):
            e1, g1 = RIMP2Calculator(
                int_screen=1e-12,
                workspace=IntegralWorkspace()).energy_gradient(mol)
            assert e == e1 and g.tobytes() == g1.tobytes()

    def test_a_group_over_the_budget_builds_on_the_fly(self):
        """Four fragments sharing monomer 0 under a budget below half a
        trimer's tables: still one group, which holds what fits and
        builds the rest as it goes — the same bits."""
        mols = self._water4([(0,), (0, 1), (0, 2), (0, 1, 2)])
        want, _, _, _ = self._run(mols, None)
        per = table_bytes([BasisSet.build(mols[3], "sto-3g")],
                          [auto_auxiliary(mols[3], "sto-3g")], [mols[3]])
        share = 0.5 * per / IntegralWorkspace().max_bytes
        got, groups, ws, tables = self._run(mols, share)
        assert [g["size"] for g in groups] == [4]
        assert ws.tables_peak_bytes <= table_budget(ws)
        # held what fit, built the rest on the fly: the same bits
        assert tables and not all(t["kept"] for t in tables)
        for (e, g), (e0, g0) in zip(got, want):
            assert e == e0 and g.tobytes() == g0.tobytes()


class TestErrorsPerFragment:
    def test_exhausted_ladder_names_its_fragment(self, monkeypatch):
        """The middle fragment of a stack never converges: the whole
        recovery ladder runs, and the typed error names that fragment,
        not the stack's first."""
        import repro.scf.recovery as recovery

        _, mols = _fragments(1, 3, seed=6)
        bad = mols[1].frag_key
        real = recovery.rhf

        def rhf(mol, *args, **kwargs):
            if mol.frag_key == bad:
                raise SCFConvergenceError("planned non-convergence")
            return real(mol, *args, **kwargs)

        monkeypatch.setattr(recovery, "rhf", rhf)
        calc = RIMP2Calculator(workspace=IntegralWorkspace())
        with pytest.raises(SCFConvergenceError) as err:
            calc.energy_gradients(mols)
        assert f"fragment {bad}" in str(err.value)
        assert "cascade exhausted" in str(err.value)
        assert f"fragment {mols[0].frag_key}" not in str(err.value)

    def test_fault_plan_fires_per_member_then_delegates_the_stack(self):
        """The fault-plan wrapper decides every member at the member's
        own (key, step, attempt) — a raising fault raises before any
        member is evaluated — and then hands the stack on in one call."""
        _, mols = _fragments(1, 3, seed=7)

        class Recorder:
            def __init__(self):
                self.stacks = []

            def energy_gradients(self, mols):
                self.stacks.append([mol.frag_key for mol in mols])
                return [(0.0, np.zeros((mol.natoms, 3))) for mol in mols]

        inner = Recorder()
        target = mols[2].frag_key
        plan = FaultPlan(specs=[FaultSpec(kind="transient", step=5,
                                          key=target, attempts=2)])
        calc = FaultPlanCalculator(inner, plan)
        for mol, step in zip(mols, (4, 4, 5)):
            mol.step, mol.attempt = step, 1
        with pytest.raises(InjectedFault, match=rf"fragment \({target[0]},\)"):
            evaluate_fragments(calc, mols)
        assert inner.stacks == []
        for mol in mols:
            mol.attempt = 2
        results = evaluate_fragments(calc, mols)
        assert inner.stacks == [[mol.frag_key for mol in mols]]
        assert len(results) == 3

    def test_chaos_run_hands_the_wrapped_calculator_stacks(self):
        """A fault-plan run under `run_serial` makes the production call:
        the wrapped calculator gets each round's fragments as one stack,
        the plan fires at its own fragment and step, and the trajectory
        is the clean run's."""
        system = FragmentedSystem.by_components(water_cluster(3, seed=1))
        sizes = []

        class Sizes:
            def energy_gradients(self, mols):
                sizes.append(len(mols))
                return PairwisePotentialCalculator().energy_gradients(mols)

        def run(calc):
            co = AsyncCoordinator(system, nsteps=3, dt_fs=0.5,
                                  r_dimer_bohr=1.0e6, mbe_order=2, seed=2)
            run_serial(co, calc)
            return co.trajectory_energies()

        plan = FaultPlan(specs=[FaultSpec(kind="cache_poison", step=2,
                                          key=(0, 1))])
        chaos = run(FaultPlanCalculator(Sizes(), plan))
        clean = run(PairwisePotentialCalculator())
        assert max(sizes) > 1
        assert [(r.step, r.key) for r in plan.audit] == [(2, (0, 1))]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(chaos, clean))
