"""Schwarz screening and the cross-call integral workspace.

Two properties under test:

* **Screening is rigorously bounded** — skipping shell-pair blocks whose
  Cauchy-Schwarz bound falls below the tolerance must leave energies
  within 1e-9 Ha and gradients within 1e-8 Ha/Bohr of the unscreened
  path, the accumulated neglected bound must dominate the actual error,
  and screened gradients must still sum exactly to zero (translation
  invariance: a skipped bra pair drops its auxiliary images too).
* **Workspace caching is exact** — every product served from an
  `IntegralWorkspace` is bitwise what a fresh build would produce;
  geometry-keyed products, Schwarz bound tables included, are one
  evaluation's scratch and leave nothing in the store, a fragment is
  screened where it stands (the engine's fragment after many steps
  exactly as a cold call at its geometry), and a composition change
  can never hit another basis's entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import BasisSet, auto_auxiliary
from repro.calculators import RIHFCalculator, RIMP2Calculator
from repro.chem import Molecule
from repro.frag import FragmentedSystem, build_plan, mbe_energy_gradient
from repro.integrals import (
    IntegralWorkspace,
    contract_eri3c_deriv,
    eri2c,
    eri3c,
    hcore,
    overlap,
)
from repro.integrals.workspace import basis_composition_key, get_workspace
from repro.systems import glycine_chain, water_cluster
from repro.trace import Tracer, current, recording

from .conftest import table_instants

#: acceptance tolerances from the issue: screened results must stay
#: within these of the unscreened path at the default tolerance
ENERGY_TOL_HA = 1.0e-9
GRAD_TOL = 1.0e-8

BIG = 1.0e9  # cutoff that includes every polymer


@pytest.fixture(scope="module")
def water_dimer() -> Molecule:
    return water_cluster(2, seed=3)


@pytest.fixture(scope="module")
def glycine() -> Molecule:
    return glycine_chain(1)


def _exact_calc(cls, **kw):
    """A calculator with screening off, on a fresh workspace (caching is
    exact: it cannot change a bit)."""
    return cls(workspace=IntegralWorkspace(), int_screen=0.0,
               **kw)


class TestScreeningCorrectness:
    def test_eri3c_error_within_neglected_bound(self, water_dimer):
        bs = BasisSet.build(water_dimer, "sto-3g")
        aux = auto_auxiliary(water_dimer)
        exact = eri3c(bs, aux)
        ws = IntegralWorkspace()
        screened = eri3c(bs, aux, screen=1.0e-8, workspace=ws)
        assert ws.pairs_skipped > 0, "tolerance chosen to skip something"
        err = float(np.abs(screened - exact).sum())
        assert err <= ws.neglected_bound * (1 + 1e-10)
        assert float(np.abs(screened - exact).max()) < 1e-8

    def test_screened_deriv_translation_invariance(self, water_dimer):
        bs = BasisSet.build(water_dimer, "sto-3g")
        aux = auto_auxiliary(water_dimer)
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
        Z = Z + Z.transpose(1, 0, 2)
        ws = IntegralWorkspace()
        g = contract_eri3c_deriv(bs, aux, Z, water_dimer.natoms,
                                 screen=1.0e-6, workspace=ws)
        assert ws.pairs_skipped > 0
        # a skipped bra pair removes its aux-center images too, so the
        # screened gradient still sums exactly to zero
        np.testing.assert_allclose(g.sum(axis=0), 0.0, atol=1e-12)

    def test_rihf_water_dimer(self, water_dimer):
        e0, g0 = _exact_calc(RIHFCalculator).energy_gradient(water_dimer)
        calc = RIHFCalculator(workspace=IntegralWorkspace(),
                              int_screen=1.0e-12)
        e1, g1 = calc.energy_gradient(water_dimer)
        assert abs(e1 - e0) <= ENERGY_TOL_HA
        np.testing.assert_allclose(g1, g0, atol=GRAD_TOL)

    def test_rimp2_glycine_monomer(self, glycine):
        e0, g0 = _exact_calc(RIMP2Calculator).energy_gradient(glycine)
        calc = RIMP2Calculator(workspace=IntegralWorkspace(),
                               int_screen=1.0e-12)
        e1, g1 = calc.energy_gradient(glycine)
        assert abs(e1 - e0) <= ENERGY_TOL_HA
        np.testing.assert_allclose(g1, g0, atol=GRAD_TOL)

    def test_mbe3_assembled_gradient(self):
        """Screening composes through MBE assembly: the full inclusion-
        exclusion sum over screened fragment gradients stays within the
        per-fragment tolerances of the exact-assembled result."""
        mol = water_cluster(3, seed=11)
        fs = FragmentedSystem.by_components(mol)
        plan = build_plan(fs, BIG, BIG, order=3)
        e0, g0 = mbe_energy_gradient(fs, plan, _exact_calc(RIHFCalculator))
        ws = IntegralWorkspace()
        calc = RIHFCalculator(workspace=ws, int_screen=1.0e-12)
        e1, g1 = mbe_energy_gradient(fs, plan, calc)
        assert abs(e1 - e0) <= 10 * ENERGY_TOL_HA  # 7 fragments assemble
        np.testing.assert_allclose(g1, g0, atol=10 * GRAD_TOL)
        assert ws.hits > 0  # drivers share class tables, fragments aux groups


class TestWorkspaceExactness:
    """Served-from-cache arrays must be bitwise identical to fresh builds."""

    def test_integrals_bitwise(self, water_dimer):
        bs = BasisSet.build(water_dimer, "sto-3g")
        aux = auto_auxiliary(water_dimer)
        ws = IntegralWorkspace()
        for _ in range(2):  # second pass: the store's products are served
            with ws.scope():  # and inside a pass, the scratch's
                assert np.array_equal(overlap(bs, workspace=ws), overlap(bs))
                assert np.array_equal(hcore(bs, water_dimer, workspace=ws),
                                      hcore(bs, water_dimer))
                assert np.array_equal(eri3c(bs, aux, workspace=ws),
                                      eri3c(bs, aux))
                assert np.array_equal(eri2c(aux, workspace=ws), eri2c(aux))
        assert ws.hits > 0

    def test_repeat_energy_bitwise(self, water_dimer):
        calc = RIHFCalculator(workspace=IntegralWorkspace(), int_screen=0.0)
        e1, g1 = calc.energy_gradient(water_dimer)
        e2, g2 = calc.energy_gradient(water_dimer)
        assert e1 == e2
        assert np.array_equal(g1, g2)


class TestWorkspaceInvalidation:
    def test_pair_entries_rekey_on_geometry(self, water_dimer):
        """Moving the geometry misses the pair tables even inside one
        scope (keys carry exact centers) and the fresh entries reproduce
        the exact integrals."""
        bs1 = BasisSet.build(water_dimer, "sto-3g")
        moved = water_dimer.with_coords(water_dimer.coords + 0.05)
        bs2 = BasisSet.build(moved, "sto-3g")
        ws = IntegralWorkspace()
        with ws.scope():
            assert np.array_equal(overlap(bs1, workspace=ws), overlap(bs1))
            before = ws.hits, ws.misses
            assert np.array_equal(overlap(bs2, workspace=ws), overlap(bs2))
            assert (ws.hits, ws.misses) == (before[0], before[1] + 1)
            assert np.array_equal(overlap(bs1, workspace=ws), overlap(bs1))
            assert ws.hits == before[0] + 1

    def test_composition_change_is_a_new_key(self, water_dimer):
        bs_w = BasisSet.build(water_dimer, "sto-3g")
        gly = glycine_chain(1)
        bs_g = BasisSet.build(gly, "sto-3g")
        assert basis_composition_key(bs_w) != basis_composition_key(bs_g)
        ws = IntegralWorkspace()
        with ws.scope():
            Qw, = ws.schwarz_bounds_stack([bs_w])
            Qg, = ws.schwarz_bounds_stack([bs_g])
            tables = [key for key in ws._scope.scratch if key[0] == "schwarz"]
        assert len(tables) == 2  # no cross-composition hit
        assert Qw.shape != Qg.shape

    def test_lru_eviction_preserves_exactness(self, water_dimer):
        # What the store holds is composition-keyed (the plans and the
        # auxiliary function bounds), so a second basis gives a budget
        # that holds either composition's but not both something to
        # evict; coming back to the first one rebuilds the evicted
        # entries transparently and stays exact.
        names = ("sto-3g", "repro-dz", "sto-3g")

        def inputs(name):
            return (BasisSet.build(water_dimer, name),
                    auto_auxiliary(water_dimer, name))

        resident = []
        for name in names[:2]:
            alone = IntegralWorkspace()
            eri3c(*inputs(name), screen=1e-12, workspace=alone)
            resident.append(alone.nbytes)
        budget = max(resident) + min(resident) // 2  # below both together
        ws = IntegralWorkspace(max_bytes=budget)
        for name in names:
            bs, aux = inputs(name)
            assert np.array_equal(
                eri3c(bs, aux, screen=1e-12, workspace=ws),
                eri3c(bs, aux, screen=1e-12),
            )
            assert ws.nbytes <= budget
        assert ws.evictions > 0


class TestScratchIsNotState:
    """What the store holds is a function of the compositions seen, not
    of how many geometries were evaluated: geometry-keyed products live
    and die with the evaluation's scope."""

    def test_store_is_flat_over_a_long_horizon(self, water_dimer):
        ws = IntegralWorkspace()
        calc = RIMP2Calculator(int_screen=1e-12, workspace=ws)
        ref = RIMP2Calculator(int_screen=1e-12)  # the process-global one
        rng = np.random.default_rng(17)
        resident = {}
        for n in range(1, 41):
            mol = water_dimer.with_coords(
                water_dimer.coords + 0.01 * rng.standard_normal((6, 3)))
            if n in (7, 23):  # a geometry revisited inside the run
                assert calc.energy(mol) == ref.energy(mol)
            (e, g), (e0, g0) = calc.energy_gradient(mol), ref.energy_gradient(mol)
            assert e == e0 and g.tobytes() == g0.tobytes()
            resident[n] = len(ws), ws.nbytes, {key[0] for key in ws._entries}
        assert resident[2] == resident[40]
        assert resident[40][2] <= {"auxbound", "plan"}
        assert ws.evictions == 0


class TestScreenWhereYouStand:
    """Screening is a function of the current geometry alone: neither a
    fragment's history nor its stack-mates change what it is screened
    with."""

    @staticmethod
    def _spy_tables(ws) -> dict:
        """Every Schwarz table ``ws`` serves, by basis centres."""
        tables, build = {}, ws.schwarz_bounds_stack

        def spy(bases):
            out = build(bases)
            for basis, Q in zip(bases, out):
                centers = np.array([sh.center for sh in basis.shells])
                tables[centers.tobytes()] = Q
            return out

        ws.schwarz_bounds_stack = spy
        return tables

    def test_engine_fragment_screens_as_a_cold_call(self):
        """After 8 steps through the engine (records carried, stacked
        with its neighbours), every fragment of the last stack gets the
        Schwarz tables, skipped pairs, energy and gradient of a cold bare
        call at its geometry in a fresh workspace, bitwise; and the
        run's workspace keeps no Schwarz table."""
        from repro.calculators import CalculatorWrapper
        from repro.md import AsyncCoordinator, run_serial

        screen = 1e-6  # skips pairs of the sto-3g water dimers
        ws = IntegralWorkspace()
        tables = self._spy_tables(ws)
        stacks = []

        class Spy(CalculatorWrapper):
            def energy_gradients(self, mols):
                before = ws.pairs_skipped
                out = self.inner.energy_gradients(mols)
                stacks.append((mols, out, ws.pairs_skipped - before))
                return out

        system = FragmentedSystem.by_components(water_cluster(3, seed=5))
        engine = AsyncCoordinator(
            system, nsteps=8, dt_fs=0.5, r_dimer_bohr=BIG, mbe_order=2,
            temperature_k=200.0, seed=8, warm_start=False,
            synchronous=True,
        )
        run_serial(engine, Spy(RIHFCalculator(int_screen=screen,
                                              workspace=ws)))
        assert not [key for key in ws._entries if key[0] == "schwarz"]

        mols, results, skipped = stacks[-1]
        assert min(mol.step for mol in mols) >= 6 and len(mols) > 1
        assert skipped > 0
        cold_skipped = 0
        for mol, (energy, grad) in zip(mols, results):
            bare = Molecule(mol.symbols, mol.coords)
            fresh = IntegralWorkspace()
            cold_tables = self._spy_tables(fresh)
            e0, g0 = RIHFCalculator(int_screen=screen,
                                    workspace=fresh).energy_gradient(bare)
            assert energy == e0 and grad.tobytes() == g0.tobytes()
            assert cold_tables and all(
                Q.tobytes() == tables[key].tobytes()
                for key, Q in cold_tables.items())
            cold_skipped += fresh.pairs_skipped
        assert skipped == cold_skipped


class TestTableMaskReconciliation:
    """`eri3c` screens on ``Q_ab``, its derivative on ``50 Q_ab |Z|``:
    the table set is per surviving pair of the first, and the second
    selects its pairs' columns and builds the few the first dropped."""

    @pytest.fixture()
    def case(self, water_dimer):
        bs = BasisSet.build(water_dimer, "sto-3g")
        aux = auto_auxiliary(water_dimer)
        rng = np.random.default_rng(9)
        Z = rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
        return water_dimer, bs, aux, Z

    @pytest.mark.parametrize("zscale, wider", [(1.0, True), (1e-4, False)])
    def test_masks_differ_both_ways(self, case, zscale, wider):
        mol, bs, aux, Z = case
        screen = 1.0e-4  # five pairs of the dimer sit below it
        ws = IntegralWorkspace()
        with recording(Tracer()) as tracer, ws.scope():
            eri3c(bs, aux, screen=screen, workspace=ws)
            skipped_value = ws.pairs_skipped
            g = contract_eri3c_deriv(bs, aux, Z * zscale, mol.natoms,
                                     screen=screen, workspace=ws)
        skipped_deriv = ws.pairs_skipped - skipped_value
        assert skipped_value > 0
        built, served = table_instants(tracer)
        assert served["hit"] and built["rebuilt_pairs"] == 0
        if wider:  # the derivative keeps pairs `eri3c` dropped
            assert skipped_deriv < skipped_value
            assert served["rebuilt_pairs"] == skipped_value - skipped_deriv
            assert served["orders"] and served["elements"] > 0
        else:      # it drops more: nothing to build, columns selected
            assert skipped_deriv > skipped_value
            assert served["rebuilt_pairs"] == 0 and served["orders"] == []
        ref = contract_eri3c_deriv(bs, aux, Z * zscale, mol.natoms,
                                   screen=screen,
                                   workspace=IntegralWorkspace())
        assert g.tobytes() == ref.tobytes()
        # the skip decisions are each driver's own, found tables or not
        fresh = IntegralWorkspace()
        contract_eri3c_deriv(bs, aux, Z * zscale, mol.natoms,
                             screen=screen, workspace=fresh)
        assert fresh.pairs_skipped == skipped_deriv

    def test_second_value_call_with_another_mask(self, case):
        """A set another `eri3c` call of the evaluation left under a
        different threshold is used where it applies."""
        mol, bs, aux, Z = case
        ws = IntegralWorkspace()
        with recording(Tracer()) as tracer, ws.scope():
            a = eri3c(bs, aux, screen=1.0e-4, workspace=ws)
            b = eri3c(bs, aux, screen=0.0, workspace=ws)
        assert np.array_equal(a, eri3c(bs, aux, screen=1.0e-4))
        assert np.array_equal(b, eri3c(bs, aux))
        first, second = table_instants(tracer)
        assert second["hit"] and second["rebuilt_pairs"] == ws.pairs_skipped

    def test_table_instants_and_stats(self, case):
        mol, bs, aux, Z = case
        from repro.integrals import contract_eri2c_deriv

        ws = IntegralWorkspace()
        with recording(Tracer()) as tracer, ws.scope():
            eri2c(aux, workspace=ws)
            (built,) = table_instants(tracer)
            assert built == dict(
                product="coulomb_tables", kind="eri2c", hit=False,
                orders=[1, 2, 3, 4, 5], elements=built["elements"],
                nbytes=8 * built["elements"], kept=True, rebuilt_pairs=0,
            )
            assert ws.stats()["tables_peak_bytes"] == built["nbytes"]
            # the scratch lookup counts like store traffic: a built
            # then found set is one miss and one hit
            before = ws.hits, ws.misses
            contract_eri2c_deriv(
                aux, np.ones((aux.nbf, aux.nbf)), mol.natoms, ws)
        # (the site plan at di=1 is a plan: its lookup is not counted)
        assert (ws.hits - before[0], ws.misses - before[1]) == (1, 0)
        assert table_instants(tracer)[1]["hit"]


class TestTracerRouting:
    """A run's tracer is the calling thread's (`repro.trace.recording`);
    no workspace holds one, the shared one least of all."""

    def test_untraced_run_after_traced_one_on_the_global_workspace(
            self, water_dimer):
        with recording(Tracer()) as tracer:
            RIMP2Calculator(int_screen=1e-12).energy_gradient(water_dimer)
        seen = len(tracer.events)
        assert tracer.instants("int.screen")
        assert table_instants(tracer)
        assert current() is None
        assert not hasattr(get_workspace(), "tracer")
        moved = water_dimer.with_coords(water_dimer.coords + 0.01)
        RIMP2Calculator(int_screen=1e-12).energy_gradient(moved)
        assert len(tracer.events) == seen

    def test_nested_scope_shares_the_scratch(self):
        """A nested scope joins the open scratch and leaves it open; an
        `evaluation` inside opens its own and puts the outer one back."""
        ws = IntegralWorkspace()
        scope = ws._scope
        with ws.scope():
            outer = scope.scratch
            assert outer is not None
            with ws.scope():
                assert scope.scratch is outer
            assert scope.scratch is outer
            with ws.evaluation() as inner:
                assert inner is not outer and scope.scratch is inner
                with ws.scope():
                    assert scope.scratch is inner
            assert scope.scratch is outer
        assert scope.scratch is None

    def test_other_threads_keep_their_own_tracer(self, water_dimer):
        """Two threads on one workspace, each recording into its own
        tracer: each tracer sees its own evaluation's instants only."""
        import threading

        ws = IntegralWorkspace()
        tracers = [Tracer(), Tracer()]
        mols = [water_dimer,
                water_dimer.with_coords(water_dimer.coords + 0.3)]

        def work(i):
            with recording(tracers[i]):
                RIHFCalculator(int_screen=1e-12,
                               workspace=ws).energy_gradient(mols[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        for tracer in tracers:
            assert len(tracer.instants("int.screen")) == 2
            assert len(table_instants(tracer)) == 6
