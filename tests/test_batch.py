"""Batched shell-class kernels vs an independent reference.

The batched drivers in `repro.integrals.batch` (and the two- and
four-centre drivers in `eri.py`, on the same kernels) are the only
implementation; `tests/integral_reference.py` is the reference: per
primitive Taketa-Huzinaga-Oohata formulas with a Boys function of their
own, sharing no table with the code under test. The contract under
test:

* **Tolerance vs the reference** — matrices and 3c tensors agree to
  rtol 1e-12, contracted gradients to atol 1e-12 Ha/bohr; a screened
  driver's skipped elements are each below its threshold and its
  recorded neglected bound covers what it dropped. The ``*_bitwise``
  test ids predate this contract and are kept so the suite's test list
  stays comparable across PRs; what they assert is the tolerance.
* **Determinism** — two calls on fresh workspaces, and any chunk size,
  give bit-identical results including the recorded neglected bound
  (what bitwise resume rests on).
* **One array library** — the kernels are NumPy: no backend module,
  no ``be``/``xp`` parameter, no ``--backend`` (`TestOneArrayLibrary`).
* **Cache accounting** — `payload_nbytes` counts actual array payloads
  (deduplicating shared bases), the workspace evicts in true
  least-recently-used order, and fragment records hold at most their
  history of densities.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis import BasisSet, Shell, auto_auxiliary
from repro.calculators import (
    FragmentRecord,
    GuessCache,
    RIHFCalculator,
    RIMP2Calculator,
)
from repro.chem import Molecule
from repro.frag import FragmentedSystem, build_plan, mbe_energy_gradient
from repro.integrals import (
    IntegralWorkspace,
    batch,
    contract_eri2c_deriv,
    engine,
    eri2c,
)
from repro.integrals.batch import (
    CoulombTables,
    _build_tables,
    _ket_inputs,
    _w_class,
    _w_deriv_class,
    contract_eri3c_deriv,
    contract_kinetic_deriv,
    contract_nuclear_deriv,
    contract_overlap_deriv,
    eri3c,
    kinetic,
    nuclear,
    overlap,
    schwarz_pair_bounds,
)
from repro.integrals import eri as four_centre
from repro.integrals.engine import (
    aux_group_data,
    comp_arrays,
    hermite_simplex,
)
from repro.integrals.eri import contract_eri4c_deriv_hf
from repro.integrals.workspace import get_workspace
from repro.store import payload_nbytes
from repro.systems import glycine_chain, water_cluster
from repro.trace import Tracer, recording

from . import integral_reference as ref
from .conftest import hermite_cube, shell_classes, table_instants


@pytest.fixture(scope="module")
def water() -> Molecule:
    mol = water_cluster(1, seed=0)
    # break all point-group symmetry so no accidental cancellations
    rng = np.random.default_rng(7)
    return Molecule(
        mol.symbols, mol.coords + 0.05 * rng.standard_normal(mol.coords.shape)
    )


@pytest.fixture(scope="module")
def water_dimer() -> Molecule:
    return water_cluster(2, seed=3)


def _setup(mol, basis_name):
    bs = BasisSet.build(mol, basis_name)
    aux = auto_auxiliary(mol)
    return bs, aux


def _sym(n, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    return X + X.T


BASES = ["sto-3g", "repro-dzp"]


def _assert_tensor_close(got, ref):
    """Matrices and 3c tensors: rtol 1e-12 (elements that cancel to
    ~0 are held to the same 1e-12 of the tensor's scale)."""
    np.testing.assert_allclose(
        got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max()
    )


def _assert_gradient_close(got, ref):
    """Contracted gradients: 1e-12 Ha/bohr absolute."""
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


class TestOneElectronParity:
    """s/p/d shell-class mixes: sto-3g is s/p, repro-dzp adds d."""

    @pytest.mark.parametrize("basis_name", BASES)
    def test_overlap_bitwise(self, water, basis_name):
        bs, _ = _setup(water, basis_name)
        _assert_tensor_close(overlap(bs), ref.overlap(bs))

    @pytest.mark.parametrize("basis_name", BASES)
    def test_kinetic_bitwise(self, water, basis_name):
        bs, _ = _setup(water, basis_name)
        _assert_tensor_close(kinetic(bs), ref.kinetic(bs))

    @pytest.mark.parametrize("basis_name", BASES)
    def test_nuclear_close(self, water, basis_name):
        bs, _ = _setup(water, basis_name)
        np.testing.assert_allclose(
            nuclear(bs, water), ref.nuclear(bs, water),
            rtol=0, atol=1e-13,
        )

    @pytest.mark.parametrize("basis_name", BASES)
    def test_overlap_deriv_bitwise(self, water, basis_name):
        bs, _ = _setup(water, basis_name)
        X = _sym(bs.nbf, seed=1)
        _assert_gradient_close(
            contract_overlap_deriv(bs, X),
            ref.contract_overlap_deriv(bs, water.natoms, X),
        )

    @pytest.mark.parametrize("basis_name", BASES)
    def test_kinetic_deriv_bitwise(self, water, basis_name):
        bs, _ = _setup(water, basis_name)
        X = _sym(bs.nbf, seed=2)
        _assert_gradient_close(
            contract_kinetic_deriv(bs, X),
            ref.contract_kinetic_deriv(bs, water.natoms, X),
        )

    @pytest.mark.parametrize("basis_name", BASES)
    def test_nuclear_deriv_close(self, water, basis_name):
        bs, _ = _setup(water, basis_name)
        X = _sym(bs.nbf, seed=3)
        _assert_gradient_close(
            contract_nuclear_deriv(bs, water, X),
            ref.contract_nuclear_deriv(bs, water, X),
        )


def _assert_screened_values(got, exact, screen, neglected):
    """A screened tensor against the unscreened driver's: what it kept
    equals it, every element it dropped (exactly zero) is below
    ``screen``, and their sum is within the recorded bound (the
    reference's last digits of a 1e-48 element are noise)."""
    dropped = (got == 0.0) & (exact != 0.0)
    assert dropped.any()
    _assert_tensor_close(got, np.where(dropped, 0.0, exact))
    assert np.abs(exact[dropped]).max() <= screen
    assert np.abs(exact[dropped]).sum() <= neglected


class TestThreeCenterParity:
    @pytest.mark.parametrize("basis_name", BASES)
    def test_eri3c_bitwise_unscreened(self, water, basis_name):
        bs, aux = _setup(water, basis_name)
        _assert_tensor_close(eri3c(bs, aux, screen=0.0), ref.eri3c(bs, aux))

    def test_eri3c_bitwise_screened_shared_table(self, water_dimer):
        """Screened against the reference: the kept blocks are its
        values, the skipped ones below the threshold and within the
        bound; a second call on the same workspace (one Schwarz table)
        makes exactly the same skips."""
        bs, aux = _setup(water_dimer, "sto-3g")
        ws = IntegralWorkspace()
        a = eri3c(bs, aux, screen=1e-6, workspace=ws)
        seen_a, skipped_a = ws.pairs_total, ws.pairs_skipped
        neglect_a = ws.neglected_bound
        assert skipped_a > 0
        exact = eri3c(bs, aux)
        _assert_tensor_close(exact, ref.eri3c(bs, aux))
        _assert_screened_values(a, exact, 1e-6, neglect_a)
        b = eri3c(bs, aux, screen=1e-6, workspace=ws)
        assert np.array_equal(a, b)
        assert ws.pairs_total == 2 * seen_a
        assert ws.pairs_skipped == 2 * skipped_a
        assert ws.neglected_bound == 2 * neglect_a

    def test_schwarz_close(self, water):
        bs, _ = _setup(water, "repro-dzp")
        np.testing.assert_allclose(
            schwarz_pair_bounds(bs), ref.schwarz(bs), rtol=1e-12, atol=0,
        )

    @pytest.mark.parametrize("screen", [0.0, 1e-6])
    def test_eri3c_deriv_bitwise(self, water, water_dimer, screen):
        """Unscreened against the reference; screened (the dimer, where
        pairs are far enough apart to skip) against the unscreened
        driver, within the neglected bound it records; and the same
        bound twice over on the same workspace."""
        mol = water if screen == 0.0 else water_dimer
        bs, aux = _setup(mol, "sto-3g")
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
        Z = Z + Z.transpose(1, 0, 2)
        ws = IntegralWorkspace()
        gb = contract_eri3c_deriv(
            bs, aux, Z, mol.natoms, screen=screen, workspace=ws
        )
        seen, skipped = ws.pairs_total, ws.pairs_skipped
        neglect = ws.neglected_bound
        if screen == 0.0:
            _assert_gradient_close(
                gb, ref.contract_eri3c_deriv(bs, aux, Z, mol.natoms))
        else:
            assert skipped > 0
            exact = contract_eri3c_deriv(bs, aux, Z, mol.natoms)
            assert np.abs(gb - exact).max() <= neglect
        again = contract_eri3c_deriv(
            bs, aux, Z, mol.natoms, screen=screen, workspace=ws)
        assert np.array_equal(gb, again)
        assert (ws.pairs_total, ws.pairs_skipped) == (2 * seen, 2 * skipped)
        assert ws.neglected_bound == 2 * neglect
        # translation invariance survives batching (and screening)
        np.testing.assert_allclose(gb.sum(axis=0), 0.0, atol=1e-10)

    def test_chunk_invariance(self, water_dimer, monkeypatch):
        """Tiny chunks must reproduce the one-shot result bitwise."""
        bs, aux = _setup(water_dimer, "sto-3g")
        ref = eri3c(bs, aux)
        X = _sym(bs.nbf, seed=5)
        dref = contract_overlap_deriv(bs, X)
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
        ws = IntegralWorkspace()
        gref = contract_eri3c_deriv(
            bs, aux, Z, water_dimer.natoms, screen=1e-6, workspace=ws
        )
        assert ws.pairs_skipped > 0
        monkeypatch.setattr(batch, "_CHUNK_ELEMS", 256)
        assert np.array_equal(eri3c(bs, aux), ref)
        assert np.array_equal(contract_overlap_deriv(bs, X), dref)
        ws2 = IntegralWorkspace()
        g = contract_eri3c_deriv(
            bs, aux, Z, water_dimer.natoms, screen=1e-6, workspace=ws2
        )
        assert np.array_equal(g, gref)
        assert ws2.pairs_skipped == ws.pairs_skipped
        assert ws2.neglected_bound == ws.neglected_bound

    def test_run_to_run_determinism(self, water_dimer):
        """Every batched driver, twice on fresh workspaces: same bits."""
        bs, aux = _setup(water_dimer, "sto-3g")
        mol = water_dimer
        X = _sym(bs.nbf, seed=13)
        rng = np.random.default_rng(14)
        Z = rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))

        def run_all():
            ws = IntegralWorkspace()
            out = [
                overlap(bs, ws),
                kinetic(bs, ws),
                nuclear(bs, mol, ws),
                schwarz_pair_bounds(bs, ws),
                eri3c(bs, aux, screen=1e-6, workspace=ws),
                contract_overlap_deriv(bs, X, ws),
                contract_kinetic_deriv(bs, X, ws),
                contract_nuclear_deriv(bs, mol, X, ws),
                contract_eri3c_deriv(
                    bs, aux, Z, mol.natoms, screen=1e-6, workspace=ws
                ),
            ]
            return out, ws.pairs_skipped, ws.neglected_bound

        first, skipped1, neglect1 = run_all()
        second, skipped2, neglect2 = run_all()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        assert skipped1 == skipped2 > 0
        assert neglect1 == neglect2


class TestSimplexTrimming:
    """The runtime kernels evaluate only the Hermite rows with
    ``t + u + v <= L``. What that rests on: everything else in the
    cube is multiplied by an E-table entry that is identically zero."""

    @pytest.mark.parametrize("basis_name", ["sto-3g", "repro-dz"])
    @pytest.mark.parametrize("system", ["water", "glycine"])
    def test_expansions_vanish_outside_the_simplex(self, system, basis_name):
        mol = water_cluster(1, seed=0) if system == "water" else glycine_chain(1)
        bs = BasisSet.build(mol, basis_name)
        for cls in shell_classes(bs):
            ca, cb = comp_arrays(cls.la), comp_arrays(cls.lb)
            L = cls.la + cls.lb
            box = hermite_cube(L + 1)
            order = box.sum(axis=1)
            W = _w_class(cls.E, ca, cb, box)
            assert W[..., order <= L].any()
            assert np.all(W[..., order > L] == 0.0)
            for side in ("bra", "ket"):
                for axis in range(3):
                    dW = _w_deriv_class(
                        cls.E, cls.a, cls.b, ca, cb, box, side, axis
                    )
                    assert dW[..., order == L + 1].any()
                    assert np.all(dW[..., order > L + 1] == 0.0)
        s_comp = comp_arrays(0)
        for grp in aux_group_data(auto_auxiliary(mol), di=1):
            cg = grp.comps
            box = hermite_cube(grp.lmax + 1)
            order = box.sum(axis=1)
            E = grp.E[:, None]
            assert np.all(
                _w_class(E, cg, s_comp, box)[..., order > grp.lmax] == 0.0
            )
            a = grp.a[:, None]
            b = np.zeros_like(a)
            for axis in range(3):
                dW = _w_deriv_class(E, a, b, cg, s_comp, box, "bra", axis)
                assert np.all(dW[..., order > grp.lmax + 1] == 0.0)


class TestKernelModeDispatch:
    """One kernel family: there is no mode left to dispatch on."""

    def test_no_runtime_caller_of_loop_reference(self):
        """One kernel family: nothing under ``src/`` defines or calls a
        ``*_loop`` driver or names the per-pair family (its pair tables,
        Hermite-cube tensors and recursion, general contraction), and
        the Hermite Coulomb recursion has one caller."""
        import repro

        family = {"PairData", "pair_data", "single_data", "w_tensor",
                  "w_deriv", "r_tables_batch", "hermite_box",
                  "_eri_general", "dmax_blocks"}
        offenders = []
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                name = (getattr(node, "id", None) or getattr(node, "attr", None)
                        or getattr(node, "name", None) or "")
                if name.endswith("_loop") or name in family:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
        assert offenders == []
        # under ``integrals/`` only the table builder calls
        # `r_tables_simplex` (which also calls itself, per batch chunk) —
        # no driver builds a table on the side that the set its
        # derivative finds would not hold
        recursion = {"r_tables_simplex"}
        callers = {}
        for path in Path(batch.__file__).parent.glob("*.py"):
            for fn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    name = getattr(node, "id", None) or getattr(
                        node, "attr", None
                    )
                    if name in recursion and name != fn.name:
                        callers.setdefault(fn.name, set()).add(name)
        assert callers == {"_build_tables": {"r_tables_simplex"}}

    def test_no_runtime_gammainc(self):
        """One runtime Boys, the table: the kernels name neither
        ``gammainc`` nor the scalar `boys_array`, so the reference's
        1e-12 clause compares the table with an independent algorithm
        (`tests/integral_reference.py` has its own)."""
        for mod in (batch, engine, four_centre):
            text = Path(mod.__file__).read_text()
            assert "gammainc" not in text, mod.__name__
            assert "boys_array" not in text, mod.__name__

    def test_shell_classes_cached_in_workspace(self, water):
        bs, _ = _setup(water, "sto-3g")
        ws = IntegralWorkspace()
        with ws.scope():
            c1 = ws.pair_plan([bs]).classes
            c2 = ws.pair_plan([bs]).classes
        assert c1 is c2
        assert (ws.hits, ws.misses) == (1, 1)
        # scratch, not state: gone with the scope, and never in the
        # store, which keeps the geometry-free plan they are placed from
        with ws.scope():
            assert ws.pair_plan([bs]).classes is not c1
        assert (ws.hits, ws.misses) == (1, 2)
        assert [key[:2] for key in ws._entries] == [("plan", "pairs")]


def _holds_only_state(ws) -> bool:
    """Whether the store holds composition-keyed products only (the
    auxiliary bounds and the calls' plans) — what must be true after any
    evaluation, whatever it ran."""
    return {key[0] for key in ws._entries} <= {"auxbound", "plan"}


@pytest.fixture(scope="module", params=[
    ("water2", "sto-3g"), ("water2", "repro-dz"),
    ("glycine", "sto-3g"), ("glycine", "repro-dz"),
], ids="-".join)
def tables_case(request):
    """One molecule and basis with random coefficient tensors, and a
    maker of workspaces."""
    system, basis_name = request.param
    mol = water_cluster(2, seed=3) if system == "water2" else glycine_chain(1)
    bs = BasisSet.build(mol, basis_name)
    aux = auto_auxiliary(mol, basis_name)
    rng = np.random.default_rng(21)

    return dict(
        mol=mol, bs=bs, aux=aux, workspace=IntegralWorkspace,
        Z=rng.standard_normal((bs.nbf, bs.nbf, aux.nbf)),
        zeta=rng.standard_normal((aux.nbf, aux.nbf)),
        X=_sym(bs.nbf, seed=22),
    )


def _routes(case, value, deriv):
    """``deriv(workspace)`` by every route its tables can take; ``value``
    is the driver that leaves them in its evaluation's scratch. Returns
    the results by route name, the workspace of the 'found' route and
    the table instants it recorded."""
    out = {}
    found = case["workspace"]()
    with recording(Tracer()) as found_trace, found.scope():
        value(found)
        out["found"] = deriv(found)
    assert [t["hit"] for t in table_instants(found_trace)] == [False, True]
    # the tables die with the scope that built them
    fresh = case["workspace"]()
    with recording(Tracer()) as fresh_trace:
        with fresh.scope():
            value(fresh)
        with fresh.scope():
            out["fresh scope"] = deriv(fresh)
    assert [t["hit"] for t in table_instants(fresh_trace)] == [False, False]
    # no workspace is the process workspace: the driver joins its scope
    process = get_workspace()
    with recording(Tracer()) as process_trace, process.scope():
        value(None)
        out["no workspace = process workspace"] = deriv(None)
    assert [t["hit"] for t in table_instants(process_trace)] == [False, True]
    # a share that holds about a third of the set: the rest is built
    # by the drivers as they go, found or not
    partial = case["workspace"]()
    partial.TABLE_SHARE = found.tables_peak_bytes / 3 / partial.max_bytes
    with recording(Tracer()) as partial_trace, partial.scope():
        value(partial)
        out["partly kept"] = deriv(partial)
    first, second = table_instants(partial_trace)
    assert not first["kept"] and not second["kept"] and second["hit"]
    assert 0 < partial.tables_peak_bytes <= found.tables_peak_bytes / 3
    assert all(_holds_only_state(ws)
               for ws in (found, fresh, process, partial))
    return out, found, table_instants(found_trace)


class TestCoulombTables:
    """One table set per evaluation: whichever way a derivative driver
    comes by its Hermite Coulomb tables, every bit of its result is the
    same."""

    @pytest.mark.parametrize("zscale", [1.0, 1e-4])
    @pytest.mark.parametrize("screen", [0.0, 1e-12, 1e-8])
    def test_eri3c_deriv_route_independent(self, tables_case, screen, zscale):
        c = tables_case
        Z = c["Z"] * zscale  # 50 |Z| > 1: a wider mask than eri3c's; < 1: narrower

        def value(ws):
            eri3c(c["bs"], c["aux"], screen=screen, workspace=ws)

        def deriv(ws):
            return contract_eri3c_deriv(
                c["bs"], c["aux"], Z, c["mol"].natoms, screen=screen,
                workspace=ws,
            )

        out, found, (built, served) = _routes(c, value, deriv)
        ref = out.pop("fresh scope").tobytes()
        assert {k for k, g in out.items() if g.tobytes() != ref} == set()
        assert built["orders"] and not built["hit"] and served["hit"]
        # glycine/repro-dz is the one case whose set (88 MB at the
        # parent) does not fit the default share
        assert served["kept"] == built["kept"]
        assert found.tables_peak_bytes <= found.TABLE_SHARE * found.max_bytes

    def test_eri2c_deriv_route_independent(self, tables_case):
        c = tables_case
        out, _, tables = _routes(
            c, lambda ws: eri2c(c["aux"], workspace=ws),
            lambda ws: contract_eri2c_deriv(
                c["aux"], c["zeta"], c["mol"].natoms, workspace=ws),
        )
        ref = out.pop("fresh scope").tobytes()
        assert {k for k, g in out.items() if g.tobytes() != ref} == set()
        # the value driver built every ordered group pair: nothing left
        assert tables[1]["orders"] == []

    def test_nuclear_deriv_route_independent(self, tables_case):
        c = tables_case
        out, _, tables = _routes(
            c, lambda ws: nuclear(c["bs"], c["mol"], workspace=ws),
            lambda ws: contract_nuclear_deriv(
                c["bs"], c["mol"], c["X"], workspace=ws),
        )
        ref = out.pop("fresh scope").tobytes()
        assert {k for k, g in out.items() if g.tobytes() != ref} == set()
        assert tables[1]["orders"] == []

    def test_value_drivers_route_independent(self, tables_case):
        """The value drivers read the same tables: found (a second call
        inside the evaluation), built, or chunked differently, same
        bits."""
        c = tables_case
        want = (eri3c(c["bs"], c["aux"], workspace=IntegralWorkspace()),
                eri2c(c["aux"], workspace=IntegralWorkspace()),
                nuclear(c["bs"], c["mol"], workspace=IntegralWorkspace()))
        ws = c["workspace"]()
        with recording(Tracer()) as tracer, ws.scope():
            for _ in range(2):
                assert np.array_equal(
                    eri3c(c["bs"], c["aux"], workspace=ws), want[0])
                assert np.array_equal(eri2c(c["aux"], workspace=ws), want[1])
                assert np.array_equal(
                    nuclear(c["bs"], c["mol"], workspace=ws), want[2])
        assert [t["hit"] for t in table_instants(tracer)] == (
            [False] * 3 + [True] * 3)
        assert _holds_only_state(ws)

    def test_chunk_and_share_invariance(self, water_dimer, monkeypatch):
        """Tiny driver chunks, tiny recursion scratch and a share that
        keeps nothing reproduce the one-shot results bitwise."""
        bs, aux = _setup(water_dimer, "repro-dz")
        mol = water_dimer
        X = _sym(bs.nbf, seed=31)
        rng = np.random.default_rng(32)
        Z = rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
        zeta = rng.standard_normal((aux.nbf, aux.nbf))

        def run_all(ws):
            with ws.scope():
                return [
                    nuclear(bs, mol, ws),
                    eri3c(bs, aux, workspace=ws),
                    eri2c(aux, ws),
                    contract_nuclear_deriv(bs, mol, X, ws),
                    contract_eri3c_deriv(
                        bs, aux, Z, mol.natoms, workspace=ws),
                    contract_eri2c_deriv(aux, zeta, mol.natoms, ws),
                ]

        ref = run_all(IntegralWorkspace())
        monkeypatch.setattr(batch, "_CHUNK_ELEMS", 512)
        monkeypatch.setattr(engine, "_R_SCRATCH_BYTES", 1 << 12)
        nothing_kept = IntegralWorkspace()
        nothing_kept.TABLE_SHARE = 0.0
        for ws in (IntegralWorkspace(), nothing_kept, get_workspace()):
            for got, want in zip(run_all(ws), ref):
                assert np.array_equal(got, want)
        assert nothing_kept.tables_peak_bytes == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_merged_column_is_the_column_alone(self, data):
        """A (pair, atom) block's table, prefactor folded in, is bitwise
        the column of a call holding that pair and that site alone —
        whatever blocks share its recursion call, however the recursion
        splits its batch, whether the set held it, built it for the
        chunk that asked, or found it in the payload of a set built for
        other blocks (any two block sets, a (class, group) dropped whole
        included) under another budget."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        classes = []
        for _ in range(data.draw(st.integers(1, 3))):
            q, N = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
            P = rng.uniform(-3.0, 3.0, (q, N, 3))
            P[0] = 0.0 if data.draw(st.booleans()) else P[0]
            classes.append(dict(
                p=rng.uniform(0.05, 60.0, (q, N)),
                cc=rng.uniform(-2.0, 2.0, (q, N)), P=P,
                L=data.draw(st.integers(0, 2)),
            ))
        kets = []
        for l in data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)):
            # A atoms of m sites each, every site of an atom on its centre
            A, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
            qk = (rng.uniform(0.1, 30.0, (A, m)) if data.draw(st.booleans())
                  else None)
            Pk = np.repeat(rng.uniform(-3.0, 3.0, (A, 1, 3)), m, axis=1)
            Pk[0] = 0.0  # coincident with a bra centre: the Boys T = 0 limit
            kets.append(dict(qk=qk, Pk=Pk, l=l))

        def blocks():
            """A random subset of every (class, group)'s blocks."""
            out = {}
            for ci, bra in enumerate(classes):
                for gi, ket in enumerate(kets):
                    n = bra["p"].shape[0] * ket["Pk"].shape[0]
                    codes = np.nonzero(data.draw(st.lists(
                        st.booleans(), min_size=n, max_size=n)))[0]
                    if codes.size:
                        out[ci, gi] = codes
            return out

        def budget(of):
            full = sum(
                8 * hermite_simplex(classes[ci]["L"] + kets[gi]["l"] + 1)
                .shape[0] * codes.size * classes[ci]["p"].shape[1]
                * kets[gi]["Pk"].shape[1]
                for (ci, gi), codes in of.items()
            )
            return data.draw(st.sampled_from([0, full // 2, full, 2 * full]))

        def alone(order, bra, ket, pair, n, atom, site):
            one = (slice(pair, pair + 1), slice(n, n + 1))
            qk = ket["qk"]
            ket1 = dict(qk=None if qk is None else qk[atom, site : site + 1],
                        Pk=ket["Pk"][atom, site : site + 1])
            return _build_tables([(order, lambda: _ket_inputs(
                bra["p"][one], bra["cc"][one], bra["P"][one], ket1,
            ))])[0][0, 0, :, 0]

        first = blocks()
        second = blocks()
        scratch = data.draw(st.sampled_from([1, 1 << 10, 1 << 14, 16 << 20]))
        old = engine._R_SCRATCH_BYTES
        engine._R_SCRATCH_BYTES = scratch
        try:
            found = CoulombTables(classes, kets, first, budget(first))
            limit = budget(second)
            tabs = CoulombTables(classes, kets, second, limit, found.payload)
            assert tabs.nbytes <= max(limit, found.nbytes)
            assert tabs.rebuilt_pairs == sum(
                np.unique(np.concatenate([
                    np.setdiff1d(codes, first.get(key, codes[:0]))
                    // kets[key[1]]["Pk"].shape[0]
                    for key, codes in second.items() if key[0] == ci
                ])).size
                for ci in {ci for ci, _ in second}
            )
            for (ci, gi), codes in second.items():
                bra, ket = classes[ci], kets[gi]
                (A, m), N = ket["Pk"].shape[:2], bra["p"].shape[1]
                lo = data.draw(st.integers(0, codes.size - 1))
                hi = data.draw(st.integers(lo + 1, codes.size))
                order = bra["L"] + ket["l"] + 1
                R = tabs.table(ci, gi, slice(lo, hi))
                assert R.shape[:2] == (hi - lo, N) and R.shape[3] == m
                engine._R_SCRATCH_BYTES = old
                for i, code in enumerate(codes[lo:hi]):
                    for n in range(N):
                        for site in range(m):
                            assert np.array_equal(
                                R[i, n, :, site],
                                alone(order, bra, ket, code // A, n,
                                      code % A, site),
                            )
                engine._R_SCRATCH_BYTES = scratch
        finally:
            engine._R_SCRATCH_BYTES = old

    @pytest.mark.parametrize("point", [False, True], ids=["aux", "nuclei"])
    def test_kernel_is_the_scaled_gather(self, point):
        """`CoulombTables.kernel` of a table with the prefactor folded
        into its seeds is the rows of the unscaled recursion gathered
        into the kernel layout, one block per (pair, atom), and then
        scaled — for every bra simplex
        ``Lb`` (value and derivative) and ket order ``l``. With
        power-of-two prefactors every rounding commutes with the scale,
        so the two agree bitwise; with the kind's own prefactor they
        agree to 1e-14 of the kernel's largest element (the recursion's
        sums cancel, so the last bits move; ~5e-15 on repro-dzp)."""
        rng = np.random.default_rng(5)
        q, N, m = 4, 3, 5
        for L in range(5):
            for l in range(4):
                p = rng.uniform(0.05, 60.0, (q, N))
                cc = rng.uniform(-2.0, 2.0, (q, N))
                P = rng.uniform(-3.0, 3.0, (q, N, 3))
                qk = None if point else rng.uniform(0.1, 30.0, m)
                Pk = rng.uniform(-3.0, 3.0, (m, 3))
                Pk[0] = P[0, 0]
                bra = dict(p=p, cc=cc, P=P, L=L)
                # one atom of m sites: every pair is one block
                tabs = CoulombTables(
                    [bra], [dict(qk=None if point else qk[None], Pk=Pk[None],
                                 l=l)], {(0, 0): np.arange(q)}, 1 << 30)
                p3, c3 = p[:, :, None], cc[:, :, None]
                if point:
                    alpha = np.broadcast_to(p3, (q, N, m))
                    K = 2.0 * np.pi * c3 / p3
                else:
                    alpha = p3 * qk / (p3 + qk)
                    K = 2.0 * np.pi**2.5 * c3 / (p3 * qk * np.sqrt(p3 + qk))
                PQ = P[:, :, None, :] - Pk
                order = L + l + 1
                R = engine.r_tables_simplex(
                    order, alpha.ravel(), PQ.reshape(-1, 3))
                two = 2.0 ** rng.integers(-30, 30, (q * N, m))
                folded = engine.r_tables_simplex(
                    order, alpha.reshape(q * N, m), PQ.reshape(q * N, m, 3),
                    two)
                assert np.array_equal(
                    folded, R.reshape(-1, q * N, m).transpose(1, 0, 2)
                    * two[:, None])
                for Lb in (L, L + 1):
                    idx = engine.simplex_sum_index(Lb, l, order)
                    Tb, Tk = idx.shape
                    want = (
                        R[idx].reshape(Tb, Tk, q, N, m)
                        .transpose(2, 3, 0, 1, 4) * K[:, :, None, None, :]
                    ).reshape(q, N * Tb, Tk * m)
                    got = tabs.kernel(0, 0, slice(None), Lb)
                    assert got.shape == want.shape
                    err = np.abs(got - want).max() / np.abs(want).max()
                    assert err <= 1e-14, (L, l, Lb, err)

    def test_bra_expansion_built_once_per_evaluation(
        self, water_dimer, monkeypatch
    ):
        """Under one `IntegralWorkspace.evaluation` each class's
        bra-derivative expansion is built once, by the first derivative
        driver, and held on the class in the scratch (its bytes in the
        scratch's ``table_bytes``); the screened three-centre derivative
        takes its kept rows, bitwise the expansion of those pairs alone
        (and its gradient within its recorded bound of the unscreened
        one), so both results are
        bitwise those of drivers that build their own."""
        bs, aux = _setup(water_dimer, "repro-dz")
        mol = water_dimer
        X = _sym(bs.nbf, seed=41)
        rng = np.random.default_rng(42)
        Z = 1e-4 * rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
        expand = batch._w_deriv_stack
        built = []

        def counted(E, *args):
            built.append(E.shape[0])
            return expand(E, *args)

        monkeypatch.setattr(batch, "_w_deriv_stack", counted)

        def run(ws):
            return [
                contract_nuclear_deriv(bs, mol, X, ws),
                contract_eri3c_deriv(
                    bs, aux, Z, mol.natoms, screen=1e-8, workspace=ws),
            ]

        ws = IntegralWorkspace()
        with recording(Tracer()) as tracer, ws.evaluation() as scratch:
            got = run(ws)
            classes = ws.pair_plan([bs]).classes
        assert ws.pairs_skipped > 0
        assert built == [cls.npair for cls in classes]
        held = sum(cls.dW.nbytes for cls in classes)
        assert [
            (a["hit"], a["nbytes"]) for a in tracer.instants("workspace.hit")
            if a["product"] == "bra_expansions"
        ] == [(False, held), (True, held)]
        assert scratch.table_bytes == held + max(
            t["nbytes"] for t in table_instants(tracer))
        for cls in classes:
            ids = np.arange(0, cls.npair, 2)
            assert np.array_equal(cls.dW[ids], expand(
                cls.E[ids], cls.a[ids], cls.b[ids], comp_arrays(cls.la),
                comp_arrays(cls.lb), hermite_simplex(cls.la + cls.lb + 1),
            ))
        assert np.abs(got[1] - contract_eri3c_deriv(
            bs, aux, Z, mol.natoms)).max() <= ws.neglected_bound
        built.clear()
        for g, alone in zip(got, run(None)):
            assert np.array_equal(g, alone)
        assert len(built) == 2 * len(classes)

    def test_one_recursion_call_per_table(self, monkeypatch):
        """A water trimer evaluation builds each (class, group) table
        once, in one recursion call of its own: 29 calls (4 nuclear, 16
        three-centre — the s-only sites are two groups of atoms, one site
        an oxygen and five a hydrogen — and 9 metric tables), all made by
        the value drivers, where each driver used to build its own per
        (class, aux group). What the calls return is what the instants
        count."""
        mol = water_cluster(3, seed=1)
        calls = []
        recursion = engine.r_tables_simplex

        def counted(lmax, p, PQ, scale):
            R = recursion(lmax, p, PQ, scale)
            calls.append((lmax, R.size))
            return R

        monkeypatch.setattr(batch, "r_tables_simplex", counted)
        calc = RIMP2Calculator("sto-3g", workspace=IntegralWorkspace())
        with recording(Tracer()) as tracer:
            calc.energy_gradient(mol)
        built = [t for t in table_instants(tracer) if not t["hit"]]
        assert [t["kind"] for t in built] == ["nuclear", "eri3c", "eri2c"]
        assert len(calls) == 29
        assert sorted({lmax for lmax, _ in calls}) == [1, 2, 3, 4, 5]
        assert sum(size for _, size in calls) == sum(
            t["elements"] for t in built)

    def test_store_holds_no_tables_after_energy_gradient(self):
        mol = water_cluster(2, seed=3)
        ws = IntegralWorkspace()
        calc = RIMP2Calculator("sto-3g", int_screen=1e-12, workspace=ws)
        calc.energy_gradient(mol)
        assert _holds_only_state(ws) and ws._scope.scratch is None
        assert ws.tables_peak_bytes > 0
        # what is resident is the three cross-step products, to the byte
        assert ws.nbytes == sum(
            payload_nbytes(e[0]) for e in ws._entries.values()
        )
        before = ws.nbytes, len(ws)
        calc.energy_gradient(mol)  # same geometry: the store's products hit
        assert (ws.nbytes, len(ws)) == before
        # an energy-only caller leaves nothing behind either
        for shift in (0.01, 0.02):
            calc.energy(mol.with_coords(mol.coords + shift))
            assert (ws.nbytes, len(ws)) == before and _holds_only_state(ws)

    def test_threads_never_cross_geometries(self):
        """Four threads, one composition, one workspace:
        every evaluation's gradient is the one a private workspace
        gives — a geometry is never served another geometry's tables,
        nor one thread another's: each evaluation builds its three sets
        and finds its own three. Once untraced, once with each thread
        recording into a tracer of its own."""
        base = water_cluster(1, seed=0)
        rng = np.random.default_rng(41)
        mols = [
            base.with_coords(base.coords + 0.05 * rng.standard_normal((3, 3)))
            for _ in range(8)
        ]
        alone = [IntegralWorkspace() for _ in mols]
        want = [RIHFCalculator(workspace=w).energy_gradient(m)
                for w, m in zip(alone, mols)]
        for tracers in ([None] * 4, [Tracer() for _ in range(4)]):
            ws = self._run_threads(mols, want, tracers)
            assert _holds_only_state(ws)
            # scratch traffic is counted like the store's, each lookup
            # once: three rounds of what the evaluations count alone
            assert ws.hits + ws.misses == 3 * sum(
                w.hits + w.misses for w in alone)
        for tracer in tracers:  # six evaluations a thread
            assert [t["hit"] for t in table_instants(tracer)] == (
                6 * ([False] * 3 + [True] * 3))

    @staticmethod
    def _run_threads(mols, want, tracers):
        ws = IntegralWorkspace()
        got = [None] * len(mols)
        errors = []

        def work(tid):
            try:
                calc = RIHFCalculator(workspace=ws)
                with recording(tracers[tid]):
                    for rep in range(3):
                        for i in range(tid, len(mols), 4):
                            got[i] = calc.energy_gradient(mols[i])
            except Exception as exc:  # surfaced below, with its traceback
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        for (e, g), (e0, g0) in zip(got, want):
            assert e == e0 and g.tobytes() == g0.tobytes()
        return ws


def _hand_aux(mol, ladders) -> BasisSet:
    """A fitting basis with the given ``(l, exponents)`` ladders on
    every atom."""
    return BasisSet([
        Shell(l, mol.coords[atom], np.array([e]), np.array([1.0]), atom=atom)
        for atom in range(mol.natoms) for l, exps in ladders for e in exps
    ])


#: fitting bases by how their shells share (centre, exponent) sites, with
#: the ``(ls, sites)`` of the groups a water molecule must get
AUX_BASES = {
    # the generated ladders: s, p and d on the same exponents
    "auto": (lambda mol: auto_auxiliary(mol, "sto-3g"),
             [((0,), 11), ((0, 1), 3), ((0, 1, 2), 4)]),
    # no two shells share an exponent: the groups are the per-l batches
    "distinct": (lambda mol: _hand_aux(
        mol, [(0, [0.4, 1.3, 4.1]), (1, [0.6, 1.9]), (2, [1.1])]),
        [((0,), 9), ((1,), 6), ((2,), 3)]),
    # only s and d share, p sits between
    "s+d": (lambda mol: _hand_aux(
        mol, [(0, [0.4, 1.3, 4.1]), (1, [0.6, 1.9]), (2, [1.3])]),
        [((0,), 6), ((1,), 6), ((0, 2), 3)]),
    # the same s shell twice: two sites, not one overwritten
    "repeated": (lambda mol: _hand_aux(
        mol, [(0, [0.4, 0.4, 1.3]), (1, [0.4])]),
        [((0,), 6), ((0, 1), 3)]),
}


def test_contracted_fitting_basis_raises_in_eri2c_as_in_eri3c(water):
    """A contracted fitting basis has no site grouping: the metric
    refuses it as the three-centre integrals do, rather than fall back
    to a per-shell build the fitting path never reaches."""
    bs = BasisSet.build(water, "sto-3g")
    match = "single-primitive"
    with pytest.raises(ValueError, match=match):
        eri3c(bs, bs)
    with pytest.raises(ValueError, match=match):
        eri2c(bs)


@pytest.mark.parametrize("aux_name", AUX_BASES)
class TestSiteGrouping:
    """The auxiliary batch axis is the (centre, exponent) site: the
    stacked-component kernels against the reference, which groups
    nothing."""

    @pytest.fixture()
    def case(self, water, aux_name):
        make, groups = AUX_BASES[aux_name]
        bs = BasisSet.build(water, "sto-3g")
        return water, bs, make(water), groups

    def test_groups(self, case):
        _, _, aux, want = case
        groups = aux_group_data(aux)
        assert [(g.ls, g.a.size) for g in groups] == want
        covered = np.concatenate([g.func_idx.ravel() for g in groups])
        assert sorted(covered) == list(range(aux.nbf))
        for g in groups:
            assert g.comps.shape == g.func_idx.shape[1:] + (3,)
            assert g.comp_norms.shape == g.func_idx.shape
            assert g.E.shape[2] == g.lmax + 1  # one E table per site
        # the workspace's site plan is built from them once per
        # composition: another geometry only places it at its centres
        ws = IntegralWorkspace()
        moved = BasisSet([sh.at(sh.center + 0.1, sh.atom) for sh in aux.shells])
        with ws.scope():
            first = ws.site_plan([aux])
            again = ws.site_plan([moved])
        assert [key[:2] for key in ws._entries] == [("plan", "sites")]
        for a, b in zip(first.groups, again.groups):
            assert a.E is b.E and a.Wk is b.Wk
            assert np.array_equal(b.Pk, a.Pk + 0.1)
        assert first.groups[0].ls == groups[0].ls

    def test_eri3c(self, case):
        _, bs, aux, _ = case
        _assert_tensor_close(eri3c(bs, aux), ref.eri3c(bs, aux))

    def test_eri2c(self, case):
        _, _, aux, _ = case
        _assert_tensor_close(eri2c(aux), ref.eri2c(aux))

    def test_eri3c_deriv(self, case):
        mol, bs, aux, _ = case
        rng = np.random.default_rng(51)
        Z = rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
        _assert_gradient_close(
            contract_eri3c_deriv(bs, aux, Z, mol.natoms),
            ref.contract_eri3c_deriv(bs, aux, Z, mol.natoms))

    def test_eri2c_deriv(self, case):
        mol, _, aux, _ = case
        rng = np.random.default_rng(52)
        zeta = rng.standard_normal((aux.nbf, aux.nbf))
        _assert_gradient_close(
            contract_eri2c_deriv(aux, zeta, mol.natoms),
            ref.contract_eri2c_deriv(aux, zeta, mol.natoms),
        )


class TestFourCenterScreenBypass:
    def test_screen_zero_skips_schwarz_build(self, water, monkeypatch):
        """Exact mode must not touch the Schwarz/Dmax machinery at all."""
        bs, _ = _setup(water, "sto-3g")
        n = bs.nbf
        D = _sym(n, seed=9)
        ws = IntegralWorkspace()

        def boom(*a, **kw):  # pragma: no cover - must not be called
            raise AssertionError("bound table built in exact mode")

        ws.schwarz_bounds_stack = boom
        monkeypatch.setattr(four_centre, "_zblk_table", boom)
        g = contract_eri4c_deriv_hf(
            bs, D, water.natoms, screen=0.0, workspace=ws
        )
        assert g.shape == (water.natoms, 3)
        assert ws.pairs_skipped == 0

    def test_screened_matches_exact(self, water):
        bs, _ = _setup(water, "sto-3g")
        D = _sym(bs.nbf, seed=10)
        g0 = contract_eri4c_deriv_hf(bs, D, water.natoms, screen=0.0)
        g1 = contract_eri4c_deriv_hf(bs, D, water.natoms, screen=1e-11)
        np.testing.assert_allclose(g1, g0, atol=1e-10)


class TestScreenedBatchedMBE:
    def test_mbe3_energy_gradient_vs_exact(self):
        """Screened, workspace-cached MBE3 assembly vs the exact one."""
        mol = water_cluster(3, seed=11)
        fs = FragmentedSystem.by_components(mol)
        plan = build_plan(fs, 1e9, 1e9, order=3)
        e0, g0 = mbe_energy_gradient(
            fs, plan,
            RIHFCalculator(workspace=IntegralWorkspace(), int_screen=0.0),
        )
        ws = IntegralWorkspace()
        e1, g1 = mbe_energy_gradient(
            fs, plan, RIHFCalculator(workspace=ws, int_screen=1e-12)
        )
        assert abs(e1 - e0) <= 1e-8
        np.testing.assert_allclose(g1, g0, atol=1e-7)
        assert ws.hits > 0


class TestByteAccounting:
    def test_payload_nbytes_counts_and_dedups(self):
        a = np.zeros(1000)  # 8000 bytes
        assert payload_nbytes(a) == a.nbytes
        # a view shares its base buffer: counted once, not twice
        assert payload_nbytes([a, a[10:500]]) == a.nbytes
        assert payload_nbytes([a, a]) == a.nbytes
        b = np.zeros((10, 10))
        assert payload_nbytes({"x": a, "y": (b, 3, "s")}) == a.nbytes + b.nbytes
        assert payload_nbytes("not an array") == 0

    def test_payload_nbytes_walks_dataclasses(self, water):
        bs, _ = _setup(water, "sto-3g")
        classes = shell_classes(bs)
        n = payload_nbytes(classes)
        assert n >= sum(c.E.nbytes for c in classes)

    def test_workspace_lru_eviction_order(self):
        ws = IntegralWorkspace(max_bytes=3000)
        a = np.zeros(125)  # 1000 bytes each
        ws._put(("k1",), a.copy())
        ws._put(("k2",), a.copy())
        ws._put(("k3",), a.copy())
        assert ws.nbytes == 3000 and ws.evictions == 0
        ws._get(("k1",))  # refresh k1 -> k2 is now least recently used
        ws._put(("k4",), a.copy())
        assert ws.evictions == 1
        assert ws._get(("k2",)) is None  # the LRU victim
        assert ws._get(("k1",)) is not None
        assert ws._get(("k3",)) is not None
        assert ws._get(("k4",)) is not None

    def test_workspace_accounts_actual_nbytes(self, water):
        bs, aux = _setup(water, "sto-3g")
        ws = IntegralWorkspace()
        eri3c(bs, aux, screen=1e-12, workspace=ws)
        # auxiliary bounds, and the call's pair, site and three-centre
        # plans; a Schwarz table screened at no fragment's reference is
        # the evaluation's, not the store's
        assert sorted(key[1] if key[0] == "plan" else key[0]
                      for key in ws._entries) == [
            "auxbound", "eri3c", "pairs", "sites"]
        assert ws.nbytes == payload_nbytes(
            [e[0] for e in ws._entries.values()]
        )

    def test_guess_cache_counts_history_bytes(self):
        """The densities a run holds are its fragment records'
        (`FragmentRecords.nbytes`): at most ``HISTORY`` per key."""
        from repro.md.scheduler import FragmentRecords

        D = np.zeros((10, 10))
        cache, records = GuessCache(), FragmentRecords(lambda key: 3)
        rec = FragmentRecord()
        for n in range(1, 5):
            records[("f",)] = rec = cache.put(rec, D.copy(), natoms=3)
            assert records.nbytes == min(n, 3) * D.nbytes


class TestOneArrayLibrary:
    """AST guard: the integral kernels are NumPy. A second array library
    re-enters behind the stacked calls of ROADMAP item 2, not as a
    namespace parameter threaded through every helper."""

    def test_no_backend_fork_under_src(self):
        import repro

        root = Path(repro.__file__).parent
        assert not (root / "backend.py").exists()
        offenders = []
        for path in root.rglob("*.py"):
            rel = path.relative_to(root)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    mods = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    mods = [node.module or ""]
                else:
                    mods = []
                for mod in mods:
                    if mod.split(".")[0] in ("jax", "cupy"):
                        offenders.append(f"{rel}:{node.lineno} imports {mod}")
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                if name in ("get_backend", "is_numpy", "ArrayBackend"):
                    offenders.append(f"{rel}:{node.lineno} names {name}")
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    a = node.args
                    params = a.posonlyargs + a.args + a.kwonlyargs
                    for arg in params + [a.vararg, a.kwarg]:
                        if arg is not None and arg.arg in ("be", "xp"):
                            offenders.append(
                                f"{rel}:{node.lineno} parameter {arg.arg}"
                            )
        assert offenders == []

    def test_cli_knows_no_backend_option(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["scf", "w.xyz", "--backend", "numpy"])
        build_parser().parse_args(["scf", "w.xyz"])


def _driver_calls(mol, basis_name):
    """Every driver of the integral layer with arguments for ``mol`` in
    ``basis_name``: the `engine.stack_driver` ones (one basis) and the
    four-centre pair, by name, each a function of the workspace."""
    from repro.integrals import contract_hcore_deriv, eri4c, hcore

    bs = BasisSet.build(mol, basis_name)
    aux = auto_auxiliary(mol, basis_name)
    rng = np.random.default_rng(41)
    X = _sym(bs.nbf, seed=42)
    D = _sym(bs.nbf, seed=43)
    Z = 1e-3 * rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
    zeta = rng.standard_normal((aux.nbf, aux.nbf))
    n = mol.natoms
    return {
        "overlap": lambda ws: overlap(bs, ws),
        "kinetic": lambda ws: kinetic(bs, ws),
        "nuclear": lambda ws: nuclear(bs, mol, ws),
        "hcore": lambda ws: hcore(bs, mol, ws),
        "schwarz_pair_bounds": lambda ws: schwarz_pair_bounds(bs, ws),
        "eri3c": lambda ws: eri3c(bs, aux, screen=1e-10, workspace=ws),
        "eri2c": lambda ws: eri2c(aux, ws),
        "contract_overlap_deriv": lambda ws: contract_overlap_deriv(bs, X, ws),
        "contract_kinetic_deriv": lambda ws: contract_kinetic_deriv(bs, X, ws),
        "contract_nuclear_deriv":
            lambda ws: contract_nuclear_deriv(bs, mol, X, ws),
        "contract_hcore_deriv":
            lambda ws: contract_hcore_deriv(bs, mol, X, workspace=ws),
        "contract_eri3c_deriv": lambda ws: contract_eri3c_deriv(
            bs, aux, Z, n, screen=1e-10, workspace=ws),
        "contract_eri2c_deriv":
            lambda ws: contract_eri2c_deriv(aux, zeta, n, ws),
        "eri4c": lambda ws: eri4c(bs, ws),
        "contract_eri4c_deriv_hf":
            lambda ws: contract_eri4c_deriv_hf(bs, D, n, workspace=ws),
    }


class TestOneWayIn:
    """Every driver runs in a scope of a workspace: ``workspace=None``
    is the process workspace, and no branch of the integral layer runs
    without one."""

    def test_every_driver_is_listed(self, water):
        """`_driver_calls` names every public driver: each callable of
        `repro.integrals` that takes a workspace."""
        import inspect

        import repro.integrals as integrals

        drivers = {name for name in integrals.__all__
                   if callable(obj := getattr(integrals, name))
                   and not inspect.isclass(obj)
                   and "workspace" in inspect.signature(obj).parameters}
        assert drivers == set(_driver_calls(water, "sto-3g"))

    @pytest.mark.parametrize("basis_name", ["sto-3g", "repro-dzp"])
    def test_no_workspace_is_the_process_workspace(self, water, basis_name):
        """Each driver with no workspace: bitwise the call on a fresh
        `IntegralWorkspace`, its lookups counted by `get_workspace()`."""
        process = get_workspace()
        for name, call in _driver_calls(water, basis_name).items():
            want = call(IntegralWorkspace())
            before = process.hits + process.misses
            got = call(None)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
            assert process.hits + process.misses > before, name

    def test_positional_and_keyword_workspace(self, water):
        """The workspace is found by position or by keyword, with one
        basis or a list."""
        bs = BasisSet.build(water, "sto-3g")
        ws = IntegralWorkspace()
        S = overlap(bs, ws)
        assert ws.misses == 1
        assert np.array_equal(overlap([bs], workspace=ws)[0], S)
        assert ws.misses == 2

    def test_no_workspace_free_branch(self):
        """No branch of the integral layer or the store asks whether
        there is a workspace or whether it is on, or stands in for a
        scope with no scope; nothing under ``src/`` names the scope
        that could be none (``evaluation_scope``)."""
        import re

        import repro

        root = Path(repro.__file__).parent
        files = [*sorted((root / "integrals").glob("*.py")), root / "store.py"]
        offenders = [
            f"{path.name}:{n}" for path in files
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"workspace is (not )?None|enabled|nullcontext", line)
        ]
        assert offenders == []
        assert [str(path.relative_to(root)) for path in root.rglob("*.py")
                if "evaluation_scope" in path.read_text()] == []

    def test_process_workspace_is_one_object_across_threads(self):
        """Eight threads released together all get the one process
        workspace: it is built with its module, not on a first call."""
        barrier = threading.Barrier(8)
        got = [None] * 8

        def first_call(i):
            barrier.wait()
            got[i] = get_workspace()

        threads = [threading.Thread(target=first_call, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(ws is get_workspace() for ws in got)
