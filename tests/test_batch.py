"""Batched shell-class kernels vs the per-pair loop reference.

The batched drivers in `repro.integrals.batch` evaluate whole
shell-pair classes per array-kernel call and are the only runtime
implementation; the per-pair ``*_loop`` drivers are the reference,
imported here and nowhere under ``src/``. The contract under test:

* **Tolerance vs the reference** — matrices and 3c tensors agree to
  rtol 1e-12, contracted gradients to atol 1e-12 Ha/bohr, and the
  Schwarz skip decisions and pair counts are *identical* (the
  neglected bound to rtol 1e-12). The ``*_bitwise`` test ids predate
  this contract and are kept so the suite's test list stays comparable
  across PRs; what they assert is the tolerance.
* **Determinism** — two calls on fresh workspaces, and any chunk size,
  give bit-identical results including the recorded neglected bound
  (what ``--deterministic`` resume rests on).
* **Backend protocol** — numpy is always available; requesting an
  uninstalled backend fails with `BackendUnavailableError` at selection
  time; the JAX backend (when installed) provides autodiff gradients
  that cross-check the hand-derived derivative drivers.
* **Cache accounting** — `payload_nbytes` counts actual array payloads
  (deduplicating shared bases), and both LRU caches evict in true
  least-recently-used order.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend,
    BackendUnavailableError,
    available_backends,
    get_backend,
    set_default_backend,
)
from repro.basis import BasisSet, auto_auxiliary
from repro.calculators import GuessCache, RIHFCalculator
from repro.chem import Molecule
from repro.frag import FragmentedSystem, build_plan, mbe_energy_gradient
from repro.integrals import IntegralWorkspace, batch
from repro.integrals.batch import (
    _w_class,
    _w_deriv_class,
    build_shell_classes,
    contract_eri3c_deriv_batched,
    contract_kinetic_deriv_batched,
    contract_nuclear_deriv_batched,
    contract_overlap_deriv_batched,
    eri3c_batched,
    kinetic_batched,
    nuclear_batched,
    overlap_batched,
    schwarz_pair_bounds_batched,
)
from repro.integrals.engine import aux_group_data, comp_arrays, hermite_box
from repro.integrals.eri import (
    contract_eri3c_deriv_loop,
    contract_eri4c_deriv_hf,
    eri3c_loop,
    schwarz_pair_bounds_loop,
)
from repro.integrals.onee import (
    contract_kinetic_deriv_loop,
    contract_nuclear_deriv_loop,
    contract_overlap_deriv_loop,
    kinetic_loop,
    nuclear_loop,
    overlap_loop,
)
from repro.store import payload_nbytes
from repro.systems import glycine_chain, water_cluster

HAVE_JAX = importlib.util.find_spec("jax") is not None


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
        _assert_tensor_close(overlap_batched(bs), overlap_loop(bs))

    @pytest.mark.parametrize("basis_name", BASES)
    def test_kinetic_bitwise(self, water, basis_name):
        bs, _ = _setup(water, basis_name)
        _assert_tensor_close(kinetic_batched(bs), kinetic_loop(bs))

    @pytest.mark.parametrize("basis_name", BASES)
    def test_nuclear_close(self, water, basis_name):
        bs, _ = _setup(water, basis_name)
        np.testing.assert_allclose(
            nuclear_batched(bs, water), nuclear_loop(bs, water),
            rtol=0, atol=1e-13,
        )

    @pytest.mark.parametrize("basis_name", BASES)
    def test_overlap_deriv_bitwise(self, water, basis_name):
        bs, _ = _setup(water, basis_name)
        X = _sym(bs.nbf, seed=1)
        _assert_gradient_close(
            contract_overlap_deriv_batched(bs, X),
            contract_overlap_deriv_loop(bs, X),
        )

    @pytest.mark.parametrize("basis_name", BASES)
    def test_kinetic_deriv_bitwise(self, water, basis_name):
        bs, _ = _setup(water, basis_name)
        X = _sym(bs.nbf, seed=2)
        _assert_gradient_close(
            contract_kinetic_deriv_batched(bs, X),
            contract_kinetic_deriv_loop(bs, X),
        )

    @pytest.mark.parametrize("basis_name", BASES)
    def test_nuclear_deriv_close(self, water, basis_name):
        bs, _ = _setup(water, basis_name)
        X = _sym(bs.nbf, seed=3)
        _assert_gradient_close(
            contract_nuclear_deriv_batched(bs, water, X),
            contract_nuclear_deriv_loop(bs, water, X),
        )


class TestThreeCenterParity:
    @pytest.mark.parametrize("basis_name", BASES)
    def test_eri3c_bitwise_unscreened(self, water, basis_name):
        bs, aux = _setup(water, basis_name)
        _assert_tensor_close(
            eri3c_batched(bs, aux, screen=0.0),
            eri3c_loop(bs, aux, screen=0.0),
        )

    def test_eri3c_bitwise_screened_shared_table(self, water_dimer):
        """Same Schwarz table (one workspace) -> exactly the same skips."""
        bs, aux = _setup(water_dimer, "sto-3g")
        ws = IntegralWorkspace()
        a = eri3c_batched(bs, aux, screen=1e-6, workspace=ws)
        seen_a, skipped_a = ws.pairs_total, ws.pairs_skipped
        neglect_a = ws.neglected_bound
        assert skipped_a > 0
        b = eri3c_loop(bs, aux, screen=1e-6, workspace=ws)
        _assert_tensor_close(a, b)
        # a skipped block is exactly zero in both
        assert np.array_equal(a == 0.0, b == 0.0)
        assert ws.pairs_total == 2 * seen_a
        assert ws.pairs_skipped == 2 * skipped_a
        np.testing.assert_allclose(
            ws.neglected_bound - neglect_a, neglect_a, rtol=1e-12
        )

    def test_schwarz_close(self, water):
        bs, _ = _setup(water, "repro-dzp")
        np.testing.assert_allclose(
            schwarz_pair_bounds_batched(bs), schwarz_pair_bounds_loop(bs),
            rtol=1e-12, atol=0,
        )

    @pytest.mark.parametrize("screen", [0.0, 1e-6])
    def test_eri3c_deriv_bitwise(self, water_dimer, screen):
        bs, aux = _setup(water_dimer, "sto-3g")
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
        Z = Z + Z.transpose(1, 0, 2)
        ws = IntegralWorkspace()
        gb = contract_eri3c_deriv_batched(
            bs, aux, Z, water_dimer.natoms, screen=screen, workspace=ws
        )
        seen, skipped = ws.pairs_total, ws.pairs_skipped
        neglect = ws.neglected_bound
        gl = contract_eri3c_deriv_loop(
            bs, aux, Z, water_dimer.natoms, screen=screen, workspace=ws
        )
        _assert_gradient_close(gb, gl)
        assert (ws.pairs_total, ws.pairs_skipped) == (2 * seen, 2 * skipped)
        np.testing.assert_allclose(
            ws.neglected_bound - neglect, neglect, rtol=1e-12
        )
        # translation invariance survives batching (and screening)
        np.testing.assert_allclose(gb.sum(axis=0), 0.0, atol=1e-10)

    def test_chunk_invariance(self, water_dimer, monkeypatch):
        """Tiny chunks must reproduce the one-shot result bitwise."""
        bs, aux = _setup(water_dimer, "sto-3g")
        ref = eri3c_batched(bs, aux)
        X = _sym(bs.nbf, seed=5)
        dref = contract_overlap_deriv_batched(bs, X)
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
        ws = IntegralWorkspace()
        gref = contract_eri3c_deriv_batched(
            bs, aux, Z, water_dimer.natoms, screen=1e-6, workspace=ws
        )
        assert ws.pairs_skipped > 0
        monkeypatch.setattr(batch, "_CHUNK_ELEMS", 256)
        assert np.array_equal(eri3c_batched(bs, aux), ref)
        assert np.array_equal(contract_overlap_deriv_batched(bs, X), dref)
        ws2 = IntegralWorkspace()
        g = contract_eri3c_deriv_batched(
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
                overlap_batched(bs, ws),
                kinetic_batched(bs, ws),
                nuclear_batched(bs, mol, ws),
                schwarz_pair_bounds_batched(bs, ws),
                eri3c_batched(bs, aux, screen=1e-6, workspace=ws),
                contract_overlap_deriv_batched(bs, X, ws),
                contract_kinetic_deriv_batched(bs, X, ws),
                contract_nuclear_deriv_batched(bs, mol, X, ws),
                contract_eri3c_deriv_batched(
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
        for cls in build_shell_classes(bs):
            ca, cb = comp_arrays(cls.la), comp_arrays(cls.lb)
            L = cls.la + cls.lb
            box = hermite_box((L + 1, L + 1, L + 1))
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
            cg = comp_arrays(grp.l)
            box = hermite_box((grp.l + 1,) * 3)
            order = box.sum(axis=1)
            E = grp.pd.E[:, None]
            assert np.all(_w_class(E, cg, s_comp, box)[..., order > grp.l] == 0.0)
            a, b = grp.pd.a[:, None], grp.pd.b[:, None]
            for axis in range(3):
                dW = _w_deriv_class(E, a, b, cg, s_comp, box, "bra", axis)
                assert np.all(dW[..., order > grp.l + 1] == 0.0)


class TestKernelModeDispatch:
    """One kernel family: there is no mode left to dispatch on."""

    def test_no_runtime_caller_of_loop_reference(self):
        """The ``*_loop`` drivers are a test reference: nothing under
        ``src/`` may call one, and `batch.py` shares no Hermite-cube
        table with them."""
        import repro

        callers = []
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", None) or getattr(
                        node.func, "id", ""
                    )
                    if name.endswith("_loop"):
                        callers.append(f"{path.name}:{node.lineno} {name}")
        assert callers == []
        # nor may the batched kernels name the reference's Hermite cube:
        # `hermite_box` and `r_tables_batch` belong to ``*_loop`` (and
        # the 4-centre path), which is what makes the tolerance clause a
        # cross-check of the simplex trimming rather than a comparison
        # of the cube with itself
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            or getattr(node, "name", None)
            for node in ast.walk(ast.parse(Path(batch.__file__).read_text()))
        }
        assert not names & {"hermite_box", "r_tables_batch"}

    def test_no_runtime_gammainc(self):
        """One runtime Boys, the table: the backend shims and the
        kernels name neither ``gammainc`` nor the reference
        `boys_array`, which only `r_tables_batch` (the ``*_loop`` and
        4-centre path) may call — so the 1e-12 clause compares the
        table with an independent algorithm."""
        import repro.backend
        import repro.integrals.engine as engine

        for mod in (repro.backend, batch, engine):
            text = Path(mod.__file__).read_text()
            tree = ast.parse(text)
            for node in tree.body:
                if getattr(node, "name", None) == "r_tables_batch":
                    text = text.replace(ast.get_source_segment(text, node), "")
            assert "gammainc" not in text, mod.__name__
            assert "boys_array" not in text, mod.__name__

    def test_shell_classes_cached_in_workspace(self, water):
        bs, _ = _setup(water, "sto-3g")
        ws = IntegralWorkspace()
        c1 = build_shell_classes(bs, ws)
        c2 = build_shell_classes(bs, ws)
        assert c1 is c2
        assert ws.hits >= 1


class TestBackendProtocol:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        be = get_backend("numpy")
        assert be.is_numpy and be.xp is np
        assert be is get_backend("numpy")  # memoized

    def test_default_resolution(self):
        set_default_backend(None)
        assert get_backend().name == "numpy"
        set_default_backend("numpy")
        try:
            assert get_backend().name == "numpy"
        finally:
            set_default_backend(None)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("tpu")

    @pytest.mark.skipif(HAVE_JAX, reason="jax installed here")
    def test_missing_optional_backend_fails_cleanly(self):
        with pytest.raises(BackendUnavailableError, match="jax"):
            get_backend("jax")
        # selection also validates eagerly
        with pytest.raises(BackendUnavailableError):
            set_default_backend("jax")
        assert get_backend().name == "numpy"  # default unchanged

    def test_scatter_set(self):
        be = ArrayBackend()
        a = np.zeros(4)
        out = be.scatter_set(a, np.array([1, 3]), np.array([2.0, 4.0]))
        assert np.array_equal(out, [0.0, 2.0, 0.0, 4.0])


@pytest.mark.skipif(not HAVE_JAX, reason="jax not installed")
class TestAutodiffCrossCheck:
    """JAX grad through the functional kernels vs the analytic drivers."""

    @pytest.fixture(scope="class")
    def setup(self):
        import jax

        mol = water_cluster(2, seed=3)
        bs = BasisSet.build(mol, "sto-3g")
        aux = auto_auxiliary(mol)
        be = get_backend("jax")
        from repro.integrals.batch import AutodiffIntegrals

        ai = AutodiffIntegrals(bs, mol, aux=aux, be=be)
        return jax, mol, bs, aux, ai

    def test_overlap_grad(self, setup):
        jax, mol, bs, _, ai = setup
        X = _sym(bs.nbf, seed=6)

        def f(coords):
            return (get_backend("jax").asarray(X) * ai.overlap(coords)).sum()

        g = np.asarray(jax.grad(f)(get_backend("jax").asarray(mol.coords)))
        ref = contract_overlap_deriv_loop(bs, X)
        np.testing.assert_allclose(g, ref, rtol=1e-9, atol=1e-12)

    def test_hcore_grad(self, setup):
        jax, mol, bs, _, ai = setup
        X = _sym(bs.nbf, seed=7)
        be = get_backend("jax")

        def f(coords):
            return (be.asarray(X) * ai.hcore(coords)).sum()

        g = np.asarray(jax.grad(f)(be.asarray(mol.coords)))
        ref = contract_kinetic_deriv_loop(bs, X)
        ref = ref + contract_nuclear_deriv_loop(bs, mol, X)
        # autodiff also differentiates the operator centers (nuclear
        # attraction), which the analytic driver includes too
        np.testing.assert_allclose(g, ref, rtol=1e-9, atol=1e-11)

    def test_eri3c_grad(self, setup):
        jax, mol, bs, aux, ai = setup
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((bs.nbf, bs.nbf, aux.nbf))
        Z = Z + Z.transpose(1, 0, 2)
        be = get_backend("jax")

        def f(coords):
            return (be.asarray(Z) * ai.eri3c(coords)).sum()

        g = np.asarray(jax.grad(f)(be.asarray(mol.coords)))
        ref = contract_eri3c_deriv_loop(bs, aux, Z, mol.natoms)
        np.testing.assert_allclose(g, ref, rtol=1e-9, atol=1e-11)


class TestFourCenterScreenBypass:
    def test_screen_zero_skips_schwarz_build(self, water):
        """Exact mode must not touch the Schwarz/Dmax machinery at all."""
        bs, _ = _setup(water, "sto-3g")
        n = bs.nbf
        D = _sym(n, seed=9)
        ws = IntegralWorkspace()

        def boom(*a, **kw):  # pragma: no cover - must not be called
            raise AssertionError("Schwarz table built in exact mode")

        ws.schwarz_bounds = boom
        ws.dmax_blocks = boom
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
            RIHFCalculator(workspace=IntegralWorkspace(enabled=False),
                           int_screen=0.0),
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
        classes = build_shell_classes(bs)
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
        bs, _ = _setup(water, "sto-3g")
        ws = IntegralWorkspace()
        overlap_batched(bs, workspace=ws)
        assert ws.nbytes == payload_nbytes(
            [e[0] for e in ws._entries.values()]
        )

    def test_guess_cache_lru_eviction_order(self):
        D = np.zeros((20, 20))  # 3200 bytes
        cache = GuessCache(max_bytes=3 * D.nbytes, history=1)
        cache.put(("f1",), D.copy(), natoms=3)
        cache.put(("f2",), D.copy(), natoms=3)
        cache.put(("f3",), D.copy(), natoms=3)
        assert cache.nbytes == 3 * D.nbytes
        assert cache.evictions == 0
        assert cache.get(("f1",)) is not None  # refresh f1
        cache.put(("f4",), D.copy(), natoms=3)
        assert cache.evictions == 1
        assert cache.get(("f2",)) is None  # the LRU victim
        assert cache.get(("f1",)) is not None
        assert cache.get(("f3",)) is not None

    def test_guess_cache_counts_history_bytes(self):
        D = np.zeros((10, 10))
        cache = GuessCache(history=3)
        cache.put(("f",), D.copy(), natoms=3)
        assert cache.nbytes == D.nbytes
        cache.put(("f",), D.copy(), natoms=3)
        assert cache.nbytes == 2 * D.nbytes
        cache.put(("f",), D.copy(), natoms=3)
        cache.put(("f",), D.copy(), natoms=3)  # history caps at 3
        assert cache.nbytes == 3 * D.nbytes


class TestCLIOptions:
    @pytest.fixture()
    def water_file(self, tmp_path):
        from repro.chem.xyz import save_xyz
        from repro.systems import water_monomer

        p = tmp_path / "water.xyz"
        save_xyz(water_monomer(), str(p))
        return str(p)

    def test_backend_numpy(self, water_file, capsys):
        from repro.cli import main

        try:
            assert main(["scf", water_file, "--backend", "numpy"]) == 0
        finally:
            set_default_backend(None)
        assert "E(SCF)" in capsys.readouterr().out

    @pytest.mark.skipif(HAVE_JAX, reason="jax installed here")
    def test_backend_unavailable_exits_cleanly(self, water_file):
        from repro.cli import main

        with pytest.raises(SystemExit, match="jax"):
            main(["scf", water_file, "--backend", "jax"])
