"""Seeded fault plans: pure decisions, typed injection, chaos end-to-end."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.calculators import (
    FragmentRecord,
    GuessCache,
    PairwisePotentialCalculator,
)
from repro.faults import (
    CKPT_FAULT_KINDS,
    FAULT_KINDS,
    TASK_FAULT_KINDS,
    FaultPlan,
    FaultPlanCalculator,
    FaultSpec,
    InjectedFault,
)
from repro.scf.rhf import SCFConvergenceError
from repro.systems import water_cluster


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="cosmic_ray")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="transient", probability=1.5)

    def test_key_coerced_to_int_tuple(self):
        spec = FaultSpec(kind="transient", key=[0, 2])
        assert spec.key == (0, 2)

    def test_site_partition(self):
        assert FaultSpec(kind="crash").site == "task"
        assert FaultSpec(kind="ckpt_torn").site == "checkpoint"
        assert set(TASK_FAULT_KINDS) | set(CKPT_FAULT_KINDS) == set(
            FAULT_KINDS
        )

    def test_matches_conjunctive(self):
        spec = FaultSpec(kind="transient", step=3, key=(1,), attempts=2)
        assert spec.matches(step=3, key=(1,), attempt=0)
        assert spec.matches(step=3, key=(1,), attempt=1)
        assert not spec.matches(step=3, key=(1,), attempt=2)
        assert not spec.matches(step=4, key=(1,), attempt=0)
        assert not spec.matches(step=3, key=(2,), attempt=0)

    def test_wildcards_match_anything(self):
        spec = FaultSpec(kind="transient")
        assert spec.matches(step=0)
        assert spec.matches(step=99, key=(4, 5), natoms=12)

    def test_dict_round_trip(self):
        spec = FaultSpec(kind="hang", step=2, key=(0, 1), attempts=3,
                         probability=0.25, hang_s=1.5)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_dict({"kind": "transient", "severity": 9})


class TestFaultPlan:
    def test_first_matching_spec_wins(self):
        plan = FaultPlan(seed=1, specs=[
            FaultSpec(kind="transient", step=1),
            FaultSpec(kind="crash", step=1),
        ])
        spec = plan.decide("task", step=1, key=(0,))
        assert spec is not None and spec.kind == "transient"

    def test_site_filtering(self):
        plan = FaultPlan(seed=1, specs=[FaultSpec(kind="ckpt_torn", step=4)])
        assert plan.decide("task", step=4, key=(0,)) is None
        assert plan.decide("checkpoint", step=4) is not None
        with pytest.raises(ValueError, match="unknown fault site"):
            plan.decide("network", step=4)

    def test_probability_gate_is_pure(self):
        """Two independent plan copies reach identical verdicts for the
        identical event stream — the property worker pickling relies on."""
        specs = [FaultSpec(kind="transient", probability=0.4)]
        a = FaultPlan(seed=11, specs=list(specs))
        b = FaultPlan(seed=11, specs=list(specs))
        events = [(s, (k,)) for s in range(20) for k in range(3)]
        va = [a.decide("task", step=s, key=k) is not None for s, k in events]
        vb = [b.decide("task", step=s, key=k) is not None for s, k in events]
        assert va == vb
        assert any(va) and not all(va)  # the gate actually thins

    def test_different_seed_different_draws(self):
        specs = [FaultSpec(kind="transient", probability=0.4)]
        a = FaultPlan(seed=11, specs=list(specs))
        b = FaultPlan(seed=12, specs=list(specs))
        events = [(s, (k,)) for s in range(20) for k in range(3)]
        va = [a.decide("task", step=s, key=k) is not None for s, k in events]
        vb = [b.decide("task", step=s, key=k) is not None for s, k in events]
        assert va != vb

    def test_audit_records_fired_events(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec(kind="nan_forces", step=2)])
        plan.decide("task", step=1, key=(0,))
        plan.decide("task", step=2, key=(0,), natoms=3)
        assert len(plan.audit) == 1
        rec = plan.audit[0]
        assert (rec.kind, rec.step, rec.key, rec.natoms) == (
            "nan_forces", 2, (0,), 3
        )
        assert plan.audit_summary() == {"nan_forces": 1}

    def test_pickle_ships_specs_but_not_audit(self):
        plan = FaultPlan(seed=5, specs=[FaultSpec(kind="transient")])
        plan.decide("task", step=0, key=(0,))
        assert plan.audit
        copy = pickle.loads(pickle.dumps(plan))
        assert copy.seed == plan.seed and copy.specs == plan.specs
        assert copy.audit == []

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(seed=7, specs=[
            FaultSpec(kind="crash", step=1, key=(2,)),
            FaultSpec(kind="ckpt_bitflip", step=8),
        ])
        path = tmp_path / "plan.json"
        plan.save(path)
        back = FaultPlan.load(path)
        assert back.seed == 7 and back.specs == plan.specs

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="'specs' list"):
            FaultPlan.load(path)

    def test_derive_seed_stable_and_stream_separated(self):
        plan = FaultPlan(seed=9)
        assert plan.derive_seed("retry-jitter") == plan.derive_seed(
            "retry-jitter"
        )
        assert plan.derive_seed("retry-jitter") != plan.derive_seed("ckpt:4")
        assert 0 <= plan.derive_seed("x") < 2 ** 63


class _Frag:
    """Minimal fragment-molecule stand-in carrying the targeting fields."""

    def __init__(self, mol, key):
        self._mol = mol
        self.frag_key = key
        self.natoms = mol.natoms

    def __getattr__(self, name):
        return getattr(self._mol, name)


class TestFaultPlanCalculator:
    @pytest.fixture()
    def mol(self):
        return water_cluster(1, seed=3)

    def _calc(self, *specs, seed=0):
        return FaultPlanCalculator(
            PairwisePotentialCalculator(),
            FaultPlan(seed=seed, specs=list(specs)),
        )

    def test_clean_delegation_matches_inner(self, mol):
        inner = PairwisePotentialCalculator()
        calc = self._calc(FaultSpec(kind="transient", step=5))
        e0, g0 = inner.energy_gradient(mol)
        e1, g1 = calc.energy_gradient(mol)
        assert e1 == e0
        np.testing.assert_array_equal(g1, g0)

    def test_transient_raises_injected_fault(self, mol):
        calc = self._calc(FaultSpec(kind="transient", step=0))
        with pytest.raises(InjectedFault):
            calc.energy_gradient(_Frag(mol, (0,)))
        # the retry budget: attempt 1 is past attempts=1, so it succeeds
        frag = _Frag(mol, (0,))
        frag.attempt = 1
        e, g = calc.energy_gradient(frag)
        assert np.isfinite(e)

    def test_scf_fail_raises_typed_error(self, mol):
        calc = self._calc(FaultSpec(kind="scf_fail", step=0))
        with pytest.raises(SCFConvergenceError, match="planned"):
            calc.energy_gradient(_Frag(mol, (0,)))

    def test_nan_forces_finite_energy_nan_gradient(self, mol):
        calc = self._calc(FaultSpec(kind="nan_forces", step=0))
        e, g = calc.energy_gradient(_Frag(mol, (0,)))
        assert np.isfinite(e)
        assert np.isnan(g).all()

    def test_key_targeting(self, mol):
        calc = self._calc(FaultSpec(kind="transient", key=(1,)))
        e, _ = calc.energy_gradient(_Frag(mol, (0,)))
        assert np.isfinite(e)
        with pytest.raises(InjectedFault):
            calc.energy_gradient(_Frag(mol, (1,)))

    def test_attribute_get_and_set_delegate_to_inner(self, mol):
        inner = PairwisePotentialCalculator()
        calc = FaultPlanCalculator(inner, FaultPlan())
        calc.guess_cache = cache = GuessCache()
        assert inner.guess_cache is cache
        assert calc.guess_cache is cache

    def test_pickle_round_trip(self, mol):
        calc = self._calc(FaultSpec(kind="transient", step=0))
        copy = pickle.loads(pickle.dumps(calc))
        with pytest.raises(InjectedFault):
            copy.energy_gradient(_Frag(mol, (0,)))

    def test_cache_poison_nan_fills_entry(self, mol):
        """Poisoning replaces the densities the task's record carries
        with NaNs — a new record on the molecule, the engine's untouched
        — which the SCF guess validation (`repro.scf.rhf`) then
        discards, so the fault costs iterations, never correctness."""
        calc = FaultPlanCalculator(
            PairwisePotentialCalculator(),
            FaultPlan(specs=[FaultSpec(kind="cache_poison", step=0)]),
        )
        frag = _Frag(mol, (0,))
        frag.record = held = GuessCache().put(
            FragmentRecord(), np.eye(4), mol.natoms)
        e, g = calc.energy_gradient(frag)
        assert np.isfinite(e)  # evaluation itself is clean
        poisoned = GuessCache().get(frag.record, mol.natoms)
        assert poisoned is not None and np.isnan(poisoned).all()
        assert np.isfinite(held.densities[0]).all()

    def test_cache_poison_costs_iterations_not_correctness(self):
        """End to end on RI-HF: a run whose dimer record is poisoned at
        step 2 ends on the clean run's energies (to SCF convergence) and
        spends more iterations getting there."""
        from repro.calculators import RIHFCalculator
        from repro.frag import FragmentedSystem
        from repro.md import AsyncCoordinator, run_serial

        system = FragmentedSystem.by_components(water_cluster(2, seed=5))

        def run(calc):
            co = AsyncCoordinator(system, nsteps=4, dt_fs=0.5,
                                  r_dimer_bohr=1.0e6, mbe_order=2, seed=8)
            run_serial(co, calc)
            return co.trajectory_energies()[1], co.guess_cache

        clean, clean_cache = run(RIHFCalculator())
        poisoned, cache = run(FaultPlanCalculator(RIHFCalculator(), FaultPlan(
            specs=[FaultSpec(kind="cache_poison", step=2, natoms=6)])))
        np.testing.assert_allclose(poisoned, clean, rtol=0, atol=1e-8)
        assert cache.iters_warm + cache.iters_cold > (
            clean_cache.iters_warm + clean_cache.iters_cold)


class TestChaosEndToEnd:
    """A seeded chaos AIMD campaign completes and matches the fault-free
    run bitwise."""

    def _final_energy(self, text):
        lines = [ln for ln in text.splitlines()
                 if ln.startswith("final total energy:")]
        assert lines, text
        return lines[-1]

    def test_chaos_run_matches_clean_and_fallback_resumes(
        self, tmp_path, capsys
    ):
        from repro.chem.xyz import save_xyz
        from repro.cli import main

        xyz = tmp_path / "w3.xyz"
        save_xyz(water_cluster(3, seed=4), xyz)
        ck = tmp_path / "ck.npz"
        plan = FaultPlan(seed=7, specs=[
            FaultSpec(kind="crash", step=1),
            FaultSpec(kind="nan_forces", step=2),
            FaultSpec(kind="ckpt_torn", step=8),
        ])
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        common = ["aimd", str(xyz), "--surrogate", "--dt", "0.5",
                  "--steps", "8", "--workers", "2"]

        assert main(common) == 0
        clean_out = capsys.readouterr().out

        assert main(common + [
            "--fault-plan", str(plan_path), "--max-retries", "3",
            "--checkpoint", str(ck), "--checkpoint-every", "4",
            "--checkpoint-keep", "2",
        ]) == 0
        chaos_out = capsys.readouterr().out
        assert "fault handling:" in chaos_out
        assert "pool restarts" in chaos_out
        assert "fault audit: ckpt_torn x1" in chaos_out
        assert self._final_energy(chaos_out) == self._final_energy(clean_out)

        # the final checkpoint was torn by the plan: resume must fall
        # back to the previous rotation and still land on the same
        # final energy
        assert ck.with_name("ck.npz.1").exists()
        assert main(common + ["--resume", str(ck)]) == 0
        resumed_out = capsys.readouterr().out
        assert "checkpoint fallback" in resumed_out
        assert self._final_energy(resumed_out) == self._final_energy(
            clean_out
        )
