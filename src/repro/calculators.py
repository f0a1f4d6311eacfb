"""Energy/gradient calculators: the pluggable engine behind MBE and AIMD.

`Calculator.energy_gradients(mols)` is the one call the MD drivers make;
`energy_gradient(mol)`, the same for one molecule, is what the MBE
references use. Three families are provided:

* `RIMP2Calculator` / `RIHFCalculator` — the real quantum engines
  (the paper's per-polymer worker computation).
* `ConventionalHFCalculator` — the four-center HF baseline of the
  Fig. 3 RI-vs-conventional comparison.
* `PairwisePotentialCalculator` — a cheap classical surrogate
  (Lennard-Jones + Coulomb + optional Axilrod-Teller three-body term)
  for exercising the fragmentation/scheduling machinery at scales where
  the quantum engine would dominate test runtime. Because LJ+Coulomb is
  strictly pairwise-additive, MBE2 reproduces it *exactly*; adding the
  Axilrod-Teller term makes MBE3 exact — both are sharp correctness
  tests for the MBE assembly.

A calculator holds no tracer: its events (``calc.stack``, ``scf.*``,
``int.screen``) go to the calling thread's (`repro.trace.current`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from .basis.auxiliary import auto_auxiliary
from .basis.basisset import BasisSet
from .chem.molecule import Molecule
from .integrals import ERI4C_SCREEN
from .integrals.batch import table_bytes
from .integrals.workspace import IntegralWorkspace, get_workspace, table_budget
from .mp2.mp2 import mp2_ri
from .mp2.rimp2_grad import rimp2_gradient_coefficients
from .numerics import NumericalDivergenceError, ensure_finite
from .scf.grad import (
    contract_ri_gradients,
    rhf_gradient_conventional,
    ri_gradient_coefficients,
)
from .scf.recovery import rhf_with_recovery
from .scf.rhf import SCFConvergenceError, prepare_solves
from .trace import current


class Calculator(Protocol):
    """Anything that can evaluate energies and nuclear gradients.

    Every driver makes one call, ``energy_gradients(mols)``, on the
    fragments it has ready (`repro.md.scheduler.evaluate_fragments`):
    `RIMP2Calculator` and `RIHFCalculator` evaluate them as one
    evaluation of the integral layer (a group per `table_budget`), a
    `OneAtATime` calculator loops. An object
    that offers only ``energy_gradient`` is adapted once, where a driver
    takes it (`stacking`).
    """

    def energy_gradient(self, mol: Molecule) -> tuple[float, np.ndarray]:
        """Return ``(energy_hartree, gradient (natoms, 3) Ha/Bohr)``."""
        ...

    def energy_gradients(self, mols) -> list[tuple[float, np.ndarray]]:
        """`energy_gradient` of every molecule, in order."""
        ...


class OneAtATime:
    """The stack call of a calculator that evaluates one fragment per
    ``energy_gradient`` call."""

    def energy_gradients(self, mols) -> list[tuple[float, np.ndarray]]:
        """`energy_gradient` of every molecule, in order."""
        return [self.energy_gradient(mol) for mol in mols]


class CalculatorWrapper:
    """A calculator around another, ``inner``: every attribute but its
    own (``_OWN``) is the inner calculator's, read and written, so the
    drivers' warm-start attachment reaches the calculator that solves."""

    _OWN: tuple[str, ...] = ("inner",)

    def __init__(self, inner) -> None:
        object.__setattr__(self, "inner", inner)

    def __getattr__(self, name):
        # only reached when normal lookup fails (e.g. mid-unpickle);
        # guard the own slots so a missing 'inner' cannot recurse
        if name in type(self)._OWN:
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __setattr__(self, name, value):
        if name in type(self)._OWN:
            object.__setattr__(self, name, value)
        else:
            setattr(self.inner, name, value)


class _EnergyGradientOnly(CalculatorWrapper, OneAtATime):
    """An object that offers only ``energy_gradient``, under the stack
    call."""

    def energy_gradient(self, mol):
        return self.inner.energy_gradient(mol)


def stacking(calculator):
    """``calculator`` as the drivers call it: itself when its class
    defines ``energy_gradients``, else adapted to evaluate a stack one
    fragment at a time. Done once, where a driver takes the calculator
    (after it attached its warm starts)."""
    if getattr(type(calculator), "energy_gradients", None) is not None:
        return calculator
    return _EnergyGradientOnly(calculator)


@dataclass(frozen=True)
class FragmentRecord:
    """What a fragment key carries from one evaluation to the next: the
    step engine's (`repro.md.scheduler.FragmentRecords`), put on the
    task's molecule (``Molecule.record``) and checkpointed. A calculator
    never changes one in place — it puts a new one on the molecule — so
    a failed attempt leaves nothing behind. A molecule without a record
    (a bare calculator call) has no history. Screening is not history:
    every evaluation screens with the Schwarz tables of its own
    geometry.
    """

    #: the last converged densities, most recent last (`GuessCache`)
    densities: tuple = ()
    #: the atom count ``densities`` were converged for
    natoms: int = 0
    #: ``(warm, iterations)`` of the solve that wrote the record, for
    #: the engine's `GuessCache.record`; not checkpointed
    solve: tuple | None = None


class GuessCache:
    """Warm-start policy and accounting for cross-step SCF guesses.

    Between consecutive MD steps a fragment moves by a fraction of a
    bohr, so its previous converged density is an excellent initial
    guess (CP2K and the MTS-AIMD literature report 2-4x fewer SCF
    iterations). The densities are trajectory state: they ride each
    fragment's `FragmentRecord` to whichever worker runs it and into
    the checkpoint.

    A record keeps the last ``HISTORY`` densities and `get` serves their
    forward Lagrange extrapolation (``2 D1 - D0`` for two, ``3 D2 - 3 D1
    + D0`` for three), the density analogue of CP2K's always-stable
    predictor: plain last-density reuse leaves its error along the
    slowest-contracting response modes, which DIIS must rebuild, and
    extrapolation cancels the leading order of it (one density is
    plain reuse). `repro.scf.rhf` re-validates and re-purifies every
    guess; a record converged for another atom count serves none.

    ``enabled=False`` serves no guess and keeps no density, so cold and
    warm runs are instrumented identically. The step engine counts hits,
    misses and warm / cold iterations as results come back (`record`),
    whichever process ran the solve.
    """

    #: densities a record keeps (the extrapolation's order plus one)
    HISTORY = 3

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        #: SCF iterations spent on warm and cold solves, for the 2-4x
        #: savings audit
        self.iters_warm = 0
        self.iters_cold = 0

    def get(self, record: FragmentRecord, natoms: int) -> np.ndarray | None:
        """The extrapolated guess density of ``record``, or None."""
        h = record.densities
        if not self.enabled or not h or record.natoms != natoms:
            return None
        if len(h) == 1:
            return h[-1]
        if len(h) == 2:
            return 2.0 * h[-1] - h[-2]
        return 3.0 * h[-1] - 3.0 * h[-2] + h[-3]

    def put(self, record: FragmentRecord, D: np.ndarray,
            natoms: int) -> FragmentRecord:
        """``record`` with the converged density ``D`` appended (the
        caller must not mutate it), the history cut to its depth; an
        atom-count change starts a new history, and a disabled cache
        keeps none."""
        held = record.densities if record.natoms == natoms else ()
        kept = (*held, D)[-self.HISTORY:] if self.enabled else ()
        return replace(record, densities=kept, natoms=int(natoms))

    def record(self, hit: bool, n_iter: int) -> None:
        """Account one solve: a hit (warm) or miss (cold) and its
        iteration count."""
        if hit:
            self.hits += 1
            self.iters_warm += int(n_iter)
        else:
            self.misses += 1
            self.iters_cold += int(n_iter)

    def stats(self) -> dict:
        """Counters snapshot (hits / misses / iterations)."""
        return {name: getattr(self, name)
                for name in ("hits", "misses", "iters_warm", "iters_cold")}


def _resolve_workspace(calc):
    """The calculator's `IntegralWorkspace` (the process-global one by
    default) and the scope its evaluation runs in, which holds the
    geometry-keyed scratch its drivers share."""
    ws = calc.workspace if calc.workspace is not None else get_workspace()
    return ws, ws.scope()


def _shared_atoms(mols) -> list[list[int]]:
    """The molecules' indices in components that share an atom (one
    element at the same coordinates), each in order, ordered by first
    member."""
    parent = list(range(len(mols)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[tuple, int] = {}
    for i, mol in enumerate(mols):
        for sym, xyz in zip(mol.symbols, mol.coords):
            j = owner.setdefault((sym, xyz.tobytes()), i)
            parent[root(i)] = root(j)
    comps: dict[int, list[int]] = {}
    for i in range(len(mols)):
        comps.setdefault(root(i), []).append(i)
    return list(comps.values())


def _stacks(mols, basis: str, workspace: IntegralWorkspace):
    """The molecules as groups, ``(indices, bases, auxs)`` each, one
    evaluation of the integral layer a group: fragments that share an
    atom are in one group (a block they share is computed once), and
    whole such components are packed, in order, into a group while its
    distinct blocks' unscreened Hermite Coulomb tables and
    bra-derivative expansions (`repro.integrals.batch.table_bytes`) fit
    `table_budget` — the budget one evaluation always had. A component
    beyond the budget on its own is a group of its own, which builds
    what its held tables leave out on the fly, with the same bits."""
    bases = [BasisSet.build(mol, basis) for mol in mols]
    auxs = [auto_auxiliary(mol, basis) for mol in mols]
    budget = table_budget(workspace)
    group: list[int] = []
    for comp in _shared_atoms(mols):
        trial = group + comp
        if group and table_bytes([bases[i] for i in trial],
                                 [auxs[i] for i in trial],
                                 [mols[i] for i in trial], workspace) > budget:
            yield group, [bases[i] for i in group], [auxs[i] for i in group]
            trial = comp
        group = trial
    if group:
        yield group, [bases[i] for i in group], [auxs[i] for i in group]


def _evaluate_stacks(calc, mols, method: str, terms):
    """``(energy, gradient)`` of every molecule, in order, evaluated
    group by group (`_stacks`).

    A group is one evaluation of the integral layer
    (`IntegralWorkspace.evaluation`), in three phases: the value drivers
    compute every block the group's fragments hold once and fill each
    fragment's solve memo (`repro.scf.rhf.prepare_solves`); each
    fragment's SCF runs on its own — warm starts, recovery ladder — and
    ``terms(result)`` turns it into the fragment's energy and gradient
    coefficients, after which the SCF result is dropped; one call of
    each derivative driver then contracts every fragment's coefficients
    against the group's shared derivative integrals
    (`repro.scf.grad.contract_ri_gradients`). With screening on, every
    driver screens each fragment with the Schwarz table of its own
    geometry, built by the first screened driver of the group
    (`IntegralWorkspace.schwarz_bounds_stack`). A fragment whose
    SCF fails raises the typed error under its own key; the rest of its
    group is not evaluated. Under a tracer it emits one ``calc.stack``
    span per group (its compositions, size, the largest table set it
    held plus its held bra-derivative expansions, the pairs its
    derivative drivers rebuilt, and the block elements its value
    drivers were asked for and computed, per family).
    """
    ws = calc.workspace if calc.workspace is not None else get_workspace()
    tracer = current()
    out = [None] * len(mols)
    for idx, bases, auxs in _stacks(mols, calc.basis, ws):
        group = [mols[i] for i in idx]
        start = tracer.clock() if tracer else 0.0
        with ws.evaluation() as scratch:
            memos = prepare_solves(group, bases, auxs, calc.int_screen, ws)
            energies, coefs = [], []
            for mol, memo in zip(group, memos):
                energy, coef = terms(_fragment_scf(calc, mol, memo, ws))
                energies.append(energy)
                coefs.append(coef)
                memo.clear()  # drops the solve's tensors and Fock layouts
            grads = contract_ri_gradients(group, bases, auxs,
                                          list(zip(*coefs)),
                                          calc.int_screen, ws)
        if tracer:
            tracer.complete(
                "calc.stack", start, tracer.clock() - start,
                cat="calculators",
                composition=" ".join(dict.fromkeys(
                    mol.formula() for mol in group)),
                size=len(idx), table_bytes=scratch.table_bytes,
                rebuilt_pairs=scratch.rebuilt_pairs,
                elements_requested=dict(scratch.elements_requested),
                elements_computed=dict(scratch.elements_computed),
            )
        for i, mol, energy, grad in zip(idx, group, energies, grads):
            ensure_finite(
                f"{method} on {mol.natoms}-atom fragment "
                f"{getattr(mol, 'frag_key', None)}",
                energy=energy, gradient=grad,
            )
            out[i] = energy, grad
    return out


def _fragment_scf(calc, mol, memo, workspace):
    """One fragment's SCF of a group, on its prepared solve memo; an SCF
    that fails (the recovery ladder exhausted, or diverged) raises its
    typed error naming the fragment."""
    try:
        return _solve_scf(
            mol, calc.basis, guess_cache=calc.guess_cache, ri=True,
            int_screen=calc.int_screen, workspace=workspace,
            solve_memo=memo,
        )
    except (SCFConvergenceError, NumericalDivergenceError) as err:
        raise type(err)(
            f"fragment {getattr(mol, 'frag_key', None)} "
            f"({mol.natoms} atoms): {err}"
        ) from err


def _solve_scf(mol, basis, guess_cache=None, **kwargs):
    """The SCF through the recovery cascade (`rhf_with_recovery`).

    With a `GuessCache` and a molecule carrying a `FragmentRecord`, the
    record's extrapolated densities seed the solve (``dm0``) and the
    molecule gets a new record holding the converged density (after a
    recovery escalation too) and the solve's outcome, which the step
    engine counts. Emits an ``scf.warm_start`` instant per such solve
    with the hit/miss outcome and the iteration count.
    """
    record = getattr(mol, "record", None) if guess_cache is not None else None
    hit = False
    if record is not None:
        dm0 = guess_cache.get(record, mol.natoms)
        if dm0 is not None:
            kwargs["dm0"] = dm0
            hit = True
    res = rhf_with_recovery(mol, basis, **kwargs)
    if record is not None:
        mol.record = replace(guess_cache.put(record, res.D, mol.natoms),
                             solve=(hit, res.niter))
        if tracer := current():
            tracer.instant(
                "scf.warm_start", cat="scf", key=str(mol.frag_key), hit=hit,
                n_iter=res.niter, warm_started=res.warm_started,
            )
    return res


@dataclass
class RIMP2Calculator:
    """Full RI-HF + RI-MP2 energy and analytic gradient (the paper's method).

    The SCF always runs through the escalation ladder of
    `repro.scf.recovery`, so a hard fragment geometry costs extra
    iterations instead of aborting the trajectory.  Every returned
    energy/gradient passes a NaN/Inf sentinel; divergence surfaces as a
    typed `NumericalDivergenceError` the fault-tolerant drivers know how
    to retry or quarantine.

    ``guess_cache`` (a `GuessCache`) enables cross-step SCF warm starts
    for fragment molecules carrying a `FragmentRecord`.

    ``int_screen`` is the Schwarz screening tolerance forwarded to the
    three-center integral/derivative drivers (0.0 = exact, no skips);
    ``workspace`` is an `IntegralWorkspace` memoizing geometry-independent
    integral intermediates across solves (defaults to the process-global
    workspace — caching is exact, so results are bitwise unchanged).
    """

    basis: str = "sto-3g"
    guess_cache: GuessCache | None = None
    int_screen: float = 0.0
    workspace: IntegralWorkspace | None = None

    def energy_gradient(self, mol: Molecule) -> tuple[float, np.ndarray]:
        """RI-HF + RI-MP2 total energy and analytic gradient."""
        return self.energy_gradients([mol])[0]

    def energy_gradients(self, mols) -> list[tuple[float, np.ndarray]]:
        """`energy_gradient` of every molecule, the fragments one
        evaluation of the integral layer per group (`_evaluate_stacks`);
        each result is bitwise the one the molecule gets alone."""
        def terms(res):
            coefs, parts = rimp2_gradient_coefficients(res)
            return res.energy + parts["e_corr"], coefs

        return _evaluate_stacks(self, mols, "RI-MP2", terms)

    def energy(self, mol: Molecule) -> float:
        """Energy-only evaluation (skips the gradient machinery)."""
        ws, scope = _resolve_workspace(self)
        with scope:
            res = _solve_scf(mol, self.basis, guess_cache=self.guess_cache,
                             ri=True, int_screen=self.int_screen, workspace=ws)
        energy = res.energy + mp2_ri(res).e_corr
        ensure_finite(f"RI-MP2 on {mol.natoms}-atom fragment", energy=energy)
        return energy


@dataclass
class RIHFCalculator:
    """RI-HF only (no correlation) — used for RI-vs-non-RI timing studies.

    Supports the same ``guess_cache`` wiring as `RIMP2Calculator`.
    """

    basis: str = "sto-3g"
    guess_cache: GuessCache | None = None
    int_screen: float = 0.0
    workspace: IntegralWorkspace | None = None

    def energy_gradient(self, mol: Molecule) -> tuple[float, np.ndarray]:
        """RI-HF energy and analytic gradient."""
        return self.energy_gradients([mol])[0]

    def energy_gradients(self, mols) -> list[tuple[float, np.ndarray]]:
        """`energy_gradient` of every molecule, in groups (see
        `RIMP2Calculator.energy_gradients`)."""
        return _evaluate_stacks(
            self, mols, "RI-HF",
            lambda res: (res.energy, ri_gradient_coefficients(res)),
        )


@dataclass
class ConventionalHFCalculator(OneAtATime):
    """Four-center HF baseline (what RI-HF replaces, Fig. 3).

    ``int_screen`` is the four-center derivative driver's threshold
    (`integrals.ERI4C_SCREEN` by default); ``0.0`` requests the exact
    path, which also bypasses the Schwarz/Dmax table builds entirely.
    """

    basis: str = "sto-3g"
    guess_cache: GuessCache | None = None
    int_screen: float = ERI4C_SCREEN
    workspace: IntegralWorkspace | None = None

    def energy_gradient(self, mol: Molecule) -> tuple[float, np.ndarray]:
        """Conventional four-center HF energy and gradient."""
        ws, scope = _resolve_workspace(self)
        with scope:
            res = _solve_scf(mol, self.basis, guess_cache=self.guess_cache,
                             ri=False, workspace=ws)
            grad = rhf_gradient_conventional(
                res, workspace=ws, int_screen=self.int_screen
            )
        ensure_finite(
            f"HF on {mol.natoms}-atom fragment",
            energy=res.energy, gradient=grad,
        )
        return res.energy, grad


# --------------------------------------------------------------------------
# Classical surrogate
# --------------------------------------------------------------------------

#: Lennard-Jones well depths (Hartree) and radii (Bohr) per element; crude
#: but physically shaped values for the surrogate potential.
_LJ_EPS = {"H": 3.0e-5, "C": 1.2e-4, "N": 1.1e-4, "O": 1.0e-4}
_LJ_SIGMA = {"H": 4.0, "C": 6.2, "N": 6.0, "O": 5.8}


@dataclass
class PairwisePotentialCalculator(OneAtATime):
    """Classical surrogate: bonded springs + LJ/Coulomb + optional 3-body.

    Intramolecular structure is held by harmonic bond and 1-3 (angle
    surrogate) springs detected from covalent radii; bonded and 1-3
    pairs are excluded from the nonbonded LJ + screened-Coulomb sums, so
    MD with fs time steps is stable. ``at_strength`` switches on the
    Axilrod-Teller triple-dipole three-body term

        V3 = nu * (1 + 3 cos a cos b cos c) / (r_ab r_bc r_ca)^3

    summed over atom triples, giving the MBE a genuine three-body
    signal. LJ+Coulomb is strictly pairwise-additive between monomers,
    so MBE2 is exact for it and MBE3 exact with the AT term — sharp
    correctness tests for the fragmentation machinery.
    """

    charge_scale: float = 0.05
    at_strength: float = 0.0
    bond_k: float = 0.35  # Hartree / Bohr^2
    angle_k: float = 0.06  # 1-3 distance spring
    softcore: float = 2.0  # Bohr; nonbonded r -> sqrt(r^2 + softcore^2)
    #: per-element point charges for the Coulomb-ish term
    charges: dict = field(
        default_factory=lambda: {"H": 0.3, "C": 0.1, "N": -0.4, "O": -0.5}
    )

    def energy_gradient(self, mol: Molecule) -> tuple[float, np.ndarray]:
        """Surrogate energy and analytic gradient."""
        from .chem.bonds import detect_bonds
        from .chem.elements import covalent_radius
        from .constants import BOHR_PER_ANGSTROM

        n = mol.natoms
        coords = mol.coords
        eps = np.array([_LJ_EPS.get(s, 1e-4) for s in mol.symbols])
        sig = np.array([_LJ_SIGMA.get(s, 5.5) for s in mol.symbols])
        q = np.array([self.charges.get(s, 0.0) for s in mol.symbols]) * self.charge_scale
        rcov = np.array(
            [covalent_radius(s) * BOHR_PER_ANGSTROM for s in mol.symbols]
        )
        e = 0.0
        g = np.zeros((n, 3))
        bonds = detect_bonds(mol)
        neighbors: dict[int, set[int]] = {i: set() for i in range(n)}
        excluded: set[tuple[int, int]] = set()
        for i, j in bonds:
            neighbors[i].add(j)
            neighbors[j].add(i)
            excluded.add((i, j))
        # 1-3 pairs: two bonds apart, remembering the central atom so the
        # equilibrium distance corresponds to a tetrahedral-ish angle
        pairs13: list[tuple[int, int, int]] = []
        for j in range(n):
            nb = sorted(neighbors[j])
            for ai in range(len(nb)):
                for bi in range(ai + 1, len(nb)):
                    a, b = nb[ai], nb[bi]
                    key = (min(a, b), max(a, b))
                    if key not in excluded:
                        pairs13.append((a, b, j))
                        excluded.add(key)

        def spring(i: int, j: int, k: float, r0: float) -> None:
            nonlocal e
            rvec = coords[i] - coords[j]
            r = float(np.linalg.norm(rvec))
            e += 0.5 * k * (r - r0) ** 2
            gi = k * (r - r0) * rvec / r
            g[i] += gi
            g[j] -= gi

        for i, j in bonds:
            # covalent-radius sums track the builder geometries closely
            spring(i, j, self.bond_k, rcov[i] + rcov[j])
        for a, b, j in pairs13:
            r0 = 0.8165 * (rcov[a] + rcov[b] + 2 * rcov[j])  # ~109.5 deg
            spring(a, b, self.angle_k, r0)

        # Nonbonded: soft-core LJ + screened Coulomb. The soft-core radius
        # bounds the repulsion so finite-step integration cannot shoot
        # through the wall — the potential stays smooth and pairwise.
        d2 = self.softcore**2
        for i in range(n):
            rvec = coords[i] - coords[i + 1 :]
            r2 = np.einsum("kj,kj->k", rvec, rvec)
            mask = np.array([(i, jj) not in excluded for jj in range(i + 1, n)])
            if not mask.any():
                continue
            s2 = r2 + d2
            e_ij = np.sqrt(eps[i] * eps[i + 1 :]) * mask
            s_ij = 0.5 * (sig[i] + sig[i + 1 :])
            qq = q[i] * q[i + 1 :] * mask
            sr6 = (s_ij**2 / s2) ** 3
            e += float(np.sum(4 * e_ij * (sr6**2 - sr6)))
            e += float(np.sum(qq / np.sqrt(s2)))
            # dE/d(r^2)
            dEdr2 = (
                4 * e_ij * (-6 * sr6**2 + 3 * sr6) / s2
                - 0.5 * qq / s2**1.5
            )
            gi = 2.0 * dEdr2[:, None] * rvec
            g[i] += gi.sum(axis=0)
            g[i + 1 :] -= gi
        if self.at_strength:
            e3, g3 = self._axilrod_teller(coords)
            e += e3
            g += g3
        return e, g

    def energy(self, mol: Molecule) -> float:
        """Energy-only evaluation (skips the finite-difference gradient
        of the three-body term — much faster for contribution scans)."""
        if not self.at_strength:
            return self.energy_gradient(mol)[0]
        saved = self.at_strength
        try:
            self.at_strength = 0.0
            e2, _ = self.energy_gradient(mol)
        finally:
            self.at_strength = saved
        return e2 + self._at_energy(mol.coords)

    def _at_energy(self, coords: np.ndarray) -> float:
        n = coords.shape[0]
        nu = self.at_strength
        tot = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    rij = coords[i] - coords[j]
                    rjk = coords[j] - coords[k]
                    rki = coords[k] - coords[i]
                    dij = np.linalg.norm(rij)
                    djk = np.linalg.norm(rjk)
                    dki = np.linalg.norm(rki)
                    cos_i = float(np.dot(rij, -rki) / (dij * dki))
                    cos_j = float(np.dot(-rij, rjk) / (dij * djk))
                    cos_k = float(np.dot(-rjk, rki) / (djk * dki))
                    tot += (
                        nu * (1 + 3 * cos_i * cos_j * cos_k)
                        / (dij * djk * dki) ** 3
                    )
        return tot

    def _axilrod_teller(self, coords: np.ndarray) -> tuple[float, np.ndarray]:
        # Analytic AT gradients are lengthy; the term is only used in
        # tests/surrogates, so a central difference of `_at_energy` is
        # acceptable and keeps this code obviously correct.
        h = 1.0e-6
        g = np.zeros_like(coords)
        for a in range(coords.shape[0]):
            for x in range(3):
                cp = coords.copy()
                cp[a, x] += h
                cm = coords.copy()
                cm[a, x] -= h
                g[a, x] = (self._at_energy(cp) - self._at_energy(cm)) / (2 * h)
        return self._at_energy(coords), g
