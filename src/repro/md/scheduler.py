"""The step engine: fragment AIMD, barrier optional (paper Sec. V-F, Fig. 4).

`AsyncCoordinator` is the one integrator in the package. It is the
super-coordinator's state machine, decoupled from how work is executed:
a driver takes the ready tasks (`take_ready()`, all of them at once, or
`next_task()`, one) and hands results back through `complete()`.
Drivers are the one drive loop (`repro.md.drivers`: worker processes,
or the calling thread as `run_serial`) and the trajectory service
(`repro.serve`), which take whole ready sets, or the discrete-event
cluster simulator (`repro.cluster`), which takes one task per free
worker and advances a virtual clock instead of the wall clock. The
synchronous driver (`repro.md.aimd.run_aimd`) is this engine with
``synchronous=True`` under `run_serial`: the paper's baseline is the
asynchronous scheme plus a global barrier, not a second implementation.

What a step is:

* **force tiers** — per replan window the force is a list of tiers
  ``(k_t, {fragment key: coefficient})`` (`repro.md.mts`): plain MBE is
  one tier at ``k = 1``; r-RESPA adds a slow tier every ``mts_k`` steps.
  A step's task set is the union of the keys of the tiers due at it,
  and a monomer's half-kick is the sum over due tiers of
  ``k_t * dt / 2`` times that tier's force: a slow tier acts only as
  impulses at its own boundaries;
* **forces** — every fragment result lands in its step's stacked
  buffer, and each monomer's rows of every due tier are reduced from it
  in sorted-key order when the monomer integrates, so a step's forces
  do not depend on the order its tasks came back in (how workers race,
  fail or retry);
* **priority queue** — released tasks are keyed by (distance of the
  polymer to a reference monomer at an extremity, time step, decreasing
  size), so the computation sweeps outward and monomers near the
  reference *start the next step while the rest of the previous step is
  still computing*;
* **integration** — without a barrier a monomer integrates (velocity
  Verlet, kick-drift-kick) the moment every task touching its atoms
  (including through H-cap chain terms) has returned; with
  ``synchronous=True`` all monomers integrate together when the step's
  last task returns;
* **replans** — the polymer list is re-formed every ``replan_interval``
  steps (pre-formed-list mode; lists and coefficients stay fixed within
  the window, so its task sets and reductions are worked out once), or never
  with ``replan_interval=0``;
* **fragment records** — a key's warm-start densities
  (`repro.calculators.FragmentRecord`) are the engine's: they ride the
  task to its worker and come back with the result (screening needs
  none: every evaluation builds its Schwarz tables where it stands). A key's
  step-*t* result completes before its step-*t+1* release, so every
  force is a function of the trajectory under any driver or restart;
* **checkpoint cuts** — a retired step that starts a replan window is a
  consistent cut, and a barrier (the next step's tasks wait for it), so
  at the write every owner's state is exactly the cut's. Beside the core
  block the file carries one section per stateful owner
  (`repro.md.checkpoint`): the engine's ``tiers`` (`_HeldTiers`: every
  tier's forces, so a resumed run evaluates nothing twice) and
  ``fragments`` (`FragmentRecords`), the thermostat, the surrogate, and
  whatever a driver or front-end attaches (`AsyncCoordinator.attach`).

Live state — per-step buffers, per-window tables — is evicted as steps
retire, so it is bounded by the plan-window skew, not by ``nsteps``.
What no geometry changes is worked out per window, not per task: each
key's `repro.frag.monomer.FragmentLayout` (so the ready tasks a driver
takes are one gather per step among them, and a finished task an
indexed add), the monomers a key waits
for (an arrival counter per step and key) and, per step and monomer,
the one centroid distance its keys' priorities read.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..calculators import FragmentRecord, GuessCache
from ..chem.molecule import Molecule
from ..frag.mbe import MBEPlan, build_plan, update_plan
from ..frag.monomer import FragmentedSystem, FragmentLayout
from ..numerics import ensure_finite
from ..trace import current
from .checkpoint import Checkpoint, CheckpointError, write_checkpoint
from .integrators import fs_to_au, kinetic_energy, maxwell_boltzmann_velocities
from .mts import slow_tier_items


#: the record of a key before its first evaluation (records are never
#: changed in place, so one serves every key)
_NO_HISTORY = FragmentRecord()


def _ncaps(cap_targets, key: tuple) -> int:
    """Cap hydrogens of fragment ``key``."""
    return sum(1 for m in key for j in cap_targets[m] if j not in key)


def _fragment_natoms(mono_natoms, cap_targets, key: tuple) -> int | None:
    """Atom count of fragment ``key`` (caps included), or None if the
    system has no such fragment."""
    if not key or min(key) < 0 or max(key) >= len(mono_natoms):
        return None
    return int(mono_natoms[list(key)].sum()) + _ncaps(cap_targets, key)


@dataclass
class FragmentStub:
    """Lightweight fragment descriptor for timing-only simulations."""

    natoms: int
    nelectrons: int


@dataclass
class PolymerTask:
    """One fragment calculation assigned to a worker."""

    key: tuple[int, ...]
    step: int
    #: the fragment, built when a driver takes the task (at release for
    #: the surrogate's gate, which reads it there); a stub from release
    #: on in a timing-only run
    molecule: Molecule | FragmentStub | None
    #: how the fragment's gradient chains back onto the parent (None
    #: for the stubs of a timing-only run)
    layout: FragmentLayout | None
    #: total weight of this solve at this step (summed over due tiers)
    coefficient: float
    distance: float  # priority distance to the reference monomer (Bohr)
    #: True for contributions synthesized by the committee surrogate —
    #: they bypass the worker queue and must not train the surrogate
    surrogate: bool = False

    @property
    def natoms(self) -> int:
        """Atom count of the fragment (including cap hydrogens)."""
        if self.layout is not None:
            return len(self.layout.symbols)
        return self.molecule.natoms

    @property
    def nelectrons(self) -> int:
        """Electron count of the fragment (drives the cost model)."""
        return self.molecule.nelectrons


@dataclass
class _TaskSet:
    """The tasks of a step at which one combination of tiers is due."""

    #: key -> coefficient summed over the due tiers
    keys: dict[tuple, float]
    #: key -> number of monomers that must arrive before it is released
    need: dict[tuple, int]
    #: monomer -> number of tasks touching it
    counts: list[int]
    #: key -> first row of its fragment gradient in the step's stacked
    #: buffer (canonical key order), and the buffer's length
    offsets: dict[tuple, int] = field(default_factory=dict)
    nrows: int = 0
    #: tier -> `AsyncCoordinator._reduction`
    reductions: dict[int, tuple] = field(default_factory=dict)


@dataclass
class _Window:
    """One replan window's frozen tables."""

    #: force tiers, parallel to ``AsyncCoordinator.tier_k``: key -> coefficient
    tiers: tuple[dict[tuple, float], ...]
    #: key -> monomers whose atoms the fragment's gradient reaches
    touch: dict[tuple, list[int]]
    #: monomer -> keys touching it
    mono_keys: list[list[tuple]]
    #: key -> `FragmentLayout`, built when the key enters a window and
    #: handed on to the next one that still lists it (empty for the
    #: stubs of a timing-only run)
    layouts: dict[tuple, FragmentLayout]
    #: due-tier tuple -> what a step with those tiers due has to do
    tasks: dict[tuple[int, ...], _TaskSet] = field(default_factory=dict)


class _HeldTiers:
    """The engine's own checkpoint section, ``tiers``, at the cut ``step``.

    Every force tier rides along, so the resumed run evaluates nothing
    twice: tier 0's forces at the cut (solving them again would start
    from records already past it) and the slow tier's at its last
    boundary (mid-cycle that geometry is gone). Meta is ``{"held":
    [{tier, k, step, e}]}``; the arrays are ``"<tier>.forces"`` (minus
    the gradient). `load_state` holds every check of a checkpoint's
    tiers against the resuming run.
    """

    def __init__(self, engine: AsyncCoordinator, step: int) -> None:
        self.engine = engine
        self.step = step

    def state_dict(self) -> tuple[dict, dict]:
        eng, step = self.engine, self.step
        held, arrays = [], {}
        for t, k in enumerate(eng.tier_k):
            b = step - step % k
            held.append({"tier": t, "k": k, "step": b, "e": float(eng._pe[t][b])})
            arrays[f"{t}.forces"] = -eng._grad[t][b]
        return {"held": held}, arrays

    def load_state(self, meta: dict, arrays: dict) -> None:
        eng, step = self.engine, self.step
        held = sorted(meta["held"], key=lambda h: h["tier"])
        ck_ks = tuple(int(h["k"]) for h in held if h["tier"])
        # files from before impulse r-RESPA was the one slow-tier mode
        # may declare another; the ``prev_*`` history they carry is ignored
        if meta.get("extrapolate"):
            raise CheckpointError(
                "checkpoint holds an extrapolated slow force; this engine "
                "applies the slow tier only as boundary impulses"
            )
        ks = eng.tier_k[1:]
        if ck_ks and ck_ks != ks:
            # covers tier state fed to a plain run (``ks == ()``) and more
            # than the one slow tier (a per-order ``k`` ladder) too
            raise CheckpointError(
                f"checkpoint MTS state (slow tiers k = {list(ck_ks)}) does "
                f"not match the run (mts_k = {eng.mts_k})"
            )
        for h in held:
            t, k, b = (int(h[x]) for x in ("tier", "k", "step"))
            if not t and ck_ks != ks:
                continue  # a plain run's forces: not this split's tier 0
            if b != step - step % k:
                raise CheckpointError(
                    f"checkpoint MTS state (k={k}) was taken at boundary "
                    f"{b} but the checkpoint is for step {step}"
                )
            if f"{t}.forces" not in arrays:
                raise CheckpointError(
                    f"checkpoint tier state names boundary {b} of tier {t} "
                    "but carries no held forces"
                )
            if not t and step not in eng.potential_energies:
                raise CheckpointError(
                    f"checkpoint carries forces for step {step} but no "
                    "energy record of it"
                )
            eng._grad[t][b] = -np.asarray(arrays[f"{t}.forces"], dtype=float)
            eng._pe[t][b] = float(h["e"])
            if b == step:
                # not evaluated again at the resumed step (tier 0: the
                # recorded potential of the step stands)
                eng._restored.add(t)


class FragmentRecords(dict):
    """``key -> FragmentRecord``, the engine's per-fragment state
    (`AsyncCoordinator._build` hands a record out, `complete` stores
    the one that comes back, a replan drops removed keys), and its
    ``fragments`` checkpoint section: every record with densities, all
    of them flattened into one array, with each record's key, atom
    count, density count and size in meta; no section when no record
    holds any. A loaded record that does not fit its fragment
    (``natoms(key)``; None: no such fragment) is dropped.
    """

    def __init__(self, natoms) -> None:
        super().__init__()
        self._natoms = natoms

    @property
    def nbytes(self) -> int:
        """Bytes of the densities held."""
        return sum(d.nbytes for rec in self.values() for d in rec.densities)

    @property
    def ndensities(self) -> int:
        """Converged densities held over every record."""
        return sum(len(rec.densities) for rec in self.values())

    def state_dict(self) -> tuple[dict, dict] | None:
        kept = [(key, rec) for key, rec in sorted(self.items())
                if rec.densities]
        if not kept:
            return None
        meta = [{"key": list(key), "natoms": rec.natoms,
                 "densities": len(rec.densities),
                 "nbf": len(rec.densities[0])}
                for key, rec in kept]
        return {"records": meta}, {"densities": np.concatenate(
            [d.ravel() for _, rec in kept for d in rec.densities])}

    def load_state(self, meta: dict, arrays: dict) -> None:
        dens = arrays["densities"]
        i = 0
        for entry in meta["records"]:
            n, nbf = entry["densities"], entry["nbf"]
            densities = tuple(dens[i:i + n * nbf * nbf].reshape(n, nbf, nbf))
            i += n * nbf * nbf
            key = tuple(entry["key"])
            if entry["natoms"] != self._natoms(key):
                continue
            self[key] = FragmentRecord(densities, entry["natoms"])


class AsyncCoordinator:
    """Step engine for fragment AIMD: asynchronous, or barriered."""

    def __init__(
        self,
        system: FragmentedSystem,
        nsteps: int,
        dt_fs: float,
        r_dimer_bohr: float,
        r_trimer_bohr: float | None = None,
        mbe_order: int = 3,
        temperature_k: float = 300.0,
        seed: int = 0,
        reference: int | None = None,
        replan_interval: int = 4,
        synchronous: bool = False,
        velocities: np.ndarray | None = None,
        clock=time.perf_counter,
        build_molecules: bool = True,
        checkpoint_path=None,
        checkpoint_every: int = 0,
        checkpoint_keep: int = 1,
        resume: Checkpoint | None = None,
        warm_start: bool = True,
        fault_plan=None,
        mts_k: int = 1,
        thermostat=None,
        step_callback=None,
        surrogate=None,
    ) -> None:
        self.system = system
        self.nsteps = nsteps
        self.dt = fs_to_au(dt_fs)
        self.dt_fs = dt_fs
        self.r_dimer = r_dimer_bohr
        self.r_trimer = r_trimer_bohr
        self.order = mbe_order
        #: steps per plan window; 0 freezes the first plan for the whole
        #: run (and, since no resume could rebuild it, never checkpoints)
        self.replan_interval = max(0, int(replan_interval))
        self.synchronous = synchronous
        self.clock = clock
        #: r-RESPA multiple-time-step split across MBE orders
        #: (`repro.md.mts`): ``tier_k[t]`` is the evaluation period of
        #: force tier ``t``. With ``mts_k > 1`` tier 0 is every monomer
        #: at +1, evaluated every step, and tier 1 the remainder of the
        #: MBE, evaluated at outer boundaries (``step % mts_k == 0``) and
        #: applied there as impulse half-kicks of ``mts_k*dt/2``.
        #: Slow-tier tasks flow through the same priority queue, so
        #: without a barrier they overlap with fast tasks of monomers
        #: already past the boundary.
        self.mts_k = max(1, int(mts_k))
        self.tier_k: tuple[int, ...] = (1, self.mts_k) if self.mts_k > 1 else (1,)
        self.mts = len(self.tier_k) > 1
        #: completed slow-tier boundary evaluations / solves avoided at
        #: steps where some tier is not due
        self.mts_slow_evals = 0
        self.mts_tasks_skipped = 0
        #: crash-safe checkpointing (see `repro.md.checkpoint`): written
        #: at the consistent retired-step cut at replan-aligned multiples
        #: of ``checkpoint_every``
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        #: rotated copies retained per `repro.md.checkpoint` (keep-N)
        self.checkpoint_keep = max(1, int(checkpoint_keep))
        #: seeded chaos schedule (`repro.faults.FaultPlan`): consulted at
        #: checkpoint-write sites here; task-site injection lives in the
        #: calculator wrapper (`repro.faults.FaultPlanCalculator`)
        self.fault_plan = fault_plan
        #: set by `run_aimd` (barrier mode: only there is every atom at
        #: the integer step at once): a `Trajectory` that collects full
        #: frames as steps retire (and rides on every checkpoint: it is
        #: `attach`ed as the ``frames`` section)
        self.frames = None
        self._frame_at = 0.0  # engine-clock time of the last retirement
        #: the calling thread's tracer (`repro.trace.current`), read once
        #: per entry point: here, `take_ready` / `next_task` and `complete`
        self._tracer = tracer = current()
        #: SCF warm-start policy and accounting (`GuessCache`; the
        #: densities ride the fragment records): the drivers attach it to
        #: a calculator that has none (`attach_guess_cache`), `complete`
        #: counts every solve. None with ``warm_start=False``.
        self.guess_cache = GuessCache() if warm_start else None
        #: online MBE-tail surrogate (`repro.surrogate.SurrogateManager`):
        #: polymer tasks whose committee prediction passes the
        #: disagreement gate are never scheduled at all — the win is
        #: fewer solves, not just cheaper ones. A step's tasks are
        #: released together once the previous step retired, and its
        #: full solves train the committee in key order when it retires
        #: (`_retire`), so the gate is a function of the trajectory.
        self.surrogate = surrogate
        #: polymer solves avoided by serving from the surrogate
        self.surrogate_tasks_avoided = 0
        #: surrogate-served contributions awaiting accumulation; drained
        #: iteratively by `complete` (never recursively — a long chain of
        #: serves unlocking integrations must not grow the Python stack)
        self._served_queue: deque = deque()
        #: step -> the full polymer solves the surrogate observes when
        #: the step retires
        self._observed: dict[int, list] = {}
        #: per-monomer thermostat (`repro.md.thermostats.
        #: LocalLangevinThermostat`), applied to each monomer's rows right
        #: after its closing half-kick and before the kinetic-energy
        #: measurement and any checkpoint write; the same in either mode
        self.thermostat = thermostat
        #: ``step_callback(step, pe, ke, coords)`` fired exactly once per
        #: step, at the moment the step fully retires (every monomer has
        #: measured its kinetic energy). ``coords`` is a private copy.
        #: This is the streaming hook the trajectory service subscribes
        #: through; errors propagate to the driver.
        self.step_callback = step_callback
        #: ``section name -> owner`` of what rides a checkpoint beside the
        #: core block and the engine's own ``tiers``. An owner speaks
        #: ``state_dict() -> (meta, arrays)`` / ``load_state(meta,
        #: arrays)`` (`repro.md.checkpoint`); a driver or front-end adds
        #: its own through `attach`.
        self._owners: dict[str, object] = {}
        if thermostat is not None:
            self._owners["thermostat"] = thermostat
        if self.surrogate is not None:
            self._owners["surrogate"] = self.surrogate
        #: sections of the checkpoint this run resumed from
        self._resumed: dict = {} if resume is None else resume.sections
        #: incremental-replan statistics (windows diffed vs rebuilt)
        self.replans_incremental = 0
        self.replan_added = 0
        self.replan_removed = 0
        self.replan_reused = 0
        self._latest_plan: MBEPlan | None = None
        #: `FragmentLayout`s built: one per key entering a plan window
        self.layouts_built = 0

        parent = system.parent
        self.masses = parent.masses_au
        self.start_step = 0
        ntiers = len(self.tier_k)
        #: per tier: step (for ``k > 1``: boundary) -> accumulated
        #: gradient / energy. Boundary entries outlive their step (one
        #: period), since the steps of the cycle read them as held.
        self._grad: list[dict[int, np.ndarray]] = [{} for _ in range(ntiers)]
        self._pe: list[dict[int, float]] = [{} for _ in range(ntiers)]
        #: tiers whose forces at ``start_step`` came with the checkpoint
        #: and are therefore not evaluated again there
        self._restored: set[int] = set()
        # results
        self.potential_energies: dict[int, float] = {}
        self.kinetic_energies: dict[int, float] = {}

        self.build_molecules = build_molecules
        nmono = system.nmonomers
        self.monomer_atoms = [
            np.array(m.atoms, dtype=np.intp) for m in system.monomers
        ]
        #: per-monomer cap targets: owners of each cap's outer atom
        self.cap_targets: list[list[int]] = [[] for _ in range(nmono)]
        for m in system.monomers:
            for cap in m.caps:
                self.cap_targets[m.index].append(system.atom_owner[cap.outer])
        self._atom_owner = np.array(
            [system.atom_owner[a] for a in range(parent.natoms)]
        )
        zsum = parent.atomic_numbers
        self._mono_electrons = np.array(
            [int(zsum[list(m.atoms)].sum()) - m.charge for m in system.monomers]
        )
        self._mono_natoms = np.array([len(m.atoms) for m in system.monomers])
        #: key -> `FragmentRecord` (the ``fragments`` section); what it
        #: checks a loaded record against holds no reference back to the
        #: engine, which a finished run can then free without the cyclic
        #: garbage collector
        self.records = FragmentRecords(
            partial(_fragment_natoms, self._mono_natoms, self.cap_targets))
        if resume is None:
            self.coords = parent.coords.copy()
            if velocities is None:
                self.velocities = maxwell_boltzmann_velocities(
                    self.masses, temperature_k, seed=seed
                )
            else:
                self.velocities = velocities.copy()
        else:
            if reference is None and resume.reference is not None:
                # replay the same sweep order as the interrupted run
                reference = int(resume.reference)
            self._resume(resume)

        # reference fragment: an extremity (max distance from the centroid)
        cents = system.centroids()
        if reference is None:
            reference = int(
                np.argmax(np.linalg.norm(cents - cents.mean(axis=0), axis=1))
            )
        self.reference = reference

        #: per-monomer time step index (completed integrations)
        self.monomer_time = np.full(nmono, self.start_step, dtype=int)
        self.monomer_done = np.zeros(nmono, dtype=bool)
        #: coordinates of each monomer at each step it has reached
        self.coords_at: dict[int, np.ndarray] = {
            self.start_step: self.coords.copy()
        }

        # per-step state, opened when the first monomer reaches the step
        # and evicted once the step is fully retired
        self._live: dict[int, tuple[int, ...]] = {}
        self._step_keys: dict[int, dict[tuple, float]] = {}
        self._pending_total: dict[int, int] = {}
        self._pending_monomer: dict[int, list[int]] = {}
        #: step -> {key -> monomers of ``touch[key]`` yet to arrive}
        self._waiting: dict[int, dict[tuple, int]] = {}
        self._ref_cent_cache: dict[int, np.ndarray] = {}
        #: step -> {monomer -> distance of its centroid to the reference's}
        self._ref_dist_cache: dict[int, dict[int, float]] = {}
        #: step -> ({key -> energy}, the fragment gradients stacked at
        #: `_TaskSet.offsets`)
        self._contrib: dict[int, tuple[dict, np.ndarray]] = {}
        #: step -> {first monomer of the integrated group -> kinetic energy}
        self._ke_parts: dict[int, dict[int, float]] = {}
        #: lowest step whose buffers have not been evicted yet
        self._evict_floor = self.start_step
        #: high-water mark of simultaneously live (un-evicted) steps
        self.max_live_steps = 0
        self.steps_evicted = 0
        self.step_finish_time: dict[int, float] = {}
        self.start_time = self.clock()
        self._retired_at = tracer.clock() if tracer else None

        #: live plan windows (window start -> plan / tables)
        self.plans: dict[int, MBEPlan] = {}
        self._windows: dict[int, _Window] = {}
        self._heap: list = []
        self._seq = 0
        self.in_flight = 0
        self.tasks_issued = 0
        self._build_window(self._window_start(self.start_step))
        self._release_ready(self.start_step)
        if not self._pending_total[self.start_step]:
            # every tier due at the resumed step rode on the checkpoint
            self._tasks_done(self.start_step)
            if synchronous:
                self._integrate(self.start_step)
            else:
                for m in range(nmono):
                    self._integrate(self.start_step, m)
        # a resumed surrogate can be warm enough to serve immediately
        self._drain_served()

    def _resume(self, resume: Checkpoint) -> None:
        """Validate a checkpoint against this run and restore its state.

        The one resume validator: both `run_aimd` and direct construction
        come through here.
        """
        parent = self.system.parent
        if resume.coords.shape != parent.coords.shape:
            raise CheckpointError(
                f"checkpoint is for {resume.coords.shape[0]} atoms, "
                f"system has {parent.natoms}"
            )
        step = self.start_step = int(resume.step)
        if step > self.nsteps:
            raise CheckpointError(
                f"checkpoint step {step} is beyond nsteps={self.nsteps}"
            )
        if self.replan_interval and step % self.replan_interval != 0:
            raise CheckpointError(
                f"checkpoint step {step} is not aligned to "
                f"replan_interval={self.replan_interval}; the fragment "
                "plan cannot be reconstructed mid-window"
            )
        self.coords = np.array(resume.coords, dtype=float, copy=True)
        self.velocities = np.array(resume.velocities, dtype=float, copy=True)
        # restore the energy history so trajectory_energies() spans the
        # whole run; the record of the resumed step itself stands
        for t, pe, ke in zip(resume.times_fs, resume.potential, resume.kinetic):
            s = int(round(float(t) / self.dt_fs))
            self.potential_energies[s] = float(pe)
            self.kinetic_energies[s] = float(ke)
        for name, owner in self._sections(step):
            if name in self._resumed:
                owner.load_state(*self._resumed[name])
        for t, k in enumerate(self.tier_k):
            if step % k and step - step % k not in self._grad[t]:
                raise CheckpointError(
                    f"checkpoint step {step} is inside an outer cycle "
                    f"(k={k}) but carries no MTS state; the held slow "
                    "forces cannot be reconstructed"
                )
        if self._tracer:
            self._tracer.instant("resume", cat="checkpoint", step=step)

    def _sections(self, step: int):
        """``(name, owner)`` of every checkpoint section at the cut ``step``."""
        return [("tiers", _HeldTiers(self, step)), ("fragments", self.records),
                *self._owners.items()]

    def attach(self, name: str, owner) -> None:
        """Let ``owner`` ride this run's checkpoints as section ``name``.

        For what is only known after construction (`run_parallel`'s
        `DriverReport`, `run_aimd`'s frame history). On a resumed run the
        owner first takes the state the checkpoint holds for it.
        """
        self._owners[name] = owner
        if name in self._resumed:
            owner.load_state(*self._resumed[name])

    # ------------------------------------------------------------------
    # plan windows
    # ------------------------------------------------------------------
    def _window_start(self, step: int) -> int:
        if not self.replan_interval:
            return self.start_step
        return step - step % self.replan_interval

    def _build_window(self, w0: int) -> None:
        coords = self.coords_at[w0]
        if self._latest_plan is None:
            plan = build_plan(
                self.system, self.r_dimer, self.r_trimer,
                order=self.order, coords=coords,
            )
        else:
            # incremental replan: edit the previous window's coefficient
            # map instead of rebuilding it (exact — see `update_plan`),
            # and drop the records of dropped fragments
            plan, diff = update_plan(
                self.system, self._latest_plan, self.r_dimer, self.r_trimer,
                order=self.order, coords=coords,
            )
            self.replans_incremental += 1
            self.replan_added += len(diff.added)
            self.replan_removed += len(diff.removed)
            self.replan_reused += diff.reused
            for key in diff.removed:
                self.records.pop(key, None)
            if self._tracer:
                self._tracer.instant(
                    "replan.incremental", cat="scheduler", step=w0,
                    added=len(diff.added), removed=len(diff.removed),
                    reused=diff.reused,
                )
        self._latest_plan = plan
        nmono = self.system.nmonomers
        if not self.mts:
            tiers = [{key: plan.coefficients[key] for key in plan.fragments}]
        else:
            # the fast tier is every monomer at +1 (even coefficient-zero
            # ones — their correction rides a slow tier)
            tiers = [
                {(m,): 1.0 for m in range(nmono)},
                dict(slow_tier_items(plan, nmono)),
            ]
        # touch set: constituents plus owners of outward cap atoms —
        # computable from topology alone (no geometry needed)
        touch: dict[tuple, list[int]] = {}
        mono_keys: list[list[tuple]] = [[] for _ in range(nmono)]
        for tier in tiers:
            for key in tier:
                if key in touch:
                    continue
                t = set(key)
                for m in key:
                    t.update(self.cap_targets[m])
                touch[key] = sorted(t)
                for m in touch[key]:
                    mono_keys[m].append(key)
        layouts: dict[tuple, FragmentLayout] = {}
        if self.build_molecules:
            held = self._windows[max(self._windows)].layouts if self._windows else {}
            for key in touch:
                lay = held.get(key)
                if lay is None:
                    lay = self.system.layout(key)
                    self.layouts_built += 1
                layouts[key] = lay
        self.plans[w0] = plan
        self._windows[w0] = _Window(tuple(tiers), touch, mono_keys, layouts)

    def _open_step(self, step: int) -> None:
        """Allocate ``step``'s buffers and work out its task set."""
        win = self._windows[self._window_start(step)]
        live = tuple(
            t for t, k in enumerate(self.tier_k)
            if step % k == 0
            and not (step == self.start_step and t in self._restored)
        )
        if live not in win.tasks:
            keys: dict[tuple, float] = {}
            for t in live:
                for key, c in win.tiers[t].items():
                    keys[key] = keys.get(key, 0.0) + c
            # sorted: a step released at once is released in key order,
            # however the plan was built (fresh on a resume, edited else)
            keys = dict(sorted(keys.items()))
            need = {key: len(win.touch[key]) for key in keys}
            counts = [0] * self.system.nmonomers
            for key in keys:
                for m in win.touch[key]:
                    counts[m] += 1
            win.tasks[live] = todo = _TaskSet(keys, need, counts)
            for key in keys:
                if key in win.layouts:
                    todo.offsets[key] = todo.nrows
                    todo.nrows += len(win.layouts[key].symbols)
        todo = win.tasks[live]
        keys = todo.keys
        self._live[step] = live
        self._step_keys[step] = keys
        self._pending_total[step] = len(keys)
        self._pending_monomer[step] = todo.counts.copy()
        self._waiting[step] = todo.need.copy()
        self.mts_tasks_skipped += len(win.touch) - len(keys)
        natoms = self.system.parent.natoms
        for t in live:
            self._grad[t][step] = np.zeros((natoms, 3))
        self._ref_dist_cache[step] = {}
        self._contrib[step] = ({}, np.zeros((todo.nrows, 3)))
        self._ke_parts[step] = {}
        self.max_live_steps = max(self.max_live_steps, self.live_steps)

    # ------------------------------------------------------------------
    # task release
    # ------------------------------------------------------------------
    def _ref_centroid(self, step: int) -> np.ndarray:
        cache = self._ref_cent_cache
        if step not in cache:
            coords = self.coords_at[step]
            cache[step] = coords[self.monomer_atoms[self.reference]].mean(axis=0)
        return cache[step]

    def _ref_distance(self, step: int, m: int) -> float:
        """Distance of monomer ``m``'s centroid at ``step`` to the
        reference's: asked for once ``m`` has arrived there (its rows of
        ``coords_at[step]`` are final), so once per (step, monomer)."""
        cent = self.coords_at[step][self.monomer_atoms[m]].mean(axis=0)
        d = float(np.linalg.norm(cent - self._ref_centroid(step)))
        self._ref_dist_cache[step][m] = d
        return d

    def _task(self, key: tuple, step: int) -> PolymerTask:
        """The task of a ready polymer, its fragment not built yet (a
        stub where the window has no layout for the key)."""
        win = self._windows[self._window_start(step)]
        lay = win.layouts.get(key)
        if lay is not None:
            mol = None  # built when a driver takes the task
        else:
            ncaps = _ncaps(self.cap_targets, key)
            mol = FragmentStub(
                natoms=int(self._mono_natoms[list(key)].sum()) + ncaps,
                nelectrons=int(self._mono_electrons[list(key)].sum()) + ncaps,
            )
        return PolymerTask(
            key=key,
            step=step,
            molecule=mol,
            layout=lay,
            coefficient=self._step_keys[step][key],
            distance=0.0,
        )

    def _release(self, task: PolymerTask) -> None:
        """Queue one ready task — or serve it from the surrogate.

        A polymer the committee surrogate's gate admits never enters the
        priority queue: its synthetic completed task goes onto
        ``_served_queue`` (the iterative accumulation path) and the
        per-order bound is folded into the manager's neglected-error
        ceiling. A cold class or a committee disagreement above the gate
        schedules the full solve. A gated task arrives with its fragment
        built (`_release_ready`).
        """
        key, step = task.key, task.step
        if self.surrogate is not None and len(key) > 1 and self.build_molecules:
            served = self.surrogate.predict(
                key, task.molecule, coefficient=task.coefficient
            )
            if served is not None:
                energy, grad_frag, spread = served
                task.surrogate = True
                self.in_flight += 1  # _complete_one decrements symmetrically
                self.surrogate_tasks_avoided += 1
                if self._tracer:
                    self._tracer.instant(
                        "surrogate.serve", cat="scheduler", step=step,
                        key=str(key), spread=float(spread),
                    )
                self._served_queue.append((task, energy, grad_frag))
                return
        dist = self._ref_dist_cache[step]
        task.distance = min(
            dist[m] if m in dist else self._ref_distance(step, m) for m in key
        )
        heapq.heappush(
            self._heap, (task.distance, step, -task.natoms, self._seq, task)
        )
        self._seq += 1
        if self._tracer:
            self._tracer.instant(
                "task.release", cat="scheduler", step=step, key=str(key)
            )
            self._tracer.counter("scheduler.queue_depth", len(self._heap))

    def _release_ready(self, step: int, only_monomer: int | None = None) -> None:
        """``only_monomer`` has arrived at ``step`` (None: every monomer
        has, and none was there before): release each task of the step
        whose last awaited monomer that was, in key order — the ones the
        surrogate's gate sees with their fragments built in one gather
        first (`_build`)."""
        if step not in self._pending_total:
            self._open_step(step)
        if only_monomer is None:
            # everyone is at the step: nothing is left to wait for
            keys = list(self._step_keys[step])
        else:
            win = self._windows[self._window_start(step)]
            waiting = self._waiting[step]
            keys = []
            for key in win.mono_keys[only_monomer]:
                n = waiting.get(key)
                if n is None:
                    continue  # in no tier due at this step
                waiting[key] = n - 1
                if n == 1:
                    keys.append(key)
        tasks = [self._task(key, step) for key in keys]
        if self.surrogate is not None and self.build_molecules:
            self._build([task for task in tasks if len(task.key) > 1])
        for task in tasks:
            self._release(task)

    def _drain_served(self) -> None:
        """Accumulate queued surrogate-served contributions iteratively.

        Each accumulation can integrate monomers, whose next-step
        releases can serve further polymers — the queue keeps that
        cascade flat instead of recursing through `complete`.
        """
        while self._served_queue:
            task, energy, grad_frag = self._served_queue.popleft()
            self._complete_one(task, energy, grad_frag)

    # ------------------------------------------------------------------
    # driver interface
    # ------------------------------------------------------------------
    def take_ready(self) -> list[PolymerTask]:
        """Pop every ready polymer, highest priority first (empty if
        none is ready), each with its fragment built."""
        return self._take(len(self._heap))

    def next_task(self) -> PolymerTask | None:
        """Pop the highest-priority ready polymer, or None if none ready."""
        tasks = self._take(min(len(self._heap), 1))
        return tasks[0] if tasks else None

    def _take(self, count: int) -> list[PolymerTask]:
        """Pop ``count`` ready polymers in priority order and build the
        fragments they carry (`_build`)."""
        heap = self._heap
        tasks = [heapq.heappop(heap)[-1] for _ in range(count)]
        self._build(tasks)
        self.in_flight += count
        self.tasks_issued += count
        if count and (tracer := current()):
            tracer.counter("scheduler.queue_depth", len(heap))
            tracer.counter("scheduler.in_flight", self.in_flight)
        return tasks

    def _build(self, tasks: list[PolymerTask]) -> None:
        """Put on each task that has none its fragment at its step, with
        the key's record and the step on it: one gather per step among
        the tasks (`FragmentLayout.molecules`). Until a key's result is
        in, no task of its next step is released, so the record read
        here is the one its release would have read."""
        by_step: dict[int, list[PolymerTask]] = {}
        for task in tasks:
            if task.molecule is None:
                by_step.setdefault(task.step, []).append(task)
        records = self.records
        for step, group in by_step.items():
            mols = FragmentLayout.molecules(
                [task.layout for task in group], self.coords_at[step])
            for task, mol in zip(group, mols):
                mol.record = records.get(task.key, _NO_HISTORY)
                mol.step = step
                task.molecule = mol

    def complete(self, task: PolymerTask, energy: float, grad_frag: np.ndarray,
                 record: FragmentRecord | None = None) -> None:
        """Accept a finished polymer and the record its evaluation left
        (None: unchanged, as for a quarantined task): accumulate,
        integrate ready monomers, release newly-ready polymers (and
        drain any surrogate serves the cascade produced)."""
        self._tracer = current()
        if record is not None:
            if record.solve is not None:  # count the solve once
                if self.guess_cache is not None:
                    self.guess_cache.record(*record.solve)
                record = replace(record, solve=None)
            self.records[task.key] = record
        self._complete_one(task, energy, grad_frag)
        self._drain_served()

    def _complete_one(
        self, task: PolymerTask, energy: float, grad_frag: np.ndarray
    ) -> None:
        self.in_flight -= 1
        step, key = task.step, task.key
        if (
            self.surrogate is not None
            and len(key) > 1
            and not task.surrogate
            and grad_frag is not None
            and self.build_molecules
        ):
            # every full polymer solve is a free training pair, folded in
            # when the step retires (`_retire`)
            self._observed.setdefault(step, []).append(
                (key, task.molecule, energy, grad_frag))
        win = self._windows[self._window_start(step)]
        lay = task.layout
        # one solve feeds every due tier that lists the key (at an outer
        # boundary a monomer carries +1 and its slow correction): held
        # here, reduced per monomer at integration (`_reduce_rows`)
        energies, stacked = self._contrib[step]
        energies[key] = energy
        if lay is not None and grad_frag is not None:
            first = win.tasks[self._live[step]].offsets[key]
            stacked[first:first + len(lay.symbols)] = grad_frag
        self._pending_total[step] -= 1
        if self._pending_total[step] == 0:
            self._tasks_done(step)
        moved = False
        if not self.synchronous:
            counts = self._pending_monomer[step]
            for m in win.touch[key]:
                counts[m] -= 1
                if not counts[m]:
                    self._integrate(step, m)
                    moved = True
        elif self._pending_total[step] == 0:
            # barrier: nobody moves until the step's last task is back
            self._integrate(step)
            moved = True
        if self._tracer:
            self._tracer.instant(
                "task.complete", cat="scheduler", step=step, key=str(key)
            )
            self._tracer.counter("scheduler.in_flight", self.in_flight)
            self._tracer.counter("scheduler.step_skew", self.max_step_skew)
        if moved:
            # only an integration can retire a step
            self._evict_retired_steps()

    def _tasks_done(self, step: int) -> None:
        """Every task of ``step`` is back: its potential energy is known."""
        live = self._live[step]
        win = self._windows[self._window_start(step)]
        energies = self._contrib[step][0]
        for t in live:
            coef = win.tiers[t]
            self._pe[t][step] = sum(coef[k] * energies[k] for k in sorted(coef))
            if t:
                self.mts_slow_evals += 1
                if self._tracer:
                    self._tracer.instant(
                        "mts.slow_eval", cat="scheduler", step=step, tier=t
                    )
        # a slow tier's energy is the one held since its last boundary
        self.potential_energies.setdefault(
            step,
            sum(self._pe[t][step - step % k] for t, k in enumerate(self.tier_k)),
        )
        self.step_finish_time[step] = self.clock() - self.start_time
        if self._tracer:
            self._tracer.instant("step.complete", cat="scheduler", step=step)

    def _evict_retired_steps(self) -> None:
        """Free buffers and tables no code path can read again.

        A step ``s`` is retired once every monomer has integrated past it
        (``min(monomer_time) > s``): all its tasks have completed
        (otherwise some monomer's pending count would be nonzero), its
        results are in `potential_energies`/`kinetic_energies`, and no
        future release, integration, or plan build reads ``coords_at[s]``
        — releases and plan builds only ever look at steps at or above
        the slowest monomer. A slow tier's boundary entry lives until
        the slowest monomer has left its cycle; a window's tables go
        with its last step. Without eviction these grow
        O(nsteps x natoms) and long NVE runs leak linearly in step count.
        """
        low = int(self.monomer_time.min())
        if low == self._evict_floor:
            return
        while self._evict_floor < low:
            s = self._evict_floor
            for d in (
                self.coords_at, self._live, self._step_keys,
                self._pending_total, self._pending_monomer, self._waiting,
                self._ref_cent_cache, self._ref_dist_cache, self._contrib,
                self._ke_parts,
            ):
                d.pop(s, None)
            self.steps_evicted += 1
            self._evict_floor += 1
        for t, k in enumerate(self.tier_k):
            horizon = low - low % k  # the boundary every live step holds
            for d in (self._grad[t], self._pe[t]):
                for b in [b for b in d if b < horizon]:
                    del d[b]
        w_low = self._window_start(low)
        for w0 in [w for w in self._windows if w < w_low]:
            del self._windows[w0], self.plans[w0]

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_candidate(self, step: int) -> bool:
        """True for steps eligible to be checkpointed.

        Candidates are multiples of ``checkpoint_every`` that start a
        replan window, so a resumed run rebuilds the identical fragment
        plan from the checkpointed coordinates (a frozen plan therefore
        never checkpoints). They need not be outer-cycle boundaries: the
        held slow tiers ride along.
        """
        return (
            self.checkpoint_path is not None
            and self.checkpoint_every > 0
            and step > self.start_step
            and step % self.checkpoint_every == 0
            and self.replan_interval > 0
            and step % self.replan_interval == 0
        )

    def _write_checkpoint(self, step: int) -> None:
        """Write a crash-safe snapshot of the consistent cut at ``step``."""
        steps = sorted(
            s for s in self.potential_energies
            if s <= step and s in self.kinetic_energies
        )
        parent = self.system.parent
        sections = {
            name: state for name, owner in self._sections(step)
            if (state := owner.state_dict()) is not None
        }
        write_checkpoint(
            self.checkpoint_path,
            Checkpoint(
                step=step,
                time_fs=step * self.dt_fs,
                coords=self.coords_at[step].copy(),
                velocities=self.velocities.copy(),
                symbols=tuple(parent.symbols),
                charge=parent.charge,
                times_fs=np.array([s * self.dt_fs for s in steps]),
                potential=np.array(
                    [self.potential_energies[s] for s in steps]
                ),
                kinetic=np.array([self.kinetic_energies[s] for s in steps]),
                reference=int(self.reference),
                sections=sections,
            ),
            keep=self.checkpoint_keep,
            fault_plan=self.fault_plan,
        )

    @property
    def live_steps(self) -> int:
        """Number of steps whose accumulation buffers are currently live."""
        return len(self._pending_total)

    # ------------------------------------------------------------------
    # integration
    # ------------------------------------------------------------------
    def _reduction(self, win: _Window, todo: _TaskSet, t: int) -> tuple:
        """Tier ``t``'s gradient as one ordered scatter of a step's
        stacked fragment gradients.

        Returns ``(target, source, weight, bounds)``: one entry per term
        of every `FragmentLayout.scatter` of the tier (parent atom, row
        of the stacked buffer, coefficient times chain-rule weight), in
        sorted-key order and `scatter`'s order within a key, then
        grouped — stably, so each atom keeps that order — by the monomer
        owning the target; monomer ``m``'s terms are
        ``bounds[m]:bounds[m + 1]``.
        """
        none = np.zeros(0, dtype=np.intp)
        target, source, weight = [none], [none], [np.zeros(0)]
        for key, c in sorted(win.tiers[t].items()):
            lay = win.layouts.get(key)
            if lay is None:
                continue
            first, nreal = todo.offsets[key], len(lay.atoms)
            target += [lay.atoms, lay.scatter_idx]
            source += [
                np.arange(first, first + nreal),
                first + nreal + np.arange(len(lay.scatter_idx)) // 2,
            ]
            weight += [np.full(nreal, c), c * lay.scatter_w]
        target = np.concatenate(target)
        owner = self._atom_owner[target]
        order = np.argsort(owner, kind="stable")
        bounds = np.searchsorted(
            owner[order], np.arange(len(self.monomer_atoms) + 1)
        )
        return (
            target[order], np.concatenate(source)[order],
            np.concatenate(weight)[order, None], bounds.tolist(),
        )

    def _reduce_rows(self, m: int | None, step: int) -> None:
        """Fill monomer ``m``'s rows (None: every row) of every tier
        buffer evaluated at ``step`` by a canonical reduction.

        Adds the buffered contributions of every fragment touching ``m``
        in sorted-key order (`_reduction`), so the result is independent
        of worker completion order. The rows are zero until their one
        reduction, monomer atom rows are disjoint, and each monomer
        reduces its own at integration time while other monomers'
        contributions are still arriving; a slow tier's buffer then
        outlives the per-step `_contrib` buffers, which later steps
        cannot hold onto.
        """
        win = self._windows[self._window_start(step)]
        todo = win.tasks[self._live[step]]
        stacked = self._contrib[step][1]
        for t in self._live[step]:
            if t not in todo.reductions:
                todo.reductions[t] = self._reduction(win, todo, t)
            target, source, weight, bounds = todo.reductions[t]
            part = slice(None) if m is None else slice(bounds[m], bounds[m + 1])
            np.add.at(
                self._grad[t][step], target[part],
                weight[part] * stacked[source[part]],
            )

    def _half_kick(self, rows, step: int) -> np.ndarray:
        """Velocity increment of one half-kick at ``step`` on ``rows``.

        Impulse splitting: every tier due at the step kicks with its own
        outer time step (``k = 1`` is the plain Verlet half-kick; the
        slow tier's boundaries are r-RESPA).
        """
        dv = 0.0
        for t, k in enumerate(self.tier_k):
            if not step % k:
                dv = dv - (0.5 * k * self.dt) * self._grad[t][step][rows]
        return dv / self.masses[rows, None]

    def _integrate(self, step: int, m: int | None = None) -> None:
        """Velocity-Verlet update at ``step`` whose forces are complete:
        of monomer ``m``, or — at a barrier — of every monomer at once."""
        nmono = self.system.nmonomers
        if m is None:
            who, rows, monomers = slice(None), slice(None), range(nmono)
        else:
            who, rows, monomers = m, self.monomer_atoms[m], (m,)
        self._reduce_rows(m, step)
        dv = self._half_kick(rows, step)
        if step > self.start_step:
            # second half-kick completing the previous step (on resume,
            # the checkpointed velocities are already at the integer
            # step, so the first integration skips it exactly as a fresh
            # run does at step 0)
            self.velocities[rows] += dv
            if self.thermostat is not None:
                for j in monomers:
                    r = self.monomer_atoms[j]
                    self.velocities[r] = self.thermostat.apply_rows(
                        self.velocities[r], self.masses[r], self.dt_fs,
                        step=step, monomer=j,
                    )
        # kinetic energy at integer step
        parts = self._ke_parts[step]
        parts[monomers[0]] = kinetic_energy(
            self.masses[rows], self.velocities[rows]
        )
        if m is not None and (self.surrogate is not None
                              or self._checkpoint_candidate(step)):
            # a barrier: a cut's write must see every owner's state — the
            # phase-space point included — at it, a surrogate's gate what
            # the whole step trained; the step's last monomer moves all
            if len(parts) < nmono:
                return
            who = rows = slice(None)
            dv = self._half_kick(rows, step)
            m = None
        if m is None or len(parts) == nmono:
            self._retire(step)
        if step >= self.nsteps:
            self.monomer_done[who] = True
            return
        # first half-kick + drift
        self.velocities[rows] += dv
        self.coords[rows] += self.dt * self.velocities[rows]
        nxt = step + 1
        self.monomer_time[who] = nxt
        if nxt not in self.coords_at:
            self.coords_at[nxt] = self.coords_at[step].copy()
        self.coords_at[nxt][rows] = self.coords[rows]
        if self._window_start(nxt) not in self._windows:
            if int(self.monomer_time.min()) < nxt:
                return  # wait for the slowest monomer to enter the window
            self._build_window(nxt)
            m = None  # everyone is waiting at the window's first step
        self._release_ready(nxt, only_monomer=m)

    def _retire(self, step: int) -> None:
        """Every monomer has measured its kinetic energy at ``step``."""
        parts = self._ke_parts[step]
        # sorted: independent of the order monomers arrived in
        self.kinetic_energies.setdefault(
            step, sum(parts[i] for i in sorted(parts))
        )
        # the step's full solves train the surrogate in key order, before
        # the next step's releases ask it and before any checkpoint write
        for key, mol, energy, grad in sorted(
                self._observed.pop(step, ()), key=lambda obs: obs[0]):
            self.surrogate.observe(key, mol, energy, grad)
        if tracer := self._tracer:
            now = tracer.clock()
            if self._retired_at is not None:
                tracer.complete(
                    "md.step", self._retired_at, now - self._retired_at,
                    cat="md", step=step,
                )
            self._retired_at = now
        now = self.clock()
        if self.frames is not None:
            self._record_frame(step, now - self._frame_at)
        self._frame_at = now
        if self.step_callback is not None:
            # fired before eviction can reclaim coords_at[step]; the
            # potential is already reduced (the last monomer can only
            # integrate after every task of the step completed)
            self.step_callback(
                step,
                self.potential_energies.get(step),
                self.kinetic_energies[step],
                self.coords_at[step].copy(),
            )
        if self._checkpoint_candidate(step):
            # every monomer has closed this step and none has left it
            # (`_integrate`'s barrier): a consistent cut
            self._write_checkpoint(step)

    def _record_frame(self, step: int, wall: float) -> None:
        """Append the retired step to ``frames``; ``wall`` is the time
        since the previous retirement, so ``wall_times[i]`` runs from the
        retirement of step ``i`` to that of step ``i + 1``."""
        traj = self.frames
        if step > self.start_step:
            traj.wall_times.append(wall)
        elif traj.times_fs:
            return  # resumed: the checkpoint's record of this step stands
        traj.append(
            step * self.dt_fs, self.potential_energies[step],
            self.kinetic_energies[step], self.coords_at[step].copy(),
            self.velocities.copy(),
        )

    def done(self) -> bool:
        """True once every monomer has completed all time steps."""
        return bool(self.monomer_done.all())

    def has_ready_tasks(self) -> bool:
        """True if the priority queue currently holds released polymers."""
        return bool(self._heap)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def trajectory_energies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times_fs, potential, kinetic) for all completed steps."""
        steps = sorted(
            set(self.potential_energies) & set(self.kinetic_energies)
        )
        t = np.array([s * self.dt_fs for s in steps])
        pe = np.array([self.potential_energies[s] for s in steps])
        ke = np.array([self.kinetic_energies[s] for s in steps])
        return t, pe, ke

    @property
    def max_step_skew(self) -> int:
        """Largest lead of any monomer over the slowest one (observed now)."""
        return int(self.monomer_time.max() - self.monomer_time.min())

    def diagnostics(self) -> str:
        """One-line scheduler state dump for deadlock/failure messages."""
        lo = int(self.monomer_time.min())
        hi = int(self.monomer_time.max())
        live = sorted(self._pending_total)
        pending = {s: self._pending_total[s] for s in live}
        return (
            f"queue={len(self._heap)} in_flight={self.in_flight} "
            f"monomer_steps=[{lo},{hi}] skew={hi - lo} "
            f"live_steps={live} pending_polymers={pending} "
            f"issued={self.tasks_issued} evicted={self.steps_evicted} "
            f"layouts_built={self.layouts_built} done={self.done()}"
        )


def _all_finite(results) -> bool:
    """Whether every energy and gradient entry of ``[(energy,
    gradient)]`` is finite (None gradients skipped), in one pass."""
    energies = np.fromiter((e for e, _ in results if e is not None), float)
    grads = [g for _, g in results if g is not None]
    return bool(np.isfinite(energies).all() and (
        not grads or np.isfinite(np.concatenate(grads, axis=None)).all()))


def evaluate_fragments(calculator, molecules) -> list:
    """Evaluate fragments on this worker: the one worker-side entry of
    every driver, run on each `repro.md.drivers.Dispatcher` flight's
    stack of tasks (a service flight is one job's stack). Returns
    ``(energy, gradient, record)`` per molecule, in order: the
    fragment's record as the evaluation left it reaches the engine the
    way its energy does.

    * one call, ``calculator.energy_gradients(molecules)``, on the
      calculator as its driver took it (`repro.calculators.stacking`):
      `repro.calculators.RIMP2Calculator` evaluates fragments of one
      composition as stacks, the fault-plan wrapper decides its plan
      per member and hands the stack on;
    * a molecule carries its task's MD step (put on at release) and
      retry attempt (put on at dispatch), so scheduled faults target
      "fragment K at step S, attempt A" regardless of which driver or
      worker draws the task;
    * every result passes a NaN/Inf sentinel before it leaves: a NaN
      contribution would silently poison the accumulated MBE gradient
      of every atom the polymer touches, so divergence becomes a typed
      `NumericalDivergenceError`, naming the first non-finite member,
      that is retried/quarantined like any other worker failure. One
      pass over the stack's energies and gradients checks them all; the
      members are walked only when it fails;
    * a failed call puts the records it was handed back on the
      molecules, so an in-process retry starts from the same state.
    """
    records = [getattr(mol, "record", None) for mol in molecules]
    try:
        results = calculator.energy_gradients(molecules)
        if not _all_finite(results):
            for mol, (e, g) in zip(molecules, results):
                ensure_finite(
                    f"fragment {getattr(mol, 'frag_key', None)} "
                    f"({getattr(mol, 'natoms', '?')} atoms, step {mol.step}, "
                    f"attempt {mol.attempt})",
                    energy=e, gradient=g,
                )
    except BaseException:
        for mol, record in zip(molecules, records):
            if record is not None:
                mol.record = record
        raise
    return [(e, g, getattr(mol, "record", None))
            for mol, (e, g) in zip(molecules, results)]


def attach_guess_cache(coordinator: AsyncCoordinator, calculator) -> None:
    """One `GuessCache` per run: the calculator's if it brings one (the
    engine then counts into it), else the coordinator's, attached to a
    calculator that takes one. What every driver does before its first
    task; a pool worker's calculator carries it pickled."""
    if getattr(calculator, "guess_cache", "no") is None:
        calculator.guess_cache = coordinator.guess_cache
    elif hasattr(calculator, "guess_cache"):
        coordinator.guess_cache = calculator.guess_cache
