"""SCF recovery cascade: escalating retry ladder around the bare loop.

A multi-hour AIMD trajectory dispatches thousands of fragment SCF solves
per replan window; at that volume an occasional pathological geometry
(close contact mid-collision, stretched bond near a cutoff crossing) is
statistically guaranteed.  Aborting the trajectory for one of them is
unacceptable, and so is silently accepting a non-converged density.
Production exascale codes (CP2K, GAMESS) therefore treat convergence
fallback as a first-class subsystem: on failure, re-solve with
progressively more conservative settings until the fragment converges
or the ladder is exhausted.

`rhf_with_recovery` implements that ladder.  Each `RecoveryStage` is a
named set of keyword overrides applied on top of the caller's settings;
the default ladder escalates

    bare -> density damping -> level shift -> DIIS reset + tighter
    damping -> core-guess restart -> raised iteration budget

and the returned `SCFResult.recovery` records the path taken so callers
(and tracer events) can audit exactly how hard each fragment fought.

Warm starts (a cached ``dm0`` density from a previous MD step) get one
extra rung: when the bare warm-started solve fails, the first escalation
is simply to *discard the cached density* and re-solve from the cold
GWH guess — and every later rung also runs cold — so a poisoned cache
entry can cost at most one wasted solve, never wedge a trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..numerics import NumericalDivergenceError
from ..trace import current
from .rhf import SCFConvergenceError, SCFResult, rhf


@dataclass(frozen=True)
class RecoveryStage:
    """One rung of the escalation ladder.

    ``overrides`` are keyword arguments merged over the caller's `rhf`
    settings.  The special key ``max_iter_scale`` multiplies the
    caller's iteration budget instead of replacing it.
    """

    name: str
    overrides: Mapping[str, object]

    def apply(self, kwargs: dict) -> dict:
        """The caller's kwargs with this stage's overrides folded in."""
        out = dict(kwargs)
        overrides = dict(self.overrides)
        scale = overrides.pop("max_iter_scale", None)
        if scale is not None:
            out["max_iter"] = int(scale) * int(out.get("max_iter", 150))
        out.update(overrides)
        return out


#: The default escalation ladder.  Ordered cheapest-first: damping costs
#: a few extra iterations, a level shift slows convergence toward the
#: gap-opened solution, a DIIS reset discards a possibly-poisoned
#: subspace, a core-guess restart abandons the (possibly pathological)
#: GWH starting point, and the final rung simply buys more iterations
#: with every stabilizer engaged.
DEFAULT_LADDER: tuple[RecoveryStage, ...] = (
    RecoveryStage("damp", {"damping": 0.3}),
    RecoveryStage("level-shift", {"damping": 0.2, "level_shift": 0.5}),
    RecoveryStage(
        "diis-reset",
        {"damping": 0.5, "level_shift": 0.3, "diis_restart": 8},
    ),
    RecoveryStage(
        "core-guess",
        {"damping": 0.3, "level_shift": 0.5, "guess": "core"},
    ),
    RecoveryStage(
        "max-iter",
        {
            "damping": 0.3,
            "level_shift": 0.5,
            "diis_restart": 12,
            "max_iter_scale": 4,
        },
    ),
)


def rhf_with_recovery(mol, basis="sto-3g", **kwargs) -> SCFResult:
    """`rhf` wrapped in the escalation ladder.

    The bare solve runs first with the caller's settings.  On
    `SCFConvergenceError` or `NumericalDivergenceError` each stage of
    `DEFAULT_LADDER` is tried in order; the first success returns its
    `SCFResult` with ``result.recovery`` set to the tuple of stage names
    attempted (ending with the one that succeeded).  A clean first solve
    returns with ``recovery == ()``.

    A warm start (``dm0`` in ``kwargs``) prepends a ``cold-start`` rung
    that drops the cached density and re-solves from the cold guess;
    every subsequent rung also runs without ``dm0``, so escalation never
    re-ingests a density that has already failed once.

    Tracer events: an ``scf.recover`` instant per escalation (carrying
    the stage name and the triggering error) and an ``scf.recovered``
    instant when a fallback stage finally converges.

    Raises:
        SCFConvergenceError: when the whole ladder is exhausted; the
            final error chains from the last stage's failure.
    """
    ladder = DEFAULT_LADDER
    if kwargs.get("dm0") is not None:
        ladder = (RecoveryStage("cold-start", {"dm0": None}),) + tuple(
            RecoveryStage(s.name, {**dict(s.overrides), "dm0": None})
            for s in ladder
        )
    # every rung re-solves the *same* molecule/basis: share one solve
    # memo so S, the core Hamiltonian, and the RI tensors (plus their
    # hoisted Fock layouts) are built exactly once per cascade instead
    # of once per attempt
    kwargs.setdefault("solve_memo", {})
    try:
        return rhf(mol, basis, **kwargs)
    except (SCFConvergenceError, NumericalDivergenceError) as err:
        last_err: Exception = err

    attempted: list[str] = []
    tracer = current()
    for stage in ladder:
        attempted.append(stage.name)
        if tracer:
            tracer.instant(
                "scf.recover", cat="scf",
                stage=stage.name, error=repr(last_err),
            )
        try:
            result = rhf(mol, basis, **stage.apply(kwargs))
        except (SCFConvergenceError, NumericalDivergenceError) as err:
            last_err = err
            continue
        result.recovery = tuple(attempted)
        if tracer:
            tracer.instant(
                "scf.recovered", cat="scf",
                stage=stage.name, path=",".join(attempted),
            )
        return result
    raise SCFConvergenceError(
        f"SCF recovery cascade exhausted after {1 + len(ladder)} attempts "
        f"(bare + {', '.join(attempted)}); last error: {last_err!r}"
    ) from last_err
