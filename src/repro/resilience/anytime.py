"""Anytime optimization: a budgeted solve that always returns a schedule.

:func:`optimize_anytime` runs the Section 4.2 MILP under a wall-clock
budget and degrades through a fallback chain instead of raising:

1. **HiGHS** (``scipy``) with the remaining budget as its time limit —
   the normal fast path; a proven optimum when it finishes, a checked
   incumbent when it doesn't.
2. **Native simplex + branch-and-bound** with the remaining budget — the
   dependency-free backend; its ``LIMIT`` machinery already keeps the
   best incumbent and the tightest open bound.
3. **Greedy heuristic** (:func:`repro.core.baselines.greedy.greedy_schedule`)
   — O(blocks × modes) construction from the profiled Table-7 style
   parameters; feasible by construction whenever any single mode meets
   the deadline, i.e. whenever the problem is feasible at all.

Every tier's output passes through the *same* two independent gates
before it is accepted:

* :func:`repro.verify.certificate.verify_certificate` (MILP tiers) —
  constraint residuals, bounds, integrality, objective recomputation;
* :func:`repro.verify.schedule_check.check_schedule` (all tiers) — a
  first-principles replay of the schedule against the profile with
  physically derived transition costs, including the deadline.

A tier whose output fails a gate is treated exactly like a tier that
crashed: the chain moves on.  The returned outcome names the accepted
tier, reports the optimality gap against the best proven lower bound
(the MILP dual bound, else the closed-form relaxation bound of
:mod:`repro.core.relaxation`, which needs no solve) and records every
attempt so manifests can explain *why* a run degraded.

The only exception that escapes is genuine infeasibility: a deadline
below the all-fastest runtime has no schedule in any tier, and
pretending otherwise would emit an infeasible result — the one thing
this module exists to prevent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro import observe
from repro.core.baselines.greedy import greedy_schedule
from repro.core.relaxation import relaxation_bound
from repro.errors import ScheduleError
from repro.solver.solution import Solution, SolveStatus
from repro.verify.certificate import verify_certificate
from repro.verify.schedule_check import check_schedule

#: Smallest wall-clock slice worth handing to a MILP backend; with less
#: remaining the chain skips straight to cheaper tiers.
MIN_TIER_BUDGET_S = 0.01

TIER_SCIPY = "milp-scipy"
TIER_NATIVE = "milp-native"
TIER_GREEDY = "greedy"

logger = logging.getLogger("repro.anytime")


@dataclass(frozen=True)
class TierAttempt:
    """One rung of the fallback chain, for the manifest."""

    tier: str
    accepted: bool
    detail: str
    wall_time_s: float = 0.0

    def __str__(self) -> str:
        verdict = "accepted" if self.accepted else "rejected"
        return f"{self.tier}: {verdict} ({self.detail})"


def _gap(energy_nj: float, bound_nj: float) -> float:
    """Relative gap of a feasible energy over a proven lower bound."""
    return max(0.0, (energy_nj - bound_nj) / max(1.0, abs(energy_nj)))


def optimize_anytime(
    optimizer,
    cfg,
    deadline_s: float,
    profile,
    budget_s: float,
    use_filtering: bool | None = None,
    hoist: bool = True,
):
    """Budgeted optimize that never raises except for true infeasibility.

    Args:
        optimizer: the :class:`~repro.core.scheduler.DVSOptimizer`.
        cfg: the program.
        deadline_s: execution-time budget for the profiled input.
        profile: the program's per-mode profile (must be pre-computed —
            profiling is not charged against the solver budget).
        budget_s: wall-clock budget for the solve chain, in seconds.
        use_filtering, hoist: as in
            :meth:`~repro.core.scheduler.DVSOptimizer.optimize`.

    Returns:
        an :class:`~repro.core.scheduler.OptimizationOutcome` whose
        ``fallback_tier``/``optimality_gap``/``tier_attempts`` fields
        describe how the schedule was obtained.

    Raises:
        ScheduleError: only when the deadline is genuinely infeasible
            (below the all-fastest-mode runtime).
    """
    from repro.core.scheduler import OptimizationOutcome

    if budget_s <= 0:
        raise ScheduleError(f"anytime budget must be positive, got {budget_s:g}")

    formulation, filter_result = optimizer.build(profile, deadline_s, use_filtering)
    machine = optimizer.machine
    start = observe.clock()
    attempts: list[TierAttempt] = []

    def remaining() -> float:
        return budget_s - (observe.clock() - start)

    def reject(attempt: TierAttempt) -> None:
        attempts.append(attempt)
        observe.add("anytime.tier_rejections")
        logger.info("anytime tier %s rejected: %s", attempt.tier, attempt.detail)

    def gate_schedule(schedule):
        """Independent replay check; returns (report, hoisted schedule)."""
        final = schedule.hoist_silent(profile) if hoist else schedule
        report = check_schedule(
            final, cfg, profile, machine.mode_table,
            machine.transition_model, deadline_s,
        )
        return report, final

    # -- MILP tiers -------------------------------------------------------------
    tiers = []
    if optimizer.backend in ("auto", "scipy"):
        tiers.append((TIER_SCIPY, "scipy"))
    tiers.append((TIER_NATIVE, "native"))

    for tier, backend in tiers:
        left = remaining()
        if left < MIN_TIER_BUDGET_S:
            reject(TierAttempt(tier, False, "budget exhausted"))
            continue
        with observe.span("anytime.tier", tier=tier, budget_s=left) as tsp:
            try:
                solution = formulation.solve(backend=backend, time_limit=left)
            except Exception as error:  # noqa: BLE001 — a dead backend is a tier miss
                reject(TierAttempt(
                    tier, False, f"{type(error).__name__}: {error}",
                    tsp.elapsed_s,
                ))
                continue
            tier_time = tsp.elapsed_s
            if not solution.has_incumbent:
                reject(TierAttempt(
                    tier, False, f"status {solution.status.value}, no incumbent",
                    tier_time,
                ))
                continue
            certificate = verify_certificate(formulation, solution, allow_incumbent=True)
            if not certificate.ok:
                reject(TierAttempt(tier, False, certificate.summary, tier_time))
                continue
            try:
                schedule = formulation.extract_schedule(solution, allow_incumbent=True)
                schedule.validate_against(cfg)
            except ScheduleError as error:
                reject(TierAttempt(tier, False, str(error), tier_time))
                continue
            feasibility, final = gate_schedule(schedule)
            if not feasibility.ok:
                reject(TierAttempt(tier, False, feasibility.summary, tier_time))
                continue

            gap = solution.optimality_gap()
            if gap is None:
                gap = _gap(solution.objective,
                           relaxation_bound(profile, deadline_s))
            proven = solution.ok
            attempts.append(TierAttempt(
                tier, True,
                "proven optimal" if proven else
                f"incumbent, gap {gap:.3%}" if gap is not None else
                "incumbent, gap unknown",
                tsp.elapsed_s,
            ))
            observe.add(f"anytime.tier.{tier}")
            tsp.set(accepted=True)
        return OptimizationOutcome(
            schedule=final,
            solution=solution,
            formulation=formulation,
            profile=profile,
            predicted_energy_nj=solution.objective,
            predicted_time_s=formulation.predicted_time(solution),
            solve_time_s=observe.clock() - start,
            filter_result=filter_result,
            certificate=certificate,
            fallback_tier=tier,
            optimality_gap=gap,
            tier_attempts=tuple(attempts),
            schedule_check=feasibility,
        )

    # -- greedy tier ------------------------------------------------------------
    with observe.span("anytime.tier", tier=TIER_GREEDY) as tsp:
        # Raises ScheduleError when no single mode meets the deadline; such a
        # deadline is below the all-fastest runtime, so the MILP is infeasible
        # too and there is nothing feasible to return.
        greedy = greedy_schedule(
            profile, machine.mode_table, deadline_s,
            transition_model=machine.transition_model,
        )
        feasibility, final = gate_schedule(greedy.schedule)
        if not feasibility.ok:
            # By construction this cannot happen (the greedy acceptance check
            # prices exactly what the replay recomputes); treat it as the
            # infeasibility it would be rather than emit an unchecked result.
            raise ScheduleError(
                f"greedy fallback failed its feasibility replay: {feasibility.summary}"
            )
        bound = relaxation_bound(profile, deadline_s)
        gap = _gap(greedy.predicted_energy_nj, bound)
        attempts.append(TierAttempt(
            TIER_GREEDY, True,
            f"{greedy.moves_taken}/{greedy.moves_considered} moves, "
            f"gap {gap:.3%}",
            tsp.elapsed_s,
        ))
        observe.add(f"anytime.tier.{TIER_GREEDY}")
        tsp.set(accepted=True)
    solution = Solution(
        status=SolveStatus.FEASIBLE,
        objective=greedy.predicted_energy_nj,
        x=np.empty(0),
        backend="greedy",
        best_bound=bound,
    )
    return OptimizationOutcome(
        schedule=final,
        solution=solution,
        formulation=formulation,
        profile=profile,
        predicted_energy_nj=greedy.predicted_energy_nj,
        predicted_time_s=greedy.predicted_time_s,
        solve_time_s=observe.clock() - start,
        filter_result=filter_result,
        certificate=None,
        fallback_tier=TIER_GREEDY,
        optimality_gap=gap,
        tier_attempts=tuple(attempts),
        schedule_check=feasibility,
    )
