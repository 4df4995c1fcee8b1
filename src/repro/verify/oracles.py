"""Differential oracles: independent implementations must agree.

Each oracle returns an :class:`OracleResult` instead of raising, so the
fuzz driver can collect and report the first failure with full context.

* :func:`backends_agree` — the native simplex/branch-and-bound stack and
  scipy's HiGHS must produce the same optimal objective, on both the LP
  relaxation and the full MILP (the two code paths share nothing but the
  matrices);
* :func:`simulation_matches_prediction` — executing the scheduled
  program on the cycle-level simulator must reproduce the MILP's
  predicted energy within tolerance and meet the deadline;
* :func:`schedule_replay_matches_objective` — replaying the profiled
  counts under the extracted schedule (pure profile arithmetic) must
  reproduce the solver's objective;
* :func:`analytical_bound_dominates` — the Section 3 analytical model is
  an upper bound: no MILP result may save more energy than it predicts
  (beyond the paper's own rounding allowance);
* :func:`relaxation_dominance` — the closed-form LP-relaxation bound
  (:mod:`repro.core.relaxation`, computed without a solver) never
  exceeds the MILP optimum;
* :func:`never_worse_than_single_mode` — the MILP must never lose to the
  best single mode meeting the deadline (that mode is a feasible MILP
  point);
* :func:`fastpath_matches_reference` — the accelerated simulator
  (:mod:`repro.perf`) must be *bit-identical* to the reference
  interpreter on the same run, down to profile dict ordering and the
  final memory image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.analytical import savings_ratio_discrete
from repro.core.analytical.params import ProgramParams
from repro.core.milp.formulation import MilpFormulation
from repro.core.relaxation import relaxation_bound
from repro.core.scheduler import DVSOptimizer, OptimizationOutcome
from repro.errors import ScheduleError
from repro.ir.cfg import CFG
from repro.simulator.dvs import ModeTable
from repro.verify import tolerances


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one oracle evaluation."""

    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"{'ok  ' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _passed(name: str, detail: str) -> OracleResult:
    return OracleResult(name, True, detail)


def _failed(name: str, detail: str) -> OracleResult:
    return OracleResult(name, False, detail)


def _scipy_available() -> bool:
    try:
        import scipy  # noqa: F401

        return True
    except ImportError:  # pragma: no cover - CI always has scipy
        return False


def backends_agree(
    formulation: MilpFormulation,
    rel_tol: float = tolerances.BACKEND_REL_TOL,
    check_milp: bool = True,
) -> OracleResult:
    """Native and scipy backends agree on the same model.

    Compares the LP-relaxation optima and (optionally, it is the
    expensive half) the full MILP optima.  Skips cleanly when scipy is
    not importable — there is nothing to differ against.
    """
    name = "backends-agree"
    if not _scipy_available():  # pragma: no cover - CI always has scipy
        return _passed(name, "scipy unavailable; differential check skipped")

    native_lp = formulation.model.solve(backend="native", relax=True)
    scipy_lp = formulation.model.solve(backend="scipy", relax=True)
    if native_lp.status is not scipy_lp.status:
        return _failed(
            name,
            f"LP relaxation status differs: native {native_lp.status.value} "
            f"vs scipy {scipy_lp.status.value}",
        )
    if native_lp.ok and not tolerances.close(
        native_lp.objective, scipy_lp.objective, rel_tol
    ):
        return _failed(
            name,
            f"LP relaxation optimum differs: native {native_lp.objective:.9g} "
            f"vs scipy {scipy_lp.objective:.9g}",
        )

    if check_milp:
        native = formulation.model.solve(backend="native")
        scipy_sol = formulation.model.solve(backend="scipy")
        if native.status is not scipy_sol.status:
            return _failed(
                name,
                f"MILP status differs: native {native.status.value} "
                f"vs scipy {scipy_sol.status.value}",
            )
        if native.ok and not tolerances.close(
            native.objective, scipy_sol.objective, rel_tol
        ):
            return _failed(
                name,
                f"MILP optimum differs: native {native.objective:.9g} "
                f"vs scipy {scipy_sol.objective:.9g}",
            )
        if native.ok and not tolerances.close(
            native_lp.objective,
            native.objective,
            rel_tol,
            abs_tol=abs(native.objective) * rel_tol,
        ) and native_lp.objective > native.objective * (1 + rel_tol):
            return _failed(
                name,
                f"LP relaxation {native_lp.objective:.9g} exceeds the MILP "
                f"optimum {native.objective:.9g} (relaxations lower-bound)",
            )
    return _passed(name, "native and scipy agree on LP relaxation and MILP")


def simulation_matches_prediction(
    optimizer: DVSOptimizer,
    cfg: CFG,
    outcome: OptimizationOutcome,
    inputs: dict[str, list] | None = None,
    registers: dict[str, float] | None = None,
    energy_rel_tol: float = tolerances.ENERGY_PREDICTION_REL_TOL,
    deadline_rel_slack: float = tolerances.DEADLINE_REL_SLACK,
) -> OracleResult:
    """The simulator reproduces the MILP's energy prediction and deadline."""
    name = "simulation-matches-prediction"
    run = optimizer.verify(cfg, outcome.schedule, inputs=inputs, registers=registers)
    deadline = outcome.formulation.deadline_s
    if run.wall_time_s > deadline * (1 + deadline_rel_slack):
        return _failed(
            name,
            f"simulated time {run.wall_time_s:.6g}s misses deadline {deadline:.6g}s",
        )
    predicted = outcome.predicted_energy_nj
    error = abs(run.cpu_energy_nj - predicted) / max(1.0, abs(predicted))
    if error > energy_rel_tol:
        return _failed(
            name,
            f"simulated energy {run.cpu_energy_nj:.6g} nJ vs predicted "
            f"{predicted:.6g} nJ (rel err {error:.2e} > {energy_rel_tol:.0e})",
        )
    if run.return_value != outcome.profile.return_value:
        return _failed(
            name,
            f"scheduled run returned {run.return_value} but the profiled "
            f"program returned {outcome.profile.return_value}",
        )
    return _passed(
        name,
        f"energy rel err {error:.2e}, time {run.wall_time_s:.6g}s "
        f"within deadline {deadline:.6g}s",
    )


def schedule_replay_matches_objective(
    optimizer: DVSOptimizer,
    cfg: CFG,
    outcome: OptimizationOutcome,
    rel_tol: float = tolerances.OBJECTIVE_REL_TOL,
) -> OracleResult:
    """Profile replay of the schedule reproduces the solver's objective.

    This is pure dictionary arithmetic over the profile — a third,
    solver-free derivation of the objective (the certificate recomputes
    from the solution *vector*; this recomputes from the decoded
    *schedule*).  Hoisting must not change the value.
    """
    from repro.verify.schedule_check import check_schedule

    name = "schedule-replay-matches-objective"
    report = check_schedule(
        outcome.schedule,
        cfg=cfg,
        profile=outcome.profile,
        mode_table=optimizer.machine.mode_table,
        transition_model=optimizer.machine.transition_model,
        deadline_s=outcome.formulation.deadline_s,
    )
    if not report.ok:
        return _failed(name, f"schedule check failed first: {report.issues[0]}")
    energy, duration = report.replayed_energy_nj, report.replayed_time_s
    if not tolerances.close(energy, outcome.predicted_energy_nj, rel_tol):
        return _failed(
            name,
            f"replayed energy {energy:.9g} nJ != objective "
            f"{outcome.predicted_energy_nj:.9g} nJ",
        )
    deadline = outcome.formulation.deadline_s
    if duration > deadline * (1 + tolerances.DEADLINE_REL_SLACK):
        return _failed(
            name,
            f"replayed time {duration:.6g}s exceeds deadline {deadline:.6g}s",
        )
    return _passed(name, f"replayed energy matches objective ({energy:.6g} nJ)")


def analytical_bound_dominates(
    params: ProgramParams,
    deadline_s: float,
    mode_table: ModeTable,
    milp_savings: float,
    slack: float = tolerances.BOUND_DOMINANCE_SLACK,
    y_samples: int = 120,
) -> OracleResult:
    """The Section 3 discrete bound upper-bounds any achieved MILP savings."""
    name = "analytical-bound-dominates"
    bound = savings_ratio_discrete(params, deadline_s, mode_table, y_samples=y_samples)
    if math.isnan(bound):
        return _passed(name, "deadline outside the analytical model's regime; skipped")
    if bound + slack < milp_savings:
        return _failed(
            name,
            f"MILP saved {milp_savings:.1%} but the analytical bound is "
            f"{bound:.1%} (+{slack:.0%} slack)",
        )
    return _passed(name, f"bound {bound:.1%} >= MILP {milp_savings:.1%} - slack")


def relaxation_dominance(
    outcome: OptimizationOutcome,
    rel_tol: float = tolerances.RELAXATION_DOMINANCE_REL_TOL,
) -> OracleResult:
    """The relaxation bound never exceeds the discrete optimum.

    :func:`~repro.core.relaxation.relaxation_bound` drops integrality and
    transition costs from the MILP the outcome solved, so any feasible
    schedule — in particular the optimum, or a degraded incumbent —
    costs at least that much.  The bound is computed by a hull knapsack,
    not by a solver, so a violation means the formulation, the solver or
    the bound is wrong.  (Its upper partner, the best single mode, is
    :func:`never_worse_than_single_mode`.)
    """
    name = "relaxation-dominance"
    try:
        bound = relaxation_bound(outcome.profile, outcome.formulation.deadline_s)
    except ScheduleError as error:
        return _passed(name, f"relaxation infeasible ({error}); skipped")
    energy = outcome.predicted_energy_nj
    if bound > energy + rel_tol * max(1.0, abs(energy)):
        return _failed(
            name,
            f"relaxation lower bound {bound:.9g} nJ exceeds the MILP "
            f"energy {energy:.9g} nJ",
        )
    return _passed(name, f"relaxation {bound:.6g} <= MILP {energy:.6g} nJ")


def never_worse_than_single_mode(
    optimizer: DVSOptimizer,
    outcome: OptimizationOutcome,
    rel_tol: float = tolerances.DEADLINE_REL_SLACK,
) -> OracleResult:
    """The MILP optimum never exceeds the best-single-mode energy."""
    name = "never-worse-than-single-mode"
    deadline = outcome.formulation.deadline_s
    try:
        mode, baseline = optimizer.best_single_mode(outcome.profile, deadline)
    except ScheduleError:
        return _passed(name, "no feasible single mode; oracle vacuous")
    if outcome.predicted_energy_nj > baseline * (1 + rel_tol):
        return _failed(
            name,
            f"MILP energy {outcome.predicted_energy_nj:.6g} nJ exceeds single-mode "
            f"baseline {baseline:.6g} nJ (mode {mode})",
        )
    return _passed(
        name,
        f"MILP {outcome.predicted_energy_nj:.6g} nJ <= single mode {mode} "
        f"at {baseline:.6g} nJ",
    )


def fastpath_matches_reference(
    machine,
    cfg: CFG,
    inputs: dict[str, list] | None = None,
    registers: dict[str, float] | None = None,
    mode: int | None = None,
    schedule: dict | None = None,
    initial_mode: int | None = None,
) -> OracleResult:
    """The accelerated simulator is bit-identical to the reference.

    Runs the same (program, inputs, mode/schedule) point with the fast
    path forced on and forced off and compares a *total* fingerprint of
    both results: every RunResult field, every per-block statistic, the
    edge/path profile including dict iteration order (serialization
    preserves it), and the final memory image.  Any divergence — even
    one ulp of energy or a reordered profile entry — fails the oracle.
    """
    from repro.perf.bench import result_fingerprint

    name = "fastpath-matches-reference"
    kwargs = dict(inputs=inputs, registers=registers, mode=mode,
                  schedule=schedule, initial_mode=initial_mode)
    fast = machine.run(cfg, fastpath=True, **kwargs)
    stats = dict(machine.last_fastpath_stats)
    reference = machine.run(cfg, fastpath=False, **kwargs)
    fast_fp = result_fingerprint(fast)
    ref_fp = result_fingerprint(reference)
    if fast_fp != ref_fp:
        # Point at the first diverging field to make reports actionable.
        import dataclasses as _dc

        for field in _dc.fields(fast):
            a, b = getattr(fast, field.name), getattr(reference, field.name)
            if field.name == "memory":
                a = None if a is None else a.cells
                b = None if b is None else b.cells
            if repr(a) != repr(b):
                return _failed(
                    name,
                    f"field {field.name!r} diverged: fast={a!r:.120s} "
                    f"reference={b!r:.120s}",
                )
        return _failed(name, "results diverged (fingerprint mismatch)")
    return _passed(
        name,
        f"bit-identical ({fast.instructions} instructions, "
        f"{stats.get('fast_blocks', 0)} fast blocks, "
        f"{stats.get('loop_iterations', 0)} fast-forwarded iterations)",
    )


def profile_matches_per_mode(
    machine,
    cfg: CFG,
    inputs: dict[str, list] | None = None,
    registers: dict[str, float] | None = None,
) -> OracleResult:
    """The one-pass multi-mode profile equals one built from one-mode runs.

    For the fast path on and off: profiles the program in one lockstep
    pass over every mode, runs it once per mode on a fresh machine,
    assembles those runs, and compares the serialized profiles (every
    float to the bit, in order) plus each run's edge and path counts.
    """
    import json

    from repro.profiling.profiler import profile_from_runs, profile_program
    from repro.profiling.serialize import profile_to_dict
    from repro.simulator.machine import Machine

    name = "profile-matches-per-mode"
    modes = range(len(machine.mode_table))

    def fresh(fastpath: bool) -> Machine:
        return Machine(machine.config, machine.mode_table,
                       machine.transition_model, fastpath=fastpath)

    for fastpath in (True, False):
        path = "fast path" if fastpath else "reference"
        profile = profile_program(fresh(fastpath), cfg, inputs=inputs,
                                  registers=registers)
        runs = {m: fresh(fastpath).run(cfg, inputs=inputs, registers=registers,
                                       mode=m)
                for m in modes}
        for mode, run in runs.items():
            if (run.edge_counts != profile.edge_counts
                    or run.path_counts != profile.path_counts):
                return _failed(name, f"{path}: mode {mode} took another path "
                                     f"than the one-pass profile")
        one_pass = profile_to_dict(profile)
        per_mode = profile_to_dict(profile_from_runs(cfg.name, len(modes), runs))
        if json.dumps(one_pass) != json.dumps(per_mode):
            diverged = [key for key in one_pass if one_pass[key] != per_mode[key]]
            return _failed(name, f"{path}: profiles diverge in {diverged}")
    return _passed(name, f"{len(modes)} lanes bit-identical to one-mode runs, "
                         f"fast path on and off")
