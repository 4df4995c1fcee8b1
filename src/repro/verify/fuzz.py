"""Pipeline fuzzing: seeded random programs through every oracle.

:func:`verify_program` pushes one program through the complete stack —
compiler, interpreter, simulator, profiler, MILP, schedule — evaluating
every differential and metamorphic oracle along the way.  :func:`fuzz`
drives it over a stream of seeded random programs (shared generator with
the hypothesis suite, :mod:`repro.verify.generators`) and, on the first
failure, greedily minimizes the reproducer by deleting top-level
statements while the same oracle still fails.

The CLI front ends are ``repro fuzz`` (random programs) and
``repro verify`` (one workload, same oracle battery).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.scheduler import DVSOptimizer
from repro import observe
from repro.errors import ReproError, VerificationError
from repro.ir import interpret, validate_cfg
from repro.ir.passes import optimize as run_passes
from repro.lang import compile_program
from repro.simulator import SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.simulator.machine import Machine
from repro.verify import metamorphic, oracles, tolerances
from repro.verify.certificate import verify_certificate
from repro.verify.generators import (
    LP_PROFILES,
    GeneratedProgram,
    build_source,
    generate_lp,
    generate_program,
)
from repro.verify.schedule_check import check_schedule


@dataclass(frozen=True)
class CheckResult:
    """One oracle evaluation inside a verification battery."""

    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"{'ok  ' if self.ok else 'FAIL'} {self.name}: {self.detail}"


@dataclass
class FuzzFailure:
    """First failing oracle for one generated program."""

    run_index: int
    seed: int
    oracle: str
    detail: str
    source: str
    minimized_source: str

    def __str__(self) -> str:
        return (
            f"run {self.run_index} (seed {self.seed}) failed oracle "
            f"{self.oracle!r}: {self.detail}\n"
            f"--- minimized reproducer ---\n{self.minimized_source}"
        )


@dataclass
class FuzzReport:
    """Outcome of a fuzzing campaign."""

    runs: int
    checks: int
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def summary(self) -> str:
        verdict = "all oracles passed" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"fuzz: {self.runs} programs, {self.checks} oracle checks, "
            f"{verdict} in {self.elapsed_s:.1f}s"
        )


def _default_machine() -> Machine:
    return Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())


def verify_program(
    source: str,
    inputs: dict[str, list] | None,
    machine: Machine | None = None,
    registers: dict[str, float] | None = None,
    deadline_fracs: tuple[float, ...] = (0.35, 0.7),
    check_backends: bool = True,
    check_metamorphic: bool = True,
    only_oracle: str | None = None,
) -> list[CheckResult]:
    """Run the full oracle battery over one program.

    Args:
        source: kernel-language source text.
        inputs, registers: program input.
        machine: simulation target (default: XScale-3 with the paper's
            typical transition cost).
        deadline_fracs: deadline positions in the fast->slow range to
            optimize and verify at.
        check_backends: include the (slower) solver-differential oracle.
        check_metamorphic: include the metamorphic battery.
        only_oracle: evaluate just this oracle name where separable (the
            minimizer's fast path); structural prerequisites still run.

    Returns:
        one :class:`CheckResult` per evaluated oracle, failures included.
        A crash anywhere in the pipeline is itself reported as a failed
        ``pipeline-crash`` check, never raised.
    """
    machine = machine or _default_machine()
    results: list[CheckResult] = []

    def record(name: str, ok: bool, detail: str) -> bool:
        if only_oracle is None or name == only_oracle or not ok:
            results.append(CheckResult(name, ok, detail))
        return ok

    # -- 1. frontend + reference semantics -----------------------------------
    try:
        cfg = compile_program(source, "verify")
        validate_cfg(cfg)
    except ReproError as error:
        record("compiles", False, str(error))
        return results
    record("compiles", True, f"{len(cfg.blocks)} blocks")

    try:
        expected = interpret(cfg, inputs=inputs, registers=registers).return_value
    except ReproError as error:
        record("interpreter-runs", False, str(error))
        return results

    try:
        for mode in (0, len(machine.mode_table) - 1):
            got = machine.run(
                cfg, inputs=inputs, registers=registers, mode=mode
            ).return_value
            if got != expected:
                record(
                    "simulator-matches-interpreter",
                    False,
                    f"mode {mode} returned {got}, interpreter {expected}",
                )
                return results
        record("simulator-matches-interpreter", True, f"return value {expected}")

        oracle = oracles.fastpath_matches_reference(
            machine, cfg, inputs=inputs, registers=registers,
            mode=len(machine.mode_table) - 1,
        )
        if not record(oracle.name, oracle.ok, oracle.detail):
            return results
        oracle = oracles.profile_matches_per_mode(
            machine, cfg, inputs=inputs, registers=registers)
        if not record(oracle.name, oracle.ok, oracle.detail):
            return results

        tuned = compile_program(source, "verify-tuned")
        run_passes(tuned)
        tuned_value = interpret(tuned, inputs=inputs, registers=registers).return_value
        if not record(
            "passes-preserve-semantics",
            tuned_value == expected,
            f"optimized return value {tuned_value} vs {expected}",
        ):
            return results

        # -- 2. profile conservation laws ------------------------------------
        optimizer = DVSOptimizer(machine)
        profile = optimizer.profile(cfg, inputs=inputs, registers=registers)
        profile.validate()
        incoming: dict[str, int] = {}
        for (_, dst), count in profile.edge_counts.items():
            incoming[dst] = incoming.get(dst, 0) + count
        conserved = all(
            incoming.get(label, 0) == count
            for label, count in profile.block_counts.items()
        )
        if not record(
            "profile-conservation",
            conserved,
            "incoming edge counts conserve block counts"
            if conserved
            else "edge counts do not conserve block counts",
        ):
            return results

        # -- 3. optimize + certify + cross-check at each deadline ------------
        modes = sorted(profile.wall_time_s)
        t_fast = profile.wall_time_s[modes[-1]]
        t_slow = profile.wall_time_s[modes[0]]
        deadlines = [
            t_fast + frac * (t_slow - t_fast) for frac in sorted(deadline_fracs)
        ]
        for index, deadline in enumerate(deadlines):
            try:
                outcome = optimizer.optimize(cfg, deadline, profile=profile)
            except VerificationError as error:
                record("certificate", False, str(error))
                return results
            certificate = outcome.certificate
            record(
                "certificate",
                certificate is not None and certificate.ok,
                certificate.summary if certificate else "no certificate attached",
            )

            report = check_schedule(
                outcome.schedule,
                cfg,
                profile,
                machine.mode_table,
                machine.transition_model,
                deadline,
            )
            if not record(
                "schedule-check",
                report.ok,
                report.summary,
            ):
                return results

            if index == 0:
                # The scheduled run exercises the mode-set path (rebinding
                # folded constants); one deadline suffices for coverage.
                oracle = oracles.fastpath_matches_reference(
                    machine, cfg, inputs=inputs, registers=registers,
                    schedule=outcome.schedule.assignment,
                )
                if not record(oracle.name, oracle.ok, oracle.detail):
                    return results

            for oracle in (
                oracles.simulation_matches_prediction(
                    optimizer, cfg, outcome, inputs=inputs, registers=registers
                ),
                oracles.schedule_replay_matches_objective(optimizer, cfg, outcome),
                oracles.never_worse_than_single_mode(optimizer, outcome),
                oracles.relaxation_dominance(outcome),
                oracles.analytical_bound_dominates(
                    profile.params,
                    deadline,
                    machine.mode_table,
                    _savings(optimizer, outcome, deadline),
                ),
            ):
                if not record(oracle.name, oracle.ok, oracle.detail):
                    return results

            if check_backends and index == 0:
                oracle = oracles.backends_agree(outcome.formulation)
                if not record(oracle.name, oracle.ok, oracle.detail):
                    return results

        # -- 4. metamorphic battery ------------------------------------------
        if check_metamorphic:
            checks = [
                metamorphic.deadline_monotonicity(optimizer, cfg, profile, deadlines),
                metamorphic.filtering_within_threshold(
                    optimizer, cfg, profile, deadlines[-1]
                ),
                metamorphic.mode_addition_monotonicity(
                    machine, cfg, deadlines[-1], inputs=inputs, registers=registers
                ),
                metamorphic.noop_passes_preserve(
                    source, optimizer, inputs=inputs, registers=registers
                ),
            ]
            for check in checks:
                if not record(check.name, check.ok, check.detail):
                    return results
    except ReproError as error:
        record("pipeline-crash", False, f"{type(error).__name__}: {error}")
    return results


def _savings(optimizer: DVSOptimizer, outcome, deadline: float) -> float:
    try:
        _, baseline = optimizer.best_single_mode(outcome.profile, deadline)
    except ReproError:
        return 0.0
    if baseline <= 0:
        return 0.0
    return max(0.0, 1.0 - outcome.predicted_energy_nj / baseline)


def _first_failure(results: list[CheckResult]) -> CheckResult | None:
    for result in results:
        if not result.ok:
            return result
    return None


def minimize_reproducer(
    program: GeneratedProgram,
    oracle: str,
    machine: Machine | None = None,
    deadline_fracs: tuple[float, ...] = (0.35, 0.7),
    max_rounds: int = 8,
) -> str:
    """Greedily shrink a failing program while the same oracle still fails.

    Deletes one top-level statement at a time (any subset of the
    generator's top-level statements is still a well-formed program) and
    finally tries zeroing the data array.  Returns the smallest source
    that still fails ``oracle``.
    """

    def still_fails(statements: tuple[str, ...], inputs: dict[str, list]) -> bool:
        try:
            results = verify_program(
                build_source(statements),
                inputs,
                machine=machine,
                deadline_fracs=deadline_fracs,
                only_oracle=oracle,
            )
        except Exception:  # a crash during shrinking is not a reproduction
            return False
        failure = _first_failure(results)
        return failure is not None and failure.name == oracle

    statements = program.statements
    inputs = program.inputs
    for _ in range(max_rounds):
        shrunk = False
        for index in range(len(statements) - 1, -1, -1):
            candidate = statements[:index] + statements[index + 1 :]
            if still_fails(candidate, inputs):
                statements = candidate
                shrunk = True
        if not shrunk:
            break
    zeroed = {name: [0] * len(values) for name, values in inputs.items()}
    if zeroed != inputs and still_fails(statements, zeroed):
        inputs = zeroed
    return build_source(statements)


@dataclass
class LpFuzzReport:
    """Outcome of an LP-differential fuzzing campaign."""

    runs: int
    checks: int
    failures: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def summary(self) -> str:
        verdict = ("all solvers agreed" if self.ok
                   else f"{len(self.failures)} DISAGREEMENTS")
        return (f"lp-fuzz: {self.runs} instances, {self.checks} checks, "
                f"{verdict} in {self.elapsed_s:.1f}s")


def verify_lp_case(case) -> list[str]:
    """Differential-test one generated LP/MILP across every solver.

    Runs the revised simplex, the dense tableau and (when available)
    scipy's HiGHS on the same instance and cross-checks status,
    objective, primal feasibility, and — for MILP instances — that both
    native engines report bit-identical polished solutions.

    Returns a list of human-readable disagreement descriptions (empty
    when all solvers agree).
    """
    import numpy as np

    from repro.solver.branch_bound import solve_milp
    from repro.solver.engine import use_engine
    from repro.solver.revised import solve_lp_revised
    from repro.solver.simplex import solve_lp_dense
    from repro.solver.solution import SolveStatus

    tag = f"{case.profile}/s{case.seed}"
    problems: list[str] = []
    kwargs = case.lp_kwargs()

    if case.integrality.any():
        with use_engine("revised"):
            rev = solve_milp(integrality=case.integrality, **kwargs)
        with use_engine("dense"):
            den = solve_milp(integrality=case.integrality, **kwargs)
        if rev.status != den.status:
            return [f"{tag}: MILP status revised={rev.status.name} "
                    f"dense={den.status.name}"]
        if rev.ok:
            if abs(rev.objective - den.objective) > 1e-7 * (1 + abs(den.objective)):
                problems.append(f"{tag}: MILP objective revised="
                                f"{rev.objective!r} dense={den.objective!r}")
            if not np.array_equal(rev.x, den.x):
                problems.append(f"{tag}: MILP solutions not bit-identical "
                                f"across engines")
        try:
            from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp

            constraints = []
            if kwargs["a_ub"] is not None:
                constraints.append(LinearConstraint(
                    kwargs["a_ub"], -np.inf, kwargs["b_ub"]))
            if kwargs["a_eq"] is not None:
                constraints.append(LinearConstraint(
                    kwargs["a_eq"], kwargs["b_eq"], kwargs["b_eq"]))
            ref = scipy_milp(kwargs["c"], constraints=constraints,
                             bounds=Bounds(case.bounds[:, 0], case.bounds[:, 1]),
                             integrality=case.integrality.astype(int))
            if rev.ok != (ref.status == 0):
                problems.append(f"{tag}: MILP status native="
                                f"{rev.status.name} highs={ref.status}")
            elif rev.ok and abs(rev.objective - ref.fun) > 1e-6 * (1 + abs(ref.fun)):
                problems.append(f"{tag}: MILP objective native="
                                f"{rev.objective!r} highs={ref.fun!r}")
        except ImportError:  # pragma: no cover - scipy is a hard dep here
            pass
        return problems

    rev, _basis = solve_lp_revised(**kwargs)
    den = solve_lp_dense(**kwargs)
    if rev.status != den.status:
        return [f"{tag}: status revised={rev.status.name} "
                f"dense={den.status.name}"]
    if rev.status is SolveStatus.OPTIMAL:
        if abs(rev.objective - den.objective) > 1e-6 * (1 + abs(den.objective)):
            problems.append(f"{tag}: objective revised={rev.objective!r} "
                            f"dense={den.objective!r}")
        # The revised point must be primal feasible in its own right.
        scale = max(1.0, float(np.max(np.abs(kwargs["b_ub"])))
                    if kwargs["b_ub"] is not None else 1.0)
        if kwargs["a_ub"] is not None and np.any(
                kwargs["a_ub"] @ rev.x > kwargs["b_ub"] + 1e-6 * scale):
            problems.append(f"{tag}: revised point violates a_ub")
        if kwargs["a_eq"] is not None and np.any(
                np.abs(kwargs["a_eq"] @ rev.x - kwargs["b_eq"]) > 1e-6 * scale):
            problems.append(f"{tag}: revised point violates a_eq")
        span = case.bounds[:, 1] - case.bounds[:, 0]
        btol = 1e-8 * (1.0 + np.where(np.isfinite(span), np.abs(span), 0.0))
        if np.any(rev.x < case.bounds[:, 0] - btol) or np.any(
                rev.x > case.bounds[:, 1] + btol):
            problems.append(f"{tag}: revised point violates bounds")
    try:
        from scipy.optimize import linprog

        ref = linprog(kwargs["c"], A_ub=kwargs["a_ub"], b_ub=kwargs["b_ub"],
                      A_eq=kwargs["a_eq"], b_eq=kwargs["b_eq"],
                      bounds=case.bounds, method="highs")
        ref_status = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE,
                      3: SolveStatus.UNBOUNDED}.get(ref.status)
        if ref_status is not None and ref_status != rev.status:
            problems.append(f"{tag}: status revised={rev.status.name} "
                            f"highs={ref_status.name}")
        elif ref.status == 0 and rev.ok and abs(rev.objective - ref.fun) > (
                1e-6 * (1 + abs(ref.fun))):
            problems.append(f"{tag}: objective revised={rev.objective!r} "
                            f"highs={ref.fun!r}")
    except ImportError:  # pragma: no cover - scipy is a hard dep here
        pass
    return problems


def fuzz_lps(
    runs: int,
    seed: int = 0,
    profiles: tuple[str, ...] = LP_PROFILES,
    on_progress=None,
) -> LpFuzzReport:
    """Differential-fuzz the LP cores with pathological instances.

    Cycles ``runs`` instances through the torture profiles (degenerate
    vertices, near-singular bases, rank-deficient rows, wide coefficient
    ranges, boxed MILPs); instance ``i`` uses profile ``i % len`` and
    seed ``seed + i``, so any failure reproduces from its index alone.
    """
    start = observe.clock()
    report = LpFuzzReport(runs=0, checks=0)
    for index in range(runs):
        profile = profiles[index % len(profiles)]
        case = generate_lp(seed + index, profile)
        problems = verify_lp_case(case)
        report.runs += 1
        report.checks += 1
        report.failures.extend(problems)
        if on_progress is not None:
            on_progress(index + 1, runs, len(report.failures))
    report.elapsed_s = observe.clock() - start
    return report


def fuzz(
    runs: int,
    seed: int = 0,
    machine: Machine | None = None,
    deadline_fracs: tuple[float, ...] = (0.35, 0.7),
    check_backends: bool = True,
    check_metamorphic: bool = True,
    stop_on_failure: bool = True,
    on_progress=None,
) -> FuzzReport:
    """Fuzz the pipeline with ``runs`` seeded random programs.

    Args:
        runs: number of generated programs.
        seed: base seed; program ``i`` uses ``seed + i``, so any failure
            reproduces from its own seed alone.
        machine: simulation target (default XScale-3).
        deadline_fracs: deadline positions verified per program.
        check_backends, check_metamorphic: oracle-battery switches.
        stop_on_failure: stop at (and minimize) the first failure instead
            of collecting all of them.
        on_progress: optional callback ``(index, runs, failures)`` after
            each program.
    """
    start = observe.clock()
    report = FuzzReport(runs=0, checks=0)
    for index in range(runs):
        program_seed = seed + index
        program = generate_program(program_seed)
        results = verify_program(
            program.source,
            program.inputs,
            machine=machine,
            deadline_fracs=deadline_fracs,
            check_backends=check_backends,
            check_metamorphic=check_metamorphic,
        )
        report.runs += 1
        report.checks += len(results)
        failure = _first_failure(results)
        if failure is not None:
            minimized = minimize_reproducer(
                program, failure.name, machine=machine, deadline_fracs=deadline_fracs
            )
            report.failures.append(
                FuzzFailure(
                    run_index=index,
                    seed=program_seed,
                    oracle=failure.name,
                    detail=failure.detail,
                    source=program.source,
                    minimized_source=minimized,
                )
            )
            if stop_on_failure:
                break
        if on_progress is not None:
            on_progress(index + 1, runs, len(report.failures))
    report.elapsed_s = observe.clock() - start
    return report
