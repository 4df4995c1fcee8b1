"""The closed-form relaxation bound: equal to the MILP's LP relaxation,
below every MILP optimum, and pinned on the adpcm/gsm deadline grid."""

from __future__ import annotations

import pytest

from repro.core import DVSOptimizer
from repro.core.milp.formulation import FormulationOptions, build_formulation
from repro.core.relaxation import relaxation_bound
from repro.errors import ScheduleError
from repro.lang import compile_program
from repro.runtime.dag import MachineSpec
from repro.verify import oracles
from repro.verify.generators import generate_program
from repro.workloads import compile_workload, get_workload

_PROFILES: dict = {}


def _profile(workload: str, levels: int | None):
    """Profile once per (workload, table) for the whole module."""
    key = (workload, levels)
    if key not in _PROFILES:
        machine = MachineSpec(levels=levels).build()
        spec = get_workload(workload)
        cfg = compile_workload(workload)
        profile = DVSOptimizer(machine).profile(
            cfg, inputs=spec.inputs(), registers=spec.registers())
        _PROFILES[key] = (machine, cfg, profile)
    return _PROFILES[key]


def _lp(profile, machine, deadline, transitions: bool) -> float:
    options = FormulationOptions(
        transition_model=machine.transition_model) if transitions else None
    formulation = build_formulation(profile, machine.mode_table, deadline,
                                    options)
    solution = formulation.model.solve(backend="scipy", relax=True)
    assert solution.ok
    return solution.objective


@pytest.mark.parametrize("levels", [None, 7, 13],
                         ids=["xscale-3", "levels-7", "levels-13"])
@pytest.mark.parametrize("workload", ["adpcm", "gsm"])
def test_equals_the_transition_free_lp_relaxation(workload, levels):
    machine, _, profile = _profile(workload, levels)
    for frac in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        deadline = profile.deadline_at(frac)
        bound = relaxation_bound(profile, deadline)
        free_lp = _lp(profile, machine, deadline, transitions=False)
        assert abs(bound - free_lp) <= 1e-9 * abs(free_lp), (frac, bound, free_lp)
        priced_lp = _lp(profile, machine, deadline, transitions=True)
        assert bound <= priced_lp * (1 + 1e-9), (frac, bound, priced_lp)


def test_infeasible_deadline_raises():
    _, _, profile = _profile("adpcm", None)
    with pytest.raises(ScheduleError):
        relaxation_bound(profile, 0.5 * profile.deadline_at(0.0))


@pytest.mark.parametrize("seed", range(5))
def test_below_milp_and_monotone_on_random_programs(seed, optimizer):
    program = generate_program(seed)
    cfg = compile_program(program.source, f"relaxation-{seed}")
    profile = optimizer.profile(cfg, inputs=program.inputs)
    previous = float("inf")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        deadline = profile.deadline_at(frac)
        bound = relaxation_bound(profile, deadline)
        milp = optimizer.optimize(cfg, deadline, profile=profile)
        assert bound <= milp.predicted_energy_nj * (1 + 1e-9), (frac, bound)
        assert bound <= previous * (1 + 1e-12), (frac, bound, previous)
        previous = bound


#: (workload, deadline fraction) -> (relaxation energy, MILP energy) in nJ
#: on XScale-3 with the default transition model and 2% filtering.  Both
#: are deterministic; the MILP column is the proven optimum an earlier
#: benchmark recorded for this grid, so it pins the solver too.
GRID = {
    ("adpcm", 0.2): (1433542.1930004149, 1560877.88),
    ("adpcm", 0.4): (1154127.281545979, 1387472.2437481696),
    ("adpcm", 0.6): (888295.9676699084, 992232.7999999998),
    ("adpcm", 0.8): (650230.7775434742, 851332.4037481698),
    ("gsm", 0.2): (2649384.876260619, 2817778.0420000004),
    ("gsm", 0.4): (2187256.168595573, 2401864.642),
    ("gsm", 0.6): (1725228.5687761717, 1984864.498),
    ("gsm", 0.8): (1265469.550753047, 1685190.8260000006),
}


@pytest.mark.parametrize("workload", ["adpcm", "gsm"])
def test_pinned_on_the_deadline_grid(workload):
    machine, cfg, profile = _profile(workload, None)
    optimizer = DVSOptimizer(machine)
    for (name, frac), (relaxation_nj, milp_nj) in GRID.items():
        if name != workload:
            continue
        deadline = profile.deadline_at(frac)
        assert relaxation_bound(profile, deadline) == pytest.approx(
            relaxation_nj, rel=1e-9)
        outcome = optimizer.optimize(cfg, deadline, profile=profile)
        assert outcome.predicted_energy_nj == pytest.approx(milp_nj, rel=1e-9)


def test_oracle_fails_on_an_inflated_bound(monkeypatch):
    machine, cfg, profile = _profile("adpcm", None)
    outcome = DVSOptimizer(machine).optimize(
        cfg, profile.deadline_at(0.6), profile=profile)
    assert oracles.relaxation_dominance(outcome).ok
    monkeypatch.setattr(oracles, "relaxation_bound",
                        lambda *_: 1.01 * outcome.predicted_energy_nj)
    result = oracles.relaxation_dominance(outcome)
    assert not result.ok
    assert "exceeds" in result.detail
