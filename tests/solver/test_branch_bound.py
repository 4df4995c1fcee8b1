"""Branch-and-bound MILP tests: exactness on knapsacks, agreement with
HiGHS, limits, and mixed-integer problems."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import LinearConstraint, milp

from repro.solver import BranchBoundOptions, SolveStatus, solve_milp


def _solve_ref(c, a_ub, b_ub, bounds, integrality):
    constraints = [LinearConstraint(a_ub, -np.inf, b_ub)] if len(b_ub) else []
    from scipy.optimize import Bounds

    res = milp(
        c,
        constraints=constraints,
        bounds=Bounds(bounds[:, 0], bounds[:, 1]),
        integrality=integrality.astype(int),
    )
    return res


class TestKnapsack:
    def test_small_knapsack_exact(self):
        # max 10x0 + 13x1 + 7x2 + 4x3  st  3x0+4x1+2x2+x3 <= 7
        c = np.array([-10.0, -13.0, -7.0, -4.0])
        a_ub = np.array([[3.0, 4.0, 2.0, 1.0]])
        b_ub = np.array([7.0])
        bounds = np.array([[0, 1]] * 4, dtype=float)
        integrality = np.ones(4, dtype=bool)
        res = solve_milp(c, a_ub, b_ub, bounds=bounds, integrality=integrality)
        assert res.status is SolveStatus.OPTIMAL
        # best: x1 + x2 + x3 = 13 + 7 + 4 = 24 (weight 7)
        assert res.objective == pytest.approx(-24.0)
        assert set(np.round(res.x).astype(int)) <= {0, 1}

    def test_integrality_snapped(self):
        c = np.array([-1.0])
        res = solve_milp(
            c, np.array([[2.0]]), np.array([3.0]),
            bounds=np.array([[0.0, 5.0]]), integrality=np.array([True]),
        )
        assert res.ok
        assert res.x[0] == 1.0  # floor(1.5)

    def test_pure_lp_passthrough(self):
        res = solve_milp(
            np.array([1.0]), bounds=np.array([[2.0, 9.0]]),
            integrality=np.array([False]),
        )
        assert res.ok
        assert res.objective == pytest.approx(2.0)

    def test_infeasible_integer(self):
        # 0.4 <= x <= 0.6, x integer -> infeasible
        res = solve_milp(
            np.array([1.0]), bounds=np.array([[0.4, 0.6]]),
            integrality=np.array([True]),
        )
        assert res.status is SolveStatus.INFEASIBLE

    def test_mixed_integer(self):
        # min -x - y, x integer <= 2.5 bound, y continuous <= 1.7, x + y <= 3
        res = solve_milp(
            np.array([-1.0, -1.0]),
            np.array([[1.0, 1.0]]),
            np.array([3.0]),
            bounds=np.array([[0.0, 2.5], [0.0, 1.7]]),
            integrality=np.array([True, False]),
        )
        assert res.ok
        assert res.x[0] == pytest.approx(2.0)
        assert res.x[1] == pytest.approx(1.0)

    def test_node_limit_reports_limit(self):
        gen = np.random.default_rng(5)
        n = 12
        c = -gen.uniform(1, 10, n)
        a_ub = gen.uniform(0.5, 3, (1, n))
        b_ub = np.array([a_ub.sum() * 0.4])
        bounds = np.array([[0, 1]] * n, dtype=float)
        options = BranchBoundOptions(node_limit=3)
        res = solve_milp(
            c, a_ub, b_ub, bounds=bounds,
            integrality=np.ones(n, dtype=bool), options=options,
        )
        assert res.status in (SolveStatus.LIMIT, SolveStatus.OPTIMAL)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000), n=st.integers(2, 8))
def test_knapsack_agrees_with_highs(seed, n):
    """Property: native branch-and-bound matches HiGHS's MILP optimum on
    random 0/1 knapsacks."""
    gen = np.random.default_rng(seed)
    c = -gen.uniform(1, 10, n)  # maximize value
    weights = gen.uniform(0.5, 4, (1, n))
    b_ub = np.array([weights.sum() * 0.5])
    bounds = np.array([[0, 1]] * n, dtype=float)
    integrality = np.ones(n, dtype=bool)
    ours = solve_milp(c, weights, b_ub, bounds=bounds, integrality=integrality)
    ref = _solve_ref(c, weights, b_ub, bounds, integrality)
    assert ours.status is SolveStatus.OPTIMAL
    assert ref.status == 0
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6)
    # solution is binary and feasible
    assert np.all((ours.x == 0) | (ours.x == 1))
    assert weights @ ours.x <= b_ub + 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_assignment_style_milp_agrees_with_highs(seed):
    """One-of-N selection structure (the DVS formulation's shape):
    each of 3 groups picks exactly one of 3 options, budget couples them."""
    gen = np.random.default_rng(seed)
    groups, options_per = 3, 3
    n = groups * options_per
    c = gen.uniform(1, 10, n)
    times = gen.uniform(1, 5, n)
    a_eq = np.zeros((groups, n))
    for g in range(groups):
        a_eq[g, g * options_per : (g + 1) * options_per] = 1.0
    b_eq = np.ones(groups)
    budget = np.array([times.reshape(groups, -1).min(axis=1).sum() * 1.5])
    bounds = np.array([[0, 1]] * n, dtype=float)
    integrality = np.ones(n, dtype=bool)

    ours = solve_milp(
        c, times.reshape(1, -1), budget, a_eq, b_eq,
        bounds=bounds, integrality=integrality,
    )
    from scipy.optimize import Bounds

    ref = milp(
        c,
        constraints=[
            LinearConstraint(times.reshape(1, -1), -np.inf, budget),
            LinearConstraint(a_eq, b_eq, b_eq),
        ],
        bounds=Bounds(bounds[:, 0], bounds[:, 1]),
        integrality=integrality.astype(int),
    )
    assert ours.status is SolveStatus.OPTIMAL
    assert ref.status == 0
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_branch_and_bound_on_degenerate_onehot_milp(seed):
    """One-of-N selection with a coupling budget — the DVS formulation's
    shape, where the fixed-variable suboptimality bug lived (see
    ``test_simplex_with_many_fixed_variables_matches_highs``)."""
    gen = np.random.default_rng(seed)
    groups, options_per = 4, 3
    n = groups * options_per
    c = gen.uniform(1, 10, n)
    times = gen.uniform(1, 5, n)
    a_eq = np.zeros((groups, n))
    for g in range(groups):
        a_eq[g, g * options_per : (g + 1) * options_per] = 1.0
    b_eq = np.ones(groups)
    budget = np.array([times.reshape(groups, -1).min(axis=1).sum() * 1.4])
    bounds = np.array([[0, 1]] * n, dtype=float)
    integrality = np.ones(n, dtype=bool)

    ours = solve_milp(
        c, times.reshape(1, -1), budget, a_eq, b_eq, bounds, integrality
    )
    from scipy.optimize import Bounds

    ref = milp(
        c=c,
        constraints=[
            LinearConstraint(times.reshape(1, -1), -np.inf, budget),
            LinearConstraint(a_eq, b_eq, b_eq),
        ],
        bounds=Bounds(bounds[:, 0], bounds[:, 1]),
        integrality=integrality.astype(int),
    )
    assert ours.status is SolveStatus.OPTIMAL
    assert ref.status == 0
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


class TestLimitIncumbent:
    """Satellite: a tripped limit surrenders its incumbent and bound
    instead of discarding them (the anytime fallback chain depends on
    this)."""

    @staticmethod
    def _hard_knapsack(seed=5, n=14):
        gen = np.random.default_rng(seed)
        c = -gen.uniform(1, 10, n)
        a_ub = gen.uniform(0.5, 3, (1, n))
        b_ub = np.array([a_ub.sum() * 0.45])
        bounds = np.array([[0, 1]] * n, dtype=float)
        return c, a_ub, b_ub, bounds, np.ones(n, dtype=bool)

    def test_node_limit_returns_incumbent_and_bound(self):
        c, a_ub, b_ub, bounds, integrality = self._hard_knapsack()
        res = solve_milp(c, a_ub, b_ub, bounds=bounds,
                         integrality=integrality,
                         options=BranchBoundOptions(node_limit=40))
        assert res.status is SolveStatus.LIMIT
        assert res.x.size, "incumbent must be returned on LIMIT, not discarded"
        # The incumbent is feasible and integral ...
        assert np.all(a_ub @ res.x <= b_ub + 1e-9)
        assert np.allclose(res.x, np.round(res.x))
        # ... and bracketed by a finite dual bound (heap minimum).
        assert np.isfinite(res.best_bound)
        assert res.best_bound <= res.objective + 1e-9

    def test_limit_incumbent_matches_eventual_optimum_direction(self):
        c, a_ub, b_ub, bounds, integrality = self._hard_knapsack()
        limited = solve_milp(c, a_ub, b_ub, bounds=bounds,
                             integrality=integrality,
                             options=BranchBoundOptions(node_limit=40))
        exact = solve_milp(c, a_ub, b_ub, bounds=bounds,
                           integrality=integrality)
        assert exact.status is SolveStatus.OPTIMAL
        # Incumbent can only be worse than the optimum, and the reported
        # bound must still underestimate it.
        assert limited.objective >= exact.objective - 1e-9
        assert limited.best_bound <= exact.objective + 1e-9

    def test_time_limit_trip_keeps_finite_bound(self):
        c, a_ub, b_ub, bounds, integrality = self._hard_knapsack(seed=11)
        res = solve_milp(c, a_ub, b_ub, bounds=bounds,
                         integrality=integrality,
                         options=BranchBoundOptions(time_limit=1e-9))
        assert res.status is SolveStatus.LIMIT
        assert np.isfinite(res.best_bound)
