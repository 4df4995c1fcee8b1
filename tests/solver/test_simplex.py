"""Native simplex tests: textbook cases, edge cases, and randomized
agreement with scipy's HiGHS."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.solver import SolveStatus, solve_lp

INF = float("inf")


class TestBasicLP:
    def test_simple_minimization(self):
        # min -x - 2y st x + y <= 4, x <= 3, y <= 2 -> x=2 (wait: optimum x+y=4 with y=2,x=2)
        res = solve_lp(
            c=[-1, -2],
            a_ub=[[1, 1]],
            b_ub=[4],
            bounds=[[0, 3], [0, 2]],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-6.0)
        assert res.x[1] == pytest.approx(2.0)

    def test_equality_constraints(self):
        res = solve_lp(c=[1, 1], a_eq=[[1, -1]], b_eq=[1], bounds=[[0, INF]] * 2)
        assert res.ok
        assert res.x[0] - res.x[1] == pytest.approx(1.0)
        assert res.objective == pytest.approx(1.0)

    def test_free_variable(self):
        res = solve_lp(
            c=[1, 0],
            a_eq=[[1, 1]],
            b_eq=[2],
            bounds=[[-INF, INF], [0, 5]],
        )
        assert res.ok
        # x free, minimize x with x + y = 2, y <= 5 -> y = 5, x = -3
        assert res.objective == pytest.approx(-3.0)

    def test_negative_lower_bound(self):
        res = solve_lp(c=[1], bounds=[[-4, 9]])
        assert res.ok
        assert res.x[0] == pytest.approx(-4.0)

    def test_upper_bound_only(self):
        res = solve_lp(c=[-1], bounds=[[-INF, 7]])
        assert res.ok
        assert res.x[0] == pytest.approx(7.0)

    def test_infeasible(self):
        res = solve_lp(c=[1], a_ub=[[1], [-1]], b_ub=[1, -3], bounds=[[0, INF]])
        assert res.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        res = solve_lp(c=[-1], bounds=[[0, INF]])
        assert res.status is SolveStatus.UNBOUNDED

    def test_degenerate_redundant_rows(self):
        # Two identical equalities: redundant row must be dropped, not fail.
        res = solve_lp(
            c=[1, 1],
            a_eq=[[1, 1], [1, 1]],
            b_eq=[2, 2],
            bounds=[[0, INF]] * 2,
        )
        assert res.ok
        assert res.objective == pytest.approx(2.0)

    def test_no_constraints_at_origin(self):
        res = solve_lp(c=[3, 5], bounds=[[0, INF]] * 2)
        assert res.ok
        assert res.objective == pytest.approx(0.0)

    def test_fixed_variable(self):
        res = solve_lp(c=[1, 1], a_ub=[[1, 1]], b_ub=[10], bounds=[[2, 2], [0, 1]])
        assert res.ok
        assert res.x[0] == pytest.approx(2.0)


def _random_lp(seed: int, n: int, m: int):
    gen = np.random.default_rng(seed)
    c = gen.uniform(-5, 5, n)
    a_ub = gen.uniform(-3, 3, (m, n))
    # Make feasible by construction: pick interior point, set rhs above.
    x0 = gen.uniform(0, 2, n)
    b_ub = a_ub @ x0 + gen.uniform(0.5, 3, m)
    bounds = np.column_stack([np.zeros(n), gen.uniform(2.5, 8, n)])
    return c, a_ub, b_ub, bounds


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 7),
    m=st.integers(1, 6),
)
def test_agrees_with_highs_on_random_feasible_lps(seed, n, m):
    """Property: native simplex and HiGHS find the same optimum on
    bounded feasible random LPs."""
    c, a_ub, b_ub, bounds = _random_lp(seed, n, m)
    ours = solve_lp(c, a_ub, b_ub, bounds=bounds)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert ours.status is SolveStatus.OPTIMAL
    assert ref.status == 0
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
    # The reported point must actually be feasible.
    assert np.all(a_ub @ ours.x <= b_ub + 1e-7)
    assert np.all(ours.x >= bounds[:, 0] - 1e-9)
    assert np.all(ours.x <= bounds[:, 1] + 1e-9)


class TestRatioTieWindowRegression:
    """The ratio-test tie window must scale with the ratio magnitude.

    With an absolute 1e-9 window, fp noise on ~1e8-sized ratios hides
    genuinely tied rows from the stability tie-break, and the tableau
    pivots on a tiny element — exactly what the fixed-variable
    substitution rows produce under huge coefficient ranges.
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_wide_range_instances_match_highs(self, seed):
        from repro.solver.simplex import solve_lp_dense
        from repro.verify.generators import generate_lp

        case = generate_lp(seed, "wide_range")
        ours = solve_lp_dense(**case.lp_kwargs())
        ref = linprog(case.c, A_ub=case.a_ub, b_ub=case.b_ub,
                      bounds=case.bounds, method="highs")
        assert ours.status is SolveStatus.OPTIMAL
        assert ref.status == 0
        assert ours.objective == pytest.approx(
            ref.fun, abs=1e-6 * (1 + abs(ref.fun)))

    def test_fixed_variable_with_huge_scale_spread(self):
        # A fixed 1e5-scale variable substituted into 1e-5-scale rows:
        # the substitution's rhs dwarfs the other coefficients, so every
        # ratio the fixed row participates in is enormous.
        from repro.solver.simplex import solve_lp_dense

        c = [1e-5, -1.0, 2e-5]
        a_ub = [[1e-5, 1.0, 0.0], [0.0, 1.0, 1e-5], [2e-5, -1.0, 1e-5]]
        b_ub = [2.0, 3.0, 1.0]
        bounds = np.array([[1e5, 1e5], [0.0, 10.0], [0.0, 1e5]])
        ours = solve_lp_dense(c, a_ub, b_ub, bounds=bounds)
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                      method="highs")
        assert ours.status is SolveStatus.OPTIMAL and ref.status == 0
        assert ours.objective == pytest.approx(
            ref.fun, abs=1e-6 * (1 + abs(ref.fun)))
        assert ours.x[0] == pytest.approx(1e5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 5))
def test_agrees_with_highs_with_equalities(seed, n):
    gen = np.random.default_rng(seed)
    c = gen.uniform(-2, 2, n)
    a_eq = gen.uniform(-1, 1, (1, n))
    x0 = gen.uniform(0, 1, n)
    b_eq = a_eq @ x0
    bounds = np.column_stack([np.zeros(n), np.full(n, 4.0)])
    ours = solve_lp(c, a_eq=a_eq, b_eq=b_eq, bounds=bounds)
    ref = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert ours.ok and ref.status == 0
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10000), n=st.integers(4, 9))
def test_simplex_with_many_fixed_variables_matches_highs(seed, n):
    """Pinning a random subset of variables (the branch-and-bound child
    shape) must not move the native optimum off HiGHS's.

    Regression: children pin binaries at ``lo == up``, and carrying
    those as degenerate ``z + s = 0`` rows let hundreds of zero-level
    pivots corrupt the reduced-cost row (the native "optimum" came out
    ~8% above HiGHS's).  Fixed variables are now substituted out of the
    standard form.
    """
    gen = np.random.default_rng(seed)
    c = gen.uniform(-4, 4, n)
    a_ub = gen.uniform(-2, 2, (3, n))
    x0 = gen.uniform(0, 1, n)
    b_ub = a_ub @ x0 + gen.uniform(0.2, 1.0, 3)
    bounds = np.column_stack([np.zeros(n), np.ones(n)])
    pinned = gen.choice(n, size=max(1, n // 2), replace=False)
    for index in pinned:
        value = round(float(x0[index]))
        bounds[index] = [value, value]

    ref = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(lo, hi) for lo, hi in bounds], method="highs")
    ours = solve_lp(c, a_ub, b_ub, bounds=bounds)
    if ref.status == 2:
        assert ours.status is SolveStatus.INFEASIBLE
        return
    assert ref.status == 0 and ours.ok
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
    for index in pinned:
        assert ours.x[index] == pytest.approx(bounds[index, 0], abs=1e-9)
