"""Shared numeric tolerances for every pipeline verification.

All float comparisons made by the verification layer (and by the CLI
when it decides an exit code) come from this module, so a tolerance is
stated exactly once.  The values are calibrated against the repository's
own numerics:

* the native simplex works at ~1e-9 absolute residuals; HiGHS is
  comparable, so certificate feasibility checks allow ``FEAS_ABS_TOL``
  plus a relative term for badly scaled rows;
* the simulator reproduces the MILP's predicted energy to ~1e-5
  relative on the workload suite (per-visit block energies are exact;
  the residue is count-weighted rounding), so the simulation oracle
  uses ``ENERGY_PREDICTION_REL_TOL`` = 1e-3 with margin to spare;
* scheduled runs may finish *early* but never late beyond
  ``DEADLINE_REL_SLACK`` (the historical 1e-4 slack of the test suite);
* the analytical Section 3 bound dominates MILP savings up to
  ``BOUND_DOMINANCE_SLACK`` — the paper itself reports one rounding
  inversion, hence a 2-point allowance.
"""

from __future__ import annotations

#: Absolute slack allowed on a constraint residual (solver feasibility).
FEAS_ABS_TOL = 1e-9

#: Relative slack on a constraint residual, scaled by the row magnitude.
#: HiGHS accepts MIP solutions up to its 1e-6 feasibility tolerance, so a
#: certificate demanding more would reject solutions the backend is
#: entitled to return (rows are scaled to O(1) rhs at build time).
FEAS_REL_TOL = 1e-6

#: How far a "binary" may sit from an integer before it is rejected.
INTEGRALITY_TOL = 1e-6

#: Relative mismatch allowed between a reported objective and its
#: recomputation from the solution vector.
OBJECTIVE_REL_TOL = 1e-6

#: Relative mismatch allowed between simulated energy and the MILP's
#: predicted energy for the same schedule.
ENERGY_PREDICTION_REL_TOL = 1e-3

#: Relative amount a verified run may exceed its deadline.
DEADLINE_REL_SLACK = 1e-4

#: Savings points by which the analytical bound may fall short of the
#: MILP result before the dominance oracle fails (paper Section 6.5).
BOUND_DOMINANCE_SLACK = 0.02

#: Relative slack for ``relaxation lower bound <= MILP optimum``.  Both
#: are evaluated on the same profiled per-visit numbers, so the
#: inequality is exact up to float summation order and the solver's
#: deadline-row tolerance; 1e-6 is orders of magnitude above the
#: observed residue.
RELAXATION_DOMINANCE_REL_TOL = 1e-6

#: Extra relative margin on the Section 5.2 filtering threshold when
#: comparing filtered and unfiltered optimal energies.
FILTERING_REL_MARGIN = 1e-6

#: Relative agreement demanded between two solver backends on the same
#: model (LP relaxations and full MILPs alike).
BACKEND_REL_TOL = 1e-5


def rel_err(value: float, reference: float) -> float:
    """|value - reference| normalized by max(1, |reference|)."""
    return abs(value - reference) / max(1.0, abs(reference))


def close(value: float, reference: float, rel: float, abs_tol: float = 0.0) -> bool:
    """True when ``value`` matches ``reference`` within rel + abs slack."""
    return abs(value - reference) <= abs_tol + rel * max(1.0, abs(reference))
