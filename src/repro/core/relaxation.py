"""Closed-form LP-relaxation lower bound on the Section 4.2 MILP.

Drop the transition terms (they are >= 0) and the integrality of the
mode variables.  Every edge into block ``b`` then picks a convex
combination of ``b``'s modes, so the block's total contribution ranges
over the convex hull of its points ``(N_b T_b(m), N_b E_b(m))``, and the
problem decouples into a fractional knapsack: start every block at its
fastest hull point and buy deadline slack along hull segments in order
of energy saved per second.  The result equals the LP relaxation of the
transition-free MILP, so it lower-bounds the MILP with or without edge
filtering and transition costs.

Energy per cycle is convex in speed, so a continuous-voltage model adds
points only below the chord between two adjacent modes' per-cycle costs
— never below this hull — which is why no continuous-voltage engine is
needed to bound the opportunity (docs/solver.md).
"""

from __future__ import annotations

from repro.errors import ScheduleError
from repro.profiling.profile_data import ProfileData

#: Relative slack on the all-fastest time before a deadline is infeasible
#: (float summation order; the MILP's deadline row is as tolerant).
_REL_EPS = 1e-9


def _lower_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Lower convex hull of ``(time, energy)`` points, fastest first."""
    hull: list[tuple[float, float]] = []
    for t, e in sorted(set(points)):
        while len(hull) >= 2:
            (t1, e1), (t2, e2) = hull[-2], hull[-1]
            if (t2 - t1) * (e - e1) - (e2 - e1) * (t - t1) > 0:
                break  # strictly convex turn: keep hull[-1]
            hull.pop()
        if not hull or t > hull[-1][0]:
            hull.append((t, e))
    return hull


def relaxation_bound(profile: ProfileData, deadline_s: float) -> float:
    """Minimum energy (nJ) of the MILP's LP relaxation without transitions.

    Raises:
        ScheduleError: the deadline is below the all-fastest runtime.
    """
    visits: dict[str, int] = {}
    for (_, dst), count in profile.edge_counts.items():
        visits[dst] = visits.get(dst, 0) + count
    modes = sorted(profile.per_mode)
    time = energy = 0.0
    segments: list[tuple[float, float, float]] = []
    for block, count in visits.items():
        hull = _lower_hull([(count * profile.time(block, m),
                             count * profile.energy(block, m)) for m in modes])
        time += hull[0][0]
        energy += hull[0][1]
        for (t1, e1), (t2, e2) in zip(hull, hull[1:]):
            if e2 < e1:  # past the block's cheapest point, slack buys nothing
                segments.append(((e2 - e1) / (t2 - t1), t2 - t1, e2 - e1))
    if time > deadline_s * (1.0 + _REL_EPS):
        raise ScheduleError(
            f"deadline {deadline_s:.6g}s infeasible for {profile.name!r}: "
            f"the all-fastest schedule needs {time:.6g}s"
        )
    slack = deadline_s - time
    for _, dt, de in sorted(segments):
        if slack <= 0.0:
            break
        take = min(1.0, slack / dt)
        energy += take * de
        slack -= take * dt
    return energy
