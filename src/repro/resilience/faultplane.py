"""The deterministic fault-injection plane.

Every injected fault in the codebase goes through this module: one
registry of named fault points and one seeded :class:`FaultPlan` that
decides, per point, on exactly which hit counts the fault fires.  The
chaos campaign (:mod:`repro.resilience.campaign`) drives it; tests
install small explicit plans.

Design:

* every injectable site in the codebase calls :func:`fire` (or a helper
  built on it) with its catalog name; with no plan installed this is a
  dictionary miss and an early return — production cost is negligible;
* a plan is a pure-data schedule ``{point: (hit numbers, ...)}`` built
  either explicitly or via :meth:`FaultPlan.from_seed`, so a chaos
  campaign can sweep seeds and still replay any failure exactly;
* plans propagate to forked pool workers through the ``REPRO_FAULTPLAN``
  environment variable (the same pattern ``$REPRO_SOLVER_ENGINE`` uses):
  :func:`install` with ``env=True`` exports the plan, and each process
  lazily loads it on the first :func:`fire` call.  Hit counters are
  per-process; a worker forked after the parent counted hits inherits
  the parent's counts, and a respawned worker restarts from the fork
  snapshot — so a scheduled hit may fire once more after a pool respawn.
  Retries absorb that; determinism of *results* is unaffected.

Every injection increments the ``faultplane.injected.<point>`` counter,
which worker transports ship back to the parent like every other observe
counter, so ``/v1/metrics`` and the campaign report can prove which
points were actually exercised.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro import observe
from repro.errors import OrchestrationError

logger = logging.getLogger(__name__)

#: Environment variable carrying a JSON-encoded plan to child processes.
PLAN_ENV = "REPRO_FAULTPLAN"

#: Registry of injectable fault points: name -> what firing does.
CATALOG: dict[str, str] = {
    "cache.read.corrupt": "damage the artifact file before the store reads it",
    "cache.write.torn": "truncate an artifact file right after its atomic write",
    "io.slow": "sleep plan.slow_s inside artifact store get/put",
    "worker.crash": "raise InjectedFault from a pool task entry",
    "worker.hang": "sleep plan.hang_s inside the task timeout window",
    "solver.limit": "raise SolverLimitError before backend dispatch",
    "serve.accept.drop": "close an accepted HTTP connection before reading",
    "serve.read.drop": "drop a parsed HTTP request without answering",
    "serve.write.drop": "abort the connection instead of sending the response",
    "journal.torn": "write only a prefix of a journal append (simulated power loss)",
}


def _canonical_schedule(
    schedule: Mapping[str, Sequence[int]],
) -> dict[str, tuple[int, ...]]:
    out: dict[str, tuple[int, ...]] = {}
    for point, hits in schedule.items():
        if point not in CATALOG:
            raise OrchestrationError(
                f"unknown fault point {point!r}; catalog: {sorted(CATALOG)}"
            )
        cleaned = tuple(sorted({int(h) for h in hits}))
        if any(h < 1 for h in cleaned):
            raise OrchestrationError(
                f"fault point {point!r}: hit numbers are 1-based, got {hits!r}"
            )
        if cleaned:
            out[point] = cleaned
    return out


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, replayable schedule of fault injections.

    Args:
        seed: identity of the plan (recorded in reports; also the RNG
            seed when built via :meth:`from_seed`).
        schedule: mapping of catalog point -> 1-based hit numbers on
            which that point fires.  Hits are counted per process.
        hang_s: sleep injected by ``worker.hang``.
        slow_s: sleep injected by ``io.slow``.
    """

    seed: int
    schedule: dict[str, tuple[int, ...]] = field(default_factory=dict)
    hang_s: float = 0.5
    slow_s: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", _canonical_schedule(self.schedule))

    @classmethod
    def from_seed(
        cls,
        seed: int,
        points: Sequence[str] | None = None,
        max_fires: int = 2,
        horizon: int = 6,
        hang_s: float = 0.5,
        slow_s: float = 0.05,
    ) -> "FaultPlan":
        """Build a plan where every requested point fires 1..max_fires
        times somewhere in its first ``horizon`` hits."""
        rng = random.Random(seed)
        schedule: dict[str, tuple[int, ...]] = {}
        for point in sorted(points if points is not None else CATALOG):
            fires = rng.randint(1, max(1, max_fires))
            fires = min(fires, horizon)
            schedule[point] = tuple(sorted(rng.sample(range(1, horizon + 1), fires)))
        return cls(seed=seed, schedule=schedule, hang_s=hang_s, slow_s=slow_s)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "schedule": {p: list(h) for p, h in self.schedule.items()},
                "hang_s": self.hang_s,
                "slow_s": self.slow_s,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as error:
            raise OrchestrationError(f"unparsable fault plan: {error}") from error
        if not isinstance(doc, dict) or not isinstance(doc.get("schedule"), dict):
            raise OrchestrationError("fault plan must be an object with a schedule")
        return cls(
            seed=int(doc.get("seed", 0)),
            schedule={str(p): tuple(h) for p, h in doc["schedule"].items()},
            hang_s=float(doc.get("hang_s", 0.5)),
            slow_s=float(doc.get("slow_s", 0.05)),
        )


class _Runtime:
    """Per-process plan state: the installed plan plus hit counters."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.hits: dict[str, int] = {}
        self.lock = threading.Lock()

    def fire(self, point: str) -> bool:
        scheduled = self.plan.schedule.get(point)
        with self.lock:
            count = self.hits.get(point, 0) + 1
            self.hits[point] = count
        return scheduled is not None and count in scheduled


_runtime: _Runtime | None = None
_env_loaded = False
_state_lock = threading.Lock()


def _current() -> _Runtime | None:
    global _runtime, _env_loaded
    if _runtime is None and not _env_loaded:
        with _state_lock:
            if _runtime is None and not _env_loaded:
                _env_loaded = True
                text = os.environ.get(PLAN_ENV)
                if text:
                    try:
                        _runtime = _Runtime(FaultPlan.from_json(text))
                    except OrchestrationError as error:
                        logger.warning("ignoring %s: %s", PLAN_ENV, error)
    return _runtime


def install(plan: FaultPlan, env: bool = False) -> None:
    """Activate ``plan`` in this process (and, with ``env=True``, export
    it so forked/spawned children pick it up too)."""
    global _runtime, _env_loaded
    with _state_lock:
        _runtime = _Runtime(plan)
        _env_loaded = True
    if env:
        os.environ[PLAN_ENV] = plan.to_json()


def uninstall() -> None:
    """Deactivate fault injection and drop the environment export."""
    global _runtime, _env_loaded
    with _state_lock:
        _runtime = None
        _env_loaded = False
    os.environ.pop(PLAN_ENV, None)


def active_plan() -> FaultPlan | None:
    """The plan currently governing this process, if any."""
    runtime = _current()
    return None if runtime is None else runtime.plan


def fire(point: str) -> bool:
    """Count one hit of ``point``; True when the plan says it fires now.

    Unknown points raise :class:`OrchestrationError` even with no plan
    installed, so a typo at an injection site cannot silently disable a
    fault forever.
    """
    if point not in CATALOG:
        raise OrchestrationError(
            f"unknown fault point {point!r}; catalog: {sorted(CATALOG)}"
        )
    runtime = _current()
    if runtime is None:
        return False
    if not runtime.fire(point):
        return False
    observe.add(f"faultplane.injected.{point}")
    logger.warning("faultplane: injected %s (hit %d)",
                   point, runtime.hits.get(point, 0))
    return True


def stall(point: str) -> bool:
    """Latency fault: sleep the plan's duration for ``point`` if it fires."""
    runtime = _current()
    if runtime is None:
        # Still validate the point name on the cheap path.
        if point not in CATALOG:
            raise OrchestrationError(f"unknown fault point {point!r}")
        return False
    if not fire(point):
        return False
    time.sleep(runtime.plan.slow_s if point == "io.slow" else runtime.plan.hang_s)
    return True


def torn_text(text: str, point: str = "journal.torn") -> str | None:
    """Torn-write fault for journal appends.

    Returns the prefix that "made it to disk" when ``point`` fires for
    this append, else None (the append proceeds normally).
    """
    if not fire(point):
        return None
    return text[: max(1, len(text) // 2)]


def damage_file(path: os.PathLike | str) -> bool:
    """Shared corruption primitive: truncate a file to half its bytes.

    Used by both cache fault points, so "disk damage" means the same
    thing on the read and the write path.  Returns False when the
    file is missing or empty.
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return False
    if size == 0:
        return False
    with open(path, "r+b") as handle:
        handle.truncate(max(1, size // 2))
    return True


__all__ = [
    "CATALOG",
    "PLAN_ENV",
    "FaultPlan",
    "active_plan",
    "damage_file",
    "fire",
    "install",
    "stall",
    "torn_text",
    "uninstall",
]
