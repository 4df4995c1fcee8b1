"""Run one ``repro`` command with timers around each layer's entry points.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/probe.py OUT.json sweep --workloads adpcm ...

The arguments after ``OUT.json`` go to ``repro.cli.main`` unchanged.  The
probe wraps public entry points of the program's modules (nothing under
``src/`` is edited) and records, per layer, the inclusive time, the self
time (inclusive minus the timed calls made inside it) and the call count.
Each thread keeps its own stack of open calls, so a layer nested in
another is subtracted from its parent's self time.

The main process writes ``OUT.json`` when it exits.  Forked worker
processes (``repro serve``'s pool) cannot be relied on to run exit hooks,
so they rewrite ``OUT.json.<pid>`` each time one of their outermost timed
calls returns.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Timers:
    """Per-layer inclusive time, self time and calls for one process."""

    def __init__(self, out: str) -> None:
        self.out = out
        self.main_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Start empty; also run in forked children, whose copy of the
        lock may have been held by another thread at fork time."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_s = 0.0  # time inside outermost timed calls
        self.extra: dict[str, float] = {}

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer, fn):
        """Wrap ``fn``; ``layer`` is a name or a function of the call's args."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time spent in timed calls made inside this one
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - t0
                stack.pop()
                name = layer if isinstance(layer, str) else layer(*args)
                with self._lock:
                    self.total[name] += elapsed
                    self.self_s[name] += elapsed - frame[0]
                    self.calls[name] += 1
                    if stack:
                        stack[-1][0] += elapsed
                    else:
                        self.top_s += elapsed
                if not stack and os.getpid() != self.main_pid:
                    self.dump(f"{self.out}.{os.getpid()}")

        return wrapper

    def document(self) -> dict:
        with self._lock:
            return {
                "pid": os.getpid(),
                "total": dict(self.total),
                "self": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "top_s": self.top_s,
                **self.extra,
            }

    def finish(self) -> None:
        if os.getpid() == self.main_pid:
            self.dump(self.out)

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.document(), handle)
        os.replace(tmp, path)


def _patch(owner, attr: str, timers: Timers, layer) -> None:
    setattr(owner, attr, timers.timed(layer, getattr(owner, attr)))


def install(timers: Timers) -> None:
    """Wrap the entry points of every layer the benchmark reports."""
    from repro.core.milp.formulation import MilpFormulation
    from repro.core.scheduler import DVSOptimizer
    from repro.perf import engine
    from repro.resilience.journal import SweepJournal
    from repro.runtime import executor, manifest, sweep
    from repro.runtime.cache import ArtifactStore
    from repro.serve import server
    from repro.simulator.machine import Machine
    from repro.workloads import suite

    _patch(suite, "compile_program", timers, "compile")
    _patch(Machine, "run", timers, "simulator.run")
    _patch(engine, "program_fast", timers, "perf.codegen")
    _patch(engine, "compile_loop", timers, "perf.codegen")
    _patch(DVSOptimizer, "build", timers, "milp.build")
    _patch(MilpFormulation, "solve", timers, "solver.solve")
    _patch(ArtifactStore, "get", timers, "cache.get")
    _patch(ArtifactStore, "put", timers, "cache.put")
    # run_graph is imported by name into its two callers.
    _patch(sweep, "run_graph", timers, "executor.run_graph")
    _patch(server, "run_graph", timers, "executor.run_graph")
    for fn in ("write_manifest", "write_results"):
        _patch(manifest, fn, timers, "sweep.persist")
    for method in ("start", "record", "close"):
        _patch(SweepJournal, method, timers, "sweep.persist")

    execute_task = executor.execute_task

    def execute_and_count(kind, spec, deps):
        output = execute_task(kind, spec, deps)
        if kind == "optimize":
            with timers._lock:
                timers.counts["optimize.independent_edges"] += (
                    output["solver"]["num_independent_edges"])
        return output

    executor.execute_task = timers.timed(
        lambda kind, spec, deps: f"stage.{kind}", execute_and_count)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: probe.py OUT.json REPRO-ARGS...", file=sys.stderr)
        return 2
    timers = Timers(argv[0])
    t0 = _clock()
    import repro.cli

    timers.extra["import_s"] = _clock() - t0
    install(timers)
    os.register_at_fork(after_in_child=timers.reset)
    atexit.register(timers.finish)
    t1 = _clock()
    try:
        return repro.cli.main(argv[1:])
    finally:
        timers.extra["main_s"] = _clock() - t1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
