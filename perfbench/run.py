"""perfbench: end-to-end and per-layer benchmark of the repro pipeline.

Run from the root of a checkout (see perfbench/README.md)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Workloads (every input comes from ``--seed``):

* ``sweep-cold``   one ``repro sweep`` of the paper suite into an empty store;
* ``explore-13``   one ``repro sweep`` per deadline fraction at 13 levels,
                   against a store that set-up filled with the profiles;
* ``serve-whatif`` two closed-loop clients against ``repro serve`` with one
                   warm worker and one DAG run in flight.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics;
``--trace 1`` runs one untraced and two traced units of the same plan and
prints the per-layer metrics.  Every run checks the program's outputs.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"
SCRATCH = ROOT / ".perfbench-tmp"
DEADLINE_S = 170.0  # the whole invocation; a hung child must not outlive it

#: Variables that would change what the program does; children never see them.
SCRUBBED_ENV = ("REPRO_TRACE", "REPRO_CACHE_DIR", "REPRO_NO_FASTPATH",
                "REPRO_SOLVER_ENGINE", "REPRO_FAULTPLAN", "REPRO_LOG")
SUITE = ("adpcm", "epic", "gsm", "mpeg", "mpg123", "ghostscript")
SUITE_FRACS = (0.35, 0.7)
PAIR = ("adpcm", "gsm")
# Deadline fractions are drawn from [FRAC_LO, FRAC_HI); set-up runs at
# SETUP_FRAC, outside that range, so no measured point is pre-computed.
# A draw lies within FRAC_JITTER of a slice width from its slice's centre:
# MILP cost is jagged in the fraction, and wider draws made a run's cost
# depend on its seed.
FRAC_LO, FRAC_HI = 0.2, 0.9
FRAC_JITTER = 0.1
SETUP_FRAC = 0.95
# Sizes: a full evaluation makes 4 + 22 runs per workload within 57 minutes
# on a shared 2-core VM, where sweep-cold alone takes 15-33 s.
EXPLORE_POINTS = 5
SERVE_FRACS = 34
SERVE_REQUESTS = 60
SERVE_CLIENTS = 2
CHECKS = ("deadline_met", "energy_predicted", "result_preserved")
# Accounting tolerance: layer self times plus unattributed time must add up
# to the traced wall time within this share of it (plus ACCOUNT_ABS_S).
ACCOUNT_REL, ACCOUNT_ABS_S = 0.02, 0.01

END_TO_END = ("wall_s", "latency_p50_ms", "latency_p90_ms", "throughput_rps",
              "setup_s", "peak_rss_mb")
UNITS = {"wall_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "throughput_rps": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Self-time layers: probe layer name -> per-layer metric.
SELF_LAYERS = {
    "compile": "compile.s",
    "simulator.run": "simulator.run_s",
    "perf.codegen": "perf.codegen_s",
    "milp.build": "milp.build_s",
    "solver.solve": "solver.solve_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "executor.run_graph": "executor.overhead_s",
    "sweep.persist": "sweep.persist_s",
}
STAGES = ("compile", "profile", "params", "bound", "optimize", "simulate",
          "verify")
# Program counters -> per-layer metric.
COUNTERS = {
    "simulator.runs": "simulator.runs",
    "simulator.instructions": "simulator.instructions",
    "perf.blocks.bailed": "perf.bails",
    "solver.solves": "solver.solves",
    "solver.iterations": "solver.iterations",
    "solver.nodes": "solver.nodes",
    "cache.artifact.hits": "cache.hits",
    "cache.artifact.misses": "cache.misses",
    "cache.artifact.writes": "cache.writes",
    "executor.retries": "executor.retries",
    "serve.dag.runs": "serve.dag_runs",
    "serve.requests.coalesced": "serve.coalesced",
    "serve.requests.replayed": "serve.replayed",
    "serve.requests.rejected": "serve.rejected",
}
# Counts the plan fixes: two traced units of one plan must agree exactly.
EXACT = ("simulator.runs", "simulator.instructions", "solver.nodes",
         "solver.iterations", "cache.hits", "cache.misses", "cache.writes",
         "serve.dag_runs", "cli.processes")
PER_LAYER = (
    "cli.startup_s", "cli.processes", "compile.s", "compile.calls",
    *(f"stage.{kind}_s" for kind in STAGES), "stage.self_s",
    "simulator.run_s", "simulator.runs", "simulator.instructions",
    "simulator.minstr_per_s", "perf.codegen_s", "perf.fast_share",
    "perf.bails", "milp.build_s", "optimize.independent_edges",
    "solver.solve_s", "solver.solves", "solver.iterations", "solver.nodes",
    "cache.get_s", "cache.put_s", "cache.hits", "cache.misses",
    "cache.writes", "cache.hit_rate", "executor.tasks", "executor.retries",
    "executor.overhead_s", "sweep.persist_s", "serve.spawn_s",
    "serve.dag_runs", "serve.coalesced", "serve.replayed",
    "serve.coalescing_ratio", "serve.rejected", "client.retries",
    "serve.dag_p50_ms", "serve.repeat_p50_ms", "observe.overhead_share",
    "trace.unattributed_share", "failed_share",
)


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share") or name.endswith("_rate") or name.endswith("_ratio"):
        return "ratio"
    if name == "simulator.minstr_per_s":
        return "Minstr/s"
    if name.endswith("_s") or name == "compile.s":
        return "s"
    return "count"


_clock = time.perf_counter


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, linear interpolation between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def stratified_fracs(rng: random.Random, n: int) -> list[float]:
    """One deadline fraction near the centre of each of n equal slices of
    the range: a seed moves the points a little, never the grid."""
    width = (FRAC_HI - FRAC_LO) / n
    return sorted({
        round(FRAC_LO + width * (i + 0.5 + FRAC_JITTER * (2 * rng.random() - 1)), 3)
        for i in range(n)})


def _die_with_parent() -> None:
    # PR_SET_PDEATHSIG: the kernel kills the child if the benchmark dies.
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)


class Children:
    """Every process the benchmark starts; kills what is left on exit."""

    def __init__(self, env: dict[str, str]) -> None:
        self.env = env
        self.live: dict[int, subprocess.Popen] = {}
        self.peak_rss_kib = 0

    def start(self, argv: list[str], log: Path) -> subprocess.Popen:
        with open(log, "wb") as out:
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True, preexec_fn=_die_with_parent)
        self.live[proc.pid] = proc
        return proc

    def _reaped(self, proc: subprocess.Popen, status: int, usage) -> int:
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.pop(proc.pid, None)
        # ru_maxrss of a reaped child covers the children it reaped itself
        # (the server's workers).
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return proc.returncode

    def wait(self, proc: subprocess.Popen) -> int:
        _, status, usage = os.wait4(proc.pid, 0)
        return self._reaped(proc, status, usage)

    def wait_for(self, proc: subprocess.Popen, timeout_s: float) -> int | None:
        """The exit code, or None if ``proc`` still runs after ``timeout_s``."""
        end = _clock() + timeout_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                return self._reaped(proc, status, usage)
            if _clock() >= end:
                return None
            time.sleep(0.01)

    def kill_all(self) -> None:
        for proc in list(self.live.values()):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.wait(proc)


@dataclass
class Unit:
    """One measured pass of a workload's plan."""

    wall_s: float  # time for the plan's fixed work
    latencies_s: list[float]
    span_s: float = 0.0  # time measured; more than wall_s if it kept going
    cli_processes: int = 0
    probe_docs: list[dict] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, bytes] = field(default_factory=dict)  # point -> result
    extra: dict[str, float] = field(default_factory=dict)
    served: bool = False  # a serve-whatif unit (one server, forked workers)


class Bench:
    """State of one invocation: children, scratch space, checks, tallies."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.seconds = seconds
        self.rng = random.Random(f"perfbench/{workload}/{seed}")
        self.input_seed = self.rng.randrange(1000)
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        env["PYTHONPATH"] = str(SRC)
        self.children = Children(env)
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
        self._names = 0
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, int] = {}

    # -- scratch, processes ------------------------------------------------

    def fresh(self, stem: str) -> Path:
        self._names += 1
        return self.tmp / f"{self._names:03d}-{stem}"

    def repro_argv(self, args: list[str], probe_out: Path | None) -> list[str]:
        if probe_out is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, str(PROBE), str(probe_out), *args]

    def run_cli(self, args: list[str], probe_out: Path | None = None) -> float:
        """Run one CLI process to its end; returns its wall time."""
        log = self.fresh("cli.log")
        t0 = _clock()
        proc = self.children.start(self.repro_argv(args, probe_out), log)
        code = self.children.wait(proc)
        wall = _clock() - t0
        if code != 0:
            self.problem(f"`repro {' '.join(args[:1])}` exited {code}: "
                         + log.read_text(errors="replace")[-400:])
        return wall

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def close(self) -> None:
        self.children.kill_all()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another invocation's scratch is still there

    # -- output checks -----------------------------------------------------

    def compute_reference(self, workloads: tuple[str, ...]) -> None:
        """Return values from the reference interpreter (no timing model),
        for each workload's default input category, which the runs use."""
        from repro.ir.interp import interpret
        from repro.workloads.suite import compile_workload, get_workload

        for name in workloads:
            spec = get_workload(name)
            result = interpret(compile_workload(name),
                               inputs=spec.inputs(seed=self.input_seed),
                               registers=spec.registers())
            self.reference[name] = result.return_value

    def row_problem(self, row: dict) -> str | None:
        if row.get("status") != "ok":
            return f"status {row.get('status')!r}"
        checks = row.get("checks") or {}
        failed = [c for c in CHECKS if checks.get(c) is not True]
        if failed:
            return f"checks failed: {', '.join(failed)}"
        want = self.reference.get(row.get("workload"))
        if want is None or row.get("return_value") != want:
            return (f"return_value {row.get('return_value')!r} != "
                    f"reference {want!r}")
        return None

    def check_results(self, path: Path, expected: set[tuple[str, float]],
                      counted: bool = True) -> bytes:
        """Check a results.jsonl; return its bytes for the identity check."""
        data = path.read_bytes() if path.exists() else b""
        seen = set()
        bad = 0
        for line in data.splitlines():
            row = json.loads(line)
            point = (row.get("workload"), row.get("deadline_frac"))
            seen.add(point)
            why = self.row_problem(row)
            if why is not None or point not in expected:
                bad += 1
                self.problem(f"{row.get('experiment')}: "
                             f"{why or 'not in the plan'}")
        missing = expected - seen
        for point in sorted(missing):
            self.problem(f"{point} missing from {path.parent.name}")
        if counted:
            self.attempted += len(expected)
            self.failed += min(len(expected), bad + len(missing))
        return data

    def same_outputs(self, units: list[Unit]) -> None:
        """results.jsonl of one point must be byte-identical across units."""
        first = units[0].outputs
        for unit in units[1:]:
            for key, data in unit.outputs.items():
                if key in first and first[key] != data:
                    self.problem(f"results for {key} differ between runs "
                                 "of one plan")

    def same_counts(self, a: dict, b: dict) -> None:
        for name in EXACT:
            if a.get(name) != b.get(name):
                self.problem(f"nondeterminism: {name} is {a.get(name)} in "
                             f"one traced run and {b.get(name)} in the other")

    # -- the three workloads -------------------------------------------------

    def measure(self, unit_fn, traced: bool) -> list[Unit]:
        """Untraced: units until --seconds are spent.  Traced: an untraced
        unit between two traced ones, so a drift in machine speed during
        the run cancels out of the tracing overhead; returned untraced
        first."""
        if traced:
            first = unit_fn(True)
            plain = unit_fn(False)
            return [plain, first, unit_fn(True)]
        start = _clock()
        units = [unit_fn(False)]
        while _clock() - start + units[-1].wall_s <= self.seconds:
            units.append(unit_fn(False))
        return units


def sweep_args(workloads, fracs, store: Path, out: Path, seed: int,
               levels: str | None = None, trace: bool = False) -> list[str]:
    args = ["sweep", "--workloads", ",".join(workloads),
            "--deadline-fracs", ",".join(f"{f:g}" for f in fracs),
            "--jobs", "1", "--seed", str(seed), "--cache-dir", str(store),
            "--output-dir", str(out), "--quiet"]
    if levels:
        args += ["--levels", levels]
    if trace:
        args.append("--trace")
    return args


def cli_unit(bench: Bench, runs: list[tuple[tuple, tuple]], levels,
             store_from: Path | None, traced: bool) -> Unit:
    """One sweep process per (workloads, fracs) in ``runs``, one store."""
    store = bench.fresh("store")
    if store_from is None:
        store.mkdir()
    else:
        shutil.copytree(store_from, store)
    unit = Unit(wall_s=0.0, latencies_s=[])
    for workloads, fracs in runs:
        out = bench.fresh("out")
        probe_out = bench.fresh("probe.json") if traced else None
        wall = bench.run_cli(
            sweep_args(workloads, fracs, store, out, bench.input_seed,
                       levels, trace=traced), probe_out)
        unit.wall_s += wall
        unit.latencies_s.append(wall)
        unit.cli_processes += 1
        expected = {(w, f) for w in workloads for f in fracs}
        unit.outputs[",".join(map(str, fracs))] = bench.check_results(
            out / "results.jsonl", expected)
        if traced:
            doc = _read_json(probe_out)
            doc["external_wall_s"] = wall
            unit.probe_docs.append(doc)
            metrics = _read_json(out / "metrics.json")
            for name, value in metrics.get("counters", {}).items():
                unit.counters[name] = unit.counters.get(name, 0) + value
    return unit


def cli_startup(bench: Bench, times: int = 3) -> float:
    """Median wall time of a fresh interpreter importing repro.cli."""
    walls = []
    for _ in range(times):
        log = bench.fresh("import.log")
        t0 = _clock()
        proc = bench.children.start([sys.executable, "-c", "import repro.cli"],
                                    log)
        code = bench.children.wait(proc)
        walls.append(_clock() - t0)
        if code != 0:
            bench.problem(f"importing repro.cli failed: {log.read_text()[-400:]}")
    return statistics.median(walls)


def setup_store(bench: Bench, workloads, levels) -> tuple[Path, float]:
    """Fill a fresh store by sweeping at the set-up fraction."""
    store, out = bench.fresh("store"), bench.fresh("setup-out")
    wall = bench.run_cli(sweep_args(workloads, (SETUP_FRAC,), store, out,
                                       bench.input_seed, levels))
    bench.check_results(out / "results.jsonl",
                        {(w, SETUP_FRAC) for w in workloads}, counted=False)
    return store, wall


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def run_sweep_cold(bench: Bench, traced: bool):
    bench.compute_reference(SUITE)
    setups = [cli_startup(bench)]

    def unit(probe: bool) -> Unit:
        return cli_unit(bench, [(SUITE, SUITE_FRACS)], None, None, probe)

    return setups, bench.measure(unit, traced), {"cli.startup_s": setups[0]}


def run_explore_13(bench: Bench, traced: bool):
    fracs = stratified_fracs(bench.rng, EXPLORE_POINTS)
    bench.compute_reference(PAIR)
    store, setup_s = setup_store(bench, PAIR, "13")

    def unit(probe: bool) -> Unit:
        return cli_unit(bench, [(PAIR, (f,)) for f in fracs], "13", store,
                        probe)

    extra = {"cli.startup_s": cli_startup(bench)} if traced else {}
    return [setup_s], bench.measure(unit, traced), extra


# -- serve-whatif ----------------------------------------------------------------


def serve_plan(rng: random.Random):
    """Endless request plan: (workload, frac, is_repeat).  Every third
    request repeats a point sent earlier; the others are new points."""
    used: set[tuple[str, float]] = set()
    fresh: list[tuple[str, float]] = []
    sent: list[tuple[str, float]] = []
    index = 0
    while True:
        if index % 3 == 2:
            yield (*rng.choice(sent), True)
        else:
            while not fresh:
                fresh = [(w, f) for f in stratified_fracs(rng, SERVE_FRACS)
                         for w in PAIR if (w, f) not in used]
                rng.shuffle(fresh)
            point = fresh.pop()
            used.add(point)
            sent.append(point)
            yield (*point, False)
        index += 1


class Server:
    """A spawned ``repro serve`` with one warm worker, one run in flight."""

    def __init__(self, bench: Bench, store: Path,
                 probe_out: Path | None) -> None:
        self.bench = bench
        self.probe_out = probe_out
        log = bench.fresh("serve.log")
        args = ["serve", "--port", "0", "--jobs", "1", "--runs", "1",
                "--cache-dir", str(store)]
        t0 = _clock()
        self.proc = bench.children.start(bench.repro_argv(args, probe_out), log)
        self.port = self._port(log, t0 + 60)
        self._wait_healthy(t0 + 60)
        self.spawn_s = _clock() - t0

    def _port(self, log: Path, deadline: float) -> int:
        while _clock() < deadline:
            match = re.search(rb"listening on http://[^:\s]+:(\d+)",
                              log.read_bytes())
            if match:
                return int(match.group(1))
            if self.bench.children.wait_for(self.proc, 0) is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"repro serve did not start: {log.read_text()[-400:]}")

    def _wait_healthy(self, deadline: float) -> None:
        while _clock() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve never answered /healthz")

    def get(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def drain(self) -> None:
        """SIGTERM, then the server must exit 0 within 30 s."""
        os.kill(self.proc.pid, signal.SIGTERM)
        code = self.bench.children.wait_for(self.proc, 30.0)
        if code is None:
            self.bench.problem("repro serve did not drain within 30 s")
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.bench.children.wait(self.proc)
        elif code != 0:
            self.bench.problem(f"repro serve exited {code} after SIGTERM")


def drive(bench: Bench, server: Server, fixed: bool) -> Unit:
    """Closed loop: each client sends its next request when the last is
    answered.  Sends SERVE_REQUESTS requests, and unless ``fixed`` keeps
    sending until --seconds have passed."""
    from repro.serve.client import ReproClient

    plan = serve_plan(random.Random(f"plan/{bench.rng.random()}"))
    lock = threading.Lock()
    records: list[tuple] = []  # (index, workload, frac, repeat, sent, done, outcome)
    issued = [0]
    t0 = _clock()

    def client(k: int) -> None:
        conn = ReproClient("127.0.0.1", server.port, seed=k)
        while True:
            with lock:
                if issued[0] >= SERVE_REQUESTS and (
                        fixed or _clock() - t0 >= bench.seconds):
                    return
                index = issued[0]
                issued[0] += 1
                workload, frac, repeat = next(plan)
            sent = _clock()
            try:
                outcome = conn.submit({"workload": workload,
                                       "deadline_frac": frac,
                                       "seed": bench.input_seed, "wait": True})
            except Exception as error:  # noqa: BLE001 - reported, loop ends
                with lock:
                    bench.attempted += 1
                    bench.failed += 1
                    bench.problem(f"client {k}: {type(error).__name__}: "
                                  f"{error}")
                return
            done = _clock()
            with lock:
                records.append((index, workload, frac, repeat, sent, done,
                                outcome))

    threads = [threading.Thread(target=client, args=(k,), daemon=True)
               for k in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(DEADLINE_S)
    records.sort()
    first_send = min(r[4] for r in records)
    replies = sorted(r[5] for r in records)
    unit = Unit(wall_s=replies[min(SERVE_REQUESTS, len(replies)) - 1] - first_send,
                latencies_s=[r[5] - r[4] for r in records],
                span_s=replies[-1] - first_send,
                cli_processes=1, served=True)

    first_rows: dict[tuple[str, float], str] = {}
    dag, repeat_lat, retries = [], [], 0
    for _, workload, frac, repeat, sent, done, outcome in records:
        bench.attempted += 1
        retries += outcome.retries
        (repeat_lat if repeat else dag).append(done - sent)
        why = None
        document = outcome.document or {}
        rows = document.get("results") or []
        if not outcome.ok:
            why = f"HTTP {outcome.status} {outcome.error or document}"
        elif document.get("degraded"):
            why = f"degraded tasks {document['degraded']}"
        elif len(rows) != 1 or (rows[0].get("workload"),
                                rows[0].get("deadline_frac")) != (workload, frac):
            why = "reply does not answer the request"
        else:
            why = bench.row_problem(rows[0])
            canonical = json.dumps(rows[0], sort_keys=True)
            first = first_rows.setdefault((workload, frac), canonical)
            unit.outputs[f"{workload}@{frac}"] = canonical.encode()
            if why is None and first != canonical:
                why = "reply differs from the first reply to this point"
        if why is not None:
            bench.failed += 1
            bench.problem(f"request {workload}@{frac}: {why}")
    unit.extra.update({
        "client.retries": retries,
        "serve.dag_p50_ms": 1e3 * statistics.median(dag) if dag else 0.0,
        "serve.repeat_p50_ms": (1e3 * statistics.median(repeat_lat)
                                if repeat_lat else 0.0),
    })
    status, metrics = server.get("/v1/metrics")
    if status == 200:
        unit.counters = dict(metrics.get("counters", {}))
        unit.extra["serve.coalescing_ratio"] = (
            metrics.get("derived", {}).get("coalescing_ratio", 0.0))
    else:
        bench.problem(f"/v1/metrics answered {status}")
    if unit.counters.get("serve.dag.runs") != len(first_rows):
        bench.problem(f"{unit.counters.get('serve.dag.runs')} DAG runs for "
                      f"{len(first_rows)} distinct points")
    return unit


def run_serve_whatif(bench: Bench, traced: bool):
    bench.compute_reference(PAIR)
    pristine, prefill_s = setup_store(bench, PAIR, None)
    plan_state = bench.rng.getstate()
    spawns: list[float] = []

    def spawn(probe: bool) -> Server:
        store = bench.fresh("store")
        shutil.copytree(pristine, store)
        server = Server(bench, store,
                        bench.fresh("probe.json") if probe else None)
        spawns.append(server.spawn_s)
        return server

    # Untraced, the set-up's server serves the measured unit.
    servers = [] if traced else [spawn(False)]
    setups = [prefill_s + s for s in spawns]

    def unit(probe: bool) -> Unit:
        bench.rng.setstate(plan_state)  # every unit sends the same plan
        server = servers.pop() if servers else spawn(probe)
        try:
            result = drive(bench, server, fixed=traced)
        finally:
            server.drain()
        if server.probe_out is not None:
            result.probe_docs = _serve_probe_docs(server.probe_out)
        return result

    units = bench.measure(unit, traced)
    extra = {"serve.spawn_s": statistics.median(spawns)}
    if traced:
        extra["cli.startup_s"] = cli_startup(bench)
    return setups or [prefill_s], units, extra


def _serve_probe_docs(probe_out: Path) -> list[dict]:
    """The server's document first, then one per forked worker."""
    docs = [_read_json(probe_out)]
    for path in sorted(probe_out.parent.glob(probe_out.name + ".*")):
        if not path.name.endswith(".tmp"):
            docs.append(_read_json(path))
    return docs


WORKLOADS = {
    "sweep-cold": run_sweep_cold,
    "explore-13": run_explore_13,
    "serve-whatif": run_serve_whatif,
}


# -- metrics ---------------------------------------------------------------------


def end_to_end(bench: Bench, setups: list[float], units: list[Unit]) -> dict:
    latencies = [lat for unit in units for lat in unit.latencies_s]
    measured = sum(unit.span_s or unit.wall_s for unit in units)
    return {
        "wall_s": statistics.median(unit.wall_s for unit in units),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p90_ms": 1e3 * percentile(latencies, 90),
        "throughput_rps": len(latencies) / measured,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": bench.children.peak_rss_kib / 1024.0,
    }


def layer_metrics(bench: Bench, unit: Unit) -> dict[str, float]:
    """Per-layer metrics of one traced unit, plus its accounting check."""
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for doc in unit.probe_docs:
        for name, value in doc.get("total", {}).items():
            total[name] = total.get(name, 0.0) + value
        for name, value in doc.get("self", {}).items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in doc.get("calls", {}).items():
            calls[name] = calls.get(name, 0) + value
        for name, value in doc.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value

    if unit.served:
        # The server's run thread waits in run_graph while the forked
        # worker runs the task: the worker's outermost time is inside it.
        server, workers = unit.probe_docs[0], unit.probe_docs[1:]
        self_s["executor.run_graph"] = (self_s.get("executor.run_graph", 0.0)
                                        - sum(d.get("top_s", 0.0)
                                              for d in workers))
        attributed_wall = unit.span_s
        unattributed = unit.span_s - server.get("top_s", 0.0)
        startup = 0.0  # the server started before the unit's clock
    else:
        attributed_wall = sum(d["external_wall_s"] for d in unit.probe_docs)
        startup = sum(d.get("import_s", 0.0) for d in unit.probe_docs)
        # Interpreter boot and exit, plus gaps inside main() between timed
        # calls: both measured, not inferred from the layer times.
        unattributed = sum(
            (d["external_wall_s"] - d.get("import_s", 0.0) - d.get("main_s", 0.0))
            + (d.get("main_s", 0.0) - d.get("top_s", 0.0))
            for d in unit.probe_docs)
    layer_sum = startup + sum(self_s.values())
    error = layer_sum + unattributed - attributed_wall
    if (abs(error) > ACCOUNT_REL * attributed_wall + ACCOUNT_ABS_S
            or min(self_s.values(), default=0.0) < -ACCOUNT_ABS_S
            or unattributed < -ACCOUNT_ABS_S):
        bench.problem(f"trace accounting: layers {layer_sum:.4f}s + "
                      f"unattributed {unattributed:.4f}s != wall "
                      f"{attributed_wall:.4f}s")

    c = unit.counters
    out: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for program_name, metric in COUNTERS.items():
        out[metric] = c.get(program_name, 0)
    for layer, metric in SELF_LAYERS.items():
        out[metric] = self_s.get(layer, 0.0)
    for kind in STAGES:
        out[f"stage.{kind}_s"] = total.get(f"stage.{kind}", 0.0)
    out["stage.self_s"] = sum(v for k, v in self_s.items()
                              if k.startswith("stage."))
    out["compile.calls"] = calls.get("compile", 0)
    out["cli.processes"] = unit.cli_processes
    run_s = total.get("simulator.run", 0.0)
    out["simulator.minstr_per_s"] = (c.get("simulator.instructions", 0)
                                     / run_s / 1e6 if run_s else 0.0)
    blocks = c.get("perf.blocks.fast", 0) + c.get("perf.blocks.slow", 0)
    out["perf.fast_share"] = c.get("perf.blocks.fast", 0) / blocks if blocks else 0.0
    out["optimize.independent_edges"] = counts.get("optimize.independent_edges", 0)
    probes = c.get("cache.artifact.hits", 0) + c.get("cache.artifact.misses", 0)
    out["cache.hit_rate"] = c.get("cache.artifact.hits", 0) / probes if probes else 0.0
    out["executor.tasks"] = sum(v for k, v in c.items()
                                if k.startswith("executor.tasks."))
    for name in ("client.retries", "serve.dag_p50_ms", "serve.repeat_p50_ms",
                 "serve.coalescing_ratio"):
        if name in unit.extra:
            out[name] = unit.extra[name]
    out["trace.unattributed_share"] = unattributed / attributed_wall
    return out


def per_layer(bench: Bench, units: list[Unit], extra: dict) -> dict:
    plain, traced = units[0], units[1:]
    layers = [layer_metrics(bench, unit) for unit in traced]
    bench.same_counts(layers[0], layers[1])
    # Counts whose split depends on timing (coalesced vs replayed) are
    # reported from the first traced run; times are the mean of both.
    out = dict(layers[0])
    for name in PER_LAYER:
        if layer_unit(name) in ("s", "ms", "Minstr/s"):
            out[name] = statistics.fmean(layer[name] for layer in layers)
    out.update({k: v for k, v in extra.items() if k in PER_LAYER})
    out["observe.overhead_share"] = (
        statistics.fmean(unit.wall_s for unit in traced) / plain.wall_s - 1.0)
    out["trace.unattributed_share"] = statistics.fmean(
        layer["trace.unattributed_share"] for layer in layers)
    out["failed_share"] = bench.failed / bench.attempted if bench.attempted else 0.0
    return out


# -- entry point -----------------------------------------------------------------


def _abort(signum, frame):
    raise SystemExit(f"perfbench: stopped by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _abort)
    signal.signal(signal.SIGALRM, _abort)
    signal.alarm(int(DEADLINE_S))

    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        # The build: byte-compile the program once, outside every metric.
        build = subprocess.run([sys.executable, "-m", "compileall", "-q",
                                str(SRC)], cwd=ROOT, env=bench.children.env,
                               stdout=subprocess.DEVNULL)
        if build.returncode != 0:
            print("perfbench: compileall failed", file=sys.stderr)
            return 2
        setups, units, extra = WORKLOADS[args.workload](bench, bool(args.trace))
        bench.same_outputs(units)
        if args.trace:
            values = per_layer(bench, units, extra)
            metrics = {name: {"value": values[name], "unit": layer_unit(name)}
                       for name in PER_LAYER}
        else:
            values = end_to_end(bench, setups, units)
            metrics = {name: {"value": values[name], "unit": UNITS[name]}
                       for name in END_TO_END}
    finally:
        signal.alarm(0)
        bench.close()
    print(json.dumps({"correct": not bench.problems,
                      "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
