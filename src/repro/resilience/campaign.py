"""``repro chaos`` — the seeded chaos campaign.

Every injected fault comes from one :class:`~repro.resilience.faultplane.
FaultPlan` per seed, and each seed runs three legs under its plan:

1. **sweep leg** — a fault-free baseline :func:`~repro.runtime.sweep.
   run_sweep` fills an artifact store; the same grid then re-runs over
   that store on a 2-worker pool with a starved solver budget, under a
   plan over ``cache.read.corrupt``, ``worker.crash``, ``solver.limit``
   and ``io.slow`` exported to the workers.  The faulted sweep must
   complete, leak no ``failed``/``verify_failed`` row, keep every
   non-degraded row byte-identical to the baseline, quarantine at least
   as many entries as ``cache.read.corrupt`` fired, and leave a store
   that audits clean.
2. **worker-kill leg** — on a spawned ``repro serve`` under the seed's
   plan, after fault-laden traffic, the workers listed by ``/healthz``
   are SIGKILLed while a fresh victim job is ``running``.  The victim
   must end ``done`` with only ``ok`` rows or ``failed`` with a
   structured error, the crash must be observed (a pool respawn or an
   ``executor.worker_crashes`` count), ``/healthz`` must still answer,
   and a probe at another fresh deadline must serve rows byte-identical
   to the fault-free reference.
3. **kill→resume leg** — the server is SIGKILLed with finished, running
   and queued jobs on the books and restarted with ``--resume``: no job
   is lost, finished jobs replay byte-identically (not recomputed), and
   the resumed server drains cleanly.  An in-process check then tears a
   journal append (``journal.torn``) on a scratch job store and asserts
   that every record before the tear survives loading.

Every served request must eventually succeed (the resilient client's
backoff absorbs dropped connections and rejections), and no unverified
schedule may escape: served rows all have status ``ok``, and
non-degraded rows are byte-identical to :func:`reference_rows`.

``journal.torn`` is deliberately excluded from the *server* plans: an
injected torn admit record simulates a disk that lost the fsync'd write,
and a job whose admission never became durable is outside the recovery
contract.  The dedicated check covers the point instead.

The report (``campaign.json``) is machine-readable; CI asserts zero
violations and a minimum number of distinct fault points exercised.
Exit codes follow the chaos ladder: 0 nothing fired (suspicious for a
campaign), 3 faults injected and absorbed, 1 violations found.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import observe
from repro.errors import ServeError
from repro.resilience import EXIT_DEGRADED, EXIT_FAILURE, EXIT_OK, faultplane
from repro.resilience.faultplane import CATALOG, FaultPlan
from repro.runtime import manifest as manifest_mod
from repro.runtime.cache import ArtifactStore, verify_store
from repro.runtime.dag import build_task_graph
from repro.runtime.executor import ExecutorConfig, run_graph
from repro.runtime.sweep import SweepConfig, run_sweep
from repro.serve import protocol
from repro.serve.client import ReproClient, RetryPolicy
from repro.serve.jobstore import JobStore

#: Schema tag for campaign.json consumers.
CAMPAIGN_FORMAT = 1

#: The listening line ``repro serve`` prints.
_LISTEN_PREFIX = "repro serve listening on http://"

#: The fault points a sweep reaches in-process (the serve.* points need a
#: server, and journal.torn has its own check).
SWEEP_POINTS = ("cache.read.corrupt", "io.slow", "solver.limit",
                "worker.crash")
#: Pool workers of both sweep-leg runs.
SWEEP_JOBS = 2
#: The faulted sweep's starvation-level anytime budget per ``optimize``.
SWEEP_SOLVER_BUDGET_S = 0.05
#: Fresh deadline points of the worker-kill leg: the victim, the probe.
CRASH_FRACS = (0.42, 0.58)


@dataclass(frozen=True)
class CampaignConfig:
    """One chaos campaign."""

    seeds: int = 3
    workload: str = "adpcm"
    traffic_fracs: tuple[float, ...] = (0.35, 0.5)
    kill_fracs: tuple[float, ...] = (0.62, 0.81)  # fresh points for the kill
    duplicates: int = 2  # extra submissions per traffic point
    output_dir: str | Path = "chaos-campaign"
    horizon: int = 6  # fault hits land within the first N per point
    poll_timeout_s: float = 240.0
    spawn_timeout_s: float = 90.0


@dataclass
class SeedResult:
    """What one seed's plans did across its three legs."""

    seed: int
    plan: dict[str, Any] = field(default_factory=dict)  # the servers' plan
    fired: dict[str, int] = field(default_factory=dict)  # all legs
    violations: list[str] = field(default_factory=list)
    sweep_plan: dict[str, Any] = field(default_factory=dict)
    sweep_fired: dict[str, int] = field(default_factory=dict)
    quarantined: int = 0  # by the faulted sweep
    victim_state: str | None = None
    respawns: int = 0  # worker-pool respawns after the worker kill
    requests: int = 0
    retries: int = 0
    rejected: int = 0
    recovered: int = 0
    replayed: int = 0
    resume_drain_exit: int | None = None


@dataclass
class CampaignReport:
    """Aggregated campaign outcome (serialized to campaign.json)."""

    config: CampaignConfig
    seeds: list[SeedResult] = field(default_factory=list)

    @property
    def points_exercised(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for seed in self.seeds:
            for point, count in seed.fired.items():
                merged[point] = merged.get(point, 0) + count
        return dict(sorted(merged.items()))

    @property
    def violations(self) -> list[str]:
        return [f"seed {seed.seed}: {violation}"
                for seed in self.seeds for violation in seed.violations]

    @property
    def total_fires(self) -> int:
        return sum(self.points_exercised.values())

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def exit_code(self) -> int:
        if self.violations:
            return EXIT_FAILURE
        return EXIT_DEGRADED if self.total_fires else EXIT_OK

    @property
    def summary(self) -> str:
        points = self.points_exercised
        status = ("FAILED" if self.violations
                  else "ok (faults absorbed)" if self.total_fires else "ok")
        return (f"chaos campaign {status}: {len(self.seeds)} seed(s), "
                f"{self.total_fires} faults injected across "
                f"{len(points)}/{len(CATALOG)} points, "
                f"{len(self.violations)} violation(s)")

    def to_document(self) -> dict[str, Any]:
        return {
            "format": CAMPAIGN_FORMAT,
            "workload": self.config.workload,
            "traffic_fracs": list(self.config.traffic_fracs),
            "kill_fracs": list(self.config.kill_fracs),
            "seeds": [
                {
                    "seed": seed.seed,
                    "plan": seed.plan,
                    "fired": dict(sorted(seed.fired.items())),
                    "violations": list(seed.violations),
                    "sweep_plan": seed.sweep_plan,
                    "sweep_fired": dict(sorted(seed.sweep_fired.items())),
                    "quarantined": seed.quarantined,
                    "victim_state": seed.victim_state,
                    "respawns": seed.respawns,
                    "requests": seed.requests,
                    "retries": seed.retries,
                    "rejected": seed.rejected,
                    "recovered": seed.recovered,
                    "replayed": seed.replayed,
                    "resume_drain_exit": seed.resume_drain_exit,
                }
                for seed in self.seeds
            ],
            "points_exercised": self.points_exercised,
            "points_total": len(CATALOG),
            "total_fires": self.total_fires,
            "violations": self.violations,
            "exit_code": self.exit_code,
            "summary": self.summary,
        }


def write_report(report: CampaignReport, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.to_document(), indent=2) + "\n")
    return path


# -- fault-free reference --------------------------------------------------------


def _canon(row: dict[str, Any]) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def reference_rows(workload: str, fracs: tuple[float, ...],
                   ) -> dict[float, list[str]]:
    """Fault-free rows per deadline fraction, as canonical JSON strings.

    Built exactly the way the server builds a response: the canonical
    request expands to its experiment grid, the DAG runs (here: inline,
    no cache, no faults), and the deterministic ``results.jsonl``
    records are the rows.  This is the byte-identity baseline every
    served and replayed response is compared against.  All points run
    as one merged DAG, so the workload is profiled once.
    """
    parsed = {frac: protocol.parse_request(
        {"workload": workload, "deadline_frac": frac}) for frac in fracs}
    graph = build_task_graph(
        [spec for request in parsed.values() for spec in request.experiments])
    results = run_graph(graph, store=None, config=ExecutorConfig(jobs=1))
    return {
        frac: [_canon(manifest_mod.experiment_record(spec, graph, results))
               for spec in sorted(request.experiments,
                                  key=lambda s: s.experiment_id)]
        for frac, request in parsed.items()
    }


# -- server harness --------------------------------------------------------------


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a spawned server and every worker it forked.

    The server leads its own session (``start_new_session``), so its
    process group holds its workers; signalling only the server's pid
    would leave them running.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group is already gone


class _ServerProc:
    """One spawned ``repro serve`` subprocess."""

    def __init__(self, proc: subprocess.Popen, host: str, port: int) -> None:
        self.proc = proc
        self.host = host
        self.port = port

    def sigkill(self) -> None:
        _kill_group(self.proc)
        self.proc.wait(timeout=30)

    def drain(self, timeout_s: float = 120.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            _kill_group(self.proc)
            self.proc.wait(timeout=30)
            return -9

    def ensure_dead(self) -> None:
        _kill_group(self.proc)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass


def _spawn_server(cache_dir: Path, store_dir: Path, env: dict[str, str],
                  resume: bool, timeout_s: float) -> _ServerProc:
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0", "--jobs", "1", "--runs", "1", "--retries", "3",
        "--cache-dir", str(cache_dir), "--store-dir", str(store_dir),
    ]
    if resume:
        command.append("--resume")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env,
                            start_new_session=True)
    deadline = time.monotonic() + timeout_s
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            _kill_group(proc)
            raise ServeError(f"campaign server exited early "
                             f"(code {proc.poll()}) before listening")
        if _LISTEN_PREFIX in line:
            address = line.split(_LISTEN_PREFIX, 1)[1].split()[0]
            host, _, port = address.partition(":")
            return _ServerProc(proc, host, int(port))
    _kill_group(proc)
    raise ServeError("campaign server never printed its listening line")


def _fault_counters(metrics: dict[str, Any] | None) -> dict[str, int]:
    if not metrics:
        return {}
    counters = metrics.get("counters", {})
    prefix = "faultplane.injected."
    return {name[len(prefix):]: int(count)
            for name, count in counters.items() if name.startswith(prefix)}


def _merge_fired(into: dict[str, int], fired: dict[str, int]) -> None:
    for point, count in fired.items():
        into[point] = into.get(point, 0) + count


def _job_id_for(workload: str, frac: float) -> str:
    return protocol.parse_request(
        {"workload": workload, "deadline_frac": frac}).job_id


def _check_rows(document: dict[str, Any], reference: list[str],
                label: str, violations: list[str]) -> None:
    rows = document.get("results")
    if not isinstance(rows, list) or not rows:
        violations.append(f"{label}: response carries no result rows")
        return
    bad = [row for row in rows
           if not isinstance(row, dict) or row.get("status") != "ok"]
    if bad:
        violations.append(
            f"{label}: {len(bad)} unverified row(s) escaped")
        return
    if document.get("degraded"):
        return  # degraded answers are honest, but not byte-comparable
    got = [_canon(row) for row in rows]
    if got != reference:
        violations.append(
            f"{label}: rows drifted from the fault-free reference")


# -- per-seed drive --------------------------------------------------------------


def _poll_job(client: ReproClient, job_id: str, states: tuple[str, ...],
              timeout_s: float, interval_s: float = 0.2,
              ) -> dict[str, Any] | None:
    """Poll ``/v1/jobs/<id>`` until its state lands in ``states``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        outcome = client.get_json(f"/v1/jobs/{job_id}")
        if outcome.ok and outcome.document is not None:
            state = outcome.document.get("job", {}).get("state")
            if state in states:
                return outcome.document
        time.sleep(interval_s)
    return None


def _injected() -> dict[str, int]:
    """This process's ``faultplane.injected.*`` counters, per point."""
    return {point: int(observe.counter_value(f"faultplane.injected.{point}"))
            for point in CATALOG}


def _sweep_leg(seed: int, config: CampaignConfig, seed_dir: Path,
               result: SeedResult) -> None:
    """Baseline sweep, then the same grid under the seed's sweep plan."""

    def sweep(name: str, **knobs: Any):
        return run_sweep(SweepConfig(
            workloads=(config.workload,), deadline_fracs=config.traffic_fracs,
            jobs=SWEEP_JOBS, cache_dir=str(seed_dir / "sweep-cache"),
            output_dir=str(seed_dir / name), **knobs))

    baseline = sweep("sweep-baseline")
    if not baseline.ok:
        result.violations.append(
            f"sweep leg: baseline failed before any fault was injected: "
            f"{[r['experiment'] for r in baseline.failures]}")
        return
    baseline_rows = {r["experiment"]: _canon(r)
                     for r in baseline.experiment_records}

    plan = FaultPlan.from_seed(seed, points=SWEEP_POINTS,
                               horizon=config.horizon)
    result.sweep_plan = json.loads(plan.to_json())
    # Hits are counted per worker, so one task can meet every worker's
    # worker.crash fires in turn; one attempt more always gets through.
    retries = SWEEP_JOBS * len(plan.schedule.get("worker.crash", ()))
    # Recording makes the workers ship their injection counters back.
    was_enabled = observe.enabled()
    observe.enable()
    before = _injected()
    faultplane.install(plan, env=True)
    try:
        faulted = sweep("sweep-faulted", retries=retries,
                        solver_budget_s=SWEEP_SOLVER_BUDGET_S)
    finally:
        faultplane.uninstall()
        after = _injected()
        if not was_enabled:
            observe.disable()
    result.sweep_fired = {point: after[point] - before[point]
                          for point in CATALOG if after[point] > before[point]}
    _merge_fired(result.fired, result.sweep_fired)
    result.quarantined = faulted.cache_stats.get("quarantined", 0)

    if faulted.interrupted or len(faulted.results) < len(faulted.graph.tasks):
        result.violations.append(
            f"sweep leg: faulted sweep did not complete: "
            f"{len(faulted.results)}/{len(faulted.graph.tasks)} tasks")
    degraded = {eid for tid in faulted.degraded_tasks
                for eid in faulted.graph.tasks[tid].experiments}
    for row in faulted.experiment_records:
        eid = row["experiment"]
        if row["status"] in ("failed", "verify_failed"):
            result.violations.append(
                f"sweep leg: {eid} leaked a {row['status']} row")
        elif eid not in degraded and _canon(row) != baseline_rows.get(eid):
            result.violations.append(
                f"sweep leg: {eid} drifted from the baseline")
    corrupted = result.sweep_fired.get("cache.read.corrupt", 0)
    if result.quarantined < corrupted:
        result.violations.append(
            f"sweep leg: {result.quarantined} of {corrupted} corrupted "
            f"cache reads quarantined")
    audit = verify_store(ArtifactStore(seed_dir / "sweep-cache"),
                         quarantine=False)
    if not audit.ok:
        result.violations.append(
            f"sweep leg: store still corrupt afterwards: {audit.summary}")


def _worker_kill_leg(client: ReproClient, config: CampaignConfig,
                     reference: dict[float, list[str]], result: SeedResult,
                     record: Callable[[Any], None],
                     log: Callable[[str], None]) -> None:
    """SIGKILL the server's workers under a running victim, then probe."""
    victim_frac, probe_frac = CRASH_FRACS

    def health() -> dict[str, Any]:
        outcome = client.get_json("/healthz")
        if outcome.status != 200 or outcome.document is None:
            result.violations.append(
                f"worker-kill leg: /healthz answered {outcome.status}")
            return {}
        return outcome.document

    def crashes() -> int:
        document = client.get_json("/v1/metrics").document or {}
        return int(document.get("counters", {})
                   .get("executor.worker_crashes", 0))

    respawns_before = health().get("pool", {}).get("respawns", 0)
    crashes_before = crashes()
    outcome = client.submit({"workload": config.workload,
                             "deadline_frac": victim_frac})
    record(outcome)
    if outcome.status not in (200, 202):
        result.violations.append(
            f"worker-kill leg: victim submit status {outcome.status}")
        return
    victim_id = _job_id_for(config.workload, victim_frac)
    seen = _poll_job(client, victim_id, ("running", "done", "failed"),
                     config.poll_timeout_s, interval_s=0.01) or {}
    pids = health().get("pool", {}).get("pids", [])
    if not pids:
        result.violations.append("worker-kill leg: /healthz listed no "
                                 "worker pids to kill")
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already gone
    log(f"seed {result.seed}: killed workers {pids} while the victim was "
        f"{seen.get('job', {}).get('state')}")

    document = _poll_job(client, victim_id, ("done", "failed"),
                         config.poll_timeout_s)
    if document is None:
        result.violations.append(
            "worker-kill leg: victim never reached a terminal state")
    else:
        job = document.get("job", {})
        result.victim_state = job.get("state")
        if result.victim_state == "done":
            bad = [row for row in document.get("results", [])
                   if row.get("status") != "ok"]
            if bad:
                result.violations.append(
                    f"worker-kill leg: victim served {len(bad)} "
                    f"unverified row(s)")
        elif not job.get("error"):
            result.violations.append(
                "worker-kill leg: victim failed without a structured error")

    probe = client.submit({"workload": config.workload,
                           "deadline_frac": probe_frac, "wait": True})
    record(probe)
    if not probe.ok or probe.document is None:
        result.violations.append(
            f"worker-kill leg: probe final status {probe.status} "
            f"({probe.error or 'no body'})")
    else:
        _check_rows(probe.document, reference[probe_frac],
                    f"worker-kill leg: probe frac={probe_frac}",
                    result.violations)
    result.respawns = (health().get("pool", {}).get("respawns", 0)
                       - respawns_before)
    if not result.respawns and crashes() <= crashes_before:
        result.violations.append(
            "worker-kill leg: no respawn or worker crash recorded; "
            "the kill never landed")


def _torn_journal_check(seed: int, scratch: Path,
                        result: SeedResult) -> None:
    """The journal.torn leg: tear an append, prove recovery stays clean."""
    # Hit 4 is the admit of the second job: header(1), admit A(2),
    # finish A(3), admit B(4) — so everything recorded before the tear
    # must survive and nothing after it may turn to garbage.
    faultplane.install(FaultPlan(seed=seed,
                                 schedule={"journal.torn": (4,)}))
    try:
        store = JobStore(scratch)
        store.start()
        parsed_a = protocol.parse_request({"workload": "adpcm",
                                           "deadline_frac": 0.5})
        parsed_b = protocol.parse_request({"workload": "adpcm",
                                           "deadline_frac": 0.7})
        store.admit(parsed_a.request_key, parsed_a.job_id, "anon",
                    parsed_a.canonical)
        store.finished(parsed_a.request_key, "done",
                       result={"request": parsed_a.canonical, "results": []})
        store.admit(parsed_b.request_key, parsed_b.job_id, "anon",
                    parsed_b.canonical)  # torn mid-record
        store.finished(parsed_b.request_key, "done", result={})  # no-op: broken
        store.close()
    finally:
        faultplane.uninstall()
    if not store.broken:
        result.violations.append(
            "torn-journal check: the scheduled tear never fired")
        return
    _merge_fired(result.fired, {"journal.torn": 1})
    recovered = JobStore(scratch).load()
    job_a = recovered.get(parsed_a.request_key)
    if job_a is None or job_a.state != "done" or job_a.result is None:
        result.violations.append(
            "torn-journal check: a completed entry recorded before "
            "the tear was lost")
    job_b = recovered.get(parsed_b.request_key)
    if job_b is not None and job_b.state != "queued":
        result.violations.append(
            "torn-journal check: the torn record resurfaced with state "
            f"{job_b.state!r}")


def _run_seed(seed: int, config: CampaignConfig, out_dir: Path,
              reference: dict[float, list[str]],
              log: Callable[[str], None]) -> SeedResult:
    result = SeedResult(seed=seed)
    seed_dir = out_dir / f"seed-{seed}"
    _sweep_leg(seed, config, seed_dir, result)
    log(f"seed {seed}: sweep leg done (fired {result.sweep_fired}, "
        f"quarantined {result.quarantined})")

    plan = FaultPlan.from_seed(
        seed, points=[p for p in CATALOG if p != "journal.torn"],
        horizon=config.horizon)
    result.plan = json.loads(plan.to_json())
    cache_dir, store_dir = seed_dir / "cache", seed_dir / "jobs"
    env = dict(os.environ)
    env[faultplane.PLAN_ENV] = plan.to_json()
    policy = RetryPolicy(max_attempts=8, timeout_s=config.poll_timeout_s)

    def record(outcome) -> None:
        result.requests += 1
        result.retries += outcome.retries
        result.rejected += outcome.rejected

    server = _spawn_server(cache_dir, store_dir, env, resume=False,
                           timeout_s=config.spawn_timeout_s)
    metrics_a: dict[str, Any] | None = None
    try:
        client = ReproClient(server.host, server.port, policy=policy,
                             seed=seed)
        # Wait-mode traffic (with duplicates) under faults.
        for frac in config.traffic_fracs:
            for repeat in range(1 + config.duplicates):
                outcome = client.submit({"workload": config.workload,
                                         "deadline_frac": frac,
                                         "wait": True})
                record(outcome)
                label = f"traffic frac={frac} repeat={repeat}"
                if not outcome.ok or outcome.document is None:
                    result.violations.append(
                        f"{label}: final status {outcome.status} "
                        f"({outcome.error or 'no body'})")
                    continue
                _check_rows(outcome.document, reference[frac], label,
                            result.violations)
        log(f"seed {seed}: traffic done "
            f"({result.requests} requests, {result.retries} retries)")

        _worker_kill_leg(client, config, reference, result, record, log)
        log(f"seed {seed}: worker-kill leg done (victim "
            f"{result.victim_state}, {result.respawns} respawn(s))")

        # Kill->resume leg: put fresh jobs on the books, then SIGKILL.
        kill_running, kill_queued = config.kill_fracs[0], config.kill_fracs[1]
        for frac in (kill_running, kill_queued):
            outcome = client.submit({"workload": config.workload,
                                     "deadline_frac": frac})
            record(outcome)
            if outcome.status not in (200, 202):
                result.violations.append(
                    f"kill-phase submit frac={frac}: status {outcome.status}")
        running_id = _job_id_for(config.workload, kill_running)
        if _poll_job(client, running_id, ("running", "done"),
                     config.poll_timeout_s) is None:
            result.violations.append(
                "kill-phase job never reached running before the SIGKILL")
        metrics_a = (client.get_json("/v1/metrics").document or None)
        server.sigkill()
        log(f"seed {seed}: server SIGKILLed with jobs in flight")
    finally:
        server.ensure_dead()
    _merge_fired(result.fired, _fault_counters(metrics_a))

    # Resume and hold the durability contract to account.
    resumed = _spawn_server(cache_dir, store_dir, env, resume=True,
                            timeout_s=config.spawn_timeout_s)
    metrics_b: dict[str, Any] | None = None
    try:
        client = ReproClient(resumed.host, resumed.port, policy=policy,
                             seed=seed + 1)
        # Finished jobs must replay byte-identically, without a re-run.
        for frac in config.traffic_fracs:
            job_id = _job_id_for(config.workload, frac)
            document = _poll_job(client, job_id, ("done",), 10.0)
            if document is None:
                result.violations.append(
                    f"replayed job for frac={frac} not terminal after resume")
                continue
            _check_rows(document, reference[frac], f"replay frac={frac}",
                        result.violations)
        # Interrupted and queued jobs must re-run to a terminal state.
        for frac in config.kill_fracs:
            job_id = _job_id_for(config.workload, frac)
            document = _poll_job(client, job_id, ("done", "failed"),
                                 config.poll_timeout_s)
            if document is None:
                result.violations.append(
                    f"admitted job frac={frac} lost across kill->resume")
                continue
            if document.get("job", {}).get("state") != "done":
                result.violations.append(
                    f"recovered job frac={frac} finished as "
                    f"{document.get('job', {}).get('state')!r}")
                continue
            if frac in reference:
                _check_rows(document, reference[frac],
                            f"recovered frac={frac}", result.violations)
        metrics_b = (client.get_json("/v1/metrics").document or None)
        counters = (metrics_b or {}).get("counters", {})
        result.recovered = int(counters.get("serve.jobs.recovered", 0))
        result.replayed = int(counters.get("serve.jobs.replayed", 0))
        if result.replayed < 1:
            result.violations.append(
                "resume replayed no finished jobs (serve.jobs.replayed == 0)")
        if result.recovered < 1:
            result.violations.append(
                "resume recovered no pending jobs (serve.jobs.recovered == 0)")
        result.resume_drain_exit = resumed.drain()
        if result.resume_drain_exit != EXIT_OK:
            result.violations.append(
                f"resumed server drain exited "
                f"{result.resume_drain_exit}, want {EXIT_OK}")
        log(f"seed {seed}: resume verified (recovered {result.recovered}, "
            f"replayed {result.replayed})")
    finally:
        resumed.ensure_dead()
    _merge_fired(result.fired, _fault_counters(metrics_b))

    # The journal.torn check, in-process on a scratch store.
    _torn_journal_check(seed, seed_dir / "torn-check", result)
    return result


def run_campaign(config: CampaignConfig | None = None,
                 on_progress: Callable[[str], None] | None = None,
                 ) -> CampaignReport:
    """Run the full campaign; returns the report (not yet written)."""
    config = config or CampaignConfig()
    if len(config.kill_fracs) < 2:
        raise ServeError("campaign needs two kill_fracs "
                         "(one running, one queued at SIGKILL time)")
    fracs = config.traffic_fracs + CRASH_FRACS + config.kill_fracs
    if len(set(fracs)) != len(fracs):
        raise ServeError(f"campaign deadline points must be distinct, so "
                         f"every leg submits fresh jobs: {fracs}")
    log = on_progress or (lambda message: None)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The reference must run fault-free in-process.
    faultplane.uninstall()
    log(f"computing fault-free reference rows for {config.workload} "
        f"x {len(fracs)} deadlines")
    reference = reference_rows(config.workload, fracs)
    report = CampaignReport(config=config)
    for seed in range(config.seeds):
        log(f"seed {seed}: starting the sweep leg")
        report.seeds.append(
            _run_seed(seed, config, out_dir, reference, log))
    return report


__all__ = [
    "CAMPAIGN_FORMAT",
    "CampaignConfig",
    "CampaignReport",
    "SeedResult",
    "reference_rows",
    "run_campaign",
    "write_report",
]
