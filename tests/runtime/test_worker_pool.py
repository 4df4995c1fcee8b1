"""The persistent warm worker pool: reuse, crash recovery, hygiene."""

import os
import signal
import threading
import time

from repro import observe
from repro.runtime import dag
from repro.runtime.executor import ExecutorConfig, WorkerPool, run_graph
from repro.runtime.dag import ExperimentSpec, Task, TaskGraph, build_task_graph


def small_graph(frac: float):
    return build_task_graph([ExperimentSpec(workload="adpcm",
                                            deadline_frac=frac)])


class TestWarmPool:
    def test_warm_up_forks_distinct_workers(self):
        with WorkerPool(2) as pool:
            pids = pool.warm_up()
            assert len(pids) == 2
            assert os.getpid() not in pids
            assert pool.worker_pids() == pids

    def test_workers_persist_across_submits(self):
        with WorkerPool(1) as pool:
            first = pool.warm_up()
            second = pool.warm_up()
            assert first == second  # same process, kept warm

    def test_close_is_idempotent(self):
        pool = WorkerPool(1)
        pool.warm_up()
        pool.close()
        pool.close()

    def test_run_graph_borrows_but_never_closes_the_pool(self):
        with WorkerPool(2) as pool:
            pids = pool.warm_up()
            results = run_graph(small_graph(0.5), store=None,
                                config=ExecutorConfig(jobs=2), pool=pool)
            assert all(r.ok for r in results.values())
            # The pool survived the run with the same warm workers.
            assert pool.warm_up() == pids


class TestCrashRecovery:
    def test_killed_workers_respawn_and_the_run_completes(self):
        was_enabled = observe.enabled()
        if not was_enabled:
            observe.enable()
        before = observe.counter_value("executor.pool.respawns")
        with WorkerPool(2) as pool:
            pids = pool.warm_up()
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            # retries=1 gives the respawned pool one shot per task.
            results = run_graph(small_graph(0.5), store=None,
                                config=ExecutorConfig(jobs=2, retries=1),
                                pool=pool)
            assert all(r.ok for r in results.values()), {
                t: r.error for t, r in results.items() if not r.ok}
            fresh = pool.warm_up()
            assert not set(fresh) & set(pids)
        assert observe.counter_value("executor.pool.respawns") > before
        if not was_enabled:
            observe.disable()

    def test_reset_discards_and_respawns(self):
        with WorkerPool(1) as pool:
            before = pool.warm_up()
            pool.reset()
            after = pool.warm_up()
            assert before != after


def _slow_compile(spec, deps):
    time.sleep(0.3)
    return {"workload": spec["workload"]}


class TestClose:
    def test_queued_task_cancelled_by_close_does_not_strand_run_graph(
            self, monkeypatch):
        """A pool closed mid-run cancels the tasks still queued in it; the
        graph run must see those cancellations and return, not wait
        forever on a future no worker will ever pick up."""
        # Fork-started workers inherit the patched task table.
        monkeypatch.setitem(dag._TASK_FNS, "compile", _slow_compile)
        tasks = {
            f"compile:{i}": Task(f"compile:{i}", "compile", {"workload": str(i)})
            for i in range(5)
        }
        graph = TaskGraph(tasks=tasks, experiments=[])
        pool = WorkerPool(1)
        pool.warm_up()
        outcome: dict = {}

        def run() -> None:
            try:
                outcome["results"] = run_graph(
                    graph, config=ExecutorConfig(jobs=5, retries=0), pool=pool)
            except Exception as error:  # noqa: BLE001 - reported below
                outcome["error"] = error

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        time.sleep(0.15)  # one task running, the rest queued in the pool
        pool.close()
        runner.join(10.0)
        assert not runner.is_alive(), "run_graph stranded by a cancelled task"
        assert "error" not in outcome, outcome.get("error")
        statuses = [r.status for r in outcome["results"].values()]
        assert "failed" in statuses  # the cancelled ones
        assert "ok" in statuses  # the one already running finished
