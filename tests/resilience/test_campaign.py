"""Chaos-campaign tests: report mechanics, the sweep and torn-journal
legs, and a single-seed end-to-end smoke against real subprocess
servers."""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.resilience import EXIT_DEGRADED, EXIT_FAILURE, EXIT_OK, faultplane
from repro.resilience.campaign import (
    SWEEP_POINTS,
    CampaignConfig,
    CampaignReport,
    SeedResult,
    _spawn_server,
    _sweep_leg,
    _torn_journal_check,
    reference_rows,
    run_campaign,
    write_report,
)
from repro.resilience.faultplane import CATALOG


@pytest.fixture(autouse=True)
def _clean_plane():
    faultplane.uninstall()
    yield
    faultplane.uninstall()


def _report(**seed_kwargs) -> CampaignReport:
    report = CampaignReport(config=CampaignConfig(seeds=1))
    report.seeds.append(SeedResult(seed=0, **seed_kwargs))
    return report


class TestReport:
    def test_exit_ladder(self):
        assert _report().exit_code == EXIT_OK  # nothing fired: suspicious
        assert _report(fired={"io.slow": 2}).exit_code == EXIT_DEGRADED
        assert _report(fired={"io.slow": 2},
                       violations=["boom"]).exit_code == EXIT_FAILURE

    def test_points_merge_across_seeds(self):
        report = CampaignReport(config=CampaignConfig(seeds=2))
        report.seeds.append(SeedResult(seed=0, fired={"io.slow": 1}))
        report.seeds.append(SeedResult(seed=1, fired={"io.slow": 2,
                                                      "worker.crash": 1}))
        assert report.points_exercised == {"io.slow": 3, "worker.crash": 1}
        assert report.total_fires == 4

    def test_violations_carry_their_seed(self):
        report = _report(violations=["lost a job"])
        assert report.violations == ["seed 0: lost a job"]

    def test_document_is_machine_readable(self, tmp_path):
        report = _report(fired={"io.slow": 1}, requests=3, retries=2)
        path = write_report(report, tmp_path / "campaign.json")
        document = json.loads(path.read_text())
        assert document["exit_code"] == EXIT_DEGRADED
        assert document["points_total"] == len(CATALOG)
        assert document["seeds"][0]["fired"] == {"io.slow": 1}
        for key in ("sweep_fired", "quarantined", "victim_state", "respawns"):
            assert key in document["seeds"][0]
        assert document["summary"].startswith("chaos campaign")

    def test_deadline_points_must_be_fresh_per_leg(self, tmp_path):
        config = CampaignConfig(traffic_fracs=(0.5, 0.62),
                                output_dir=tmp_path)
        with pytest.raises(ServeError, match="distinct"):
            run_campaign(config)


class TestTornJournalLeg:
    def test_detects_clean_recovery(self, tmp_path):
        result = SeedResult(seed=0)
        _torn_journal_check(0, tmp_path / "torn", result)
        assert result.violations == []
        assert result.fired.get("journal.torn") == 1
        # And the harness plan did not leak into this process.
        assert faultplane.active_plan() is None

    def test_tear_that_never_fires_is_not_counted(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(faultplane, "torn_text",
                            lambda text, point="journal.torn": None)
        result = SeedResult(seed=0)
        _torn_journal_check(0, tmp_path / "torn", result)
        assert result.fired == {}
        assert result.violations == [
            "torn-journal check: the scheduled tear never fired"]

    def test_reference_rows_are_deterministic(self):
        once = reference_rows("adpcm", (0.5,))
        twice = reference_rows("adpcm", (0.5,))
        assert once == twice
        assert once[0.5]  # non-empty, canonical JSON strings
        assert all(isinstance(row, str) for row in once[0.5])


@pytest.mark.slow
class TestSweepLeg:
    def test_invariants_hold_under_injected_faults(self, tmp_path):
        result = SeedResult(seed=0)
        _sweep_leg(0, CampaignConfig(traffic_fracs=(0.5,)), tmp_path, result)
        assert result.violations == []
        # Seed 0 corrupts the first cache read; every damaged entry was
        # caught (the clean audit afterwards is a leg invariant).
        assert result.sweep_fired.get("cache.read.corrupt", 0) >= 1
        assert result.quarantined >= result.sweep_fired["cache.read.corrupt"]
        assert set(result.sweep_fired) <= set(SWEEP_POINTS)
        assert set(result.sweep_plan["schedule"]) == set(SWEEP_POINTS)
        assert result.fired == result.sweep_fired
        # The leg absorbed real faults, so the report must say so.
        report = CampaignReport(config=CampaignConfig(), seeds=[result])
        assert report.exit_code == EXIT_DEGRADED
        # Both sweeps left their artifacts behind.
        assert (tmp_path / "sweep-baseline" / "results.jsonl").exists()
        assert (tmp_path / "sweep-faulted" / "results.jsonl").exists()
        # The plan was exported for the workers and withdrawn afterwards.
        assert faultplane.active_plan() is None
        assert faultplane.PLAN_ENV not in os.environ


@pytest.mark.slow
def test_single_seed_campaign_end_to_end(tmp_path):
    """One full seed: faulted server, SIGKILL, resume, zero violations."""
    config = CampaignConfig(
        seeds=1,
        traffic_fracs=(0.5,),
        kill_fracs=(0.62, 0.81),
        duplicates=1,
        output_dir=tmp_path / "campaign",
    )
    report = run_campaign(config)
    assert report.violations == []
    assert report.exit_code == EXIT_DEGRADED  # faults fired and were absorbed
    seed = report.seeds[0]
    assert seed.requests >= 4
    assert seed.replayed >= 1
    assert seed.recovered >= 1
    assert seed.resume_drain_exit == EXIT_OK
    # Sweep leg: faults fired, every corrupted read was quarantined.
    assert seed.sweep_fired
    assert seed.quarantined >= seed.sweep_fired.get("cache.read.corrupt", 0)
    # Worker-kill leg: the victim ended terminal and the pool respawned.
    assert seed.victim_state in ("done", "failed")
    assert seed.respawns >= 1
    assert len(report.points_exercised) >= 5
    path = write_report(report, tmp_path / "campaign" / "campaign.json")
    assert json.loads(path.read_text())["violations"] == []


def _live_parents() -> dict[int, int]:
    """pid -> parent pid of every non-zombie process, read from /proc."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we looked
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":
            parents[int(entry)] = int(ppid)
    return parents


def _descendants(pid: int) -> set[int]:
    parents = _live_parents()
    found: set[int] = set()
    frontier = {pid}
    while frontier:
        frontier = {child for child, parent in parents.items()
                    if parent in frontier} - found
        found |= frontier
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="walks the process tree through /proc")
def test_ensure_dead_leaves_no_server_descendant(tmp_path):
    """The server's forked workers die with it, not just the server."""
    server = _spawn_server(tmp_path / "cache", tmp_path / "jobs",
                           dict(os.environ), resume=False, timeout_s=90.0)
    try:
        # The server warms its worker pool before it prints the
        # listening line, so the workers exist by now.
        workers = _descendants(server.proc.pid)
        assert workers
    finally:
        server.ensure_dead()
    deadline = time.monotonic() + 5.0
    while workers & set(_live_parents()) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not workers & set(_live_parents())
