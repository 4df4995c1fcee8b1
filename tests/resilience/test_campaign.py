"""Chaos-campaign tests: report mechanics, the torn-journal leg, and a
single-seed end-to-end smoke against real subprocess servers."""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.resilience import EXIT_DEGRADED, EXIT_FAILURE, EXIT_OK, faultplane
from repro.resilience.campaign import (
    CampaignConfig,
    CampaignReport,
    SeedResult,
    _spawn_server,
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
        assert document["summary"].startswith("chaos campaign")


class TestTornJournalLeg:
    def test_detects_clean_recovery(self, tmp_path):
        result = SeedResult(seed=0)
        _torn_journal_check(0, tmp_path / "torn", result)
        assert result.violations == []
        assert result.fired.get("journal.torn") == 1
        # And the harness plan did not leak into this process.
        assert faultplane.active_plan() is None

    def test_reference_rows_are_deterministic(self):
        once = reference_rows("adpcm", (0.5,))
        twice = reference_rows("adpcm", (0.5,))
        assert once == twice
        assert once[0.5]  # non-empty, canonical JSON strings
        assert all(isinstance(row, str) for row in once[0.5])


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
