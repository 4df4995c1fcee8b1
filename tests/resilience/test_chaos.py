"""Exit codes of a chaos run: a clean run exits 0, a run that absorbed
injected faults exits 3, and a run with any violated invariant exits 1.

The chaos campaign's report carries this ladder; these cases pin each
rung on its own, with the status its summary line reports."""

from repro.resilience import EXIT_DEGRADED, EXIT_FAILURE, EXIT_OK
from repro.resilience.campaign import CampaignConfig, CampaignReport, SeedResult


def _report(**seed_kwargs) -> CampaignReport:
    report = CampaignReport(config=CampaignConfig(seeds=1))
    report.seeds.append(SeedResult(seed=0, **seed_kwargs))
    return report


class TestExitCodes:
    def test_clean_report_exits_ok(self):
        report = _report()
        assert report.ok
        assert report.exit_code == EXIT_OK
        assert "campaign ok:" in report.summary

    def test_absorbed_faults_exit_degraded(self):
        report = _report(fired={"cache.read.corrupt": 2}, quarantined=2)
        assert report.ok
        assert report.exit_code == EXIT_DEGRADED
        assert "ok (faults absorbed)" in report.summary

    def test_violations_exit_failure(self):
        report = _report(fired={"io.slow": 1}, violations=["row drifted"])
        assert not report.ok
        assert report.exit_code == EXIT_FAILURE
        assert "FAILED" in report.summary
        assert report.violations == ["seed 0: row drifted"]
