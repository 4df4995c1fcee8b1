"""CLI surface of the observability layer: --version, --log-level,
``repro trace`` and ``repro stats``."""

from __future__ import annotations

import json
import logging

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def traced_outdir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-trace")
    out = tmp_path / "out"
    rc = main([
        "sweep", "--workloads", "adpcm", "--deadline-fracs", "0.5",
        "--cache-dir", str(tmp_path / "cache"),
        "--output-dir", str(out), "--trace",
    ])
    assert rc == 0
    return out


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()


class TestLogLevel:
    def test_flag_accepted_and_applied(self, capsys):
        assert main(["--log-level", "debug", "list"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_bad_level_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["--log-level", "shouty", "list"])


class TestSweepTraceFlag:
    def test_sweep_reports_trace_paths(self, traced_outdir, capsys):
        assert (traced_outdir / "trace.jsonl").exists()
        assert (traced_outdir / "metrics.json").exists()


class TestTraceCommand:
    def test_show_renders_the_span_tree(self, traced_outdir, capsys):
        assert main(["trace", "show", str(traced_outdir)]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out
        assert "worker.task" in out

    def test_show_respects_limit(self, traced_outdir, capsys):
        assert main(["trace", "show", str(traced_outdir), "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "more spans" in out

    def test_summarize_renders_the_table(self, traced_outdir, capsys):
        assert main(["trace", "summarize", str(traced_outdir)]) == 0
        out = capsys.readouterr().out
        assert "count" in out and "simulator.run" in out

    def test_summarize_by_kind_has_one_row_per_stage(self, traced_outdir,
                                                     capsys):
        assert main(["trace", "summarize", str(traced_outdir),
                     "--by", "kind"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        counts = {row.split()[0]: int(row.split()[1]) for row in rows}
        # One workload at one deadline: each stage runs once, and each
        # task has an executor span and a worker span.
        for kind in ("compile", "profile", "bound", "optimize", "simulate",
                     "verify"):
            assert counts[f"executor.task[kind={kind}]"] == 1
            assert counts[f"worker.task[kind={kind}]"] == 1
        assert len(counts) == 12

    def test_summarize_by_missing_attribute(self, traced_outdir, capsys):
        assert main(["trace", "summarize", str(traced_outdir),
                     "--by", "no-such-attr"]) == 0
        assert "no spans carry attribute" in capsys.readouterr().out

    def test_missing_dir_exits_2(self, tmp_path, capsys):
        assert main(["trace", "show", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_malformed_trace_exits_1(self, tmp_path, capsys):
        (tmp_path / "trace.jsonl").write_text('{"kind": "tra')
        assert main(["trace", "show", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_renders_sections(self, traced_outdir, capsys):
        assert main(["stats", str(traced_outdir)]) == 0
        out = capsys.readouterr().out
        assert "simulator" in out
        assert "solver" in out
        assert "executor" in out
        assert "hit rate" in out

    def test_stats_json_is_the_raw_document(self, traced_outdir, capsys):
        assert main(["stats", str(traced_outdir), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "counters" in document and "header" in document

    def test_missing_dir_exits_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err
