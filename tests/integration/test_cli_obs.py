"""CLI-level observability: trace/metrics flags, profile, atomic output."""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.common.fileio import atomic_write_text
from repro.obs.replay import load_chrome, load_jsonl, replay_counters

_SMALL = ["--cores", "1", "--refs", "300", "--scale", "0.02", "--seed", "2"]


class TestTraceOut:
    def test_jsonl_trace_parses_and_replays(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = cli_main(["fig8", "--benchmarks", "gups",
                         "--trace-out", str(trace)] + _SMALL)
        assert code == 0
        events = load_jsonl(str(trace))       # schema-validates every event
        metas = [e for e in events if e["type"] == "run_meta"]
        # fig8 runs gups under pom/shared_l2/tsb; one run_meta splits each
        assert {m["scheme"] for m in metas} >= {"pom", "shared_l2", "tsb"}
        counters = replay_counters(events)
        assert counters["translations"] > 0

    def test_json_suffix_selects_chrome_format(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        code = cli_main(["fig9", "--benchmarks", "gups",
                         "--trace-out", str(trace)] + _SMALL)
        assert code == 0
        records = load_chrome(str(trace))
        assert records
        assert any(r.get("name") == "process_name" for r in records)

    def test_trace_sample_thins_the_trace(self, tmp_path, capsys):
        dense, sparse = tmp_path / "d.jsonl", tmp_path / "s.jsonl"
        cli_main(["fig9", "--benchmarks", "gups",
                  "--trace-out", str(dense)] + _SMALL)
        cli_main(["fig9", "--benchmarks", "gups",
                  "--trace-out", str(sparse), "--trace-sample", "50"]
                 + _SMALL)
        assert len(load_jsonl(str(sparse))) < len(load_jsonl(str(dense))) / 10

    def test_bad_sample_rejected(self, tmp_path, capsys):
        code = cli_main(["fig9", "--benchmarks", "gups",
                         "--trace-out", str(tmp_path / "t.jsonl"),
                         "--trace-sample", "0"] + _SMALL)
        assert code == 2
        assert "--trace-sample" in capsys.readouterr().err

    def test_unwritable_trace_path_rejected(self, capsys):
        code = cli_main(["fig9", "--benchmarks", "gups",
                         "--trace-out", "/nonexistent/t.jsonl"] + _SMALL)
        assert code == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_unwritable_output_path_rejected(self, capsys):
        code = cli_main(["fig4", "--output", "/nonexistent/r.txt"])
        assert code == 2
        assert "--output" in capsys.readouterr().err


class TestMetricsOut:
    def test_windowed_metrics_json(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        code = cli_main(["details", "--benchmarks", "gups",
                         "--metrics-out", str(metrics), "--window", "100"]
                        + _SMALL)
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["window"] == 100
        run = payload["runs"][0]
        assert run["benchmark"] == "gups"
        assert run["rows"]
        assert "avg_translation_cycles" in run["rows"][0]


class TestProfileCommand:
    def test_profile_renders_component_table(self, capsys):
        code = cli_main(["profile", "--benchmarks", "gups"] + _SMALL)
        assert code == 0
        out = capsys.readouterr().out
        assert "Profile: gups under pom" in out
        assert "mmu.translate" in out

    def test_profile_accepts_scheme(self, capsys):
        code = cli_main(["profile", "--benchmarks", "gups",
                         "--scheme", "baseline"] + _SMALL)
        assert code == 0
        assert "under baseline" in capsys.readouterr().out

    def test_profile_needs_one_benchmark(self, capsys):
        assert cli_main(["profile"] + _SMALL) == 2
        assert cli_main(["profile", "--benchmarks", "gups,mcf"] + _SMALL) == 2


class TestCampaignFlags:
    def test_campaign_bars_is_rejected_loudly(self, capsys):
        assert cli_main(["campaign", "--bars", "improvement"]) == 2
        assert "--bars" in capsys.readouterr().err

    def test_campaign_json_emits_report_array(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = cli_main(["campaign", "--json", "--benchmarks", "gups",
                         "--output", str(out)] + _SMALL)
        assert code == 0
        reports = json.loads(out.read_text())
        assert isinstance(reports, list) and len(reports) > 5
        titles = [r["title"] for r in reports]
        assert any("Figure 8" in t for t in titles)
        for report in reports:
            assert set(report) == {"title", "headers", "rows", "notes"}


class TestAtomicOutput:
    def test_report_written_atomically(self, tmp_path):
        out = tmp_path / "fig4.txt"
        assert cli_main(["fig4", "--output", str(out)]) == 0
        assert "Figure 4" in out.read_text()
        assert not (tmp_path / "fig4.txt.tmp").exists()

    def test_atomic_write_replaces_existing_content(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("old")
        atomic_write_text(str(path), "new")
        assert path.read_text() == "new"

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "r.txt"

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(str(path), "data")
        assert not path.exists()
        assert not (tmp_path / "r.txt.tmp").exists()

    def test_render_failure_creates_no_output_file(self, tmp_path):
        out = tmp_path / "fig4.txt"
        with pytest.raises(ValueError):
            cli_main(["fig4", "--bars", "nonexistent",
                      "--output", str(out)])
        assert not out.exists()
        assert not (tmp_path / "fig4.txt.tmp").exists()
