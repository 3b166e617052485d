"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == {"complexity", "fig2", "fig3", "fig4", "table1"}


class TestSimulate:
    def test_both_algorithms(self, capsys):
        assert main(["simulate", "-n", "20", "--area", "50", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "ST n=20" in out and "FST n=20" in out
        assert "converged" in out

    def test_single_algorithm(self, capsys):
        assert main(["simulate", "-n", "20", "--area", "50", "--algorithm", "st"]) == 0
        out = capsys.readouterr().out
        assert "ST n=20" in out and "FST" not in out

    def test_breakdown_flag(self, capsys):
        assert main(
            ["simulate", "-n", "20", "--area", "50", "--algorithm", "st", "--breakdown"]
        ) == 0
        out = capsys.readouterr().out
        assert "handshake" in out and "discovery" in out


class TestSimulateFaults:
    def test_faults_flag_reports_injection(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "-n",
                    "32",
                    "--seed",
                    "3",
                    "--algorithm",
                    "st",
                    "--faults",
                    "crash=0.2,beacon_loss=0.05,crash_window_ms=2000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "faults: crash=0.2" in out
        assert "faults injected" in out

    def test_zero_fault_spec_matches_plain_run(self, capsys):
        argv = ["simulate", "-n", "20", "--area", "50", "--algorithm", "st"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--faults", "crash=0"]) == 0
        inert = capsys.readouterr().out
        assert plain == inert  # inactive plan prints no fault lines either

    def test_invalid_spec_is_a_usage_error(self, capsys):
        assert (
            main(["simulate", "-n", "20", "--faults", "warp_core_breach=1"]) == 2
        )
        err = capsys.readouterr().err
        assert "invalid --faults spec" in err
        assert "warp_core_breach" in err

    def test_non_numeric_value_is_a_usage_error(self, capsys):
        assert main(["simulate", "-n", "20", "--faults", "crash=lots"]) == 2
        assert "invalid --faults spec" in capsys.readouterr().err


class TestSimulateBackend:
    def test_unknown_backend_is_a_usage_error(self, capsys):
        """There is one execution path: ``--backend`` is not an option."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "-n", "20", "--backend", "cuda"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert "--backend" in err

    def test_no_subcommand_accepts_backend(self):
        import argparse

        from repro.cli import _build_parser

        def option_strings(parser):
            for action in parser._actions:
                yield from action.option_strings
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from option_strings(sub)

        options = set(option_strings(_build_parser()))
        assert "--faults" in options  # the walk does reach subcommands
        assert "--backend" not in options


class TestSimulateArtifacts:
    def test_trace_and_metrics_files(self, capsys, tmp_path):
        import json

        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "run.json"
        assert main(
            [
                "simulate", "-n", "20", "--area", "50", "--seed", "2",
                "--trace", str(trace), "--metrics", str(metrics),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "trace events" in out and "metrics snapshot" in out

        lines = trace.read_text().splitlines()
        assert lines
        docs = [json.loads(line) for line in lines]
        assert all("time" in d and "category" in d for d in docs)

        doc = json.loads(metrics.read_text())
        assert doc["schema"] == "repro.obs/1"
        assert doc["command"] == "simulate"
        assert "messages_total" in doc["metrics"]

    def test_metrics_totals_match_summary(self, capsys, tmp_path):
        """The exported counters equal the printed RunResult totals."""
        import json
        import re

        metrics = tmp_path / "run.json"
        assert main(
            [
                "simulate", "-n", "20", "--area", "50", "--seed", "2",
                "--metrics", str(metrics),
            ]
        ) == 0
        out = capsys.readouterr().out
        printed = {
            m.group(1).lower(): int(m.group(2))
            for m in re.finditer(r"(ST|FST) n=\d+ .*?with (\d+) messages", out)
        }
        doc = json.loads(metrics.read_text())
        samples = doc["metrics"]["messages_total"]["samples"]
        for algo, total in printed.items():
            exported = sum(
                s["value"]
                for s in samples
                if s["labels"]["algorithm"] == algo
            )
            assert exported == total


class TestSimulateLive:
    def test_live_prints_progress_lines_to_stderr(self, capsys):
        assert main(
            ["simulate", "-n", "20", "--area", "50", "--seed", "2", "--live"]
        ) == 0
        captured = capsys.readouterr()
        assert "[live]" in captured.err
        assert "[live]" not in captured.out

    def test_live_leaves_stdout_byte_identical(self, capsys):
        args = ["simulate", "-n", "20", "--area", "50", "--seed", "2"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main([*args, "--live"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain

    def test_faulted_run_reports_alerts(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "m.json"
        assert main(
            [
                "simulate", "-n", "48", "--seed", "2",
                "--algorithm", "fst",
                "--faults",
                "collision=0.6,beacon_loss=0.3,crash=0.1,crash_window_ms=4000",
                "--metrics", str(metrics),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "alerts:" in out and "critical" in out
        doc = json.loads(metrics.read_text())
        assert doc["alerts"]  # structured alert records in the artifact
        assert doc["telemetry"]["published"]

    def test_trace_write_failure_is_artifact_error(self, capsys, tmp_path):
        target = tmp_path / "dir-not-file"
        target.mkdir()
        assert main(
            [
                "simulate", "-n", "20", "--area", "50",
                "--trace", str(target),
            ]
        ) == 2
        assert "cannot write trace" in capsys.readouterr().err

    def test_metrics_write_failure_is_artifact_error(self, capsys, tmp_path):
        target = tmp_path / "dir-not-file"
        target.mkdir()
        assert main(
            [
                "simulate", "-n", "20", "--area", "50",
                "--metrics", str(target),
            ]
        ) == 2
        assert "cannot write metrics" in capsys.readouterr().err


class TestProfile:
    def test_profile_prints_span_tree(self, capsys):
        assert main(
            ["profile", "fig3", "--sizes", "20", "--seeds", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "experiment:fig3" in out
        assert "st_run" in out and "fst_run" in out
        assert "├─" in out or "└─" in out
        assert "ms" in out
        assert "messages_total by algorithm" in out

    def test_profile_metrics_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "profile.json"
        assert main(
            [
                "profile", "fig3", "--sizes", "20", "--seeds", "1",
                "--metrics", str(path),
            ]
        ) == 0
        doc = json.loads(path.read_text())
        assert doc["command"] == "profile"
        assert doc["spans"][0]["name"] == "experiment:fig3"

    def test_profile_json_span_tree_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "nested" / "spans.json"
        assert main(
            [
                "profile", "fig3", "--sizes", "20", "--seeds", "1",
                "--json", str(path),
            ]
        ) == 0
        assert "wrote span tree" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.obs/1"
        assert doc["command"] == "profile"
        assert doc["spans"][0]["name"] == "experiment:fig3"
        assert "messages_total" in doc

    def test_profile_json_unwritable_is_artifact_error(
        self, capsys, tmp_path
    ):
        target = tmp_path / "dir-not-file"
        target.mkdir()
        assert main(
            [
                "profile", "fig3", "--sizes", "20", "--seeds", "1",
                "--json", str(target),
            ]
        ) == 2
        assert "cannot write span tree" in capsys.readouterr().err

    def test_profile_prints_self_time_table(self, capsys):
        assert main(
            ["profile", "fig3", "--sizes", "20", "--seeds", "1", "--top", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-span profile" in out
        assert "self ms" in out

    def test_profile_folded_export(self, capsys, tmp_path):
        path = tmp_path / "nested" / "profile.folded"
        assert main(
            [
                "profile", "fig3", "--sizes", "20", "--seeds", "1",
                "--folded", str(path),
            ]
        ) == 0
        assert "wrote folded stacks" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            stack, micros = line.rsplit(" ", 1)
            assert stack.startswith("experiment:fig3")
            assert int(micros) >= 0

    def test_profile_folded_unwritable_is_artifact_error(
        self, capsys, tmp_path
    ):
        target = tmp_path / "dir-not-file"
        target.mkdir()
        assert main(
            [
                "profile", "fig3", "--sizes", "20", "--seeds", "1",
                "--folded", str(target),
            ]
        ) == 2
        assert "cannot write folded stacks" in capsys.readouterr().err


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "PASS" in out

    def test_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_fig3_with_custom_grid(self, capsys):
        assert main(
            ["experiment", "fig3", "--sizes", "20", "40", "--seeds", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out and "20" in out and "40" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestExportAndReport:
    def test_simulate_export_csv(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        assert main(
            [
                "simulate", "-n", "20", "--area", "50",
                "--algorithm", "st", "--export-csv", str(path),
            ]
        ) == 0
        assert path.exists()
        assert "algorithm" in path.read_text().splitlines()[0]

    def test_report_command(self, capsys, tmp_path, monkeypatch):
        import repro.experiments.report as report_mod

        monkeypatch.setattr(report_mod, "FAST_SIZES", (20, 40))
        monkeypatch.setattr(report_mod, "FAST_SEEDS", (1,))
        out = tmp_path / "REPORT.md"
        assert main(["report", "-o", str(out)]) == 0
        assert out.exists()
        assert "Reproduction report" in out.read_text()
        assert "all pass" in capsys.readouterr().out


class TestRunReportHtml:
    """``repro report --metrics ...`` renders the HTML run report."""

    def _artifacts(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        assert main(
            [
                "simulate", "-n", "20", "--area", "50", "--seed", "2",
                "--algorithm", "st",
                "--metrics", str(metrics), "--trace", str(trace),
            ]
        ) == 0
        capsys.readouterr()
        return metrics, trace

    def test_renders_html_from_artifacts(self, capsys, tmp_path):
        metrics, trace = self._artifacts(tmp_path, capsys)
        out = tmp_path / "report.html"
        assert main(
            [
                "report", "--metrics", str(metrics),
                "--trace", str(trace), "-o", str(out),
            ]
        ) == 0
        assert "wrote run report" in capsys.readouterr().out
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "Message bills" in html and "<svg" in html
        assert "http://" not in html and "https://" not in html

    def test_metrics_only_is_enough(self, capsys, tmp_path):
        metrics, _ = self._artifacts(tmp_path, capsys)
        out = tmp_path / "report.html"
        assert main(["report", "--metrics", str(metrics),
                     "-o", str(out)]) == 0
        assert out.exists()

    def test_unreadable_metrics_is_artifact_error(self, capsys, tmp_path):
        assert main(
            ["report", "--metrics", str(tmp_path / "missing.json")]
        ) == 2
        assert "cannot read metrics document" in capsys.readouterr().err

    def test_invalid_metrics_json_is_artifact_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", "--metrics", str(bad)]) == 2
        assert "cannot read metrics document" in capsys.readouterr().err

    def test_unwritable_output_is_artifact_error(self, capsys, tmp_path):
        metrics, _ = self._artifacts(tmp_path, capsys)
        target = tmp_path / "dir-not-file"
        target.mkdir()
        assert main(
            ["report", "--metrics", str(metrics), "-o", str(target)]
        ) == 2
        assert "cannot write report" in capsys.readouterr().err

    def test_trace_without_metrics_is_usage_error(self, capsys, tmp_path):
        assert main(["report", "--trace", str(tmp_path / "t.jsonl")]) == 2
        assert "--trace requires --metrics" in capsys.readouterr().err

    def test_history_without_metrics_is_usage_error(self, capsys, tmp_path):
        assert main(["report", "--history", str(tmp_path / "h.jsonl")]) == 2
        assert "--history requires --metrics" in capsys.readouterr().err

    def test_history_adds_trend_section(self, capsys, tmp_path):
        import json

        metrics, _ = self._artifacts(tmp_path, capsys)
        hist = tmp_path / "hist.jsonl"
        for wall in (1.0, 1.2):
            hist.open("a").write(
                json.dumps(
                    {
                        "schema": "repro.bench.history/1",
                        "bench": "scale",
                        "seq": 1 if wall == 1.0 else 2,
                        "label": "t",
                        "wall_time_s": wall,
                        "rows": [],
                        "budgets": [],
                    }
                )
                + "\n"
            )
        out = tmp_path / "report.html"
        assert main(
            [
                "report", "--metrics", str(metrics),
                "--history", str(hist), "-o", str(out),
            ]
        ) == 0
        html = out.read_text()
        assert "Benchmark trends" in html
        assert "http://" not in html and "https://" not in html


class TestTrend:
    """``repro trend``: record history points, render sparkline report."""

    def _bench_artifact(self, path, wall):
        import json

        path.write_text(
            json.dumps(
                {
                    "schema": "repro.bench/1",
                    "bench": "scale",
                    "wall_time_s": wall,
                    "metrics": {
                        "rows": [],
                        "budgets": [
                            {"name": "f", "value": 0.02, "limit": 0.05}
                        ],
                    },
                }
            )
        )

    def test_record_and_render(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        self._bench_artifact(results / "BENCH_scale.json", 1.0)
        hist = tmp_path / "hist.jsonl"
        out = tmp_path / "trend.html"
        argv = [
            "trend",
            "--baselines", str(tmp_path / "no-baselines"),
            "--results", str(results),
            "--history", str(hist),
            "-o", str(out),
        ]
        assert main(argv + ["--record", "--label", "first"]) == 0
        capsys.readouterr()
        self._bench_artifact(results / "BENCH_scale.json", 1.2)
        assert main(argv + ["--record", "--label", "second"]) == 0
        printed = capsys.readouterr().out
        assert "recorded scale seq 2 (second)" in printed
        assert "headroom +0.0300" in printed
        assert "wrote trend report" in printed
        html = out.read_text()
        assert "<svg" in html  # >= 2 points -> sparkline present
        assert "scale" in html
        assert "http://" not in html and "https://" not in html

    def test_no_sources_is_an_error(self, capsys, tmp_path):
        assert main(
            [
                "trend",
                "--baselines", str(tmp_path / "a"),
                "--results", str(tmp_path / "b"),
                "--history", str(tmp_path / "h.jsonl"),
                "-o", str(tmp_path / "t.html"),
            ]
        ) == 2
        assert "no benchmark artifacts" in capsys.readouterr().err

    def test_unwritable_output_is_artifact_error(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        self._bench_artifact(results / "BENCH_scale.json", 1.0)
        target = tmp_path / "dir-not-file"
        target.mkdir()
        assert main(
            [
                "trend",
                "--baselines", str(tmp_path / "none"),
                "--results", str(results),
                "--history", str(tmp_path / "h.jsonl"),
                "-o", str(target),
            ]
        ) == 2
        assert "cannot write trend report" in capsys.readouterr().err

    def test_corrupt_history_is_artifact_error(self, capsys, tmp_path):
        hist = tmp_path / "hist.jsonl"
        hist.write_text('{"schema": "other/1"}\n')
        assert main(
            [
                "trend",
                "--baselines", str(tmp_path / "none"),
                "--results", str(tmp_path / "none2"),
                "--history", str(hist),
                "-o", str(tmp_path / "t.html"),
            ]
        ) == 2
        assert "cannot assemble bench history" in capsys.readouterr().err


class TestParsing:
    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out
