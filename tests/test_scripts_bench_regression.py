"""The bench-regression gate script, unit-tested."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_bench_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
check_bench_regression = importlib.util.module_from_spec(_spec)
sys.modules["check_bench_regression"] = check_bench_regression
_spec.loader.exec_module(check_bench_regression)


def _artifact(path: pathlib.Path, wall: float, rows=None) -> str:
    payload = {
        "schema": "repro.bench/1",
        "bench": "scale",
        "wall_time_s": wall,
        "metrics": {"rows": rows or []},
    }
    path.write_text(json.dumps(payload))
    return str(path)


def _row(n, wall):
    return {"n": n, "wall_s": wall}


class TestCompare:
    def test_within_tolerance_passes(self, tmp_path):
        cur = _artifact(tmp_path / "cur.json", 1.1, [_row(300, 1.1)])
        base = _artifact(tmp_path / "base.json", 1.0, [_row(300, 1.0)])
        assert (
            check_bench_regression.main(
                ["--current", cur, "--baseline", base, "--tolerance", "0.2"]
            )
            == 0
        )

    def test_overall_regression_fails(self, tmp_path):
        cur = _artifact(tmp_path / "cur.json", 2.0)
        base = _artifact(tmp_path / "base.json", 1.0)
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base]) == 1
        )

    def test_per_row_regression_fails_even_if_total_ok(self, tmp_path):
        cur = _artifact(
            tmp_path / "cur.json",
            1.0,
            [_row(300, 0.9), _row(800, 0.5)],
        )
        base = _artifact(
            tmp_path / "base.json",
            1.0,
            [_row(300, 0.3), _row(800, 0.7)],
        )
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base]) == 1
        )

    def test_speedup_never_fails(self, tmp_path):
        cur = _artifact(tmp_path / "cur.json", 0.1, [_row(300, 0.1)])
        base = _artifact(tmp_path / "base.json", 5.0, [_row(300, 5.0)])
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base]) == 0
        )

    def test_rows_only_in_one_side_ignored(self, tmp_path):
        cur = _artifact(tmp_path / "cur.json", 1.0, [_row(2000, 9.0)])
        base = _artifact(tmp_path / "base.json", 1.0, [_row(300, 0.1)])
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base]) == 0
        )


class TestEdgeCases:
    """Degenerate baselines must be loud skips, never silent passes."""

    def test_zero_baseline_wall_is_skipped_explicitly(self, tmp_path, capsys):
        cur = _artifact(tmp_path / "cur.json", 99.0)
        base = _artifact(tmp_path / "base.json", 0.0)
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base]) == 0
        )
        out = capsys.readouterr().out
        assert "wall_time_s: skipped" in out
        assert "not positive" in out

    def test_negative_baseline_row_is_skipped_explicitly(self, tmp_path, capsys):
        cur = _artifact(tmp_path / "cur.json", 1.0, [_row(300, 5.0)])
        base = _artifact(tmp_path / "base.json", 1.0, [_row(300, -0.5)])
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base]) == 0
        )
        out = capsys.readouterr().out
        assert "n=300: skipped" in out

    def test_missing_wall_key_is_reported(self, tmp_path, capsys):
        cur = tmp_path / "cur.json"
        cur.write_text(
            json.dumps({"schema": "repro.bench/1", "metrics": {"rows": []}})
        )
        base = _artifact(tmp_path / "base.json", 1.0)
        assert (
            check_bench_regression.main(
                ["--current", str(cur), "--baseline", base]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "skipped (missing from the current artifact)" in out

    def test_baseline_only_row_is_reported(self, tmp_path, capsys):
        cur = _artifact(tmp_path / "cur.json", 1.0, [])
        base = _artifact(tmp_path / "base.json", 1.0, [_row(800, 2.0)])
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base]) == 0
        )
        out = capsys.readouterr().out
        assert "n=800: skipped (no matching row" in out

    def test_zero_baseline_does_not_mask_real_row_regression(
        self, tmp_path, capsys
    ):
        cur = _artifact(
            tmp_path / "cur.json", 9.0, [_row(300, 9.0)]
        )
        base = _artifact(
            tmp_path / "base.json", 0.0, [_row(300, 1.0)]
        )
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base]) == 1
        )
        out = capsys.readouterr().out
        assert "wall_time_s: skipped" in out
        assert "REGRESSION" in out


class TestBudgets:
    """Artifact-carried budgets are hard ceilings, tolerance-free."""

    def _with_budgets(self, path, budgets):
        payload = {
            "schema": "repro.bench/1",
            "bench": "obs_overhead",
            "wall_time_s": 1.0,
            "metrics": {"rows": [], "budgets": budgets},
        }
        path.write_text(json.dumps(payload))
        return str(path)

    def test_budget_within_limit_passes(self, tmp_path, capsys):
        cur = self._with_budgets(
            tmp_path / "cur.json",
            [{"name": "obs_overhead_fraction", "value": 0.02, "limit": 0.05}],
        )
        base = _artifact(tmp_path / "base.json", 1.0)
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base])
            == 0
        )
        assert "budget obs_overhead_fraction" in capsys.readouterr().out

    def test_budget_violation_fails_despite_tolerance(self, tmp_path, capsys):
        cur = self._with_budgets(
            tmp_path / "cur.json",
            [{"name": "obs_overhead_fraction", "value": 0.07, "limit": 0.05}],
        )
        base = _artifact(tmp_path / "base.json", 1.0)
        assert (
            check_bench_regression.main(
                # huge tolerance must NOT excuse a budget breach
                ["--current", cur, "--baseline", base, "--tolerance", "9.0"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "BUDGET EXCEEDED" in out
        assert "budget violation" in out

    def test_malformed_budget_entry_fails(self, tmp_path):
        cur = self._with_budgets(
            tmp_path / "cur.json",
            [{"name": "broken", "value": "not-a-number", "limit": 0.05}],
        )
        base = _artifact(tmp_path / "base.json", 1.0)
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base])
            == 1
        )

    def test_budget_exactly_at_limit_passes(self, tmp_path):
        cur = self._with_budgets(
            tmp_path / "cur.json",
            [{"name": "x", "value": 0.05, "limit": 0.05}],
        )
        base = _artifact(tmp_path / "base.json", 1.0)
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base])
            == 0
        )

    def test_baseline_budgets_are_not_enforced(self, tmp_path):
        # budgets ride the *current* artifact; a stale baseline breach
        # must not fail a healthy run
        cur = _artifact(tmp_path / "cur.json", 1.0)
        base = self._with_budgets(
            tmp_path / "base.json",
            [{"name": "x", "value": 9.0, "limit": 0.05}],
        )
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base])
            == 0
        )


class TestHeadroom:
    """Every budget line prints its distance to failure."""

    def _with_budgets(self, path, budgets):
        payload = {
            "schema": "repro.bench/1",
            "bench": "obs_overhead",
            "wall_time_s": 1.0,
            "metrics": {"rows": [], "budgets": budgets},
        }
        path.write_text(json.dumps(payload))
        return str(path)

    def test_headroom_printed_for_passing_budget(self, tmp_path, capsys):
        cur = self._with_budgets(
            tmp_path / "cur.json",
            [{"name": "f", "value": 0.02, "limit": 0.05}],
        )
        base = _artifact(tmp_path / "base.json", 1.0)
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base])
            == 0
        )
        assert "headroom=+0.0300" in capsys.readouterr().out

    def test_exceeded_budget_reports_negative_headroom(self, tmp_path, capsys):
        cur = self._with_budgets(
            tmp_path / "cur.json",
            [{"name": "f", "value": 0.08, "limit": 0.05}],
        )
        base = _artifact(tmp_path / "base.json", 1.0)
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base])
            == 1
        )
        out = capsys.readouterr().out
        assert "headroom=-0.0300" in out
        # the failure summary carries the missed margin too
        assert "(headroom -0.0300)" in out


class TestHistory:
    """--history reads the JSONL trail; --append-history extends it."""

    def test_append_then_print(self, tmp_path, capsys):
        cur = _artifact(tmp_path / "cur.json", 1.0)
        hist = tmp_path / "hist.jsonl"
        assert (
            check_bench_regression.main(
                [
                    "--current", cur, "--baseline", cur,
                    "--history", str(hist),
                    "--append-history", "--history-label", "run-a",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "no recorded entries" in out  # first run sees empty history
        assert "recorded scale seq 1" in out
        assert (
            check_bench_regression.main(
                ["--current", cur, "--baseline", cur, "--history", str(hist)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "history for scale" in out
        assert "[run-a]" in out

    def test_seq_increments_per_bench(self, tmp_path):
        cur = _artifact(tmp_path / "cur.json", 1.0)
        hist = tmp_path / "hist.jsonl"
        for _ in range(2):
            check_bench_regression.main(
                [
                    "--current", cur, "--baseline", cur,
                    "--history", str(hist), "--append-history",
                ]
            )
        entries = [
            json.loads(line)
            for line in hist.read_text().splitlines()
            if line.strip()
        ]
        assert [e["seq"] for e in entries] == [1, 2]
        assert all(
            e["schema"] == "repro.bench.history/1" for e in entries
        )

    def test_history_trail_shows_headroom(self, tmp_path, capsys):
        cur = tmp_path / "cur.json"
        cur.write_text(
            json.dumps(
                {
                    "schema": "repro.bench/1",
                    "bench": "obs_overhead",
                    "wall_time_s": 1.0,
                    "metrics": {
                        "rows": [],
                        "budgets": [
                            {"name": "f", "value": 0.02, "limit": 0.05}
                        ],
                    },
                }
            )
        )
        hist = tmp_path / "hist.jsonl"
        check_bench_regression.main(
            [
                "--current", str(cur), "--baseline", str(cur),
                "--history", str(hist), "--append-history",
            ]
        )
        capsys.readouterr()
        check_bench_regression.main(
            ["--current", str(cur), "--baseline", str(cur),
             "--history", str(hist)]
        )
        assert "headroom=+0.0300 (f)" in capsys.readouterr().out

    def test_append_requires_history_path(self, tmp_path):
        cur = _artifact(tmp_path / "cur.json", 1.0)
        assert (
            check_bench_regression.main(
                ["--current", cur, "--baseline", cur, "--append-history"]
            )
            == 2
        )

    def test_corrupt_history_schema_is_usage_error(self, tmp_path):
        cur = _artifact(tmp_path / "cur.json", 1.0)
        hist = tmp_path / "hist.jsonl"
        hist.write_text(json.dumps({"schema": "other/1"}) + "\n")
        assert (
            check_bench_regression.main(
                ["--current", cur, "--baseline", cur, "--history", str(hist)]
            )
            == 2
        )

    def test_failing_run_still_appends(self, tmp_path):
        # the history is a record of what happened, not of what passed
        cur = _artifact(tmp_path / "cur.json", 9.0)
        base = _artifact(tmp_path / "base.json", 1.0)
        hist = tmp_path / "hist.jsonl"
        assert (
            check_bench_regression.main(
                [
                    "--current", cur, "--baseline", base,
                    "--history", str(hist), "--append-history",
                ]
            )
            == 1
        )
        assert hist.is_file()
        assert "scale" in hist.read_text()


class TestArtifactErrors:
    def test_missing_file(self, tmp_path):
        base = _artifact(tmp_path / "base.json", 1.0)
        assert (
            check_bench_regression.main(
                ["--current", str(tmp_path / "nope.json"), "--baseline", base]
            )
            == 2
        )

    def test_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/9"}))
        base = _artifact(tmp_path / "base.json", 1.0)
        assert (
            check_bench_regression.main(
                ["--current", str(bad), "--baseline", base]
            )
            == 2
        )

    def test_negative_tolerance(self, tmp_path):
        base = _artifact(tmp_path / "base.json", 1.0)
        assert (
            check_bench_regression.main(
                ["--current", base, "--baseline", base, "--tolerance", "-1"]
            )
            == 2
        )


def _layer_row(n, wall, layers):
    return {"n": n, "wall_s": wall, "layers": layers}


class TestLayers:
    """Per-layer lines are printed when both rows carry ``layers``, and
    never gate the run."""

    def test_shared_layers_print_current_vs_baseline(self, tmp_path, capsys):
        cur = _artifact(
            tmp_path / "cur.json",
            1.0,
            [_layer_row(300, 1.0, {"build.csr": 30.0, "merge_schedule": 5.0})],
        )
        base = _artifact(
            tmp_path / "base.json",
            1.0,
            [_layer_row(300, 1.0, {"build.csr": 20.0, "discovery": 7.0})],
        )
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base])
            == 0  # +50% on a layer is information, not a regression
        )
        out = capsys.readouterr().out
        assert (
            "n=300 layer build.csr: current=30.0ms baseline=20.0ms "
            "(+50.0% vs baseline)" in out
        )
        # layers present on one side only print nothing
        assert "merge_schedule" not in out and "discovery" not in out

    def test_no_layer_lines_without_baseline_layers(self, tmp_path, capsys):
        cur = _artifact(
            tmp_path / "cur.json", 1.0, [_layer_row(300, 1.0, {"build.csr": 3.0})]
        )
        base = _artifact(tmp_path / "base.json", 1.0, [_row(300, 1.0)])
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base])
            == 0
        )
        assert " layer " not in capsys.readouterr().out


def _tiles_row(n, tiles, wall):
    return {"n": n, "tiles": tiles, "wall_s": wall}


class TestTilesRows:
    """Merged multi-shard rows key on (n, tiles) independently."""

    def test_row_label_formats_tiles(self):
        label = check_bench_regression._row_label((800, "2x2", ""))
        assert label == "n=800 tiles=2x2"
        plain = check_bench_regression._row_label((800, "", ""))
        assert plain == "n=800"
        obs = check_bench_regression._row_label((512, "", "on"))
        assert obs == "n=512 obs=on"

    def test_tiles_row_regression_does_not_hide_behind_twin(
        self, tmp_path, capsys
    ):
        # the single-region twin is healthy; only the sharded row regressed
        cur = _artifact(
            tmp_path / "cur.json",
            1.0,
            [_row(800, 1.0), _tiles_row(800, "2x2", 5.0)],
        )
        base = _artifact(
            tmp_path / "base.json",
            1.0,
            [_row(800, 1.0), _tiles_row(800, "2x2", 1.0)],
        )
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base])
            == 1
        )
        out = capsys.readouterr().out
        assert "n=800 tiles=2x2" in out
        assert "n=800: current=1.000s" in out

    def test_current_only_tiles_row_is_ignored(self, tmp_path):
        # adding a sharded row before the baseline refresh must not fail
        cur = _artifact(
            tmp_path / "cur.json",
            1.0,
            [_row(800, 1.0), _tiles_row(800, "2x2", 9.0)],
        )
        base = _artifact(
            tmp_path / "base.json", 1.0, [_row(800, 1.0)]
        )
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base])
            == 0
        )

    def test_baseline_only_tiles_row_is_visible_skip(self, tmp_path, capsys):
        cur = _artifact(tmp_path / "cur.json", 1.0, [_row(800, 1.0)])
        base = _artifact(
            tmp_path / "base.json",
            1.0,
            [_row(800, 1.0), _tiles_row(800, "2x2", 1.0)],
        )
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base])
            == 0
        )
        out = capsys.readouterr().out
        assert "tiles=2x2: skipped (no matching row" in out

    def test_obs_variant_rows_key_independently(self, tmp_path, capsys):
        # the paired obs-off/obs-on rows share n; only obs=off regressed
        def obs_row(obs, wall):
            return {"n": 512, "obs": obs, "wall_s": wall}

        cur = _artifact(
            tmp_path / "cur.json", 1.0, [obs_row("off", 5.0), obs_row("on", 1.0)]
        )
        base = _artifact(
            tmp_path / "base.json", 1.0, [obs_row("off", 1.0), obs_row("on", 1.0)]
        )
        assert (
            check_bench_regression.main(["--current", cur, "--baseline", base])
            == 1
        )
        out = capsys.readouterr().out
        assert "n=512 obs=off: current=5.000s" in out
        assert "n=512 obs=on: current=1.000s" in out

    def test_shard_overhead_budget_is_enforced(self, tmp_path, capsys):
        payload = {
            "schema": "repro.bench/1",
            "bench": "scale",
            "wall_time_s": 1.0,
            "metrics": {
                "rows": [],
                "budgets": [
                    {"name": "shard_overhead_ratio", "value": 3.1, "limit": 2.5}
                ],
            },
        }
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(payload))
        base = _artifact(tmp_path / "base.json", 1.0)
        assert (
            check_bench_regression.main(
                ["--current", str(cur), "--baseline", base, "--tolerance", "9"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "budget shard_overhead_ratio" in out
        assert "BUDGET EXCEEDED" in out


class TestBundleVerification:
    """metrics.obs_bundle / --bundle-dir route through the obs readers."""

    @staticmethod
    def _make_bundle(directory, worker_ids=(0, 1, 2)):
        from repro.obs.aggregate import (
            merge_snapshots,
            worker_snapshot,
            write_snapshot,
        )
        from repro.obs.metrics import MetricsRegistry

        directory.mkdir(parents=True, exist_ok=True)
        snapshots = []
        for wid in worker_ids:
            reg = MetricsRegistry()
            reg.counter("shard_runs_total").inc(1)
            reg.counter("messages_total").inc(10 * (wid + 1))
            snap = worker_snapshot(reg, worker_id=wid)
            write_snapshot(snap, directory / f"worker_{wid:04d}.json")
            snapshots.append(snap)
        write_snapshot(merge_snapshots(snapshots), directory / "merged.json")
        return directory

    def test_consistent_bundle_passes(self, tmp_path, capsys):
        bundle = self._make_bundle(tmp_path / "obs")
        assert check_bench_regression.verify_bundle(bundle) == []
        out = capsys.readouterr().out
        assert "shards 0..2" in out
        assert "byte-identical" in out

    def test_bundle_dir_flag_gates_the_run(self, tmp_path):
        bundle = self._make_bundle(tmp_path / "obs")
        cur = _artifact(tmp_path / "cur.json", 1.0)
        assert (
            check_bench_regression.main(
                [
                    "--current", cur, "--baseline", cur,
                    "--bundle-dir", str(bundle),
                ]
            )
            == 0
        )
        # corrupt the committed merge: the run becomes an artifact error
        merged = bundle / "merged.json"
        doc = json.loads(merged.read_text())
        doc["metrics"]["messages_total"]["samples"][0]["value"] += 1
        merged.write_text(json.dumps(doc))
        assert (
            check_bench_regression.main(
                [
                    "--current", cur, "--baseline", cur,
                    "--bundle-dir", str(bundle),
                ]
            )
            == 2
        )

    def test_obs_bundle_key_is_auto_detected(self, tmp_path, capsys):
        self._make_bundle(tmp_path / "obs_city")
        payload = {
            "schema": "repro.bench/1",
            "bench": "city",
            "wall_time_s": 1.0,
            "metrics": {"rows": [], "obs_bundle": "obs_city"},
        }
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(payload))
        assert (
            check_bench_regression.main(
                ["--current", str(cur), "--baseline", str(cur)]
            )
            == 0
        )
        assert "worker snapshots" in capsys.readouterr().out

    def test_missing_workers_fail(self, tmp_path):
        empty = tmp_path / "obs"
        empty.mkdir()
        failures = check_bench_regression.verify_bundle(empty)
        assert failures and "no worker_*.json" in failures[0]

    def test_missing_merged_fails(self, tmp_path):
        bundle = self._make_bundle(tmp_path / "obs")
        (bundle / "merged.json").unlink()
        failures = check_bench_regression.verify_bundle(bundle)
        assert failures and "merged.json missing" in failures[0]

    def test_wrong_schema_worker_fails(self, tmp_path):
        bundle = self._make_bundle(tmp_path / "obs")
        (bundle / "worker_0001.json").write_text(
            json.dumps({"schema": "other/1"})
        )
        failures = check_bench_regression.verify_bundle(bundle)
        assert failures and "worker_0001.json" in failures[0]

    def test_run_city_bundle_round_trips(self, tmp_path):
        # the real producer: run_city(obs_dir=...) writes the layout the
        # checker verifies
        from repro.core.config import PaperConfig
        from repro.shard import CityConfig, run_city

        city = CityConfig(PaperConfig(n_devices=32, seed=1), 2, 2)
        run_city(city, algorithms=("st",), obs_dir=tmp_path / "bundle")
        assert check_bench_regression.verify_bundle(tmp_path / "bundle") == []


def test_committed_baseline_is_valid():
    baseline = (
        pathlib.Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "baselines"
        / "BENCH_scale.json"
    )
    data = json.loads(baseline.read_text())
    assert data["schema"] == "repro.bench/1"
    rows = data["metrics"]["rows"]
    assert rows and all("backend" not in r for r in rows)
    with pytest.raises(SystemExit):
        check_bench_regression.main([])  # usage error without args


def test_committed_obs_overhead_baseline_is_valid():
    baseline = (
        pathlib.Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "baselines"
        / "BENCH_obs_overhead.json"
    )
    data = json.loads(baseline.read_text())
    assert data["schema"] == "repro.bench/1"
    budgets = data["metrics"]["budgets"]
    assert budgets[0]["name"] == "obs_overhead_fraction"
    assert budgets[0]["value"] <= budgets[0]["limit"] == 0.05
    variants = {r["obs"] for r in data["metrics"]["rows"]}
    assert variants == {"off", "on"}
