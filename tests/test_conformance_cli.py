"""The ``repro conformance`` CLI and simulate exit-code contract."""

import json
import shutil

import pytest

from repro.cli import main
from tests.conftest import GOLDENS_DIR


class TestSimulateExitCodes:
    """Invalid options / --faults exit 2 with a message, no traceback."""

    def test_invalid_backend_exits_2(self, capsys):
        # one execution path: --backend is an unknown option
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "-n", "12", "--backend", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "--backend" in err

    def test_invalid_faults_spec_exits_2(self, capsys):
        assert main(["simulate", "-n", "12", "--faults", "bogus=1"]) == 2
        assert "invalid --faults spec" in capsys.readouterr().err

    def test_malformed_faults_value_exits_2(self, capsys):
        assert main(["simulate", "-n", "12", "--faults", "crash=oops"]) == 2
        assert "invalid --faults spec" in capsys.readouterr().err


class TestConformanceRun:
    def test_committed_corpus_passes(self, capsys):
        rc = main(
            [
                "conformance",
                "run",
                "--goldens",
                str(GOLDENS_DIR),
                "--skip-relations",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        # 18 single-region + 6 sharded city goldens
        assert "24/24 checks passed" in out

    def test_corrupted_golden_exits_1_naming_the_event(self, capsys, tmp_path):
        corpus = tmp_path / "goldens"
        shutil.copytree(GOLDENS_DIR, corpus)
        victim = corpus / "st-sparse-clean-n8.json"
        doc = json.loads(victim.read_text())
        doc["events"][2][1] = "tampered"
        victim.write_text(json.dumps(doc))
        rc = main(
            ["conformance", "run", "--goldens", str(corpus), "--skip-relations"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "23/24 checks passed" in out
        assert "DIVERGENCE" in out
        assert "event[2]" in out
        assert "round/event : 2" in out

    def test_missing_golden_exits_1(self, capsys, tmp_path):
        corpus = tmp_path / "goldens"
        shutil.copytree(GOLDENS_DIR, corpus)
        (corpus / "fst-sparse-clean-n32.json").unlink()
        assert (
            main(
                [
                    "conformance",
                    "run",
                    "--goldens",
                    str(corpus),
                    "--skip-relations",
                ]
            )
            == 1
        )
        assert "<missing>" in capsys.readouterr().out


class TestConformanceRecord:
    def test_record_then_run_round_trips(self, capsys, tmp_path):
        corpus = tmp_path / "recorded"
        assert main(["conformance", "record", "--goldens", str(corpus)]) == 0
        # 18 single-region goldens + message_bills.json + 6 sharded
        assert "recorded 25 files" in capsys.readouterr().out
        assert (
            main(
                [
                    "conformance",
                    "run",
                    "--goldens",
                    str(corpus),
                    "--skip-relations",
                ]
            )
            == 0
        )


class TestConformanceDiff:
    @pytest.mark.parametrize("pair", ["boruvka", "ffa"])
    def test_single_pair_passes(self, capsys, pair):
        assert (
            main(["conformance", "diff", pair, "-n", "16", "--seed", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "1/1 checks passed" in out

    def test_unknown_pair_exits_2(self, capsys):
        assert main(["conformance", "diff", "bogus"]) == 2
        assert "unknown diff pair" in capsys.readouterr().err
