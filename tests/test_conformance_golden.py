"""Golden-trace corpus: capture, replay, integrity, bill regression."""

import json

import pytest

from repro.conformance import (
    GoldenTrace,
    capture_run,
    config_from_summary,
    load_bills,
    record_corpus,
    replay,
    verify_corpus,
)
from repro.conformance.corpus import (
    BILL_SIZES,
    CORPUS_SIZES,
    corpus_specs,
    golden_path,
)
from repro.core.config import PaperConfig


class TestCapture:
    def test_capture_has_all_sections(self):
        g = capture_run(PaperConfig(n_devices=12, seed=1), "st")
        assert g.events, "trace retention must capture events"
        assert g.phase_rounds, "phase hook must record per-round digests"
        assert g.event_counts and g.event_hash and g.content_hash
        assert g.bill and g.result["converged"]

    def test_capture_is_deterministic(self):
        cfg = PaperConfig(n_devices=12, seed=2)
        a = capture_run(cfg, "fst")
        b = capture_run(cfg, "fst")
        assert a.content_hash == b.content_hash
        assert a.doc() == b.doc()

    def test_pulsesync_capture(self):
        g = capture_run(PaperConfig(n_devices=12, seed=3), "pulsesync")
        assert g.bill.get("sync_pulse", 0) > 0
        assert g.result["converged"]
        assert g.phase_rounds

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            capture_run(PaperConfig(n_devices=8, seed=1), "dijkstra")

    def test_config_round_trips_through_summary(self):
        cfg = PaperConfig(n_devices=16, seed=4)
        g = capture_run(cfg, "st")
        rebuilt = config_from_summary(g.config)
        assert rebuilt == cfg


class TestGoldenFile:
    def test_save_load_round_trip(self, tmp_path):
        g = capture_run(PaperConfig(n_devices=8, seed=1), "st")
        path = g.save(tmp_path / "g.json")
        loaded = GoldenTrace.load(path)
        assert loaded.doc() == g.doc()
        assert loaded.integrity_ok()

    def test_edited_file_fails_integrity(self, tmp_path):
        g = capture_run(PaperConfig(n_devices=8, seed=1), "st")
        path = g.save(tmp_path / "g.json")
        doc = json.loads(path.read_text())
        doc["bill"]["discovery"] += 1
        path.write_text(json.dumps(doc))
        assert not GoldenTrace.load(path).integrity_ok()

    def test_unknown_schema_rejected(self):
        g = capture_run(PaperConfig(n_devices=8, seed=1), "st")
        doc = g.doc()
        doc["schema"] = "repro.conformance/999"
        with pytest.raises(ValueError, match="schema"):
            GoldenTrace.from_doc(doc)


class TestReplay:
    def test_replay_matches(self):
        g = capture_run(PaperConfig(n_devices=12, seed=5), "st")
        _, div = replay(g)
        assert div is None

    def test_corrupted_golden_names_first_event(self):
        """The canary property: a tampered golden yields a divergence
        that names the exact event index and simulated time."""
        g = capture_run(PaperConfig(n_devices=12, seed=6), "st")
        doc = g.doc()
        doc["events"][3] = [doc["events"][3][0], "bogus", {"tampered": 1}]
        bad = GoldenTrace.from_doc(doc)
        _, div = replay(bad)
        assert div is not None
        assert div.kind == "event"
        assert div.round == 3
        assert "event[3]" in div.location
        assert "bogus" in str(div.expected)


class TestCommittedCorpus:
    def test_corpus_complete(self, goldens_dir):
        specs = list(corpus_specs())
        assert len(specs) == 18
        for name, _, _ in specs:
            assert golden_path(goldens_dir, name).exists(), name

    def test_corpus_integrity(self, goldens_dir):
        for name, _, _ in corpus_specs():
            g = GoldenTrace.load(golden_path(goldens_dir, name))
            assert g.integrity_ok(), f"{name} content hash mismatch"

    def test_corpus_replays_clean(self, goldens_dir, update_goldens):
        if update_goldens:
            record_corpus(goldens_dir)
        outcomes = verify_corpus(goldens_dir)
        diverged = [
            (name, div.describe())
            for name, div in outcomes
            if div is not None
        ]
        assert not diverged, diverged

    def test_corpus_spans_matrix(self, goldens_dir):
        names = {name for name, _, _ in corpus_specs()}
        for algo in ("st", "fst", "pulsesync"):
            for state in ("clean", "faulted"):
                for n in CORPUS_SIZES:
                    assert f"{algo}-sparse-{state}-n{n}" in names


class TestMessageBillRegression:
    """The committed per-kind bills at n ∈ {8, 32} are a regression
    fixture: any message-count drift in ST/FST must be deliberate
    (re-record with ``--update-goldens``)."""

    def test_bills_match_committed_fixture(self, goldens_dir, update_goldens):
        if update_goldens:
            record_corpus(goldens_dir)
        committed = load_bills(goldens_dir)
        assert committed, "bill fixture missing; run with --update-goldens"
        for name, config, algorithm in corpus_specs():
            if algorithm not in ("st", "fst"):
                continue
            if config.n_devices not in BILL_SIZES:
                continue
            fresh = capture_run(config, algorithm, name=name)
            assert dict(sorted(fresh.bill.items())) == committed[name], name

    def test_faulted_bills_include_repair_kind(self, goldens_dir):
        committed = load_bills(goldens_dir)
        faulted_st = [
            name
            for name in committed
            if name.startswith("st-") and "-faulted-" in name
        ]
        assert faulted_st
        for name in faulted_st:
            assert "repair" in committed[name], name
