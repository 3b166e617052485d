"""Sharded conformance: committed goldens, replay, canary, diff pair."""

import pytest

from repro.conformance import GoldenTrace, replay
from repro.conformance.corpus import (
    corpus_specs,
    golden_path,
    shard_corpus_specs,
)
from repro.core.config import PaperConfig
from repro.shard import (
    CityConfig,
    capture_city,
    diff_shard,
)
from repro.shard.conformance import city_from_summary, shard_default_name


class TestShardCorpus:
    def test_single_region_corpus_unchanged(self):
        assert len(list(corpus_specs())) == 18

    def test_shard_specs_span_matrix(self):
        specs = list(shard_corpus_specs())
        assert len(specs) == 6
        names = {name for name, _, _ in specs}
        for algo in ("st", "fst", "pulsesync"):
            for n in (32, 128):
                assert f"{algo}-shard2x2-clean-n{n}" in names

    def test_committed_shard_goldens_exist_and_intact(self, goldens_dir):
        for name, _, _ in shard_corpus_specs():
            path = golden_path(goldens_dir, name)
            assert path.exists(), name
            g = GoldenTrace.load(path)
            assert g.integrity_ok(), f"{name} content hash mismatch"
            assert g.config["tiles"] == [2, 2]
            assert g.events is None and g.events_elided

    def test_committed_shard_goldens_replay_clean(
        self, goldens_dir, update_goldens
    ):
        if update_goldens:
            from repro.shard import capture_city as _capture

            for name, city, algorithm in shard_corpus_specs():
                _capture(city, algorithm, name=name).save(
                    golden_path(goldens_dir, name)
                )
        diverged = []
        for name, _, _ in shard_corpus_specs():
            golden = GoldenTrace.load(golden_path(goldens_dir, name))
            _, div = replay(golden)  # dispatches on the tiles stamp
            if div is not None:
                diverged.append((name, div.describe()))
        assert not diverged, diverged


class TestShardGoldenRoundTrip:
    def test_city_config_round_trips_through_stamp(self):
        city = CityConfig(PaperConfig(n_devices=32, seed=5), 2, 2)
        g = capture_city(city, "st")
        rebuilt = city_from_summary(g.config)
        assert rebuilt.rows == 2 and rebuilt.cols == 2
        assert rebuilt.base.n_devices == 32
        assert rebuilt.base.seed == 5

    def test_default_name_encodes_tiling_and_faults(self):
        from repro.faults.plan import FaultConfig

        clean = CityConfig(PaperConfig(n_devices=32, seed=1), 2, 2)
        assert shard_default_name(clean, "fst") == "fst-shard2x2-clean-n32"
        faulted = CityConfig(
            PaperConfig(
                n_devices=32,
                seed=1,
                faults=FaultConfig.from_spec("crash=0.1"),
            ),
            2,
            2,
        )
        assert (
            shard_default_name(faulted, "st") == "st-shard2x2-faulted-n32"
        )

    def test_unknown_algorithm_rejected(self):
        city = CityConfig(PaperConfig(n_devices=32, seed=1), 2, 2)
        with pytest.raises(ValueError, match="algorithm"):
            capture_city(city, "dijkstra")


class TestShardCanary:
    """A tampered sharded golden must yield a *named* divergence — the
    CI canary greps for the location, not just a nonzero exit."""

    @pytest.fixture(scope="class")
    def golden(self, goldens_dir):
        return GoldenTrace.load(
            golden_path(goldens_dir, "st-shard2x2-clean-n32")
        )

    def test_tampered_phase_round_is_located(self, golden):
        doc = golden.doc()
        doc["phase_rounds"][2] = "deadbeefdeadbeef"
        _, div = replay(GoldenTrace.from_doc(doc))
        assert div is not None
        assert div.kind == "phase_round"
        assert div.round == 2
        assert "deadbeef" in str(div.expected)

    def test_tampered_shard_payload_is_located(self, golden):
        doc = golden.doc()
        doc["result"]["shards"][1]["payload_hash"] = "0" * 64
        _, div = replay(GoldenTrace.from_doc(doc))
        assert div is not None
        assert div.kind == "result"

    def test_tampered_halo_digest_is_located(self, golden):
        doc = golden.doc()
        doc["result"]["halo"]["digest"] = "f" * 64
        _, div = replay(GoldenTrace.from_doc(doc))
        assert div is not None
        assert div.kind == "result"


class TestDiffShardPair:
    def test_registered_in_diff_pairs(self):
        from repro.conformance.differential import DIFF_PAIRS

        assert "shard" in DIFF_PAIRS

    def test_diff_shard_passes_on_healthy_tree(self):
        out = diff_shard(
            PaperConfig(n_devices=32, seed=1), algorithms=("st",)
        )
        assert out.ok, out.divergence
        assert "sharded 2x2" in out.detail

    def test_diff_shard_runs_via_registry(self):
        from repro.conformance.differential import run_pairs

        (out,) = run_pairs(
            PaperConfig(n_devices=16, seed=1), names=("shard",)
        )
        assert out.pair == "sharded-vs-single"
        assert out.ok, out.divergence
