"""Shard parity: sharded execution == standalone single-region runs.

The sharding tier's core contract (docs/sharding.md): every shard of a
city is an ordinary single-region scenario —
:meth:`~repro.shard.tiling.CityConfig.shard_config` — and running the
city produces, shard for shard, exactly the documents a standalone run
of those configs produces: results, tree edges, fault counters, phase
digests and per-kind message bills, clean and faulted, across tilings
and populations, with `InvariantChecker` active on every run.
"""

import numpy as np
import pytest

from repro.conformance.canonical import combine_hashes, hash_array
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.st import STSimulation
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultConfig
from repro.shard import CityConfig, run_city
from repro.shard.conformance import capture_city_parts
from repro.shard.conformance import capture_city

FAULT_SPEC = (
    "beacon_loss=0.05,ps_loss=0.02,crash=0.1,collision=0.1,crash_window_ms=3000"
)
TILINGS = ((1, 1), (2, 2), (3, 3))
SIZES = (128, 512, 2048)


def _standalone_st(config: PaperConfig) -> dict:
    """Exactly the fast-mode per-shard document run_city produces."""
    phase_rounds: list[str] = []

    def phase_hook(_instant, _t, phases) -> None:
        phase_rounds.append(hash_array(phases))

    run = STSimulation(
        D2DNetwork(config),
        invariants=InvariantChecker(),
        phase_hook=phase_hook,
    ).run()
    return {
        "result": {
            "converged": run.converged,
            "time_ms": run.time_ms,
            "messages": run.messages,
            "tree_edges": [list(e) for e in run.tree_edges],
            "extra": dict(run.extra),
        },
        "bill": dict(run.message_breakdown),
        "phase_rounds": phase_rounds,
        "phase_stream_hash": combine_hashes(phase_rounds),
    }


def _city(n: int, tiles: tuple[int, int], faulted: bool) -> CityConfig:
    faults = FaultConfig.from_spec(FAULT_SPEC) if faulted else None
    return CityConfig(
        PaperConfig(n_devices=n, seed=1, faults=faults), *tiles
    )


class TestShardedEqualsStandalone:
    @pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
    @pytest.mark.parametrize("tiles", TILINGS, ids=("1x1", "2x2", "3x3"))
    @pytest.mark.parametrize("n", SIZES)
    def test_seed_for_seed_parity(self, n, tiles, faulted):
        city = _city(n, tiles, faulted)
        res = run_city(city, algorithms=("st",), check_invariants=True)

        total_bill: dict[str, int] = {}
        total_messages = 0
        injected = 0
        for shard_id, shard in enumerate(res.shards):
            want = _standalone_st(city.shard_config(shard_id))
            got = shard["runs"]["st"]
            assert got["result"] == want["result"], (
                f"shard {shard_id} result diverged from standalone run"
            )
            assert got["bill"] == want["bill"], (
                f"shard {shard_id} message bill diverged"
            )
            assert got["phase_rounds"] == want["phase_rounds"], (
                f"shard {shard_id} phase digests diverged"
            )
            assert got["phase_stream_hash"] == want["phase_stream_hash"]
            total_messages += want["result"]["messages"]
            injected += want["result"]["extra"].get("faults_injected", 0)
            for kind, count in want["bill"].items():
                total_bill[kind] = total_bill.get(kind, 0) + count

        assert res.bill["st"] == dict(sorted(total_bill.items()))
        assert res.messages == total_messages + res.halo["messages"]
        if faulted:
            assert injected >= 1, "faulted city injected nothing"
        else:
            assert injected == 0

    def test_fst_parity_small(self):
        """Both fast-path algorithms ride the same per-shard contract."""
        from repro.core.fst import FSTSimulation

        city = _city(128, (2, 2), False)
        res = run_city(city, algorithms=("st", "fst"))
        for shard_id, shard in enumerate(res.shards):
            cfg = city.shard_config(shard_id)
            run = FSTSimulation(
                D2DNetwork(cfg), invariants=InvariantChecker()
            ).run()
            got = shard["runs"]["fst"]["result"]
            assert got["messages"] == run.messages
            assert got["tree_edges"] == [list(e) for e in run.tree_edges]
            assert shard["runs"]["fst"]["bill"] == dict(run.message_breakdown)


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self):
        city = _city(512, (2, 2), True)
        a = run_city(city, algorithms=("st",))
        b = run_city(city, algorithms=("st",))
        assert a.canonical() == b.canonical()
        assert a.content_hash == b.content_hash

    def test_pool_equals_inline(self):
        """Reassembly contract: worker count never changes content."""
        city = _city(512, (3, 3), False)
        inline = run_city(city, algorithms=("st",), workers=1)
        pooled = run_city(city, algorithms=("st",), workers=3)
        assert inline.canonical() == pooled.canonical()

    def test_shard_seeds_are_distinct_and_stable(self):
        city = _city(128, (3, 3), False)
        seeds = [cfg.seed for cfg in city.shard_configs()]
        assert len(set(seeds)) == city.count
        assert seeds == [cfg.seed for cfg in city.shard_configs()]


class TestBackendBitwiseIdentity:
    """Acceptance: n=2048 over 2×2 — phase digests, fragment merges and
    message bills per shard identical to the standalone single-region
    captures."""

    # payload sections a sharded golden must reproduce exactly
    _SECTIONS = (
        "event_counts",
        "event_hash",
        "phase_rounds",
        "phase_stream_hash",
        "merges",
        "bill",
        "result",
    )

    def test_shards_equal_standalone_captures(self):
        from repro.conformance.golden import capture_run

        city = CityConfig(PaperConfig(n_devices=2048, seed=1), 2, 2)
        _, shard_docs = capture_city_parts(city, "st")
        for shard_id, doc in enumerate(shard_docs):
            standalone = capture_run(city.shard_config(shard_id), "st").doc()
            for section in self._SECTIONS:
                assert doc[section] == standalone[section], (
                    f"shard {shard_id} {section} diverged from the "
                    "equivalent single-region capture"
                )


class TestObservability:
    def test_merged_snapshot_covers_every_shard(self):
        city = _city(128, (2, 2), False)
        res = run_city(city, algorithms=("st",), collect_obs=True)
        assert len(res.worker_snapshots) == city.count
        assert res.merged_obs is not None
        assert res.merged_obs["workers"] == list(range(city.count))
        registry = res.merged_registry()
        runs = registry.get("shard_runs_total")
        assert runs is not None and runs.total() == city.count
        messages = registry.get("messages_total")
        assert messages is not None and messages.total() > 0

    def test_obs_dir_bundle_layout(self, tmp_path):
        from repro.obs.aggregate import merge_snapshots, read_snapshot

        city = _city(128, (2, 2), False)
        run_city(city, algorithms=("st",), obs_dir=tmp_path)
        workers = sorted(tmp_path.glob("worker_*.json"))
        assert len(workers) == city.count
        merged = read_snapshot(tmp_path / "merged.json")
        remerged = merge_snapshots(read_snapshot(p) for p in workers)
        assert merged == remerged


class TestHaloLinks:
    def test_links_returned_below_threshold(self):
        city = _city(128, (2, 2), False)
        res = run_city(city, algorithms=("st",))
        assert set(res.halo_links) == set(range(city.count))
        total = sum(gi.size for gi, _, _ in res.halo_links.values())
        assert total == res.halo["links"]
        for gi, gj, power in res.halo_links.values():
            assert np.all(gi < gj)
            assert np.all(power >= city.base.threshold_dbm)

    def test_links_suppressed_when_requested(self):
        city = _city(128, (2, 2), False)
        res = run_city(city, algorithms=("st",), return_links=False)
        assert res.halo_links == {}
        assert res.halo["links"] >= 0


def test_capture_city_faulted_matrix():
    """Sharded captures stay deterministic under an active fault plan."""
    city = _city(128, (2, 2), True)
    a = capture_city(city, "st")
    b = capture_city(city, "st")
    assert a.content_hash == b.content_hash
    assert a.name == "st-shard2x2-faulted-n128"
