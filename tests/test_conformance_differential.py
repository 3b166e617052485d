"""Differential runners and first-divergence localization."""

import pytest

from repro.conformance import (
    capture_run,
    diff_boruvka_oracle,
    diff_fault_noop,
    diff_ffa,
    first_divergence,
    payload_hash,
    run_pairs,
)
from repro.conformance.report import render_summary
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.st import STSimulation
from repro.spanningtree.boruvka import distributed_boruvka
from repro.spanningtree.mst import maximum_spanning_tree
from tests.references import dense_mesh_sync


class TestFirstDivergence:
    """first_divergence must name the earliest diverging round/event."""

    @pytest.fixture()
    def doc(self):
        return capture_run(PaperConfig(n_devices=12, seed=1), "st").doc()

    def test_identical_docs_agree(self, doc):
        assert first_divergence(doc, dict(doc)) is None

    def test_event_edit_located_by_index_and_time(self, doc):
        other = dict(doc, events=[list(e) for e in doc["events"]])
        other["events"][4] = [doc["events"][4][0], "tampered", {}]
        div = first_divergence(doc, other)
        assert div.kind == "event" and div.round == 4
        assert div.time_ms == pytest.approx(doc["events"][4][0])

    def test_truncated_stream_reports_end(self, doc):
        other = dict(doc, events=doc["events"][:-2])
        div = first_divergence(doc, other)
        assert div.kind == "event"
        assert div.round == len(doc["events"]) - 2
        assert div.actual == "<end of stream>"

    def test_earliest_section_wins(self, doc):
        # corrupt both an event and the bill: the event must be reported
        other = dict(doc, events=[list(e) for e in doc["events"]])
        other["events"][2] = [doc["events"][2][0], "tampered", {}]
        other["bill"] = dict(doc["bill"], discovery=0)
        div = first_divergence(doc, other)
        assert div.kind == "event" and div.round == 2

    def test_phase_round_edit_located(self, doc):
        other = dict(doc, phase_rounds=list(doc["phase_rounds"]))
        other["phase_rounds"][0] = "0" * len(doc["phase_rounds"][0])
        div = first_divergence(doc, other)
        assert div.kind == "phase_round" and div.round == 0

    def test_bill_edit_located_by_kind(self, doc):
        other = dict(doc, bill=dict(doc["bill"], discovery=1))
        div = first_divergence(doc, other)
        assert div.kind == "bill" and "discovery" in div.location

    def test_elided_streams_compared_by_counts(self, doc):
        a = dict(doc, events=None, events_elided=True)
        b = dict(a, event_counts=dict(doc["event_counts"], merge=999))
        div = first_divergence(a, b)
        assert div.kind == "event_counts" and "merge" in div.location

    def test_payload_hash_ignores_labels(self, doc):
        relabelled = dict(doc, name="other-name", config={})
        assert payload_hash(doc) == payload_hash(relabelled)
        assert first_divergence(doc, relabelled) is None

    def test_render_summary_lists_divergences(self, doc):
        other = dict(doc, bill=dict(doc["bill"], discovery=1))
        div = first_divergence(doc, other)
        text = render_summary([("edited", div), ("clean", None)])
        assert "1/2 checks passed" in text
        assert "DIVERGED" in text and "DIVERGENCE" in text


class TestBackendPair:
    """The dense-matrix kernel replays the CSR kernel's captured mesh
    sync bitwise (same stream, same counter-hashed channel)."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dense_sparse_identical(self, seed):
        config = PaperConfig(n_devices=16, seed=seed)
        sparse = capture_run(config, "pulsesync").result
        dense = dense_mesh_sync(config, "pulsesync")
        assert sparse == {
            "converged": dense.converged,
            "time_ms": dense.time_ms,
            "messages": dense.messages,
            "fires": dense.fires,
            "instants": dense.instants,
            "final_spread_ms": dense.final_spread_ms,
            "sync_time_ms": dense.sync_time_ms,
        }


class TestFaultNoopPair:
    def test_inactive_plan_is_noop(self):
        out = diff_fault_noop(PaperConfig(n_devices=16, seed=3))
        assert out.ok, out.divergence.describe()

    def test_active_plan_is_not_noop(self):
        """Sanity: the runner is able to see a real perturbation."""
        from repro.conformance.differential import _strip_fault_bookkeeping
        from repro.faults.plan import FaultConfig

        cfg = PaperConfig(n_devices=32, seed=3)
        clean = capture_run(cfg.replace(faults=None), "st").doc()
        faulted = capture_run(
            cfg.replace(
                faults=FaultConfig.from_spec(
                    "crash=0.3,crash_window_ms=4000,beacon_loss=0.1"
                )
            ),
            "st",
        ).doc()
        div = first_divergence(
            _strip_fault_bookkeeping(clean), _strip_fault_bookkeeping(faulted)
        )
        assert div is not None


class TestBoruvkaOraclePair:
    """Three distributed constructions vs the centralized Kruskal oracle:
    the matrix Borůvka over the dense views, the CSR Borůvka the pair
    runs, and the whole ST simulation on the batch kernels."""

    @pytest.mark.parametrize("backend", ["dense", "sparse", "batch"])
    def test_distributed_matches_oracle(self, backend):
        config = PaperConfig(n_devices=32, seed=4)
        if backend == "sparse":
            out = diff_boruvka_oracle(config)
            assert out.ok, out.divergence.describe()
            return
        net = D2DNetwork(config)
        oracle = maximum_spanning_tree(net.weights, net.adjacency)
        if backend == "dense":
            edges = distributed_boruvka(net.weights, net.adjacency).edges
        else:
            edges = STSimulation(D2DNetwork(config)).run().tree_edges
        assert sorted(edges) == oracle


class TestFFAPair:
    def test_sorted_vs_naive_within_band(self):
        out = diff_ffa(seed=1)
        assert out.ok, out.divergence.describe()

    def test_sorted_uses_fewer_comparisons(self):
        out = diff_ffa(seed=2)
        assert out.ok
        assert "comparisons" in out.detail


class TestRegistry:
    def test_run_all_pairs(self):
        outcomes = run_pairs(PaperConfig(n_devices=16, seed=2))
        # faults, boruvka, ffa, shard, service, service-ops
        assert len(outcomes) == 6
        assert all(o.ok for o in outcomes), [
            o.divergence.describe() for o in outcomes if not o.ok
        ]
        # the instrumented side really traced: its closed traces were
        # stored and counted before the detail was read
        ops = next(o for o in outcomes if o.pair == "service-ops")
        spans = int(ops.detail.split(", ")[1].split()[0])
        assert spans > 0, ops.detail

    def test_unknown_pair_rejected(self):
        with pytest.raises(KeyError, match="unknown diff pair"):
            run_pairs(PaperConfig(n_devices=8, seed=1), ("bogus",))
