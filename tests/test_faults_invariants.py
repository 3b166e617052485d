"""Unit tests for the protocol invariant checker."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.faults import InvariantChecker, InvariantViolation, network_edge_exists


@dataclass
class _PhaseRec:
    phase: int
    fragments_before: int
    fragments_after: int


@dataclass
class _FakeResult:
    algorithm: str = "st"
    messages: int = 10
    tree_edges: list = field(default_factory=list)
    metrics: dict | None = None


def _snapshot(algorithm: str, total: float) -> dict:
    return {
        "messages_total": {
            "type": "counter",
            "help": "",
            "unit": "messages",
            "samples": [
                {"labels": {"algorithm": algorithm, "kind": "x"}, "value": total},
                {"labels": {"algorithm": "other", "kind": "x"}, "value": 999.0},
            ],
        }
    }


class TestCheckPhases:
    def test_accepts_unit_interval(self):
        chk = InvariantChecker()
        chk.check_phases(1.0, np.array([0.0, 0.5, 0.999]))
        assert chk.rounds_checked == 1

    @pytest.mark.parametrize("bad", [-0.01, 1.0, 1.5, np.nan, np.inf])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker().check_phases(2.5, np.array([0.1, bad]))
        assert exc.value.invariant == "phase_in_unit_interval"
        assert exc.value.round_index == 0
        assert exc.value.context["time_ms"] == 2.5

    def test_active_mask_excludes_devices(self):
        chk = InvariantChecker()
        chk.check_phases(
            0.0, np.array([5.0, 0.5]), active=np.array([False, True])
        )

    def test_atol_absorbs_ulp_round_off(self):
        chk = InvariantChecker()
        chk.check_phases(0.0, np.array([-1e-12, 1.0 + 1e-12]), atol=1e-9)
        with pytest.raises(InvariantViolation):
            chk.check_phases(0.0, np.array([-1e-6]), atol=1e-9)

    def test_corrupt_round_hook_names_the_round(self):
        chk = InvariantChecker(corrupt_phase_round=2)
        good = np.array([0.25, 0.75])
        chk.check_phases(0.0, good)
        chk.check_phases(1.0, good)
        with pytest.raises(InvariantViolation) as exc:
            chk.check_phases(2.0, good)
        assert exc.value.round_index == 2
        assert "round 2" in str(exc.value)
        # the production array was never touched
        assert np.array_equal(good, np.array([0.25, 0.75]))


class TestCheckTree:
    def test_valid_tree_passes(self):
        InvariantChecker().check_tree([(0, 1), (1, 2)], 3)

    def test_cycle_raises(self):
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker().check_tree([(0, 1), (1, 2), (2, 0)], 3)
        assert exc.value.invariant == "tree_acyclic"
        assert exc.value.round_index == 2

    @pytest.mark.parametrize("edge", [(0, 0), (-1, 2), (0, 5)])
    def test_invalid_pair_raises(self, edge):
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker().check_tree([edge], 5)
        assert exc.value.invariant == "tree_edge_valid"

    def test_edge_must_exist_in_graph(self):
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker().check_tree(
                [(0, 1)], 4, edge_exists=lambda u, v: False
            )
        assert exc.value.invariant == "tree_edge_in_graph"


class TestNetworkEdgeExists:
    def test_dense_and_sparse_agree(self):
        """The CSR membership test agrees with a twin's dense adjacency
        view and never materializes the dense views itself."""
        cfg = PaperConfig(n_devices=40, seed=9)
        dense = D2DNetwork(cfg).adjacency
        sparse = D2DNetwork(cfg)
        es = network_edge_exists(sparse)
        for u in range(0, 40, 7):
            for v in range(40):
                if u != v:
                    assert bool(dense[u, v]) == es(u, v), (u, v)
        assert sparse._link_budget is None


class TestCheckFragments:
    def test_monotone_passes(self):
        InvariantChecker().check_fragments(
            [_PhaseRec(0, 8, 3), _PhaseRec(1, 3, 1)]
        )

    def test_growth_raises(self):
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker().check_fragments([_PhaseRec(0, 3, 5)])
        assert exc.value.invariant == "fragments_monotone"

    def test_discontinuity_raises(self):
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker().check_fragments(
                [_PhaseRec(0, 8, 3), _PhaseRec(1, 4, 2)]
            )
        assert exc.value.invariant == "fragments_continuous"
        assert exc.value.round_index == 1


class TestMessageConservation:
    def test_matching_totals_pass(self):
        res = _FakeResult(messages=10, metrics=_snapshot("st", 10.0))
        InvariantChecker().check_message_conservation(res)

    def test_mismatch_raises_with_context(self):
        res = _FakeResult(messages=10, metrics=_snapshot("st", 7.0))
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker().check_message_conservation(res)
        assert exc.value.invariant == "message_conservation"
        assert exc.value.context == {"obs_total": 7.0, "result_total": 10}

    def test_missing_metric_raises(self):
        res = _FakeResult(metrics={})
        with pytest.raises(InvariantViolation):
            InvariantChecker().check_message_conservation(res)

    def test_explicit_snapshot_overrides_result(self):
        res = _FakeResult(messages=4, metrics=_snapshot("st", 999.0))
        InvariantChecker().check_message_conservation(
            res, snapshot=_snapshot("st", 4.0)
        )


class TestViolationShape:
    def test_structured_fields(self):
        err = InvariantViolation(
            "x", "boom", round_index=7, context={"a": 1}
        )
        assert err.invariant == "x"
        assert err.round_index == 7
        assert err.context == {"a": 1}
        assert "at round 7" in str(err)

    def test_round_free_message(self):
        assert "at round" not in str(InvariantViolation("x", "boom"))

    def test_is_runtime_error(self):
        assert isinstance(InvariantViolation("x", "y"), RuntimeError)
