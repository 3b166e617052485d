"""Tests for the churn session."""

import numpy as np
import pytest

from repro.core.churn import ChurnSession
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.spanningtree.boruvka import distributed_boruvka
from repro.spanningtree.mst import maximum_spanning_tree, tree_weight


@pytest.fixture(scope="module")
def network():
    return D2DNetwork(PaperConfig(seed=41))


class TestInitial:
    def test_starts_spanning_and_optimal(self, network):
        session = ChurnSession(network)
        assert session.is_spanning
        assert session._optimality_ratio() == pytest.approx(1.0)

    def test_partial_activation(self, network):
        session = ChurnSession(network, initially_active=set(range(20)))
        assert session.is_spanning
        assert len(session.tree_edges) == 19

    def test_empty_active_rejected(self, network):
        with pytest.raises(ValueError):
            ChurnSession(network, initially_active=set())


class TestJoin:
    def test_join_attaches_and_spans(self, network):
        session = ChurnSession(network, initially_active=set(range(30)))
        event = session.join(35)
        assert event.succeeded
        assert event.kind == "join"
        assert 35 in session.active
        assert session.is_spanning

    def test_join_constant_messages(self, network):
        session = ChurnSession(network, initially_active=set(range(30)))
        event = session.join(40)
        assert event.messages == network.config.discovery_periods + 2

    def test_join_attaches_to_heaviest(self, network):
        session = ChurnSession(network, initially_active=set(range(30)))
        session.join(45)
        new_edge = session.tree_edges[-1]
        assert 45 in new_edge
        other = new_edge[0] if new_edge[1] == 45 else new_edge[1]
        # the chosen partner is the heaviest active link of device 45
        w = network.weights[45].copy()
        w[~network.adjacency[45]] = -np.inf
        w[[i for i in range(network.n) if i not in session.active or i == 45]] = -np.inf
        assert other == int(np.argmax(w))

    def test_joins_may_drift_from_optimal(self, network):
        """Greedy attachment accumulates (bounded) suboptimality."""
        session = ChurnSession(network, initially_active=set(range(25)))
        for d in range(25, 40):
            session.join(d)
        assert session.is_spanning
        assert session._optimality_ratio() >= 1.0

    def test_double_join_rejected(self, network):
        session = ChurnSession(network, initially_active=set(range(30)))
        session.join(31)
        with pytest.raises(ValueError):
            session.join(31)


class TestFail:
    def test_fail_repairs_spanning(self, network):
        session = ChurnSession(network)
        event = session.fail(10)
        assert event.succeeded
        assert 10 not in session.active
        assert session.is_spanning
        assert all(10 not in e for e in session.tree_edges)

    def test_sequence_of_failures(self, network):
        session = ChurnSession(network)
        for d in (3, 17, 29, 44):
            event = session.fail(d)
            assert event.succeeded
            assert session.is_spanning

    def test_fail_inactive_rejected(self, network):
        session = ChurnSession(network, initially_active=set(range(30)))
        with pytest.raises(ValueError):
            session.fail(45)


class TestRebuild:
    def test_rebuild_restores_optimality(self, network):
        session = ChurnSession(network, initially_active=set(range(25)))
        for d in range(25, 40):
            session.join(d)
        drifted = session._optimality_ratio()
        event = session.rebuild()
        assert event.kind == "rebuild"
        assert session._optimality_ratio() == pytest.approx(1.0)
        assert session._optimality_ratio() <= drifted + 1e-12

    def test_event_log_grows(self, network):
        session = ChurnSession(network, initially_active=set(range(30)))
        session.join(33)
        session.fail(5)
        session.rebuild()
        assert [e.kind for e in session.events] == ["join", "fail", "rebuild"]
        assert [e.active_count for e in session.events] == [31, 30, 30]


def _kruskal(oracle_net, active):
    """Kruskal max-ST over the dense views, restricted to ``active``."""
    adj = oracle_net.adjacency.copy()
    inactive = [i for i in range(oracle_net.n) if i not in active]
    adj[inactive, :] = False
    adj[:, inactive] = False
    return maximum_spanning_tree(oracle_net.weights, adj), adj


class TestSparseBackend:
    """Churn runs entirely on the link CSR and never materializes the
    dense views; trees, bills and ratios match Kruskal and matrix-Borůvka
    oracles computed over a twin network's dense views."""

    @pytest.fixture(scope="class")
    def pair(self):
        cfg = PaperConfig(n_devices=48, seed=11)
        # (oracle twin with dense views, the network the sessions run on)
        return D2DNetwork(cfg), D2DNetwork(cfg)

    def _session(self, pair):
        return ChurnSession(pair[1], initially_active=set(range(40)))

    def _expected_ratio(self, pair, session):
        oracle_net = pair[0]
        oracle, _ = _kruskal(oracle_net, session.active)
        mine = tree_weight(oracle_net.weights, session.tree_edges)
        return mine / tree_weight(oracle_net.weights, oracle)

    def test_initial_tree_and_ratio_match(self, pair):
        ss = self._session(pair)
        oracle, _ = _kruskal(pair[0], ss.active)
        assert sorted(ss.tree_edges) == oracle
        assert ss._optimality_ratio() == pytest.approx(1.0, rel=1e-12)
        assert ss.is_spanning
        assert pair[1]._link_budget is None

    def test_join_parity(self, pair):
        ss = self._session(pair)
        w, adj = pair[0].weights, pair[0].adjacency
        for device in (40, 41, 42):
            row = np.where(adj[device], w[device], -np.inf)
            active = np.zeros(pair[0].n, dtype=bool)
            active[list(ss.active)] = True
            best = int(np.argmax(np.where(active, row, -np.inf)))
            es = ss.join(device)
            assert es.succeeded
            assert es.messages == pair[1].config.discovery_periods + 2
            assert (min(device, best), max(device, best)) in ss.tree_edges
            assert es.optimality_ratio == pytest.approx(
                self._expected_ratio(pair, ss), rel=1e-12
            )
        assert pair[1]._link_budget is None

    def test_fail_parity_repairs_via_csr(self, pair):
        ss = self._session(pair)
        for device in (3, 17, 21):
            es = ss.fail(device)
            assert es.succeeded
            # repair from max-ST fragments yields the survivors' max-ST
            oracle, _ = _kruskal(pair[0], ss.active)
            assert sorted(ss.tree_edges) == oracle
        assert ss.is_spanning
        assert pair[1]._link_budget is None

    def test_rebuild_parity_and_optimality(self, pair):
        ss = self._session(pair)
        for device in (40, 41, 42, 43):
            ss.join(device)
        es = ss.rebuild()
        oracle, adj = _kruskal(pair[0], ss.active)
        assert es.messages == distributed_boruvka(pair[0].weights, adj).counter.total
        assert sorted(ss.tree_edges) == oracle
        assert ss._optimality_ratio() == pytest.approx(1.0)
        assert pair[1]._link_budget is None

    def test_mixed_workload_event_log_parity(self, pair):
        ss = self._session(pair)
        workload = [
            ("join", 44),
            ("fail", 7),
            ("join", 45),
            ("fail", 44),
            ("rebuild", None),
        ]
        expected = []
        for kind, device in workload:
            event = ss.rebuild() if kind == "rebuild" else getattr(ss, kind)(device)
            expected.append(self._expected_ratio(pair, ss))
            assert event.succeeded
        assert [(e.kind, e.device, e.active_count) for e in ss.events] == [
            ("join", 44, 41),
            ("fail", 7, 40),
            ("join", 45, 41),
            ("fail", 44, 40),
            ("rebuild", -1, 40),
        ]
        assert np.allclose([e.optimality_ratio for e in ss.events], expected)
        assert ss.is_spanning
        assert pair[1]._link_budget is None, "churn must never densify"


class TestGreedyRepair:
    """Opt-in local repair: spanning preserved at O(damage) cost."""

    def _greedy(self, network, **kwargs):
        return ChurnSession(
            network, set(range(40)), repair="greedy", **kwargs
        )

    def test_rejects_unknown_mode(self, network):
        with pytest.raises(ValueError, match="repair"):
            ChurnSession(network, repair="lazy")

    def test_fail_keeps_tree_spanning(self, network):
        session = self._greedy(network)
        for device in (3, 17, 0, 28, 9):
            event = session.fail(device)
            assert event.kind == "fail"
            assert event.succeeded
            assert session.is_spanning
        assert len(session.tree_edges) == len(session.active) - 1

    def test_messages_proportional_to_damage(self, network):
        session = self._greedy(network)
        degrees = {d: len(session._tree_adj.get(d, ())) for d in range(40)}
        leaf = min(d for d, deg in degrees.items() if deg == 1)
        hub = max(degrees, key=lambda d: (degrees[d], d))
        assert session.fail(leaf).messages == 0  # no split, nothing to pay
        event = session.fail(hub)
        assert session.is_spanning
        # far below the optimal-repair bill, which re-scans the link graph
        assert 0 < event.messages < network.n

    def test_deterministic_across_instances(self, network):
        a, b = self._greedy(network), self._greedy(network)
        for device in (5, 31, 12, 2):
            ea, eb = a.fail(device), b.fail(device)
            assert (ea.messages, ea.succeeded) == (eb.messages, eb.succeeded)
        assert sorted(a.tree_edges) == sorted(b.tree_edges)

    def test_sparse_backend_greedy(self):
        config = PaperConfig(n_devices=2048, seed=41)
        network = D2DNetwork(config)
        session = ChurnSession(
            network,
            set(range(1500)),
            repair="greedy",
            track_optimality=False,
        )
        for device in (1499, 700, 3, 250, 1111):
            assert session.fail(device).kind == "fail"
            assert session.is_spanning
        session.join(1600)
        assert session.is_spanning
        assert network._link_budget is None

    def test_tree_adj_matches_edges_after_churn(self, network):
        session = self._greedy(network)
        for kind, device in [
            ("fail", 8), ("join", 45), ("fail", 45), ("fail", 20), ("join", 47)
        ]:
            getattr(session, kind)(device)
        rebuilt = {}
        for u, v in session.tree_edges:
            rebuilt.setdefault(u, set()).add(v)
            rebuilt.setdefault(v, set()).add(u)
        pruned = {d: s for d, s in session._tree_adj.items() if s}
        assert pruned == rebuilt

    def test_default_mode_unchanged(self, network):
        optimal = ChurnSession(network, set(range(40)))
        assert optimal.repair_mode == "optimal"
        greedy = self._greedy(network)
        optimal.fail(11)
        greedy.fail(11)
        assert optimal.is_spanning and greedy.is_spanning
        # optimal repair restores the oracle tree; greedy may drift
        assert optimal._optimality_ratio() == pytest.approx(1.0)
