"""End-to-end integration tests across subsystems.

Every simulation here runs with an :class:`InvariantChecker` attached,
and every result is validated with ``check_result`` — integration
coverage doubles as a protocol-invariant regression net.
"""

import numpy as np
import pytest

from repro import (
    D2DNetwork,
    FSTSimulation,
    PaperConfig,
    STSimulation,
)
from repro.faults import InvariantChecker
from repro.oscillator.integrate_fire import IntegrateFireNetwork
from repro.oscillator.coupling import all_to_all_coupling
from repro.spanningtree.mst import (
    is_spanning_tree,
    maximum_spanning_tree,
    tree_weight,
)
from tests.linkcsr import matrix_sync_kernel


def _run_checked(sim_cls, net):
    """Run a simulation under the invariant checker and validate the result."""
    result = sim_cls(net, invariants=InvariantChecker()).run()
    InvariantChecker().check_result(result, net)
    return result


class TestPairedComparison:
    """The headline experiment on one shared topology."""

    @pytest.fixture(scope="class")
    def runs(self):
        net = D2DNetwork(PaperConfig(seed=21))
        return (
            net,
            _run_checked(STSimulation, net),
            _run_checked(FSTSimulation, net),
        )

    def test_both_converge(self, runs):
        _, st, fst = runs
        assert st.converged and fst.converged

    def test_same_topology_same_tree_weight_class(self, runs):
        """Both algorithms' trees are maximum spanning trees of the same
        graph, so they are identical (distinct weights ⇒ unique max-ST)."""
        net, st, fst = runs
        assert st.tree_edges == fst.tree_edges
        assert is_spanning_tree(st.tree_edges, net.n)

    def test_st_converges_faster_at_paper_scale(self, runs):
        """Fig. 3 left edge: ST is already no slower at n=50."""
        _, st, fst = runs
        assert st.time_ms <= fst.time_ms * 1.5

    def test_fst_cheaper_messages_at_paper_scale(self, runs):
        """Fig. 4 left edge: the tree machinery costs more at n=50."""
        _, st, fst = runs
        assert fst.messages < st.messages


class TestPhaseModelVsIntegrateFire:
    """The slotted phase kernel and the exact RC reference must agree on
    the qualitative physics (both are the §III model)."""

    def test_both_synchronize_identical_mesh(self):
        n = 12
        # integrate-and-fire reference
        ifn = IntegrateFireNetwork(
            all_to_all_coupling(n, 0.08),
            drive=1.3,
            rng=np.random.default_rng(30),
        )
        converged_ref, _ = ifn.run_until_synchronized()
        # slotted kernel on a perfect radio
        mean_rx = np.full((n, n), -50.0)
        np.fill_diagonal(mean_rx, -np.inf)
        kernel = matrix_sync_kernel(mean_rx)
        converged_kernel = kernel.run(np.random.default_rng(30)).converged
        assert converged_ref and converged_kernel


class TestChannelToTreePipeline:
    def test_weights_flow_into_tree(self):
        """Stronger channel ⇒ heavier edge ⇒ in the tree: the paper's chain
        from RSSI (§III) through Algorithm 1."""
        net = D2DNetwork(PaperConfig(seed=22))
        st = _run_checked(STSimulation, net)
        w = net.weights
        in_tree = np.mean([w[u, v] for u, v in st.tree_edges])
        iu, ju = np.nonzero(np.triu(net.adjacency, k=1))
        overall = w[iu, ju].mean()
        assert in_tree > overall  # tree edges are systematically heavier

    def test_tree_weight_equals_oracle(self):
        net = D2DNetwork(PaperConfig(seed=23))
        st = _run_checked(STSimulation, net)
        oracle = maximum_spanning_tree(net.weights, net.adjacency)
        assert tree_weight(net.weights, st.tree_edges) == pytest.approx(
            tree_weight(net.weights, oracle)
        )


class TestConfigVariants:
    def test_no_fading_oracle_channel(self):
        cfg = PaperConfig(seed=24, fading_model="none", shadowing_sigma_db=0.0)
        net = D2DNetwork(cfg)
        st = _run_checked(STSimulation, net)
        assert st.converged

    def test_logdistance_model(self):
        cfg = PaperConfig(seed=25, pathloss_model="logdistance")
        st = _run_checked(STSimulation, D2DNetwork(cfg))
        assert st.converged

    def test_destructive_policy_st_still_builds_tree(self):
        cfg = PaperConfig(seed=26, collision_policy="destructive")
        st = _run_checked(STSimulation, D2DNetwork(cfg))
        assert is_spanning_tree(st.tree_edges, cfg.n_devices)

    def test_dense_scenario(self):
        cfg = PaperConfig(n_devices=80, area_side_m=40.0, seed=27)
        net = D2DNetwork(cfg)
        st = _run_checked(STSimulation, net)
        fst = _run_checked(FSTSimulation, net)
        assert st.converged and fst.converged


class TestReproducibility:
    def test_full_pipeline_bit_stable(self):
        """Same seed ⇒ identical results across completely fresh objects."""
        def run_once():
            net = D2DNetwork(PaperConfig(seed=31))
            st = _run_checked(STSimulation, net)
            fst = _run_checked(FSTSimulation, net)
            return (st.time_ms, st.messages, fst.time_ms, fst.messages)

        assert run_once() == run_once()
