"""Integration tests: the observability layer against real protocol runs.

The load-bearing property: message accounting has a *single source of
truth*.  ``Observability.account_messages`` records the bill into the
``messages_total`` counter and returns the breakdown stored on the
``RunResult`` — so registry totals and ``RunResult`` totals must be
exactly equal, per kind, for every run.
"""

import pytest

from repro.core.config import PaperConfig
from repro.core.fst import FSTSimulation
from repro.core.network import D2DNetwork
from repro.core.st import STSimulation
from repro.faults.plan import FaultConfig
from repro.obs import Observability, activate, get_active
from repro.sim.engine import Engine


@pytest.fixture(scope="module")
def network():
    return D2DNetwork(PaperConfig(seed=3).with_devices(20, keep_density=False))


class TestSingleSourceOfTruth:
    def test_st_registry_matches_run_result(self, network):
        obs = Observability()
        result = STSimulation(network, obs=obs).run()
        counter = obs.metrics.get("messages_total")
        assert counter.total(algorithm="st") == result.messages
        assert (
            counter.breakdown("kind", algorithm="st")
            == result.message_breakdown
        )

    def test_fst_registry_matches_run_result(self, network):
        obs = Observability()
        result = FSTSimulation(network, obs=obs).run()
        counter = obs.metrics.get("messages_total")
        assert counter.total(algorithm="fst") == result.messages
        assert (
            counter.breakdown("kind", algorithm="fst")
            == result.message_breakdown
        )

    def test_kernel_counters_match_bill_entries(self, network):
        """ps_tx_total (kernel) and the billed kinds agree exactly."""
        obs = Observability()
        st = STSimulation(network, obs=obs).run()
        ps = obs.metrics.get("ps_tx_total")
        assert (
            ps.total(algorithm="st", stage="trim")
            == st.message_breakdown["trim_sync"]
        )
        # ST bills the discovery_periods floor (devices keep beaconing for
        # the minimum window) on top of the simulated beacon periods, so
        # the billed count is an n-multiple >= the kernel counter.
        beacon = obs.metrics.get("beacon_tx_total")
        billed = st.message_breakdown["discovery"]
        assert billed >= beacon.total(algorithm="st", stage="discovery")
        assert billed % network.n == 0

    def test_fst_kernel_counters_match_bill_entries(self, network):
        obs = Observability()
        fst = FSTSimulation(network, obs=obs).run()
        ps = obs.metrics.get("ps_tx_total")
        assert (
            ps.total(algorithm="fst", stage="sync")
            == fst.message_breakdown["sync_pulse"]
        )
        # FST bills the beacon run's own message count verbatim
        beacon = obs.metrics.get("beacon_tx_total")
        assert (
            beacon.total(algorithm="fst", stage="discovery")
            == fst.message_breakdown["discovery"]
        )

    @pytest.mark.parametrize(
        "faults", [FaultConfig(rach_collision=0.3), FaultConfig(crash=0.2)]
    )
    def test_fst_beacon_counter_matches_bill_under_faults(self, faults):
        """Backed-off, collided and crashed devices stay silent: the
        counter bills only the beacons actually sent."""
        config = PaperConfig(seed=4, faults=faults).with_devices(
            64, keep_density=False
        )
        obs = Observability()
        fst = FSTSimulation(D2DNetwork(config), obs=obs).run()
        beacon = obs.metrics.get("beacon_tx_total")
        assert (
            beacon.total(algorithm="fst", stage="discovery")
            == fst.message_breakdown["discovery"]
        )

    def test_run_result_snapshot_carries_registry(self, network):
        result = STSimulation(network).run()
        snap = result.metrics
        total = sum(
            s["value"]
            for s in snap["messages_total"]["samples"]
            if s["labels"]["algorithm"] == "st"
        )
        assert total == result.messages


class TestAmbientBundle:
    def test_simulations_adopt_activated_bundle(self, network):
        obs = Observability()
        with activate(obs):
            assert get_active() is obs
            st = STSimulation(network)
            fst = FSTSimulation(network)
            assert st.obs is obs and fst.obs is obs
        assert get_active() is None

    def test_explicit_bundle_wins_over_ambient(self, network):
        ambient, mine = Observability(), Observability()
        with activate(ambient):
            assert STSimulation(network, obs=mine).obs is mine

    def test_activation_nests(self):
        outer, inner = Observability(), Observability()
        with activate(outer):
            with activate(inner):
                assert get_active() is inner
            assert get_active() is outer


class TestSpansAndProbes:
    def test_st_span_taxonomy(self, network):
        obs = Observability()
        STSimulation(network, obs=obs).run()
        (root,) = obs.spans.roots
        assert root.name == "st_run"
        names = [c.name for c in root.children]
        assert names == ["discovery", "construction", "trim"]
        construction = root.children[1]
        assert construction.children[0].name == "merge_schedule"
        assert all(
            c.name == "boruvka_phase" for c in construction.children[1:]
        )

    def test_fst_span_taxonomy(self, network):
        obs = Observability()
        FSTSimulation(network, obs=obs).run()
        (root,) = obs.spans.roots
        assert root.name == "fst_run"
        assert [c.name for c in root.children] == [
            "mesh_sync",
            "discovery",
            "stitch",
        ]

    def test_probe_series_recorded(self, network):
        obs = Observability()
        STSimulation(network, obs=obs).run()
        probes = obs.probes.probes()
        assert "fragments" in probes and "sync" in probes
        frag_counts = [v for _, v in obs.probes.series("fragments", "count")]
        assert frag_counts[-1] == 1.0  # single fragment at the end


class TestDisabledAndTrace:
    def test_disabled_bundle_records_no_spans_or_trace(self, network):
        obs = Observability(enabled=False)
        result = STSimulation(network, obs=obs).run()
        assert obs.spans.roots == []
        assert obs.trace is None
        # metrics stay live: they are the accounting source of truth
        assert result.messages == obs.metrics.get("messages_total").total(
            algorithm="st"
        )

    def test_trace_categories_when_kept(self, network):
        obs = Observability(keep_trace=True)
        STSimulation(network, obs=obs).run()
        cats = set(obs.trace.categories)
        assert {"ps_tx", "merge", "beacon_period"} <= cats
        assert obs.trace.count("ps_tx") > 0

    def test_default_private_bundles_are_independent(self):
        # fresh networks: named RNG streams restart, so two runs are
        # bit-identical — and private registries must not accumulate
        cfg = PaperConfig(seed=5).with_devices(15, keep_density=False)
        a = STSimulation(D2DNetwork(cfg)).run()
        b = STSimulation(D2DNetwork(cfg)).run()
        assert a.messages == b.messages
        assert a.metrics == b.metrics


class TestEngineGauges:
    def test_engine_publishes_gauges(self):
        obs = Observability()
        engine = Engine(obs=obs)
        for t in (3.0, 1.0, 2.0):
            engine.schedule_at(t, lambda: None)
        engine.run(until=10.0)
        g = obs.metrics.get("engine_events_processed")
        assert g.value() == 3
        assert obs.metrics.get("engine_heap_depth_max").value() == 3
        assert obs.metrics.get("engine_pending").value() == 0

    def test_engine_without_obs_unchanged(self):
        engine = Engine()
        engine.schedule_at(1.0, lambda: None)
        engine.run(until=2.0)
        assert engine.max_heap_depth == 1
