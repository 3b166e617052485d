"""Tests for slotted beacon discovery."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core import beacon as beacon_module
from repro.core.beacon import SparseBeaconDiscovery, top_k_required_csr
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.faults.invariants import InvariantChecker, InvariantViolation
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs import Observability
from repro.radio.fading import HashedRayleighFading
from tests.linkcsr import MatrixLinkBudget, StreamModel, edge_mask, edge_matrix
from tests.references import PerCohortBeaconDiscovery


def varied_radio(n, seed=0, base_dbm=-60.0, spread_db=25.0):
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-spread_db, 0.0, size=(n, n))
    delta = (delta + delta.T) / 2.0
    m = base_dbm + delta
    np.fill_diagonal(m, -np.inf)
    return m


def make_discovery(
    mean_rx, preambles=4, fading=None, period_slots=100, links=None, **kwargs
):
    budget = MatrixLinkBudget(
        mean_rx, threshold_dbm=-95.0, fading=fading, links=links
    )
    return SparseBeaconDiscovery(
        budget,
        threshold_dbm=-95.0,
        period_slots=period_slots,
        slot_ms=1.0,
        preambles=preambles,
        **kwargs,
    )


def run_pairs(disc, rng, required, **kwargs):
    """Run over a ``[receiver, sender]`` requirement matrix; returns the
    result with ``decoded`` as the same kind of matrix."""
    if kwargs.get("decoded") is not None:
        kwargs["decoded"] = edge_mask(disc.budget, kwargs["decoded"])
    result = disc.run(rng, edge_mask(disc.budget, required), **kwargs)
    result.decoded = edge_matrix(disc.budget, result.decoded)
    return result


def top_k(mean_rx, k):
    """``[receiver, sender]`` top-k requirement over a matrix radio."""
    budget = MatrixLinkBudget(mean_rx, threshold_dbm=-95.0)
    return edge_matrix(budget, top_k_required_csr(budget, k=k))


class TestDiscovery:
    def test_full_mesh_discovery_completes(self):
        n = 12
        disc = make_discovery(varied_radio(n, 1))
        result = run_pairs(
            disc, np.random.default_rng(1), ~np.eye(n, dtype=bool), max_periods=200
        )
        assert result.complete
        assert result.missing_pairs == 0
        assert (result.decoded | np.eye(n, dtype=bool)).all()

    def test_sparse_requirement_faster_than_full(self):
        n = 30
        mean_rx = varied_radio(n, 2)
        full = run_pairs(
            make_discovery(mean_rx),
            np.random.default_rng(3),
            ~np.eye(n, dtype=bool),
            max_periods=500,
        )
        top1 = run_pairs(
            make_discovery(mean_rx),
            np.random.default_rng(3),
            top_k(mean_rx, 1),
            max_periods=500,
        )
        assert top1.complete and full.complete
        assert top1.periods <= full.periods

    def test_time_and_messages_consistent(self):
        n = 10
        disc = make_discovery(varied_radio(n, 4))
        result = run_pairs(
            disc, np.random.default_rng(4), ~np.eye(n, dtype=bool), max_periods=200
        )
        assert result.time_ms == result.periods * 100.0
        assert result.messages == result.periods * n

    def test_empty_requirement_completes_immediately(self):
        n = 5
        disc = make_discovery(varied_radio(n, 5))
        result = run_pairs(
            disc, np.random.default_rng(5), np.zeros((n, n), dtype=bool)
        )
        assert result.complete
        assert result.periods == 0
        assert result.messages == 0

    def test_undetectable_pair_never_completes(self):
        mean_rx = varied_radio(4, 6)
        mean_rx[0, 3] = mean_rx[3, 0] = -150.0  # below threshold forever
        required = np.zeros((4, 4), dtype=bool)
        required[0, 3] = True
        # keep the dead pair in the radio graph so it can be required
        result = run_pairs(
            make_discovery(mean_rx, links=np.isfinite(mean_rx)),
            np.random.default_rng(6),
            required,
            max_periods=50,
        )
        assert not result.complete
        assert result.missing_pairs == 1

    def test_continuation_from_prior_state(self):
        n = 8
        mean_rx = varied_radio(n, 7)
        required = ~np.eye(n, dtype=bool)
        first = run_pairs(
            make_discovery(mean_rx),
            np.random.default_rng(7),
            required,
            max_periods=1,
        )
        cont = run_pairs(
            make_discovery(mean_rx), np.random.default_rng(8),
            required,
            max_periods=200,
            decoded=first.decoded,
        )
        assert cont.complete

    def test_fading_runs_complete(self):
        n = 10
        disc = make_discovery(varied_radio(n, 9), fading=HashedRayleighFading(9))
        result = run_pairs(
            disc, np.random.default_rng(9), ~np.eye(n, dtype=bool), max_periods=500
        )
        assert result.complete


class TestCollisionPhysics:
    def test_more_preambles_never_slower(self):
        n = 60
        mean_rx = varied_radio(n, 10, spread_db=35.0)
        required = ~np.eye(n, dtype=bool)
        slow = run_pairs(
            make_discovery(mean_rx, preambles=1),
            np.random.default_rng(10),
            required,
            max_periods=3000,
        )
        fast = run_pairs(
            make_discovery(mean_rx, preambles=16),
            np.random.default_rng(10),
            required,
            max_periods=3000,
        )
        assert fast.periods <= slow.periods

    def test_half_duplex_no_self_decode(self):
        n = 6
        result = run_pairs(
            make_discovery(varied_radio(n, 11)),
            np.random.default_rng(11),
            ~np.eye(n, dtype=bool),
            max_periods=200,
        )
        assert not result.decoded.diagonal().any()

    @pytest.mark.parametrize("n", [2, 3])
    def test_half_duplex_same_cohort_never_decodes(self, n):
        """One slot and one preamble put every device in the same cohort
        every period: each transmits while the others do, so nobody ever
        hears anybody — even though every pair is a strong, uncontested
        link for the receiver (one other transmitter in range for n = 2)."""
        disc = make_discovery(varied_radio(n, 12), preambles=1, period_slots=1)
        result = run_pairs(
            disc, np.random.default_rng(12), ~np.eye(n, dtype=bool), max_periods=20
        )
        assert result.periods == 20
        assert not result.complete
        assert not result.decoded.any()
        assert result.missing_pairs == n * (n - 1)


def _fault_plan(kind, n, period_slots):
    window_ms = 8.0 * period_slots  # faults fire within the first periods
    config = {
        "none": None,
        "beacon_loss": FaultConfig(beacon_loss=0.3),
        "rach_collision": FaultConfig(rach_collision=0.3),
        "crash_stall": FaultConfig(
            crash=0.2,
            crash_window_ms=window_ms,
            stall=0.3,
            stall_window_ms=window_ms,
            stall_duration_ms=2.0 * period_slots,
        ),
    }[kind]
    return None if config is None else FaultPlan(17, config, n)


def _run_with_metrics(cls, budget, kwargs, required, decoded, faults):
    disc = cls(budget, threshold_dbm=-95.0, slot_ms=1.0, **kwargs)
    obs = Observability()
    result = disc.run(
        np.random.default_rng(5),
        required,
        max_periods=12,
        decoded=None if decoded is None else decoded.copy(),
        obs=obs,
        obs_labels={"algorithm": "x"},
        faults=faults,
    )
    return result, obs.metrics.snapshot()


def _assert_matches_reference(got, got_metrics, want, want_metrics, required, entry):
    """The kernel's decode contract against the full per-cohort decode:
    every result field but ``decoded`` and every metric are equal;
    ``decoded`` is byte-equal on the required edges and holds every edge
    decoded on entry; elsewhere it is a subset (a race no open required
    edge depends on is not run), and equal when everything is required."""
    for f in dataclasses.fields(want):
        if f.name != "decoded":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got_metrics == want_metrics
    assert (got.decoded & required).tobytes() == (want.decoded & required).tobytes()
    assert not (got.decoded & ~want.decoded).any()
    if entry is not None:
        assert got.decoded[entry].all()
    if required.all():
        assert got.decoded.tobytes() == want.decoded.tobytes()


class TestDecodeMatchesPerCohortReference:
    """The kernel's period decode (singleton pass, per-period fading
    subkeys, open-work skip) matches the per-cohort decode of
    :class:`~tests.references.PerCohortBeaconDiscovery` on every output
    and on the required edges (:func:`_assert_matches_reference`)."""

    N = 30

    @pytest.fixture(scope="class")
    def radios(self):
        # sub-threshold means within the fade cap stay in the radio graph,
        # so fading decides both detection and the capture race
        mean_rx = varied_radio(self.N, 31, base_dbm=-78.0, spread_db=25.0)
        return {
            "none": MatrixLinkBudget(mean_rx, threshold_dbm=-95.0),
            "hashed": MatrixLinkBudget(
                mean_rx, threshold_dbm=-95.0, fading=HashedRayleighFading(31)
            ),
        }

    @pytest.mark.parametrize(
        "preambles,period_slots,listen_duty",
        list(itertools.product((1, 8), (1, 100), (1.0, 0.4))),
    )
    @pytest.mark.parametrize("fading", ["none", "hashed"])
    @pytest.mark.parametrize(
        "faults", ["none", "beacon_loss", "rach_collision", "crash_stall"]
    )
    @pytest.mark.parametrize("seeded", [False, True])
    def test_bitwise_equal(
        self, radios, preambles, period_slots, listen_duty, fading, faults, seeded
    ):
        budget = radios[fading]
        kwargs = dict(
            period_slots=period_slots,
            preambles=preambles,
            listen_duty=listen_duty,
        )
        required = budget.edge_is_link.copy()
        decoded = None
        if seeded:  # half the edges settled before period 1
            decoded = np.random.default_rng(7).random(budget.edge_count) < 0.5
        plan = _fault_plan(faults, self.N, period_slots)
        got, got_metrics = _run_with_metrics(
            SparseBeaconDiscovery, budget, kwargs, required, decoded, plan
        )
        want, want_metrics = _run_with_metrics(
            PerCohortBeaconDiscovery, budget, kwargs, required, decoded, plan
        )
        assert (
            got_metrics["beacon_slot_occupancy"]
            == want_metrics["beacon_slot_occupancy"]
        )
        _assert_matches_reference(
            got, got_metrics, want, want_metrics, required, decoded
        )

    @pytest.mark.parametrize("requirement", ["every_edge", "random"])
    @pytest.mark.parametrize("fading", ["none", "hashed"])
    @pytest.mark.parametrize(
        "faults", ["none", "beacon_loss", "rach_collision", "crash_stall"]
    )
    def test_required_and_seeded(self, radios, requirement, fading, faults):
        """A requirement over every radio edge decodes byte-equal; a
        random, asymmetric one (so a transmitter's open out-edges are not
        its open in-edges) still matches on every required edge."""
        budget = radios[fading]
        kwargs = dict(period_slots=8, preambles=1, listen_duty=1.0)
        rng = np.random.default_rng(11)
        if requirement == "every_edge":
            required = np.ones(budget.edge_count, dtype=bool)
        else:
            required = rng.random(budget.edge_count) < 0.15
        decoded = rng.random(budget.edge_count) < 0.3
        plan = _fault_plan(faults, self.N, 8)
        got, got_metrics = _run_with_metrics(
            SparseBeaconDiscovery, budget, kwargs, required, decoded, plan
        )
        want, want_metrics = _run_with_metrics(
            PerCohortBeaconDiscovery, budget, kwargs, required, decoded, plan
        )
        _assert_matches_reference(
            got, got_metrics, want, want_metrics, required, decoded
        )


class _BlockRecorder(SparseBeaconDiscovery):
    """Records ``(cohorts, edges)`` of every raced block."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.blocks = []

    def _race_block(self, members, member_c, *args):
        indptr = self.budget.indptr
        edges = int((indptr[members + 1] - indptr[members]).sum())
        self.blocks.append((np.unique(member_c).size, edges))
        super()._race_block(members, member_c, *args)


class TestBlockBoundaries:
    """With the block size shrunk, periods split into many blocks (and
    cohorts outgrow a block), yet the decode is still bitwise the
    per-cohort reference."""

    N = 30

    @pytest.fixture(scope="class")
    def budget(self):
        mean_rx = varied_radio(self.N, 31, base_dbm=-78.0, spread_db=25.0)
        return MatrixLinkBudget(
            mean_rx, threshold_dbm=-95.0, fading=HashedRayleighFading(31)
        )

    @pytest.mark.parametrize("chunk", [1, 7, 64, 200])
    @pytest.mark.parametrize("period_slots", [4, 16])
    @pytest.mark.parametrize("listen_duty", [1.0, 0.4])
    @pytest.mark.parametrize(
        "faults", ["none", "beacon_loss", "rach_collision", "crash_stall"]
    )
    def test_bitwise_equal(
        self, monkeypatch, budget, chunk, period_slots, listen_duty, faults
    ):
        monkeypatch.setattr(beacon_module, "DEFAULT_CHUNK_PAIRS", chunk)
        kwargs = dict(
            period_slots=period_slots, preambles=1, listen_duty=listen_duty
        )
        plan = _fault_plan(faults, self.N, period_slots)
        required = budget.edge_is_link.copy()
        got, got_metrics = _run_with_metrics(
            SparseBeaconDiscovery, budget, kwargs, required, None, plan
        )
        want, want_metrics = _run_with_metrics(
            PerCohortBeaconDiscovery, budget, kwargs, required, None, plan
        )
        _assert_matches_reference(
            got, got_metrics, want, want_metrics, required, None
        )

    @pytest.mark.parametrize("chunk", [1, 7, 64, 200])
    @pytest.mark.parametrize(
        "faults", ["none", "beacon_loss", "rach_collision", "crash_stall"]
    )
    def test_random_requirement_seeded(self, monkeypatch, budget, chunk, faults):
        monkeypatch.setattr(beacon_module, "DEFAULT_CHUNK_PAIRS", chunk)
        kwargs = dict(period_slots=4, preambles=1, listen_duty=1.0)
        rng = np.random.default_rng(23)
        required = rng.random(budget.edge_count) < 0.2
        decoded = rng.random(budget.edge_count) < 0.3
        plan = _fault_plan(faults, self.N, 4)
        got, got_metrics = _run_with_metrics(
            SparseBeaconDiscovery, budget, kwargs, required, decoded, plan
        )
        want, want_metrics = _run_with_metrics(
            PerCohortBeaconDiscovery, budget, kwargs, required, decoded, plan
        )
        _assert_matches_reference(
            got, got_metrics, want, want_metrics, required, decoded
        )

    @pytest.mark.parametrize("chunk", [7, 64, 200])
    def test_blocks_respect_the_chunk(self, monkeypatch, budget, chunk):
        monkeypatch.setattr(beacon_module, "DEFAULT_CHUNK_PAIRS", chunk)
        disc = _BlockRecorder(
            budget, threshold_dbm=-95.0, period_slots=16, preambles=1
        )
        result = disc.run(
            np.random.default_rng(5), budget.edge_is_link.copy(), max_periods=12
        )
        cohorts = np.array([b[0] for b in disc.blocks])
        edges = np.array([b[1] for b in disc.blocks])
        assert len(disc.blocks) > result.periods  # periods split
        assert (edges[cohorts > 1] <= chunk).all()
        if chunk == 200:
            assert (cohorts > 1).any()
        else:
            assert (edges > chunk).any()  # a cohort outgrows its block

    def test_constant_density_st_discovery(self):
        """n = 4096 at constant density, ST's top-1 requirement: large
        cohorts, several blocks per period at the default block size."""
        cfg = PaperConfig(seed=1).with_devices(4096, keep_density=True)
        net = D2DNetwork(cfg)
        budget = net.sparse_budget
        results = []
        for cls in (SparseBeaconDiscovery, PerCohortBeaconDiscovery):
            disc = cls(
                budget,
                threshold_dbm=cfg.threshold_dbm,
                period_slots=cfg.period_slots,
                slot_ms=cfg.slot_ms,
                preambles=cfg.beacon_preambles,
            )
            results.append(
                disc.run(
                    np.random.default_rng(1),
                    top_k_required_csr(budget, k=1),
                    max_periods=max(1, int(cfg.max_time_ms / cfg.period_ms)),
                )
            )
        got, want = results
        _assert_matches_reference(
            got, {}, want, {}, top_k_required_csr(budget, k=1), None
        )


class TestHalfDuplexInvariant:
    def test_crafted_violation_raises(self):
        # devices 0 and 1 both beaconed on channel 5; 0 → 1 "decoded"
        channel = np.array([5, 5, -1])
        with pytest.raises(InvariantViolation) as info:
            InvariantChecker().check_half_duplex(
                3, channel, np.array([0]), np.array([1])
            )
        assert info.value.invariant == "half_duplex"
        assert info.value.round_index == 3

    def test_other_channels_and_silent_receivers_pass(self):
        channel = np.array([5, 6, -1])
        InvariantChecker().check_half_duplex(
            1, channel, np.array([0, 0, 1]), np.array([1, 2, 2])
        )

    def test_kernel_without_is_tx_mask_is_caught(self):
        """Defeat the kernel's half-duplex mask (the per-transmitter
        cohort scratch): the checker names it."""

        class NeverTransmitting:
            def __setitem__(self, devices, value):
                pass

            def __getitem__(self, devices):
                return np.full(len(devices), -1, dtype=np.int64)

        disc = make_discovery(varied_radio(3, 12), preambles=1, period_slots=1)
        disc._tx_cohort = NeverTransmitting()
        required = edge_mask(disc.budget, ~np.eye(3, dtype=bool))
        with pytest.raises(InvariantViolation) as info:
            disc.run(
                np.random.default_rng(12),
                required,
                max_periods=20,
                invariants=InvariantChecker(),
            )
        assert info.value.invariant == "half_duplex"

    def test_kernel_passes_with_checker(self):
        disc = make_discovery(
            varied_radio(40, 13), preambles=2, period_slots=10,
            fading=HashedRayleighFading(13),
        )
        result = disc.run(
            np.random.default_rng(13),
            disc.budget.edge_is_link.copy(),
            max_periods=300,
            invariants=InvariantChecker(),
        )
        assert result.complete


class TestDutyCycling:
    def test_lower_duty_slower_discovery(self):
        n = 20
        mean_rx = varied_radio(n, 20)
        required = ~np.eye(n, dtype=bool)
        results = {}
        for duty in (1.0, 0.3):
            disc = make_discovery(mean_rx, listen_duty=duty)
            results[duty] = run_pairs(
                disc, np.random.default_rng(20), required, max_periods=1000
            )
        assert results[1.0].complete and results[0.3].complete
        assert results[0.3].periods > results[1.0].periods

    def test_duty_one_is_default_behaviour(self):
        n = 10
        mean_rx = varied_radio(n, 21)
        required = ~np.eye(n, dtype=bool)
        a = run_pairs(
            make_discovery(mean_rx),
            np.random.default_rng(21),
            required,
            max_periods=200,
        )
        b = run_pairs(
            make_discovery(mean_rx, listen_duty=1.0),
            np.random.default_rng(21),
            required,
            max_periods=200,
        )
        assert a.periods == b.periods

    def test_tiny_duty_still_completes_eventually(self):
        n = 8
        disc = make_discovery(varied_radio(n, 22), listen_duty=0.1)
        result = run_pairs(
            disc, np.random.default_rng(22), ~np.eye(n, dtype=bool), max_periods=2000
        )
        assert result.complete

    def test_bad_duty_rejected(self):
        for duty in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                make_discovery(varied_radio(3, 0), listen_duty=duty)


class TestTopKRequired:
    def test_one_per_row(self):
        req = top_k(varied_radio(10, 12), 1)
        assert np.all(req.sum(axis=1) == 1)

    def test_selects_heaviest(self):
        w = np.array(
            [[-np.inf, -50.0, -80.0], [-50.0, -np.inf, -60.0], [-80.0, -60.0, -np.inf]]
        )
        req = top_k(w, 1)
        assert req[0, 1] and req[2, 1]

    def test_k_two(self):
        req = top_k(varied_radio(8, 13), 2)
        assert np.all(req.sum(axis=1) == 2)

    def test_isolated_node_requires_nothing(self):
        w = varied_radio(4, 14)
        adj = np.zeros((4, 4), dtype=bool)
        adj[1, 2] = adj[2, 1] = True
        req = top_k(np.where(adj, w, -np.inf), 1)
        assert req[0].sum() == 0 and req[3].sum() == 0
        assert req[1, 2] and req[2, 1]

    def test_validation(self):
        budget = MatrixLinkBudget(varied_radio(3, 0))
        with pytest.raises(ValueError):
            top_k_required_csr(budget, k=0)


class TestValidation:
    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            MatrixLinkBudget(np.zeros((2, 3)))
        disc = make_discovery(varied_radio(3, 0))
        with pytest.raises(ValueError):
            disc.run(np.random.default_rng(0), np.zeros(2, dtype=bool))

    def test_bad_parameters(self):
        budget = MatrixLinkBudget(varied_radio(3, 0))
        with pytest.raises(ValueError):
            SparseBeaconDiscovery(budget, threshold_dbm=-95.0, period_slots=0)
        with pytest.raises(ValueError):
            SparseBeaconDiscovery(
                budget, threshold_dbm=-95.0, period_slots=10, slot_ms=0.0
            )
        with pytest.raises(ValueError):
            SparseBeaconDiscovery(
                budget, threshold_dbm=-95.0, period_slots=10, preambles=0
            )
        # stream fading cannot be evaluated per edge
        with pytest.raises(TypeError):
            SparseBeaconDiscovery(
                budget,
                threshold_dbm=-95.0,
                period_slots=10,
                fading=StreamModel(),
            )
