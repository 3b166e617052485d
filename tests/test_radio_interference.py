"""Tests for the capture rule and the pulse-detection policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pulsesync import SparsePulseSyncKernel
from repro.oscillator.prc import LinearPRC
from repro.radio.interference import POLICIES, capture


def resolve(tx, power_dbm, margin_db=6.0, rx=0):
    """``capture()`` for copies that all reach one receiver: the winner
    (or −1), the copy count and whether the winner decodes."""
    tx = np.asarray(tx, dtype=np.int64)
    rxs = np.full(tx.size, rx, dtype=np.int64)
    order, starts, counts, decodable = capture(
        rxs, tx, np.asarray(power_dbm, dtype=float), margin_db
    )
    if starts.size == 0:
        return -1, 0, False
    return int(tx[order[starts[0]]]), int(counts[0]), bool(decodable[0])


def heard_under(policy, tx, power_dbm, rx=0, n=8):
    """Pulse detection at receiver ``rx`` when every ``tx`` fires in one
    wave with the given mean powers, under the kernel's ``policy``."""
    tx = np.asarray(tx, dtype=np.int64)
    kernel = SparsePulseSyncKernel.from_edges(
        n,
        tx,
        np.full(tx.size, rx, dtype=np.int64),
        np.asarray(power_dbm, dtype=float),
        LinearPRC(1.0, 0.0),
        period_ms=100.0,
        threshold_dbm=-95.0,
        collision_policy=policy,
    )
    return bool(kernel._wave_reception(np.unique(tx), 0)[rx])


class TestSingleTransmission:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_lone_transmission_always_decodes(self, policy):
        assert resolve([7], [-80.0]) == (7, 1, True)
        assert heard_under(policy, [7], [-80.0])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_silence(self, policy):
        empty = np.zeros(0, dtype=np.int64)
        order, starts, counts, decodable = capture(
            empty, empty, np.zeros(0), 6.0
        )
        assert order.size == starts.size == counts.size == decodable.size == 0
        # the only copy is below the detection threshold
        assert not heard_under(policy, [7], [-100.0])


class TestTolerant:
    def test_superposition_counts_as_one_pulse(self):
        # the strongest copy is attributed, but cannot be captured...
        assert resolve([1, 2, 3], [-71.0, -70.0, -90.0]) == (2, 3, False)
        # ...yet the superposition is still one detected pulse
        assert heard_under("tolerant", [1, 2, 3], [-71.0, -70.0, -90.0])
        assert not heard_under("capture", [1, 2, 3], [-71.0, -70.0, -90.0])


class TestDestructive:
    def test_any_collision_destroys(self):
        # a 40 dB capture winner is still destroyed under the policy
        assert resolve([1, 2], [-50.0, -90.0]) == (1, 2, True)
        assert heard_under("capture", [1, 2], [-50.0, -90.0])
        assert not heard_under("destructive", [1, 2], [-50.0, -90.0])


class TestCapture:
    def test_dominant_signal_captured(self):
        assert resolve([1, 2], [-60.0, -80.0]) == (1, 2, True)  # 20 dB SIR

    def test_near_equal_signals_lost(self):
        assert not resolve([1, 2], [-70.0, -71.0])[2]

    def test_margin_boundary(self):
        # 6.1 dB above one interferer → just captured; 5.9 dB → lost
        assert resolve([1, 2], [-70.0, -76.1])[2]
        assert not resolve([1, 2], [-70.0, -75.9])[2]

    def test_margin_met_with_equality(self):
        # two equal copies: SIR is exactly 0 dB, which meets a 0 dB margin
        assert resolve([1, 2], [-70.0, -70.0], margin_db=0.0) == (1, 2, True)

    def test_interference_sums(self):
        """Two interferers each 9 dB down sum to ~6 dB down → not captured."""
        assert not resolve([1, 2, 3], [-70.0, -79.0, -79.0])[2]

    def test_equal_power_tie_goes_to_lowest_tx(self):
        winner, count, decodable = resolve([5, 3, 4], [-70.0, -70.0, -90.0])
        assert (winner, count, decodable) == (3, 3, False)

    def test_receivers_resolve_independently(self):
        rx = np.array([4, 1, 4, 1, 9])
        tx = np.array([0, 0, 2, 3, 3])
        power = np.array([-60.0, -70.0, -61.0, -90.0, -80.0])
        order, starts, counts, decodable = capture(rx, tx, power, 6.0)
        assert rx[order[starts]].tolist() == [1, 4, 9]
        assert tx[order[starts]].tolist() == [0, 0, 3]
        assert counts.tolist() == [2, 2, 1]
        assert decodable.tolist() == [True, False, True]


def scalar_capture(rx, tx, power_dbm, margin_db):
    """Per receiver, one copy at a time: ``{rx: (winner, count, sir_db)}``
    with ``sir_db`` None for a lone copy."""
    out = {}
    for r in sorted(set(rx)):
        copies = sorted(
            (-p, t) for rr, t, p in zip(rx, tx, power_dbm) if rr == r
        )
        neg_best, winner = copies[0]
        if len(copies) == 1:
            out[r] = (winner, 1, None)
            continue
        signal = 10.0 ** (-neg_best / 10.0)
        total = 0.0
        for neg_p, _ in copies:
            total += 10.0 ** (-neg_p / 10.0)
        sir_db = 10.0 * np.log10(signal / max(total - signal, 1e-30))
        out[r] = (winner, len(copies), float(sir_db))
    return out


#: a short power list, so equal-power ties are common
POWERS = (-60.0, -63.0, -66.0, -66.0, -70.0, -79.0)


@st.composite
def copies(draw):
    """One slot's ``(rx, tx, power)`` copies in shuffled order.

    Each receiver gets 1–5 copies; transmitters repeat, so duplicate
    ``(rx, tx)`` copies occur, and half the segments force one power on
    every copy, so 2-copy and ≥3-copy segments tie on power (with the
    lower transmitter arriving first or second, as the shuffle falls).
    """
    segments = draw(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(1, 5)),
            max_size=8,
            unique_by=lambda seg: seg[0],
        )
    )
    out = []
    for rx, k in segments:
        tie = draw(st.booleans())
        p0 = draw(st.sampled_from(POWERS))
        for _ in range(k):
            power = p0 if tie else draw(st.sampled_from(POWERS))
            out.append((rx, draw(st.integers(0, 7)), power))
    return draw(st.permutations(out))


@settings(deadline=None, max_examples=300)
@given(copies(), st.sampled_from([0.0, 3.0, 6.0, 10.0]))
def test_capture_matches_scalar_loop(edges, margin_db):
    rx = np.array([e[0] for e in edges], dtype=np.int64)
    tx = np.array([e[1] for e in edges], dtype=np.int64)
    power = np.array([e[2] for e in edges], dtype=float)
    order, starts, counts, decodable = capture(rx, tx, power, margin_db)
    # the contract: receiver, then power descending, then lowest
    # transmitter, full ties in input order — one stable 3-key sort
    assert order.tolist() == np.lexsort((tx, -power, rx)).tolist()
    want = scalar_capture(rx.tolist(), tx.tolist(), power.tolist(), margin_db)
    assert rx[order[starts]].tolist() == sorted(want)
    for r, w, c, ok in zip(
        rx[order[starts]], tx[order[starts]], counts, decodable
    ):
        winner, count, sir_db = want[int(r)]
        assert (int(w), int(c)) == (winner, count)
        if sir_db is None:
            assert ok
        elif abs(sir_db - margin_db) > 1e-9:
            assert bool(ok) == (sir_db >= margin_db)


class TestTies:
    """Equal-power copies go to the lowest transmitter in whatever order
    they arrive."""

    @pytest.mark.parametrize(
        "tx", [[3, 5], [5, 3], [5, 4, 3], [4, 5, 3], [3, 5, 4]]
    )
    def test_lowest_tx_wins_any_arrival_order(self, tx):
        winner, count, decodable = resolve(tx, [-70.0] * len(tx), margin_db=0.0)
        assert (winner, count) == (3, len(tx))
        assert decodable == (len(tx) == 2)  # 0 dB SIR only against one

    def test_stronger_second_copy_is_swapped_first(self):
        rx = np.array([2, 1, 2, 1])
        tx = np.array([0, 0, 1, 1])
        power = np.array([-80.0, -60.0, -60.0, -80.0])
        order, starts, counts, decodable = capture(rx, tx, power, 6.0)
        assert order.tolist() == [1, 3, 2, 0]
        assert tx[order[starts]].tolist() == [0, 1]
        assert decodable.tolist() == [True, True]

    def test_duplicate_copies_keep_input_order(self):
        rx = np.zeros(4, dtype=np.int64)
        tx = np.array([2, 2, 1, 2])
        power = np.array([-70.0, -70.0, -75.0, -70.0])
        order, _, counts, _ = capture(rx, tx, power, 6.0)
        assert order.tolist() == [0, 1, 3, 2]
        assert counts.tolist() == [4]


class TestValidation:
    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown collision policy"):
            heard_under("magic", [1], [-70.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal shape"):
            capture(np.array([0, 0]), np.array([1, 2]), np.array([-70.0]), 6.0)
