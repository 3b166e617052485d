"""Lamport-clock tagging: per-device causal order over trace streams."""

from repro.obs.causal import (
    LamportTagger,
    annotate_lamport,
    causal_sort_key,
    lamport_context,
    participants,
    verify_causal_order,
)
from repro.sim.trace import TraceRecorder


def _records(*events):
    tr = TraceRecorder()
    for time, category, data in events:
        tr.emit(time, category, **data)
    return tr.records()


class TestParticipants:
    def test_known_categories(self):
        assert participants("ps_tx", {"node": 3}) == (3,)
        assert participants("crash", {"node": 0}) == (0,)
        assert participants("merge", {"u": 1, "v": 2}) == (1, 2)
        assert participants("beacon_period", {"period": 9}) == ()

    def test_unknown_category_scans_device_keys(self):
        assert participants("custom", {"node": 5, "other": "x"}) == (5,)
        assert participants("custom", {"weight": 1.5}) == ()

    def test_bools_and_non_ints_skipped(self):
        assert participants("ps_tx", {"node": True}) == ()
        assert participants("ps_tx", {"node": "3"}) == ()


class TestAnnotate:
    def test_per_device_clocks_strictly_increase(self):
        records = _records(
            (1.0, "ps_tx", {"node": 0}),
            (2.0, "ps_tx", {"node": 1}),
            (3.0, "ps_tx", {"node": 0}),
            (4.0, "merge", {"u": 0, "v": 1}),
            (5.0, "ps_tx", {"node": 1}),
        )
        tagged = annotate_lamport(records)
        assert verify_causal_order(tagged)
        lcs = [r.data["lc"] for r in tagged]
        # independent first events share clock 1; the merge dominates both
        assert lcs[0] == 1 and lcs[1] == 1
        assert lcs[2] == 2

    def test_merge_clock_dominates_both_sides(self):
        records = _records(
            (1.0, "ps_tx", {"node": 0}),
            (1.5, "ps_tx", {"node": 0}),
            (2.0, "ps_tx", {"node": 1}),
            (3.0, "merge", {"u": 0, "v": 1}),
        )
        tagged = annotate_lamport(records)
        merge_lc = tagged[-1].data["lc"]
        assert all(merge_lc > r.data["lc"] for r in tagged[:-1])
        # both endpoints' next events must exceed the merge clock
        tagger_state = {p: merge_lc for p in (0, 1)}
        assert tagger_state  # documented expectation, checked via oracle
        assert verify_causal_order(tagged)

    def test_observer_events_order_after_everything(self):
        records = _records(
            (1.0, "ps_tx", {"node": 0}),
            (2.0, "merge", {"u": 0, "v": 1}),
            (3.0, "beacon_period", {"period": 1, "missing_pairs": 4}),
            (4.0, "ps_tx", {"node": 2}),
        )
        tagged = annotate_lamport(records)
        lc = {r.category: r.data["lc"] for r in tagged}
        assert lc["beacon_period"] > lc["merge"]
        # observer events do not advance device clocks: a fresh device
        # still starts at 1
        assert tagged[-1].data["lc"] == 1

    def test_originals_unmodified(self):
        records = _records((1.0, "ps_tx", {"node": 0}))
        annotate_lamport(records)
        assert "lc" not in records[0].data

    def test_sort_key_breaks_time_ties_causally(self):
        records = _records(
            (5.0, "ps_tx", {"node": 0}),
            (5.0, "ps_tx", {"node": 0}),
        )
        tagged = annotate_lamport(records)
        keys = [causal_sort_key(r) for r in tagged]
        assert keys == sorted(keys) and keys[0] != keys[1]

    def test_verify_rejects_untagged_and_decreasing(self):
        records = _records((1.0, "ps_tx", {"node": 0}))
        assert not verify_causal_order(records)  # no lc at all
        tagged = annotate_lamport(
            _records(
                (1.0, "ps_tx", {"node": 0}),
                (2.0, "ps_tx", {"node": 0}),
            )
        )
        tampered = [tagged[1], tagged[0]]  # reverse: clock goes backwards
        assert not verify_causal_order(tampered)


class TestLamportTagger:
    def test_incremental_matches_batch(self):
        events = [
            ("ps_tx", {"node": 0}),
            ("ps_tx", {"node": 1}),
            ("merge", {"u": 0, "v": 1}),
            ("ps_tx", {"node": 1}),
        ]
        tagger = LamportTagger()
        incremental = [tagger.tick(c, d) for c, d in events]
        batch = [
            r.data["lc"]
            for r in annotate_lamport(
                _records(*((float(i), c, d) for i, (c, d) in enumerate(events)))
            )
        ]
        assert incremental == batch


class TestGoldenContext:
    """Causal context for conformance divergence reports."""

    def test_context_of_merge_event(self):
        events = [
            [1.0, "ps_tx", {"node": 0}],
            [2.0, "ps_tx", {"node": 1}],
            [3.0, "merge", {"u": 0, "v": 1}],
        ]
        ctx = lamport_context(events, 2)
        assert ctx == {"lamport": 2, "participants": [0, 1]}

    def test_malformed_entries_tolerated(self):
        events = [
            "not-an-event",
            [1.0, "ps_tx"],
            [2.0, "ps_tx", "not-a-dict"],
            [3.0, "ps_tx", {"node": 4}],
        ]
        ctx = lamport_context(events, 3)
        assert ctx == {"lamport": 1, "participants": [4]}

    def test_divergence_reports_carry_context(self):
        from repro.conformance.report import first_divergence

        golden = {"events": [[1.0, "ps_tx", {"node": 0}],
                             [2.0, "merge", {"u": 0, "v": 1}]]}
        other = {"events": [[1.0, "ps_tx", {"node": 0}],
                            [2.0, "merge", {"u": 0, "v": 2}]]}
        div = first_divergence(golden, other)
        assert div is not None and div.location == "event[1]"
        assert div.context["lamport"] == 2
        assert div.context["participants"] == [0, 1]
