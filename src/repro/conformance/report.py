"""Divergence objects and human-readable conformance reports.

The conformance layer never fails with a bare assert: every comparison
between two captured runs (golden vs fresh, clean vs inactive-faults,
sharded vs single-region, ...) produces either ``None`` or a :class:`Divergence`
that names the **first** diverging round/event, what was expected and
what actually happened — the difference between "parity broke" and a
bisectable bug report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.conformance.canonical import content_hash, to_jsonable

#: Sections that describe what the run *did* (vs how it was labelled);
#: the closing safety-net hash covers exactly these, so pairs whose
#: ``config``/``name`` stamps legitimately differ (sharded-vs-single,
#: clean-vs-inactive-faults) compare clean when the dynamics match.
PAYLOAD_KEYS = (
    "events",
    "events_elided",
    "event_counts",
    "event_hash",
    "phase_rounds",
    "phase_stream_hash",
    "merges",
    "bill",
    "result",
)


def payload_hash(doc: dict[str, Any]) -> str:
    """Content hash over the behavioural sections of a capture doc."""
    return content_hash({k: doc.get(k) for k in PAYLOAD_KEYS})


@dataclass(frozen=True)
class Divergence:
    """First point where two captured runs disagree.

    Attributes
    ----------
    pair:
        What was compared, e.g. ``"golden-vs-run"`` or
        ``"clean-vs-inactive-faults"``.
    kind:
        Which section diverged first: ``event``, ``event_counts``,
        ``phase_round``, ``merge``, ``bill``, ``result``, ``tree``,
        ``history`` or ``content``.
    location:
        Human-oriented pointer, e.g. ``event[37]`` or ``bill['repair']``.
    round:
        Ordinal of the diverging round/event in its stream, when the
        section is ordered (event index, phase-round index, merge index,
        FFA iteration); ``None`` for keyed sections.
    time_ms:
        Simulated time of the diverging event when known.
    expected / actual:
        The two sides' values at the divergence point (canonicalized).
    """

    pair: str
    kind: str
    location: str
    round: int | None = None
    time_ms: float | None = None
    expected: Any = None
    actual: Any = None
    context: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Multi-line human-readable report of this divergence."""
        lines = [f"DIVERGENCE [{self.pair}] first at {self.location}"]
        if self.round is not None:
            lines.append(f"  round/event : {self.round}")
        if self.time_ms is not None:
            lines.append(f"  sim time    : {self.time_ms:.3f} ms")
        lines.append(f"  section     : {self.kind}")
        lines.append(f"  expected    : {_short(self.expected)}")
        lines.append(f"  actual      : {_short(self.actual)}")
        for key, value in sorted(self.context.items()):
            lines.append(f"  {key:<12}: {_short(value)}")
        return "\n".join(lines)


def _short(value: Any, limit: int = 160) -> str:
    text = repr(to_jsonable(value))
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _canon(value: Any) -> Any:
    """Comparison form: canonical builtins with tagged non-finite floats."""
    return to_jsonable(value)


# ----------------------------------------------------------------------
# capture-document comparison
# ----------------------------------------------------------------------
def first_divergence(
    golden: dict[str, Any], other: dict[str, Any], pair: str = "golden-vs-run"
) -> Divergence | None:
    """Compare two capture documents; return the first divergence or None.

    Sections are checked in causal order — event stream, per-round phase
    digests, fragment merges, message bill, result record — so the
    reported divergence is the earliest observable symptom, not a
    downstream consequence of it.
    """
    for check in (
        _diff_events,
        _diff_phase_rounds,
        _diff_merges,
        _diff_bill,
        _diff_result,
    ):
        div = check(golden, other, pair)
        if div is not None:
            return div
    ha, hb = payload_hash(golden), payload_hash(other)
    if ha != hb:
        return Divergence(
            pair=pair,
            kind="content",
            location="payload_hash",
            expected=ha,
            actual=hb,
            context={"note": "sections equal individually; hash safety net"},
        )
    return None


def _event_time(event: Any) -> float | None:
    try:
        t = event[0]
        return float(t) if isinstance(t, (int, float)) else None
    except (TypeError, IndexError):
        return None


def _diff_events(a: dict, b: dict, pair: str) -> Divergence | None:
    ev_a, ev_b = a.get("events"), b.get("events")
    if a.get("events_elided") or b.get("events_elided") or ev_a is None or ev_b is None:
        # digest-only comparison: per-category counts, then the stream hash
        counts_a = a.get("event_counts", {})
        counts_b = b.get("event_counts", {})
        for cat in sorted(set(counts_a) | set(counts_b)):
            if counts_a.get(cat, 0) != counts_b.get(cat, 0):
                return Divergence(
                    pair=pair,
                    kind="event_counts",
                    location=f"event_counts[{cat!r}]",
                    expected=counts_a.get(cat, 0),
                    actual=counts_b.get(cat, 0),
                    context={"note": "events elided; counts compared"},
                )
        if a.get("event_hash") != b.get("event_hash"):
            return Divergence(
                pair=pair,
                kind="event",
                location="event_hash",
                expected=a.get("event_hash"),
                actual=b.get("event_hash"),
                context={"note": "events elided; stream hash compared"},
            )
        return None
    ca, cb = _canon(ev_a), _canon(ev_b)
    for i, (ea, eb) in enumerate(zip(ca, cb)):
        if ea != eb:
            return Divergence(
                pair=pair,
                kind="event",
                location=f"event[{i}]",
                round=i,
                time_ms=_event_time(ea),
                expected=ea,
                actual=eb,
                context=_causal_context(ca, i),
            )
    if len(ca) != len(cb):
        i = min(len(ca), len(cb))
        longer = ca if len(ca) > len(cb) else cb
        return Divergence(
            pair=pair,
            kind="event",
            location=f"event[{i}]",
            round=i,
            time_ms=_event_time(longer[i]),
            expected=ca[i] if i < len(ca) else "<end of stream>",
            actual=cb[i] if i < len(cb) else "<end of stream>",
            context=_causal_context(longer, i),
        )
    return None


def _causal_context(events: list, index: int) -> dict[str, Any]:
    """Lamport clock + participants of the diverging event (cold path:
    computed only once a divergence already exists, so the comparison
    fast path and the golden capture format stay untouched)."""
    from repro.obs.causal import lamport_context

    try:
        return lamport_context(events, index)
    except Exception:  # never let diagnostics mask the divergence itself
        return {}


def _diff_phase_rounds(a: dict, b: dict, pair: str) -> Divergence | None:
    pa = a.get("phase_rounds", [])
    pb = b.get("phase_rounds", [])
    for i, (ha, hb) in enumerate(zip(pa, pb)):
        if ha != hb:
            return Divergence(
                pair=pair,
                kind="phase_round",
                location=f"phase_round[{i}]",
                round=i,
                expected=ha,
                actual=hb,
            )
    if len(pa) != len(pb):
        i = min(len(pa), len(pb))
        return Divergence(
            pair=pair,
            kind="phase_round",
            location=f"phase_round[{i}]",
            round=i,
            expected=pa[i] if i < len(pa) else "<end of rounds>",
            actual=pb[i] if i < len(pb) else "<end of rounds>",
        )
    return None


def _diff_merges(a: dict, b: dict, pair: str) -> Divergence | None:
    ma = _canon(a.get("merges", []))
    mb = _canon(b.get("merges", []))
    for i, (ea, eb) in enumerate(zip(ma, mb)):
        if ea != eb:
            return Divergence(
                pair=pair,
                kind="merge",
                location=f"merge[{i}]",
                round=i,
                expected=ea,
                actual=eb,
            )
    if len(ma) != len(mb):
        i = min(len(ma), len(mb))
        return Divergence(
            pair=pair,
            kind="merge",
            location=f"merge[{i}]",
            round=i,
            expected=ma[i] if i < len(ma) else "<end of merges>",
            actual=mb[i] if i < len(mb) else "<end of merges>",
        )
    return None


def _diff_bill(a: dict, b: dict, pair: str) -> Divergence | None:
    ba = a.get("bill", {})
    bb = b.get("bill", {})
    for kind in sorted(set(ba) | set(bb)):
        if ba.get(kind) != bb.get(kind):
            return Divergence(
                pair=pair,
                kind="bill",
                location=f"bill[{kind!r}]",
                expected=ba.get(kind, "<missing>"),
                actual=bb.get(kind, "<missing>"),
            )
    return None


def _diff_result(a: dict, b: dict, pair: str) -> Divergence | None:
    ra = _canon(a.get("result", {}))
    rb = _canon(b.get("result", {}))
    for key in sorted(set(ra) | set(rb)):
        if ra.get(key) != rb.get(key):
            return Divergence(
                pair=pair,
                kind="result",
                location=f"result[{key!r}]",
                expected=ra.get(key, "<missing>"),
                actual=rb.get(key, "<missing>"),
            )
    return None


# ----------------------------------------------------------------------
# run summaries
# ----------------------------------------------------------------------
def render_summary(
    checks: list[tuple[str, Divergence | None]],
    *,
    title: str = "conformance",
) -> str:
    """Render a pass/fail table plus full reports for every divergence."""
    passed = sum(1 for _, div in checks if div is None)
    lines = [f"{title}: {passed}/{len(checks)} checks passed"]
    width = max((len(name) for name, _ in checks), default=0)
    for name, div in checks:
        status = "ok" if div is None else f"DIVERGED at {div.location}"
        lines.append(f"  {name:<{width}}  {status}")
    for name, div in checks:
        if div is not None:
            lines.append("")
            lines.append(div.describe())
    return "\n".join(lines)
