"""Self-contained HTML run reports from run artifacts.

``repro report --metrics run.json [--trace run.jsonl] -o report.html``
renders one HTML file — inline CSS, inline SVG charts, zero external
assets — from the artifacts a ``repro simulate`` run already writes:

* the **sync-error curve** (spread over simulated time, from the
  ``sync`` probe series);
* the **fragment-count timeline** (Borůvka phases collapsing fragments
  to one tree);
* **per-kind message bills** from the ``messages_total`` counter;
* the **alert log** fired by the online analyzers, plus the telemetry
  bus drop accounting;
* headline result numbers and the span tree when present.

Everything is derived from the metrics JSON document
(:func:`repro.obs.exporters.metrics_document` schema ``repro.obs/1``);
the optional JSONL trace only adds event-category counts.  A report can
therefore be produced long after the run, on another machine, from the
committed artifacts alone.
"""

from __future__ import annotations

import html
import json
import pathlib
from typing import Any, Sequence

from repro.sim.trace import TraceRecord

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 960px; color: #1c2733;
       background: #fcfdfe; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #2a6edb;
     padding-bottom: .3rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; color: #2a6edb; }
table { border-collapse: collapse; margin: .5rem 0; font-size: .85rem; }
th, td { border: 1px solid #d4dde8; padding: .25rem .6rem;
         text-align: right; }
th { background: #eef3fa; }
td.l, th.l { text-align: left; }
.alert-critical { color: #b3261e; font-weight: 600; }
.alert-warning { color: #9a6700; font-weight: 600; }
.up { color: #b3261e; font-weight: 600; }
.down { color: #188554; font-weight: 600; }
.muted { color: #6b7a8c; font-size: .8rem; }
svg { background: #fff; border: 1px solid #d4dde8; }
pre { background: #f4f7fb; border: 1px solid #d4dde8; padding: .6rem;
      font-size: .78rem; overflow-x: auto; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    return _esc(value)


# ----------------------------------------------------------------------
# inline SVG charts
# ----------------------------------------------------------------------
def _svg_series(
    points: Sequence[tuple[float, float]],
    *,
    width: int = 860,
    height: int = 220,
    color: str = "#2a6edb",
    x_label: str = "time (ms)",
    y_label: str = "",
    step: bool = False,
) -> str:
    """One time series as a self-contained SVG line chart."""
    pts = [(float(x), float(y)) for x, y in points]
    pts = [(x, y) for x, y in pts if x == x and y == y]  # drop NaNs
    if not pts:
        return '<p class="muted">no samples recorded</p>'
    pad_l, pad_r, pad_t, pad_b = 64, 16, 14, 34
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(0.0, min(ys)), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b

    def sx(x: float) -> float:
        return pad_l + (x - x_min) / x_span * plot_w

    def sy(y: float) -> float:
        return pad_t + (1.0 - (y - y_min) / y_span) * plot_h

    coords = []
    prev_y = None
    for x, y in pts:
        if step and prev_y is not None:
            coords.append(f"{sx(x):.1f},{sy(prev_y):.1f}")
        coords.append(f"{sx(x):.1f},{sy(y):.1f}")
        prev_y = y
    polyline = " ".join(coords)
    gridlines = []
    for frac in (0.0, 0.5, 1.0):
        gy = pad_t + frac * plot_h
        gv = y_max - frac * y_span
        gridlines.append(
            f'<line x1="{pad_l}" y1="{gy:.1f}" x2="{width - pad_r}" '
            f'y2="{gy:.1f}" stroke="#e3eaf2"/>'
            f'<text x="{pad_l - 6}" y="{gy + 4:.1f}" text-anchor="end" '
            f'font-size="10" fill="#6b7a8c">{gv:,.3g}</text>'
        )
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">'
        + "".join(gridlines)
        + f'<polyline points="{polyline}" fill="none" stroke="{color}" '
        f'stroke-width="1.6"/>'
        + f'<text x="{pad_l}" y="{height - 10}" font-size="10" '
        f'fill="#6b7a8c">{_esc(x_label)}: {x_min:,.0f} – {x_max:,.0f}</text>'
        + (
            f'<text x="{width - pad_r}" y="{height - 10}" text-anchor="end" '
            f'font-size="10" fill="#6b7a8c">{_esc(y_label)}</text>'
            if y_label
            else ""
        )
        + "</svg>"
    )


# ----------------------------------------------------------------------
# document accessors
# ----------------------------------------------------------------------
def _probe_series(
    doc: dict[str, Any], probe: str, key: str
) -> list[tuple[float, float]]:
    out = []
    for sample in doc.get("probes", []):
        if sample.get("probe") != probe:
            continue
        value = sample.get(key)
        if isinstance(value, (int, float)):
            out.append((float(sample.get("time_ms", 0.0)), float(value)))
    return out


def _metric_samples(doc: dict[str, Any], name: str) -> list[dict[str, Any]]:
    metric = doc.get("metrics", {}).get(name)
    if not metric:
        return []
    return metric.get("samples", [])


def _message_bills(doc: dict[str, Any]) -> dict[str, dict[str, float]]:
    """``{algorithm: {kind: count}}`` out of the messages_total samples."""
    bills: dict[str, dict[str, float]] = {}
    for sample in _metric_samples(doc, "messages_total"):
        labels = sample.get("labels", {})
        algo = labels.get("algorithm", "?")
        kind = labels.get("kind", "?")
        per_algo = bills.setdefault(algo, {})
        per_algo[kind] = per_algo.get(kind, 0) + sample.get("value", 0)
    return bills


# ----------------------------------------------------------------------
# report sections
# ----------------------------------------------------------------------
def _section_headline(doc: dict[str, Any]) -> str:
    rows = []
    for key in ("experiment", "algorithm", "n", "seed", "faults"):
        if key in doc:
            rows.append(
                f'<tr><th class="l">{_esc(key)}</th>'
                f'<td class="l">{_fmt(doc[key])}</td></tr>'
            )
    telemetry = doc.get("telemetry")
    if telemetry:
        published = sum(telemetry.get("published", {}).values())
        dropped = sum(telemetry.get("dropped", {}).values())
        rows.append(
            f'<tr><th class="l">telemetry samples</th><td class="l">'
            f"{published:,} published · {dropped:,} dropped · "
            f'{telemetry.get("retained", 0):,} retained</td></tr>'
        )
    if not rows:
        return ""
    return "<h2>Run</h2><table>" + "".join(rows) + "</table>"


def _section_alerts(doc: dict[str, Any]) -> str:
    alerts = doc.get("alerts", [])
    if not alerts:
        return (
            "<h2>Alerts</h2>"
            '<p class="muted">no analyzer alerts fired</p>'
        )
    rows = [
        "<tr><th>time (ms)</th><th class=l>severity</th>"
        "<th class=l>analyzer</th><th class=l>message</th></tr>"
    ]
    for alert in alerts:
        sev = _esc(alert.get("severity", "warning"))
        rows.append(
            f"<tr><td>{_fmt(alert.get('time_ms', 0.0))}</td>"
            f'<td class="l alert-{sev}">{sev}</td>'
            f'<td class="l">{_esc(alert.get("analyzer", "?"))}</td>'
            f'<td class="l">{_esc(alert.get("message", ""))}</td></tr>'
        )
    return "<h2>Alerts</h2><table>" + "".join(rows) + "</table>"


def _section_bills(doc: dict[str, Any]) -> str:
    bills = _message_bills(doc)
    if not bills:
        return ""
    parts = ["<h2>Message bills</h2>"]
    for algo, kinds in sorted(bills.items()):
        total = sum(kinds.values())
        rows = ['<tr><th class="l">kind</th><th>messages</th><th>share</th></tr>']
        for kind, count in sorted(kinds.items(), key=lambda kv: -kv[1]):
            share = count / total if total else 0.0
            rows.append(
                f'<tr><td class="l">{_esc(kind)}</td>'
                f"<td>{_fmt(count)}</td><td>{share:.1%}</td></tr>"
            )
        rows.append(
            f'<tr><th class="l">total</th><th>{_fmt(total)}</th><th></th></tr>'
        )
        parts.append(
            f'<p class="muted">algorithm: {_esc(algo)}</p>'
            "<table>" + "".join(rows) + "</table>"
        )
    return "".join(parts)


def _section_drops(doc: dict[str, Any]) -> str:
    telemetry = doc.get("telemetry")
    if not telemetry:
        return ""
    dropped = telemetry.get("dropped", {})
    published = telemetry.get("published", {})
    rows = ['<tr><th class="l">topic</th><th>published</th></tr>']
    for topic, count in sorted(published.items()):
        rows.append(
            f'<tr><td class="l">{_esc(topic)}</td><td>{_fmt(count)}</td></tr>'
        )
    drop_rows = ""
    if dropped:
        drop_rows = (
            '<tr><th class="l">dropped (topic/reason)</th><th>count</th></tr>'
            + "".join(
                f'<tr><td class="l">{_esc(key)}</td><td>{_fmt(count)}</td></tr>'
                for key, count in sorted(dropped.items())
            )
        )
    return (
        "<h2>Telemetry bus</h2><table>"
        + "".join(rows)
        + drop_rows
        + "</table>"
    )


def _section_hot_paths(doc: dict[str, Any], top: int = 10) -> str:
    """Top-N hot call paths by self time, from the document's span trees."""
    spans = doc.get("spans")
    if not spans:
        return ""
    from repro.obs.profile import hot_paths

    rows = [
        '<tr><th class="l">call path</th><th>self (ms)</th><th>calls</th></tr>'
    ]
    for path, self_ms, calls in hot_paths(spans, top=top):
        rows.append(
            f'<tr><td class="l">{_esc(path)}</td>'
            f"<td>{self_ms:,.2f}</td><td>{_fmt(calls)}</td></tr>"
        )
    return (
        f"<h2>Hot paths (top {top} by self time)</h2><table>"
        + "".join(rows)
        + "</table>"
        '<p class="muted">self time = span duration minus child spans; '
        "export the full flame graph with <code>repro profile "
        "--folded</code>.</p>"
    )


def _section_trends(history_series: Any) -> str:
    """Bench-history trend table (sparklines); empty without a series."""
    if not history_series:
        return ""
    from repro.obs.history import render_trend_section

    return render_trend_section(history_series)


def _section_trace(records: Sequence[TraceRecord] | None) -> str:
    if not records:
        return ""
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec.category] = counts.get(rec.category, 0) + 1
    rows = ['<tr><th class="l">category</th><th>events</th></tr>'] + [
        f'<tr><td class="l">{_esc(cat)}</td><td>{_fmt(count)}</td></tr>'
        for cat, count in sorted(counts.items())
    ]
    causal = ""
    if any("lc" in rec.data for rec in records):
        max_lc = max(int(rec.data.get("lc", 0)) for rec in records)
        causal = (
            f'<p class="muted">causally ordered: Lamport clocks up to '
            f"{max_lc:,}</p>"
        )
    return (
        f"<h2>Trace</h2><table>{''.join(rows)}</table>{causal}"
    )


def render_run_report(
    doc: dict[str, Any],
    trace_records: Sequence[TraceRecord] | None = None,
    *,
    title: str = "repro run report",
    history_series: Any = None,
) -> str:
    """Render one self-contained HTML document from a metrics document.

    ``history_series`` (a ``repro.obs.history.bench_series`` mapping)
    appends the benchmark-trend sparkline section.
    """
    sync_curve = _probe_series(doc, "sync", "spread_ms")
    frag_curve = _probe_series(doc, "fragments", "count")
    body = [
        f"<h1>{_esc(title)}</h1>",
        _section_headline(doc),
        "<h2>Sync-error curve</h2>",
        _svg_series(sync_curve, y_label="spread (ms)"),
        "<h2>Fragment-count timeline</h2>",
        _svg_series(frag_curve, y_label="fragments", color="#188554",
                    step=True),
        _section_alerts(doc),
        _section_bills(doc),
        _section_hot_paths(doc),
        _section_drops(doc),
        _section_trace(trace_records),
        _section_trends(history_series),
    ]
    return (
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>"
        + "".join(part for part in body if part)
        + "</body></html>\n"
    )


def write_run_report(
    doc: dict[str, Any],
    path: str | pathlib.Path,
    trace_records: Sequence[TraceRecord] | None = None,
    *,
    title: str = "repro run report",
    history_series: Any = None,
) -> pathlib.Path:
    """Render and write the HTML report; returns the output path."""
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(
        render_run_report(
            doc, trace_records, title=title, history_series=history_series
        )
    )
    return p


def load_metrics_document(path: str | pathlib.Path) -> dict[str, Any]:
    """Read a metrics JSON artifact (schema-checked)."""
    doc = json.loads(pathlib.Path(path).read_text())
    if not isinstance(doc, dict) or "metrics" not in doc:
        raise ValueError(f"{path}: not a metrics document (missing 'metrics')")
    return doc
