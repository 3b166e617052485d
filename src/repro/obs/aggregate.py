"""Cross-process observability: mergeable per-worker snapshots.

A sharded run (the sweep pool today, multi-cell sharding tomorrow)
produces one :class:`~repro.obs.Observability` bundle **per worker**.
This module turns each bundle into a JSON-safe *aggregation snapshot*
(schema ``repro.obs.agg/1``) and defines a pure merge over snapshots so
the fleet's observability collapses into one registry no matter how the
workers were scheduled:

* **counters** merge by summation per (name, label set);
* **histograms** merge bucket-wise — bucket boundaries must be
  identical, a mismatch is an explicit :class:`ValueError`, never a
  silent misalignment (see :meth:`repro.obs.metrics.Histogram.merge`);
* **gauges** merge by *deterministic last-writer*: every gauge sample
  carries the integer id of the worker that wrote it, and the sample
  from the highest worker id wins — a commutative, associative rule, so
  merge order never matters;
* **span trees** are kept per worker, keyed and ordered by worker id;
* **telemetry drop ledgers** (and published counts, and alerts) merge by
  per-(topic, reason) summation; alerts sort by their content.

:func:`merge_snapshots` first orders its inputs by worker id, then
folds pairwise — so the result is a pure function of the snapshot *set*
and two merges over the same snapshots are byte-identical
(:func:`canonical_snapshot`) regardless of worker completion order.
Worker-id overlap between two snapshots is an error: it is the signature
of merging the same worker twice.

The merged snapshot round-trips back into a live
:class:`~repro.obs.metrics.MetricsRegistry` via :func:`to_registry`, so
every existing exporter (Prometheus text, metrics JSON, the HTML run
report) renders fleet-wide aggregates with no new code paths.
"""

from __future__ import annotations

import pathlib
from typing import Any, Iterable, Sequence

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

SCHEMA = "repro.obs.agg/1"


def _canonical_json(obj: Any) -> str:
    # lazy import: repro.conformance imports repro.obs at package load,
    # so a module-level import here would be circular
    from repro.conformance.canonical import canonical_json

    return canonical_json(obj)


# ----------------------------------------------------------------------
# snapshot capture
# ----------------------------------------------------------------------
def _decumulate(buckets: Sequence[Sequence[Any]]) -> list[int]:
    """Raw per-bucket counts from the cumulative ``(le, count)`` export."""
    raw, prev = [], 0
    for _le, cumulative in buckets:
        raw.append(int(cumulative) - prev)
        prev = int(cumulative)
    return raw


def worker_snapshot(source: Any, worker_id: int) -> dict[str, Any]:
    """One worker's observability, reduced to a mergeable JSON document.

    ``source`` is an :class:`~repro.obs.Observability` bundle or a bare
    :class:`~repro.obs.metrics.MetricsRegistry` (duck-typed on
    ``.metrics``).  ``worker_id`` must be a non-negative integer unique
    within the fleet — it is the gauge last-writer tiebreak and the key
    of the worker's span trees.
    """
    worker_id = int(worker_id)
    if worker_id < 0:
        raise ValueError(f"worker_id must be >= 0, got {worker_id}")
    registry = source if isinstance(source, MetricsRegistry) else source.metrics

    metrics: dict[str, Any] = {}
    for metric in registry:
        entry: dict[str, Any] = {
            "kind": metric.kind,
            "help": metric.help,
            "unit": metric.unit,
        }
        if isinstance(metric, Counter):
            entry["samples"] = [
                {"labels": s["labels"], "value": s["value"]}
                for s in metric.samples()
            ]
        elif isinstance(metric, Gauge):
            entry["samples"] = [
                {"labels": s["labels"], "value": s["value"], "writer": worker_id}
                for s in metric.samples()
            ]
        elif isinstance(metric, Histogram):
            entry["bounds"] = list(metric.buckets)
            entry["samples"] = [
                {
                    "labels": s["labels"],
                    "counts": _decumulate(s["buckets"]),
                    "sum": s["sum"],
                    "count": s["count"],
                }
                for s in metric.samples()
            ]
        else:  # pragma: no cover - no other metric kinds exist
            continue
        metrics[metric.name] = entry

    spans: dict[str, list[dict[str, Any]]] = {}
    recorder = getattr(source, "spans", None)
    if recorder is not None and getattr(recorder, "roots", None):
        spans[str(worker_id)] = recorder.to_dicts()

    published: dict[str, float] = {}
    dropped: dict[str, float] = {}
    alerts: list[dict[str, Any]] = []
    bus = getattr(source, "bus", None)
    if bus is not None:
        stats = bus.stats()
        published = {k: float(v) for k, v in stats["published"].items()}
        dropped = {k: float(v) for k, v in stats["dropped"].items()}
        for alert in bus.alerts:
            doc = alert.to_dict() if hasattr(alert, "to_dict") else dict(alert)
            alerts.append({**doc, "worker": worker_id})

    return {
        "schema": SCHEMA,
        "workers": [worker_id],
        "metrics": metrics,
        "spans": spans,
        "telemetry": {
            "published": published,
            "dropped": dropped,
            "alerts": alerts,
        },
    }


def empty_snapshot() -> dict[str, Any]:
    """The merge identity: a snapshot with no workers and no data."""
    return {
        "schema": SCHEMA,
        "workers": [],
        "metrics": {},
        "spans": {},
        "telemetry": {"published": {}, "dropped": {}, "alerts": []},
    }


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _merge_meta(a: dict[str, Any], b: dict[str, Any], name: str) -> dict[str, Any]:
    if a["kind"] != b["kind"]:
        raise ValueError(
            f"metric {name!r}: kind mismatch ({a['kind']} vs {b['kind']})"
        )
    # help/unit: deterministic commutative choice (lexicographic max of
    # the non-empty candidates) so merge order cannot change the result
    return {
        "kind": a["kind"],
        "help": max(a.get("help", ""), b.get("help", "")),
        "unit": max(a.get("unit", ""), b.get("unit", "")),
    }


def _merge_counter(a: dict, b: dict, name: str) -> dict[str, Any]:
    out = _merge_meta(a, b, name)
    values: dict[tuple, float] = {}
    labels_by_key: dict[tuple, dict[str, str]] = {}
    for entry in (a, b):
        for s in entry["samples"]:
            key = _label_key(s["labels"])
            labels_by_key.setdefault(key, dict(s["labels"]))
            values[key] = values.get(key, 0) + s["value"]
    out["samples"] = [
        {"labels": labels_by_key[k], "value": values[k]}
        for k in sorted(values)
    ]
    return out


def _merge_gauge(a: dict, b: dict, name: str) -> dict[str, Any]:
    out = _merge_meta(a, b, name)
    best: dict[tuple, dict[str, Any]] = {}
    for entry in (a, b):
        for s in entry["samples"]:
            key = _label_key(s["labels"])
            held = best.get(key)
            # deterministic last-writer: highest worker id wins
            if held is None or s["writer"] > held["writer"]:
                best[key] = s
    out["samples"] = [
        {
            "labels": dict(best[k]["labels"]),
            "value": best[k]["value"],
            "writer": best[k]["writer"],
        }
        for k in sorted(best)
    ]
    return out


def _merge_histogram(a: dict, b: dict, name: str) -> dict[str, Any]:
    out = _merge_meta(a, b, name)
    bounds_a = [float(x) for x in a["bounds"]]
    bounds_b = [float(x) for x in b["bounds"]]
    if bounds_a != bounds_b:
        raise ValueError(
            f"histogram {name!r}: bucket boundaries differ "
            f"({bounds_a} vs {bounds_b}); refusing to merge misaligned buckets"
        )
    out["bounds"] = bounds_a
    merged: dict[tuple, dict[str, Any]] = {}
    for entry in (a, b):
        for s in entry["samples"]:
            if len(s["counts"]) != len(bounds_a) + 1:
                raise ValueError(
                    f"histogram {name!r}: sample has {len(s['counts'])} "
                    f"buckets, bounds imply {len(bounds_a) + 1}"
                )
            key = _label_key(s["labels"])
            held = merged.get(key)
            if held is None:
                merged[key] = {
                    "labels": dict(s["labels"]),
                    "counts": list(s["counts"]),
                    "sum": s["sum"],
                    "count": s["count"],
                }
            else:
                held["counts"] = [
                    x + y for x, y in zip(held["counts"], s["counts"])
                ]
                held["sum"] += s["sum"]
                held["count"] += s["count"]
    out["samples"] = [merged[k] for k in sorted(merged)]
    return out


_MERGERS = {
    "counter": _merge_counter,
    "gauge": _merge_gauge,
    "histogram": _merge_histogram,
}


def _alert_sort_key(alert: dict[str, Any]) -> tuple:
    return (
        float(alert.get("time_ms", 0.0)),
        int(alert.get("worker", -1)),
        str(alert.get("analyzer", "")),
        str(alert.get("message", "")),
    )


def merge_two(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Merge two snapshots (associative and commutative).

    Raises :class:`ValueError` on schema mismatch, overlapping worker
    ids (the signature of double-merging one worker), metric kind
    conflicts, or mismatched histogram bucket boundaries.
    """
    for snap in (a, b):
        if snap.get("schema") != SCHEMA:
            raise ValueError(
                f"expected snapshot schema {SCHEMA!r}, "
                f"got {snap.get('schema')!r}"
            )
    overlap = set(a["workers"]) & set(b["workers"])
    if overlap:
        raise ValueError(
            f"worker ids {sorted(overlap)} appear in both snapshots; "
            "each worker must be merged exactly once"
        )

    metrics: dict[str, Any] = {}
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        ma, mb = a["metrics"].get(name), b["metrics"].get(name)
        if ma is None or mb is None:
            present = ma if mb is None else mb
            metrics[name] = {
                **present,
                "samples": [dict(s) for s in present["samples"]],
            }
        else:
            metrics[name] = _MERGERS[ma["kind"]](ma, mb, name)

    spans = {**a["spans"], **b["spans"]}
    ta, tb = a["telemetry"], b["telemetry"]
    published: dict[str, float] = dict(ta["published"])
    for topic, count in tb["published"].items():
        published[topic] = published.get(topic, 0) + count
    dropped: dict[str, float] = dict(ta["dropped"])
    for key, count in tb["dropped"].items():
        dropped[key] = dropped.get(key, 0) + count

    return {
        "schema": SCHEMA,
        "workers": sorted(set(a["workers"]) | set(b["workers"])),
        "metrics": metrics,
        "spans": {k: spans[k] for k in sorted(spans, key=int)},
        "telemetry": {
            "published": {k: published[k] for k in sorted(published)},
            "dropped": {k: dropped[k] for k in sorted(dropped)},
            "alerts": sorted(
                ta["alerts"] + tb["alerts"], key=_alert_sort_key
            ),
        },
    }


def merge_snapshots(snapshots: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Merge any number of worker snapshots into one.

    Inputs are first ordered by worker id, then folded pairwise through
    :func:`merge_two` — so the result (and its canonical bytes) is a
    pure function of the snapshot *set*, independent of the order the
    workers completed or the list was assembled in.
    """
    ordered = sorted(snapshots, key=lambda s: tuple(s.get("workers", [])))
    merged = empty_snapshot()
    for snap in ordered:
        merged = merge_two(merged, snap)
    return merged


def canonical_snapshot(snapshot: dict[str, Any]) -> str:
    """Canonical JSON text of a snapshot (the byte-compare form)."""
    return _canonical_json(snapshot)


def write_snapshot(
    snapshot: dict[str, Any], path: str | pathlib.Path
) -> pathlib.Path:
    """Write a snapshot as canonical JSON; returns the path."""
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(canonical_snapshot(snapshot) + "\n")
    return p


def read_snapshot(path: str | pathlib.Path) -> dict[str, Any]:
    """Read a snapshot written by :func:`write_snapshot` (schema-checked)."""
    import json

    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: expected schema {SCHEMA!r}, got {doc.get('schema')!r}"
        )
    return doc


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------
def to_registry(snapshot: dict[str, Any]) -> MetricsRegistry:
    """Rebuild a live :class:`MetricsRegistry` from a (merged) snapshot.

    The registry answers ``value()``/``total()``/``breakdown()`` queries
    and feeds every exporter, so fleet-wide aggregates ride the same
    rendering paths as single-run registries.
    """
    registry = MetricsRegistry()
    for name in sorted(snapshot["metrics"]):
        entry = snapshot["metrics"][name]
        kind = entry["kind"]
        if kind == "counter":
            counter = registry.counter(
                name, help=entry.get("help", ""), unit=entry.get("unit", "")
            )
            for s in entry["samples"]:
                counter.inc(s["value"], **s["labels"])
        elif kind == "gauge":
            gauge = registry.gauge(
                name, help=entry.get("help", ""), unit=entry.get("unit", "")
            )
            for s in entry["samples"]:
                gauge.set(s["value"], **s["labels"])
        elif kind == "histogram":
            hist = registry.histogram(
                name,
                buckets=tuple(entry["bounds"]),
                help=entry.get("help", ""),
                unit=entry.get("unit", ""),
            )
            hist.load_samples(
                [
                    (s["labels"], s["counts"], s["sum"], s["count"])
                    for s in entry["samples"]
                ]
            )
        else:
            raise ValueError(f"metric {name!r}: unknown kind {kind!r}")
    return registry
