"""Structured event tracing and counting.

Protocol implementations emit trace records (``recorder.emit(t, "ps_tx",
node=3, codec=1)``); analysis code filters and counts them.  Counters are
kept alongside the record list so counting a category stays O(1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True)
class TraceRecord:
    """One traced event."""

    time: float
    category: str
    data: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def canonical(self) -> tuple[float, str, tuple[tuple[str, Any], ...]]:
        """Order-stable tuple form used for conformance comparison.

        Two records are conformance-equal iff their canonical tuples are
        equal; the data dict is flattened in sorted-key order so insert
        order cannot leak into golden-trace hashes.
        """
        return (
            self.time,
            self.category,
            tuple(sorted(self.data.items())),
        )


class TraceRecorder:
    """Collects :class:`TraceRecord` objects and per-category counters."""

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []
        self._by_category: dict[str, list[TraceRecord]] = {}
        self._counts: Counter[str] = Counter()

    # ------------------------------------------------------------------
    def emit(self, time: float, category: str, **data: Any) -> None:
        """Record one event in ``category`` at ``time``."""
        self._counts[category] += 1
        record = TraceRecord(time, category, data)
        self._records.append(record)
        self._by_category.setdefault(category, []).append(record)

    def count(self, category: str) -> int:
        """Number of events emitted in ``category``."""
        return self._counts[category]

    def total(self, *categories: str) -> int:
        """Sum of counts over ``categories`` (all categories if empty)."""
        if not categories:
            return sum(self._counts.values())
        return sum(self._counts[c] for c in categories)

    @property
    def categories(self) -> list[str]:
        return sorted(self._counts)

    # ------------------------------------------------------------------
    def records(self, category: str | None = None) -> list[TraceRecord]:
        """All retained records, optionally filtered by category.

        Per-category lookup is O(k) in the matching records (an index is
        maintained at emit time), not a scan of the full record list.
        """
        if category is None:
            return list(self._records)
        return list(self._by_category.get(category, ()))

    def __iter__(self) -> Iterator[TraceRecord]:
        """Iterate retained records in emit order."""
        return iter(self._records)

    def __len__(self) -> int:
        return sum(self._counts.values())

    def clear(self) -> None:
        self._records.clear()
        self._by_category.clear()
        self._counts.clear()

    def __repr__(self) -> str:
        return f"TraceRecorder(total={len(self)}, categories={self.categories})"
