"""Hierarchical wall-clock timing spans.

Usage::

    rec = SpanRecorder()
    with rec.span("st_run", n=400):
        with rec.span("boruvka_phase", phase=0):
            ...
    print(rec.render_tree())

Spans nest by dynamic scope: the innermost open span adopts new spans as
children.  Exceptions propagate but the span still closes with its
duration recorded (exception safety), so a crashed run leaves a usable
partial profile.

When the recorder is disabled, :meth:`SpanRecorder.span` returns one
shared no-op context manager — no allocation, no clock read — so
instrumented code can stay unconditional on hot-ish paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Span:
    """One timed section; ``duration_s`` is None while still open."""

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    start_s: float = 0.0
    duration_s: float | None = None
    children: list["Span"] = field(default_factory=list)
    #: True when the body raised (the span still carries its duration)
    failed: bool = False

    @property
    def duration_ms(self) -> float:
        return (self.duration_s or 0.0) * 1000.0

    def self_time_s(self) -> float:
        """Duration minus child durations (time spent in this span's own code)."""
        total = self.duration_s or 0.0
        return total - sum(c.duration_s or 0.0 for c in self.children)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 6),
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.failed:
            out["failed"] = True
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Span":
        """Rebuild a closed span tree from :meth:`to_dict` output (the
        start reading is not serialised and comes back as 0)."""
        return cls(
            name=str(doc["name"]),
            attrs=dict(doc.get("attrs", {})),
            duration_s=float(doc["duration_ms"]) / 1000.0,
            children=[cls.from_dict(c) for c in doc.get("children", [])],
            failed=bool(doc.get("failed", False)),
        )


class _NullSpan:
    """Shared zero-cost context manager used when recording is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager that closes one real span on exit."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "SpanRecorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type: object, *exc: object) -> None:
        self._span.duration_s = self._recorder.clock() - self._span.start_s
        self._span.failed = exc_type is not None
        stack = self._recorder._stack
        # pop to (and including) our span even if inner spans leaked open
        while stack:
            if stack.pop() is self._span:
                break
        return None


class SpanRecorder:
    """Collects a forest of :class:`Span` trees.

    ``clock`` (``time.perf_counter`` unless reassigned) is read when a
    span opens and closes; the ops plane points it at its own
    injectable clock.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.clock = time.perf_counter
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Open a child span of the innermost active span (or a new root)."""
        if not self.enabled:
            return _NULL_SPAN
        s = Span(name=name, attrs=attrs, start_s=self.clock())
        if self._stack:
            self._stack[-1].children.append(s)
        else:
            self.roots.append(s)
        self._stack.append(s)
        return _OpenSpan(self, s)

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def clear(self) -> None:
        self.roots.clear()
        self._stack.clear()

    def to_dicts(self) -> list[dict[str, Any]]:
        return [r.to_dict() for r in self.roots]

    # ------------------------------------------------------------------
    def render_tree(self, min_ms: float = 0.0) -> str:
        """ASCII span tree with per-span wall times.

        ``min_ms`` prunes spans shorter than the threshold (their hidden
        count is noted on the parent line).
        """
        lines: list[str] = []
        for root in self.roots:
            self._render(root, "", True, lines, min_ms, is_root=True)
        return "\n".join(lines) if lines else "(no spans recorded)"

    def _render(
        self,
        span: Span,
        prefix: str,
        last: bool,
        lines: list[str],
        min_ms: float,
        is_root: bool = False,
    ) -> None:
        attrs = (
            " [" + ", ".join(f"{k}={v}" for k, v in span.attrs.items()) + "]"
            if span.attrs
            else ""
        )
        marker = "" if is_root else ("└─ " if last else "├─ ")
        flag = "  !" if span.failed else ""
        lines.append(
            f"{prefix}{marker}{span.name}{attrs}  "
            f"{span.duration_ms:.2f} ms{flag}"
        )
        shown = [c for c in span.children if c.duration_ms >= min_ms]
        hidden = len(span.children) - len(shown)
        child_prefix = prefix + ("" if is_root else ("   " if last else "│  "))
        for i, child in enumerate(shown):
            self._render(
                child,
                child_prefix,
                i == len(shown) - 1 and hidden == 0,
                lines,
                min_ms,
            )
        if hidden:
            lines.append(f"{child_prefix}└─ ({hidden} spans < {min_ms} ms hidden)")
