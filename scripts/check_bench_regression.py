#!/usr/bin/env python
"""Fail when a benchmark artifact regresses against its committed baseline.

Usage::

    python scripts/check_bench_regression.py \
        --current results/BENCH_scale.json \
        --baseline benchmarks/baselines/BENCH_scale.json \
        [--tolerance 0.20]

Compares the overall ``wall_time_s`` and, when both artifacts carry
per-row timings (``metrics.rows[*].wall_s``), each (n[, tiles][, obs])
row that exists in both.  Rows from merged multi-shard runs carry a
``tiles`` field (e.g. ``"2x2"``) and compare independently from their
single-region twins; the observability-overhead bench tells its paired
rows apart with an ``obs`` field (``"off"``/``"on"``).  A measurement is a regression when it exceeds the
baseline by more than ``tolerance`` (a fraction: 0.20 = +20%).

Multi-shard artifacts may reference an **observability bundle** — the
per-shard ``worker_NNNN.json`` snapshots plus their ``merged.json``
written by ``repro.shard.run_city(obs_dir=...)`` — via
``metrics.obs_bundle`` (a directory relative to the artifact) or the
``--bundle-dir`` flag.  The bundle is then verified with the
``repro.obs.aggregate`` readers: every worker snapshot must load, and
re-merging them must reproduce ``merged.json`` byte for byte (the
merge is associative/commutative, so this holds regardless of worker
scheduling).  A missing or inconsistent bundle is an artifact error
(exit 2).

Budgets are machine-independent hard ceilings carried by the *current*
artifact itself (``metrics.budgets[*]`` entries of the form
``{"name": ..., "value": ..., "limit": ...}``): a value above its limit
fails regardless of tolerance.  Every budget line prints its **headroom**
(``limit - value``, the distance to failure; negative = exceeded), so a
BUDGET EXCEEDED failure carries the margin it missed by.

``--history PATH`` reads the bench-history JSONL (schema
``repro.bench.history/1``, written by ``repro trend --record``) and
prints the recent wall-time and headroom trail for the current bench;
``--append-history`` records the current artifact into that file after
the checks, so CI runs accumulate the series ``repro trend`` renders.

Exit codes: 0 OK, 1 regression/budget violation, 2 usage/artifact error.

Wall times are machine-dependent; the committed baseline is from the CI
runner class.  Use a generous ``--tolerance`` anywhere else, or refresh
the baseline (copy the new artifact over the old one) when a deliberate
performance change lands.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def _load(path: str) -> dict:
    p = pathlib.Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no artifact at {path}")
    data = json.loads(p.read_text())
    if data.get("schema") != "repro.bench/1":
        raise ValueError(f"{path}: unexpected schema {data.get('schema')!r}")
    return data


def _rows_by_key(data: dict) -> dict[tuple[int, str, str], float]:
    """Index rows by (n, tiles, obs); absent fields key as ''."""
    rows = data.get("metrics", {}).get("rows", [])
    return {
        (int(r["n"]), str(r.get("tiles", "")), str(r.get("obs", ""))): float(
            r["wall_s"]
        )
        for r in rows
        if "n" in r and "wall_s" in r
    }


def _row_label(key: tuple[int, str, str]) -> str:
    n, tiles, obs = key
    label = f"n={n}"
    if tiles:
        label += f" tiles={tiles}"
    return f"{label} obs={obs}" if obs else label


def compare(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Return a list of regression descriptions (empty = pass)."""
    failures: list[str] = []

    def check(label: str, cur: float, base: float) -> None:
        if base <= 0:
            # a zero/negative baseline makes the ratio meaningless; say so
            # instead of silently passing
            print(
                f"{label}: skipped (baseline {base:.3f}s is not positive; "
                f"refresh the baseline artifact)"
            )
            return
        ratio = cur / base
        verdict = "REGRESSION" if ratio > 1.0 + tolerance else "ok"
        print(
            f"{label}: current={cur:.3f}s baseline={base:.3f}s "
            f"({ratio - 1.0:+.1%} vs baseline) {verdict}"
        )
        if verdict == "REGRESSION":
            failures.append(f"{label}: {cur:.3f}s vs {base:.3f}s (+{ratio - 1:.1%})")

    cur_wall = current.get("wall_time_s")
    base_wall = baseline.get("wall_time_s")
    if cur_wall is not None and base_wall is not None:
        check("wall_time_s", float(cur_wall), float(base_wall))
    else:
        missing = "current" if cur_wall is None else "baseline"
        print(f"wall_time_s: skipped (missing from the {missing} artifact)")

    cur_rows = _rows_by_key(current)
    for key, base_s in sorted(_rows_by_key(baseline).items()):
        label = _row_label(key)
        if key in cur_rows:
            check(label, cur_rows[key], base_s)
        else:
            # baseline-only rows (grid shrank, variant dropped) are visible
            # skips, never silent passes
            print(f"{label}: skipped (no matching row in the current artifact)")
    return failures


def check_budgets(current: dict) -> list[str]:
    """Enforce the artifact's own budgets; returns violation descriptions.

    Budgets are ratios or fractions, not wall seconds, so they hold on
    any machine — no tolerance applies.  Each line prints the headroom
    (``limit - value``): the distance to a BUDGET EXCEEDED failure.
    """
    failures: list[str] = []
    for budget in current.get("metrics", {}).get("budgets", []):
        name = budget.get("name", "<unnamed>")
        try:
            value = float(budget["value"])
            limit = float(budget["limit"])
        except (KeyError, TypeError, ValueError):
            failures.append(f"budget {name}: malformed entry {budget!r}")
            continue
        headroom = limit - value
        verdict = "BUDGET EXCEEDED" if value > limit else "ok"
        print(
            f"budget {name}: value={value:.4f} limit={limit:.4f} "
            f"headroom={headroom:+.4f} {verdict}"
        )
        if verdict != "ok":
            failures.append(
                f"budget {name}: {value:.4f} > limit {limit:.4f} "
                f"(headroom {headroom:+.4f})"
            )
    return failures


def _ensure_repro_importable() -> None:
    """Make ``repro`` importable when run without ``PYTHONPATH=src``.

    CI invokes this script bare; the obs-aggregate readers live in the
    package, so bundle verification bootstraps ``<repo>/src`` itself.
    """
    try:
        import repro  # noqa: F401

        return
    except ImportError:
        pass
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if src.is_dir():
        sys.path.insert(0, str(src))


def verify_bundle(bundle_dir: str | pathlib.Path) -> list[str]:
    """Verify a merged multi-shard observability bundle.

    Loads every ``worker_*.json`` snapshot with the schema-checked
    :func:`repro.obs.aggregate.read_snapshot`, re-merges them and
    byte-compares the canonical form against the committed
    ``merged.json``.  Returns failure descriptions (empty = consistent).
    """
    _ensure_repro_importable()
    from repro.obs.aggregate import (
        canonical_snapshot,
        merge_snapshots,
        read_snapshot,
    )

    directory = pathlib.Path(bundle_dir)
    failures: list[str] = []
    workers = sorted(directory.glob("worker_*.json"))
    if not workers:
        return [f"bundle {directory}: no worker_*.json snapshots"]
    snapshots = []
    for path in workers:
        try:
            snapshots.append(read_snapshot(path))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            failures.append(f"bundle worker {path.name}: {exc}")
    if failures:
        return failures
    merged_path = directory / "merged.json"
    if not merged_path.is_file():
        return [f"bundle {directory}: merged.json missing"]
    try:
        committed = read_snapshot(merged_path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return [f"bundle merged.json: {exc}"]
    remerged = merge_snapshots(snapshots)
    if canonical_snapshot(remerged) != canonical_snapshot(committed):
        failures.append(
            f"bundle {directory}: merged.json does not equal the re-merge "
            f"of its {len(workers)} worker snapshots"
        )
    else:
        shard_ids = [w for s in snapshots for w in s.get("workers", [])]
        print(
            f"bundle {directory}: {len(workers)} worker snapshots "
            f"(shards {min(shard_ids)}..{max(shard_ids)}) re-merge "
            "byte-identical to merged.json"
        )
    return failures


HISTORY_SCHEMA = "repro.bench.history/1"


def _load_history(path: str) -> list[dict]:
    """Parse the bench-history JSONL; a missing file is an empty history."""
    p = pathlib.Path(path)
    if not p.is_file():
        return []
    entries = []
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        entry = json.loads(line)
        if entry.get("schema") != HISTORY_SCHEMA:
            raise ValueError(
                f"{path}:{lineno}: expected schema {HISTORY_SCHEMA!r}, "
                f"got {entry.get('schema')!r}"
            )
        entries.append(entry)
    return entries


def _min_headroom(budgets: list) -> tuple[str, float] | None:
    best = None
    for budget in budgets or []:
        try:
            headroom = float(budget["limit"]) - float(budget["value"])
        except (KeyError, TypeError, ValueError):
            continue
        if best is None or headroom < best[1]:
            best = (str(budget.get("name", "<unnamed>")), headroom)
    return best


def print_history(current: dict, entries: list[dict], tail: int = 5) -> None:
    """Show the recorded wall-time / headroom trail for this bench."""
    bench = current.get("bench", "?")
    matching = [e for e in entries if e.get("bench") == bench]
    if not matching:
        print(f"history: no recorded entries for bench {bench!r}")
        return
    matching.sort(key=lambda e: int(e.get("seq", 0)))
    print(f"history for {bench} (last {min(tail, len(matching))} of "
          f"{len(matching)} recorded):")
    for entry in matching[-tail:]:
        wall = entry.get("wall_time_s")
        wall_txt = "wall=n/a" if wall is None else f"wall={float(wall):.3f}s"
        head = _min_headroom(entry.get("budgets", []))
        head_txt = (
            "" if head is None else f" headroom={head[1]:+.4f} ({head[0]})"
        )
        print(
            f"  seq {int(entry.get('seq', 0)):>3} "
            f"[{entry.get('label', '')}]: {wall_txt}{head_txt}"
        )


def append_history(path: str, current: dict, label: str) -> None:
    """Record the current artifact as the next history entry."""
    entries = _load_history(path)
    bench = current.get("bench", "?")
    seq = 1 + max(
        (int(e.get("seq", 0)) for e in entries if e.get("bench") == bench),
        default=0,
    )
    metrics = current.get("metrics", {}) or {}
    entry = {
        "schema": HISTORY_SCHEMA,
        "bench": bench,
        "seq": seq,
        "label": label or f"run-{seq}",
        "wall_time_s": current.get("wall_time_s"),
        "rows": metrics.get("rows", []),
        "budgets": metrics.get("budgets", []),
    }
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"history: recorded {bench} seq {seq} into {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", required=True, help="fresh BENCH_*.json")
    parser.add_argument("--baseline", required=True, help="committed baseline")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional slowdown before failing (default 0.20)",
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="bench-history JSONL (repro.bench.history/1); prints the "
        "recorded wall-time/headroom trail for this bench",
    )
    parser.add_argument(
        "--append-history",
        action="store_true",
        help="record the current artifact into --history after the checks",
    )
    parser.add_argument(
        "--history-label",
        default="",
        help="label for the --append-history entry (default: run-<seq>)",
    )
    parser.add_argument(
        "--bundle-dir",
        default=None,
        metavar="DIR",
        help="multi-shard observability bundle (worker_*.json + "
        "merged.json) to verify; defaults to the current artifact's "
        "metrics.obs_bundle when present",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        print("tolerance must be >= 0", file=sys.stderr)
        return 2
    if args.append_history and not args.history:
        print("--append-history requires --history", file=sys.stderr)
        return 2
    try:
        current = _load(args.current)
        baseline = _load(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bundle_dir = args.bundle_dir
    if bundle_dir is None:
        rel = current.get("metrics", {}).get("obs_bundle")
        if rel:
            bundle_dir = str(pathlib.Path(args.current).parent / rel)
    if bundle_dir is not None:
        bundle_failures = verify_bundle(bundle_dir)
        if bundle_failures:
            for f in bundle_failures:
                print(f"error: {f}", file=sys.stderr)
            return 2
    failures = compare(current, baseline, args.tolerance)
    budget_failures = check_budgets(current)
    if args.history:
        try:
            entries = _load_history(args.history)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print_history(current, entries)
        if args.append_history:
            append_history(args.history, current, args.history_label)
    if failures or budget_failures:
        if failures:
            print(
                f"\n{len(failures)} regression(s) beyond +{args.tolerance:.0%}:"
            )
            for f in failures:
                print(f"  - {f}")
        if budget_failures:
            print(f"\n{len(budget_failures)} budget violation(s):")
            for f in budget_failures:
                print(f"  - {f}")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
