"""The committed golden corpus: enumeration, recording, verification.

The corpus spans the full conformance matrix —
``{st, fst, pulsesync} × {clean, faulted}`` at ``n ∈ {8, 32, 128}`` —
18 goldens, every one converging in well under a second so the whole
corpus replays inside a CI job.

The faulted half uses one fixed plan (:data:`CORPUS_FAULT_SPEC`): lossy
beacons and PS pulses, a crash window wide enough to exercise repair,
and collision arbitration — each decision a pure function of event
identity, so faulted goldens replay bitwise.

Beside the 18 single-region goldens, the corpus records six **sharded
city goldens** (:func:`shard_corpus_specs`) —
``{st, fst, pulsesync} × 2×2 tiles × n ∈ {32, 128}`` — whose replay
re-runs the whole tile/halo pipeline (``docs/sharding.md``).
:func:`verify_corpus` covers both sets.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterator

from repro.conformance.golden import (
    GoldenTrace,
    capture_run,
    default_name,
    replay,
)
from repro.conformance.report import Divergence
from repro.core.config import PaperConfig
from repro.faults.plan import FaultConfig

#: Default location of the committed corpus, relative to the repo root.
GOLDENS_DIRNAME = "tests/goldens"

#: Fault plan shared by every faulted golden (see module docstring).
CORPUS_FAULT_SPEC = (
    "beacon_loss=0.05,ps_loss=0.02,crash=0.1,collision=0.1,crash_window_ms=3000"
)

#: Deployment seed shared by the whole corpus.
CORPUS_SEED = 1

CORPUS_SIZES = (8, 32, 128)
CORPUS_ALGORITHMS = ("st", "fst", "pulsesync")

#: Sharded corpus axis: every algorithm over a 2×2 tiling, clean, at
#: these city populations (see :func:`shard_corpus_specs`).
SHARD_CORPUS_SIZES = (32, 128)
SHARD_CORPUS_TILES = (2, 2)

#: Sizes whose ST/FST message bills are additionally pinned in
#: ``message_bills.json`` (the satellite regression fixture).
BILL_SIZES = (8, 32)
BILLS_FILENAME = "message_bills.json"


def corpus_specs() -> Iterator[tuple[str, PaperConfig, str]]:
    """Yield ``(name, config, algorithm)`` for every corpus golden."""
    for n in CORPUS_SIZES:
        for faulted in (False, True):
            config = PaperConfig(
                n_devices=n,
                seed=CORPUS_SEED,
                faults=(
                    FaultConfig.from_spec(CORPUS_FAULT_SPEC)
                    if faulted
                    else None
                ),
            )
            for algorithm in CORPUS_ALGORITHMS:
                yield default_name(config, algorithm), config, algorithm


def shard_corpus_specs() -> Iterator[tuple[str, "object", str]]:
    """Yield ``(name, city_config, algorithm)`` for the sharded goldens.

    Kept separate from :func:`corpus_specs` — the single-region corpus
    is pinned at 18 entries; the sharded axis extends it without
    renumbering.  Import of the shard tier is lazy: this module is
    reachable from ``repro.conformance.__init__`` while
    ``repro.shard.conformance`` imports back into the golden layer.
    """
    from repro.shard.conformance import shard_default_name
    from repro.shard.tiling import CityConfig

    rows, cols = SHARD_CORPUS_TILES
    for n in SHARD_CORPUS_SIZES:
        city = CityConfig(
            PaperConfig(n_devices=n, seed=CORPUS_SEED), rows, cols
        )
        for algorithm in CORPUS_ALGORITHMS:
            yield shard_default_name(city, algorithm), city, algorithm


def golden_path(root: str | pathlib.Path, name: str) -> pathlib.Path:
    return pathlib.Path(root) / f"{name}.json"


def record_corpus(root: str | pathlib.Path) -> list[pathlib.Path]:
    """(Re)record every corpus golden plus the message-bill fixture.

    Returns the written paths.  Recording is the only sanctioned way to
    update goldens — hand-editing breaks the content hash and is flagged
    as corruption by :func:`verify_corpus`.
    """
    root = pathlib.Path(root)
    written: list[pathlib.Path] = []
    bills: dict[str, dict[str, int]] = {}
    for name, config, algorithm in corpus_specs():
        golden = capture_run(config, algorithm, name=name)
        written.append(golden.save(golden_path(root, name)))
        if algorithm in ("st", "fst") and config.n_devices in BILL_SIZES:
            bills[name] = dict(sorted(golden.bill.items()))
    from repro.shard.conformance import capture_city

    for name, city, algorithm in shard_corpus_specs():
        golden = capture_city(city, algorithm, name=name)
        written.append(golden.save(golden_path(root, name)))
    bills_path = root / BILLS_FILENAME
    bills_path.write_text(json.dumps(bills, sort_keys=True, indent=1) + "\n")
    written.append(bills_path)
    return written


def load_corpus(root: str | pathlib.Path) -> list[GoldenTrace]:
    """Load every committed corpus golden, in spec order."""
    return [
        GoldenTrace.load(golden_path(root, name))
        for name, _, _ in corpus_specs()
    ]


def verify_corpus(
    root: str | pathlib.Path,
) -> list[tuple[str, Divergence | None]]:
    """Replay every committed golden; return per-golden outcomes.

    A golden whose stored content hash no longer
    matches its payload (hand-edited / corrupted file) is still
    replayed, so the outcome names the first diverging round/event
    rather than a bare checksum failure; the corruption is recorded in
    the divergence context.
    """
    names = [name for name, _, _ in corpus_specs()]
    names += [name for name, _, _ in shard_corpus_specs()]
    return [(name, _verify_one(root, name)) for name in names]


def _verify_one(root: pathlib.Path, name: str) -> Divergence | None:
    path = golden_path(root, name)
    if not path.exists():
        return Divergence(
            pair=f"golden-vs-run:{name}",
            kind="content",
            location=str(path),
            expected="golden file",
            actual="<missing>",
        )
    golden = GoldenTrace.load(path)
    corrupted = not golden.integrity_ok()
    _, div = replay(golden)
    if div is None and corrupted:
        div = Divergence(
            pair=f"golden-vs-run:{name}",
            kind="content",
            location="content_hash",
            expected=golden.content_hash,
            actual="<recomputed hash differs: golden file edited>",
        )
    elif div is not None and corrupted:
        div = Divergence(
            pair=div.pair,
            kind=div.kind,
            location=div.location,
            round=div.round,
            time_ms=div.time_ms,
            expected=div.expected,
            actual=div.actual,
            context={**div.context, "golden_integrity": "FAILED"},
        )
    return div


def load_bills(root: str | pathlib.Path) -> dict[str, dict[str, int]]:
    """The committed per-kind message-bill fixture."""
    return json.loads((pathlib.Path(root) / BILLS_FILENAME).read_text())
