"""Conformance subsystem: golden traces, differential runners, relations.

Three complementary oracles over the same capture format:

- :mod:`repro.conformance.golden` — record a run's canonical trace
  (events, per-round phase digests, merges, bill, result) and replay it
  later, reporting the first diverging round/event.
- :mod:`repro.conformance.differential` — run one ``(config, seed)``
  through paired pipelines that must agree (clean/noop faults,
  distributed/centralized MST, sorted/naive FFA, sharded/single-region).
- :mod:`repro.conformance.metamorphic` — input transformations with
  known output effects (relabeling, seed translation, dB co-shift,
  fault inactivity).

The committed corpus lives in ``tests/goldens/`` and is managed by
:mod:`repro.conformance.corpus`; the ``repro conformance`` CLI wraps
all of it.  See ``docs/testing.md``.
"""

from repro.conformance.canonical import (
    canonical_json,
    content_hash,
    from_jsonable,
    hash_array,
    to_jsonable,
)
from repro.conformance.corpus import (
    CORPUS_FAULT_SPEC,
    corpus_specs,
    load_bills,
    load_corpus,
    record_corpus,
    verify_corpus,
)
from repro.conformance.differential import (
    DIFF_PAIRS,
    DiffOutcome,
    diff_boruvka_oracle,
    diff_fault_noop,
    diff_ffa,
    run_pairs,
)
from repro.conformance.golden import (
    ALGORITHMS,
    GOLDEN_SCHEMA,
    GoldenTrace,
    capture_run,
    config_from_summary,
    config_summary,
    default_name,
    replay,
)
from repro.conformance.metamorphic import (
    METAMORPHIC_RELATIONS,
    run_relations,
)
from repro.conformance.report import (
    Divergence,
    first_divergence,
    payload_hash,
    render_summary,
)

__all__ = [
    "ALGORITHMS",
    "CORPUS_FAULT_SPEC",
    "DIFF_PAIRS",
    "DiffOutcome",
    "Divergence",
    "GOLDEN_SCHEMA",
    "GoldenTrace",
    "METAMORPHIC_RELATIONS",
    "canonical_json",
    "capture_run",
    "config_from_summary",
    "config_summary",
    "content_hash",
    "corpus_specs",
    "default_name",
    "diff_boruvka_oracle",
    "diff_fault_noop",
    "diff_ffa",
    "first_divergence",
    "from_jsonable",
    "hash_array",
    "load_bills",
    "load_corpus",
    "payload_hash",
    "record_corpus",
    "render_summary",
    "replay",
    "run_pairs",
    "run_relations",
    "to_jsonable",
    "verify_corpus",
]
