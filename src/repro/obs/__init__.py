"""Observability: metrics registry, energy ledger, and runtime wiring.

The telemetry-first layer behind every performance claim in this repo: the
paper measured channel occupancy, queue behaviour and harvested energy with
tcpdump/tshark and router counters; the simulator measures them here. See
``docs/observability.md`` for naming conventions and the JSONL schemas.

Typical use::

    from repro.obs import runtime

    runtime.reset()                     # fresh registry + trace
    ... run an experiment ...
    runtime.get_registry().to_jsonl("metrics.jsonl")
"""

from __future__ import annotations

from repro.obs.compare import compare_runs, load_run, render_compare
from repro.obs.energy import EnergyLedger
from repro.obs.profile import (
    PROFILE_SCHEMA_VERSION,
    KindRow,
    collapse_stacks,
    deterministic_records,
    kind_baselines,
    render_attribution,
    rows_from_engine,
    rows_from_manifest,
    write_flame,
)
from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    append_history,
    build_history_record,
    load_history,
    write_bench_snapshot,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    Timeseries,
)
from repro.obs.spans import (
    NULL_SPANS,
    SPAN_SCHEMA_VERSION,
    Span,
    SpanRecorder,
    render_span_tree,
)
from repro.obs import runtime

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EnergyLedger",
    "Gauge",
    "HISTORY_SCHEMA_VERSION",
    "Histogram",
    "KindRow",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_SPANS",
    "PROFILE_SCHEMA_VERSION",
    "SPAN_SCHEMA_VERSION",
    "Span",
    "SpanRecorder",
    "Timeseries",
    "append_history",
    "build_history_record",
    "collapse_stacks",
    "compare_runs",
    "deterministic_records",
    "kind_baselines",
    "load_history",
    "load_run",
    "render_attribution",
    "render_compare",
    "render_span_tree",
    "rows_from_engine",
    "rows_from_manifest",
    "runtime",
    "write_bench_snapshot",
    "write_flame",
]
