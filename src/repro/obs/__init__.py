"""Observability: metrics registry, spans, traces, and runtime wiring.

The telemetry-first layer behind every performance claim in this repo: the
paper measured channel occupancy and queue behaviour with tcpdump/tshark and
router counters; the simulator measures them here. See
``docs/observability.md`` for naming conventions and the JSONL schemas.

Typical use::

    from repro.obs import runtime

    runtime.reset()                     # fresh registry + trace
    ... run an experiment ...
    runtime.get_registry().to_jsonl("metrics.jsonl")
"""
