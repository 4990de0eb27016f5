"""``run_manifest.json``: the machine-readable record of one run-all.

One manifest per invocation, schema-versioned so downstream tooling can
rely on its shape (``tests/test_runner_run_all.py`` pins the key set).
Each ``experiments[]`` entry corresponds to one row of EXPERIMENTS.md's
summary table — ``id`` here is the lowercase form of that table's "Exp."
column (``fig6a`` ↔ "Fig 6a", ``sec8a`` ↔ "§8(a)", ``table1`` ↔
"Table 1") — so a manifest diff answers "which paper artifacts changed
and why" directly.

The ``result_sha256`` field hashes the pickled merged result object: two
runs regenerated the same artifact if and only if the hashes match, which
is how the parallel-equals-sequential guarantee is audited in practice —
and, since the robustness PR, how the chaos invariant is audited too:
a faulted run's hashes must match the fault-free run's byte for byte.

A manifest is written even when the run was cut short (SIGINT/SIGTERM) or
beaten up by injected faults; ``interrupted``, ``faults`` and the per-part
``attempts``/``failure_kind`` fields record exactly how the run degraded.
The write itself is atomic (:func:`repro.obs.ioutil.write_atomic`), so the
file on disk is always either the previous complete manifest or the new
one — never a torn hybrid.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict

from repro.obs.ioutil import write_atomic
from repro.obs.slo import section_from_rows
from repro.obs.spans import SPAN_SCHEMA_VERSION
from repro.runner.core import RunAllResult

#: Bump on any breaking change to the manifest layout.
#: v2 (span tracing PR): per-part ``engine``/``metrics`` summaries, a
#: top-level ``spans`` section, and ``events_dispatched`` in totals.
#: v3 (robustness PR): per-part ``attempts``/``timed_out``/``failure_kind``/
#: ``error``, top-level ``interrupted``/``retries``/``task_timeout_s``, and
#: ``faults`` + ``cache.quarantined`` sections.
#: v4 (profiler PR): per-part ``engine.profile`` attribution maps
#: (per event kind: component, dispatch count, sampled wall, sim-time
#: bounds) and span/live-event drop counts in totals.
#: v5 (SLO PR): per-experiment ``domain`` metric streams extracted from
#: merged results, and a top-level ``slo`` section (per-objective status,
#: signed margin, worst window) evaluated from the registry-default and
#: explicitly passed SLO specs. Both are pure functions of the results:
#: equal seeds produce byte-identical sections.
#: v6 (one journal PR): the live-event drop count leaves ``totals``; run
#: progress is ``run_journal.jsonl``, which drops nothing (docs/running.md
#: has the field mapping).
#: v7 (one record per unit): per-part ``metrics`` (a pool worker's counter
#: totals, empty in-process, read by nothing) is gone.
MANIFEST_SCHEMA_VERSION = 7

#: Default output filename.
MANIFEST_FILENAME = "run_manifest.json"

#: Required keys of every ``experiments[]`` entry (schema contract).
EXPERIMENT_KEYS = (
    "id",
    "runtime_class",
    "seed",
    "cache_hit",
    "duration_s",
    "shape_ok",
    "shape_detail",
    "result_sha256",
    "error",
    "domain",
    "parts",
)

#: Required keys of every ``parts[]`` entry.
PART_KEYS = (
    "part",
    "key",
    "cache_hit",
    "duration_s",
    "engine",
    "attempts",
    "timed_out",
    "failure_kind",
    "error",
)


def _part_engine(engine: Dict[str, Any]) -> Dict[str, Any]:
    """Compact per-part engine summary plus the attribution profile.

    Headline numbers as before; ``profile`` maps each event kind the part
    dispatched to its owning component, exact dispatch count, sampled
    wall-clock and sim-time bounds — the raw material of ``repro profile``
    and the per-kind baselines in ``perf_history.jsonl``. Empty for cache
    hits and ``--no-obs`` parts (simulators then keep no profile at all).
    """
    counts = engine.get("callback_counts") or {}
    walls = engine.get("callback_wall_s") or {}
    components = engine.get("callback_components") or {}
    bounds = engine.get("callback_sim_bounds") or {}
    profile = {}
    for kind in sorted(counts):
        window = bounds.get(kind)
        profile[kind] = {
            "component": str(components.get(kind, "")),
            "count": int(counts[kind]),
            "wall_s": round(float(walls.get(kind, 0.0)), 6),
            "sim_first_s": None if window is None else window[0],
            "sim_last_s": None if window is None else window[1],
        }
    return {
        "simulators": int(engine.get("simulators", 0)),
        "dispatched": int(engine.get("dispatched", 0)),
        "cancelled": int(engine.get("cancelled", 0)),
        "heap_high_watermark": int(engine.get("heap_high_watermark", 0)),
        "profile": profile,
    }


def build_manifest(run: RunAllResult) -> Dict[str, Any]:
    """Render a :class:`~repro.runner.core.RunAllResult` as manifest data."""
    experiments = []
    for record in run.runs:
        experiments.append(
            {
                "id": record.id,
                "runtime_class": record.runtime,
                "seed": record.seed,
                "cache_hit": record.cache_hit,
                "duration_s": round(record.duration_s, 6),
                "shape_ok": record.shape_ok,
                "shape_detail": record.shape_detail,
                "result_sha256": record.result_sha256,
                "error": record.error,
                "domain": record.domain,
                "parts": [
                    {
                        "part": part.task.part,
                        "key": part.key,
                        "cache_hit": part.cached,
                        "duration_s": round(part.wall_s, 6),
                        "engine": _part_engine(part.engine),
                        "attempts": part.attempts,
                        "timed_out": part.timed_out,
                        "failure_kind": part.failure_kind,
                        "error": part.error,
                    }
                    for part in record.parts
                ],
            }
        )
    events_dispatched = sum(
        part["engine"]["dispatched"] for entry in experiments for part in entry["parts"]
    )
    retried_parts = sum(
        1 for entry in experiments for part in entry["parts"] if part["attempts"] > 1
    )
    return {
        "schema": MANIFEST_SCHEMA_VERSION,
        "generated_unix_s": round(time.time(), 3),
        "jobs": run.jobs,
        "seed": run.seed,
        "code_fingerprint": run.code_fingerprint,
        "interrupted": run.interrupted,
        "retries": run.retries,
        "task_timeout_s": run.task_timeout_s,
        "cache": {
            "enabled": run.cache_enabled,
            "dir": run.cache_dir,
            "experiments_hit": run.cache_hits,
            "quarantined": list(run.quarantined),
        },
        "faults": {
            "plan": run.fault_plan,
            "events": list(run.fault_events),
        },
        "totals": {
            "experiments": len(run.runs),
            "ok": sum(1 for record in run.runs if record.ok),
            "failed": sum(1 for record in run.runs if not record.ok),
            "cache_hits": run.cache_hits,
            "wall_s": round(run.wall_s, 3),
            "events_dispatched": events_dispatched,
            "retried_parts": retried_parts,
            "spans_dropped": run.spans_dropped,
        },
        "spans": {
            "schema": SPAN_SCHEMA_VERSION,
            "count": len(run.spans),
            "records": run.spans,
        },
        "slo": section_from_rows(run.slo_rows, run.slo_spec_paths),
        "experiments": experiments,
    }


def write_manifest(run: RunAllResult, path: str = MANIFEST_FILENAME) -> Dict[str, Any]:
    """Build the manifest, write it atomically, and return it.

    Routed through :func:`repro.obs.ioutil.write_atomic` with the
    ``manifest.interrupt`` fault point armed-checkable between temp write
    and rename: a run killed (or faulted) mid-write leaves the previous
    manifest intact rather than a truncated JSON.
    """
    manifest = build_manifest(run)
    write_atomic(
        path,
        json.dumps(manifest, indent=2, sort_keys=False) + "\n",
        fault_point="manifest.interrupt",
    )
    return manifest
