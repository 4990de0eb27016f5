"""Longitudinal performance memory: ``perf_history.jsonl`` and BENCH files.

The paper's evaluation is longitudinal — occupancy traces and per-home
deployments recorded over days — and this module gives the reproduction the
same property for its own runs. Every ``run-all`` appends one schema-
versioned record (per-experiment wall clock, events dispatched, heap
high-water, cache hit/miss counts, result hashes) to
``benchmarks/results/perf_history.jsonl`` and snapshots the same record as
``BENCH_<date>.json``, so "what got slower since last month" is a query over
committed JSONL rather than archaeology.

Records are derived purely from the run manifest
(:mod:`repro.runner.manifest`), so a history entry can also be rebuilt from
any archived manifest. ``python -m repro compare`` (:mod:`repro.obs.compare`)
consumes both shapes interchangeably.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.ioutil import append_line, read_jsonl, write_atomic

#: Bump on any breaking change to the history record layout.
HISTORY_SCHEMA_VERSION = 1

#: Default location the BENCH trajectory accumulates in.
DEFAULT_HISTORY_DIR = "benchmarks/results"

#: Filename of the append-only record stream.
HISTORY_FILENAME = "perf_history.jsonl"


def _experiment_entry(entry: Dict[str, Any]) -> Dict[str, Any]:
    """One manifest ``experiments[]`` entry -> one compact history entry."""
    engine_dispatched = 0
    heap_high_watermark = 0
    for part in entry.get("parts", []):
        engine = part.get("engine") or {}
        engine_dispatched += int(engine.get("dispatched", 0))
        heap_high_watermark = max(
            heap_high_watermark, int(engine.get("heap_high_watermark", 0))
        )
    return {
        "wall_s": entry.get("duration_s", 0.0),
        "ok": entry.get("error") is None and entry.get("shape_ok") is not False,
        "cache_hit": bool(entry.get("cache_hit")),
        "result_sha256": entry.get("result_sha256", ""),
        "events_dispatched": engine_dispatched,
        "heap_high_watermark": heap_high_watermark,
    }


def build_history_record(
    manifest: Dict[str, Any],
    recorded_unix_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Render one run manifest as a perf-history record.

    ``recorded_unix_s`` defaults to the manifest's own generation stamp, so
    a record rebuilt from an archived manifest dates itself correctly.
    """
    entries = manifest.get("experiments")
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict) and "id" in entry for entry in entries
    ):
        raise ObservabilityError(
            "cannot build a history record: manifest has no experiments[] "
            "of entries with an id"
        )
    recorded = (
        manifest.get("generated_unix_s", 0.0)
        if recorded_unix_s is None
        else recorded_unix_s
    )
    experiments = {
        entry["id"]: _experiment_entry(entry) for entry in manifest["experiments"]
    }
    totals = dict(manifest.get("totals", {}))
    totals["events_dispatched"] = sum(
        e["events_dispatched"] for e in experiments.values()
    )
    totals["heap_high_watermark"] = max(
        (e["heap_high_watermark"] for e in experiments.values()), default=0
    )
    cache = manifest.get("cache", {})
    # Per-event-kind baselines (v4+ manifests carry per-part attribution
    # profiles): {kind: {component, count, wall_s}} folded across the whole
    # run, so `repro compare` can name the kind behind a wall regression.
    # Pre-v4 or --no-obs manifests simply yield {}.
    from repro.obs.profile import kind_baselines, rows_from_manifest

    kinds = kind_baselines(rows_from_manifest(manifest))
    # SLO summary (v5+ manifests): counts plus a per-objective status map,
    # enough for `repro compare` to flag an objective that flipped from ok
    # to violated between two runs without re-reading either manifest.
    # Pre-v5 manifests yield {} — compare then has nothing to say.
    slo_summary: Dict[str, Any] = {}
    slo_section = manifest.get("slo")
    if isinstance(slo_section, dict) and slo_section.get("objectives"):
        slo_summary = {
            "counts": dict(slo_section.get("counts", {})),
            "objectives": {
                f"{row.get('experiment')}:{row.get('id')}": {
                    "status": row.get("status"),
                    "margin": row.get("margin"),
                }
                for row in slo_section["objectives"]
            },
        }
    return {
        "schema": HISTORY_SCHEMA_VERSION,
        "kind": "perf_history",
        "recorded_unix_s": round(float(recorded), 3),
        "date": time.strftime("%Y-%m-%d", time.gmtime(recorded)),
        "seed": manifest.get("seed"),
        "jobs": manifest.get("jobs"),
        "code_fingerprint": manifest.get("code_fingerprint", ""),
        "cache_enabled": bool(cache.get("enabled")),
        "totals": totals,
        "experiments": experiments,
        "kinds": kinds,
        "slo": slo_summary,
    }


def append_history(
    record: Dict[str, Any],
    directory: Union[str, Path] = DEFAULT_HISTORY_DIR,
) -> Path:
    """Append one record to ``<directory>/perf_history.jsonl``.

    Creates the directory (and file) on first use; returns the file path.
    The record goes down as one ``O_APPEND`` write
    (:func:`repro.obs.ioutil.append_line`), so a killed run can tear at
    most the final newline, never an earlier record.
    """
    return append_line(
        Path(directory) / HISTORY_FILENAME, json.dumps(record, sort_keys=True)
    )


def write_bench_snapshot(
    record: Dict[str, Any],
    directory: Union[str, Path] = DEFAULT_HISTORY_DIR,
) -> Path:
    """Write the record as ``BENCH_<date>.json`` (same-day runs overwrite).

    The dated snapshot is the human-browsable point on the BENCH
    trajectory; the JSONL stream is the machine-diffable one. Written
    atomically so a same-day overwrite can never tear the previous
    snapshot.
    """
    return write_atomic(
        Path(directory) / f"BENCH_{record['date']}.json",
        json.dumps(record, indent=2, sort_keys=True) + "\n",
    )


def load_history(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read every record of a ``perf_history.jsonl`` stream, oldest first.

    Reads through :func:`repro.obs.ioutil.read_jsonl`: blank lines and a
    torn final append are skipped; any other malformed line raises
    :class:`~repro.errors.ObservabilityError` naming the line number.
    """
    return read_jsonl(path, "history")


def expected_walls(history_path: Union[str, Path]) -> Dict[str, float]:
    """Latest measured wall-clock per experiment from a perf history file.

    Scans ``perf_history.jsonl`` oldest→newest keeping, per experiment, the
    most recent record that actually executed (cache-hit replays report
    near-zero walls and would wreck the ETA). Missing or malformed history
    degrades to ``{}`` — the watch board then shows no ETA, nothing fails.
    """
    try:
        records = load_history(history_path)
    except (OSError, ObservabilityError):
        return {}
    walls: Dict[str, float] = {}
    for record in records:
        experiments = record.get("experiments") or {}
        if not isinstance(experiments, dict):
            continue
        for exp_id, entry in experiments.items():
            if not isinstance(entry, dict) or entry.get("cache_hit"):
                continue
            wall = entry.get("wall_s")
            if isinstance(wall, (int, float)) and wall > 0:
                walls[str(exp_id)] = float(wall)
    return walls
