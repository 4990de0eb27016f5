"""Regression diffing between two runs: ``python -m repro compare``.

Consumes any pair of run manifests (:mod:`repro.runner.manifest`) and/or
perf-history records (:mod:`repro.obs.history`) and reports three things:

* **wall-clock deltas** per experiment, flagging regressions beyond a
  configurable relative threshold (slowdowns only — speedups are reported
  but never fail the diff) with an absolute floor so sub-second noise on
  fast analytic experiments cannot trip CI;
* **metric deltas** — events dispatched and heap high-water per experiment;
* **per-kind attribution deltas** — when both runs carry profiler ``kinds``
  baselines (profiler PR, v4 manifests), the diff names *which event kind*
  moved: dispatch-count deltas and the kinds whose sampled wall grew past
  the threshold. Attribution is advisory — sampled per-kind walls are
  noisier than whole-run walls, so kind rows annotate a verdict but never
  flip ``regressed`` on their own;
* **determinism drift** — ``result_sha256`` mismatches at equal seed *and*
  equal code fingerprint, which by the runner's contract should be
  impossible and therefore always fails the diff.

Exit-code contract (the CI gate): 0 clean, 1 regression/drift found,
2 usage or input error.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.history import build_history_record, load_history
from repro.obs.ioutil import read_json

#: Relative wall-clock slowdown beyond which an experiment is a regression.
DEFAULT_WALL_THRESHOLD = 0.25

#: Experiments faster than this (in *both* runs) are never wall-flagged:
#: interpreter jitter dominates below it.
DEFAULT_MIN_WALL_S = 0.5


def load_run(path: Union[str, Path]) -> Dict[str, Any]:
    """Load one run record from a manifest, BENCH snapshot, or history file.

    * ``*.jsonl`` — a perf-history stream; the **latest** record is used.
    * JSON with ``kind == "perf_history"`` — a BENCH snapshot, used as-is.
    * JSON with ``experiments: []`` — a run manifest, converted via
      :func:`~repro.obs.history.build_history_record`.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        records = load_history(path)
        if not records:
            raise ObservabilityError(f"{path}: history stream is empty")
        return records[-1]
    data = read_json(path)
    if data.get("kind") == "perf_history":
        return data
    if isinstance(data.get("experiments"), list):
        return build_history_record(data)
    raise ObservabilityError(
        f"{path}: neither a run manifest nor a perf-history record"
    )


def compare_runs(
    base: Dict[str, Any],
    new: Dict[str, Any],
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    min_wall_s: float = DEFAULT_MIN_WALL_S,
) -> Dict[str, Any]:
    """Diff two history records (see :func:`load_run` for accepted inputs).

    Returns a JSON-safe report dict whose ``"regressed"`` flag drives the
    CLI exit code. Cache-hit entries are excluded from wall comparisons on
    either side (a hit measures the cache, not the experiment) but still
    participate in drift checks — a cached result hash is still the result.
    """
    if wall_threshold < 0:
        raise ObservabilityError(
            f"wall threshold must be >= 0, got {wall_threshold}"
        )
    base_exps: Dict[str, Dict[str, Any]] = base.get("experiments", {})
    new_exps: Dict[str, Dict[str, Any]] = new.get("experiments", {})
    shared = sorted(set(base_exps) & set(new_exps))

    comparable_seed = (
        base.get("seed") is not None and base.get("seed") == new.get("seed")
    )
    comparable_code = bool(base.get("code_fingerprint")) and base.get(
        "code_fingerprint"
    ) == new.get("code_fingerprint")

    wall_rows: List[Dict[str, Any]] = []
    drift_rows: List[Dict[str, Any]] = []
    metric_rows: List[Dict[str, Any]] = []

    for exp_id in shared:
        a, b = base_exps[exp_id], new_exps[exp_id]
        wall_a, wall_b = float(a.get("wall_s", 0.0)), float(b.get("wall_s", 0.0))
        timed = not (a.get("cache_hit") or b.get("cache_hit"))
        ratio = (wall_b - wall_a) / wall_a if wall_a > 0 else 0.0
        regressed = (
            timed
            and max(wall_a, wall_b) >= min_wall_s
            and wall_a > 0
            and ratio > wall_threshold
        )
        wall_rows.append(
            {
                "id": exp_id,
                "base_wall_s": wall_a,
                "new_wall_s": wall_b,
                "delta_s": round(wall_b - wall_a, 6),
                "ratio": round(ratio, 4),
                "timed": timed,
                "regressed": regressed,
            }
        )

        sha_a, sha_b = a.get("result_sha256", ""), b.get("result_sha256", "")
        if comparable_seed and comparable_code and sha_a and sha_b and sha_a != sha_b:
            drift_rows.append(
                {"id": exp_id, "base_sha256": sha_a, "new_sha256": sha_b}
            )

        delta_events = int(b.get("events_dispatched", 0)) - int(
            a.get("events_dispatched", 0)
        )
        delta_heap = int(b.get("heap_high_watermark", 0)) - int(
            a.get("heap_high_watermark", 0)
        )
        if delta_events or delta_heap:
            metric_rows.append(
                {
                    "id": exp_id,
                    "delta_events_dispatched": delta_events,
                    "delta_heap_high_watermark": delta_heap,
                }
            )

    kind_rows: List[Dict[str, Any]] = []
    base_kinds: Dict[str, Dict[str, Any]] = base.get("kinds") or {}
    new_kinds: Dict[str, Dict[str, Any]] = new.get("kinds") or {}
    for kind in sorted(set(base_kinds) & set(new_kinds)):
        a, b = base_kinds[kind], new_kinds[kind]
        wall_a = float(a.get("wall_s", 0.0))
        wall_b = float(b.get("wall_s", 0.0))
        delta_count = int(b.get("count", 0)) - int(a.get("count", 0))
        ratio = (wall_b - wall_a) / wall_a if wall_a > 0 else 0.0
        flagged = (
            wall_a > 0
            and max(wall_a, wall_b) >= min_wall_s
            and ratio > wall_threshold
        )
        if delta_count or flagged:
            kind_rows.append(
                {
                    "kind": kind,
                    "component": b.get("component", a.get("component", "")),
                    "base_wall_s": wall_a,
                    "new_wall_s": wall_b,
                    "ratio": round(ratio, 4),
                    "delta_count": delta_count,
                    "flagged": flagged,
                }
            )

    # SLO deltas (v5+ history records carry an ``slo`` summary): any
    # objective whose status changed between the runs, plus its margin
    # movement. Advisory like the kind rows — an SLO flip never flips
    # ``regressed`` on its own; ``repro slo --strict`` is the SLO gate, and
    # compare only points at what moved.
    slo_rows: List[Dict[str, Any]] = []
    base_slo: Dict[str, Dict[str, Any]] = (base.get("slo") or {}).get(
        "objectives"
    ) or {}
    new_slo: Dict[str, Dict[str, Any]] = (new.get("slo") or {}).get(
        "objectives"
    ) or {}
    for key in sorted(set(base_slo) & set(new_slo)):
        a, b = base_slo[key], new_slo[key]
        status_a, status_b = a.get("status"), b.get("status")
        margin_a, margin_b = a.get("margin"), b.get("margin")
        delta_margin = None
        if isinstance(margin_a, (int, float)) and isinstance(margin_b, (int, float)):
            delta_margin = round(float(margin_b) - float(margin_a), 9)
        if status_a != status_b or delta_margin:
            slo_rows.append(
                {
                    "objective": key,
                    "base_status": status_a,
                    "new_status": status_b,
                    "delta_margin": delta_margin,
                    "flipped": status_a != status_b,
                }
            )

    wall_regressions = [row for row in wall_rows if row["regressed"]]
    return {
        "type": "compare",
        "base_seed": base.get("seed"),
        "new_seed": new.get("seed"),
        "seeds_match": comparable_seed,
        "code_match": comparable_code,
        "wall_threshold": wall_threshold,
        "min_wall_s": min_wall_s,
        "shared_experiments": len(shared),
        "only_in_base": sorted(set(base_exps) - set(new_exps)),
        "only_in_new": sorted(set(new_exps) - set(base_exps)),
        "wall": wall_rows,
        "wall_regressions": [row["id"] for row in wall_regressions],
        "metric_deltas": metric_rows,
        "kind_deltas": kind_rows,
        "kind_regressions": [row["kind"] for row in kind_rows if row["flagged"]],
        "slo_deltas": slo_rows,
        "slo_flips": [row["objective"] for row in slo_rows if row["flipped"]],
        "determinism_drift": drift_rows,
        "regressed": bool(wall_regressions or drift_rows),
    }


def render_compare(report: Dict[str, Any]) -> str:
    """Human-readable form of a :func:`compare_runs` report."""
    lines: List[str] = []
    lines.append(
        f"compare: {report['shared_experiments']} shared experiments "
        f"(threshold {report['wall_threshold']:.0%}, "
        f"floor {report['min_wall_s']:g}s)"
    )
    if report["only_in_base"] or report["only_in_new"]:
        lines.append(
            f"  unmatched: base-only {report['only_in_base'] or '[]'} "
            f"new-only {report['only_in_new'] or '[]'}"
        )
    for row in report["wall"]:
        flag = " <-- REGRESSION" if row["regressed"] else ""
        note = "" if row["timed"] else " (cache hit, untimed)"
        lines.append(
            f"  {row['id']:<8} {row['base_wall_s']:9.3f}s -> "
            f"{row['new_wall_s']:9.3f}s  ({row['ratio']:+8.1%})"
            f"{note}{flag}"
        )
    for row in report["metric_deltas"]:
        lines.append(
            f"  {row['id']:<8} events {row['delta_events_dispatched']:+d}  "
            f"heap-high-water {row['delta_heap_high_watermark']:+d}"
        )
    for row in report.get("kind_deltas", []):
        flag = " <-- kind hot-spot" if row["flagged"] else ""
        lines.append(
            f"  kind {row['kind']:<22} {row['base_wall_s']:7.3f}s -> "
            f"{row['new_wall_s']:7.3f}s ({row['ratio']:+7.1%}) "
            f"count {row['delta_count']:+d}  [{row['component']}]{flag}"
        )
    for row in report.get("slo_deltas", []):
        flag = " <-- SLO flip (advisory; gate with 'repro slo')" if row["flipped"] else ""
        margin = (
            f" margin {row['delta_margin']:+g}"
            if row["delta_margin"] is not None
            else ""
        )
        lines.append(
            f"  slo {row['objective']:<44} {row['base_status']} -> "
            f"{row['new_status']}{margin}{flag}"
        )
    if report["seeds_match"] and report["code_match"]:
        if report["determinism_drift"]:
            for row in report["determinism_drift"]:
                lines.append(
                    f"  {row['id']:<8} DETERMINISM DRIFT: "
                    f"{row['base_sha256'][:12]} != {row['new_sha256'][:12]} "
                    "at equal seed+code"
                )
        else:
            lines.append("  determinism: 0 drifting results at equal seed+code")
    else:
        lines.append(
            "  determinism: not comparable "
            f"(seeds_match={report['seeds_match']}, "
            f"code_match={report['code_match']})"
        )
    verdict = "REGRESSED" if report["regressed"] else "OK"
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines)
