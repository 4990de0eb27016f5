"""Markdown reproduction report, rendered from a run manifest.

``python -m repro report --input run_manifest.json`` (or
:func:`render_report`) turns the manifest a ``run-all`` wrote into one
markdown document: a row per experiment with the paper claim its shape
check asserts (the check's docstring), the check's detail or the
experiment's error, its verdict and duration, and an engine footer from
the per-part attribution profiles. Nothing is re-run: the verdicts are the
ones :func:`repro.experiments.shapecheck.verdict` recorded in the manifest.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import ObservabilityError
from repro.experiments.shapecheck import find_check
from repro.obs.profile import aggregate_rows, rows_from_manifest, sort_rows

#: Event kinds listed in the engine footer.
FOOTER_KINDS = 5


def _claim(experiment_id: str) -> str:
    """The paper claim ``check_<experiment_id>`` asserts (its docstring)."""
    try:
        return (find_check(experiment_id).__doc__ or "").strip()
    except KeyError:
        return ""


def _cell(text: Any) -> str:
    """``text`` made safe for one markdown table cell."""
    return " ".join(str(text).split()).replace("|", "\\|")


def render_report(manifest: Dict[str, Any], source: str = "manifest") -> str:
    """The markdown report of one run manifest (``source`` names it in errors).

    An experiment reproduces when it has no error and its shape check did
    not fail, the rule ``run-all`` counts its ``totals.ok`` by.
    """
    entries = manifest.get("experiments")
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict) and "id" in entry for entry in entries
    ):
        raise ObservabilityError(
            f"{source}: not a run manifest (no experiments[] list of entries with an id)"
        )
    passed = 0
    rows: List[str] = []
    for entry in entries:
        error = entry.get("error")
        ok = error is None and entry.get("shape_ok") is not False
        passed += ok
        measured = entry.get("shape_detail") if error is None else error
        rows.append(
            f"| {entry['id']} | {_cell(_claim(entry['id']))} | "
            f"{_cell(measured or '')} | {'✅' if ok else '❌'} | "
            f"{float(entry.get('duration_s') or 0.0):.1f} |"
        )
    lines = [
        "# PoWiFi reproduction report",
        "",
        f"{passed}/{len(entries)} experiments reproduce the paper's claims.",
        "",
        "| experiment | paper claim | measured | ok | s |",
        "|---|---|---|---|---|",
        *rows,
    ]
    kinds = sort_rows(aggregate_rows(rows_from_manifest(manifest)))
    if kinds:
        dispatched = sum(row.count for row in kinds)
        lines += [
            "",
            "## Engine telemetry",
            "",
            f"{dispatched} events dispatched over {len(kinds)} event kinds.",
            "",
            "| event kind | component | calls | wall s |",
            "|---|---|---|---|",
        ]
        for row in kinds[:FOOTER_KINDS]:
            lines.append(
                f"| {row.kind} | {row.component} | {row.count} | {row.wall_s:.3f} |"
            )
    return "\n".join(lines) + "\n"
