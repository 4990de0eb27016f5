"""Row-oriented query surface over finished campaigns.

A campaign manifest nests per-point ``domain`` metric streams and ``slo``
objective rows; analysis wants flat tables. :func:`point_rows` flattens
each point into one row: identity columns (campaign, experiment, part,
seed), the swept axes as ``axis.<name>`` columns, the result hash, scalar
domain metrics verbatim and series-valued ones summarised
(``<stream>.mean`` / ``.min`` / ``.max`` / ``.n``), plus SLO verdict
counts. ``repro campaign results`` renders the rows as an aligned table,
CSV, or JSON; the same rows are importable for notebook use.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.obs.ioutil import read_json


def load_campaign_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read one campaign manifest, validating just enough to flatten it."""
    data = read_json(path)
    if not isinstance(data.get("points"), list):
        raise ConfigurationError(
            f"{path}: not a campaign manifest (no 'points' list)"
        )
    return data


def _flatten_domain(domain: Any) -> Dict[str, Any]:
    """Scalar domain metrics verbatim; list-like streams summarised."""
    flat: Dict[str, Any] = {}
    if not isinstance(domain, dict):
        return flat
    for name in sorted(domain):
        value = domain[name]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[name] = value
        elif isinstance(value, dict):
            # Series shape from repro.obs.slo._series: {"window_s", "samples"}.
            samples = value.get("samples")
            if isinstance(samples, list) and samples and all(
                isinstance(s, (int, float)) for s in samples
            ):
                flat[f"{name}.n"] = len(samples)
                flat[f"{name}.mean"] = round(sum(samples) / len(samples), 6)
                flat[f"{name}.min"] = round(min(samples), 6)
                flat[f"{name}.max"] = round(max(samples), 6)
        elif isinstance(value, list) and value and all(
            isinstance(s, (int, float)) and not isinstance(s, bool)
            for s in value
        ):
            flat[f"{name}.n"] = len(value)
            flat[f"{name}.mean"] = round(sum(value) / len(value), 6)
            flat[f"{name}.min"] = round(min(value), 6)
            flat[f"{name}.max"] = round(max(value), 6)
    return flat


def point_rows(
    manifest: Dict[str, Any],
    experiment: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """One flat dict per campaign point, in manifest (= expansion) order."""
    rows: List[Dict[str, Any]] = []
    for entry in manifest.get("points", []):
        if not isinstance(entry, dict):
            continue
        if experiment is not None and entry.get("experiment") != experiment:
            continue
        row: Dict[str, Any] = {
            "campaign": manifest.get("campaign"),
            "point": entry.get("point"),
            "experiment": entry.get("experiment"),
            "part": entry.get("part"),
            "seed": entry.get("seed"),
            "status": entry.get("status"),
            "result_sha256": (entry.get("result_sha256") or "")[:12],
        }
        if entry.get("error"):
            row["error"] = entry["error"]
        axes = entry.get("axes")
        if isinstance(axes, dict):
            for name in sorted(axes):
                row[f"axis.{name}"] = axes[name]
        row.update(_flatten_domain(entry.get("domain")))
        slo = entry.get("slo")
        if isinstance(slo, list) and slo:
            row["slo.ok"] = sum(
                1 for r in slo if isinstance(r, dict) and r.get("status") == "ok"
            )
            row["slo.violated"] = sum(
                1
                for r in slo
                if isinstance(r, dict) and r.get("status") == "violated"
            )
        rows.append(row)
    return rows


def _columns(rows: Sequence[Dict[str, Any]]) -> List[str]:
    """Stable column order: identity first, then everything else as seen."""
    leading = [
        "campaign",
        "point",
        "experiment",
        "part",
        "seed",
        "status",
        "result_sha256",
    ]
    seen: List[str] = [name for name in leading]
    for row in rows:
        for name in row:
            if name not in seen:
                seen.append(name)
    return seen


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_rows(rows: Sequence[Dict[str, Any]]) -> str:
    """Aligned text table of the flattened rows (header + one line each)."""
    if not rows:
        return "(no points)"
    columns = _columns(rows)
    cells = [[_cell(row.get(name)) for name in columns] for row in rows]
    widths = [
        max(len(columns[i]), *(len(line[i]) for line in cells))
        for i in range(len(columns))
    ]
    lines = [
        "  ".join(name.ljust(width) for name, width in zip(columns, widths))
    ]
    for line in cells:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        )
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Dict[str, Any]]) -> str:
    """The flattened rows as CSV text (header row + one line per point)."""
    columns = _columns(rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({name: row.get(name, "") for name in columns})
    return buffer.getvalue()
