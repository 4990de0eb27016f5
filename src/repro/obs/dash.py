"""The run observatory: one self-contained HTML page per run.

``repro dash`` folds a run's artifacts — ``run_manifest.json`` (SLO
section + domain metrics) and ``perf_history.jsonl`` — into a single
static HTML file with inline SVG sparklines and CSS
bars: no external scripts, stylesheets, fonts, or network fetches, so
the file renders identically from a CI artifact store, an email
attachment, or ``file://``. Sections:

* run header (stat tiles + SLO hero count),
* SLO scorecard (per-objective status, margin meter, worst window),
* domain metric sparklines (the streams the SLOs are judged on),
* per-experiment wall/events trend from perf history,
* span flame summary and per-kind attribution table,
* fault/retry timeline.

Every value shown in a chart is also present as text in the same card
(the charts decorate tables, not the other way around), and the page
carries light and dark palettes selected per the reader's scheme. The
builder is a pure function of its inputs: equal artifacts produce
byte-identical HTML.
"""

from __future__ import annotations

import html
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.ioutil import read_json, read_jsonl
from repro.obs.profile import (
    aggregate_rows,
    attributed_wall_s,
    rows_from_manifest,
    sort_rows,
)

#: Default output filename, next to the manifest.
DASH_FILENAME = "dash.html"

# Palette: validated reference instance (see docs/observability.md).
# Categorical slot 1 carries every single-series chart; status colors are
# reserved for SLO/fault state and always ride with a text label.
_CSS = """
:root {
  color-scheme: light dark;
  --surface: #fcfcfb; --plane: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s1-track: #cde2fb;
  --good: #0ca30c; --warn: #fab219; --crit: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --plane: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --ring: rgba(255,255,255,0.10);
    --s1: #3987e5; --s1-track: #184f95;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--plane); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
h2 { font-size: 15px; font-weight: 600; margin: 0 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.card {
  background: var(--surface); border: 1px solid var(--ring);
  border-radius: 10px; padding: 16px 18px; margin: 0 0 16px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 16px; }
.tile { min-width: 120px; }
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; }
.tile .hero { font-size: 48px; font-weight: 600; }
table { border-collapse: collapse; width: 100%; }
th {
  text-align: left; color: var(--muted); font-weight: 500; font-size: 12px;
  border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0;
}
td {
  padding: 5px 10px 5px 0; border-bottom: 1px solid var(--grid);
  vertical-align: middle;
}
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
tr:last-child td { border-bottom: none; }
.chip { font-weight: 600; font-size: 12px; white-space: nowrap; }
.chip.ok { color: var(--good); }
.chip.viol { color: var(--crit); }
.chip.skip { color: var(--muted); }
.meter {
  display: inline-block; width: 120px; height: 6px; border-radius: 3px;
  background: var(--s1-track); overflow: hidden; vertical-align: middle;
}
.meter > span { display: block; height: 100%; background: var(--s1); }
.bar {
  display: inline-block; height: 10px; border-radius: 0 4px 4px 0;
  background: var(--s1); vertical-align: middle;
}
.mono { font-variant-numeric: tabular-nums; }
.dim { color: var(--ink-2); }
svg text { fill: var(--muted); font-size: 10px; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any, digits: int = 3) -> str:
    """Compact numeric formatting for table cells."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, float)):
        if float(value) == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.{digits}g}" if abs(value) < 1e-2 else f"{value:,.{digits}f}"
    return str(value)


def sparkline(
    values: Sequence[float],
    width: int = 180,
    height: int = 36,
    title: str = "",
) -> str:
    """Inline SVG sparkline: 2px line, ring-carried end dot, native tooltip.

    Values are text elsewhere in the card; the sparkline is shape, so it
    needs no axes. A flat or single-point series renders as a midline.
    """
    if not values:
        return ""
    pad = 5.0
    low, high = min(values), max(values)
    span = high - low
    inner_w, inner_h = width - 2 * pad, height - 2 * pad

    def point(index: int, value: float) -> Tuple[float, float]:
        x = pad + (inner_w * index / max(1, len(values) - 1))
        if span <= 0:
            return x, height / 2
        return x, pad + inner_h * (1 - (value - low) / span)

    coords = [point(index, value) for index, value in enumerate(values)]
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    end_x, end_y = coords[-1]
    label = title or f"{len(values)} samples, min {_fmt(low)}, max {_fmt(high)}"
    return (
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}" '
        f'role="img" aria-label="{_esc(label)}">'
        f"<title>{_esc(label)}</title>"
        f'<polyline points="{path}" fill="none" stroke="var(--s1)" '
        'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        f'<circle cx="{end_x:.1f}" cy="{end_y:.1f}" r="4" fill="var(--s1)" '
        'stroke="var(--surface)" stroke-width="2"/>'
        "</svg>"
    )


def _meter(fraction: float, title: str = "") -> str:
    """A thin track+fill meter; the track is a lighter step of the same hue."""
    clamped = max(0.0, min(1.0, fraction))
    return (
        f'<span class="meter" title="{_esc(title)}">'
        f'<span style="width:{100 * clamped:.0f}%"></span></span>'
    )


def _hbar(fraction: float, max_px: int = 160, title: str = "") -> str:
    clamped = max(0.0, min(1.0, fraction))
    return (
        f'<span class="bar" style="width:{max(2, int(max_px * clamped))}px" '
        f'title="{_esc(title)}"></span>'
    )


# ---------------------------------------------------------------------------
# Sections


def _section_header(manifest: Dict[str, Any]) -> str:
    totals = manifest.get("totals", {})
    slo = manifest.get("slo", {})
    counts = slo.get("counts", {})
    evaluated = counts.get("ok", 0) + counts.get("violated", 0)
    if evaluated:
        hero = f"{counts.get('ok', 0)}/{evaluated}"
        hero_label = "SLO objectives met"
    else:
        hero = f"{totals.get('ok', 0)}/{totals.get('experiments', 0)}"
        hero_label = "experiments ok"
    tiles = [
        ("", hero_label, hero, True),
        ("", "experiments ok", f"{totals.get('ok', 0)}/{totals.get('experiments', 0)}", False),
        ("", "wall clock", f"{_fmt(totals.get('wall_s', 0.0))} s", False),
        ("", "cache hits", _fmt(totals.get("cache_hits", 0)), False),
        ("", "events dispatched", _fmt(totals.get("events_dispatched", 0)), False),
        ("", "retried parts", _fmt(totals.get("retried_parts", 0)), False),
    ]
    cells = "".join(
        '<div class="tile">'
        f'<div class="label">{_esc(label)}</div>'
        f'<div class="{"hero" if hero_flag else "value"}">{_esc(value)}</div>'
        "</div>"
        for _, label, value, hero_flag in tiles
    )
    meta = (
        f"schema v{manifest.get('schema', '?')} · seed {manifest.get('seed', '?')} · "
        f"jobs {manifest.get('jobs', '?')} · fingerprint "
        f"{str(manifest.get('code_fingerprint', ''))[:12]}"
    )
    if manifest.get("interrupted"):
        meta += " · INTERRUPTED"
    return (
        "<h1>repro run observatory</h1>"
        f'<p class="sub">{_esc(meta)}</p>'
        f'<div class="card"><div class="tiles">{cells}</div></div>'
    )


_STATUS_CHIP = {
    "ok": ('<span class="chip ok">&#10003; PASS</span>'),
    "violated": ('<span class="chip viol">&#10007; VIOLATED</span>'),
    "skipped": ('<span class="chip skip">&#8212; SKIPPED</span>'),
}


def _section_slo(manifest: Dict[str, Any]) -> str:
    slo = manifest.get("slo") or {}
    rows = slo.get("objectives") or []
    if not rows:
        return (
            '<div class="card"><h2>SLO scorecard</h2>'
            '<p class="dim">No SLO specs were evaluated for this run '
            "(pre-v5 manifest, or no registry defaults for the selected "
            "experiments).</p></div>"
        )
    body: List[str] = []
    for row in rows:
        status = row.get("status", "skipped")
        margin = row.get("margin")
        bound = row.get("value", 0.0)
        # Meter: headroom relative to the bound (capped at 100 %); a
        # violated objective shows an empty track.
        meter = ""
        if isinstance(margin, (int, float)) and status != "skipped":
            scale = abs(bound) if bound else 1.0
            meter = _meter(
                max(0.0, margin) / scale if scale else 0.0,
                title=f"margin {margin:+g}",
            )
        worst = row.get("worst_window")
        if worst and "value" in worst:
            window = f"{_fmt(worst['start_s'])}-{_fmt(worst['end_s'])} s → {_fmt(worst['value'])}"
        elif worst:
            window = (
                f"{_fmt(worst['start_s'])}-{_fmt(worst['end_s'])} s "
                f"({worst.get('samples', '?')} bad)"
            )
        elif status == "skipped":
            window = _esc(row.get("reason", ""))
        else:
            window = "-"
        body.append(
            "<tr>"
            f"<td>{_STATUS_CHIP.get(status, status)}</td>"
            f"<td>{_esc(row.get('experiment', ''))}</td>"
            f'<td title="{_esc(row.get("description", ""))}">{_esc(row.get("id", ""))}</td>'
            f'<td class="num">{_fmt(row.get("actual"))}</td>'
            f'<td class="num dim">{_esc(row.get("op", ""))} {_fmt(bound)}</td>'
            f'<td class="num">{_fmt(margin)} {meter}</td>'
            f'<td class="dim">{window}</td>'
            "</tr>"
        )
    counts = slo.get("counts", {})
    return (
        '<div class="card"><h2>SLO scorecard</h2>'
        f'<p class="dim">{counts.get("ok", 0)} ok · {counts.get("violated", 0)} violated · '
        f'{counts.get("skipped", 0)} skipped · specs: '
        f'{_esc(", ".join(slo.get("specs", [])) or "none")}</p>'
        "<table><thead><tr><th>status</th><th>experiment</th><th>objective</th>"
        '<th class="num">actual</th><th class="num">bound</th>'
        '<th class="num">margin</th><th>worst window / reason</th></tr></thead>'
        f'<tbody>{"".join(body)}</tbody></table></div>'
    )


def _section_domain(manifest: Dict[str, Any]) -> str:
    cards: List[str] = []
    for entry in manifest.get("experiments", []):
        domain = entry.get("domain") or {}
        for name in sorted(domain):
            value = domain[name]
            if not (isinstance(value, dict) and isinstance(value.get("samples"), list)):
                continue
            samples = [float(sample) for sample in value["samples"]]
            if not samples:
                continue
            mean = sum(samples) / len(samples)
            spark_title = (
                f"{name}: {len(samples)} windows of {value.get('window_s')} s"
            )
            cards.append(
                '<div class="tile">'
                f'<div class="label">{_esc(entry["id"])} · {_esc(name)}</div>'
                f"<div>{sparkline(samples, title=spark_title)}</div>"
                f'<div class="dim mono">mean {_fmt(mean)} · min {_fmt(min(samples))} · '
                f"max {_fmt(max(samples))} · {len(samples)} × {_fmt(value.get('window_s'))} s</div>"
                "</div>"
            )
    if not cards:
        return ""
    return (
        '<div class="card"><h2>Domain metric streams</h2>'
        f'<div class="tiles">{"".join(cards)}</div></div>'
    )


def _section_trend(history: List[Dict[str, Any]]) -> str:
    if not history:
        return (
            '<div class="card"><h2>Perf history trend</h2>'
            '<p class="dim">No perf_history.jsonl found — run '
            "<code>repro run-all</code> without --no-history to start one.</p></div>"
        )
    walls: Dict[str, List[float]] = {}
    events: Dict[str, List[float]] = {}
    totals: List[float] = []
    for record in history:
        total = record.get("totals", {}).get("wall_s")
        if isinstance(total, (int, float)):
            totals.append(float(total))
        experiments = record.get("experiments") or {}
        for exp_id, entry in sorted(experiments.items()):
            if not isinstance(entry, dict) or entry.get("cache_hit"):
                continue
            wall = entry.get("wall_s")
            if isinstance(wall, (int, float)):
                walls.setdefault(exp_id, []).append(float(wall))
            count = entry.get("events")
            if isinstance(count, (int, float)):
                events.setdefault(exp_id, []).append(float(count))
    rows: List[str] = []
    for exp_id in sorted(walls):
        series = walls[exp_id]
        delta = series[-1] - series[-2] if len(series) > 1 else 0.0
        event_series = events.get(exp_id) or []
        rows.append(
            "<tr>"
            f"<td>{_esc(exp_id)}</td>"
            f"<td>{sparkline(series, title=f'{exp_id} wall_s over {len(series)} run(s)')}</td>"
            f'<td class="num">{_fmt(series[-1])} s</td>'
            f'<td class="num dim">{delta:+.3f} s</td>'
            f'<td class="num dim">{_fmt(event_series[-1]) if event_series else "-"}</td>'
            "</tr>"
        )
    total_block = ""
    if totals:
        total_block = (
            f'<p class="dim">total wall over {len(totals)} recorded run(s): '
            f"{sparkline(totals, title='total wall_s')} "
            f'<span class="mono">last {_fmt(totals[-1])} s</span></p>'
        )
    return (
        '<div class="card"><h2>Perf history trend</h2>'
        f"{total_block}"
        "<table><thead><tr><th>experiment</th><th>wall trend (executed runs)</th>"
        '<th class="num">last wall</th><th class="num">Δ prev</th>'
        '<th class="num">events</th></tr></thead>'
        f'<tbody>{"".join(rows)}</tbody></table></div>'
    )


def _section_spans(manifest: Dict[str, Any], top: int = 12) -> str:
    records = (manifest.get("spans") or {}).get("records") or []
    closed = [
        record
        for record in records
        if isinstance(record.get("wall_s"), (int, float))
    ]
    if not closed:
        return ""
    closed.sort(key=lambda record: (-record["wall_s"], record.get("name", "")))
    shown = closed[:top]
    max_wall = shown[0]["wall_s"] or 1.0
    rows = []
    for record in shown:
        name = record.get("name", "?")
        attrs = record.get("attrs") or {}
        label = name
        if attrs.get("experiment"):
            label = f"{name} [{attrs['experiment']}]"
        wall = record["wall_s"]
        rows.append(
            "<tr>"
            f"<td>{_esc(label)}</td>"
            f"<td>{_hbar(wall / max_wall, title=f'{wall:.4f} s')}</td>"
            f'<td class="num">{wall:.4f} s</td>'
            "</tr>"
        )
    return (
        '<div class="card"><h2>Span flame summary</h2>'
        f'<p class="dim">{len(closed)} closed span(s); top {len(shown)} by wall clock</p>'
        '<table><thead><tr><th>span</th><th>wall</th><th class="num">s</th></tr></thead>'
        f'<tbody>{"".join(rows)}</tbody></table></div>'
    )


def _section_attribution(manifest: Dict[str, Any], top: int = 15) -> str:
    ordered = sort_rows(aggregate_rows(rows_from_manifest(manifest)))
    if not ordered:
        return ""
    shown = ordered[:top]
    total_wall = attributed_wall_s(ordered) or 1.0
    rows = []
    for row in shown:
        share = row.wall_s / total_wall
        rows.append(
            "<tr>"
            f"<td>{_esc(row.kind)}</td>"
            f'<td class="dim">{_esc(row.component)}</td>'
            f'<td class="num">{row.count:,}</td>'
            f"<td>{_hbar(share, title=f'{100 * share:.1f} % of sampled wall')}</td>"
            f'<td class="num">{row.wall_s:.4f} s</td>'
            "</tr>"
        )
    return (
        '<div class="card"><h2>Per-kind attribution</h2>'
        f'<p class="dim">{len(ordered)} event kind(s); top {len(shown)} by sampled wall</p>'
        "<table><thead><tr><th>kind</th><th>component</th>"
        '<th class="num">dispatches</th><th>share</th><th class="num">wall</th>'
        f'</tr></thead><tbody>{"".join(rows)}</tbody></table></div>'
    )


def _section_faults(manifest: Dict[str, Any]) -> str:
    fault_events = (manifest.get("faults") or {}).get("events") or []
    retry_rows: List[Tuple[str, str, int, Optional[str], Optional[str]]] = []
    for entry in manifest.get("experiments", []):
        for part in entry.get("parts", []):
            if part.get("attempts", 0) > 1 or part.get("failure_kind"):
                retry_rows.append(
                    (
                        entry["id"],
                        part.get("part", "?"),
                        part.get("attempts", 0),
                        part.get("failure_kind"),
                        part.get("error"),
                    )
                )
    if not fault_events and not retry_rows:
        return ""
    blocks: List[str] = ['<div class="card"><h2>Fault &amp; retry timeline</h2>']
    if fault_events:
        items = "".join(
            f'<tr><td>{_esc(event.get("point", "?"))}</td>'
            f'<td class="dim">{_esc(event.get("task", ""))}</td>'
            f'<td class="dim">{_esc(event.get("param", event.get("fired", "")))}</td></tr>'
            for event in fault_events
        )
        blocks.append(
            f'<p class="dim">{len(fault_events)} injected fault binding(s)</p>'
            "<table><thead><tr><th>point</th><th>task</th><th>param</th></tr></thead>"
            f"<tbody>{items}</tbody></table>"
        )
    if retry_rows:
        items = "".join(
            f"<tr><td>{_esc(exp)}:{_esc(part)}</td>"
            f'<td class="num">{attempts}</td>'
            f'<td><span class="chip {"viol" if kind else "ok"}">'
            f'{_esc(kind) if kind else "&#10003; recovered"}</span></td>'
            f'<td class="dim">{_esc((error or "")[:80])}</td></tr>'
            for exp, part, attempts, kind, error in retry_rows
        )
        blocks.append(
            "<table><thead><tr><th>part</th>"
            '<th class="num">attempts</th><th>outcome</th><th>error</th></tr></thead>'
            f"<tbody>{items}</tbody></table>"
        )
    blocks.append("</div>")
    return "".join(blocks)


# ---------------------------------------------------------------------------
# Assembly


def build_dash(
    manifest: Dict[str, Any],
    history: Optional[List[Dict[str, Any]]] = None,
) -> str:
    """Render the full observatory page as one HTML string (pure)."""
    sections = [
        _section_header(manifest),
        _section_slo(manifest),
        _section_domain(manifest),
        _section_trend(history or []),
        _section_spans(manifest),
        _section_attribution(manifest),
        _section_faults(manifest),
    ]
    body = "".join(section for section in sections if section)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        "<title>repro run observatory</title>"
        f"<style>{_CSS}</style></head>"
        f"<body>{body}</body></html>\n"
    )


def write_dash(
    manifest_path: Union[str, Path],
    out_path: Union[str, Path] = DASH_FILENAME,
    history_path: Optional[Union[str, Path]] = None,
) -> str:
    """Load artifacts, render, and write the page; returns the output path.

    ``history_path`` defaults to the repo's perf-history file and degrades
    to an empty trend section when absent — only the manifest is required.
    A malformed history line raises, as in every other reader
    (:func:`repro.obs.ioutil.read_jsonl`).
    """
    from repro.obs.history import DEFAULT_HISTORY_DIR, HISTORY_FILENAME

    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path)
    if history_path is None:
        history_path = Path(DEFAULT_HISTORY_DIR) / HISTORY_FILENAME
    history = read_jsonl(history_path, "history") if os.path.exists(history_path) else []
    page = build_dash(manifest, history=history)
    out_path = Path(out_path)
    out_path.write_text(page, encoding="utf-8")
    return str(out_path)
