"""The watch board: one journal fold rendered as per-unit progress.

``repro watch`` re-folds a journal (:func:`~repro.campaign.journal.
fold_journal`) on every refresh and renders it here — ``run-all``'s
``run_journal.jsonl`` and a campaign's ``campaign.jsonl`` alike, because
both are the same records:

* the roster (``[cache key, experiment:part label]`` pairs), the worker
  count and run-all's history-derived ``expected_walls`` ride on
  ``campaign.open``;
* a unit's state is its terminal record (``point.done`` → done or cached,
  ``point.quarantined`` → quarantined, or failed in a run-all) or else its
  latest record this generation (``point.lease``/``point.heartbeat`` →
  running once its deadline has started, submitted before; ``point.retry``
  → retrying); a unit with neither is queued, or interrupted once the
  journal ends in ``campaign.interrupted``;
* SLO verdicts come from run-all's ``experiment.slo`` records and from a
  campaign point's ``slo_violated`` field on ``point.done``.

The ETA is the expected wall of every unfinished unit over the worker
count. A unit's expected wall is its experiment's history wall split over
the experiment's units, or else the mean wall of the experiment's units
executed so far.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional

from repro.campaign.journal import (
    JOURNAL_SCHEMA_VERSION,
    RUN_ALL_CAMPAIGN,
    JournalState,
)

#: Every unit state the board reports, in lifecycle order.
PART_STATES = (
    "queued",
    "cached",
    "submitted",
    "running",
    "retrying",
    "done",
    "failed",
    "quarantined",
    "interrupted",
)

#: States that mean the unit will consume no further wall-clock.
TERMINAL_STATES = frozenset(
    {"cached", "done", "failed", "quarantined", "interrupted"}
)

#: ``campaign.done`` / ``campaign.interrupted`` fields on the done line.
_DONE_FIELDS = (
    "ok", "failed", "quarantined", "cache_hits", "wall_s", "spans_dropped",
    "slo_violated",
)


def _roster(state: JournalState) -> Dict[str, str]:
    """Cache key → label, in roster order.

    A ``campaign.open`` without a roster (journals written before it carried
    one) yields the keys the records name, labelled by their ``point``.
    """
    units = (state.campaign or {}).get("units")
    if isinstance(units, list):
        return {str(key): str(label) for key, label in units}
    roster: Dict[str, str] = {}
    for records in (state.done, state.quarantined, state.latest):
        for key, record in records.items():
            roster.setdefault(key, str(record.get("point", key)))
    return roster


def _unit_state(state: JournalState, key: str) -> Dict[str, Any]:
    """The state name of one unit plus the record it comes from."""
    record = state.done.get(key)
    if record is not None:
        return {"state": "cached" if record.get("cached") else "done", **record}
    record = state.quarantined.get(key)
    if record is not None:
        run_all = (state.campaign or {}).get("campaign") == RUN_ALL_CAMPAIGN
        return {"state": "failed" if run_all else "quarantined", **record}
    if state.interrupted is not None:
        return {"state": "interrupted"}
    record = state.latest.get(key)
    if record is None:
        return {"state": "queued"}
    if record.get("type") == "point.retry":
        return {"state": "retrying", **record}
    return {"state": "running" if record.get("running") else "submitted", **record}


def unit_rows(state: JournalState) -> List[Dict[str, Any]]:
    """One row per unit, in roster order: state, attempt, walls, error, SLO."""
    header = state.campaign or {}
    history = header.get("expected_walls") or {}
    rows = []
    for key, label in _roster(state).items():
        experiment, _, part = label.partition(":")
        unit = _unit_state(state, key)
        violated = unit.get("slo_violated")
        if violated is None and experiment in state.slo:
            violated = state.slo[experiment].get("violated", 0)
        rows.append(
            {
                "experiment": experiment,
                "part": part,
                "state": unit["state"],
                "attempt": unit.get("attempt", unit.get("attempts")),
                "wall_s": unit.get("wall_s"),
                "expected_wall_s": None,
                "error": unit.get("error"),
                "slo_violated": violated,
            }
        )
    per_experiment = Counter(row["experiment"] for row in rows)
    measured: Dict[str, List[float]] = {}
    for row in rows:
        if row["state"] == "done" and isinstance(row["wall_s"], (int, float)):
            measured.setdefault(row["experiment"], []).append(float(row["wall_s"]))
    for row in rows:
        experiment = row["experiment"]
        wall = history.get(experiment)
        if isinstance(wall, (int, float)):
            row["expected_wall_s"] = round(float(wall) / per_experiment[experiment], 3)
        elif experiment in measured:
            walls = measured[experiment]
            row["expected_wall_s"] = round(sum(walls) / len(walls), 3)
    return rows


def eta_s(state: JournalState, rows: List[Dict[str, Any]]) -> Optional[float]:
    """Expected remaining wall over the worker count; ``None`` when unknown."""
    if state.finished is not None or state.interrupted is not None:
        return 0.0
    remaining = [
        row["expected_wall_s"]
        for row in rows
        if row["state"] not in TERMINAL_STATES
    ]
    known = [wall for wall in remaining if wall is not None]
    if remaining and not known:
        return None
    width = (state.campaign or {}).get("jobs") or 1
    return sum(known) / max(1, int(width))


def _counts(rows: List[Dict[str, Any]]) -> Dict[str, int]:
    tally = {name: 0 for name in PART_STATES}
    for row in rows:
        tally[row["state"]] += 1
    return tally


def _format_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    seconds = max(0.0, seconds)
    if seconds >= 90:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def _slo_cell(violated: Any) -> str:
    return "ok" if not violated else f"VIOL({violated})"


def render_board(state: JournalState, max_parts: int = 40) -> str:
    """Render one watch refresh: header, per-unit board, counters, footer."""
    if not state.records:
        # Nothing has reached the journal yet (absent, empty, or started
        # empty by a new run): say so instead of a board of "?"s.
        return (
            "== watch == waiting for events (no journal records yet; is a "
            "run-all or campaign run active here?)"
        )
    header = state.campaign or {}
    rows = unit_rows(state)
    lines = [
        f"== watch == {header.get('campaign', '?')} "
        f"seed={header.get('seed', '?')} jobs={header.get('jobs', '?')} "
        f"units={len(rows)} eta={_format_eta(eta_s(state, rows))}"
    ]
    shown = rows[:max_parts]
    width = max([len(f"{r['experiment']}:{r['part']}") for r in shown] + [12])
    for row in shown:
        detail = ""
        if row["state"] in ("done", "cached") and row["wall_s"] is not None:
            detail = f"{row['wall_s']:.2f}s"
        elif row["state"] in ("submitted", "running", "retrying") and row["attempt"]:
            detail = f"attempt {row['attempt']}"
        elif row["state"] in ("failed", "quarantined") and row["error"]:
            detail = str(row["error"])[:60]
        elif row["state"] == "queued" and row["expected_wall_s"] is not None:
            detail = f"~{_format_eta(row['expected_wall_s'])}"
        slo = ""
        if row["slo_violated"] is not None:
            slo = f"  slo:{_slo_cell(row['slo_violated'])}"
        label = f"{row['experiment']}:{row['part']}"
        lines.append(f"  {label:<{width}}  {row['state']:<11} {detail}{slo}")
    if len(rows) > len(shown):
        lines.append(f"  ... {len(rows) - len(shown)} more unit(s)")
    tally = _counts(rows)
    lines.append(
        "  " + "  ".join(f"{name}={tally[name]}" for name in PART_STATES if tally[name])
    )
    if state.slo:
        cells = []
        for experiment, record in sorted(state.slo.items()):
            cell = f"{experiment}={_slo_cell(record.get('violated', 0))}"
            if record.get("skipped"):
                cell += f"+{record['skipped']}skip"
            cells.append(cell)
        lines.append("  slo: " + "  ".join(cells))
    if header.get("faults"):
        lines.append(f"  faults: {len(header['faults'])} event(s)")
    if state.dropped or state.torn_tail or state.corrupt:
        lines.append(
            f"  journal: {state.dropped} duplicate/stale record(s) dropped"
            + (", torn tail" if state.torn_tail else "")
            + (", corrupt line (fold stopped there)" if state.corrupt else "")
        )
    end = state.finished or state.interrupted
    if end is not None:
        verb = "done" if state.finished is not None else "interrupted"
        fields = " ".join(f"{name}={end[name]}" for name in _DONE_FIELDS if name in end)
        lines.append(f"  run {verb}: {fields}")
    return "\n".join(lines)


def snapshot(state: JournalState) -> Dict[str, Any]:
    """The watch board as one machine-readable dict (``watch --once --json``).

    Keys are stable; consumers should treat ``None`` values (``eta_s``,
    ``elapsed_s`` before the run ends, ``done``) as "not known yet".
    """
    rows = unit_rows(state)
    header = state.campaign or {}
    end = state.finished or state.interrupted
    return {
        "schema": JOURNAL_SCHEMA_VERSION,
        "run": {
            name: value
            for name, value in header.items()
            if name not in ("units", "expected_walls")
        },
        "elapsed_s": end.get("wall_s") if end else None,
        "eta_s": eta_s(state, rows),
        "events": state.records,
        "duplicates": state.dropped,
        "counts": _counts(rows),
        "parts": [
            {name: row[name] for name in (
                "experiment", "part", "state", "attempt", "wall_s",
                "expected_wall_s", "error",
            )}
            for row in rows
        ],
        "slo": {
            experiment: {
                "ok": record.get("ok"),
                "violated": record.get("violated"),
                "skipped": record.get("skipped"),
                "objectives": record.get("objectives"),
            }
            for experiment, record in sorted(state.slo.items())
        },
        "faults": len(header.get("faults") or []),
        "finished": end is not None,
        "done": dict(end) if end else None,
    }
