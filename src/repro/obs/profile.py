"""Deterministic attribution profiler: *which event kinds* cost the run.

``Simulator.stats`` (and the span tree) say how long a run took; this
module says where it went — charging wall-clock and dispatch counts to
``(event kind, component, experiment part)`` triples. The engine supplies
the raw material (:class:`repro.sim.engine.SimulatorStats`: exact per-kind
counters, stride-sampled wall-clock, a component resolved per kind, and the
sim-time window each kind was active in); this module turns it into

* a **hot-spot table** (``render_attribution``) comparing per-kind sim-time
  coverage against wall-time cost, with share-of-total and per-dispatch
  cost columns;
* **collapsed-stack output** (``collapse_stacks`` / ``write_flame``) in the
  ``frame;frame;frame value`` format ``flamegraph.pl`` and speedscope
  import directly — one stack per (experiment, part, component, kind),
  valued in integer microseconds of attributed wall-clock;
* **deterministic records** (``deterministic_records``) — the wall-free
  projection (kind, component, counts, sim bounds) that is byte-identical
  at equal seed, which is how profiler determinism is tested and CI-gated.

Attribution rows flow from three sources: a live engine aggregate
(:func:`repro.obs.runtime.aggregate_engine_stats`), a v4+ run manifest
(per-part ``engine.profile`` sections), or a ``metrics_*.jsonl`` export
(its trailing engine record). The per-kind baselines a ``run-all`` records
into ``perf_history.jsonl`` (``kinds`` section,
:func:`repro.obs.history.build_history_record`) come from the same rows,
so ``python -m repro compare`` can name the event kind that regressed.

The profiler observes only — it never touches simulation time or any
random stream, and ``--no-obs`` runs carry no attribution state at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ObservabilityError
from repro.obs.ioutil import read_jsonl, write_atomic

#: Bump on any breaking change to the attribution record layout.
PROFILE_SCHEMA_VERSION = 1

#: Sort orders :func:`sort_rows` understands.
SORT_KEYS = ("wall", "count")


@dataclass
class KindRow:
    """Attribution of one event kind within one (experiment, part) scope."""

    kind: str
    component: str
    count: int
    wall_s: float
    sim_first_s: Optional[float] = None
    sim_last_s: Optional[float] = None
    experiment: str = ""
    part: str = ""

    @property
    def sim_window_s(self) -> Optional[float]:
        """Sim seconds between the kind's first and last dispatch."""
        if self.sim_first_s is None or self.sim_last_s is None:
            return None
        return self.sim_last_s - self.sim_first_s

    @property
    def wall_per_dispatch_us(self) -> float:
        """Mean attributed wall-clock per dispatch, in microseconds."""
        return 1e6 * self.wall_s / self.count if self.count else 0.0

    def to_record(self) -> Dict[str, Any]:
        """JSON-safe dict form (includes the host-varying wall columns)."""
        return {
            "type": "profile_kind",
            "experiment": self.experiment,
            "part": self.part,
            "kind": self.kind,
            "component": self.component,
            "count": self.count,
            "wall_s": round(self.wall_s, 6),
            "sim_first_s": self.sim_first_s,
            "sim_last_s": self.sim_last_s,
        }


def rows_from_engine(
    engine: Dict[str, Any], experiment: str = "", part: str = ""
) -> List[KindRow]:
    """Attribution rows from one engine aggregate / engine JSONL record.

    Accepts the dict shape of
    :func:`repro.obs.runtime.aggregate_engine_stats` and of
    ``SimulatorStats.to_dict``; tolerates records predating component /
    sim-bound attribution (those columns come back empty). Rows are sorted
    by kind name, so the output order is deterministic.
    """
    counts = engine.get("callback_counts") or {}
    walls = engine.get("callback_wall_s") or {}
    components = engine.get("callback_components") or {}
    bounds = engine.get("callback_sim_bounds") or {}
    rows = []
    for kind in sorted(counts):
        window = bounds.get(kind)
        rows.append(
            KindRow(
                kind=kind,
                component=str(components.get(kind, "")),
                count=int(counts[kind]),
                wall_s=float(walls.get(kind, 0.0)),
                sim_first_s=None if window is None else float(window[0]),
                sim_last_s=None if window is None else float(window[1]),
                experiment=experiment,
                part=part,
            )
        )
    return rows


def rows_from_manifest(manifest: Dict[str, Any]) -> List[KindRow]:
    """Attribution rows from a run manifest's per-part ``engine.profile``.

    Parts executed with observability off (or cache hits, which carry no
    engine profile) contribute nothing; pre-v4 manifests yield ``[]``.
    """
    rows: List[KindRow] = []
    for entry in manifest.get("experiments", []):
        for part in entry.get("parts", []):
            profile = (part.get("engine") or {}).get("profile") or {}
            for kind in sorted(profile):
                detail = profile[kind]
                rows.append(
                    KindRow(
                        kind=kind,
                        component=str(detail.get("component", "")),
                        count=int(detail.get("count", 0)),
                        wall_s=float(detail.get("wall_s", 0.0)),
                        sim_first_s=detail.get("sim_first_s"),
                        sim_last_s=detail.get("sim_last_s"),
                        experiment=str(entry.get("id", "")),
                        part=str(part.get("part", "")),
                    )
                )
    return rows


def rows_from_metrics_jsonl(path: Union[str, Path]) -> List[KindRow]:
    """Attribution rows from a ``metrics_*.jsonl`` export's engine records."""
    merged: List[KindRow] = []
    for record in read_jsonl(path, "metrics"):
        if record.get("type") == "engine":
            merged.extend(rows_from_engine(record))
    return aggregate_rows(merged)


def aggregate_rows(
    rows: Iterable[KindRow], by_part: bool = False
) -> List[KindRow]:
    """Merge rows sharing a (kind, component) identity.

    ``by_part=True`` keeps (experiment, part) scopes separate (the flame
    output wants them); the default folds a whole run into one row per
    kind+component. Counts and wall sum; sim bounds widen to cover every
    contributing row; the merged scope fields are blanked when they differ.
    """
    merged: Dict[Tuple[str, ...], KindRow] = {}
    for row in rows:
        key: Tuple[str, ...] = (row.kind, row.component)
        if by_part:
            key = (row.experiment, row.part) + key
        existing = merged.get(key)
        if existing is None:
            merged[key] = replace(row)
            continue
        existing.count += row.count
        existing.wall_s += row.wall_s
        if row.sim_first_s is not None:
            existing.sim_first_s = (
                row.sim_first_s
                if existing.sim_first_s is None
                else min(existing.sim_first_s, row.sim_first_s)
            )
        if row.sim_last_s is not None:
            existing.sim_last_s = (
                row.sim_last_s
                if existing.sim_last_s is None
                else max(existing.sim_last_s, row.sim_last_s)
            )
        if existing.experiment != row.experiment:
            existing.experiment = ""
        if existing.part != row.part:
            existing.part = ""
    return [merged[key] for key in sorted(merged)]


def sort_rows(rows: Sequence[KindRow], sort: str = "wall") -> List[KindRow]:
    """Rows costliest-first by ``wall`` or ``count`` (kind breaks ties)."""
    if sort not in SORT_KEYS:
        raise ObservabilityError(
            f"unknown profile sort {sort!r}; expected one of {SORT_KEYS}"
        )
    if sort == "count":
        return sorted(rows, key=lambda row: (-row.count, row.kind))
    return sorted(rows, key=lambda row: (-row.wall_s, row.kind))


def attributed_wall_s(rows: Iterable[KindRow]) -> float:
    """Total wall-clock the rows account for."""
    return sum(row.wall_s for row in rows)


def coverage(rows: Iterable[KindRow], total_wall_s: float) -> float:
    """Fraction of ``total_wall_s`` the attribution explains (0 when unknown)."""
    if total_wall_s <= 0:
        return 0.0
    return attributed_wall_s(rows) / total_wall_s


def deterministic_records(rows: Iterable[KindRow]) -> List[Dict[str, Any]]:
    """The wall-free projection: byte-identical at equal seed.

    Kinds, components, exact dispatch counts and sim-time bounds are pure
    functions of the seeded simulation; the sampled wall-clock is not.
    Tests and the CI determinism gate serialise this with
    ``json.dumps(..., sort_keys=True)`` and compare bytes.
    """
    ordered = sorted(rows, key=lambda r: (r.experiment, r.part, r.kind, r.component))
    return [
        {
            "experiment": row.experiment,
            "part": row.part,
            "kind": row.kind,
            "component": row.component,
            "count": row.count,
            "sim_first_s": row.sim_first_s,
            "sim_last_s": row.sim_last_s,
        }
        for row in ordered
    ]


def collapse_stacks(rows: Iterable[KindRow]) -> List[str]:
    """Collapsed-stack lines: ``experiment;part;component;kind <usec>``.

    The format ``flamegraph.pl`` consumes and speedscope auto-detects: one
    semicolon-joined frame stack per line, root frame first, followed by a
    space and an integer sample value — here microseconds of attributed
    wall-clock (floored at 1 so a counted-but-cheap kind stays visible).
    Rows with no dispatches are skipped; frame text is sanitised (``;`` and
    whitespace can never corrupt the stack separator).
    """

    def frame(text: str, fallback: str) -> str:
        text = (text or fallback).replace(";", ":")
        return "".join(ch if not ch.isspace() else "_" for ch in text)

    lines = []
    for row in sorted(
        rows, key=lambda r: (r.experiment, r.part, r.component, r.kind)
    ):
        if row.count <= 0:
            continue
        stack = ";".join(
            (
                frame(row.experiment, "run"),
                frame(row.part, "all"),
                frame(row.component, "unknown"),
                frame(row.kind, "event"),
            )
        )
        lines.append(f"{stack} {max(1, round(1e6 * row.wall_s))}")
    return lines


def write_flame(rows: Iterable[KindRow], path: Union[str, Path]) -> int:
    """Write collapsed stacks to ``path``; returns the line count."""
    lines = collapse_stacks(rows)
    write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def render_attribution(
    rows: Sequence[KindRow],
    total_wall_s: Optional[float] = None,
    sort: str = "wall",
    top: Optional[int] = None,
) -> str:
    """The per-kind sim-time vs wall-time hot-spot table.

    One line per kind: dispatch count, attributed wall seconds with
    share-of-attributed-total, mean cost per dispatch, the sim-time window
    the kind was active in, and the owning component. A footer reports
    attribution coverage when the caller supplies the measured total
    (``attributed 1.82s of 1.91s measured (95.3%)``).
    """
    ordered = sort_rows(rows, sort)
    shown = ordered if top is None else ordered[: max(0, top)]
    total_attr = attributed_wall_s(ordered)
    total_count = sum(row.count for row in ordered)
    lines = [
        f"{'kind':<26} {'count':>10} {'wall':>9} {'%wall':>6} "
        f"{'us/call':>8} {'sim window':>12}  component"
    ]
    for row in shown:
        share = 100.0 * row.wall_s / total_attr if total_attr > 0 else 0.0
        window = row.sim_window_s
        window_text = "-" if window is None else f"{window:g}s"
        lines.append(
            f"{row.kind:<26} {row.count:>10} {row.wall_s:>8.3f}s {share:>5.1f}% "
            f"{row.wall_per_dispatch_us:>8.2f} {window_text:>12}  {row.component}"
        )
    if len(shown) < len(ordered):
        hidden = len(ordered) - len(shown)
        hidden_wall = total_attr - attributed_wall_s(shown)
        lines.append(
            f"... {hidden} more kind(s), {hidden_wall:.3f}s "
            f"({100.0 * hidden_wall / total_attr if total_attr > 0 else 0.0:.1f}%)"
        )
    lines.append(
        f"total: {len(ordered)} kinds, {total_count} dispatches, "
        f"{total_attr:.3f}s attributed"
    )
    if total_wall_s is not None and total_wall_s > 0:
        lines.append(
            f"attributed {total_attr:.3f}s of {total_wall_s:.3f}s measured "
            f"({100.0 * coverage(ordered, total_wall_s):.1f}%)"
        )
    return "\n".join(lines)


def kind_baselines(rows: Iterable[KindRow]) -> Dict[str, Dict[str, Any]]:
    """Per-kind baseline map for ``perf_history.jsonl`` records.

    Folds every (experiment, part) scope into one entry per kind:
    ``{kind: {component, count, wall_s}}``. ``repro compare`` diffs these
    between runs to name the event kind behind a wall-clock regression.
    """
    baselines: Dict[str, Dict[str, Any]] = {}
    for row in aggregate_rows(rows):
        entry = baselines.get(row.kind)
        if entry is None:
            baselines[row.kind] = {
                "component": row.component,
                "count": row.count,
                "wall_s": round(row.wall_s, 6),
            }
        else:
            entry["count"] += row.count
            entry["wall_s"] = round(entry["wall_s"] + row.wall_s, 6)
    return {kind: baselines[kind] for kind in sorted(baselines)}
