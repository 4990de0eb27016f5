"""Hierarchical span tracing: where did this run spend its time?

Metrics (:mod:`repro.obs.metrics`) answer "how much, in total"; spans answer
"where, inside the run". A :class:`Span` is one named, labelled interval with
a wall-clock duration and (when the work happened inside a simulator)
sim-time bounds. Spans nest: ``runner.run_all`` is the root of a ``run-all``
invocation, each task execution (``runner.task``) is a child, and experiment
drivers / ``Simulator.run`` / mac80211 hot paths open spans beneath that —
the longitudinal analogue of the paper's tcpdump timelines, but for the
reproduction's own execution.

Determinism contract: span *ids, parent links, names and labels* are fully
deterministic for a given plan (ids are sequential per recorder, prefixed so
worker processes can never collide with the parent); only the wall-clock
readings vary between hosts. Recording spans never touches simulation time
or any random stream, so a seeded run is bit-identical with spans on or off.

Crossing the ``ProcessPoolExecutor`` boundary: the parent serialises a
``(root span id, id prefix)`` context into each task
(:class:`repro.runner.tasks.SpanContext`); the worker records into its own
recorder under that prefix and ships the finished records back with the
result, where :meth:`SpanRecorder.adopt` grafts them into the parent's tree.

Span names follow the metric convention — dotted lowercase,
``layer.component.operation`` — and are linted as literals (rule PW006).
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, TextIO, Union

from repro.errors import ObservabilityError
from repro.obs.metrics import _NAME_RE, LabelValue

#: Bump on any breaking change to the span record layout.
SPAN_SCHEMA_VERSION = 1

#: Retention bound: a pathological hot loop cannot grow the recorder without
#: limit; spans beyond the cap are counted in :attr:`SpanRecorder.dropped`.
MAX_SPANS = 100_000

#: Sentinel distinguishing "no parent passed" from "explicitly parentless".
_UNSET = object()


class Span:
    """One named interval in the run's execution tree.

    Attributes
    ----------
    span_id / parent_id:
        Deterministic identifiers; ``parent_id`` is ``None`` for a root.
    name:
        Dotted-lowercase span name (``runner.task``, ``sim.engine.run``).
    labels:
        Dimension dict (``experiment="fig5"``); mutated only by
        :meth:`SpanRecorder.end` extras.
    wall_start_s / wall_s:
        Wall-clock start relative to the recorder's epoch, and duration.
        ``wall_s`` is ``None`` while the span is open.
    sim_start_s / sim_end_s:
        Optional simulation-time bounds for spans opened inside a simulator.
    status:
        ``"ok"``, ``"error"``, or ``"open"`` (never closed before export).
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "labels",
        "wall_start_s",
        "wall_s",
        "sim_start_s",
        "sim_end_s",
        "status",
    )

    def __init__(
        self,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        labels: Dict[str, LabelValue],
        wall_start_s: float,
        sim_start_s: Optional[float] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.labels = labels
        self.wall_start_s = wall_start_s
        self.wall_s: Optional[float] = None
        self.sim_start_s = sim_start_s
        self.sim_end_s: Optional[float] = None
        self.status = "open"

    @property
    def sim_duration_s(self) -> Optional[float]:
        """Simulated seconds covered, when both sim bounds were recorded."""
        if self.sim_start_s is None or self.sim_end_s is None:
            return None
        return self.sim_end_s - self.sim_start_s

    def to_record(self) -> Dict[str, Any]:
        """JSON-safe dict form (the JSONL span schema)."""
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "labels": dict(self.labels),
            "wall_start_s": round(self.wall_start_s, 6),
            "wall_s": None if self.wall_s is None else round(self.wall_s, 6),
            "sim_start_s": self.sim_start_s,
            "sim_end_s": self.sim_end_s,
            "status": self.status,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.span_id} {self.name!r} {self.status}>"


class SpanRecorder:
    """Collects one process's spans and maintains the active-span stack.

    Parameters
    ----------
    id_prefix:
        Prepended to every span id (``"s"`` -> ``s1, s2, ...``). The runner
        hands each worker task a unique prefix (``"t03."``) so ids merged
        back into the parent can never collide.
    max_spans:
        Retention cap; spans beyond it still nest correctly but are only
        counted (:attr:`dropped`), not retained.
    enabled:
        A disabled recorder is the ``--no-obs`` mode: every method is a
        cheap no-op and :meth:`span` yields a shared dummy span.
    """

    def __init__(
        self,
        id_prefix: str = "s",
        max_spans: int = MAX_SPANS,
        enabled: bool = True,
    ) -> None:
        self._enabled = bool(enabled)
        self._prefix = id_prefix
        self._max_spans = max_spans
        self._counter = itertools.count(1)
        self._epoch = perf_counter()
        self._spans: List[Span] = []
        self._adopted: List[Dict[str, Any]] = []
        self._stack: List[Span] = []
        self.dropped = 0

    @property
    def enabled(self) -> bool:
        """Whether this recorder records anything."""
        return self._enabled

    def __len__(self) -> int:
        return len(self._spans) + len(self._adopted)

    # -------------------------------------------------------------- recording

    def current(self) -> Optional[Span]:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def begin(
        self,
        name: str,
        parent_id: Any = _UNSET,
        sim_start_s: Optional[float] = None,
        **labels: LabelValue,
    ) -> Span:
        """Open a span; it becomes the parent of subsequently opened spans.

        ``parent_id`` defaults to the current innermost span (``None`` at
        the top level); pass it explicitly to graft under a span from
        another process (the worker-side task span does this).
        """
        if not self._enabled:
            return _DUMMY_SPAN
        if not _NAME_RE.match(name) or "." not in name:
            raise ObservabilityError(
                f"span name {name!r} is not dotted lowercase "
                "(expected layer.component.operation)"
            )
        if parent_id is _UNSET:
            current = self.current()
            parent_id = current.span_id if current is not None else None
        span = Span(
            span_id=f"{self._prefix}{next(self._counter)}",
            parent_id=parent_id,
            name=name,
            labels=dict(labels),
            wall_start_s=perf_counter() - self._epoch,
            sim_start_s=sim_start_s,
        )
        if len(self._spans) < self._max_spans:
            self._spans.append(span)
        else:
            self.dropped += 1
        self._stack.append(span)
        return span

    def end(
        self,
        span: Span,
        sim_end_s: Optional[float] = None,
        status: str = "ok",
        **labels: LabelValue,
    ) -> None:
        """Close a span (tolerates out-of-order closes for event-driven
        spans whose end arrives via a scheduled callback)."""
        if not self._enabled or span is _DUMMY_SPAN:
            return
        span.wall_s = (perf_counter() - self._epoch) - span.wall_start_s
        span.sim_end_s = sim_end_s if sim_end_s is not None else span.sim_end_s
        span.status = status
        if labels:
            span.labels.update(labels)
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] is span:
                del self._stack[index]
                break

    @contextmanager
    def span(
        self,
        name: str,
        sim_start_s: Optional[float] = None,
        **labels: LabelValue,
    ) -> Iterator[Span]:
        """Context-managed :meth:`begin`/:meth:`end` pair.

        A raised exception closes the span with ``status="error"`` and
        propagates.
        """
        opened = self.begin(name, sim_start_s=sim_start_s, **labels)
        try:
            yield opened
        except BaseException:
            self.end(opened, status="error")
            raise
        self.end(opened)

    def adopt(self, records: Sequence[Dict[str, Any]]) -> None:
        """Graft finished span records from another process into this tree.

        Records arrive pre-serialised (the worker's ``to_records()``); their
        parent ids already point at this recorder's spans via the span
        context the worker was handed, so adoption is a plain append.
        """
        if not self._enabled:
            return
        self._adopted.extend(dict(record) for record in records)

    # ----------------------------------------------------------------- export

    def to_records(self) -> List[Dict[str, Any]]:
        """Every span (own + adopted) as JSON-safe records."""
        return [span.to_record() for span in self._spans] + [
            dict(record) for record in self._adopted
        ]

    def to_jsonl(self, target: Union[str, TextIO]) -> int:
        """Write one JSON line per span; returns the line count."""
        records = self.to_records()
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record) + "\n")
        else:
            for record in records:
                target.write(json.dumps(record) + "\n")
        return len(records)

    def clear(self) -> None:
        """Drop every recorded span (fresh run)."""
        self._spans.clear()
        self._adopted.clear()
        self._stack.clear()
        self.dropped = 0


#: Shared closed dummy handed out by disabled recorders.
_DUMMY_SPAN = Span("noop", None, "obs.noop", {}, 0.0)
_DUMMY_SPAN.wall_s = 0.0
_DUMMY_SPAN.status = "ok"

#: Shared always-disabled recorder for unobserved components.
NULL_SPANS = SpanRecorder(enabled=False)


# ------------------------------------------------------------- tree rendering


def _format_labels(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def render_span_tree(
    records: Sequence[Dict[str, Any]],
    max_depth: Optional[int] = None,
    bar_width: int = 24,
) -> str:
    """Render span records as an indented flame-style text tree.

    Children print under their parent in record order; each line shows the
    name+labels, the wall-clock duration, a bar proportional to the share of
    the root's wall time, and the simulated seconds covered when the span
    carried sim-time bounds. Orphans (parent dropped by the retention cap or
    filtered out) print at the top level, so a truncated export still
    renders.
    """
    by_id: Dict[str, Dict[str, Any]] = {}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for record in records:
        by_id[record["span_id"]] = record
    for record in records:
        parent = record.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None  # orphan: parent dropped or filtered
        children.setdefault(parent, []).append(record)

    roots = children.get(None, [])
    total = max(
        (r.get("wall_s") or 0.0 for r in roots), default=0.0
    ) or max((r.get("wall_s") or 0.0 for r in records), default=0.0)

    lines: List[str] = []

    def emit(record: Dict[str, Any], depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        wall = record.get("wall_s")
        wall_text = "   open " if wall is None else f"{wall:8.3f}s"
        bar = ""
        if total > 0 and wall is not None:
            bar = "#" * max(1, round(bar_width * wall / total)) if wall else ""
        sim_text = ""
        start, end = record.get("sim_start_s"), record.get("sim_end_s")
        if start is not None and end is not None:
            sim_text = f"  sim {end - start:g}s"
        status = record.get("status", "ok")
        flag = "" if status == "ok" else f"  [{status}]"
        label = f"{record['name']}{_format_labels(record.get('labels', {}))}"
        lines.append(
            f"{'  ' * depth}{label:<{max(44 - 2 * depth, 8)}} "
            f"{wall_text} {bar:<{bar_width}}{sim_text}{flag}".rstrip()
        )
        for child in children.get(record["span_id"], []):
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)
