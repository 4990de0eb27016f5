"""Deterministic fault plans: which faults fire, where, and when.

A :class:`FaultPlan` is the seeded description of every fault one run
injects. It is built from :class:`~repro.sim.rng.RandomStreams` (one named
stream per fault point), so for a given ``(seed, fault specs, task set)``
the *same* tasks are faulted in the *same* way on every machine — injected
chaos is as reproducible as the simulation itself, and a flaky-looking
failure can always be replayed from its seed.

Every fault point (see :data:`FAULT_POINTS`) exercises the orchestration
layer — a worker process crashing or hanging mid-task, an unpicklable
result, a corrupted cache entry, an interrupted manifest write, a torn
campaign journal. None of them changes experiment *results*: a hardened
runner retries them away, which is exactly the invariant the chaos CI job
pins (result hashes byte-identical to a fault-free run at the same seed).

Plans parse from a compact CLI spec (``worker.crash:1,worker.hang:1@20``)
or a JSON file; see ``docs/robustness.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams, derive_seed

#: Every registered fault point, by name: fired by the runner, its workers
#: or the campaign manager.
FAULT_POINTS: Dict[str, str] = {
    "worker.raise": "the task raises an injected exception mid-execution",
    "worker.crash": "the worker process exits abruptly mid-task "
    "(in-process runs degrade this to worker.raise)",
    "worker.hang": "the task sleeps param seconds (default 30) before "
    "running, tripping the watchdog when it exceeds --task-timeout",
    "worker.unpicklable": "the task completes but returns a result the "
    "pool cannot pickle back to the parent",
    "cache.corrupt": "the task's on-disk cache entry is truncated before "
    "the probe, exercising the quarantine path (no-op on a cold cache)",
    "manifest.interrupt": "the first run-all or campaign manifest write dies "
    "between temp-file write and atomic rename",
    "campaign.journal.corrupt": "the campaign journal append for the "
    "point's first lease is torn mid-line (a simulated kill -9 mid-write), "
    "exercising the recovery fold and journal quarantine on resume",
    "campaign.lease.expire": "the point's first lease is granted already "
    "expired, so the campaign watchdog reclaims it and retries the point",
    "campaign.point.poison": "every attempt of the point raises — retries "
    "cannot help, exercising the poisoned-point quarantine path",
}

#: Points that detonate inside a worker's execute_task call.
#: Tasks assigned one of these are forced to execute (bypassing the cache):
#: a directive that never fires because its task was a cache hit would make
#: chaos runs silently vacuous.
WORKER_FAULT_POINTS = frozenset(
    {"worker.raise", "worker.crash", "worker.hang", "worker.unpicklable"}
)

#: Default sleep for worker.hang when no param is given (seconds).
DEFAULT_HANG_S = 30.0


@dataclass(frozen=True)
class FaultSpec:
    """One requested fault: a point, how many firings, where, how hard.

    Attributes
    ----------
    point:
        Registered fault-point name (see :data:`FAULT_POINTS`).
    count:
        How many distinct targets this spec faults (default 1).
    param:
        Point-specific magnitude — the ``worker.hang`` sleep in seconds;
        ignored by points that take none.
    scope:
        ``fnmatch`` pattern over ``experiment:part`` task labels
        (``"fig14:*"``, ``"fig9:all"``); ``"*"`` matches every task.
    """

    point: str
    count: int = 1
    param: Optional[float] = None
    scope: str = "*"

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ConfigurationError(
                f"unknown fault point {self.point!r}; known: {sorted(FAULT_POINTS)}"
            )
        if self.count < 1:
            raise ConfigurationError(
                f"fault count must be >= 1, got {self.count} for {self.point}"
            )

    def __str__(self) -> str:
        """The compact spec-string token (round-trips through parsing)."""
        text = f"{self.point}:{self.count}"
        if self.param is not None:
            text += f"@{self.param:g}"
        if self.scope != "*":
            text += f"%{self.scope}"
        return text


@dataclass(frozen=True)
class FaultDirective:
    """One armed fault bound to a concrete target (picklable, crosses the
    pool boundary on the :class:`~repro.runner.tasks.TaskSpec`)."""

    point: str
    param: Optional[float] = None


class FaultPlan:
    """A seeded, deterministic set of faults for one run.

    Parameters
    ----------
    specs:
        The requested faults.
    seed:
        Master seed; target selection draws from
        ``RandomStreams(derive_seed(seed, "faults"))``, one named stream
        per fault point, so adding a new fault never perturbs which tasks
        an existing one selects.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._streams = RandomStreams(derive_seed(self.seed, "faults"))

    # ------------------------------------------------------------ selection

    def assign(self, labels: Sequence[str]) -> Dict[str, Tuple[FaultDirective, ...]]:
        """Deterministically bind task-scoped faults to task labels.

        ``labels`` are ``experiment:part`` strings for every task the run
        is about to execute. For each spec (except ``manifest.interrupt``,
        which is process- not task-scoped), ``count`` targets are drawn
        without replacement from the eligible labels in sorted order. Same
        seed + same label set ⇒ same assignment.

        Raises :class:`~repro.errors.ConfigurationError` naming the spec
        when a task-scoped spec's scope matches none of ``labels``: a fault
        that can never fire would leave the run untested yet look faulted.
        """
        assignment: Dict[str, List[FaultDirective]] = {}
        for index, spec in enumerate(self.specs):
            if spec.point == "manifest.interrupt":
                continue
            eligible = sorted(
                label for label in set(labels) if fnmatchcase(label, spec.scope)
            )
            if not eligible:
                raise ConfigurationError(
                    f"fault spec {str(spec)!r}: scope {spec.scope!r} matches "
                    f"none of the run's {len(set(labels))} unit label(s)"
                )
            rng = self._streams.stream(f"{spec.point}#{index}")
            chosen = rng.sample(eligible, min(spec.count, len(eligible)))
            for label in chosen:
                assignment.setdefault(label, []).append(
                    FaultDirective(point=spec.point, param=spec.param)
                )
        return {label: tuple(directives) for label, directives in assignment.items()}

    def wants(self, point: str) -> bool:
        """Whether any spec targets ``point``."""
        return any(spec.point == point for spec in self.specs)

    # ----------------------------------------------------------- rendering

    def describe(self) -> str:
        """The compact spec-string form (round-trips through parsing)."""
        return ",".join(str(spec) for spec in self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, specs={self.describe()!r})"


def parse_fault_plan(text: str, seed: int = 0) -> FaultPlan:
    """Build a :class:`FaultPlan` from a CLI spec string or a JSON file.

    Spec-string grammar (comma-separated)::

        point[:count][@param][%scope]

    e.g. ``worker.crash:1,worker.hang:1@20,worker.raise:1%fig14:*``.
    A path ending in ``.json`` loads ``{"seed": ..., "faults": [{"point":
    ..., "count": ..., "param": ..., "scope": ...}, ...]}`` instead; an
    explicit ``seed`` there overrides the argument.
    """
    text = text.strip()
    if text.endswith(".json"):
        return _parse_json_plan(Path(text), seed)
    specs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        specs.append(_parse_spec_token(token))
    if not specs:
        raise ConfigurationError(f"empty fault plan spec {text!r}")
    return FaultPlan(specs, seed=seed)


def _parse_spec_token(token: str) -> FaultSpec:
    scope = "*"
    if "%" in token:
        token, scope = token.split("%", 1)
    param: Optional[float] = None
    if "@" in token:
        token, param_text = token.split("@", 1)
        try:
            param = float(param_text)
        except ValueError as exc:
            raise ConfigurationError(
                f"bad fault param {param_text!r} in {token!r}"
            ) from exc
    count = 1
    if ":" in token:
        token, count_text = token.split(":", 1)
        try:
            count = int(count_text)
        except ValueError as exc:
            raise ConfigurationError(
                f"bad fault count {count_text!r} in {token!r}"
            ) from exc
    return FaultSpec(point=token, count=count, param=param, scope=scope)


def _parse_json_plan(path: Path, seed: int) -> FaultPlan:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read fault plan {path}: {exc}") from exc
    if not isinstance(data, dict) or "faults" not in data:
        raise ConfigurationError(
            f"{path}: fault plan JSON needs a top-level 'faults' list"
        )
    specs = []
    for entry in data["faults"]:
        if not isinstance(entry, dict) or "point" not in entry:
            raise ConfigurationError(f"{path}: each fault needs a 'point'")
        specs.append(
            FaultSpec(
                point=entry["point"],
                count=int(entry.get("count", 1)),
                param=(
                    None if entry.get("param") is None else float(entry["param"])
                ),
                scope=str(entry.get("scope", "*")),
            )
        )
    return FaultPlan(specs, seed=int(data.get("seed", seed)))
