"""Campaign specs: declarative parameter grids over registry experiments.

A spec file is JSON::

    {
      "schema": 1,
      "campaign": "qdepth-sensitivity",
      "seeds": [0, 1, 2],
      "experiments": [
        {"experiment": "fig12", "axes": {"occupancy": [0.4, 0.6, 0.8]}},
        {"experiment": "fig7",  "axes": {"duration_s": [2.0, 5.0]}},
        {"experiment": "fig9"}
      ]
    }

Each entry names a registry experiment; ``axes`` maps driver keyword
arguments to value lists (validated against the driver's signature — a
typo'd axis is a configuration error, not a silent no-op, and ``repro
lint`` enforces the same contract statically via PW007). ``seeds`` are
replicates applied to every seed-accepting driver; pure-analytic drivers
collapse to a single point per axis combination.

:meth:`CampaignSpec.expand` is deterministic — entries in file order, axes
in sorted-name order, values and seeds in listed order — and every
:class:`CampaignPoint` is content-addressed by the *same*
:func:`repro.runner.cache.cache_key` the runner uses, so a re-run (or a
``run-all`` that happened to execute the identical driver call) replays
from ``.repro_cache/`` instead of recomputing.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.experiments.registry import SPECS
from repro.runner.cache import cache_key

#: Bump on any breaking change to the campaign spec layout.
CAMPAIGN_SCHEMA_VERSION = 1

#: Directory the lint walk (and convention) expects campaign specs in.
DEFAULT_SPEC_DIR = "campaigns"

#: ``(spec, fingerprint)`` expansions kept per process. A process runs a
#: handful of specs, each against the one fingerprint of its source.
_EXPANSION_CACHE_SIZE = 8


def _axis_value_text(value: Any) -> str:
    """Canonical short form of one axis value for part names."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SweepEntry:
    """One experiment's grid: the id plus its axis value lists."""

    experiment: str
    #: ``(axis name, value tuple)`` pairs, sorted by axis name.
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    def combinations(self) -> List[Dict[str, Any]]:
        """Every axis-value combination, in deterministic grid order."""
        if not self.axes:
            return [{}]
        names = [name for name, _values in self.axes]
        value_lists = [values for _name, values in self.axes]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*value_lists)
        ]


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded, content-addressed unit of campaign work."""

    campaign: str
    experiment: str
    #: ``"all"`` for an axis-free entry, else ``"occupancy=0.6"``-style.
    part: str
    target: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Swept axis values only (``kwargs`` minus the seed), for reporting.
    axes: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    #: :func:`repro.runner.cache.cache_key` content address.
    key: str = ""

    @property
    def point_id(self) -> str:
        """Stable human-readable identity (journal and manifest key)."""
        return self.label

    @property
    def label(self) -> str:
        """``experiment:part[#s<seed>]`` — what fault scopes match against."""
        suffix = f"#s{self.seed}" if self.seed is not None else ""
        return f"{self.experiment}:{self.part}{suffix}"

    @property
    def part_label(self) -> str:
        """The part name on the watch board (seed-qualified so replicates
        occupy distinct rows)."""
        suffix = f"#s{self.seed}" if self.seed is not None else ""
        return f"{self.part}{suffix}"


@dataclass(frozen=True)
class CampaignSpec:
    """One parsed, validated campaign definition."""

    name: str
    entries: Tuple[SweepEntry, ...]
    seeds: Tuple[int, ...] = (0,)
    path: str = "<spec>"

    def digest(self) -> str:
        """SHA-256 over the canonical spec content (not the file bytes), so
        reformatting a spec does not orphan its journal."""
        payload = json.dumps(
            {
                "schema": CAMPAIGN_SCHEMA_VERSION,
                "campaign": self.name,
                "seeds": list(self.seeds),
                "experiments": [
                    {
                        "experiment": entry.experiment,
                        "axes": {
                            name: list(values) for name, values in entry.axes
                        },
                    }
                    for entry in self.entries
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def expand(self, fingerprint: str) -> List[CampaignPoint]:
        """Deterministically expand the grid into content-addressed points.

        Entries in spec order, axis combinations in grid order, seeds in
        listed order; drivers that take no seed collapse the replicate
        dimension to one point. Equal ``(spec, fingerprint)`` always yields
        the equal point list — resume and fresh runs agree byte-for-byte —
        so the expansion is computed once per pair and each call gets a
        fresh list of the same frozen points.
        """
        try:
            hash(self)
        except TypeError:  # a list- or object-valued axis value
            return self._points(fingerprint)
        return list(_expansion(self, fingerprint))

    def _points(self, fingerprint: str) -> List[CampaignPoint]:
        """The uncached expansion behind :meth:`expand`."""
        points: List[CampaignPoint] = []
        seen: Dict[str, str] = {}
        for entry in self.entries:
            spec = SPECS[entry.experiment]
            accepts_seed = spec.accepts_seed()
            seeds: Tuple[Optional[int], ...] = (
                self.seeds if accepts_seed else (None,)
            )
            for combo in entry.combinations():
                part = (
                    ";".join(
                        f"{name}={_axis_value_text(value)}"
                        for name, value in sorted(combo.items())
                    )
                    or "all"
                )
                for seed in seeds:
                    kwargs = dict(combo)
                    if seed is not None:
                        kwargs["seed"] = seed
                    point = CampaignPoint(
                        campaign=self.name,
                        experiment=entry.experiment,
                        part=part,
                        target=spec.target,
                        kwargs=kwargs,
                        axes=dict(combo),
                        seed=seed,
                        key=cache_key(
                            entry.experiment,
                            part,
                            spec.target,
                            kwargs,
                            seed,
                            fingerprint,
                        ),
                    )
                    if point.point_id in seen:
                        raise ConfigurationError(
                            f"{self.path}: duplicate campaign point "
                            f"{point.point_id!r} (is {entry.experiment!r} "
                            "listed twice with overlapping axes?)"
                        )
                    seen[point.point_id] = point.key
                    points.append(point)
        return points


@functools.lru_cache(maxsize=_EXPANSION_CACHE_SIZE)
def _expansion(spec: CampaignSpec, fingerprint: str) -> Tuple[CampaignPoint, ...]:
    return tuple(spec._points(fingerprint))


def _driver_axis_names(experiment_id: str) -> Tuple[Optional[frozenset], bool]:
    """``(keyword names, accepts_arbitrary)`` of an experiment's driver.

    ``None`` names with ``accepts_arbitrary=True`` means the signature
    could not be resolved (broken registry target) — the caller decides
    whether that is fatal.
    """
    spec = SPECS[experiment_id]
    try:
        signature = inspect.signature(spec.resolve())
    except (ConfigurationError, ValueError, TypeError):
        return None, True
    names = set()
    var_keyword = False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            var_keyword = True
        elif parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            names.add(parameter.name)
    return frozenset(names), var_keyword


def validate_campaign_data(data: Any) -> List[Tuple[str, str]]:
    """Structural validation shared by the parser and the PW007 lint rule.

    Returns ``(message, needle)`` pairs — the needle is a source-text
    fragment the lint pass greps for to attach a line number; the parser
    only cares about the messages. Empty list means the data is a valid
    campaign spec.
    """
    problems: List[Tuple[str, str]] = []
    if not isinstance(data, dict):
        return [("campaign spec must be a JSON object", "")]
    name = data.get("campaign")
    if not isinstance(name, str) or not name:
        problems.append(
            ("campaign spec needs a non-empty 'campaign' name", '"campaign"')
        )
    schema = data.get("schema", CAMPAIGN_SCHEMA_VERSION)
    if schema != CAMPAIGN_SCHEMA_VERSION:
        problems.append(
            (
                f"unsupported campaign schema {schema!r} "
                f"(supported: {CAMPAIGN_SCHEMA_VERSION})",
                '"schema"',
            )
        )
    seeds = data.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or any(
        not isinstance(seed, int) or isinstance(seed, bool) for seed in seeds
    ):
        problems.append(
            ("'seeds' must be a non-empty list of integers", '"seeds"')
        )
    elif len(set(seeds)) != len(seeds):
        problems.append(("'seeds' contains duplicates", '"seeds"'))
    entries = data.get("experiments")
    if not isinstance(entries, list) or not entries:
        problems.append(
            (
                "campaign spec needs a non-empty 'experiments' list",
                '"experiments"',
            )
        )
        return problems
    for index, entry in enumerate(entries):
        where = f"experiments[{index}]"
        if not isinstance(entry, dict):
            problems.append((f"{where} must be an object", '"experiments"'))
            continue
        experiment = entry.get("experiment")
        needle = (
            json.dumps(experiment) if isinstance(experiment, str) else '"experiment"'
        )
        if not isinstance(experiment, str):
            problems.append(
                (f"{where} needs an 'experiment' id", '"experiment"')
            )
            continue
        if experiment not in SPECS:
            problems.append(
                (
                    f"{where}: unknown experiment {experiment!r}; known: "
                    f"{sorted(SPECS)}",
                    needle,
                )
            )
            continue
        unknown_keys = set(entry) - {"experiment", "axes"}
        if unknown_keys:
            problems.append(
                (
                    f"{where}: unknown key(s) {sorted(unknown_keys)}",
                    needle,
                )
            )
        axes = entry.get("axes", {})
        if not isinstance(axes, dict):
            problems.append((f"{where}: 'axes' must be an object", '"axes"'))
            continue
        valid_names, accepts_arbitrary = _driver_axis_names(experiment)
        for axis, values in axes.items():
            axis_needle = json.dumps(axis)
            if axis == "seed":
                problems.append(
                    (
                        f"{where}: axis 'seed' is not allowed — use the "
                        "top-level 'seeds' replicate list",
                        axis_needle,
                    )
                )
                continue
            if (
                valid_names is not None
                and axis not in valid_names
                and not accepts_arbitrary
            ):
                problems.append(
                    (
                        f"{where}: axis {axis!r} is not a keyword of "
                        f"{experiment!r}'s driver; accepted: "
                        f"{sorted(valid_names)}",
                        axis_needle,
                    )
                )
                continue
            if not isinstance(values, list) or not values:
                problems.append(
                    (
                        f"{where}: axis {axis!r} needs a non-empty value list",
                        axis_needle,
                    )
                )
    return problems


def parse_campaign_spec(data: Any, path: str = "<spec>") -> CampaignSpec:
    """Build a validated :class:`CampaignSpec` from already-parsed JSON."""
    problems = validate_campaign_data(data)
    if problems:
        details = "; ".join(message for message, _needle in problems)
        raise ConfigurationError(f"{path}: {details}")
    entries = tuple(
        SweepEntry(
            experiment=entry["experiment"],
            axes=tuple(
                (name, tuple(values))
                for name, values in sorted(entry.get("axes", {}).items())
            ),
        )
        for entry in data["experiments"]
    )
    return CampaignSpec(
        name=data["campaign"],
        entries=entries,
        seeds=tuple(data.get("seeds", [0])),
        path=path,
    )


def load_campaign_spec(path: Union[str, Path]) -> CampaignSpec:
    """Read and validate one campaign spec file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"cannot read campaign spec {path}: {exc}"
        ) from exc
    return parse_campaign_spec(data, path=str(path))
