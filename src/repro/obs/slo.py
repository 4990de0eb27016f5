"""Domain SLOs: machine-checked statements about the *simulated system*.

Everything else in ``repro.obs`` observes the simulator — dispatch
counts, spans, per-kind wall attribution. This module observes what the
paper actually promises: "PoWiFi minimally impacts client TCP/web
performance while keeping the channel occupied and delivering usable
power" (Talla et al., CoNEXT 2015, §4–§6). An SLO spec turns one such
promise into data: a JSON file declaring objectives over *domain metric
streams* (TCP throughput ratio vs. the no-injection baseline, page-load
delta, per-channel occupancy share, camera inter-frame cadence, sensor
read rate), each checked by one of three evaluators:

* ``threshold`` — a scalar compared against a bound;
* ``window`` — the worst sliding window of a series compared against a
  bound (catches transient starvation that a run-wide mean hides);
* ``burn_rate`` — the fraction of samples violating a per-sample bound,
  compared against an error budget (SRE-style: "home 5 may read below
  0.5 reads/s in at most 15 % of minutes").

Evaluation is pure and deterministic: domain metrics are extracted from
merged experiment results at run time (:func:`domain_metrics`), land in
the manifest's per-experiment ``domain`` sections, and the ``slo``
section is a fold over those numbers — equal seeds produce byte-identical
sections. The same fold runs post-hoc (``repro slo --input
run_manifest.json``) and online (``run-all`` journals an
``experiment.slo`` record as each experiment merges, which ``repro
watch`` folds into its board).

Objective ids follow the metric naming convention (dotted lowercase,
enforced here *and* by lint rule PW006, which also checks literal ids at
:func:`objective` call sites and in ``slos/*.json`` spec files).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ObservabilityError

#: Bump on any breaking change to spec files or the manifest ``slo`` section.
SLO_SCHEMA_VERSION = 1

#: Default directory holding per-experiment spec files (repo-relative).
DEFAULT_SPEC_DIR = "slos"

#: Objective ids and domain metric names share the instrument-name
#: convention: dotted lowercase, at least two segments.
OBJECTIVE_ID_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: Evaluator kinds, documented above.
KINDS = ("threshold", "window", "burn_rate")

#: Comparison directions. ``>=`` reads "must stay at or above", ``<=``
#: "must stay at or below"; margins are signed so positive = headroom.
OPS = (">=", "<=")

#: Reductions applicable to a window of samples.
REDUCES = ("mean", "min", "max")

#: ``registry:`` metric references may end in one of these reductions.
_REGISTRY_REDUCES = ("p50", "p90", "p99", "mean", "min", "max", "count", "rate", "last")

_REGISTRY_RE = re.compile(
    r"^registry:(?P<name>[a-z0-9_]+(\.[a-z0-9_]+)+)"
    r"(\{(?P<labels>[^}]*)\})?"
    r"(#(?P<reduce>[a-z0-9]+))?$"
)


@dataclass(frozen=True)
class Objective:
    """One declarative objective over a domain metric stream."""

    id: str
    metric: str
    kind: str
    op: str
    value: float
    window_s: Optional[float] = None
    reduce: str = "mean"
    budget: Optional[float] = None
    description: str = ""

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "id": self.id,
            "metric": self.metric,
            "kind": self.kind,
            "op": self.op,
            "value": self.value,
        }
        if self.kind == "window":
            record["window_s"] = self.window_s
            record["reduce"] = self.reduce
        if self.kind == "burn_rate":
            record["budget"] = self.budget
        if self.description:
            record["description"] = self.description
        return record


@dataclass(frozen=True)
class SloSpec:
    """One spec file: an experiment id plus its objectives."""

    experiment: str
    objectives: Tuple[Objective, ...]
    path: str = ""


def objective(
    objective_id: str,
    metric: str,
    kind: str = "threshold",
    op: str = ">=",
    value: float = 0.0,
    window_s: Optional[float] = None,
    reduce: str = "mean",
    budget: Optional[float] = None,
    description: str = "",
) -> Objective:
    """Build one validated :class:`Objective`.

    The canonical constructor for programmatic specs (tests, tooling);
    :func:`load_spec` routes every JSON objective through it so file and
    code objectives obey identical rules. Raises
    :class:`~repro.errors.ObservabilityError` on any malformed field.
    """
    if not isinstance(objective_id, str) or not OBJECTIVE_ID_RE.match(objective_id):
        raise ObservabilityError(
            f"bad objective id {objective_id!r}: expected dotted lowercase "
            "(e.g. 'client.tcp.median_ratio')"
        )
    _validate_metric_ref(metric)
    if kind not in KINDS:
        raise ObservabilityError(
            f"objective {objective_id!r}: unknown kind {kind!r}; expected one of {KINDS}"
        )
    if op not in OPS:
        raise ObservabilityError(
            f"objective {objective_id!r}: unknown op {op!r}; expected one of {OPS}"
        )
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ObservabilityError(
            f"objective {objective_id!r}: value must be a number, got {value!r}"
        )
    if kind == "window":
        if not isinstance(window_s, (int, float)) or window_s <= 0:
            raise ObservabilityError(
                f"objective {objective_id!r}: window kind needs window_s > 0"
            )
        if reduce not in REDUCES:
            raise ObservabilityError(
                f"objective {objective_id!r}: unknown reduce {reduce!r}; "
                f"expected one of {REDUCES}"
            )
    if kind == "burn_rate":
        if (
            not isinstance(budget, (int, float))
            or isinstance(budget, bool)
            or not 0.0 <= float(budget) <= 1.0
        ):
            raise ObservabilityError(
                f"objective {objective_id!r}: burn_rate kind needs a budget in [0, 1]"
            )
    return Objective(
        id=objective_id,
        metric=metric,
        kind=kind,
        op=op,
        value=float(value),
        window_s=float(window_s) if window_s is not None else None,
        reduce=reduce,
        budget=float(budget) if budget is not None else None,
        description=str(description),
    )


def _validate_metric_ref(metric: str) -> None:
    """A metric reference is a domain metric name or a ``registry:`` ref."""
    if not isinstance(metric, str):
        raise ObservabilityError(f"bad metric reference {metric!r}: not a string")
    if metric.startswith("registry:"):
        match = _REGISTRY_RE.match(metric)
        if not match:
            raise ObservabilityError(
                f"bad registry metric reference {metric!r}: expected "
                "'registry:name', 'registry:name{label=value}' or "
                "'registry:name#p95'"
            )
        reduce = match.group("reduce")
        if reduce is not None and reduce not in _REGISTRY_REDUCES:
            raise ObservabilityError(
                f"bad registry metric reference {metric!r}: unknown reduction "
                f"{reduce!r}; expected one of {_REGISTRY_REDUCES}"
            )
        return
    if not OBJECTIVE_ID_RE.match(metric):
        raise ObservabilityError(
            f"bad metric reference {metric!r}: expected dotted lowercase or "
            "a 'registry:' reference"
        )


# ---------------------------------------------------------------------------
# Spec files


def load_spec(path: Union[str, Path]) -> SloSpec:
    """Parse and validate one ``slos/*.json`` spec file.

    Raises :class:`~repro.errors.ObservabilityError` with the offending
    path and field on any malformed content; objective ids must be unique
    within a spec.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ObservabilityError(f"cannot read SLO spec {path}: {exc}") from exc
    except ValueError as exc:
        raise ObservabilityError(f"malformed JSON in SLO spec {path}: {exc}") from exc
    return parse_spec(data, path=str(path))


def parse_spec(data: Any, path: str = "<spec>") -> SloSpec:
    """Validate already-parsed spec data (the loader and lint both use this)."""
    if not isinstance(data, dict):
        raise ObservabilityError(f"SLO spec {path}: top level must be an object")
    schema = data.get("schema")
    if schema != SLO_SCHEMA_VERSION:
        raise ObservabilityError(
            f"SLO spec {path}: schema {schema!r} unsupported "
            f"(expected {SLO_SCHEMA_VERSION})"
        )
    experiment = data.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        raise ObservabilityError(f"SLO spec {path}: missing experiment id")
    raw = data.get("objectives")
    if not isinstance(raw, list) or not raw:
        raise ObservabilityError(f"SLO spec {path}: objectives must be a non-empty list")
    objectives: List[Objective] = []
    seen = set()
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ObservabilityError(
                f"SLO spec {path}: objectives[{index}] must be an object"
            )
        known = {
            "id",
            "metric",
            "kind",
            "op",
            "value",
            "window_s",
            "reduce",
            "budget",
            "description",
        }
        unknown = sorted(set(entry) - known)
        if unknown:
            raise ObservabilityError(
                f"SLO spec {path}: objectives[{index}] has unknown keys {unknown}"
            )
        try:
            parsed = objective(
                entry.get("id", ""),
                entry.get("metric", ""),
                kind=entry.get("kind", "threshold"),
                op=entry.get("op", ">="),
                value=entry.get("value", 0.0),
                window_s=entry.get("window_s"),
                reduce=entry.get("reduce", "mean"),
                budget=entry.get("budget"),
                description=entry.get("description", ""),
            )
        except ObservabilityError as exc:
            raise ObservabilityError(f"SLO spec {path}: objectives[{index}]: {exc}") from None
        if parsed.id in seen:
            raise ObservabilityError(
                f"SLO spec {path}: duplicate objective id {parsed.id!r}"
            )
        seen.add(parsed.id)
        objectives.append(parsed)
    return SloSpec(experiment=experiment, objectives=tuple(objectives), path=path)


def default_spec_path(experiment_id: str) -> Optional[str]:
    """Registry-declared default spec path for an experiment, if any."""
    from repro.experiments.registry import SPECS

    spec = SPECS.get(experiment_id)
    if spec is None:
        return None
    return getattr(spec, "slo", None)


def load_default_specs(
    experiment_ids: Iterable[str], root: Union[str, Path, None] = None
) -> List[SloSpec]:
    """Load the registry-default spec of every listed experiment.

    Experiments without a registered default, and defaults whose file is
    absent (a checkout run from elsewhere), are silently skipped — an SLO
    that cannot be loaded must not change what the run computes. Malformed
    files still raise: a present-but-broken spec is a configuration error.
    """
    specs: List[SloSpec] = []
    bases = [Path(root)] if root is not None else _default_roots()
    for experiment_id in experiment_ids:
        relative = default_spec_path(experiment_id)
        if relative is None:
            continue
        for base in bases:
            path = base / relative
            if path.is_file():
                specs.append(load_spec(path))
                break
    return specs


def _default_roots() -> List[Path]:
    """Where registry-relative spec paths are looked up when ``root=None``.

    The working directory first (an in-tree run, or a checkout carrying its
    own overrides), then the repository root derived from this package's
    location — so ``run-all`` invoked from a scratch directory still finds
    the registry defaults.
    """
    roots = [Path(".")]
    package_root = Path(__file__).resolve().parents[3]
    roots.append(package_root)
    return roots


# ---------------------------------------------------------------------------
# Domain metric extraction

#: Round every emitted number to this many decimals: keeps manifests tidy
#: and byte-stable without losing domain-relevant precision.
_DECIMALS = 9


def _round(value: float) -> float:
    return round(float(value), _DECIMALS)


def _series(window_s: float, samples: Sequence[float]) -> Dict[str, Any]:
    return {
        "window_s": _round(window_s),
        "samples": [_round(sample) for sample in samples],
    }


def _scheme_map(result: Any) -> Dict[str, Any]:
    """``{Scheme: value}`` → ``{scheme_name: value}`` without enum imports."""
    return {getattr(scheme, "value", str(scheme)): value for scheme, value in result.items()}


def _extract_fig6a(result: Any) -> Dict[str, Any]:
    by_scheme = _scheme_map(result)
    baseline = by_scheme["baseline"].throughput_by_rate
    powifi = by_scheme["powifi"].throughput_by_rate
    drops = [
        (baseline[rate] - powifi[rate]) / baseline[rate]
        for rate in sorted(baseline)
        if rate in powifi and baseline[rate] > 0
    ]
    return {
        "client.udp.max_frac_drop": _round(max(drops) if drops else 0.0),
        "client.udp.baseline.peak_mbps": _round(max(baseline.values())),
        "client.udp.powifi.peak_mbps": _round(max(powifi.values())),
    }


def _extract_fig6b(result: Any) -> Dict[str, Any]:
    by_scheme = _scheme_map(result)
    baseline = by_scheme["baseline"].median_mbps
    powifi = by_scheme["powifi"].median_mbps
    ratio = powifi / baseline if baseline > 0 else 0.0
    return {
        "client.tcp.baseline.median_mbps": _round(baseline),
        "client.tcp.powifi.median_mbps": _round(powifi),
        "client.tcp.powifi_ratio": _round(ratio),
    }


def _extract_fig6c(result: Any) -> Dict[str, Any]:
    by_scheme = _scheme_map(result)
    baseline = by_scheme["baseline"].mean_plt_s
    powifi = by_scheme["powifi"].mean_plt_s
    return {
        "client.plt.baseline.mean_s": _round(baseline),
        "client.plt.powifi.mean_s": _round(powifi),
        "client.plt.powifi_delta_s": _round(powifi - baseline),
    }


def _extract_fig7(result: Any) -> Dict[str, Any]:
    cumulative = result.cumulative
    channel_means = [series.mean for series in result.per_channel.values()]
    return {
        "channel.occupancy.cumulative.mean": _round(result.mean_cumulative),
        "channel.occupancy.min_channel_mean": _round(min(channel_means)),
        "channel.occupancy.cumulative.series": _series(
            cumulative.window_s, cumulative.samples
        ),
    }


def _extract_fig12(result: Any) -> Dict[str, Any]:
    metrics = {
        "camera.battery_free.range_feet": _round(result.battery_free_range_feet),
        "camera.battery_recharging.range_feet": _round(
            result.battery_recharging_range_feet
        ),
    }
    for feet in (8, 10):
        minutes = result.battery_free.get(feet, result.battery_free.get(float(feet)))
        if minutes is not None and math.isfinite(minutes):
            metrics[f"camera.battery_free.interframe_minutes_{feet}ft"] = _round(minutes)
    return metrics


#: Home-sensor windows are minutes (fig15 samples reads/s per 60 s window).
_FIG15_WINDOW_S = 60.0


def _extract_fig15(result: Any) -> Dict[str, Any]:
    medians = {
        index: result.median(index) for index in sorted(result.samples_by_home)
    }
    worst_home = min(medians, key=lambda index: (medians[index], index))
    metrics: Dict[str, Any] = {
        "sensor.home.min_median_rate_hz": _round(min(medians.values())),
        "sensor.home.all_deliver": 1.0 if result.all_homes_deliver_power else 0.0,
        "sensor.worst_home.rate.series": _series(
            _FIG15_WINDOW_S, result.samples_by_home[worst_home]
        ),
    }
    for index, median in medians.items():
        metrics[f"sensor.home{index}.median_rate_hz"] = _round(median)
    return metrics


#: Experiment id → extractor over the *merged* result object. Extractors
#: are duck-typed (no experiment-module imports) so this module stays
#: import-light and post-hoc tools can feed it unpickled results.
_EXTRACTORS = {
    "fig6a": _extract_fig6a,
    "fig6b": _extract_fig6b,
    "fig6c": _extract_fig6c,
    "fig7": _extract_fig7,
    "fig12": _extract_fig12,
    "fig15": _extract_fig15,
}


def domain_metrics(experiment_id: str, result: Any) -> Dict[str, Any]:
    """Domain metric streams of one merged experiment result.

    Returns ``{}`` for experiments without an extractor, for ``None``
    results, and for results whose shape the extractor does not recognise —
    domain telemetry is observability, never load-bearing, so extraction
    must not fail a run that produced a result.
    """
    extractor = _EXTRACTORS.get(experiment_id)
    if extractor is None or result is None:
        return {}
    try:
        return extractor(result)
    except Exception:
        return {}


# ---------------------------------------------------------------------------
# Metric resolution


def _normalize_series(value: Any) -> Optional[Tuple[Tuple[float, ...], Tuple[float, ...], Optional[float]]]:
    """``(times, values, window_s)`` view of a series value, else ``None``.

    Accepts the domain windowed form ``{"window_s": w, "samples": [...]}``
    (sample *i* covers ``[i*w, (i+1)*w)``) and the registry timeseries form
    ``[[t, v], ...]``.
    """
    if isinstance(value, dict) and "samples" in value:
        samples = value.get("samples")
        window = value.get("window_s")
        if not isinstance(samples, list) or not isinstance(window, (int, float)):
            return None
        values = tuple(float(sample) for sample in samples)
        times = tuple(index * float(window) for index in range(len(values)))
        return times, values, float(window)
    if isinstance(value, list) and all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in value
    ):
        times = tuple(float(pair[0]) for pair in value)
        values = tuple(float(pair[1]) for pair in value)
        return times, values, None
    return None


def _parse_labels(raw: Optional[str]) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    if not raw:
        return labels
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ObservabilityError(f"bad label token {token!r} in registry reference")
        key, value = token.split("=", 1)
        labels[key.strip()] = value.strip()
    return labels


def _registry_lookup(
    metric: str, records: Sequence[Dict[str, Any]]
) -> Optional[Any]:
    """Resolve a ``registry:`` reference against exported metric records.

    Counters and gauges yield their value; histograms yield the requested
    ``#reduction`` (default ``mean``); timeseries yield their sample list
    (series form) or a ``#rate``/``#last``/``#count`` scalar.
    """
    match = _REGISTRY_RE.match(metric)
    if not match:
        return None
    name = match.group("name")
    labels = _parse_labels(match.group("labels"))
    reduce = match.group("reduce")
    for record in records:
        if record.get("name") != name:
            continue
        record_labels = record.get("labels") or {}
        if labels and any(
            str(record_labels.get(key)) != value for key, value in labels.items()
        ):
            continue
        kind = record.get("type")
        if kind in ("counter", "gauge"):
            return float(record.get("value", 0.0))
        if kind == "histogram":
            if reduce in (None, "mean"):
                return float(record.get("mean", 0.0))
            if reduce in ("min", "max", "count"):
                return float(record.get(reduce, 0.0))
            if reduce in ("p50", "p90", "p99"):
                quantiles = record.get("quantiles") or {}
                return float(quantiles.get("0." + reduce[1:], 0.0))
            return None
        if kind == "timeseries":
            samples = record.get("samples") or []
            if reduce is None:
                return samples
            values = [float(pair[1]) for pair in samples]
            if reduce == "count":
                return float(len(values))
            if reduce == "last":
                return values[-1] if values else 0.0
            if reduce in ("mean", "min", "max"):
                return _reduce_window(values, reduce) if values else 0.0
            if reduce == "rate":
                if len(samples) < 2:
                    return 0.0
                span = float(samples[-1][0]) - float(samples[0][0])
                if span <= 0:
                    return 0.0
                return (float(samples[-1][1]) - float(samples[0][1])) / span
            return None
    return None


def resolve_metric(
    metric: str,
    domain: Dict[str, Any],
    registry_records: Optional[Sequence[Dict[str, Any]]] = None,
) -> Optional[Any]:
    """The value behind a metric reference, or ``None`` when absent."""
    if metric.startswith("registry:"):
        if not registry_records:
            return None
        return _registry_lookup(metric, registry_records)
    return domain.get(metric)


# ---------------------------------------------------------------------------
# Evaluators


def _compare(sample: float, op: str, bound: float) -> bool:
    return sample >= bound if op == ">=" else sample <= bound


def _margin(actual: float, op: str, bound: float) -> float:
    """Signed headroom: positive = passing with room, negative = violating."""
    return actual - bound if op == ">=" else bound - actual


def _reduce_window(values: Sequence[float], reduce: str) -> float:
    if reduce == "min":
        return min(values)
    if reduce == "max":
        return max(values)
    return sum(values) / len(values)


def _skip(row: Dict[str, Any], reason: str) -> Dict[str, Any]:
    row["status"] = "skipped"
    row["reason"] = reason
    row["actual"] = None
    row["margin"] = None
    row["worst_window"] = None
    return row


def evaluate_objective(
    obj: Objective,
    domain: Dict[str, Any],
    registry_records: Optional[Sequence[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Evaluate one objective against one experiment's metric streams.

    Returns a manifest-ready row: ``status`` (``ok`` / ``violated`` /
    ``skipped``), the observed ``actual``, the signed ``margin`` (positive
    means headroom) and — for window and burn-rate kinds — the
    ``worst_window`` the verdict rests on. Pure: equal inputs produce
    byte-identical rows.
    """
    row: Dict[str, Any] = obj.to_dict()
    resolved = resolve_metric(obj.metric, domain, registry_records)
    if resolved is None:
        return _skip(row, f"metric {obj.metric!r} not found")

    series = _normalize_series(resolved)
    if obj.kind == "threshold":
        if series is not None:
            _times, values, _window = series
            if not values:
                return _skip(row, "empty series")
            actual = _reduce_window(values, obj.reduce)
        elif isinstance(resolved, (int, float)):
            actual = float(resolved)
        else:
            return _skip(row, f"metric {obj.metric!r} is not a scalar or series")
        row["actual"] = _round(actual)
        row["margin"] = _round(_margin(actual, obj.op, obj.value))
        row["worst_window"] = None
        row["status"] = "ok" if _compare(actual, obj.op, obj.value) else "violated"
        return row

    if series is None:
        return _skip(row, f"metric {obj.metric!r} is not a series")
    times, values, window = series
    if not values:
        return _skip(row, "empty series")

    if obj.kind == "window":
        worst_value, start_s, end_s = _worst_window(obj, times, values, window)
        row["actual"] = _round(worst_value)
        row["margin"] = _round(_margin(worst_value, obj.op, obj.value))
        row["worst_window"] = {
            "start_s": _round(start_s),
            "end_s": _round(end_s),
            "value": _round(worst_value),
        }
        row["status"] = (
            "ok" if _compare(worst_value, obj.op, obj.value) else "violated"
        )
        return row

    # burn_rate: per-sample violations measured against an error budget.
    violating = [not _compare(value, obj.op, obj.value) for value in values]
    fraction = sum(violating) / len(violating)
    budget = obj.budget or 0.0
    row["actual"] = _round(fraction)
    row["margin"] = _round(budget - fraction)
    row["worst_window"] = _worst_streak(violating, times, window)
    row["status"] = "ok" if fraction <= budget else "violated"
    return row


def _worst_window(
    obj: Objective,
    times: Tuple[float, ...],
    values: Tuple[float, ...],
    window: Optional[float],
) -> Tuple[float, float, float]:
    """``(worst_value, start_s, end_s)`` under the objective's direction.

    Uniform (windowed) series slide a window of ``round(window_s /
    sample_window)`` samples one sample at a time; non-uniform series
    (registry timeseries) fall back to tumbling ``window_s`` buckets keyed
    by ``floor(t / window_s)`` — coarser, but deterministic and
    order-independent.
    """
    assert obj.window_s is not None
    windows: List[Tuple[float, float, float]] = []  # (reduced, start, end)
    if window is not None and window > 0:
        count = max(1, int(round(obj.window_s / window)))
        count = min(count, len(values))
        for start in range(len(values) - count + 1):
            chunk = values[start : start + count]
            windows.append(
                (
                    _reduce_window(chunk, obj.reduce),
                    times[start],
                    times[start] + count * window,
                )
            )
    else:
        buckets: Dict[int, List[float]] = {}
        for t, value in zip(times, values):
            buckets.setdefault(int(t // obj.window_s), []).append(value)
        for index in sorted(buckets):
            windows.append(
                (
                    _reduce_window(buckets[index], obj.reduce),
                    index * obj.window_s,
                    (index + 1) * obj.window_s,
                )
            )
    # The worst window is the one closest to violating the bound: the
    # minimum for ">=" objectives, the maximum for "<=".
    if obj.op == ">=":
        return min(windows, key=lambda entry: (entry[0], entry[1]))
    return max(windows, key=lambda entry: (entry[0], -entry[1]))


def _worst_streak(
    violating: Sequence[bool], times: Tuple[float, ...], window: Optional[float]
) -> Optional[Dict[str, Any]]:
    """Longest consecutive run of violating samples, as a window record."""
    best_start = best_length = 0
    start = length = 0
    for index, bad in enumerate(violating):
        if bad:
            if length == 0:
                start = index
            length += 1
            if length > best_length:
                best_start, best_length = start, length
        else:
            length = 0
    if best_length == 0:
        return None
    end_index = best_start + best_length - 1
    end_s = times[end_index] + (window if window else 0.0)
    return {
        "start_s": _round(times[best_start]),
        "end_s": _round(end_s),
        "samples": best_length,
    }


# ---------------------------------------------------------------------------
# Run-level evaluation


def evaluate_specs(
    specs: Sequence[SloSpec],
    domains: Dict[str, Dict[str, Any]],
    errors: Optional[Dict[str, Optional[str]]] = None,
    registry_records: Optional[Sequence[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    """Evaluate every spec against per-experiment domain metric maps.

    ``domains`` maps experiment id → its ``domain`` section; experiments
    absent from the map (not part of this run) or listed in ``errors``
    (failed before producing a result) yield skipped rows rather than
    verdicts. Rows come back sorted by ``(experiment, id)``.
    """
    errors = errors or {}
    rows: List[Dict[str, Any]] = []
    for spec in sorted(specs, key=lambda s: (s.experiment, s.path)):
        for obj in spec.objectives:
            if spec.experiment not in domains:
                row = _skip(obj.to_dict(), "experiment not in run")
            elif errors.get(spec.experiment):
                row = _skip(obj.to_dict(), "experiment failed")
            else:
                row = evaluate_objective(
                    obj, domains[spec.experiment], registry_records
                )
            row["experiment"] = spec.experiment
            rows.append(row)
    rows.sort(key=lambda row: (row["experiment"], row["id"]))
    return rows


def section_from_rows(
    rows: Sequence[Dict[str, Any]], spec_paths: Sequence[str]
) -> Dict[str, Any]:
    """Assemble the manifest ``slo`` section from evaluated rows."""
    counts = {
        "ok": sum(1 for row in rows if row["status"] == "ok"),
        "violated": sum(1 for row in rows if row["status"] == "violated"),
        "skipped": sum(1 for row in rows if row["status"] == "skipped"),
    }
    return {
        "schema": SLO_SCHEMA_VERSION,
        "specs": sorted(spec_paths),
        "counts": counts,
        "ok": counts["violated"] == 0,
        "objectives": list(rows),
    }


def evaluate_manifest(
    manifest: Dict[str, Any],
    specs: Sequence[SloSpec],
    registry_records: Optional[Sequence[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Post-hoc evaluation: fold specs over a manifest's domain sections."""
    domains: Dict[str, Dict[str, Any]] = {}
    errors: Dict[str, Optional[str]] = {}
    for entry in manifest.get("experiments", []):
        domains[entry["id"]] = entry.get("domain") or {}
        errors[entry["id"]] = entry.get("error")
    rows = evaluate_specs(
        specs, domains, errors=errors, registry_records=registry_records
    )
    return section_from_rows(rows, [spec.path for spec in specs])


def exit_code(section: Dict[str, Any], strict: bool = False) -> int:
    """CI gate semantics: 0 all ok, 1 violations (or, with strict, skips)."""
    counts = section.get("counts", {})
    if counts.get("violated"):
        return 1
    if strict and counts.get("skipped"):
        return 1
    return 0


def render_section(section: Dict[str, Any]) -> str:
    """Human-readable scorecard of one ``slo`` section."""
    counts = section.get("counts", {})
    lines = [
        f"== slo == ok={counts.get('ok', 0)} violated={counts.get('violated', 0)} "
        f"skipped={counts.get('skipped', 0)}"
    ]
    for row in section.get("objectives", []):
        status = row["status"]
        mark = {"ok": "PASS", "violated": "VIOL", "skipped": "SKIP"}[status]
        detail = ""
        if status == "skipped":
            detail = row.get("reason", "")
        elif row.get("kind") == "burn_rate":
            # Actual is the violating-sample fraction, judged against the
            # budget (the op/value pair defines what "violating" means).
            detail = (
                f"bad_frac={row['actual']:g} budget={row['budget']:g} "
                f"(sample {row['op']} {row['value']:g}) margin={row['margin']:+g}"
            )
        else:
            detail = f"actual={row['actual']:g} {row['op']} {row['value']:g} margin={row['margin']:+g}"
            worst = row.get("worst_window")
            if worst and "value" in worst:
                detail += (
                    f" worst[{worst['start_s']:g}s..{worst['end_s']:g}s]"
                    f"={worst['value']:g}"
                )
            elif worst:
                detail += (
                    f" streak[{worst['start_s']:g}s..{worst['end_s']:g}s]"
                    f"={worst['samples']} sample(s)"
                )
        lines.append(
            f"  {mark}  {row['experiment']:<6} {row['id']:<40} {detail}"
        )
    return "\n".join(lines)
