"""Registry mapping experiment ids to their driver callables and metadata.

Populated lazily to keep import costs low; ids follow the paper's figure
and table numbering. Two views are exposed:

* :data:`EXPERIMENTS` — the historical ``id -> "module:callable"`` map,
  kept for callers that only need the driver;
* :data:`SPECS` — one :class:`ExperimentSpec` per experiment, carrying the
  orchestration metadata the parallel runner (``repro.runner``) consumes:
  an expected runtime class, an optional sweep decomposition and an
  optional SLO spec. The metadata fields are documented in
  ``docs/architecture.md``. An experiment's shape check is found by id
  (``repro.experiments.shapecheck.check_<id>``), not listed here.

All callables are referenced as ``"module:callable"`` strings so importing
the registry never imports a driver; :func:`resolve_target` validates and
resolves the references on demand.
"""

from __future__ import annotations

import importlib
import inspect
import keyword
import re
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError

#: Valid :attr:`ExperimentSpec.runtime` classes, cheapest first. The runner
#: schedules ``slow`` experiments before ``fast`` ones (longest-processing-
#: time-first keeps the worker pool busy at the tail of a run).
RUNTIME_CLASSES: Tuple[str, ...] = ("fast", "medium", "slow")


@dataclass(frozen=True)
class ExperimentSpec:
    """Metadata for one registered experiment.

    Attributes
    ----------
    id:
        Canonical experiment id (``fig5``, ``table1``, ``sec8a``, ...).
    target:
        ``"module:callable"`` reference to the driver function.
    runtime:
        Expected runtime class on one core — one of
        :data:`RUNTIME_CLASSES`. ``fast`` is sub-second, ``medium`` seconds,
        ``slow`` a minute or more; purely a scheduling hint, never a limit.
    sweep:
        Optional ``"module:callable"`` reference to a sweep factory
        (see ``repro.experiments.sweeps``). Called as ``factory(seed)``, it
        returns independent part tasks plus a merge function whose output
        is byte-identical to a monolithic driver call. ``None`` means the
        experiment runs as a single task.
    slo:
        Optional repo-relative path to the experiment's default SLO spec
        (see ``repro.obs.slo`` and ``docs/observability.md``). ``run-all``
        evaluates it against the merged result's domain metrics; absent
        files are skipped, so specs never gate where they don't exist.
    """

    id: str
    target: str
    runtime: str = "fast"
    sweep: Optional[str] = None
    slo: Optional[str] = None

    def resolve(self) -> Callable:
        """The driver callable behind :attr:`target`."""
        return resolve_target(self.target)

    def accepts_seed(self) -> bool:
        """Whether the driver takes a ``seed`` keyword.

        Pure-analytic drivers (Fig 9–13, Table 1, §8a) have no randomness
        and take no seed; callers use this instead of catching
        ``TypeError`` (which would also swallow genuine driver bugs).
        """
        signature = inspect.signature(self.resolve())
        return "seed" in signature.parameters


#: Experiment id -> full orchestration spec.
SPECS: Dict[str, ExperimentSpec] = {
    spec.id: spec
    for spec in (
        ExperimentSpec("fig1", "repro.experiments.fig01_leakage:run_fig01"),
        ExperimentSpec(
            "fig5",
            "repro.experiments.fig05_delay_sweep:run_fig05",
            runtime="medium",
            sweep="repro.experiments.sweeps:fig5_sweep",
        ),
        ExperimentSpec(
            "fig6a",
            "repro.experiments.fig06_traffic:run_fig06a",
            runtime="slow",
            sweep="repro.experiments.sweeps:fig6a_sweep",
            slo="slos/fig6a.json",
        ),
        ExperimentSpec(
            "fig6b",
            "repro.experiments.fig06_traffic:run_fig06b",
            runtime="medium",
            sweep="repro.experiments.sweeps:fig6b_sweep",
            slo="slos/fig6b.json",
        ),
        ExperimentSpec(
            "fig6c",
            "repro.experiments.fig06_traffic:run_fig06c",
            runtime="slow",
            sweep="repro.experiments.sweeps:fig6c_sweep",
            slo="slos/fig6c.json",
        ),
        ExperimentSpec(
            "fig7",
            "repro.experiments.fig06_traffic:run_fig07",
            runtime="medium",
            slo="slos/fig7.json",
        ),
        ExperimentSpec(
            "fig8",
            "repro.experiments.fig08_fairness:run_fig08",
            runtime="medium",
            sweep="repro.experiments.sweeps:fig8_sweep",
        ),
        ExperimentSpec("fig9", "repro.experiments.fig09_return_loss:run_fig09"),
        ExperimentSpec("fig10", "repro.experiments.fig10_rectifier:run_fig10"),
        ExperimentSpec("fig11", "repro.experiments.fig11_temperature:run_fig11"),
        ExperimentSpec(
            "fig12",
            "repro.experiments.fig12_camera:run_fig12",
            slo="slos/fig12.json",
        ),
        ExperimentSpec("fig13", "repro.experiments.fig13_walls:run_fig13"),
        ExperimentSpec(
            "fig14",
            "repro.experiments.fig14_homes:run_fig14",
            sweep="repro.experiments.sweeps:fig14_sweep",
        ),
        ExperimentSpec(
            "fig15",
            "repro.experiments.fig15_home_sensor:run_fig15",
            slo="slos/fig15.json",
        ),
        ExperimentSpec("table1", "repro.experiments.table1_homes:run_table1"),
        ExperimentSpec("sec8a", "repro.experiments.sec8a_charger:run_sec8a"),
        ExperimentSpec(
            "sec8c",
            "repro.experiments.sec8c_multi_router:run_sec8c",
            runtime="medium",
            sweep="repro.experiments.sweeps:sec8c_sweep",
        ),
    )
}

#: Experiment id -> "module:callable" within repro.experiments (the
#: historical view; derived from :data:`SPECS`).
EXPERIMENTS: Dict[str, str] = {key: spec.target for key, spec in SPECS.items()}


#: Zero-padded experiment ids (``fig07``) normalise to registry keys
#: (``fig7``); already-canonical ids like ``fig10`` pass through.
_PADDED_ID_RE = re.compile(r"^(fig|sec|table)0+(\d\w*)$")


def normalize_experiment_id(experiment: str) -> str:
    """Map ``fig07``/``fig06a``-style ids onto the registry's ``fig7``/``fig6a``."""
    match = _PADDED_ID_RE.match(experiment.lower())
    if match:
        return match.group(1) + match.group(2)
    return experiment


def _validate_target(target: str) -> Tuple[str, str]:
    """Split a ``"module:callable"`` reference, validating both halves."""
    if not isinstance(target, str) or target.count(":") != 1:
        raise ConfigurationError(
            f"malformed target {target!r}: expected 'module:callable' with "
            "exactly one colon"
        )
    module_name, func_name = target.split(":")
    parts = module_name.split(".")
    if not all(part.isidentifier() and not keyword.iskeyword(part) for part in parts):
        raise ConfigurationError(
            f"malformed target {target!r}: {module_name!r} is not a dotted "
            "module path"
        )
    if not func_name.isidentifier() or keyword.iskeyword(func_name):
        raise ConfigurationError(
            f"malformed target {target!r}: {func_name!r} is not a valid "
            "callable name"
        )
    return module_name, func_name


def resolve_target(target: str) -> Callable:
    """Resolve a validated ``"module:callable"`` reference to the callable.

    Raises :class:`~repro.errors.ConfigurationError` for malformed
    references, unimportable modules, and missing attributes — registry
    entries are configuration, so their failure mode should name the broken
    entry rather than surface a bare ``ValueError``/``ImportError``.
    """
    module_name, func_name = _validate_target(target)
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(
            f"target {target!r}: cannot import module {module_name!r} ({exc})"
        ) from exc
    try:
        return getattr(module, func_name)
    except AttributeError:
        raise ConfigurationError(
            f"target {target!r}: module {module_name!r} has no attribute "
            f"{func_name!r}"
        ) from None


def get_spec(experiment_id: str) -> ExperimentSpec:
    """The full spec for an experiment id."""
    try:
        return SPECS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {sorted(SPECS)}"
        ) from None


def get_experiment(experiment_id: str) -> Callable:
    """Resolve an experiment id to its driver function."""
    return get_spec(experiment_id).resolve()
