"""Traced-run ledger: per-layer self times measured from outside the program.

A :class:`Ledger` wraps public entry points of the ``repro`` layers
(``DeviceQueue.push``, ``build_testbed``, ``Harvester.operating_point``,
``ResultCache.get``...) in timing frames. Each frame charges its *self*
time (duration minus the frames nested inside it) to one ledger row, so
the rows of one traced operation never double count.

Time inside ``Simulator.run`` is split with the engine's own per-kind
profile (``aggregate_engine_stats``): each callback kind's wall goes to the
layer owning its component (``repro.mac80211.medium.Medium`` -> ``mac80211``)
minus the wrapped calls made from inside those callbacks, which are charged
back to the dispatching layer found by walking the Python stack to the
frame ``Simulator.run`` called. (The engine's ``on_event`` hook would be
cheaper, but installing it disables the injector's idle-tick fast-forward
and so changes the work measured.) Whatever the callbacks do not cover is
``sim.unattributed_s`` (heap work, re-arms, run-end hooks, and the
engine's stride-sampling error).

Pool workers inherit the installed wrappers through ``fork``; each task's
rows go to a JSON-lines file in :attr:`Ledger.child_dir`, and the parent
apportions its own time blocked on the pool over the workers' rows (see
:meth:`Ledger.apportion_pool`).
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Layers (``src/repro`` packages) with a busy-time row of their own.
BUSY_LAYERS = frozenset(
    ("mac80211", "core", "netstack", "workloads", "experiments", "harvester", "sensors")
)

#: The ledger rows, in report order. Rows sum to the traced wall.
LEDGER_ROWS = (
    "sim.unattributed_s",
    "mac80211.busy_s",
    "core.busy_s",
    "netstack.busy_s",
    "workloads.busy_s",
    "experiments.busy_s",
    "harvester.busy_s",
    "sensors.busy_s",
    "other.busy_s",
    "runner.busy_s",
    "runner.fingerprint_s",
    "runner.cache_get_s",
    "runner.cache_put_s",
    "runner.pool_startup_s",
    "runner.pickle_s",
    "campaign.busy_s",
    "campaign.journal_s",
    "campaign.fold_s",
    "campaign.manifest_s",
    "obs.slo_eval_s",
    "bench.check_s",
    "ledger.unattributed_s",
)

#: The ledger that pool workers forked from this process report into.
_ACTIVE: Optional["Ledger"] = None


def layer_of_component(component: str) -> str:
    """``repro.<layer>.…`` -> ``<layer>``; anything else is ``other``."""
    parts = component.split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return parts[1]
    return "other"


def busy_row(layer: str) -> str:
    """Ledger row charged with a callback layer's busy time."""
    return f"{layer}.busy_s" if layer in BUSY_LAYERS else "other.busy_s"


class _Frame:
    __slots__ = ("row", "child_s")

    def __init__(self, row: str) -> None:
        self.row = row
        self.child_s = 0.0


class Ledger:
    """Timing frames around layer entry points, accumulated per operation."""

    def __init__(self) -> None:
        #: Where pool workers append their rows; set before a pool starts.
        self.child_dir: Optional[Path] = None
        self._patches: List[tuple] = []
        self._stack: List[_Frame] = []
        self._run_code: Any = None
        self.pool_created_at: Optional[float] = None
        self.reset()

    def reset(self) -> None:
        """Forget the current operation's frames (patches stay installed)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Wrapped seconds spent inside callbacks, by the callbacks' layer.
        self.event_nested: Dict[str, float] = defaultdict(float)
        self._stack.clear()

    # ------------------------------------------------------------- frames

    def timed(self, row: str, label: str, fn: Callable[..., Any], *args, **kwargs):
        """Call ``fn`` inside a frame charged to ``row``."""
        frame = _Frame(row)
        self._stack.append(frame)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            self._stack.pop()
            self.calls[label] += 1
            self.total_s[label] += elapsed
            self.self_s[row] += elapsed - frame.child_s
            if self._stack:
                parent = self._stack[-1]
                parent.child_s += elapsed
                if parent.row == "sim.run":
                    self.event_nested[self._dispatching_layer()] += elapsed

    def _dispatching_layer(self) -> str:
        """Layer of the callback ``Simulator.run`` is executing right now."""
        frame = sys._getframe(2)
        while frame.f_back is not None:
            if frame.f_back.f_code is self._run_code:
                return layer_of_component(frame.f_globals.get("__name__", ""))
            frame = frame.f_back
        return "other"

    def _wrapper(self, original: Callable[..., Any], row: str, label: str):
        ledger = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return ledger.timed(row, label, original, *args, **kwargs)

        return traced

    def wrap_method(self, cls: type, name: str, row: str, label: str) -> None:
        self._patch(cls, name, self._wrapper(cls.__dict__[name], row, label))

    def wrap_function(self, module_name: str, name: str, row: str, label: str) -> None:
        """Patch ``module.name`` and every ``repro`` module that imported it."""
        original = getattr(sys.modules[module_name], name)
        wrapped = self._wrapper(original, row, label)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("repro") and getattr(module, name, None) is original:
                self._patch(module, name, wrapped)

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # ----------------------------------------------------------- install

    def install(self) -> None:
        """Wrap the layer entry points the ledger attributes."""
        global _ACTIVE
        import inspect

        from repro.campaign.journal import CampaignJournal
        from repro.campaign.spec import CampaignSpec
        from repro.core.ip_power import IpPowerGate
        from repro.harvester.harvester import Harvester
        from repro.netstack.txqueue import DeviceQueue
        from repro.runner.cache import ResultCache
        from repro.sensors.camera import WiFiCamera
        from repro.sensors.charger import UsbWiFiCharger
        from repro.sensors.temperature import TemperatureSensor
        from repro.sim.engine import Simulator
        import repro.campaign.manager as manager
        import repro.experiments.fig06_traffic  # noqa: F401  (imports build_testbed)
        import repro.obs.slo  # noqa: F401
        import repro.runner.tasks as tasks

        self._run_code = Simulator.run.__code__
        self.wrap_method(Simulator, "run", "sim.run", "sim.run")
        for name in ("push", "pop"):
            self.wrap_method(DeviceQueue, name, "netstack.busy_s", f"netstack.txqueue.{name}")
        self.wrap_method(IpPowerGate, "admit", "core.busy_s", "core.ip_power.admit")
        for name in ("operating_point", "rectifier_output_power_w",
                     "dc_output_power_w", "is_operational", "sensitivity_dbm"):
            label = "harvester.calls" if name == "operating_point" else f"harvester.{name}"
            self.wrap_method(Harvester, name, "harvester.busy_s", label)
        for cls in (WiFiCamera, TemperatureSensor, UsbWiFiCharger):
            for name, member in list(vars(cls).items()):
                if inspect.isfunction(member) and not name.startswith("_"):
                    self.wrap_method(cls, name, "sensors.busy_s", f"sensors.{cls.__name__}.{name}")
        self.wrap_method(ResultCache, "get", "runner.cache_get_s", "runner.cache.get")
        self.wrap_method(ResultCache, "put", "runner.cache_put_s", "runner.cache.put")
        self.wrap_method(CampaignJournal, "append", "campaign.journal_s", "campaign.journal.append")
        self.wrap_method(CampaignSpec, "expand", "campaign.busy_s", "campaign.expand")
        self.wrap_function("repro.experiments.base", "build_testbed",
                           "experiments.busy_s", "experiments.build_testbed")
        self.wrap_function("repro.runner.cache", "code_fingerprint",
                           "runner.fingerprint_s", "runner.code_fingerprint")
        self.wrap_function("repro.campaign.journal", "fold_journal",
                           "campaign.fold_s", "campaign.fold_journal")
        self.wrap_function("repro.campaign.journal", "load_journal",
                           "campaign.fold_s", "campaign.load_journal")
        for name in ("load_default_specs", "domain_metrics", "evaluate_specs"):
            self.wrap_function("repro.obs.slo", name, "obs.slo_eval_s", f"obs.slo.{name}")
        # Only the campaign manager's pool path and the task runner's driver
        # lookup are redirected; the defining modules keep the originals.
        resolve = tasks.resolve_target
        self._patch(tasks, "resolve_target", lambda target: self._wrapper(
            resolve(target), "experiments.busy_s", "experiments.driver"))
        self._patch(manager, "execute_task", traced_execute_task)
        pool_cls = manager.ProcessPoolExecutor
        self._patch(manager, "ProcessPoolExecutor", self._traced_pool(pool_cls))
        self._patch(manager, "wait", self._wrapper(manager.wait, "runner.pool_wait",
                                                   "runner.pool_wait"))
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        _ACTIVE = None

    def _traced_pool(self, pool_cls: type):
        ledger = self

        def make_pool(*args, **kwargs):
            if ledger.pool_created_at is None:
                ledger.pool_created_at = perf_counter()
            return ledger.timed("runner.pool_startup_s", "runner.pool_create",
                                pool_cls, *args, **kwargs)

        return make_pool

    # ------------------------------------------------------------ rollup

    def take_rows(self, engine: Dict[str, Any]) -> Dict[str, float]:
        """Close one operation: its ledger rows, with ``sim.run`` split by layer.

        ``engine`` is ``aggregate_engine_stats()`` for the simulators the
        operation built. Resets the per-operation state.
        """
        rows: Dict[str, float] = defaultdict(float)
        for row, seconds in self.self_s.items():
            if row != "sim.run":
                rows[row] += seconds
        attributed = 0.0
        busy: Dict[str, float] = defaultdict(float)
        components = engine.get("callback_components", {})
        for kind, wall in engine.get("callback_wall_s", {}).items():
            busy[layer_of_component(components.get(kind, ""))] += wall
        for layer, wall in busy.items():
            share = wall - self.event_nested.get(layer, 0.0)
            rows[busy_row(layer)] += share
            attributed += share
        rows["sim.unattributed_s"] += self.self_s.get("sim.run", 0.0) - attributed
        rows["sim.run_s"] = self.total_s.get("sim.run", 0.0)
        rows["experiments.build_testbed_s"] = self.total_s.get("experiments.build_testbed", 0.0)
        rows["experiments.outside_run_s"] = (
            self.total_s.get("experiments.driver", 0.0) - rows["sim.run_s"]
        )
        rows["harvester.calls"] = float(self.calls.get("harvester.calls", 0))
        self.reset()
        return dict(rows)

    def apportion_pool(self, rows: Dict[str, float]) -> Dict[str, float]:
        """Replace the parent's pool-wait row with the workers' rows.

        Workers run concurrently, so their summed rows exceed the parent's
        blocked time; each worker row is scaled by one factor so the rows
        sum to the wait exactly. ``runner.pool_parallelism`` reports the
        inverse of that factor (mean busy workers while the parent waited).
        """
        rows = dict(rows)
        wait_s = rows.pop("runner.pool_wait", 0.0)
        records = self.read_child_records()
        first_start = min((r["start"] for r in records), default=self.pool_created_at)
        startup = min(max(first_start - self.pool_created_at, 0.0), wait_s)
        worker: Dict[str, float] = defaultdict(float)
        for record in records:
            for row, seconds in record["rows"].items():
                worker[row] += seconds
        worker_total = sum(worker[row] for row in LEDGER_ROWS)
        scale = (wait_s - startup) / worker_total if worker_total > 0 else 0.0
        for row in LEDGER_ROWS:
            rows[row] = rows.get(row, 0.0) + worker[row] * scale
        for row in ("sim.run_s", "experiments.build_testbed_s",
                    "experiments.outside_run_s", "harvester.calls"):
            rows[row] = rows.get(row, 0.0) + worker[row]
        rows["runner.pool_startup_s"] = rows.get("runner.pool_startup_s", 0.0) + startup
        rows["runner.pool_parallelism"] = 1.0 / scale if scale > 0 else 0.0
        return rows

    def read_child_records(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        if self.child_dir is None or not self.child_dir.is_dir():
            return records
        for path in sorted(self.child_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
        return records


def traced_execute_task(spec):
    """Pool-side ``execute_task`` stand-in: run the task inside a frame and
    append the task's ledger rows to the parent's child directory."""
    from repro.obs import runtime as obs_runtime
    from repro.runner.tasks import execute_task

    ledger = _ACTIVE
    ledger.reset()
    started = perf_counter()
    outcome = ledger.timed("runner.busy_s", "runner.execute_task", execute_task, spec)
    pickled = perf_counter()
    pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
    ledger.self_s["runner.pickle_s"] += perf_counter() - pickled
    rows = ledger.take_rows(obs_runtime.aggregate_engine_stats())
    ended = perf_counter()
    record = {"pid": os.getpid(), "start": started, "end": ended, "rows": rows}
    with open(ledger.child_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    return outcome
