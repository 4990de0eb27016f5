"""The benchmark's three workloads.

Each workload is a closed loop driven from this one process: one operation
at a time in-process (``udp-powifi``, ``plt-baseline``), or one campaign at a
time on a pool of two workers (``sweep-cheap``). A workload exposes

* ``measure(seconds)`` — untraced, observability on (the default user
  path): the end-to-end samples, result hashes and deterministic counts;
* ``trace()`` — one untraced pass, one traced pass (the :mod:`ledger`
  installed) and one observability-off pass: the per-layer ledger, the
  tracing overhead and ``obs.overhead_frac``.

An operation is one driver part, one cache replay or one campaign point. It
fails when its result hash disagrees with the others of the run (or, for a
pinned seed, with the pin), or when a campaign point is quarantined. A DES
part that raises ends the run.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pickle
import random
import shutil
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from perfbench.ledger import LEDGER_ROWS, Ledger

#: Pool size of the sweep workload (the reference machine has two cores).
SWEEP_JOBS = 2

#: Cache replays per warm batch of a DES workload; after each cold
#: operation, batches run until they take this share of its wall.
WARM_REPLAYS = 1000
WARM_SHARE = 0.05

#: Warm reruns of the sweep campaign after each cold one.
WARM_PASSES = 5


def result_sha256(result: Any) -> str:
    """Hash a result exactly as ``repro.runner.core`` hashes merged results."""
    return hashlib.sha256(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait for every worker process this process started to end."""
    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.terminate()
            child.join(timeout_s)


@dataclass
class Samples:
    """What one run measured, before it becomes metrics."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    hashes: List[str] = field(default_factory=list)
    counts: List[Dict[str, int]] = field(default_factory=list)
    #: Host seconds of each cold pass (one op, or one cold campaign).
    cold_s: List[float] = field(default_factory=list)
    #: Host seconds of each whole run of the workload (cold + warm phase).
    wall_s: List[float] = field(default_factory=list)
    #: Points completed and host seconds spent, summed over the cold passes
    #: and over the warm passes. Throughput is their ratio: the host's speed
    #: drifts in bursts longer than one warm pass, which a mean over the
    #: whole run absorbs and a median over passes does not.
    cold_points: int = 0
    warm_points: int = 0
    warm_time_s: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def check_hash(self, sha: str, what: str) -> None:
        """Count one operation, failing it if its hash disagrees."""
        self.attempted += 1
        if self.hashes and sha != self.hashes[0]:
            self.fail(f"{what}: result_sha256 {sha[:16]} != {self.hashes[0][:16]}")
        self.hashes.append(sha)

    def check_counts(self, counts: Dict[str, int], what: str) -> None:
        if self.counts and counts != self.counts[0]:
            drift = sorted(
                key for key in counts if counts[key] != self.counts[0].get(key)
            )
            self.problems.append(f"determinism failure in {what}: {drift}")
        self.counts.append(counts)


def _registry_totals() -> Dict[str, float]:
    from repro.obs import runtime as obs_runtime

    totals: Dict[str, float] = defaultdict(float)
    for record in obs_runtime.get_registry().snapshot():
        if record.get("type") == "counter":
            totals[record["name"]] += record["value"]
    return totals


def des_counts() -> Dict[str, int]:
    """Deterministic simulated counts of the operation just run (obs on)."""
    from repro.obs import runtime as obs_runtime

    engine = obs_runtime.aggregate_engine_stats()
    calls = engine["callback_counts"]
    components = engine["callback_components"]
    registry = _registry_totals()
    spans = obs_runtime.get_spans()

    def kinds_of(component: str, suffix: str = "") -> int:
        return sum(
            count for kind, count in calls.items()
            if components.get(kind) == component and kind.endswith(suffix)
        )

    counts = {
        "sim.events": engine["dispatched"],
        "sim.cancelled": engine["cancelled"],
        "sim.heap_peak": engine["heap_high_watermark"],
        "mac80211.dcf_rounds": registry["mac.medium.dcf_rounds"],
        "mac80211.tx_done": calls.get("tx_done", 0),
        "mac80211.collisions": registry["mac.medium.collisions"],
        "core.injector.ticks": registry["core.injector.ticks"],
        "core.injector.dispatches": kinds_of("repro.core.injector.PowerInjector"),
        "core.ip_power.considered": registry["core.ip_power.considered"],
        "core.ip_power.admitted": registry["core.ip_power.admitted"],
        "netstack.txqueue.enqueued": registry["net.txqueue.enqueued"],
        "netstack.txqueue.tail_dropped": registry["net.txqueue.tail_dropped"],
        "netstack.tcp.rto_fires": kinds_of("repro.netstack.tcp.TcpFlow", "_rto"),
        "workloads.bg_frames": calls.get("bg_frame", 0),
        "experiments.testbeds": engine["simulators"],
        "obs.spans": len(spans) + spans.dropped,
    }
    return {key: int(value) for key, value in counts.items()}


class DesWorkload:
    """One Fig 6 sweep part, run in-process through ``execute_task``."""

    def __init__(self, experiment: str, factory: str, scheme: str,
                 seed: int, tmp: Path) -> None:
        from repro.experiments import sweeps
        from repro.runner.tasks import TaskSpec

        plan = getattr(sweeps, factory)(seed=seed)
        (part,) = [p for p in plan.parts if p.name == f"scheme={scheme}"]
        self.spec = TaskSpec(
            experiment_id=experiment, part=part.name, target=part.target,
            kwargs=dict(part.kwargs), seed=seed,
        )
        self.tmp = tmp
        self._ops = 0

    def _op(self, obs: bool, samples: Samples, ledger: Optional[Ledger] = None):
        """One cold operation, as ``run-all --jobs 1`` runs a part: fingerprint
        the code, probe a fresh cache (a miss), execute, hash, store."""
        from repro.obs import runtime as obs_runtime
        from repro.runner.cache import ResultCache, cache_key, code_fingerprint
        from repro.runner.tasks import execute_task

        self._ops += 1
        self.cache = ResultCache(str(self.tmp / f"cache-{self._ops}"))
        spec = self.spec
        obs_runtime.configure(enabled=obs)
        started = perf_counter()
        self.key = cache_key(spec.experiment_id, spec.part, spec.target, spec.kwargs,
                             spec.seed, code_fingerprint())
        hit, _ = self.cache.get(self.key)
        if ledger is None:
            outcome = execute_task(spec)
            sha = result_sha256(outcome.result)
        else:
            outcome = ledger.timed("runner.busy_s", "runner.execute_task", execute_task, spec)
            sha = ledger.timed("bench.check_s", "bench.hash", result_sha256, outcome.result)
        self.cache.put(self.key, outcome.result, meta={"part": spec.part})
        wall = perf_counter() - started
        if hit:
            samples.fail("cold operation hit a fresh cache")
        samples.check_hash(sha, f"{spec.part} ({'obs on' if obs else 'obs off'})")
        return wall, outcome

    def measure(self, seconds: float) -> Samples:
        samples = Samples()
        started = perf_counter()
        while True:
            wall, _ = self._op(True, samples)
            samples.check_counts(des_counts(), self.spec.part)
            samples.cold_s.append(wall)
            samples.cold_points += 1
            self._warm(samples, WARM_SHARE * wall)
            elapsed = perf_counter() - started
            if len(samples.cold_s) >= 2 and elapsed + statistics.median(samples.cold_s) > seconds:
                break
        replay_s = samples.warm_time_s / samples.warm_points
        samples.wall_s = [cold + replay_s for cold in samples.cold_s]
        return samples

    def _warm(self, samples: Samples, budget_s: float) -> None:
        """Replay the stored part from the cache, in batches, for ``budget_s``."""
        spent = 0.0
        while spent < budget_s:
            started = perf_counter()
            for _ in range(WARM_REPLAYS):
                hit, value = self.cache.get(self.key)
                if not hit:
                    samples.fail("warm replay missed the cache")
                samples.check_hash(result_sha256(value), "warm replay")
            batch_s = perf_counter() - started
            samples.warm_points += WARM_REPLAYS
            samples.warm_time_s += batch_s
            spent += batch_s

    def trace(self, ledger: Ledger) -> Dict[str, Any]:
        from repro.obs import runtime as obs_runtime

        samples = Samples()
        untraced, outcome = self._op(True, samples)
        counts = des_counts()
        samples.check_counts(counts, "untraced pass")
        ledger.install()
        try:
            ledger.reset()
            traced, _ = self._op(True, samples, ledger)
            rows = ledger.take_rows(obs_runtime.aggregate_engine_stats())
        finally:
            ledger.uninstall()
        samples.check_counts(des_counts(), "traced pass")
        obs_off, _ = self._op(False, samples)
        rows["ledger.unattributed_s"] = traced - sum(rows.get(r, 0.0) for r in LEDGER_ROWS)
        rows.update(
            {
                "ledger.wall_s": traced,
                "trace.overhead_frac": traced / untraced - 1.0,
                "obs.overhead_frac": untraced / obs_off - 1.0,
                "runner.cache.hits": 0,
                "runner.cache.misses": len(samples.hashes),
                "runner.overhead_s_per_point": untraced - outcome.wall_s,
            }
        )
        return {"samples": samples, "rows": rows, "counts": counts}


# ------------------------------------------------------------------ sweep


def sweep_campaign_data(seed: int) -> Dict[str, Any]:
    """The ``sweep-cheap`` campaign: cheap analog points drawn from ``seed``.

    Axis values are sampled without replacement from fixed grids, so every
    seed yields the same number of points and a comparable amount of work.
    """
    rng = random.Random(seed)

    def pick(low: int, high: int, count: int, scale: float) -> List[float]:
        return sorted(value / scale for value in rng.sample(range(low, high), count))

    return {
        "schema": 1,
        "campaign": "perfbench-sweep-cheap",
        "seeds": [seed, seed + 1],
        "experiments": [
            {"experiment": "fig9"},
            {"experiment": "fig10"},
            {"experiment": "table1"},
            {"experiment": "fig11", "axes": {"occupancy": pick(300, 951, 80, 1000)}},
            {"experiment": "fig12", "axes": {"occupancy": pick(300, 951, 80, 1000)}},
            {"experiment": "fig13", "axes": {
                "distance_feet": pick(10, 200, 10, 10),
                "occupancy": pick(300, 951, 8, 1000),
            }},
            {"experiment": "sec8a", "axes": {
                "distance_cm": pick(20, 150, 10, 10),
                "duration_hours": pick(5, 40, 8, 10),
            }},
            {"experiment": "fig15", "axes": {"duration_s": [3600.0, 7200.0]}},
            {"experiment": "fig7", "axes": {"duration_s": pick(2, 5, 2, 10)}},
        ],
    }


def campaign_digest(outcomes) -> str:
    """One hash over every point's identity and result hash, in order."""
    payload = json.dumps(
        [[o.point.point_id, o.status, o.result_sha256] for o in outcomes]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _journal_types(path: Path) -> Dict[str, int]:
    types: Dict[str, int] = defaultdict(int)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            types[json.loads(line)["type"]] += 1
    return types


class SweepWorkload:
    """A cold then warm ``run_campaign`` over many cheap points."""

    def __init__(self, seed: int, tmp: Path) -> None:
        from repro.campaign.spec import parse_campaign_spec
        from repro.runner.cache import code_fingerprint

        self.seed = seed
        self.tmp = tmp
        self.spec = parse_campaign_spec(sweep_campaign_data(seed), path="sweep-cheap")
        self.points = len(self.spec.expand(code_fingerprint()))
        self._cycles = 0

    def _campaign(self, workdir: Path, phase: str, ledger: Optional[Ledger]):
        from repro.campaign.manager import run_campaign, write_manifest

        def run():
            result = run_campaign(
                self.spec, jobs=SWEEP_JOBS, seed=self.seed,
                cache_dir=str(workdir / "cache"),
                journal_path=workdir / f"{phase}.jsonl",
            )
            if ledger is None:
                write_manifest(workdir / f"{phase}_manifest.json", result.manifest)
            else:
                ledger.timed("campaign.manifest_s", "campaign.write_manifest",
                             write_manifest, workdir / f"{phase}_manifest.json",
                             result.manifest)
            return result

        if ledger is None:
            return run()
        return ledger.timed("campaign.busy_s", "campaign.run", run)

    def _cycle(self, obs: bool, samples: Samples, ledger: Optional[Ledger] = None):
        """One cold campaign (fresh cache and journal), then warm reruns."""
        from repro.obs import runtime as obs_runtime

        self._cycles += 1
        workdir = self.tmp / f"cycle-{self._cycles}"
        obs_runtime.configure(enabled=obs)
        started = perf_counter()
        cold = self._campaign(workdir, "cold", ledger)
        cold_s = perf_counter() - started
        spans = len(obs_runtime.get_spans())
        reap_children()
        timed_s = cold_s
        warm_s = []
        for index in range(WARM_PASSES):
            warm_started = perf_counter()
            warm = self._campaign(workdir, f"warm-{index}", ledger)
            warm_s.append(perf_counter() - warm_started)
            checked = perf_counter()
            self._check(cold, warm, samples, first=index == 0)
            check_s = perf_counter() - checked
            if ledger is not None:
                ledger.self_s["bench.check_s"] += check_s
            timed_s += warm_s[-1] + check_s
        counts = {
            "campaign.points": len(cold.outcomes),
            "runner.cache.misses": cold.executed,
            "runner.cache.hits": sum(1 for o in warm.outcomes if o.cached),
        }
        for phase, journal in (("cold", "cold"), ("warm", "warm-0")):
            types = _journal_types(workdir / f"{journal}.jsonl")
            types.pop("point.heartbeat", None)  # wall-clock cadence, not work
            counts[f"campaign.journal.appends.{phase}"] = sum(types.values())
            counts[f"campaign.leases.{phase}"] = types.get("point.lease", 0)
            counts[f"campaign.retries.{phase}"] = types.get("point.retry", 0)
        shutil.rmtree(workdir, ignore_errors=True)
        task_s = sum(o.wall_s for o in cold.outcomes if not o.cached)
        return {
            "cold_s": cold_s, "warm_s": warm_s, "timed_s": timed_s,
            "counts": counts, "spans": spans,
            "overhead_s": (cold_s - task_s / SWEEP_JOBS) / max(cold.executed, 1),
        }

    def _check(self, cold, warm, samples: Samples, first: bool) -> None:
        """Every point ok, warm replays equal to cold results, digest stable."""
        cold_digest = campaign_digest(cold.outcomes)
        for outcome in (list(cold.outcomes) if first else []) + list(warm.outcomes):
            samples.attempted += 1
            if not outcome.ok:
                samples.fail(f"{outcome.point.label}: {outcome.error}")
        if len(cold.outcomes) != self.points or cold.interrupted:
            samples.problems.append(f"cold campaign finished {len(cold.outcomes)}/{self.points} points")
        if campaign_digest(warm.outcomes) != cold_digest:
            samples.fail("warm replay hashes differ from the cold campaign")
        if not all(o.cached for o in warm.outcomes):
            samples.fail("warm campaign re-executed points")
        if first:
            if samples.hashes and cold_digest != samples.hashes[0]:
                samples.fail(f"campaign digest {cold_digest[:16]} != {samples.hashes[0][:16]}")
            samples.hashes.append(cold_digest)

    def measure(self, seconds: float) -> Samples:
        samples = Samples()
        started = perf_counter()
        while True:
            cycle = self._cycle(True, samples)
            samples.check_counts(cycle["counts"], "campaign cycle")
            samples.cold_s.append(cycle["cold_s"])
            samples.wall_s.append(cycle["cold_s"] + cycle["warm_s"][0])
            samples.cold_points += self.points
            samples.warm_points += self.points * len(cycle["warm_s"])
            samples.warm_time_s += sum(cycle["warm_s"])
            elapsed = perf_counter() - started
            if len(samples.wall_s) >= 2 and elapsed + statistics.median(samples.wall_s) > seconds:
                return samples

    def trace(self, ledger: Ledger) -> Dict[str, Any]:
        samples = Samples()
        untraced = self._cycle(True, samples)
        samples.check_counts(untraced["counts"], "untraced cycle")
        ledger.child_dir = self.tmp / "ledger"
        ledger.child_dir.mkdir(parents=True)
        ledger.install()
        try:
            ledger.reset()
            traced = self._cycle(True, samples, ledger)
            rows = ledger.apportion_pool(ledger.take_rows({}))
        finally:
            ledger.uninstall()
            reap_children()
        counts = dict(traced["counts"], **{"harvester.calls": int(rows["harvester.calls"])})
        samples.check_counts(traced["counts"], "traced cycle")
        obs_off = self._cycle(False, samples)
        wall = traced["timed_s"]
        rows["ledger.unattributed_s"] = wall - sum(rows.get(r, 0.0) for r in LEDGER_ROWS)
        rows.update(
            {
                "ledger.wall_s": wall,
                "trace.overhead_frac": wall / untraced["timed_s"] - 1.0,
                "obs.overhead_frac": untraced["timed_s"] / obs_off["timed_s"] - 1.0,
                "obs.spans": untraced["spans"],
                "runner.overhead_s_per_point": untraced["overhead_s"],
            }
        )
        for key, value in untraced["counts"].items():
            rows.setdefault(key, value)
        return {"samples": samples, "rows": rows, "counts": counts}


WORKLOADS = {
    "udp-powifi": lambda seed, tmp: DesWorkload("fig6a", "fig6a_sweep", "powifi", seed, tmp),
    "plt-baseline": lambda seed, tmp: DesWorkload("fig6c", "fig6c_sweep", "baseline", seed, tmp),
    "sweep-cheap": SweepWorkload,
}
