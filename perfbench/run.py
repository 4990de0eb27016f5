#!/usr/bin/env python3
"""The repository benchmark: ``python3 perfbench/run.py --workload <name>``.

Run from the root of a checkout; it imports ``repro`` from ``src/`` there.

    python3 perfbench/run.py --workload udp-powifi --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the traced run that gives the per-layer ledger, the deterministic
counts and the per-operation microbenchmarks. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``). The exit status is 1 when any
output check fails and 2 when the program cannot be found. See
``perfbench/README.md`` for the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "warm_points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {src}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("udp-powifi", "plt-baseline", "sweep-cheap"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the workload, print the clock and exit")
    return parser.parse_args(argv)


def _setup_probe(workload: str, seed: int) -> None:
    """Everything before the first timed operation: imports, target
    resolution, spec load and ``code_fingerprint``."""
    from perfbench.workloads import WORKLOADS
    from repro.experiments.registry import resolve_target
    from repro.runner.cache import code_fingerprint

    bench = WORKLOADS[workload](seed, ROOT / ".perfbench_tmp" / f"probe-{os.getpid()}")
    fingerprint = code_fingerprint()
    if workload == "sweep-cheap":
        targets = {point.target for point in bench.spec.expand(fingerprint)}
    else:
        targets = {bench.spec.target}
    for target in sorted(targets):
        resolve_target(target)
    print(repr(perf_counter()))


def _measure_setup(workload: str, seed: int) -> float:
    """Median seconds from spawning a fresh interpreter to its first timed
    operation (CLOCK_MONOTONIC is shared across processes)."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]) - started)
    return statistics.median(samples)


def _peak_rss_mb(workload: str) -> float:
    """Peak RSS of this process; on the pool workload plus the largest
    worker's (``ru_maxrss`` is in KiB on Linux)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "sweep-cheap":
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _check_pins(workload: str, seed: int, samples) -> None:
    """Compare the run's result hash and counts with the pinned seed's."""
    with open(PINS_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle).get(workload, {}).get(str(seed))
    if pinned is None or not samples.hashes:
        return
    if samples.hashes[0] != pinned["result_sha256"]:
        samples.fail(f"seed {seed}: result_sha256 {samples.hashes[0][:16]} "
                     f"!= pinned {pinned['result_sha256'][:16]}")
    for counts in samples.counts:
        drift = sorted(k for k in pinned["counts"] if k in counts and counts[k] != pinned["counts"][k])
        if drift:
            samples.problems.append(f"determinism failure against pinned seed {seed}: {drift}")


PER_LAYER_UNITS = {
    "sim.events": "count", "sim.cancelled": "count", "sim.heap_peak": "count",
    "sim.run_s": "s", "sim.ns_per_event": "ns", "sim.unattributed_s": "s",
    "mac80211.dcf_rounds": "count", "mac80211.tx_done": "count",
    "mac80211.collision_ratio": "fraction", "mac80211.busy_s": "s",
    "mac80211.us_per_round": "us",
    "core.injector.ticks": "count", "core.injector.dispatches": "count",
    "core.injector.elided_ratio": "fraction", "core.ip_power.admit_ratio": "fraction",
    "core.busy_s": "s",
    "netstack.txqueue.enqueued": "count", "netstack.txqueue.tail_dropped": "count",
    "netstack.tcp.rto_fires": "count", "netstack.busy_s": "s",
    "workloads.bg_frames": "count", "workloads.busy_s": "s",
    "experiments.testbeds": "count", "experiments.build_testbed_s": "s",
    "experiments.outside_run_s": "s", "experiments.busy_s": "s",
    "harvester.calls": "count", "harvester.busy_s": "s", "sensors.busy_s": "s",
    "obs.overhead_frac": "fraction", "obs.spans": "count", "obs.slo_eval_s": "s",
    "runner.cache.hits": "count", "runner.cache.misses": "count",
    "runner.cache_get_s": "s", "runner.cache_put_s": "s", "runner.fingerprint_s": "s",
    "runner.overhead_s_per_point": "s", "runner.busy_s": "s",
    "runner.pool_startup_s": "s", "runner.pickle_s": "s",
    "runner.pool_parallelism": "workers",
    "campaign.journal.appends": "count", "campaign.journal_s": "s",
    "campaign.fold_s": "s", "campaign.leases": "count", "campaign.retries": "count",
    "campaign.busy_s": "s", "campaign.manifest_s": "s",
    "bench.check_s": "s", "ledger.unattributed_s": "s", "ledger.wall_s": "s",
    "trace.overhead_frac": "fraction",
    "micro.sim_schedule_dispatch_ns": "ns", "micro.sim_periodic_rearm_ns": "ns",
    "micro.txqueue_push_ns": "ns", "micro.txqueue_pop_ns": "ns",
    "micro.ip_power_admit_ns": "ns", "micro.counter_inc_ns": "ns",
    "micro.histogram_observe_ns": "ns", "micro.span_begin_end_ns": "ns",
    "micro.harvester_operating_point_ns": "ns",
}


def _per_layer(traced: Dict[str, Any], micro: Dict[str, float]) -> Dict[str, float]:
    values: Dict[str, float] = defaultdict(float)
    values.update(traced["counts"])
    values.update(traced["rows"])
    values.update(micro)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    values["sim.ns_per_event"] = ratio(values["sim.run_s"], values["sim.events"], 1e9)
    values["mac80211.collision_ratio"] = ratio(values["mac80211.collisions"],
                                               values["mac80211.dcf_rounds"])
    values["mac80211.us_per_round"] = ratio(values["mac80211.busy_s"],
                                            values["mac80211.dcf_rounds"], 1e6)
    values["core.injector.elided_ratio"] = (
        1.0 - ratio(values["core.injector.dispatches"], values["core.injector.ticks"])
        if values["core.injector.ticks"] else 0.0
    )
    values["core.ip_power.admit_ratio"] = ratio(values["core.ip_power.admitted"],
                                                values["core.ip_power.considered"])
    for name in ("journal.appends", "leases", "retries"):
        values[f"campaign.{name}"] = sum(
            values[f"campaign.{name}.{phase}"] for phase in ("cold", "warm")
        )
    return {name: values[name] for name in PER_LAYER_UNITS}


def _print_ledger(rows: Dict[str, float]) -> None:
    from perfbench.ledger import LEDGER_ROWS

    wall = rows["ledger.wall_s"]
    print(f"traced wall {wall:.4f} s; per-layer self time and remainder rows:")
    for row in LEDGER_ROWS:
        print(f"  {row:<24} {rows.get(row, 0.0):10.4f} s  {rows.get(row, 0.0) / wall:7.2%}")
    total = sum(rows.get(row, 0.0) for row in LEDGER_ROWS)
    print(f"  {'sum':<24} {total:10.4f} s  {total / wall:7.2%}")


def run(args: argparse.Namespace) -> int:
    from perfbench.ledger import Ledger
    from perfbench.micro import run_micro
    from perfbench.workloads import WORKLOADS, reap_children

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        bench = WORKLOADS[args.workload](args.seed, tmp)
        if args.trace:
            traced = bench.trace(Ledger())
            samples = traced["samples"]
            metrics = _per_layer(traced, run_micro())
            _print_ledger(traced["rows"])
            units = PER_LAYER_UNITS
        else:
            samples = bench.measure(args.seconds)
            metrics = {
                "wall_s": statistics.median(samples.wall_s),
                "points_per_s": samples.cold_points / sum(samples.cold_s),
                "warm_points_per_s": samples.warm_points / samples.warm_time_s,
                "peak_rss_mb": _peak_rss_mb(args.workload),
            }
            units = END_TO_END_UNITS
    finally:
        reap_children()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    _check_pins(args.workload, args.seed, samples)
    if not args.trace:
        metrics["setup_s"] = _measure_setup(args.workload, args.seed)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "result_sha256": samples.hashes[0] if samples.hashes else None,
        "counts": samples.counts[0] if samples.counts else {},
        "samples": {"wall_s": samples.wall_s, "cold_s": samples.cold_s},
        "problems": samples.problems,
    }, sort_keys=True))
    correct = not samples.problems and samples.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    _import_program()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
