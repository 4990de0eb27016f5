"""Command-line interface: run any paper experiment from the shell.

Usage::

    python -m repro list                 # experiment ids and subcommands
    python -m repro --help               # the same roster, from argparse
    python -m repro fig5                 # run one experiment, print its verdict
    python -m repro fig14 --seed 3
    python -m repro run-all --jobs 4     # every paper artifact, in parallel
    python -m repro run-all --ids fig5,fig14 --no-cache
    python -m repro run-all --retries 2 --task-timeout 60 \
        --fault-plan worker.crash:1,worker.hang:1@20   # chaos drill
    python -m repro run-all --slo-spec slos/fig7.json --ids fig7
    python -m repro campaign run --spec campaigns/demo.json --jobs 2
    python -m repro campaign status --spec campaigns/demo.json
    python -m repro campaign results --format csv
    python -m repro watch                # render run_journal.jsonl until done
    python -m repro watch --file campaign.jsonl   # the same for a campaign
    python -m repro watch --once --json  # one machine-readable snapshot
    python -m repro slo --input run_manifest.json --strict   # SLO gate
    python -m repro slo --spec slos/violation_demo.json
    python -m repro dash --input run_manifest.json --out dash.html
    python -m repro quickstart --duration 2.0
    python -m repro report --input run_manifest.json   # manifest as markdown
    python -m repro metrics fig07        # run + export metrics JSONL
    python -m repro metrics --input metrics_fig7.jsonl --top 10 --sort wall
    python -m repro profile fig07 --flame flame.txt   # per-kind attribution
    python -m repro trace fig07 --kinds mac.tx,core.gate_drop
    python -m repro spans fig05          # run + span JSONL + flame-style tree
    python -m repro spans --input run_spans.jsonl
    python -m repro compare old_manifest.json run_manifest.json
    python -m repro fig5 --no-obs        # instrumentation off
    python -m repro lint src/repro       # determinism/unit static analysis

Every subcommand comes from one argparse tree (:func:`build_parser`);
flags that several subcommands take are defined once in :data:`_FLAGS`.
Reports mirror the benchmark outputs; heavy experiments accept reduced
scales through the driver defaults. Experiment ids tolerate zero padding
(``fig07`` == ``fig7``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, InjectedFault, ObservabilityError
from repro.experiments.registry import EXPERIMENTS, get_spec, normalize_experiment_id
from repro.obs import runtime as obs_runtime


def _run_driver(experiment: str, seed: int):
    """Run one registered experiment driver, with the seed when accepted.

    Seed routing consults the registry spec instead of catching
    ``TypeError`` (which would also have swallowed genuine signature bugs
    inside a driver).
    """
    spec = get_spec(experiment)
    driver = spec.resolve()
    if spec.accepts_seed():
        return driver(seed=seed)
    return driver()


def _report_fig5(result) -> List[str]:
    lines = ["threshold  " + "  ".join(f"{d:>6.0f}us" for d, _ in next(iter(result.curves.values())))]
    for threshold, curve in sorted(result.curves.items()):
        lines.append(
            f"{threshold:>9}  " + "  ".join(f"{100 * occ:>7.1f}%" for _, occ in curve)
        )
    return lines


def _report_fig14(study) -> List[str]:
    lines = []
    for home in study.homes:
        lines.append(
            f"home {home.profile.index} ({home.profile.neighboring_aps:>2} APs): "
            f"mean cumulative {100 * home.mean_cumulative:6.1f} %"
        )
    low, high = study.mean_cumulative_range
    lines.append(f"range {100 * low:.0f}-{100 * high:.0f} %  (paper: 78-127 %)")
    return lines


def _report_fig15(result) -> List[str]:
    return [
        f"home {index}: median {result.median(index):5.2f} reads/s"
        for index in sorted(result.samples_by_home)
    ]


def _report_table1(result) -> List[str]:
    return [result.as_text(), f"matches paper: {result.matches_paper}"]


def _report_fig8(result) -> List[str]:
    lines = []
    for scheme, curve in result.throughput.items():
        rendered = "  ".join(f"{r:g}:{v:.1f}" for r, v in sorted(curve.items()))
        lines.append(f"{scheme.value:<12} {rendered}")
    return lines


#: The experiments whose output adds a table to their verdict line; every
#: other experiment's numbers are in its shape check's detail.
_REPORTERS: Dict[str, Callable[[Any], List[str]]] = {
    "fig5": _report_fig5,
    "fig8": _report_fig8,
    "fig14": _report_fig14,
    "fig15": _report_fig15,
    "table1": _report_table1,
}


def _experiment_id(experiment: str) -> str:
    """The registry key of an experiment argument (its argparse ``type``)."""
    key = normalize_experiment_id(experiment)
    if key not in EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {experiment!r}; try 'list'"
        )
    return key


def _cmd_list(args: argparse.Namespace) -> int:
    """``repro list``: the roster of the command tree, experiments first."""
    experiments: List[str] = []
    commands: List[str] = []
    for path, help_text, _ in walk_commands(build_parser()):
        roster = experiments if path in EXPERIMENTS else commands
        roster.append(f"  {path:<16} {help_text}")
    print("available experiments:")
    print("\n".join(experiments))
    print("commands:")
    print("\n".join(commands))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: render a run manifest as markdown."""
    from repro.experiments.report import render_report
    from repro.obs.ioutil import read_json

    print(render_report(read_json(args.input), source=args.input), end="")
    return 0


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro import quickstart_powifi

    result = quickstart_powifi(duration_s=args.duration, seed=args.seed)
    for channel, occupancy in sorted(result.occupancy_by_channel.items()):
        print(f"channel {channel:>2}: {100 * occupancy:5.1f} %")
    print(f"cumulative: {100 * result.cumulative_occupancy:5.1f} %")
    print(f"power frames: {result.power_frames_sent}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """``repro <experiment>``: run one driver, print its table and verdict."""
    from repro.experiments.shapecheck import verdict

    result = _run_driver(args.command, args.seed)
    print(f"== {args.command} ==")
    for line in _REPORTERS.get(args.command, lambda _: [])(result):
        print(line)
    ok, detail = verdict(args.command, result)
    print(f"shape {'ok' if ok else 'FAILED'}: {detail}")
    return 0


def _fault_plan(args: argparse.Namespace):
    """Parse ``--fault-plan`` (None without one), reset the fault runtime and
    arm a process-scoped ``manifest.interrupt``."""
    if args.fault_plan is None:
        return None
    from repro.faults import parse_fault_plan
    from repro.faults import runtime as faults_runtime

    plan = parse_fault_plan(
        args.fault_plan,
        seed=args.seed if args.fault_seed is None else args.fault_seed,
    )
    faults_runtime.reset()
    if plan.wants("manifest.interrupt"):
        faults_runtime.arm("manifest.interrupt")
    print(f"fault plan: {plan.describe()} (seed={plan.seed})")
    return plan


def _write_manifest(write: Callable[[], Any]) -> Any:
    """Call ``write``; when ``manifest.interrupt`` fires in it, say so and retry.

    The write is atomic, so the previous manifest survived the fault.
    """
    try:
        return write()
    except InjectedFault as exc:
        print(f"manifest write interrupted ({exc}); retrying", file=sys.stderr)
        return write()


def _cmd_run_all(args: argparse.Namespace) -> int:
    """``repro run-all``: regenerate every paper artifact, parallel + cached.

    The full workflow (cache semantics, ``--jobs`` guidance, manifest
    layout) is documented in ``docs/running.md``.
    """
    from repro.campaign.journal import RUN_JOURNAL_FILENAME, CampaignJournal
    from repro.obs.history import (
        HISTORY_FILENAME,
        append_history,
        build_history_record,
        expected_walls,
        write_bench_snapshot,
    )
    from repro.runner import ResultCache, run_all, write_manifest

    obs_runtime.configure(enabled=not args.no_obs)

    fault_plan = _fault_plan(args)

    # SLO specs: None lets run_all load the registry defaults; an explicit
    # --slo-spec list replaces them and must parse (a spec the operator
    # named is configuration, so its failure is an error, unlike absent
    # defaults); --no-slo disables evaluation. Either way the specs never
    # change results or the exit status — 'repro slo' is the gate.
    slo_specs = None
    if args.no_slo:
        slo_specs = []
    elif args.slo_spec:
        from repro.obs.slo import load_spec

        slo_specs = [load_spec(spec_path) for spec_path in args.slo_spec]

    ids = None
    if args.ids is not None:
        ids = [token for token in args.ids.split(",") if token.strip()]
    if args.clear_cache:
        removed = ResultCache(args.cache_dir).clear()
        print(f"cleared {removed} cache entries from {args.cache_dir}")

    # The progress journal 'repro watch' renders, started empty each run:
    # the cache already makes a rerun execute only what is missing.
    report_dir = os.path.dirname(os.path.abspath(args.report))
    journal_path = os.path.join(report_dir, RUN_JOURNAL_FILENAME)
    if os.path.exists(journal_path):
        os.unlink(journal_path)
    walls = expected_walls(os.path.join(args.history_dir, HISTORY_FILENAME))
    with CampaignJournal(journal_path, header={"expected_walls": walls}) as journal:
        result = run_all(
            ids=ids,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            seed=args.seed,
            progress=print,
            retries=args.retries,
            task_timeout_s=args.task_timeout,
            fault_plan=fault_plan,
            journal=journal,
            slo_specs=slo_specs,
        )
    manifest = _write_manifest(lambda: write_manifest(result, args.report))
    if result.interrupted:
        print("run interrupted; manifest records partial results", file=sys.stderr)
    totals = manifest["totals"]
    print(
        f"== run-all == {totals['ok']}/{totals['experiments']} ok, "
        f"{totals['cache_hits']} from cache, wall {totals['wall_s']:.2f}s "
        f"(jobs={result.jobs})"
    )
    print(f"manifest: {args.report}")
    slo_counts = manifest["slo"]["counts"]
    if any(slo_counts.values()):
        print(
            f"slo: {slo_counts['ok']} ok, {slo_counts['violated']} violated, "
            f"{slo_counts['skipped']} skipped "
            f"(advisory here; gate with 'repro slo --input {args.report}')"
        )
    if result.spans_dropped:
        print(
            f"dropped telemetry: {result.spans_dropped} span(s) "
            "(see manifest totals)"
        )
    print(f"journal: {journal_path}")

    # Sidecar telemetry next to the manifest: the span tree and the
    # parent-process metrics snapshot.
    spans_path = os.path.join(report_dir, "run_spans.jsonl")
    metrics_path = os.path.join(report_dir, "run_metrics.jsonl")
    if not args.no_obs:
        with open(spans_path, "w", encoding="utf-8") as handle:
            for record in result.spans:
                handle.write(json.dumps(record) + "\n")
        obs_runtime.get_registry().to_jsonl(metrics_path)
        print(f"spans: {spans_path} ({len(result.spans)} records)")
        print(f"metrics: {metrics_path}")

    if not args.no_history:
        record = build_history_record(manifest)
        history_path = append_history(record, args.history_dir)
        bench_path = write_bench_snapshot(record, args.history_dir)
        print(f"history: {history_path} (+1 record), {bench_path}")
    return 0 if result.ok else 1


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    """``repro campaign run``: execute (or resume) one campaign spec.

    Spec schema, journal format and resume/quarantine semantics are
    documented in ``docs/campaigns.md``.
    """
    from repro.campaign import load_campaign_spec, run_campaign
    from repro.campaign.manager import write_manifest as write_campaign_manifest

    if args.resume and args.fresh:
        print("campaign run: --resume and --fresh conflict", file=sys.stderr)
        return 2

    spec = load_campaign_spec(args.spec)
    fault_plan = _fault_plan(args)
    report_dir = os.path.dirname(os.path.abspath(args.report))
    journal_path = args.journal or os.path.join(report_dir, "campaign.jsonl")

    result = run_campaign(
        spec,
        jobs=args.jobs,
        seed=args.seed,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        retries=args.retries,
        task_timeout_s=args.task_timeout,
        heartbeat_s=args.heartbeat,
        fault_plan=fault_plan,
        journal_path=journal_path,
        resume=not args.fresh,
        progress=print,
    )

    if result.interrupted:
        print(
            "campaign interrupted; journal preserved — rerun with --resume "
            f"to continue ({journal_path})",
            file=sys.stderr,
        )
        return 130

    _write_manifest(lambda: write_campaign_manifest(args.report, result.manifest))
    totals = result.manifest["totals"]
    cached = sum(1 for o in result.outcomes if o.cached)
    print(
        f"== campaign {spec.name} == {totals['ok']}/{totals['points']} ok, "
        f"{totals['quarantined']} quarantined, {cached} from cache, "
        f"wall {result.wall_s:.2f}s (generation {result.generations})"
    )
    for outcome in result.quarantined:
        print(
            f"quarantined: {outcome.point.label} "
            f"({outcome.error or 'no further detail'})"
        )
    print(f"manifest: {args.report}")
    print(f"journal: {journal_path}")
    # Quarantined points degrade the campaign, they do not fail it: the
    # sweep completed and reported them, which is the contract.
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    """``repro campaign status``: fold the journal into a progress report."""
    from repro.campaign import fold_journal, load_campaign_spec

    state = fold_journal(args.journal)
    status: dict = {
        "journal": args.journal,
        "exists": state.exists,
        "corrupt": state.corrupt,
        "torn_tail": state.torn_tail,
        "generations": state.generations,
        "records": state.records,
        "dropped": state.dropped,
        "last_seq": state.last_seq,
        "done": len(state.done),
        "quarantined": len(state.quarantined),
        "in_flight": len(state.leases),
        "finished": state.finished is not None,
        "interrupted": state.interrupted is not None,
    }
    if state.campaign is not None:
        status["campaign"] = state.campaign.get("campaign")
        status["seed"] = state.campaign.get("seed")
    if args.spec:
        from repro.runner.cache import code_fingerprint

        points = load_campaign_spec(args.spec).expand(code_fingerprint())
        terminal = state.terminal_keys()
        status["points"] = len(points)
        status["pending"] = sum(1 for point in points if point.key not in terminal)
    if args.json:
        print(json.dumps(status, sort_keys=True))
        return 0
    if not state.exists:
        print(f"campaign status: no journal at {args.journal}")
        return 1
    name = status.get("campaign", "?")
    print(
        f"== campaign {name} == generation {state.generations}, "
        f"{len(state.done)} done, {len(state.quarantined)} quarantined, "
        f"{len(state.leases)} in flight"
        + (f", {status['pending']}/{status['points']} pending" if "pending" in status else "")
    )
    print(
        f"journal: {state.records} record(s), last seq {state.last_seq}, "
        f"{state.dropped} dropped"
        + (", torn tail tolerated" if state.torn_tail else "")
        + (", CORRUPT (will be quarantined on next run)" if state.corrupt else "")
    )
    if state.finished is not None:
        done = state.finished
        print(
            f"finished: ok={done.get('ok', '?')} "
            f"quarantined={done.get('quarantined', '?')} "
            f"wall={done.get('wall_s', '?')}s"
        )
    elif state.interrupted is not None:
        print("interrupted: a signal stopped this generation; rerun to resume")
    return 0


def _cmd_campaign_results(args: argparse.Namespace) -> int:
    """``repro campaign results``: flatten a campaign manifest into rows."""
    from repro.campaign import point_rows, render_rows, rows_to_csv
    from repro.campaign.results import load_campaign_manifest

    rows = point_rows(load_campaign_manifest(args.input), experiment=args.experiment)
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    elif args.format == "csv":
        sys.stdout.write(rows_to_csv(rows))
    else:
        print(render_rows(rows))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics``: run + export metrics, or triage an existing export.

    Two modes: ``metrics <experiment>`` runs the driver and writes the
    metrics JSONL; ``metrics --input metrics_fig7.jsonl`` re-reads a
    previous export's engine records — quick triage without re-running
    anything. Both print the hottest event kinds as the profiler's table;
    an input with no attribution data (a run-all's ``run_metrics.jsonl``
    has no engine record) exits 2.
    """
    from repro.obs.profile import (
        render_attribution,
        rows_from_engine,
        rows_from_metrics_jsonl,
    )

    if args.input is not None:
        rows = rows_from_metrics_jsonl(args.input)
        if not rows:
            print(
                f"metrics: no attribution data in {args.input} (no engine "
                "record; for a run-all, use 'profile --input run_manifest.json')",
                file=sys.stderr,
            )
            return 2
        print(f"== metrics triage: {args.input} ==")
    else:
        key = args.experiment
        _run_driver(key, args.seed)
        output = args.output or f"metrics_{key}.jsonl"
        engine = obs_runtime.aggregate_engine_stats()
        with open(output, "w", encoding="utf-8") as handle:
            count = obs_runtime.get_registry().to_jsonl(handle)
            handle.write(json.dumps(engine) + "\n")
        print(f"== {key} metrics ==")
        print(f"wrote {count + 1} records to {output}")
        print(
            f"simulators {engine['simulators']}, dispatched {engine['dispatched']}, "
            f"cancelled {engine['cancelled']}, "
            f"heap high-water {engine['heap_high_watermark']}"
        )
        rows = rows_from_engine(engine)
    print(render_attribution(rows, sort=args.sort, top=args.top))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: per-kind attribution table + collapsed stacks.

    Either runs one experiment under the ambient profiler or re-reads a v4+
    ``run_manifest.json`` (``--input``) whose parts carry ``engine.profile``
    sections. See ``docs/observability.md`` for the table and the
    collapsed-stack (flamegraph.pl / speedscope) format.
    """
    import time as _time

    from repro.obs.ioutil import read_json
    from repro.obs.profile import (
        aggregate_rows,
        render_attribution,
        rows_from_engine,
        rows_from_manifest,
        write_flame,
    )

    if args.input is not None:
        manifest = read_json(args.input)
        rows = rows_from_manifest(manifest)
        total_wall = float(manifest.get("totals", {}).get("wall_s", 0.0)) or None
        title = args.input
    else:
        key = args.experiment
        obs_runtime.configure(enabled=True)
        started = _time.perf_counter()
        _run_driver(key, args.seed)
        total_wall = _time.perf_counter() - started
        rows = rows_from_engine(
            obs_runtime.aggregate_engine_stats(), experiment=key, part="all"
        )
        title = key

    if not rows:
        print(
            f"profile: no attribution data in {title} "
            "(cache-only, --no-obs, or pre-v4 manifest)",
            file=sys.stderr,
        )
        return 2
    by_part = aggregate_rows(rows, by_part=True)
    if args.json:
        print(json.dumps([row.to_record() for row in by_part], indent=2, sort_keys=True))
    else:
        print(f"== profile: {title} ==")
        print(
            render_attribution(
                aggregate_rows(rows),
                total_wall_s=total_wall,
                sort=args.sort,
                top=args.top,
            )
        )
    if args.flame is not None:
        count = write_flame(by_part, args.flame)
        print(f"flame: wrote {count} stacks to {args.flame}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """``repro watch``: re-fold and render a journal until the run ends."""
    import time as _time

    from repro.campaign.journal import RUN_JOURNAL_FILENAME, fold_journal
    from repro.campaign.watch import render_board, snapshot

    if args.json and not args.once:
        print("watch: --json requires --once", file=sys.stderr)
        return 2
    path = args.file or os.path.join(args.dir, RUN_JOURNAL_FILENAME)
    if args.once and not os.path.exists(path):
        print(f"watch: no journal at {path}", file=sys.stderr)
        return 2

    waiting_note = False
    while True:
        state = fold_journal(path)
        if not state.exists:
            if not waiting_note:
                print(f"watch: waiting for {path} ...")
                waiting_note = True
            _time.sleep(max(0.05, args.interval))
            continue
        if args.json:
            print(json.dumps(snapshot(state), sort_keys=True))
        else:
            print(render_board(state))
        if args.once or state.finished or state.interrupted:
            return 0
        _time.sleep(max(0.05, args.interval))


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace <experiment> --kinds ...``: export the event trace."""
    key = args.experiment
    kinds = (
        None
        if args.kinds == "all"
        else tuple(k for k in args.kinds.split(",") if k)
    )
    obs_runtime.configure(enabled=True, trace_kinds=kinds)
    _run_driver(key, args.seed)

    trace = obs_runtime.get_trace()
    output = args.output or f"trace_{key}.jsonl"
    count = trace.to_jsonl(output)
    print(f"== {key} trace ==")
    print(f"wrote {count} records to {output}")
    for kind in sorted(trace.kinds()):
        print(f"  {kind:<24} {len(trace.filter(kind=kind)):>9}")
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    """``repro spans``: run an experiment (or load a JSONL export) and
    render the span tree; see ``docs/observability.md`` for the schema."""
    from repro.obs.ioutil import read_jsonl
    from repro.obs.metrics import Histogram
    from repro.obs.spans import render_span_tree

    if args.input is not None:
        records = read_jsonl(args.input, "span")
    else:
        key = args.experiment
        obs_runtime.configure(enabled=True)
        with obs_runtime.span("cli.spans.run", experiment=key, seed=args.seed):
            _run_driver(key, args.seed)
        recorder = obs_runtime.get_spans()
        output = args.output or f"spans_{key}.jsonl"
        count = recorder.to_jsonl(output)
        records = recorder.to_records()
        print(f"== {key} spans ==")
        print(f"wrote {count} records to {output}")
        if recorder.dropped:
            print(f"note: {recorder.dropped} spans beyond the retention cap")

    print(render_span_tree(records, max_depth=args.max_depth))
    walls = Histogram("cli.spans.wall_s", ())
    for record in records:
        if record.get("wall_s") is not None:
            walls.observe(record["wall_s"])
    if walls.count:
        print(
            f"{walls.count} closed spans: p50 {walls.percentile(50.0):.4f}s, "
            f"p95 {walls.percentile(95.0):.4f}s, max {walls.max:.4f}s"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare a b``: diff two manifests/history records.

    Exit codes: 0 clean, 1 regression or determinism drift, 2 bad input —
    designed to gate CI (see ``docs/observability.md``).
    """
    from repro.obs.compare import compare_runs, load_run, render_compare

    report = compare_runs(
        load_run(args.base),
        load_run(args.new),
        wall_threshold=args.threshold,
        min_wall_s=args.min_wall,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_compare(report))
    return 1 if report["regressed"] else 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """``repro slo``: evaluate SLO specs against a run manifest (the gate).

    Re-evaluates post-hoc from the manifest's per-experiment ``domain``
    metric streams (schema v5), so a spec can be tightened or swapped
    without re-running anything. Exit codes: 0 all objectives met, 1 any
    violated (or, under ``--strict``, skipped), 2 bad input — designed to
    gate CI (see ``docs/observability.md``).
    """
    from repro.obs import slo as slo_mod
    from repro.obs.ioutil import read_json

    manifest = read_json(args.input)
    experiment_ids = [
        entry.get("id", "") for entry in manifest.get("experiments", [])
    ]
    if args.spec:
        specs = [slo_mod.load_spec(path) for path in args.spec]
    else:
        specs = slo_mod.load_default_specs(experiment_ids)
    if not specs:
        print(
            f"slo: no specs to evaluate for {args.input} "
            "(no registry defaults; pass --spec)",
            file=sys.stderr,
        )
        return 2

    section = slo_mod.evaluate_manifest(manifest, specs)
    if args.json:
        print(json.dumps(section, indent=2, sort_keys=True))
    else:
        print(f"== slo: {args.input} ==")
        print(slo_mod.render_section(section))
    return slo_mod.exit_code(section, strict=args.strict)


def _cmd_dash(args: argparse.Namespace) -> int:
    """``repro dash``: render the static HTML observatory for one run."""
    from repro.obs.dash import write_dash

    out = write_dash(args.input, args.out, history_path=args.history)
    print(f"dash: wrote {out}")
    return 0


#: Subcommands that run one experiment or read its export (``--input``),
#: and those whose run needs observability on.
_SOURCE_COMMANDS = ("metrics", "profile", "spans")
_OBS_COMMANDS = ("profile", "spans", "trace")

#: File defaults that ``repro.runner``, ``repro.campaign`` and
#: ``repro.obs.dash`` also define (tests/test_cli_tree.py checks they
#: agree). Importing those packages to build the parser would add about
#: 0.1 s to every command.
_RUN_MANIFEST = "run_manifest.json"
_CAMPAIGN_MANIFEST = "campaign_manifest.json"
_CACHE_DIR = ".repro_cache"
_DASH_HTML = "dash.html"

#: Flags (and the experiment positional) that more than one subcommand
#: takes, each defined once. A subcommand that needs another default sets
#: it with ``set_defaults``; help strings read it back via ``%(default)s``.
_FLAGS: Dict[str, Dict[str, Any]] = {
    "experiment": dict(
        nargs="?", default=None, type=_experiment_id, help="experiment id (see 'list')"
    ),
    "--no-obs": dict(action="store_true", help="run with instrumentation off"),
    "--seed": dict(
        type=int,
        default=0,
        help="master random seed (default: 0); campaign run seeds only fault "
        "selection and retry backoff with it, point seeds come from the spec",
    ),
    "--json": dict(action="store_true", help="emit JSON instead of text"),
    "--input": dict(
        default=None,
        metavar="PATH",
        help="manifest or JSONL export to read (default: %(default)s); "
        "metrics, profile and spans read it instead of running an experiment",
    ),
    "--output": dict(
        default=None, help="JSONL path (default: <subcommand>_<id>.jsonl)"
    ),
    "--top": dict(
        type=int,
        default=None,
        help="hot event kinds to print (default: %(default)s; profile prints "
        "all when unset, metrics none at 0)",
    ),
    "--sort": dict(
        choices=("wall", "count"),
        default="wall",
        help="hot-kind ordering (default: wall)",
    ),
    "--spec": dict(
        default=None,
        metavar="PATH",
        help="campaign spec JSON (see docs/campaigns.md); status counts its "
        "not-yet-started points",
    ),
    "--journal": dict(
        default=None,
        metavar="PATH",
        help="journal path (default: campaign.jsonl, next to --report for "
        "campaign run)",
    ),
    # The run options of run-all and campaign run (_RUN_FLAGS).
    "--jobs": dict(
        type=int,
        default=None,
        help="worker processes (default: cpu count; 1 = in-process)",
    ),
    "--no-cache": dict(
        action="store_true", help="neither read nor write the result cache"
    ),
    "--cache-dir": dict(
        default=_CACHE_DIR, help="cache directory (default: %(default)s)"
    ),
    "--report": dict(
        default=None,
        metavar="PATH",
        help="manifest output path (default: %(default)s)",
    ),
    "--retries": dict(
        type=int,
        default=0,
        help="extra attempts per task after a crash/raise/timeout; a campaign "
        "point still failing is quarantined (default: %(default)s)",
    ),
    "--task-timeout": dict(
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog limit per task; an overdue pool worker is terminated "
        "and the task retried (default: no timeout; ignored at --jobs 1)",
    ),
    "--fault-plan": dict(
        default=None,
        metavar="SPEC",
        help="inject deterministic faults: a spec string like "
        "'worker.crash:1,worker.hang:1@20' or a .json plan file "
        "(see docs/robustness.md)",
    ),
    "--fault-seed": dict(
        type=int,
        default=None,
        help="seed for fault target selection (default: --seed)",
    ),
}

#: The run options ``run-all`` and ``campaign run`` share.
_RUN_FLAGS = (
    "--jobs",
    "--no-cache",
    "--cache-dir",
    "--report",
    "--retries",
    "--task-timeout",
    "--fault-plan",
    "--fault-seed",
)


def _add_flags(parser: Any, *names: str, **override: Any) -> None:
    """Add the shared ``names`` from :data:`_FLAGS` to ``parser``.

    ``override`` replaces parts of their definition for this subcommand
    (``required=True``, say).
    """
    for name in names:
        parser.add_argument(name, **{**_FLAGS[name], **override})


def walk_commands(
    parser: argparse.ArgumentParser,
) -> Iterator[Tuple[str, str, argparse.ArgumentParser]]:
    """``(path, help, parser)`` for every subcommand below ``parser``.

    Depth first in tree order; ``path`` is space-joined (``"campaign run"``).
    """
    for action in parser._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        for choice in action._choices_actions:
            sub = action.choices[choice.dest]
            yield choice.dest, choice.help, sub
            for path, help_text, nested in walk_commands(sub):
                yield f"{choice.dest} {path}", help_text, nested


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` command tree; every leaf sets ``func``."""
    from repro.lint import cli as lint_cli
    from repro.obs.compare import DEFAULT_MIN_WALL_S, DEFAULT_WALL_THRESHOLD
    from repro.obs.history import DEFAULT_HISTORY_DIR
    from repro.campaign.journal import RUN_JOURNAL_FILENAME

    parser = argparse.ArgumentParser(
        prog="repro",
        description="PoWiFi reproduction: run the paper's experiments.",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="<command>"
    )

    def command(
        subparsers: Any,
        name: str,
        help_text: str,
        func: Callable[[argparse.Namespace], int],
        *flags: str,
        description: Optional[str] = None,
    ) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(
            name, help=help_text, description=description or help_text
        )
        _add_flags(sub, "--no-obs", *flags)
        sub.set_defaults(func=func)
        return sub

    for key in sorted(EXPERIMENTS):
        command(commands, key, EXPERIMENTS[key], _cmd_experiment, "--seed")
    command(commands, "list", "show experiment ids and subcommands", _cmd_list)
    quickstart = command(
        commands, "quickstart", "built-in demo", _cmd_quickstart, "--seed"
    )
    quickstart.add_argument(
        "--duration", type=float, default=2.0, help="quickstart duration (s)"
    )
    report = command(
        commands, "report", "render a run manifest as markdown", _cmd_report,
        "--input",
        description="Render a run manifest as markdown: one row per "
        "experiment with the paper claim, the shape check's detail and its "
        "verdict, plus an engine footer.",
    )
    report.set_defaults(input=_RUN_MANIFEST)

    run_all = command(
        commands, "run-all",
        "every experiment, parallel + cached; see docs/running.md",
        _cmd_run_all, "--seed",
        description="Run all (or selected) experiments in parallel with "
        "content-addressed result caching.",
    )
    _add_flags(run_all.add_argument_group("run options"), *_RUN_FLAGS)
    run_all.set_defaults(report=_RUN_MANIFEST, retries=0)
    run_all.add_argument(
        "--ids", default=None, help="comma-separated experiment ids (default: all 17)"
    )
    run_all.add_argument(
        "--clear-cache",
        action="store_true",
        help="drop every cache entry before running",
    )
    run_all.add_argument(
        "--history-dir",
        default=DEFAULT_HISTORY_DIR,
        help=f"perf-history directory (default: {DEFAULT_HISTORY_DIR})",
    )
    run_all.add_argument(
        "--no-history",
        action="store_true",
        help="skip the perf_history.jsonl append and BENCH snapshot",
    )
    run_all.add_argument(
        "--slo-spec",
        action="append",
        default=None,
        metavar="PATH",
        help="SLO spec file to evaluate (repeatable; replaces the "
        "registry defaults — see docs/observability.md)",
    )
    run_all.add_argument(
        "--no-slo",
        action="store_true",
        help="skip SLO evaluation entirely (no registry defaults)",
    )

    campaign = commands.add_parser(
        "campaign",
        help="journaled parameter sweeps; see docs/campaigns.md",
        description="Run, inspect and tabulate journaled parameter sweeps "
        "(see docs/campaigns.md).",
    )
    verbs = campaign.add_subparsers(dest="verb", required=True)
    campaign_run = command(
        verbs, "run", "run (or resume) one campaign spec", _cmd_campaign_run,
        "--seed",
        description="Expand a campaign spec into content-addressed points "
        "and run them to completion under a crash-safe journal.",
    )
    _add_flags(campaign_run, "--spec", required=True)
    _add_flags(campaign_run.add_argument_group("run options"), *_RUN_FLAGS)
    campaign_run.set_defaults(report=_CAMPAIGN_MANIFEST, retries=1)
    campaign_run.add_argument(
        "--heartbeat",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="cadence of journal heartbeats for in-flight leases "
        "(default: 2.0)",
    )
    _add_flags(campaign_run, "--journal")
    campaign_run.add_argument(
        "--resume",
        action="store_true",
        help="fold an existing journal and only run missing points "
        "(the default; spelled out for scripts that mean it)",
    )
    campaign_run.add_argument(
        "--fresh",
        action="store_true",
        help="move any existing journal aside and start generation 1 "
        "(the result cache still applies unless --no-cache)",
    )
    campaign_status = command(
        verbs, "status", "fold the journal into a progress report",
        _cmd_campaign_status, "--journal", "--spec", "--json",
        description="Reconstruct campaign progress from its journal "
        "(read-only; safe while a campaign runs).",
    )
    campaign_status.set_defaults(journal="campaign.jsonl")
    campaign_results = command(
        verbs, "results", "flatten a campaign manifest into rows",
        _cmd_campaign_results, "--input",
        description="Flatten a campaign manifest's per-point results "
        "(axes, domain metrics, SLO verdicts) into row-oriented tables.",
    )
    campaign_results.set_defaults(input=_CAMPAIGN_MANIFEST)
    campaign_results.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default: table)",
    )
    campaign_results.add_argument(
        "--experiment",
        default=None,
        metavar="ID",
        help="only rows for one experiment id",
    )

    metrics = command(
        commands, "metrics", "run + export metrics JSONL, or triage an export",
        _cmd_metrics, "experiment", "--input", "--seed", "--output", "--top", "--sort",
        description="Run one experiment and export its metrics as JSONL, "
        "or triage the hot event kinds of an existing export.",
    )
    metrics.set_defaults(top=5)
    profile = command(
        commands, "profile",
        "per-kind attribution + flame output; see docs/observability.md",
        _cmd_profile, "experiment", "--input", "--seed", "--top", "--sort",
        description="Attribute wall-clock and dispatch counts to "
        "(event kind, component, experiment part); optionally emit "
        "collapsed stacks for flamegraph.pl / speedscope.",
    )
    profile.add_argument(
        "--flame",
        default=None,
        metavar="PATH",
        help="write collapsed-stack output for flamegraph.pl / speedscope",
    )
    _add_flags(profile, "--json")

    watch = command(
        commands, "watch",
        "render a run-all or campaign journal as a progress board",
        _cmd_watch,
        description="Fold the journal a 'run-all' or 'campaign run' "
        "invocation writes into a per-unit board (state, ETA, SLO), "
        "refreshing until the run ends.",
    )
    watch.add_argument(
        "--dir",
        default=".",
        help=f"directory holding run-all's {RUN_JOURNAL_FILENAME} "
        "(default: .)",
    )
    watch.add_argument(
        "--file",
        default=None,
        help="explicit journal path, e.g. a campaign.jsonl "
        f"(overrides --dir/{RUN_JOURNAL_FILENAME})",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="refresh period (default: 0.5)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="render the current snapshot once and exit",
    )
    _add_flags(watch, "--json")

    trace = command(
        commands, "trace", "run + export the event trace as JSONL", _cmd_trace,
        description="Run one experiment and export its trace as JSONL.",
    )
    _add_flags(trace, "experiment", nargs=None)
    trace.add_argument(
        "--kinds",
        default="all",
        help="comma-separated trace kinds (e.g. mac.tx,core.gate_drop) or 'all'",
    )
    _add_flags(trace, "--seed", "--output")

    spans = command(
        commands, "spans", "run + span JSONL + flame-style tree", _cmd_spans,
        "experiment", "--input", "--seed", "--output",
        description="Run one experiment and render its hierarchical span "
        "trace as a flame-style tree (or render an existing spans JSONL).",
    )
    spans.add_argument(
        "--max-depth", type=int, default=None, help="truncate the tree below this depth"
    )

    compare = command(
        commands, "compare", "diff two manifests or perf-history records; CI gate",
        _cmd_compare,
        description="Diff two run manifests / perf-history records: "
        "wall-clock regressions, metric deltas, determinism drift.",
    )
    compare.add_argument("base", help="baseline manifest/BENCH json or history jsonl")
    compare.add_argument("new", help="candidate manifest/BENCH json or history jsonl")
    compare.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_WALL_THRESHOLD,
        help=f"relative wall-clock regression threshold (default {DEFAULT_WALL_THRESHOLD})",
    )
    compare.add_argument(
        "--min-wall",
        type=float,
        default=DEFAULT_MIN_WALL_S,
        help=f"ignore wall deltas when both runs are under this (default {DEFAULT_MIN_WALL_S}s)",
    )
    _add_flags(compare, "--json")

    slo = command(
        commands, "slo", "evaluate SLO specs against a run manifest; CI gate",
        _cmd_slo, "--input",
        description="Evaluate SLO specs against a run manifest's domain "
        "metric streams; exit nonzero on violation.",
    )
    slo.set_defaults(input=_RUN_MANIFEST)
    _add_flags(
        slo, "--spec",
        action="append",
        help="SLO spec file (repeatable; default: the registry defaults "
        "of every experiment in the manifest)",
    )
    slo.add_argument(
        "--strict",
        action="store_true",
        help="treat skipped objectives (missing metrics, failed "
        "experiments) as failures",
    )
    _add_flags(slo, "--json")

    dash = command(
        commands, "dash", "render a static HTML observatory for a run", _cmd_dash,
        "--input",
        description="Render a run manifest (plus the perf-history sidecar) "
        "as one dependency-free static HTML dashboard.",
    )
    dash.set_defaults(input=_RUN_MANIFEST)
    dash.add_argument(
        "--out",
        default=_DASH_HTML,
        help="output HTML path (default: %(default)s)",
    )
    dash.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="perf_history.jsonl for the trend section "
        "(default: benchmarks/results/perf_history.jsonl)",
    )

    lint = command(
        commands, "lint", "determinism/unit static analysis; see docs/lint.md",
        lint_cli.run, description=lint_cli.DESCRIPTION,
    )
    lint_cli.add_arguments(lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    commands = {path: sub for path, _, sub in walk_commands(parser)}
    if argv and not argv[0].startswith("-"):
        # Experiment ids are subcommands; zero padding normalises onto them.
        key = normalize_experiment_id(argv[0])
        if key not in commands:
            print(f"unknown experiment {argv[0]!r}; try 'list'", file=sys.stderr)
            return 2
        argv[0] = key
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            # Report leftovers from the subcommand that was given them, so
            # the usage line names its flags, not the root's.
            leaf = parser
            for depth in range(1, len(argv) + 1):
                path = " ".join(argv[:depth])
                if path not in commands:
                    break
                leaf = commands[path]
            leaf.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:  # --help, or a usage error argparse printed
        return exc.code
    command = args.command
    reads_input = getattr(args, "input", None) is not None
    if command in _SOURCE_COMMANDS and (args.experiment is not None) == reads_input:
        print(
            f"{command}: give exactly one of <experiment> or --input",
            file=sys.stderr,
        )
        return 2
    if command in _OBS_COMMANDS and args.no_obs and not reads_input:
        print(f"{command} requires observability; drop --no-obs", file=sys.stderr)
        return 2
    # A fresh observability state in the mode --no-obs asks for; commands
    # that need another mode (profile, trace, spans) configure their own.
    obs_runtime.configure(enabled=not args.no_obs)
    try:
        return args.func(args)
    except ConfigurationError as exc:  # bad spec, plan, ids or manifest
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, ObservabilityError) as exc:  # a missing or malformed input
        detail = str(exc)
        if getattr(exc, "filename", None):  # an OSError naming its file
            detail = f"cannot read {exc.filename}: {exc.strerror}"
        print(f"{command}: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
