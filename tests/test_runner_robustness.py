"""Runner hardening under injected failure: retries, watchdog, recovery.

These tests drive :func:`repro.runner.run_all` through every degraded mode
the fault subsystem can manufacture — raised tasks, crashed and hung
workers, unpicklable results, corrupt cache entries, interrupted manifest
writes, delivered signals — and pin the two contracts of the robustness
layer:

* **containment**: one task's failure never takes down the run, the other
  experiments, or the manifest;
* **invariance**: retried-away infrastructure faults leave result hashes
  byte-identical to a fault-free run at the same seed.

Pool-based cases reuse one small id set so the process-spawn cost stays
tier-1 friendly.
"""

import json
import signal

import pytest

from repro.errors import InjectedFault
from repro.faults import runtime as faults_runtime
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import runtime as obs_runtime
from repro.obs.ioutil import append_line, write_atomic
from repro.campaign.manager import _InterruptGuard
from repro.runner.cache import ResultCache
from repro.runner.core import run_all
from repro.runner.manifest import build_manifest, write_manifest

#: Two fast single-task experiments: enough to show containment (one
#: faulted, one clean) without ballooning tier-1 wall clock.
IDS = ["fig9", "table1"]


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def _plan(*specs, seed=0):
    return FaultPlan(specs, seed=seed)


class TestRetriesInProcess:
    def test_injected_raise_fails_only_its_experiment(self, cache_dir):
        plan = _plan(FaultSpec("worker.raise", scope="fig9:*"))
        result = run_all(ids=IDS, jobs=1, cache_dir=cache_dir, fault_plan=plan)
        assert not result.ok
        failed = result.run_for("fig9")
        assert failed.error is not None
        assert "InjectedFault" in failed.error
        (part,) = failed.parts
        assert part.attempts == 1
        assert part.failure_kind == "error"
        assert result.run_for("table1").ok  # containment
        manifest = build_manifest(result)  # partial runs still render
        assert manifest["totals"]["failed"] == 1

    def test_retry_recovers_and_counts_attempts(self, cache_dir):
        plan = _plan(FaultSpec("worker.raise", scope="fig9:*"))
        result = run_all(
            ids=IDS, jobs=1, cache_dir=cache_dir, retries=2, fault_plan=plan
        )
        assert result.ok
        (part,) = result.run_for("fig9").parts
        assert part.attempts == 2
        assert part.failure_kind is None and part.error is None
        (clean_part,) = result.run_for("table1").parts
        assert clean_part.attempts == 1

    def test_crash_and_unpicklable_degrade_to_raises(self, cache_dir):
        # At jobs=1 the "worker" is the orchestrator: process-killing
        # faults must degrade to recoverable raises, not kill the run.
        plan = _plan(
            FaultSpec("worker.crash", scope="fig9:*"),
            FaultSpec("worker.unpicklable", scope="table1:*"),
        )
        result = run_all(
            ids=IDS, jobs=1, cache_dir=cache_dir, retries=1, fault_plan=plan
        )
        assert result.ok
        assert all(run.parts[0].attempts == 2 for run in result.runs)

    def test_failure_metrics_and_spans_recorded(self, cache_dir):
        obs_runtime.configure(enabled=True)
        registry = obs_runtime.get_registry()
        plan = _plan(FaultSpec("worker.raise", scope="fig9:*"))
        result = run_all(ids=["fig9"], jobs=1, cache_dir=cache_dir, fault_plan=plan)
        assert registry.value("runner.parts.failed", experiment="fig9") == 1
        error_spans = [
            record
            for record in result.spans
            if record["name"] == "runner.task" and record.get("status") == "error"
        ]
        assert error_spans, "failed task must leave an error-status span"
        obs_runtime.configure(enabled=True)  # leave a clean registry behind


class TestPoolRecovery:
    def test_worker_crash_is_retried_to_identical_results(self, cache_dir):
        baseline = run_all(ids=IDS, jobs=2, use_cache=False)
        plan = _plan(FaultSpec("worker.crash", scope="fig9:*"))
        result = run_all(
            ids=IDS, jobs=2, cache_dir=cache_dir, retries=2, fault_plan=plan
        )
        assert result.ok
        (part,) = result.run_for("fig9").parts
        assert part.attempts >= 2
        assert part.failure_kind is None
        # The chaos invariant: infra faults never change result bytes.
        for key in IDS:
            assert (
                result.run_for(key).result_sha256
                == baseline.run_for(key).result_sha256
            ), key

    def test_worker_crash_without_retries_is_contained(self, cache_dir):
        plan = _plan(FaultSpec("worker.crash", scope="fig9:*"))
        result = run_all(ids=IDS, jobs=2, cache_dir=cache_dir, fault_plan=plan)
        assert not result.ok
        failed = result.run_for("fig9")
        (part,) = failed.parts
        assert part.failure_kind in {"pool_broken", "error"}
        # table1 may have been in flight when the pool broke; with zero
        # retries it is then also charged — but the run itself returned,
        # the manifest renders, and nothing raised out of run_all.
        manifest = build_manifest(result)
        assert manifest["totals"]["failed"] >= 1

    def test_watchdog_reclaims_hung_worker(self, cache_dir):
        plan = _plan(FaultSpec("worker.hang", param=30.0, scope="fig9:*"))
        result = run_all(
            ids=IDS,
            jobs=2,
            cache_dir=cache_dir,
            retries=1,
            task_timeout_s=1.5,
            fault_plan=plan,
        )
        assert result.ok
        (part,) = result.run_for("fig9").parts
        assert part.timed_out is True
        assert part.attempts == 2
        assert result.wall_s < 25.0  # reclaimed, not slept through

    def test_watchdog_spares_a_task_queued_behind_hung_workers(self, cache_dir):
        # Both workers hang, so table1 waits in the pool's queue past the
        # timeout; its deadline has not started, so the watchdog requeues
        # it uncharged instead of timing it out.
        plan = _plan(
            FaultSpec("worker.hang", param=30.0, scope="fig9:*"),
            FaultSpec("worker.hang", param=30.0, scope="fig13:*"),
        )
        result = run_all(
            ids=["fig9", "fig13", "table1"],
            jobs=2,
            cache_dir=cache_dir,
            retries=1,
            task_timeout_s=1.0,
            fault_plan=plan,
        )
        assert result.ok
        for hung in ("fig9", "fig13"):
            (part,) = result.run_for(hung).parts
            assert part.timed_out and part.attempts == 2, hung
        (queued,) = result.run_for("table1").parts
        assert not queued.timed_out
        assert queued.attempts == 1
        assert result.wall_s < 25.0

    def test_timeout_without_retries_fails_the_part(self, cache_dir):
        plan = _plan(FaultSpec("worker.hang", param=30.0, scope="fig9:*"))
        result = run_all(
            ids=IDS, jobs=2, cache_dir=cache_dir, task_timeout_s=1.0, fault_plan=plan
        )
        assert not result.ok
        (part,) = result.run_for("fig9").parts
        assert part.failure_kind == "timeout"
        assert "timeout" in (part.error or "")

    def test_unpicklable_result_is_retried(self, cache_dir):
        plan = _plan(FaultSpec("worker.unpicklable", scope="table1:*"))
        result = run_all(
            ids=IDS, jobs=2, cache_dir=cache_dir, retries=1, fault_plan=plan
        )
        assert result.ok
        (part,) = result.run_for("table1").parts
        assert part.attempts == 2


class TestFaultDeterminism:
    def test_same_fault_seed_injects_same_faults_twice(self, tmp_path):
        events = []
        for attempt in range(2):
            plan = _plan(
                FaultSpec("worker.raise"), FaultSpec("worker.hang", param=0.01)
            , seed=13)
            result = run_all(
                ids=IDS,
                jobs=1,
                cache_dir=str(tmp_path / f"c{attempt}"),
                retries=2,
                fault_plan=plan,
            )
            assert result.ok
            events.append(result.fault_events)
            assert result.fault_plan == plan.describe()
        assert events[0] == events[1]


class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_and_reexecuted(self, cache_dir):
        obs_runtime.configure(enabled=True)
        registry = obs_runtime.get_registry()
        cold = run_all(ids=["fig9"], jobs=1, cache_dir=cache_dir)
        key = cold.run_for("fig9").parts[0].key
        cache = ResultCache(cache_dir)
        assert cache.corrupt_entry(key)  # plant a truncated .pkl

        rerun = run_all(ids=["fig9"], jobs=1, cache_dir=cache_dir)
        assert rerun.ok
        assert rerun.cache_hits == 0  # corrupt entry must not read as a hit
        assert rerun.quarantined == [key]
        assert (
            rerun.run_for("fig9").result_sha256 == cold.run_for("fig9").result_sha256
        )
        quarantined = ResultCache(cache_dir).quarantine_dir / f"{key}.pkl"
        assert quarantined.is_file()  # kept for autopsy, not destroyed
        assert registry.value("runner.cache.corrupt") == 1
        manifest = build_manifest(rerun)
        assert manifest["cache"]["quarantined"] == [key]
        obs_runtime.configure(enabled=True)

    def test_quarantine_emits_progress_line(self, cache_dir):
        run_all(ids=["fig9"], jobs=1, cache_dir=cache_dir)
        cache = ResultCache(cache_dir)
        key = next(iter(cache.keys()))
        cache.corrupt_entry(key)
        lines = []
        run_all(ids=["fig9"], jobs=1, cache_dir=cache_dir, progress=lines.append)
        assert any("quarantined corrupt entry" in line for line in lines)

    def test_cache_corrupt_fault_point(self, cache_dir):
        run_all(ids=IDS, jobs=1, cache_dir=cache_dir)
        plan = _plan(FaultSpec("cache.corrupt", scope="fig9:*"))
        result = run_all(ids=IDS, jobs=1, cache_dir=cache_dir, fault_plan=plan)
        assert result.ok
        assert result.cache_hits == 1  # table1 still hits
        assert len(result.quarantined) == 1
        fired = [e for e in result.fault_events if e.get("fired")]
        assert fired and fired[0]["point"] == "cache.corrupt"


def _journal_records(path, event_type):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return [record for record in records if record["type"] == event_type]


class TestJournalManifestAgree:
    """The journal and the manifest report each unit from one record."""

    def test_cache_hits_agree(self, tmp_path, cache_dir):
        from repro.campaign.journal import CampaignJournal

        run_all(ids=["fig9"], jobs=1, cache_dir=cache_dir)
        path = tmp_path / "run_journal.jsonl"
        with CampaignJournal(path) as journal:
            result = run_all(
                ids=["fig9", "fig13", "table1"],
                jobs=2,
                cache_dir=cache_dir,
                journal=journal,
            )
        assert result.ok
        (hit,) = result.run_for("fig9").parts
        assert hit.cached and hit.attempts == 0
        assert hit.wall_s == 0.0 and hit.engine == {}
        for run_id in ("fig13", "table1"):
            (part,) = result.run_for(run_id).parts
            assert not part.cached and part.attempts == 1
        journaled = {
            record["key"]
            for record in _journal_records(path, "point.done")
            if record["cached"]
        }
        manifest = build_manifest(result)
        hit_keys = {
            part["key"]
            for entry in manifest["experiments"]
            for part in entry["parts"]
            if part["cache_hit"]
        }
        assert journaled == hit_keys == {hit.key}

    def test_failed_part_agrees(self, tmp_path, cache_dir):
        from repro.campaign.journal import CampaignJournal

        plan = _plan(FaultSpec("worker.raise", scope="fig9:*"))
        path = tmp_path / "run_journal.jsonl"
        with CampaignJournal(path) as journal:
            result = run_all(
                ids=IDS, jobs=1, cache_dir=cache_dir, fault_plan=plan,
                journal=journal,
            )
        entry = next(
            e for e in build_manifest(result)["experiments"] if e["id"] == "fig9"
        )
        (part,) = entry["parts"]
        (record,) = _journal_records(path, "point.quarantined")
        assert record["key"] == part["key"]
        assert record["attempts"] == part["attempts"] == 1
        assert part["failure_kind"] == "error"
        assert record["error"] == f"{part['failure_kind']}: {part['error']}"


class TestCampaignFaultPoints:
    """The campaign fault points fire in run-all too: one shared probe."""

    def test_poisoned_part_fails_naming_the_point(self, cache_dir):
        plan = _plan(FaultSpec("campaign.point.poison", scope="table1:*"))
        result = run_all(
            ids=IDS, jobs=1, cache_dir=cache_dir, retries=1, fault_plan=plan
        )
        table1 = result.run_for("table1")
        assert not table1.ok and "campaign.point.poison" in table1.error
        assert table1.parts[0].attempts == 2  # every retry is poisoned too
        assert result.run_for("fig9").ok

    def test_expired_lease_is_retried(self, cache_dir):
        run_all(ids=IDS, jobs=1, cache_dir=cache_dir)  # a warm cache
        plan = _plan(FaultSpec("campaign.lease.expire", scope="fig9:*"))
        result = run_all(
            ids=IDS, jobs=1, cache_dir=cache_dir, retries=1, fault_plan=plan
        )
        assert result.ok
        part = result.run_for("fig9").parts[0]
        assert not part.cached and part.attempts == 2
        assert result.run_for("table1").cache_hit

    def test_corrupt_journal_leaves_a_torn_line(self, tmp_path, cache_dir):
        from repro.campaign.journal import CampaignJournal, fold_journal

        path = tmp_path / "run_journal.jsonl"
        plan = _plan(FaultSpec("campaign.journal.corrupt", scope="fig9:*"))
        with CampaignJournal(path) as journal:
            result = run_all(
                ids=IDS, jobs=1, use_cache=False, fault_plan=plan, journal=journal
            )
        assert result.ok
        # The torn lease append glued onto the next record: mid-file
        # corruption, so the fold stops there and reports it.
        state = fold_journal(path)
        assert state.corrupt and not state.finished and state.records >= 1


class TestAtomicIo:
    def test_write_atomic_replaces_and_cleans_up(self, tmp_path):
        target = tmp_path / "out.json"
        write_atomic(target, "first\n")
        write_atomic(target, "second\n")
        assert target.read_text() == "second\n"
        assert list(tmp_path.iterdir()) == [target]  # no temp litter

    def test_append_line_appends_whole_lines(self, tmp_path):
        target = tmp_path / "log.jsonl"
        append_line(target, "one")
        append_line(target, "two\n")
        assert target.read_text() == "one\ntwo\n"

    def test_interrupted_write_preserves_previous_content(self, tmp_path):
        target = tmp_path / "manifest.json"
        write_atomic(target, "intact\n", fault_point="manifest.interrupt")
        faults_runtime.reset()
        faults_runtime.arm("manifest.interrupt")
        with pytest.raises(InjectedFault, match="manifest.interrupt"):
            write_atomic(target, "torn\n", fault_point="manifest.interrupt")
        assert target.read_text() == "intact\n"  # old content untouched
        assert list(tmp_path.iterdir()) == [target]  # temp removed
        # Disarmed after one firing: the retry completes.
        write_atomic(target, "recovered\n", fault_point="manifest.interrupt")
        assert target.read_text() == "recovered\n"

    def test_manifest_write_interrupt_end_to_end(self, tmp_path, cache_dir):
        result = run_all(ids=["table1"], jobs=1, cache_dir=cache_dir)
        path = tmp_path / "run_manifest.json"
        write_manifest(result, str(path))
        before = path.read_text()
        faults_runtime.reset()
        faults_runtime.arm("manifest.interrupt")
        with pytest.raises(InjectedFault):
            write_manifest(result, str(path))
        assert path.read_text() == before  # prior manifest intact
        manifest = write_manifest(result, str(path))  # retry completes
        assert json.loads(path.read_text())["schema"] == manifest["schema"]


class TestGracefulInterrupt:
    def test_guard_flags_first_signal_and_raises_on_second(self):
        with _InterruptGuard() as guard:
            signal.raise_signal(signal.SIGINT)
            assert guard.triggered  # flagged, not raised
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)

    def test_sigint_mid_run_yields_partial_result(self, cache_dir):
        fired = {"done": False}

        def interrupt_after_first_task(line):
            if line.startswith("[task") and not fired["done"]:
                fired["done"] = True
                signal.raise_signal(signal.SIGINT)

        result = run_all(
            ids=IDS,
            jobs=1,
            cache_dir=cache_dir,
            progress=interrupt_after_first_task,
        )
        assert result.interrupted
        assert not result.ok
        kinds = {
            part.failure_kind for run in result.runs for part in run.parts
        }
        assert "interrupted" in kinds
        # Exactly one task completed before the signal landed.
        completed = [
            run for run in result.runs if run.parts[0].failure_kind is None
        ]
        assert len(completed) == 1
        manifest = build_manifest(result)  # the partial manifest still renders
        assert manifest["interrupted"] is True
        interrupted_parts = [
            part
            for entry in manifest["experiments"]
            for part in entry["parts"]
            if part["failure_kind"] == "interrupted"
        ]
        assert interrupted_parts

    def test_sigint_with_hung_pool_worker_still_exits(self, tmp_path):
        """Interrupting a pool run with a hung worker must not deadlock.

        Regression: the teardown path read ``pool._processes`` *after*
        ``shutdown()`` had nulled it, so the hung worker was never
        terminated and the atexit join on the pool's management thread
        blocked interpreter exit forever.
        """
        import os
        import subprocess
        import sys
        import time

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        report = tmp_path / "mi.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_dir, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "run-all",
                "--ids", ",".join(IDS), "--jobs", "2",
                "--no-cache", "--no-history",
                "--report", str(report),
                "--fault-plan", "worker.hang:1@120",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            time.sleep(3.0)  # let the pool spin up and the hang fire
            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert code == 1, f"interrupted run exited {code}"
        manifest = json.loads(report.read_text())
        assert manifest["interrupted"] is True
        kinds = {
            part["failure_kind"]
            for entry in manifest["experiments"]
            for part in entry["parts"]
        }
        assert "interrupted" in kinds


class TestFaultPlanRefusals:
    """A fault plan that cannot fire is refused (exit 2), never recorded."""

    @pytest.fixture()
    def run_all_argv(self, tmp_path):
        return [
            "run-all", "--ids", "table1", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--report", str(tmp_path / "run_manifest.json"), "--no-history",
        ]

    def test_run_all_refuses_simulated_world_point(
        self, tmp_path, run_all_argv, capsys
    ):
        from repro.cli import main

        code = main(run_all_argv + ["--fault-plan", "world.channel.outage:1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown fault point 'world.channel.outage'" in err
        assert not (tmp_path / "run_manifest.json").exists()

    def test_campaign_run_refuses_simulated_world_point(self, tmp_path, capsys):
        from pathlib import Path

        from repro.cli import main

        spec = Path(__file__).resolve().parents[1] / "campaigns" / "demo.json"
        code = main([
            "campaign", "run", "--spec", str(spec), "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--report", str(tmp_path / "campaign_manifest.json"),
            "--fault-plan", "world.injector.stall:1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown fault point 'world.injector.stall'" in err
        assert not (tmp_path / "campaign_manifest.json").exists()

    def test_run_all_refuses_scope_matching_no_unit(
        self, tmp_path, run_all_argv, capsys
    ):
        from repro.cli import main

        code = main(run_all_argv + ["--fault-plan", "worker.crash:1%fig9:*"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'worker.crash:1%fig9:*'" in err and "matches none" in err
        # Refused before any unit ran: nothing cached, no manifest.
        assert not (tmp_path / "run_manifest.json").exists()
        assert not list((tmp_path / "cache").glob("objects/*.pkl"))

    @pytest.mark.parametrize(
        "refused",
        [["--ids", "fig99"], ["--fault-plan", "worker.crash:1%fig9:*"]],
        ids=["unknown-id", "scope-matching-no-unit"],
    )
    def test_refused_run_all_keeps_the_previous_journal(
        self, tmp_path, run_all_argv, refused
    ):
        from repro.cli import main

        assert main(run_all_argv) == 0
        journal = tmp_path / "run_journal.jsonl"
        before = journal.read_bytes()
        assert before.startswith(b"{") and b'"campaign.done"' in before
        # A repeated --ids overrides the fixture's (argparse keeps the last).
        assert main(run_all_argv + refused) == 2
        assert journal.read_bytes() == before
