"""Campaign manager robustness: journaled sweeps that survive ``kill -9``.

These tests pin the campaign subsystem's three contracts:

* **recovery** — the journal fold reconstructs exact progress after any
  hard kill: torn trailing lines are tolerated, duplicate and stale seqs
  are dropped, mid-file corruption quarantines the journal and recovery
  degrades to the result cache;
* **idempotence** — a resumed campaign re-executes only work that never
  finished, and its manifest is byte-identical to an uninterrupted
  equal-seed run's;
* **degradation** — a point that fails every attempt is quarantined and
  reported; the campaign still completes.

The SIGKILL case runs a real subprocess and delivers a real ``SIGKILL``
mid-campaign — no mocking of the crash itself.
"""

import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignJournal,
    fold_journal,
    load_campaign_spec,
    parse_campaign_spec,
    point_rows,
    quarantine_journal,
    render_rows,
    rows_to_csv,
    run_campaign,
    validate_campaign_data,
)
from repro.campaign.journal import load_journal
from repro.campaign.manager import build_manifest, write_manifest
from repro.errors import ConfigurationError
from repro.experiments.registry import resolve_target
from repro.faults import FaultPlan, FaultSpec
from repro.obs import runtime as obs_runtime
from repro.runner.backoff import backoff_s

#: Three fast analytic points (no seed dimension): a 2-value occupancy
#: axis over fig12 plus axis-free fig9 — enough to show partial progress
#: without ballooning tier-1 wall clock.
SPEC_DATA = {
    "schema": 1,
    "campaign": "unit",
    "seeds": [0],
    "experiments": [
        {"experiment": "fig12", "axes": {"occupancy": [0.4, 0.8]}},
        {"experiment": "fig9"},
    ],
}


@pytest.fixture()
def spec():
    return parse_campaign_spec(json.loads(json.dumps(SPEC_DATA)))


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def _run(spec, tmp, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("cache_dir", str(tmp / "cache"))
    kwargs.setdefault("journal_path", tmp / "campaign.jsonl")
    return run_campaign(spec, **kwargs)


def _plan(*specs, seed=0):
    return FaultPlan(specs, seed=seed)


class TestSpecExpansion:
    def test_expansion_is_deterministic_and_content_addressed(self, spec):
        first = spec.expand("fp")
        second = spec.expand("fp")
        assert first == second
        assert [p.label for p in first] == [
            "fig12:occupancy=0.4",
            "fig12:occupancy=0.8",
            "fig9:all",
        ]
        assert len({p.key for p in first}) == 3
        # A different code fingerprint re-addresses every point.
        assert {p.key for p in spec.expand("other")}.isdisjoint(
            {p.key for p in first}
        )

    def test_expansion_is_computed_once_per_spec_and_fingerprint(
        self, spec, monkeypatch
    ):
        from repro.campaign.spec import CampaignSpec

        expanded = []
        points = CampaignSpec._points

        def counting(self, fingerprint):
            expanded.append(fingerprint)
            return points(self, fingerprint)

        monkeypatch.setattr(CampaignSpec, "_points", counting)
        first = spec.expand("once")
        first.append("caller's own list")
        second = spec.expand("once")
        assert second is not first
        assert second == points(spec, "once")
        assert expanded == ["once"]
        # A different code fingerprint still re-addresses every point.
        other = spec.expand("twice")
        assert expanded == ["once", "twice"]
        assert {p.key for p in other}.isdisjoint({p.key for p in second})

    def test_unhashable_axis_values_expand_uncached(self):
        spec = parse_campaign_spec(
            {
                "campaign": "lists",
                "experiments": [
                    {"experiment": "fig12", "axes": {"occupancy": [[0.4]]}}
                ],
            }
        )
        assert [p.label for p in spec.expand("fp")] == ["fig12:occupancy=[0.4]"]
        assert spec.expand("fp") == spec.expand("fp")

    def test_seedless_drivers_collapse_the_replicate_dimension(self):
        data = dict(SPEC_DATA, seeds=[0, 1, 2])
        spec = parse_campaign_spec(data)
        # fig12/fig9 take no seed: still 3 points, not 9.
        assert len(spec.expand("fp")) == 3
        seeded = parse_campaign_spec(
            {
                "campaign": "s",
                "seeds": [0, 1],
                "experiments": [
                    {"experiment": "fig7", "axes": {"duration_s": [0.5]}}
                ],
            }
        )
        points = seeded.expand("fp")
        assert [p.seed for p in points] == [0, 1]
        assert [p.label for p in points] == [
            "fig7:duration_s=0.5#s0",
            "fig7:duration_s=0.5#s1",
        ]

    def test_digest_ignores_file_formatting(self, spec):
        reordered = parse_campaign_spec(
            {
                "seeds": [0],
                "campaign": "unit",
                "experiments": SPEC_DATA["experiments"],
            }
        )
        assert spec.digest() == reordered.digest()

    def test_validation_catches_the_lintable_mistakes(self):
        problems = validate_campaign_data(
            {
                "campaign": "bad",
                "seeds": [0, 0],
                "experiments": [
                    {"experiment": "nope"},
                    {"experiment": "fig12", "axes": {"occupanci": [0.5]}},
                    {"experiment": "fig9", "axes": {"seed": [1]}},
                ],
            }
        )
        messages = "\n".join(message for message, _needle in problems)
        assert "'seeds' contains duplicates" in messages
        assert "unknown experiment 'nope'" in messages
        assert "'occupanci' is not a keyword" in messages
        assert "axis 'seed' is not allowed" in messages

    def test_parse_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            parse_campaign_spec(
                {"campaign": "x", "experiments": [{"experiment": "nope"}]}
            )


class TestJournalFold:
    def _journal(self, tmp):
        return CampaignJournal(tmp / "campaign.jsonl")

    def test_roundtrip_folds_terminals_leases_and_attempts(self, workdir):
        journal = self._journal(workdir)
        journal.append("campaign.open", campaign="j", generation=1)
        journal.append("point.lease", key="a", lease="g1-l1", attempt=1)
        journal.append("point.done", key="a", attempt=1)
        journal.append("point.lease", key="b", lease="g1-l2", attempt=1)
        journal.append("point.retry", key="b", attempt=1)
        journal.append("point.lease", key="b", lease="g1-l3", attempt=2)
        state = fold_journal(journal.path)
        assert state.exists and not state.corrupt and not state.torn_tail
        assert set(state.done) == {"a"}
        assert set(state.leases) == {"b"}  # a's lease cleared by its done
        assert state.attempts["b"] == 2
        assert state.last_seq == 6 and state.records == 6

    def test_torn_trailing_line_is_tolerated(self, workdir):
        journal = self._journal(workdir)
        journal.append("campaign.open", campaign="j", generation=1)
        journal.append("point.done", key="a", attempt=1)
        before = fold_journal(journal.path)
        # A kill -9 mid-append leaves a prefix of the line, no newline.
        with open(journal.path, "ab") as handle:
            handle.write(b'{"schema": 1, "seq": 3, "type": "poi')
        after = fold_journal(journal.path)
        assert after.torn_tail and not after.corrupt
        assert set(after.done) == set(before.done)
        assert after.last_seq == before.last_seq

    def test_duplicate_seqs_fold_once(self, workdir):
        journal = self._journal(workdir)
        journal.append("campaign.open", campaign="j", generation=1)
        done = journal.append("point.done", key="a", attempt=1)
        # Replayed delivery: the identical record appended again.
        from repro.obs.ioutil import append_line

        append_line(journal.path, json.dumps(done, sort_keys=True))
        state = fold_journal(journal.path)
        assert state.dropped == 1
        assert state.records == 2
        assert set(state.done) == {"a"}

    def test_stale_records_after_terminal_are_dropped(self, workdir):
        journal = self._journal(workdir)
        journal.append("campaign.open", campaign="j", generation=1)
        journal.append("point.done", key="a", attempt=1)
        journal.append("point.heartbeat", key="a", lease="g1-l1", attempt=1)
        journal.append("point.quarantined", key="a", attempts=2, error="late")
        state = fold_journal(journal.path)
        assert state.dropped == 2  # stale heartbeat + second terminal
        assert set(state.done) == {"a"} and not state.quarantined
        assert not state.leases

    def test_mid_file_corruption_quarantines_the_journal(self, workdir):
        journal = self._journal(workdir)
        journal.append("campaign.open", campaign="j", generation=1)
        journal.append("point.done", key="a", attempt=1)
        blob = journal.path.read_bytes().splitlines(keepends=True)
        mangled = blob[0][: len(blob[0]) // 2].rstrip(b"\n") + b"\n" + blob[1]
        journal.path.write_bytes(mangled)
        assert fold_journal(journal.path).corrupt
        state = load_journal(journal.path)
        assert state.quarantined_path is not None
        assert not journal.path.exists()
        moved = Path(state.quarantined_path)
        assert moved.parent.name == "quarantine" and moved.exists()
        # Recovery starts from scratch: nothing trusted from the old file.
        assert not state.done and state.last_seq == 0

    def test_quarantine_never_overwrites_earlier_quarantines(self, workdir):
        for _round in range(2):
            journal = self._journal(workdir)
            journal.append("campaign.open", campaign="j", generation=1)
            quarantine_journal(journal.path)
        names = sorted(p.name for p in (workdir / "quarantine").iterdir())
        assert names == ["campaign.jsonl.0", "campaign.jsonl.1"]


#: Records of every shape the manager appends, for the byte comparisons.
_RECORDS = [
    ("campaign.open", {"campaign": "j", "generation": 1, "resume": False}),
    ("point.lease", {"key": "a", "lease": "g1-l1", "attempt": 1}),
    ("point.heartbeat", {"key": "a", "lease": "g1-l1", "attempt": 1}),
    ("point.retry", {"key": "a", "attempt": 1, "error": "caf\u00e9 \u2014 x"}),
    ("point.done", {"key": "a", "cached": False, "wall_s": 0.25}),
    ("campaign.done", {"campaign": "j", "ok": 1, "quarantined": 0}),
]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestJournalDescriptor:
    def test_appends_open_the_file_once(self, workdir, monkeypatch):
        path = workdir / "nested" / "campaign.jsonl"
        opened = []
        real_open = os.open

        def counting_open(target, *args, **kwargs):
            descriptor = real_open(target, *args, **kwargs)
            if Path(target) == path:
                opened.append(descriptor)
            return descriptor

        monkeypatch.setattr(os, "open", counting_open)
        with CampaignJournal(path) as journal:
            for event_type, fields in _RECORDS * 5:
                journal.append(event_type, **fields)
        assert len(opened) == 1
        assert fold_journal(path).records == len(_RECORDS) * 5

    def test_bytes_match_one_append_line_per_record(self, workdir):
        from repro.obs.ioutil import append_line

        reference = workdir / "reference.jsonl"
        with CampaignJournal(workdir / "campaign.jsonl", start_seq=7) as journal:
            for seq, (event_type, fields) in enumerate(_RECORDS, start=8):
                record = journal.append(event_type, **fields)
                assert record["seq"] == seq
                append_line(reference, json.dumps(record, sort_keys=True))
        assert journal.path.read_bytes() == reference.read_bytes()

    def test_torn_append_leaves_the_line_prefix(self, workdir):
        from repro.faults import runtime as faults_runtime

        with CampaignJournal(workdir / "campaign.jsonl") as journal:
            first = journal.append("campaign.open", campaign="j", generation=1)
            faults_runtime.arm("campaign.journal.corrupt")
            torn = journal.append("point.lease", key="a", attempt=1)
        whole = json.dumps(first, sort_keys=True) + "\n"
        line = json.dumps(torn, sort_keys=True)
        assert journal.path.read_bytes() == (
            whole + line[: len(line) // 2]
        ).encode("utf-8")
        assert fold_journal(journal.path).torn_tail

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_run_campaign_closes_the_journal(self, spec, workdir):
        _run(spec, workdir)  # warm imports and lazy state first
        before = _open_fds()
        _run(spec, workdir, journal_path=workdir / "returns.jsonl")
        assert _open_fds() == before

        def boom(line):
            if line.startswith("[point"):
                raise RuntimeError("progress sink failed")

        with pytest.raises(RuntimeError, match="progress sink failed"):
            _run(
                spec,
                workdir,
                use_cache=False,
                journal_path=workdir / "raises.jsonl",
                progress=boom,
            )
        assert _open_fds() == before


class TestRunCampaign:
    def test_completes_and_second_run_replays_from_cache(self, spec, workdir):
        first = _run(spec, workdir)
        assert first.ok and not first.quarantined
        assert first.executed == 3
        manifest_bytes = json.dumps(
            first.manifest, indent=2, sort_keys=True
        )
        second = _run(spec, workdir)
        assert second.ok
        assert second.executed == 0  # zero re-executed points
        assert all(o.cached or o.replayed for o in second.outcomes)
        assert (
            json.dumps(second.manifest, indent=2, sort_keys=True)
            == manifest_bytes
        )
        assert second.generations == 2

    def test_run_all_results_replay_as_campaign_points(self, workdir):
        """One cache for both callers: a campaign replays run-all's parts."""
        from repro.runner import run_all

        cache_dir = str(workdir / "cache")
        ran = run_all(ids=["fig9", "fig12"], seed=0, jobs=1, cache_dir=cache_dir)
        assert ran.ok
        spec = parse_campaign_spec(
            {
                "campaign": "cross-caller",
                "seeds": [0],
                "experiments": [{"experiment": "fig9"}, {"experiment": "fig12"}],
            }
        )
        result = _run(spec, workdir, cache_dir=cache_dir)
        assert result.ok and result.executed == 0
        assert [o.point.experiment for o in result.outcomes] == ["fig9", "fig12"]
        for outcome in result.outcomes:
            assert outcome.cached, outcome.point.label
            run = ran.run_for(outcome.point.experiment)
            assert outcome.result_sha256 == run.result_sha256, outcome.point.label

    def test_journal_in_the_earlier_layout_still_folds_and_resumes(
        self, spec, workdir
    ):
        """A journal written before ``campaign.open`` carried the unit roster
        and leases carried ``running``: it folds, renders and resumes."""
        from repro.campaign.watch import render_board, unit_rows
        from repro.runner.cache import code_fingerprint

        clean = _run(spec, workdir, journal_path=workdir / "clean.jsonl")
        points = spec.expand(code_fingerprint())
        path = workdir / "earlier.jsonl"
        records = [{"type": "campaign.open", "campaign": spec.name,
                    "spec_digest": spec.digest(), "points": len(points),
                    "seed": 0, "generation": 1, "resume": False}]
        for index, point in enumerate(points[:2], start=1):
            records.append({"type": "point.lease", "point": point.point_id,
                            "key": point.key, "lease": f"g1-l{index}",
                            "attempt": 1})
        records.append({"type": "point.done", "point": points[0].point_id,
                        "key": points[0].key, "cached": False,
                        "wall_s": 0.01, "attempt": 1})
        path.write_text("".join(
            json.dumps({"schema": 1, "seq": seq, **record}, sort_keys=True) + "\n"
            for seq, record in enumerate(records, start=1)
        ))
        state = fold_journal(path)
        assert set(state.done) == {points[0].key} and set(state.leases) == {points[1].key}
        rows = {f"{r['experiment']}:{r['part']}": r["state"] for r in unit_rows(state)}
        assert rows == {points[0].label: "done", points[1].label: "submitted"}
        assert "== watch ==" in render_board(state)

        resumed = _run(spec, workdir, journal_path=path)
        assert resumed.ok and resumed.generations == 2
        assert [o.replayed for o in resumed.outcomes] == [True, False, False]
        assert json.dumps(resumed.manifest, sort_keys=True) == json.dumps(
            clean.manifest, sort_keys=True
        )
        board = render_board(fold_journal(path))
        assert "run done: ok=3 quarantined=0" in board

    def test_two_runs_write_identical_compact_manifests(self, spec, workdir):
        paths = []
        for tag in ("a", "b"):
            result = _run(spec, workdir / tag)
            path = write_manifest(workdir / f"{tag}.json", result.manifest)
            assert json.loads(path.read_text()) == result.manifest
            paths.append(path)
        text = paths[0].read_text()
        assert paths[1].read_text() == text
        # Sorted keys, no indentation: one line plus the trailing newline.
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_default_slos_judge_only_axis_free_points(self, workdir):
        spec = parse_campaign_spec(
            {
                "campaign": "slo-scope",
                "experiments": [
                    {"experiment": "fig12", "axes": {"occupancy": [0.4]}},
                    {"experiment": "fig12"},
                ],
            }
        )
        result = _run(spec, workdir)
        by_part = {o.point.part: o for o in result.outcomes}
        assert by_part["occupancy=0.4"].slo_rows == []
        assert by_part["all"].slo_rows  # fig12's registry default applies
        slo = {p["part"]: p["slo"] for p in result.manifest["points"]}
        assert slo["occupancy=0.4"] == [] and slo["all"]
        done = {}
        for line in (workdir / "campaign.jsonl").read_text().splitlines():
            record = json.loads(line)
            if record["type"] == "point.done":
                done[record["point"]] = record
        assert "slo_violated" not in done["fig12:occupancy=0.4"]
        assert done["fig12:all"]["slo_violated"] == 0
        rows = {row["part"]: row for row in point_rows(result.manifest)}
        assert not any(key.startswith("slo.") for key in rows["occupancy=0.4"])
        assert rows["all"]["slo.violated"] == 0

    def test_manifest_is_pure_no_walls_attempts_or_cache_flags(self, spec, workdir):
        result = _run(spec, workdir)
        payload = json.dumps(result.manifest)
        for forbidden in ('"wall_s"', '"attempts"', '"cached"', '"t_s"'):
            assert forbidden not in payload
        totals = result.manifest["totals"]
        assert totals == {"points": 3, "ok": 3, "quarantined": 0}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poisoned_point_is_quarantined_and_campaign_completes(
        self, spec, workdir, jobs
    ):
        plan = _plan(FaultSpec("campaign.point.poison", scope="fig9:*"))
        result = _run(spec, workdir, jobs=jobs, retries=1, fault_plan=plan)
        assert result.ok  # the acceptance contract: completes, not fails
        (quarantined,) = result.quarantined
        assert quarantined.point.experiment == "fig9"
        assert quarantined.attempts == 2  # poison re-arms on every retry
        assert "campaign.point.poison" in (quarantined.error or "")
        assert result.manifest["totals"] == {
            "points": 3,
            "ok": 2,
            "quarantined": 1,
        }
        reported = [
            p for p in result.manifest["points"] if p["status"] == "quarantined"
        ]
        assert [p["experiment"] for p in reported] == ["fig9"]

    def test_quarantined_point_is_not_retried_on_resume(self, spec, workdir):
        plan = _plan(FaultSpec("campaign.point.poison", scope="fig9:*"))
        first = _run(spec, workdir, retries=0, fault_plan=plan)
        assert len(first.quarantined) == 1
        resumed = _run(spec, workdir)
        assert resumed.executed == 0
        (replayed,) = resumed.quarantined
        assert replayed.replayed
        assert resumed.manifest["totals"]["quarantined"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_expired_lease_is_retried_to_success(self, spec, workdir, jobs):
        plan = _plan(FaultSpec("campaign.lease.expire", scope="fig9:*"))
        result = _run(spec, workdir, jobs=jobs, retries=1, fault_plan=plan)
        assert result.ok and not result.quarantined
        fig9 = next(
            o for o in result.outcomes if o.point.experiment == "fig9"
        )
        assert fig9.attempts == 2
        state = fold_journal(workdir / "campaign.jsonl")
        assert state.attempts[fig9.point.key] == 2

    def test_watchdog_spares_a_point_queued_behind_hung_workers(
        self, spec, workdir
    ):
        # Both fig12 points hang on the two workers while fig9 waits in the
        # pool's queue past the timeout: its lease is requeued uncharged.
        plan = _plan(
            FaultSpec("worker.hang", count=2, param=30.0, scope="fig12:*")
        )
        result = _run(
            spec, workdir, jobs=2, retries=1, task_timeout_s=1.0,
            fault_plan=plan,
        )
        assert result.ok and not result.quarantined
        attempts = {o.point.label: o.attempts for o in result.outcomes}
        assert attempts == {
            "fig12:occupancy=0.4": 2,
            "fig12:occupancy=0.8": 2,
            "fig9:all": 1,
        }
        state = fold_journal(workdir / "campaign.jsonl")
        fig9 = next(
            o.point.key for o in result.outcomes if o.point.experiment == "fig9"
        )
        assert state.attempts[fig9] == 1
        assert result.wall_s < 25.0

    def test_torn_journal_fault_then_resume_recovers_from_cache(
        self, spec, workdir
    ):
        baseline = _run(spec, workdir, journal_path=workdir / "clean.jsonl")
        plan = _plan(FaultSpec("campaign.journal.corrupt", scope="fig12:*"))
        torn = _run(
            spec,
            workdir,
            fault_plan=plan,
            journal_path=workdir / "torn.jsonl",
        )
        assert torn.ok  # the torn append hurts the journal, not the run
        # The glued fragment makes the fold see mid-file corruption...
        assert fold_journal(workdir / "torn.jsonl").corrupt
        resumed = _run(spec, workdir, journal_path=workdir / "torn.jsonl")
        # ...so resume quarantines the journal and replays from cache.
        assert resumed.journal_quarantined is not None
        assert resumed.executed == 0
        assert json.dumps(resumed.manifest, sort_keys=True) == json.dumps(
            baseline.manifest, sort_keys=True
        )

    def test_fresh_moves_the_old_journal_aside(self, spec, workdir):
        _run(spec, workdir)
        result = _run(spec, workdir, resume=False)
        assert result.generations == 1
        assert (workdir / "quarantine" / "campaign.jsonl.0").exists()
        # Fresh generation, but the cache still made every point free.
        assert result.executed == 0

    def test_point_hash_is_the_driver_result_hash(self, spec, workdir):
        # In-process points round-trip through pickle like pool points; a
        # single result keeps its own sharing, so no point hash moves.
        result = _run(spec, workdir)
        for outcome in result.outcomes:
            point = outcome.point
            direct = resolve_target(point.target)(**point.kwargs)
            assert outcome.result_sha256 == hashlib.sha256(
                pickle.dumps(direct, protocol=pickle.HIGHEST_PROTOCOL)
            ).hexdigest(), point.label

    def test_pool_mode_matches_in_process_manifest(self, spec, workdir):
        solo = _run(spec, workdir, journal_path=workdir / "solo.jsonl")
        pooled = _run(
            spec,
            workdir,
            jobs=2,
            cache_dir=str(workdir / "cache2"),
            journal_path=workdir / "pool.jsonl",
        )
        assert json.dumps(pooled.manifest, sort_keys=True) == json.dumps(
            solo.manifest, sort_keys=True
        )


#: Self-SIGKILLs after the first point's terminal journal append lands —
#: the parent asserts the kill was real (returncode -9) and resumes.
_SIGKILL_SCRIPT = """
import json, os, signal, sys
from repro.campaign import load_campaign_spec, run_campaign

spec = load_campaign_spec(sys.argv[1])

def progress(line):
    if line.startswith("[point"):
        os.kill(os.getpid(), signal.SIGKILL)

run_campaign(
    spec,
    jobs=1,
    cache_dir=sys.argv[2],
    journal_path=sys.argv[3],
    progress=progress,
)
"""


class TestSigkillResume:
    def test_sigkill_mid_campaign_resumes_byte_identical(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DATA))
        cache_dir = tmp_path / "cache"
        journal_path = tmp_path / "campaign.jsonl"
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", _SIGKILL_SCRIPT, str(spec_path),
             str(cache_dir), str(journal_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        survivors = fold_journal(journal_path)
        assert survivors.exists
        assert 1 <= len(survivors.done) < 3  # partial progress, real kill

        spec = load_campaign_spec(spec_path)
        resumed = run_campaign(
            spec, jobs=1, cache_dir=str(cache_dir), journal_path=journal_path
        )
        assert resumed.ok
        # Every point the journal proved done replayed without executing.
        assert resumed.executed == 3 - len(survivors.done)
        for outcome in resumed.outcomes:
            if outcome.point.key in survivors.done:
                assert outcome.cached and outcome.replayed

        # The invariant the chaos CI job pins: byte-identical manifests.
        uninterrupted = run_campaign(
            spec,
            jobs=1,
            cache_dir=str(tmp_path / "cache_clean"),
            journal_path=tmp_path / "clean.jsonl",
        )
        resumed_path = write_manifest(tmp_path / "resumed.json", resumed.manifest)
        clean_path = write_manifest(
            tmp_path / "clean.json", uninterrupted.manifest
        )
        assert resumed_path.read_bytes() == clean_path.read_bytes()


class TestBackoff:
    def test_backoff_is_deterministic_and_bounded(self):
        assert backoff_s(0, "fig9:all", 1) == backoff_s(0, "fig9:all", 1)
        assert backoff_s(0, "fig9:all", 1) != backoff_s(0, "fig9:all", 2)
        assert backoff_s(0, "fig9:all", 1) != backoff_s(1, "fig9:all", 1)
        for attempt in range(1, 8):
            window = min(2.0, 0.05 * 2 ** (attempt - 1))
            delay = backoff_s(0, "x", attempt)
            assert window * 0.5 <= delay <= window

    def test_runner_retry_observes_backoff_metric(self, tmp_path):
        from repro.runner import run_all

        obs_runtime.configure(enabled=True)
        registry = obs_runtime.get_registry()
        plan = _plan(FaultSpec("worker.raise", scope="fig9:*"))
        result = run_all(
            ids=["fig9"],
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            retries=1,
            fault_plan=plan,
        )
        assert result.ok
        histogram = registry.histogram(
            "runner.retry.backoff_s", experiment="fig9"
        )
        assert histogram.count == 1
        assert 0.0 < histogram.sum <= 2.0
        obs_runtime.configure(enabled=True)  # leave a clean registry behind


class TestResultsQuery:
    def test_rows_flatten_axes_domain_and_slo(self, spec, workdir):
        result = _run(spec, workdir)
        rows = point_rows(result.manifest)
        assert len(rows) == 3
        by_point = {row["point"]: row for row in rows}
        assert by_point["fig12:occupancy=0.4"]["axis.occupancy"] == 0.4
        fig12 = by_point["fig12:occupancy=0.4"]
        assert any(key.startswith("camera.") for key in fig12)
        # A swept point is off the defaults its SLO thresholds were set for.
        assert not any(key.startswith("slo.") for key in fig12)
        table = render_rows(rows)
        assert "axis.occupancy" in table.splitlines()[0]
        csv_text = rows_to_csv(rows)
        assert csv_text.splitlines()[0].startswith("campaign,point,experiment")
        assert len(csv_text.splitlines()) == 4

    def test_experiment_filter(self, spec, workdir):
        result = _run(spec, workdir)
        rows = point_rows(result.manifest, experiment="fig9")
        assert [row["experiment"] for row in rows] == ["fig9"]

    def test_render_rows_empty(self):
        assert render_rows([]) == "(no points)"


class TestCampaignCli:
    def _write_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DATA))
        return spec_path

    def test_run_status_results_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = self._write_spec(tmp_path)
        report = tmp_path / "campaign_manifest.json"
        journal = tmp_path / "campaign.jsonl"
        code = main(
            [
                "campaign", "run",
                "--spec", str(spec_path),
                "--jobs", "1",
                "--report", str(report),
                "--journal", str(journal),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3/3 ok" in out
        assert report.exists() and journal.exists()

        code = main(
            [
                "campaign", "status",
                "--journal", str(journal),
                "--spec", str(spec_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 done" in out and "0/3 pending" in out

        code = main(
            [
                "campaign", "results",
                "--input", str(report),
                "--format", "csv",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("campaign,point,experiment")

    def test_manifest_interrupt_fault_retries_to_identical_bytes(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.campaign.manager as manager
        from repro.cli import main
        from repro.errors import InjectedFault

        spec_path = self._write_spec(tmp_path)

        def run(tag, *extra):
            report = tmp_path / tag / "campaign_manifest.json"
            report.parent.mkdir(exist_ok=True)
            if extra:
                report.write_text("previous manifest\n")
            code = main(
                [
                    "campaign", "run",
                    "--spec", str(spec_path),
                    "--jobs", "1",
                    "--report", str(report),
                    "--journal", str(report.parent / "campaign.jsonl"),
                    "--cache-dir", str(report.parent / "cache"),
                    *extra,
                ]
            )
            assert code == 0
            return report

        clean = run("clean")
        capsys.readouterr()

        # At the moment the fault fires, the old manifest must be intact and
        # no temp file left next to it.
        seen = []
        original = manager.write_manifest

        def spy(path, manifest):
            try:
                return original(path, manifest)
            except InjectedFault:
                seen.append(
                    (
                        Path(path).read_text(),
                        sorted(p.name for p in Path(path).parent.glob("*.tmp")),
                    )
                )
                raise

        monkeypatch.setattr(manager, "write_manifest", spy)
        faulted = run("faulted", "--fault-plan", "manifest.interrupt:1")
        err = capsys.readouterr().err
        assert seen == [("previous manifest\n", [])]
        assert "manifest write interrupted" in err and "retrying" in err
        assert faulted.read_bytes() == clean.read_bytes()
        assert not list(faulted.parent.glob("*.tmp"))

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"campaign": "x", "experiments": [{"experiment": "nope"}]}
            )
        )
        code = main(["campaign", "run", "--spec", str(bad)])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_resume_fresh_conflict_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = self._write_spec(tmp_path)
        code = main(
            [
                "campaign", "run",
                "--spec", str(spec_path),
                "--resume", "--fresh",
            ]
        )
        assert code == 2
        assert "conflict" in capsys.readouterr().err

    def test_status_without_journal_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["campaign", "status", "--journal", str(tmp_path / "none.jsonl")]
        )
        assert code == 1
        assert "no journal" in capsys.readouterr().out

    def test_usage_line_for_unknown_verb(self, capsys):
        from repro.cli import main

        assert main(["campaign", "bogus"]) == 2
        assert "usage: repro campaign" in capsys.readouterr().err


class TestWatchEmptyStream:
    def test_render_board_without_events_explains_itself(self, tmp_path):
        from repro.campaign.watch import render_board

        path = tmp_path / "campaign.jsonl"
        board = render_board(fold_journal(path))
        assert "waiting for events" in board
        assert "?" not in board.replace("here?", "")  # no board of "?"s
        # One real record flips it to the normal board.
        with CampaignJournal(path) as journal:
            journal.append("campaign.open", campaign="c", seed=7, jobs=2)
        assert "seed=7" in render_board(fold_journal(path))


class TestLintPW007:
    def test_campaign_spec_problems_become_findings(self):
        from repro.lint.checks import check_campaign_spec_file

        source = json.dumps(
            {
                "campaign": "bad",
                "seeds": [0],
                "experiments": [
                    {"experiment": "nope"},
                    {"experiment": "fig12", "axes": {"occupanci": [0.5]}},
                ],
            },
            indent=2,
        )
        findings = check_campaign_spec_file("campaigns/bad.json", source)
        assert findings
        assert all(f.code == "PW007" for f in findings)
        messages = "\n".join(f.message for f in findings)
        assert "unknown experiment 'nope'" in messages
        assert "'occupanci' is not a keyword" in messages
        lines = {f.line for f in findings}
        assert lines != {1}  # needles located real source lines

    def test_valid_spec_and_invalid_json(self):
        from repro.lint.checks import check_campaign_spec_file

        assert (
            check_campaign_spec_file(
                "campaigns/ok.json", json.dumps(SPEC_DATA)
            )
            == []
        )
        (finding,) = check_campaign_spec_file("campaigns/broken.json", "{oops")
        assert finding.code == "PW007"
        assert "not valid JSON" in finding.message

    def test_lint_paths_routes_campaigns_and_slos_dirs(self, tmp_path):
        from repro.lint.config import LintConfig
        from repro.lint.engine import lint_paths

        campaigns = tmp_path / "campaigns"
        campaigns.mkdir()
        (campaigns / "bad.json").write_text(
            json.dumps(
                {"campaign": "x", "experiments": [{"experiment": "nope"}]}
            )
        )
        slos = tmp_path / "slos"
        slos.mkdir()
        (slos / "bad.json").write_text(
            json.dumps({"objectives": [{"id": "Not Dotted"}]})
        )
        findings, _ = lint_paths(
            [str(tmp_path)],
            config=LintConfig(),
            use_baseline=False,
            use_cache=False,
        )
        codes = sorted(f.code for f in findings)
        assert codes == ["PW006", "PW007"]

    def test_explicit_file_is_sniffed_by_campaign_key(self, tmp_path):
        from repro.lint.config import LintConfig
        from repro.lint.engine import lint_paths

        loose = tmp_path / "sweep.json"
        loose.write_text(
            json.dumps(
                {"campaign": "x", "experiments": [{"experiment": "nope"}]}
            )
        )
        findings, _ = lint_paths(
            [str(loose)],
            config=LintConfig(),
            use_baseline=False,
            use_cache=False,
        )
        assert [f.code for f in findings] == ["PW007"]

    def test_disable_gates_the_rule(self, tmp_path):
        from repro.lint.config import LintConfig
        from repro.lint.engine import lint_paths

        campaigns = tmp_path / "campaigns"
        campaigns.mkdir()
        (campaigns / "bad.json").write_text(
            json.dumps(
                {"campaign": "x", "experiments": [{"experiment": "nope"}]}
            )
        )
        findings, _ = lint_paths(
            [str(tmp_path)],
            config=LintConfig(disable=("PW007",)),
            use_baseline=False,
            use_cache=False,
        )
        assert findings == []
