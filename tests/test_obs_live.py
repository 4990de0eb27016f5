"""Live progress: the journal run-all and campaigns write, and the watch board.

Pins the streaming contract: both commands journal every lifecycle step as
seq-numbered records, ``fold_journal`` tolerates duplicate, stale and torn
records, the board and its JSON snapshot render any prefix of a journal
(which is how ``repro watch`` follows a run), and journaling changes
nothing about results.
"""

import json
import threading
import time

import pytest

from repro.campaign.journal import (
    JOURNAL_SCHEMA_VERSION,
    CampaignJournal,
    fold_journal,
)
from repro.campaign.watch import eta_s, render_board, snapshot, unit_rows
from repro.defaults import RUN_JOURNAL_FILENAME
from repro.obs.history import expected_walls

UNITS = [["k1", "fig5:t=1"], ["k5", "fig5:t=5"], ["k8", "fig8:all"]]


def write_journal(path, extra=(), walls=None):
    """A recorded run-all journal: 3 units, one retry, one failure."""
    header = {"expected_walls": {"fig5": 4.0} if walls is None else walls}
    with CampaignJournal(path, header=header) as journal:
        journal.append(
            "campaign.open", campaign="run-all", seed=0, jobs=2, points=3,
            generation=1, resume=False, units=UNITS,
            faults=[{"point": "worker.crash", "task": "fig8:all", "param": None}],
        )
        journal.append("point.lease", point="fig5:t=1", key="k1", lease="l2",
                       attempt=1, running=True)
        journal.append("point.lease", point="fig8:all", key="k8", lease="l3",
                       attempt=1, running=True)
        journal.append("point.done", point="fig5:t=1", key="k1", cached=False,
                       wall_s=0.4, attempt=1)
        journal.append("point.retry", point="fig8:all", key="k8", attempt=1,
                       kind="pool_broken", error="worker died", backoff_s=0.1)
        journal.append("point.lease", point="fig8:all", key="k8", lease="l7",
                       attempt=2, running=True)
        journal.append("point.quarantined", point="fig8:all", key="k8",
                       attempts=2, error="error: ValueError: boom")
        for event_type, fields in extra:
            journal.append(event_type, **fields)
    return fold_journal(path)


def rows_by_label(state):
    return {f"{r['experiment']}:{r['part']}": r for r in unit_rows(state)}


def done_record(**fields):
    return ("campaign.done", {"campaign": "run-all", "ok": 1, "failed": 1,
                              "cache_hits": 0, "wall_s": 1.0, **fields})


class TestLiveSink:
    """The run's live progress log: the journal ``run-all`` writes."""

    def test_events_are_sequenced_and_schema_stamped(self, tmp_path):
        from repro.runner.core import run_all

        path = tmp_path / RUN_JOURNAL_FILENAME
        with CampaignJournal(path) as journal:
            run_all(ids=["table1"], jobs=1, use_cache=False, journal=journal)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
        assert all(r["schema"] == JOURNAL_SCHEMA_VERSION for r in records)
        assert [r["type"] for r in records] == [
            "campaign.open", "point.lease", "point.done", "campaign.done",
        ]
        assert records[0]["units"] == [[records[2]["key"], "table1:all"]]

    def test_sink_truncates_previous_stream(self, tmp_path):
        from repro.cli import main

        path = tmp_path / RUN_JOURNAL_FILENAME
        path.write_text('{"stale": true}\n')
        assert main([
            "run-all", "--ids", "table1", "--jobs", "1", "--no-cache",
            "--no-history", "--no-obs", "--report", str(tmp_path / "m.json"),
        ]) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "campaign.open" and records[0]["seq"] == 1
        assert not any("stale" in record for record in records)

    def test_queued_parts_carry_expected_wall(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, header={"expected_walls": {"fig5": 2.5}}) as journal:
            journal.append("campaign.open", campaign="run-all", jobs=1, units=UNITS)
        state = fold_journal(path)
        rows = rows_by_label(state)
        assert state.campaign["expected_walls"] == {"fig5": 2.5}
        # An experiment's history wall splits evenly over its parts.
        assert rows["fig5:t=1"]["expected_wall_s"] == 1.25
        assert rows["fig8:all"]["expected_wall_s"] is None
        assert "queued      ~1s" in render_board(state)

    def test_ingest_translates_worker_running(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.append("campaign.open", campaign="c", jobs=1, units=UNITS)
            journal.append("point.lease", point="fig5:t=1", key="k1",
                           lease="l2", attempt=1, running=True)
            journal.append("point.lease", point="fig5:t=5", key="k5",
                           lease="l3", attempt=1, running=False)
        rows = rows_by_label(fold_journal(path))
        assert rows["fig5:t=1"]["state"] == "running"
        assert rows["fig5:t=5"]["state"] == "submitted"
        # The heartbeat after a worker frees up starts the queued lease.
        with CampaignJournal(path, start_seq=3) as journal:
            journal.append("point.heartbeat", point="fig5:t=5", key="k5",
                           lease="l3", attempt=1, running=True)
        assert rows_by_label(fold_journal(path))["fig5:t=5"]["state"] == "running"


class TestTailJsonl:
    """``repro watch`` re-folds the journal file on every refresh."""

    def test_incremental_and_partial_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path)
        line = json.dumps({"seq": 8, "type": "point.lease", "key": "k5",
                           "point": "fig5:t=5", "attempt": 1, "running": True})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[:20])
        state = fold_journal(path)
        # The torn tail is not folded; completing it folds it next refresh.
        assert state.torn_tail and state.records == 7
        assert rows_by_label(state)["fig5:t=5"]["state"] == "queued"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[20:] + "\n")
        state = fold_journal(path)
        assert not state.torn_tail and state.records == 8
        assert rows_by_label(state)["fig5:t=5"]["state"] == "running"

    def test_malformed_lines_skipped_missing_file_empty(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        state = fold_journal(path)
        assert state.torn_tail and not state.corrupt and state.records == 7
        assert "torn tail" in render_board(state)
        absent = fold_journal(tmp_path / "absent.jsonl")
        assert not absent.exists and absent.records == 0


class TestTailTruncation:
    def test_shrunken_file_restarts_from_zero(self, tmp_path):
        """A new run starting the journal empty mid-watch: the next refresh
        folds the new journal from byte zero, nothing of the old one."""
        path = tmp_path / "j.jsonl"
        assert write_journal(path).records == 7
        path.unlink()
        with CampaignJournal(path) as journal:
            journal.append("campaign.open", campaign="run-all", jobs=1,
                           units=[["k9", "fig9:all"]])
        state = fold_journal(path)
        assert state.records == 1 and state.last_seq == 1
        assert [r["experiment"] for r in unit_rows(state)] == ["fig9"]


class TestReplayAndBoard:
    def test_incremental_fold_equals_batch(self, tmp_path):
        path = tmp_path / "j.jsonl"
        batch = write_journal(path)
        lines = path.read_text().splitlines(keepends=True)
        prefix = tmp_path / "prefix.jsonl"
        finished = 0
        for count in range(1, len(lines) + 1):
            prefix.write_text("".join(lines[:count]))
            state = fold_journal(prefix)
            settled = len(state.done) + len(state.quarantined)
            assert settled >= finished  # a prefix never un-finishes a unit
            finished = settled
        assert unit_rows(state) == unit_rows(batch)
        assert state.campaign == batch.campaign

    def test_expected_wall_survives_transitions(self, tmp_path):
        rows = rows_by_label(write_journal(tmp_path / "j.jsonl"))
        assert rows["fig5:t=1"]["state"] == "done"
        assert rows["fig5:t=1"]["expected_wall_s"] == 2.0

    def test_eta_excludes_terminal_parts(self, tmp_path):
        state = write_journal(tmp_path / "j.jsonl")
        # Unfinished with a baseline: only fig5:t=5 (4.0s over 2 parts of
        # fig5 = 2.0s expected), over 2 workers.
        assert eta_s(state, unit_rows(state)) == pytest.approx(1.0)
        assert state.finished is None
        state = write_journal(tmp_path / "k.jsonl", extra=[done_record()])
        assert state.finished and eta_s(state, unit_rows(state)) == 0.0

    def test_eta_falls_back_to_measured_walls(self, tmp_path):
        state = write_journal(tmp_path / "j.jsonl", walls={})
        # No history: fig5:t=5 expects the 0.4s fig5:t=1 measured.
        assert eta_s(state, unit_rows(state)) == pytest.approx(0.2)

    def test_render_board_on_recorded_stream(self, tmp_path):
        state = write_journal(tmp_path / "j.jsonl")
        board = render_board(state)
        assert "== watch ==" in board and "jobs=2" in board
        assert "fig5:t=1" in board and "done" in board
        assert "fig8:all" in board and "failed" in board
        assert "ValueError: boom" in board
        assert "faults: 1 event(s)" in board
        assert "run done" not in board
        state = write_journal(
            tmp_path / "k.jsonl", extra=[done_record(spans_dropped=2)]
        )
        board = render_board(state)
        assert "run done: ok=1 failed=1" in board
        assert "spans_dropped=2" in board

    def test_interrupted_run_ends_the_board(self, tmp_path):
        state = write_journal(tmp_path / "j.jsonl", extra=[(
            "campaign.interrupted", {"ok": 1, "failed": 1, "wall_s": 0.5},
        )])
        assert state.interrupted and state.finished is None
        assert rows_by_label(state)["fig5:t=5"]["state"] == "interrupted"
        assert "run interrupted: ok=1 failed=1" in render_board(state)


class TestReplaySeqGuard:
    def test_duplicate_seqs_fold_once(self, tmp_path):
        path = tmp_path / "j.jsonl"
        once = write_journal(path)
        path.write_text(path.read_text() * 2)
        twice = fold_journal(path)
        assert unit_rows(twice) == unit_rows(once)
        assert twice.dropped == once.records
        assert twice.records == once.records

    def test_out_of_order_part_state_cannot_regress(self, tmp_path):
        # A stale lease (after the unit's done record) must not resurrect it.
        state = write_journal(tmp_path / "j.jsonl", extra=[(
            "point.lease", {"point": "fig5:t=1", "key": "k1", "lease": "l9",
                            "attempt": 1, "running": True},
        )])
        assert rows_by_label(state)["fig5:t=1"]["state"] == "done"
        assert state.dropped == 1

    def test_unseen_lower_seq_is_stale_for_that_part(self, tmp_path):
        # Deliver done (seq 9) before a lease (seq 5): the late lease of a
        # finished unit is dropped.
        path = tmp_path / "j.jsonl"
        records = [
            {"seq": 1, "type": "campaign.open", "units": [["x", "x:p"]]},
            {"seq": 9, "type": "point.done", "key": "x", "wall_s": 1.0},
            {"seq": 5, "type": "point.lease", "key": "x", "running": True},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        state = fold_journal(path)
        assert rows_by_label(state)["x:p"]["state"] == "done"
        assert state.dropped == 1


def slo_record(violated=1, ok=3):
    return ("experiment.slo", {
        "experiment": "fig5", "ok": ok, "violated": violated, "skipped": 0,
        "objectives": [{"id": "client.demo.obj", "status": "ok", "margin": 0.5}],
    })


class TestSloFoldAndSnapshot:
    def test_experiment_slo_events_fold_into_state(self, tmp_path):
        state = write_journal(tmp_path / "j.jsonl", extra=[slo_record()])
        assert state.slo["fig5"]["violated"] == 1
        # A later re-evaluation replaces the record.
        state = write_journal(
            tmp_path / "k.jsonl", extra=[slo_record(), slo_record(violated=0)]
        )
        assert state.slo["fig5"]["violated"] == 0

    def test_board_shows_slo_column_and_footer(self, tmp_path):
        board = render_board(
            write_journal(tmp_path / "j.jsonl", extra=[slo_record(violated=0)])
        )
        assert "slo:ok" in board          # per-part column
        assert "slo: fig5=ok" in board    # summary footer
        board = render_board(
            write_journal(tmp_path / "k.jsonl", extra=[slo_record(violated=2)])
        )
        assert "slo:VIOL(2)" in board and "fig5=VIOL(2)" in board

    def test_done_line_carries_slo_violated(self, tmp_path):
        state = write_journal(
            tmp_path / "j.jsonl", extra=[done_record(slo_violated=2)]
        )
        assert "slo_violated=2" in render_board(state)

    def test_snapshot_is_json_safe_and_structured(self, tmp_path):
        state = write_journal(tmp_path / "j.jsonl", extra=[slo_record()])
        snap = snapshot(state)
        json.dumps(snap)  # must be JSON-serialisable as-is
        assert set(snap) == {
            "schema", "run", "elapsed_s", "eta_s", "events", "duplicates",
            "counts", "parts", "slo", "faults", "finished", "done",
        }
        assert snap["schema"] == JOURNAL_SCHEMA_VERSION
        assert snap["finished"] is False and snap["done"] is None
        assert snap["counts"]["done"] == 1 and snap["counts"]["failed"] == 1
        assert snap["slo"]["fig5"]["violated"] == 1
        assert {p["part"] for p in snap["parts"]} == {"t=1", "t=5", "all"}
        assert "units" not in snap["run"] and snap["run"]["jobs"] == 2
        assert snap["faults"] == 1
        done = write_journal(tmp_path / "k.jsonl", extra=[done_record()])
        assert snapshot(done)["finished"] is True
        assert snapshot(done)["elapsed_s"] == 1.0


class TestExpectedWalls:
    def test_latest_executed_wall_wins_cache_hits_skipped(self, tmp_path):
        path = tmp_path / "perf_history.jsonl"
        records = [
            {"experiments": {"fig5": {"wall_s": 4.0, "cache_hit": False}}},
            {"experiments": {"fig5": {"wall_s": 0.001, "cache_hit": True},
                             "fig8": {"wall_s": 2.0, "cache_hit": False}}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        walls = expected_walls(path)
        assert walls == {"fig5": 4.0, "fig8": 2.0}
        assert expected_walls(tmp_path / "absent.jsonl") == {}

    def test_torn_final_line_keeps_the_earlier_walls(self, tmp_path):
        path = tmp_path / "perf_history.jsonl"
        whole = {"experiments": {"fig5": {"wall_s": 4.0, "cache_hit": False}}}
        torn = {"experiments": {"fig5": {"wall_s": 9.0, "cache_hit": False}}}
        path.write_text(json.dumps(whole) + "\n" + json.dumps(torn)[:30])
        assert expected_walls(path) == {"fig5": 4.0}


class TestRunnerIntegration:
    def test_live_run_streams_lifecycle_and_changes_nothing(self, tmp_path):
        from repro.runner.core import run_all

        path = tmp_path / RUN_JOURNAL_FILENAME
        with CampaignJournal(path) as journal:
            journaled = run_all(
                ids=["fig9", "table1"], jobs=1, use_cache=False, journal=journal
            )
        plain = run_all(ids=["fig9", "table1"], jobs=1, use_cache=False)
        for key in ("fig9", "table1"):
            assert (
                journaled.run_for(key).result_sha256
                == plain.run_for(key).result_sha256
            ), f"{key}: journaling changed the result"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        types = [record["type"] for record in records]
        assert types[0] == "campaign.open" and types[-1] == "campaign.done"
        assert types.count("point.lease") == 2 and types.count("point.done") == 2
        leases = [r for r in records if r["type"] == "point.lease"]
        assert all(r["running"] for r in leases)  # jobs=1 runs at submit
        assert records[-1]["spans_dropped"] == 0
        assert records[-1]["ok"] == 2 and records[-1]["failed"] == 0

    def test_pool_run_streams_worker_running_events(self, tmp_path):
        from repro.runner.core import run_all

        path = tmp_path / RUN_JOURNAL_FILENAME
        with CampaignJournal(path) as journal:
            result = run_all(
                ids=["fig9", "table1"], jobs=2, use_cache=False, journal=journal
            )
        assert result.ok
        lines = path.read_text().splitlines(keepends=True)
        types = [json.loads(line)["type"] for line in lines]
        last_lease = max(i for i, t in enumerate(types) if t == "point.lease")
        prefix = tmp_path / "prefix.jsonl"
        prefix.write_text("".join(lines[: last_lease + 1]))
        board = render_board(fold_journal(prefix))
        assert board.count(" running ") == 2, board
        assert rows_by_label(fold_journal(path))["fig9:all"]["state"] == "done"

    def test_drop_counters_land_in_manifest_totals(self, tmp_path):
        from repro.runner.core import run_all
        from repro.runner.manifest import build_manifest

        result = run_all(ids=["table1"], jobs=1, use_cache=False)
        manifest = build_manifest(result)
        assert manifest["schema"] == 7
        assert manifest["totals"]["spans_dropped"] == 0
        # Since schema 6 the journal drops nothing: no live drop counter.
        assert not any("live" in name for name in manifest["totals"])


class TestWatchCli:
    def test_watch_once_renders_recorded_stream(self, tmp_path, capsys):
        from repro.cli import main

        write_journal(tmp_path / RUN_JOURNAL_FILENAME, extra=[done_record()])
        assert main(["watch", "--dir", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "== watch ==" in out and "run done" in out
        assert main(["watch", "--dir", str(tmp_path), "--once", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["finished"] is True

    def test_watch_follows_until_run_done(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "campaign.jsonl"
        write_journal(path)

        def finish_later():
            time.sleep(0.3)
            event_type, fields = done_record()
            with CampaignJournal(path, start_seq=7) as journal:
                journal.append(event_type, **fields)

        writer = threading.Thread(target=finish_later)
        writer.start()
        try:
            assert main(["watch", "--file", str(path), "--interval", "0.05"]) == 0
        finally:
            writer.join()
        boards = capsys.readouterr().out.split("== watch ==")
        assert len(boards) > 2  # refreshed while the run was still going
        assert "run done" in boards[-1] and "run done" not in boards[1]

    def test_watch_once_missing_stream_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["watch", "--dir", str(tmp_path), "--once"]) == 2
        assert "no journal" in capsys.readouterr().err


class TestCampaignJournalBoard:
    """A campaign's own journal renders on the same board."""

    def test_pool_campaign_board_shows_running_rows(self, tmp_path):
        from repro.campaign.manager import run_campaign
        from repro.campaign.spec import load_campaign_spec

        path = tmp_path / "campaign.jsonl"
        result = run_campaign(
            load_campaign_spec("campaigns/demo.json"), jobs=2,
            cache_dir=str(tmp_path / "cache"), journal_path=path,
            heartbeat_s=0.0,
        )
        assert result.ok
        lines = path.read_text().splitlines(keepends=True)
        prefix = tmp_path / "prefix.jsonl"
        running = []
        for count in range(1, len(lines) + 1):
            prefix.write_text("".join(lines[:count]))
            rows = unit_rows(fold_journal(prefix))
            running.append(sum(1 for row in rows if row["state"] == "running"))
        assert max(running) == 2, running  # never more than the two workers
        board = render_board(fold_journal(path))
        assert "occupancy-sensitivity" in board and "jobs=2" in board
        # Every demo point with an SLO spec is swept, so none is judged.
        assert "slo:" not in board
        assert "run done: ok=8 quarantined=0" in board
        assert "slo_violated=0" in board
