"""Hierarchical span tracing: recorder semantics, engine/runner wiring.

Covers the span-layer contracts: deterministic ids and nesting, non-LIFO
closes, the detail gate, worker adoption across the pool boundary, the
``run-all`` span tree (root -> per-task -> engine spans), and the flame-style
text rendering.
"""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import runtime as obs_runtime
from repro.obs.spans import (
    NULL_SPANS,
    SpanRecorder,
    render_span_tree,
)
from repro.sim.engine import Simulator


@pytest.fixture(autouse=True)
def _fresh_runtime():
    """Every test starts and ends with a clean process-wide runtime."""
    obs_runtime.configure(enabled=True)
    yield
    obs_runtime.configure(enabled=True)


class TestSpanRecorder:
    def test_ids_are_sequential_and_prefixed(self):
        recorder = SpanRecorder(id_prefix="t07.")
        first = recorder.begin("a.b")
        second = recorder.begin("a.c")
        assert [first.span_id, second.span_id] == ["t07.1", "t07.2"]

    def test_nesting_defaults_to_stack_top(self):
        recorder = SpanRecorder()
        outer = recorder.begin("layer.outer")
        inner = recorder.begin("layer.inner")
        assert inner.parent_id == outer.span_id
        recorder.end(inner)
        sibling = recorder.begin("layer.sibling")
        assert sibling.parent_id == outer.span_id

    def test_explicit_parent_grafts(self):
        recorder = SpanRecorder()
        child = recorder.begin("layer.child", parent_id="s99")
        assert child.parent_id == "s99"

    def test_non_lifo_close_tolerated(self):
        """Event-driven spans (mac.medium.busy) close out of order."""
        recorder = SpanRecorder()
        first = recorder.begin("ch.one")
        second = recorder.begin("ch.two")
        recorder.end(first)  # closes the *outer* one first
        assert recorder.current() is second
        recorder.end(second)
        assert recorder.current() is None

    def test_context_manager_records_error_status(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("layer.failing"):
                raise ValueError("boom")
        (record,) = recorder.to_records()
        assert record["status"] == "error"
        assert record["wall_s"] is not None

    def test_name_validation(self):
        recorder = SpanRecorder()
        with pytest.raises(ObservabilityError, match="dotted lowercase"):
            recorder.begin("NotDotted")  # lint: ignore[PW006] deliberately invalid fixture
        with pytest.raises(ObservabilityError, match="dotted lowercase"):
            recorder.begin("single_segment")  # lint: ignore[PW006] deliberately invalid fixture

    def test_sim_time_bounds_and_duration(self):
        recorder = SpanRecorder()
        span = recorder.begin("sim.engine.run", sim_start_s=2.0)
        recorder.end(span, sim_end_s=5.5)
        assert span.sim_duration_s == pytest.approx(3.5)

    def test_retention_cap_counts_dropped(self):
        recorder = SpanRecorder(max_spans=2)
        for index in range(5):
            recorder.end(recorder.begin("layer.op", index=index))
        assert len(recorder.to_records()) == 2
        assert recorder.dropped == 3

    def test_disabled_recorder_is_inert(self):
        assert not NULL_SPANS.enabled
        span = NULL_SPANS.begin("any.thing.goes")  # not even validated
        NULL_SPANS.end(span)
        assert NULL_SPANS.to_records() == []

    def test_adopt_grafts_worker_records(self):
        parent = SpanRecorder()
        root = parent.begin("runner.run_all")
        worker = SpanRecorder(id_prefix="t01.")
        task = worker.begin("runner.task", parent_id=root.span_id)
        worker.end(task)
        parent.adopt(worker.to_records())
        parent.end(root)
        records = parent.to_records()
        assert {r["span_id"] for r in records} == {root.span_id, "t01.1"}
        adopted = next(r for r in records if r["span_id"] == "t01.1")
        assert adopted["parent_id"] == root.span_id

    def test_jsonl_roundtrip(self, tmp_path):
        recorder = SpanRecorder()
        recorder.end(recorder.begin("layer.op", kind="x"))
        path = tmp_path / "spans.jsonl"
        assert recorder.to_jsonl(str(path)) == 1
        (line,) = path.read_text().strip().splitlines()
        record = json.loads(line)
        assert record["name"] == "layer.op" and record["type"] == "span"


class TestEngineSpans:
    def test_sim_run_emits_engine_span(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=2.0)
        records = obs_runtime.get_spans().to_records()
        (engine,) = [r for r in records if r["name"] == "sim.engine.run"]
        assert engine["sim_start_s"] == 0.0
        assert engine["sim_end_s"] == 2.0
        assert engine["labels"]["dispatched"] == 1

    def test_unobserved_sim_records_nothing(self):
        sim = Simulator(observe=False)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert obs_runtime.get_spans().to_records() == []

    def test_spans_never_perturb_results(self):
        """Seeded occupancy is bit-identical observed or under ``--no-obs``."""
        from repro.experiments.fig05_delay_sweep import measure_occupancy

        obs_runtime.configure(enabled=True)
        observed = measure_occupancy(100.0, 5, duration_s=0.2, seed=7)
        assert obs_runtime.get_spans().to_records()

        obs_runtime.configure(enabled=False)
        without_obs = measure_occupancy(100.0, 5, duration_s=0.2, seed=7)
        assert observed == without_obs

    def test_driver_run_records_coarse_spans(self):
        """One span per testbed build and engine run, none per transmission."""
        from repro.experiments.fig05_delay_sweep import measure_occupancy

        measure_occupancy(100.0, 5, duration_s=0.2, seed=7)
        names = sorted(r["name"] for r in obs_runtime.get_spans().to_records())
        assert names == ["experiments.base.build_testbed", "sim.engine.run"]


class TestRunAllSpanTree:
    def test_parallel_run_builds_one_tree(self, tmp_path):
        from repro.runner import run_all

        result = run_all(
            ids=["fig9", "table1"],
            jobs=2,
            use_cache=False,
        )
        by_name = {}
        for record in result.spans:
            by_name.setdefault(record["name"], []).append(record)
        (root,) = by_name["runner.run_all"]
        assert root["parent_id"] is None
        tasks = by_name["runner.task"]
        assert len(tasks) == 2
        assert all(t["parent_id"] == root["span_id"] for t in tasks)
        # Worker-minted ids carry the per-task prefix.
        assert all(t["span_id"].startswith("t0") for t in tasks)
        assert {t["labels"]["experiment"] for t in tasks} == {"fig9", "table1"}

    def test_engine_spans_nest_under_tasks(self, monkeypatch):
        """Acceptance shape: root -> per-experiment -> >=1 engine span."""
        from repro.experiments import sweeps
        from repro.runner import run_all

        real_fig5_sweep = sweeps.fig5_sweep

        def tiny_fig5_sweep(seed, **kwargs):
            return real_fig5_sweep(
                seed, thresholds=(1,), delays_us=(10.0,), duration_s=0.05
            )

        monkeypatch.setattr(sweeps, "fig5_sweep", tiny_fig5_sweep)
        result = run_all(ids=["fig5"], jobs=1, use_cache=False)
        # The reduced sweep trips the full-size shape check by design; the
        # driver itself must have run clean for the span tree to be valid.
        assert result.run_for("fig5").error is None
        spans = result.spans
        (root,) = [r for r in spans if r["name"] == "runner.run_all"]
        tasks = [r for r in spans if r["name"] == "runner.task"]
        assert tasks and all(t["parent_id"] == root["span_id"] for t in tasks)
        task_ids = {t["span_id"] for t in tasks}
        engine = [r for r in spans if r["name"] == "sim.engine.run"]
        assert engine, "no engine spans under the run"
        by_id = {r["span_id"]: r for r in spans}

        def has_task_ancestor(record):
            seen = set()
            while record is not None and record["span_id"] not in seen:
                seen.add(record["span_id"])
                parent = record.get("parent_id")
                if parent in task_ids:
                    return True
                record = by_id.get(parent)
            return False

        assert all(has_task_ancestor(r) for r in engine)

    def test_no_obs_propagates_to_workers(self):
        from repro.runner import run_all

        obs_runtime.configure(enabled=False)
        result = run_all(ids=["fig9", "table1"], jobs=2, use_cache=False)
        assert result.ok
        assert result.spans == []
        for run in result.runs:
            for part in run.parts:
                assert part.engine.get("dispatched", 0) == 0

    def test_worker_engine_profile_surfaces_in_parts(self, monkeypatch):
        """A pool worker's engine profile rides back onto its part."""
        from repro.experiments import sweeps
        from repro.runner import run_all

        real_fig5_sweep = sweeps.fig5_sweep

        def tiny_fig5_sweep(seed, **kwargs):
            return real_fig5_sweep(
                seed, thresholds=(1, 5), delays_us=(10.0,), duration_s=0.05
            )

        monkeypatch.setattr(sweeps, "fig5_sweep", tiny_fig5_sweep)
        result = run_all(ids=["fig5"], jobs=2, use_cache=False)
        (run,) = result.runs
        assert run.error is None  # reduced sweep fails only the shape check
        assert len(run.parts) == 2  # two parts -> genuinely pooled
        for part in run.parts:
            assert part.engine["dispatched"] > 0


class TestRenderTree:
    def test_renders_nested_tree_with_sim_time(self):
        records = [
            {
                "span_id": "s1",
                "parent_id": None,
                "name": "runner.run_all",
                "labels": {},
                "wall_s": 2.0,
                "status": "ok",
            },
            {
                "span_id": "s2",
                "parent_id": "s1",
                "name": "runner.task",
                "labels": {"experiment": "fig5"},
                "wall_s": 1.0,
                "sim_start_s": 0.0,
                "sim_end_s": 3.0,
                "status": "ok",
            },
        ]
        text = render_span_tree(records)
        lines = text.splitlines()
        assert lines[0].startswith("runner.run_all")
        assert lines[1].startswith("  runner.task{experiment=fig5}")
        assert "sim 3s" in lines[1]

    def test_orphans_render_at_top_level(self):
        records = [
            {
                "span_id": "t09.4",
                "parent_id": "dropped",
                "name": "sim.engine.run",
                "labels": {},
                "wall_s": 0.5,
                "status": "ok",
            }
        ]
        text = render_span_tree(records)
        assert text.startswith("sim.engine.run")

    def test_max_depth_truncates(self):
        records = [
            {"span_id": "a", "parent_id": None, "name": "l.a", "labels": {}, "wall_s": 1.0, "status": "ok"},
            {"span_id": "b", "parent_id": "a", "name": "l.b", "labels": {}, "wall_s": 0.5, "status": "ok"},
            {"span_id": "c", "parent_id": "b", "name": "l.c", "labels": {}, "wall_s": 0.2, "status": "ok"},
        ]
        assert len(render_span_tree(records, max_depth=1).splitlines()) == 2

    def test_error_status_flagged(self):
        records = [
            {
                "span_id": "s1",
                "parent_id": None,
                "name": "layer.broken",
                "labels": {},
                "wall_s": 0.1,
                "status": "error",
            }
        ]
        assert "[error]" in render_span_tree(records)


class TestSpansCli:
    def test_spans_subcommand_writes_jsonl_and_tree(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(["spans", "fig9", "--output", str(tmp_path / "spans.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "== fig9 spans ==" in out
        assert "cli.spans.run" in out
        assert (tmp_path / "spans.jsonl").is_file()

    def test_spans_input_mode_renders_existing_export(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "spans.jsonl"
        path.write_text(
            json.dumps(
                {
                    "span_id": "s1",
                    "parent_id": None,
                    "name": "layer.op",
                    "labels": {},
                    "wall_s": 1.0,
                    "status": "ok",
                }
            )
            + "\n"
        )
        assert main(["spans", "--input", str(path)]) == 0
        assert "layer.op" in capsys.readouterr().out

    def test_spans_requires_exactly_one_source(self, capsys):
        from repro.cli import main

        assert main(["spans"]) == 2
        assert "exactly one" in capsys.readouterr().err
