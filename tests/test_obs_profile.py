"""Attribution profiler: engine attribution, rows, determinism, flame output.

Pins the profiler's contract: every dispatched kind gets a component and a
sim-time window, attribution (minus the host-dependent wall columns) is
byte-identical at equal seed, collapsed stacks follow the
flamegraph.pl/speedscope grammar, and ``--no-obs`` leaves no attribution
state anywhere.
"""

import json

import pytest

from repro import quickstart_powifi
from repro.errors import ObservabilityError
from repro.obs import runtime as obs_runtime
from repro.obs.profile import (
    KindRow,
    aggregate_rows,
    attributed_wall_s,
    collapse_stacks,
    coverage,
    deterministic_records,
    kind_baselines,
    render_attribution,
    rows_from_engine,
    rows_from_manifest,
    rows_from_metrics_jsonl,
    sort_rows,
    write_flame,
)
from repro.sim.engine import Simulator, _component_of


class _Widget:
    def poke(self) -> None:
        pass


def _free_function() -> None:
    pass


class TestComponentResolution:
    def test_bound_method_resolves_to_owner_class(self):
        widget = _Widget()
        assert _component_of(widget.poke) == f"{__name__}._Widget"

    def test_free_function_resolves_to_module(self):
        assert _component_of(_free_function) == __name__

    def test_partial_unwraps_to_inner_callable(self):
        from functools import partial

        widget = _Widget()
        assert _component_of(partial(widget.poke)) == f"{__name__}._Widget"

    def test_lambda_never_raises(self):
        assert isinstance(_component_of(lambda: None), str)


class TestEngineAttribution:
    def setup_method(self):
        obs_runtime.configure(enabled=True)

    def teardown_method(self):
        obs_runtime.configure(enabled=True)

    def test_stats_carry_components_and_sim_bounds(self):
        sim = Simulator(observe=True)
        widget = _Widget()
        sim.schedule(0.25, widget.poke, name="poke")
        sim.schedule(0.75, widget.poke, name="poke")
        sim.schedule(0.5, _free_function, name="free")
        sim.run()
        stats = sim.stats
        assert stats.callback_components["poke"] == f"{__name__}._Widget"
        assert stats.callback_components["free"] == __name__
        assert stats.callback_sim_bounds["poke"] == [0.25, 0.75]
        assert stats.callback_sim_bounds["free"] == [0.5, 0.5]
        as_dict = stats.to_dict()
        assert as_dict["callback_components"]["poke"] == f"{__name__}._Widget"
        json.dumps(as_dict)

    def test_runtime_aggregate_merges_bounds_across_simulators(self):
        for start in (0.1, 0.9):
            sim = Simulator()
            sim.schedule(start, _free_function, name="tick")
            sim.run()
        merged = obs_runtime.aggregate_engine_stats()
        assert merged["callback_sim_bounds"]["tick"] == [0.1, 0.9]
        assert merged["callback_components"]["tick"] == __name__

    def test_no_obs_keeps_no_attribution(self):
        obs_runtime.configure(enabled=False)
        quickstart_powifi(duration_s=0.1, seed=0)
        merged = obs_runtime.aggregate_engine_stats()
        assert merged["simulators"] == 0
        assert merged["callback_counts"] == {}
        assert rows_from_engine(merged) == []


class TestRows:
    def test_rows_from_engine_sorted_and_tolerant_of_legacy(self):
        legacy = {"callback_counts": {"b": 2, "a": 1}, "callback_wall_s": {"a": 0.5}}
        rows = rows_from_engine(legacy, experiment="fig5", part="all")
        assert [row.kind for row in rows] == ["a", "b"]
        assert rows[0].component == "" and rows[0].sim_first_s is None
        assert rows[0].wall_s == 0.5 and rows[1].wall_s == 0.0
        assert rows[0].experiment == "fig5"

    def test_aggregate_merges_and_widens_bounds(self):
        rows = [
            KindRow("tick", "m.C", 2, 0.1, 0.0, 1.0, "fig5", "t=1"),
            KindRow("tick", "m.C", 3, 0.2, 0.5, 4.0, "fig5", "t=5"),
        ]
        merged = aggregate_rows(rows)
        assert len(merged) == 1
        row = merged[0]
        assert row.count == 5 and row.wall_s == pytest.approx(0.3)
        assert (row.sim_first_s, row.sim_last_s) == (0.0, 4.0)
        assert row.experiment == "fig5" and row.part == ""  # parts differed
        by_part = aggregate_rows(rows, by_part=True)
        assert len(by_part) == 2

    def test_sort_rows_orders_and_validates(self):
        rows = [KindRow("a", "", 1, 0.5), KindRow("b", "", 9, 0.1)]
        assert [r.kind for r in sort_rows(rows, "wall")] == ["a", "b"]
        assert [r.kind for r in sort_rows(rows, "count")] == ["b", "a"]
        with pytest.raises(ObservabilityError, match="unknown profile sort"):
            sort_rows(rows, "vibes")

    def test_coverage_fraction(self):
        rows = [KindRow("a", "", 1, 1.5), KindRow("b", "", 1, 0.5)]
        assert attributed_wall_s(rows) == pytest.approx(2.0)
        assert coverage(rows, 4.0) == pytest.approx(0.5)
        assert coverage(rows, 0.0) == 0.0


class TestDeterminism:
    def setup_method(self):
        obs_runtime.configure(enabled=True)

    def teardown_method(self):
        obs_runtime.configure(enabled=True)

    def _attribution_bytes(self) -> bytes:
        obs_runtime.configure(enabled=True)
        quickstart_powifi(duration_s=0.2, seed=7)
        rows = rows_from_engine(
            obs_runtime.aggregate_engine_stats(), experiment="quickstart", part="all"
        )
        assert rows, "quickstart must dispatch simulator events"
        return json.dumps(deterministic_records(rows), sort_keys=True).encode()

    def test_equal_seed_gives_byte_identical_attribution(self):
        assert self._attribution_bytes() == self._attribution_bytes()

    def test_deterministic_records_exclude_wall(self):
        record = deterministic_records([KindRow("a", "m", 1, 123.456, 0.0, 1.0)])[0]
        assert "wall_s" not in record
        assert record["count"] == 1 and record["kind"] == "a"


class TestCollapsedStacks:
    def test_format_and_sanitisation(self):
        rows = [
            KindRow("tx done", "pkg.Mod;ule", 10, 0.002, 0.0, 1.0, "fig5", "t=1"),
            KindRow("cheap", "pkg.C", 5, 0.0, None, None, "fig5", "t=1"),
            KindRow("never", "pkg.C", 0, 0.0),
        ]
        lines = collapse_stacks(rows)
        assert len(lines) == 2  # zero-count rows are skipped
        for line in lines:
            stack, _, value = line.rpartition(" ")
            frames = stack.split(";")
            assert len(frames) == 4 and all(frames), line
            assert int(value) >= 1
        assert "fig5;t=1;pkg.Mod:ule;tx_done 2000" in lines

    def test_write_flame_roundtrip(self, tmp_path):
        path = tmp_path / "flame.txt"
        count = write_flame([KindRow("a", "m.C", 1, 0.001, 0.0, 1.0, "e", "p")], path)
        assert count == 1
        assert path.read_text() == "e;p;m.C;a 1000\n"


class TestRenderAndBaselines:
    def test_render_attribution_table(self):
        rows = [
            KindRow("hot", "m.Hot", 100, 1.8, 0.0, 5.0, "fig7", "all"),
            KindRow("cold", "m.Cold", 10, 0.1, 0.0, 5.0, "fig7", "all"),
        ]
        text = render_attribution(rows, total_wall_s=2.0, top=1)
        assert "hot" in text and "m.Hot" in text
        assert "cold" not in text.splitlines()[1]
        assert "... 1 more kind(s)" in text
        assert "attributed 1.900s of 2.000s measured (95.0%)" in text

    def test_kind_baselines_fold_parts(self):
        rows = [
            KindRow("tick", "m.C", 2, 0.1, 0.0, 1.0, "fig5", "t=1"),
            KindRow("tick", "m.C", 3, 0.2, 0.0, 1.0, "fig5", "t=5"),
            KindRow("tock", "m.D", 1, 0.05, 0.0, 1.0, "fig8", "all"),
        ]
        baselines = kind_baselines(rows)
        assert list(baselines) == ["tick", "tock"]
        assert baselines["tick"] == {
            "component": "m.C",
            "count": 5,
            "wall_s": pytest.approx(0.3),
        }


def make_profiled_manifest(wall=0.5, count=100):
    """A minimal v4 manifest whose single part carries a profile section."""
    return {
        "schema": 4,
        "generated_unix_s": 1700000000.0,
        "seed": 0,
        "jobs": 1,
        "code_fingerprint": "feed" * 10,
        "cache": {"enabled": False},
        "totals": {"experiments": 1, "wall_s": wall},
        "experiments": [
            {
                "id": "fig7",
                "runtime_class": "fast",
                "seed": 0,
                "cache_hit": False,
                "duration_s": wall,
                "shape_ok": True,
                "shape_detail": "",
                "result_sha256": "c" * 64,
                "error": None,
                "parts": [
                    {
                        "part": "all",
                        "key": "0" * 64,
                        "cache_hit": False,
                        "duration_s": wall,
                        "engine": {
                            "simulators": 1,
                            "dispatched": count,
                            "cancelled": 0,
                            "heap_high_watermark": 5,
                            "profile": {
                                "tick": {
                                    "component": "m.C",
                                    "count": count,
                                    "wall_s": wall * 0.9,
                                    "sim_first_s": 0.0,
                                    "sim_last_s": 5.0,
                                }
                            },
                        },
                        "metrics": {"records": 0, "counter_totals": {}},
                    }
                ],
            }
        ],
    }


class TestManifestAndHistoryIntegration:
    def test_rows_from_manifest(self):
        rows = rows_from_manifest(make_profiled_manifest())
        assert len(rows) == 1
        row = rows[0]
        assert (row.kind, row.component, row.experiment, row.part) == (
            "tick",
            "m.C",
            "fig7",
            "all",
        )
        assert rows_from_manifest({"experiments": []}) == []

    def test_history_record_carries_kind_baselines(self):
        from repro.obs.history import build_history_record

        record = build_history_record(make_profiled_manifest())
        assert record["kinds"]["tick"]["count"] == 100
        assert record["kinds"]["tick"]["component"] == "m.C"
        # Pre-v4 manifests (no profile sections) degrade to empty kinds.
        bare = make_profiled_manifest()
        del bare["experiments"][0]["parts"][0]["engine"]["profile"]
        assert build_history_record(bare)["kinds"] == {}

    def test_compare_names_the_regressed_kind_without_failing(self):
        from repro.obs.compare import compare_runs, render_compare
        from repro.obs.history import build_history_record

        base = build_history_record(make_profiled_manifest(wall=2.0, count=100))
        slow = build_history_record(make_profiled_manifest(wall=4.0, count=150))
        # Equalise whole-run walls so only the kind delta is in play:
        # attribution is advisory and must not flip the verdict alone.
        for exp in slow["experiments"].values():
            exp["wall_s"] = 2.0
        report = compare_runs(base, slow)
        assert report["kind_regressions"] == ["tick"]
        assert report["kind_deltas"][0]["delta_count"] == 50
        assert report["regressed"] is False
        assert "kind hot-spot" in render_compare(report)

    def test_run_manifest_parts_carry_profile(self):
        from repro.runner import run_all
        from repro.runner.manifest import build_manifest

        obs_runtime.configure(enabled=True)
        result = run_all(ids=["fig14"], jobs=1, use_cache=False)
        manifest = build_manifest(result)
        for entry in manifest["experiments"]:
            for part in entry["parts"]:
                assert "profile" in part["engine"]
        obs_runtime.configure(enabled=True)


class TestMetricsJsonlRows:
    def test_rows_from_metrics_jsonl(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        engine = {
            "type": "engine",
            "callback_counts": {"tick": 3},
            "callback_wall_s": {"tick": 0.1},
            "callback_components": {"tick": "m.C"},
            "callback_sim_bounds": {"tick": [0.0, 2.0]},
        }
        path.write_text(
            json.dumps({"type": "counter", "name": "x", "value": 1})
            + "\n"
            + json.dumps(engine)
            + "\n"
        )
        rows = rows_from_metrics_jsonl(path)
        assert len(rows) == 1 and rows[0].count == 3
        path.write_text("not json\n")
        with pytest.raises(ObservabilityError, match="malformed metrics record"):
            rows_from_metrics_jsonl(path)


class TestProfileCli:
    def test_profile_manifest_input(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run_manifest.json"
        path.write_text(json.dumps(make_profiled_manifest()))
        flame = tmp_path / "flame.txt"
        code = main(["profile", "--input", str(path), "--flame", str(flame)])
        assert code == 0
        out = capsys.readouterr().out
        assert "== profile:" in out and "tick" in out and "m.C" in out
        assert flame.read_text().startswith("fig7;all;m.C;tick ")

    def test_profile_requires_exactly_one_source(self, capsys):
        from repro.cli import main

        assert main(["profile"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_profile_rejects_no_obs(self, capsys):
        from repro.cli import main

        assert main(["profile", "fig7", "--no-obs"]) == 2
        assert "requires observability" in capsys.readouterr().err

    def test_metrics_triage_from_input(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run_metrics.jsonl"
        engine = {
            "type": "engine",
            "callback_counts": {"tick": 3, "tock": 1},
            "callback_wall_s": {"tick": 0.1, "tock": 0.4},
            "callback_components": {"tick": "m.C", "tock": "m.D"},
            "callback_sim_bounds": {},
        }
        path.write_text(json.dumps(engine) + "\n")
        assert main(["metrics", "--input", str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "metrics triage" in out
        assert "tock" in out  # wall-sorted: tock is the hot kind
        assert (
            main(["metrics", "--input", str(path), "--top", "1", "--sort", "count"])
            == 0
        )
        assert "tick" in capsys.readouterr().out

    def test_metrics_input_without_engine_record_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        # What run-all writes to run_metrics.jsonl: instruments, no engine record.
        path = tmp_path / "run_metrics.jsonl"
        path.write_text(
            json.dumps({"type": "counter", "name": "runner.cache.hits", "value": 1})
            + "\n"
        )
        assert main(["metrics", "--input", str(path), "--top", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"metrics: no attribution data in {path} ")
        assert "profile --input run_manifest.json" in captured.err

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        absent = tmp_path / "absent.jsonl"
        assert main(["metrics", "--input", str(absent)]) == 2
        assert capsys.readouterr().err.startswith(
            f"metrics: cannot read {absent}: "
        )
        spans = tmp_path / "spans.jsonl"
        spans.write_text("[1, 2]\n")
        assert main(["spans", "--input", str(spans)]) == 2
        assert f"{spans}:1: malformed span record" in capsys.readouterr().err

    def test_metrics_top_zero_prints_no_kinds_in_either_mode(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli

        engine = {
            "type": "engine",
            "simulators": 1,
            "dispatched": 4,
            "cancelled": 0,
            "heap_high_watermark": 2,
            "callback_counts": {"tick": 3, "tock": 1},
            "callback_wall_s": {"tick": 0.1, "tock": 0.4},
            "callback_components": {"tick": "m.C", "tock": "m.D"},
            "callback_sim_bounds": {},
        }
        path = tmp_path / "run_metrics.jsonl"
        path.write_text(json.dumps(engine) + "\n")
        monkeypatch.setattr(cli, "_run_driver", lambda key, seed: None)
        monkeypatch.setattr(
            cli.obs_runtime, "aggregate_engine_stats", lambda: dict(engine)
        )

        def kind_lines(argv):
            assert cli.main(argv) == 0
            out = capsys.readouterr().out.splitlines()
            return [line for line in out if line.split()[:1] in (["tick"], ["tock"])]

        triage = ["metrics", "--input", str(path), "--top"]
        run = ["metrics", "fig7", "--output", str(tmp_path / "m.jsonl"), "--top"]
        assert kind_lines(triage + ["0"]) == []
        assert kind_lines(run + ["0"]) == []
        assert len(kind_lines(triage + ["1"])) == 1
        assert len(kind_lines(run + ["1"])) == 1
