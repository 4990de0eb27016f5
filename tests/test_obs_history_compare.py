"""Perf-history recording and manifest regression diffing.

Pins the history record schema, the append/snapshot file behaviour, and the
``repro compare`` contract: wall regressions beyond the threshold fail, an
equal-seed equal-code hash mismatch is determinism drift and always fails,
and two records of the same run diff clean with exit code 0.
"""

import copy
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.compare import compare_runs, load_run, render_compare
from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    append_history,
    build_history_record,
    load_history,
    write_bench_snapshot,
)


def make_manifest(
    seed=0,
    fingerprint="cafe" * 10,
    shas=("a" * 64, "b" * 64),
    walls=(2.0, 4.0),
    cache_hits=(False, False),
    dispatched=(100, 200),
):
    """A minimal schema-2 manifest with two experiments."""
    experiments = []
    for index, exp_id in enumerate(("fig5", "fig14")):
        experiments.append(
            {
                "id": exp_id,
                "runtime_class": "fast",
                "seed": seed,
                "cache_hit": cache_hits[index],
                "duration_s": walls[index],
                "shape_ok": True,
                "shape_detail": "",
                "result_sha256": shas[index],
                "error": None,
                "parts": [
                    {
                        "part": "all",
                        "key": "0" * 64,
                        "cache_hit": cache_hits[index],
                        "duration_s": walls[index],
                        "engine": {
                            "simulators": 1,
                            "dispatched": dispatched[index],
                            "cancelled": 0,
                            "heap_high_watermark": 7 + index,
                        },
                        "metrics": {"records": 3, "counter_totals": {}},
                    }
                ],
            }
        )
    return {
        "schema": 2,
        "generated_unix_s": 1700000000.0,
        "jobs": 2,
        "seed": seed,
        "code_fingerprint": fingerprint,
        "cache": {"enabled": True, "dir": ".repro_cache", "experiments_hit": 0},
        "totals": {
            "experiments": 2,
            "ok": 2,
            "failed": 0,
            "cache_hits": 0,
            "wall_s": sum(walls),
            "events_dispatched": sum(dispatched),
        },
        "spans": {"schema": 1, "count": 0, "records": []},
        "experiments": experiments,
    }


class TestHistoryRecord:
    def test_record_shape_and_schema(self):
        record = build_history_record(make_manifest())
        assert record["schema"] == HISTORY_SCHEMA_VERSION
        assert record["kind"] == "perf_history"
        assert record["date"] == "2023-11-14"  # from generated_unix_s
        assert record["seed"] == 0
        assert set(record["experiments"]) == {"fig5", "fig14"}
        fig5 = record["experiments"]["fig5"]
        assert fig5["wall_s"] == 2.0
        assert fig5["events_dispatched"] == 100
        assert fig5["heap_high_watermark"] == 7
        assert record["totals"]["events_dispatched"] == 300
        assert record["totals"]["heap_high_watermark"] == 8

    def test_manifest_without_experiments_rejected(self):
        with pytest.raises(ObservabilityError, match="no experiments"):
            build_history_record({"schema": 2})

    def test_append_and_load_roundtrip(self, tmp_path):
        record = build_history_record(make_manifest())
        path = append_history(record, tmp_path)
        append_history(record, tmp_path)
        assert path.name == "perf_history.jsonl"
        loaded = load_history(path)
        assert len(loaded) == 2
        assert loaded[0] == loaded[1] == record

    def test_load_tolerates_blank_lines_rejects_garbage(self, tmp_path):
        path = tmp_path / "perf_history.jsonl"
        path.write_text('{"schema": 1}\n\n{"ok": true}\n')
        assert len(load_history(path)) == 2
        path.write_text("not json\n")
        with pytest.raises(ObservabilityError, match="malformed history record"):
            load_history(path)

    def test_bench_snapshot_named_by_date(self, tmp_path):
        record = build_history_record(make_manifest())
        path = write_bench_snapshot(record, tmp_path)
        assert path.name == "BENCH_2023-11-14.json"
        assert json.loads(path.read_text()) == record


class TestLoadRun:
    def test_loads_manifest_and_history_interchangeably(self, tmp_path):
        manifest = make_manifest()
        manifest_path = tmp_path / "run_manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        record = build_history_record(manifest)
        history_path = append_history(record, tmp_path)
        bench_path = write_bench_snapshot(record, tmp_path)
        from_manifest = load_run(manifest_path)
        assert from_manifest == record
        assert load_run(history_path) == record
        assert load_run(bench_path) == record

    def test_jsonl_uses_latest_record(self, tmp_path):
        old = build_history_record(make_manifest(walls=(1.0, 1.0)))
        new = build_history_record(make_manifest(walls=(9.0, 9.0)))
        append_history(old, tmp_path)
        path = append_history(new, tmp_path)
        assert load_run(path)["experiments"]["fig5"]["wall_s"] == 9.0

    def test_unrecognised_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ObservabilityError, match="neither"):
            load_run(path)


class TestCompareRuns:
    def _records(self, base_manifest, new_manifest):
        return (
            build_history_record(base_manifest),
            build_history_record(new_manifest),
        )

    def test_identical_runs_diff_clean(self):
        base, new = self._records(make_manifest(), make_manifest())
        report = compare_runs(base, new)
        assert report["regressed"] is False
        assert report["wall_regressions"] == []
        assert report["determinism_drift"] == []
        assert report["seeds_match"] and report["code_match"]
        assert "verdict: OK" in render_compare(report)

    def test_wall_regression_beyond_threshold_flags(self):
        base, new = self._records(
            make_manifest(walls=(2.0, 4.0)), make_manifest(walls=(2.0, 6.0))
        )
        report = compare_runs(base, new, wall_threshold=0.25)
        assert report["regressed"] is True
        assert report["wall_regressions"] == ["fig14"]
        assert "REGRESSION" in render_compare(report)

    def test_speedup_never_flags(self):
        base, new = self._records(
            make_manifest(walls=(4.0, 4.0)), make_manifest(walls=(1.0, 1.0))
        )
        assert compare_runs(base, new)["regressed"] is False

    def test_sub_floor_jitter_ignored(self):
        """A 10x slowdown on a 10 ms experiment is noise, not regression."""
        base, new = self._records(
            make_manifest(walls=(0.01, 0.02)), make_manifest(walls=(0.1, 0.2))
        )
        assert compare_runs(base, new, min_wall_s=0.5)["regressed"] is False

    def test_cache_hits_untimed(self):
        base, new = self._records(
            make_manifest(walls=(2.0, 4.0)),
            make_manifest(walls=(0.0, 40.0), cache_hits=(False, True)),
        )
        report = compare_runs(base, new)
        fig14 = next(row for row in report["wall"] if row["id"] == "fig14")
        assert fig14["timed"] is False and fig14["regressed"] is False

    def test_drift_at_equal_seed_and_code_fails(self):
        base, new = self._records(
            make_manifest(shas=("a" * 64, "b" * 64)),
            make_manifest(shas=("a" * 64, "c" * 64)),
        )
        report = compare_runs(base, new)
        assert report["regressed"] is True
        assert [row["id"] for row in report["determinism_drift"]] == ["fig14"]
        assert "DETERMINISM DRIFT" in render_compare(report)

    def test_hash_mismatch_across_seeds_is_not_drift(self):
        base, new = self._records(
            make_manifest(seed=0, shas=("a" * 64, "b" * 64)),
            make_manifest(seed=1, shas=("x" * 64, "y" * 64)),
        )
        report = compare_runs(base, new)
        assert report["determinism_drift"] == []
        assert report["seeds_match"] is False

    def test_hash_mismatch_across_code_is_not_drift(self):
        base, new = self._records(
            make_manifest(fingerprint="aaaa", shas=("a" * 64, "b" * 64)),
            make_manifest(fingerprint="bbbb", shas=("x" * 64, "y" * 64)),
        )
        assert compare_runs(base, new)["determinism_drift"] == []

    def test_metric_deltas_reported(self):
        base, new = self._records(
            make_manifest(dispatched=(100, 200)),
            make_manifest(dispatched=(100, 250)),
        )
        report = compare_runs(base, new)
        (delta,) = report["metric_deltas"]
        assert delta == {
            "id": "fig14",
            "delta_events_dispatched": 50,
            "delta_heap_high_watermark": 0,
        }

    def test_disjoint_experiments_reported_not_compared(self):
        base = build_history_record(make_manifest())
        new = copy.deepcopy(base)
        new["experiments"]["fig99"] = new["experiments"].pop("fig14")
        report = compare_runs(base, new)
        assert report["only_in_base"] == ["fig14"]
        assert report["only_in_new"] == ["fig99"]
        assert report["shared_experiments"] == 1

    def test_negative_threshold_rejected(self):
        base, new = self._records(make_manifest(), make_manifest())
        with pytest.raises(ObservabilityError, match="threshold"):
            compare_runs(base, new, wall_threshold=-0.1)


class TestCompareCli:
    def _write(self, tmp_path, name, manifest):
        path = tmp_path / name
        path.write_text(json.dumps(manifest))
        return str(path)

    def test_clean_compare_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        a = self._write(tmp_path, "a.json", make_manifest())
        b = self._write(tmp_path, "b.json", make_manifest())
        assert main(["compare", a, b]) == 0
        out = capsys.readouterr().out
        assert "determinism: 0 drifting results" in out
        assert "verdict: OK" in out

    def test_injected_regression_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        a = self._write(tmp_path, "a.json", make_manifest(walls=(2.0, 4.0)))
        b = self._write(tmp_path, "b.json", make_manifest(walls=(2.0, 8.0)))
        assert main(["compare", a, b]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_flag_loosens_the_gate(self, tmp_path):
        from repro.cli import main

        a = self._write(tmp_path, "a.json", make_manifest(walls=(2.0, 4.0)))
        b = self._write(tmp_path, "b.json", make_manifest(walls=(2.0, 8.0)))
        assert main(["compare", a, b, "--threshold", "1.5"]) == 0

    def test_missing_file_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        a = self._write(tmp_path, "a.json", make_manifest())
        assert main(["compare", a, str(tmp_path / "nope.json")]) == 2
        assert "compare:" in capsys.readouterr().err

    def test_torn_final_history_line_is_skipped(self, tmp_path, capsys):
        """A kill during the last append leaves a line with no newline;
        compare reads the history up to it instead of refusing the file."""
        from repro.cli import main

        record = build_history_record(make_manifest())
        path = append_history(record, tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record)[:40])
        assert load_history(path) == [record]
        assert main(["compare", str(path), str(path)]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_manifest_entry_without_id_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        manifest = make_manifest()
        del manifest["experiments"][0]["id"]
        a = self._write(tmp_path, "a.json", manifest)
        assert main(["compare", a, a]) == 2
        assert "no experiments[] of entries with an id" in capsys.readouterr().err

    def test_json_output_parses(self, tmp_path, capsys):
        from repro.cli import main

        a = self._write(tmp_path, "a.json", make_manifest())
        b = self._write(tmp_path, "b.json", make_manifest())
        assert main(["compare", a, b, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["type"] == "compare"
        assert report["regressed"] is False


class TestEndToEndAcceptance:
    """The issue's acceptance path: two equal-seed run-alls diff clean."""

    def test_equal_seed_runs_have_zero_drift(self, tmp_path, capsys):
        from repro.cli import main

        manifests = []
        for index in range(2):
            path = tmp_path / f"m{index}.json"
            code = main(
                [
                    "run-all",
                    "--ids",
                    "fig9,table1",
                    "--jobs",
                    str(index + 1),
                    "--no-cache",
                    "--report",
                    str(path),
                    "--history-dir",
                    str(tmp_path / "hist"),
                ]
            )
            assert code == 0
            manifests.append(str(path))
        capsys.readouterr()
        assert main(["compare", manifests[0], manifests[1]]) == 0
        out = capsys.readouterr().out
        assert "determinism: 0 drifting results" in out
        history = load_history(tmp_path / "hist" / "perf_history.jsonl")
        assert len(history) == 2
        assert all(r["kind"] == "perf_history" for r in history)


def with_slo(manifest, status="ok", margin=0.25):
    """Attach a minimal v5 slo section to a make_manifest() manifest."""
    manifest = copy.deepcopy(manifest)
    manifest["slo"] = {
        "schema": 1,
        "specs": ["slos/fig5.json"],
        "counts": {
            "ok": 1 if status == "ok" else 0,
            "violated": 0 if status == "ok" else 1,
            "skipped": 0,
        },
        "ok": status == "ok",
        "objectives": [
            {
                "experiment": "fig5",
                "id": "client.demo.objective",
                "status": status,
                "margin": margin,
            }
        ],
    }
    return manifest


class TestSloInHistoryAndCompare:
    def test_history_record_carries_slo_summary(self):
        record = build_history_record(with_slo(make_manifest()))
        assert record["slo"]["counts"]["ok"] == 1
        assert record["slo"]["objectives"]["fig5:client.demo.objective"] == {
            "status": "ok",
            "margin": 0.25,
        }

    def test_manifest_without_slo_yields_empty_summary(self):
        assert build_history_record(make_manifest())["slo"] == {}

    def test_compare_reports_slo_flip_as_advisory(self):
        base = build_history_record(with_slo(make_manifest()))
        new = build_history_record(
            with_slo(make_manifest(), status="violated", margin=-0.1)
        )
        report = compare_runs(base, new)
        assert report["slo_flips"] == ["fig5:client.demo.objective"]
        row = report["slo_deltas"][0]
        assert row["base_status"] == "ok" and row["new_status"] == "violated"
        assert row["delta_margin"] == pytest.approx(-0.35)
        # Advisory: an SLO flip alone never regresses the compare verdict —
        # `repro slo --strict` is the SLO gate.
        assert report["regressed"] is False
        text = render_compare(report)
        assert "SLO flip" in text and "gate with 'repro slo'" in text

    def test_margin_drift_without_flip_reported(self):
        base = build_history_record(with_slo(make_manifest(), margin=0.25))
        new = build_history_record(with_slo(make_manifest(), margin=0.20))
        report = compare_runs(base, new)
        assert report["slo_flips"] == []
        assert report["slo_deltas"][0]["delta_margin"] == pytest.approx(-0.05)

    def test_identical_slo_sections_diff_silent(self):
        base = build_history_record(with_slo(make_manifest()))
        report = compare_runs(base, copy.deepcopy(base))
        assert report["slo_deltas"] == [] and report["slo_flips"] == []
