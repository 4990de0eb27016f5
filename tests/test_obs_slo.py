"""Unit tests for the domain SLO engine (`repro.obs.slo`).

Everything here is pure-fold territory: spec parsing and validation,
the three evaluator kinds, domain metric references, run-level
assembly, and the determinism contract the manifest `slo` section rests
on.
"""

import json
from pathlib import Path

import pytest

from repro.errors import ObservabilityError
from repro.obs.slo import (
    SLO_SCHEMA_VERSION,
    Objective,
    evaluate_manifest,
    evaluate_objective,
    evaluate_specs,
    exit_code,
    load_default_specs,
    load_spec,
    objective,
    parse_spec,
    render_section,
    section_from_rows,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def spec_data(**overrides):
    """A minimal valid spec dict, overridable per test."""
    data = {
        "schema": SLO_SCHEMA_VERSION,
        "experiment": "fig7",
        "objectives": [
            {
                "id": "client.demo.threshold",
                "metric": "client.demo.value",
                "kind": "threshold",
                "op": ">=",
                "value": 1.0,
            }
        ],
    }
    data.update(overrides)
    return data


class TestObjectiveValidation:
    def test_valid_objective_normalises_numbers(self):
        obj = objective("client.tcp.ratio", "client.tcp.ratio", value=1)
        assert obj.value == 1.0 and isinstance(obj.value, float)

    @pytest.mark.parametrize("bad_id", ["Nope", "single", "a.B.c", "", "a..b"])
    def test_bad_ids_rejected(self, bad_id):
        # The literal id reaches objective() through the spec loader: PW006
        # holds every objective() call site to a well-formed literal id.
        data = spec_data(objectives=[{"id": bad_id, "metric": "client.demo.value"}])
        with pytest.raises(ObservabilityError, match="bad objective id"):
            parse_spec(data)

    @pytest.mark.parametrize(
        "bad_metric",
        [
            "UPPER.case",
            "plain",
            "registry:x",
            "registry:a.b#p95",
            "registry:a.b#nope",
            "registry:engine.events.dispatched",
            "registry:harvester.voltage_v{device=cam}#p99",
            "registry:sensor.reads#rate",
        ],
    )
    def test_bad_metric_refs_rejected(self, bad_metric):
        with pytest.raises(ObservabilityError, match="bad .*metric reference"):
            objective("client.demo.obj", bad_metric)

    @pytest.mark.parametrize("good_metric", ["client.tcp.ratio"])
    def test_good_metric_refs_accepted(self, good_metric):
        assert objective("client.demo.obj", good_metric).metric == good_metric

    def test_unknown_kind_op_and_value_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown kind"):
            objective("client.demo.obj", "client.demo.value", kind="slope")
        with pytest.raises(ObservabilityError, match="unknown op"):
            objective("client.demo.obj", "client.demo.value", op=">")
        with pytest.raises(ObservabilityError, match="value must be a number"):
            objective("client.demo.obj", "client.demo.value", value="1.0")
        with pytest.raises(ObservabilityError, match="value must be a number"):
            objective("client.demo.obj", "client.demo.value", value=True)

    def test_window_kind_needs_positive_window_and_known_reduce(self):
        with pytest.raises(ObservabilityError, match="window_s > 0"):
            objective("client.demo.obj", "client.demo.series", kind="window")
        with pytest.raises(ObservabilityError, match="window_s > 0"):
            objective(
                "client.demo.obj", "client.demo.series", kind="window", window_s=0
            )
        with pytest.raises(ObservabilityError, match="unknown reduce"):
            objective(
                "client.demo.obj",
                "client.demo.series",
                kind="window",
                window_s=5.0,
                reduce="p99",
            )

    @pytest.mark.parametrize("bad_budget", [None, -0.1, 1.5, True])
    def test_burn_rate_needs_budget_in_unit_interval(self, bad_budget):
        with pytest.raises(ObservabilityError, match="budget in \\[0, 1\\]"):
            objective(
                "client.demo.obj",
                "client.demo.series",
                kind="burn_rate",
                budget=bad_budget,
            )


class TestSpecParsing:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(spec_data()))
        spec = load_spec(path)
        assert spec.experiment == "fig7"
        assert spec.objectives[0].id == "client.demo.threshold"
        assert spec.path == str(path)

    def test_missing_file_and_malformed_json(self, tmp_path):
        with pytest.raises(ObservabilityError, match="cannot read"):
            load_spec(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ObservabilityError, match="malformed JSON"):
            load_spec(bad)

    def test_structural_errors(self):
        with pytest.raises(ObservabilityError, match="must be an object"):
            parse_spec(["not", "a", "dict"])
        with pytest.raises(ObservabilityError, match="schema"):
            parse_spec(spec_data(schema=99))
        with pytest.raises(ObservabilityError, match="missing experiment"):
            parse_spec(spec_data(experiment=""))
        with pytest.raises(ObservabilityError, match="non-empty list"):
            parse_spec(spec_data(objectives=[]))

    def test_unknown_keys_and_duplicate_ids(self):
        entry = dict(spec_data()["objectives"][0])
        entry["threshold"] = 2.0  # typo for "value"
        with pytest.raises(ObservabilityError, match=r"unknown keys \['threshold'\]"):
            parse_spec(spec_data(objectives=[entry]))
        duplicate = spec_data()["objectives"][0]
        with pytest.raises(ObservabilityError, match="duplicate objective id"):
            parse_spec(spec_data(objectives=[duplicate, dict(duplicate)]))

    def test_objective_errors_carry_spec_path_and_index(self):
        entry = dict(spec_data()["objectives"][0], op="!=")
        with pytest.raises(
            ObservabilityError, match=r"my\.json: objectives\[0\]"
        ):
            parse_spec(spec_data(objectives=[entry]), path="my.json")

    def test_every_repo_default_spec_parses(self):
        paths = sorted((REPO_ROOT / "slos").glob("*.json"))
        assert paths, "repo slos/ directory should ship default specs"
        for path in paths:
            spec = load_spec(path)
            assert spec.objectives

    def test_load_default_specs_skips_absent_files_but_loads_repo_defaults(
        self, tmp_path
    ):
        # Explicit empty root: registered defaults exist but files don't.
        assert load_default_specs(["fig7", "fig12"], root=tmp_path) == []
        # Unregistered experiment: silently nothing.
        assert load_default_specs(["fig1"], root=REPO_ROOT) == []
        specs = load_default_specs(["fig7"], root=REPO_ROOT)
        assert [spec.experiment for spec in specs] == ["fig7"]


class TestThresholdEvaluator:
    def obj(self, **kw):
        defaults = dict(op=">=", value=1.0)
        defaults.update(kw)
        return objective("client.demo.obj", "client.demo.value", **defaults)

    def test_scalar_pass_and_margin(self):
        row = evaluate_objective(self.obj(), {"client.demo.value": 1.25})
        assert row["status"] == "ok"
        assert row["actual"] == 1.25
        assert row["margin"] == 0.25

    def test_scalar_violation_negative_margin(self):
        row = evaluate_objective(self.obj(), {"client.demo.value": 0.75})
        assert row["status"] == "violated"
        assert row["margin"] == -0.25

    def test_le_direction_flips_margin_sign(self):
        row = evaluate_objective(
            self.obj(op="<=", value=0.5), {"client.demo.value": 0.3}
        )
        assert row["status"] == "ok" and row["margin"] == 0.2

    def test_threshold_over_series_reduces_first(self):
        obj = objective(
            "client.demo.obj", "client.demo.series", reduce="min", value=1.0
        )
        domain = {"client.demo.series": {"window_s": 1.0, "samples": [2.0, 0.5, 3.0]}}
        row = evaluate_objective(obj, domain)
        assert row["status"] == "violated" and row["actual"] == 0.5

    def test_missing_metric_and_wrong_shape_skip(self):
        row = evaluate_objective(self.obj(), {})
        assert row["status"] == "skipped" and "not found" in row["reason"]
        row = evaluate_objective(self.obj(), {"client.demo.value": "fast"})
        assert row["status"] == "skipped"
        assert row["actual"] is None and row["margin"] is None


class TestWindowEvaluator:
    def obj(self, **kw):
        defaults = dict(kind="window", op=">=", value=1.0, window_s=2.0)
        defaults.update(kw)
        return objective("client.demo.obj", "client.demo.series", **defaults)

    def test_worst_sliding_window_catches_transient_dip(self):
        # Mean is 1.5 (passing) but the 2-sample window [0.4, 0.6] is not.
        domain = {
            "client.demo.series": {
                "window_s": 1.0,
                "samples": [2.5, 2.5, 0.4, 0.6, 2.5, 2.5],
            }
        }
        row = evaluate_objective(self.obj(), domain)
        assert row["status"] == "violated"
        assert row["actual"] == 0.5
        assert row["worst_window"] == {"start_s": 2.0, "end_s": 4.0, "value": 0.5}

    def test_le_direction_worst_is_the_maximum_window(self):
        domain = {
            "client.demo.series": {"window_s": 1.0, "samples": [0.1, 0.9, 0.2]}
        }
        row = evaluate_objective(self.obj(op="<=", window_s=1.0), domain)
        assert row["worst_window"]["value"] == 0.9
        assert row["status"] == "ok"  # 0.9 <= 1.0

    def test_scalar_metric_skips_window_kind(self):
        row = evaluate_objective(self.obj(), {"client.demo.series": 1.5})
        assert row["status"] == "skipped" and "not a series" in row["reason"]


class TestBurnRateEvaluator:
    def obj(self, budget=0.25):
        return objective(
            "client.demo.obj",
            "client.demo.series",
            kind="burn_rate",
            op=">=",
            value=1.0,
            budget=budget,
        )

    def test_fraction_within_budget_passes(self):
        domain = {
            "client.demo.series": {
                "window_s": 1.0,
                "samples": [2.0, 0.5, 2.0, 2.0],  # 1/4 violating == budget
            }
        }
        row = evaluate_objective(self.obj(), domain)
        assert row["status"] == "ok"
        assert row["actual"] == 0.25 and row["margin"] == 0.0
        assert row["worst_window"] == {"start_s": 1.0, "end_s": 2.0, "samples": 1}

    def test_fraction_over_budget_violates_with_streak(self):
        domain = {
            "client.demo.series": {
                "window_s": 1.0,
                "samples": [0.5, 0.5, 2.0, 0.5],  # 3/4 violating
            }
        }
        row = evaluate_objective(self.obj(), domain)
        assert row["status"] == "violated"
        assert row["actual"] == 0.75 and row["margin"] == -0.5
        # Longest streak is samples 0-1.
        assert row["worst_window"] == {"start_s": 0.0, "end_s": 2.0, "samples": 2}

    def test_no_violations_has_no_streak(self):
        domain = {"client.demo.series": {"window_s": 1.0, "samples": [2.0, 2.0]}}
        row = evaluate_objective(self.obj(), domain)
        assert row["status"] == "ok" and row["worst_window"] is None


class TestRunLevelEvaluation:
    def specs(self):
        return [
            parse_spec(spec_data(), path="slos/fig7.json"),
            parse_spec(
                spec_data(
                    experiment="fig12",
                    objectives=[
                        {
                            "id": "camera.demo.range",
                            "metric": "camera.demo.range_feet",
                            "value": 10.0,
                        }
                    ],
                ),
                path="slos/fig12.json",
            ),
        ]

    def manifest(self):
        return {
            "experiments": [
                {
                    "id": "fig7",
                    "error": None,
                    "domain": {"client.demo.value": 1.5},
                },
                {"id": "fig12", "error": "boom", "domain": {}},
            ]
        }

    def test_absent_and_failed_experiments_skip(self):
        rows = evaluate_specs(
            self.specs(), {"fig7": {"client.demo.value": 1.5}}, errors={}
        )
        by_exp = {row["experiment"]: row for row in rows}
        assert by_exp["fig7"]["status"] == "ok"
        assert by_exp["fig12"]["reason"] == "experiment not in run"
        rows = evaluate_specs(
            self.specs(),
            {"fig7": {}, "fig12": {}},
            errors={"fig12": "ValueError: boom"},
        )
        by_exp = {row["experiment"]: row for row in rows}
        assert by_exp["fig12"]["reason"] == "experiment failed"

    def test_section_counts_and_exit_codes(self):
        section = evaluate_manifest(self.manifest(), self.specs())
        assert section["schema"] == SLO_SCHEMA_VERSION
        assert section["counts"] == {"ok": 1, "violated": 0, "skipped": 1}
        assert section["ok"] is True
        assert section["specs"] == ["slos/fig12.json", "slos/fig7.json"]
        assert exit_code(section) == 0
        assert exit_code(section, strict=True) == 1  # skips gate under strict
        violating = evaluate_manifest(
            {
                "experiments": [
                    {"id": "fig7", "error": None, "domain": {"client.demo.value": 0.1}}
                ]
            },
            self.specs()[:1],
        )
        assert violating["ok"] is False
        assert exit_code(violating) == 1

    def test_rows_sorted_by_experiment_then_id(self):
        section = evaluate_manifest(self.manifest(), self.specs())
        keys = [(row["experiment"], row["id"]) for row in section["objectives"]]
        assert keys == sorted(keys)

    def test_equal_inputs_give_byte_identical_sections(self):
        a = evaluate_manifest(self.manifest(), self.specs())
        b = evaluate_manifest(self.manifest(), self.specs())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_render_section_scorecard(self):
        section = evaluate_manifest(self.manifest(), self.specs())
        text = render_section(section)
        assert "== slo == ok=1 violated=0 skipped=1" in text
        assert "PASS" in text and "SKIP" in text and "experiment failed" in text

    def test_violation_demo_spec_fails_a_seedlike_domain(self):
        spec = load_spec(REPO_ROOT / "slos" / "violation_demo.json")
        section = evaluate_manifest(
            {
                "experiments": [
                    {
                        "id": "fig7",
                        "error": None,
                        "domain": {"channel.occupancy.cumulative.mean": 1.246060859},
                    }
                ]
            },
            [spec],
        )
        assert section["counts"]["violated"] == 1
        assert exit_code(section) == 1
