"""Registry specs: target validation, metadata consistency, seed routing,
and the shape-check verdict found by experiment id."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import (
    EXPERIMENTS,
    RUNTIME_CLASSES,
    SPECS,
    get_experiment,
    get_spec,
    resolve_target,
)
from repro.experiments import shapecheck
from repro.experiments.shapecheck import find_check, verdict


class TestTargetValidation:
    @pytest.mark.parametrize(
        "target",
        [
            "no_colon_at_all",
            "two:colons:here",
            ":leading_colon",
            "trailing_colon:",
            "repro..experiments:run",
            "repro.experiments:not an identifier",
            "repro.experiments:class",  # keyword
            "1module:func",
        ],
    )
    def test_malformed_targets_raise_configuration_error(self, target):
        with pytest.raises(ConfigurationError, match="malformed target"):
            resolve_target(target)

    def test_unimportable_module_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="cannot import"):
            resolve_target("repro.experiments.no_such_module:run")

    def test_missing_attribute_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="no attribute"):
            resolve_target("repro.experiments.registry:no_such_function")

    def test_valid_target_resolves(self):
        func = resolve_target("repro.experiments.table1_homes:run_table1")
        assert callable(func)

    def test_unknown_experiment_id(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            get_experiment("fig99")


class TestSpecConsistency:
    def test_specs_and_experiments_views_agree(self):
        assert set(SPECS) == set(EXPERIMENTS)
        for key, spec in SPECS.items():
            assert spec.id == key
            assert EXPERIMENTS[key] == spec.target

    def test_seventeen_experiments_registered(self):
        assert len(SPECS) == 17

    def test_runtime_classes_are_valid(self):
        for spec in SPECS.values():
            assert spec.runtime in RUNTIME_CLASSES, spec.id

    def test_every_driver_resolves(self):
        for spec in SPECS.values():
            assert callable(spec.resolve()), spec.id

    def test_every_shape_check_resolves(self):
        for spec in SPECS.values():
            assert callable(find_check(spec.id)), spec.id

    def test_every_sweep_factory_builds_a_plan(self):
        decomposed = set()
        for spec in SPECS.values():
            if spec.sweep is None:
                continue
            plan = resolve_target(spec.sweep)(seed=0)
            assert len(plan.parts) >= 2, spec.id
            assert callable(plan.merge), spec.id
            names = [part.name for part in plan.parts]
            assert len(names) == len(set(names)), f"{spec.id}: duplicate part names"
            decomposed.add(spec.id)
        assert {"fig5", "fig6a", "fig6b", "fig6c", "fig8", "fig14", "sec8c"} <= decomposed


class TestSeedRouting:
    def test_seeded_and_seedless_drivers_detected(self):
        assert get_spec("fig14").accepts_seed()
        assert get_spec("fig5").accepts_seed()
        assert not get_spec("fig13").accepts_seed()
        assert not get_spec("table1").accepts_seed()


class TestVerdict:
    def test_passing_check_gives_its_detail(self):
        ok, detail = verdict("table1", get_experiment("table1")())
        assert (ok, detail) == (True, "matches_paper=True")

    def test_raising_check_is_a_failed_verdict(self, monkeypatch):
        def broken(result):
            raise RuntimeError("boom")

        monkeypatch.setattr(shapecheck, "check_fig9", broken)
        assert verdict("fig9", None) == (False, "shape check raised RuntimeError: boom")

    def test_truthy_ok_becomes_a_bool(self, monkeypatch):
        monkeypatch.setattr(shapecheck, "check_fig9", lambda result: (1, "one"))
        assert verdict("fig9", None) == (True, "one")
