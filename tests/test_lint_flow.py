"""Tests for ``repro.lint.flow``: the project indexer, each PW1xx rule
(true positive + near-miss false positive), the one-pass driver and its
incremental cache, the CLI surface, SARIF output, and determinism of the
whole pass.

The PW101 and PW103 regression fixtures are derived from real repo
shapes: the MinstrelLite controller's ``rng or RandomStreams(0).stream``
default (two components falling back to the same root lineage) and the
runner's ``TaskSpec.kwargs`` dict crossing ``pool.submit`` (PR 5's
``worker.unpicklable`` fault scenario).
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.config import LintConfig
from repro.lint.engine import flow_lint_sources, lint_paths
from repro.lint.findings import Severity
from repro.lint.flow import (
    ModuleFacts,
    ProjectIndex,
    all_flow_rules,
    extract_facts,
    get_flow_rule,
)
from repro.lint.flow.cache import FlowCache, config_digest, content_hash
from repro.lint.sarif import render_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent


def facts_for(source, module="repro.sim.snippet", config=None):
    path = module.replace(".", "/") + ".py"
    return extract_facts(
        textwrap.dedent(source), path, module, config or LintConfig()
    )


def flow_codes(findings):
    return [f.code for f in findings]


def run_flow(modules, config=None):
    return flow_lint_sources(
        {name: textwrap.dedent(src) for name, src in modules.items()},
        config=config,
    )


class TestFlowRegistry:
    def test_all_five_rules_registered(self):
        assert [r.code for r in all_flow_rules()] == [
            "PW101", "PW102", "PW103", "PW104", "PW105",
        ]

    def test_get_flow_rule_and_unknown(self):
        assert get_flow_rule("pw101").code == "PW101"
        with pytest.raises(KeyError):
            get_flow_rule("PW199")

    def test_rules_have_docs_and_names(self):
        for rule in all_flow_rules():
            assert rule.name and rule.description and rule.__doc__

    def test_registries_do_not_overlap(self):
        from repro.lint.rules import all_rules

        per_file = {r.code for r in all_rules()}
        flow = {r.code for r in all_flow_rules()}
        assert not per_file & flow


class TestIndexer:
    def test_defs_classes_and_method_params(self):
        facts = facts_for(
            """
            def top(a_dbm, b):
                def inner(x):
                    return x
                return inner(a_dbm)

            class Widget:
                def __init__(self, gain_dbi):
                    self.gain_dbi = gain_dbi

                def poke(self, n):
                    return n
            """
        )
        assert facts.defs["top"]["params"] == ["a_dbm", "b"]
        assert facts.defs["top.inner"]["params"] == ["x"]
        # self is stripped from method signatures.
        assert facts.defs["Widget.__init__"]["params"] == ["gain_dbi"]
        assert facts.classes["Widget"]["methods"] == ["__init__", "poke"]

    def test_import_resolved_calls_and_target_literals(self):
        facts = facts_for(
            """
            from repro.rf.link import path_loss
            import repro.sim.engine as eng

            TARGET = "repro.experiments.fig01:run"
            NOT_TARGET = "just a sentence: with colon"

            def go(d_m):
                path_loss(d_m)
                eng.Simulator()
            """
        )
        callees = {c["callee"] for c in facts.calls}
        assert "repro.rf.link.path_loss" in callees
        assert "repro.sim.engine.Simulator" in callees
        assert facts.target_literals == ["repro.experiments.fig01:run"]

    def test_project_index_resolution_and_edges(self):
        index = ProjectIndex(
            [
                facts_for(
                    """
                    from repro.sim.model import step

                    def run(seed):
                        return step(seed)
                    """,
                    module="repro.experiments.fig01",
                ),
                facts_for(
                    """
                    def step(seed):
                        return seed

                    class Engine:
                        def tick(self):
                            return self._advance()

                        def _advance(self):
                            return 1
                    """,
                    module="repro.sim.model",
                ),
            ]
        )
        assert (
            index.resolve_dotted("repro.experiments.fig01", "repro.sim.model.step")
            == "repro.sim.model:step"
        )
        assert index.resolve_target("repro.experiments.fig01:run")
        assert index.resolve_target("repro.experiments.fig01:missing") is None
        edges = index.edges()
        assert "repro.sim.model:step" in edges["repro.experiments.fig01:run"]
        # self.method calls resolve within the class.
        assert edges["repro.sim.model:Engine.tick"] == [
            "repro.sim.model:Engine._advance"
        ]

    def test_callback_references_create_edges(self):
        index = ProjectIndex(
            [
                facts_for(
                    """
                    class Pump:
                        def start(self, sim):
                            sim.schedule(0.0, self._tick)

                        def _tick(self):
                            return 1
                    """,
                    module="repro.sim.pump",
                )
            ]
        )
        edges = index.edges()
        assert "repro.sim.pump:Pump._tick" in edges["repro.sim.pump:Pump.start"]

    def test_facts_round_trip_through_dict(self):
        facts = facts_for(
            """
            def run(seed):  # lint: ignore[PW102] fixture
                return seed
            """
        )
        clone = ModuleFacts.from_dict(
            json.loads(json.dumps(facts.to_dict()))
        )
        assert clone.to_dict() == facts.to_dict()
        assert clone.pragmas == facts.pragmas


class TestPW101StreamCollision:
    def test_true_positive_two_owners_same_name(self):
        findings = run_flow(
            {
                "repro.sim.alpha": """
                class Alpha:
                    def __init__(self, streams):
                        self.rng = streams.stream("noise")
                """,
                "repro.sim.beta": """
                class Beta:
                    def __init__(self, streams):
                        self.rng = streams.stream("noise")
                """,
            }
        )
        assert flow_codes(findings) == ["PW101", "PW101"]
        assert "correlated draws" in findings[0].message

    def test_regression_fixture_minstrel_default_rng_shape(self):
        # Derived from the real MinstrelLite default: a component falling
        # back to ``RandomStreams(0).stream(name)`` inside its own ctor.
        # Two such components share the root lineage and the name.
        findings = run_flow(
            {
                "repro.mac80211.rate_a": """
                from repro.sim.rng import RandomStreams

                class RateController:
                    def __init__(self, rng=None):
                        self._rng = rng or RandomStreams(0).stream("mac.minstrel.probe")
                """,
                "repro.mac80211.rate_b": """
                from repro.sim.rng import RandomStreams

                class ProbeScheduler:
                    def __init__(self, rng=None):
                        self._rng = rng or RandomStreams(0).stream("mac.minstrel.probe")
                """,
            }
        )
        assert flow_codes(findings) == ["PW101", "PW101"]

    def test_near_miss_fork_derived_receivers(self):
        findings = run_flow(
            {
                "repro.sim.alpha": """
                class Alpha:
                    def __init__(self, root, index):
                        self.streams = root.fork(f"home{index}")
                        self.rng = self.streams.stream("noise")
                """,
                "repro.sim.beta": """
                class Beta:
                    def __init__(self, root):
                        self.rng = root.fork("beta").stream("noise")
                """,
            }
        )
        assert findings == []

    def test_near_miss_same_owner_two_sites(self):
        findings = run_flow(
            {
                "repro.sim.alpha": """
                class Alpha:
                    def __init__(self, streams):
                        self.rng = streams.stream("noise")

                    def reset(self, streams):
                        self.rng = streams.stream("noise")
                """,
            }
        )
        assert findings == []

    def test_stream_and_fork_namespaces_are_distinct(self):
        # RandomStreams.fork prefixes labels with "fork:", so .stream("x")
        # and .fork("x") cannot collide.
        findings = run_flow(
            {
                "repro.sim.alpha": """
                class Alpha:
                    def __init__(self, streams):
                        self.rng = streams.stream("x")
                """,
                "repro.sim.beta": """
                class Beta:
                    def __init__(self, streams):
                        self.child = streams.fork("x")
                """,
            }
        )
        assert findings == []


class TestPW102Reachability:
    FIXTURE = {
        "repro.registry": """
        SPECS = {"fig1": "repro.experiments.fig01:run"}
        """,
        "repro.experiments.fig01": """
        from repro.sim.model import step

        def run(seed):
            return step(seed)
        """,
    }

    def test_true_positive_transitive_sink(self):
        findings = run_flow(
            {
                **self.FIXTURE,
                "repro.sim.model": """
                import random

                def step(seed):
                    return random.random()
                """,
            }
        )
        assert flow_codes(findings) == ["PW102"]
        assert "repro.experiments.fig01:run -> repro.sim.model:step" in (
            findings[0].message
        )

    def test_true_positive_through_class_construction(self):
        findings = run_flow(
            {
                **self.FIXTURE,
                "repro.sim.model": """
                import os

                class Noise:
                    def draw(self):
                        return os.urandom(4)

                def step(seed):
                    return Noise()
                """,
            }
        )
        assert flow_codes(findings) == ["PW102"]

    def test_near_miss_unreachable_sink(self):
        findings = run_flow(
            {
                **self.FIXTURE,
                "repro.sim.model": """
                def step(seed):
                    return seed
                """,
                "repro.tools.scratch": """
                import random

                def roll():
                    return random.random()
                """,
            }
        )
        assert findings == []

    def test_near_miss_sink_inside_rng_module(self):
        findings = run_flow(
            {
                "repro.registry": """
                SPECS = {"fig1": "repro.experiments.fig01:run"}
                """,
                "repro.experiments.fig01": """
                from repro.sim.rng import RandomStreams

                def run(seed):
                    return RandomStreams(seed).stream("arrivals").random()
                """,
                "repro.sim.rng": """
                import random

                class RandomStreams:
                    def __init__(self, seed=0):
                        self._seed = seed

                    def stream(self, name):
                        return random.Random(self._seed)
                """,
            }
        )
        assert findings == []


class TestPW103PickleSafety:
    def test_regression_fixture_lambda_in_taskspec_kwargs(self):
        # Derived from the runner's real pool crossing: TaskSpec.kwargs is
        # pickled into the worker by pool.submit(execute_task, spec) — the
        # shape PR 5's worker.unpicklable fault exercises at runtime.
        findings = run_flow(
            {
                "repro.runner.plan": """
                from repro.runner.tasks import TaskSpec

                def build(obs):
                    transform = lambda x: x + 1
                    return TaskSpec(
                        experiment_id="fig1",
                        part="p0",
                        target="repro.experiments.fig01:run",
                        kwargs={"transform": transform},
                        seed=0,
                        obs=obs,
                    )
                """,
            }
        )
        assert flow_codes(findings) == ["PW103"]
        assert "lambda" in findings[0].message

    def test_true_positive_open_handle_via_submit(self):
        findings = run_flow(
            {
                "repro.runner.plan": """
                from repro.runner.tasks import execute_task

                def drive(pool, spec):
                    handle = open("log.txt")
                    pool.submit(execute_task, spec, handle)
                """,
            }
        )
        assert flow_codes(findings) == ["PW103"]
        assert "open file handle" in findings[0].message

    def test_true_positive_module_level_mutable_state(self):
        findings = run_flow(
            {
                "repro.runner.plan": """
                from repro.runner.tasks import TaskSpec

                _SHARED = {}

                def build(obs):
                    return TaskSpec(
                        experiment_id="fig1",
                        part="p0",
                        target="repro.experiments.fig01:run",
                        kwargs={"state": _SHARED},
                        seed=0,
                        obs=obs,
                    )
                """,
            }
        )
        assert flow_codes(findings) == ["PW103"]
        assert "diverges silently" in findings[0].message

    def test_near_miss_plain_picklable_values(self):
        findings = run_flow(
            {
                "repro.runner.plan": """
                from repro.runner.tasks import TaskSpec

                def build(obs, n):
                    return TaskSpec(
                        experiment_id="fig1",
                        part="p0",
                        target="repro.experiments.fig01:run",
                        kwargs={"n": n, "scale": 2.0},
                        seed=0,
                        obs=obs,
                    )
                """,
            }
        )
        assert findings == []

    def test_near_miss_lambda_outside_pool_boundary(self):
        findings = run_flow(
            {
                "repro.runner.plan": """
                def local_only(values):
                    transform = lambda x: x + 1
                    return [transform(v) for v in values]
                """,
            }
        )
        assert findings == []


class TestPW104EventKinds:
    def test_true_positive_dead_subscription(self):
        findings = run_flow(
            {
                "repro.mac80211.medium": """
                def send(trace, now):
                    trace.emit(now, "medium", "mac.tx", ok=True)
                """,
                "repro.analysis": """
                def view(recorder):
                    return recorder.filter(kind="mac.txx")
                """,
            }
        )
        assert flow_codes(findings) == ["PW104"]
        assert "mac.txx" in findings[0].message

    def test_true_positive_emit_bypasses_wants_guard(self):
        findings = run_flow(
            {
                "repro.mac80211.medium": """
                def send(trace, now):
                    if trace.wants("mac.tx"):
                        trace.emit(now, "medium", "mac.tx", ok=True)
                        trace.emit(now, "medium", "mac.collision", n=2)
                """,
            }
        )
        assert flow_codes(findings) == ["PW104"]
        assert "mac.collision" in findings[0].message

    def test_near_miss_consistent_kinds(self):
        findings = run_flow(
            {
                "repro.mac80211.medium": """
                def send(trace, now):
                    if trace.wants("mac.tx"):
                        trace.emit(now, "medium", "mac.tx", ok=True)
                """,
                "repro.analysis": """
                def view(recorder):
                    return recorder.filter(kind="mac.tx")
                """,
            }
        )
        assert findings == []

    def test_near_miss_no_emits_indexed_at_all(self):
        # Linting a subtree without the producers must stay quiet.
        findings = run_flow(
            {
                "repro.analysis": """
                def view(recorder):
                    return recorder.filter(kind="mac.tx")
                """,
            }
        )
        assert findings == []

    def test_near_miss_wants_on_non_trace_receiver(self):
        # FaultPlan.wants shares the method name; receiver naming keeps
        # it out of the trace-kind pool.
        findings = run_flow(
            {
                "repro.mac80211.medium": """
                def send(trace, now):
                    trace.emit(now, "medium", "mac.tx", ok=True)
                """,
                "repro.cli_like": """
                def arm(fault_plan):
                    if fault_plan.wants("manifest.interrupt"):
                        return True
                """,
            }
        )
        assert findings == []


class TestPW105UnitFlow:
    def test_true_positive_cross_module_positional(self):
        findings = run_flow(
            {
                "repro.rf.link": """
                def path_gain(tx_dbm, dist_m):
                    return tx_dbm - dist_m
                """,
                "repro.experiments.fig02": """
                from repro.rf.link import path_gain

                def run(power_mw, span_ft):
                    return path_gain(power_mw, span_ft)
                """,
            }
        )
        assert flow_codes(findings) == ["PW105", "PW105"]
        assert "tx_dbm" in findings[0].message

    def test_true_positive_constructor_args(self):
        findings = run_flow(
            {
                "repro.rf.link": """
                class Antenna:
                    def __init__(self, gain_dbi):
                        self.gain_dbi = gain_dbi
                """,
                "repro.experiments.fig02": """
                from repro.rf.link import Antenna

                def run(power_mw):
                    return Antenna(power_mw)
                """,
            }
        )
        assert flow_codes(findings) == ["PW105"]
        assert "Antenna" in findings[0].message

    def test_near_miss_matching_suffixes_and_conversion(self):
        findings = run_flow(
            {
                "repro.rf.link": """
                def path_gain(tx_dbm, dist_m):
                    return tx_dbm - dist_m
                """,
                "repro.experiments.fig02": """
                from repro.rf.link import path_gain
                from repro.units import mw_to_dbm

                def run(power_mw, span_m):
                    return path_gain(mw_to_dbm(power_mw), span_m)
                """,
            }
        )
        assert findings == []

    def test_near_miss_unresolved_callee(self):
        findings = run_flow(
            {
                "repro.experiments.fig02": """
                import numpy as np

                def run(power_mw):
                    return np.log10(power_mw)
                """,
            }
        )
        assert findings == []


class TestFlowPragmas:
    def test_pragma_suppresses_flow_finding(self):
        findings = run_flow(
            {
                "repro.sim.alpha": """
                class Alpha:
                    def __init__(self, streams):
                        self.rng = streams.stream("noise")  # lint: ignore[PW101] intentional pairing
                """,
                "repro.sim.beta": """
                class Beta:
                    def __init__(self, streams):
                        self.rng = streams.stream("noise")
                """,
            }
        )
        # Only the un-pragma'd site reports.
        assert flow_codes(findings) == ["PW101"]
        assert findings[0].path == "repro/sim/beta.py"


def _write_tree(root, modules):
    """Materialise {relative path: source} under ``root``."""
    for relative, source in modules.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")


PROJECT = {
    "src/repro/registry.py": """
    SPECS = {"fig1": "repro.experiments.fig01:run"}
    """,
    "src/repro/experiments/fig01.py": """
    from repro.sim.model import step

    def run(seed):
        return step(seed)
    """,
    "src/repro/sim/model.py": """
    import random

    def step(seed):
        return random.random()
    """,
}


class TestFlowEngineAndCache:
    def make_config(self, tmp_path):
        return LintConfig(root=tmp_path, baseline="lint_baseline.json")

    def test_cold_then_warm_reuses_everything(self, tmp_path):
        _write_tree(tmp_path, PROJECT)
        config = self.make_config(tmp_path)
        cold, cold_stats = lint_paths(
            [str(tmp_path / "src")], config, use_baseline=False
        )
        warm, warm_stats = lint_paths(
            [str(tmp_path / "src")], config, use_baseline=False
        )
        assert cold_stats.parsed == 3 and cold_stats.reused == 0
        assert warm_stats.parsed == 0 and warm_stats.reused == 3
        assert [f.to_dict() for f in cold] == [f.to_dict() for f in warm]
        # PW002 (per-file) and PW102 (flow) both fire on the sink.
        assert sorted({f.code for f in warm}) == ["PW002", "PW102"]

    def test_edit_invalidates_only_that_module(self, tmp_path):
        _write_tree(tmp_path, PROJECT)
        config = self.make_config(tmp_path)
        lint_paths([str(tmp_path / "src")], config, use_baseline=False)
        model = tmp_path / "src/repro/sim/model.py"
        model.write_text(
            "def step(seed):\n    return seed\n", encoding="utf-8"
        )
        findings, stats = lint_paths(
            [str(tmp_path / "src")], config, use_baseline=False
        )
        assert stats.parsed == 1 and stats.reused == 2
        assert findings == []

    def test_each_module_is_parsed_once(self, tmp_path, monkeypatch):
        import ast

        _write_tree(tmp_path, PROJECT)
        config = self.make_config(tmp_path)
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        _, stats = lint_paths([str(tmp_path / "src")], config, use_baseline=False)
        assert stats.parsed == stats.files == 3
        assert sorted(parsed) == sorted(set(parsed)) and len(parsed) == 3
        parsed.clear()
        _, stats = lint_paths([str(tmp_path / "src")], config, use_baseline=False)
        assert stats.parsed == 0 and parsed == []

    def test_warm_run_does_not_rewrite_the_cache(self, tmp_path, monkeypatch):
        _write_tree(tmp_path, PROJECT)
        config = self.make_config(tmp_path)
        lint_paths([str(tmp_path / "src")], config, use_baseline=False)

        def refuse(cache):
            raise AssertionError("unchanged cache rewritten")

        monkeypatch.setattr(FlowCache, "save", refuse)
        _, stats = lint_paths([str(tmp_path / "src")], config, use_baseline=False)
        assert stats.reused == 3

    def test_path_sets_sharing_a_cache_do_not_evict_each_other(self, tmp_path):
        _write_tree(
            tmp_path,
            {**PROJECT, "tools/helper.py": "def helper(x):\n    return x\n"},
        )
        config = self.make_config(tmp_path)
        tree_a, tree_b = [str(tmp_path / "src")], [str(tmp_path / "tools")]
        lint_paths(tree_a, config, use_baseline=False)
        lint_paths(tree_b, config, use_baseline=False)
        _, stats = lint_paths(tree_a, config, use_baseline=False)
        assert stats.files == 3 and stats.reused == stats.files

    def test_deleted_module_is_pruned_from_the_cache(self, tmp_path):
        _write_tree(tmp_path, PROJECT)
        config = self.make_config(tmp_path)
        lint_paths([str(tmp_path / "src")], config, use_baseline=False)
        (tmp_path / "src/repro/sim/model.py").unlink()
        lint_paths([str(tmp_path / "src")], config, use_baseline=False)
        cache = json.loads(
            (tmp_path / ".repro_cache/flow_index.json").read_text()
        )
        assert sorted(cache["modules"]) == [
            "src/repro/experiments/fig01.py",
            "src/repro/registry.py",
        ]

    def test_no_cache_mode_never_writes(self, tmp_path):
        _write_tree(tmp_path, PROJECT)
        config = self.make_config(tmp_path)
        lint_paths(
            [str(tmp_path / "src")],
            config,
            use_baseline=False,
            use_cache=False,
        )
        assert not (tmp_path / ".repro_cache/flow_index.json").exists()

    def test_cache_rejects_config_change(self, tmp_path):
        _write_tree(tmp_path, PROJECT)
        config = self.make_config(tmp_path)
        lint_paths([str(tmp_path / "src")], config, use_baseline=False)
        from dataclasses import replace

        narrowed = replace(config, unit_suffixes=("dbm",))
        assert config_digest(narrowed) != config_digest(config)
        cache = FlowCache.for_config(narrowed)
        cache.path = tmp_path / ".repro_cache/flow_index.json"
        cache.config_digest = config_digest(narrowed)
        assert cache.load() is False

    def test_corrupt_cache_degrades_to_cold(self, tmp_path):
        _write_tree(tmp_path, PROJECT)
        config = self.make_config(tmp_path)
        lint_paths([str(tmp_path / "src")], config, use_baseline=False)
        cache_file = tmp_path / ".repro_cache/flow_index.json"
        cache_file.write_text("{not json", encoding="utf-8")
        findings, stats = lint_paths(
            [str(tmp_path / "src")], config, use_baseline=False
        )
        assert stats.parsed == 3 and stats.reused == 0
        assert sorted({f.code for f in findings}) == ["PW002", "PW102"]

    def test_syntax_error_yields_pw000_and_caches(self, tmp_path):
        _write_tree(
            tmp_path, {"src/repro/broken.py": "def nope(:\n    pass\n"}
        )
        config = self.make_config(tmp_path)
        findings, _ = lint_paths(
            [str(tmp_path / "src")], config, use_baseline=False
        )
        assert flow_codes(findings) == ["PW000"]
        replay, stats = lint_paths(
            [str(tmp_path / "src")], config, use_baseline=False
        )
        assert stats.reused == 1 and flow_codes(replay) == ["PW000"]

    def test_content_hash_is_stable(self):
        assert content_hash("x = 1\n") == content_hash("x = 1\n")
        assert content_hash("x = 1\n") != content_hash("x = 2\n")


class TestSarif:
    def test_document_shape_and_determinism(self, tmp_path):
        _write_tree(tmp_path, PROJECT)
        config = LintConfig(root=tmp_path)
        findings, _ = lint_paths(
            [str(tmp_path / "src")], config, use_baseline=False
        )
        first = render_sarif(findings)
        second = render_sarif(findings)
        assert first == second
        document = json.loads(first)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert "PW000" in rule_ids and "PW101" in rule_ids
        assert rule_ids == sorted(rule_ids)
        result = run["results"][0]
        assert result["ruleId"] in ("PW002", "PW102")
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(".py")
        assert location["region"]["startLine"] >= 1
        assert "reproLint/v1" in result["partialFingerprints"]

    def test_baselined_findings_become_suppressions(self):
        from repro.lint.findings import Finding

        finding = Finding(
            code="PW102",
            message="m",
            path="src/repro/x.py",
            line=3,
            severity=Severity.ERROR,
            line_text="x",
        )
        finding.baselined = True
        document = json.loads(render_sarif([finding]))
        result = document["runs"][0]["results"][0]
        assert result["suppressions"][0]["status"] == "accepted"


class TestFlowCli:
    def run_cli(self, tmp_path, *argv):
        _write_tree(
            tmp_path,
            {
                "pyproject.toml": """
                [tool.repro-lint]
                sim-packages = ["sim"]
                """,
                **PROJECT,
            },
        )
        return lint_main(
            [
                str(tmp_path / "src"),
                "--config",
                str(tmp_path / "pyproject.toml"),
                *argv,
            ]
        )

    def test_flow_exit_one_on_findings(self, tmp_path, capsys):
        code = self.run_cli(tmp_path, "--no-baseline")
        captured = capsys.readouterr()
        assert code == 1
        assert "PW102" in captured.out
        assert "lint: 3 file(s), 3 parsed" in captured.err

    def test_flow_and_changed_are_usage_errors(self, capsys):
        # One pass is the only pass: neither flag exists, and --flow is
        # not read as an abbreviation of --flow-cache.
        for argv in (["--flow"], ["--flow", "src"], ["--changed"]):
            with pytest.raises(SystemExit) as exc:
                lint_main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_sarif_format_round_trips(self, tmp_path, capsys):
        code = self.run_cli(tmp_path, "--no-baseline", "--format", "sarif")
        captured = capsys.readouterr()
        assert code == 1
        document = json.loads(captured.out)
        assert document["runs"][0]["results"]

    def test_flow_cache_flag_places_cache(self, tmp_path):
        cache_file = tmp_path / "elsewhere" / "flow.json"
        self.run_cli(
            tmp_path,
            "--no-baseline",
            "--flow-cache",
            str(cache_file),
        )
        assert cache_file.is_file()

    def test_no_flow_cache_leaves_no_file(self, tmp_path):
        self.run_cli(tmp_path, "--no-baseline", "--no-flow-cache")
        assert not (tmp_path / ".repro_cache").exists()


class TestSpecFilesCli:
    """PW006/PW007 spec checks run in the one pass, cache on (the
    default)."""

    def run_cli(self, tmp_path, relative, document):
        _write_tree(tmp_path, {"pyproject.toml": "[tool.repro-lint]\n"})
        spec = tmp_path / relative
        spec.parent.mkdir(parents=True)
        spec.write_text(json.dumps(document, indent=2), encoding="utf-8")
        code = lint_main(
            [
                str(spec.parent),
                "--config",
                str(tmp_path / "pyproject.toml"),
                "--no-baseline",
                "--format",
                "json",
            ]
        )
        return code

    def test_bad_slo_objective_id_is_pw006(self, tmp_path, capsys):
        code = self.run_cli(
            tmp_path,
            "slos/bad.json",
            {"schema": 1, "experiment": "fig7", "objectives": [{"id": "Bad Name!"}]},
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["code"] for f in report["findings"]] == ["PW006"]
        assert report["findings"][0]["path"] == "slos/bad.json"

    def test_unknown_campaign_experiment_is_pw007(self, tmp_path, capsys):
        code = self.run_cli(
            tmp_path,
            "campaigns/bad.json",
            {"campaign": "x", "seeds": [0], "experiments": [{"experiment": "nope"}]},
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["code"] for f in report["findings"]] == ["PW007"]
        assert "unknown experiment 'nope'" in report["findings"][0]["message"]


class TestBaselineHygieneCli:
    def seed_project(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "pyproject.toml": """
                [tool.repro-lint]
                sim-packages = ["sim"]
                """,
                **PROJECT,
            },
        )

    def cli(self, tmp_path, *argv):
        return lint_main(
            [
                str(tmp_path / "src"),
                "--config",
                str(tmp_path / "pyproject.toml"),
                *argv,
            ]
        )

    def test_stale_entry_warns_and_prunes(self, tmp_path, capsys):
        self.seed_project(tmp_path)
        baseline = tmp_path / "lint_baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "fingerprint": "feedfacefeedface",
                            "code": "PW002",
                            "path": "src/repro/sim/model.py",
                            "line": 1,
                            "line_text": "gone",
                            "justification": "obsolete",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        self.cli(tmp_path)
        assert "stale baseline entry feedfacefeedface" in capsys.readouterr().err
        self.cli(tmp_path, "--prune-baseline")
        captured = capsys.readouterr()
        assert "pruned 1 stale entry" in captured.err
        assert json.loads(baseline.read_text())["entries"] == []

    def test_entry_for_unlinted_path_is_not_stale(self, tmp_path, capsys):
        self.seed_project(tmp_path)
        baseline = tmp_path / "lint_baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "fingerprint": "feedfacefeedface",
                            "code": "PW002",
                            "path": "elsewhere/module.py",
                            "line": 1,
                            "line_text": "gone",
                            "justification": "still valid elsewhere",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        self.cli(tmp_path)
        assert "stale baseline entry" not in capsys.readouterr().err
        self.cli(tmp_path, "--prune-baseline")
        capsys.readouterr()
        assert len(json.loads(baseline.read_text())["entries"]) == 1

    def test_live_entry_keeps_justification_after_prune(self, tmp_path, capsys):
        self.seed_project(tmp_path)
        # Baseline the real PW002/PW102 findings, fill justifications,
        # then prune: nothing is stale, justifications survive.
        assert self.cli(tmp_path, "--write-baseline", "--no-baseline") == 0
        baseline = tmp_path / "lint_baseline.json"
        document = json.loads(baseline.read_text())
        for entry in document["entries"]:
            entry["justification"] = "kept on purpose"
        baseline.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert self.cli(tmp_path, "--prune-baseline") == 0
        assert "pruned 0" in capsys.readouterr().err
        entries = json.loads(baseline.read_text())["entries"]
        assert entries and all(
            entry["justification"] == "kept on purpose" for entry in entries
        )


class TestRealTree:
    def test_src_repro_flow_is_clean(self, tmp_path):
        from repro.lint.config import load_config

        config = load_config(REPO_ROOT / "pyproject.toml")
        findings, _ = lint_paths(
            [str(REPO_ROOT / "src" / "repro")],
            config,
            use_baseline=True,
            use_cache=True,
            cache_path=tmp_path / "flow_index.json",
        )
        active = [f for f in findings if not f.baselined]
        assert active == [], [f.render_text() for f in active]

    def test_flow_pass_is_deterministic_on_real_tree(self, tmp_path):
        from repro.lint.config import load_config

        config = load_config(REPO_ROOT / "pyproject.toml")
        runs = []
        for _ in range(2):
            findings, _ = lint_paths(
                [str(REPO_ROOT / "src" / "repro")],
                config,
                use_baseline=False,
                use_cache=True,
                cache_path=tmp_path / "flow_index.json",
            )
            runs.append(render_sarif(findings))
        assert runs[0] == runs[1]
