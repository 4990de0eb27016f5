"""Tests for ``repro.lint``: per-rule fixtures (true positive, clean, and
pragma-suppressed for each PW code), the engine/pragma/baseline/config
machinery, the CLI subcommand, and the self-clean gate on ``src/repro``."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.cli import main as lint_main
from repro.lint.config import LintConfig, _parse_toml_subset, load_config
from repro.lint.engine import active_errors, lint_paths, lint_source
from repro.lint.findings import Finding, Severity, render_json, render_text
from repro.lint.pragmas import collect_pragmas, is_suppressed
from repro.lint.rules import all_rules, get_rule, module_name_for

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A module path inside the simulation scope (PW001/PW003 apply).
SIM_MODULE = "repro.sim.snippet"
#: A module path outside it (driver-level code).
DRIVER_MODULE = "repro.experiments.snippet"


def run_lint(source, module=SIM_MODULE, config=None):
    return lint_source(textwrap.dedent(source), module=module, config=config)


def codes(findings):
    return [f.code for f in findings]


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert [r.code for r in all_rules()] == [
            "PW001", "PW002", "PW003", "PW004", "PW005", "PW006",
        ]

    def test_get_rule_and_unknown(self):
        assert get_rule("pw002").code == "PW002"
        with pytest.raises(KeyError):
            get_rule("PW999")

    def test_rules_have_docs_and_names(self):
        for rule in all_rules():
            assert rule.name and rule.description and rule.__doc__


class TestPW001WallClock:
    def test_true_positive_time_call(self):
        findings = run_lint(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert codes(findings) == ["PW001"]

    def test_true_positive_import_and_datetime(self):
        findings = run_lint(
            """
            from time import perf_counter
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        )
        assert codes(findings) == ["PW001", "PW001"]

    def test_true_positive_urandom(self):
        findings = run_lint("import os\nseed = os.urandom(8)\n")
        assert codes(findings) == ["PW001"]

    def test_clean_outside_sim_packages(self):
        findings = run_lint(
            "import time\n\ndef stamp():\n    return time.time()\n",
            module=DRIVER_MODULE,
        )
        assert findings == []

    def test_clean_sim_now(self):
        findings = run_lint(
            """
            def tick(sim):
                return sim.now + 1.0
            """
        )
        assert findings == []

    def test_pragma_suppression(self):
        findings = run_lint(
            """
            import time

            def stamp():
                return time.time()  # lint: ignore[PW001] profiling only
            """
        )
        assert findings == []


class TestPW002SeededRng:
    def test_true_positive_bare_random(self):
        findings = run_lint("import random\nrng = random.Random(7)\n")
        assert codes(findings) == ["PW002"]

    def test_true_positive_module_level_draw(self):
        findings = run_lint(
            "import random\n\ndef draw():\n    return random.expovariate(2.0)\n"
        )
        assert codes(findings) == ["PW002"]

    def test_true_positive_from_import_draw(self):
        findings = run_lint(
            "from random import uniform\n\ndef draw():\n    return uniform(0, 1)\n"
        )
        assert codes(findings) == ["PW002"]

    def test_true_positive_aliased_module(self):
        findings = run_lint(
            "import random as rnd\n\ndef draw():\n    return rnd.gauss(0, 1)\n"
        )
        assert codes(findings) == ["PW002"]

    def test_clean_injected_rng_and_annotation(self):
        findings = run_lint(
            """
            import random

            def draw(rng: random.Random) -> float:
                return rng.expovariate(2.0)
            """
        )
        assert findings == []

    def test_clean_inside_rng_module(self):
        findings = run_lint(
            "import random\nstream = random.Random(1)\n",
            module="repro.sim.rng",
        )
        assert findings == []

    def test_pragma_suppression(self):
        findings = run_lint(
            "import random\nrng = random.Random(7)  # lint: ignore[PW002]\n"
        )
        assert findings == []


class TestPW003SetIteration:
    def test_true_positive_for_over_set_call(self):
        findings = run_lint(
            """
            def drain(stations):
                for s in set(stations):
                    s.tick()
            """
        )
        assert codes(findings) == ["PW003"]

    def test_true_positive_comprehension_over_frozenset(self):
        findings = run_lint(
            "def names(items):\n    return [i.name for i in frozenset(items)]\n"
        )
        assert codes(findings) == ["PW003"]

    def test_true_positive_set_literal(self):
        findings = run_lint("for channel in {1, 6, 11}:\n    print(channel)\n")
        assert codes(findings) == ["PW003"]

    def test_clean_sorted_set(self):
        findings = run_lint(
            """
            def drain(stations):
                for s in sorted(set(stations)):
                    s.tick()
            """
        )
        assert findings == []

    def test_clean_outside_sim_packages(self):
        findings = run_lint(
            "def drain(xs):\n    for x in set(xs):\n        x.tick()\n",
            module=DRIVER_MODULE,
        )
        assert findings == []

    def test_pragma_suppression(self):
        findings = run_lint(
            """
            def drain(stations):
                for s in set(stations):  # lint: ignore[PW003] order-free sum
                    s.tick()
            """
        )
        assert findings == []


class TestPW004UnitSuffix:
    def test_true_positive_keyword_mismatch(self):
        findings = run_lint(
            """
            def run(configure, tx_mw):
                configure(power_dbm=tx_mw)
            """
        )
        assert codes(findings) == ["PW004"]

    def test_true_positive_positional_local_function(self):
        findings = run_lint(
            """
            def set_power(level_dbm):
                return level_dbm

            def run(tx_mw):
                return set_power(tx_mw)
            """
        )
        assert codes(findings) == ["PW004"]

    def test_true_positive_method_positional(self):
        findings = run_lint(
            """
            class Radio:
                def tune(self, freq_mhz):
                    return freq_mhz

                def scan(self, freq_hz):
                    return self.tune(freq_hz)
            """
        )
        assert codes(findings) == ["PW004"]

    def test_true_positive_addition_and_comparison(self):
        findings = run_lint(
            """
            def budget(rx_dbm, leak_mw, range_ft, range_m):
                total = rx_dbm + leak_mw
                return total if range_ft < range_m else 0.0
            """
        )
        assert codes(findings) == ["PW004", "PW004"]

    def test_clean_log_domain_link_budget(self):
        findings = run_lint(
            """
            def budget(tx_dbm, gain_dbi, path_loss_db):
                return tx_dbm + gain_dbi - path_loss_db
            """
        )
        assert findings == []

    def test_clean_converted_argument(self):
        findings = run_lint(
            """
            from repro.units import watts_to_dbm

            def run(configure, tx_w):
                configure(power_dbm=watts_to_dbm(tx_w))
            """
        )
        assert findings == []

    def test_clean_matching_suffixes(self):
        findings = run_lint(
            """
            def run(configure, tx_dbm, floor_dbm):
                configure(power_dbm=tx_dbm)
                return tx_dbm > floor_dbm
            """
        )
        assert findings == []

    def test_pragma_suppression(self):
        findings = run_lint(
            """
            def run(configure, tx_mw):
                configure(power_dbm=tx_mw)  # lint: ignore[PW004] raw probe
            """
        )
        assert findings == []


class TestPW005FloatTimeEquality:
    def test_true_positive_equality_on_seconds(self):
        findings = run_lint(
            """
            def at_end(t_s, end_s):
                return t_s == end_s
            """
        )
        assert codes(findings) == ["PW005"]

    def test_true_positive_not_equal_now(self):
        findings = run_lint(
            "def moved(sim, start_time):\n    return sim.now != start_time\n"
        )
        assert codes(findings) == ["PW005"]

    def test_clean_ordering_and_isclose(self):
        findings = run_lint(
            """
            import math

            def at_end(t_s, end_s):
                return t_s >= end_s or math.isclose(t_s, end_s)
            """
        )
        assert findings == []

    def test_clean_string_comparison_on_suffixed_name(self):
        # ``kind_s == "busy"`` compares names, not times.
        findings = run_lint(
            "def busy(kind_s):\n    return kind_s == \"busy\"\n"
        )
        assert findings == []

    def test_pragma_suppression(self):
        findings = run_lint(
            """
            def at_end(t_s, end_s):
                return t_s == end_s  # lint: ignore[PW005] exact sentinel
            """
        )
        assert findings == []


class TestPW006MetricNames:
    def test_true_positive_fstring_name(self):
        findings = run_lint(
            """
            def instrument(registry, channel):
                return registry.counter(f"mac.ch{channel}.tx")
            """
        )
        assert codes(findings) == ["PW006"]

    def test_true_positive_bad_format(self):
        findings = run_lint(
            "def instrument(registry):\n    return registry.gauge('BadName')\n"
        )
        assert codes(findings) == ["PW006"]

    def test_true_positive_single_segment(self):
        findings = run_lint(
            "def instrument(registry):\n    return registry.histogram('depth')\n"
        )
        assert codes(findings) == ["PW006"]

    def test_clean_dotted_literal_with_labels(self):
        findings = run_lint(
            """
            def instrument(registry, channel):
                return registry.counter("mac.medium.collisions", channel=channel)
            """
        )
        assert findings == []

    def test_clean_exempt_inside_metrics_module(self):
        findings = run_lint(
            "def fetch(self, name):\n    return self.counter(name)\n",
            module="repro.obs.metrics",
        )
        assert findings == []

    def test_pragma_suppression(self):
        findings = run_lint(
            """
            def instrument(registry, channel):
                return registry.counter(f"mac.ch{channel}.tx")  # lint: ignore[PW006]
            """
        )
        assert findings == []


class TestPW006SpanNames:
    """The span-tracing extension: span names are literals too."""

    def test_true_positive_bad_span_name(self):
        findings = run_lint(
            "def trace(spans):\n    return spans.begin('BadName')\n"
        )
        assert codes(findings) == ["PW006"]

    def test_true_positive_single_segment_context_manager(self):
        findings = run_lint(
            """
            def trace(runtime):
                with runtime.span("work"):
                    pass
            """
        )
        assert codes(findings) == ["PW006"]

    def test_clean_dotted_span_with_labels(self):
        findings = run_lint(
            """
            def trace(spans, channel):
                with spans.span("mac.medium.busy", channel=channel):
                    pass
            """
        )
        assert findings == []

    def test_clean_foreign_span_method_non_string(self):
        """``re.Match.span(0)`` and friends must not false-positive."""
        findings = run_lint(
            "def bounds(match):\n    return match.span(0)\n"
        )
        assert findings == []

    def test_clean_exempt_inside_spans_module(self):
        findings = run_lint(
            "def reopen(self, name):\n    return self.begin(name)\n",
            module="repro.obs.spans",
        )
        assert findings == []


class TestPW006SloObjectives:
    """The SLO extension: objective ids are literals at call sites and in
    ``slos/*.json`` spec files."""

    def test_true_positive_non_dotted_id(self):
        findings = run_lint(
            """
            from repro.obs.slo import objective

            OBJ = objective("BadName", "channel.occupancy.cumulative.mean")
            """,
            module=DRIVER_MODULE,
        )
        assert codes(findings) == ["PW006"]

    def test_true_positive_dynamic_id(self):
        findings = run_lint(
            """
            from repro.obs.slo import objective

            def build(name):
                return objective(name, "channel.occupancy.cumulative.mean")
            """,
            module=DRIVER_MODULE,
        )
        assert codes(findings) == ["PW006"]

    def test_true_positive_module_alias_and_kwarg(self):
        findings = run_lint(
            """
            from repro.obs import slo

            A = slo.objective("nodots", "a.b")
            B = slo.objective(objective_id="also bad", metric="a.b")
            """,
            module=DRIVER_MODULE,
        )
        assert codes(findings) == ["PW006", "PW006"]

    def test_clean_dotted_objective(self):
        findings = run_lint(
            """
            from repro.obs.slo import objective

            OBJ = objective(
                "client.plt.powifi_delta",
                "client.plt.powifi_delta_s",
                op="<=",
                value=0.5,
            )
            """,
            module=DRIVER_MODULE,
        )
        assert findings == []

    def test_clean_foreign_objective_function(self):
        """A local function named ``objective`` is not the SLO factory."""
        findings = run_lint(
            """
            def objective(x):
                return x

            VALUE = objective("whatever")
            """,
            module=DRIVER_MODULE,
        )
        assert findings == []

    def test_clean_exempt_inside_slo_module(self):
        findings = run_lint(
            """
            from repro.obs.slo import objective

            def rebuild(objective_id, metric):
                return objective(objective_id, metric)
            """,
            module="repro.obs.slo",
        )
        assert findings == []

    def test_spec_file_bad_id_flagged_with_line(self):
        from repro.lint.checks import check_slo_spec_file

        source = (
            '{\n  "schema": 1,\n  "experiment": "fig7",\n  "objectives": [\n'
            '    {"id": "BadName", "metric": "a.b", "kind": "threshold",\n'
            '     "op": ">=", "value": 1.0}\n  ]\n}\n'
        )
        findings = check_slo_spec_file("slos/demo.json", source)
        assert codes(findings) == ["PW006"]
        assert findings[0].line == 5
        assert "BadName" in findings[0].message

    def test_spec_file_clean_and_invalid_json(self):
        from repro.lint.checks import check_slo_spec_file

        clean = (
            '{"schema": 1, "experiment": "fig7", "objectives": ['
            '{"id": "channel.occupancy.cumulative_mean", "metric": "a.b",'
            ' "kind": "threshold", "op": ">=", "value": 1.0}]}'
        )
        assert check_slo_spec_file("slos/fig7.json", clean) == []
        broken = check_slo_spec_file("slos/bad.json", "{oops")
        assert codes(broken) == ["PW006"]
        assert "not valid JSON" in broken[0].message

    def test_repo_spec_files_are_clean(self):
        from repro.lint.checks import check_slo_spec_file

        spec_dir = REPO_ROOT / "slos"
        spec_paths = sorted(spec_dir.glob("*.json"))
        assert spec_paths, "repo ships default SLO specs"
        for path in spec_paths:
            assert check_slo_spec_file(str(path), path.read_text()) == []

    def test_lint_paths_walks_slos_dir(self, tmp_path):
        from repro.lint.config import LintConfig
        from repro.lint.engine import lint_paths

        spec_dir = tmp_path / "slos"
        spec_dir.mkdir()
        (spec_dir / "demo.json").write_text(
            '{"schema": 1, "experiment": "fig7", "objectives": ['
            '{"id": "NotDotted", "metric": "a.b", "kind": "threshold",'
            ' "op": ">=", "value": 1.0}]}'
        )
        (tmp_path / "other.json").write_text("{}")  # not under slos/: ignored
        findings, _ = lint_paths(
            [str(tmp_path)],
            config=LintConfig(),
            use_baseline=False,
            use_cache=False,
        )
        assert codes(findings) == ["PW006"]
        assert findings[0].path.endswith("demo.json")


class TestPragmas:
    def test_bare_ignore_suppresses_everything(self):
        findings = run_lint(
            "import random\nrng = random.Random(7)  # lint: ignore\n"
        )
        assert findings == []

    def test_multi_code_pragma(self):
        pragmas = collect_pragmas("x = 1  # lint: ignore[PW001, PW005] why\n")
        assert is_suppressed(pragmas, 1, "PW001")
        assert is_suppressed(pragmas, 1, "pw005")
        assert not is_suppressed(pragmas, 1, "PW002")
        assert not is_suppressed(pragmas, 2, "PW001")

    def test_pragma_inside_string_is_not_a_pragma(self):
        source = 'text = "# lint: ignore[PW002]"\nimport random\nrng = random.Random(7)\n'
        assert codes(lint_source(source)) == ["PW002"]

    def test_pragma_on_other_line_does_not_suppress(self):
        findings = run_lint(
            """
            # lint: ignore[PW002]
            import random
            rng = random.Random(7)
            """
        )
        assert codes(findings) == ["PW002"]

    def test_pragma_covers_whole_multiline_statement(self):
        # The pragma sits on the closing line; the finding anchors on the
        # first line of the call. Logical-extent attachment must bridge it.
        findings = run_lint(
            """
            import random
            rng = random.Random(
                7,
            )  # lint: ignore[PW002] seeded fixture
            """
        )
        assert findings == []

    def test_pragma_on_interior_continuation_line(self):
        findings = run_lint(
            """
            import random
            rng = random.Random(
                7,  # lint: ignore[PW002] seeded fixture
            )
            """
        )
        assert findings == []

    def test_decorator_pragma_does_not_leak_into_def(self):
        source = "@decorate  # lint: ignore[PW001]\ndef f():\n    pass\n"
        pragmas = collect_pragmas(source)
        assert is_suppressed(pragmas, 1, "PW001")
        assert not is_suppressed(pragmas, 2, "PW001")

    def test_def_pragma_does_not_leak_into_decorator(self):
        source = "@decorate\ndef f():  # lint: ignore[PW001]\n    pass\n"
        pragmas = collect_pragmas(source)
        assert not is_suppressed(pragmas, 1, "PW001")
        assert is_suppressed(pragmas, 2, "PW001")
        assert not is_suppressed(pragmas, 3, "PW001")

    def test_pragma_embedded_in_a_longer_comment(self):
        findings = run_lint(
            "import random\n"
            "rng = random.Random(7)  # seeded fixture; lint: ignore[PW002]\n"
        )
        assert findings == []

    def test_prose_mentioning_the_pragma_is_not_a_pragma(self):
        findings = run_lint(
            "import random\n"
            "rng = random.Random(7)  # do not lint: ignore[PW002] here\n"
        )
        assert codes(findings) == ["PW002"]

    def test_unrelated_comment_does_not_extend_suppression(self):
        # A plain comment inside the statement must not turn the earlier
        # pragma-free lines into suppressed ones.
        findings = run_lint(
            """
            import random
            rng = random.Random(
                7,  # the seed
            )
            """
        )
        assert codes(findings) == ["PW002"]


class TestEngineAndFindings:
    def test_syntax_error_is_a_finding_not_a_crash(self):
        findings = lint_source("def broken(:\n")
        assert codes(findings) == ["PW000"]
        assert findings[0].severity is Severity.ERROR

    def test_fingerprint_ignores_line_number(self):
        before = lint_source("import random\nrng = random.Random(7)\n", path="m.py")
        after = lint_source(
            "import random\n\n\nrng = random.Random(7)\n", path="m.py"
        )
        assert before[0].line != after[0].line
        assert before[0].fingerprint == after[0].fingerprint

    def test_duplicate_lines_get_distinct_fingerprints(self):
        source = "import random\na = random.Random(1)\na = random.Random(1)\n"
        findings = lint_source(source)
        assert len(findings) == 2
        assert findings[0].fingerprint != findings[1].fingerprint

    def test_render_text_and_json(self):
        findings = lint_source("import random\nrng = random.Random(7)\n")
        text = render_text(findings)
        assert "PW002" in text and "1 finding(s)" in text
        payload = json.loads(render_json(findings))
        assert payload["active"] == 1
        assert payload["findings"][0]["code"] == "PW002"

    def test_module_name_for(self):
        path = Path("src/repro/sim/engine.py")
        assert module_name_for(path) == "repro.sim.engine"
        assert module_name_for(Path("src/repro/lint/__init__.py")) == "repro.lint"

    def test_lint_paths_excludes_and_relative_paths(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        bad = "import random\nrng = random.Random(7)\n"
        (tmp_path / "pkg" / "a.py").write_text(bad)
        (tmp_path / "pkg" / "skipme.py").write_text(bad)
        config = LintConfig(root=tmp_path, exclude=("pkg/skipme.py",))
        findings, _ = lint_paths([str(tmp_path / "pkg")], config=config)
        assert codes(findings) == ["PW002"]
        assert findings[0].path == "pkg/a.py"


class TestBaseline:
    def test_roundtrip_grandfathers_findings(self, tmp_path):
        findings = lint_source(
            "import random\nrng = random.Random(7)\n", path="pkg/a.py"
        )
        baseline_path = tmp_path / "baseline.json"
        write_baseline(findings, baseline_path)
        known = load_baseline(baseline_path)
        assert len(known) == 1
        refreshed = lint_source(
            "import random\nrng = random.Random(7)\n", path="pkg/a.py"
        )
        apply_baseline(refreshed, known)
        assert refreshed[0].baselined
        assert active_errors(refreshed) == []

    def test_new_finding_is_not_grandfathered(self, tmp_path):
        old = lint_source("import random\na = random.Random(1)\n", path="a.py")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(old, baseline_path)
        new = lint_source("import random\na = random.Random(2)\n", path="a.py")
        apply_baseline(new, load_baseline(baseline_path))
        assert not new[0].baselined

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_entries_have_justification_field(self, tmp_path):
        findings = lint_source("import random\na = random.Random(1)\n", path="a.py")
        baseline_path = tmp_path / "b.json"
        write_baseline(findings, baseline_path)
        entry = json.loads(baseline_path.read_text())["entries"][0]
        assert "justification" in entry


class TestConfig:
    def test_defaults(self):
        config = LintConfig()
        assert "mac80211" in config.sim_packages
        assert config.rng_module == "repro.sim.rng"
        assert config.rule_enabled("PW001")

    def test_toml_subset_parser(self):
        data = _parse_toml_subset(
            textwrap.dedent(
                """
                [project]
                name = "repro"

                [tool.repro-lint]
                rng-module = "repro.sim.rng"
                sim-packages = [
                    "sim",
                    "core",
                ]
                disable = ["PW004"]

                [tool.repro-lint.severity]
                PW003 = "warning"
                """
            )
        )
        table = data["tool"]["repro-lint"]
        assert table["rng-module"] == "repro.sim.rng"
        assert table["sim-packages"] == ["sim", "core"]
        assert table["disable"] == ["PW004"]
        assert table["severity"]["PW003"] == "warning"

    def test_load_config_from_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            textwrap.dedent(
                """
                [tool.repro-lint]
                sim-packages = ["sim"]
                baseline = "custom_baseline.json"
                disable = ["PW006"]

                [tool.repro-lint.severity]
                PW003 = "warning"
                """
            )
        )
        config = load_config(start=tmp_path)
        assert config.sim_packages == ("sim",)
        assert config.baseline_path == tmp_path / "custom_baseline.json"
        assert not config.rule_enabled("PW006")
        assert config.severity_for("PW003", Severity.ERROR) is Severity.WARNING

    def test_disabled_rule_and_severity_override(self):
        config = LintConfig(
            disable=("PW002",),
            severity_overrides={"PW005": Severity.WARNING},
        )
        findings = run_lint(
            """
            import random

            def run(t_s, end_s):
                rng = random.Random(7)
                return t_s == end_s
            """,
            config=config,
        )
        assert codes(findings) == ["PW005"]
        assert findings[0].severity is Severity.WARNING
        assert active_errors(findings) == []

    def test_repo_pyproject_declares_lint_table(self):
        config = load_config(pyproject=REPO_ROOT / "pyproject.toml")
        assert config.root == REPO_ROOT
        assert set(config.sim_packages) >= {"sim", "mac80211", "core"}
        assert config.baseline == "lint_baseline.json"

    def test_tree_rules_parsed_from_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            textwrap.dedent(
                """
                [tool.repro-lint]
                sim-packages = ["sim"]

                [tool.repro-lint.tree-rules]
                tests = ["PW001", "pw006"]
                """
            )
        )
        config = load_config(start=tmp_path)
        assert config.tree_rules == {"tests": ("PW001", "PW006")}

    def test_codes_for_display_path(self):
        config = LintConfig(tree_rules={"tests": ("PW001", "PW006")})
        # Listed tree: the subset plus the always-on syntax check.
        assert config.codes_for_display_path("tests/test_x.py") == (
            "PW000", "PW001", "PW006",
        )
        # Unlisted tree: no restriction at all.
        assert config.codes_for_display_path("src/repro/sim/engine.py") is None

    def test_tree_rules_filter_findings_per_tree(self, tmp_path):
        # The same PW002 source is restricted in tests/ but not in src/.
        snippet = "import random\nrng = random.Random(7)\n"
        for tree in ("src", "tests"):
            (tmp_path / tree).mkdir()
            (tmp_path / tree / "mod.py").write_text(snippet)
        config = LintConfig(
            tree_rules={"tests": ("PW001",)}, root=tmp_path
        )
        findings, _ = lint_paths(
            [tmp_path / "src", tmp_path / "tests"],
            config=config,
            use_baseline=False,
        )
        assert [(f.path, f.code) for f in findings] == [
            ("src/mod.py", "PW002"),
        ]

    def test_repo_tree_rules_keep_flow_codes_off_tests(self):
        config = load_config(pyproject=REPO_ROOT / "pyproject.toml")
        codes = config.codes_for_display_path("tests/test_lint.py")
        assert codes is not None
        assert not any(c.startswith("PW1") for c in codes)


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("VALUE = 1\n")
        assert lint_main([str(target), "--no-baseline", "--no-flow-cache"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one_text_and_json(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\nrng = random.Random(7)\n")
        argv = [str(target), "--no-baseline", "--no-flow-cache"]
        assert lint_main(argv) == 1
        assert "PW002" in capsys.readouterr().out
        assert lint_main([*argv, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["active"] == 1

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\nrng = random.Random(7)\n")
        baseline = tmp_path / "baseline.json"
        argv = [str(target), "--baseline", str(baseline), "--no-flow-cache"]
        assert lint_main([*argv, "--write-baseline"]) == 0
        capsys.readouterr()
        assert lint_main(argv) == 0
        out = capsys.readouterr().out
        assert "[baselined]" in out

    def test_repro_cli_dispatches_lint_subcommand(self, capsys):
        from repro.cli import main as repro_main

        code = repro_main(
            ["lint", str(REPO_ROOT / "src" / "repro" / "units.py"), "--no-flow-cache"]
        )
        assert code == 0
        assert "finding(s)" in capsys.readouterr().out


class TestSelfClean:
    def test_src_repro_has_zero_active_findings(self):
        """The merged tree lints clean: every finding fixed or baselined."""
        config = load_config(pyproject=REPO_ROOT / "pyproject.toml")
        findings, _ = lint_paths(
            [str(REPO_ROOT / "src" / "repro")], config=config, use_cache=False
        )
        assert active_errors(findings) == [], render_text(findings)

    def test_baseline_entries_all_have_justifications(self):
        known = load_baseline(REPO_ROOT / "lint_baseline.json")
        assert known, "expected the committed baseline to exist"
        for entry in known.values():
            assert str(entry.get("justification", "")).strip(), entry


class TestNoCollisionWithAnalysis:
    def test_lint_and_analysis_import_side_by_side(self):
        import repro.analysis as analysis
        import repro.lint as lint
        import repro.lint.engine as lint_engine

        assert analysis.__name__ == "repro.analysis"
        assert lint.__name__ == "repro.lint"
        # The statistics module keeps its surface; the linter keeps its own.
        assert hasattr(analysis, "empirical_cdf")
        assert hasattr(lint_engine, "lint_paths")
        assert not hasattr(analysis, "lint_paths")
