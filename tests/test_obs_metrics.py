"""Observability layer: instruments, registry, engine stats, CLI."""

import ast
import io
import json
import re
from pathlib import Path

import pytest

from repro.errors import ObservabilityError
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
)
from repro.sim.engine import Simulator


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("layer.component.metric")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self, registry):
        c = registry.counter("a.b")
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_labelled_counters_are_distinct(self, registry):
        ch1 = registry.counter("mac.tx", channel=1)
        ch6 = registry.counter("mac.tx", channel=6)
        assert ch1 is not ch6
        ch1.inc(3)
        assert ch1.value == 3
        assert ch6.value == 0

    def test_same_labels_return_same_instrument(self, registry):
        a = registry.counter("mac.tx", channel=1, station="ap")
        b = registry.counter("mac.tx", station="ap", channel=1)
        assert a is b

    def test_name_validation(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("Bad-Name")  # lint: ignore[PW006] deliberately invalid fixture
        with pytest.raises(ObservabilityError):
            registry.counter("a..b")  # lint: ignore[PW006] deliberately invalid fixture

    def test_type_conflict_is_an_error(self, registry):
        registry.counter("a.b")
        with pytest.raises(ObservabilityError):
            registry.gauge("a.b")


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("net.txqueue.depth")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == 4
        assert g.updates == 3


class TestHistogram:
    def test_bucket_edges_use_bisect_left_semantics(self, registry):
        h = registry.histogram("d", buckets=(1, 5, 10))  # lint: ignore[PW006] test-local name
        # value <= edge lands in that bucket; above the last edge overflows.
        for value in (0, 1, 2, 5, 7, 10, 11):
            h.observe(value)
        assert h.bucket_counts == [2, 2, 2, 1]
        record = h.to_record()
        assert record["buckets"] == [[1, 2], [5, 2], [10, 2], ["+inf", 1]]
        assert record["count"] == 7
        assert record["min"] == 0
        assert record["max"] == 11
        assert record["sum"] == 36

    def test_default_buckets(self, registry):
        h = registry.histogram("d2")  # lint: ignore[PW006] test-local name
        assert h.edges == tuple(float(b) for b in DEFAULT_BUCKETS)

    def test_quantiles_and_mean(self, registry):
        h = registry.histogram("q", buckets=(100,))  # lint: ignore[PW006] test-local name
        for value in range(1, 101):
            h.observe(value)
        assert h.mean == pytest.approx(50.5)
        assert h.quantile(0.0) == 1
        assert h.quantile(1.0) == 100
        assert abs(h.quantile(0.5) - 50) <= 2

    def test_empty_histogram_quantiles_are_zero(self, registry):
        h = registry.histogram("e", buckets=(1,))  # lint: ignore[PW006] test-local name
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 0.0
        assert h.percentile(99.0) == 0.0
        assert h.mean == 0.0
        record = h.to_record()
        assert record["min"] == 0.0 and record["max"] == 0.0

    def test_single_sample_quantiles_return_it(self, registry):
        h = registry.histogram("s", buckets=(1,))  # lint: ignore[PW006] test-local name
        h.observe(7.25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 7.25
        assert h.percentile(50.0) == 7.25

    def test_out_of_range_quantile_raises(self, registry):
        h = registry.histogram("b", buckets=(1,))  # lint: ignore[PW006] test-local name
        h.observe(1.0)
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ObservabilityError):
                h.quantile(bad)
        for bad in (-1.0, 100.5, float("nan")):
            with pytest.raises(ObservabilityError):
                h.percentile(bad)

    def test_reservoir_stays_bounded_and_deterministic(self, registry):
        h1 = registry.histogram("r1", buckets=(10,))  # lint: ignore[PW006] test-local name
        h2 = registry.histogram("r2", buckets=(10,))  # lint: ignore[PW006] test-local name
        for value in range(10_000):
            h1.observe(value)
            h2.observe(value)
        assert h1.to_record()["count"] == 10_000
        assert h1.quantile(0.5) == h2.quantile(0.5)


class TestRegistryExport:
    def test_snapshot_json_round_trip(self, registry):
        registry.counter("a.count", channel=1).inc(2)
        registry.gauge("a.level").set(0.75)
        registry.histogram("a.dist", buckets=(1, 2)).observe(1.5)
        payload = json.dumps(registry.to_dict())
        restored = json.loads(payload)
        assert len(restored["metrics"]) == 3
        by_name = {record["name"]: record for record in restored["metrics"]}
        assert by_name["a.count"]["value"] == 2
        assert by_name["a.count"]["labels"] == {"channel": 1}
        assert by_name["a.dist"]["buckets"] == [[1, 0], [2, 1], ["+inf", 0]]

    def test_to_jsonl_counts_lines(self, registry):
        registry.counter("x.a").inc()
        registry.counter("x.b").inc()
        buffer = io.StringIO()
        assert registry.to_jsonl(buffer) == 2
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert [record["name"] for record in lines] == ["x.a", "x.b"]

    def test_find_and_value(self, registry):
        registry.counter("mac.tx", channel=1).inc(4)
        registry.counter("mac.tx", channel=6).inc(1)
        assert len(registry.find("mac.tx")) == 2
        assert registry.value("mac.tx", channel=1) == 4


class TestNoOpMode:
    def test_disabled_registry_hands_out_null_instruments(self):
        disabled = MetricsRegistry(enabled=False)
        c = disabled.counter("a.b")
        g = disabled.gauge("a.c")
        h = disabled.histogram("a.d")
        c.inc(10)
        g.set(5)
        h.observe(3)
        assert c.value == 0
        assert g.value == 0
        assert h.to_record()["count"] == 0
        assert disabled.snapshot() == []

    def test_null_instruments_are_shared_singletons(self):
        disabled = MetricsRegistry(enabled=False)
        assert disabled.counter("a.b") is disabled.counter("c.d")
        assert disabled.counter("a.b") is NULL_REGISTRY.counter("x.y")

class TestSimulatorStats:
    def test_counts_dispatched_and_cancelled(self):
        sim = Simulator(observe=True)
        fired = []
        sim.schedule(0.1, lambda: fired.append("a"), name="tick")
        sim.schedule(0.2, lambda: fired.append("b"), name="tick")
        doomed = sim.schedule(0.3, lambda: fired.append("c"), name="doomed")
        doomed.cancel()
        sim.run()
        assert fired == ["a", "b"]
        assert sim.stats.dispatched == 2
        assert sim.stats.cancelled == 1
        assert sim.stats.callback_counts["tick"] == 2
        assert sim.stats.callback_wall_s["tick"] >= 0.0
        assert sim.stats.heap_high_watermark == 3

    def test_stats_report_and_hot_callbacks(self):
        sim = Simulator(observe=True)
        for i in range(5):
            sim.schedule(0.1 * i, lambda: None, name="work")
        sim.run()
        hot = sim.stats.hot_callbacks(1)
        assert hot[0][0] == "work"
        assert "work" in sim.stats.report()
        as_dict = sim.stats.to_dict()
        assert as_dict["dispatched"] == 5
        json.dumps(as_dict)

    def test_unobserved_simulator_uses_null_registry(self):
        sim = Simulator(observe=False)
        c = sim.metrics.counter("a.b")
        c.inc()
        assert c.value == 0
        assert not sim.stats.profiling

    def test_on_event_hook_sees_each_dispatch(self):
        sim = Simulator(observe=False)
        seen = []
        sim.on_event = lambda event: seen.append(event.name)
        sim.schedule(0.1, lambda: None, name="first")
        sim.schedule(0.2, lambda: None, name="second")
        sim.run()
        assert seen == ["first", "second"]


class TestRuntimeAggregation:
    def setup_method(self):
        obs_runtime.configure(enabled=True)

    def teardown_method(self):
        obs_runtime.configure(enabled=True)

    def test_tracked_simulators_aggregate(self):
        for _ in range(2):
            sim = Simulator()
            sim.schedule(0.1, lambda: None, name="tick")
            sim.run()
        merged = obs_runtime.aggregate_engine_stats()
        assert merged["simulators"] == 2
        assert merged["dispatched"] == 2
        assert merged["callback_counts"]["tick"] == 2

    def test_configure_disabled_turns_profiling_off(self):
        obs_runtime.configure(enabled=False)
        sim = Simulator()
        sim.schedule(0.1, lambda: None, name="tick")
        sim.run()
        assert not sim.stats.profiling
        assert obs_runtime.aggregate_engine_stats()["simulators"] == 0
        assert sim.metrics is obs_runtime.null_registry()


class TestCliObservability:
    def setup_method(self):
        obs_runtime.configure(enabled=True)

    def teardown_method(self):
        obs_runtime.configure(enabled=True)

    def test_normalize_experiment_id(self):
        from repro.cli import normalize_experiment_id

        assert normalize_experiment_id("fig07") == "fig7"
        assert normalize_experiment_id("fig06a") == "fig6a"
        assert normalize_experiment_id("fig10") == "fig10"
        assert normalize_experiment_id("table1") == "table1"
        assert normalize_experiment_id("quickstart") == "quickstart"

    def test_metrics_subcommand_writes_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "metrics.jsonl"
        assert main(["metrics", "fig07", "--output", str(output)]) == 0
        records = [
            json.loads(line) for line in output.read_text().splitlines()
        ]
        assert records, "metrics export must not be empty"
        assert records[-1]["type"] == "engine"
        assert records[-1]["dispatched"] > 0
        assert records[-1]["callback_counts"]
        names = {record.get("name") for record in records}
        assert "core.occupancy.fraction" in names
        assert "net.txqueue.depth" in names
        assert "mac.medium.collisions" in names
        assert "== fig7 metrics ==" in capsys.readouterr().out

    def test_metrics_subcommand_no_obs(self, tmp_path):
        from repro.cli import main

        output = tmp_path / "noobs.jsonl"
        assert main(["metrics", "fig1", "--no-obs", "--output", str(output)]) == 0
        records = [
            json.loads(line) for line in output.read_text().splitlines()
        ]
        # Only the (empty) engine summary line survives in no-obs mode.
        assert [record["type"] for record in records] == ["engine"]
        assert records[0]["simulators"] == 0

    def test_trace_subcommand_filters_kinds(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "trace.jsonl"
        code = main(
            ["trace", "fig7", "--kinds", "mac.tx", "--output", str(output)]
        )
        assert code == 0
        records = [
            json.loads(line) for line in output.read_text().splitlines()
        ]
        assert records
        assert {record["kind"] for record in records} == {"mac.tx"}
        assert {"time", "source", "kind", "fields"} <= set(records[0])

    def test_unknown_experiment_rejected(self, capsys):
        from repro.cli import main

        assert main(["metrics", "fig99"]) == 2


class TestHistogramPercentile:
    def test_percentile_matches_quantile(self, registry):
        h = registry.histogram("a.wall_s", buckets=(0.1, 1.0))
        for value in range(1, 11):
            h.observe(float(value))
        assert h.percentile(50.0) == h.quantile(0.5) == 6.0
        assert h.percentile(0.0) == 1.0
        assert h.percentile(100.0) == 10.0

    def test_percentile_of_empty_histogram_is_zero(self, registry):
        assert registry.histogram("a.b").percentile(95.0) == 0.0

    def test_percentile_range_enforced(self, registry):
        h = registry.histogram("a.b")
        with pytest.raises(ObservabilityError, match=r"\[0, 100\]"):
            h.percentile(101.0)
        with pytest.raises(ObservabilityError, match=r"\[0, 100\]"):
            h.percentile(-1.0)


class TestSimulatorStatsSummary:
    def test_summary_reflects_a_real_run(self):
        obs_runtime.configure(enabled=True)
        try:
            sim = Simulator()
            for i in range(4):
                sim.schedule(0.1 * i, lambda: None, name="tick")
            sim.run()
            text = sim.stats.summary()
            assert text.startswith("dispatched=4 cancelled=0 ")
            assert "heap_high=" in text and "callbacks=1" in text
            assert text.endswith("s") and "wall=" in text
        finally:
            obs_runtime.configure(enabled=True)

    def test_summary_formatting_is_stable(self):
        from repro.sim.engine import SimulatorStats

        stats = SimulatorStats()
        stats.dispatched, stats.cancelled = 7, 2
        stats.heap_high_watermark = 5
        assert (
            stats.summary()
            == "dispatched=7 cancelled=2 heap_high=5 callbacks=0 wall=0.0000s"
        )


ROOT = Path(__file__).resolve().parent.parent


def _documented_prefixes():
    """First-column prefixes of docs/observability.md's naming table."""
    text = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    section = text.split("## Naming conventions", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([a-z0-9_.]+)\.\*` \|", section, re.MULTILINE)


def _registered_names():
    """Literal names passed to ``.counter/.gauge/.histogram`` outside repro.obs."""
    names = set()
    src = ROOT / "src" / "repro"
    for path in src.rglob("*.py"):
        if path.relative_to(src).parts[0] == "obs":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                names.add(node.args[0].value)
    return names


class TestNamingTable:
    def test_every_documented_prefix_has_a_producer(self):
        """A prefix in the naming table names metrics some layer registers."""
        prefixes = _documented_prefixes()
        assert len(prefixes) >= 5, "naming table not found or not parsed"
        names = _registered_names()
        unregistered = [
            prefix
            for prefix in prefixes
            if not any(name.startswith(prefix + ".") for name in names)
        ]
        assert not unregistered, f"documented but never registered: {unregistered}"
