"""Observability layer: instruments, registry, ledger, engine stats, CLI."""

import io
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import runtime as obs_runtime
from repro.obs.energy import EnergyLedger
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


class TestTimeseries:
    def test_records_samples_in_order(self, registry):
        ts = registry.timeseries("harvester.storage.voltage_v")
        ts.sample(0.0, 1.0)
        ts.sample(0.5, 1.5)
        assert ts.last == (0.5, 1.5)
        assert len(ts) == 2

    def test_time_must_not_go_backwards(self, registry):
        ts = registry.timeseries("t")  # lint: ignore[PW006] test-local name
        ts.sample(1.0, 0.0)
        with pytest.raises(ObservabilityError):
            ts.sample(0.5, 0.0)

    def test_rate_degenerate_cases_are_zero(self, registry):
        ts = registry.timeseries("r0")  # lint: ignore[PW006] test-local name
        assert ts.rate() == 0.0  # empty
        ts.sample(3.0, 42.0)
        assert ts.rate() == 0.0  # single sample
        ts.sample(3.0, 99.0)  # repeated timestamp: zero-span window
        assert ts.rate() == 0.0

    def test_rate_measures_first_to_last(self, registry):
        ts = registry.timeseries("r1")  # lint: ignore[PW006] test-local name
        ts.sample(0.0, 10.0)
        ts.sample(1.0, 0.0)
        ts.sample(5.0, 30.0)
        assert ts.rate() == pytest.approx(4.0)


class TestRegistryExport:
    def test_snapshot_json_round_trip(self, registry):
        registry.counter("a.count", channel=1).inc(2)
        registry.gauge("a.level").set(0.75)
        registry.histogram("a.dist", buckets=(1, 2)).observe(1.5)
        registry.timeseries("a.series").sample(0.0, 3.3)
        payload = json.dumps(registry.to_dict())
        restored = json.loads(payload)
        assert len(restored["metrics"]) == 4
        by_name = {record["name"]: record for record in restored["metrics"]}
        assert by_name["a.count"]["value"] == 2
        assert by_name["a.count"]["labels"] == {"channel": 1}
        assert by_name["a.dist"]["buckets"] == [[1, 0], [2, 1], ["+inf", 0]]
        assert by_name["a.series"]["samples"] == [[0.0, 3.3]]

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
        ts = disabled.timeseries("a.e")
        c.inc(10)
        g.set(5)
        h.observe(3)
        ts.sample(0.0, 1.0)
        assert c.value == 0
        assert g.value == 0
        assert h.to_record()["count"] == 0
        assert len(ts) == 0
        assert disabled.snapshot() == []

    def test_null_instruments_are_shared_singletons(self):
        disabled = MetricsRegistry(enabled=False)
        assert disabled.counter("a.b") is disabled.counter("c.d")
        assert disabled.counter("a.b") is NULL_REGISTRY.counter("x.y")

    def test_timeseries_null_accepts_backwards_time(self):
        ts = NULL_REGISTRY.timeseries("t")  # lint: ignore[PW006] test-local name
        ts.sample(1.0, 0.0)
        ts.sample(0.0, 0.0)  # must not raise in no-op mode


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


class TestEnergyLedger:
    def test_deposit_withdraw_and_net(self, registry):
        ledger = EnergyLedger(registry, chain="battery-free")
        ledger.deposit(0.0, 10e-6)
        ledger.withdraw(1.0, 2.77e-6)
        assert ledger.deposited_uj == pytest.approx(10.0)
        assert ledger.withdrawn_uj == pytest.approx(2.77)
        assert ledger.net_uj == pytest.approx(7.23)
        assert ledger.operations == 1

    def test_voltage_stride_thins_samples(self, registry):
        ledger = EnergyLedger(registry, voltage_stride=10)
        for i in range(100):
            ledger.sample_voltage(0.01 * i, 1.0 + 0.01 * i)
        assert ledger.voltage_samples == 10
        assert ledger.last_voltage() == pytest.approx(1.90)

    def test_negative_flows_rejected(self, registry):
        ledger = EnergyLedger(registry)
        with pytest.raises(ObservabilityError):
            ledger.deposit(0.0, -1.0)
        with pytest.raises(ObservabilityError):
            ledger.withdraw(0.0, -1.0)

    def test_sensor_load_consume_records_operations(self, registry):
        from repro.sensors.mcu import TEMPERATURE_LOAD

        ledger = EnergyLedger(registry)
        energy = TEMPERATURE_LOAD.consume(ledger, 0.0, operations=3)
        assert energy == pytest.approx(3 * 2.77e-6)
        assert ledger.operations == 3
        assert ledger.withdrawn_uj == pytest.approx(3 * 2.77)

    def test_duty_cycle_simulator_feeds_ledger(self, registry):
        from repro.harvester.harvester import battery_free_harvester
        from repro.sensors.duty_cycle import DutyCycleSimulator

        ledger = EnergyLedger(registry, voltage_stride=100)
        sim = DutyCycleSimulator(
            battery_free_harvester(),
            received_power_dbm=-8.0,
            operation_energy_j=2.77e-6,
            ledger=ledger,
        )
        result = sim.run_constant(duration_s=20.0, occupancy=1.0)
        assert result.count >= 1
        assert ledger.operations == result.count
        assert ledger.deposited_uj > 0
        assert ledger.voltage_samples >= 1


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


class TestTimeseriesRate:
    def test_rate_is_slope_over_window(self, registry):
        ts = registry.timeseries("a.level")
        ts.sample(0.0, 1.0)
        ts.sample(2.0, 2.0)
        ts.sample(4.0, 9.0)
        assert ts.rate() == pytest.approx(2.0)

    def test_rate_degenerate_windows_are_zero(self, registry):
        ts = registry.timeseries("a.level")
        assert ts.rate() == 0.0
        ts.sample(1.0, 5.0)
        assert ts.rate() == 0.0  # one sample
        ts.sample(1.0, 9.0)
        assert ts.rate() == 0.0  # repeated timestamp: zero-width window


class TestEnergyLedgerEdgeCases:
    """Satellite: zero-duration intervals and round-off negative drains."""

    def test_zero_duration_interval_contributes_zero(self, registry):
        ledger = EnergyLedger(registry)
        ledger.deposit(0.0, 0.0)
        ledger.withdraw(0.0, 0.0, operation=False)
        assert ledger.deposited_uj == 0.0
        assert ledger.withdrawn_uj == 0.0
        assert ledger.net_uj == 0.0
        assert ledger.operations == 0

    def test_roundoff_negative_drain_clamps_to_zero(self, registry):
        from repro.obs.energy import NEGATIVE_FLOW_CLAMP_J

        ledger = EnergyLedger(registry)
        ledger.deposit(0.0, -1e-18)  # integrator round-off
        ledger.withdraw(0.1, -NEGATIVE_FLOW_CLAMP_J)  # exactly on the band edge
        assert ledger.deposited_uj == 0.0
        assert ledger.withdrawn_uj == 0.0

    def test_genuine_negative_flow_still_raises(self, registry):
        from repro.obs.energy import NEGATIVE_FLOW_CLAMP_J

        ledger = EnergyLedger(registry)
        with pytest.raises(ObservabilityError, match="cannot deposit"):
            ledger.deposit(0.0, -2 * NEGATIVE_FLOW_CLAMP_J)
        with pytest.raises(ObservabilityError, match="cannot withdraw"):
            ledger.withdraw(0.0, -1e-6)

    def test_voltage_rate_delegates_to_timeseries(self, registry):
        ledger = EnergyLedger(registry)
        assert ledger.voltage_rate_v_per_s() == 0.0
        ledger.sample_voltage(0.0, 1.0)
        assert ledger.voltage_rate_v_per_s() == 0.0
        ledger.sample_voltage(10.0, 3.0)
        assert ledger.voltage_rate_v_per_s() == pytest.approx(0.2)


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
