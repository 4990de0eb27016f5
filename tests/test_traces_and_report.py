"""Trace file format and the markdown report rendered from a run manifest."""

import io

import pytest

from repro.errors import ConfigurationError
from repro.workloads.homes import HOME_DEPLOYMENTS, HomeDeployment
from repro.workloads.traces import OccupancyTrace, replay_through_sensor


def small_trace():
    trace = OccupancyTrace(window_s=60.0, channels=[1, 6, 11])
    trace.append_window({1: 0.4, 6: 0.5, 11: 0.45})
    trace.append_window({1: 0.3, 6: 0.6, 11: 0.40})
    return trace


class TestOccupancyTrace:
    def test_window_accounting(self):
        trace = small_trace()
        assert trace.window_count == 2
        assert trace.duration_s == 120.0

    def test_series_and_cumulative(self):
        trace = small_trace()
        assert trace.series(6).samples == [0.5, 0.6]
        cumulative = trace.cumulative()
        assert cumulative.samples[0] == pytest.approx(1.35)

    def test_dump_load_round_trip(self):
        trace = small_trace()
        text = trace.dump()
        loaded = OccupancyTrace.load(io.StringIO(text))
        assert loaded.window_s == trace.window_s
        assert loaded.channels == trace.channels
        assert loaded.samples == trace.samples

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "home.jsonl")
        trace = small_trace()
        trace.dump(path)
        loaded = OccupancyTrace.load(path)
        assert loaded.samples == trace.samples

    def test_from_home_deployment(self):
        deployment = HomeDeployment(HOME_DEPLOYMENTS[1], duration_s=3600.0)
        deployment.run()
        trace = OccupancyTrace.from_home_deployment(deployment)
        assert trace.window_count == 60
        assert trace.channels == [1, 6, 11]
        assert trace.cumulative().mean == pytest.approx(
            deployment.cumulative_occupancy_series().mean
        )

    def test_from_unrun_deployment_rejected(self):
        deployment = HomeDeployment(HOME_DEPLOYMENTS[0])
        with pytest.raises(ConfigurationError):
            OccupancyTrace.from_home_deployment(deployment)

    def test_missing_channel_rejected(self):
        trace = OccupancyTrace(window_s=60.0, channels=[1, 6])
        with pytest.raises(ConfigurationError):
            trace.append_window({1: 0.5})

    def test_unknown_channel_series_rejected(self):
        with pytest.raises(ConfigurationError):
            small_trace().series(7)

    def test_malformed_header_rejected(self):
        with pytest.raises(ConfigurationError):
            OccupancyTrace.load(io.StringIO('{"type": "window"}\n'))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            OccupancyTrace.load(io.StringIO(""))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OccupancyTrace(window_s=0.0, channels=[1])
        with pytest.raises(ConfigurationError):
            OccupancyTrace(window_s=60.0, channels=[])


class TestReplay:
    def test_home_trace_drives_sensor(self):
        """Replay a home's log through the duty-cycle simulator."""
        from repro.harvester.harvester import battery_free_harvester
        from repro.rf.link import LinkBudget, Transmitter
        from repro.sensors.duty_cycle import DutyCycleSimulator
        from repro.sensors.mcu import TEMPERATURE_READ_ENERGY_J

        deployment = HomeDeployment(HOME_DEPLOYMENTS[1], duration_s=600.0)
        deployment.run()
        trace = OccupancyTrace.from_home_deployment(deployment)
        link = LinkBudget(Transmitter(tx_power_dbm=30.0))
        simulator = DutyCycleSimulator(
            battery_free_harvester(),
            link.received_power_dbm_at_feet(10.0),
            TEMPERATURE_READ_ENERGY_J,
            step_s=0.1,
        )
        result = replay_through_sensor(trace, simulator)
        # Home 2 is the quiet one: the sensor runs at a healthy rate.
        assert result.count > 100
        assert 0.3 < result.mean_rate_hz < 10.0


@pytest.fixture(scope="module")
def manifest():
    from repro.runner import run_all
    from repro.runner.manifest import build_manifest

    return build_manifest(
        run_all(ids=["fig9", "table1", "fig13"], jobs=1, use_cache=False)
    )


def _rows(text):
    """The report's per-experiment table rows."""
    return [
        line for line in text.splitlines() if line.startswith(("| fig", "| table"))
    ]


class TestReproductionReport:
    def test_generate_report_passes_everything(self, manifest):
        from repro.experiments.report import render_report
        from repro.experiments.shapecheck import check_fig9

        text = render_report(manifest)
        assert "PoWiFi reproduction report" in text
        assert "3/3 experiments reproduce" in text
        rows = _rows(text)
        ids = [row.split("|")[1].strip() for row in rows]
        assert ids == ["fig9", "fig13", "table1"]
        assert all("✅" in row for row in rows)
        fig9 = rows[0].split("|")
        assert fig9[2].strip() == check_fig9.__doc__.strip()
        assert fig9[3].strip() == manifest["experiments"][0]["shape_detail"]

    def test_failed_check_and_error_render_as_failures(self, manifest):
        import copy

        from repro.experiments.report import render_report

        edited = copy.deepcopy(manifest)
        edited["experiments"][0]["shape_ok"] = False
        edited["experiments"][1].update(
            shape_ok=None, shape_detail="", error="fig13: boom | twice"
        )
        text = render_report(edited)
        assert "1/3 experiments reproduce" in text
        assert text.count("❌") == 2
        assert "fig13: boom \\| twice" in _rows(text)[1]

    def test_engine_footer_from_manifest_profiles(self, manifest):
        import copy

        from repro.experiments.report import render_report

        assert "Engine telemetry" not in render_report(manifest)  # analytic ids
        edited = copy.deepcopy(manifest)
        profile = {
            kind: {"component": "m.C", "count": count, "wall_s": wall}
            for kind, count, wall in (("tick", 3, 0.1), ("tock", 1, 0.4))
        }
        edited["experiments"][0]["parts"][0]["engine"]["profile"] = profile
        edited["experiments"][1]["parts"][0]["engine"]["profile"] = profile
        text = render_report(edited)
        assert "8 events dispatched over 2 event kinds." in text
        footer = text.split("## Engine telemetry")[1].splitlines()
        assert [line for line in footer if line.startswith("| t")] == [
            "| tock | m.C | 2 | 0.800 |",
            "| tick | m.C | 6 | 0.200 |",
        ]

    def test_cli_report_command(self, manifest, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "run_manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["report", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "reproduction report" in out
        assert len(_rows(out)) == 3

    def test_missing_or_malformed_manifest_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == 2
        assert capsys.readouterr().err.startswith(
            "report: cannot read run_manifest.json: "
        )
        (tmp_path / "list.json").write_text("[1]")
        assert main(["report", "--input", "list.json"]) == 2
        assert "list.json: malformed JSON" in capsys.readouterr().err
        (tmp_path / "bare.json").write_text('{"experiments": [{}]}')
        assert main(["report", "--input", "bare.json"]) == 2
        assert "bare.json: not a run manifest" in capsys.readouterr().err
