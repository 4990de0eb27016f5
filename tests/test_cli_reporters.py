"""What ``repro <id>`` prints: a table for five experiments, a verdict for all.

fig5, fig8, fig14, fig15 and table1 render a table; every other
experiment's numbers live in its shape check's detail, which the verdict
line prints, so those tests assert on ``check_<id>`` directly.
"""

import pytest

from repro import cli
from repro.experiments import shapecheck


class TestReporterFunctions:
    def test_fig1_reporter(self):
        from repro.experiments.fig01_leakage import run_fig01

        result = run_fig01(duration_s=0.02)
        _, detail = shapecheck.check_fig1(result)
        assert f"received {result.received_power_dbm:.1f} dBm" in detail
        assert f"peak {1e3 * result.peak_voltage_v:.1f} mV" in detail
        assert f"crossed={result.crossed_threshold}" in detail

    def test_fig5_reporter(self):
        from repro.experiments.fig05_delay_sweep import run_fig05

        result = run_fig05(thresholds=(5,), delays_us=(100, 400), duration_s=0.3)
        lines = cli._report_fig5(result)
        assert len(lines) == 2
        assert "%" in lines[1]

    def test_fig8_reporter(self):
        from repro.experiments.fig08_fairness import run_fig08

        result = run_fig08(neighbor_rates=(24.0,), duration_s=0.3)
        lines = cli._report_fig8(result)
        assert any("powifi" in line for line in lines)

    def test_fig10_reporter(self):
        from repro.experiments.fig10_rectifier import run_fig10

        free, recharging = pair = run_fig10(input_powers_dbm=(4,))
        _, detail = shapecheck.check_fig10(pair)
        assert (
            f"sensitivities {free.worst_sensitivity_dbm:.1f} / "
            f"{recharging.worst_sensitivity_dbm:.1f} dBm" in detail
        )
        assert (
            f"{1e6 * free.output_at(6, 4):.1f} / "
            f"{1e6 * recharging.output_at(6, 4):.1f} uW at +4 dBm" in detail
        )

    def test_fig11_reporter(self):
        from repro.experiments.fig11_temperature import run_fig11

        result = run_fig11(distances_feet=(10, 20))
        _, detail = shapecheck.check_fig11(result)
        assert (
            f"ranges {result.battery_free_range_feet:.1f} / "
            f"{result.battery_recharging_range_feet:.1f} ft" in detail
        )
        assert (
            f"{result.battery_free[10]:.2f} / "
            f"{result.battery_recharging[10]:.2f} reads/s at 10 ft" in detail
        )
        # Without a 10 ft point the detail just omits the rates.
        _, short = shapecheck.check_fig11(run_fig11(distances_feet=(20,)))
        assert "reads/s" not in short

    def test_fig12_reporter(self):
        from repro.experiments.fig12_camera import run_fig12

        result = run_fig12(distances_feet=(10, 17))
        _, detail = shapecheck.check_fig12(result)
        assert detail == (
            f"ranges {result.battery_free_range_feet:.1f} / "
            f"{result.battery_recharging_range_feet:.1f} ft"
        )

    def test_fig13_reporter(self):
        from repro.experiments.fig13_walls import run_fig13

        result = run_fig13()
        _, detail = shapecheck.check_fig13(result)
        for name, minutes in result.inter_frame_minutes.items():
            assert f"{name} {minutes:.1f}" in detail
        assert "sheetrock" in detail

    def test_fig14_reporter(self):
        from repro.experiments.fig14_homes import run_fig14

        lines = cli._report_fig14(run_fig14(duration_s=3600.0))
        assert any("range" in line for line in lines)
        assert sum("home" in line for line in lines) == 6

    def test_fig15_reporter(self):
        from repro.experiments.fig14_homes import run_fig14
        from repro.experiments.fig15_home_sensor import run_fig15

        lines = cli._report_fig15(run_fig15(run_fig14(duration_s=3600.0)))
        assert len(lines) == 6

    def test_sec8a_reporter(self):
        from repro.experiments.sec8a_charger import run_sec8a

        result = run_sec8a()
        _, detail = shapecheck.check_sec8a(result)
        assert f"{result.average_current_ma:.2f} mA" in detail
        assert f"{result.charge_percent_after:.1f} % in 2.5 h" in detail

    def test_sec8c_reporter(self):
        from repro.experiments.sec8c_multi_router import run_sec8c

        result = run_sec8c(router_counts=(1,), duration_s=0.2)
        _, detail = shapecheck.check_sec8c(result)
        assert f"1: {100 * result.aggregate_cumulative(1):.1f} %" in detail

    def test_generic_reporter(self, capsys):
        # An experiment without a table prints its header and verdict only.
        assert cli.main(["fig9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "== fig9 =="
        assert lines[1].startswith("shape ok: worst in-band ")
        assert len(lines) == 2


@pytest.fixture()
def judged(monkeypatch):
    """Run ``repro <id>`` and return (verdict line, the result it judged)."""
    seen = []
    verdict = shapecheck.verdict

    def spy(experiment_id, result):
        seen.append(result)
        return verdict(experiment_id, result)

    monkeypatch.setattr(shapecheck, "verdict", spy)

    def run(experiment, capsys):
        assert cli.main([experiment]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"== {experiment} =="
        assert len(seen) == 1
        return lines[-1], seen[0]

    return run


class TestCliEndToEnd:
    def test_fig1_via_main(self, judged, capsys):
        line, result = judged("fig1", capsys)
        assert line == "shape ok: " + shapecheck.check_fig1(result)[1]
        assert f"received {result.received_power_dbm:.1f} dBm" in line
        assert f"peak {1e3 * result.peak_voltage_v:.1f} mV" in line
        assert f"crossed={result.crossed_threshold}" in line

    def test_fig10_via_main(self, judged, capsys):
        line, (free, recharging) = judged("fig10", capsys)
        assert line == (
            f"shape ok: sensitivities {free.worst_sensitivity_dbm:.1f} / "
            f"{recharging.worst_sensitivity_dbm:.1f} dBm, "
            f"{1e6 * free.output_at(6, 4):.1f} / "
            f"{1e6 * recharging.output_at(6, 4):.1f} uW at +4 dBm"
        )

    def test_fig12_via_main(self, judged, capsys):
        line, result = judged("fig12", capsys)
        assert line == (
            f"shape ok: ranges {result.battery_free_range_feet:.1f} / "
            f"{result.battery_recharging_range_feet:.1f} ft"
        )

    def test_sec8c_via_main(self, judged, capsys):
        line, study = judged("sec8c", capsys)
        assert line == "shape ok: aggregate by router count: " + ", ".join(
            f"{count}: {100 * study.aggregate_cumulative(count):.1f} %"
            for count in sorted(study.by_count)
        )

    @pytest.mark.parametrize("argv", [["fig5", "--duration", "9"], ["list", "--seed", "3"]])
    def test_bare_commands_reject_flags_they_do_not_read(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
