"""Shape checks: does a regenerated result still show the paper's claim?

One ``check_<id>`` function per registry experiment, each a pure predicate
over the experiment's result object — nothing here re-runs a simulation.
The checks assert the *shape* EXPERIMENTS.md records (who wins, roughly by
what factor, where crossovers fall), with tolerances wide enough to survive
seed changes but tight enough to catch a broken mechanism.

Every function returns ``(ok, detail)`` where ``detail`` is a one-line
human-readable summary of the numbers checked, and its docstring states the
paper claim it asserts. :func:`verdict` is the one entry point: ``run-all``
records its answer in ``run_manifest.json`` (which ``repro report``
renders), and ``repro <id>`` prints it, so a failed shape check names the
offending quantity instead of just flagging the experiment.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from repro.core.config import Scheme

#: The result of one shape check: (passed, one-line detail).
CheckResult = Tuple[bool, str]


def find_check(experiment_id: str) -> Callable[[Any], CheckResult]:
    """The ``check_<experiment_id>`` function of this module."""
    return globals()[f"check_{experiment_id}"]


def verdict(experiment_id: str, result: Any) -> CheckResult:
    """Judge ``result`` with its experiment's check; a check that raises fails."""
    try:
        ok, detail = find_check(experiment_id)(result)
        return bool(ok), detail
    except Exception as exc:  # a broken check must not sink the run
        return False, f"shape check raised {type(exc).__name__}: {exc}"


def check_fig1(result) -> CheckResult:
    """Stock-router harvester voltage stays below the 300 mV threshold."""
    peak_mv = 1e3 * result.peak_voltage_v
    ok = bool(result.samples) and 0.0 < result.peak_voltage_v < 0.300
    ok = ok and not result.crossed_threshold
    return ok, (
        f"received {result.received_power_dbm:.1f} dBm, peak {peak_mv:.1f} mV, "
        f"crossed={result.crossed_threshold}"
    )


def check_fig5(result) -> CheckResult:
    """Plateau ~50 %, threshold-1 curve lower, decay at large delays."""
    plateau = result.occupancy_at(5, 100)
    shallow = result.occupancy_at(1, 100)
    slow = result.occupancy_at(5, 1000)
    ok = (
        len(result.curves) >= 2
        and all(len(curve) >= 2 for curve in result.curves.values())
        and 0.3 < plateau < 0.7
        and shallow < plateau
        and slow < 0.8 * plateau
    )
    return ok, (
        f"plateau {100 * plateau:.1f} %, threshold-1 {100 * shallow:.1f} %, "
        f"1000us {100 * slow:.1f} %"
    )


def check_fig6a(result) -> CheckResult:
    """PoWiFi ~= Baseline; NoQueue well below; BlindUDP floors throughput."""
    top_rate = max(result[Scheme.BASELINE].throughput_by_rate)
    baseline = result[Scheme.BASELINE].throughput_by_rate[top_rate]
    powifi = result[Scheme.POWIFI].throughput_by_rate[top_rate]
    noqueue = result[Scheme.NO_QUEUE].throughput_by_rate[top_rate]
    blind = result[Scheme.BLIND_UDP].throughput_by_rate[top_rate]
    ok = (
        abs(powifi - baseline) / baseline < 0.2
        and noqueue < 0.75 * baseline
        and blind < 2.0
    )
    return ok, (
        f"at {top_rate:g} Mb/s offered: baseline {baseline:.1f} / powifi "
        f"{powifi:.1f} / noqueue {noqueue:.1f} / blind {blind:.1f} Mb/s"
    )


def check_fig6b(result) -> CheckResult:
    """TCP medians: Baseline ~= PoWiFi > NoQueue > BlindUDP."""
    baseline = result[Scheme.BASELINE].median_mbps
    powifi = result[Scheme.POWIFI].median_mbps
    noqueue = result[Scheme.NO_QUEUE].median_mbps
    blind = result[Scheme.BLIND_UDP].median_mbps
    ok = (
        abs(powifi - baseline) / baseline < 0.2
        and noqueue < 0.85 * baseline
        and blind < noqueue
    )
    return ok, (
        f"medians baseline {baseline:.1f} / powifi {powifi:.1f} / "
        f"noqueue {noqueue:.1f} / blind {blind:.1f} Mb/s"
    )


def check_fig6c(result) -> CheckResult:
    """Mean PLT: Baseline <= PoWiFi < NoQueue << BlindUDP."""
    baseline = result[Scheme.BASELINE].mean_plt_s
    powifi = result[Scheme.POWIFI].mean_plt_s
    noqueue = result[Scheme.NO_QUEUE].mean_plt_s
    blind = result[Scheme.BLIND_UDP].mean_plt_s
    ok = baseline <= powifi < noqueue and blind > 2.0 * baseline
    return ok, (
        f"mean PLT baseline {baseline:.2f} / powifi {powifi:.2f} / "
        f"noqueue {noqueue:.2f} / blind {blind:.2f} s"
    )


def check_fig7(result) -> CheckResult:
    """Cumulative occupancy ~100 % despite client traffic."""
    mean = result.mean_cumulative
    ok = len(result.per_channel) == 3 and 0.7 < mean < 1.6
    return ok, f"mean cumulative {100 * mean:.1f} % over {len(result.per_channel)} channels"


def check_fig8(result) -> CheckResult:
    """PoWiFi gives the neighbour at least the equal-share throughput."""
    rates = sorted(result.throughput[Scheme.POWIFI])
    mid_rates = [r for r in rates if 10 <= r <= 48]
    ok = all(result.powifi_beats_equal_share(rate) for rate in mid_rates)
    blind_low = all(
        result.throughput[Scheme.BLIND_UDP][rate]
        <= result.throughput[Scheme.POWIFI][rate]
        for rate in mid_rates
    )
    sample = mid_rates[len(mid_rates) // 2] if mid_rates else rates[0]
    return ok and blind_low, (
        f"at {sample:g} Mb/s: powifi "
        f"{result.throughput[Scheme.POWIFI][sample]:.1f} vs equal-share "
        f"{result.throughput[Scheme.EQUAL_SHARE][sample]:.1f} Mb/s"
    )


def check_fig9(result) -> CheckResult:
    """Return loss below -10 dB in band for both harvester builds."""
    free, recharging = result
    ok = free.meets_spec and recharging.meets_spec
    return ok, "worst in-band " + " / ".join(
        f"{r.worst_in_band_db:.1f} dB ({r.name})" for r in result
    )


def check_fig10(result) -> CheckResult:
    """Rectifier sensitivities near -17.8 / -19.3 dBm, >100 uW at +4 dBm."""
    free, recharging = result
    ok = (
        abs(free.worst_sensitivity_dbm + 17.8) < 1.5
        and abs(recharging.worst_sensitivity_dbm + 19.3) < 1.5
        and free.output_at(6, 4) > 100e-6
    )
    return ok, (
        f"sensitivities {free.worst_sensitivity_dbm:.1f} / "
        f"{recharging.worst_sensitivity_dbm:.1f} dBm, "
        f"{1e6 * free.output_at(6, 4):.1f} / "
        f"{1e6 * recharging.output_at(6, 4):.1f} uW at +4 dBm"
    )


def check_fig11(result) -> CheckResult:
    """Temperature sensor ranges near the paper's 20 / 28 ft."""
    ok = (
        abs(result.battery_free_range_feet - 20) < 3.5
        and abs(result.battery_recharging_range_feet - 28) < 3.0
    )
    detail = (
        f"ranges {result.battery_free_range_feet:.1f} / "
        f"{result.battery_recharging_range_feet:.1f} ft"
    )
    if 10 in result.battery_free:
        detail += (
            f", {result.battery_free[10]:.2f} / "
            f"{result.battery_recharging[10]:.2f} reads/s at 10 ft"
        )
    return ok, detail


def check_fig12(result) -> CheckResult:
    """Camera ranges near the paper's 17 ft battery-free, 23+ ft recharging."""
    ok = (
        abs(result.battery_free_range_feet - 17) < 2.5
        and 21 < result.battery_recharging_range_feet < 31
    )
    return ok, (
        f"ranges {result.battery_free_range_feet:.1f} / "
        f"{result.battery_recharging_range_feet:.1f} ft"
    )


def check_fig13(result) -> CheckResult:
    """Camera operational through every wall; time grows with absorption."""
    times = list(result.inter_frame_minutes.values())
    ok = result.all_operational and times == sorted(times)
    return ok, "inter-frame minutes " + ", ".join(
        f"{name} {minutes:.1f}" for name, minutes in result.inter_frame_minutes.items()
    )


def check_fig14(result) -> CheckResult:
    """Six homes with mean cumulative occupancies in the 78-127 % band."""
    low, high = result.mean_cumulative_range
    ok = len(result.homes) == 6 and 0.6 < low < 1.1 and 0.9 < high < 1.6
    return ok, f"{len(result.homes)} homes, means {100 * low:.0f}-{100 * high:.0f} %"


def check_fig15(result) -> CheckResult:
    """Every home sustains a nonzero sensor rate inside the 0-10 reads/s axis."""
    medians = [result.median(i) for i in result.samples_by_home]
    ok = (
        len(result.samples_by_home) == 6
        and result.all_homes_deliver_power
        and max(medians) < 10.0
    )
    return ok, f"medians {min(medians):.1f}-{max(medians):.1f} reads/s"


def check_table1(result) -> CheckResult:
    """The home-deployment parameter table matches the paper verbatim."""
    return result.matches_paper, f"matches_paper={result.matches_paper}"


def check_sec8a(result) -> CheckResult:
    """Jawbone charging near the paper's 2.3 mA / 41 % in 2.5 h."""
    ok = (
        abs(result.average_current_ma - 2.3) < 0.5
        and 25.0 < result.charge_percent_after < 55.0
    )
    return ok, (
        f"{result.average_current_ma:.2f} mA, "
        f"{result.charge_percent_after:.1f} % in 2.5 h"
    )


def check_sec8c(result) -> CheckResult:
    """Adding concurrent routers never collapses aggregate occupancy."""
    counts = sorted(result.by_count)
    ok = len(counts) >= 2 and result.occupancy_stays_high
    return ok, "aggregate by router count: " + ", ".join(
        f"{c}: {100 * result.aggregate_cumulative(c):.1f} %" for c in counts
    )
