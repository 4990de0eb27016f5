"""Exactness of the bisected grid searches.

The analog range and sensitivity searches bisect their grids with
``repro.analysis.first_true`` instead of walking them step by step. Each test
here compares a search with the linear scan it replaced — kept only here, as
the reference — over dense grids, and fails if the float it returns differs
by a bit. The count guards fail if a search walks its grid again.
"""

import math

import pytest

from repro.analysis import first_true
from repro.errors import CircuitError
from repro.harvester.harvester import (
    battery_free_camera_harvester,
    battery_free_harvester,
    battery_recharging_harvester,
)
from repro.harvester.multiband import band_900_harvester
from repro.mac80211.channels import CHANNEL_FREQUENCIES_MHZ
from repro.planner import DeploymentPlanner, Environment, SensingRequirement
from repro.rf.link import LinkBudget, Transmitter
from repro.rf.materials import WALL_MATERIALS
from repro.rf.propagation import FreeSpacePathLoss, LogDistancePathLoss
from repro.sensors.camera import WiFiCamera
from repro.sensors.temperature import TemperatureSensor

CHAINS = (
    battery_free_harvester,
    battery_recharging_harvester,
    battery_free_camera_harvester,
    band_900_harvester,
)

#: Occupancy 0–2 in steps of 0.003.
OCCUPANCIES = [i * 0.003 for i in range(667)]

TX_POWERS_DBM = (20.0, 30.0, 36.0)


def probe_bound(steps):
    """Grid points a bisected search of ``steps`` steps may evaluate."""
    return math.ceil(math.log2(steps + 1)) + 1


def counted(bound_method):
    """``(wrapper, calls)``: the wrapper counts its calls in ``calls[0]``."""
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return bound_method(*args, **kwargs)

    return wrapper, calls


def scan_range(operates, max_feet, step_feet):
    """The replaced range scan: last step of the initial operating run."""
    best = 0.0
    steps = int(max_feet / step_feet)
    for i in range(1, steps + 1):
        feet = i * step_feet
        if operates(feet):
            best = feet
        else:
            break
    return best


def scan_sensitivity(operates, floor_dbm=-30.0, ceiling_dbm=0.0, resolution_db=0.05):
    """The replaced sensitivity scan: first operating grid power, or None."""
    steps = int((ceiling_dbm - floor_dbm) / resolution_db)
    for i in range(steps + 1):
        dbm = floor_dbm + i * resolution_db
        if operates(dbm):
            return dbm
    return None


class TestFirstTrue:
    @pytest.mark.parametrize("lo", [-3, 0, 1])
    def test_matches_a_linear_scan_within_the_probe_bound(self, lo):
        for size in list(range(70)) + [127, 128, 129, 600]:
            hi = lo + size - 1
            for edge in range(lo - 2, hi + 3):
                probes = []

                def predicate(i):
                    probes.append(i)
                    return i >= edge

                expected = next((i for i in range(lo, hi + 1) if i >= edge), hi + 1)
                assert first_true(predicate, lo, hi) == expected
                assert all(lo <= i <= hi for i in probes)
                assert len(probes) <= math.ceil(math.log2(size + 1))

    def test_empty_grid_evaluates_nothing(self):
        assert first_true(lambda i: pytest.fail("evaluated"), 1, 0) == 1


class TestMonotonePreconditions:
    """Operation switches on once as incident power rises, and stays on."""

    @pytest.mark.parametrize("factory", CHAINS)
    def test_operation_switches_on_once(self, factory):
        harvester = factory()
        for frequency in (2.412e9, 2.437e9, 2.484e9, 915e6):
            operating = [
                harvester.dc_output_power_w(-40.0 + i * 0.01, frequency) > 0
                for i in range(6001)
            ]
            switched = [a != b for a, b in zip(operating, operating[1:])]
            assert sum(switched) <= 1
            assert operating[-1] or not any(operating)


class TestSensorRanges:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: TemperatureSensor(battery_recharging=False),
            lambda: TemperatureSensor(battery_recharging=True),
            lambda: WiFiCamera(battery_recharging=False),
            lambda: WiFiCamera(battery_recharging=True),
        ],
        ids=["temperature-free", "temperature-recharging", "camera-free",
             "camera-recharging"],
    )
    def test_range_equals_the_scan_on_a_dense_occupancy_grid(self, build):
        sensor = build()
        evaluate = sensor.evaluate_at
        sensor.evaluate_at, calls = counted(evaluate)
        steps = int(60.0 / 0.5)
        ranges = set()
        for tx in TX_POWERS_DBM:
            link = LinkBudget(Transmitter(tx_power_dbm=tx))
            for occupancy in OCCUPANCIES:
                calls[0] = 0
                got = sensor.range_feet(link, occupancy)
                assert calls[0] <= probe_bound(steps)
                expected = scan_range(
                    lambda feet: evaluate(link, feet, occupancy).operational,
                    60.0, 0.5,
                )
                assert got.hex() == expected.hex(), (tx, occupancy)
                ranges.add(got)
        # Out of range at zero occupancy, and many distinct ranges above it.
        assert 0.0 in ranges and len(ranges) > 50


class TestHarvesterSensitivity:
    @pytest.mark.parametrize("factory", CHAINS)
    def test_sensitivity_equals_the_scan_at_every_channel(self, factory):
        harvester = factory()
        is_operational = harvester.is_operational
        harvester.is_operational, calls = counted(is_operational)
        frequencies = [mhz * 1e6 for mhz in CHANNEL_FREQUENCIES_MHZ.values()]
        frequencies += [902e6, 915e6, 928e6]
        grids = [(-30.0, 0.0, 0.05), (-40.0, 10.0, 0.01), (-25.0, -15.0, 0.3)]
        for frequency in frequencies:
            for floor, ceiling, resolution in grids:
                expected = scan_sensitivity(
                    lambda dbm: is_operational(dbm, frequency),
                    floor, ceiling, resolution,
                )
                calls[0] = 0
                try:
                    got = harvester.sensitivity_dbm(
                        frequency, floor, ceiling, resolution
                    )
                except CircuitError:
                    got = None
                steps = int((ceiling - floor) / resolution)
                assert calls[0] <= probe_bound(steps)
                assert got == expected and repr(got) == repr(expected), (
                    frequency, floor, resolution,
                )


class TestLinkRange:
    @pytest.mark.parametrize(
        "path_loss",
        [None, FreeSpacePathLoss(), LogDistancePathLoss(exponent=2.5)],
        ids=["indoor", "free-space", "cluttered"],
    )
    def test_range_for_sensitivity_equals_the_scan(self, path_loss):
        for tx in TX_POWERS_DBM:
            for wall in (None, WALL_MATERIALS["wood"]):
                link = LinkBudget(Transmitter(tx_power_dbm=tx), wall=wall)
                if path_loss is not None:
                    link.path_loss = path_loss
                received = link.received_power_dbm_at_feet
                link.received_power_dbm_at_feet, calls = counted(received)
                for i in range(121):
                    sensitivity = -30.0 + i * 0.25
                    calls[0] = 0
                    got = link.range_for_sensitivity_feet(sensitivity)
                    assert calls[0] <= probe_bound(1000)
                    expected = scan_range(
                        lambda feet: received(feet) >= sensitivity, 100.0, 0.1
                    )
                    assert got.hex() == expected.hex(), (tx, wall, sensitivity)


class TestPlannerKeepsItsScans:
    def test_feasibility_is_not_monotone_in_distance(self):
        # The Seiko charge pump's efficiency falls at high input voltage,
        # so the battery-free chain's DC output is not monotone between
        # about -0.8 and +9.6 dBm incident. This requirement is met up to
        # 0.75 ft, missed at 1 ft (in the dip), met again out to 2.5 ft and
        # missed beyond. The farthest feasible step is 2.5 ft, which only a
        # scan of every step finds; a bisection need not. So the planner
        # walks its whole grid.
        planner = DeploymentPlanner(
            Environment(path_loss_exponent=1.7, cumulative_occupancy=0.5)
        )
        requirement = SensingRequirement(operation_energy_j=1e-6, target_rate_hz=48.0)
        feasible = [
            planner.evaluate(requirement, i * 0.25).feasible for i in range(1, 13)
        ]
        assert feasible[:3] == [True, True, True] and not feasible[3]
        assert feasible[9] and not feasible[-1]
        assert planner.max_distance_feet(requirement) == 2.5
