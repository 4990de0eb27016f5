"""The Wi-Fi-powered temperature sensor (§5.1, Figs 11 and 15).

Battery-free build: harvester → Seiko S-882Z → storage capacitor; when the
capacitor reaches 2.4 V the MSP430 boots, samples the LMT84 and ships the
reading over UART (2.77 µJ per cycle).

Battery-recharging build: harvester → bq25570 → two AAA NiMH cells; the
update rate reported is the energy-neutral rate (incoming power divided by
the 2.77 µJ per operation), exactly the paper's §5.1 methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis import first_true
from repro.errors import ConfigurationError
from repro.harvester.harvester import (
    Harvester,
    battery_free_harvester,
    battery_recharging_harvester,
)
from repro.harvester.storage import NiMHBattery
from repro.rf.link import LinkBudget
from repro.sensors.mcu import TEMPERATURE_READ_ENERGY_J
from repro.units import dbm_to_watts, watts_to_dbm

#: NiMH charge/discharge round-trip efficiency applied to energy-neutral
#: operation of the battery-recharging build.
NIMH_ROUND_TRIP = 0.70


@dataclass(frozen=True)
class TemperatureSensorResult:
    """Outcome of evaluating the sensor at one placement."""

    distance_feet: float
    received_power_dbm: float
    harvested_power_w: float
    update_rate_hz: float

    @property
    def operational(self) -> bool:
        """True when the sensor produces any readings."""
        return self.update_rate_hz > 0


class TemperatureSensor:
    """A temperature sensor powered by a PoWiFi router.

    Parameters
    ----------
    harvester:
        Defaults to the §5.1 build for the chosen variant.
    battery_recharging:
        Choose the build; affects harvester, sensitivity and round-trip
        efficiency.
    read_energy_j:
        Energy per measurement + UART transmission.
    """

    def __init__(
        self,
        battery_recharging: bool = False,
        harvester: Optional[Harvester] = None,
        read_energy_j: float = TEMPERATURE_READ_ENERGY_J,
    ) -> None:
        if read_energy_j <= 0:
            raise ConfigurationError("read energy must be > 0")
        self.battery_recharging = battery_recharging
        if harvester is None:
            harvester = (
                battery_recharging_harvester()
                if battery_recharging
                else battery_free_harvester()
            )
        self.harvester = harvester
        self.read_energy_j = read_energy_j
        self.battery = NiMHBattery() if battery_recharging else None

    def harvested_power_w(
        self,
        received_power_dbm: float,
        occupancy: float = 1.0,
        frequency_hz: float = 2.437e9,
    ) -> float:
        """DC power available for the sensor at this placement.

        ``occupancy`` is the *cumulative* channel occupancy: the harvester
        draws from all three channels at once, so concurrent transmissions
        stack and the average incident power scales with the cumulative
        value (which may exceed 1).
        """
        if not (0.0 <= occupancy):
            raise ConfigurationError(f"occupancy must be >= 0, got {occupancy}")
        incident_w = dbm_to_watts(received_power_dbm) * occupancy
        if incident_w <= 0:
            return 0.0
        dc = self.harvester.dc_output_power_w(watts_to_dbm(incident_w), frequency_hz)
        if self.battery is not None:
            # Energy-neutral operation cycles energy through the battery.
            dc *= NIMH_ROUND_TRIP
        return dc

    def update_rate_hz(
        self,
        received_power_dbm: float,
        occupancy: float = 1.0,
        frequency_hz: float = 2.437e9,
    ) -> float:
        """Readings per second — the Fig 11 / Fig 15 metric."""
        power = self.harvested_power_w(received_power_dbm, occupancy, frequency_hz)
        return power / self.read_energy_j

    def evaluate_at(
        self,
        link: LinkBudget,
        distance_feet: float,
        occupancy: float = 0.913,
    ) -> TemperatureSensorResult:
        """Evaluate the sensor at a distance from a router.

        The default occupancy is the §5.1 experiments' measured average
        cumulative occupancy (91.3 %).
        """
        rx_dbm = link.received_power_dbm_at_feet(distance_feet)
        power = self.harvested_power_w(rx_dbm, occupancy)
        return TemperatureSensorResult(
            distance_feet=distance_feet,
            received_power_dbm=rx_dbm,
            harvested_power_w=power,
            update_rate_hz=power / self.read_energy_j,
        )

    def range_feet(
        self,
        link: LinkBudget,
        occupancy: float = 0.913,
        max_feet: float = 60.0,
        step_feet: float = 0.5,
    ) -> float:
        """Largest distance at which the sensor still operates.

        Operation (any harvested power) is monotone in distance, so the
        grid is bisected for the first failing step.
        """
        steps = int(max_feet / step_feet)
        last = first_true(
            lambda i: not self.evaluate_at(link, i * step_feet, occupancy).operational,
            1, steps,
        ) - 1
        return last * step_feet
