"""The Wi-Fi-powered camera (§5.2, Figs 12 and 13).

An OV7670 VGA sensor in grey-scale QCIF (176×144) mode behind an
MSP430FR5969: 10.4 mJ per optimised image capture, frames stored in FRAM.

Battery-free build: AVX BestCap 6.8 mF super-capacitor; the bq25570's buck
activates at 3.1 V and runs the camera down to 2.4 V. Battery-recharging
build: the 1 mAh / 3.0 V Li-Ion coin cell, evaluated energy-neutrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.analysis import first_true
from repro.errors import ConfigurationError
from repro.harvester.harvester import (
    Harvester,
    battery_free_camera_harvester,
    battery_recharging_harvester,
)
from repro.harvester.storage import LiIonCoinCell, SuperCapacitor
from repro.rf.link import LinkBudget
from repro.rf.materials import WallMaterial
from repro.units import dbm_to_watts, watts_to_dbm

#: Energy per optimised QCIF grey-scale capture (§5.2).
IMAGE_CAPTURE_ENERGY_J = 10.4e-3

#: QCIF grey-scale frame size the MCU stores to FRAM.
QCIF_FRAME_BYTES = 176 * 144

#: Li-Ion charge/discharge round trip applied to energy-neutral operation.
LIION_ROUND_TRIP = 0.85


@dataclass(frozen=True)
class CameraResult:
    """Outcome of evaluating the camera at one placement."""

    distance_feet: float
    received_power_dbm: float
    harvested_power_w: float
    inter_frame_time_s: float

    @property
    def operational(self) -> bool:
        """True when frames are ever captured."""
        return not math.isinf(self.inter_frame_time_s)

    @property
    def inter_frame_minutes(self) -> float:
        """Fig 12/13 y-axis units."""
        return self.inter_frame_time_s / 60.0


class WiFiCamera:
    """A camera powered by a PoWiFi router.

    Parameters
    ----------
    battery_recharging:
        Choose between the super-capacitor build and the Li-Ion build.
    harvester:
        Override the default harvester chain.
    capture_energy_j:
        Energy per image capture.
    """

    def __init__(
        self,
        battery_recharging: bool = False,
        harvester: Optional[Harvester] = None,
        capture_energy_j: float = IMAGE_CAPTURE_ENERGY_J,
    ) -> None:
        if capture_energy_j <= 0:
            raise ConfigurationError("capture energy must be > 0")
        self.battery_recharging = battery_recharging
        if harvester is None:
            harvester = (
                battery_recharging_harvester()
                if battery_recharging
                else battery_free_camera_harvester()
            )
        self.harvester = harvester
        self.capture_energy_j = capture_energy_j
        self.storage = LiIonCoinCell() if battery_recharging else SuperCapacitor()

    def harvested_power_w(
        self,
        received_power_dbm: float,
        occupancy: float = 1.0,
        frequency_hz: float = 2.437e9,
    ) -> float:
        """DC power flowing into the camera's storage element."""
        if occupancy < 0:
            raise ConfigurationError(f"occupancy must be >= 0, got {occupancy}")
        incident_w = dbm_to_watts(received_power_dbm) * occupancy
        if incident_w <= 0:
            return 0.0
        dc = self.harvester.dc_output_power_w(watts_to_dbm(incident_w), frequency_hz)
        if self.battery_recharging:
            dc *= LIION_ROUND_TRIP
        return dc

    def inter_frame_time_s(
        self,
        received_power_dbm: float,
        occupancy: float = 1.0,
        frequency_hz: float = 2.437e9,
    ) -> float:
        """Seconds between captures (∞ when the harvester cannot run)."""
        power = self.harvested_power_w(received_power_dbm, occupancy, frequency_hz)
        if power <= 0:
            return float("inf")
        return self.capture_energy_j / power

    def evaluate_at(
        self,
        link: LinkBudget,
        distance_feet: float,
        occupancy: float = 0.909,
        wall: Optional[WallMaterial] = None,
    ) -> CameraResult:
        """Evaluate at a distance, optionally behind a wall (Fig 13).

        The default occupancy is the §5.2 experiments' measured average
        (90.9 %).
        """
        rx_dbm = link.received_power_dbm_at_feet(distance_feet)
        if wall is not None:
            rx_dbm -= wall.attenuation_db
        power = self.harvested_power_w(rx_dbm, occupancy)
        return CameraResult(
            distance_feet=distance_feet,
            received_power_dbm=rx_dbm,
            harvested_power_w=power,
            inter_frame_time_s=(
                self.capture_energy_j / power if power > 0 else float("inf")
            ),
        )

    def range_feet(
        self,
        link: LinkBudget,
        occupancy: float = 0.909,
        max_feet: float = 60.0,
        step_feet: float = 0.5,
    ) -> float:
        """Largest distance at which frames are still captured (bisected)."""
        steps = int(max_feet / step_feet)
        last = first_true(
            lambda i: not self.evaluate_at(link, i * step_feet, occupancy).operational,
            1, steps,
        ) - 1
        return last * step_feet
