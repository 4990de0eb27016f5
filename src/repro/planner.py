"""Deployment planning: will a PoWiFi-powered sensor work *here*?

The adoption-facing API: given a router configuration, an environment
(path-loss exponent, walls, expected cumulative occupancy) and a sensing
requirement (operation energy and target rate), answer the questions a
deployer asks — maximum distance, achievable rate at a spot, required
occupancy, and a placement report for a list of candidate spots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.harvester.harvester import (
    Harvester,
    battery_free_harvester,
    battery_recharging_harvester,
)
from repro.rf.antenna import HARVESTER_ANTENNA, POWIFI_ROUTER_ANTENNA, Antenna
from repro.rf.link import LinkBudget, Transmitter
from repro.rf.materials import WallMaterial
from repro.rf.propagation import INDOOR_LOS_EXPONENT, LogDistancePathLoss
from repro.units import dbm_to_watts, watts_to_dbm


@dataclass(frozen=True)
class Environment:
    """The deployment site's RF characteristics."""

    #: Indoor path-loss exponent (1.7 corridor … 3+ cluttered NLOS).
    path_loss_exponent: float = INDOOR_LOS_EXPONENT
    #: Expected cumulative channel occupancy the router will sustain
    #: (≈1.9 on idle channels, ≈0.8–1.3 in occupied neighbourhoods per §6).
    cumulative_occupancy: float = 1.0
    #: Wall between router and sensor, if any.
    wall: Optional[WallMaterial] = None

    def __post_init__(self) -> None:
        if self.path_loss_exponent <= 0:
            raise ConfigurationError("path-loss exponent must be > 0")
        if self.cumulative_occupancy < 0:
            raise ConfigurationError("occupancy must be >= 0")


@dataclass(frozen=True)
class SensingRequirement:
    """What the deployed device must do."""

    #: Energy per operation (2.77 µJ temperature read, 10.4 mJ image, ...).
    operation_energy_j: float
    #: Required operations per second for the application.
    target_rate_hz: float

    def __post_init__(self) -> None:
        if self.operation_energy_j <= 0:
            raise ConfigurationError("operation energy must be > 0")
        if self.target_rate_hz <= 0:
            raise ConfigurationError("target rate must be > 0")

    @property
    def required_power_w(self) -> float:
        """DC power the requirement translates to."""
        return self.operation_energy_j * self.target_rate_hz


@dataclass(frozen=True)
class PlacementVerdict:
    """Planner output for one candidate spot."""

    distance_feet: float
    received_power_dbm: float
    harvested_power_w: float
    achievable_rate_hz: float
    feasible: bool
    margin_db: float


class DeploymentPlanner:
    """Answers feasibility questions for one router + harvester + site.

    Parameters
    ----------
    environment:
        Site characteristics.
    harvester:
        The harvesting chain (battery-free by default).
    tx_power_dbm, tx_antenna, rx_antenna:
        Router and device RF front ends (paper defaults).
    """

    def __init__(
        self,
        environment: Environment = Environment(),
        harvester: Optional[Harvester] = None,
        tx_power_dbm: float = 30.0,
        tx_antenna: Antenna = POWIFI_ROUTER_ANTENNA,
        rx_antenna: Antenna = HARVESTER_ANTENNA,
    ) -> None:
        self.environment = environment
        self.harvester = harvester or battery_free_harvester()
        self.link = LinkBudget(
            Transmitter(tx_power_dbm=tx_power_dbm, antenna=tx_antenna),
            rx_antenna=rx_antenna,
            path_loss=LogDistancePathLoss(exponent=environment.path_loss_exponent),
            wall=environment.wall,
        )

    # ---------------------------------------------------------------- queries

    def harvested_power_w(self, distance_feet: float) -> float:
        """Average DC power available at ``distance_feet``."""
        rx_dbm = self.link.received_power_dbm_at_feet(distance_feet)
        incident = dbm_to_watts(rx_dbm) * self.environment.cumulative_occupancy
        if incident <= 0:
            return 0.0
        return self.harvester.dc_output_power_w(watts_to_dbm(incident))

    def evaluate(
        self, requirement: SensingRequirement, distance_feet: float
    ) -> PlacementVerdict:
        """Feasibility of one placement for one requirement."""
        if distance_feet <= 0:
            raise ConfigurationError("distance must be > 0 feet")
        rx_dbm = self.link.received_power_dbm_at_feet(distance_feet)
        power = self.harvested_power_w(distance_feet)
        rate = power / requirement.operation_energy_j
        feasible = rate >= requirement.target_rate_hz
        # Power margin in dB between harvested and required DC power.
        if power > 0 and requirement.required_power_w > 0:
            margin_db = 10.0 * math.log10(power / requirement.required_power_w)
        else:
            margin_db = float("-inf")
        return PlacementVerdict(
            distance_feet=distance_feet,
            received_power_dbm=rx_dbm,
            harvested_power_w=power,
            achievable_rate_hz=rate,
            feasible=feasible,
            margin_db=margin_db,
        )

    def max_distance_feet(
        self,
        requirement: SensingRequirement,
        max_feet: float = 60.0,
        step_feet: float = 0.25,
    ) -> float:
        """Farthest placement meeting the requirement (0 if nowhere does)."""
        best = 0.0
        steps = int(max_feet / step_feet)
        for i in range(1, steps + 1):
            feet = i * step_feet
            if self.evaluate(requirement, feet).feasible:
                best = feet
            else:
                break
        return best

    def required_occupancy(
        self, requirement: SensingRequirement, distance_feet: float,
        ceiling: float = 3.0, resolution: float = 0.01,
    ) -> Optional[float]:
        """Smallest cumulative occupancy meeting the requirement at a spot.

        Returns None when even ``ceiling`` (three saturated channels) is not
        enough — the spot is out of range, full stop.
        """
        rx_dbm = self.link.received_power_dbm_at_feet(distance_feet)
        steps = int(ceiling / resolution)
        for i in range(1, steps + 1):
            occupancy = i * resolution
            incident = dbm_to_watts(rx_dbm) * occupancy
            power = self.harvester.dc_output_power_w(watts_to_dbm(incident))
            if power / requirement.operation_energy_j >= requirement.target_rate_hz:
                return occupancy
        return None

    def survey(
        self, requirement: SensingRequirement, distances_feet: Sequence[float]
    ) -> List[PlacementVerdict]:
        """Evaluate a list of candidate spots (a site-survey table)."""
        if not distances_feet:
            raise ConfigurationError("need at least one candidate distance")
        return [self.evaluate(requirement, feet) for feet in distances_feet]
