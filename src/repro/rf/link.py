"""Link-budget computation from transmitter to harvester.

Combines transmit power, antenna gains, path loss and wall attenuation into
the RF power available at the harvester's antenna port — the quantity the
harvester models in :mod:`repro.harvester` consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis import first_true
from repro.errors import ConfigurationError
from repro.rf.antenna import Antenna, HARVESTER_ANTENNA, POWIFI_ROUTER_ANTENNA
from repro.rf.materials import WallMaterial
from repro.rf.propagation import (
    INDOOR_LOS_EXPONENT,
    LogDistancePathLoss,
    PathLossModel,
)
from repro.units import dbm_to_watts, feet_to_meters


@dataclass(frozen=True)
class Transmitter:
    """An RF power source: a Wi-Fi interface driving an antenna.

    Attributes
    ----------
    tx_power_dbm:
        Conducted transmit power per chain. The PoWiFi prototype transmits
        at 30 dBm (§4); stock smartphones transmit at 0–2 dBm (§2).
    antenna:
        The transmit antenna.
    frequency_hz:
        Carrier frequency (channel centre).
    """

    tx_power_dbm: float
    antenna: Antenna = POWIFI_ROUTER_ANTENNA
    frequency_hz: float = 2.437e9

    @property
    def eirp_dbm(self) -> float:
        """Equivalent isotropically radiated power in dBm."""
        return self.tx_power_dbm + self.antenna.effective_gain_dbi


@dataclass
class LinkBudget:
    """Received-power calculator for one transmitter/harvester placement.

    Parameters
    ----------
    transmitter:
        The RF source.
    rx_antenna:
        The harvester's antenna (2 dBi by default, as in the paper).
    path_loss:
        Path-loss model; defaults to indoor line-of-sight log-distance.
    wall:
        Optional wall between transmitter and receiver (Fig. 13 scenarios).
    """

    transmitter: Transmitter
    rx_antenna: Antenna = HARVESTER_ANTENNA
    path_loss: PathLossModel = field(
        default_factory=lambda: LogDistancePathLoss(exponent=INDOOR_LOS_EXPONENT)
    )
    wall: Optional[WallMaterial] = None

    def received_power_dbm(self, distance_m: float) -> float:
        """RF power at the harvester antenna port, in dBm."""
        if distance_m <= 0:
            raise ConfigurationError(f"distance must be > 0 m, got {distance_m!r}")
        loss = self.path_loss.path_loss_db(distance_m, self.transmitter.frequency_hz)
        wall_loss = self.wall.attenuation_db if self.wall is not None else 0.0
        return (
            self.transmitter.tx_power_dbm
            + self.transmitter.antenna.effective_gain_dbi
            + self.rx_antenna.effective_gain_dbi
            - loss
            - wall_loss
        )

    def received_power_dbm_at_feet(self, distance_feet: float) -> float:
        """Convenience wrapper: the paper's figures use feet."""
        return self.received_power_dbm(feet_to_meters(distance_feet))

    def received_power_watts(self, distance_m: float) -> float:
        """RF power at the harvester antenna port, in watts."""
        return dbm_to_watts(self.received_power_dbm(distance_m))

    def range_for_sensitivity_feet(
        self,
        sensitivity_dbm: float,
        max_feet: float = 100.0,
        resolution_feet: float = 0.1,
    ) -> float:
        """Largest distance (feet) at which received power meets ``sensitivity_dbm``.

        Searches a grid because path-loss models need not be invertible in
        general (walls, piecewise anchors). It bisects the grid for the first
        failing step, so the path loss must grow with distance, as every
        model in :mod:`repro.rf.propagation` does.
        """
        steps = int(max_feet / resolution_feet)
        last = first_true(
            lambda i: not (
                self.received_power_dbm_at_feet(i * resolution_feet) >= sensitivity_dbm
            ),
            1, steps,
        ) - 1
        return last * resolution_feet
