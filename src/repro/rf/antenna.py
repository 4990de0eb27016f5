"""Antenna models.

The paper uses three antenna types: 4.04 dBi router antennas on the stock
Asus AP (§2), 6 dBi antennas on the PoWiFi prototype router (§4), and a 2 dBi
low-gain antenna on the harvesters (Fig. 2) chosen so the device is agnostic
to orientation. We model an antenna as an isotropic gain plus an efficiency
factor; pattern effects are deliberately out of scope because the paper's
harvester antenna is chosen to make them negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Antenna:
    """An antenna characterised by its peak gain.

    Attributes
    ----------
    gain_dbi:
        Peak gain relative to an isotropic radiator, in dBi.
    name:
        Human-readable label used in traces and reports.
    efficiency:
        Radiation efficiency in (0, 1]; losses here model mismatch and ohmic
        loss *inside the antenna*, distinct from the harvester's matching
        network losses which are modelled separately.
    """

    gain_dbi: float
    name: str = "antenna"
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.efficiency <= 1.0):
            raise ConfigurationError(
                f"antenna efficiency must be in (0, 1], got {self.efficiency!r}"
            )
        # Frozen: the gain is computed once, through object.__setattr__.
        gain = self.gain_dbi + 10.0 * math.log10(self.efficiency)
        object.__setattr__(self, "_effective_gain_dbi", gain)

    @property
    def effective_gain_dbi(self) -> float:
        """Gain including radiation efficiency, in dBi."""
        return self._effective_gain_dbi


#: The 2 dBi Pulse Electronics whip used by every harvester prototype [2].
HARVESTER_ANTENNA = Antenna(gain_dbi=2.0, name="pulse-w1010-2dbi")

#: The 6 dBi antennas on the PoWiFi prototype router (§4, one per chipset).
POWIFI_ROUTER_ANTENNA = Antenna(gain_dbi=6.0, name="powifi-6dbi")

#: The 4.04 dBi antennas on the stock Asus RT-AC68U used in §2.
ASUS_ROUTER_ANTENNA = Antenna(gain_dbi=4.04, name="asus-rt-ac68u-4dbi")
