"""Fig 9: harvester return loss across the Wi-Fi band (§4.2(a)).

The VNA sweep: both harvester variants must stay below −10 dB return loss
over 2.401–2.473 GHz, which bounds the reflected-power penalty under 0.5 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.harvester.matching import (
    LMatchingNetwork,
    battery_free_matching,
    battery_recharging_matching,
)
from repro.mac80211.channels import WIFI_BAND_START_HZ, WIFI_BAND_STOP_HZ


@dataclass
class ReturnLossResult:
    """One harvester's Fig 9 sweep."""

    name: str
    #: (frequency Hz, return loss dB) series over the plotted span.
    sweep: List[Tuple[float, float]]
    worst_in_band_db: float

    @property
    def meets_spec(self) -> bool:
        """The paper's acceptance criterion: < −10 dB across the band."""
        return self.worst_in_band_db < -10.0

    @property
    def worst_power_penalty_db(self) -> float:
        """Power lost to reflection at the worst point (paper: < 0.5 dB)."""
        gamma_sq = 10.0 ** (self.worst_in_band_db / 10.0)
        return -10.0 * math.log10(1.0 - gamma_sq)


def sweep_network(network: LMatchingNetwork, name: str) -> ReturnLossResult:
    """Run the Fig 9 sweep on one matching network."""
    sweep = network.sweep_return_loss(2.400e9, 2.480e9, points=161)
    worst = max(
        rl
        for f, rl in sweep
        if WIFI_BAND_START_HZ <= f <= WIFI_BAND_STOP_HZ
    )
    return ReturnLossResult(name=name, sweep=sweep, worst_in_band_db=worst)


def run_fig09() -> Tuple[ReturnLossResult, ReturnLossResult]:
    """Both harvester variants' sweeps, as in Fig 9(a)/(b)."""
    return (
        sweep_network(battery_free_matching(), "battery-free"),
        sweep_network(battery_recharging_matching(), "battery-recharging"),
    )
