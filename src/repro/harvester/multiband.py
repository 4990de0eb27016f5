"""Multi-band harvesting — the §8(e) future direction, implemented.

The paper closes with: "Future designs would generalize our multi-channel
approach to operate across multiple ISM bands (e.g., 900 MHz, 2.4 GHz and
5 GHz)." This module builds that generalisation for the two bands with
commodity source hardware: a 900 MHz branch (UHF RFID readers, LoRa
gateways, 915 MHz ISM transmitters) alongside the paper's 2.4 GHz Wi-Fi
branch. Each branch is a full matching+doubler chain co-designed for its
band; a lossless-ish diplexer model splits the antenna signal, and the DC
outputs sum at the converter input (the standard RF-combining architecture
of multiband rectennas, cf. the paper's reference [43]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CircuitError, ConfigurationError
from repro.harvester.dcdc import DcDcConverter, SeikoSz882
from repro.harvester.harvester import Harvester
from repro.harvester.matching import (
    LMatchingNetwork,
    RectifierImpedanceModel,
    battery_free_matching,
)
from repro.harvester.rectifier import VoltageDoubler
from repro.units import dbm_to_watts, watts_to_dbm

#: The 900 MHz ISM band (US allocation).
BAND_900_START_HZ = 902e6
BAND_900_STOP_HZ = 928e6

#: The 2.4 GHz Wi-Fi band (the paper's 72 MHz span).
BAND_2400_START_HZ = 2.401e9
BAND_2400_STOP_HZ = 2.473e9

#: Diplexer insertion loss per branch (dB -> linear), typical SAW diplexer.
DIPLEXER_LOSS_FRACTION = 0.93


def band_900_matching() -> LMatchingNetwork:
    """An L-match co-designed for the 900 MHz branch.

    Numerically fitted the same way as the paper's 2.4 GHz values: with the
    DC-DC holding the rectifier at a 600 Ω operating point, 36 nH + 0.5 pF
    keeps return loss below -10 dB across 902-928 MHz.
    """
    return LMatchingNetwork(
        inductance_h=36e-9,
        capacitance_f=0.5e-12,
        rectifier=RectifierImpedanceModel(
            loaded_resistance_ohm=600.0,
            unloaded_resistance_ohm=1600.0,
            capacitance_f=0.79e-12,
        ),
    )


def band_900_harvester() -> Harvester:
    """The 900 MHz branch as a standalone chain (for per-band analysis)."""
    return Harvester(
        matching=band_900_matching(),
        rectifier=VoltageDoubler(knee_voltage_v=0.080, loss_voltage_v=0.10),
        dcdc=SeikoSz882(),
        name="band-900",
    )


@dataclass(frozen=True)
class BandInput:
    """Incident RF on one band."""

    frequency_hz: float
    power_dbm: float


class MultiBandHarvester:
    """Two harvesting branches behind a diplexer, DC-combined.

    Parameters
    ----------
    branches:
        Mapping band label -> (harvester chain, band start Hz, band stop Hz).
        Defaults to the paper's 2.4 GHz battery-free chain plus the 900 MHz
        branch above.
    dcdc:
        The shared converter the branches' DC outputs feed. Branch chains
        still model their own converters' loading for impedance purposes;
        the shared converter only sets thresholds for the combined budget.
    """

    def __init__(
        self,
        branches: Optional[Dict[str, Tuple[Harvester, float, float]]] = None,
    ) -> None:
        if branches is None:
            branches = {
                "2.4GHz": (
                    Harvester(
                        matching=battery_free_matching(),
                        rectifier=VoltageDoubler(
                            knee_voltage_v=0.080, loss_voltage_v=0.10
                        ),
                        dcdc=SeikoSz882(),
                        name="band-2400",
                    ),
                    BAND_2400_START_HZ,
                    BAND_2400_STOP_HZ,
                ),
                "900MHz": (band_900_harvester(), BAND_900_START_HZ, BAND_900_STOP_HZ),
            }
        if not branches:
            raise ConfigurationError("need at least one branch")
        self.branches = branches

    # ---------------------------------------------------------------- routing

    def branch_for(self, frequency_hz: float) -> Optional[str]:
        """Which branch's band contains ``frequency_hz`` (None if no one's)."""
        for label, (_chain, start, stop) in self.branches.items():
            if start <= frequency_hz <= stop:
                return label
        return None

    # --------------------------------------------------------------- harvest

    def dc_output_power_w(self, inputs: Sequence[BandInput]) -> float:
        """Combined DC output for simultaneous incident signals.

        Each input routes through the diplexer to its band's branch; inputs
        outside every band are absorbed by the diplexer's stopbands and
        contribute nothing. Per-branch DC outputs add.
        """
        per_branch_watts: Dict[str, float] = {label: 0.0 for label in self.branches}
        per_branch_freq: Dict[str, float] = {}
        for rf in inputs:
            label = self.branch_for(rf.frequency_hz)
            if label is None:
                continue
            per_branch_watts[label] += (
                dbm_to_watts(rf.power_dbm) * DIPLEXER_LOSS_FRACTION
            )
            per_branch_freq[label] = rf.frequency_hz
        total = 0.0
        for label, watts in per_branch_watts.items():
            if watts <= 0.0:
                continue
            chain, _start, _stop = self.branches[label]
            total += chain.dc_output_power_w(
                watts_to_dbm(watts), per_branch_freq[label]
            )
        return total

    def sensitivity_dbm(self, frequency_hz: float) -> float:
        """Single-tone sensitivity at ``frequency_hz`` (diplexer included)."""
        label = self.branch_for(frequency_hz)
        if label is None:
            raise CircuitError(
                f"{frequency_hz / 1e9:.3f} GHz is outside every branch's band"
            )
        chain, _start, _stop = self.branches[label]
        raw = chain.sensitivity_dbm(frequency_hz)
        # The diplexer's insertion loss shifts the threshold up.
        return raw - 10.0 * math.log10(DIPLEXER_LOSS_FRACTION)
