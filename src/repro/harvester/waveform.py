"""Time-domain rectifier-voltage simulation — the Fig 1 experiment.

Fig 1 is the paper's motivating observation: with normal router traffic
(10–40 % occupancy) the harvester's reservoir capacitor charges during each
Wi-Fi burst but leaks back down during the silent periods, never reaching
the DC–DC converter's 300 mV minimum. This module integrates the reservoir
voltage over an on/off transmission schedule:

* during a burst the rectifier charges the capacitor along its load line
  (a first-order approach toward the open-circuit voltage);
* during silence the capacitor discharges through the hardware leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.mac80211.medium import TransmissionRecord

from repro.errors import CircuitError
from repro.harvester.harvester import Harvester, RF_PARASITIC_FACTOR
from repro.harvester.storage import Capacitor
from repro.units import dbm_to_watts


@dataclass(frozen=True)
class VoltageSample:
    """One point of the simulated rectifier-output waveform."""

    time_s: float
    voltage_v: float
    transmitting: bool


@dataclass(frozen=True)
class Burst:
    """One on-air transmission interval."""

    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise CircuitError("burst duration must be >= 0")


class RectifierWaveformSimulator:
    """Integrates reservoir-capacitor voltage over a burst schedule.

    Parameters
    ----------
    harvester:
        Supplies the open-circuit voltage and charging conductance per the
        incident power.
    reservoir:
        The rectifier's output reservoir capacitor; leakage models both the
        capacitor's own leakage and the idle DC–DC input.
    incident_power_dbm:
        RF power at the harvester while a burst is on the air.
    """

    def __init__(
        self,
        harvester: Harvester,
        reservoir: Optional[Capacitor] = None,
        incident_power_dbm: float = -20.0,
        frequency_hz: float = 2.437e9,
    ) -> None:
        self.harvester = harvester
        self.reservoir = reservoir or Capacitor(
            capacitance_f=1.0e-6, leakage_resistance_ohm=1.0e6
        )
        self.incident_power_dbm = incident_power_dbm
        self.frequency_hz = frequency_hz
        # During a burst the unloaded doubler drives the reservoir toward
        # Voc through an effective source resistance from the load line.
        d, va, voc = harvester._regime(
            dbm_to_watts(incident_power_dbm), frequency_hz, loaded=False
        )
        self._voc = voc
        eta = harvester.rectifier.conversion_efficiency(va)
        peak_power = d * RF_PARASITIC_FACTOR * eta
        if voc > 0 and peak_power > 0:
            # Load line peaks at Voc/2 with P_peak; the equivalent Thevenin
            # source resistance is Voc^2 / (4 P_peak).
            self._source_resistance = voc * voc / (4.0 * peak_power)
        else:
            self._source_resistance = float("inf")

    @property
    def steady_state_voltage(self) -> float:
        """Voltage a continuous transmission would converge to."""
        if math.isinf(self._source_resistance):
            return 0.0
        r_leak = self.reservoir.leakage_resistance_ohm
        if math.isinf(r_leak):
            return self._voc
        return self._voc * r_leak / (r_leak + self._source_resistance)

    def _charge(self, dt_s: float) -> None:
        """First-order RC approach toward the (leak-divided) steady state."""
        if math.isinf(self._source_resistance):
            self.reservoir.leak(dt_s)
            return
        r_src = self._source_resistance
        r_leak = self.reservoir.leakage_resistance_ohm
        if math.isinf(r_leak):
            r_eff = r_src
            v_inf = self._voc
        else:
            r_eff = r_src * r_leak / (r_src + r_leak)
            v_inf = self.steady_state_voltage
        tau = r_eff * self.reservoir.capacitance_f
        v0 = self.reservoir.voltage_v
        self.reservoir.voltage_v = v_inf + (v0 - v_inf) * math.exp(-dt_s / tau)

    def run(
        self,
        bursts: Sequence[Burst],
        duration_s: float,
        sample_interval_s: float = 20e-6,
    ) -> List[VoltageSample]:
        """Simulate over ``duration_s`` seconds of the burst schedule.

        Bursts must be sorted and non-overlapping (as transmissions from a
        single capture are).
        """
        if duration_s <= 0:
            raise CircuitError("duration must be > 0")
        if sample_interval_s <= 0:
            raise CircuitError("sample interval must be > 0")
        samples: List[VoltageSample] = []
        ordered = sorted(bursts, key=lambda b: b.start_s)
        t = 0.0
        burst_index = 0
        while t < duration_s:
            # Is a burst active at time t?
            while (
                burst_index < len(ordered)
                and ordered[burst_index].start_s + ordered[burst_index].duration_s <= t
            ):
                burst_index += 1
            active = (
                burst_index < len(ordered)
                and ordered[burst_index].start_s <= t
            )
            step = sample_interval_s
            if active:
                self._charge(step)
            else:
                self.reservoir.leak(step)
            t += step
            samples.append(VoltageSample(t, self.reservoir.voltage_v, active))
        return samples


def bursts_from_records(records: Sequence["TransmissionRecord"]) -> List[Burst]:
    """Convert MAC-simulator transmission records into a burst schedule.

    Couples the discrete-event MAC directly into the analog waveform
    simulation: every busy period the medium records becomes an RF burst at
    the harvester (the harvester cannot decode frames, so collisions and
    retransmissions all count — §3.2's key observation).
    """
    return [Burst(start_s=r.start, duration_s=r.duration) for r in records]
