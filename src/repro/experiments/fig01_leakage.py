"""Fig 1 / §2: why plain Wi-Fi cannot power the harvester.

A battery-free temperature sensor sits ten feet from a stock Asus RT-AC68U
(23 dBm, 4.04 dBi antennas) whose channel occupancy is in the 10–40 % range.
The driver generates a bursty transmission schedule at that occupancy, feeds
it to the rectifier-waveform simulator, and reports the peak reservoir
voltage — which must stay below the 300 mV DC–DC threshold, reproducing the
paper's 24-hour failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.harvester.harvester import battery_free_harvester
from repro.harvester.storage import Capacitor
from repro.harvester.waveform import Burst, RectifierWaveformSimulator, VoltageSample
from repro.rf.antenna import ASUS_ROUTER_ANTENNA
from repro.rf.link import LinkBudget, Transmitter
from repro.sim.rng import RandomStreams
from repro.units import feet_to_meters

#: The §2 experiment's geometry.
SENSOR_DISTANCE_FEET = 10.0

#: The DC–DC converter's minimum input voltage [15].
MIN_THRESHOLD_V = 0.30


@dataclass
class LeakageResult:
    """Outcome of the Fig 1 reproduction."""

    received_power_dbm: float
    occupancy: float
    peak_voltage_v: float
    mean_voltage_v: float
    samples: List[VoltageSample]

    @property
    def crossed_threshold(self) -> bool:
        """Whether the harvester ever reached the 300 mV threshold."""
        return self.peak_voltage_v >= MIN_THRESHOLD_V


def generate_bursty_schedule(
    duration_s: float,
    occupancy: float,
    seed: int = 0,
    mean_burst_s: float = 500e-6,
    rng: Optional[random.Random] = None,
) -> List[Burst]:
    """A random on/off schedule with the requested busy fraction.

    Burst lengths are exponential around ``mean_burst_s`` (a few frames of
    aggregated traffic); gaps are sized to meet the occupancy. Draws come
    from the injected ``rng`` when given, otherwise from the named
    ``fig1.bursts`` stream of a :class:`RandomStreams` built on ``seed``.
    """
    if not (0.0 < occupancy < 1.0):
        raise ConfigurationError(f"occupancy must be in (0, 1), got {occupancy}")
    if rng is None:
        rng = RandomStreams(seed).stream("fig1.bursts")
    mean_gap_s = mean_burst_s * (1.0 - occupancy) / occupancy
    bursts: List[Burst] = []
    t = 0.0
    while t < duration_s:
        gap = rng.expovariate(1.0 / mean_gap_s)
        burst = rng.expovariate(1.0 / mean_burst_s)
        start = t + gap
        bursts.append(Burst(start_s=start, duration_s=burst))
        t = start + burst
    return bursts


def _reservoir_waveform(
    transmitter: Transmitter, schedule: List[Burst], duration_s: float, occupancy: float
) -> LeakageResult:
    """Drive the reservoir ten feet from ``transmitter`` with ``schedule``."""
    link = LinkBudget(transmitter)
    rx_dbm = link.received_power_dbm(feet_to_meters(SENSOR_DISTANCE_FEET))
    simulator = RectifierWaveformSimulator(
        battery_free_harvester(),
        Capacitor(capacitance_f=1.0e-6, leakage_resistance_ohm=3.0e5),
        incident_power_dbm=rx_dbm,
    )
    samples = simulator.run(schedule, duration_s)
    return LeakageResult(
        received_power_dbm=rx_dbm,
        occupancy=occupancy,
        peak_voltage_v=max(s.voltage_v for s in samples),
        mean_voltage_v=sum(s.voltage_v for s in samples) / len(samples),
        samples=samples,
    )


def run_fig01(
    duration_s: float = 0.05,
    occupancy: float = 0.25,
    seed: int = 0,
) -> LeakageResult:
    """Reproduce the Fig 1 waveform measurement.

    Parameters
    ----------
    duration_s:
        Simulated span (the paper's figure shows 2.5 ms; longer spans make
        the sub-threshold conclusion statistically stronger).
    occupancy:
        The stock router's channel occupancy (§2: 10–40 %).
    """
    return _reservoir_waveform(
        Transmitter(tx_power_dbm=23.0, antenna=ASUS_ROUTER_ANTENNA),
        generate_bursty_schedule(duration_s, occupancy, seed),
        duration_s,
        occupancy,
    )


def run_fig01_powifi_contrast(
    duration_s: float = 0.05, seed: int = 0
) -> LeakageResult:
    """The counterfactual: a PoWiFi router at the same spot.

    With ~continuous cumulative transmissions and 30 dBm / 6 dBi, the same
    sensor's reservoir sails past 300 mV — the paper's whole point.
    """
    # Near-continuous transmission: 95 % occupancy in large chunks.
    schedule = generate_bursty_schedule(duration_s, 0.95, seed, mean_burst_s=5e-3)
    return _reservoir_waveform(
        Transmitter(tx_power_dbm=30.0), schedule, duration_s, 0.95
    )


def run_fig01_mac_driven(
    duration_s: float = 0.05,
    occupancy: float = 0.25,
    seed: int = 0,
) -> LeakageResult:
    """Fig 1 with the burst schedule produced by the DCF simulator itself.

    Instead of a synthetic on/off process, a stock AP is simulated on the
    shared medium at the §2 traffic level and the medium's actual
    transmission records drive the analog waveform — the full-stack version
    of the same measurement.
    """
    from repro.harvester.waveform import bursts_from_records
    from repro.mac80211.medium import Medium
    from repro.mac80211.station import Station
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.workloads.traffic import BurstyFrameSource

    sim = Simulator()
    streams = RandomStreams(seed)
    medium = Medium(sim, channel=6)
    ap = Station(sim, name="stock-ap", streams=streams)
    medium.attach(ap)
    records = []
    medium.add_observer(records.append)
    source = BurstyFrameSource(
        sim, ap, streams.stream("fig1"), target_occupancy=occupancy
    )
    source.start()
    sim.run(until=duration_s)

    return _reservoir_waveform(
        Transmitter(tx_power_dbm=23.0, antenna=ASUS_ROUTER_ANTENNA),
        bursts_from_records(records),
        duration_s,
        medium.occupancy(),
    )
