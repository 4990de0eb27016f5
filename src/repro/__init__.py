"""PoWiFi reproduction: power over Wi-Fi with existing chipsets.

A full-system, simulation-backed reproduction of *"Powering the Next Billion
Devices with Wi-Fi"* (Talla et al., CoNEXT 2015): the multi-channel
power-packet injection router, the co-designed RF harvester, the battery-free
temperature and camera sensors, and every evaluation experiment in the paper.

Quickstart
----------
>>> from repro import quickstart_powifi
>>> result = quickstart_powifi(duration_s=2.0, seed=1)
>>> result.cumulative_occupancy > 0.5
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__version__ = "1.0.0"

__all__ = ["QuickstartResult", "quickstart_powifi"]


@dataclass
class QuickstartResult:
    """Summary of a short PoWiFi run."""

    occupancy_by_channel: Dict[int, float]
    cumulative_occupancy: float
    power_frames_sent: int


def quickstart_powifi(duration_s: float = 2.0, seed: int = 0) -> QuickstartResult:
    """Run a PoWiFi router on an otherwise idle set of channels.

    A minimal end-to-end exercise of the core design: three media, three
    injectors, the queue-threshold gate, and the occupancy metric.
    """
    from repro.core.config import Scheme
    from repro.core.router import PoWiFiRouter, RouterConfig
    from repro.mac80211.medium import Medium
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams

    sim = Simulator()
    streams = RandomStreams(seed)
    media = {ch: Medium(sim, channel=ch) for ch in (1, 6, 11)}
    router = PoWiFiRouter(sim, media, streams, RouterConfig(scheme=Scheme.POWIFI))
    router.start()
    sim.run(until=duration_s)
    return QuickstartResult(
        occupancy_by_channel=router.occupancy_by_channel(),
        cumulative_occupancy=router.cumulative_occupancy(),
        power_frames_sent=sum(i.sent for i in router.injectors.values()),
    )
