"""Generic stochastic frame sources.

These drive "other people's traffic": the busy-office background of §4.1 and
the neighbouring-network load of the home deployments. Both are stations of
their own on the shared medium, so they contend with the router exactly as
real neighbours do — which is how PoWiFi's carrier-sense fairness emerges in
the simulation rather than being assumed.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.mac80211.airtime import frame_airtime_s
from repro.mac80211.frames import FrameJob, FrameKind
from repro.mac80211.station import Station
from repro.sim.engine import Event, Simulator

#: (size bytes, weight) mix approximating indoor WLAN traffic: many small
#: control/ACK-sized frames, a body of mid-size, a bulk of full MTU.
DEFAULT_SIZE_MIX: Tuple[Tuple[int, float], ...] = (
    (90, 0.3),
    (400, 0.2),
    (800, 0.15),
    (1536, 0.35),
)

#: Rates neighbouring 802.11g devices plausibly run.
DEFAULT_RATE_MIX: Tuple[Tuple[float, float], ...] = (
    (6.0, 0.1),
    (12.0, 0.15),
    (24.0, 0.3),
    (36.0, 0.25),
    (54.0, 0.2),
)


def _weighted_choice(
    rng: random.Random, mix: Sequence[Tuple[float, float]], total: float
) -> float:
    """Draw a value of ``mix``; ``total`` is ``sum(w for _, w in mix)``."""
    x = rng.random() * total
    for value, weight in mix:
        x -= weight
        if x <= 0:
            return value
    return mix[-1][0]


class PoissonFrameSource:
    """Poisson arrivals of broadcast-ish frames at a target busy fraction.

    Parameters
    ----------
    sim, station:
        Kernel and the transmitting station.
    target_occupancy:
        Desired long-run fraction of airtime this source generates
        (0 disables the source).
    size_mix, rate_mix:
        Weighted distributions for frame size and PHY rate.
    """

    def __init__(
        self,
        sim: Simulator,
        station: Station,
        rng: random.Random,
        target_occupancy: float = 0.2,
        size_mix: Sequence[Tuple[int, float]] = DEFAULT_SIZE_MIX,
        rate_mix: Sequence[Tuple[float, float]] = DEFAULT_RATE_MIX,
    ) -> None:
        if not (0.0 <= target_occupancy < 1.0):
            raise ConfigurationError(
                f"target occupancy must be in [0, 1), got {target_occupancy}"
            )
        self.sim = sim
        self.station = station
        self.rng = rng
        self.size_mix = tuple(size_mix)
        self.rate_mix = tuple(rate_mix)
        # The weight totals every draw scales by, summed once.
        self._size_total = sum(w for _, w in self.size_mix)
        self._rate_total = sum(w for _, w in self.rate_mix)
        self.frames_generated = 0
        self._running = False
        self._timer: Optional[Event] = None
        self.set_target_occupancy(target_occupancy)

    def set_target_occupancy(self, target: float) -> None:
        """Retune the offered load (used by diurnal home profiles)."""
        if not (0.0 <= target < 1.0):
            raise ConfigurationError(f"target occupancy must be in [0, 1), got {target}")
        self.target_occupancy = target
        self._mean_gap = self._mean_airtime() / target if target > 0 else float("inf")

    def _mean_airtime(self) -> float:
        total_weight = sum(w for _, w in self.size_mix) * sum(w for _, w in self.rate_mix)
        mean = 0.0
        for size, sw in self.size_mix:
            for rate, rw in self.rate_mix:
                mean += sw * rw * frame_airtime_s(size, rate)
        return mean / total_weight

    def start(self) -> None:
        """Begin generating traffic."""
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop generating (queued frames drain)."""
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _schedule_next(self) -> None:
        if not self._running or self._mean_gap == float("inf"):
            return
        gap = self.rng.expovariate(1.0 / self._mean_gap)
        timer = self._timer
        if timer is None:
            self._timer = self.sim.schedule(gap, self._emit, name="bg_frame")
        else:
            # Called from the dispatched timer's own _emit: re-arm it.
            self.sim.rearm(timer, gap)

    def _emit(self) -> None:
        if not self._running:
            return
        rng = self.rng
        size = int(_weighted_choice(rng, self.size_mix, self._size_total))
        rate = _weighted_choice(rng, self.rate_mix, self._rate_total)
        frame = FrameJob(
            mac_bytes=size,
            rate_mbps=rate,
            kind=FrameKind.BACKGROUND,
            broadcast=True,  # background frames need no ACK bookkeeping here
            flow="background",
        )
        self.station.enqueue(frame)
        self.frames_generated += 1
        self._schedule_next()


class BurstyFrameSource(PoissonFrameSource):
    """Background traffic arriving in bursts (closer to real WLAN shape).

    A burst of geometrically distributed length arrives at Poisson epochs;
    within a burst frames are back-to-back in the queue. The long-run load
    still meets ``target_occupancy``.
    """

    def __init__(
        self,
        sim: Simulator,
        station: Station,
        rng: random.Random,
        target_occupancy: float = 0.2,
        mean_burst_frames: float = 5.0,
        **kwargs,
    ) -> None:
        if mean_burst_frames < 1.0:
            raise ConfigurationError(
                f"mean burst length must be >= 1, got {mean_burst_frames}"
            )
        self.mean_burst_frames = mean_burst_frames
        super().__init__(sim, station, rng, target_occupancy, **kwargs)

    def set_target_occupancy(self, target: float) -> None:
        """Retune the offered load, accounting for burst batching."""
        super().set_target_occupancy(target)
        if target > 0:
            # Bursts arrive less often; each delivers mean_burst_frames.
            self._mean_gap *= self.mean_burst_frames

    def _emit(self) -> None:
        if not self._running:
            return
        # Geometric burst length with the configured mean.
        rng = self.rng
        p = 1.0 / self.mean_burst_frames
        length = 1
        while rng.random() > p and length < 100:
            length += 1
        size_mix, size_total = self.size_mix, self._size_total
        rate_mix, rate_total = self.rate_mix, self._rate_total
        enqueue = self.station.enqueue
        for _ in range(length):
            size = int(_weighted_choice(rng, size_mix, size_total))
            rate = _weighted_choice(rng, rate_mix, rate_total)
            frame = FrameJob(
                mac_bytes=size,
                rate_mbps=rate,
                kind=FrameKind.BACKGROUND,
                broadcast=True,
                flow="background",
            )
            enqueue(frame)
        self.frames_generated += length
        self._schedule_next()
