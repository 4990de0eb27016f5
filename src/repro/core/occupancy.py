"""Channel-occupancy measurement — the paper's key metric.

§4 defines occupancy from a monitor-interface capture as::

    occupancy = sum_i(size_i / rate_i) / total_duration

over the frames the router transmitted (size in bits, rate in bit/s). Note
this is *payload airtime*: PHY preambles and MAC idle overheads are invisible
to the radiotap arithmetic, so a saturated channel measures below 100 % on a
single channel while the *cumulative* occupancy across three channels can
exceed 100 % (§4, §6).

Two implementations are provided:

* :func:`occupancy_from_pcap` — parses a radiotap pcap (the tshark role);
* :class:`OccupancyAnalyzer` — a live medium observer, cheaper for long runs,
  computing the identical statistic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.mac80211.medium import Medium, TransmissionRecord
from repro.obs.hotpath import Tallies
from repro.packets.pcap import PcapReader
from repro.packets.radiotap import RadiotapHeader


@dataclass
class OccupancySeries:
    """Windowed occupancy samples (e.g. one per 60 s in the home study)."""

    window_s: float
    samples: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        """Mean occupancy across windows."""
        if not self.samples:
            raise ConfigurationError("series is empty")
        return sum(self.samples) / len(self.samples)

    def cdf(self) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) points, for the paper's CDF plots."""
        from repro.analysis import empirical_cdf

        return empirical_cdf(self.samples)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile ``q`` in [0, 100]."""
        from repro.analysis import percentile

        if not self.samples:
            raise ConfigurationError("series is empty")
        return percentile(self.samples, q)


def occupancy_from_pcap(
    source: Union[str, bytes, BinaryIO],
    duration_s: Optional[float] = None,
) -> float:
    """Compute Σ size/rate ÷ duration from a radiotap pcap capture.

    Parameters
    ----------
    source:
        Path, raw bytes, or file object of a capture written by
        :class:`repro.mac80211.capture.MonitorCapture` (or real tcpdump
        output restricted to the radiotap fields this library emits).
    duration_s:
        Total observation duration. Defaults to the span between the first
        and last capture timestamps — supply the true duration when the
        capture has idle head/tail time.
    """
    airtime = 0.0
    first: Optional[float] = None
    last: Optional[float] = None
    with PcapReader(source) as reader:
        for record in reader:
            header, frame = RadiotapHeader.decode(record.data)
            if header.rate_mbps <= 0:
                raise ConfigurationError("capture contains a zero-rate frame")
            size_bits = 8 * len(frame)
            airtime += size_bits / (header.rate_mbps * 1e6)
            first = record.timestamp if first is None else first
            last = record.timestamp
    if duration_s is None:
        if first is None or last is None or last <= first:
            raise ConfigurationError(
                "cannot infer duration from a capture with < 2 frames; "
                "pass duration_s explicitly"
            )
        duration_s = last - first
    if duration_s <= 0:
        raise ConfigurationError(f"duration must be > 0 s, got {duration_s}")
    return airtime / duration_s


class OccupancyAnalyzer:
    """Live occupancy accounting on one medium.

    Computes the same Σ size/rate statistic as the pcap path, without
    materialising frame bytes. Subscribe one per channel; ask for the overall
    occupancy, a windowed series, or per-window values aligned across
    channels for cumulative occupancy.

    Parameters
    ----------
    medium:
        The channel to observe.
    station_filter:
        Restrict to frames transmitted by this station (the router), as the
        paper's tshark filter does. ``None`` counts every transmitter.
    """

    def __init__(self, medium: Medium, station_filter: Optional[str] = None) -> None:
        self.medium = medium
        self.station_filter = station_filter
        #: Start time and payload airtime of every counted frame, in order.
        self._times: List[float] = []
        self._airtimes: List[float] = []
        self._started_at = medium.sim.now
        self._airtime_total = 0.0
        sim = medium.sim
        metrics = sim.metrics
        if metrics.enabled:
            # Everything publishes from the frame lists (repro.obs.hotpath),
            # so counting a frame costs the same with observability off.
            labels = dict(channel=medium.channel, station=station_filter or "*")
            tallies = Tallies(self)
            tallies.add_counter(
                metrics.counter("core.occupancy.frames", **labels), "frame_count"
            )
            tallies.add_sums(
                metrics.counter("core.occupancy.airtime_s", **labels),
                self._airtimes,
            )
            tallies.add_gauge(
                metrics.gauge("core.occupancy.fraction", **labels),
                "_fraction_sets",
                "_fraction",
            )
            sim.add_tallies(tallies)
        medium.add_observer(self._on_transmission)

    def _on_transmission(self, record: TransmissionRecord) -> None:
        for station_name, frame in record.transmissions:
            if self.station_filter is not None and station_name != self.station_filter:
                continue
            airtime = 8 * frame.mac_bytes / (frame.rate_mbps * 1e6)
            self._times.append(record.start)
            self._airtimes.append(airtime)
            self._airtime_total += airtime

    # The live occupancy gauge, Σ size/rate ÷ elapsed, is set once per frame
    # counted after the start instant (counting the in-flight frame, so it
    # can briefly lead the windowed statistic). Observers run inside the
    # transmission, so a frame's elapsed time is its start minus ours, and
    # the last set is always the last frame's.

    @property
    def _fraction_sets(self) -> int:
        return len(self._times) - bisect.bisect_right(self._times, self._started_at)

    @property
    def _fraction(self) -> float:
        return self._airtime_total / (self._times[-1] - self._started_at)

    @property
    def frame_count(self) -> int:
        """Number of frames counted so far."""
        return len(self._times)

    def occupancy(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Occupancy over ``[start, end)`` (defaults: observation span)."""
        if start is None:
            start = self._started_at
        if end is None:
            end = self.medium.sim.now
        if end <= start:
            raise ConfigurationError("window must have positive length")
        airtime = sum(
            a for t, a in zip(self._times, self._airtimes) if start <= t < end
        )
        return airtime / (end - start)

    def series(
        self,
        window_s: float,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> OccupancySeries:
        """Windowed occupancy over the observation period."""
        if window_s <= 0:
            raise ConfigurationError(f"window must be > 0 s, got {window_s}")
        if start is None:
            start = self._started_at
        if end is None:
            end = self.medium.sim.now
        series = OccupancySeries(window_s=window_s)
        t = start
        while t + window_s <= end + 1e-12:
            series.samples.append(self.occupancy(t, t + window_s))
            t += window_s
        return series


def cumulative_series(per_channel: Sequence[OccupancySeries]) -> OccupancySeries:
    """Sum aligned per-channel series into the cumulative occupancy.

    The paper's headline metric: cumulative occupancy across channels 1, 6
    and 11 can exceed 100 % because the three chipsets transmit
    independently (§4).
    """
    if not per_channel:
        raise ConfigurationError("need at least one channel series")
    window = per_channel[0].window_s
    for s in per_channel:
        # Windows are copies of one configured literal, so exact equality
        # is the correct consistency check, not float arithmetic.
        if s.window_s != window:  # lint: ignore[PW005] config equality, not time math
            raise ConfigurationError("series windows differ")
    n = min(len(s.samples) for s in per_channel)
    out = OccupancySeries(window_s=window)
    for i in range(n):
        out.samples.append(sum(s.samples[i] for s in per_channel))
    return out
