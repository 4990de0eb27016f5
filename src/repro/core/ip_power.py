"""The ``IP_Power`` gate: the kernel half of the PoWiFi mechanism.

§3.2 hoists MAC-layer queue state to the IP layer through a shim
(Power_MACshim) so that ``ip_local_out_sk()`` can drop *power* datagrams —
and only power datagrams — when the wireless interface already has enough
frames queued to keep the channel busy. Client traffic is never touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.mac80211.station import Station
from repro.obs.hotpath import Tallies
from repro.packets.ipv4 import IPv4Packet


@dataclass
class GateStatistics:
    """Counters mirroring what the kernel patch would expose in debugfs."""

    considered: int = 0
    admitted: int = 0
    dropped: int = 0

    @property
    def drop_fraction(self) -> float:
        """Fraction of power datagrams dropped by the gate."""
        if self.considered == 0:
            return 0.0
        return self.dropped / self.considered


class IpPowerGate:
    """Per-interface admission check for power datagrams.

    Parameters
    ----------
    station:
        The wireless interface whose transmit-queue depth gates admission
        (the Power_MACshim query path).
    queue_threshold:
        Datagrams are dropped when ``depth >= queue_threshold``; ``None``
        disables the check entirely (the NoQueue scheme).
    """

    def __init__(self, station: Station, queue_threshold: Optional[int]) -> None:
        if queue_threshold is not None and queue_threshold < 1:
            raise ConfigurationError(
                f"queue threshold must be >= 1 or None, got {queue_threshold}"
            )
        self.station = station
        self.queue_threshold = queue_threshold
        self.stats = GateStatistics()
        #: Deferred instruments and the queue depths seen by ``admit``
        #: awaiting publication (repro.obs.hotpath); None with
        #: observability off.
        self.tallies: Optional[Tallies] = None
        self.depth_buffer: Optional[List[int]] = None
        sim = station.sim
        #: Whether each bounced datagram is traced (``core.gate_drop``); a
        #: simulator's trace kinds are fixed when it is built.
        self.trace_drops = sim.trace.wants("core.gate_drop")
        metrics = sim.metrics
        name = station.name
        considered = metrics.counter("core.ip_power.considered", interface=name)
        admitted = metrics.counter("core.ip_power.admitted", interface=name)
        dropped = metrics.counter("core.ip_power.dropped", interface=name)
        self._m_depth_at_check = metrics.histogram(
            "core.ip_power.depth_at_check",
            buckets=(0, 1, 2, 3, 4, 5, 6, 8, 10, 20, 50),
            interface=name,
        )
        if metrics.enabled:
            tallies = self.tallies = Tallies(self)
            tallies.add_counter(considered, "stats.considered")
            tallies.add_counter(admitted, "stats.admitted")
            tallies.add_counter(dropped, "stats.dropped")
            self.depth_buffer = tallies.add_histogram(self._m_depth_at_check)
            sim.add_tallies(tallies)

    def admit(self) -> bool:
        """Decide whether the next power datagram may be queued.

        Mirrors the per-packet check in ``ip_local_out_sk()``: admitted when
        the interface queue depth is below the threshold, dropped (with an
        error code back to user space) otherwise.
        """
        stats = self.stats
        stats.considered += 1
        station = self.station
        # station.queue_depth, inlined: this runs once per injection tick.
        depth = station.queue._size + (1 if station._in_flight is not None else 0)
        depths = self.depth_buffer
        if depths is not None:
            depths.append(depth)
        threshold = self.queue_threshold
        if threshold is not None and depth >= threshold:
            stats.dropped += 1
            if self.trace_drops:
                station.sim.trace.emit(
                    station.sim.now,
                    station.name,
                    "core.gate_drop",
                    depth=depth,
                    threshold=threshold,
                )
            return False
        stats.admitted += 1
        return True

    def check_datagram(self, packet: IPv4Packet) -> bool:
        """Byte-level entry point: gate a real IPv4 datagram.

        Non-power datagrams (no IP_Power option) always pass — the gate
        never interferes with client traffic.
        """
        if not packet.is_power_packet:
            return True
        return self.admit()
