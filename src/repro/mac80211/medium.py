"""The shared wireless medium: carrier sense and DCF contention resolution.

One :class:`Medium` models one 2.4 GHz channel. Stations attach to it and
contend per the 802.11 DCF: when the medium goes idle, every station with a
pending frame waits DIFS plus its slotted backoff; the station(s) whose
counter expires first transmit. Simultaneous expiries collide. Unicast frames
are acknowledged and retransmitted with binary-exponential backoff; broadcast
frames (PoWiFi power packets) are fire-and-forget.

The medium publishes every transmission to observers — monitor captures
and harvester couplers subscribe to these records. Occupancy meters are
counted inside the transmission instead (:meth:`Medium.add_meter`), so a
round with no observer builds no record.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import MediumError
from repro.mac80211.airtime import ack_airtime_s, frame_airtime_s
from repro.mac80211.frames import FrameJob
from repro.mac80211.rates import PHY_80211G, PhyParameters
from repro.obs.hotpath import Tallies
from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.mac80211.station import Station


class TransmissionRecord:
    """One medium-busy period caused by one or more frames.

    A plain slotted class, built once per DCF round: construction is about
    seven times cheaper than a frozen dataclass's. Observers must treat it
    as read-only.

    Attributes
    ----------
    start:
        Simulation time the first bit hit the air.
    duration:
        Busy duration including any SIFS+ACK exchange.
    airtime:
        Duration of the (longest) data frame alone.
    channel:
        Channel number this medium models.
    transmissions:
        ``(station_name, frame)`` pairs; more than one entry means collision.
    collided:
        True when two or more stations transmitted simultaneously.
    success:
        For unicast: whether the (single) frame was acknowledged.
    """

    __slots__ = (
        "start", "duration", "airtime", "channel", "transmissions",
        "collided", "success",
    )

    def __init__(
        self,
        start: float,
        duration: float,
        airtime: float,
        channel: int,
        transmissions: Tuple[Tuple[str, FrameJob], ...],
        collided: bool,
        success: bool,
    ) -> None:
        self.start = start
        self.duration = duration
        self.airtime = airtime
        self.channel = channel
        self.transmissions = transmissions
        self.collided = collided
        self.success = success

    @property
    def end(self) -> float:
        """Time the medium went idle again."""
        return self.start + self.duration


MediumObserver = Callable[[TransmissionRecord], None]


class Medium:
    """A single-channel CSMA/CA medium.

    Parameters
    ----------
    sim:
        The simulation kernel.
    channel:
        2.4 GHz channel number (used for labelling and capture headers).
    phy:
        MAC/PHY timing constants.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: int = 1,
        phy: PhyParameters = PHY_80211G,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.phy = phy
        # phy is fixed for the life of the medium; the DIFS + slot pair is
        # read once per DCF round, so skip the dataclass attribute chain.
        self._difs = phy.difs
        self._slot_time = phy.slot_time
        self.stations: List["Station"] = []
        # frame_airtime_s is pure in (size, rate) for a fixed PHY and the
        # traffic mix reuses a handful of combinations millions of times.
        self._airtime_cache: dict = {}
        self._ack_cache: dict = {}
        # Backoff draw table, shared by every attached station: entry ``a``
        # is ``(n, n.bit_length())`` with ``n = cw_for_attempt(a) + 1``, up
        # to the first attempt whose window reaches ``cw_max``.
        table = []
        attempt = 0
        while True:
            cw = phy.cw_for_attempt(attempt)
            table.append((cw + 1, (cw + 1).bit_length()))
            if cw >= phy.cw_max:
                break
            attempt += 1
        self._backoff_table: Tuple[Tuple[int, int], ...] = tuple(table)
        self._busy_until = 0.0
        #: The pending DCF round (None when none is pending) and the one
        #: event object every round of this medium re-arms; at most one of
        #: each of ``dcf_round`` and ``tx_done`` is ever pending.
        self._round_event: Optional[Event] = None
        self._round_timer: Optional[Event] = None
        self._tx_done_timer: Optional[Event] = None
        self._round_contenders: List["Station"] = []
        self._observers: List[MediumObserver] = []
        #: ``(station name or None, times, airtimes)`` per registered meter.
        self._meters: List[Tuple[Optional[str], List[float], List[float]]] = []
        # A simulator's trace kinds are fixed when it is built.
        self._trace_tx = sim.trace.wants("mac.tx")
        self.total_busy_time = 0.0
        self.transmission_count = 0
        self.collision_count = 0
        self.dcf_rounds = 0
        # Per-round instruments publish from the tallies above and two
        # ordered buffers (repro.obs.hotpath); None with observability off.
        self._busy_buffer: Optional[List[float]] = None
        self._airtime_buffer: Optional[List[float]] = None
        metrics = sim.metrics
        if metrics.enabled:
            tallies = Tallies(self)
            tallies.add_counter(
                metrics.counter("mac.medium.transmissions", channel=channel),
                "transmission_count",
            )
            tallies.add_counter(
                metrics.counter("mac.medium.collisions", channel=channel),
                "collision_count",
            )
            self._busy_buffer = tallies.add_sums(
                metrics.counter("mac.medium.busy_time_s", channel=channel)
            )
            self._airtime_buffer = tallies.add_sums(
                metrics.counter("mac.medium.airtime_s", channel=channel)
            )
            tallies.add_counter(
                metrics.counter("mac.medium.dcf_rounds", channel=channel),
                "dcf_rounds",
            )
            sim.add_tallies(tallies)

    # ------------------------------------------------------------------ wiring

    def attach(self, station: "Station") -> None:
        """Register a station on this channel."""
        if station in self.stations:
            raise MediumError(f"station {station.name!r} already attached")
        self.stations.append(station)
        station._medium = self
        station._backoff_table = self._backoff_table
        station._retry_limit = self.phy.retry_limit
        station._meters = [
            (times, airtimes) for name, times, airtimes in self._meters
            if name is None or name == station.name
        ]

    def add_observer(self, observer: MediumObserver) -> None:
        """Subscribe a callback to every :class:`TransmissionRecord`."""
        self._observers.append(observer)

    def add_meter(
        self,
        times: List[float],
        airtimes: List[float],
        station: Optional[str] = None,
    ) -> None:
        """Count the frames of ``station`` (every station when None).

        Each frame that goes on the air appends its start time to ``times``
        and its payload airtime, ``8 * mac_bytes / (rate_mbps * 1e6)``, to
        ``airtimes``, in the order the round's winners transmit. Stations
        attached later are counted too.
        """
        self._meters.append((station, times, airtimes))
        for member in self.stations:
            if station is None or member.name == station:
                member._meters.append((times, airtimes))

    # --------------------------------------------------------------- contention

    def notify_ready(self) -> None:
        """A station's queue became non-empty; start a round if possible.

        Called by stations on enqueue and by the medium itself when a busy
        period ends. If the medium is busy, the round starts automatically
        when it clears; if a round is already pending, the newcomer joins
        the next one (a close approximation of joining mid-countdown).
        """
        if self._round_event is not None or self.sim._now < self._busy_until:
            return
        self._schedule_round()

    def _schedule_round(self) -> None:
        contenders = [s for s in self.stations if s.queue._size]
        if not contenders:
            return
        min_slots = None
        for station in contenders:
            remaining = station.backoff_remaining
            if remaining is None:
                remaining = station.ensure_backoff()
            if min_slots is None or remaining < min_slots:
                min_slots = remaining
        wait = self._difs + min_slots * self._slot_time
        self._round_contenders = contenders
        sim = self.sim
        event = self._round_timer
        if event is None:
            event = self._round_timer = sim.schedule(
                wait, self._resolve_round, min_slots, name="dcf_round"
            )
        else:
            sim.rearm(event, wait, min_slots)
        self._round_event = event

    def _resolve_round(self, min_slots: int) -> None:
        self._round_event = None
        # Re-validate: queues may have drained (e.g. a flow was cancelled).
        contenders = [s for s in self._round_contenders if s.queue._size]
        self._round_contenders = []
        if not contenders:
            self.notify_ready()
            return
        # A contender whose own transmission completed at the same instant
        # the round was scheduled (event-ordering tie at a busy boundary)
        # arrives here with a reset backoff; it re-draws and contends fresh.
        winners = []
        for station in contenders:
            remaining = station.backoff_remaining
            if remaining is None:
                remaining = station.ensure_backoff()
            if remaining <= min_slots:
                winners.append(station)
            else:
                station.backoff_remaining = remaining - min_slots
        if not winners:
            # All original minimum-backoff stations drained; restart.
            self.notify_ready()
            return
        self._transmit(winners)

    def _transmit(self, winners: Sequence["Station"]) -> None:
        collided = len(winners) > 1
        pairs: List[Tuple["Station", FrameJob]] = []
        airtime = 0.0
        airtime_cache = self._airtime_cache
        sim = self.sim
        start = sim._now
        for station in winners:
            frame = station.begin_transmission()
            pairs.append((station, frame))
            meters = station._meters
            if meters:
                payload = 8 * frame.mac_bytes / (frame.rate_mbps * 1e6)
                for times, airtimes in meters:
                    times.append(start)
                    airtimes.append(payload)
            key = (frame.mac_bytes, frame.rate_mbps)
            cached = airtime_cache.get(key)
            if cached is None:
                cached = airtime_cache[key] = frame_airtime_s(
                    frame.mac_bytes, frame.rate_mbps, self.phy
                )
            if cached > airtime:
                airtime = cached
        duration = airtime
        success = not collided
        # Only a clean unicast frame is followed by a SIFS + ACK exchange.
        if not collided:
            station, frame = pairs[0]
            if not frame.broadcast:
                if station.unicast_loss_probability > 0.0:
                    if station.loss_rng.random() < station.unicast_loss_probability:
                        success = False
                if success:
                    ack = self._ack_cache.get(frame.rate_mbps)
                    if ack is None:
                        ack = self._ack_cache[frame.rate_mbps] = ack_airtime_s(
                            frame.rate_mbps, self.phy
                        )
                    duration += self.phy.sifs + ack
        self._busy_until = start + duration
        self.total_busy_time += duration
        self.transmission_count += len(pairs)
        self.dcf_rounds += 1
        if collided:
            self.collision_count += 1
        busy = self._busy_buffer
        if busy is not None:
            busy.append(duration)
            self._airtime_buffer.append(airtime)
        if self._trace_tx:
            sim.trace.emit(
                start,
                f"medium:ch{self.channel}",
                "mac.tx",
                stations=[s.name for s, _ in pairs],
                airtime_s=airtime,
                duration_s=duration,
                collided=collided,
                success=success,
            )
        observers = self._observers
        if observers:
            record = TransmissionRecord(
                start, duration, airtime, self.channel,
                tuple([(s.name, f) for s, f in pairs]), collided, success,
            )
            for observer in observers:
                observer(record)
        event = self._tx_done_timer
        if event is None:
            self._tx_done_timer = sim.schedule(
                duration, self._finish_transmission, pairs, collided, success,
                name="tx_done",
            )
        else:
            sim.rearm(event, duration, pairs, collided, success)

    def _finish_transmission(
        self,
        pairs: Sequence[Tuple["Station", FrameJob]],
        collided: bool,
        success: bool,
    ) -> None:
        sim = self.sim
        delivered = success and not collided
        for station, frame in pairs:
            station.finish_transmission(frame, delivered)
        # notify_ready, inlined: once per busy period.
        if self._round_event is None and sim._now >= self._busy_until:
            self._schedule_round()

    # ---------------------------------------------------------------- metrics

    def occupancy(self, since: float = 0.0) -> float:
        """Fraction of wall-clock time the medium has been busy since t=0.

        This is the *physical* busy fraction; the paper's occupancy metric
        (Σ size/rate over captured frames) is computed by
        :class:`repro.core.occupancy.OccupancyAnalyzer` from captures and can
        exceed this because it excludes PHY preambles it cannot observe.
        """
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.total_busy_time / elapsed)
