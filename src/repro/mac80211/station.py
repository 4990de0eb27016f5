"""Stations: anything with a transmit queue attached to a medium.

A station couples a :class:`repro.netstack.txqueue.DeviceQueue` to the DCF.
The PoWiFi router instantiates one station per Atheros chipset (channels 1,
6, 11); clients, neighbouring APs and background traffic sources are further
stations on the same media.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.errors import MediumError
from repro.mac80211.frames import FrameJob, FrameKind
from repro.netstack.txqueue import DeviceQueue
from repro.obs.hotpath import Tallies
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mac80211.medium import Medium


class Station:
    """A DCF transmitter with a bounded device queue.

    Parameters
    ----------
    sim:
        Simulation kernel.
    name:
        Unique label, used in traces, captures and statistics.
    streams:
        Random-stream factory; the station draws backoff slots from the
        stream ``"backoff:<name>"`` and loss decisions from
        ``"loss:<name>"``.
    queue_capacity:
        Device queue bound in frames (Linux default txqueuelen-style).
    unicast_loss_probability:
        Channel-error probability applied per unicast attempt, exercising
        the retransmission path.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        streams: RandomStreams,
        queue_capacity: int = 1000,
        unicast_loss_probability: float = 0.0,
        queue_classifier=None,
    ) -> None:
        self.sim = sim
        self.name = name
        if queue_classifier is None:
            self.queue = DeviceQueue(
                capacity=queue_capacity, metrics=sim.metrics, name=name
            )
        else:
            self.queue = DeviceQueue(
                capacity=queue_capacity,
                classifier=queue_classifier,
                metrics=sim.metrics,
                name=name,
            )
        self.backoff_rng: random.Random = streams.stream(f"backoff:{name}")
        self.loss_rng: random.Random = streams.stream(f"loss:{name}")
        self.unicast_loss_probability = unicast_loss_probability
        self.backoff_remaining: Optional[int] = None
        self._medium: Optional["Medium"] = None
        #: The medium's backoff draw table and retry limit, set on attach.
        self._backoff_table: Optional[Tuple[Tuple[int, int], ...]] = None
        self._retry_limit = 0
        self._in_flight: Optional[FrameJob] = None
        #: Optional observer fired whenever the in-flight slot flips — the
        #: other half of :attr:`queue_depth` beyond the device queue itself.
        #: Queue-content changes are observable via ``queue.on_change``; a
        #: depth watcher (the injector fast-forward) subscribes to both.
        self.on_depth_change: Optional[callable] = None
        # A simulator's trace kinds are fixed when it is built.
        self._trace_drops = sim.trace.wants("mac.drop")
        self.frames_sent = 0
        self.frames_dropped = 0
        self.bytes_sent = 0
        self.retries = 0
        #: Backoff draws awaiting publication (repro.obs.hotpath); None with
        #: observability off.
        self._backoff_buffer: Optional[List[int]] = None
        metrics = sim.metrics
        if metrics.enabled:
            tallies = Tallies(self)
            tallies.add_counter(
                metrics.counter("mac.station.frames_sent", station=name),
                "frames_sent",
            )
            tallies.add_counter(
                metrics.counter("mac.station.frames_dropped", station=name),
                "frames_dropped",
            )
            tallies.add_counter(
                metrics.counter("mac.station.retries", station=name), "retries"
            )
            self._backoff_buffer = tallies.add_histogram(
                metrics.histogram(
                    "mac.station.backoff_slots",
                    buckets=(0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023),
                    station=name,
                )
            )
            sim.add_tallies(tallies)
            sim.add_tallies(self.queue.tallies)

    # ----------------------------------------------------------------- queue

    def enqueue(self, frame: FrameJob) -> bool:
        """Queue a frame for transmission; returns False if the queue is full.

        A full queue *drops* the frame (tail drop), completing it with
        ``success=False`` — this is the loss signal the TCP model reacts to.
        """
        frame.enqueued_at = self.sim._now
        if not self.queue.push(frame):
            self.frames_dropped += 1
            if self._trace_drops:
                self.sim.trace.emit(
                    self.sim.now, self.name, "mac.drop",
                    reason="tail_drop", flow=frame.flow,
                )
            frame.complete(False, self.sim.now)
            return False
        if self._medium is not None:
            self._medium.notify_ready()
        return True

    # ------------------------------------------------------------------- DCF

    def ensure_backoff(self) -> int:
        """Draw a fresh backoff counter if none is carried over; returns it."""
        slots = self.backoff_remaining
        if slots is None:
            if self._backoff_table is None:
                raise MediumError(
                    f"station {self.name!r} is not attached to a medium"
                )
            queue = self.queue
            # With no retried frame queued (the common case) the head's
            # attempt count is 0 by construction — skip the round-robin peek.
            if queue._retry_pending and queue._size:
                slots = self._draw_backoff(queue.peek().attempts)
            else:
                slots = self._draw_backoff(0)
        return slots

    def _draw_backoff(self, attempts: int) -> int:
        """Draw the counter for a frame's ``attempts``-th retry window.

        Exactly ``randint(0, cw_for_attempt(attempts))``: the same rejection
        loop over ``n.bit_length()`` random bits with ``n = cw + 1``, so the
        stream advances identically.
        """
        table = self._backoff_table
        n, bits = table[attempts] if attempts < len(table) else table[-1]
        getrandbits = self.backoff_rng.getrandbits
        slots = getrandbits(bits)
        while slots >= n:
            slots = getrandbits(bits)
        self.backoff_remaining = slots
        if self._backoff_buffer is not None:
            self._backoff_buffer.append(slots)
        return slots

    def begin_transmission(self) -> FrameJob:
        """Called by the medium when this station wins the round.

        The frame is popped from the queue for the duration of the attempt;
        a failed unicast attempt re-inserts it at the head of its class.
        """
        if self._in_flight is not None:
            raise MediumError(f"station {self.name!r} already transmitting")
        frame = self.queue.pop()
        if frame is None:
            raise MediumError(f"station {self.name!r} has nothing to send")
        self._in_flight = frame
        frame.attempts += 1
        if self.on_depth_change is not None:
            self.on_depth_change()
        return frame

    def finish_transmission(self, frame: FrameJob, success: bool) -> None:
        """Called by the medium when the busy period for ``frame`` ends."""
        if self._in_flight is not frame:
            raise MediumError(f"station {self.name!r}: unknown frame completion")
        self._in_flight = None
        if self.on_depth_change is not None:
            self.on_depth_change()
        if self._backoff_table is None:
            raise MediumError(f"station {self.name!r} is not attached to a medium")
        if frame.broadcast or success:
            # Broadcast is fire-and-forget: it leaves the MAC regardless of
            # whether it collided; unicast leaves on acknowledgement.
            self.backoff_remaining = None
            self.frames_sent += 1
            self.bytes_sent += frame.mac_bytes
            if frame.on_complete is not None:
                frame.on_complete(frame, success, self.sim._now)
            return
        # Failed unicast: retry with doubled contention window, or drop.
        attempts = frame.attempts
        if attempts > self._retry_limit:
            self.backoff_remaining = None
            self.frames_dropped += 1
            if self._trace_drops:
                self.sim.trace.emit(
                    self.sim.now, self.name, "mac.drop",
                    reason="retry_limit", flow=frame.flow,
                )
            frame.complete(False, self.sim.now)
            return
        self.retries += 1
        self.queue.push_front(frame)
        self._draw_backoff(attempts)

    # --------------------------------------------------------------- metrics

    @property
    def queue_depth(self) -> int:
        """Current device-queue depth — the value IP_Power checks (§3.2).

        Counts the frame currently on the air too: the kernel's queue
        accounting releases a frame only on its tx-completion interrupt,
        which is what makes a threshold of one drain the pipeline between
        completion and the injector's next tick (§3.2(i), Fig 5).
        """
        return len(self.queue) + (1 if self._in_flight is not None else 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Station {self.name!r} qdepth={len(self.queue)}>"
