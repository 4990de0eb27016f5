"""The per-interface device transmit queue.

This queue is the hinge of the whole PoWiFi design: ``IP_Power`` drops a
power datagram whenever the depth of the wireless interface's queue is at or
above a threshold (five frames, after the tuning in §3.2(i)), which is what
keeps client traffic unharmed while the channel stays full.

The queue supports two service disciplines:

* plain FIFO — a classic driver ring;
* class-based round robin — mac80211's software queues serve broadcast and
  per-station unicast queues in turn, which is why the paper's *NoQueue*
  scheme "roughly halves" client throughput rather than starving it (§4.1(a)).
  The classifier maps each frame to a service class; classes with backlog are
  served round-robin.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.mac80211.frames import FrameJob
from repro.obs.hotpath import Tallies
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

#: Depth-at-push histogram buckets (frames); the interesting edges sit
#: around the IP_Power thresholds (1-5) and the txqueuelen default (1000).
_DEPTH_BUCKETS = (0, 1, 2, 3, 5, 10, 20, 50, 100, 200, 500, 1000)

Classifier = Callable[[FrameJob], str]


def single_class(_frame: FrameJob) -> str:
    """Default classifier: everything shares one FIFO."""
    return "all"


def power_vs_client(frame: FrameJob) -> str:
    """Classifier mirroring mac80211: broadcast power traffic is a distinct
    software queue from unicast client traffic."""
    return "power" if frame.is_power else "client"


class DeviceQueue:
    """A bounded frame queue with optional class-based round-robin service.

    Parameters
    ----------
    capacity:
        Bound *per class*; ``push`` beyond it tail-drops. Per-class bounding
        mirrors mac80211's per-software-queue limits: a backlogged broadcast
        (power) queue cannot starve the unicast client queue of buffer
        space, only of airtime.
    classifier:
        Maps frames to class names. With the default single class the queue
        degenerates to a bounded FIFO.
    metrics:
        Destination registry for depth/drop telemetry; ``None`` (the
        default) wires the shared no-op registry, so bare queues cost
        nothing. Stations pass their simulator's registry.
    name:
        Label for this queue's metrics (typically the owning station name).
    """

    def __init__(
        self,
        capacity: int = 1000,
        classifier: Classifier = single_class,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "queue",
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"queue capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self.classifier = classifier
        self.name = name
        self._classes: "OrderedDict[str, Deque[FrameJob]]" = OrderedDict()
        self._size = 0
        self._next_index = 0
        #: Queued frames with a non-zero attempt count (MAC retries put back
        #: via push_front). While zero — the overwhelmingly common state —
        #: the head frame's attempt count is known to be 0 without a peek,
        #: which keeps the backoff-draw hot path off the round-robin scan.
        self._retry_pending = 0
        self.total_enqueued = 0
        self.total_tail_dropped = 0
        self.high_watermark = 0
        #: Set counts of the depth and high-watermark gauges; each gauge's
        #: last value is the live ``_size`` / ``high_watermark``.
        self._depth_sets = 0
        self._high_watermark_sets = 0
        #: Deferred instruments (repro.obs.hotpath), None when the registry
        #: is disabled; the owning station publishes them with its simulator.
        self.tallies: Optional[Tallies] = None
        self._depth_buffer: Optional[List[int]] = None
        registry = metrics if metrics is not None else NULL_REGISTRY
        if registry.enabled:
            tallies = self.tallies = Tallies(self)
            tallies.add_counter(
                registry.counter("net.txqueue.enqueued", queue=name),
                "total_enqueued",
            )
            tallies.add_counter(
                registry.counter("net.txqueue.tail_dropped", queue=name),
                "total_tail_dropped",
            )
            tallies.add_gauge(
                registry.gauge("net.txqueue.depth", queue=name),
                "_depth_sets",
                "_size",
            )
            tallies.add_gauge(
                registry.gauge("net.txqueue.high_watermark", queue=name),
                "_high_watermark_sets",
                "high_watermark",
            )
            self._depth_buffer = tallies.add_histogram(
                registry.histogram(
                    "net.txqueue.depth_on_push", buckets=_DEPTH_BUCKETS, queue=name
                )
            )
        #: Optional observer invoked (with no arguments) after any change to
        #: queue contents — push success, pop, push_front, clear. The
        #: injector's idle-tick fast-forward subscribes to know when a
        #: dormancy precondition (depth, class fill) may have shifted. Must
        #: not mutate the queue re-entrantly.
        self.on_change: Optional[Callable[[], None]] = None

    # ---------------------------------------------------------------- mutation

    def push(self, frame: FrameJob) -> bool:
        """Append ``frame`` to its class; returns False (tail drop) when its
        class is full."""
        classes = self._classes
        name = self.classifier(frame)
        queue = classes.get(name)
        if queue is None:
            queue = classes[name] = deque()
        if len(queue) >= self.capacity:
            self.total_tail_dropped += 1
            return False
        queue.append(frame)
        size = self._size + 1
        self._size = size
        # getattr, not attribute access: the queue is payload-agnostic by
        # contract (perfbench/micro.py times push/pop with bare object()
        # payloads), so a payload without an attempt counter simply never
        # marks a retry pending.
        if getattr(frame, "attempts", 0):
            self._retry_pending += 1
        self.total_enqueued += 1
        self._depth_sets += 1
        if size > self.high_watermark:
            self.high_watermark = size
            self._high_watermark_sets += 1
        depths = self._depth_buffer
        if depths is not None:
            depths.append(size)
        if self.on_change is not None:
            self.on_change()
        return True

    def push_front(self, frame: FrameJob) -> None:
        """Return a frame to the head of its class (MAC retry path).

        Always succeeds: a frame being retried was already admitted, so
        re-insertion must not be droppable.
        """
        classes = self._classes
        name = self.classifier(frame)
        queue = classes.get(name)
        if queue is None:
            queue = classes[name] = deque()
        queue.appendleft(frame)
        self._size += 1
        if getattr(frame, "attempts", 0):
            self._retry_pending += 1
        self._depth_sets += 1
        if self.on_change is not None:
            self.on_change()

    def peek(self) -> Optional[FrameJob]:
        """The frame the next ``pop`` would return, or None when empty."""
        if not self._size:
            return None
        # pop's class selection: round robin over the backlogged classes.
        classes = self._classes
        if len(classes) == 1:
            (queue,) = classes.values()
            return queue[0]
        backlogged = [q for q in classes.values() if q]
        return backlogged[self._next_index % len(backlogged)][0]

    def pop(self) -> Optional[FrameJob]:
        """Remove and return the next frame per the service discipline."""
        if not self._size:
            return None
        # Round robin over the backlogged classes (a single class is a FIFO).
        classes = self._classes
        if len(classes) == 1:
            (queue,) = classes.values()
            frame = queue.popleft()
        else:
            backlogged = [q for q in classes.values() if q]
            frame = backlogged[self._next_index % len(backlogged)].popleft()
        self._size -= 1
        if getattr(frame, "attempts", 0):
            self._retry_pending -= 1
        self._next_index += 1
        self._depth_sets += 1
        if self.on_change is not None:
            self.on_change()
        return frame

    def clear(self) -> None:
        """Drop everything (interface reset)."""
        self._classes.clear()
        self._size = 0
        self._next_index = 0
        self._retry_pending = 0
        self._depth_sets += 1
        if self.on_change is not None:
            self.on_change()

    # ----------------------------------------------------------------- queries

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[FrameJob]:
        for q in self._classes.values():
            yield from q

    @property
    def depth(self) -> int:
        """Current number of queued frames (the IP_Power signal)."""
        return self._size

    def depth_of(self, class_name: str) -> int:
        """Backlog of one service class."""
        q = self._classes.get(class_name)
        return len(q) if q else 0

    @property
    def class_names(self) -> List[str]:
        """Names of classes that have ever held a frame."""
        return list(self._classes.keys())
