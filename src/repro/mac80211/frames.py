"""Frame descriptors queued at stations and carried over the medium.

The byte-level codecs in :mod:`repro.packets` produce real frame bytes; the
MAC simulation however schedules *descriptors* (size, rate, kind, owner) and
only materialises bytes when a monitor capture asks for them. This keeps long
runs cheap while preserving a faithful byte path when captures are attached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.mac80211.rates import ALL_RATES_MBPS, validate_rate

_frame_ids = itertools.count(1)

#: The legal rates as a set: every frame checks its rate on construction.
_RATES = frozenset(ALL_RATES_MBPS)


def consume_frame_ids(n: int) -> None:
    """Advance the global frame-id sequence by ``n`` without building frames.

    Bulk-settlement paths (the injector's saturated-drop fast-forward) use
    this so frames they *didn't* materialise still consume exactly the ids
    the live path would have — later frame ids (and the capture sequence
    numbers derived from them) stay byte-identical at equal seed.
    """
    for _ in range(n):
        next(_frame_ids)


class FrameKind(Enum):
    """What a frame is, for accounting and the queue-threshold logic."""

    #: Superfluous PoWiFi power traffic (UDP broadcast, IP_Power-marked).
    POWER = "power"
    #: Real client data (iperf payloads, HTTP, TCP segments).
    DATA = "data"
    #: TCP acknowledgement segments travelling over the air.
    TCP_ACK = "tcp_ack"
    #: Beacon management frames.
    BEACON = "beacon"
    #: Background traffic from neighbouring networks.
    BACKGROUND = "background"


@dataclass(slots=True)
class FrameJob:
    """A frame awaiting (or undergoing) transmission.

    Attributes
    ----------
    mac_bytes:
        Full MPDU size on the air: MAC header + payload + FCS.
    rate_mbps:
        PHY rate the frame will be modulated at.
    kind:
        Traffic class, see :class:`FrameKind`.
    broadcast:
        Broadcast frames are never acknowledged nor retransmitted.
    flow:
        Opaque label grouping frames into flows for per-flow statistics.
    on_complete:
        Called as ``on_complete(frame, success, completion_time)`` once the
        frame leaves the MAC — delivered, collided (broadcast), or dropped
        after the retry limit.
    payload:
        Optional application payload object carried through the MAC
        (e.g. a TCP segment descriptor); opaque to the MAC itself.
    """

    mac_bytes: int
    rate_mbps: float
    kind: FrameKind = FrameKind.DATA
    broadcast: bool = False
    flow: str = ""
    on_complete: Optional[Callable[["FrameJob", bool, float], None]] = None
    payload: Any = None
    meta: Dict[str, Any] = field(default_factory=dict)
    frame_id: int = field(default_factory=_frame_ids.__next__)
    enqueued_at: float = 0.0
    attempts: int = 0
    #: True for PoWiFi power traffic. Precomputed from ``kind`` (which never
    #: changes after construction): the queue classifier asks once per push
    #: and pop, so this must be an attribute read, not a property call.
    is_power: bool = field(init=False, default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mac_bytes <= 0:
            raise ConfigurationError(f"mac_bytes must be > 0, got {self.mac_bytes}")
        if self.rate_mbps not in _RATES:
            validate_rate(self.rate_mbps)
        self.is_power = self.kind is FrameKind.POWER

    def complete(self, success: bool, time: float) -> None:
        """Invoke the completion callback, if any."""
        if self.on_complete is not None:
            self.on_complete(self, success, time)
