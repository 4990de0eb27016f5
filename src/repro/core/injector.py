"""The user-space power-packet injector.

One :class:`PowerInjector` runs per wireless interface (§4: three Atheros
chipsets independently run the algorithm on channels 1, 6 and 11). It loops:
build a 1500-byte UDP broadcast datagram carrying the ``IP_Power`` option,
hand it to the IP layer, and sleep for the configured inter-packet delay.
The IP layer (:class:`repro.core.ip_power.IpPowerGate`) may bounce the send
with an error code when the interface queue is full enough already; the
injector just keeps its cadence.

Idle-tick fast-forward
----------------------
The tick cadence (~10 µs of sim time) makes ``power_inject`` by far the
hottest event kind in router-scale runs, yet most ticks are *no-ops on the
simulation*: the gate bounces them (queue at threshold) or, with the gate
disabled, the interface queue tail-drops them. Both outcomes touch only
counters and the depth histogram — they schedule nothing and perturb no
random stream. When a tick ends in one of those states the injector goes
**dormant**: it cancels its timer and instead *watches* the station's queue
depth (``DeviceQueue.on_change`` + ``Station.on_depth_change``). The moment
a tick could behave differently — depth falls below the threshold, the
saturated class gains room, the pacing is retuned, or the loop stops — it
settles every skipped tick in closed form and resumes live ticking at the
exact time the next tick would have fired.

Settlement is byte-exact, not approximate: tick times follow the same
``t += period`` float recurrence the live loop produces, tallies advance by
the same amounts, each skipped tick's queue depth joins the gate's ordered
depth buffer exactly where a live check would have put it (see
:mod:`repro.obs.hotpath`), frame ids the saturated path would have consumed
are consumed (:func:`repro.mac80211.frames.consume_frame_ids`), and the
every-64th-tick metric sync is replicated boundary-for-boundary. Equal-seed
runs therefore produce byte-identical results and metric exports with the
fast-forward on. Fast-forward is bypassed whenever its preconditions fail:
a trace subscription wants per-tick records (``core.gate_drop`` /
``mac.drop``) or an ``on_event`` debug hook is installed (see
``docs/performance.md``).
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Optional, Tuple

from repro.core.config import InjectorConfig
from repro.core.ip_power import IpPowerGate
from repro.mac80211.frames import FrameJob, FrameKind, consume_frame_ids
from repro.mac80211.station import Station
from repro.obs.hotpath import FLUSH_INTERVAL, Tallies
from repro.sim.engine import Event, Simulator

#: Consecutive no-op ticks before the injector goes dormant. Entering and
#: leaving dormancy costs roughly this many live ticks of bookkeeping, so
#: short idle runs are cheaper to tick through live.
IDLE_STREAK_BEFORE_SLEEP = 4

#: A settled spell at least this many ticks long marks the workload as
#: steadily saturated: the next dormancy engages after a single idle tick
#: instead of waiting out the full hysteresis streak. Purely a performance
#: policy — dormancy is invisible, so any streak choice yields identical
#: results; the adaptation only avoids re-paying the streak on every drain
#: cycle of a long saturated phase.
LONG_SPELL_TICKS = 8

#: The settle's next depth-change time once no later change is recorded.
_NEVER = float("inf")


class _Dormancy:
    """Bookkeeping for one fast-forward window.

    ``breaks`` is the queue-depth breakpoint list: ``(time, depth)`` pairs
    recorded by the depth watcher, where ``depth`` holds from ``time`` until
    the next entry. Settlement walks virtual ticks against it so the depth
    histogram sees exactly what per-tick gate checks would have seen.
    """

    __slots__ = ("mode", "next_tick", "period", "breaks", "sat_class")

    def __init__(
        self,
        mode: str,
        next_tick: float,
        period: float,
        breaks: List[Tuple[float, int]],
        sat_class: Optional[str],
    ) -> None:
        self.mode = mode  # "gated" (threshold bounce) | "saturated" (tail drop)
        self.next_tick = next_tick
        self.period = period
        self.breaks = breaks
        self.sat_class = sat_class


class PowerInjector:
    """Paced injection of power frames onto one wireless interface.

    Parameters
    ----------
    sim:
        Simulation kernel.
    station:
        The wireless interface (one per channel).
    config:
        Injector tuning — delay, threshold, rate, datagram size.
    interface_id:
        Identifier baked into the IP_Power option for this interface.
    """

    def __init__(
        self,
        sim: Simulator,
        station: Station,
        config: InjectorConfig,
        interface_id: int = 0,
    ) -> None:
        self.sim = sim
        self.station = station
        self._configure(config)
        self.interface_id = interface_id
        #: Shared by every frame this injector builds: ``meta`` is read-only
        #: downstream (captures and reporters only ``.get`` from it), and one
        #: dict allocation per tick is measurable at millions of ticks.
        self._frame_meta = {"interface_id": interface_id}
        self.gate = IpPowerGate(station, config.queue_threshold)
        self._sent = 0
        self._dropped_by_gate = 0
        self._collided = 0
        self._ticks = 0
        self._timer: Optional[Event] = None
        self._running = False
        self._synced_ticks = 0
        self._synced_gated = 0
        self._dormant: Optional[_Dormancy] = None
        self._idle_streak = 0
        self._spell_ticks = 0
        self._last_spell_ticks = 0
        metrics = sim.metrics
        self._obs_on = metrics.enabled
        self._m_ticks = metrics.counter("core.injector.ticks", interface=station.name)
        self._m_admitted = metrics.counter(
            "core.injector.admitted", interface=station.name
        )
        self._m_gated = metrics.counter("core.injector.gated", interface=station.name)
        self._m_sent = metrics.counter("core.injector.sent", interface=station.name)
        self._m_collided = metrics.counter(
            "core.injector.collided", interface=station.name
        )
        if self._obs_on:
            # Frame completions publish from the _sent/_collided tallies.
            tallies = Tallies(self)
            tallies.add_counter(self._m_sent, "_sent")
            tallies.add_counter(self._m_collided, "_collided")
            sim.add_tallies(tallies)
        self._m_duty_cycle = metrics.gauge(
            "core.injector.duty_cycle", interface=station.name
        )
        # A dormant injector has no event on the heap: settle skipped ticks
        # whenever the kernel hands control back so post-run reads (drivers,
        # metric exporters) always see fully materialised state.
        sim.add_run_end_hook(self._settle_at_rest)

    def _configure(self, config: InjectorConfig) -> None:
        """Adopt ``config`` and cache the derived values the tick path reads."""
        self.config = config
        self._period = config.effective_period_s
        self._frame_bytes = config.mac_frame_bytes

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Start the injection loop."""
        if self._running:
            return
        self._running = True
        self._timer = self.sim.schedule_periodic(
            self._period, self._tick, name="power_inject"
        )

    def stop(self) -> None:
        """Stop the loop (queued power frames still drain)."""
        self._running = False
        if self._dormant is not None:
            self._settle(self.sim.now, inclusive=not self.sim._running)
            self._unwatch()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._sync_metrics()

    @property
    def running(self) -> bool:
        """True while the injection loop is active."""
        return self._running

    # ------------------------------------------------- settled-state readers

    @property
    def ticks(self) -> int:
        """Injection ticks so far (skipped idle ticks settled on read)."""
        self._settle_now()
        return self._ticks

    @property
    def sent(self) -> int:
        """Power frames that left the MAC (collided broadcasts included)."""
        self._settle_now()
        return self._sent

    @property
    def collided(self) -> int:
        """Power frames whose broadcast collided."""
        self._settle_now()
        return self._collided

    @property
    def dropped_by_gate(self) -> int:
        """Ticks the IP_Power gate bounced."""
        self._settle_now()
        return self._dropped_by_gate

    @property
    def duty_cycle(self) -> float:
        """Fraction of injection ticks the IP_Power gate admitted."""
        self._settle_now()
        if self._ticks == 0:
            return 0.0
        return (self._ticks - self._dropped_by_gate) / self._ticks

    # ----------------------------------------------------------------- loop

    def _sync_metrics(self) -> None:
        """Flush tick/gate tallies to the registry.

        The injection loop runs every ~10 us of sim time, so per-tick
        instrument updates would dominate instrumentation cost; tallies are
        kept in plain attributes and flushed every 64th tick (and on stop).
        """
        if self._ticks == self._synced_ticks:
            return
        admitted = self._ticks - self._dropped_by_gate
        synced_admitted = self._synced_ticks - self._synced_gated
        self._m_ticks.inc(self._ticks - self._synced_ticks)
        self._m_admitted.inc(admitted - synced_admitted)
        self._m_gated.inc(self._dropped_by_gate - self._synced_gated)
        # The admitted fraction of injection ticks — the injector's duty
        # cycle, which the §3.2 feedback loop keeps just high enough to
        # saturate the channel without starving clients.
        self._m_duty_cycle.set(admitted / self._ticks)
        self._synced_ticks = self._ticks
        self._synced_gated = self._dropped_by_gate

    def _tick(self) -> None:
        if not self._running:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            return
        sim = self.sim
        self._ticks += 1
        dormant_mode = None
        sat_class = None
        station = self.station
        gate = self.gate
        if gate.admit():
            frame = FrameJob(
                mac_bytes=self._frame_bytes,
                rate_mbps=self.config.rate_mbps,
                kind=FrameKind.POWER,
                broadcast=True,
                flow="power",
                on_complete=self._on_complete,
                meta=self._frame_meta,
            )
            if not station.enqueue(frame):
                if gate.queue_threshold is None and not station._trace_drops:
                    dormant_mode = "saturated"
                    sat_class = station.queue.classifier(frame)
        else:
            self._dropped_by_gate += 1
            if not gate.trace_drops:
                dormant_mode = "gated"
        if not self._ticks & 63:
            self._sync_metrics()
        if dormant_mode is None:
            self._idle_streak = 0
            return
        # Hysteresis: only go dormant after a run of idle ticks. Sleep/wake
        # bookkeeping costs a few live ticks' worth of work, so it pays off
        # for the long idle stretches of a saturated channel but would slow
        # down workloads whose queue depth oscillates around the threshold
        # every few ticks (TCP sawtooth) — those stay live. Once a spell
        # proves long (LONG_SPELL_TICKS), drain cycles of the same phase
        # re-enter dormancy after a single idle tick.
        self._idle_streak += 1
        needed = (
            1 if self._last_spell_ticks >= LONG_SPELL_TICKS
            else IDLE_STREAK_BEFORE_SLEEP
        )
        if self._idle_streak >= needed and sim.on_event is None:
            self._idle_streak = 0
            self._sleep(dormant_mode, sat_class)

    def _on_complete(self, frame: FrameJob, success: bool, time: float) -> None:
        self._sent += 1
        if not success:
            # A collided broadcast still delivered RF energy; we only count
            # it for §8c-style coexistence statistics.
            self._collided += 1

    # ----------------------------------------------------------- fast-forward

    def _sleep(self, mode: str, sat_class: Optional[str]) -> None:
        """Enter dormancy: cancel the timer, watch depth instead of ticking."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        station = self.station
        period = self._period
        self._dormant = _Dormancy(
            mode=mode,
            next_tick=self.sim.now + period,
            period=period,
            breaks=[(self.sim.now, station.queue_depth)],
            sat_class=sat_class,
        )
        station.queue.on_change = self._depth_event
        station.on_depth_change = self._depth_event
        self._spell_ticks = 0

    def _unwatch(self) -> None:
        self._dormant = None
        self.station.queue.on_change = None
        self.station.on_depth_change = None

    def _depth_event(self) -> None:
        """Queue/in-flight state moved while dormant: record, maybe wake."""
        dormancy = self._dormant
        if dormancy is None:  # pragma: no cover - stale hook, defensive
            return
        station = self.station
        queue = station.queue
        # station.queue_depth, inlined: this watcher runs on every queue
        # change of a dormant interface, which tracks the MAC event rate.
        depth = queue._size + (1 if station._in_flight is not None else 0)
        breaks = dormancy.breaks
        if depth != breaks[-1][1]:
            breaks.append((self.sim._now, depth))
        if dormancy.mode == "gated":
            if depth < self.gate.queue_threshold:
                self._wake()
        elif queue.depth_of(dormancy.sat_class) < queue.capacity:
            self._wake()

    def _wake(self) -> None:
        """Settle skipped ticks and resume live ticking at the next slot."""
        dormancy = self._dormant
        if dormancy is None:
            return
        self._settle(self.sim.now, inclusive=False)
        self._last_spell_ticks = self._spell_ticks
        next_tick = dormancy.next_tick
        self._unwatch()
        if not self._running:
            return
        timer = self.sim.schedule_at(next_tick, self._tick, name="power_inject")
        timer.period = self._period
        self._timer = timer

    def _settle_now(self) -> None:
        if self._dormant is not None:
            self._settle(self.sim.now, inclusive=not self.sim._running)

    def _settle_at_rest(self) -> None:
        """Run-end hook: materialise skipped ticks up to the final clock."""
        if self._dormant is not None:
            self._settle(self.sim.now, inclusive=True)

    def _settle(self, upto: float, inclusive: bool) -> None:
        """Apply every virtual tick at time < ``upto`` (≤ when inclusive).

        Exactly replicates what the live ticks would have done: the same
        ``t += period`` time recurrence, the same per-tick depth entries in
        the gate's ordered depth buffer, the same tally totals, frame-id
        consumption (saturated mode) and 64-tick metric syncs. The injector
        stays dormant afterwards; waking is :meth:`_wake`'s job.
        """
        dormancy = self._dormant
        tick_time = dormancy.next_tick
        if not (tick_time <= upto if inclusive else tick_time < upto):
            return
        period = dormancy.period
        breaks = dormancy.breaks
        n_breaks = len(breaks)
        gate = self.gate
        depths = gate.depth_buffer
        index = 0
        total = 0
        while True:
            # The ticks before the next depth change all see one depth.
            next_break = breaks[index + 1][0] if index + 1 < n_breaks else _NEVER
            count = 0
            while (
                tick_time <= upto if inclusive else tick_time < upto
            ) and tick_time < next_break:
                count += 1
                tick_time += period
            total += count
            if depths is not None and count:
                depth = breaks[index][1]
                room = FLUSH_INTERVAL - len(depths)
                while count >= room:
                    if room > 0:
                        depths.extend(repeat(depth, room))
                        count -= room
                    gate.tallies.flush()
                    room = FLUSH_INTERVAL
                if count:
                    depths.extend(repeat(depth, count))
            if not (tick_time <= upto if inclusive else tick_time < upto):
                break
            while index + 1 < n_breaks and breaks[index + 1][0] <= tick_time:
                index += 1
        dormancy.next_tick = tick_time
        if index:
            del breaks[:index]
        self._spell_ticks += total
        prev_ticks = self._ticks
        self._ticks += total
        stats = gate.stats
        stats.considered += total
        if dormancy.mode == "gated":
            self._dropped_by_gate += total
            stats.dropped += total
        else:
            stats.admitted += total
            consume_frame_ids(total)
            self.station.queue.total_tail_dropped += total
            self.station.frames_dropped += total
            self._sent += total
            self._collided += total
        # Replicate the every-64th-tick syncs the live loop would have run.
        boundaries = (self._ticks >> 6) - (prev_ticks >> 6)
        if boundaries:
            boundary_ticks = (self._ticks >> 6) << 6
            if dormancy.mode == "gated":
                boundary_gated = self._dropped_by_gate - (self._ticks - boundary_ticks)
            else:
                boundary_gated = self._dropped_by_gate
            boundary_admitted = boundary_ticks - boundary_gated
            self._m_ticks.inc(boundary_ticks - self._synced_ticks)
            self._m_admitted.inc(
                boundary_admitted - (self._synced_ticks - self._synced_gated)
            )
            self._m_gated.inc(boundary_gated - self._synced_gated)
            if boundaries > 1 and self._obs_on:
                # Intermediate boundary syncs each counted one gauge update;
                # only the last value survives, exactly as live.
                self._m_duty_cycle.updates += boundaries - 1
            self._m_duty_cycle.set(boundary_admitted / boundary_ticks)
            self._synced_ticks = boundary_ticks
            self._synced_gated = boundary_gated

    # --------------------------------------------------------------- tuning

    def set_inter_packet_delay(self, delay_s: float) -> None:
        """Retune the pacing (used by the occupancy-cap extension)."""
        if self._dormant is not None:
            # Settle under the old cadence; the already-committed next tick
            # keeps its old-period time, exactly like the live loop where
            # the next tick was scheduled before the retune.
            self._wake()
        self._configure(InjectorConfig(
            inter_packet_delay_s=delay_s,
            queue_threshold=self.config.queue_threshold,
            rate_mbps=self.config.rate_mbps,
            ip_datagram_bytes=self.config.ip_datagram_bytes,
            syscall_overhead_s=self.config.syscall_overhead_s,
        ))
        if self._timer is not None:
            self._timer.period = self._period
