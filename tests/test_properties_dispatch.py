"""Property tests for the per-frame dispatch path.

* The medium's table-driven backoff draw returns the slots
  ``random.randint(0, cw)`` would and leaves the stream in the same state,
  for every attempt count and many seeds.
* ``Simulator.rearm`` is invisible: random interleavings of ``schedule``,
  ``rearm``, ``cancel``, heap compaction and periodic events dispatch in
  the same ``(time, seq)`` order as a schedule-only reference, with the
  same tombstone, compaction and heap high-water counts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MediumError, SimulationError
from repro.mac80211.frames import FrameJob
from repro.mac80211.medium import Medium
from repro.mac80211.rates import PHY_80211G
from repro.mac80211.station import Station
from repro.sim.engine import COMPACT_MIN_TOMBSTONES, Simulator
from repro.sim.rng import RandomStreams

RETRY_LIMIT = PHY_80211G.retry_limit


def _attached_station(seed: int) -> Station:
    sim = Simulator(observe=False)
    medium = Medium(sim)
    station = Station(sim, "sta", RandomStreams(seed))
    medium.attach(station)
    return station


def _reference_stream(seed: int):
    """An independent copy of the station's backoff stream."""
    return RandomStreams(seed).stream("backoff:sta")


def _draw_at(station: Station, attempts: int) -> int:
    """A fresh draw with a head frame that has ``attempts`` attempts."""
    queue = station.queue
    queue.clear()
    queue.push(FrameJob(mac_bytes=100, rate_mbps=54.0, attempts=attempts))
    station.backoff_remaining = None
    return station.ensure_backoff()


class TestBackoffDrawIdentity:
    @settings(max_examples=200)
    @given(
        st.integers(0, 2**64 - 1),
        st.lists(st.integers(0, RETRY_LIMIT), min_size=1, max_size=40),
    )
    def test_ensure_backoff_matches_randint(self, seed, attempts):
        station = _attached_station(seed)
        reference = _reference_stream(seed)
        for attempt in attempts:
            slots = _draw_at(station, attempt)
            assert slots == reference.randint(0, PHY_80211G.cw_for_attempt(attempt))
            assert station.backoff_remaining == slots
            assert station.backoff_rng.getstate() == reference.getstate()

    @settings(max_examples=100)
    @given(st.integers(0, 2**64 - 1), st.integers(0, RETRY_LIMIT + 3))
    def test_retry_draw_matches_randint(self, seed, prior_attempts):
        station = _attached_station(seed)
        reference = _reference_stream(seed)
        frame = FrameJob(
            mac_bytes=100, rate_mbps=54.0, broadcast=False, attempts=prior_attempts
        )
        station.queue.push(frame)
        sent = station.begin_transmission()
        station.finish_transmission(sent, False)
        if sent.attempts > RETRY_LIMIT:
            assert station.backoff_remaining is None  # dropped, no draw
        else:
            expected = reference.randint(0, PHY_80211G.cw_for_attempt(sent.attempts))
            assert station.backoff_remaining == expected
        assert station.backoff_rng.getstate() == reference.getstate()

    def test_every_attempt_over_many_seeds(self):
        # Past the window cap (attempt 6 on 802.11g) the table's last entry
        # stands in for cw_max.
        for seed in range(200):
            station = _attached_station(seed)
            reference = _reference_stream(seed)
            for attempt in list(range(RETRY_LIMIT + 1)) * 3 + [9, 12, 30]:
                cw = PHY_80211G.cw_for_attempt(attempt)
                assert _draw_at(station, attempt) == reference.randint(0, cw)
            assert station.backoff_rng.getstate() == reference.getstate()

    def test_ensure_backoff_keeps_a_carried_counter(self):
        station = _attached_station(3)
        station.queue.push(FrameJob(mac_bytes=100, rate_mbps=54.0))
        station.backoff_remaining = 7
        state = station.backoff_rng.getstate()
        assert station.ensure_backoff() == 7
        assert station.backoff_rng.getstate() == state

    def test_detached_station_cannot_draw(self):
        station = Station(Simulator(observe=False), "lonely", RandomStreams(0))
        station.queue.push(FrameJob(mac_bytes=100, rate_mbps=54.0))
        with pytest.raises(MediumError):
            station.ensure_backoff()


# ------------------------------------------------------------------ engine

DELAYS = st.sampled_from([0.0, 1e-6, 2e-6, 2e-6, 5e-6, 1e-5])
STEPS = st.tuples(
    st.sampled_from(
        ["again", "again", "cancel", "spawn", "burst", "purge", "periodic", "stop"]
    ),
    DELAYS,
    st.integers(0, 255),
)


class _Program:
    """Actors that each keep one pending event, driven by a shared script.

    Every dispatch of an actor consumes the next script step. With
    ``use_rearm`` an actor re-arms its own dispatched event; otherwise it
    schedules a fresh one, which is the reference behaviour.
    """

    BURST = 40

    def __init__(self, use_rearm: bool, script) -> None:
        self.sim = Simulator(observe=False)
        self.use_rearm = use_rearm
        self.script = list(script)
        self.position = 0
        self.events = {}
        self.live = set()
        self.log = []
        self.actors = 0
        self.rearms = 0

    def spawn(self, delay: float) -> None:
        actor = self.actors
        self.actors += 1
        self.events[actor] = self.sim.schedule(delay, self.fire, actor, name="actor")
        self.live.add(actor)

    def again(self, actor: int, delay: float) -> None:
        if self.use_rearm:
            self.sim.rearm(self.events[actor], delay, actor)
            self.rearms += 1
        else:
            self.events[actor] = self.sim.schedule(
                delay, self.fire, actor, name="actor"
            )
        self.live.add(actor)

    def cancel(self, pick: int) -> None:
        if self.live:
            victims = sorted(self.live)
            victim = victims[pick % len(victims)]
            self.events[victim].cancel()
            self.live.discard(victim)

    def fire(self, actor: int) -> None:
        self.live.discard(actor)
        self.log.append((self.sim.now, self.events[actor].seq, "actor", actor))
        if self.position >= len(self.script):
            return
        kind, delay, pick = self.script[self.position]
        self.position += 1
        if kind == "stop":
            return
        if kind == "cancel":
            self.cancel(pick)
        elif kind == "spawn":
            self.spawn(delay)
        elif kind == "burst":
            for index in range(self.BURST):
                self.spawn(delay + index * 1e-7)
        elif kind == "purge":
            for index in range(self.BURST):
                self.cancel(pick + index)
        elif kind == "periodic":
            self.periodic(max(delay, 1e-6), pick % 4 + 1)
        self.again(actor, delay)

    def periodic(self, period: float, firings: int) -> None:
        state = {"left": firings}

        def tick() -> None:
            self.log.append((self.sim.now, event.seq, "tick", firings))
            state["left"] -= 1
            if not state["left"]:
                event.cancel()

        event = self.sim.schedule_periodic(period, tick, name="tick", first_delay=period)

    def run(self, initial_delays):
        for delay in initial_delays:
            self.spawn(delay)
        self.sim.run(max_events=200_000)
        stats = self.sim.stats
        return self.log, (
            stats.dispatched,
            stats.cancelled,
            stats.heap_high_watermark,
            stats.heap_tombstones,
            stats.compactions,
            self.sim.pending_events,
            self.sim.now,
        )


def _both(initial_delays, script):
    reference = _Program(False, script)
    expected = reference.run(initial_delays)
    rearmed = _Program(True, script)
    actual = rearmed.run(initial_delays)
    return expected, actual, rearmed


class TestRearmIdentity:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(DELAYS, min_size=1, max_size=30), st.lists(STEPS, max_size=300))
    def test_rearm_dispatches_like_schedule(self, initial_delays, script):
        expected, actual, _ = _both(initial_delays, script)
        assert actual == expected

    def test_compaction_with_rearmed_events(self):
        script = [("burst", 1e-5, 0), ("burst", 2e-5, 0)]
        script += [("purge", 0.0, i) for i in range(4)]
        script += [("again", 1e-6, 0)] * 50 + [("spawn", 1e-6, 0)] * 20
        expected, actual, rearmed = _both([0.0, 1e-6], script)
        assert actual == expected
        assert rearmed.rearms > 50
        compactions = actual[1][4]
        assert compactions >= 1
        assert 2 * _Program.BURST >= COMPACT_MIN_TOMBSTONES

    def test_rearm_reuses_the_event_object(self):
        sim = Simulator(observe=False)
        seen = []
        event = sim.schedule(1.0, seen.append, "first", name="once")
        sim.run()
        assert sim.rearm(event, 0.5, "second") is event
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 1.5

    def test_rearm_refuses_pending_cancelled_and_periodic_events(self):
        sim = Simulator(observe=False)
        pending = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.rearm(pending, 1.0)
        pending.cancel()
        with pytest.raises(SimulationError):
            sim.rearm(pending, 1.0)
        periodic = sim.schedule_periodic(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.rearm(periodic, 1.0)
        done = sim.schedule(0.5, lambda: None)
        sim.run(until=0.75)
        with pytest.raises(SimulationError):
            sim.rearm(done, -1e-9)
