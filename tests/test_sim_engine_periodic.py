"""Engine additions: periodic events, tombstoned heap, run-end hooks."""

import pytest

from repro.errors import SimulationError
from repro.obs.metrics import Histogram
from repro.sim.engine import COMPACT_MIN_TOMBSTONES, Simulator


class TestSchedulePeriodic:
    def test_fires_on_exact_float_recurrence(self):
        sim = Simulator()
        fired = []
        sim.schedule_periodic(0.1, lambda: fired.append(sim.now))
        sim.run(until=0.55)
        # Identical to a callback rescheduling itself: t += period each time.
        expected, t = [], 0.0
        for _ in range(6):
            expected.append(t)
            t += 0.1
        assert fired == expected

    def test_first_delay(self):
        sim = Simulator()
        fired = []
        sim.schedule_periodic(0.2, lambda: fired.append(sim.now), first_delay=0.05)
        sim.run(until=0.5)
        assert fired == [0.05, 0.05 + 0.2, 0.05 + 0.2 + 0.2]

    def test_cancel_stops_rearm(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_periodic(0.1, lambda: fired.append(sim.now))
        sim.schedule(0.35, event.cancel)
        sim.run(until=1.0)
        assert fired == [0.0, 0.1, pytest.approx(0.2), pytest.approx(0.3)]
        assert sim.pending_events == 0

    def test_self_cancel_during_callback_stops_rearm(self):
        sim = Simulator()
        fired = []
        def tick():
            fired.append(sim.now)
            if len(fired) == 3:
                event.cancel()
        event = sim.schedule_periodic(0.1, tick)
        sim.run(until=2.0)
        assert len(fired) == 3

    def test_mutating_period_retunes_from_next_rearm(self):
        sim = Simulator()
        fired = []
        def tick():
            fired.append(sim.now)
            if len(fired) == 2:
                event.period = 0.5
        event = sim.schedule_periodic(0.1, tick)
        sim.run(until=1.15)
        assert fired == [0.0, 0.1, pytest.approx(0.6), pytest.approx(1.1)]

    def test_rejects_nonpositive_period(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_periodic(0.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_periodic(-1.0, lambda: None)

    def test_interleaves_with_oneshot_events_by_seq(self):
        sim = Simulator()
        order = []
        sim.schedule_periodic(0.1, lambda: order.append("p"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.run(until=0.1)
        # The periodic event re-armed for t=0.1 *after* "a" was scheduled,
        # so at the tie "a" (earlier seq) dispatches first — exactly the
        # order a self-rescheduling callback would produce.
        assert order == ["p", "a", "p"]


class TestTombstoneHeap:
    def test_cancelled_counts_as_tombstone_until_popped(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        victim = sim.schedule(2.0, lambda: None)
        victim.cancel()
        assert sim.stats.heap_tombstones == 1
        sim.run()
        assert sim.stats.heap_tombstones == 0
        assert keep.cancelled is False

    def test_cancel_heavy_workload_compacts(self):
        sim = Simulator()
        events = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(400)]
        for event in events[: 2 * COMPACT_MIN_TOMBSTONES + 100]:
            event.cancel()
        # The next schedule call sees tombstones >= half the heap and compacts.
        sim.schedule(5.0, lambda: None)
        assert sim.stats.compactions >= 1
        assert sim.stats.heap_tombstones == 0
        survivors = [e for e in events if not e.cancelled]
        fired = []
        sim.schedule(10.0, lambda: fired.append("end"))
        sim.run()
        assert fired == ["end"]
        assert all(not e.heaped for e in events)
        assert len(survivors) == 400 - (2 * COMPACT_MIN_TOMBSTONES + 100)

    def test_order_preserved_across_compaction(self):
        sim = Simulator()
        fired = []
        for i in range(300):
            sim.schedule(1.0 + i * 0.001, fired.append, i)
        victims = []
        for i, entry in enumerate(list(sim._heap)):
            if i % 2:
                entry[2].cancel()
                victims.append(entry[2])
        sim.schedule(0.5, lambda: None)  # may trigger compaction
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == 150

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.stats.heap_tombstones == 1
        sim.run()
        assert sim.stats.heap_tombstones == 0


class TestRunEndHooks:
    def test_hook_fires_after_clock_advance(self):
        sim = Simulator()
        seen = []
        sim.add_run_end_hook(lambda: seen.append(sim.now))
        sim.schedule(0.5, lambda: None)
        sim.run(until=2.0)
        # The hook observes the final clock (advanced to `until`).
        assert seen == [2.0]

    def test_hook_fires_per_run_call(self):
        sim = Simulator()
        seen = []
        sim.add_run_end_hook(lambda: seen.append(sim.now))
        sim.run(until=1.0)
        sim.run(until=2.0)
        assert seen == [1.0, 2.0]

    def test_hook_skipped_on_error(self):
        sim = Simulator()
        seen = []
        sim.add_run_end_hook(lambda: seen.append(True))
        def boom():
            raise RuntimeError("boom")
        sim.schedule(0.1, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert seen == []


class TestObserveBatchEdgeCases:
    def test_reservoir_decimation_boundary(self):
        scalar = Histogram("h", (), (1, 10))
        bulk = Histogram("h", (), (1, 10))
        # Push both through several stride doublings, split across calls.
        for _ in range(700):
            scalar.observe(4.0)
        bulk.observe_batch([4.0] * 700)
        for _ in range(900):
            scalar.observe(7.0)
        bulk.observe_batch([7.0] * 900)
        assert scalar.to_record() == bulk.to_record()
        assert scalar._reservoir == bulk._reservoir
        assert scalar._stride == bulk._stride
        assert scalar._seen == bulk._seen

    def test_fractional_value_sum_is_bit_identical(self):
        scalar = Histogram("h", (), (1,))
        bulk = Histogram("h", (), (1,))
        for _ in range(1234):
            scalar.observe(0.1)
        bulk.observe_batch([0.1] * 1234)
        assert scalar.sum == bulk.sum  # exact, not approx

    def test_mixed_scalar_and_bulk(self):
        scalar = Histogram("h", (), (1, 5))
        mixed = Histogram("h", (), (1, 5))
        values = [2.0] * 100 + [6.0] * 57 + [2.0] * 513
        for v in values:
            scalar.observe(v)
        mixed.observe_batch([2.0] * 100)
        for _ in range(57):
            mixed.observe(6.0)
        mixed.observe_batch([2.0] * 513)
        assert scalar.to_record() == mixed.to_record()

    def test_empty_batch_is_noop(self):
        h = Histogram("h", (), (1,))
        h.observe_batch([])
        assert h.count == 0
        assert h._seen == 0
