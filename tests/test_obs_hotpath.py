"""Deferred hot-path instruments: batch methods and the publication contract.

Hot-path components keep tallies and ordered buffers and publish them through
``repro.obs.hotpath`` (see that module). The batch methods must be
bit-identical to the per-event calls they replace, and after
``Simulator.run`` returns every hot instrument must read exactly what the
component's own tallies say.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import InjectorConfig
from repro.core.injector import PowerInjector
from repro.core.occupancy import OccupancyAnalyzer
from repro.errors import ObservabilityError
from repro.mac80211.frames import FrameJob, FrameKind
from repro.mac80211.medium import Medium
from repro.mac80211.station import Station
from repro.netstack.txqueue import power_vs_client
from repro.obs import runtime as obs_runtime
from repro.obs.hotpath import BUFFER_CAP, FLUSH_INTERVAL, Tallies
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

EDGES = (0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023)

ints = st.integers(min_value=0, max_value=2000)
floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
values = st.one_of(ints, floats)
#: Batch sizes around the reservoir's decimation points (512, 1024 values).
batch_sizes = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=500, max_value=530),
    st.integers(min_value=1010, max_value=1040),
    st.integers(min_value=1500, max_value=2600),
)


def histogram_state(histogram):
    return (
        histogram.to_record(),
        list(histogram._reservoir),
        histogram._stride,
        histogram._seen,
        repr(histogram.sum),
    )


class TestObserveBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        start=st.lists(values, max_size=700),
        batch_size=batch_sizes,
        data=st.data(),
    )
    def test_equals_sequential_observe(self, start, batch_size, data):
        batch = data.draw(st.lists(values, min_size=batch_size, max_size=batch_size))
        sequential = Histogram("h", (), EDGES)
        batched = Histogram("h", (), EDGES)
        for value in start:
            sequential.observe(value)
            batched.observe(value)
        for value in batch:
            sequential.observe(value)
        batched.observe_batch(batch)
        assert histogram_state(batched) == histogram_state(sequential)

    @settings(max_examples=40, deadline=None)
    @given(
        batches=st.lists(
            st.lists(st.integers(min_value=0, max_value=50), max_size=1100),
            max_size=4,
        )
    )
    def test_split_batches_equal_one_pass(self, batches):
        sequential = Histogram("h", (), EDGES)
        batched = Histogram("h", (), EDGES)
        for batch in batches:
            for value in batch:
                sequential.observe(value)
            batched.observe_batch(batch)
        assert histogram_state(batched) == histogram_state(sequential)

    def test_crosses_both_decimation_points_in_one_batch(self):
        sequential = Histogram("h", (), EDGES)
        batched = Histogram("h", (), EDGES)
        for value in (5, 0.25, 9):
            sequential.observe(value)
            batched.observe(value)
        batch = [index % 37 for index in range(2100)]
        for value in batch:
            sequential.observe(value)
        batched.observe_batch(batch)
        assert batched._stride >= 4  # decimated at least twice
        assert histogram_state(batched) == histogram_state(sequential)


def observe_both(start, batch):
    """``(batched, sequential)`` histograms fed ``start`` then ``batch``."""
    sequential = Histogram("h", (), EDGES)
    batched = Histogram("h", (), EDGES)
    for value in start:
        sequential.observe(value)
        batched.observe(value)
    for value in batch:
        sequential.observe(value)
    batched.observe_batch(batch)
    return batched, sequential


class TestIntegerBatchSum:
    """An all-int batch sums from its value counts, exactly or not at all."""

    @pytest.mark.parametrize(
        "start, batch",
        [
            ([], [3, 0, 7, 3, 3, 1023, 0]),
            ([5], [-4, -4, 9, -1000, 2]),
            ([], [True, False, True, 1, 0]),
            ([1.5], [1, 2, 3]),
            ([0.1], [1, 1, 1]),
            ([], [1, 2.5, 3, 1]),
            ([], [2, 2.0, -0.0, 0]),
            ([-0.0], [0, 0]),
            ([2.0**53 - 4], [1, 1, 1, 1, 1, 1]),
            ([2.0**53 - 4], [1, 1, 1]),
            ([-(2.0**53) + 2], [-1, -1, -1]),
            ([], [2**53 + 1, -(2**53)]),
            ([], [2**60, -(2**60), 3]),
            ([float("inf")], [1, 2]),
        ],
    )
    def test_equals_sequential_observe(self, start, batch):
        batched, sequential = observe_both(start, batch)
        assert histogram_state(batched) == histogram_state(sequential)

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.lists(
            st.one_of(
                st.integers(min_value=-(2**54), max_value=2**54),
                st.sampled_from([0.5, 2.0**53 - 1, -(2.0**53) + 1]),
            ),
            max_size=5,
        ),
        batch=st.lists(
            st.one_of(
                st.integers(min_value=-(2**52), max_value=2**52),
                st.booleans(),
            ),
            max_size=300,
        ),
    )
    def test_large_and_negative_ints(self, start, batch):
        batched, sequential = observe_both(start, batch)
        assert histogram_state(batched) == histogram_state(sequential)

    def test_small_int_batch_is_not_replayed(self, monkeypatch):
        import repro.obs.metrics as metrics_mod

        replays = []
        original = metrics_mod.reduce

        def spy(function, values, initial):
            replays.append(len(values))
            return original(function, values, initial)

        monkeypatch.setattr(metrics_mod, "reduce", spy)
        histogram = Histogram("h", (), EDGES)
        histogram.observe_batch([1, 2, 3] * 100)
        assert replays == [] and histogram.sum == 600.0
        histogram.observe_batch([0.5, 1])
        assert replays == [2]


class TestGaugeAndCounterBatches:
    @given(start=st.lists(floats, max_size=5), sets=st.lists(values, max_size=50))
    def test_set_batch_equals_sequential_sets(self, start, sets):
        sequential = Gauge("g", ())
        batched = Gauge("g", ())
        for value in start:
            sequential.set(value)
            batched.set(value)
        for value in sets:
            sequential.set(value)
        if sets:
            batched.set_batch(sets[-1], len(sets))
        else:
            batched.set_batch(123.0, 0)
        assert batched.to_record() == sequential.to_record()

    @given(
        start=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        amounts=st.lists(
            st.floats(min_value=0, max_value=1e3, allow_nan=False), max_size=300
        ),
    )
    def test_inc_batch_replays_left_to_right(self, start, amounts):
        sequential = Counter("c", ())
        batched = Counter("c", ())
        sequential.inc(start)
        batched.inc(start)
        for amount in amounts:
            sequential.inc(amount)
        batched.inc_batch(amounts)
        assert repr(batched.value) == repr(sequential.value)

    def test_inc_batch_rejects_negative_amounts(self):
        with pytest.raises(ObservabilityError):
            Counter("c", ()).inc_batch([1.0, -0.5])


class TestTallies:
    class Owner:
        def __init__(self):
            self.sent = 0
            self.sets = 0
            self.level = 0.0

    def test_publishes_growth_since_last_publication(self):
        owner = self.Owner()
        counter, gauge = Counter("c", ()), Gauge("g", ())
        tallies = Tallies(owner)
        tallies.add_counter(counter, "sent")
        tallies.add_gauge(gauge, "sets", "level")
        owner.sent, owner.sets, owner.level = 3, 2, 0.5
        tallies.publish()
        owner.sent, owner.sets, owner.level = 5, 3, 0.75
        tallies.publish()
        tallies.publish()
        assert counter.value == 5
        assert (gauge.value, gauge.updates) == (0.75, 3)

    def test_flush_empties_buffers_but_leaves_counters(self):
        owner = self.Owner()
        counter, histogram = Counter("c", ()), Histogram("h", (), EDGES)
        tallies = Tallies(owner)
        tallies.add_counter(counter, "sent")
        buffer = tallies.add_histogram(histogram)
        owner.sent = 4
        buffer.extend([1, 2, 3])
        tallies.flush()
        assert buffer == [] and histogram.count == 3
        assert counter.value == 0
        tallies.publish()
        assert counter.value == 4

    def test_replayed_list_is_kept_and_not_replayed_twice(self):
        counter = Counter("c", ())
        tallies = Tallies(self.Owner())
        airtimes = [0.1, 0.2]
        assert tallies.add_sums(counter, airtimes) is airtimes
        tallies.publish()
        airtimes.append(0.3)
        tallies.publish()
        assert airtimes == [0.1, 0.2, 0.3]
        assert counter.value == ((0.0 + 0.1) + 0.2) + 0.3


def build(seed=5, threshold=5, capacity=1000):
    """A router interface with an injector, an occupancy meter and a client."""
    sim = Simulator()
    streams = RandomStreams(seed)
    medium = Medium(sim, channel=6)
    router = Station(
        sim,
        name="router:ch6",
        streams=streams,
        queue_capacity=capacity,
        queue_classifier=power_vs_client,
        unicast_loss_probability=0.05,
    )
    medium.attach(router)
    client = Station(sim, name="client", streams=streams)
    medium.attach(client)
    injector = PowerInjector(
        sim,
        router,
        InjectorConfig(queue_threshold=threshold, inter_packet_delay_s=50e-6),
    )
    analyzer = OccupancyAnalyzer(medium, station_filter=router.name)

    def emit():
        router.enqueue(
            FrameJob(mac_bytes=900, rate_mbps=24.0, kind=FrameKind.DATA, flow="u")
        )
        client.enqueue(
            FrameJob(
                mac_bytes=400, rate_mbps=24.0, kind=FrameKind.DATA,
                broadcast=True, flow="c",
            )
        )

    sim.schedule_periodic(700e-6, emit, name="client_cbr")
    injector.start()
    return sim, medium, (router, client), injector, analyzer


def value(name, **labels):
    return obs_runtime.get_registry().get(name, **labels).value


class TestPublicationContract:
    def setup_method(self):
        obs_runtime.reset()

    def teardown_method(self):
        obs_runtime.reset()

    def test_instruments_equal_tallies_after_run(self):
        sim, medium, stations, injector, analyzer = build()
        sim.run(until=0.3)
        registry = obs_runtime.get_registry()
        assert value("mac.medium.transmissions", channel=6) == (
            medium.transmission_count
        )
        assert value("mac.medium.collisions", channel=6) == medium.collision_count
        assert value("mac.medium.dcf_rounds", channel=6) == medium.dcf_rounds
        assert value("mac.medium.busy_time_s", channel=6) == medium.total_busy_time
        for station in stations:
            queue = station.queue
            assert value("mac.station.frames_sent", station=station.name) == (
                station.frames_sent
            )
            assert value("mac.station.frames_dropped", station=station.name) == (
                station.frames_dropped
            )
            assert value("mac.station.retries", station=station.name) == (
                station.retries
            )
            assert value("net.txqueue.enqueued", queue=queue.name) == (
                queue.total_enqueued
            )
            assert value("net.txqueue.tail_dropped", queue=queue.name) == (
                queue.total_tail_dropped
            )
            assert value("net.txqueue.depth", queue=queue.name) == queue.depth
            assert value("net.txqueue.high_watermark", queue=queue.name) == (
                queue.high_watermark
            )
            depth_on_push = registry.get("net.txqueue.depth_on_push", queue=queue.name)
            assert depth_on_push.count == queue.total_enqueued
        gate = injector.gate
        assert value("core.ip_power.considered", interface="router:ch6") == (
            gate.stats.considered
        )
        assert value("core.ip_power.admitted", interface="router:ch6") == (
            gate.stats.admitted
        )
        assert value("core.ip_power.dropped", interface="router:ch6") == (
            gate.stats.dropped
        )
        assert gate._m_depth_at_check.count == gate.stats.considered
        assert value("core.injector.sent", interface="router:ch6") == injector.sent
        assert value("core.injector.collided", interface="router:ch6") == (
            injector.collided
        )
        assert value("core.occupancy.frames", channel=6, station="router:ch6") == (
            analyzer.frame_count
        )
        assert stations[0].retries > 0  # the loss model exercised retries

    def test_segmented_run_equals_single_run(self):
        sim, *_ = build()
        for until in (0.05, 0.12, 0.2, 0.3):
            sim.run(until=until)
        segmented = obs_runtime.get_registry().snapshot()

        obs_runtime.reset()
        sim, *_ = build()
        sim.run(until=0.3)
        assert obs_runtime.get_registry().snapshot() == segmented

    @pytest.mark.parametrize("mode", ["saturated", "gated"])
    def test_buffers_stay_under_the_cap_over_a_long_run(self, mode, monkeypatch):
        if mode == "saturated":
            # The injector sleeps on a full queue and settles its spells in
            # bursts.
            sim, _, _, injector, _ = build(threshold=None, capacity=40)
        else:
            # One gated spell as long as the run: the router has no medium,
            # so its queue never drains below the threshold and every tick
            # of the run settles in one burst when it returns.
            sim = Simulator()
            router = Station(sim, name="router:ch6", streams=RandomStreams(5))
            injector = PowerInjector(
                sim,
                router,
                InjectorConfig(queue_threshold=1, inter_packet_delay_s=50e-6),
            )
            router.enqueue(
                FrameJob(mac_bytes=900, rate_mbps=24.0, kind=FrameKind.DATA)
            )
            injector.start()
        largest = [0]

        def probe():
            largest[0] = max(
                [largest[0]]
                + [
                    len(buffer)
                    for tallies in sim._tallies
                    for _, buffer in tallies._sums + tallies._histograms
                ]
            )

        # A buffer is at its fullest just before a flush empties it.
        flush = Tallies.flush

        def probed_flush(tallies):
            probe()
            flush(tallies)

        monkeypatch.setattr(Tallies, "flush", probed_flush)
        sim.schedule_periodic(1e-3, probe, name="probe")
        sim.run(until=3.0)
        # Far more values than one buffer holds went through the buffers.
        assert injector.gate._m_depth_at_check.count > 3 * BUFFER_CAP
        if mode == "saturated":
            # The run flushed on its dispatch cadence several times.
            assert sim.dispatched_events > 3 * FLUSH_INTERVAL
        else:
            assert injector.gate.stats.admitted == 0
        assert 0 < largest[0] < BUFFER_CAP

    def test_no_obs_builds_no_tallies(self):
        obs_runtime.configure(enabled=False)
        sim, medium, stations, injector, analyzer = build()
        sim.run(until=0.05)
        assert sim._tallies == []
        assert medium._busy_buffer is None and injector.gate.depth_buffer is None
        assert all(s._backoff_buffer is None for s in stations)
        assert all(s.queue.tallies is None for s in stations)
