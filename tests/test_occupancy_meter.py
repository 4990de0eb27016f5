"""Occupancy counted inside the transmission equals a record observer's count.

An :class:`OccupancyAnalyzer` registers its frame lists with the medium
(``Medium.add_meter``), which appends to them as each frame goes on the
air. The reference below is the per-record accounting an analyzer did as a
generic medium observer: every ``TransmissionRecord``'s frames, filtered by
station name, appended in order, with a running airtime total. Both must
agree on every list entry, every statistic and every published record.
"""

from functools import reduce
from operator import add

import pytest

from repro.core.occupancy import OccupancyAnalyzer
from repro.mac80211.capture import MonitorCapture
from repro.mac80211.frames import FrameJob, FrameKind
from repro.mac80211.medium import Medium
from repro.mac80211.station import Station
from repro.obs import runtime as obs_runtime
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class ReferenceMeter:
    """Occupancy from the medium's ``TransmissionRecord`` stream."""

    def __init__(self, medium, station_filter=None):
        self.station_filter = station_filter
        self.started_at = medium.sim.now
        self.times = []
        self.airtimes = []
        self.total = 0.0
        medium.add_observer(self.on_record)

    def on_record(self, record):
        for name, frame in record.transmissions:
            if self.station_filter is not None and name != self.station_filter:
                continue
            airtime = 8 * frame.mac_bytes / (frame.rate_mbps * 1e6)
            self.times.append(record.start)
            self.airtimes.append(airtime)
            self.total += airtime

    def occupancy(self, start, end):
        airtime = sum(
            a for t, a in zip(self.times, self.airtimes) if start <= t < end
        )
        return airtime / (end - start)

    def series(self, window_s, end):
        samples = []
        t = self.started_at
        while t + window_s <= end + 1e-12:
            samples.append(self.occupancy(t, t + window_s))
            t += window_s
        return samples

    def expected_records(self):
        """The ``core.occupancy.*`` values an analyzer must publish."""
        return {
            "core.occupancy.frames": (float(len(self.times)), None),
            "core.occupancy.airtime_s": (reduce(add, self.airtimes, 0.0), None),
            "core.occupancy.fraction": (
                self.total / (self.times[-1] - self.started_at),
                sum(1 for t in self.times if t > self.started_at),
            ),
        }


def build(seed=0):
    """Four stations on one channel: three analyzers, their references, a capture.

    ``late`` is attached after every meter exists. The client's unicast
    frames are lost often enough to retry, and all four stations enqueue at
    the same instant, so rounds collide.
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    medium = Medium(sim, channel=6)
    router = Station(sim, name="router", streams=streams)
    client = Station(
        sim, name="client", streams=streams, unicast_loss_probability=0.3
    )
    bg = Station(sim, name="bg", streams=streams)
    for station in (router, client, bg):
        medium.attach(station)
    meters = {}
    for station_filter in ("router", None, "late"):
        meters[station_filter] = (
            OccupancyAnalyzer(medium, station_filter=station_filter),
            ReferenceMeter(medium, station_filter),
        )
    capture = MonitorCapture(medium)
    late = Station(sim, name="late", streams=streams)
    medium.attach(late)

    def emit():
        router.enqueue(
            FrameJob(mac_bytes=1536, rate_mbps=54.0, kind=FrameKind.POWER, broadcast=True)
        )
        router.enqueue(FrameJob(mac_bytes=900, rate_mbps=24.0, kind=FrameKind.DATA))
        client.enqueue(FrameJob(mac_bytes=400, rate_mbps=12.0, kind=FrameKind.DATA))
        bg.enqueue(
            FrameJob(mac_bytes=200, rate_mbps=6.0, kind=FrameKind.BACKGROUND, broadcast=True)
        )
        late.enqueue(
            FrameJob(mac_bytes=700, rate_mbps=36.0, kind=FrameKind.BACKGROUND, broadcast=True)
        )

    sim.schedule_periodic(2e-3, emit, name="emit")
    return sim, medium, (router, client, bg, late), meters, capture


class TestMeterEqualsRecordObserver:
    def setup_method(self):
        obs_runtime.reset()

    def teardown_method(self):
        obs_runtime.reset()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_lists_statistics_and_records_match(self, seed):
        sim, medium, stations, meters, capture = build(seed)
        # Several runs: each publishes, so the gauge is read mid-stream.
        for step in range(1, 6):
            sim.run(until=0.02 * step)
        router, client, bg, late = stations
        assert medium.collision_count > 0
        assert client.retries > 0
        assert late.frames_sent > 0

        registry = obs_runtime.get_registry()
        for station_filter, (analyzer, reference) in meters.items():
            assert reference.times, station_filter
            assert analyzer._times == reference.times
            assert analyzer._airtimes == reference.airtimes
            assert analyzer.frame_count == len(reference.times)
            assert analyzer.occupancy() == reference.occupancy(0.0, sim.now)
            assert analyzer.occupancy(0.013, 0.061) == reference.occupancy(0.013, 0.061)
            series = analyzer.series(window_s=0.01)
            assert len(series.samples) == 10
            assert series.samples == reference.series(0.01, sim.now)
            labels = dict(channel=6, station=station_filter or "*")
            for name, (value, updates) in reference.expected_records().items():
                instrument = registry.get(name, **labels)
                assert instrument.value == value, (station_filter, name)
                if updates is not None:
                    assert instrument.updates == updates, (station_filter, name)

        everyone = meters[None][1]
        assert capture.captured_frames == len(everyone.times)
        named = [meters["router"][1], meters["late"][1]]
        assert sum(len(m.times) for m in named) < len(everyone.times)

    def test_no_observer_builds_no_record(self, monkeypatch):
        import repro.mac80211.medium as medium_mod

        built = []
        original = medium_mod.TransmissionRecord

        def spy(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(medium_mod, "TransmissionRecord", spy)
        sim = Simulator()
        medium = Medium(sim, channel=1)
        router = Station(sim, name="router", streams=RandomStreams(0))
        medium.attach(router)
        analyzer = OccupancyAnalyzer(medium, station_filter="router")
        for _ in range(5):
            router.enqueue(
                FrameJob(mac_bytes=1536, rate_mbps=54.0, kind=FrameKind.POWER, broadcast=True)
            )
        sim.run()
        assert analyzer.frame_count == 5
        assert built == []
