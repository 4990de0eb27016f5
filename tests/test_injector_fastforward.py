"""Injector idle-tick fast-forward: live-vs-dormant equivalence.

The injector's dormancy (see ``repro.core.injector``) must be invisible:
every counter, gate statistic and exported metric record must end up exactly
as the live per-tick loop produces at equal seed. The tests here run each
scenario twice in the same process — once normally (dormancy engages) and
once with a no-op ``Simulator.on_event`` debug hook installed, which is a
documented dormancy precondition and therefore forces the fully live path
without otherwise changing behaviour — and diff the complete observable
state, including the process-global frame-id sequence.
"""

import pytest

from repro.core.config import InjectorConfig
from repro.core.injector import IDLE_STREAK_BEFORE_SLEEP, PowerInjector
from repro.mac80211 import frames as frames_mod
from repro.mac80211.frames import FrameJob, FrameKind
from repro.mac80211.medium import Medium
from repro.mac80211.station import Station
from repro.netstack.txqueue import power_vs_client
from repro.obs import runtime as obs_runtime
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def build(
    seed, threshold, live, client_period_s=None, capacity=1000, delay_s=100e-6
):
    """One router interface with an injector, plus an optional CBR client."""
    sim = Simulator()
    if live:
        sim.on_event = lambda event: None  # documented dormancy kill-switch
    streams = RandomStreams(seed)
    medium = Medium(sim, channel=1)
    router = Station(
        sim,
        name="router:ch1",
        streams=streams,
        queue_capacity=capacity,
        queue_classifier=power_vs_client,
    )
    medium.attach(router)
    client = Station(sim, name="client", streams=streams)
    medium.attach(client)
    injector = PowerInjector(
        sim,
        router,
        InjectorConfig(queue_threshold=threshold, inter_packet_delay_s=delay_s),
        interface_id=1,
    )
    if client_period_s is not None:
        def emit():
            client.enqueue(
                FrameJob(
                    mac_bytes=400,
                    rate_mbps=24.0,
                    kind=FrameKind.DATA,
                    broadcast=True,
                    flow="client",
                )
            )

        sim.schedule_periodic(client_period_s, emit, name="client_cbr")
    return sim, medium, router, client, injector


def observable_state(sim, medium, router, client, injector):
    """Everything the fast-forward must preserve exactly."""
    gate = injector.gate
    hist = gate._m_depth_at_check
    return {
        "ticks": injector.ticks,
        "sent": injector.sent,
        "collided": injector.collided,
        "dropped_by_gate": injector.dropped_by_gate,
        "duty_cycle": injector.duty_cycle,
        "gate_considered": gate.stats.considered,
        "gate_admitted": gate.stats.admitted,
        "gate_dropped": gate.stats.dropped,
        "m_ticks": injector._m_ticks.value,
        "m_admitted": injector._m_admitted.value,
        "m_gated": injector._m_gated.value,
        "m_sent": injector._m_sent.value,
        "m_collided": injector._m_collided.value,
        "m_duty_value": injector._m_duty_cycle.value,
        "m_duty_updates": injector._m_duty_cycle.updates,
        "depth_hist": hist.to_record(),
        "depth_hist_reservoir": list(hist._reservoir),
        "depth_hist_stride": hist._stride,
        "depth_hist_seen": hist._seen,
        "router_sent": router.frames_sent,
        "router_dropped": router.frames_dropped,
        "router_bytes": router.bytes_sent,
        "queue_enqueued": router.queue.total_enqueued,
        "queue_tail_dropped": router.queue.total_tail_dropped,
        "queue_depth": router.queue.depth,
        "medium_tx": medium.transmission_count,
        "medium_collisions": medium.collision_count,
        "medium_busy": medium.total_busy_time,
        "client_sent": client.frames_sent,
        "now": sim.now,
    }


def run_scenario(live, threshold, seed=7, duration=0.25, **kwargs):
    obs_runtime.reset()
    sim, medium, router, client, injector = build(seed, threshold, live, **kwargs)
    injector.start()
    frame_id_start = next(frames_mod._frame_ids)
    sim.run(until=duration)
    state = observable_state(sim, medium, router, client, injector)
    state["frame_ids_consumed"] = next(frames_mod._frame_ids) - frame_id_start
    return state, sim, injector


class TestEquivalenceGatedMode:
    """POWIFI-style: threshold gates ticks while the power queue is full."""

    def test_counters_and_metrics_match_live(self):
        fast, sim, injector = run_scenario(live=False, threshold=5)
        live, _, _ = run_scenario(live=True, threshold=5)
        assert fast == live
        assert injector.ticks > 1000  # the scenario exercises real volume

    def test_dormancy_actually_engaged(self):
        # At a 20 us cadence a ~283 us drain cycle leaves ~13 consecutive
        # gated ticks — comfortably past the hysteresis streak.
        _, sim, injector = run_scenario(live=False, threshold=5, delay_s=20e-6)
        # Far fewer live dispatches than ticks proves fast-forwarding ran.
        assert sim.stats.callback_counts["power_inject"] < injector.ticks

    def test_fast_cadence_matches_live(self):
        fast, _, _ = run_scenario(live=False, threshold=5, delay_s=20e-6)
        live, _, _ = run_scenario(live=True, threshold=5, delay_s=20e-6)
        assert fast == live

    def test_with_contending_client(self):
        fast, _, _ = run_scenario(live=False, threshold=5, client_period_s=970e-6)
        live, _, _ = run_scenario(live=True, threshold=5, client_period_s=970e-6)
        assert fast == live


class TestEquivalenceSaturatedMode:
    """NO_QUEUE-style: no gate; the full class tail-drops every tick."""

    def test_counters_and_metrics_match_live(self):
        fast, _, _ = run_scenario(live=False, threshold=None, capacity=40)
        live, _, _ = run_scenario(live=True, threshold=None, capacity=40)
        assert fast == live

    def test_frame_ids_still_consumed(self):
        fast, _, injector = run_scenario(live=False, threshold=None, capacity=40)
        # Tail-dropped ticks still burn one frame id each (plus the client
        # and beacon-free drains); the id sequence must not shrink.
        assert fast["frame_ids_consumed"] >= injector.ticks

    def test_with_contending_client(self):
        fast, _, _ = run_scenario(
            live=False, threshold=None, capacity=40, client_period_s=970e-6
        )
        live, _, _ = run_scenario(
            live=True, threshold=None, capacity=40, client_period_s=970e-6
        )
        assert fast == live


class TestSegmentedRuns:
    """fig6c drives the clock in 1 s segments; dormancy spans run() calls."""

    def test_segmented_equals_single_run(self):
        obs_runtime.reset()
        sim, medium, router, client, injector = build(3, 5, live=False)
        injector.start()
        for _ in range(5):
            sim.run(until=sim.now + 0.05)
        segmented = observable_state(sim, medium, router, client, injector)

        obs_runtime.reset()
        sim2, medium2, router2, client2, injector2 = build(3, 5, live=True)
        injector2.start()
        sim2.run(until=0.25)
        live_state = observable_state(sim2, medium2, router2, client2, injector2)
        assert segmented == live_state

    def test_at_rest_reads_are_settled(self):
        obs_runtime.reset()
        sim, medium, router, client, injector = build(3, 5, live=False)
        injector.start()
        sim.run(until=0.1)
        # After run() returns, the run-end hook must have materialised every
        # skipped tick: reading twice gives the same answer and matches the
        # internal counter exactly.
        first = injector.ticks
        assert injector.ticks == first
        assert injector._ticks == first


class TestFaultsOverlappingDormancy:
    def test_retune_during_dormancy(self):
        def scenario(live):
            obs_runtime.reset()
            sim, medium, router, client, injector = build(19, 5, live=live)
            injector.start()
            sim.run(until=0.03)
            sim.schedule(0.0041, injector.set_inter_packet_delay, 250e-6)
            sim.run(until=0.1)
            return observable_state(sim, medium, router, client, injector)

        assert scenario(live=False) == scenario(live=True)

    def test_stop_during_dormancy_settles(self):
        def scenario(live):
            obs_runtime.reset()
            sim, medium, router, client, injector = build(23, 5, live=live)
            injector.start()
            sim.run(until=0.03)
            sim.schedule(0.0072, injector.stop)
            sim.run(until=0.06)
            return observable_state(sim, medium, router, client, injector)

        assert scenario(live=False) == scenario(live=True)


class TestDormancyPreconditions:
    def test_trace_subscription_disables_fast_forward(self):
        obs_runtime.configure(enabled=True, trace_kinds=["core.gate_drop"])
        try:
            sim, medium, router, client, injector = build(29, 5, live=False)
            injector.start()
            sim.run(until=0.05)
            # Every tick dispatched live: the trace wants per-tick records.
            assert sim.stats.callback_counts["power_inject"] == injector.ticks
            assert len(sim.trace.records) > 0
        finally:
            obs_runtime.reset()

    def test_hysteresis_constant_is_small(self):
        # The streak gate trades a handful of live ticks per window; keep it
        # within the same order as the sleep/wake bookkeeping cost.
        assert 1 <= IDLE_STREAK_BEFORE_SLEEP <= 16
