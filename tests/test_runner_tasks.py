"""Task execution: the collector policy around driver calls."""

import gc
import weakref

import pytest

from repro.runner import tasks
from repro.runner.tasks import TaskSpec, _gc_paused, execute_task

FIG7 = "repro.experiments.fig06_traffic:run_fig07"


class _Node:
    other = None


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


class TestGcPaused:
    def test_collector_is_off_inside_and_restored_after(self, collector_on):
        with _gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled_and_uncollected(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tasks.gc, "collect", lambda *args: calls.append(args))
        gc.disable()
        try:
            with _gc_paused():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert calls == []

    def test_exit_collects_only_the_young_generation(self, collector_on, monkeypatch):
        real_collect = gc.collect
        generations = []

        def recording_collect(*args):
            generations.append(args)
            return real_collect(*args)

        monkeypatch.setattr(tasks.gc, "collect", recording_collect)
        with _gc_paused():
            pass
        assert generations == [(0,)]

    def test_cycles_made_inside_are_reclaimed_on_exit(self, collector_on):
        with _gc_paused():
            first, second = _Node(), _Node()
            first.other, second.other = second, first
            ref = weakref.ref(first)
            del first, second
            assert ref() is not None  # only the cycle collector can free it
        assert ref() is None

    def test_young_collection_reclaims_a_whole_testbed(self, collector_on):
        # A discrete-event driver builds a cyclic object graph (simulator,
        # components, bound-method callbacks). The young-generation pass
        # after the call must leave nothing for a full collection to find.
        gc.collect()
        outcome = execute_task(
            TaskSpec(
                experiment_id="fig7",
                part="all",
                target=FIG7,
                kwargs={"duration_s": 0.2, "seed": 0},
                seed=0,
            )
        )
        assert gc.collect() == 0
        assert outcome.result is not None

    def test_collector_restored_when_the_driver_raises(self, collector_on):
        with pytest.raises(RuntimeError):
            with _gc_paused():
                raise RuntimeError("driver failed")
        assert gc.isenabled()
