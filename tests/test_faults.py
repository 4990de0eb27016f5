"""Fault-injection subsystem: plans, directives, runtime.

The contract under test is determinism: a fault plan is as seeded as the
simulation it attacks, so any chaos run — which task a crash hits, which
cache entry is corrupted — replays exactly from ``(seed, specs, task set)``.
"""

import pickle

import pytest

from repro.errors import ConfigurationError, InjectedFault
from repro.faults import runtime as faults_runtime
from repro.faults.inject import fire_worker_faults, sabotage_outcome
from repro.faults.plan import (
    FAULT_POINTS,
    WORKER_FAULT_POINTS,
    FaultDirective,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
)

LABELS = [
    "fig9:all",
    "table1:all",
    "fig14:home=1",
    "fig14:home=2",
    "fig14:home=3",
]


class TestFaultSpecValidation:
    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault point"):
            FaultSpec("worker.explode")

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError, match="count must be >= 1"):
            FaultSpec("worker.raise", count=0)

    def test_worker_points_are_registered(self):
        assert WORKER_FAULT_POINTS < set(FAULT_POINTS)

    def test_simulated_world_points_rejected(self):
        # No run applies simulated-world faults, so a plan naming one must
        # be refused rather than recorded as if it had fired.
        for point in (
            "world.injector.stall",
            "world.channel.outage",
            "world.txqueue.overflow",
            "world.harvester.brownout",
        ):
            with pytest.raises(ConfigurationError, match="unknown fault point"):
                FaultSpec(point)

    def test_directives_are_picklable(self):
        directive = FaultDirective("worker.hang", param=2.5)
        assert pickle.loads(pickle.dumps(directive)) == directive


class TestPlanParsing:
    def test_spec_string_roundtrip(self):
        text = "worker.crash:1,worker.hang:2@20,worker.raise:1%fig14:*"
        plan = parse_fault_plan(text, seed=5)
        assert plan.describe() == text
        assert plan.seed == 5

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="empty fault plan"):
            parse_fault_plan("  ,  ")

    def test_json_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"seed": 9, "faults": ['
            '{"point": "worker.crash"},'
            '{"point": "worker.hang", "count": 2, "param": 20, "scope": "fig9:*"}'
            "]}"
        )
        plan = parse_fault_plan(str(path), seed=0)
        assert plan.seed == 9  # file seed wins over the argument
        assert plan.describe() == "worker.crash:1,worker.hang:2@20%fig9:*"

    def test_json_plan_missing_faults_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{}")
        with pytest.raises(ConfigurationError, match="'faults' list"):
            parse_fault_plan(str(path))


class TestAssignmentDeterminism:
    def test_same_seed_same_assignment(self):
        specs = [FaultSpec("worker.crash"), FaultSpec("worker.hang", param=5.0)]
        first = FaultPlan(specs, seed=3).assign(LABELS)
        second = FaultPlan(specs, seed=3).assign(LABELS)
        assert first == second

    def test_label_order_is_irrelevant(self):
        specs = [FaultSpec("worker.raise", count=2)]
        forward = FaultPlan(specs, seed=1).assign(LABELS)
        backward = FaultPlan(specs, seed=1).assign(list(reversed(LABELS)))
        assert forward == backward

    def test_different_seed_can_move_targets(self):
        specs = [FaultSpec("worker.raise")]
        assignments = {
            tuple(sorted(FaultPlan(specs, seed=s).assign(LABELS)))
            for s in range(8)
        }
        assert len(assignments) > 1  # the seed genuinely steers selection

    def test_scope_restricts_targets(self):
        plan = FaultPlan([FaultSpec("worker.crash", count=5, scope="fig14:*")], seed=0)
        assignment = plan.assign(LABELS)
        assert set(assignment) == {"fig14:home=1", "fig14:home=2", "fig14:home=3"}

    def test_manifest_interrupt_is_not_task_scoped(self):
        plan = FaultPlan([FaultSpec("manifest.interrupt")], seed=0)
        assert plan.assign(LABELS) == {}
        assert plan.wants("manifest.interrupt")

    def test_scope_matching_no_label_rejected(self):
        plan = FaultPlan([FaultSpec("worker.crash", scope="fig99:*")], seed=0)
        with pytest.raises(ConfigurationError, match=r"'worker.crash:1%fig99:\*'"):
            plan.assign(LABELS)

    def test_manifest_interrupt_scope_is_not_checked(self):
        plan = FaultPlan([FaultSpec("manifest.interrupt", scope="fig99:*")], seed=0)
        assert plan.assign(LABELS) == {}


class TestWorkerFaultFiring:
    def test_no_directives_is_a_noop(self):
        fire_worker_faults((), in_process=False)
        assert sabotage_outcome((), {"x": 1}, in_process=False) == {"x": 1}

    def test_raise_fires(self):
        with pytest.raises(InjectedFault, match="worker.raise"):
            fire_worker_faults((FaultDirective("worker.raise"),), in_process=False)

    def test_crash_degrades_to_raise_in_process(self):
        with pytest.raises(InjectedFault, match="degraded to raise"):
            fire_worker_faults((FaultDirective("worker.crash"),), in_process=True)

    def test_hang_sleeps_param_seconds(self):
        import time

        start = time.perf_counter()
        fire_worker_faults(
            (FaultDirective("worker.hang", param=0.05),), in_process=False
        )
        assert time.perf_counter() - start >= 0.05

    def test_unpicklable_wrapper_defeats_pickle(self):
        sabotaged = sabotage_outcome(
            (FaultDirective("worker.unpicklable"),), {"x": 1}, in_process=False
        )
        with pytest.raises(InjectedFault):
            pickle.dumps(sabotaged)

    def test_unpicklable_degrades_to_raise_in_process(self):
        # In-process results are never pickled, so the wrapper would
        # silently *become* the recorded result — degrade to a raise.
        with pytest.raises(InjectedFault, match="degraded to raise"):
            sabotage_outcome(
                (FaultDirective("worker.unpicklable"),), {"x": 1}, in_process=True
            )


class TestFaultRuntime:
    def test_arm_consume_cycle(self):
        faults_runtime.reset()
        assert not faults_runtime.consume("manifest.interrupt")
        faults_runtime.arm("manifest.interrupt", count=2)
        assert faults_runtime.armed("manifest.interrupt") == 2
        assert faults_runtime.consume("manifest.interrupt")
        assert faults_runtime.consume("manifest.interrupt")
        assert not faults_runtime.consume("manifest.interrupt")

    def test_reset_disarms(self):
        faults_runtime.arm("manifest.interrupt")
        faults_runtime.reset()
        assert faults_runtime.armed("manifest.interrupt") == 0
