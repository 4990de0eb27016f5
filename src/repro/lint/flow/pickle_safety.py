"""PW103: unpicklable values crossing the process-pool boundary.

Everything placed on a :class:`~repro.runner.tasks.TaskSpec` or submitted
to the pool alongside ``execute_task`` must survive a pickle round-trip
into a worker process. Lambdas, nested
functions, generator expressions, and open file handles fail outright at
submit time; module-level mutable state *pickles* but forks into an
independent copy per worker, so mutations silently diverge between the
parent and its workers — a reproducibility bug that only shows up under
``--jobs > 1``.

Hazards are recognised at extraction time (same-file dataflow: a name
assigned from a lambda/``open()`` in the enclosing function, a nested
``def``, a module-level dict/list/set literal) and looked one level into
dict literals, which is how ``TaskSpec.kwargs`` is built in practice.
Values the indexer cannot classify are presumed safe — this rule reports
only what it can justify.
"""

from __future__ import annotations

from typing import List

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.flow.index import ProjectIndex
from repro.lint.flow.rules import FlowRule, register_flow


@register_flow
class PoolPickleSafety(FlowRule):
    """Flag unpicklable or mutable values crossing the worker-pool boundary."""

    code = "PW103"
    name = "pool-pickle-hazard"
    description = (
        "A value that cannot safely cross the process-pool pickle "
        "boundary is passed to TaskSpec/execute_task."
    )

    def check(self, index: ProjectIndex, config: LintConfig) -> List[Finding]:
        findings: List[Finding] = []
        for module_name in sorted(index.modules):
            facts = index.modules[module_name]
            for hazard in facts.pool_hazards:
                mutable = "mutable" in hazard["hazard"]
                consequence = (
                    "each worker mutates its own forked copy, so state "
                    "diverges silently between processes"
                    if mutable
                    else "it cannot be pickled into a worker process"
                )
                findings.append(
                    self.finding(
                        config,
                        facts,
                        hazard,
                        f"{hazard['hazard']} crosses the pool boundary via "
                        f"{hazard['ctor']}(){hazard.get('detail', '')}: "
                        f"{consequence}",
                    )
                )
        return findings
