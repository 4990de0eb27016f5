"""PW105: unit-suffix discipline across call boundaries.

PW004 checks suffixed arguments against parameters it can see — keywords
anywhere, positionals only for same-file ``def``s and ``self.`` methods.
A positional handed to an *imported* function is invisible to it, and the
import boundary is exactly where unit conventions drift between authors
(an ``_mw`` power fed to a ``_dbm`` parameter two packages away).

This rule extends the check one call-graph level: every call whose callee
resolves to an indexed function or class constructor has its suffixed
positional arguments matched against the callee's real parameter names.
Same-module calls to plain functions are skipped (PW004 already owns
them); constructors are checked in both directions since PW004 never
sees ``__init__`` signatures. Mirroring PW004, a syntactic conversion
(``dbm_to_watts(rx_dbm)``) has no suffix and therefore always passes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.checks import suffix_of
from repro.lint.flow.index import ModuleFacts, ProjectIndex
from repro.lint.flow.rules import FlowRule, register_flow


@register_flow
class UnitFlowMismatch(FlowRule):
    """Check unit suffixes of arguments against resolved callee parameters."""

    code = "PW105"
    name = "unit-suffix-flow-mismatch"
    description = (
        "A unit-suffixed positional argument crosses a call boundary "
        "into a parameter carrying a different unit suffix."
    )

    def check(self, index: ProjectIndex, config: LintConfig) -> List[Finding]:
        findings: List[Finding] = []
        for module_name in sorted(index.modules):
            facts = index.modules[module_name]
            for record in facts.unit_calls:
                findings.extend(
                    self._check_record(index, config, facts, record)
                )
        return findings

    def _check_record(
        self,
        index: ProjectIndex,
        config: LintConfig,
        facts: ModuleFacts,
        record: dict,
    ) -> List[Finding]:
        callee = record["callee"]
        node = index.resolve_dotted(facts.module, callee)
        if node is None:
            return []
        if node in index.class_nodes:
            # Only constructor calls check against __init__; a
            # ``pkg.Class.method`` origin that fell back to the class
            # node has the wrong signature and is skipped.
            if callee.split(".")[-1] != node.split(":", 1)[1]:
                return []
        params = self._params_for(index, node)
        if params is None:
            return []
        if "." not in callee and node in index.functions:
            # Same-module plain-function call: PW004's territory.
            return []
        findings: List[Finding] = []
        for arg in record["args"]:
            idx = arg["idx"]
            if idx >= len(params):
                continue
            param_suffix = suffix_of(params[idx], config.unit_suffixes)
            if param_suffix and param_suffix != arg["suffix"]:
                findings.append(
                    self.finding(
                        config,
                        facts,
                        arg,
                        f"_{arg['suffix']} value crosses into parameter "
                        f"{params[idx]!r} (_{param_suffix}) of {node}; "
                        "convert via repro.units at the call site",
                    )
                )
        return findings

    def _params_for(
        self, index: ProjectIndex, node: str
    ) -> Optional[List[str]]:
        if node in index.functions:
            return list(index.functions[node].get("params", []))
        if node in index.class_nodes:
            init = f"{node}.__init__"
            if init in index.functions:
                return list(index.functions[init].get("params", []))
        return None
