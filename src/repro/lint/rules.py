"""Rule base class, registry, and the single-pass AST dispatcher.

Each rule subscribes to the AST node types it cares about; the linter walks
a file's tree exactly once and dispatches every node to the subscribed
rules. Rules are registered under stable ``PW###`` codes via
:func:`register` — codes are part of the project's public surface (pragmas
and the baseline reference them), so they are never renumbered.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity


@dataclass
class FileContext:
    """Everything a rule may consult about the file being linted."""

    path: str
    module: str
    source: str
    tree: ast.AST
    config: LintConfig
    lines: List[str] = field(default_factory=list)
    #: Local name -> dotted origin ("rng" -> "random.Random") for every
    #: import in the file; built once by :func:`build_import_map`.
    imports: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @property
    def package(self) -> str:
        """First package segment under ``repro`` ("repro.sim.rng" -> "sim")."""
        parts = self.module.split(".")
        if len(parts) >= 2 and parts[0] == "repro":
            return parts[1]
        return parts[0] if parts else ""

    @property
    def in_sim_package(self) -> bool:
        return self.package in self.config.sim_packages

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, following imports.

        ``rng.expovariate`` where ``import random as rng`` resolves to
        ``random.expovariate``; unresolvable heads return the literal
        dotted chain (or None for non-name expressions).
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self.imports.get(current.id, current.id)
        parts.append(head)
        return ".".join(reversed(parts))


class Rule:
    """One lint rule. Subclasses set the class attributes and ``visit``."""

    code: str = ""
    name: str = ""
    description: str = ""
    default_severity: Severity = Severity.ERROR
    #: AST node classes this rule wants dispatched to :meth:`visit`.
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies(self, ctx: FileContext) -> bool:
        """Whether the rule runs on this file at all (scope gate)."""
        return True

    def begin_file(self, ctx: FileContext) -> None:
        """Per-file setup hook (reset any accumulated state)."""

    def visit(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        """Yield findings for one dispatched node."""
        return iter(())

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            code=self.code,
            message=message,
            path=ctx.path,
            line=lineno,
            column=getattr(node, "col_offset", 0),
            severity=ctx.config.severity_for(self.code, self.default_severity),
            line_text=ctx.line_text(lineno),
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``rule_cls`` to the global registry."""
    code = rule_cls.code.upper()
    if not code.startswith("PW") or not code[2:].isdigit():
        raise ValueError(f"rule code must look like 'PW123', got {rule_cls.code!r}")
    existing = _REGISTRY.get(code)
    if existing is not None and existing is not rule_cls:
        raise ValueError(f"duplicate rule code {code}: {existing} vs {rule_cls}")
    _REGISTRY[code] = rule_cls
    return rule_cls


def all_rules() -> List[Type[Rule]]:
    """Registered rule classes, ordered by code."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Type[Rule]:
    _ensure_loaded()
    try:
        return _REGISTRY[code.upper()]
    except KeyError:
        raise KeyError(f"no rule registered under {code!r}") from None


def _ensure_loaded() -> None:
    # The checks module self-registers on import; importing it lazily here
    # avoids a rules <-> checks import cycle.
    import repro.lint.checks  # noqa: F401


def build_import_map(tree: ast.AST) -> Dict[str, str]:
    """Local alias -> dotted origin for every import statement in ``tree``."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports stay project-local
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def run_rules(ctx: FileContext) -> List[Finding]:
    """Single-pass dispatch of every (enabled, applicable) rule over a file."""
    rules: List[Rule] = []
    for rule_cls in all_rules():
        if not ctx.config.rule_enabled(rule_cls.code):
            continue
        rule = rule_cls()
        if rule.applies(ctx):
            rule.begin_file(ctx)
            rules.append(rule)
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in rules:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        for rule in dispatch.get(type(node), ()):
            findings.extend(rule.visit(ctx, node))
    findings.sort(key=lambda f: (f.line, f.column, f.code))
    return findings


def module_name_for(path: Path, src_roots: Tuple[str, ...] = ("src",)) -> str:
    """Best-effort dotted module name for ``path`` (used for scope gating)."""
    parts = list(path.with_suffix("").parts)
    for root in src_roots:
        if root in parts:
            parts = parts[parts.index(root) + 1 :]
            break
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)
