"""The lint driver: files in, findings out, in one pass.

:func:`lint_paths` is what the CLI calls. It walks the paths once; each
``.py`` file either replays its facts and findings from the incremental
:class:`~repro.lint.flow.cache.FlowCache` or is parsed exactly once, and
that one tree feeds both the per-file PW0xx rules (:func:`lint_source`)
and the flow-fact extraction. The interprocedural PW1xx rules then run
over the :class:`~repro.lint.flow.index.ProjectIndex` of every module,
spec JSONs get PW006/PW007, and the per-tree rule subsets and the
baseline apply to the whole set.

:func:`lint_source` (one in-memory module, per-file rules) and
:func:`flow_lint_sources` (in-memory modules, interprocedural rules) are
the fixture entry points for tests: no filesystem, cache or baseline.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint import baseline as baseline_mod
from repro.lint.checks import check_campaign_spec_file, check_slo_spec_file
from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity, assign_occurrences
from repro.lint.flow.cache import FlowCache, content_hash
from repro.lint.flow.index import ModuleFacts, ProjectIndex, extract_facts
from repro.lint.flow.rules import run_flow_rules
from repro.lint.pragmas import collect_pragmas, is_suppressed
from repro.lint.rules import FileContext, build_import_map, module_name_for, run_rules

#: Directories whose ``*.json`` files are lint inputs (PW006 / PW007).
SPEC_DIRS = ("slos", "campaigns")


@dataclass
class FlowStats:
    """How much work one pass did (stderr telemetry)."""

    files: int = 0
    parsed: int = 0
    reused: int = 0
    flow_findings: int = 0
    #: Display path of every file linted, ``.py`` and spec JSON alike:
    #: what baseline staleness is judged against.
    linted: List[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"lint: {self.files} file(s), {self.parsed} parsed, "
            f"{self.reused} reused from cache, "
            f"{self.flow_findings} interprocedural finding(s)"
        )


def parse_module(
    source: str, path: str
) -> Tuple[Optional[ast.AST], Optional[Finding]]:
    """``(tree, None)``, or ``(None, PW000 finding)`` for a syntax error.

    A broken file becomes one synthetic error finding rather than an
    exception, so it cannot abort a tree-wide run.
    """
    try:
        return ast.parse(source, filename=path), None
    except SyntaxError as exc:
        return None, Finding(
            code="PW000",
            message=f"syntax error: {exc.msg}",
            path=path,
            line=exc.lineno or 1,
            column=(exc.offset or 1) - 1,
            severity=Severity.ERROR,
        )


def lint_source(
    source: str,
    path: str = "<string>",
    module: str = "repro.sim.snippet",
    config: Optional[LintConfig] = None,
    tree: Optional[ast.AST] = None,
) -> List[Finding]:
    """Per-file rules over one module given as a string; pragma-suppressed
    findings are dropped, the baseline is *not* consulted.

    ``tree`` is the already-parsed module when the caller has one;
    otherwise ``source`` is parsed here.
    """
    config = config or LintConfig()
    if tree is None:
        tree, error = parse_module(source, path)
        if error is not None:
            return [error]
    ctx = FileContext(
        path=path,
        module=module,
        source=source,
        tree=tree,
        config=config,
        imports=build_import_map(tree),
    )
    pragmas = collect_pragmas(source)
    findings = [
        f for f in run_rules(ctx) if not is_suppressed(pragmas, f.line, f.code)
    ]
    assign_occurrences(findings)
    return findings


def display_path(path: Path, config: LintConfig) -> str:
    """Root-relative POSIX display form of ``path`` (fingerprint input).

    Paths are reported relative to the config root (the ``pyproject.toml``
    directory) when possible, so fingerprints are machine-independent.
    """
    if config.root is not None:
        try:
            return path.relative_to(config.root).as_posix()
        except ValueError:
            pass
    return str(path)


def iter_lint_files(paths: Iterable[Path], config: LintConfig) -> List[Path]:
    """Expand files/directories into the sorted, deduplicated, exclude-
    filtered list of lint inputs: every ``.py`` file, plus spec JSONs —
    explicit ``.json`` arguments and ``slos/*.json`` / ``campaigns/*.json``
    beneath directory arguments."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p
                for p in path.rglob("*")
                if p.suffix == ".py"
                or (p.suffix == ".json" and p.parent.name in SPEC_DIRS)
            )
        elif path.suffix in (".py", ".json"):
            files.append(path)
    return [
        path
        for path in sorted({p.resolve() for p in files})
        if not any(
            fnmatch(display_path(path, config), pattern)
            for pattern in config.exclude
        )
    ]


def _check_spec(
    path: Path, display: str, source: str, config: LintConfig
) -> List[Finding]:
    """PW007 (campaign) or PW006 (SLO) over one spec JSON.

    Directory name wins (``campaigns/`` vs ``slos/`` is the documented
    layout); an explicit file argument outside either is sniffed by its
    top-level ``"campaign"`` key so ``repro lint mysweep.json`` still picks
    the right rule.
    """
    if path.parent.name in SPEC_DIRS:
        is_campaign = path.parent.name == "campaigns"
    else:
        try:
            data = json.loads(source)
        except ValueError:
            data = None
        is_campaign = isinstance(data, dict) and "campaign" in data
    if is_campaign:
        code, check = "PW007", check_campaign_spec_file
    else:
        code, check = "PW006", check_slo_spec_file
    if not config.rule_enabled(code):
        return []
    return check(display, source)


def _analyse(
    source: str, display: str, module: str, config: LintConfig
) -> Tuple[ModuleFacts, List[Finding]]:
    """Parse one module once; its flow facts and per-file findings."""
    tree, error = parse_module(source, display)
    if error is not None:
        return ModuleFacts(module=module, path=display), [error]
    findings = lint_source(source, display, module, config, tree=tree)
    return extract_facts(source, display, module, config, tree=tree), findings


def lint_paths(
    paths: Iterable[str],
    config: Optional[LintConfig] = None,
    use_baseline: bool = True,
    use_cache: bool = True,
    cache_path: Optional[Path] = None,
) -> Tuple[List[Finding], FlowStats]:
    """Lint files/directories: every finding (baselined ones marked) plus
    a :class:`FlowStats`.

    With ``use_cache``, unchanged modules replay from the cache at
    ``cache_path`` (default: ``.repro_cache/flow_index.json`` under the
    config root), and entries under the walked paths that this run no
    longer lints are pruned; entries elsewhere belong to other path sets
    sharing the file and are kept.
    """
    config = config or LintConfig()
    stats = FlowStats()
    cache = FlowCache.for_config(config, cache_path)
    if use_cache:
        cache.load()

    roots = [Path(p) for p in paths]
    facts_list: List[ModuleFacts] = []
    findings: List[Finding] = []
    for path in iter_lint_files(roots, config):
        display = display_path(path, config)
        source = path.read_text(encoding="utf-8")
        stats.linted.append(display)
        if path.suffix == ".json":
            findings.extend(_check_spec(path, display, source, config))
            continue
        stats.files += 1
        digest = content_hash(source)
        entry = cache.entry_for(display, digest)
        if entry is None:
            stats.parsed += 1
            facts, found = _analyse(
                source, display, module_name_for(path), config
            )
            entry = cache.put(display, digest, facts, found)
        else:
            stats.reused += 1
        facts_list.append(entry.facts)
        findings.extend(entry.findings)

    findings += run_flow_rules(ProjectIndex(facts_list, config), config)
    findings = [f for f in findings if _in_tree_subset(f, config)]
    stats.flow_findings = sum(1 for f in findings if f.code.startswith("PW1"))
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code, f.message))
    assign_occurrences(findings)
    if use_baseline:
        known = baseline_mod.load_baseline(config.baseline_path)
        baseline_mod.apply_baseline(findings, known)
    if use_cache:
        cache.prune(
            [display_path(root.resolve(), config) for root in roots],
            stats.linted,
        )
        if cache.dirty:
            cache.save()
    return findings, stats


def _in_tree_subset(finding: Finding, config: LintConfig) -> bool:
    """Is ``finding``'s code in its tree's rule subset (if it has one)?"""
    codes = config.codes_for_display_path(finding.path)
    return codes is None or finding.code in codes


def flow_lint_sources(
    modules: Dict[str, str], config: Optional[LintConfig] = None
) -> List[Finding]:
    """Run only the interprocedural rules over in-memory modules.

    ``modules`` maps dotted module names to source text; paths are
    synthesised (``repro.sim.engine`` -> ``repro/sim/engine.py``).
    """
    config = config or LintConfig()
    facts_list = [
        extract_facts(
            modules[module], module.replace(".", "/") + ".py", module, config
        )
        for module in sorted(modules)
    ]
    findings = run_flow_rules(ProjectIndex(facts_list, config), config)
    assign_occurrences(findings)
    return findings


def active_errors(findings: Iterable[Finding]) -> List[Finding]:
    """Findings that should gate: non-baselined, error severity."""
    return [
        f
        for f in findings
        if not f.baselined and f.severity is Severity.ERROR
    ]
