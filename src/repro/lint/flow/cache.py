"""Incremental flow-analysis cache keyed on per-module content hashes.

Lint is whole-program, but almost every invocation sees an
almost-unchanged tree — so the cache stores, per module, the content hash,
the extracted :class:`~repro.lint.flow.index.ModuleFacts`, *and* the
module's per-file (PW0xx) findings. A warm run re-reads sources, hashes
them, and re-parses only what changed; the interprocedural rules then run
over a mix of cached and fresh facts. That is the same idiom as
:class:`repro.runner.cache.ResultCache` — content-addressed inputs, a
schema version that invalidates wholesale on layout changes — scoped down
to one JSON document because facts are small and readable.

Two digests guard validity beyond the per-module hashes:

* the *config* digest (canonicalised :class:`LintConfig` fields) — rule
  behaviour depends on suffix lists, sim packages, the rng module;
* the *linter* digest (every ``.py`` under ``repro/lint``) — editing a
  rule must invalidate every cached finding it produced.

Layout (``.repro_cache/flow_index.json`` under the config root)::

    {"schema": 1, "config": <sha256>, "linter": <sha256>,
     "modules": {"<display path>": {"hash": <sha256>,
                                    "facts": {...ModuleFacts...},
                                    "findings": [...Finding dicts...]}}}

Writes go through :func:`repro.obs.ioutil.write_atomic` with sorted keys,
so the on-disk document is deterministic and a killed run can never leave
a torn cache (an unreadable one is treated as cold, never trusted).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.flow.index import ModuleFacts
from repro.obs.ioutil import write_atomic

#: Bump when the facts schema or cache layout changes; stale-schema caches
#: are discarded wholesale.
FLOW_CACHE_SCHEMA = 1

#: Cache file, relative to the config root (the ``ResultCache`` directory).
DEFAULT_FLOW_CACHE = ".repro_cache/flow_index.json"


def content_hash(source: str) -> str:
    """SHA-256 of one module's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def config_digest(config: LintConfig) -> str:
    """Digest of every config field that can change analysis results."""
    payload = json.dumps(
        {
            "sim_packages": list(config.sim_packages),
            "unit_suffixes": list(config.unit_suffixes),
            "rng_module": config.rng_module,
            "disable": sorted(c.upper() for c in config.disable),
            "severity": {
                code: sev.value
                for code, sev in sorted(config.severity_overrides.items())
            },
            "tree_rules": {
                tree: list(codes)
                for tree, codes in sorted(config.tree_rules.items())
            },
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def linter_digest(lint_root: Optional[Path] = None) -> str:
    """SHA-256 over the linter's own sources (``repro/lint/**/*.py``).

    Folded in sorted-relative-path order with NUL separators (the
    :func:`repro.runner.cache.code_fingerprint` construction): any edit to
    a rule, the indexer, or this cache module invalidates every cached
    fact and finding.
    """
    if lint_root is None:
        lint_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(lint_root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(lint_root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _finding_to_dict(finding: Finding) -> Dict[str, Any]:
    return {
        "code": finding.code,
        "message": finding.message,
        "path": finding.path,
        "line": finding.line,
        "column": finding.column,
        "severity": finding.severity.value,
        "line_text": finding.line_text,
    }


def _finding_from_dict(data: Dict[str, Any]) -> Finding:
    return Finding(
        code=str(data["code"]),
        message=str(data["message"]),
        path=str(data["path"]),
        line=int(data["line"]),
        column=int(data["column"]),
        severity=Severity(data["severity"]),
        line_text=str(data.get("line_text", "")),
    )


@dataclass
class CacheEntry:
    """One module's cached state: content hash, facts, per-file findings."""

    digest: str
    facts: ModuleFacts
    findings: List[Finding] = field(default_factory=list)


class FlowCache:
    """Load/update/save the per-module facts cache.

    ``load`` never raises: a missing, unparseable, schema-mismatched, or
    digest-mismatched cache is simply cold. ``entry_for`` is a pure hash
    lookup; the engine decides what to do with misses.
    """

    def __init__(self, path: Path, config: LintConfig) -> None:
        self.path = path
        self.config_digest = config_digest(config)
        self.linter_digest = linter_digest()
        self.entries: Dict[str, CacheEntry] = {}
        #: True once an entry was added or dropped since :meth:`load`; a
        #: warm run that changed nothing need not rewrite the file.
        self.dirty = False

    @classmethod
    def for_config(
        cls, config: LintConfig, path: Optional[Path] = None
    ) -> "FlowCache":
        if path is None:
            root = config.root or Path(".")
            path = root / DEFAULT_FLOW_CACHE
        return cls(path, config)

    def load(self) -> bool:
        """Read the cache; returns True when any entry was accepted."""
        self.entries = {}
        self.dirty = False
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False
        if not isinstance(data, dict) or data.get("schema") != FLOW_CACHE_SCHEMA:
            return False
        if data.get("config") != self.config_digest:
            return False
        if data.get("linter") != self.linter_digest:
            return False
        modules = data.get("modules", {})
        if not isinstance(modules, dict):
            return False
        for display, record in modules.items():
            try:
                entry = CacheEntry(
                    digest=str(record["hash"]),
                    facts=ModuleFacts.from_dict(record["facts"]),
                    findings=[
                        _finding_from_dict(f) for f in record.get("findings", [])
                    ],
                )
            except (KeyError, TypeError, ValueError):
                continue  # one bad record degrades to a per-module miss
            self.entries[str(display)] = entry
        return bool(self.entries)

    def entry_for(self, display: str, digest: str) -> Optional[CacheEntry]:
        """The cached entry for ``display``, iff its content hash matches."""
        entry = self.entries.get(display)
        if entry is not None and entry.digest == digest:
            return entry
        return None

    def put(
        self,
        display: str,
        digest: str,
        facts: ModuleFacts,
        findings: List[Finding],
    ) -> CacheEntry:
        entry = CacheEntry(digest=digest, facts=facts, findings=list(findings))
        self.entries[display] = entry
        self.dirty = True
        return entry

    def prune(self, walked: Sequence[str], linted: Sequence[str]) -> None:
        """Drop entries under the ``walked`` display paths that are not in
        ``linted`` (deleted or newly excluded modules).

        Entries outside every walked path are kept: they belong to other
        path sets sharing this cache file (CI lints ``src/repro`` and the
        satellite trees in separate runs), which must not evict each other.
        """
        keep = set(linted)

        def under(display: str, root: str) -> bool:
            return root == "." or display == root or display.startswith(root + "/")

        kept = {
            display: entry
            for display, entry in self.entries.items()
            if display in keep or not any(under(display, root) for root in walked)
        }
        self.dirty = self.dirty or len(kept) < len(self.entries)
        self.entries = kept

    def save(self) -> None:
        payload = {
            "schema": FLOW_CACHE_SCHEMA,
            "config": self.config_digest,
            "linter": self.linter_digest,
            "modules": {
                display: {
                    "hash": entry.digest,
                    "facts": entry.facts.to_dict(),
                    "findings": [
                        _finding_to_dict(f) for f in entry.findings
                    ],
                }
                for display, entry in sorted(self.entries.items())
            },
        }
        write_atomic(
            self.path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
