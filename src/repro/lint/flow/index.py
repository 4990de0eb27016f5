"""Project indexer: per-module fact extraction and the whole-program index.

:func:`extract_facts` walks one module's AST exactly once and distils the
facts the PW1xx rules need into a :class:`ModuleFacts` — a plain,
JSON-serialisable record so the incremental cache
(:mod:`repro.lint.flow.cache`) can persist it keyed on the module's
content hash. :class:`ProjectIndex` folds every module's facts into the
whole-program view: a symbol table of ``"module:qualname"`` nodes (the
same target format the experiment registry uses), an import-resolved call
graph, and the project-wide literal pools (RNG stream names, trace kinds,
registry target strings) the rules cross-reference.

Resolution is deliberately conservative: a call whose callee cannot be
resolved through the import map or the local symbol table produces no
edge rather than a guessed one, so every PW1xx finding rests on an edge
the indexer can actually justify.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.lint.checks import (
    GLOBAL_RANDOM_DRAWS,
    OS_ENTROPY_QUALNAMES,
    suffix_of,
    terminal_name,
)
from repro.lint.config import LintConfig
from repro.lint.rules import build_import_map

#: ``"module:callable"`` literals (the registry's target format) double as
#: flow entry points; see :mod:`repro.lint.flow.reachability`.
TARGET_LITERAL_RE = re.compile(
    r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+:[A-Za-z_][A-Za-z0-9_]*$"
)

#: Constructors whose arguments cross the process-pool pickle boundary.
POOL_CTOR_ORIGINS: Tuple[str, ...] = ("repro.runner.tasks.TaskSpec",)

#: Worker entry points: arguments submitted alongside them are pickled.
WORKER_ENTRY_ORIGINS: Tuple[str, ...] = ("repro.runner.tasks.execute_task",)

#: Exact qualnames that are unseeded-entropy sinks (PW102 terminals).
ENTROPY_QUALNAMES = frozenset({"random.Random"}) | OS_ENTROPY_QUALNAMES

#: Dotted prefixes that are entropy sinks wholesale.
ENTROPY_PREFIXES: Tuple[str, ...] = ("secrets.", "numpy.random.")


def _dotted_text(node: ast.AST) -> Optional[str]:
    """Literal dotted source of a Name/Attribute chain (no resolution)."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _is_entropy_origin(origin: str) -> bool:
    if origin in ENTROPY_QUALNAMES:
        return True
    if origin.startswith("random.") and origin[7:] in GLOBAL_RANDOM_DRAWS:
        return True
    return any(origin.startswith(prefix) for prefix in ENTROPY_PREFIXES)


@dataclass
class ModuleFacts:
    """Everything the flow rules need to know about one module.

    Every field is built from plain JSON types (via :meth:`to_dict` /
    :meth:`from_dict`) so the incremental cache can round-trip facts
    without re-parsing unchanged modules. Site records are dicts with at
    least ``line``/``col``/``text`` (the flagged line's stripped source,
    which is what baseline fingerprints hash).
    """

    module: str
    path: str
    #: Function/method qualname -> {"params": [...], "line": int}.
    defs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Class name -> {"methods": [...], "line": int}.
    classes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Call-graph edges: {"caller", "callee", "line"} with callee either a
    #: resolved dotted origin, a bare local name, or ``self.<method>``.
    calls: List[Dict[str, Any]] = field(default_factory=list)
    #: Name/Attribute expressions passed as call arguments (callbacks
    #: handed to ``Simulator.schedule`` and friends).
    arg_refs: List[Dict[str, Any]] = field(default_factory=list)
    #: String literals in the registry's ``"module:callable"`` format.
    target_literals: List[str] = field(default_factory=list)
    #: ``.stream(name)`` / ``.fork(name)`` sites with literal names.
    streams: List[Dict[str, Any]] = field(default_factory=list)
    #: Unseeded-entropy call sites (PW102 terminals).
    sinks: List[Dict[str, Any]] = field(default_factory=list)
    #: ``.emit(time, source, "kind", ...)`` sites with literal kinds.
    emits: List[Dict[str, Any]] = field(default_factory=list)
    #: Kind consumers: ``.wants("k")``, ``.filter(kind="k")``,
    #: ``enabled_kinds=[...]`` / ``trace_kinds=[...]`` literal lists.
    consumes: List[Dict[str, Any]] = field(default_factory=list)
    #: Pickle hazards at pool-boundary constructor/submit sites (PW103).
    pool_hazards: List[Dict[str, Any]] = field(default_factory=list)
    #: Calls carrying unit-suffixed positional arguments (PW105).
    unit_calls: List[Dict[str, Any]] = field(default_factory=list)
    #: Pragma map (line -> suppressed codes), logical-line expanded.
    pragmas: Dict[int, List[str]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "module": self.module,
            "path": self.path,
            "defs": self.defs,
            "classes": self.classes,
            "calls": self.calls,
            "arg_refs": self.arg_refs,
            "target_literals": self.target_literals,
            "streams": self.streams,
            "sinks": self.sinks,
            "emits": self.emits,
            "consumes": self.consumes,
            "pool_hazards": self.pool_hazards,
            "unit_calls": self.unit_calls,
            "pragmas": {str(line): codes for line, codes in self.pragmas.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ModuleFacts":
        facts = cls(module=str(data["module"]), path=str(data["path"]))
        for name in (
            "defs",
            "classes",
            "calls",
            "arg_refs",
            "target_literals",
            "streams",
            "sinks",
            "emits",
            "consumes",
            "pool_hazards",
            "unit_calls",
        ):
            setattr(facts, name, data.get(name, getattr(facts, name)))
        facts.pragmas = {
            int(line): list(codes)
            for line, codes in dict(data.get("pragmas", {})).items()
        }
        return facts


class _FactVisitor(ast.NodeVisitor):
    """Single-pass extractor feeding a :class:`ModuleFacts`."""

    def __init__(
        self, facts: ModuleFacts, source: str, config: LintConfig
    ) -> None:
        self.facts = facts
        self.config = config
        self.lines = source.splitlines()
        self.imports: Dict[str, str] = {}
        #: (name, kind) scope stack; kind is "class" or "func".
        self.stack: List[Tuple[str, str]] = []
        #: Per-function local pickle hazards: name -> hazard description.
        self.local_hazards: List[Dict[str, str]] = []
        #: Module-level names bound to mutable literals (dict/list/set).
        self.mutable_globals: Dict[str, str] = {}
        #: Dotted receiver texts assigned from ``.fork(...)`` calls.
        self.fork_assigned: Set[str] = set()

    # ------------------------------------------------------------- helpers

    def _text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def _site(self, node: ast.AST) -> Dict[str, Any]:
        lineno = getattr(node, "lineno", 1)
        return {
            "line": lineno,
            "col": getattr(node, "col_offset", 0),
            "text": self._text(lineno),
        }

    def _caller(self) -> str:
        names = [name for name, kind in self.stack if kind == "func"]
        # Method qualnames keep their class prefix so call-graph nodes
        # match the "module:Class.method" form.
        qual: List[str] = []
        for name, kind in self.stack:
            qual.append(name)
        return ".".join(qual) if qual else "<module>"

    def _owner(self) -> str:
        return self.stack[0][0] if self.stack else "<module>"

    def _resolve(self, node: ast.AST) -> Optional[str]:
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

    # ------------------------------------------------------ def extraction

    def visit_Module(self, node: ast.Module) -> None:
        self.imports = build_import_map(node)
        self.generic_visit(node)

    def _params_of(self, node: ast.AST) -> List[str]:
        args = node.args
        params = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        return params

    def _visit_def(self, node: ast.AST) -> None:
        qual = ".".join([name for name, _ in self.stack] + [node.name])
        params = self._params_of(node)
        if self.stack and self.stack[-1][1] == "class" and params:
            if params[0] in ("self", "cls"):
                params = params[1:]
        self.facts.defs[qual] = {"params": params, "line": node.lineno}
        if self.stack and self.stack[-1][1] == "func" and self.local_hazards:
            self.local_hazards[-1][node.name] = "a nested function"
        self.stack.append((node.name, "func"))
        self.local_hazards.append({})
        self.generic_visit(node)
        self.local_hazards.pop()
        self.stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self.stack:
            methods = [
                child.name
                for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            self.facts.classes[node.name] = {
                "methods": methods,
                "line": node.lineno,
            }
        self.stack.append((node.name, "class"))
        self.generic_visit(node)
        self.stack.pop()

    # ------------------------------------------------- assignment tracking

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assignment(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assignment([node.target], node.value)
        self.generic_visit(node)

    def _record_assignment(self, targets: List[ast.AST], value: ast.AST) -> None:
        value_hazard = self._value_hazard(value)
        fork_value = (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "fork"
        )
        at_module_level = not self.stack
        in_function = bool(self.local_hazards)
        for target in targets:
            dotted = _dotted_text(target)
            if dotted is None:
                continue
            if fork_value:
                self.fork_assigned.add(dotted)
            if "." in dotted:
                continue
            if at_module_level and isinstance(
                value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp)
            ):
                self.mutable_globals[dotted] = "module-level mutable state"
            elif in_function and value_hazard:
                self.local_hazards[-1][dotted] = value_hazard

    def _value_hazard(self, value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.GeneratorExp):
            return "a generator"
        if isinstance(value, ast.Call) and self._resolve(value.func) == "open":
            return "an open file handle"
        return None

    # ------------------------------------------------------ string literals

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and TARGET_LITERAL_RE.match(node.value):
            self.facts.target_literals.append(node.value)
        self.generic_visit(node)

    # -------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        caller = self._caller()
        origin = self._resolve(node.func)
        site = self._site(node)

        if origin is not None:
            self.facts.calls.append(
                {"caller": caller, "callee": origin, "line": node.lineno}
            )
            if _is_entropy_origin(origin):
                self.facts.sinks.append(
                    {"caller": caller, "origin": origin, **site}
                )
            if origin in POOL_CTOR_ORIGINS or (
                "." not in origin
                and self.imports.get(origin.split(".")[0], "") in POOL_CTOR_ORIGINS
            ):
                self._check_pool_args(
                    node, ctor=origin.rsplit(".", 1)[-1], skip_first=0
                )

        # Callback references handed as arguments (scheduled callbacks,
        # pool submissions) keep the call graph honest about indirect flow.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                ref = self._resolve(arg)
                if ref is not None:
                    self.facts.arg_refs.append(
                        {"caller": caller, "ref": ref, "line": node.lineno}
                    )

        func = node.func
        if isinstance(func, ast.Attribute):
            self._visit_attribute_call(node, func, caller, site)

        self._collect_unit_positions(node, caller, origin)
        self.generic_visit(node)

    def _visit_attribute_call(
        self,
        node: ast.Call,
        func: ast.Attribute,
        caller: str,
        site: Dict[str, Any],
    ) -> None:
        attr = func.attr
        if attr in ("stream", "fork") and node.args:
            name_arg = node.args[0]
            if isinstance(name_arg, ast.Constant) and isinstance(
                name_arg.value, str
            ):
                self.facts.streams.append(
                    {
                        "caller": caller,
                        "owner": self._owner(),
                        "kind": attr,
                        "name": name_arg.value,
                        "forked": self._is_fork_derived(func.value),
                        **site,
                    }
                )
        elif attr == "emit" and len(node.args) >= 3:
            kind_arg = node.args[2]
            if isinstance(kind_arg, ast.Constant) and isinstance(
                kind_arg.value, str
            ):
                self.facts.emits.append(
                    {"caller": caller, "kind": kind_arg.value, **site}
                )
        elif attr == "wants" and node.args:
            # Other APIs share the method name (FaultPlan.wants); only
            # receivers following the trace naming convention count.
            receiver = _dotted_text(func.value)
            terminal = receiver.split(".")[-1] if receiver else ""
            first = node.args[0]
            if (
                terminal in ("trace", "tracer", "recorder")
                and isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                self.facts.consumes.append(
                    {
                        "caller": caller,
                        "kind": first.value,
                        "form": "wants",
                        **site,
                    }
                )
        elif attr == "filter":
            for keyword in node.keywords:
                if keyword.arg != "kind":
                    continue
                value = keyword.value
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    self.facts.consumes.append(
                        {
                            "caller": caller,
                            "kind": value.value,
                            "form": "filter",
                            **self._site(value),
                        }
                    )
        elif attr == "submit" and node.args:
            first_origin = self._resolve(node.args[0])
            if first_origin in WORKER_ENTRY_ORIGINS:
                self._check_pool_args(node, ctor="submit", skip_first=1)

        for keyword in node.keywords:
            if keyword.arg in ("enabled_kinds", "trace_kinds") and isinstance(
                keyword.value, (ast.List, ast.Tuple)
            ):
                for element in keyword.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        self.facts.consumes.append(
                            {
                                "caller": caller,
                                "kind": element.value,
                                "form": keyword.arg,
                                **self._site(element),
                            }
                        )

    def _check_kw_kind_lists(self, node: ast.Call, caller: str) -> None:
        """Kept for API stability; kind-list keywords are handled inline."""

    def _is_fork_derived(self, receiver: ast.AST) -> bool:
        for sub in ast.walk(receiver):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                if sub.func.attr == "fork":
                    return True
        dotted = _dotted_text(receiver)
        return dotted is not None and dotted in self.fork_assigned

    # ------------------------------------------------------ pickle hazards

    def _check_pool_args(
        self, node: ast.Call, ctor: str, skip_first: int
    ) -> None:
        values: List[Tuple[Optional[str], ast.AST]] = []
        for arg in node.args[skip_first:]:
            values.append((None, arg))
        for keyword in node.keywords:
            values.append((keyword.arg, keyword.value))
        for label, value in values:
            self._check_pool_value(ctor, label, value)
            if isinstance(value, ast.Dict):
                for inner in value.values:
                    self._check_pool_value(ctor, label, inner)

    def _check_pool_value(
        self, ctor: str, label: Optional[str], value: ast.AST
    ) -> None:
        hazard = self._value_hazard(value)
        if hazard is None and isinstance(value, ast.Name):
            if self.local_hazards and value.id in self.local_hazards[-1]:
                hazard = self.local_hazards[-1][value.id]
            elif value.id in self.mutable_globals and value.id not in self.imports:
                hazard = self.mutable_globals[value.id]
        if hazard is None:
            return
        where = f" (argument {label!r})" if label else ""
        self.facts.pool_hazards.append(
            {
                "caller": self._caller(),
                "ctor": ctor,
                "hazard": hazard,
                "detail": where,
                **self._site(value),
            }
        )

    # ------------------------------------------------------- unit positions

    def _collect_unit_positions(
        self, node: ast.Call, caller: str, origin: Optional[str]
    ) -> None:
        if origin is None:
            return
        suffixes = self.config.unit_suffixes
        args: List[Dict[str, Any]] = []
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            suffix = suffix_of(terminal_name(arg), suffixes)
            if suffix:
                args.append({"idx": index, "suffix": suffix, **self._site(arg)})
        if args:
            self.facts.unit_calls.append(
                {
                    "caller": caller,
                    "callee": origin,
                    "args": args,
                    "line": node.lineno,
                }
            )


def extract_facts(
    source: str,
    path: str,
    module: str,
    config: Optional[LintConfig] = None,
    tree: Optional[ast.AST] = None,
) -> ModuleFacts:
    """Extract one module's flow facts (parsing ``source`` unless ``tree``
    is supplied by a caller that already parsed it).

    Raises ``SyntaxError`` for broken sources; :func:`repro.lint.engine.lint_paths`
    parses first and turns that into a synthetic ``PW000`` finding.
    """
    from repro.lint.pragmas import collect_pragmas

    config = config or LintConfig()
    if tree is None:
        tree = ast.parse(source, filename=path)
    facts = ModuleFacts(module=module, path=path)
    visitor = _FactVisitor(facts, source, config)
    visitor.visit(tree)
    facts.pragmas = {
        line: sorted(codes) for line, codes in collect_pragmas(source).items()
    }
    return facts


class ProjectIndex:
    """The whole-program view: symbol table, call graph, literal pools.

    Nodes are ``"module:qualname"`` strings — exactly the experiment
    registry's target format, so a registry target literal resolves to its
    index node by string identity.
    """

    def __init__(self, modules: List[ModuleFacts], config: Optional[LintConfig] = None):
        self.config = config or LintConfig()
        self.modules: Dict[str, ModuleFacts] = {}
        for facts in modules:
            self.modules[facts.module] = facts
        #: "module:qual" -> {"params": [...], "line": ..., "path": ...}.
        self.functions: Dict[str, Dict[str, Any]] = {}
        #: "module:Class" -> {"methods": [...], "path": ...}.
        self.class_nodes: Dict[str, Dict[str, Any]] = {}
        for module_name in sorted(self.modules):
            facts = self.modules[module_name]
            for qual in sorted(facts.defs):
                node = f"{module_name}:{qual}"
                self.functions[node] = {**facts.defs[qual], "path": facts.path}
            for name in sorted(facts.classes):
                self.class_nodes[f"{module_name}:{name}"] = {
                    **facts.classes[name],
                    "path": facts.path,
                }
        self._edges: Optional[Dict[str, List[str]]] = None

    # ---------------------------------------------------------- resolution

    def resolve_dotted(self, module: str, dotted: str) -> Optional[str]:
        """Map a resolved dotted origin onto an index node, if any.

        ``repro.rf.link.path_loss`` -> ``repro.rf.link:path_loss``;
        ``path_loss`` (bare, from ``module``) -> ``module:path_loss``;
        unresolvable origins return ``None``.
        """
        if "." not in dotted:
            facts = self.modules.get(module)
            if facts is None:
                return None
            if dotted in facts.defs:
                return f"{module}:{dotted}"
            if dotted in facts.classes:
                return f"{module}:{dotted}"
            return None
        # The longest dot-boundary prefix that names a module owns the rest.
        candidate = dotted
        while candidate not in self.modules:
            candidate, dot, _ = candidate.rpartition(".")
            if not dot:
                return None
        if candidate == dotted:
            return None
        qual = dotted[len(candidate) + 1 :]
        node = f"{candidate}:{qual}"
        if node in self.functions or node in self.class_nodes:
            return node
        # ``pkg.Class.method`` resolves through the class node.
        class_node = f"{candidate}:{qual.split('.')[0]}"
        if class_node in self.class_nodes:
            return class_node
        return None

    def resolve_target(self, target: str) -> Optional[str]:
        """Resolve a ``"module:callable"`` literal to an index node."""
        module, _, qual = target.partition(":")
        node = f"{module}:{qual}"
        if node in self.functions or node in self.class_nodes:
            return node
        return None

    # ---------------------------------------------------------- call graph

    def edges(self) -> Dict[str, List[str]]:
        """Sorted adjacency of the project call graph (built once).

        Function nodes point at resolved callees; instantiating or
        referencing a class adds an edge to its class node, and every
        class node fans out to its methods (a conservative closure: once a
        component is constructed, any of its methods may be scheduled).
        """
        if self._edges is not None:
            return self._edges
        edges: Dict[str, Set[str]] = {}

        def add(src: str, dst: str) -> None:
            edges.setdefault(src, set()).add(dst)

        for module_name in sorted(self.modules):
            facts = self.modules[module_name]
            for record in facts.calls + facts.arg_refs:
                callee = record.get("callee") or record.get("ref") or ""
                caller_node = f"{module_name}:{record['caller']}"
                if callee.startswith("self.") and "." in record["caller"]:
                    klass = record["caller"].split(".")[0]
                    target = f"{module_name}:{klass}.{callee[5:]}"
                    if target in self.functions:
                        add(caller_node, target)
                    continue
                resolved = self.resolve_dotted(module_name, callee)
                if resolved is not None:
                    add(caller_node, resolved)
        for class_node, info in self.class_nodes.items():
            module_name = class_node.split(":", 1)[0]
            for method in info.get("methods", ()):
                target = f"{class_node}.{method}"
                if target in self.functions:
                    add(class_node, target)
        self._edges = {src: sorted(dsts) for src, dsts in edges.items()}
        return self._edges

    def reachable_from(self, entries: List[str]) -> Dict[str, Optional[str]]:
        """BFS over :meth:`edges`; node -> predecessor (entries map to None).

        Deterministic: entries and adjacency are visited in sorted order,
        so the predecessor tree (and therefore every reported path) is
        stable across runs and machines.
        """
        edges = self.edges()
        parents: Dict[str, Optional[str]] = {}
        frontier: List[str] = []
        for entry in sorted(set(entries)):
            if entry not in parents:
                parents[entry] = None
                frontier.append(entry)
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                for dst in edges.get(node, ()):
                    if dst not in parents:
                        parents[dst] = node
                        nxt.append(dst)
            frontier = nxt
        return parents

    def path_to(
        self, parents: Dict[str, Optional[str]], node: str
    ) -> List[str]:
        """Entry-to-node chain recovered from a :meth:`reachable_from` map."""
        chain: List[str] = []
        current: Optional[str] = node
        while current is not None:
            chain.append(current)
            current = parents.get(current)
        return list(reversed(chain))

    # ------------------------------------------------------- literal pools

    def emitted_kinds(self) -> Set[str]:
        kinds: Set[str] = set()
        for facts in self.modules.values():
            for record in facts.emits:
                kinds.add(record["kind"])
        return kinds

    def entry_nodes(self) -> List[str]:
        """Flow entry points: registry target literals that resolve, plus
        every top-level function of ``*.experiments.*`` modules."""
        entries: Set[str] = set()
        for facts in self.modules.values():
            for target in facts.target_literals:
                node = self.resolve_target(target)
                if node is not None:
                    entries.add(node)
        for module_name, facts in self.modules.items():
            if ".experiments" not in f".{module_name}":
                continue
            for qual in facts.defs:
                if "." not in qual:
                    entries.add(f"{module_name}:{qual}")
        return sorted(entries)

    def is_suppressed(self, facts: ModuleFacts, line: int, code: str) -> bool:
        codes = facts.pragmas.get(line)
        if not codes:
            return False
        return "*" in codes or code.upper() in codes
