"""The PW rule set: this codebase's real determinism/unit hazards.

========  ==================================================================
Code      Invariant
========  ==================================================================
PW001     No wall clock / OS entropy inside simulation packages.
PW002     All randomness flows through :class:`repro.sim.rng.RandomStreams`
          (or an injected ``random.Random``); no module-level ``random.*``
          draws, no bare ``random.Random(...)`` outside ``repro.sim.rng``.
PW003     No iteration over ``set``/``frozenset`` values inside simulation
          packages (ordering would leak into event scheduling).
PW004     No mixing of unit-suffixed quantities (``_dbm`` vs ``_mw``, ...)
          across keyword/positional argument passing, ``+``/``-``, or
          comparisons, without an explicit :mod:`repro.units` conversion.
PW005     No float ``==``/``!=`` on simulation-time values.
PW006     Obs metric names are dotted-lowercase string literals.
PW007     Campaign spec files name real registry experiments and real
          driver keyword arguments (``campaigns/*.json``).
========  ==================================================================
"""

from __future__ import annotations

import ast
import json
import re
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import FileContext, Rule, register

# --------------------------------------------------------------------- shared
# The helpers and sets below are shared with the flow-fact extraction
# (:mod:`repro.lint.flow.index`), so both layers agree on what a unit
# suffix and an entropy source are.


def terminal_name(node: ast.AST) -> Optional[str]:
    """The identifier a suffix check applies to (unwraps unary minus)."""
    if isinstance(node, ast.UnaryOp):
        return terminal_name(node.operand)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def suffix_of(name: Optional[str], suffixes: Tuple[str, ...]) -> Optional[str]:
    """Unit suffix carried by ``name`` (``rx_dbm`` -> ``dbm``), if any."""
    if not name:
        return None
    if name in suffixes:
        return name
    parts = name.rsplit("_", 1)
    if len(parts) == 2 and parts[1] in suffixes:
        return parts[1]
    return None


# ---------------------------------------------------------------------- PW001

#: OS entropy sources: PW001 in simulation packages, PW102 sinks anywhere.
OS_ENTROPY_QUALNAMES: FrozenSet[str] = frozenset(
    {"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"}
)

#: Wall-clock and entropy sources that make a run irreproducible.
_WALLCLOCK_QUALNAMES: FrozenSet[str] = OS_ENTROPY_QUALNAMES | frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_WALLCLOCK_IMPORT_LEAVES: Dict[str, FrozenSet[str]] = {
    "time": frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
        }
    ),
    "os": frozenset({"urandom", "getrandom"}),
}


@register
class WallClockRule(Rule):
    """PW001: simulation code must never read the host clock or OS entropy.

    Simulation time is :attr:`Simulator.now` and nothing else; host-clock
    reads make results machine-dependent, and ``os.urandom``/``uuid.uuid4``
    bypass the seeded streams entirely.
    """

    code = "PW001"
    name = "wall-clock-in-sim"
    description = "wall clock / OS entropy read inside a simulation package"
    node_types = (ast.Call, ast.ImportFrom)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_sim_package

    def visit(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom):
            banned = _WALLCLOCK_IMPORT_LEAVES.get(node.module or "")
            if banned:
                for alias in node.names:
                    if alias.name in banned:
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {node.module}.{alias.name} in a "
                            "simulation package; simulation time is "
                            "Simulator.now",
                        )
            return
        assert isinstance(node, ast.Call)
        origin = ctx.resolve(node.func)
        if origin is None:
            return
        if origin in _WALLCLOCK_QUALNAMES or origin.startswith("secrets."):
            yield self.finding(
                ctx,
                node,
                f"call to {origin} in a simulation package; use Simulator.now "
                "(time) or RandomStreams (entropy)",
            )


# ---------------------------------------------------------------------- PW002

#: ``random`` module functions that draw from (or reseed) the global RNG
#: (PW002 here, PW102 sinks in the flow index).
GLOBAL_RANDOM_DRAWS: FrozenSet[str] = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
    }
)


@register
class SeededRngRule(Rule):
    """PW002: every draw flows through ``RandomStreams`` or an injected rng.

    Module-level ``random.*`` draws share hidden global state across
    components, and a bare ``random.Random(seed)`` invents a private stream
    whose draws shift whenever unrelated code changes — the exact failure
    ``RandomStreams``'s named streams exist to prevent.
    """

    code = "PW002"
    name = "unseeded-or-bare-rng"
    description = "randomness not flowing through repro.sim.rng.RandomStreams"
    node_types = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        origin = ctx.resolve(node.func)
        if origin is None:
            return
        if origin == "random.Random":
            if ctx.module != ctx.config.rng_module:
                yield self.finding(
                    ctx,
                    node,
                    "bare random.Random(...) constructed outside "
                    f"{ctx.config.rng_module}; take a RandomStreams stream "
                    "or an injected random.Random instead",
                )
        elif origin.startswith("random.") and origin[7:] in GLOBAL_RANDOM_DRAWS:
            yield self.finding(
                ctx,
                node,
                f"module-level {origin}() draws from the global RNG; use a "
                "named RandomStreams stream",
            )
        elif origin.startswith("numpy.random."):
            yield self.finding(
                ctx,
                node,
                f"{origin}() uses numpy's global RNG; seed an explicit "
                "generator from a RandomStreams stream",
            )


# ---------------------------------------------------------------------- PW003


def _is_set_expr(node: ast.AST, ctx: FileContext) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve(node.func) in ("set", "frozenset")
    return False


@register
class SetIterationRule(Rule):
    """PW003: set iteration order must not reach the event heap.

    ``set`` iteration order depends on insertion history and hash
    randomisation of prior runs' object identities; two logically identical
    runs can schedule events in different tie-break order. ``sorted(...)``
    the set first.
    """

    code = "PW003"
    name = "set-iteration-in-sim"
    description = "iteration over a set/frozenset inside a simulation package"
    node_types = (ast.For, ast.comprehension)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_sim_package

    def visit(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        iterable = node.iter
        if _is_set_expr(iterable, ctx):
            yield self.finding(
                ctx,
                iterable,
                "iterating a set here; ordering can leak into event "
                "scheduling — wrap it in sorted(...)",
            )


# ---------------------------------------------------------------------- PW004

#: Log-domain quantities legitimately added/subtracted in link budgets
#: (rx_dbm = tx_dbm + gain_dbi - path_loss_db).
_LOG_DOMAIN: FrozenSet[str] = frozenset({"db", "dbi", "dbm"})

_COMPARE_OPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


@register
class UnitSuffixRule(Rule):
    """PW004: unit-suffixed quantities never mix without a converter.

    An argument named ``..._dbm`` handed to a ``..._mw`` parameter (or
    added/compared to one) is the classic RF energy-accounting bug; route
    the value through :mod:`repro.units` instead. Conversions are
    recognised syntactically: a function call has no suffix, so
    ``dbm_to_watts(rx_dbm)`` passes.
    """

    code = "PW004"
    name = "unit-suffix-mismatch"
    description = "mismatched unit suffixes without a repro.units conversion"
    node_types = (ast.Call, ast.BinOp, ast.Compare)

    def begin_file(self, ctx: FileContext) -> None:
        self._signatures = _local_signatures(ctx.tree)

    def _suffix(self, ctx: FileContext, node: ast.AST) -> Optional[str]:
        return suffix_of(terminal_name(node), ctx.config.unit_suffixes)

    def visit(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            yield from self._check_call(ctx, node)
        elif isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                left = self._suffix(ctx, node.left)
                right = self._suffix(ctx, node.right)
                if (
                    left
                    and right
                    and left != right
                    and not (left in _LOG_DOMAIN and right in _LOG_DOMAIN)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"adding/subtracting _{left} and _{right} quantities; "
                        "convert one side via repro.units first",
                    )
        elif isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, _COMPARE_OPS):
                    continue
                left = self._suffix(ctx, operands[index])
                right = self._suffix(ctx, operands[index + 1])
                if left and right and left != right:
                    yield self.finding(
                        ctx,
                        node,
                        f"comparing a _{left} quantity against a _{right} "
                        "one; convert via repro.units first",
                    )

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        suffixes = ctx.config.unit_suffixes
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            param = suffix_of(keyword.arg, suffixes)
            value = self._suffix(ctx, keyword.value)
            if param and value and param != value:
                yield self.finding(
                    ctx,
                    keyword.value,
                    f"_{value} value passed to parameter "
                    f"{keyword.arg!r} (_{param}); convert via repro.units",
                )
        params = self._positional_params(ctx, node)
        if params is None:
            return
        for arg, param_name in zip(node.args, params):
            if isinstance(arg, ast.Starred):
                break
            param = suffix_of(param_name, suffixes)
            value = self._suffix(ctx, arg)
            if param and value and param != value:
                yield self.finding(
                    ctx,
                    arg,
                    f"_{value} value passed to parameter "
                    f"{param_name!r} (_{param}); convert via repro.units",
                )

    def _positional_params(
        self, ctx: FileContext, node: ast.Call
    ) -> Optional[List[str]]:
        """Parameter names for a call to a function defined in this file."""
        func = node.func
        if isinstance(func, ast.Name) and func.id not in ctx.imports:
            return self._signatures.get((False, func.id))
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return self._signatures.get((True, func.attr))
        return None


def _local_signatures(tree: ast.AST) -> Dict[Tuple[bool, str], List[str]]:
    """(is_method, name) -> positional parameter names, for same-file defs.

    Ambiguous names (two defs with differing parameter lists) are dropped
    rather than guessed at.
    """
    signatures: Dict[Tuple[bool, str], Optional[List[str]]] = {}

    def record(key: Tuple[bool, str], params: List[str]) -> None:
        if key in signatures and signatures[key] != params:
            signatures[key] = None
        else:
            signatures[key] = params

    for node in ast.walk(tree):
        if isinstance(node, ast.Module):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    record((False, child.name), [a.arg for a in child.args.args])
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    params = [a.arg for a in child.args.args]
                    if params and params[0] in ("self", "cls"):
                        params = params[1:]
                    record((True, child.name), params)
    return {key: params for key, params in signatures.items() if params is not None}


# ---------------------------------------------------------------------- PW005

#: Identifier suffixes that denote a time quantity.
_TIME_SUFFIXES: Tuple[str, ...] = ("s", "us", "ms")


def _is_time_like(node: ast.AST) -> bool:
    name = terminal_name(node)
    if name is None:
        return False
    if name == "now" or name.endswith("_time"):
        return True
    return suffix_of(name, _TIME_SUFFIXES) is not None


@register
class FloatTimeEqualityRule(Rule):
    """PW005: no ``==``/``!=`` on simulation-time floats.

    Simulation timestamps are sums of float durations; two paths to "the
    same" instant differ in the last ulp often enough that equality checks
    are schedule-dependent. Use ``math.isclose``, an ordering check, or
    ``math.isinf`` — or pragma the rare intentionally-exact comparison.
    """

    code = "PW005"
    name = "float-time-equality"
    description = "float equality on a simulation-time value"
    node_types = (ast.Compare,)

    def visit(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        assert isinstance(node, ast.Compare)
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            for timeish, other in ((left, right), (right, left)):
                if not _is_time_like(timeish):
                    continue
                # Comparing against a string/None is name matching, not time.
                if isinstance(other, ast.Constant) and isinstance(
                    other.value, (str, bytes, type(None))
                ):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    "float equality on a time value; use math.isclose, an "
                    "ordering check, or math.isinf",
                )
                break


# ---------------------------------------------------------------------- PW006

_METRIC_METHODS: FrozenSet[str] = frozenset({"counter", "gauge", "histogram"})

#: Span-recorder entry points (``spans.begin(...)``, ``spans.span(...)``,
#: ``runtime.span(...)``): same literal-name contract as metrics.
_SPAN_METHODS: FrozenSet[str] = frozenset({"begin", "span"})

#: ``layer.component.metric`` — at least two dotted lowercase segments.
_METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: Where the SLO objective factory lives; ``objective(...)`` call sites are
#: held to the same literal-dotted-name contract as metric names, but only
#: when the name demonstrably resolves there (import-map check), so foreign
#: ``objective`` functions never false-positive.
_SLO_MODULE = "repro.obs.slo"


@register
class MetricNameRule(Rule):
    """PW006: metric and span names are greppable dotted-lowercase literals.

    The PR-1 observability contract: a metric mentioned in a dashboard or
    doc must be findable with ``grep -r "mac.medium.collisions" src`` —
    and since the span-tracing PR, a span name (``sim.engine.run``) must be
    findable the same way. Computed names (f-strings, variables) break
    that; dynamic dimensions belong in labels, not the name.

    Since the SLO PR the same contract covers SLO objective ids: an id in a
    scorecard or alert must grep back to its ``objective(...)`` call site
    (and, via :func:`check_slo_spec_file`, to its ``slos/*.json`` entry).
    """

    code = "PW006"
    name = "metric-name-literal"
    description = "obs metric/span name is not a dotted-lowercase string literal"
    node_types = (ast.Call,)

    def applies(self, ctx: FileContext) -> bool:
        # The registry/recorder/evaluator themselves pass validated names
        # through variables.
        return ctx.module not in ("repro.obs.metrics", "repro.obs.spans", _SLO_MODULE)

    def _is_slo_objective(self, ctx: FileContext, func: ast.AST) -> bool:
        """Does this call target ``repro.obs.slo.objective``?

        Covers the bare imported name (``from repro.obs.slo import
        objective``) and attribute access on an imported module alias
        (``from repro.obs import slo; slo.objective(...)``).
        """
        if isinstance(func, ast.Name):
            return ctx.imports.get(func.id) == f"{_SLO_MODULE}.objective"
        if isinstance(func, ast.Attribute) and func.attr == "objective":
            if isinstance(func.value, ast.Name):
                return ctx.imports.get(func.value.id) == _SLO_MODULE
        return False

    def visit(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        if self._is_slo_objective(ctx, func):
            yield from self._check_objective(ctx, node)
            return
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in _METRIC_METHODS:
            noun = "metric"
        elif func.attr in _SPAN_METHODS:
            noun = "span"
        else:
            return
        if not node.args:
            return
        name_arg = node.args[0]
        if not (isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)):
            # ``.span(...)``/``.begin(...)`` are common method names on
            # non-obs objects; only string-literal first arguments are
            # checked for spans, so foreign calls never false-positive.
            if noun == "span":
                return
            yield self.finding(
                ctx,
                name_arg,
                f"metric name passed to .{func.attr}() must be a string "
                "literal (dynamic dimensions go in labels)",
            )
            return
        if not _METRIC_NAME_RE.match(name_arg.value):
            yield self.finding(
                ctx,
                name_arg,
                f"{noun} name {name_arg.value!r} is not dotted-lowercase "
                f"(layer.component.{'operation' if noun == 'span' else 'metric'})",
            )

    def _check_objective(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        """The objective-id argument of ``objective(...)`` must be literal."""
        id_arg: Optional[ast.AST] = node.args[0] if node.args else None
        if id_arg is None:
            for keyword_arg in node.keywords:
                if keyword_arg.arg == "objective_id":
                    id_arg = keyword_arg.value
                    break
        if id_arg is None:
            return
        if not (isinstance(id_arg, ast.Constant) and isinstance(id_arg.value, str)):
            yield self.finding(
                ctx,
                id_arg,
                "SLO objective id passed to objective() must be a string "
                "literal (ids are grepped from scorecards back to their "
                "definition)",
            )
            return
        if not _METRIC_NAME_RE.match(id_arg.value):
            yield self.finding(
                ctx,
                id_arg,
                f"SLO objective id {id_arg.value!r} is not dotted-lowercase "
                "(layer.component.objective)",
            )


def check_slo_spec_file(path: str, source: str) -> List[Finding]:
    """PW006 over one ``slos/*.json`` SLO spec file.

    The JSON half of the rule: every ``objectives[].id`` must be a
    dotted-lowercase literal, exactly as at ``objective(...)`` call sites —
    a scorecard id greps to its spec entry or the contract is broken.
    Structural validation (schema, kinds, duplicate ids) stays with
    ``repro.obs.slo.parse_spec``; the lint pass only owns the naming rule,
    so a malformed file yields one parse finding rather than a crash.

    Line numbers point at the ``"id"`` occurrence inside the source text so
    editors can jump to the offending entry.
    """
    findings: List[Finding] = []
    try:
        data = json.loads(source)
    except ValueError as exc:
        return [
            Finding(
                code="PW006",
                message=f"SLO spec is not valid JSON: {exc}",
                path=path,
                line=getattr(exc, "lineno", 1) or 1,
                severity=Severity.ERROR,
            )
        ]
    objectives = data.get("objectives") if isinstance(data, dict) else None
    if not isinstance(objectives, list):
        return findings
    lines = source.splitlines()
    for entry in objectives:
        if not isinstance(entry, dict):
            continue
        objective_id = entry.get("id")
        if isinstance(objective_id, str) and _METRIC_NAME_RE.match(objective_id):
            continue
        line_no, line_text = 1, ""
        needle = json.dumps(objective_id) if isinstance(objective_id, str) else '"id"'
        for index, text in enumerate(lines, start=1):
            if needle in text:
                line_no, line_text = index, text.strip()
                break
        findings.append(
            Finding(
                code="PW006",
                message=(
                    f"SLO objective id {objective_id!r} is not dotted-lowercase "
                    "(layer.component.objective)"
                ),
                path=path,
                line=line_no,
                severity=Severity.ERROR,
                line_text=line_text,
            )
        )
    return findings


# ---------------------------------------------------------------------- PW007


def check_campaign_spec_file(path: str, source: str) -> List[Finding]:
    """PW007 over one ``campaigns/*.json`` campaign spec file.

    The structural contract lives in
    :func:`repro.campaign.spec.validate_campaign_data` — the exact
    validation ``repro campaign run`` performs at load time: literal
    experiment ids must exist in the registry, sweep axes must name real
    driver keyword arguments, seeds must be unique integers. Linting a
    spec statically means a typo'd id or axis fails CI, not a
    thousand-point sweep at 2am.

    Line numbers point at the offending fragment (the validator returns a
    ``(message, needle)`` pair per problem) so editors can jump there.
    """
    try:
        data = json.loads(source)
    except ValueError as exc:
        return [
            Finding(
                code="PW007",
                message=f"campaign spec is not valid JSON: {exc}",
                path=path,
                line=getattr(exc, "lineno", 1) or 1,
                severity=Severity.ERROR,
            )
        ]
    # Deferred: repro.campaign pulls in the experiment registry, which the
    # pure-AST rules must not pay for on every lint run.
    from repro.campaign.spec import validate_campaign_data

    findings: List[Finding] = []
    lines = source.splitlines()
    for message, needle in validate_campaign_data(data):
        line_no, line_text = 1, ""
        if needle:
            for index, text in enumerate(lines, start=1):
                if needle in text:
                    line_no, line_text = index, text.strip()
                    break
        findings.append(
            Finding(
                code="PW007",
                message=message,
                path=path,
                line=line_no,
                severity=Severity.ERROR,
                line_text=line_text,
            )
        )
    return findings
