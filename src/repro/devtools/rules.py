"""The bundled contract rules (RPL001–RPL010; RPL003 is retired).

Each rule encodes one invariant from the kernel/service contracts (see
``docs/contracts.md`` for the catalog with rationale and worked
examples).  They are deliberately syntactic heuristics — precise enough
to be zero-noise on idiomatic code, simple enough to audit — and every
deliberate exception is silenced in place with ``# repro: noqa[RPLnnn]``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .lint import Finding, Rule, SourceFile, register

#: BddManager methods that return a *raw node id* the GC does not know
#: about.  ``true``/``false`` are excluded (terminals are never swept),
#: and ``protect`` is excluded because protecting is the fix.
NODE_RETURNING_METHODS = frozenset(
    {
        "var",
        "ite",
        "not_",
        "and_",
        "or_",
        "xor",
        "implies",
        "iff",
        "and_all",
        "or_all",
        "restrict",
        "compose",
        "compose_many",
        "exists",
        "forall",
        "and_exists",
        "_make_node",
    }
)

#: Methods that *combine* nodes, i.e. where a foreign-manager operand is
#: a silent-wrong-answer bug (node ids are plain ints; an id from
#: another manager aliases an arbitrary function in this one).
NODE_COMBINING_METHODS = frozenset(
    {
        "ite",
        "and_",
        "or_",
        "xor",
        "implies",
        "iff",
        "and_all",
        "or_all",
        "compose",
        "compose_many",
        "and_exists",
        "equivalent",
    }
)

#: JobSpec fields a campaign stage may read — the universe RPL004 checks
#: ``STAGE_DEPENDENCIES`` coverage against.  Kept in sync with
#: :class:`repro.campaign.spec.JobSpec` (the rule prefers the live
#: dataclass when it can import it).
JOBSPEC_FIELDS = (
    "arch",
    "stages",
    "workload_length",
    "workload_seed",
    "num_programs",
    "max_faults",
)


def _receiver_name(expr: ast.expr) -> Optional[str]:
    """The trailing identifier of a ``Name``/``Attribute`` chain, or None."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _is_managerish(expr: ast.expr) -> bool:
    """Does this expression read like a BddManager handle?

    Matches the repo's naming idiom: ``manager``, ``mgr``, ``self.manager``,
    ``context.manager``, ``self._manager`` and friends.
    """
    name = _receiver_name(expr)
    if name is None:
        return False
    return "manager" in name.lower() or name in {"mgr", "m"}


def _expr_text(expr: ast.expr) -> str:
    """Source-ish text of an expression, for same-receiver comparison."""
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return repr(expr)


def _node_call(expr: ast.expr) -> Optional[Tuple[ast.expr, str]]:
    """``(receiver, method)`` when ``expr`` is a raw-node-returning call
    on a manager-looking receiver, else None."""
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in NODE_RETURNING_METHODS
        and _is_managerish(expr.func.value)
    ):
        return expr.func.value, expr.func.attr
    return None


def _function_defs(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@register
class UnprotectedNodeStore(Rule):
    """RPL001: a raw node id parked on ``self`` or at module scope.

    ``self.x = manager.and_(f, g)`` outlives the statement, but the GC
    only sees protected nodes — the next ``gc()`` reclaims
    the id and ``self.x`` silently aliases whatever reuses the slot.
    The fix is ``manager.protect(...)`` around the call (paired with a
    ``release``) or wrapping in a ``SymbolicFunction``/``context.function``.
    """

    code = "RPL001"
    summary = (
        "raw BDD node id stored on self/module scope without protect() "
        "or a SymbolicFunction wrap"
    )

    _WRAPPERS = frozenset({"protect", "function", "SymbolicFunction"})

    def _wrapped(self, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if isinstance(func, ast.Attribute) and func.attr in self._WRAPPERS:
            return True
        if isinstance(func, ast.Name) and func.id in self._WRAPPERS:
            return True
        return False

    def check(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []

        def escapes(target: ast.expr) -> bool:
            # self.<attr> = ... anywhere, or NAME = ... at module scope.
            if isinstance(target, ast.Attribute):
                return isinstance(target.value, ast.Name) and target.value.id == "self"
            return False

        module_level = {id(stmt) for stmt in source.tree.body}

        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None or self._wrapped(value):
                continue
            called = _node_call(value)
            if called is None:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                stored = escapes(target) or (
                    isinstance(target, ast.Name) and id(node) in module_level
                )
                if stored:
                    where = (
                        "self attribute" if isinstance(target, ast.Attribute)
                        else "module scope"
                    )
                    findings.append(
                        source.finding(
                            node,
                            self,
                            f"raw node id from .{called[1]}() stored on {where} "
                            "without protect()/SymbolicFunction — the next "
                            "gc() can reclaim it",
                        )
                    )
        return findings


@register
class CrossManagerMix(Rule):
    """RPL002: one manager's operation fed a node built by another.

    Node ids are plain ints scoped to their manager; ``a.and_(f,
    b.var("x"))`` does not error — it aliases an arbitrary function of
    ``a``.  The rule flags combining calls whose argument is itself a
    node-returning call on a *textually different* manager expression.
    """

    code = "RPL002"
    summary = "BDD operation mixes nodes from two distinct manager expressions"

    def check(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in NODE_COMBINING_METHODS
                and _is_managerish(node.func.value)
            ):
                continue
            outer = _expr_text(node.func.value)
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                inner = _node_call(arg)
                if inner is None:
                    continue
                inner_text = _expr_text(inner[0])
                if inner_text != outer:
                    findings.append(
                        source.finding(
                            arg,
                            self,
                            f"operand built by {inner_text}.{inner[1]}() passed "
                            f"into {outer}.{node.func.attr}() — node ids never "
                            "cross managers",
                        )
                    )
        return findings


@register
class StageDependencyDrift(Rule):
    """RPL004: a stage function reads a JobSpec field its entry omits.

    ``stage_key()`` hashes only the fields listed in
    ``STAGE_DEPENDENCIES`` — a stage that reads an unlisted field keeps
    one cache key across values of that field, so incremental campaigns
    replay stale results (see PERFORMANCE.md, dependency-hashed stage
    identity).  Over-listing merely re-runs; under-listing poisons.
    """

    code = "RPL004"
    summary = (
        "JobSpec field read inside a stage function missing from that "
        "stage's STAGE_DEPENDENCIES entry"
    )

    _PARAM_NAMES = ("job", "spec")

    def _literal_dependencies(
        self, tree: ast.Module
    ) -> Optional[Dict[str, Set[str]]]:
        for node in tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Name) and target.id == "STAGE_DEPENDENCIES"):
                continue
            if not isinstance(node.value, ast.Dict):
                return None
            mapping: Dict[str, Set[str]] = {}
            for key, value in zip(node.value.keys, node.value.values):
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    return None
                fields: Set[str] = set()
                if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    for element in value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            fields.add(element.value)
                mapping[key.value] = fields
            return mapping
        return None

    def _imported_dependencies(
        self, tree: ast.Module
    ) -> Optional[Dict[str, Set[str]]]:
        imports_it = any(
            isinstance(node, ast.ImportFrom)
            and any(alias.name == "STAGE_DEPENDENCIES" for alias in node.names)
            for node in ast.walk(tree)
        )
        if not imports_it:
            return None
        try:
            from ..campaign.spec import STAGE_DEPENDENCIES
        except Exception:  # pragma: no cover - only without the package on path
            return None
        return {stage: set(fields) for stage, fields in STAGE_DEPENDENCIES.items()}

    @staticmethod
    def _field_universe() -> Set[str]:
        try:
            import dataclasses

            from ..campaign.spec import JobSpec

            return {field.name for field in dataclasses.fields(JobSpec)}
        except Exception:  # pragma: no cover - fallback for detached use
            return set(JOBSPEC_FIELDS)

    def check(self, source: SourceFile) -> Iterable[Finding]:
        dependencies = self._literal_dependencies(source.tree)
        if dependencies is None:
            dependencies = self._imported_dependencies(source.tree)
        if dependencies is None:
            return []
        fields = self._field_universe()
        findings: List[Finding] = []
        for func in _function_defs(source.tree):
            name = func.name
            stage = None
            for prefix in ("_stage_", "stage_"):
                if name.startswith(prefix):
                    stage = name[len(prefix):]
                    break
            if stage is None or stage not in dependencies:
                continue
            params = {arg.arg for arg in func.args.args}
            spec_params = [p for p in self._PARAM_NAMES if p in params]
            if not spec_params:
                continue
            allowed = dependencies[stage]
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in spec_params
                    and node.attr in fields
                ):
                    continue
                if node.attr not in allowed:
                    findings.append(
                        source.finding(
                            node,
                            self,
                            f"stage {stage!r} reads job.{node.attr} but its "
                            "STAGE_DEPENDENCIES entry omits it — stage_key() "
                            "will not change with this field and cached "
                            "results go stale",
                        )
                    )
        return findings


@register
class BlockingCallInCoroutine(Rule):
    """RPL005: a blocking call directly inside an ``async def`` body.

    One blocking call freezes every job stream and health check the
    daemon is serving.  Blocking work belongs on the runner/probe
    executors via ``run_in_executor`` (see ``repro/service/daemon.py``).
    """

    code = "RPL005"
    summary = "blocking call (sleep/subprocess/file or socket I/O) in async def"

    _BLOCKING_ATTR_ON_MODULE = {
        "time": {"sleep"},
        "subprocess": {
            "run",
            "call",
            "check_call",
            "check_output",
            "Popen",
            "getoutput",
            "getstatusoutput",
        },
        "os": {"system", "popen", "waitpid"},
        "socket": {"create_connection", "getaddrinfo", "gethostbyname"},
        "urllib": set(),  # handled via the chain text below
    }
    _BLOCKING_NAMES = {"open", "HTTPConnection", "HTTPSConnection", "urlopen"}
    _BLOCKING_METHODS = {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "urlopen",
        "HTTPConnection",
        "HTTPSConnection",
    }

    def _blocking(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id in self._BLOCKING_NAMES:
            return f"{func.id}()"
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                allowed = self._BLOCKING_ATTR_ON_MODULE.get(base.id)
                if allowed is not None and func.attr in allowed:
                    return f"{base.id}.{func.attr}()"
            if func.attr in self._BLOCKING_METHODS:
                return f"{_expr_text(func)}()"
        return None

    def _direct_body(self, func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Walk the coroutine body without descending into nested defs."""
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def check(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for func in ast.walk(source.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in self._direct_body(func):
                if not isinstance(node, ast.Call):
                    continue
                what = self._blocking(node)
                if what is not None:
                    findings.append(
                        source.finding(
                            node,
                            self,
                            f"blocking {what} inside async def {func.name}() — "
                            "hop to an executor (run_in_executor) instead of "
                            "stalling the event loop",
                        )
                    )
        return findings


@register
class OffThreadServiceMutation(Rule):
    """RPL006: service/job-table state touched from the runner thread.

    Everything mutable on :class:`VerificationService` and its
    ``JobRecord`` table is loop-thread-only; the runner thread must
    publish through ``loop.call_soon_threadsafe`` (the ``post`` helper in
    ``_execute``).  The rule flags direct mutation or direct calls to the
    loop-thread-only methods inside runner-thread methods (``_execute*``)
    of ``*Service`` classes.
    """

    code = "RPL006"
    summary = (
        "VerificationService/job-table state mutated outside the event-loop "
        "thread's call_soon_threadsafe hop"
    )

    _LOOP_ONLY_CALLS = frozenset({"_transition", "_finalize", "publish"})
    _TABLE_ATTRS = frozenset({"_jobs", "_order", "_active_key", "_current_job_id"})

    def check(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for cls in ast.walk(source.tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name.endswith("Service")):
                continue
            for method in cls.body:
                if not (
                    isinstance(method, ast.FunctionDef)
                    and method.name.startswith("_execute")
                ):
                    continue
                findings.extend(self._check_runner_method(source, method))
        return findings

    def _check_runner_method(
        self, source: SourceFile, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    described = self._mutated_state(target)
                    if described is not None:
                        yield source.finding(
                            node,
                            self,
                            f"runner thread mutates {described} directly — "
                            "route through post()/call_soon_threadsafe",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in self._LOOP_ONLY_CALLS:
                    yield source.finding(
                        node,
                        self,
                        f"runner thread calls .{node.func.attr}() directly — "
                        "loop-thread-only; pass it to post()/"
                        "call_soon_threadsafe instead",
                    )

    def _mutated_state(self, target: ast.expr) -> Optional[str]:
        # record.<attr> = ...   (JobRecord fields are loop-thread-only)
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            if target.value.id in {"record", "job"}:
                return f"{target.value.id}.{target.attr}"
            if target.value.id == "self" and target.attr in self._TABLE_ATTRS:
                return f"self.{target.attr}"
        # self._jobs[...] = ... / del-style subscript writes
        if isinstance(target, ast.Subscript):
            base = target.value
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and base.attr in self._TABLE_ATTRS
            ):
                return f"self.{base.attr}[...]"
        return None


@register
class RawStageTiming(Rule):
    """RPL007: hand-rolled clock timing inside a pipeline stage function.

    Stage wall-clock belongs to the observability layer: the stage loop
    in ``run_verification_job`` wraps every stage in :func:`repro.obs.span`
    and feeds the ``repro_stage_seconds`` histogram, so a
    ``time.monotonic()``/``time.perf_counter()`` pair inside a
    ``_stage_*`` function produces a second, unaggregated timing that
    drifts from the traced one and never reaches ``/v1/metrics``.  Time
    a sub-step with a nested ``span(...)`` (or attach the number to the
    open span with ``repro.obs.annotate``) instead.
    """

    code = "RPL007"
    summary = (
        "raw time.monotonic()/perf_counter() timing inside a stage "
        "function instead of the repro.obs span API"
    )

    _CLOCKS = frozenset(
        {
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
        }
    )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for func in _function_defs(source.tree):
            name = getattr(func, "name", "")
            if not name.startswith(("_stage_", "stage_")):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._CLOCKS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "time"
                ):
                    findings.append(
                        source.finding(
                            node,
                            self,
                            f"stage function {name}() reads time.{node.func.attr}() "
                            "directly — the stage loop already times stages into "
                            "repro_stage_seconds; wrap the sub-step in "
                            "repro.obs.span() or annotate() the open span",
                        )
                    )
        return findings


@register
class BddManagerOutsideKernel(Rule):
    """RPL008: a ``BddManager`` constructed outside the BDD front door.

    Every decision procedure reaches the kernel through
    :class:`repro.symbolic.SymbolicContext`: it owns the manager, keeps
    the compile and materialization caches coherent across GC sweeps, and
    hands out :class:`~repro.symbolic.SymbolicFunction` handles that
    protect their nodes.  A manager built anywhere else is a second front
    door with none of that bookkeeping.  Only the kernel (``repro.bdd``),
    the symbolic layer (``repro.symbolic``) and the sanitizer
    (``repro.devtools``) construct managers.
    """

    code = "RPL008"
    summary = (
        "BddManager(...) constructed outside repro.bdd, repro.symbolic or "
        "repro.devtools instead of through SymbolicContext"
    )

    _ALLOWED_PACKAGES = ("/repro/bdd/", "/repro/symbolic/", "/repro/devtools/")

    def applies_to(self, source: SourceFile) -> bool:
        normalized = "/" + source.path.replace("\\", "/")
        return not any(package in normalized for package in self._ALLOWED_PACKAGES)

    def check(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and _receiver_name(node.func) == "BddManager"
            ):
                findings.append(
                    source.finding(
                        node,
                        self,
                        "BddManager(...) constructed outside the kernel — create a "
                        "repro.symbolic.SymbolicContext and use its lift()/manager",
                    )
                )
        return findings


@register
class UnorderedSymbolicContext(Rule):
    """RPL009: a ``SymbolicContext()`` built without a variable order.

    With no order the manager declares variables as formulas first
    mention them, which for the register-indexed scoreboard signals is
    the concatenated order — exponential in the register count.  It has
    blown up twice (a property checker, then the properties stage on the
    FirePath-scale spec).  Outside ``repro.symbolic`` every context is
    built with an order: the job's ``derivation_order(spec)`` or a
    ``register_interleaved_order(...)`` over the signals involved.
    """

    code = "RPL009"
    summary = (
        "SymbolicContext() constructed without a variable order outside "
        "repro.symbolic"
    )

    def applies_to(self, source: SourceFile) -> bool:
        return "/repro/symbolic/" not in "/" + source.path.replace("\\", "/")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and _receiver_name(node.func) == "SymbolicContext"
                and not node.args
                and not any(kw.arg == "variable_order" for kw in node.keywords)
            ):
                findings.append(
                    source.finding(
                        node,
                        self,
                        "SymbolicContext() without a variable order — pass "
                        "derivation_order(spec) or a register_interleaved_order(...)",
                    )
                )
        return findings


def _annotations(tree: ast.AST) -> Iterator[Optional[ast.expr]]:
    """Every annotation of a module (None where one is left out)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> Set[str]:
    """Every name a module reads, exports in ``__all__`` or annotates with."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    # A forward reference ("FunctionalSpec") names an import in a string.
    for annotation in filter(None, _annotations(tree)):
        for inner in ast.walk(annotation):
            if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                try:
                    parsed = ast.parse(inner.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


@register
class UnusedImport(Rule):
    """RPL010: an imported name the module never uses.

    An import nothing reads is dead code that still loads its module and
    still names a dependency: it hides which layer really uses which.  A
    name counts as used when the module reads it anywhere, lists it in
    ``__all__`` (a package re-export) or mentions it in a string
    annotation.  An import kept only for its side effect is silenced in
    place.  This is ruff's F401, kept here so it runs where ruff is not
    installed.
    """

    code = "RPL010"
    summary = "imported name never used, exported in __all__ or annotated with"

    def check(self, source: SourceFile) -> Iterable[Finding]:
        used = _used_names(source.tree)
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    named = alias.name + (f" as {alias.asname}" if alias.asname else "")
                    findings.append(
                        source.finding(node, self, f"{named!r} imported but never used")
                    )
        return findings
