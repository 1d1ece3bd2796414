"""Fixed-point derivation of the most liberal moe assignment (Section 3.2).

The paper proves that, for a functional specification with the Section 3.1
properties, a unique *most liberal* assignment ``MOE`` to the moving-or-
empty flags exists and satisfies::

    MOE_i  =  ¬ F_i(¬MOE)                                   (equation 4)

This module computes that fixed point in two ways:

* **concretely** (:func:`concrete_most_liberal`) — for a given valuation of
  the primary inputs, producing the boolean vector the interlock should
  drive on that cycle.  The cycle-accurate simulator's reference interlock
  calls this every cycle.

* **symbolically** (:func:`symbolic_most_liberal`) — producing, for every
  stage, a closed form of ``MOE_i`` over the primary inputs only.  This is
  what the assertion generator, the property checkers and the RTL
  synthesiser consume.

Both start from the all-true vector (the most liberal candidate) and apply
``MOE := ¬F(¬MOE)`` until convergence; monotonicity of ``F`` makes the
iteration a descending chain on a finite lattice, so it terminates, and the
greatest fixed point it reaches is exactly the paper's ``MOE``.

The symbolic derivation iterates **purely in BDD space**: every stall
condition is compiled once against a register-interleaved variable order,
and each step is one memoised simultaneous composition plus a cached
negation.  The result is a :class:`DerivationResult` holding
:class:`~repro.symbolic.SymbolicFunction` closed forms; human-readable
expressions are materialized lazily as minimized ISOP covers only when a
printer, HDL backend or monitor asks for them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..bdd.ordering import register_interleaved_order
from ..bdd.serialize import ArtifactError
from ..expr.ast import Expr
from ..expr.evaluate import eval_expr
from ..expr.printer import to_text
from ..obs import span
from ..symbolic import SymbolicContext, SymbolicFunction
from .functional import FunctionalSpec, SpecificationError
from .performance import CombinedSpec, PerformanceSpec


class DerivationError(RuntimeError):
    """Raised when the fixed-point iteration fails to converge.

    With a well-formed (monotone) functional specification this cannot
    happen; it indicates the specification violates Section 3.1.
    """


class DerivationResult:
    """Outcome of a symbolic fixed-point derivation.

    The primary payload is :attr:`moe_functions` — one
    :class:`~repro.symbolic.SymbolicFunction` per moe flag, all sharing one
    :class:`~repro.symbolic.SymbolicContext` — which downstream layers
    (property checks, equivalence, BMC obligations, synthesis) consume
    directly as canonical BDD nodes.  :attr:`moe_expressions` is a *view*:
    the closed forms materialized lazily as minimized ISOP covers, for
    printers, HDL emitters and per-cycle evaluators; materialization is
    cached, so touching it twice costs nothing extra.

    Attributes:
        spec: the functional specification the derivation started from.
        iterations: number of global iterations until convergence.
        feed_forward: whether the moe dependency graph was acyclic (if so
            the iteration converges in one pass over a topological order).
        bdd_sizes: per-flag BDD node counts of the closed forms, a rough
            complexity measure reported by the scale benchmarks.
        moe_functions: per-flag closed forms as SymbolicFunctions.
        mutants: fault mutants derived into :attr:`context`, kept by
            :class:`~repro.faults.FaultInjector` under a content key so
            each is derived, materialized and decided once per
            derivation; they live exactly as long as it does.
    """

    def __init__(
        self,
        spec: FunctionalSpec,
        iterations: int,
        feed_forward: bool,
        moe_functions: Dict[str, SymbolicFunction],
        bdd_sizes: Optional[Dict[str, int]] = None,
    ):
        self.spec = spec
        self.iterations = iterations
        self.feed_forward = feed_forward
        self.moe_functions = moe_functions
        if bdd_sizes is None:
            bdd_sizes = {
                moe: function.dag_size() for moe, function in moe_functions.items()
            }
        self.bdd_sizes: Dict[str, int] = dict(bdd_sizes)
        self._stall_expressions: Optional[Dict[str, Expr]] = None
        self.mutants: Dict[Tuple[str, str, Expr], Tuple[FunctionalSpec, Any]] = {}

    # -- the symbolic side -------------------------------------------------------

    @property
    def context(self) -> SymbolicContext:
        """The symbolic context every closed form lives in."""
        return next(iter(self.moe_functions.values())).context

    def moe_function(self, moe: str) -> SymbolicFunction:
        """The closed form of one flag as a SymbolicFunction."""
        return self.moe_functions[moe]

    def stall_functions(self) -> Dict[str, SymbolicFunction]:
        """Closed-form stall conditions ``¬MOE_i`` as SymbolicFunctions.

        Negation is a cached involution in the BDD kernel, so this is free.
        """
        return {moe: ~function for moe, function in self.moe_functions.items()}

    # -- materialized views ------------------------------------------------------

    @property
    def moe_expressions(self) -> Dict[str, Expr]:
        """Closed-form ``MOE_i`` per flag, materialized lazily (a fresh dict).

        Each flag materializes as a minimized irredundant-SOP cover of its
        BDD node, cached per node by the context.
        """
        return {moe: function.to_expr() for moe, function in self.moe_functions.items()}

    def moe_expression(self, moe: str) -> Expr:
        """The materialized closed form of one flag."""
        return self.moe_expressions[moe]

    def stall_expressions(self) -> Dict[str, Expr]:
        """Closed-form stall conditions ``¬MOE_i`` per stage (memoised).

        Each stall condition is a minimized cover of the *negated* node —
        where ``MOE_i``'s cover is complemented, the very ``Or`` under its
        ``Not`` — and the result is cached, so monitors and reports can
        call this per trace without re-simplifying anything.
        """
        if self._stall_expressions is None:
            self._stall_expressions = {
                moe: (~function).to_expr()
                for moe, function in self.moe_functions.items()
            }
        return dict(self._stall_expressions)

    # -- artifact round trip -----------------------------------------------------

    def to_artifact_bytes(self, include_covers: bool = False) -> bytes:
        """Serialize the whole derivation as one binary artifact.

        The artifact carries the closed-form moe functions (level-ordered
        node table + variable-order manifest), the derivation metadata
        (iterations, feed-forward flag, per-flag BDD sizes) and — with
        ``include_covers`` — the minimized ISOP covers, so a loader gets
        cached materialization too.  The specification itself is *not*
        embedded: it is cheaply rebuilt from the architecture, and
        :meth:`from_artifact_bytes` verifies the artifact matches the
        spec it is being attached to.
        """
        from ..symbolic.serialize import dump_functions

        payload = {
            "kind": "derivation",
            "spec": self.spec.name,
            "iterations": self.iterations,
            "feed_forward": self.feed_forward,
            "bdd_sizes": dict(self.bdd_sizes),
        }
        return dump_functions(
            self.moe_functions, payload=payload, include_covers=include_covers
        )

    @classmethod
    def from_artifact_bytes(
        cls,
        spec: FunctionalSpec,
        data: bytes,
        context: Optional[SymbolicContext] = None,
    ) -> "DerivationResult":
        """Rebuild a derivation from artifact bytes for a known spec.

        Loads into a fresh context mirroring the source's variable order,
        or splices into ``context`` when given.  Raises
        :class:`~repro.bdd.serialize.ArtifactError` when the bytes are
        corrupt, truncated, or do not belong to ``spec`` — callers treat
        that exactly like a cache miss and re-derive.
        """
        from ..symbolic.serialize import load_functions

        loaded = load_functions(data, context=context)
        payload = loaded.payload
        if payload.get("kind") != "derivation":
            raise ArtifactError("artifact does not hold a derivation result")
        if payload.get("spec") != spec.name:
            raise ArtifactError(
                f"derivation artifact belongs to spec {payload.get('spec')!r}, "
                f"not {spec.name!r}"
            )
        if set(loaded.functions) != set(spec.moe_flags()):
            raise ArtifactError(
                "derivation artifact's moe flags do not match the specification"
            )
        return cls(
            spec=spec,
            iterations=int(payload.get("iterations", 1)),
            feed_forward=bool(payload.get("feed_forward", False)),
            moe_functions=loaded.functions,
            bdd_sizes=payload.get("bdd_sizes"),
        )

    # -- evaluation and rendering ------------------------------------------------

    def evaluate(self, input_valuation: Mapping[str, bool]) -> Dict[str, bool]:
        """Evaluate every closed form under a concrete input valuation."""
        return {
            moe: function.evaluate(input_valuation)
            for moe, function in self.moe_functions.items()
        }

    def describe(self) -> str:
        """Human-readable listing of the (materialized) closed forms."""
        lines = [
            f"Maximum-performance moe assignment for {self.spec.name} "
            f"(converged after {self.iterations} iteration(s)):"
        ]
        for moe, expr in self.moe_expressions.items():
            lines.append(f"  {moe} = {to_text(expr)}")
        return "\n".join(lines)


def concrete_most_liberal(
    spec: FunctionalSpec,
    input_valuation: Mapping[str, bool],
) -> Dict[str, bool]:
    """The most liberal moe vector for one concrete input valuation.

    Starts with every flag true and repeatedly applies equation (4); the
    result is the unique assignment with the fewest stalls that still
    satisfies the functional specification under the given inputs.
    """
    moe_flags = spec.moe_flags()
    limit = len(moe_flags) + 2
    assignment: Dict[str, bool] = dict(input_valuation)
    for moe in moe_flags:
        assignment[moe] = True
    for _ in range(limit):
        changed = False
        for clause in spec.clauses:
            new_value = not eval_expr(clause.condition, assignment)
            if assignment[clause.moe] and not new_value:
                assignment[clause.moe] = False
                changed = True
            elif not assignment[clause.moe] and new_value:
                # A monotone specification can only lower flags during the
                # descent from all-true; a raise means F is not monotone.
                raise DerivationError(
                    f"stall condition for {clause.moe} is not monotone in the negated "
                    "moe flags; the Section 3.1 preconditions are violated"
                )
        if not changed:
            return {moe: assignment[moe] for moe in moe_flags}
    raise DerivationError(
        f"fixed-point iteration did not converge within {limit} iterations"
    )


def _dependency_order(flags: List[str], deps: Dict[str, List[str]]) -> List[str]:
    """Topological order of the moe flags by stall-condition dependencies.

    A flag whose stall condition reads other flags is scheduled after them
    (Kahn's algorithm); members of dependency cycles are appended in the
    original specification order, which the chaotic iteration then settles
    by re-enqueueing.
    """
    flag_set = set(flags)
    pending: Dict[str, set] = {
        moe: {read for read in deps.get(moe, ()) if read in flag_set} for moe in flags
    }
    dependents: Dict[str, List[str]] = {moe: [] for moe in flags}
    for moe in flags:
        for read in deps.get(moe, ()):
            if read in flag_set:
                dependents[read].append(moe)
    ordered = [moe for moe in flags if not pending[moe]]
    placed = set(ordered)
    head = 0
    while head < len(ordered):
        for dependent in dependents[ordered[head]]:
            waiting = pending[dependent]
            waiting.discard(ordered[head])
            if not waiting and dependent not in placed:
                ordered.append(dependent)
                placed.add(dependent)
        head += 1
    ordered.extend(moe for moe in flags if moe not in placed)
    return ordered


def derivation_order(spec: FunctionalSpec) -> List[str]:
    """The BDD variable order the symbolic derivation compiles against.

    Moe flags go first — the candidates they are replaced by range over
    primary inputs only, so composition then never lifts a variable above
    its substitution point — followed by the primary inputs with
    register-indexed signals interleaved per register (see
    :func:`repro.bdd.ordering.register_interleaved_order`; the concatenated
    order is exponential in the scoreboard width).
    """
    return list(spec.moe_flags()) + register_interleaved_order(spec.input_signals())


def symbolic_most_liberal(
    spec: FunctionalSpec,
    context: Optional[SymbolicContext] = None,
) -> DerivationResult:
    """Closed-form most liberal moe assignment over the primary inputs.

    The fixed point is iterated purely in BDD space: every stall condition
    is compiled once, each step substitutes the candidate moe functions
    with a (memoised) simultaneous composition and negates through the
    kernel's involution cache, and convergence is a pointer comparison.
    The returned closed forms are :class:`~repro.symbolic.SymbolicFunction`
    objects; expressions are materialized lazily as minimized ISOP covers.

    Args:
        spec: the functional specification to derive from.
        context: an existing :class:`~repro.symbolic.SymbolicContext` to
            derive into (so several specifications can be compared by
            pointer in one shared unique table).  By default a fresh
            context with the register-interleaved order is created.
    """
    moe_flags = spec.moe_flags()
    limit = len(moe_flags) + 2
    if context is None:
        context = SymbolicContext(derivation_order(spec))
    manager = context.manager
    with span("derive.compile", clauses=len(spec.clauses)) as compile_span:
        bands_before = manager.stats().bands_folded
        condition_nodes: Dict[str, int] = {
            clause.moe: context.lift(clause.condition).node
            for clause in spec.clauses
        }
        compile_span.annotate(bands=manager.stats().bands_folded - bands_before)
    current: Dict[str, int] = {moe: manager.true() for moe in moe_flags}

    # The descending Kleene iteration from all-true reaches the greatest
    # fixed point in any fair update order (chaotic iteration), so the
    # flags are processed as a worklist in dependency order: a flag is
    # only re-evaluated after the flags its stall condition reads have
    # settled, which for a feed-forward pipeline means exactly one
    # evaluation per flag instead of a full Jacobi sweep per pipeline
    # depth.  Cyclic dependencies simply re-enqueue until stable.
    # Dependencies are kept in clause order, not set order: the kernel
    # assigns node ids in creation order, so hash-randomised iteration
    # over support sets would permute the composition schedule (and the
    # resulting node layout) from process to process.  The fixed point
    # is the same either way, but the run would not be reproducible.
    moe_set = set(moe_flags)
    deps: Dict[str, List[str]] = {}
    for clause in spec.clauses:
        read_set = manager.support(condition_nodes[clause.moe]) & moe_set
        deps[clause.moe] = [moe for moe in moe_flags if moe in read_set]
    # Chaotic iteration reaches the greatest fixed point only for a
    # monotone map, and unlike the Jacobi sweep it can settle on a
    # spurious fixed point of a non-monotone one instead of visibly
    # oscillating — so monotonicity (F_i[v:=1] → F_i[v:=0] for every
    # flag v the condition reads) is checked explicitly up front.
    with span("derive.monotonicity"):
        from .properties import check_semantic_monotonicity

        monotone = check_semantic_monotonicity(spec, context)
        if not monotone.holds:
            raise DerivationError(
                f"{monotone.detail}; the Section 3.1 preconditions are violated"
            )
    dependents: Dict[str, List[str]] = {moe: [] for moe in moe_flags}
    for moe, reads in deps.items():
        for read in reads:
            dependents[read].append(moe)
    clause_of = {clause.moe: clause for clause in spec.clauses}
    order = _dependency_order(list(clause_of), deps)

    with span("derive.fixed_point", flags=len(moe_flags)) as fp_span:
        evaluations: Dict[str, int] = {moe: 0 for moe in moe_flags}
        queue = list(order)
        queued = set(queue)
        head = 0
        while head < len(queue):
            moe = queue[head]
            head += 1
            queued.discard(moe)
            evaluations[moe] += 1
            if evaluations[moe] > limit:
                raise DerivationError(
                    f"symbolic fixed-point iteration did not converge within "
                    f"{limit} iterations"
                )
            node = manager.not_(
                manager.compose_many(condition_nodes[moe], current)
            )
            if node != current[moe]:
                current[moe] = node
                for dependent in dependents[moe]:
                    if dependent not in queued:
                        queue.append(dependent)
                        queued.add(dependent)
        iterations = max(evaluations.values(), default=1)
        fp_span.annotate(
            iterations=iterations, evaluations=sum(evaluations.values())
        )

    # Confirm the fixed point really only mentions primary inputs.
    input_scope = tuple(spec.input_signals())
    input_set = set(input_scope)
    for moe, node in current.items():
        leftover = manager.support(node) - input_set
        if leftover:
            raise DerivationError(
                f"closed form for {moe} still refers to {sorted(leftover)}; "
                "the specification's moe dependency structure is malformed"
            )

    with span("derive.extract", flags=len(current)):
        moe_functions = {
            moe: context.function(node, scope=input_scope)
            for moe, node in current.items()
        }
    return DerivationResult(
        spec=spec,
        iterations=iterations,
        feed_forward=spec.is_feed_forward(),
        moe_functions=moe_functions,
    )


def _require_preconditions(spec: FunctionalSpec) -> None:
    """Raise SpecificationError unless every Section 3 property holds."""
    from .properties import check_all_properties

    report = check_all_properties(spec)
    if not report.all_hold():
        raise SpecificationError(
            "functional specification violates the Section 3.1 preconditions:\n"
            + report.describe()
        )


def derive_performance_spec(spec: FunctionalSpec) -> PerformanceSpec:
    """Derive the maximum performance specification from a functional spec.

    This is the operation the paper performs manually in Section 2.2.2 and
    justifies in Section 3: because the functional specification satisfies
    properties (1) and (2), the optimal implementation is ``¬moe_i ↔ F_i``,
    so the performance half is obtained by flipping every implication.

    The Section 3.1 properties are verified first (see
    :mod:`repro.spec.properties`) and a
    :class:`~repro.spec.functional.SpecificationError` is raised if they fail
    — deriving a "maximum performance" spec from a non-monotone functional
    spec would be unsound.
    """
    _require_preconditions(spec)
    return PerformanceSpec(spec)


def derive_combined_spec(spec: FunctionalSpec) -> CombinedSpec:
    """Derive the combined (functional + performance) specification.

    Checks the Section 3.1 preconditions first, as
    :func:`derive_performance_spec` does.
    """
    _require_preconditions(spec)
    return CombinedSpec(spec)

