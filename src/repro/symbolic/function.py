"""Symbolic boolean functions: BDD nodes as the primary inter-layer currency.

Until now every layer of the library traded in :class:`~repro.expr.ast.Expr`
trees: the derivation kept an expression candidate "in lock step" with its
BDD side purely for output, the property checkers substituted implementation
expressions into specification expressions, and the synthesiser lowered raw
substituted trees.  Expression trees grow by substitution — the full
16-register FirePath derivation used to drown in n-ary flattening — while
the BDD side stays canonical and small.

This package inverts the relationship.  A :class:`SymbolicFunction` is a
BDD node paired with its shared :class:`SymbolicContext` (manager plus
compile/materialize caches) and an optional variable scope.  All boolean
structure — derivation fixed points, property claims, equivalence and
refinement obligations — flows between layers as SymbolicFunctions;
decisions (validity, equivalence, witnesses) are pointer comparisons and
node walks.  A human-readable or HDL-ready expression is *materialized*
lazily, and only when a printer, monitor or synthesis backend asks for one:
:meth:`SymbolicFunction.to_expr` extracts an irredundant sum-of-products
cover with the manager's ISOP operator, so what comes out is a minimized
two-level form rather than the substitution residue the old pipeline
carried around.  Materialized expressions are cached per node in the
context, so repeated printing is free.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..expr.ast import Expr, FALSE, Not, TRUE, Var
from ..expr.builders import big_and, big_or
from ..bdd.expr_to_bdd import compile_expr
from ..bdd.manager import (
    FALSE_NODE,
    TRUE_NODE,
    BddManager,
    CoverBudgetExceeded,
)


class SymbolicContext:
    """A shared BDD manager plus the caches that make functions cheap to move.

    One context is one universe of discourse: every
    :class:`SymbolicFunction` created from it shares the manager's unique
    table (so equivalence is a pointer comparison), the expression compile
    cache (so lifting the same specification formula twice is free) and the
    materialization cache (so extracting the same cover twice is free).
    Functions from different contexts cannot be combined — that would
    silently compare nodes from unrelated unique tables.
    """

    def __init__(self, variable_order: Optional[Sequence[str]] = None):
        self.manager = BddManager(variable_order)
        self._compile_cache: Dict[Expr, int] = {}
        self._expr_cache: Dict[int, Expr] = {}
        # node -> (complemented, cubes), the outcome of minimized_cover.
        self._cover_cache: Dict[int, Tuple[bool, tuple]] = {}
        # Node ids are reused after a sweep, so entries pointing at
        # reclaimed ids must be dropped or they would alias new functions.
        self.manager.add_sweep_hook(self._on_sweep)

    def _on_sweep(self, alive) -> None:
        self._compile_cache = {
            expr: node for expr, node in self._compile_cache.items() if alive(node)
        }
        self._expr_cache = {
            node: expr for node, expr in self._expr_cache.items() if alive(node)
        }
        self._cover_cache = {
            node: cover for node, cover in self._cover_cache.items() if alive(node)
        }

    def collect(self) -> int:
        """Reclaim nodes no live :class:`SymbolicFunction` can reach.

        Every function handle protects its node, so a plain
        ``context.collect()`` after dropping intermediate handles shrinks
        the store back to what is still referenced.  Returns the number of
        nodes reclaimed.
        """
        return self.manager.gc()

    # -- constructors ----------------------------------------------------------

    def true(self) -> "SymbolicFunction":
        """The constant TRUE function."""
        return SymbolicFunction(self, TRUE_NODE)

    def false(self) -> "SymbolicFunction":
        """The constant FALSE function."""
        return SymbolicFunction(self, FALSE_NODE)

    def var(self, name: str) -> "SymbolicFunction":
        """The projection function of a single variable."""
        return SymbolicFunction(self, self.manager.var(name))

    def lift(self, expr: Union[Expr, "SymbolicFunction"]) -> "SymbolicFunction":
        """Compile an expression into this context (cached across calls).

        A :class:`SymbolicFunction` already in this context passes through
        unchanged; one from another context is rejected rather than
        re-interpreted.
        """
        if isinstance(expr, SymbolicFunction):
            if expr.context is not self:
                raise ValueError(
                    "cannot lift a SymbolicFunction from a different context"
                )
            return expr
        return SymbolicFunction(
            self, compile_expr(self.manager, expr, self._compile_cache)
        )

    def function(
        self, node: int, scope: Optional[Sequence[str]] = None
    ) -> "SymbolicFunction":
        """Wrap a raw manager node (low-level escape hatch)."""
        return SymbolicFunction(self, node, scope=scope)

    # -- materialization -------------------------------------------------------

    def to_expr(self, node: int) -> Expr:
        """Materialize a node as a minimized expression (cached per node).

        The expression is an irredundant sum-of-products cover extracted
        with the manager's ISOP operator — not the syntactic residue of
        whatever substitutions produced the node.  Compiling the returned
        expression back into this context yields exactly ``node`` (the
        cross-check the test-suite performs with hypothesis), and the
        compile cache is primed accordingly.  A complemented cover
        materializes as ``Not(to_expr(¬node))``: the negated node's stored
        cover is the same cubes uncomplemented, so the two expressions
        share one ``Or``.
        """
        cached = self._expr_cache.get(node)
        if cached is not None:
            return cached
        if node == FALSE_NODE:
            expr: Expr = FALSE
        elif node == TRUE_NODE:
            expr = TRUE
        else:
            complemented, cubes = self.minimized_cover(node)
            if complemented:
                expr = Not(self.to_expr(self.manager.not_(node)))
            else:
                expr = self._cubes_to_expr(cubes)
        self._expr_cache[node] = expr
        self._compile_cache.setdefault(expr, node)
        return expr

    def minimized_cover(self, node: int) -> Tuple[bool, tuple]:
        """The smaller of the direct and the complemented ISOP cover.

        Returns ``(complemented, cubes)``: when ``complemented`` is true the
        cubes cover the *negation* of the node (the function is the
        complement of their disjunction).  A mostly-true function — every
        closed-form MOE flag is a negated stall condition — has
        exponentially many cubes in a direct SOP but a compact complement
        cover; a mostly-false one the other way round.  Rather than guess,
        both sides are raced under a cube budget that grows geometrically
        until one completes; the exponential side aborts as soon as an
        intermediate cover overflows the budget, and its completed
        sub-covers stay memoised for the retry.  The direct cover wins
        ties.  Cubes are ``(level, polarity)`` tuples as from
        :meth:`~repro.bdd.manager.BddManager.isop`.

        The race runs once per node: its outcome is stored in the context
        (pruned by :meth:`collect` like the expression cache), so covers
        for ``stall_expressions`` and artifact dumps are dictionary
        lookups.  A complement win is strictly smaller, so it is also
        stored as the direct cover of the negated node; a direct win is
        not flipped, since on a tie the negation's race keeps its own
        direct cover.
        """
        # Terminals short-circuit the race: without this, TRUE would "lose"
        # to its complement's empty cover and synthesize as an inverted
        # CONST0 instead of a CONST1.
        if node == FALSE_NODE:
            return False, ()
        if node == TRUE_NODE:
            return False, ((),)
        stored = self._cover_cache.get(node)
        if stored is not None:
            return stored
        manager = self.manager
        negated = manager.not_(node)
        # Run the likely-compact side first (density > 1/2 means mostly
        # true, i.e. an exponential direct cover but a compact complement),
        # then cap the other side by the first result: it only matters if
        # it can still win, so the losing side aborts almost immediately
        # instead of spending its whole cube budget.  Direct wins ties.
        comp_first = manager.density(node) > 0.5
        budget = 64
        while True:
            direct = complemented = None
            if comp_first:
                try:
                    complemented = manager.isop(negated, negated, max_cubes=budget)[1]
                except CoverBudgetExceeded:
                    pass
                cap = budget if complemented is None else min(budget, len(complemented))
                try:
                    direct = manager.isop(node, node, max_cubes=cap)[1]
                except CoverBudgetExceeded:
                    pass
            else:
                try:
                    direct = manager.isop(node, node, max_cubes=budget)[1]
                except CoverBudgetExceeded:
                    pass
                cap = budget if direct is None else min(budget, len(direct) - 1)
                try:
                    complemented = manager.isop(negated, negated, max_cubes=cap)[1]
                except CoverBudgetExceeded:
                    pass
            if direct is not None and (
                complemented is None or len(direct) <= len(complemented)
            ):
                return self._store_cover(node, (False, direct))
            if complemented is not None:
                return self._store_cover(node, (True, complemented))
            budget *= 8

    def _store_cover(self, node: int, cover: Tuple[bool, tuple]) -> Tuple[bool, tuple]:
        if cover[0]:
            self._cover_cache.setdefault(self.manager.not_(node), (False, cover[1]))
        self._cover_cache[node] = cover
        return cover

    def _cubes_to_expr(self, cubes: tuple) -> Expr:
        # Covers repeat the same few literals across many cubes; building
        # (and hashing) a fresh Var/Not per occurrence dominated extraction.
        var_at = self.manager.var_at_level
        literal_at: Dict[Tuple[int, bool], Expr] = {}
        products: List[Expr] = []
        for cube in cubes:
            literals: List[Expr] = []
            for level, polarity in cube:
                key = (level, polarity)
                literal = literal_at.get(key)
                if literal is None:
                    literal = Var(var_at(level))
                    if not polarity:
                        literal = Not(literal)
                    literal_at[key] = literal
                literals.append(literal)
            products.append(big_and(literals) if literals else TRUE)
        return big_or(products) if products else FALSE


class SymbolicFunction:
    """A boolean function held as a BDD node in a shared context.

    Attributes:
        context: the owning :class:`SymbolicContext`.
        node: the manager node (an integer; equality is function equality).
        scope: optional ordered tuple of variable names the function is
            considered *over* — its declared universe, as opposed to
            :meth:`support`, the variables it actually depends on.  The
            derivation sets the scope of each closed form to the primary
            inputs; enumeration-style queries default to it.
    """

    __slots__ = ("context", "node", "scope", "_finalizer", "__weakref__")

    def __init__(
        self,
        context: SymbolicContext,
        node: int,
        scope: Optional[Sequence[str]] = None,
    ):
        self.context = context
        self.node = node
        self.scope = tuple(scope) if scope is not None else None
        # Pin the node for the lifetime of this handle: the manager's GC
        # treats protected nodes as roots, so holding a
        # SymbolicFunction is all a caller needs to do to stay safe.
        manager = context.manager
        manager.protect(node)
        self._finalizer = weakref.finalize(self, manager.release, node)

    # -- plumbing --------------------------------------------------------------

    def _peer(self, other: "SymbolicFunction") -> "SymbolicFunction":
        if not isinstance(other, SymbolicFunction):
            raise TypeError(
                f"expected a SymbolicFunction, got {type(other).__name__}; "
                "lift expressions through the context first"
            )
        if other.context is not self.context:
            raise ValueError("cannot combine SymbolicFunctions from different contexts")
        return other

    def _wrap(self, node: int, other: Optional["SymbolicFunction"] = None) -> "SymbolicFunction":
        scope = self.scope
        if other is not None and other.scope is not None:
            if scope is None:
                scope = other.scope
            elif scope != other.scope:
                merged = list(scope)
                merged.extend(name for name in other.scope if name not in scope)
                scope = tuple(merged)
        return SymbolicFunction(self.context, node, scope=scope)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicFunction):
            return NotImplemented
        return self.context is other.context and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.context), self.node))

    def __repr__(self) -> str:  # deliberately does NOT materialize the cover
        return f"SymbolicFunction(node={self.node}, size={self.dag_size()})"

    # -- boolean structure -----------------------------------------------------

    def __and__(self, other: "SymbolicFunction") -> "SymbolicFunction":
        other = self._peer(other)
        return self._wrap(self.context.manager.and_(self.node, other.node), other)

    def __or__(self, other: "SymbolicFunction") -> "SymbolicFunction":
        other = self._peer(other)
        return self._wrap(self.context.manager.or_(self.node, other.node), other)

    def __xor__(self, other: "SymbolicFunction") -> "SymbolicFunction":
        other = self._peer(other)
        return self._wrap(self.context.manager.xor(self.node, other.node), other)

    def __invert__(self) -> "SymbolicFunction":
        return self._wrap(self.context.manager.not_(self.node))

    def implies(self, other: "SymbolicFunction") -> "SymbolicFunction":
        """The function ``self → other``."""
        other = self._peer(other)
        return self._wrap(self.context.manager.implies(self.node, other.node), other)

    def iff(self, other: "SymbolicFunction") -> "SymbolicFunction":
        """The function ``self ↔ other``."""
        other = self._peer(other)
        return self._wrap(self.context.manager.iff(self.node, other.node), other)

    def ite(self, then: "SymbolicFunction", orelse: "SymbolicFunction") -> "SymbolicFunction":
        """If-then-else with ``self`` as the condition."""
        then = self._peer(then)
        orelse = self._peer(orelse)
        return self._wrap(
            self.context.manager.ite(self.node, then.node, orelse.node)
        )

    # -- substitution and cofactors -------------------------------------------

    def compose(
        self, mapping: Mapping[str, Union["SymbolicFunction", Expr]]
    ) -> "SymbolicFunction":
        """Simultaneous substitution of variables by functions."""
        node_map = {
            name: self.context.lift(value).node for name, value in mapping.items()
        }
        return self._wrap(self.context.manager.compose_many(self.node, node_map))

    def restrict(self, assignment: Mapping[str, bool]) -> "SymbolicFunction":
        """Cofactor with the given variables fixed to constants."""
        node = self.node
        for name, value in assignment.items():
            node = self.context.manager.restrict(node, name, bool(value))
        return self._wrap(node)

    def exists(self, names: Iterable[str]) -> "SymbolicFunction":
        """Existential quantification."""
        return self._wrap(self.context.manager.exists(self.node, names))

    def forall(self, names: Iterable[str]) -> "SymbolicFunction":
        """Universal quantification."""
        return self._wrap(self.context.manager.forall(self.node, names))

    # -- decisions -------------------------------------------------------------

    def is_true(self) -> bool:
        """Is this the constant TRUE function?  Constant time."""
        return self.node == TRUE_NODE

    def is_false(self) -> bool:
        """Is this the constant FALSE function?  Constant time."""
        return self.node == FALSE_NODE

    def is_satisfiable(self) -> bool:
        """Does the function have a satisfying assignment?  Constant time."""
        return self.node != FALSE_NODE

    def equivalent(self, other: "SymbolicFunction") -> bool:
        """Function equality — a pointer comparison."""
        return self._peer(other).node == self.node

    def pick_one(self) -> Optional[Dict[str, bool]]:
        """One satisfying assignment, or None."""
        return self.context.manager.pick_one(self.node)

    def counterexample(self) -> Optional[Dict[str, bool]]:
        """One falsifying assignment, or None when the function is valid."""
        return self.context.manager.pick_one(self.context.manager.not_(self.node))

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate under a concrete assignment (one root-to-terminal walk)."""
        return self.context.manager.evaluate(self.node, assignment)

    # -- measures --------------------------------------------------------------

    def support(self) -> frozenset:
        """The variables the function actually depends on."""
        return self.context.manager.support(self.node)

    def sat_count(self, over: Optional[Sequence[str]] = None) -> int:
        """Satisfying assignments over ``over`` (default: scope, then support)."""
        if over is None and self.scope is not None:
            over = self.scope
        return self.context.manager.sat_count(self.node, over=over)

    def dag_size(self) -> int:
        """Number of BDD nodes (the complexity measure the benchmarks report)."""
        return self.context.manager.dag_size(self.node)

    # -- materialization -------------------------------------------------------

    def to_expr(self) -> Expr:
        """Materialize as a minimized irredundant-SOP expression (cached)."""
        return self.context.to_expr(self.node)

    def minimized_cover(self) -> Tuple[bool, List[Dict[str, bool]]]:
        """``(complemented, cubes)`` — the smaller-polarity cover, name-keyed.

        When ``complemented`` is true the cubes cover the negation of the
        function; the synthesiser then emits one extra inverter.  See
        :meth:`SymbolicContext.minimized_cover` for the budget race.
        """
        complemented, cubes = self.context.minimized_cover(self.node)
        var_at = self.context.manager.var_at_level
        named = [
            {var_at(level): polarity for level, polarity in cube} for cube in cubes
        ]
        return complemented, named
