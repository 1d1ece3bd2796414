"""Array-kernel tests: GC, stats and a cross-check against a reference engine.

The manager in ``repro.bdd.manager`` is a flat struct-of-arrays kernel with
packed-integer cache keys, a static variable order and mark-and-sweep
garbage collection.  These tests pin down the properties that make it safe to use
underneath :class:`~repro.symbolic.SymbolicFunction`:

* semantic agreement with an independent dictionary-based ROBDD (the shape
  of the engine this kernel replaced), checked on random 12-variable
  formulas — including *structural* agreement (canonical dag sizes);
* garbage collection never disturbs live (protected) functions and the
  memo tables never serve stale entries after a sweep;
* a full derive → sweep → re-derive cycle reproduces identical node ids;
* the health counters exposed by :meth:`BddManager.stats`.
"""

from hypothesis import given, settings, strategies as st

from repro.archs import load_architecture
from repro.bdd import (
    BddManager,
    FALSE_NODE,
    TRUE_NODE,
    compile_expr,
    dump_nodes,
)
from repro.bdd.serialize import parse_artifact, splice_nodes
from repro.expr import And, Iff, Implies, Not, Or, Var, all_assignments, eval_expr
from repro.spec import build_functional_spec, symbolic_most_liberal
from repro.symbolic import SymbolicContext

VARIABLE_NAMES = [f"v{i:02d}" for i in range(12)]


# -- a minimal reference engine ----------------------------------------------------
#
# Terminals are the strings "F"/"T"; an internal node is the tuple
# ``(level, lo, hi)``.  Reduction (lo == hi collapse) plus Python's
# structural tuple equality gives canonicity for free, so two semantically
# equal functions build the identical tuple tree — the same invariant the
# array kernel maintains with its unique tables, reached by an entirely
# independent route.


class RefBdd:
    FALSE = "F"
    TRUE = "T"

    def __init__(self, order):
        self.order = list(order)
        self.level = {name: i for i, name in enumerate(order)}

    def var(self, name):
        return (self.level[name], self.FALSE, self.TRUE)

    def _top(self, node):
        return node[0] if isinstance(node, tuple) else 2**31

    def _cofactors(self, node, level):
        if isinstance(node, tuple) and node[0] == level:
            return node[1], node[2]
        return node, node

    def apply(self, op, a, b, memo=None):
        if memo is None:
            memo = {}
        key = (a, b)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if a in ("F", "T") and b in ("F", "T"):
            va, vb = a == "T", b == "T"
            result = self.TRUE if op(va, vb) else self.FALSE
        else:
            level = min(self._top(a), self._top(b))
            a0, a1 = self._cofactors(a, level)
            b0, b1 = self._cofactors(b, level)
            lo = self.apply(op, a0, b0, memo)
            hi = self.apply(op, a1, b1, memo)
            result = lo if lo == hi else (level, lo, hi)
        memo[key] = result
        return result

    def not_(self, node, memo=None):
        if memo is None:
            memo = {}
        if node == self.FALSE:
            return self.TRUE
        if node == self.TRUE:
            return self.FALSE
        hit = memo.get(node)
        if hit is not None:
            return hit
        result = (node[0], self.not_(node[1], memo), self.not_(node[2], memo))
        memo[node] = result
        return result

    def compile(self, expr):
        if isinstance(expr, Var):
            return self.var(expr.name)
        if isinstance(expr, Not):
            return self.not_(self.compile(expr.operand))
        if isinstance(expr, And):
            result = self.TRUE
            for operand in expr.operands:
                result = self.apply(lambda x, y: x and y, result, self.compile(operand))
            return result
        if isinstance(expr, Or):
            result = self.FALSE
            for operand in expr.operands:
                result = self.apply(lambda x, y: x or y, result, self.compile(operand))
            return result
        if isinstance(expr, Implies):
            lhs = self.compile(expr.antecedent)
            rhs = self.compile(expr.consequent)
            return self.apply(lambda x, y: (not x) or y, lhs, rhs)
        if isinstance(expr, Iff):
            lhs, rhs = self.compile(expr.left), self.compile(expr.right)
            return self.apply(lambda x, y: x == y, lhs, rhs)
        raise TypeError(f"unsupported expression {expr!r}")

    def dag_size(self, node):
        seen = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if not isinstance(n, tuple) or n in seen:
                continue
            seen.add(n)
            stack.append(n[1])
            stack.append(n[2])
        return len(seen)

    def sat_count(self, node, num_vars):
        memo = {}

        def count(n):
            if n == self.FALSE:
                return 0, num_vars
            if n == self.TRUE:
                return 1, num_vars
            hit = memo.get(n)
            if hit is None:
                level, lo, hi = n
                clo, dlo = count(lo)
                chi, dhi = count(hi)
                total = clo * 2 ** (dlo - level - 1) + chi * 2 ** (dhi - level - 1)
                hit = memo[n] = (total, level)
            return hit

        total, depth = count(node)
        return total * 2**depth


def expressions(max_leaves: int = 12):
    """Random formulas over a 12-variable alphabet (mirrors test_expr_hypothesis)."""
    leaves = st.sampled_from([Var(name) for name in VARIABLE_NAMES])
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda pair: And(*pair)),
            st.tuples(children, children).map(lambda pair: Or(*pair)),
            st.tuples(children, children).map(lambda pair: Implies(*pair)),
            st.tuples(children, children).map(lambda pair: Iff(*pair)),
        ),
        max_leaves=max_leaves,
    )


class TestReferenceCrossCheck:
    @settings(max_examples=60, deadline=None)
    @given(expressions())
    def test_array_kernel_matches_dict_engine(self, expr):
        manager = BddManager(VARIABLE_NAMES)
        node = compile_expr(manager, expr)
        ref = RefBdd(VARIABLE_NAMES)
        ref_node = ref.compile(expr)
        # Canonical form agreement: identical dag size under the same order.
        assert manager.dag_size(node) == ref.dag_size(ref_node)
        # Model count agreement over the full 12-variable space.
        assert manager.sat_count(node, over=VARIABLE_NAMES) == ref.sat_count(
            ref_node, len(VARIABLE_NAMES)
        )

    @settings(max_examples=30, deadline=None)
    @given(expressions(max_leaves=8))
    def test_evaluation_round_trip(self, expr):
        manager = BddManager(VARIABLE_NAMES)
        node = compile_expr(manager, expr)
        names = sorted(expr.variables())
        for assignment in all_assignments(names):
            expected = eval_expr(expr, assignment)
            if manager.support(node):
                assert manager.evaluate(node, assignment) == expected
            else:
                assert manager.is_true(node) == expected


class TestGarbageCollection:
    def _junk(self, manager, rounds=6):
        """Build and abandon a pile of intermediate nodes."""
        xs = [manager.var(f"v{i:02d}") for i in range(8)]
        acc = manager.true()
        for offset in range(rounds):
            for i, x in enumerate(xs):
                acc = manager.xor(acc, manager.and_(x, xs[(i + offset) % len(xs)]))
        return acc

    def test_gc_reclaims_dead_nodes_and_keeps_roots(self):
        manager = BddManager()
        root = manager.protect(self._junk(manager))
        expected = {
            tuple(sorted(a.items())): manager.evaluate(root, a)
            for a in all_assignments([f"v{i:02d}" for i in range(8)])
        }
        before = manager.num_nodes()
        reclaimed = manager.gc()
        assert reclaimed > 0
        assert manager.num_nodes() == before - reclaimed
        # The protected cone survived intact: exactly the root's dag plus terminals.
        assert manager.num_nodes() == manager.dag_size(root) + 2
        for assignment, value in expected.items():
            assert manager.evaluate(root, dict(assignment)) == value

    def test_release_makes_nodes_collectable(self):
        manager = BddManager()
        root = manager.protect(self._junk(manager))
        manager.gc()
        survivors = manager.num_nodes()
        manager.release(root)
        manager.gc()
        assert manager.num_nodes() < survivors
        assert manager.num_nodes() == 2  # only terminals remain

    def test_extra_roots_pin_without_protection(self):
        manager = BddManager()
        f = manager.and_(manager.var("a"), manager.var("b"))
        manager.gc(extra_roots=[f])
        assert manager.evaluate(f, {"a": True, "b": True})
        assert not manager.evaluate(f, {"a": True, "b": False})

    def test_unique_table_stays_canonical_after_sweep(self):
        manager = BddManager()
        a, b = manager.var("a"), manager.var("b")
        f = manager.protect(manager.and_(a, b))
        self._junk(manager)
        manager.gc()
        # Rebuilding the same function must land on the same node id.
        assert manager.and_(manager.var("a"), manager.var("b")) == f
        assert manager.not_(manager.not_(f)) == f

    def test_memo_tables_never_serve_stale_entries(self):
        manager = BddManager()
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        g = manager.protect(manager.or_(manager.and_(a, b), c))
        ng = manager.not_(g)  # populates the negation cache; not protected
        manager.gc()
        # ng was reclaimed; recomputing the negation must rebuild it, and
        # the involution property must still hold.
        ng2 = manager.not_(g)
        assert manager.not_(ng2) == g
        assert manager.equivalent(manager.or_(g, ng2), manager.true())
        del ng

    def test_sweep_hooks_see_alive_predicate(self):
        manager = BddManager()
        observed = {}
        live = manager.protect(manager.and_(manager.var("a"), manager.var("b")))
        dead = manager.or_(manager.var("a"), manager.var("c"))
        manager.add_sweep_hook(
            lambda alive: observed.update(live=alive(live), dead=alive(dead))
        )
        manager.gc()
        assert observed == {"live": True, "dead": False}

    def test_gc_accounting_matches_the_live_count(self):
        manager = BddManager()
        root = manager.protect(self._junk(manager))
        before = manager.num_nodes()
        first = manager.gc()
        assert first > 0
        assert first == before - manager.num_nodes()
        manager.release(root)
        survivors = manager.num_nodes()
        second = manager.gc()
        assert second == survivors - 2  # everything but the terminals
        stats = manager.stats()
        assert stats.gc_runs == 2
        assert stats.gc_reclaimed == first + second
        assert stats.allocated_slots == stats.live_nodes + stats.free_slots

    def test_spliced_artifact_survives_a_sweep(self):
        source = BddManager(VARIABLE_NAMES)
        f = source.and_(
            source.var("v00"), source.xor(source.var("v03"), source.var("v07"))
        )
        data = dump_nodes(source, roots={"f": f})
        manager = BddManager(VARIABLE_NAMES)
        node = manager.protect(splice_nodes(manager, parse_artifact(data))["f"])
        self._junk(manager)
        manager.gc()
        # The rebuilt unique table still deduplicates a second splice.
        assert splice_nodes(manager, parse_artifact(data))["f"] == node
        for assignment in all_assignments(["v00", "v03", "v07"]):
            full = dict.fromkeys(VARIABLE_NAMES, False)
            full.update(assignment)
            assert manager.evaluate(node, full) == source.evaluate(f, full)


class TestDeriveSweepRederive:
    def test_derivation_survives_collection_and_is_reproducible(self):
        spec = build_functional_spec(load_architecture("dac2002-example"))
        first = symbolic_most_liberal(spec)
        context = first.context
        assert context is not None
        moe_nodes = {moe: fn.node for moe, fn in first.moe_functions.items()}
        floor = sum(
            context.manager.dag_size(node) for node in moe_nodes.values()
        )

        reclaimed = context.collect()
        assert reclaimed > 0  # the fixed-point iteration leaves garbage behind

        # Live handles protect their cones: every closed form still evaluates.
        for moe, fn in first.moe_functions.items():
            assert fn.node == moe_nodes[moe]
        # After the sweep the store holds little beyond the retained results
        # (shared spec/condition cones may also be pinned by the context).
        assert context.manager.num_nodes() <= max(int(floor * 4), 256)

        second = symbolic_most_liberal(spec, context=context)
        for moe, fn in second.moe_functions.items():
            # Canonicity across the sweep: the re-derived closed forms land
            # on the very same node ids the first derivation produced.
            assert fn.node == moe_nodes[moe]
        assert second.feed_forward == first.feed_forward


class TestStatsAndHeuristics:
    def test_stats_counters_are_consistent(self):
        manager = BddManager()
        f = manager.and_(manager.var("a"), manager.var("b"))
        manager.and_(manager.var("a"), manager.var("b"))  # memo hit
        stats = manager.stats()
        assert stats.live_nodes == manager.num_nodes()
        assert stats.allocated_slots == stats.live_nodes + stats.free_slots
        assert stats.num_vars == 2
        assert stats.unique_entries == manager.num_nodes() - 2
        assert 0.0 <= stats.hit_rate <= 1.0
        payload = stats.as_dict()
        assert payload["live_nodes"] == stats.live_nodes
        assert set(payload) >= {
            "live_nodes",
            "unique_entries",
            "load_factor",
            "hit_rate",
            "gc_runs",
        }
        text = stats.describe()
        assert "nodes:" in text and "gc:" in text
        manager.protect(f)
        manager.gc()
        assert manager.stats().gc_runs == 1

    def test_density(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        assert manager.density(manager.true()) == 1.0
        assert manager.density(manager.false()) == 0.0
        assert manager.density(x) == 0.5
        assert manager.density(manager.and_(x, y)) == 0.25
        assert manager.density(manager.or_(x, y)) == 0.75
        assert manager.density(manager.not_(manager.and_(x, y))) == 0.75

    def test_literal_cube_and_clause_fast_paths(self):
        manager = BddManager()
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        nb = manager.not_(b)
        cube = manager.and_all([a, nb, c])
        assert cube == manager.and_(manager.and_(a, nb), c)
        assert manager.and_all([a, manager.not_(a)]) == FALSE_NODE
        clause = manager.or_all([a, nb, c])
        assert clause == manager.or_(manager.or_(a, nb), c)
        assert manager.or_all([a, manager.not_(a)]) == TRUE_NODE
        # Non-literal operands fall back to the general apply loop.
        mixed = manager.and_all([a, manager.or_(b, c)])
        assert manager.equivalent(mixed, manager.and_(a, manager.or_(b, c)))

    def test_symbolic_context_compile_cache_swept(self):
        context = SymbolicContext()
        expr = And(Var("a"), Or(Var("b"), Not(Var("c"))))
        node = context.lift(expr).node  # handle dropped immediately
        del node
        context.collect()
        lifted = context.lift(expr)
        assert lifted.evaluate({"a": True, "b": False, "c": False})
        assert not lifted.evaluate({"a": False, "b": True, "c": True})
