"""Tests for the binary BDD artifact format and its symbolic round trips.

The load contract is exact: an artifact spliced back into its *source*
context must deduplicate into pointer-equal nodes, a fresh context must
reproduce semantically identical functions, and any mutation of the
bytes (truncation, bit flips) must be rejected by the checksum — never
silently produce a different BDD.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.archs import load_architecture
from repro.archs.firepath_like import firepath_like_architecture
from repro.bdd import ArtifactError, dump_nodes, inspect_artifact, load_nodes
from repro.bdd.manager import BddManager
from repro.bdd.serialize import _decode_i32, _encode_i32, parse_artifact
from repro.expr import And, Iff, Implies, Not, Or, Var, all_assignments, eval_expr
from repro.spec import build_functional_spec, symbolic_most_liberal
from repro.spec.derivation import DerivationResult
from repro.symbolic import SymbolicContext, dump_functions, load_functions

VARIABLE_NAMES = ["a", "b", "c", "d", "e"]


def expressions(max_leaves: int = 12):
    """Hypothesis strategy producing random expressions over a small alphabet."""
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


class TestNodeRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(expressions())
    def test_same_manager_splice_is_pointer_equal(self, expr):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.lift(expr)
        data = dump_nodes(context.manager, roots={"f": function.node})
        roots = load_nodes(context.manager, data)
        assert roots["f"] == function.node

    @settings(max_examples=60, deadline=None)
    @given(expressions())
    def test_fresh_manager_load_is_semantically_equal(self, expr):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.lift(expr)
        data = dump_nodes(context.manager, roots={"f": function.node})
        manager = BddManager(VARIABLE_NAMES)
        node = load_nodes(manager, data)["f"]
        for assignment in all_assignments(VARIABLE_NAMES):
            expected = eval_expr(expr, assignment)
            if manager.support(node):
                assert manager.evaluate(node, assignment) == expected
            else:
                assert manager.is_true(node) == expected

    def test_terminal_roots_round_trip(self):
        manager = BddManager(["x"])
        data = dump_nodes(
            manager, roots={"t": manager.true(), "f": manager.false()}
        )
        fresh = BddManager()
        roots = load_nodes(fresh, data)
        assert fresh.is_true(roots["t"]) and fresh.is_false(roots["f"])

    @settings(max_examples=30, deadline=None)
    @given(expressions(), st.data())
    def test_mutated_bytes_are_rejected(self, expr, data_strategy):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.lift(expr)
        data = dump_nodes(context.manager, roots={"f": function.node})
        position = data_strategy.draw(
            st.integers(min_value=0, max_value=len(data) - 1)
        )
        bit = data_strategy.draw(st.integers(min_value=0, max_value=7))
        corrupt = bytearray(data)
        corrupt[position] ^= 1 << bit
        with pytest.raises(ArtifactError):
            load_nodes(BddManager(), bytes(corrupt))

    def test_truncated_bytes_are_rejected(self):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.lift(Var("a") & ~Var("b") | Var("c"))
        data = dump_nodes(context.manager, roots={"f": function.node})
        for cut in (0, 3, len(data) // 2, len(data) - 5):
            with pytest.raises(ArtifactError):
                load_nodes(BddManager(), data[:cut])

    def test_incompatible_variable_order_is_rejected(self):
        context = SymbolicContext(["a", "b", "c"])
        function = context.lift(Var("a") & Var("b") | Var("c"))
        data = dump_nodes(context.manager, roots={"f": function.node})
        reversed_manager = BddManager(["c", "b", "a"])
        with pytest.raises(ArtifactError):
            load_nodes(reversed_manager, data)

    def test_interleaved_target_order_still_splices(self):
        context = SymbolicContext(["a", "b", "c"])
        function = context.lift(Var("a") & Var("b") | Var("c"))
        data = dump_nodes(context.manager, roots={"f": function.node})
        # Extra variables between the artifact's (relative order kept).
        target = BddManager(["a", "x", "b", "y", "c"])
        node = load_nodes(target, data)["f"]
        for assignment in all_assignments(["a", "b", "c"]):
            full = dict(assignment, x=False, y=True)
            assert target.evaluate(node, full) == eval_expr(
                Var("a") & Var("b") | Var("c"), assignment
            )


class TestFunctionArtifacts:
    @settings(max_examples=40, deadline=None)
    @given(expressions(), expressions())
    def test_function_set_round_trip_with_covers(self, expr_f, expr_g):
        context = SymbolicContext(VARIABLE_NAMES)
        functions = {"f": context.lift(expr_f), "g": context.lift(expr_g)}
        data = dump_functions(functions, include_covers=True)
        loaded = load_functions(data)
        assert set(loaded.functions) == {"f", "g"}
        for name, expr in (("f", expr_f), ("g", expr_g)):
            materialized = loaded.functions[name].to_expr()
            for assignment in all_assignments(VARIABLE_NAMES):
                assert eval_expr(materialized, assignment) == eval_expr(
                    expr, assignment
                )

    def test_cover_priming_makes_to_expr_a_lookup(self):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.lift((Var("a") & Var("b")) | (~Var("c") & Var("d")))
        data = dump_functions({"f": function}, include_covers=True)
        loaded = load_functions(data)
        primed = loaded.functions["f"]
        assert primed.node in loaded.context._expr_cache
        # The primed cover must itself be exact, not merely cached.
        assert loaded.context.lift(primed.to_expr()).node == primed.node

    def test_load_into_source_context_is_pointer_equal(self):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.lift(Var("a") | (Var("b") & ~Var("e")))
        data = dump_functions({"f": function})
        loaded = load_functions(data, context=context)
        assert loaded.functions["f"].node == function.node
        assert loaded.context is context

    def test_scopes_and_payload_round_trip(self):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.function(context.lift(Var("a")).node, scope=("a", "b"))
        data = dump_functions({"f": function}, payload={"answer": 42})
        loaded = load_functions(data)
        assert loaded.functions["f"].scope == ("a", "b")
        assert loaded.payload == {"answer": 42}

    def test_mixed_contexts_are_rejected(self):
        one = SymbolicContext(VARIABLE_NAMES)
        other = SymbolicContext(VARIABLE_NAMES)
        with pytest.raises(ValueError):
            dump_functions({"f": one.lift(Var("a")), "g": other.lift(Var("b"))})

    def test_load_takes_no_reduce_shape(self):
        # A fresh load context combines and_all/or_all one way only.
        context = SymbolicContext(VARIABLE_NAMES)
        data = dump_functions({"f": context.lift(Var("a"))})
        with pytest.raises(TypeError):
            load_functions(data, balanced_reduce=True)


class TestDerivationArtifacts:
    def _derivation(self, arch_name="fam-r2w1d3s1-bypass"):
        spec = build_functional_spec(load_architecture(arch_name))
        return spec, symbolic_most_liberal(spec)

    def test_round_trip_preserves_closed_forms(self):
        spec, derivation = self._derivation()
        data = derivation.to_artifact_bytes(include_covers=True)
        loaded = DerivationResult.from_artifact_bytes(spec, data)
        assert loaded.iterations == derivation.iterations
        assert loaded.feed_forward == derivation.feed_forward
        assert loaded.bdd_sizes == derivation.bdd_sizes
        for moe in spec.moe_flags():
            assert str(loaded.moe_expression(moe)) == str(
                derivation.moe_expression(moe)
            )

    def test_load_into_source_context_is_pointer_equal(self):
        spec, derivation = self._derivation()
        data = derivation.to_artifact_bytes()
        loaded = DerivationResult.from_artifact_bytes(
            spec, data, context=derivation.context
        )
        for moe in spec.moe_flags():
            assert loaded.moe_functions[moe].node == derivation.moe_functions[moe].node

    def test_wrong_spec_is_rejected(self):
        spec, derivation = self._derivation()
        other_spec, _ = self._derivation("fam-r2w1d4s1-bypass")
        data = derivation.to_artifact_bytes()
        with pytest.raises(ArtifactError):
            DerivationResult.from_artifact_bytes(other_spec, data)

    def test_corrupt_artifact_is_rejected(self):
        spec, derivation = self._derivation()
        data = derivation.to_artifact_bytes()
        with pytest.raises(ArtifactError):
            DerivationResult.from_artifact_bytes(spec, data[:-5])

    def test_inspect_summarizes_without_splicing(self):
        spec, derivation = self._derivation()
        summary = inspect_artifact(derivation.to_artifact_bytes(include_covers=True))
        assert summary["payload"]["spec"] == spec.name
        assert summary["payload"]["kind"] == "derivation"
        assert summary["roots"] == sorted(spec.moe_flags())
        assert summary["has_covers"] is True
        assert summary["num_nodes"] > 0


class TestCodecAndStability:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**31), max_value=2**31 - 1)))
    def test_int32_codec_round_trips_to_a_list(self, values):
        data = _encode_i32(values)
        assert len(data) == 4 * len(values)
        decoded = _decode_i32(data)
        assert type(decoded) is list
        assert decoded == values

    def test_parsed_node_arrays_are_plain_lists(self):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.lift(Var("a") & ~Var("b") | Var("c"))
        parsed = parse_artifact(dump_nodes(context.manager, roots={"f": function.node}))
        for column in (parsed.var_indexes, parsed.lo_refs, parsed.hi_refs):
            assert type(column) is list
            assert len(column) == parsed.num_nodes

    # SHA-256 of the firepath-like MOE closed forms with their covers.  The
    # artifact format and the derivation order are both deterministic, so a
    # change here means the kernel builds different nodes or the codec
    # writes different bytes.
    @pytest.mark.parametrize(
        "num_registers, digest",
        [
            (16, "83074b9e64dcdbbeab2fa60f6b10d9b94b6f14127141bebbb6e85491f63aef8f"),
            (64, "a5d83e350ee8da3fb1f310e0b6d6336549c26f2b70013c43595ecc6ef676cdaa"),
        ],
    )
    def test_firepath_artifact_bytes_are_pinned(self, num_registers, digest):
        spec = build_functional_spec(
            firepath_like_architecture(num_registers=num_registers)
        )
        derivation = symbolic_most_liberal(spec)
        data = dump_functions(derivation.moe_functions, include_covers=True)
        assert hashlib.sha256(data).hexdigest() == digest

    def test_firepath_derivation_artifact_is_pinned(self):
        # The whole derivation artifact (closed forms, covers and payload)
        # as stall_expressions and the benchmarks produce it; covers come
        # from the context's per-node cover store.
        spec = build_functional_spec(firepath_like_architecture(num_registers=16))
        derivation = symbolic_most_liberal(spec)
        derivation.stall_expressions()
        data = derivation.to_artifact_bytes(include_covers=True)
        assert hashlib.sha256(data).hexdigest() == (
            "28e3afadd1ae68e3aa635336ab56c877471852617cd7165a9271e33e7bcf9c44"
        )

    @pytest.mark.parametrize("arch_name", ["dac2002-example", "firepath-like", "risc5"])
    def test_reloaded_derivation_dumps_the_same_bytes(self, arch_name):
        spec = build_functional_spec(load_architecture(arch_name))
        data = symbolic_most_liberal(spec).to_artifact_bytes(include_covers=True)
        loaded = DerivationResult.from_artifact_bytes(spec, data)
        assert loaded.to_artifact_bytes(include_covers=True) == data
