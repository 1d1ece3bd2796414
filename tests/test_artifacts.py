"""Tests for the binary BDD artifact format and its symbolic round trips.

The load contract is exact: an artifact spliced back into its *source*
context must deduplicate into pointer-equal nodes, a fresh context must
reproduce semantically identical functions, and any mutation of the
bytes (truncation, bit flips) must be rejected by the checksum — never
silently produce a different BDD.
"""

import hashlib

import pytest
from conftest import resigned_artifact
from hypothesis import given, settings, strategies as st

from repro.archs import load_architecture
from repro.archs.firepath_like import firepath_like_architecture
from repro.bdd import ArtifactError, dump_nodes, inspect_artifact
from repro.bdd.manager import BddManager
from repro.bdd.serialize import (
    FORMAT_VERSION,
    _decode_i32,
    _encode_i32,
    parse_artifact,
    splice_nodes,
)
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
        roots = splice_nodes(context.manager, parse_artifact(data))
        assert roots["f"] == function.node

    @settings(max_examples=60, deadline=None)
    @given(expressions())
    def test_fresh_manager_load_is_semantically_equal(self, expr):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.lift(expr)
        data = dump_nodes(context.manager, roots={"f": function.node})
        manager = BddManager(VARIABLE_NAMES)
        node = splice_nodes(manager, parse_artifact(data))["f"]
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
        roots = splice_nodes(fresh, parse_artifact(data))
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
            splice_nodes(BddManager(), parse_artifact(bytes(corrupt)))

    def test_truncated_bytes_are_rejected(self):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.lift(Var("a") & ~Var("b") | Var("c"))
        data = dump_nodes(context.manager, roots={"f": function.node})
        for cut in (0, 3, len(data) // 2, len(data) - 5):
            with pytest.raises(ArtifactError):
                splice_nodes(BddManager(), parse_artifact(data[:cut]))

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (0, len(VARIABLE_NAMES), "out-of-range variable index"),
            (1, -1, "negative child reference"),
            (2, 2, "references a later node"),
        ],
    )
    def test_a_forged_node_table_is_rejected(self, column, value, message):
        # Node 0's variable, low or high entry, re-signed so that only the
        # structural checks stand between it and a splice.
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.lift(Var("a") & ~Var("b") | Var("c"))
        data = dump_nodes(context.manager, roots={"f": function.node})
        num_nodes = parse_artifact(data).num_nodes
        start = len(data) - 32 - 4 * num_nodes * (3 - column)
        forged = data[:start] + _encode_i32([value]) + data[start + 4 :]
        with pytest.raises(ArtifactError, match=message):
            parse_artifact(resigned_artifact(forged))

    def test_incompatible_variable_order_is_rejected(self):
        context = SymbolicContext(["a", "b", "c"])
        function = context.lift(Var("a") & Var("b") | Var("c"))
        data = dump_nodes(context.manager, roots={"f": function.node})
        reversed_manager = BddManager(["c", "b", "a"])
        with pytest.raises(ArtifactError):
            splice_nodes(reversed_manager, parse_artifact(data))

    def test_interleaved_target_order_still_splices(self):
        context = SymbolicContext(["a", "b", "c"])
        function = context.lift(Var("a") & Var("b") | Var("c"))
        data = dump_nodes(context.manager, roots={"f": function.node})
        # Extra variables between the artifact's (relative order kept).
        target = BddManager(["a", "x", "b", "y", "c"])
        node = splice_nodes(target, parse_artifact(data))["f"]
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

    def test_shared_scopes_and_covers_are_stored_once(self):
        context = SymbolicContext(VARIABLE_NAMES)
        scope = ("a", "b", "c", "d")
        f = context.lift((Var("a") & Var("b")) | (~Var("c") & Var("d")))
        g = context.lift(Var("a") | Var("d"))
        functions = {
            name: context.function(fn.node, scope=scope)
            for name, fn in (("h", f), ("f", f), ("g", g))
        }
        data = dump_functions(functions, include_covers=True)
        manifest = parse_artifact(data).manifest
        assert manifest["scope_table"] == [[0, 1, 2, 3]]
        assert manifest["scopes"] == {"f": 0, "g": 0, "h": 0}
        assert len(manifest["cover_table"]) == 2
        assert manifest["covers"]["f"] == manifest["covers"]["h"] != manifest["covers"]["g"]
        loaded = load_functions(data)
        assert {fn.scope for fn in loaded.functions.values()} == {scope}
        assert loaded.functions["f"].node == loaded.functions["h"].node
        # The tables follow root names, not the caller's mapping order.
        reordered = {name: functions[name] for name in ("g", "f", "h")}
        assert dump_functions(reordered, include_covers=True) == data

    def test_a_scope_outside_the_variable_order_is_rejected_at_dump(self):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.function(context.lift(Var("a")).node, scope=("a", "zz"))
        with pytest.raises(ValueError, match="zz"):
            dump_functions({"f": function})

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


def _set(path, value):
    """A manifest edit that sets the item at ``path`` (keys and indexes) to ``value``."""

    def edit(manifest):
        target = manifest
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value

    return edit


#: Hand-edited manifests of the artifact built by ``_tabled_artifact``:
#: 5 variables, one scope, two covers.
MALFORMED_TABLES = {
    "scope index past the table": _set(("scopes", "f"), 1),
    "negative scope index": _set(("scopes", "f"), -1),
    "boolean scope index": _set(("scopes", "f"), True),
    "cover index past the table": _set(("covers", "f"), 2),
    "string cover index": _set(("covers", "f"), "0"),
    "scope variable past the order": _set(("scope_table", 0, 0), 5),
    "literal code past the variables": _set(("cover_table", 0, "cubes", 0, 0), 10),
    "negative literal code": _set(("cover_table", 0, "cubes", 0, 0), -1),
    "fractional literal code": _set(("cover_table", 0, "cubes", 0, 0), 1.0),
    "scope table not a list": _set(("scope_table",), {"0": [0]}),
    "cover table not a list": _set(("cover_table",), "cubes"),
    "scope map not an object": _set(("scopes",), [0, 0]),
    "scope entry not a list": _set(("scope_table", 0), 3),
    "cover entry not an object": _set(("cover_table", 0), [False, [[0]]]),
    "cubes not a list": _set(("cover_table", 0, "cubes"), {"0": [0]}),
    "cube not a list": _set(("cover_table", 0, "cubes", 0), 4),
    "complemented not a boolean": _set(("cover_table", 0, "complemented"), 0),
    "cover for an unknown root": _set(("covers", "zz"), 0),
}


def _tabled_artifact():
    context = SymbolicContext(VARIABLE_NAMES)
    scope = ("a", "b", "c", "d")
    functions = {
        "f": context.function(context.lift(Var("a") & ~Var("c")).node, scope=scope),
        "g": context.function(context.lift(Var("b") | Var("d")).node, scope=scope),
    }
    return dump_functions(functions, include_covers=True)


class TestMalformedTables:
    def test_the_unedited_artifact_loads(self):
        data = _tabled_artifact()
        manifest = parse_artifact(data).manifest
        assert (len(manifest["scope_table"]), len(manifest["cover_table"])) == (1, 2)
        assert load_functions(resigned_artifact(data)).functions["f"].scope == (
            "a", "b", "c", "d"
        )

    @pytest.mark.parametrize("fault", sorted(MALFORMED_TABLES))
    def test_a_malformed_table_raises_artifact_error(self, fault):
        # The result store treats only ArtifactError as a corrupt entry; an
        # IndexError, KeyError or TypeError here would fail the job instead.
        data = resigned_artifact(_tabled_artifact(), MALFORMED_TABLES[fault])
        with pytest.raises(ArtifactError):
            parse_artifact(data)
        with pytest.raises(ArtifactError):
            load_functions(data)

    def test_a_version_1_artifact_is_unsupported(self):
        data = resigned_artifact(_tabled_artifact(), version=1)
        with pytest.raises(ArtifactError, match="version 1"):
            load_functions(data)


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
            assert str(loaded.moe_expressions[moe]) == str(
                derivation.moe_expressions[moe]
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
        assert summary["format_version"] == FORMAT_VERSION == 2
        # Every closed form shares the primary-input scope; roots that
        # share a node share its cover.
        assert summary["num_scopes"] == 1
        assert summary["num_covers"] == len(
            {function.node for function in derivation.moe_functions.values()}
        )
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

    # SHA-256 of the firepath-like MOE closed forms with their covers, in
    # format version 2.  The artifact format and the derivation order are
    # both deterministic, so a change here means the kernel builds
    # different nodes or the codec writes different bytes.
    @pytest.mark.parametrize(
        "num_registers, digest",
        [
            (16, "18758f1e0536a61e13dff03b482ccb79522d6a0796afa735cbc2c66d230953db"),
            (64, "b482b0bb52e163274a80977dc0455be5105fde7393b85a081e78f510264a65b6"),
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
            "b0a5971ae850407b13c4ccda62df24e554aaeac5ed7a31072d87279006ab612e"
        )
        # 26 flags over one input scope, 17 distinct closed forms.
        summary = inspect_artifact(data)
        assert (len(summary["roots"]), summary["num_scopes"], summary["num_covers"]) == (
            26, 1, 17
        )

    @pytest.mark.parametrize("arch_name", ["dac2002-example", "firepath-like", "risc5"])
    def test_reloaded_derivation_dumps_the_same_bytes(self, arch_name):
        spec = build_functional_spec(load_architecture(arch_name))
        data = symbolic_most_liberal(spec).to_artifact_bytes(include_covers=True)
        loaded = DerivationResult.from_artifact_bytes(spec, data)
        assert loaded.to_artifact_bytes(include_covers=True) == data
