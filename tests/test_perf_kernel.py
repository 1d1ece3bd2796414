"""Property-based and regression tests for the performance kernel.

Covers the PR-1 speed work: the bit-parallel compiled evaluator must agree
with :func:`eval_expr` everywhere, the fused quantification operations must
agree with their unfused compositions, and the benchmark runner must stay
runnable as a CI smoke test.
"""

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.expr.compile as compile_module
from repro.archs import load_architecture
from repro.archs.firepath_like import firepath_like_architecture
from repro.assertions import AssertionMonitor
from repro.bdd import BddManager, compile_expr
from repro.campaign import CANONICAL_STAGES, JobSpec, clear_warm_state, run_verification_job
from repro.campaign import runner
from repro.checking import environment_formula
from repro.expr import (
    FALSE,
    TRUE,
    And,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    Var,
    all_assignments,
    bitparallel_satisfiable,
    bitparallel_tautology,
    compile_outputs,
    eval_expr,
    pack_bools,
)
from repro.pipeline import ClosedFormInterlock
from repro.spec import build_functional_spec
from repro.spec.derivation import derivation_order
from repro.symbolic import SymbolicContext

VARIABLE_NAMES = ["a", "b", "c", "d", "e", "f", "g", "h"]


def expressions(max_leaves: int = 14):
    """Random expressions over a small alphabet, all connectives included."""
    leaves = st.sampled_from([Var(name) for name in VARIABLE_NAMES])
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda pair: And(*pair)),
            st.tuples(children, children).map(lambda pair: Or(*pair)),
            st.tuples(children, children).map(lambda pair: Implies(*pair)),
            st.tuples(children, children).map(lambda pair: Iff(*pair)),
            st.tuples(children, children, children).map(lambda triple: Ite(*triple)),
        ),
        max_leaves=max_leaves,
    )


def shared_roots(expr, other):
    """Three roots over ``expr`` and ``other`` that share sub-expressions."""
    return {
        "expr": expr,
        "both": And(expr, other),
        "either": Or(Not(expr), other),
    }


class TestBitParallelEvaluator:
    @settings(max_examples=80, deadline=None)
    @given(expressions(), expressions(6))
    def test_agrees_with_eval_expr_on_every_assignment(self, expr, other):
        names = sorted(expr.variables())
        brute = [eval_expr(expr, a) for a in all_assignments(names)]
        assert bitparallel_tautology(expr) == all(brute)
        assert bitparallel_satisfiable(expr) == any(brute)
        roots = shared_roots(expr, other)
        compiled = compile_outputs(roots)
        assert compiled.outputs == tuple(roots)
        assert compiled.names == tuple(sorted(expr.variables() | other.variables()))
        for assignment in all_assignments(compiled.names):
            values = [int(assignment[name]) for name in compiled.names]
            words = compiled(values, 1)
            assert [bool(word & 1) for word in words] == [
                eval_expr(root, assignment) for root in roots.values()
            ]

    @settings(max_examples=40, deadline=None)
    @given(
        expressions(),
        expressions(6),
        st.integers(min_value=0, max_value=150),
        st.randoms(),
    )
    def test_packed_evaluation_matches_rows(self, expr, other, num_rows, rng):
        roots = shared_roots(expr, other)
        names = sorted(expr.variables() | other.variables())
        rows = [
            {name: bool(rng.getrandbits(1)) for name in names} for _ in range(num_rows)
        ]
        compiled = compile_outputs(roots)
        columns = {name: pack_bools(row[name] for row in rows) for name in names}
        packed = compiled.evaluate_packed(columns, num_rows)
        assert len(packed) == len(roots)
        for root, column in zip(roots.values(), packed):
            assert len(column) == (num_rows + 63) // 64
            # No bits beyond the last row, even for negated roots.
            assert column == [] or column[-1] >> (num_rows - 64 * (len(column) - 1)) == 0
            for index, row in enumerate(rows):
                bit = (column[index // 64] >> (index % 64)) & 1
                assert bool(bit) == eval_expr(root, row)
        # Roots without variables read no column.
        constants = compile_outputs({"true": TRUE, "false": FALSE})
        assert constants.evaluate_packed({}, num_rows) == [
            pack_bools([True] * num_rows),
            pack_bools([False] * num_rows),
        ]

    def test_wide_sweep_crosses_word_boundary(self):
        # Seven variables: 128 assignments spread over two 64-bit words.
        # The disjunction fails only at assignment 0 (first word), the
        # conjunction holds only at assignment 127 (second word).
        variables = [Var(name) for name in VARIABLE_NAMES[:7]]
        anything = Or(*variables)
        everything = And(*variables)
        assert not bitparallel_tautology(anything)
        assert bitparallel_tautology(Or(anything, And(*(Not(v) for v in variables))))
        assert bitparallel_satisfiable(everything)
        assert not bitparallel_satisfiable(And(everything, Not(variables[-1])))


class TestCompiledOutputs:
    @pytest.mark.parametrize("num_rows", [1, 63, 64, 65, 127, 128, 129])
    def test_packed_columns_at_word_boundaries(self, num_rows):
        rng = random.Random(num_rows)
        a, b, c = Var("a"), Var("b"), Var("c")
        roots = {"not_a": Not(a), "implies": Implies(And(a, b), c), "true": TRUE}
        rows = [{name: rng.random() < 0.5 for name in "abc"} for _ in range(num_rows)]

        def bit_by_bit(values):
            # Row k sets bit k % 64 of word k // 64.
            words = [0] * ((num_rows + 63) // 64)
            for k, value in enumerate(values):
                if value:
                    words[k // 64] |= 1 << (k % 64)
            return words

        columns = {name: pack_bools(row[name] for row in rows) for name in "abc"}
        assert columns == {name: bit_by_bit(row[name] for row in rows) for name in "abc"}
        packed = compile_outputs(roots).evaluate_packed(columns, num_rows)
        expected = [
            bit_by_bit(eval_expr(root, row) for row in rows) for root in roots.values()
        ]
        assert packed == expected
        assert all(len(column) == (num_rows + 63) // 64 for column in packed)

    def test_shared_subexpressions_are_evaluated_once(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        shared = And(a, b)
        compiled = compile_outputs({"x": Or(shared, c), "y": Not(shared), "z": shared})
        assert compiled.source.count("v0 & v1") == 1
        assert compiled.names == ("a", "b", "c")
        words = compiled([0b1100, 0b1010, 0b0001], 0b1111)
        assert [word & 0b1111 for word in words] == [0b1001, 0b0111, 0b1000]

    def test_order_fixes_argument_positions(self):
        compiled = compile_outputs({"f": And(Var("a"), Not(Var("b")))}, order=["b", "x", "a"])
        assert compiled.names == ("b", "x", "a")
        assert compiled([0b01, 0b11, 0b11], 0b11) == (0b10,)
        with pytest.raises(ValueError, match=r"order is missing variables \['a'\]"):
            compile_outputs({"f": Var("a")}, order=["b"])

    def test_outputs_keep_their_keys_and_order(self):
        roots = {("p", 1): Var("b"), ("p", 0): Var("a"), 7: FALSE}
        compiled = compile_outputs(roots)
        assert compiled.outputs == (("p", 1), ("p", 0), 7)
        assert compiled([0b01, 0b10], 0b11) == (0b10, 0b01, 0)
        assert compile_outputs({}).evaluate_packed({}, 100) == []

    def test_missing_packed_column_is_named(self):
        compiled = compile_outputs({"f": Or(Var("a"), Var("b"))})
        with pytest.raises(KeyError, match="no packed column for variable 'b'"):
            compiled.evaluate_packed({"a": [1]}, 1)


class TestCompileReuse:
    @pytest.fixture
    def generated(self, monkeypatch):
        """Every ``(roots, names)`` generated, starting from an empty compile cache."""
        compile_module._compiled.cache_clear()
        generated = []
        real_generate = compile_module._generate

        def counting_generate(roots, names):
            generated.append((roots, names))
            return real_generate(roots, names)

        monkeypatch.setattr(compile_module, "_generate", counting_generate)
        return generated

    def test_job_compiles_each_formula_set_once(self, generated, monkeypatch):
        # One word function per formula set: per closed-form interlock
        # input order, per assertion monitor, per stall classification
        # and per coverage call -- never one per formula, and never twice
        # for equal formulas.
        clear_warm_state()
        built = {ClosedFormInterlock: [], AssertionMonitor: []}
        for cls, instances in built.items():
            monkeypatch.setattr(cls, "__init__", _recording_init(cls.__init__, instances))
        analysis_calls = []
        for name in ("classify_stalls", "coverage_of"):
            monkeypatch.setattr(
                runner, name, _recording_call(getattr(runner, name), analysis_calls)
            )
        try:
            result = run_verification_job(JobSpec(arch="dac2002-example"))
        finally:
            clear_warm_state()
        assert result.ok, result.error
        assert [stage.name for stage in result.stages] == list(CANONICAL_STAGES)
        assert sorted(analysis_calls) == ["classify_stalls", "coverage_of"]
        input_orders = sum(
            len(interlock._row_functions) for interlock in built[ClosedFormInterlock]
        )
        assert input_orders > 1
        monitors = built[AssertionMonitor]
        assert len(monitors) == 2  # the faults and analysis stages
        # The analysis monitor reuses the faults monitor's function.
        assert monitors[0]._compiled._func is monitors[1]._compiled._func
        info = compile_module._compiled.cache_info()
        assert info.hits + info.misses == input_orders + len(monitors) + 2
        assert len(set(generated)) == len(generated) == info.misses < info.hits + info.misses

    def test_new_seed_compiles_only_the_seed_dependent_mutant(self, generated, monkeypatch):
        # At max_faults=4 only the extra-stall mutant's trigger depends on
        # the workload seed: a second job on the warm architecture compiles
        # that mutant's row function and nothing else.
        clear_warm_state()
        interlocks = []
        try:
            first = run_verification_job(JobSpec(arch="dac2002-example", workload_seed=0))
            assert first.ok, first.error
            generated.clear()
            monkeypatch.setattr(
                ClosedFormInterlock,
                "__init__",
                _recording_init(ClosedFormInterlock.__init__, interlocks),
            )
            second = run_verification_job(JobSpec(arch="dac2002-example", workload_seed=1))
        finally:
            clear_warm_state()
        assert second.ok, second.error
        (extra_stall,) = [i for i in interlocks if i.name.startswith("perf-fault(")]
        assert [roots for roots, _ in generated] == [tuple(extra_stall.expressions().values())]


class TestCompileCache:
    def test_equal_roots_hit_and_a_new_order_misses(self):
        compile_module._compiled.cache_clear()
        first_root, second_root = (And(Var("a"), Not(Var("b"))) for _ in range(2))
        assert first_root is not second_root
        first = compile_outputs({"f": first_root})
        again = compile_outputs({"g": second_root})
        assert again._func is first._func
        assert again.outputs == ("g",)
        assert compile_module._compiled.cache_info()[:2] == (1, 1)
        reordered = compile_outputs({"f": first_root}, order=["b", "a"])
        assert reordered._func is not first._func
        assert reordered.names == ("b", "a")
        assert compile_module._compiled.cache_info()[:2] == (1, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(expressions(10), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=200),
        st.randoms(use_true_random=False),
    )
    def test_cached_function_matches_a_fresh_compile(self, roots, num_rows, rng):
        keyed = dict(enumerate(roots))
        compile_outputs(keyed)
        cached = compile_outputs(keyed)
        func, source = compile_module._generate(tuple(roots), cached.names)
        fresh = compile_module.CompiledOutputs(cached.outputs, cached.names, func, source)
        columns = {
            name: pack_bools(rng.random() < 0.5 for _ in range(num_rows))
            for name in cached.names
        }
        assert cached.evaluate_packed(columns, num_rows) == fresh.evaluate_packed(
            columns, num_rows
        )


def _recording_init(init, instances):
    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        instances.append(self)

    return recording_init


def _recording_call(function, calls):
    def recording_call(*args, **kwargs):
        calls.append(function.__name__)
        return function(*args, **kwargs)

    return recording_call


class TestFusedQuantification:
    @settings(max_examples=60, deadline=None)
    @given(expressions(10), expressions(10), st.data())
    def test_and_exists_agrees_with_and_then_exists(self, left, right, data):
        quantified = data.draw(
            st.lists(st.sampled_from(VARIABLE_NAMES), max_size=4, unique=True)
        )
        manager = BddManager(VARIABLE_NAMES)
        left_node = compile_expr(manager, left)
        right_node = compile_expr(manager, right)
        fused = manager.and_exists(left_node, right_node, quantified)
        unfused = manager.exists(manager.and_(left_node, right_node), quantified)
        assert fused == unfused

    @settings(max_examples=60, deadline=None)
    @given(expressions(10), st.data())
    def test_multi_variable_pass_agrees_with_one_at_a_time(self, expr, data):
        quantified = data.draw(
            st.lists(st.sampled_from(VARIABLE_NAMES), max_size=4, unique=True)
        )
        manager = BddManager(VARIABLE_NAMES)
        node = compile_expr(manager, expr)
        exists_once = manager.exists(node, quantified)
        forall_once = manager.forall(node, quantified)
        exists_seq, forall_seq = node, node
        for name in quantified:
            exists_seq = manager.or_(
                manager.restrict(exists_seq, name, False),
                manager.restrict(exists_seq, name, True),
            )
            forall_seq = manager.and_(
                manager.restrict(forall_seq, name, False),
                manager.restrict(forall_seq, name, True),
            )
        assert exists_once == exists_seq
        assert forall_once == forall_seq


class TestIterativeKernel:
    def test_ite_depth_beyond_python_recursion_limit(self):
        # A conjunction chain deeper than the recursion limit: the explicit
        # work stack must walk it without raising RecursionError.
        depth = sys.getrecursionlimit() + 500
        manager = BddManager()
        conjunction = manager.and_all(manager.var(f"x{i}") for i in range(depth))
        assert manager.dag_size(conjunction) == depth
        assert manager.not_(manager.not_(conjunction)) == conjunction

    def test_commuted_calls_share_cache_entries(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        assert manager.and_(x, y) == manager.and_(y, x)
        assert manager.or_(x, y) == manager.or_(y, x)
        before = len(manager._op_cache)
        manager.and_(y, x)  # must be a pure cache hit
        assert len(manager._op_cache) == before


class TestBandedReduction:
    """Deterministic work of the banded and_all/or_all reduction."""

    def test_firepath_stall_conditions_compile_band_by_band(self):
        # Each 64-register stall condition is an Or of per-register cubes,
        # one band of the register-interleaved order per register: folding
        # the bands bottom-up builds each band once (a balanced tree over
        # all cubes took 13,858 op-cache entries and 17,363 live nodes).
        spec = build_functional_spec(firepath_like_architecture(num_registers=64))
        context = SymbolicContext(derivation_order(spec))
        for clause in spec.clauses:
            context.lift(clause.condition)
        stats = context.manager.stats()
        assert stats.op_cache_entries <= 4_000
        assert stats.live_nodes <= 8_000
        assert stats.bands_folded > 0

    @pytest.mark.parametrize(
        "arch_name, op_cache_entries, live_nodes",
        [
            ("dac2002-example", 3_113, 2_873),
            ("risc5", 617, 707),
            ("fam-r4w2d5s1-bypass", 826, 859),
            ("fam-r8w3d6s1-bypass-ls-wait", 85_772, 54_948),
        ],
    )
    def test_overlapping_environment_lift_is_one_tree(
        self, arch_name, op_cache_entries, live_nodes
    ):
        # The environment's assumptions overlap across the whole order, so
        # they form one band and reduce exactly as the plain balanced tree.
        arch = load_architecture(arch_name)
        context = SymbolicContext(derivation_order(build_functional_spec(arch)))
        context.lift(environment_formula(arch))
        stats = context.manager.stats()
        assert (stats.op_cache_entries, stats.live_nodes) == (op_cache_entries, live_nodes)


class TestAllAssignments:
    def test_reuse_is_not_an_option(self):
        # Every row is a fresh dict; there is no in-place mode.
        with pytest.raises(TypeError):
            all_assignments(["x", "y"], reuse=True)


class TestBenchRunner:
    def test_quick_smoke_and_regression_gate(self, tmp_path):
        from repro.perf import check_against_baseline, run_benchmarks, write_results

        results = run_benchmarks(names=["bmc_stuck_reset"], quick=True)
        assert results["bmc_stuck_reset"].seconds >= 0.0
        baseline = tmp_path / "baseline.json"
        write_results(results, str(baseline))
        payload = json.loads(baseline.read_text())
        assert "bmc_stuck_reset" in payload["scenarios"]
        # Against its own timings nothing regresses ...
        assert check_against_baseline(results, str(baseline), tolerance=1000.0) == []
        # ... and an absurdly tight tolerance flags the scenario (slack
        # disabled so a milliseconds-scale excess is not forgiven).
        failures = check_against_baseline(
            results, str(baseline), tolerance=1e-9, slack=0.0
        )
        assert failures and "bmc_stuck_reset" in failures[0]
        # With the default absolute slack the same millisecond-scale excess
        # is noise, not a regression.
        assert check_against_baseline(results, str(baseline), tolerance=1e-9) == []

    @pytest.mark.parametrize(
        "baseline",
        [
            "BENCH_PR1.json",
            "BENCH_PR2.json",
            "BENCH_PR6.json",
            "BENCH_PR10.json",
            "BENCH_QUICK.json",
        ],
    )
    def test_committed_baselines_load(self, baseline):
        from repro.perf import check_against_baseline
        from repro.perf.bench import SCHEMA_VERSION, BenchResult

        path = Path(__file__).resolve().parents[1] / baseline
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["scenarios"]
        own = {
            name: BenchResult(
                name=name,
                seconds=entry["seconds"],
                repeat=entry["repeat"],
                quick=bool(entry.get("quick")),
            )
            for name, entry in payload["scenarios"].items()
        }
        assert check_against_baseline(own, str(path), tolerance=1.0, slack=0.0) == []
        slower = {
            name: replace(result, seconds=2 * result.seconds + 1) for name, result in own.items()
        }
        failures = check_against_baseline(slower, str(path), tolerance=1.5, slack=0.0)
        assert len(failures) == len(own)

    def test_baseline_without_top_level_scenarios_is_rejected(self, tmp_path):
        from repro.perf import check_against_baseline

        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps({"current": {"scenarios": {}}}))
        with pytest.raises(ValueError, match="no 'scenarios' section"):
            check_against_baseline({}, str(nested))

    def test_unknown_scenario_rejected(self):
        from repro.perf import run_benchmarks

        with pytest.raises(ValueError):
            run_benchmarks(names=["no-such-scenario"])
