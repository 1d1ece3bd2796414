"""Tests for the CDCL SAT solver, DIMACS IO and the expression-level interface."""

import pytest

from repro.expr import And, Iff, Implies, Not, Or, Var, vars_
from repro.sat import (
    CdclSolver,
    check_consistent,
    check_equivalent,
    check_implies,
    check_satisfiable,
    check_valid,
    from_dimacs,
    solve_clauses,
    to_dimacs,
)
from repro.sat.solver import _luby


class TestSolverCore:
    def test_empty_problem_is_satisfiable(self):
        assert solve_clauses(0, []).satisfiable

    def test_single_unit_clause(self):
        result = solve_clauses(1, [(1,)])
        assert result.satisfiable
        assert result.assignment[1] is True

    def test_contradictory_units(self):
        assert not solve_clauses(1, [(1,), (-1,)]).satisfiable

    def test_empty_clause_unsatisfiable(self):
        assert not solve_clauses(1, [()]).satisfiable

    def test_simple_satisfiable(self):
        result = solve_clauses(3, [(1, 2), (-1, 3), (-2, -3)])
        assert result.satisfiable
        assignment = result.assignment
        assert (assignment[1] or assignment[2]) and (not assignment[1] or assignment[3])
        assert not (assignment[2] and assignment[3])

    def test_pigeonhole_unsatisfiable(self):
        # 3 pigeons in 2 holes: variables p_{i,h} = 2*i + h + 1.
        clauses = []
        for pigeon in range(3):
            clauses.append((2 * pigeon + 1, 2 * pigeon + 2))
        for hole in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    clauses.append((-(2 * p1 + hole + 1), -(2 * p2 + hole + 1)))
        assert not solve_clauses(6, clauses).satisfiable

    def test_tautological_clause_skipped(self):
        result = solve_clauses(2, [(1, -1), (2,)])
        assert result.satisfiable
        assert result.assignment[2] is True

    def test_duplicate_literals_collapsed(self):
        assert solve_clauses(1, [(1, 1)]).satisfiable

    def test_model_satisfies_all_clauses(self):
        clauses = [(1, -2, 3), (-1, 2), (-3, -2), (2, 3), (1, -3)]
        result = solve_clauses(3, clauses)
        assert result.satisfiable
        model = result.assignment
        for clause in clauses:
            assert any(
                model.get(abs(lit), False) == (lit > 0) for lit in clause
            ), f"model violates clause {clause}"

    def test_assumptions_satisfiable_and_unsatisfiable(self):
        solver = CdclSolver(2, [(1, 2)])
        assert solver.solve(assumptions=[-1]).satisfiable
        solver = CdclSolver(2, [(1,), (-1, 2)])
        assert not solver.solve(assumptions=[-2]).satisfiable

    def test_solver_reusable_after_solve(self):
        solver = CdclSolver(2, [(1, 2)])
        first = solver.solve()
        second = solver.solve(assumptions=[-1])
        assert first.satisfiable and second.satisfiable

    def test_statistics_populated(self):
        result = solve_clauses(3, [(1, 2), (-1, 3), (-2, -3), (2, 3)])
        assert result.satisfiable
        assert result.propagations >= 0
        assert result.decisions >= 0


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            _luby(0)


class TestDimacs:
    def test_roundtrip(self):
        clauses = [(1, -2), (2, 3), (-1,)]
        text = to_dimacs(3, clauses, comments=["example"])
        num_vars, parsed = from_dimacs(text)
        assert num_vars == 3
        assert parsed == clauses

    def test_header_and_comment_format(self):
        text = to_dimacs(2, [(1, 2)], comments=["hello"])
        assert text.splitlines()[0] == "c hello"
        assert "p cnf 2 1" in text

    def test_parse_rejects_malformed_problem_line(self):
        with pytest.raises(ValueError):
            from_dimacs("p cnf 2\n1 0\n")

    def test_parse_rejects_clause_count_mismatch(self):
        with pytest.raises(ValueError):
            from_dimacs("p cnf 2 2\n1 0\n")

    def test_parse_ignores_comments_and_blank_lines(self):
        num_vars, clauses = from_dimacs("c comment\n\np cnf 2 1\n1 -2 0\n")
        assert num_vars == 2 and clauses == [(1, -2)]


class TestExpressionInterface:
    def test_check_satisfiable_returns_model(self):
        a, b = vars_("a", "b")
        decision = check_satisfiable(And(a, Not(b)))
        assert decision
        assert decision.model == {"a": True, "b": False}

    def test_check_satisfiable_unsat(self):
        a = Var("a")
        assert not check_satisfiable(And(a, Not(a)))

    def test_check_valid(self):
        a, b = vars_("a", "b")
        assert check_valid(Or(a, Not(a)))
        decision = check_valid(Implies(a, b))
        assert not decision
        assert decision.model["a"] is True and decision.model["b"] is False

    def test_check_equivalent(self):
        a, b, c = vars_("a", "b", "c")
        assert check_equivalent(And(a, Or(b, c)), Or(And(a, b), And(a, c)))
        assert not check_equivalent(Implies(a, b), Implies(b, a))

    def test_check_implies(self):
        a, b = vars_("a", "b")
        assert check_implies(And(a, b), a)
        assert not check_implies(a, And(a, b))

    def test_check_consistent(self):
        a, b = vars_("a", "b")
        assert check_consistent(a, Implies(a, b), b)
        assert not check_consistent(a, Not(a))
        assert check_consistent()

    def test_agreement_with_bdd_backend(self):
        from repro.symbolic import SymbolicContext

        a, b, c = vars_("a", "b", "c")
        formulas = [
            Iff(Implies(a, b), Or(Not(a), b)),
            Implies(And(a, b), c),
            And(a, Not(a)),
            Or(a, b, c),
        ]
        context = SymbolicContext()
        for formula in formulas:
            function = context.lift(formula)
            assert bool(check_valid(formula)) == function.is_true()
            assert bool(check_satisfiable(formula)) == function.is_satisfiable()
