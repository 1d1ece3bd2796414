"""Tests for the CDCL SAT solver and the expression-level interface."""

import pytest

from repro.expr import And, Iff, Implies, Not, Or, Var
from repro.sat import (
    CdclSolver,
    check_satisfiable,
    check_valid,
)
from repro.sat.solver import _luby


class TestSolverCore:
    def test_empty_problem_is_satisfiable(self):
        assert CdclSolver(0, []).solve().satisfiable

    def test_single_unit_clause(self):
        result = CdclSolver(1, [(1,)]).solve()
        assert result.satisfiable
        assert result.assignment[1] is True

    def test_contradictory_units(self):
        assert not CdclSolver(1, [(1,), (-1,)]).solve().satisfiable

    def test_empty_clause_unsatisfiable(self):
        assert not CdclSolver(1, [()]).solve().satisfiable

    def test_simple_satisfiable(self):
        result = CdclSolver(3, [(1, 2), (-1, 3), (-2, -3)]).solve()
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
        assert not CdclSolver(6, clauses).solve().satisfiable

    def test_tautological_clause_skipped(self):
        result = CdclSolver(2, [(1, -1), (2,)]).solve()
        assert result.satisfiable
        assert result.assignment[2] is True

    def test_duplicate_literals_collapsed(self):
        assert CdclSolver(1, [(1, 1)]).solve().satisfiable

    def test_model_satisfies_all_clauses(self):
        clauses = [(1, -2, 3), (-1, 2), (-3, -2), (2, 3), (1, -3)]
        result = CdclSolver(3, clauses).solve()
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
        result = CdclSolver(3, [(1, 2), (-1, 3), (-2, -3), (2, 3)]).solve()
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


class TestExpressionInterface:
    def test_check_satisfiable_returns_model(self):
        a, b = map(Var, "ab")
        decision = check_satisfiable(And(a, Not(b)))
        assert decision
        assert decision.model == {"a": True, "b": False}

    def test_check_satisfiable_unsat(self):
        a = Var("a")
        assert not check_satisfiable(And(a, Not(a)))

    def test_check_valid(self):
        a, b = map(Var, "ab")
        assert check_valid(Or(a, Not(a)))
        decision = check_valid(Implies(a, b))
        assert not decision
        assert decision.model["a"] is True and decision.model["b"] is False

    def test_agreement_with_bdd_backend(self):
        from repro.symbolic import SymbolicContext

        a, b, c = map(Var, "abc")
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
            assert bool(check_satisfiable(formula)) != function.is_false()
