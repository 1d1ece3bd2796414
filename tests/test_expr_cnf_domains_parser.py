"""Tests for CNF conversion, the parser and the printers."""

import pytest

from repro.expr import (
    And,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    TRUE,
    Var,
    all_assignments,
    distribute_to_cnf,
    eval_expr,
    parse_expr,
    to_cnf_clauses,
    to_text,
    to_unicode,
    to_verilog,
    vars_,
)
from repro.sat import solve_clauses


class TestTseitinCnf:
    def _equisatisfiable(self, expr):
        cnf = to_cnf_clauses(expr)
        result = solve_clauses(cnf.num_vars, cnf.clauses)
        names = expr.variables()
        brute = any(eval_expr(expr, a) for a in all_assignments(names))
        assert bool(result) == brute
        return cnf, result

    def test_simple_satisfiable(self):
        a, b = vars_("a", "b")
        cnf, result = self._equisatisfiable(And(a, Not(b)))
        assert result.satisfiable
        assert result.assignment[cnf.id_for("a")] is True
        assert result.assignment[cnf.id_for("b")] is False

    def test_unsatisfiable(self):
        a = Var("a")
        _, result = self._equisatisfiable(And(a, Not(a)))
        assert not result.satisfiable

    def test_derived_operators(self):
        a, b, c = vars_("a", "b", "c")
        self._equisatisfiable(Iff(Implies(a, b), Not(c)))

    def test_constants(self):
        cnf = to_cnf_clauses(TRUE)
        assert solve_clauses(cnf.num_vars, cnf.clauses).satisfiable
        cnf = to_cnf_clauses(FALSE)
        assert not solve_clauses(cnf.num_vars, cnf.clauses).satisfiable

    def test_root_is_unit_clause(self):
        a, b = vars_("a", "b")
        cnf = to_cnf_clauses(Or(a, b))
        assert (cnf.root,) in cnf.clauses

    def test_var_ids_are_unique(self):
        a, b, c = vars_("a", "b", "c")
        cnf = to_cnf_clauses(And(a, b, c))
        assert len(set(cnf.var_ids.values())) == 3


class TestDistributedCnf:
    def test_result_is_conjunction_of_clauses(self):
        a, b, c = vars_("a", "b", "c")
        cnf = distribute_to_cnf(Or(And(a, b), c))
        assert isinstance(cnf, And)
        for clause in cnf.operands:
            assert isinstance(clause, (Or, Var, Not))

    def test_semantics_preserved(self):
        a, b, c = vars_("a", "b", "c")
        original = Iff(Implies(a, b), c)
        cnf = distribute_to_cnf(original)
        for assignment in all_assignments(["a", "b", "c"]):
            assert eval_expr(original, assignment) == eval_expr(cnf, assignment)


class TestParserAndPrinters:
    def test_parse_simple(self):
        assert parse_expr("a & b") == And(Var("a"), Var("b"))
        assert parse_expr("a | b | c") == Or(Var("a"), Var("b"), Var("c"))
        assert parse_expr("!a") == Not(Var("a"))

    def test_parse_precedence(self):
        parsed = parse_expr("a & b | c")
        assert isinstance(parsed, Or)
        parsed = parse_expr("!a & b")
        assert parsed == And(Not(Var("a")), Var("b"))

    def test_parse_implication_right_associative(self):
        parsed = parse_expr("a -> b -> c")
        assert parsed == Implies(Var("a"), Implies(Var("b"), Var("c")))

    def test_parse_iff_and_parentheses(self):
        parsed = parse_expr("(a | b) <-> c")
        assert parsed == Iff(Or(Var("a"), Var("b")), Var("c"))

    def test_parse_constants(self):
        assert parse_expr("True") == TRUE
        assert parse_expr("False") == FALSE

    def test_parse_dotted_and_indexed_identifiers(self):
        parsed = parse_expr("long.1.rtm & !long.2.moe | scb[3] & c.regaddr=3")
        assert "long.1.rtm" in parsed.variables()
        assert "long.2.moe" in parsed.variables()
        assert "scb[3]" in parsed.variables()
        assert "c.regaddr=3" in parsed.variables()

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_expr("")
        with pytest.raises(ParseError):
            parse_expr("a &")
        with pytest.raises(ParseError):
            parse_expr("(a | b")
        with pytest.raises(ParseError):
            parse_expr("a ? b")
        with pytest.raises(ParseError):
            parse_expr("a b")

    def test_roundtrip_through_text(self):
        a, b, c = vars_("a", "b", "c")
        original = Implies(And(a, Not(b)), Or(c, a))
        assert parse_expr(to_text(original)) == original

    def test_unicode_printer(self):
        a, b = vars_("a", "b")
        rendered = to_unicode(Implies(And(a, Not(b)), b))
        assert "∧" in rendered and "¬" in rendered and "→" in rendered

    def test_verilog_printer(self):
        a, b = vars_("a", "b")
        assert to_verilog(And(a, Not(b))) == "a && !b"
        assert to_verilog(TRUE) == "1'b1"
        assert to_verilog(Implies(a, b)) == "!a || b"
        assert "==" in to_verilog(Iff(a, b))

    def test_text_printer_parenthesises_by_precedence(self):
        a, b, c = vars_("a", "b", "c")
        assert to_text(And(Or(a, b), c)) == "(a | b) & c"
        assert to_text(Or(And(a, b), c)) == "a & b | c"
