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
    eval_expr,
    parse_expr,
    to_cnf_clauses,
    to_text,
    to_unicode,
    to_verilog,
)
from repro.sat import CdclSolver


class TestTseitinCnf:
    def _equisatisfiable(self, expr):
        cnf = to_cnf_clauses(expr)
        result = CdclSolver(cnf.num_vars, cnf.clauses).solve()
        names = expr.variables()
        brute = any(eval_expr(expr, a) for a in all_assignments(names))
        assert bool(result) == brute
        return cnf, result

    def test_simple_satisfiable(self):
        a, b = map(Var, "ab")
        cnf, result = self._equisatisfiable(And(a, Not(b)))
        assert result.satisfiable
        assert result.assignment[cnf.var_ids["a"]] is True
        assert result.assignment[cnf.var_ids["b"]] is False

    def test_unsatisfiable(self):
        a = Var("a")
        _, result = self._equisatisfiable(And(a, Not(a)))
        assert not result.satisfiable

    def test_derived_operators(self):
        a, b, c = map(Var, "abc")
        self._equisatisfiable(Iff(Implies(a, b), Not(c)))

    def test_constants(self):
        cnf = to_cnf_clauses(TRUE)
        assert CdclSolver(cnf.num_vars, cnf.clauses).solve().satisfiable
        cnf = to_cnf_clauses(FALSE)
        assert not CdclSolver(cnf.num_vars, cnf.clauses).solve().satisfiable

    def test_root_is_unit_clause(self):
        a, b = map(Var, "ab")
        cnf = to_cnf_clauses(Or(a, b))
        assert (cnf.root,) in cnf.clauses

    def test_var_ids_are_unique(self):
        a, b, c = map(Var, "abc")
        cnf = to_cnf_clauses(And(a, b, c))
        assert len(set(cnf.var_ids.values())) == 3


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
        a, b, c = map(Var, "abc")
        original = Implies(And(a, Not(b)), Or(c, a))
        assert parse_expr(to_text(original)) == original

    def test_unicode_printer(self):
        a, b = map(Var, "ab")
        rendered = to_unicode(Implies(And(a, Not(b)), b))
        assert "∧" in rendered and "¬" in rendered and "→" in rendered

    def test_verilog_printer(self):
        a, b = map(Var, "ab")
        assert to_verilog(And(a, Not(b))) == "a && !b"
        assert to_verilog(TRUE) == "1'b1"
        assert to_verilog(Implies(a, b)) == "!a || b"
        assert "==" in to_verilog(Iff(a, b))

    def test_text_printer_parenthesises_by_precedence(self):
        a, b, c = map(Var, "abc")
        assert to_text(And(Or(a, b), c)) == "(a | b) & c"
        assert to_text(Or(And(a, b), c)) == "a & b | c"
