"""Tests for the VHDL expression printer (repro.expr.printer.to_vhdl)."""

from repro.expr import FALSE, TRUE, Iff, Implies, Ite, Var, parse_expr, to_vhdl


class TestVhdlOperators:
    def test_variable(self):
        assert to_vhdl(Var("moe_long_1")) == "moe_long_1"

    def test_constants(self):
        assert to_vhdl(TRUE) == "'1'"
        assert to_vhdl(FALSE) == "'0'"

    def test_negation(self):
        assert to_vhdl(~Var("a")) == "not a"

    def test_negation_of_conjunction_is_parenthesised(self):
        text = to_vhdl(~(Var("a") & Var("b")))
        assert text == "not (a and b)"

    def test_and_or_keywords(self):
        assert to_vhdl(Var("a") & Var("b")) == "a and b"
        assert to_vhdl(Var("a") | Var("b")) == "a or b"

    def test_mixed_and_or_requires_parentheses(self):
        # VHDL rejects `a and b or c`; the printer must parenthesise.
        text = to_vhdl(parse_expr("a & b | c"))
        assert text == "(a and b) or c"

    def test_or_inside_and_is_parenthesised(self):
        text = to_vhdl(parse_expr("a & (b | c)"))
        assert text == "a and (b or c)"

    def test_nested_same_operator_keeps_flat_rendering(self):
        text = to_vhdl(parse_expr("a & b & c"))
        assert text == "a and b and c"

    def test_implication_rewritten(self):
        text = to_vhdl(Implies(Var("req"), Var("stall")))
        assert text == "(not (req)) or (stall)"

    def test_iff_uses_equality(self):
        text = to_vhdl(Iff(Var("a"), Var("b")))
        assert text == "(a) = (b)"

    def test_ite_uses_when_else(self):
        text = to_vhdl(Ite(Var("sel"), Var("x"), Var("y")))
        assert text == "(x) when (sel) else (y)"

    def test_not_literal_inside_and_is_legal(self):
        text = to_vhdl(parse_expr("a & !b"))
        assert text == "a and not b"


class TestVhdlBalancedParentheses:
    def test_parentheses_balance_on_large_expression(self):
        expr = parse_expr("(a & !b | c) & (d | e & !f) | !(g & h)")
        text = to_vhdl(expr)
        assert text.count("(") == text.count(")")
        for token in ("&&", "||", "!", "<->", "->"):
            assert token not in text
