"""Conversion of expressions to conjunctive normal form.

:func:`to_cnf_clauses` is a Tseitin encoding producing an equisatisfiable
clause set over integer literals, suitable for the SAT solver in
:mod:`repro.sat`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .ast import And, Const, Expr, Iff, Implies, Ite, Not, Or, Var
from .transform import eliminate_derived

Clause = Tuple[int, ...]


@dataclass
class CnfResult:
    """Result of a Tseitin conversion.

    Attributes:
        clauses: list of clauses over integer literals (DIMACS convention:
            positive literal = variable true, negative = false).
        var_ids: mapping from source variable names to positive integers.
        num_vars: total variable count including auxiliary Tseitin variables.
        root: the literal asserting the whole formula (already added as a
            unit clause).
    """

    clauses: List[Clause] = field(default_factory=list)
    var_ids: Dict[str, int] = field(default_factory=dict)
    num_vars: int = 0
    root: int = 0


class _TseitinEncoder:
    def __init__(self) -> None:
        self.clauses: List[Clause] = []
        self.var_ids: Dict[str, int] = {}
        self.counter = 0
        self.cache: Dict[Expr, int] = {}

    def fresh(self) -> int:
        self.counter += 1
        return self.counter

    def literal_for_var(self, name: str) -> int:
        if name not in self.var_ids:
            self.var_ids[name] = self.fresh()
        return self.var_ids[name]

    def encode(self, expr: Expr) -> int:
        """Return a literal equivalent to ``expr``, adding defining clauses."""
        if expr in self.cache:
            return self.cache[expr]
        lit = self._encode_uncached(expr)
        self.cache[expr] = lit
        return lit

    def _encode_uncached(self, expr: Expr) -> int:
        if isinstance(expr, Const):
            lit = self.fresh()
            self.clauses.append((lit,) if expr.value else (-lit,))
            return lit
        if isinstance(expr, Var):
            return self.literal_for_var(expr.name)
        if isinstance(expr, Not):
            return -self.encode(expr.operand)
        if isinstance(expr, And):
            lits = [self.encode(op) for op in expr.operands]
            out = self.fresh()
            for lit in lits:
                self.clauses.append((-out, lit))
            self.clauses.append(tuple([out] + [-lit for lit in lits]))
            return out
        if isinstance(expr, Or):
            lits = [self.encode(op) for op in expr.operands]
            out = self.fresh()
            for lit in lits:
                self.clauses.append((out, -lit))
            self.clauses.append(tuple([-out] + lits))
            return out
        if isinstance(expr, (Implies, Iff, Ite)):
            return self.encode(eliminate_derived(expr))
        raise TypeError(f"cannot encode node {type(expr).__name__}")


def to_cnf_clauses(expr: Expr) -> CnfResult:
    """Tseitin-encode ``expr`` into an equisatisfiable CNF."""
    encoder = _TseitinEncoder()
    root = encoder.encode(expr)
    encoder.clauses.append((root,))
    return CnfResult(
        clauses=encoder.clauses,
        var_ids=encoder.var_ids,
        num_vars=encoder.counter,
        root=root,
    )
