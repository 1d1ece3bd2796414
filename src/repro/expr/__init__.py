"""Boolean expression substrate.

This package provides the specification language of the reproduction: an
immutable expression AST (:mod:`repro.expr.ast`), constructors
(:mod:`repro.expr.builders`), evaluation (:mod:`repro.expr.evaluate`),
structural transformations (:mod:`repro.expr.transform`), CNF conversion
(:mod:`repro.expr.cnf`), a parser (:mod:`repro.expr.parser`) and
printers (:mod:`repro.expr.printer`).
"""

from .ast import (
    And,
    Const,
    Expr,
    FALSE,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    TRUE,
    Var,
    coerce,
    variables_of,
)
from .builders import (
    at_most_one,
    big_and,
    big_or,
    var,
)
from .cnf import CnfResult, to_cnf_clauses
from .compile import (
    CompiledOutputs,
    bitparallel_satisfiable,
    bitparallel_tautology,
    compile_outputs,
    pack_bools,
)
from .evaluate import (
    UnboundVariableError,
    all_assignments,
    eval_expr,
    is_satisfiable_by_enumeration,
    is_tautology_by_enumeration,
)
from .parser import ParseError, parse_expr
from .printer import to_text, to_unicode, to_verilog, to_vhdl
from .transform import (
    eliminate_derived,
    polarity_of_variables,
    rename,
    simplify,
    substitute,
)

__all__ = [
    "And",
    "Const",
    "Expr",
    "FALSE",
    "Iff",
    "Implies",
    "Ite",
    "Not",
    "Or",
    "TRUE",
    "Var",
    "coerce",
    "variables_of",
    "at_most_one",
    "big_and",
    "big_or",
    "var",
    "CnfResult",
    "to_cnf_clauses",
    "CompiledOutputs",
    "bitparallel_satisfiable",
    "bitparallel_tautology",
    "compile_outputs",
    "pack_bools",
    "UnboundVariableError",
    "all_assignments",
    "eval_expr",
    "is_satisfiable_by_enumeration",
    "is_tautology_by_enumeration",
    "ParseError",
    "parse_expr",
    "to_text",
    "to_unicode",
    "to_verilog",
    "to_vhdl",
    "eliminate_derived",
    "polarity_of_variables",
    "rename",
    "simplify",
    "substitute",
]
