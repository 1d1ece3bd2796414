"""RPL009 suppressed: a deliberately unordered context, silenced in place."""

from repro.symbolic import SymbolicContext


def two_variable_probe(expr):
    # Two variables, no registers: the declaration order cannot blow up.
    return SymbolicContext().lift(expr).is_true()  # repro: noqa[RPL009]
