"""RPL009 true positive: contexts whose variable order is left to chance."""

from repro import symbolic
from repro.symbolic import SymbolicContext


def is_valid(expr):
    # Variables are declared as the formula first mentions them: for
    # scoreboard terms that is the concatenated, exponential order.
    return SymbolicContext().lift(expr).is_true()


def module_qualified_context():
    return symbolic.SymbolicContext()
