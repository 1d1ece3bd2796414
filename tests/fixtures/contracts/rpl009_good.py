"""RPL009 clean: every context is built with a variable order."""

from repro.bdd.ordering import register_interleaved_order
from repro.symbolic import SymbolicContext


def is_valid(expr, signals):
    context = SymbolicContext(register_interleaved_order(signals))
    return context.lift(expr).is_true()


def derivation_context(order):
    return SymbolicContext(variable_order=order)
