"""RPL008 clean: decision procedures go through SymbolicContext."""

from repro.symbolic import SymbolicContext


def is_valid(expr, order):
    return SymbolicContext(order).lift(expr).is_true()


def counterexample(expr, order):
    # The context owns its manager; reaching it through the context is fine.
    context = SymbolicContext(order)
    manager = context.manager
    return manager.pick_one(manager.not_(context.lift(expr).node))
