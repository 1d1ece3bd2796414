"""RPL008 true positive: a decision procedure builds its own BDD manager."""

from repro import bdd
from repro.bdd import BddManager, compile_expr


def is_valid(expr):
    # A private manager: no compile cache, no sweep hook, no node
    # protection, and invisible to anything that inspects the context.
    manager = BddManager()
    return manager.is_true(compile_expr(manager, expr))


def ordered_manager(order):
    return bdd.BddManager(order)
