"""RPL008 suppressed: a deliberate standalone manager, silenced in place."""

from repro.bdd import BddManager


def kernel_probe():
    # Measures the bare kernel with no symbolic layer on top, so the
    # direct construction is deliberate.
    return BddManager(["a", "b"])  # repro: noqa[RPL008]
