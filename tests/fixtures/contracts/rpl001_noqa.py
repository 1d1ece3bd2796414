"""RPL001 suppressed: the violation is present but silenced in place."""


class Checker:
    def __init__(self, manager, f, g):
        # The caller never collects while this object lives; deliberate
        # and audited.
        self.cached = manager.or_(f, g)  # repro: noqa[RPL001]
