"""RPL010 suppressed: an import kept only for its side effect, silenced in place."""


def registry():
    from repro.devtools import rules  # repro: noqa[RPL010]

    return {}
