"""Signal naming conventions shared by the whole library.

The paper writes control signals as ``long.4.moe``, ``short.req``,
``scb[3]`` or ``c.regaddr``.  Every layer of this library (specification,
simulator, assertion generator, property checker, RTL synthesiser) refers
to signals by these dotted string names, so the conventions are centralised
here.

Enumerated signals (register addresses) are one-hot indicator booleans
named ``<signal>=<value>``; the spec builder expands the paper's
quantifiers over them into finite disjunctions.
"""

from __future__ import annotations

import re

MOE_SUFFIX = "moe"
RTM_SUFFIX = "rtm"


def moe_name(pipe: str, stage: int) -> str:
    """Moving-or-empty flag of a pipeline stage, e.g. ``long.4.moe``."""
    return f"{pipe}.{stage}.{MOE_SUFFIX}"


def rtm_name(pipe: str, stage: int) -> str:
    """Require-to-move flag of a pipeline stage, e.g. ``long.3.rtm``."""
    return f"{pipe}.{stage}.{RTM_SUFFIX}"


def req_name(pipe: str) -> str:
    """Completion bus request of a pipe, e.g. ``long.req``."""
    return f"{pipe}.req"


def gnt_name(pipe: str) -> str:
    """Completion bus grant of a pipe, e.g. ``long.gnt``."""
    return f"{pipe}.gnt"


def scoreboard_name(address: int, prefix: str = "scb") -> str:
    """Scoreboard bit for a register address, e.g. ``scb[5]``."""
    return f"{prefix}[{address}]"


def bus_target_indicator(bus: str, address: int) -> str:
    """One-hot indicator that completion bus ``bus`` targets register ``address``."""
    return f"{bus}.regaddr={address}"


def stage_regaddr_indicator(pipe: str, stage: int, which: str, address: int) -> str:
    """Indicator that a stage's src/dst register address equals ``address``.

    ``which`` is ``"src"`` or ``"dst"``, mirroring the paper's SDREG domain.
    """
    return f"{pipe}.{stage}.{which}.regaddr={address}"


_IDENTIFIER_RE = re.compile(r"[^A-Za-z0-9_]")


def to_hdl_identifier(name: str) -> str:
    """Sanitise a dotted signal name into a legal Verilog identifier.

    ``long.4.moe`` becomes ``long_4_moe``; ``c.regaddr=5`` becomes
    ``c_regaddr_eq_5``.
    """
    out = name.replace("=", "_eq_")
    out = _IDENTIFIER_RE.sub("_", out)
    if out and out[0].isdigit():
        out = "_" + out
    return out
