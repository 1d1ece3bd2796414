"""Interlock control logic implementations.

The interlock is the block that drives the per-stage moving-or-empty flags
from the control inputs (rtm flags, completion requests/grants, scoreboard,
WAIT, ...).  The simulator treats the interlock as a black box so that
different implementations — the derived maximum-performance one, a
conservative hand-written one, a synthesised netlist, or a fault-injected
mutant — can all be plugged into the same datapath and compared.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import truth
from typing import Dict, Mapping, Optional

from ..expr.ast import Expr, Not, Var
from ..expr.compile import CompiledOutputs, compile_outputs
from ..expr.evaluate import eval_expr
from ..expr.transform import simplify
from ..spec.derivation import (
    DerivationResult,
    concrete_most_liberal,
    symbolic_most_liberal,
)
from ..spec.functional import FunctionalSpec


class Interlock(ABC):
    """Maps a control-input valuation to the moe flag valuation of one cycle."""

    name: str = "interlock"
    description: str = ""

    @abstractmethod
    def compute_moe(self, inputs: Mapping[str, bool]) -> Dict[str, bool]:
        """Compute every moe flag for the given control inputs."""

    @abstractmethod
    def moe_flags(self) -> list:
        """The moe flag names this interlock drives."""

    def reset(self) -> None:
        """Reset any sequential state (reset/initialisation faults override this)."""

    def on_cycle_start(self, cycle: int) -> None:
        """Hook invoked by the simulator at the start of every cycle."""


class SpecFixedPointInterlock(Interlock):
    """Reference interlock: per-cycle concrete fixed point of the functional spec.

    Every cycle it computes the unique most liberal moe assignment for the
    current inputs (Section 3.2's ``MOE``), so by construction it satisfies
    both the functional and the performance specification — zero hazards,
    zero unnecessary stalls.
    """

    def __init__(self, spec: FunctionalSpec, name: Optional[str] = None):
        self.spec = spec
        self.name = name or f"fixed-point({spec.name})"
        self.description = "per-cycle concrete fixed point of the functional specification"

    def compute_moe(self, inputs: Mapping[str, bool]) -> Dict[str, bool]:
        return concrete_most_liberal(self.spec, inputs)

    def moe_flags(self) -> list:
        return self.spec.moe_flags()


class ClosedFormInterlock(Interlock):
    """Interlock defined by closed-form moe expressions over primary inputs.

    This is what the symbolic derivation, the RTL synthesiser and the fault
    injector produce.  Expressions may only refer to primary inputs (they
    are combinational in the inputs); cross-references between moe flags
    must already have been resolved by the derivation.

    The expressions are compiled on first use into one straight-line
    function over all flags (:func:`~repro.expr.compile.compile_outputs`),
    so a simulated cycle costs one call instead of a tree walk per flag.
    """

    def __init__(
        self,
        moe_expressions: Mapping[str, Expr],
        name: str = "closed-form",
        description: str = "",
    ):
        self._expressions = dict(moe_expressions)
        self._compiled: Optional[CompiledOutputs] = None
        self.name = name
        self.description = description or "closed-form combinational interlock"

    @classmethod
    def from_derivation(
        cls, derivation: DerivationResult, name: Optional[str] = None
    ) -> "ClosedFormInterlock":
        """Build from a symbolic derivation result."""
        return cls(
            derivation.moe_expressions,
            name=name or f"derived({derivation.spec.name})",
            description="closed forms from the symbolic fixed-point derivation",
        )

    @classmethod
    def from_spec(cls, spec: FunctionalSpec, name: Optional[str] = None) -> "ClosedFormInterlock":
        """Derive the closed forms from a functional spec and wrap them."""
        return cls.from_derivation(symbolic_most_liberal(spec), name=name)

    def expression_for(self, moe: str) -> Expr:
        """The closed-form expression driving one moe flag."""
        return self._expressions[moe]

    def expressions(self) -> Dict[str, Expr]:
        """All closed-form expressions (copy)."""
        return dict(self._expressions)

    def compute_moe(self, inputs: Mapping[str, bool]) -> Dict[str, bool]:
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = compile_outputs(self._expressions)
        try:
            values = list(map(truth, map(inputs.__getitem__, compiled.names)))
        except KeyError:
            # A partial valuation: eval_expr short-circuits past unbound
            # variables that cannot matter and raises on the ones that do.
            return {
                moe: eval_expr(expression, inputs)
                for moe, expression in self._expressions.items()
            }
        return dict(zip(compiled.outputs, map(truth, compiled(values, 1))))

    def moe_flags(self) -> list:
        return list(self._expressions)

    def with_replaced_flag(
        self, moe: str, expression: Expr, name: Optional[str] = None
    ) -> "ClosedFormInterlock":
        """A copy with one flag's expression replaced (fault injection hook)."""
        expressions = dict(self._expressions)
        if moe not in expressions:
            raise KeyError(f"interlock drives no flag named {moe!r}")
        expressions[moe] = simplify(expression)
        return ClosedFormInterlock(
            expressions,
            name=name or f"{self.name}+mutated({moe})",
            description=self.description,
        )


class ConservativeCompletionInterlock(Interlock):
    """A correct but pessimistic interlock modelling pre-redesign completion logic.

    The completion stages only accept a bus grant that answers a request
    already pending in the *previous* cycle — as if the arbitration were a
    registered (one-cycle-delayed) stage.  Every stall the maximum-
    performance interlock issues is still issued, so the functional
    specification holds and no hazards arise, but every writeback pays an
    extra dead cycle at the completion stage: exactly the class of
    inefficiency the paper reports finding and designing out of the FirePath
    completion logic.
    """

    def __init__(self, spec: FunctionalSpec, architecture, name: Optional[str] = None):
        self.spec = spec
        self.architecture = architecture
        self._reference = ClosedFormInterlock.from_spec(spec)
        self._pending_request: Dict[str, bool] = {}
        self.name = name or f"conservative-completion({spec.name})"
        self.description = (
            "completion stages only honour grants for requests registered in the "
            "previous cycle (pre-redesign completion logic)"
        )
        self.reset()

    def reset(self) -> None:
        self._pending_request = {
            pipe.name: False
            for pipe in self.architecture.pipes
            if pipe.completion_bus is not None
        }

    def compute_moe(self, inputs: Mapping[str, bool]) -> Dict[str, bool]:
        from . import signals as sig

        # Mask the grant of any request that was not already pending in the
        # previous cycle; the masked grant propagates through the reference
        # closed forms, so the extra stall also reaches the upstream stages
        # (no hazards — only lost cycles).
        effective = dict(inputs)
        for pipe in self.architecture.pipes:
            if pipe.completion_bus is None:
                continue
            request = inputs.get(sig.req_name(pipe.name), False)
            if request and not self._pending_request[pipe.name]:
                effective[sig.gnt_name(pipe.name)] = False
            self._pending_request[pipe.name] = request
        return self._reference.compute_moe(effective)

    def moe_flags(self) -> list:
        return self._reference.moe_flags()


class StuckResetInterlock(Interlock):
    """Wraps another interlock but drives fixed values for the first cycles.

    Models the "incorrect initialisation values of control signals" class of
    defect the paper reports: after reset the moe flags should come up
    permissive (the pipeline is empty, everything may move), but a wrong
    reset value holds some flag low (spurious stalls) or high in a situation
    that requires a stall.
    """

    def __init__(
        self,
        inner: Interlock,
        forced_values: Mapping[str, bool],
        cycles: int,
        name: Optional[str] = None,
    ):
        if cycles < 1:
            raise ValueError("the forced-reset window must last at least one cycle")
        self.inner = inner
        self.forced_values = dict(forced_values)
        self.cycles = cycles
        self._current_cycle = 0
        self.name = name or f"{inner.name}+bad-reset"
        self.description = (
            f"drives {sorted(self.forced_values)} to fixed values for the first "
            f"{cycles} cycle(s) after reset"
        )

    def reset(self) -> None:
        self._current_cycle = 0
        self.inner.reset()

    def on_cycle_start(self, cycle: int) -> None:
        self._current_cycle = cycle
        self.inner.on_cycle_start(cycle)

    def compute_moe(self, inputs: Mapping[str, bool]) -> Dict[str, bool]:
        values = self.inner.compute_moe(inputs)
        if self._current_cycle < self.cycles:
            for moe, forced in self.forced_values.items():
                if moe in values:
                    values[moe] = forced
        return values

    def moe_flags(self) -> list:
        return self.inner.moe_flags()


def reference_interlock(spec: FunctionalSpec, symbolic: bool = True) -> Interlock:
    """The maximum-performance reference interlock for a functional spec.

    ``symbolic=True`` derives closed forms once and evaluates them each
    cycle; ``symbolic=False`` recomputes the concrete fixed point every
    cycle.  Both produce identical moe values (a property the test-suite
    checks); the benchmark suite compares their speed.
    """
    if symbolic:
        return ClosedFormInterlock.from_spec(spec)
    return SpecFixedPointInterlock(spec)
