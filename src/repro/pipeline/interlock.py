"""Interlock control logic implementations.

The interlock is the block that drives the per-stage moving-or-empty flags
from the control inputs (rtm flags, completion requests/grants, scoreboard,
WAIT, ...).  The simulator treats the interlock as a black box so that
different implementations — the derived maximum-performance one, a
conservative hand-written one, a synthesised netlist, or a fault-injected
mutant — can all be plugged into the same datapath and compared.

Every implementation is evaluated the same way: :meth:`Interlock.row_function`
resolves the signal positions of one input order once and returns a
function from a cycle's input row to its moe row.  A wrapping interlock
composes the row function of the interlock it wraps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import truth
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..bdd.ordering import register_interleaved_order
from ..expr.ast import Expr, variables_of
from ..expr.compile import compile_outputs
from ..spec.derivation import (
    DerivationResult,
    concrete_most_liberal,
    symbolic_most_liberal,
)
from ..spec.functional import FunctionalSpec
from ..symbolic import SymbolicContext, SymbolicFunction
from . import signals as sig


#: ``fn(row)`` of :meth:`Interlock.row_function`: one input row in, one new moe list out.
RowFunction = Callable[[Sequence[bool]], List[bool]]


class Interlock(ABC):
    """Maps each cycle's row of control inputs to its row of moe flags."""

    name: str = "interlock"
    description: str = ""
    #: True when the moe flags are a function of the current cycle's inputs
    #: alone: :meth:`reset` and :meth:`on_cycle_start` keep no state that
    #: changes what the row function returns.  The simulator relies on it
    #: to repeat a settled cycle instead of stepping it; an interlock with
    #: memory leaves it False and is stepped every cycle.
    combinational: bool = False

    @abstractmethod
    def row_function(self, input_names: Sequence[str]) -> Tuple[Tuple[str, ...], RowFunction]:
        """The interlock as a function of one input row.

        Returns ``(moe_names, fn)``: ``fn(row)`` takes the cycle's input
        values in ``input_names`` order and returns a new list of the moe
        values in ``moe_names`` order.  Signal positions are resolved once,
        here; a signal the interlock reads that ``input_names`` lacks
        raises ``ValueError`` naming it.
        """

    def reset(self) -> None:
        """Reset any sequential state (reset/initialisation faults override this)."""

    def on_cycle_start(self, cycle: int) -> None:
        """Hook invoked by the simulator at the start of every cycle."""


def row_positions(input_names: Sequence[str], names: Sequence[str]) -> Tuple[int, ...]:
    """The position of each of ``names`` in ``input_names``.

    Raises ``ValueError`` naming the signals ``input_names`` lacks.
    """
    position = {name: index for index, name in enumerate(input_names)}
    missing = sorted(set(names).difference(position))
    if missing:
        raise ValueError(f"input row is missing signals {missing}")
    return tuple(position[name] for name in names)


class SpecFixedPointInterlock(Interlock):
    """Reference interlock: per-cycle concrete fixed point of the functional spec.

    Every cycle it computes the unique most liberal moe assignment for the
    current inputs (Section 3.2's ``MOE``), so by construction it satisfies
    both the functional and the performance specification — zero hazards,
    zero unnecessary stalls.
    """

    combinational = True

    def __init__(self, spec: FunctionalSpec, name: Optional[str] = None):
        self.spec = spec
        self.name = name or f"fixed-point({spec.name})"
        self.description = "per-cycle concrete fixed point of the functional specification"

    def row_function(self, input_names: Sequence[str]) -> Tuple[Tuple[str, ...], RowFunction]:
        input_names = tuple(input_names)
        spec = self.spec
        row_positions(input_names, spec.input_signals())
        moe_names = tuple(spec.moe_flags())

        def evaluate(row: Sequence[bool]) -> List[bool]:
            moe = concrete_most_liberal(spec, dict(zip(input_names, row)))
            return [moe[name] for name in moe_names]

        return moe_names, evaluate


class ClosedFormInterlock(Interlock):
    """Interlock defined by closed-form moe functions over primary inputs.

    This is what the symbolic derivation, the RTL synthesiser and the fault
    injector produce: :class:`~repro.symbolic.SymbolicFunction` objects
    sharing one :attr:`context`, over primary inputs only.  Plain
    expressions are lifted into ``context`` — by default a register-
    interleaved one over the variables they mention.

    For evaluation the closed forms are materialized as ISOP covers and
    compiled into one straight-line function over all flags
    (:func:`~repro.expr.compile.compile_outputs`), so a simulated cycle
    costs one call instead of a tree walk per flag.  :meth:`row_function`
    compiles them once per input order, with the variables bound to row
    positions, and caches the result.
    """

    combinational = True

    def __init__(
        self,
        moe_functions: Mapping[str, Union[SymbolicFunction, Expr]],
        name: str = "closed-form",
        description: str = "",
        context: Optional[SymbolicContext] = None,
    ):
        lifted = [f for f in moe_functions.values() if isinstance(f, SymbolicFunction)]
        if context is None and lifted:
            context = lifted[0].context
        elif context is None:
            support = variables_of(moe_functions.values())
            context = SymbolicContext(register_interleaved_order(sorted(support)))
        self.context = context
        self._functions: Dict[str, SymbolicFunction] = {
            moe: context.lift(value) for moe, value in moe_functions.items()
        }
        self._row_functions: Dict[Tuple[str, ...], Tuple[Tuple[str, ...], RowFunction]] = {}
        self.name = name
        self.description = description or "closed-form combinational interlock"

    @classmethod
    def from_derivation(
        cls, derivation: DerivationResult, name: Optional[str] = None
    ) -> "ClosedFormInterlock":
        """Build from a symbolic derivation result (its functions, its context)."""
        return cls(
            derivation.moe_functions,
            name=name or f"derived({derivation.spec.name})",
            description="closed forms from the symbolic fixed-point derivation",
        )

    @classmethod
    def from_spec(
        cls,
        spec: FunctionalSpec,
        name: Optional[str] = None,
        context: Optional[SymbolicContext] = None,
    ) -> "ClosedFormInterlock":
        """Derive the closed forms from a functional spec (into ``context``) and wrap them."""
        return cls.from_derivation(symbolic_most_liberal(spec, context=context), name=name)

    def functions(self) -> Dict[str, SymbolicFunction]:
        """All closed forms as SymbolicFunctions in :attr:`context` (copy)."""
        return dict(self._functions)

    def expressions(self) -> Dict[str, Expr]:
        """All closed forms materialized as ISOP covers (cached per node)."""
        return {moe: function.to_expr() for moe, function in self._functions.items()}

    def row_function(self, input_names: Sequence[str]) -> Tuple[Tuple[str, ...], RowFunction]:
        """The compiled closed forms over row positions (cached per input order).

        :func:`~repro.expr.compile.compile_outputs` raises ``ValueError``
        naming any signal a closed form reads outside ``input_names``.
        """
        input_names = tuple(input_names)
        cached = self._row_functions.get(input_names)
        if cached is not None:
            return cached
        compiled = compile_outputs(self.expressions(), order=input_names)

        def evaluate(row: Sequence[bool]) -> List[bool]:
            return list(map(truth, compiled(row, 1)))

        cached = self._row_functions[input_names] = (compiled.outputs, evaluate)
        return cached


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
        self._completion_pipes = tuple(
            pipe.name for pipe in architecture.pipes if pipe.completion_bus is not None
        )
        self._pending_request = [False] * len(self._completion_pipes)
        self.name = name or f"conservative-completion({spec.name})"
        self.description = (
            "completion stages only honour grants for requests registered in the "
            "previous cycle (pre-redesign completion logic)"
        )

    def reset(self) -> None:
        self._pending_request[:] = [False] * len(self._completion_pipes)

    def row_function(self, input_names: Sequence[str]) -> Tuple[Tuple[str, ...], RowFunction]:
        moe_names, reference = self._reference.row_function(input_names)
        requests = row_positions(input_names, [sig.req_name(p) for p in self._completion_pipes])
        grants = row_positions(input_names, [sig.gnt_name(p) for p in self._completion_pipes])
        completions = tuple(enumerate(zip(requests, grants)))
        pending = self._pending_request

        def evaluate(row: Sequence[bool]) -> List[bool]:
            # Mask the grant of any request that was not already pending in
            # the previous cycle; the masked grant propagates through the
            # reference closed forms, so the extra stall also reaches the
            # upstream stages (no hazards — only lost cycles).  The sampled
            # row is the trace's and is not changed.
            effective = list(row)
            for index, (request, grant) in completions:
                if row[request] and not pending[index]:
                    effective[grant] = False
                pending[index] = row[request]
            return reference(effective)

        return moe_names, evaluate


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

    def row_function(self, input_names: Sequence[str]) -> Tuple[Tuple[str, ...], RowFunction]:
        moe_names, inner = self.inner.row_function(input_names)
        forced = tuple(
            (index, self.forced_values[moe])
            for index, moe in enumerate(moe_names)
            if moe in self.forced_values
        )

        def evaluate(row: Sequence[bool]) -> List[bool]:
            values = inner(row)
            if self._current_cycle < self.cycles:
                for index, value in forced:
                    values[index] = value
            return values

        return moe_names, evaluate


def reference_interlock(spec: FunctionalSpec) -> ClosedFormInterlock:
    """The maximum-performance reference interlock for a functional spec.

    Its closed forms are derived once and evaluated each cycle.
    :class:`SpecFixedPointInterlock` recomputes the concrete fixed point
    every cycle instead; both produce identical moe values, which the
    test-suite checks.
    """
    return ClosedFormInterlock.from_spec(spec)
