"""Machine-checked versions of the paper's Section 3 properties.

The derivation of a maximum performance specification is only sound when
the functional specification satisfies:

* **Property (1)** — the all-false assignment to the moe flags satisfies
  the functional specification (stalling everything is functionally safe).
* **Property (2)** — satisfying moe assignments are closed under bitwise
  disjunction.  The paper derives this from the monotonicity of the stall
  conditions ``F_i`` in the negated moe flags; we check the syntactic
  monotonicity requirement, verify monotonicity *semantically* per clause,
  and also verify the closure property directly with BDDs over two renamed
  copies of the moe vector.  The direct check is decided per clause first:
  ``SPEC_func`` is the conjunction of the clauses ``C_i``, and if each
  ``C_i`` is closed under ∨ then so is their conjunction (two vectors
  satisfying every ``C_i`` have a disjunction satisfying every ``C_i``).
  Only when some clause is not closed on its own — which does not refute
  the property — is the two-copy formula over the whole specification
  built; it then decides the verdict and supplies the counterexample.
* **Property (3)** — the derived most liberal assignment ``MOE`` satisfies
  the specification.

:func:`check_all_properties` runs these.  The Section 3.2 theorem —
every satisfying assignment is pointwise below ``MOE`` — is
:func:`check_maximality`, run on its own (the campaign's ``maximality``
stage).

All checks are exhaustive over the interlock's boolean signal space via
BDDs in one context (the derivation's, or a fresh one in
:func:`~repro.spec.derivation.derivation_order`); no simulation or
sampling is involved.  The expensive whole-formula checks are decomposed
per clause / per control cone so they scale to the FirePath-like
architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..expr.ast import Expr, FALSE, Or, Var
from ..expr.builders import big_and
from ..expr.transform import simplify, substitute
from ..symbolic import SymbolicContext
from .derivation import DerivationResult, derivation_order, symbolic_most_liberal
from .functional import FunctionalSpec


@dataclass
class PropertyCheck:
    """Result of one proved claim.

    ``moe`` names the stage a per-stage claim is about (the
    :class:`~repro.checking.PropertyChecker` results); whole-spec checks
    leave it None.
    """

    name: str
    holds: bool
    detail: str = ""
    counterexample: Optional[Dict[str, bool]] = None
    moe: Optional[str] = None

    def describe(self) -> str:
        """One-line summary of the check."""
        status = "holds" if self.holds else "FAILS"
        extra = f" — {self.detail}" if self.detail else ""
        return f"{self.name}: {status}{extra}"


@dataclass
class PropertyReport:
    """The Section 3 property checks for one functional specification."""

    spec_name: str
    checks: List[PropertyCheck] = field(default_factory=list)

    def all_hold(self) -> bool:
        """True when every property holds."""
        return all(check.holds for check in self.checks)

    def check(self, name: str) -> PropertyCheck:
        """Look up one check by name."""
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(f"no property check named {name!r}")

    def describe(self) -> str:
        """Multi-line report."""
        lines = [f"Section 3 properties for {self.spec_name}:"]
        lines.extend(f"  {check.describe()}" for check in self.checks)
        return "\n".join(lines)


def _spec_context(spec: FunctionalSpec) -> SymbolicContext:
    """A fresh context in the order the spec's derivation would use."""
    return SymbolicContext(derivation_order(spec))


def check_all_false_satisfies(
    spec: FunctionalSpec, context: Optional[SymbolicContext] = None
) -> PropertyCheck:
    """Property (1): assigning False to every moe flag satisfies SPEC_func."""
    all_false = {moe: FALSE for moe in spec.moe_flags()}
    context = context or _spec_context(spec)
    for clause in spec.clauses:
        residual = context.lift(
            simplify(substitute(clause.functional_formula(), all_false))
        )
        if not residual.is_true():
            return PropertyCheck(
                name="property-1-all-false-satisfies",
                holds=False,
                detail=(
                    f"the all-false moe vector violates the clause for {clause.moe}"
                ),
                counterexample=residual.counterexample(),
            )
    return PropertyCheck(
        name="property-1-all-false-satisfies",
        holds=True,
        detail="stalling every stage is functionally safe",
    )


def check_monotonicity(spec: FunctionalSpec) -> PropertyCheck:
    """Syntactic Section 3.1 requirement: conditions use moe flags only negated."""
    offenders = spec.violating_clauses()
    if not offenders:
        return PropertyCheck(
            name="monotonicity-of-stall-conditions",
            holds=True,
            detail="every F_i is built from negated moe flags with AND/OR only",
        )
    return PropertyCheck(
        name="monotonicity-of-stall-conditions",
        holds=False,
        detail=f"stall conditions of {sorted(offenders)} use some moe flag positively",
    )


def check_semantic_monotonicity(
    spec: FunctionalSpec, context: Optional[SymbolicContext] = None
) -> PropertyCheck:
    """Per-clause semantic monotonicity of F_i in the negated moe flags.

    For every clause and every moe flag ``v`` it uses, checks validity of
    ``F_i[v := True] → F_i[v := False]`` — clearing another stage's moe flag
    (i.e. stalling it) may only add stall reasons, never remove them.  This
    is the semantic content of the Section 3.1 requirement and, by the
    paper's Section 3.1 proof, entails the disjunction-closure property.
    """
    moe_flags = spec.moe_flags()
    context = context or _spec_context(spec)
    for clause in spec.clauses:
        condition = context.lift(clause.condition)
        # A flag outside the support cofactors to the condition itself, so
        # only the support is checked, in flag order: set order would
        # permute the restricts' node ids from process to process.
        support = condition.support()
        for name in [moe for moe in moe_flags if moe in support]:
            with_move = condition.restrict({name: True})
            with_stall = condition.restrict({name: False})
            claim = with_move.implies(with_stall)
            if not claim.is_true():
                return PropertyCheck(
                    name="semantic-monotonicity",
                    holds=False,
                    detail=(
                        f"stall condition of {clause.moe} is not monotone in ¬{name}"
                    ),
                    counterexample=claim.counterexample(),
                )
    return PropertyCheck(
        name="semantic-monotonicity",
        holds=True,
        detail="every F_i is semantically monotone in every negated moe flag it uses",
    )


def _copy_name(copy: int, moe: str) -> str:
    return f"__copy{copy}::{moe}"


def _closure_claim(formula: Expr, moe_flags: List[str]) -> Expr:
    """``formula[m1] ∧ formula[m2] → formula[m1 ∨ m2]`` over the given flags."""
    copy1 = {moe: Var(_copy_name(1, moe)) for moe in moe_flags}
    copy2 = {moe: Var(_copy_name(2, moe)) for moe in moe_flags}
    joined = {moe: Or(copy1[moe], copy2[moe]) for moe in moe_flags}
    return (substitute(formula, copy1) & substitute(formula, copy2)).implies(
        substitute(formula, joined)
    )


def _declare_copies(spec: FunctionalSpec, context: SymbolicContext) -> None:
    """Declare each moe flag's two copies, kept adjacent, below the inputs."""
    for moe in spec.moe_flags():
        context.manager.declare(_copy_name(1, moe))
        context.manager.declare(_copy_name(2, moe))


def _whole_formula_closure(
    spec: FunctionalSpec, context: SymbolicContext, route: str
) -> PropertyCheck:
    """Property (2) decided on the two-copy formula over the whole spec.

    The two copies of every moe flag must already be declared in ``context``.
    """
    claim = context.lift(_closure_claim(spec.functional_formula(), spec.moe_flags()))
    if claim.is_true():
        return PropertyCheck(
            name="property-2-disjunction-closure",
            holds=True,
            detail=(
                "bitwise OR of two satisfying moe vectors satisfies SPEC_func "
                f"(decided on the {route})"
            ),
        )
    return PropertyCheck(
        name="property-2-disjunction-closure",
        holds=False,
        detail=(
            "found two satisfying moe vectors whose disjunction violates SPEC_func "
            f"(decided on the {route})"
        ),
        counterexample=claim.counterexample(),
    )


def check_disjunction_closure(
    spec: FunctionalSpec, context: Optional[SymbolicContext] = None
) -> PropertyCheck:
    """Property (2): satisfying assignments are closed under bitwise disjunction.

    Verified directly: with two renamed copies ``m1``/``m2`` of the moe
    vector, checks validity of::

        SPEC_func[m1] ∧ SPEC_func[m2]  →  SPEC_func[m1 ∨ m2]

    The claim is first decided clause by clause: if every conjunct ``C_i``
    of ``SPEC_func`` is closed under ∨, so is their conjunction, and each
    per-clause claim only mentions the moe flags its clause uses.  A
    clause that is not closed on its own does not refute the property
    (another clause may exclude the offending vectors), so the
    whole-formula claim then decides the verdict and supplies the
    counterexample, in the same manager.  ``detail`` names the route that
    decided.  The copies ``m1``/``m2`` are declared pairwise below the
    inputs of ``context``.
    """
    context = context or _spec_context(spec)
    _declare_copies(spec, context)
    moe_flags = spec.moe_flags()
    for clause in spec.clauses:
        formula = clause.functional_formula()
        variables = formula.variables()
        used = [moe for moe in moe_flags if moe in variables]
        if not context.lift(_closure_claim(formula, used)).is_true():
            return _whole_formula_closure(
                spec,
                context,
                route=(
                    f"whole formula, after the clause for {clause.moe} "
                    "was not closed alone"
                ),
            )
    return PropertyCheck(
        name="property-2-disjunction-closure",
        holds=True,
        detail=(
            "bitwise OR of two satisfying moe vectors satisfies SPEC_func "
            f"(decided per clause, {len(spec.clauses)} clauses)"
        ),
    )


def check_most_liberal_satisfies(
    spec: FunctionalSpec, derivation: Optional[DerivationResult] = None
) -> PropertyCheck:
    """Property (3): the derived most liberal assignment satisfies SPEC_func.

    The claim is decided on BDD nodes in the derivation's own context: the
    clause condition is composed with the closed forms and checked against
    ``¬MOE_i`` directly — no expression is materialized or substituted.
    """
    derivation = derivation or symbolic_most_liberal(spec)
    context = derivation.context
    manager = context.manager
    moe_nodes = {
        moe: function.node for moe, function in derivation.moe_functions.items()
    }
    for clause in spec.clauses:
        condition = manager.compose_many(
            context.lift(clause.condition).node, moe_nodes
        )
        # condition∘MOE → ¬MOE_i is valid iff condition∘MOE ∧ MOE_i = ⊥.
        violation = manager.and_(condition, moe_nodes[clause.moe])
        if violation != manager.false():
            return PropertyCheck(
                name="property-3-most-liberal-satisfies",
                holds=False,
                detail=f"the fixed point violates the clause for {clause.moe}",
                counterexample=manager.pick_one(violation),
            )
    return PropertyCheck(
        name="property-3-most-liberal-satisfies",
        holds=True,
        detail=f"fixed point reached after {derivation.iterations} iteration(s)",
    )


def _dependency_cone(spec: FunctionalSpec, moe: str) -> Set[str]:
    """The moe flags the given flag transitively depends on (including itself)."""
    graph = spec.moe_dependencies()
    cone: Set[str] = set()
    frontier = [moe]
    while frontier:
        current = frontier.pop()
        if current in cone:
            continue
        cone.add(current)
        frontier.extend(graph.get(current, []))
    return cone


def check_maximality(
    spec: FunctionalSpec, derivation: Optional[DerivationResult] = None
) -> PropertyCheck:
    """Section 3.2 theorem: every satisfying assignment is subsumed by MOE.

    For every flag the check uses only the clauses in that flag's control
    cone as the antecedent — the rest of the specification cannot constrain
    the flag, and restricting the antecedent keeps the BDDs small on deep
    multi-pipe architectures.  (Proving the cone-restricted implication is
    sufficient: the full specification implies its own cone.)
    """
    derivation = derivation or symbolic_most_liberal(spec)
    context = derivation.context
    manager = context.manager
    for moe in spec.moe_flags():
        cone = _dependency_cone(spec, moe)
        antecedent = context.lift(
            big_and(
                clause.functional_formula()
                for clause in spec.clauses
                if clause.moe in cone
            )
        ).node
        # Refuted by a witness of antecedent ∧ moe_i ∧ ¬MOE_i; the fused
        # relational product decides emptiness without the conjunction.
        refutation = manager.and_(
            manager.var(moe),
            manager.not_(derivation.moe_functions[moe].node),
        )
        if (
            manager.and_exists(antecedent, refutation, manager.variable_order())
            != manager.false()
        ):
            return PropertyCheck(
                name="maximality-of-most-liberal",
                holds=False,
                detail=(
                    f"found a satisfying assignment with {moe} set although MOE clears it"
                ),
                counterexample=manager.pick_one(manager.and_(antecedent, refutation)),
            )
    return PropertyCheck(
        name="maximality-of-most-liberal",
        holds=True,
        detail="every satisfying moe vector is pointwise below the derived MOE",
    )


def check_all_properties(
    spec: FunctionalSpec, derivation: Optional[DerivationResult] = None
) -> PropertyReport:
    """Run the Section 3.1 checks and Property 3, and collect a report.

    Every BDD check is decided in one context: ``derivation``'s when given,
    otherwise a fresh one into which the spec is then derived.  A spec that
    cannot be derived still gets its Section 3.1 checks.  Maximality is
    not among them: :func:`check_maximality` decides it.
    """
    context = derivation.context if derivation is not None else _spec_context(spec)
    report = PropertyReport(spec_name=spec.name)
    report.checks.append(check_all_false_satisfies(spec, context))
    report.checks.append(check_monotonicity(spec))
    report.checks.append(check_semantic_monotonicity(spec, context))
    report.checks.append(check_disjunction_closure(spec, context))
    if derivation is None:
        try:
            derivation = symbolic_most_liberal(spec, context=context)
        except Exception as error:  # noqa: BLE001 - report, don't crash the check
            report.checks.append(
                PropertyCheck(
                    name="property-3-most-liberal-satisfies",
                    holds=False,
                    detail=f"derivation failed: {error}",
                )
            )
            return report
    report.checks.append(check_most_liberal_satisfies(spec, derivation))
    return report
