"""The paper's core contribution: specifications of interlocked pipeline control.

Workflow (mirroring the paper):

1. Describe the architecture (:mod:`repro.pipeline.structure`) or write the
   per-stage stall clauses directly.
2. Build the functional specification (:class:`FunctionalSpec`), either by
   hand or with :class:`SpecBuilder`.
3. Check the Section 3.1 properties (:func:`check_all_properties`).
4. Derive the maximum performance specification
   (:func:`derive_performance_spec`) and/or the closed-form most liberal
   moe assignment (:func:`symbolic_most_liberal`), and prove the Section
   3.2 maximality theorem for it (:func:`check_maximality`).
5. Hand the result to the assertion generator, the property checker or the
   RTL synthesiser.
"""

from .builder import (
    BuilderOptions,
    SpecBuilder,
    build_functional_spec,
    conservative_variant,
)
from .derivation import (
    DerivationError,
    DerivationResult,
    concrete_most_liberal,
    derive_combined_spec,
    derive_performance_spec,
    symbolic_most_liberal,
)
from .functional import FunctionalSpec, SpecificationError, StallClause
from .performance import (
    CombinedClause,
    CombinedSpec,
    PerformanceClause,
    PerformanceSpec,
)
from .properties import (
    PropertyCheck,
    PropertyReport,
    check_all_false_satisfies,
    check_all_properties,
    check_disjunction_closure,
    check_maximality,
    check_monotonicity,
    check_most_liberal_satisfies,
)
from .textio import (
    SpecFormatError,
    dumps_spec,
    load_spec_file,
    loads_spec,
)

__all__ = [
    "BuilderOptions",
    "SpecBuilder",
    "build_functional_spec",
    "conservative_variant",
    "DerivationError",
    "DerivationResult",
    "concrete_most_liberal",
    "derive_combined_spec",
    "derive_performance_spec",
    "symbolic_most_liberal",
    "FunctionalSpec",
    "SpecificationError",
    "StallClause",
    "CombinedClause",
    "CombinedSpec",
    "PerformanceClause",
    "PerformanceSpec",
    "PropertyCheck",
    "PropertyReport",
    "check_all_false_satisfies",
    "check_all_properties",
    "check_disjunction_closure",
    "check_maximality",
    "check_monotonicity",
    "check_most_liberal_satisfies",
    "SpecFormatError",
    "dumps_spec",
    "load_spec_file",
    "loads_spec",
]
