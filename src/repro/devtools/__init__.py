"""Correctness tooling: the contract lint and the runtime sanitizer.

The codebase rests on a stack of correctness contracts the type system
cannot see — raw BDD node ids must be protected before GC, nodes must
never cross :class:`~repro.bdd.manager.BddManager` instances, ``STAGE_DEPENDENCIES``
must cover exactly the spec fields each campaign stage reads, and the
asyncio daemon must never block its event loop.  This package enforces
them twice over:

* **statically** — :mod:`repro.devtools.lint` is an AST-based contract
  linter (``repro lint``; rules RPL001–RPL010 in
  :mod:`repro.devtools.rules`) that flags violations at review time,
  with ``# repro: noqa[RPLnnn]`` suppression and JSON output for CI;
* **dynamically** — :mod:`repro.devtools.sanitizer` turns the silent
  failure modes into loud ones at runtime: ``REPRO_SANITIZE=1`` swaps
  every :class:`~repro.bdd.manager.BddManager` for a
  :class:`~repro.devtools.sanitizer.SanitizedBddManager` that
  quarantines freed slots (use-after-free raises), rejects ids from
  other managers, validates memo tables after every sweep, tracks
  unreleased protections by call site, and watches the service's event
  loop for stalls.

The rule catalog with rationale and examples is ``docs/contracts.md``.
"""

from .lint import Finding, LintError, lint_paths, render_json, render_text
from .sanitizer import (
    CrossManagerError,
    EventLoopStallWarning,
    MemoLeakError,
    SanitizedBddManager,
    SanitizerError,
    UseAfterFreeError,
    loop_stall_monitor,
)

__all__ = [
    "CrossManagerError",
    "EventLoopStallWarning",
    "Finding",
    "LintError",
    "MemoLeakError",
    "SanitizedBddManager",
    "SanitizerError",
    "UseAfterFreeError",
    "lint_paths",
    "loop_stall_monitor",
    "render_json",
    "render_text",
]
