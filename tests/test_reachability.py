"""Every definition in ``src/repro`` is reached from an entry point, or kept on purpose.

The scan indexes each function, method and class under ``src/repro`` with
``ast`` and marks what the library's entry points reach, by name:

* **Roots.**  The module-level code of each ``src`` module (imports and
  ``__all__`` excluded), so the CLI's ``_COMMANDS``, the runner's
  ``_STAGE_IMPLS`` and every registration table count.  A definition
  decorated by a ``src`` function (the lint's ``@register``) is a root
  too: the decorator consumes it at import time.  So is every identifier
  in ``examples/``, ``scripts/`` and ``perfbench/``, and every identifier
  in a code span of ``README.md`` and ``docs/*.md``.
* **Propagation.**  A reached definition reaches every ``Name``,
  attribute and identifier-shaped string it mentions (``perfbench`` probes
  and the sanitizer's tables name methods as strings).  A reached class
  also reaches its dunder methods and its ``visit_*`` methods, which
  ``ast.NodeVisitor`` dispatches by name.

Tests are never roots.  The unreached set must equal ``KEPT``, one reason
per name: a new helper that only tests call fails the test, and so does a
``KEPT`` entry that becomes reached or is deleted.  A method of an
unreached class is reported through its class.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")
_CODE_SPAN = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)

_BMC = "reference engine: SAT bounded model checking, cross-checked against the BDD checker"
_ORACLE = "reference engine: the enumeration oracle that cross-checks BDD and compiled verdicts"
_PAPER = "reference: the paper's Figures 2/3 transcribed by hand, compared with the derivation"
_MONITOR = "reference engine: the per-cycle monitor that cross-checks the compiled monitor"
_REGISTRY = "public extension API: a user registers their own architecture under a name"

#: Definitions no entry point reaches, kept on purpose, with the reason.
KEPT: Dict[str, str] = {
    "repro.checking.bmc.BoundedModelChecker": _BMC,
    "repro.checking.bmc.StuckResetModel": _BMC,
    "repro.checking.bmc.RegisteredGrantModel": _BMC,
    "repro.checking.bmc.BmcViolation.witness_at": _BMC,
    "repro.expr.evaluate.all_assignments": _ORACLE,
    "repro.expr.evaluate.is_tautology_by_enumeration": _ORACLE,
    "repro.expr.evaluate.is_satisfiable_by_enumeration": _ORACLE,
    "repro.expr.evaluate._check_enumerable": _ORACLE,
    "repro.expr.compile.bitparallel_tautology": _ORACLE,
    "repro.expr.compile.bitparallel_satisfiable": _ORACLE,
    "repro.expr.compile._compile_one": _ORACLE,
    "repro.expr.compile._enumeration_values": _ORACLE,
    "repro.expr.compile._sweep": _ORACLE,
    "repro.archs.example_dac2002.paper_stall_conditions": _PAPER,
    "repro.archs.example_dac2002.paper_functional_formula": _PAPER,
    "repro.archs.example_dac2002.paper_performance_formula": _PAPER,
    "repro.archs.example_dac2002.paper_combined_formula": _PAPER,
    "repro.archs.example_dac2002._scoreboard_hazard": _PAPER,
    "repro.assertions.monitor.AssertionMonitor.check_cycle": _MONITOR,
    "repro.assertions.monitor.AssertionMonitor.check_record": _MONITOR,
    "repro.devtools.sanitizer.SanitizedBddManager.describe_leaks": (
        "diagnostic: renders the sanitizer's leak report for a person reading a failure"
    ),
    "repro.archs.library.register_architecture": _REGISTRY,
    "repro.archs.library.unregister_architecture": _REGISTRY,
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Definition(NamedTuple):
    qualified: str
    name: str
    node: ast.AST

    @property
    def is_class(self) -> bool:
        return isinstance(self.node, ast.ClassDef)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _definitions(prefix: str, body: List[ast.stmt]) -> Iterator[Definition]:
    """Every class, and every function directly in a module or class body."""
    for node in body:
        if isinstance(node, _DEFS):
            qualified = f"{prefix}.{node.name}"
            yield Definition(qualified, node.name, node)
            if isinstance(node, ast.ClassDef):
                yield from _definitions(qualified, node.body)


def _mentions(nodes: List[ast.AST]) -> Set[str]:
    """Names, attributes and identifier-shaped strings under ``nodes``."""
    found: Set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _DOTTED.fullmatch(node.value):
                    found.update(node.value.split("."))
    return found


def _own_code(definition: Definition) -> List[ast.AST]:
    """The code a definition runs, without the definitions nested in a class."""
    node = definition.node
    if not definition.is_class:
        return [node]
    body = [stmt for stmt in node.body if not isinstance(stmt, _DEFS)]
    return [*node.decorator_list, *node.bases, *node.keywords, *body]


def _is_module_code(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return False
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
    return True


def _decorator_names(node: ast.AST) -> Set[str]:
    """Names of plain decorators: ``@name`` and ``@name(...)``."""
    names = set()
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name):
            names.add(decorator.id)
    return names


def _entry_point_names() -> Set[str]:
    names: Set[str] = set()
    for folder in ("examples", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*")):
            if path.suffix == ".py":
                names |= _mentions([ast.parse(path.read_text(encoding="utf-8"))])
            elif path.suffix == ".sh":
                names |= set(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for span in _CODE_SPAN.findall(doc.read_text(encoding="utf-8")):
            names |= set(_IDENTIFIER.findall(span))
    return names


def unreached() -> Set[str]:
    """Qualified names of the ``src`` definitions no entry point reaches."""
    definitions: List[Definition] = []
    module_code: List[ast.AST] = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions.extend(_definitions(_module_name(path), tree.body))
        for stmt in tree.body:
            if isinstance(stmt, _DEFS):
                module_code.extend(stmt.decorator_list)
            elif _is_module_code(stmt):
                module_code.append(stmt)

    by_name: Dict[str, List[Definition]] = {}
    members: Dict[str, List[Definition]] = {}
    for definition in definitions:
        by_name.setdefault(definition.name, []).append(definition)
        members.setdefault(definition.qualified.rpartition(".")[0], []).append(definition)
    functions = {d.name for d in definitions if not d.is_class}

    reached: Set[str] = set()
    pending: List[Definition] = []

    def reach(definition: Definition) -> None:
        if definition.qualified not in reached:
            reached.add(definition.qualified)
            pending.append(definition)

    for definition in definitions:
        if _decorator_names(definition.node) & functions:
            reach(definition)  # a src decorator consumes it at import time
    seen: Set[str] = set()
    names = _mentions(module_code) | _entry_point_names()
    while names or pending:
        for name in names - seen:
            seen.add(name)
            for definition in by_name.get(name, ()):
                reach(definition)
        names = set()
        while pending:
            definition = pending.pop()
            names |= _mentions(_own_code(definition))
            for member in members.get(definition.qualified, ()):
                dunder = member.name.startswith("__") and member.name.endswith("__")
                if dunder or member.name.startswith("visit_"):
                    reach(member)

    classes = {d.qualified for d in definitions if d.is_class}
    return {
        d.qualified
        for d in definitions
        if d.qualified not in reached
        # A member of an unreached class is reported through its class.
        and not (d.qualified.rpartition(".")[0] in classes - reached)
    }


def test_only_kept_definitions_are_unreached():
    found = unreached()
    # Delete each one, move a test helper into conftest.py, or keep it with a reason.
    assert sorted(found - set(KEPT)) == [], "src definitions that no entry point reaches"
    assert sorted(set(KEPT) - found) == [], "KEPT entries that are reached or no longer defined"


def test_every_kept_definition_has_a_reason():
    assert all(reason.strip() for reason in KEPT.values())


if __name__ == "__main__":
    for name in sorted(unreached()):
        print(name)
