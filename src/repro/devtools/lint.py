"""The contract-lint framework: rule registry, findings, noqa, output.

This is ``ruff`` for the contracts ruff cannot know about: each rule in
:mod:`repro.devtools.rules` encodes one repo-specific invariant (node
protection before GC, ``STAGE_DEPENDENCIES`` coverage, non-blocking
coroutines, ...) as a static check over the AST.  The framework here is rule-agnostic:

* :class:`Rule` — subclass, set ``code``/``summary``, implement
  :meth:`Rule.check`, decorate with :func:`register`;
* :class:`SourceFile` — one parsed file: text, lines, AST and the
  per-line ``# repro: noqa[RPLnnn]`` suppressions;
* :func:`lint_paths` — walk files/directories, run the selected rules,
  apply suppressions, return sorted :class:`Finding` objects;
* :func:`render_text` / :func:`render_json` — the two output shapes
  (``repro lint`` / ``repro lint --json``).

Rules are *heuristics with teeth*: they aim for zero false positives on
idiomatic code, and anything deliberate is silenced in place with
``# repro: noqa[RPLnnn]`` — which keeps every suppression greppable.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Type

__all__ = [
    "Finding",
    "LintError",
    "Rule",
    "SourceFile",
    "all_rules",
    "lint_paths",
    "register",
    "render_json",
    "render_text",
    "resolve_codes",
]

#: ``# repro: noqa`` silences every rule on the line; ``# repro:
#: noqa[RPL001]`` (comma-separated codes allowed) silences just those.
_NOQA = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9,\s]+)\])?")

_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    ".venv",
    "build",
    "dist",
}

#: Reported for files the linter cannot parse at all.
SYNTAX_ERROR_CODE = "RPL000"


class LintError(ValueError):
    """Bad linter invocation (unknown rule code, missing path)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One contract violation, anchored to a precise source span."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready shape (stable keys; consumed by editors and CI)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def describe(self) -> str:
        """The classic compiler one-liner: ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class SourceFile:
    """A parsed source file plus its per-line noqa suppressions."""

    def __init__(self, path: str, text: str, tree: ast.Module) -> None:
        self.path = path
        self.text = text
        self.tree = tree
        self.lines = text.splitlines()
        # line number -> None (suppress everything) or a set of codes.
        self.noqa: Dict[int, Optional[Set[str]]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _NOQA.search(line)
            if match is None:
                continue
            codes = match.group(1)
            if codes is None:
                self.noqa[lineno] = None
            else:
                wanted = {code.strip().upper() for code in codes.split(",")}
                self.noqa[lineno] = {code for code in wanted if code}

    def suppressed(self, finding: Finding) -> bool:
        """Is this finding silenced by a noqa comment on its line?"""
        if finding.line not in self.noqa:
            return False
        codes = self.noqa[finding.line]
        return codes is None or finding.rule in codes

    def finding(self, node: ast.AST, rule: "Rule", message: str) -> Finding:
        """A finding anchored at an AST node's span (1-based line/col)."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.code,
            message=message,
        )


class Rule:
    """Base class for contract rules.

    Subclasses set :attr:`code` (``RPLnnn``) and :attr:`summary` (one
    line, shown by ``repro lint --rules help`` and in docs), and
    implement :meth:`check`.  ``exempt_path_suffixes`` lists path
    endings the rule never applies to — e.g. the BDD kernel itself is
    allowed to touch its own internals.
    """

    code: str = ""
    summary: str = ""
    exempt_path_suffixes: Sequence[str] = ()

    def applies_to(self, source: SourceFile) -> bool:
        normalized = source.path.replace("\\", "/")
        return not any(
            normalized.endswith(suffix) for suffix in self.exempt_path_suffixes
        )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry (keyed by code)."""
    if not rule_class.code:
        raise ValueError(f"rule {rule_class.__name__} has no code")
    _REGISTRY[rule_class.code] = rule_class
    return rule_class


def all_rules() -> Dict[str, Type[Rule]]:
    """The full registry, importing the bundled rules on first use."""
    from . import rules  # noqa: F401  # repro: noqa[RPL010] (import registers the RPL rules)

    return dict(_REGISTRY)


def resolve_codes(spec: Optional[str]) -> List[str]:
    """Parse a ``--rules`` filter ("RPL001,RPL002") into known codes."""
    registry = all_rules()
    if not spec:
        return sorted(registry)
    codes = []
    for part in spec.split(","):
        code = part.strip().upper()
        if not code:
            continue
        if code not in registry:
            known = ", ".join(sorted(registry))
            raise LintError(f"unknown rule {code!r} (known rules: {known})")
        codes.append(code)
    if not codes:
        raise LintError(f"--rules selected nothing from {spec!r}")
    return sorted(set(codes))


def _python_files(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintError(f"no such file or directory: {raw}")
        if path.is_file():
            files.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS:
                continue
            files.append(candidate)
    # De-duplicate while keeping a stable order.
    seen: Set[Path] = set()
    unique = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def lint_paths(
    paths: Sequence[str], codes: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint files and directories; returns findings sorted by position.

    ``codes`` restricts to a subset of registered rules (default: all).
    Unparseable files yield a single :data:`SYNTAX_ERROR_CODE` finding
    rather than aborting the run.
    """
    registry = all_rules()
    selected = [registry[code]() for code in (codes or sorted(registry))]
    findings: List[Finding] = []
    for path in _python_files(paths):
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1),
                    rule=SYNTAX_ERROR_CODE,
                    message=f"cannot parse file: {exc.msg}",
                )
            )
            continue
        source = SourceFile(str(path), text, tree)
        for rule in selected:
            if not rule.applies_to(source):
                continue
            for finding in rule.check(source):
                if not source.suppressed(finding):
                    findings.append(finding)
    return sorted(findings)


def render_text(findings: Sequence[Finding]) -> str:
    """One line per finding plus a summary tail (empty input → all-clear)."""
    if not findings:
        return "contract lint: clean"
    lines = [finding.describe() for finding in findings]
    by_rule: Dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    tally = ", ".join(f"{code}: {count}" for code, count in sorted(by_rule.items()))
    lines.append(f"contract lint: {len(findings)} finding(s) ({tally})")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable output for ``repro lint --json`` (stable ordering)."""
    return json.dumps(
        {
            "findings": [finding.as_dict() for finding in findings],
            "count": len(findings),
        },
        indent=2,
        sort_keys=True,
    )
