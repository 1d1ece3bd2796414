#!/usr/bin/env python
"""Run the repository's contract lint (RPL rules) as a CI gate.

Thin wrapper over :mod:`repro.devtools.lint` so CI does not depend on
the package being installed: it prepends ``src/`` to ``sys.path``, lints
``src/`` and ``scripts/`` (or the paths given on the command line), and
exits non-zero when any finding survives ``# repro: noqa[...]``
suppression.

Usage: python scripts/lint_contracts.py [--json] [--rules RPL001,...] [paths...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.devtools.lint import (  # noqa: E402  (path bootstrap above)
    LintError,
    lint_paths,
    render_json,
    render_text,
    resolve_codes,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument("--json", action="store_true", dest="json_output",
                        help="emit findings as JSON")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule codes to run (default: all)")
    args = parser.parse_args(argv)

    paths = args.paths or [
        str(_REPO_ROOT / name)
        for name in ("src", "scripts")
        if (_REPO_ROOT / name).is_dir()
    ]
    try:
        codes = resolve_codes(args.rules)
        findings = lint_paths(paths, codes)
    except LintError as exc:
        print(f"lint_contracts: {exc}", file=sys.stderr)
        return 2
    if args.json_output:
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
