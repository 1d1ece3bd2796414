"""Tests for the contract lint (repro.devtools): rules, noqa, CLI, repo hygiene.

The fixture corpus under ``tests/fixtures/contracts/`` carries one
``bad``/``good``/``noqa`` triple per rule: the bad file must trip its
rule (and only its rule), the good file must be clean, and the noqa file
contains the same violation silenced with ``# repro: noqa[RPLnnn]``.
"""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.devtools.lint import (
    LintError,
    all_rules,
    lint_paths,
    render_json,
    render_text,
    resolve_codes,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "contracts"

ALL_CODES = (
    "RPL001",
    "RPL002",
    "RPL004",
    "RPL005",
    "RPL006",
    "RPL007",
    "RPL008",
    "RPL009",
    "RPL010",
)


def fixture(code, kind):
    path = FIXTURES / f"{code.lower()}_{kind}.py"
    assert path.is_file(), path
    return str(path)


# ---------------------------------------------------------------------------
# The corpus: every rule catches its true positive and stays quiet otherwise.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_trips_exactly_its_rule(code):
    findings = lint_paths([fixture(code, "bad")])
    assert findings, f"{code} bad fixture produced no findings"
    assert {f.rule for f in findings} == {code}
    # Spans are real positions inside the file.
    text = Path(fixture(code, "bad")).read_text().splitlines()
    for f in findings:
        assert 1 <= f.line <= len(text)
        assert f.col >= 0
        assert f.message


@pytest.mark.parametrize("code", ALL_CODES)
def test_good_fixture_is_clean(code):
    assert lint_paths([fixture(code, "good")]) == []


@pytest.mark.parametrize("code", ALL_CODES)
def test_noqa_fixture_is_suppressed(code):
    assert lint_paths([fixture(code, "noqa")]) == []
    # The suppression is doing the work: the same file minus its noqa
    # comments trips the rule again.
    stripped = "\n".join(
        line.split("# repro: noqa")[0]
        for line in Path(fixture(code, "noqa")).read_text().splitlines()
    )
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".py", delete=False) as handle:
        handle.write(stripped)
    findings = lint_paths([handle.name])
    assert {f.rule for f in findings} == {code}


def test_unused_import_rule_names_each_dead_binding():
    findings = lint_paths([fixture("RPL010", "bad")])
    assert [(f.line, f.message) for f in findings] == [
        (3, "'os.path' imported but never used"),
        (4, "'Dict' imported but never used"),
        (6, "'SymbolicContext as Context' imported but never used"),
        (10, "'json' imported but never used"),
    ]


def test_unused_import_rule_counts_exports_and_string_annotations(tmp_path):
    # The good fixture uses one name only in __all__ and one only in a
    # string annotation; dropping both uses makes both imports dead.
    text = Path(fixture("RPL010", "good")).read_text()
    text = text.replace('"Var", ', "").replace('"FunctionalSpec"', "object")
    source = tmp_path / "dead.py"
    source.write_text(text)
    assert sorted(f.message for f in lint_paths([str(source)])) == [
        "'FunctionalSpec' imported but never used",
        "'Var' imported but never used",
    ]


def test_rule_filter_restricts_findings():
    findings = lint_paths([str(FIXTURES)], resolve_codes("RPL001"))
    assert findings
    assert {f.rule for f in findings} == {"RPL001"}


def test_unknown_rule_code_rejected():
    with pytest.raises(LintError):
        resolve_codes("RPL999")


@pytest.mark.parametrize(
    "table",
    ["_VALIDATED_OPERATIONS", "NODE_RETURNING_METHODS", "NODE_COMBINING_METHODS"],
)
def test_kernel_method_tables_name_only_manager_methods(table):
    # The sanitizer wraps each name of its table at import and the
    # RPL001/RPL002 tables match call sites by name: a deleted kernel
    # method must leave every table too.
    from repro.bdd.manager import BddManager
    from repro.devtools import rules, sanitizer

    names = getattr(sanitizer, table, None) or getattr(rules, table)
    assert names
    assert sorted(name for name in names if not hasattr(BddManager, name)) == []


def test_retired_rpl003_stays_unassigned():
    # RPL003 guarded raw-id loops against automatic reordering, which the
    # kernel no longer has; the code is retired, not reused.
    assert "RPL003" not in all_rules()
    with pytest.raises(LintError):
        resolve_codes("RPL003")


def test_syntax_error_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    findings = lint_paths([str(bad)])
    assert len(findings) == 1
    assert findings[0].rule == "RPL000"


def test_registry_exposes_every_rule():
    registry = all_rules()
    assert sorted(registry) == sorted(ALL_CODES)
    for code, rule_class in registry.items():
        assert rule_class.code == code
        assert rule_class.summary


# ---------------------------------------------------------------------------
# Renderers and the CLI verb.
# ---------------------------------------------------------------------------


def test_render_text_clean_and_findings():
    assert render_text([]) == "contract lint: clean"
    findings = lint_paths([fixture("RPL001", "bad")])
    text = render_text(findings)
    assert "RPL001" in text
    assert "rpl001_bad.py" in text


def test_render_json_shape():
    findings = lint_paths([fixture("RPL002", "bad")])
    payload = json.loads(render_json(findings))
    assert payload["count"] == len(findings)
    entry = payload["findings"][0]
    assert set(entry) == {"path", "line", "col", "rule", "message"}
    assert entry["rule"] == "RPL002"


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


def test_cli_lint_bad_fixture_exits_nonzero():
    code, output = run_cli("lint", fixture("RPL005", "bad"))
    assert code == 1
    assert "RPL005" in output


def test_cli_lint_json_and_rules_filter():
    code, output = run_cli(
        "lint", "--json", "--rules", "RPL001", fixture("RPL005", "bad")
    )
    assert code == 0
    assert json.loads(output) == {"count": 0, "findings": []}


def test_cli_lint_clean_path_exits_zero(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    code, output = run_cli("lint", str(tmp_path))
    assert code == 0
    assert "clean" in output


# ---------------------------------------------------------------------------
# Repo hygiene: the shipped tree lints clean, via the CI wrapper too.
# ---------------------------------------------------------------------------


def test_repository_lints_clean():
    paths = [str(REPO_ROOT / name) for name in ("src", "scripts")]
    findings = lint_paths(paths)
    assert findings == [], render_text(findings)
