"""The package has no runtime dependencies beyond the standard library.

``pyproject.toml`` declares ``dependencies = []``.  This pins it where it
matters: a fresh interpreter importing the entry points a user or a
worker touches must not pull in numpy, even when numpy is installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# The entry points, plus the two kernel modules that once carried an
# optional numpy lane.  One interpreter each, so a failure names the module.
ENTRY_MODULES = (
    "repro.cli",
    "repro.campaign.runner",
    "repro.service.daemon",
    "repro.symbolic.serialize",
    "repro.bdd.manager",
    "repro.bdd.serialize",
)


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_entry_point_imports_without_numpy(module):
    code = (
        "import importlib, sys\n"
        f"importlib.import_module({module!r})\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
