"""Every name a ``repro`` module lists in ``__all__`` exists in it.

A stale ``__all__`` entry (a name deleted or renamed while its export
stayed) breaks ``from module import *`` and the public API documentation,
yet no import or call in the rest of the suite would notice it.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    module.name for module in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_modules_are_found():
    assert "repro.pipeline.vcd" in EXPORTING
    assert "repro.pipeline.interlock" in MODULES


@pytest.mark.parametrize("module_name", EXPORTING)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names missing attributes"
