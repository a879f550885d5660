"""The names the benchmark tracer wraps must exist in the package.

``benchmarks/child.py`` patches each ``(module, attribute)`` of its
``TRACED_NAMES`` table and exits with an error when one is missing, but only
under ``--trace 1``. This test reads the table from the file without running
it, so a renamed or deleted traced function fails here first.
"""

import ast
import importlib
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "benchmarks" / "child.py"


def traced_names() -> dict:
    tree = ast.parse(CHILD.read_text(encoding="utf-8"), filename=str(CHILD))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED_NAMES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED_NAMES table in {CHILD}")


TRACED = sorted({pair for pairs in traced_names().values() for pair in pairs})


def test_table_is_not_empty():
    assert TRACED


@pytest.mark.parametrize("module,attribute", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"squintsim.{module}"), attribute, None))
