"""The channel and design layers see a path count, never the scenario label.

The scenario is a sweep-level choice of ``experiments``; these modules may
mention "los" in docstrings, but no code of theirs defines or uses a
``LOS``, ``NLOS`` or ``scenario`` name.
"""

import ast
from pathlib import Path

import pytest

import squintsim

PACKAGE = Path(squintsim.__file__).parent
SCENARIO_NAMES = {"LOS", "NLOS", "scenario"}


def names_in(tree: ast.AST) -> set[str]:
    """Every identifier a module defines, binds, imports or reads."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            found.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found |= {node.name, node.asname or node.name}
    return found


@pytest.mark.parametrize("module", ["channel.py", "phase_design.py"])
def test_no_scenario_name(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert names_in(tree) & SCENARIO_NAMES == set()


def test_check_sees_the_scenario_names():
    source = "from .experiments import LOS\ndef f(paths, scenario):\n    return paths.NLOS\n"
    assert names_in(ast.parse(source)) >= SCENARIO_NAMES
