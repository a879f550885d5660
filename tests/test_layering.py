"""The channel and design layers see a path count, never the scenario label.

The scenario is a sweep-level choice of ``experiments``; these modules may
mention "los" in docstrings, but no code of theirs defines or uses a
``LOS``, ``NLOS`` or ``scenario`` name. Only ``channel`` knows how the
cascade is tabled: no other module names its band-table builder or its size
check. The package as a whole imports only an allowlist of top-level
modules, so no import grows its memory unseen.
"""

import ast
from pathlib import Path

import pytest

import squintsim

PACKAGE = Path(squintsim.__file__).parent
SCENARIO_NAMES = {"LOS", "NLOS", "scenario"}
CHANNEL_PRIVATES = {"_band_table", "_check_sizes"}
ALLOWED_IMPORTS = {
    "__future__", "argparse", "ctypes", "dataclasses", "math", "numbers", "numpy", "os", "sys", "warnings"
}


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


def test_channel_defines_the_names_it_keeps_to_itself():
    assert names_in(ast.parse((PACKAGE / "channel.py").read_text(encoding="utf-8"))) >= CHANNEL_PRIVATES


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "channel.py"))
def test_only_channel_names_its_table_builder_and_size_check(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert names_in(tree) & CHANNEL_PRIVATES == set()


def test_check_sees_the_channel_private_names():
    source = "from .channel import _band_table\ndef f(channels):\n    return channels._check_sizes((1,))\n"
    assert names_in(ast.parse(source)) >= CHANNEL_PRIVATES


def imported_modules(tree: ast.AST) -> set[str]:
    """Top-level names of the modules a module imports; its own package's relative imports are left out."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_package_imports_exactly_the_allowlist():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    assert set().union(*map(imported_modules, trees)) == ALLOWED_IMPORTS


def test_import_scan_sees_nested_and_dotted_imports():
    source = "import os.path, json\nfrom logging import handlers\nfrom . import channel\ndef f():\n    import csv\n"
    assert imported_modules(ast.parse(source)) == {"os", "json", "logging", "csv"}
