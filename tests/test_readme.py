"""The README's Library examples run against the current API, and its tables mirror the code's."""

import re
from pathlib import Path

from squintsim.experiments import FIGURES, LOS, NLOS, SCHEMES

README = Path(__file__).resolve().parent.parent / "README.md"


def table_rows(heading: str) -> list[list[str]]:
    """Cells of every body row of the first table after ``heading``, backticks stripped."""
    text = README.read_text().split(heading, 1)[1]
    lines = [line for line in text.split("\n\n") if line.startswith("|")][0].splitlines()
    return [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in lines[2:]]


def test_python_blocks_run_in_one_namespace():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 4
    namespace = {}
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)


def test_schemes_table_rows_are_the_schemes_in_csv_order():
    rows = table_rows("## Schemes")
    assert [row[0] for row in rows] == list(SCHEMES)
    for name, los_cell, nlos_cell in rows:
        assert (los_cell != "not offered") == (LOS in SCHEMES[name])
        assert (nlos_cell != "not offered") == (NLOS in SCHEMES[name])


def test_figure_preset_table_is_figures():
    rows = table_rows("## Command line")
    assert {int(fig_id): (scenario, variable) for fig_id, scenario, variable in rows} == FIGURES
    assert [int(row[0]) for row in rows] == list(FIGURES)
