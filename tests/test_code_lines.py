"""The code-line counter counts the lines that hold a token other than a comment or a docstring."""

import subprocess
import sys
from pathlib import Path

from code_lines import count_code_lines

COUNTER = Path(__file__).resolve().parent / "code_lines.py"

#: Each code line ends in ``# code``, except the first line of the two-line
#: string, which can hold no comment; every other line is a docstring, a
#: comment or blank.
FIXTURE = '''"""Module docstring,
over two lines."""

import math  # code

# A comment line.


class Point:  # code
    """Class docstring."""

    x: float = 0.0  # code

    def norm(self, scale=(  # code
        1.0,  # code
    )):  # code
        """Function docstring,

        over three lines."""
        text = """a string that is no docstring,
        over two lines"""  # code
        return math.hypot(self.x, len(text)) * scale[0]  # code
'''


def test_counts_only_lines_with_a_token_other_than_a_comment_or_a_docstring():
    assert count_code_lines(FIXTURE) == FIXTURE.count("# code") + 1 == 9


def test_a_module_of_docstring_comments_and_blanks_has_no_code():
    assert count_code_lines('"""Docstring."""\n\n# comment\n') == 0


def test_command_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    out = subprocess.run(
        [sys.executable, str(COUNTER), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == [f"     9 {tmp_path / 'a.py'}", f"     1 {tmp_path / 'sub' / 'b.py'}", "    10 total"]
