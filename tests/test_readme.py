"""The README's Library examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_one_namespace():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 4
    namespace = {}
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)
