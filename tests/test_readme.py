"""The Python examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    """The bodies of the fenced ``python`` blocks, in order."""
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_order_in_one_namespace():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
