"""The README's Python API block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # a library call on a row computes that row of the report
    report = namespace["report"]
    assert report[0].car == namespace["car"]
    assert report[0].ccar == namespace["ccar"].estimate
