"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library example", "exec"), namespace)
    y, d_x, d_w = namespace["y"], namespace["d_x"], namespace["d_w"]
    assert y.data.shape == (32, 32, 8)
    assert d_x.data.shape == namespace["x"].data.shape
    assert d_w.shape == namespace["params"].ma.data.shape
