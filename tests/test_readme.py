"""The README's library example and CLI examples run as documented."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from armakit import cli

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
    assert d_w.shape == namespace["ma"].data.shape
    # (alpha, beta) gradients of the f factors, then of the g factors
    d_ab = namespace["d_ab"]
    assert d_ab.shape == (2, 8, 1, 2) and np.isfinite(d_ab).all()


def cli_examples(*commands):
    # the README's `armakit <command> ...` lines for commands that need no input file
    prefixes = tuple(f"armakit {command} " for command in commands)
    lines = README.read_text().splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith(prefixes)]


@pytest.mark.parametrize("argv", cli_examples("erf", "stability", "gradcheck"), ids=" ".join)
def test_cli_example_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    if "empirical-2d" in argv:
        assert (tmp_path / "heat.json").is_file()
