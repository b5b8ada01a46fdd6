"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import numpy as np

from dawa.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    sh_lines = [line for block in re.findall(r"```sh\n(.*?)```", README, re.S)
                for line in block.splitlines()
                if re.match(r"dawa (datagen|workload|partition|spatial) ", line)]
    python_blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert [line.split()[1] for line in sh_lines] == ["datagen", "workload", "partition", "spatial"]
    assert len(python_blocks) == 2
    monkeypatch.chdir(tmp_path)
    # the datagen line writes the counts.txt that the other examples read; the
    # spatial line reads 200 points and 3 rectangles written here
    pts = np.random.default_rng(0).uniform(0, 1, size=(200, 2))
    (tmp_path / "points.csv").write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    (tmp_path / "rects.csv").write_text("xlo,xhi,ylo,yhi\n0,0.5,0,0.5\n0.2,0.9,0.4,0.6\n0.7,1,0,1\n")
    for line in sh_lines:
        capsys.readouterr()
        assert main(shlex.split(line)[1:]) == 0, line
    # the spatial line, run last, prints one answer per rectangle
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "xlo,xhi,ylo,yhi,answer" and len(rows) == 4
    namespace = {}
    for block in python_blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["xhat"].n == 1024
