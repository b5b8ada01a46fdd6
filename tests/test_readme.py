"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from dawa.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    sh_lines = [line for block in re.findall(r"```sh\n(.*?)```", README, re.S)
                for line in block.splitlines()
                if re.match(r"dawa (datagen|workload|partition) ", line)]
    python_blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert [line.split()[1] for line in sh_lines] == ["datagen", "workload", "partition"]
    assert len(python_blocks) == 2
    monkeypatch.chdir(tmp_path)
    # the datagen line writes the counts.txt that the other examples read
    for line in sh_lines:
        assert main(shlex.split(line)[1:]) == 0, line
    namespace = {}
    for block in python_blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["xhat"].n == 1024
