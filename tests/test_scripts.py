"""Smoke tests for the example scripts and configs under scripts/."""

import dataclasses
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dawa.core import RngStream
from dawa.experiments import ExperimentConfig, run_experiment
from dawa.generators import gen_synthetic_data
from dawa.mechanisms import MECHANISM_NAMES
from dawa.partition import PartitionParams, exact_partition, private_partition
from .reference import partition_cost

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_partition_demo(capsys):
    assert load_script("partition_demo").main(["--n", "32"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n = 32")
    assert lines[1].startswith("exact:")
    assert len(lines) == 2 + 4  # one line per default eps1
    # each printed cost, gathered from the exact table, is the per-bucket sum
    x = gen_synthetic_data("piecewise_constant", 32, 0, segments=6)
    chosen = [exact_partition(x, 0.75)] + [
        private_partition(x, PartitionParams(eps1, 0.75), RngStream(1)) for eps1 in (0.05, 0.25, 1.0, 10.0)]
    for line, p in zip(lines[1:], chosen):
        cost, k = re.search(r"cost +(\S+) +k = (\d+)", line).groups()
        assert (cost, int(k)) == (f"{partition_cost(x, p, 0.75):.3f}", p.k)


# one bad argument per script, and the message it must print; a new script needs an entry
BAD_ARGUMENTS = {
    "partition_demo.py": (["--eps1", "-1"], "error: eps1 must be positive and finite, got -1.0"),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_bad_argument_is_clean_error(script):
    args, message = BAD_ARGUMENTS[script.name]
    src = str(SCRIPTS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode != 0
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("config", sorted((SCRIPTS / "configs").glob("*.json")), ids=lambda p: p.name)
def test_config_loads_and_runs(config):
    cfg = ExperimentConfig.from_json(config)
    assert set(cfg.mechanisms) <= set(MECHANISM_NAMES)
    small = dataclasses.replace(cfg, n=32, num_workloads=1, trials=1,
                                workload={**cfg.workload, "num_queries": 10})
    report = run_experiment(small)
    assert len(report.aggregates) == len(cfg.mechanisms) * len(cfg.epsilons)
