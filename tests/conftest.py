"""Shared fixtures: the running worked example used throughout the suite."""

import numpy as np
import pytest
from hypothesis import settings

from dawa import estimation, partition
from dawa.core import DataVector, Interval, Partition, PrivacyBudget, Workload

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def example_x():
    """Ten-bin count vector exercised by most hand-checked anchors."""
    return DataVector(np.array([2, 3, 8, 1, 0, 2, 0, 4, 2, 4], dtype=np.int64))


@pytest.fixture
def example_partition():
    """Four-bucket grouping of example_x with known costs and counts."""
    return Partition(np.array([2, 3, 7, 10]))


@pytest.fixture
def example_counts():
    """Per-bucket totals of example_x under example_partition."""
    return np.array([5.0, 8.0, 3.0, 10.0])


@pytest.fixture
def example_budget():
    return PrivacyBudget.split(1.0)


@pytest.fixture
def single_query():
    """The range [2, 6]; answers 14 on example_x."""
    return Interval(2, 6)


@pytest.fixture
def tiny_workload(single_query):
    return Workload(np.array([single_query.lo, 1, 4]), np.array([single_query.hi, 10, 4]))


@pytest.fixture
def window_index_calls(monkeypatch):
    """Sizes of the values of each `_WindowIndex` built; stage 1 builds
    that index first whenever it computes a fresh cost table."""
    calls = []
    build = partition._WindowIndex

    def spy(values):
        calls.append(values.size)
        return build(values)

    monkeypatch.setattr(partition, "_WindowIndex", spy)
    return calls


@pytest.fixture
def measured_trees(monkeypatch):
    """The query trees given to `measure`, by every mechanism's stage 2, in call order."""
    trees = []
    measure = estimation.measure

    def spy(counts, tree, eps, rng):
        trees.append(tree)
        return measure(counts, tree, eps, rng)

    monkeypatch.setattr(estimation, "measure", spy)
    return trees
