"""Shared hypothesis strategies for the test suite."""

import numpy as np
from hypothesis import strategies as st

from dawa.core import DataVector, Interval, Partition, Workload
from dawa.transform import transform_workload


def workload_of(queries):
    """Workload of the given intervals, in order."""
    qs = list(queries)
    return Workload(np.array([q.lo for q in qs]), np.array([q.hi for q in qs]))


@st.composite
def data_vectors(draw, min_n=1, max_n=32, max_count=20):
    n = draw(st.integers(min_n, max_n))
    counts = draw(
        st.lists(st.integers(0, max_count), min_size=n, max_size=n)
    )
    return DataVector(np.asarray(counts, dtype=np.int64))


@st.composite
def intervals_for(draw, n):
    lo = draw(st.integers(1, n))
    hi = draw(st.integers(lo, n))
    return Interval(lo, hi)


@st.composite
def partitions_of(draw, n):
    # choose cut positions after each index; always a contiguous cover
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
    return Partition(np.array(sorted(cuts) + [n]))


@st.composite
def workloads_over(draw, n, max_m=12):
    m = draw(st.integers(1, max_m))
    return workload_of(draw(intervals_for(n)) for _ in range(m))


@st.composite
def data_with_partition(draw, min_n=1, max_n=32, max_count=20):
    x = draw(data_vectors(min_n, max_n, max_count))
    part = draw(partitions_of(x.n))
    return x, part


@st.composite
def data_with_workload(draw, min_n=1, max_n=32, max_count=20, max_m=12):
    x = draw(data_vectors(min_n, max_n, max_count))
    W = draw(workloads_over(x.n, max_m))
    return x, W


epsilons = st.sampled_from([0.1, 0.5, 1.0, 2.0, 10.0])


def random_transformed_workload(rng, k, m):
    """m random intervals rewritten over a random k-bucket partition of a
    domain of k to 4k positions; about half the queries are short runs."""
    n = int(rng.integers(k, 4 * k + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False)).tolist() if k > 1 else []
    part = Partition(np.array(cuts + [n]))
    los, his = [], []
    for _ in range(m):
        lo = int(rng.integers(1, n + 1))
        hi = int(rng.integers(lo, n + 1)) if rng.uniform() < 0.5 else min(n, lo + int(rng.geometric(0.3)) - 1)
        los.append(lo)
        his.append(hi)
    return transform_workload(Workload(np.array(los), np.array(his)), part)
