"""Workload re-expression over bucket statistics and its exactness identity."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dawa.core import (
    DimensionError,
    Histogram,
    Interval,
    Partition,
    Workload,
    evaluate_workload,
    uniform_expand,
)
from dawa.transform import transform_workload

from .reference import dense_transform, evaluate_query, rows_of
from .strategies import data_with_partition, intervals_for, partitions_of, workload_of


def transform_query(q, partition):
    """Coefficients of one query over the buckets, from the one-row workload."""
    return rows_of(transform_workload(workload_of([q]), partition))[0]


def overlap(a, b):
    """Number of positions two intervals share."""
    return max(0, min(a.hi, b.hi) - max(a.lo, b.lo) + 1)


class TestTransformQuery:
    def test_worked_anchor(self, example_partition, single_query):
        tw = transform_workload(workload_of([single_query]), example_partition)
        assert (tw.first.tolist(), tw.last.tolist()) == ([0], [2])
        assert (tw.first_frac.tolist(), tw.last_frac.tolist()) == ([0.5], [0.75])
        assert np.array_equal(transform_query(single_query, example_partition), [0.5, 1.0, 0.75, 0.0])

    def test_full_cover_is_ones(self, example_partition):
        got = transform_query(Interval(1, 10), example_partition)
        assert np.array_equal(got, np.ones(4))

    def test_disjoint_gives_zero(self, example_partition):
        got = transform_query(Interval(1, 2), example_partition)
        assert np.array_equal(got, [1.0, 0.0, 0.0, 0.0])

    def test_point_query(self, example_partition):
        # one end bucket: both fractions are its covered fraction
        tw = transform_workload(Workload([5], [5]), example_partition)
        assert (tw.first.tolist(), tw.last.tolist()) == ([2], [2])
        assert tw.first_frac.tolist() == tw.last_frac.tolist() == [0.25]
        assert np.array_equal(transform_query(Interval(5, 5), example_partition), [0.0, 0.0, 0.25, 0.0])

    def test_out_of_range(self, example_partition):
        with pytest.raises(DimensionError):
            transform_workload(Workload([1], [11]), example_partition)

    @given(partitions_of(16), intervals_for(16))
    def test_coefficients_are_overlap_fractions(self, part, q):
        got = transform_query(q, part)
        want = np.array([overlap(q, b) / (b.hi - b.lo + 1) for b in part])
        assert np.array_equal(got, want)
        assert np.all(got >= 0.0) and np.all(got <= 1.0)

    @given(partitions_of(16), intervals_for(16))
    def test_row_support_is_contiguous(self, part, q):
        # an interval touches a contiguous run of buckets
        support = np.flatnonzero(transform_query(q, part))
        assert support.size >= 1
        assert np.array_equal(support, np.arange(support[0], support[-1] + 1))

    def test_unit_partition_gives_incidence_matrix(self, tiny_workload):
        tw = transform_workload(tiny_workload, Partition.unit(10))
        for i, q in enumerate(tiny_workload):
            want = np.zeros(10)
            want[q.lo - 1:q.hi] = 1.0
            assert np.array_equal(rows_of(tw)[i], want)


class TestTransformWorkload:
    @given(partitions_of(24), st.lists(intervals_for(24), min_size=1, max_size=8))
    def test_rows_are_exact_overlap_fractions(self, part, qs):
        tw = transform_workload(workload_of(qs), part)
        want = np.array([[overlap(q, b) / (b.hi - b.lo + 1) for b in part] for q in qs])
        assert rows_of(tw).tobytes() == want.tobytes()
        assert dense_transform(workload_of(qs), part).tobytes() == want.tobytes()

    def test_query_past_domain_rejected(self, example_partition):
        with pytest.raises(DimensionError):
            transform_workload(Workload([1], [11]), example_partition)

    def test_matrix_shape_and_rows(self, example_partition, tiny_workload):
        tw = transform_workload(tiny_workload, example_partition)
        for end in (tw.first, tw.last, tw.first_frac, tw.last_frac):
            assert end.shape == (3,)
        for i, q in enumerate(tiny_workload):
            assert np.array_equal(rows_of(tw)[i], transform_query(q, example_partition))
        assert tw.partition is example_partition

    def test_exactness_identity(self, example_partition, tiny_workload):
        # answering through the expanded estimate equals the matrix product
        s = np.array([6.3, 7.1, 3.6, 8.4])
        tw = transform_workload(tiny_workload, example_partition)
        xhat = uniform_expand(Histogram(example_partition, s), 10)
        direct = evaluate_workload(tiny_workload, xhat)
        assert np.allclose(direct, rows_of(tw) @ s, atol=1e-12)

    @given(
        data_with_partition(max_n=32),
        st.integers(0, 2**32 - 1),
    )
    def test_exactness_property(self, xp, seed):
        x, part = xp
        rng = np.random.default_rng(seed)
        qs = []
        for _ in range(4):
            lo = int(rng.integers(1, x.n + 1))
            hi = int(rng.integers(lo, x.n + 1))
            qs.append(Interval(lo, hi))
        W = workload_of(qs)
        s = rng.normal(scale=10.0, size=part.k)
        tw = transform_workload(W, part)
        xhat = uniform_expand(Histogram(part, s), x.n)
        direct = evaluate_workload(W, xhat)
        assert np.max(np.abs(direct - rows_of(tw) @ s)) <= 1e-9
