"""Bucket costs, the flat cost table, and the least-cost dynamic program."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dawa.core import (
    DataVector,
    Interval,
    ParameterError,
    Partition,
    RngStream,
    laplace_sample,
    validate_partition,
)
from dawa.oracles import BRUTE_FORCE_MAX_N, oracle_brute_partition
from dawa.partition import (
    BUCKET_COST_SENSITIVITY,
    EXACT_COST_LIMIT,
    PartitionParams,
    all_costs,
    bucket_cost,
    bucket_dev,
    candidate_lengths,
    exact_partition,
    least_cost_partition,
    partition_cost,
    perturb_costs,
    private_partition,
    utility_bound,
)

from .strategies import data_vectors, data_with_partition


def brute_dev(x: DataVector, b: Interval) -> float:
    seg = x.counts[b.lo - 1 : b.hi]
    return float(np.sum(np.abs(seg - seg.mean())))


class TestCandidateLengths:
    def test_all(self):
        assert candidate_lengths(5, "all") == (1, 2, 3, 4, 5)

    def test_pow2(self):
        assert candidate_lengths(10, "pow2") == (1, 2, 4, 8)
        assert candidate_lengths(8, "pow2") == (1, 2, 4, 8)
        assert candidate_lengths(1, "pow2") == (1,)

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            candidate_lengths(5, "fib")


class TestBucketDev:
    def test_anchor_b3(self, example_x):
        assert bucket_dev(example_x, Interval(4, 7)) == 3.0

    def test_anchor_b4(self, example_x):
        assert bucket_dev(example_x, Interval(8, 10)) == pytest.approx(8.0 / 3.0)

    def test_constant_segment_is_free(self):
        x = DataVector([4, 4, 4, 4])
        assert bucket_dev(x, Interval(1, 4)) == 0.0

    def test_singleton_is_free(self, example_x):
        for j in range(1, 11):
            assert bucket_dev(example_x, Interval(j, j)) == 0.0

    @given(data_with_partition(max_n=24))
    def test_matches_brute(self, xp):
        x, part = xp
        for b in part.buckets:
            assert bucket_dev(x, b) == pytest.approx(brute_dev(x, b), abs=1e-9)

    @given(data_with_partition(max_n=24))
    def test_one_sided_form(self, xp):
        # |x - mean| sums to twice the positive side, since deviations cancel
        x, part = xp
        for b in part.buckets:
            seg = x.counts[b.lo - 1:b.hi]
            mean = seg.mean()
            one_sided = 2.0 * float(np.maximum(seg - mean, 0.0).sum())
            assert bucket_dev(x, b) == pytest.approx(one_sided, abs=1e-9)


class TestBucketAndPartitionCost:
    def test_cost_is_dev_plus_price(self, example_x):
        b = Interval(4, 7)
        assert bucket_cost(example_x, b, 2.0) == bucket_dev(example_x, b) + 0.5

    def test_anchor_flat_bucket(self, example_x):
        assert bucket_cost(example_x, Interval(3, 3), 1.0) == 1.0

    def test_anchor_single_bucket(self, example_x):
        assert bucket_cost(example_x, Interval(1, 10), 1.0) == pytest.approx(18.2)

    def test_anchor_partition_eps1(self, example_x, example_partition):
        got = partition_cost(example_x, example_partition, 1.0)
        assert got == pytest.approx(10.0 + 2.0 / 3.0)

    def test_anchor_partition_eps01(self, example_x, example_partition):
        got = partition_cost(example_x, example_partition, 0.1)
        assert got == pytest.approx(46.0 + 2.0 / 3.0)
        single = partition_cost(example_x, Partition.single(10), 0.1)
        assert single == pytest.approx(27.2)
        # cheap statistics favour fine buckets; scarce budget favours coarse
        assert got > single

    @given(data_with_partition(max_n=24))
    def test_decomposes_over_buckets(self, xp):
        x, part = xp
        total = sum(bucket_cost(x, b, 0.9) for b in part.buckets)
        assert partition_cost(x, part, 0.9) == total

    def test_invalid_eps(self, example_x):
        with pytest.raises(ParameterError):
            bucket_cost(example_x, Interval(1, 2), 0.0)


def candidates(n: int, mode: str):
    """Every candidate bucket, in the cost table's order."""
    for length in candidate_lengths(n, mode):
        for lo in range(1, n - length + 2):
            yield lo, lo + length - 1


class TestCostTable:
    def test_size_k_anchor(self, example_x):
        table = all_costs(example_x, 1.0, "all")
        assert table.cost(4, 7) == pytest.approx(4.0)  # dev 3 plus price 1

    def test_size_k_matches_direct(self, example_x):
        # the length-k slice of the flat array, read directly by offset
        table = all_costs(example_x, 0.7, "all")
        for length in (1, 2, 3, 7, 10):
            i = length - 1
            assert table.lengths[i] == length
            assert table.offsets[i] == sum(10 - short + 1 for short in range(1, length))
            for lo in range(1, 10 - length + 2):
                want = bucket_cost(example_x, Interval(lo, lo + length - 1), 0.7)
                assert table.costs[table.offsets[i] + lo - 1] == want

    @given(data_vectors(max_n=20), st.sampled_from([0.1, 1.0, 3.0]))
    def test_sliding_equals_direct(self, x, eps2):
        # the vectorised numerators must reproduce the direct formula bit for bit
        for mode in ("all", "pow2"):
            table = all_costs(x, eps2, mode)
            got = [table.cost(lo, hi) for lo, hi in candidates(x.n, mode)]
            assert len(got) == len(table)
            assert table.costs.tolist() == got
            assert got == [bucket_cost(x, Interval(lo, hi), eps2) for lo, hi in candidates(x.n, mode)]

    @settings(max_examples=25, deadline=None)
    @given(data_vectors(min_n=20, max_n=70, max_count=3000))
    def test_large_counts_equal_direct(self, x):
        # wider values and windows exercise more merge-sort-tree levels
        table = all_costs(x, 0.37, "all")
        for lo, hi in candidates(x.n, "all"):
            assert table.cost(lo, hi) == bucket_cost(x, Interval(lo, hi), 0.37)

    def test_all_costs_entry_counts(self, example_x):
        assert len(all_costs(example_x, 1.0, "all")) == 55
        x8 = DataVector(example_x.counts[:8])
        assert len(all_costs(x8, 1.0, "pow2")) == 21

    def test_all_costs_metadata(self, example_x):
        t = all_costs(example_x, 1.0, "pow2")
        assert t.n == 10
        assert t.mode == "pow2"
        assert t.lengths.tolist() == [1, 2, 4, 8]
        assert t.offsets.tolist() == [0, 10, 19, 26]

    def test_missing_candidate_raises(self, example_x):
        t = all_costs(example_x, 1.0, "pow2")
        for lo, hi in [(1, 3), (0, 1), (10, 11), (5, 4)]:
            with pytest.raises(KeyError):
                t.cost(lo, hi)

    def test_arrays_read_only(self, example_x):
        t = all_costs(example_x, 1.0, "pow2")
        with pytest.raises(ValueError):
            t.costs[0] = 0.0

    def test_invalid_eps2(self, example_x):
        with pytest.raises(ParameterError):
            all_costs(example_x, 0.0, "pow2")

    def test_overflow_guard_at_limit(self):
        # n * total = 2**52 is the largest product whose numerators stay exact
        for counts in ([2**48] + [0] * 15, [2**45, 0, 2**45 - 1, 1] * 4):
            x = DataVector(counts)
            assert x.n * x.total() == EXACT_COST_LIMIT
            table = all_costs(x, 0.5, "all")
            for lo, hi in candidates(x.n, "all"):
                assert table.cost(lo, hi) == bucket_cost(x, Interval(lo, hi), 0.5)

    def test_overflow_guard_rejects_past_limit(self):
        # 2**52 + 1 = 17 * 264917625139441
        x = DataVector([264917625139441 - 16] + [1] * 16)
        assert x.n * x.total() == EXACT_COST_LIMIT + 1
        with pytest.raises(ParameterError, match="2\\*\\*52"):
            all_costs(x, 0.5, "pow2")
        with pytest.raises(ParameterError):
            private_partition(x, PartitionParams(0.25, 0.75), RngStream(0))


class TestPerturb:
    def test_deterministic(self, example_x):
        t = all_costs(example_x, 1.0, "all")
        a = perturb_costs(t, 0.5, RngStream(3))
        b = perturb_costs(t, 0.5, RngStream(3))
        assert np.array_equal(a.costs, b.costs)
        assert not np.array_equal(a.costs, t.costs)
        assert a.lengths is t.lengths and a.offsets is t.offsets

    def test_draw_order(self, example_x):
        # one vector draw, matched to candidates in the table's order
        for mode in ("all", "pow2"):
            t = all_costs(example_x, 1.0, mode)
            noisy = perturb_costs(t, 0.5, RngStream(11))
            want = laplace_sample(2.0 * BUCKET_COST_SENSITIVITY / 0.5, RngStream(11), size=len(t))
            # the sum is bit-exact; the difference only up to rounding
            assert np.array_equal(noisy.costs, t.costs + want)
            assert np.allclose(noisy.costs - t.costs, want, rtol=0.0, atol=1e-12)

    def test_noise_scale_on_ledger(self, example_x):
        t = all_costs(example_x, 1.0, "pow2")
        ledger = []
        perturb_costs(t, 0.5, RngStream(3, ledger=ledger))
        # every entry gets one draw at scale 2 * sensitivity / eps1
        assert ledger == [(2.0 * BUCKET_COST_SENSITIVITY / 0.5, len(t))]

    def test_custom_sensitivity(self, example_x):
        t = all_costs(example_x, 1.0, "pow2")
        ledger = []
        perturb_costs(t, 1.0, RngStream(3, ledger=ledger), delta_bcost=1.0)
        assert ledger[0][0] == 2.0


class TestLeastCost:
    def test_matches_oracle_costs(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            x = DataVector(rng.integers(0, 12, size=n))
            eps2 = float(rng.choice([0.2, 1.0, 5.0]))
            table = all_costs(x, eps2, "all")
            got = least_cost_partition(table, n)
            _, best = oracle_brute_partition(x, eps2)
            assert validate_partition(got, n)
            assert partition_cost(x, got, eps2) == best

    def test_prefers_longer_last_bucket_on_tie(self):
        # flat data: every partition into k buckets costs k/eps2, so the
        # single bucket wins and ties inside never split the tail
        x = DataVector([3] * 8)
        table = all_costs(x, 1.0, "all")
        got = least_cost_partition(table, 8)
        assert got.k == 1

    def test_pow2_mode_restricted_lengths(self, example_x):
        table = all_costs(example_x, 1.0, "pow2")
        got = least_cost_partition(table, 10)
        assert validate_partition(got, 10)
        for b in got.buckets:
            assert b.length in (1, 2, 4, 8)

    def test_upper_bound_anchor(self, example_x):
        # the hand-worked four-bucket grouping costs 10 2/3; the optimum
        # can only improve on it
        table = all_costs(example_x, 1.0, "all")
        got = least_cost_partition(table, 10)
        assert partition_cost(example_x, got, 1.0) <= 10.0 + 2.0 / 3.0 + 1e-12

    def test_matches_oracle_at_cap(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            x = DataVector(rng.integers(0, 10, size=12))
            table = all_costs(x, 0.8, "all")
            got = least_cost_partition(table, 12)
            _, best = oracle_brute_partition(x, 0.8)
            assert partition_cost(x, got, 0.8) == best

    def test_argmin_invariant_under_table_scaling(self, example_x):
        # positive rescaling of all costs reorders nothing, ties included
        table = all_costs(example_x, 0.6, "all")
        base = least_cost_partition(table, 10)
        scaled = replace(table, costs=3.7 * table.costs)
        assert least_cost_partition(scaled, 10).buckets == base.buckets


class TestExactPartition:
    def test_recovers_segments(self):
        x = DataVector([7] * 6 + [2] * 5 + [9] * 5)
        part = exact_partition(x, 100.0, "all")
        assert [(b.lo, b.hi) for b in part.buckets] == [(1, 6), (7, 11), (12, 16)]

    def test_scarce_budget_coarsens(self):
        x = DataVector([7] * 6 + [6] * 6)
        # price 1/eps2 = 50 dwarfs the deviation of merging, so one bucket
        part = exact_partition(x, 0.02, "all")
        assert part.k == 1


class TestPrivatePartition:
    def test_deterministic(self, example_x):
        p = PartitionParams(0.25, 0.75, "all")
        a = private_partition(example_x, p, RngStream(5))
        b = private_partition(example_x, p, RngStream(5))
        assert a == b

    def test_valid_output(self, example_x):
        for seed in range(6):
            p = private_partition(
                example_x, PartitionParams(0.25, 0.75, "pow2"), RngStream(seed)
            )
            assert validate_partition(p, 10)

    def test_converges_to_exact(self, example_x):
        # with a huge stage-1 budget the noise vanishes
        p = PartitionParams(1e9, 0.75, "all")
        got = private_partition(example_x, p, RngStream(0))
        want = exact_partition(example_x, 0.75, "all")
        assert got == want

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            PartitionParams(-1.0, 0.75, "all")
        with pytest.raises(ParameterError):
            PartitionParams(0.25, 0.75, "all3")


class TestUtilityBound:
    def test_formula(self):
        got = utility_bound(10, 55, 0.05, 1.0)
        assert got == pytest.approx(4.0 * 2.0 * 10 * math.log(55 / 0.05) / 1.0)

    def test_monotone_in_eps1(self):
        assert utility_bound(10, 55, 0.05, 2.0) < utility_bound(10, 55, 0.05, 1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            utility_bound(0, 55, 0.05, 1.0)
        with pytest.raises(ParameterError):
            utility_bound(10, 55, 1.5, 1.0)
        with pytest.raises(ParameterError):
            utility_bound(10, 55, 0.05, 0.0)


class TestSensitivityProperty:
    @given(
        data_vectors(min_n=1, max_n=10, max_count=6),
        st.integers(0, 9),
        st.sampled_from([-1, 1]),
    )
    def test_neighbor_cost_change_bounded(self, x, pos, delta):
        # one individual added or removed moves any bucket cost by at most 2
        pos = pos % x.n
        edited = x.counts.copy()
        edited[pos] += delta
        if edited[pos] < 0:
            edited[pos] = 0
        y = DataVector(edited)
        for lo in range(1, x.n + 1):
            for hi in range(lo, x.n + 1):
                b = Interval(lo, hi)
                change = abs(bucket_cost(x, b, 1.0) - bucket_cost(y, b, 1.0))
                assert change <= BUCKET_COST_SENSITIVITY + 1e-12
