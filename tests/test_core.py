"""Core types, RNG plumbing, query evaluation, and file formats."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dawa.core import (
    DataVector,
    DimensionError,
    EstimateVector,
    Histogram,
    Interval,
    InvalidIntervalError,
    InvalidPartitionError,
    ParameterError,
    Partition,
    PrivacyBudget,
    RngStream,
    EPSILON_FLOOR,
    Workload,
    average_workload_error,
    derive_seed,
    evaluate_workload,
    laplace_noise,
    laplace_sample,
    read_data_file,
    read_workload_file,
    uniform_expand,
    write_data_file,
    write_workload_file,
)

from .memory import peak_bytes
from .reference import evaluate_query, reference_laplace_sample
from .strategies import data_vectors, data_with_partition, data_with_workload


class TestInterval:
    """Intervals are named (lo, hi) pairs of Python ints; the Workload and
    Partition arrays they come from hold the checks."""

    def test_basic(self):
        q = Interval(2, 6)
        assert q == (2, 6)
        assert (q.lo, q.hi) == tuple(q) == (2, 6)
        assert repr(q) == "Interval(lo=2, hi=6)"

    def test_point_interval(self):
        lo, hi = next(iter(Partition(np.array([4]))))
        assert (lo, hi) == (1, 4)
        lo, hi = next(iter(Workload([4], [4])))
        assert lo == hi == 4

    @pytest.mark.parametrize("lo,hi", [(0, 3), (-1, 2), (5, 4), (3, 0)])
    def test_invalid(self, lo, hi):
        # a pair is not checked; the workload it would come from is
        assert Interval(lo, hi) == (lo, hi)
        with pytest.raises(InvalidIntervalError):
            Workload([lo], [hi])

    def test_numpy_integer_endpoints_stored_as_int(self):
        for dtype in (np.int32, np.uint8, np.uint64):
            W = Workload(np.array([1, 2], dtype=dtype), np.array([3, 2], dtype=dtype))
            assert list(W) == [(1, 3), (2, 2)]
            assert all(type(lo) is int and type(hi) is int for lo, hi in W)
            q = next(iter(W))
            assert hash(q) == hash(Interval(1, 3)) == hash((1, 3))
            assert repr(q) == "Interval(lo=1, hi=3)"

    @pytest.mark.parametrize("lo", [1.0, np.float64(1.0), "1", None])
    def test_non_integer_endpoints_rejected(self, lo):
        with pytest.raises(InvalidIntervalError):
            Workload([lo], [3])

    @given(data_with_workload())
    def test_workload_iterates_to_its_arrays(self, xw):
        _, W = xw
        pairs = list(W)
        assert pairs == list(zip(W.los.tolist(), W.his.tolist()))
        assert all(type(q) is Interval and type(q.lo) is int and type(q.hi) is int for q in pairs)

    @given(data_with_partition())
    def test_partition_iterates_to_its_arrays(self, xp):
        _, p = xp
        pairs = list(p)
        assert pairs == list(zip(p.los.tolist(), p.his.tolist()))
        assert all(type(q) is Interval and type(q.lo) is int and type(q.hi) is int for q in pairs)


class TestDataVector:
    def test_basic(self, example_x):
        assert example_x.n == 10
        assert example_x.total() == 26
        assert example_x.counts.dtype == np.int64

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            DataVector([1, -2, 3])

    def test_rejects_fractional(self):
        with pytest.raises(ParameterError):
            DataVector(np.array([1.5, 2.0]))

    def test_accepts_integral_floats(self):
        x = DataVector(np.array([1.0, 2.0]))
        assert x.counts.dtype == np.int64

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            DataVector([])

    @pytest.mark.parametrize("counts", [
        [2**70],
        [1, 2**63],
        np.array([2**63], dtype=np.uint64),
        np.array([2.0**63]),
        np.array([1.0, np.inf]),
        np.array([np.nan]),
    ])
    def test_rejects_counts_outside_int64(self, counts):
        with pytest.raises(ParameterError):
            DataVector(counts)

    def test_rejects_total_outside_int64(self):
        with pytest.raises(ParameterError):
            DataVector([2**62, 2**62])
        x = DataVector([2**62, 2**62 - 1])
        assert x.total() == 2**63 - 1


class TestPartition:
    def test_unit(self):
        p = Partition.unit(4)
        assert p.k == 4
        assert p.lengths().tolist() == [1, 1, 1, 1]
        assert p.his.tolist() == p.los.tolist() == [1, 2, 3, 4]

    def test_single(self):
        p = Partition(np.array([7]))
        assert p.k == 1
        assert list(p) == [Interval(1, 7)]

    def test_example_is_valid(self, example_partition):
        assert example_partition.n == 10
        assert example_partition.k == len(example_partition) == 4

    def test_bounds_arrays(self, example_partition):
        assert example_partition.his.dtype == example_partition.los.dtype == np.int64
        assert example_partition.los.tolist() == [1, 3, 4, 8]
        assert example_partition.his.tolist() == [2, 3, 7, 10]
        assert example_partition.lengths().tolist() == [2, 1, 4, 3]

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=12))
    def test_cover_predicate(self, lengths):
        # any run of positive lengths is a cover; a step that is not
        # positive anywhere is refused, naming that bucket
        his = np.cumsum(lengths)
        p = Partition(his)
        assert p.lengths().tolist() == lengths and p.n == sum(lengths)
        for i in range(len(lengths)):
            bad = his.copy()
            bad[i] = bad[i - 1] if i else 0
            with pytest.raises(InvalidPartitionError, match=f"bucket {i} "):
                Partition(bad)

    @pytest.mark.parametrize(
        "buckets",
        [
            [0, 10],        # misses position 1
            [5, 5, 10],     # empty bucket
            [6, 4, 10],     # overlaps the bucket before
        ],
    )
    def test_invalid_covers(self, buckets):
        with pytest.raises(InvalidPartitionError):
            Partition(np.array(buckets))

    def test_iterates_intervals(self, example_partition):
        assert list(example_partition) == [Interval(1, 2), Interval(3, 3), Interval(4, 7), Interval(8, 10)]
        assert all(type(b.lo) is int and type(b.hi) is int for b in example_partition)

    @pytest.mark.parametrize(
        "his, fragment",
        [
            ([5, 10, 10], "bucket 2 ends at 10, not after the previous end 10"),
            ([6, 4, 10], "bucket 1 ends at 4, not after the previous end 6"),
            ([-3, 10], "bucket 0 ends at -3, not after the previous end 0"),
            ([2, np.iinfo(np.int64).min], "bucket 1 ends at"),                  # a wrapping step
            (np.array([2, 2**63], dtype=np.uint64), "bucket 1 ends at 9223372036854775808, not after"),
            (np.array([2**63, 2**63 + 1], dtype=np.uint64), "bucket 0 ends at 9223372036854775808"),
            ([], "bucket ends must be non-empty, 1-d int64 integers"),
            ([[1, 2]], "bucket ends must be non-empty, 1-d int64 integers"),
            (np.array([1.0, 2.0]), "bucket ends must be non-empty, 1-d int64 integers"),
            ([1, 2**70], "bucket ends must be non-empty, 1-d int64 integers"),
            (np.array([True]), "bucket ends must be non-empty, 1-d int64 integers"),
        ],
    )
    def test_invalid_ends_name_first_bad_bucket(self, his, fragment):
        with pytest.raises(InvalidPartitionError, match=re.escape(fragment)):
            Partition(his)

    def test_stores_read_only_copy(self):
        his = np.array([3, 5, 9])
        p = Partition(his)
        assert his.flags.writeable
        his[0] = 1
        assert p.his.tolist() == [3, 5, 9]
        with pytest.raises(ValueError):
            p.his[0] = 2
        frozen = np.array([4, 8])
        frozen.setflags(write=False)
        assert Partition(frozen).n == 8 and not frozen.flags.writeable

    def test_bucket_totals(self, example_x, example_partition, example_counts):
        got = example_partition.bucket_totals(example_x.counts)
        assert got.dtype == np.float64
        assert got.tolist() == example_counts.tolist()
        with pytest.raises(DimensionError):
            example_partition.bucket_totals(example_x.counts[:9])

    @given(st.integers(1, 40), st.data())
    def test_bucket_totals_match_slices(self, n, data):
        counts = np.array(data.draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)))
        cuts = data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
        p = Partition(np.array(sorted(cuts) + [n]))
        want = [float(counts[b.lo - 1 : b.hi].sum()) for b in p]
        assert p.bucket_totals(counts).tolist() == want

    def test_short_cover_fails_for_larger_n(self):
        p = Partition([5, 9])
        assert p.n == 9
        with pytest.raises(DimensionError):
            uniform_expand(Histogram(p, np.zeros(2)), 10)

    def test_validate_partition_wrong_n(self, example_partition, example_x):
        # a partition of [1, 10] is refused wherever [1, 12] is needed
        with pytest.raises(DimensionError):
            uniform_expand(Histogram(example_partition, np.zeros(4)), 12)
        with pytest.raises(DimensionError):
            example_partition.bucket_totals(np.zeros(12, dtype=np.int64))


class TestWorkload:
    def test_basic(self, tiny_workload):
        assert tiny_workload.m == len(tiny_workload) == 3
        assert int(tiny_workload.his.max()) == 10

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            Workload([], [])

    @pytest.mark.parametrize("los, his", [([1, 2], [3]), ([[1]], [[2]]), (1, 2)])
    def test_rejects_bad_shapes(self, los, his):
        with pytest.raises(ParameterError):
            Workload(los, his)

    @pytest.mark.parametrize(
        "los, his, fragment",
        [
            ([1, 0], [3, 3], "query 1: need 1 <= lo <= hi <= 2**63 - 1, got [0, 3]"),
            ([2, 5, 4], [6, 7, 3], "query 2: need 1 <= lo <= hi <= 2**63 - 1, got [4, 3]"),
            ([-1], [2], "query 0: need 1 <= lo <= hi <= 2**63 - 1, got [-1, 2]"),
            (np.array([1.0]), np.array([3.0]), "endpoints must be int64 integers, got dtypes float64, float64"),
            ([1, 2], np.array([4, 2**63], dtype=np.uint64),
             "query 1: need 1 <= lo <= hi <= 2**63 - 1, got [2, 9223372036854775808]"),
            (np.array([2**63], dtype=np.uint64), [1], "query 0: need 1 <= lo <= hi <= 2**63 - 1"),
            ([1, 2**70], [3, 2**70], "endpoints must be int64 integers, got dtypes object, object"),
        ],
    )
    def test_invalid_queries(self, los, his, fragment):
        with pytest.raises(InvalidIntervalError, match=re.escape(fragment)):
            Workload(los, his)

    def test_bounds_arrays(self, tiny_workload):
        assert tiny_workload.los.dtype == tiny_workload.his.dtype == np.int64
        assert tiny_workload.los.tolist() == [2, 1, 4]
        assert tiny_workload.his.tolist() == [6, 10, 4]
        assert list(tiny_workload) == [Interval(2, 6), Interval(1, 10), Interval(4, 4)]

    def test_stores_read_only_copies(self):
        los, his = np.array([1, 2]), np.array([3, 4])
        W = Workload(los, his)
        los[0] = 2
        assert W.los.tolist() == [1, 2]
        assert los.flags.writeable and his.flags.writeable
        with pytest.raises(ValueError):
            W.his[0] = 9


class TestPrivacyBudget:
    def test_split_default(self):
        b = PrivacyBudget.split(1.0)
        assert b.eps1 == 0.25
        assert b.eps2 == 0.75
        assert b.epsilon == 1.0

    def test_split_fraction(self):
        b = PrivacyBudget.split(2.0, stage1_fraction=0.5)
        assert b.eps1 == 1.0 and b.eps2 == 1.0

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.1, 1.5])
    def test_bad_fraction(self, frac):
        with pytest.raises(ParameterError):
            PrivacyBudget.split(1.0, stage1_fraction=frac)

    def test_components_must_sum(self):
        # the second overspends a total of 1e-13 ten times, by less than 1e-12
        for parts in [(1.0, 0.3, 0.8), (1e-13, 5e-13, 5e-13)]:
            with pytest.raises(ParameterError):
                PrivacyBudget(*parts)

    @pytest.mark.parametrize("frac", [0.01, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9])
    def test_split_accepts_its_own_output_at_every_scale(self, frac):
        # an absolute tolerance refused 949 of these at fraction 0.1, 9415.615007157057 among them;
        # from the floor up split accepts its own output, and below it names the first short share
        least = EPSILON_FLOOR / min(frac, 1 - frac)
        for eps in [*np.logspace(-300, 300, 20_000).tolist(), 1e-306, 1e-310, 9415.615007157057,
                    least, np.nextafter(least, 0), np.nextafter(least, np.inf)]:
            eps1 = eps * frac
            short = [(stage, share) for stage, share in ((1, eps1), (2, eps - eps1)) if share < EPSILON_FLOOR]
            try:
                budget = PrivacyBudget.split(eps, frac)
            except ParameterError as exc:
                stage, share = short[0]
                assert str(exc) == (f"epsilon = {eps} is too small: its stage-{stage} share at stage1_fraction "
                                    f"{frac} is {share}, and the least epsilon accepted is 2**-50, about 8.9e-16")
            else:
                assert not short and budget.eps1 == eps1

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_positive(self, eps):
        with pytest.raises(ParameterError):
            PrivacyBudget.split(eps)


class TestSeedsAndRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_derive_seed_sensitivity(self):
        base = derive_seed(7, "a", 1)
        assert derive_seed(8, "a", 1) != base
        assert derive_seed(7, "b", 1) != base
        assert derive_seed(7, "a", 2) != base
        assert derive_seed(7, 1, "a") != base

    def test_rng_reproducible(self):
        a = laplace_sample(1.0, RngStream(3), size=16)
        b = laplace_sample(1.0, RngStream(3), size=16)
        assert np.array_equal(a, b)

    def test_split_streams_differ(self):
        rng = RngStream(3)
        a = laplace_sample(1.0, rng.split("x"), size=8)
        b = laplace_sample(1.0, rng.split("y"), size=8)
        assert not np.array_equal(a, b)

    def test_split_does_not_consume_parent(self):
        r1 = RngStream(3)
        r1.split("x")
        r2 = RngStream(3)
        assert np.array_equal(
            laplace_sample(1.0, r1, size=8), laplace_sample(1.0, r2, size=8)
        )

    def test_ledger_records_draws(self):
        ledger = []
        rng = RngStream(0, ledger=ledger)
        laplace_sample(2.5, rng, size=4)
        laplace_sample(0.5, rng, size=1)
        assert ledger == [(2.5, 4), (0.5, 1)]

    def test_ledger_propagates_through_split(self):
        ledger = []
        rng = RngStream(0, ledger=ledger)
        laplace_sample(1.0, rng.split("child"), size=2)
        assert ledger == [(1.0, 2)]


class TestLaplace:
    def test_scalar_and_vector_forms(self):
        rng = RngStream(1)
        v = laplace_sample(1.0, rng, size=1)
        assert v.shape == (1,)
        a = laplace_sample(1.0, rng, size=5)
        assert a.shape == (5,)

    def test_never_exactly_zero(self):
        draws = laplace_sample(1.0, RngStream(11), size=200_000)
        assert np.all(draws != 0.0)

    def test_symmetry_rough(self):
        draws = laplace_sample(1.0, RngStream(5), size=100_000)
        assert abs(float(np.mean(draws))) < 0.02

    def test_scale_rough(self):
        draws = laplace_sample(3.0, RngStream(5), size=100_000)
        # Laplace(b) has mean |X| = b
        assert abs(float(np.mean(np.abs(draws))) - 3.0) < 0.1

    def test_variance_matches_closed_form(self):
        # Laplace(b) has variance 2 b^2
        b = 2.5
        draws = laplace_sample(b, RngStream(17), size=1_000_000)
        assert abs(float(np.var(draws)) - 2 * b * b) / (2 * b * b) < 0.05

    def test_scalar_draw_is_the_size_one_draw(self):
        # 200 draws of size 1 are the slices of one draw of 200
        for seed, scale in ((0, 1.0), (3, 0.37)):
            scalar, array = RngStream(seed), RngStream(seed)
            ones = np.concatenate([laplace_sample(scale, scalar, size=1) for _ in range(200)])
            assert ones.tobytes() == laplace_sample(scale, array, size=200).tobytes()
            assert scalar.generator.random() == array.generator.random()

    def test_one_log_matches_two_branch_reference(self):
        # every step before the log is exact for u on the 2^-53 grid, so the
        # one-log form returns the two-branch draws bit for bit
        for seed, scale in ((0, 1.0), (1, 0.37), (2, 8.0)):
            got = laplace_sample(scale, RngStream(seed), size=300_000)
            want = reference_laplace_sample(scale, RngStream(seed), 300_000)
            assert got.tobytes() == want.tobytes()

    def test_one_log_matches_reference_at_grid_edges(self):
        ulp = 2.0 ** -53
        edges = np.array([ulp, 2 * ulp, 0.25, 0.5 - ulp, 0.5, 0.5 + ulp, 0.75, 1.0 - ulp])

        class FixedUniforms:
            ledger = []

            def uniform_open(self, size):
                return edges.copy()

        for scale in (1.0, 0.37, 8.0):
            got = laplace_sample(scale, FixedUniforms(), size=len(edges))
            want = reference_laplace_sample(scale, FixedUniforms(), len(edges))
            assert got.tobytes() == want.tobytes()

    def test_noise_is_added_in_place_as_the_slices_of_one_draw(self):
        # 20,000 draws in 3 slices of _CHUNK, recorded as one entry
        values = np.arange(20_000.0)
        rng = RngStream(5)
        assert laplace_noise(values, 2.0, "eps2", 0.5, rng) is values
        want = np.arange(20_000.0) + laplace_sample(4.0, RngStream(5), size=20_000)
        assert values.tobytes() == want.tobytes()
        assert rng.ledger == [(4.0, 20_000)]

    def test_million_draws_hold_two_draw_sized_arrays(self):
        # the uniforms, reused for the result, and the signs: 16 MB at most
        peak, _ = peak_bytes(laplace_sample, 1.0, RngStream(0), size=1_000_000)
        assert peak <= 2.2 * 8_000_000

    def test_scale_refuses_an_epsilon_below_the_floor(self):
        # the largest scale is 4/eps1 at the floor; a scale is not an epsilon, so a tiny one is drawn
        rng = RngStream(0)
        laplace_noise(np.zeros(1), 4.0, "eps1", EPSILON_FLOOR, rng)
        assert rng.ledger == [(2.0**52, 1)]
        below = np.nextafter(EPSILON_FLOOR, 0)
        with pytest.raises(ParameterError, match=rf"^eps1 = {below} is too small: the least epsilon accepted is "
                                                 r"2\*\*-50, about 8\.9e-16$"):
            laplace_noise(np.zeros(1), 4.0, "eps1", below, rng)
        assert rng.ledger == [(2.0**52, 1)]
        assert np.all(np.abs(laplace_sample(1e-300, RngStream(0), 4)) < 37e-300)

    def test_invalid_scale(self):
        with pytest.raises(ParameterError):
            laplace_sample(0.0, RngStream(0), size=1)
        with pytest.raises(ParameterError):
            laplace_sample(-1.0, RngStream(0), size=1)


class TestEvaluation:
    def test_example_query(self, example_x, single_query):
        # hand-checked: 3+8+1+0+2 over positions 2..6
        assert evaluate_query(single_query, example_x) == 14.0

    def test_full_range(self, example_x):
        assert evaluate_query(Interval(1, 10), example_x) == 26.0

    def test_point(self, example_x):
        assert evaluate_query(Interval(3, 3), example_x) == 8.0

    def test_out_of_range_raises(self, example_x):
        with pytest.raises(InvalidIntervalError):
            evaluate_query(Interval(5, 11), example_x)

    def test_workload_matches_rowwise(self, example_x, tiny_workload):
        got = evaluate_workload(tiny_workload, example_x)
        want = [evaluate_query(q, example_x) for q in tiny_workload]
        assert got.tolist() == want

    @given(data_with_workload(max_n=24))
    def test_workload_rowwise_property(self, xw):
        x, W = xw
        got = evaluate_workload(W, x)
        want = np.array([evaluate_query(q, x) for q in W])
        assert np.array_equal(got, want)

    def test_estimate_vector_input(self, single_query):
        xhat = EstimateVector(np.linspace(0, 1, 10))
        got = evaluate_query(single_query, xhat)
        assert got == pytest.approx(float(np.sum(xhat.values[1:6])))


class TestUniformExpand:
    def test_worked_example(self, example_partition):
        # each bucket statistic spreads evenly over its positions
        h = Histogram(example_partition, np.array([6.3, 7.1, 3.6, 8.4]))
        got = uniform_expand(h, 10)
        want = [3.15, 3.15, 7.1, 0.9, 0.9, 0.9, 0.9, 2.8, 2.8, 2.8]
        # printed decimals differ from the division results by under an ulp
        assert np.allclose(got.values, want, atol=1e-12, rtol=0)

    def test_unit_partition_identity(self):
        h = Histogram(Partition.unit(5), np.arange(5.0))
        assert np.array_equal(uniform_expand(h, 5).values, np.arange(5.0))

    def test_mass_preserved(self, example_partition):
        h = Histogram(example_partition, np.array([5.0, 8.0, 3.0, 10.0]))
        assert float(np.sum(uniform_expand(h, 10).values)) == pytest.approx(26.0)

    def test_wrong_n_raises(self, example_partition):
        h = Histogram(example_partition, np.zeros(4))
        with pytest.raises(DimensionError):
            uniform_expand(h, 12)

    def test_per_bucket_mass_preserved(self, example_partition):
        rng = np.random.default_rng(6)
        stats = rng.uniform(-5.0, 5.0, size=4)
        y = uniform_expand(Histogram(example_partition, stats), 10).values
        for b, s in zip(example_partition, stats):
            assert float(y[b.lo - 1:b.hi].sum()) == pytest.approx(s, abs=1e-9)

    def test_linear_in_stats(self, example_partition):
        rng = np.random.default_rng(7)
        s1, s2 = rng.uniform(-5.0, 5.0, size=(2, 4))
        a, c = 1.7, -0.4
        combo = uniform_expand(Histogram(example_partition, a * s1 + c * s2), 10).values
        split = (
            a * uniform_expand(Histogram(example_partition, s1), 10).values
            + c * uniform_expand(Histogram(example_partition, s2), 10).values
        )
        assert np.allclose(combo, split, atol=1e-9)


class TestAverageError:
    def test_manual(self, example_x):
        W = Workload([1, 3], [2, 10])
        xhat = EstimateVector(example_x.counts.astype(float) + 1.0)
        # absolute errors are 2 and 8; mean 5
        assert average_workload_error(W, example_x, xhat) == pytest.approx(5.0)

    def test_zero_for_exact(self, example_x, tiny_workload):
        xhat = EstimateVector(example_x.counts.astype(float))
        assert average_workload_error(tiny_workload, example_x, xhat) == 0.0

    def test_positive_once_a_query_moves(self, example_x, tiny_workload):
        bumped = example_x.counts.astype(float)
        bumped[2] += 0.5  # position 3 sits inside [2,6] and [1,10]
        assert average_workload_error(tiny_workload, example_x, EstimateVector(bumped)) > 0.0


class TestFileFormats:
    def test_data_round_trip(self, tmp_path, example_x):
        p = tmp_path / "x.txt"
        write_data_file(p, example_x)
        assert read_data_file(p).counts.tolist() == example_x.counts.tolist()

    def test_workload_round_trip(self, tmp_path, tiny_workload):
        p = tmp_path / "w.csv"
        write_workload_file(p, tiny_workload)
        back = read_workload_file(p)
        assert np.array_equal(back.los, tiny_workload.los) and np.array_equal(back.his, tiny_workload.his)

    def test_data_file_format(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("3\n0\n7\n")
        assert read_data_file(p).counts.tolist() == [3, 0, 7]

    def test_workload_file_format(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("lo,hi\n1,5\n2,2\n")
        W = read_workload_file(p)
        assert (W.los.tolist(), W.his.tolist()) == ([1, 2], [5, 2])

    @pytest.mark.parametrize("body, fragment", [
        ("1,5\n2\n", ":3: expected 2 fields, got 1"),
        ("1,5,7\n", ":2: expected 2 fields, got 3"),
        ("1,5\n2,x\n", ":3: not int: 'x'"),
        ("1,5\n2,1180591620717411303424\n", ":3: outside int64: '1180591620717411303424'"),
        ("2,9223372036854775808\n", ":2: outside int64: '9223372036854775808'"),
    ], ids=["short-row", "extra-field", "not-int", "past-int64", "int64-max-plus-one"])
    def test_bad_workload_row_names_line(self, tmp_path, body, fragment):
        p = tmp_path / "w.csv"
        p.write_text("lo,hi\n" + body)
        with pytest.raises(ParameterError, match=re.escape(str(p) + fragment)):
            read_workload_file(p)

    def test_bad_query_in_file_is_refused(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("lo,hi\n1,5\n4,2\n")
        with pytest.raises(InvalidIntervalError, match=re.escape("query 1: need 1 <= lo <= hi <= 2**63 - 1, got [4, 2]")):
            read_workload_file(p)

    def test_workload_header_with_spaces(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("lo, hi\n1, 5\n\n2 ,2\n")
        assert list(read_workload_file(p)) == [Interval(1, 5), Interval(2, 2)]

    def test_bad_data_file(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("3\n-1\n")
        with pytest.raises(ParameterError):
            read_data_file(p)
