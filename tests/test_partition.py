"""Bucket costs, the flat cost table, the least-cost dynamic program, and an
empirical audit of stage 1's privacy claim."""

import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta

from dawa import partition
from dawa.core import (
    DataVector,
    Interval,
    ParameterError,
    Partition,
    PrivacyBudget,
    RngStream,
    laplace_draws,
    laplace_sample,
)
from dawa.generators import gen_synthetic_data
from dawa.mechanisms import MechanismConfig
from dawa.partition import (
    _CHUNK,
    BUCKET_COST_SENSITIVITY,
    EXACT_COST_LIMIT,
    _TABLE_CAP,
    PartitionParams,
    _WindowIndex,
    all_costs,
    candidate_lengths,
    check_stage1_size,
    deviation_table,
    exact_partition,
    least_cost_partition,
    perturb_costs,
    private_partition,
)

from .memory import peak_bytes
from .reference import (BRUTE_FORCE_MAX_N, bucket_cost, bucket_dev, cost_at, oracle_brute_partition, partition_cost,
                        reference_least_cost_partition, utility_bound)
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

    @pytest.mark.parametrize("make", [
        lambda mode: candidate_lengths(5, mode),
        lambda mode: PartitionParams(0.25, 0.75, mode),
        lambda mode: MechanismConfig("dawa", PrivacyBudget.split(1.0), mode=mode),
    ], ids=["candidate_lengths", "PartitionParams", "MechanismConfig"])
    def test_one_mode_check(self, make):
        with pytest.raises(ParameterError, match=re.escape("mode must be 'all' or 'pow2', got 'fib'")):
            make("fib")


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
        for b in part:
            assert bucket_dev(x, b) == pytest.approx(brute_dev(x, b), abs=1e-9)

    @given(data_with_partition(max_n=24))
    def test_one_sided_form(self, xp):
        # |x - mean| sums to twice the positive side, since deviations cancel
        x, part = xp
        for b in part:
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
        single = partition_cost(example_x, Partition(np.array([10])), 0.1)
        assert single == pytest.approx(27.2)
        # cheap statistics favour fine buckets; scarce budget favours coarse
        assert got > single

    @given(data_with_partition(max_n=24))
    def test_decomposes_over_buckets(self, xp):
        x, part = xp
        total = sum(bucket_cost(x, b, 0.9) for b in part)
        assert partition_cost(x, part, 0.9) == total

    def test_invalid_eps(self, example_x):
        with pytest.raises(ParameterError):
            bucket_cost(example_x, Interval(1, 2), 0.0)


def release_table(x, params, rng, deviations=None):
    """The noisy table a `private_partition` release hands its dynamic program."""
    with mock.patch.object(partition, "least_cost_partition", wraps=partition.least_cost_partition) as spy:
        private_partition(x, params, rng, deviations)
    return spy.call_args.args[0]


def candidates(n: int, mode: str):
    """Every candidate bucket, in the cost table's order."""
    for length in candidate_lengths(n, mode):
        for lo in range(1, n - length + 2):
            yield lo, lo + length - 1


class TestCostTable:
    def test_size_k_anchor(self, example_x):
        table = all_costs(example_x, 1.0, "all")
        assert cost_at(table, 4, 7) == pytest.approx(4.0)  # dev 3 plus price 1

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
            got = [cost_at(table, lo, hi) for lo, hi in candidates(x.n, mode)]
            assert len(got) == len(table)
            assert table.costs.tolist() == got
            assert got == [bucket_cost(x, Interval(lo, hi), eps2) for lo, hi in candidates(x.n, mode)]

    @settings(max_examples=25, deadline=None)
    @given(data_vectors(min_n=20, max_n=70, max_count=3000))
    def test_large_counts_equal_direct(self, x):
        # more distinct values give the wavelet matrix more levels
        table = all_costs(x, 0.37, "all")
        for lo, hi in candidates(x.n, "all"):
            assert cost_at(table, lo, hi) == bucket_cost(x, Interval(lo, hi), 0.37)

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
                cost_at(t, lo, hi)

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
                assert cost_at(table, lo, hi) == bucket_cost(x, Interval(lo, hi), 0.5)

    def test_overflow_guard_rejects_past_limit(self):
        # 2**52 + 1 = 17 * 264917625139441
        x = DataVector([264917625139441 - 16] + [1] * 16)
        assert x.n * x.total() == EXACT_COST_LIMIT + 1
        with pytest.raises(ParameterError, match="2\\*\\*52"):
            all_costs(x, 0.5, "pow2")
        with pytest.raises(ParameterError):
            private_partition(x, PartitionParams(0.25, 0.75), RngStream(0))


@st.composite
def kernel_values(draw):
    """Counts of the kinds the stage-1 kernel must handle, in any order."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["random", "zeros", "single", "distinct", "spike"]))
    if kind == "zeros":
        return np.zeros(n, dtype=np.int64)
    if kind == "single":
        return np.full(n, draw(st.integers(1, 10**6)), dtype=np.int64)
    if kind == "distinct":
        return np.asarray(draw(st.permutations(range(n))), dtype=np.int64) * 3
    values = np.asarray(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)), dtype=np.int64)
    if kind == "spike":
        values[draw(st.integers(0, n - 1))] = EXACT_COST_LIMIT // n - draw(st.integers(0, 9))
    return values


def index_with_rows(rows, values):
    """The window index over values with _TABLE_CAP set to hold `rows` rank rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("dawa.partition._TABLE_CAP", rows * (values.size + 1))
        return _WindowIndex(values)


class TestWindowIndex:
    """One index answers stage 1's window queries: rank rows for the
    R = min(D, _TABLE_CAP // (n + 1)) lowest ranks, and the wavelet matrix
    only past them, with the same bits at every R."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_values(), st.data())
    def test_count_sum_at_least_matches_brute_force(self, values, data):
        n, top = values.size, int(values.max())
        windows = data.draw(st.lists(
            st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted), min_size=1, max_size=20
        ))
        # every window is asked at 0, at the largest value and at a random threshold
        starts, stops, thresholds = [], [], []
        for a, b in windows:
            for t in (0, top, data.draw(st.integers(0, top))):
                starts.append(a)
                stops.append(b)
                thresholds.append(t)
        distinct = np.unique(values).size
        for rows in sorted({0, 1, distinct - 1, distinct}):
            index = index_with_rows(rows, values)
            assert index.rows == rows and bool(index.levels) == (rows < distinct)
            count, total = index.count_sum_at_least(
                np.array(starts), np.array(stops), np.array(thresholds, dtype=np.int64)
            )
            for a, b, t, c, s in zip(starts, stops, thresholds, count.tolist(), total.tolist()):
                window = values[a:b]
                reached = window[window >= t]
                assert (c, s) == (reached.size, int(reached.sum())), rows

    def test_stage1_all_shape_takes_the_table(self):
        # n = 1024 piecewise constant with D = 6, as the stage1-all benchmark:
        # rows for every rank and no wavelet matrix
        values = np.repeat(np.array([4, 0, 17, 9, 0, 2, 31, 4]), 128)
        index = _WindowIndex(values)
        assert index.rows == np.unique(values).size == 6 and not index.levels
        assert index.counts.size == 6150

    def test_spatial_g7_size_takes_the_wavelet(self):
        # n = 2^14 cells with D = 281 distinct counts: rows for the 3 lowest
        # ranks, 3 * 16,385 entries, and 9 levels for the rest
        values = np.arange(16_384) % 281 * 7
        index = _WindowIndex(values)
        assert index.rows == 3 and len(index.levels) == 9
        assert index.counts.size == 3 * 16_385 <= _TABLE_CAP
        # the same points at g = 8: 2^16 cells, D = 175, no rows at all
        index = _WindowIndex(np.arange(65_536) % 175 * 7)
        assert index.rows == 0 and index.counts.size == 0 and len(index.levels) == 8

    def test_benchmark_data_keeps_every_rank_in_rows(self):
        # the 1D benchmark data: piecewise constant with 8 runs, total 10n
        for n in (1024, 2048, 4096):
            x = gen_synthetic_data("piecewise_constant", n, 2014, segments=8, total=10.0 * n)
            index = _WindowIndex(x.counts)
            assert index.rows == np.unique(x.counts).size and not index.levels

    def test_levels_follow_distinct_counts_not_the_largest(self):
        # a spike near the exact-cost limit needs 43 value bits but adds one rank
        rng = np.random.default_rng(3)
        values = rng.integers(0, 6, size=1024)
        values[17] = EXACT_COST_LIMIT // values.size
        distinct = np.unique(values).size
        levels = index_with_rows(0, values).levels
        assert len(levels) == (distinct - 1).bit_length() == 3
        assert int(values.max()).bit_length() == 43
        assert len(index_with_rows(0, np.zeros(5, dtype=np.int64)).levels) == 1

    def test_cap_is_inclusive(self):
        # D = 1: n + 1 entries
        assert _TABLE_CAP == 65_536
        assert _WindowIndex(np.full(65_535, 3)).rows == 1
        assert _WindowIndex(np.full(65_536, 3)).rows == 0

    # 20,100 candidates in 3 slices at R = D by default, and 19,964 in 3 at
    # R = 32 of D = 40
    @pytest.mark.parametrize("n, mode", [(200, "all"), (2000, "pow2")])
    def test_both_structures_give_the_same_costs(self, monkeypatch, n, mode):
        x = DataVector(np.random.default_rng(n).integers(0, 40, size=n))
        costs = []
        # R = 0, 1, 20 and 40, then the default cap
        for cap in [rows * (n + 1) for rows in (0, 1, 20, 40)] + [_TABLE_CAP]:
            monkeypatch.setattr("dawa.partition._TABLE_CAP", cap)
            released = release_table(x, PartitionParams(0.25, 0.75, mode), RngStream(4))
            costs.append([all_costs(x, 0.75, mode).costs.tobytes(), released.costs.tobytes()])
        assert _WindowIndex(x.counts).rows == (40 if mode == "all" else 32)
        assert len(all_costs(x, 0.75, mode)) > 2 * _CHUNK
        assert all(c == costs[0] for c in costs)


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


class TestNoiseInSlices:
    """A release prices its deviations and noises them in place, a slice of
    _CHUNK at a time, with the sampler of `perturb_costs`, which the privacy
    audit and the benchmark's traced rebuild call on the exact table; the
    two must give the same bits, and the slices those of one draw."""

    # 20,100 candidates in 3 slices, and 98,319 in 13
    CASES = [(200, "all"), (8192, "pow2")]

    @staticmethod
    def data(n):
        return DataVector(np.random.default_rng(n).integers(0, 60, size=n))

    @pytest.mark.parametrize("n, mode", CASES)
    def test_slices_match_one_draw(self, n, mode):
        x = self.data(n)
        exact = all_costs(x, 0.75, mode)
        assert len(exact) > 2 * _CHUNK
        scale = 2.0 * BUCKET_COST_SENSITIVITY / 0.25
        for seed in (1, 2):
            released = release_table(x, PartitionParams(0.25, 0.75, mode), RngStream(seed))
            two_step = perturb_costs(exact, 0.25, RngStream(seed))
            one_draw = exact.costs + laplace_sample(scale, RngStream(seed), size=len(exact))
            assert released.costs.tobytes() == two_step.costs.tobytes() == one_draw.tobytes()

    def test_zero_uniform_is_redrawn_alike(self):
        # a uniform of exactly 0 is redrawn inside its slice, by a release and
        # by perturb_costs alike; draw 10,000 lies in the second of 3 slices
        x = self.data(200)

        def stream():
            rng = RngStream(1)
            gen, seen = rng.generator, [0]

            def random(size):
                u = gen.random(size)
                if seen[0] <= 10_000 < seen[0] + size:
                    u[10_000 - seen[0]] = 0.0
                seen[0] += size
                return u

            rng._gen = mock.Mock(random=random)
            return rng, seen

        rng, seen = stream()
        released = release_table(x, PartitionParams(0.25, 0.75, "all"), rng)
        assert seen == [len(released) + 1]  # the zero was drawn and redrawn
        rng, _ = stream()
        two_step = perturb_costs(all_costs(x, 0.75, "all"), 0.25, rng)
        assert released.costs.tobytes() == two_step.costs.tobytes()

    @pytest.mark.parametrize("n, mode", CASES)
    def test_private_partition_matches_two_step(self, n, mode):
        x = self.data(n)
        for seed in (1, 2):
            got = private_partition(x, PartitionParams(0.25, 0.75, mode), RngStream(seed))
            noisy = perturb_costs(all_costs(x, 0.75, mode), 0.25, RngStream(seed))
            assert np.array_equal(got.his, least_cost_partition(noisy, n).his)

    @pytest.mark.parametrize("n, mode", CASES)
    def test_one_ledger_entry(self, n, mode):
        x, ledger = self.data(n), []
        private_partition(x, PartitionParams(0.25, 0.75, mode), RngStream(3, ledger=ledger))
        assert ledger == [(2.0 * BUCKET_COST_SENSITIVITY / 0.25, len(all_costs(x, 0.75, mode)))]

    def test_sensitivity_is_not_a_parameter(self):
        # a smaller value would under-noise stage 1, so no caller may set one
        assert PartitionParams(0.25, 0.75).delta_bcost == BUCKET_COST_SENSITIVITY
        with pytest.raises(TypeError):
            PartitionParams(0.25, 0.75, "pow2", delta_bcost=1.0)

    @pytest.mark.parametrize("n, mode", CASES)
    def test_costs_from_shared_deviations_match(self, n, mode):
        # an experiment's trials price and noise one shared deviation table
        x = self.data(n)
        deviations = deviation_table(x, mode)
        assert not deviations.costs.flags.writeable
        assert len(deviations) > 2 * _CHUNK
        scale = 2.0 * BUCKET_COST_SENSITIVITY / 0.25
        for eps2 in (0.75, 0.3):
            priced = deviations.costs + 1.0 / eps2
            assert priced.tobytes() == all_costs(x, eps2, mode).costs.tobytes()
            params = PartitionParams(0.25, eps2, mode)
            for seed in (1, 2):
                ledger = []
                shared = release_table(x, params, RngStream(seed, ledger=ledger), deviations)
                fresh = release_table(x, params, RngStream(seed))
                assert shared.costs.tobytes() == fresh.costs.tobytes()
                assert ledger == [(scale, len(deviations))]

    def test_deviations_of_other_data_are_refused(self):
        x = self.data(200)
        with pytest.raises(ParameterError, match="deviations of n = 200, mode 'all' for n = 200, mode 'pow2'"):
            private_partition(x, PartitionParams(0.25, 0.75, "pow2"), RngStream(0), deviation_table(x, "all"))
        with pytest.raises(ParameterError, match="for n = 199"):
            private_partition(self.data(199), PartitionParams(0.25, 0.75, "all"), RngStream(0),
                              deviation_table(x, "all"))

    def test_shared_deviations_charge_a_second_table(self, monkeypatch):
        # n = 16384 in mode all: 1.0 GiB per float64 table of 134,225,920 candidates
        monkeypatch.setattr("dawa.partition._physical_memory", lambda: 1.5 * 2**30)
        assert check_stage1_size(16384, 16384, "all") == 134_225_920
        with pytest.raises(ParameterError, match=r"needs about 2\.0 GiB .* has 1\.5 GiB"):
            check_stage1_size(16384, 16384, "all", tables=2)

    def test_private_partition_holds_one_table(self):
        # 524,800 candidates: the noisy costs are the only array of their
        # size; the exact costs and a separate noise array would be 3x
        x = DataVector(np.random.default_rng(58).integers(0, 50, size=1024))
        peak, _ = peak_bytes(private_partition, x, PartitionParams(0.25, 0.75, "all"), RngStream(3))
        assert peak < 1.5 * 8 * 524_800


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
            assert got.n == n
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
        assert got.n == 10
        for lo, hi in got:
            assert hi - lo + 1 in (1, 2, 4, 8)

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
        assert np.array_equal(least_cost_partition(scaled, 10).his, base.his)

    @pytest.mark.parametrize("mode", ["all", "pow2"])
    @pytest.mark.parametrize("top", [1e307, math.inf, -math.inf, math.nan])
    def test_costs_that_could_overflow_are_refused(self, mode, top):
        # a path sum of costs near 1e307 overflows float64; refused before the
        # DP, which would otherwise pick a length that is not a candidate
        x = DataVector(np.random.default_rng(58).integers(0, 20, size=100))
        table = all_costs(x, 1.0, mode)
        costs = np.random.default_rng(59).uniform(1e306, 1e307, size=len(table))
        costs[7] = top
        with pytest.raises(ParameterError, match=r"^the table's largest \|cost\| is .*; summed over n = 100 positions, "
                                                 "its costs could overflow float64$"):
            least_cost_partition(replace(table, costs=costs), x.n)


class TestOverflowFromParameters:
    # |cost| <= 2 * total + 1/eps2 + 37 * noise scale, the premises of the
    # floor on epsilon (`core.EPSILON_FLOOR`) that keeps stage 1's sums finite

    def test_bound_holds_at_the_extremes(self, monkeypatch):
        # the largest Laplace draws come from the ends of the 2^-53 grid: 52 ln 2 = 36.04 scales
        rng = RngStream(0)
        monkeypatch.setattr(rng, "uniform_open", lambda size: np.array([2.0**-53, 1.0 - 2.0**-53]))
        draws = np.abs(laplace_draws(3.0, rng, 2)(2))
        assert np.all((36.0 * 3.0 < draws) & (draws <= 37.0 * 3.0))
        # one count among zeros deviates from its bucket's mean by 2 * total * (1 - 1/L)
        x = DataVector(np.array([0] * 99 + [50]))
        assert deviation_table(x, "all").costs.max() == 2.0 * 50 * (1 - 1 / 100)


class TestRefusedReleaseChargesNothing:
    """A release that stage 1 refuses records no draws in the ledger and
    builds no window index."""

    @pytest.mark.parametrize("eps1, eps2, counts, match", [
        # below the floor on epsilon: refused by name when the parameters are built
        (0.25, 1e-310, None, "^eps2 = 1e-310 is too small: the least epsilon accepted is 2"),
        (1e-310, 1e-310, None, "^eps1 = 1e-310 is too small: the least epsilon accepted is 2"),
        # 2**52 + 1 = 17 * 264917625139441
        (0.25, 0.75, [264917625139441 - 16] + [1] * 16, "2\\*\\*52"),
    ])
    def test_parameters(self, window_index_calls, eps1, eps2, counts, match):
        x = DataVector(counts) if counts else gen_synthetic_data("piecewise_constant", 4096, seed=1)
        ledger = []
        with pytest.raises(ParameterError, match=match):
            private_partition(x, PartitionParams(eps1, eps2, "all"), RngStream(0, ledger=ledger))
        assert ledger == [] and window_index_calls == []

    def test_memory(self, monkeypatch, window_index_calls):
        monkeypatch.setattr("dawa.partition._physical_memory", lambda: 2.0**20)
        x = gen_synthetic_data("piecewise_constant", 4096, seed=1)
        ledger = []
        with pytest.raises(ParameterError, match="stage 1 needs about"):
            private_partition(x, PartitionParams(0.25, 0.75, "all"), RngStream(0, ledger=ledger))
        assert ledger == [] and window_index_calls == []

    def test_deviations_of_other_data(self):
        x = gen_synthetic_data("piecewise_constant", 64, seed=1)
        ledger = []
        with pytest.raises(ParameterError, match="deviations of n = 64"):
            private_partition(x, PartitionParams(0.25, 0.75, "pow2"), RngStream(0, ledger=ledger),
                              deviation_table(x, "all"))
        assert ledger == []


def random_table(rng, n, mode, kind):
    """Exact, Laplace-perturbed or tie-heavy (small integer) cost table."""
    x = DataVector(rng.integers(0, 20, size=n))
    table = all_costs(x, float(rng.uniform(0.1, 3.0)), mode)
    if kind == "noisy":
        return perturb_costs(table, float(rng.uniform(0.1, 2.0)), RngStream(int(rng.integers(1 << 30))))
    if kind == "ties":
        return replace(table, costs=rng.integers(0, 4, size=len(table)).astype(float))
    return table


def first_n_with_two_blocks(mode):
    """Smallest n whose endpoints span more than one gathered block."""
    n = 1
    while n <= max(1, _CHUNK // len(candidate_lengths(n, mode))):
        n += 1
    return n


class TestLeastCostMatchesReference:
    def test_random_tables(self):
        rng = np.random.default_rng(55)
        for trial in range(1200):
            mode = ("all", "pow2")[trial % 2]
            kind = ("exact", "noisy", "ties")[trial // 2 % 3]
            n = int(rng.integers(1, 201))
            table = random_table(rng, n, mode, kind)
            got = least_cost_partition(table, n)
            assert np.array_equal(got.his, reference_least_cost_partition(table, n).his), (n, mode, kind)
            # the buckets tile [1, n] (a Partition's buckets are contiguous from 1) and are candidates
            assert got.n == n and set(got.lengths().tolist()) <= set(candidate_lengths(n, mode)), (n, mode, kind)

    @pytest.mark.parametrize("mode", ["all", "pow2"])
    def test_block_boundaries(self, mode):
        rng = np.random.default_rng(56)
        edge = first_n_with_two_blocks(mode)
        for n in (edge - 1, edge, edge + 1):
            for kind in ("exact", "noisy", "ties"):
                table = random_table(rng, n, mode, kind)
                got = least_cost_partition(table, n)
                assert np.array_equal(got.his, reference_least_cost_partition(table, n).his), (n, kind)

    def test_memory_below_table_size(self):
        # the DP gathers a block of rows at a time; it must not hold a
        # second copy of the costs (a Python float list is ~4x their size)
        x = DataVector(np.random.default_rng(57).integers(0, 50, size=1024))
        table = perturb_costs(all_costs(x, 0.75, "all"), 0.25, RngStream(3))
        peak, _ = peak_bytes(least_cost_partition, table, x.n)
        assert peak < table.costs.nbytes


class TestExactPartition:
    def test_recovers_segments(self):
        x = DataVector([7] * 6 + [2] * 5 + [9] * 5)
        part = exact_partition(x, 100.0, "all")
        assert (part.los.tolist(), part.his.tolist()) == ([1, 7, 12], [6, 11, 16])

    def test_scarce_budget_coarsens(self):
        x = DataVector([7] * 6 + [6] * 6)
        # price 1/eps2 = 50 dwarfs the deviation of merging, so one bucket
        part = exact_partition(x, 0.02, "all")
        assert part.k == 1

    def test_refuses_infinite_eps2(self):
        # a partition needs a finite price; all_costs refuses inf like every entry point
        with pytest.raises(ParameterError, match="^eps2 must be positive and finite, got inf$"):
            exact_partition(DataVector([7] * 6 + [6] * 6), math.inf)


class TestPrivatePartition:
    def test_deterministic(self, example_x):
        p = PartitionParams(0.25, 0.75, "all")
        a = private_partition(example_x, p, RngStream(5))
        b = private_partition(example_x, p, RngStream(5))
        assert np.array_equal(a.his, b.his)

    def test_valid_output(self, example_x):
        for seed in range(6):
            p = private_partition(
                example_x, PartitionParams(0.25, 0.75, "pow2"), RngStream(seed)
            )
            assert p.n == 10

    def test_converges_to_exact(self, example_x):
        # with a huge stage-1 budget the noise vanishes
        p = PartitionParams(1e9, 0.75, "all")
        got = private_partition(example_x, p, RngStream(0))
        want = exact_partition(example_x, 0.75, "all")
        assert np.array_equal(got.his, want.his)

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


def _choice_incidence(table) -> np.ndarray:
    """Candidates-by-partitions 0/1 matrix over every partition of [1, n]
    that the table's candidates can form, in the table's flat layout."""
    n, lengths = table.n, table.lengths.tolist()
    columns = []
    for mask in range(1 << (n - 1)):
        column = np.zeros(len(table))
        lo = 1
        for hi in range(1, n + 1):
            if hi == n or (mask >> (hi - 1)) & 1:
                if hi - lo + 1 not in lengths:
                    break
                column[table.offsets[lengths.index(hi - lo + 1)] + lo - 1] = 1.0
                lo = hi + 1
        else:
            columns.append(column)
    return np.array(columns).T


def _clopper_pearson(hits: np.ndarray, trials: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    lower = np.where(hits > 0, beta.ppf(alpha / 2, hits, trials - hits + 1), 0.0)
    upper = np.where(hits < trials, beta.ppf(1 - alpha / 2, hits + 1, trials - hits), 1.0)
    return lower, upper


class TestPrivacyAudit:
    """Stage 1 is eps1-DP: for every +1 neighbour x' of x and every
    partition P, Pr[P | x] / Pr[P | x'] lies within e^(+-eps1).

    Each case draws one matrix of Laplace noise for all candidates and
    reuses it for every x; a partition's noisy cost is its exact cost plus
    the sum of its buckets' noise, and the choice is the argmin.  The check
    fails only when the Clopper-Pearson bounds prove a ratio beyond e^eps1.
    """

    DRAWS = 100_000
    ALPHA = 1e-6

    @pytest.mark.parametrize("mode", ["all", "pow2"])
    @pytest.mark.parametrize("eps1, eps2", [(1.0, 1.0), (0.5, 1.5), (2.0, 0.5)])
    def test_neighbour_choice_ratios_within_eps1(self, mode, eps1, eps2):
        worst = 0.0
        for n, top in ((3, 3), (4, 2)):
            table = all_costs(DataVector(np.zeros(n, dtype=np.int64)), eps2, mode)
            incidence = _choice_incidence(table)
            # perturbing zero costs leaves exactly stage 1's noise
            draws = replace(table, costs=np.zeros(self.DRAWS * len(table)))
            noise = perturb_costs(draws, eps1, RngStream(n)).costs.reshape(self.DRAWS, len(table))
            noise_per_partition = noise @ incidence
            bounds = {}

            def choice_bounds(counts):
                key = tuple(counts)
                if key not in bounds:
                    exact = all_costs(DataVector(np.array(counts)), eps2, mode).costs @ incidence
                    chosen = np.argmin(noise_per_partition + exact, axis=1)
                    hits = np.bincount(chosen, minlength=incidence.shape[1])
                    bounds[key] = _clopper_pearson(hits, self.DRAWS, self.ALPHA)
                return bounds[key]

            for x in np.ndindex(*(top + 1,) * n):
                lo_x, hi_x = choice_bounds(x)
                for i in range(n):
                    neighbour = list(x)
                    neighbour[i] += 1
                    lo_y, hi_y = choice_bounds(neighbour)
                    with np.errstate(divide="ignore"):
                        gap = np.maximum(np.log(lo_x / hi_y), np.log(lo_y / hi_x))
                    worst = max(worst, float(gap.max()))
        print(f"stage-1 audit {mode} eps1={eps1} eps2={eps2}: worst |log ratio| lower bound {worst:.3f}")
        assert worst <= eps1, (mode, eps1, eps2, worst)
