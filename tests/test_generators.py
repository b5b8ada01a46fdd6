"""Synthetic workload and data generators: shapes, determinism, validation."""

import numpy as np
import pytest

from dawa.core import ParameterError
from dawa.generators import DATA_KINDS, WORKLOAD_KINDS, gen_synthetic_data, gen_workload

from .reference import reference_gen_workload


class TestWorkloads:
    def test_identity(self):
        W = gen_workload("identity", 8, seed=0)
        assert W.los.tolist() == W.his.tolist() == list(range(1, 9))

    def test_uniform_bounds_and_count(self):
        W = gen_workload("uniform", 100, seed=1, num_queries=250)
        assert W.m == 250
        assert W.los.min() >= 1 and np.all(W.los <= W.his) and W.his.max() <= 100

    def test_uniform_default_count(self):
        assert gen_workload("uniform", 64, seed=1).m == 2000

    @pytest.mark.parametrize("kind", ["clustered", "large_clustered"])
    def test_clustered_shape(self, kind):
        W = gen_workload(kind, 2048, seed=4, num_clusters=3, queries_per_cluster=50)
        assert W.m == 150
        assert W.los.min() >= 1 and np.all(W.los <= W.his) and W.his.max() <= 2048

    def test_large_variant_asks_wider_queries(self):
        tight = gen_workload("clustered", 4096, seed=7)
        wide = gen_workload("large_clustered", 4096, seed=7)
        mean_len = lambda W: float(np.mean(W.his - W.los + 1))
        assert mean_len(tight) * 2 < mean_len(wide)

    def test_deterministic(self):
        a = gen_workload("uniform", 50, seed=9, num_queries=20)
        b = gen_workload("uniform", 50, seed=9, num_queries=20)
        assert np.array_equal(a.los, b.los) and np.array_equal(a.his, b.his)
        c = gen_workload("uniform", 50, seed=10, num_queries=20)
        assert not (np.array_equal(a.los, c.los) and np.array_equal(a.his, c.his))

    @pytest.mark.parametrize("kind, params", [
        ("uniform", {"num_queries": 300}),
        ("clustered", {"num_clusters": 4, "queries_per_cluster": 60, "sigma": 40.0}),
        ("large_clustered", {"num_clusters": 2, "queries_per_cluster": 90}),
    ])
    def test_matches_per_query_reference(self, kind, params):
        for n, seed in ((1, 0), (97, 3), (4096, 8)):
            W = gen_workload(kind, n, seed, **params)
            want = reference_gen_workload(kind, n, seed, **params)
            assert list(W) == want

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            gen_workload("zipf", 10, seed=0)

    def test_unknown_param(self):
        with pytest.raises(ParameterError):
            gen_workload("uniform", 10, seed=0, shape=3)

    @pytest.mark.parametrize("kind, params, name", [
        ("clustered", {"sigma": np.nan}, "sigma"),
        ("large_clustered", {"sigma": np.inf}, "sigma"),
        ("clustered", {"sigma": -1.0}, "sigma"),
        ("uniform", {"num_queries": -1}, "num_queries"),
        ("uniform", {"num_queries": 0}, "num_queries"),
        ("clustered", {"num_clusters": 0}, "num_clusters"),
        ("large_clustered", {"queries_per_cluster": 0}, "queries_per_cluster"),
    ])
    def test_bad_parameter_is_named(self, kind, params, name):
        with pytest.raises(ParameterError, match=f"^{name} must be "):
            gen_workload(kind, 16, seed=0, **params)

    def test_kinds_registry(self):
        for kind in WORKLOAD_KINDS:
            W = gen_workload(kind, 256, seed=0)
            assert W.m >= 1


class TestData:
    def test_constant(self):
        x = gen_synthetic_data("constant", 12, seed=0, value=7)
        assert np.all(x.counts == 7)

    def test_constant_default(self):
        x = gen_synthetic_data("constant", 12, seed=0)
        assert np.all(x.counts == x.counts[0])

    def test_piecewise_has_exact_segments(self):
        for seed in range(5):
            x = gen_synthetic_data("piecewise_constant", 256, seed=seed, segments=8)
            changes = int(np.sum(np.diff(x.counts) != 0))
            # 8 runs means exactly 7 level changes
            assert changes == 7

    def test_piecewise_total_near_target(self):
        x = gen_synthetic_data("piecewise_constant", 512, seed=3, segments=8)
        # levels are drawn around an average of 10 per position
        assert 0.5 * 10 * 512 <= x.total() <= 2.0 * 10 * 512

    def test_heavy_tail_properties(self):
        x = gen_synthetic_data("heavy_tail", 1000, seed=1)
        assert np.all(x.counts >= 0)
        # heavy tail: the max dwarfs the median
        assert x.counts.max() > 10 * max(1, int(np.median(x.counts)))

    def test_deterministic(self):
        a = gen_synthetic_data("heavy_tail", 64, seed=5)
        b = gen_synthetic_data("heavy_tail", 64, seed=5)
        assert np.array_equal(a.counts, b.counts)
        c = gen_synthetic_data("heavy_tail", 64, seed=6)
        assert not np.array_equal(a.counts, c.counts)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            gen_synthetic_data("gaussian", 10, seed=0)

    @pytest.mark.parametrize("kind", ["piecewise_constant", "heavy_tail"])
    @pytest.mark.parametrize("total", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_total_is_named(self, kind, total):
        with pytest.raises(ParameterError, match="^total must be "):
            gen_synthetic_data(kind, 16, seed=0, total=total)

    def test_unknown_param(self):
        with pytest.raises(ParameterError):
            gen_synthetic_data("constant", 10, seed=0, mean=4)

    def test_kinds_registry(self):
        for kind in DATA_KINDS:
            x = gen_synthetic_data(kind, 128, seed=0)
            assert x.n == 128
            assert np.all(x.counts >= 0)
