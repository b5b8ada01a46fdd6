"""Grid discretization, space-filling-curve layout, and rectangle answering."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dawa.core import (
    DimensionError,
    EstimateVector,
    ParameterError,
    PrivacyBudget,
    RngStream,
)
from dawa import spatial
from dawa.spatial import (
    GridSpec,
    HilbertMap,
    RectangleQuery,
    answer_rectangle,
    grid_discretize,
    linearize,
    read_points_file,
    read_rectangles_file,
    rectangle_to_ranges,
    rectangles_to_workload,
    run_spatial,
)

from .memory import peak_bytes
from .reference import grid_cell, hilbert_cell, hilbert_index, xy_to_d


def brute_ranges(rect, map_):
    """Sort-and-merge reference for rectangle linearization."""
    ds = sorted(
        hilbert_index(map_, cx, cy)
        for cx in range(rect.xlo, rect.xhi + 1)
        for cy in range(rect.ylo, rect.yhi + 1)
    )
    runs = []
    start = prev = ds[0]
    for d in ds[1:]:
        if d == prev + 1:
            prev = d
        else:
            runs.append((start + 1, prev + 1))  # 1-based inclusive
            start = prev = d
    runs.append((start + 1, prev + 1))
    return runs


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec(g=3, xmin=0.0, xmax=8.0, ymin=0.0, ymax=4.0)
        assert spec.side == 8
        assert spec.cell_width == 1.0
        assert spec.cell_height == 0.5

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(g=0, xmin=0, xmax=1, ymin=0, ymax=1)
        with pytest.raises(ParameterError):
            GridSpec(g=2, xmin=1, xmax=1, ymin=0, ymax=1)

    @pytest.mark.parametrize("box", [
        (0.0, np.inf, 0.0, 1.0),
        (-np.inf, 1.0, 0.0, 1.0),
        (0.0, 1.0, 0.0, np.nan),
        (-1e308, 1e308, 0.0, 1.0),
    ])
    def test_rejects_non_finite_box(self, box):
        xmin, xmax, ymin, ymax = box
        with pytest.raises(ParameterError):
            GridSpec(g=2, xmin=xmin, xmax=xmax, ymin=ymin, ymax=ymax)


class TestHilbertCurve:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_bijection(self, g):
        m = HilbertMap(g)
        seen = set()
        for cx in range(m.side):
            for cy in range(m.side):
                d = hilbert_index(m, cx, cy)
                assert 0 <= d < m.domain_size
                assert hilbert_cell(m, d) == (cx, cy)
                seen.add(d)
        assert len(seen) == m.domain_size

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_unit_steps(self, g):
        m = HilbertMap(g)
        px, py = hilbert_cell(m, 0)
        assert (px, py) == (0, 0)
        for d in range(1, m.domain_size):
            cx, cy = hilbert_cell(m, d)
            assert abs(cx - px) + abs(cy - py) == 1
            px, py = cx, cy

    def test_g1_order(self):
        m = HilbertMap(1)
        assert [hilbert_cell(m, d) for d in range(4)] == [
            (0, 0), (0, 1), (1, 1), (1, 0)
        ]

    def test_range_checks(self):
        m = HilbertMap(2)
        with pytest.raises(ParameterError):
            hilbert_index(m, 4, 0)
        with pytest.raises(ParameterError):
            hilbert_index(m, -1, 0)
        with pytest.raises(ParameterError):
            hilbert_cell(m, 16)

    def test_invalid_g(self):
        with pytest.raises(ParameterError):
            HilbertMap(0)

    @pytest.mark.parametrize("g, table", [
        (2, [[0, 3, 4, 5], [1, 2, 7, 6], [14, 13, 8, 9], [15, 12, 11, 10]]),
        (3, [[0, 1, 14, 15, 16, 19, 20, 21], [3, 2, 13, 12, 17, 18, 23, 22],
             [4, 7, 8, 11, 30, 29, 24, 25], [5, 6, 9, 10, 31, 28, 27, 26],
             [58, 57, 54, 53, 32, 35, 36, 37], [59, 56, 55, 52, 33, 34, 39, 38],
             [60, 61, 50, 51, 46, 45, 40, 41], [63, 62, 49, 48, 47, 44, 43, 42]]),
    ])
    def test_position_table_literal(self, g, table):
        # pins the orientation of each level; a snake order has the same
        # g = 1 order and also moves one cell per step
        assert HilbertMap(g).position.tolist() == table

    @pytest.mark.parametrize("g", range(1, 7))
    def test_aligned_blocks_hold_consecutive_positions(self, g):
        position = HilbertMap(g).position
        for j in range(g + 1):
            b = 1 << j
            blocks = position.reshape(position.shape[0] // b, b, -1, b).swapaxes(1, 2)
            blocks = blocks.reshape(-1, b * b)
            lo = blocks.min(axis=1)
            assert np.all(blocks.max(axis=1) - lo == b * b - 1)
            assert np.all(lo % (b * b) == 0)

    def test_position_is_read_only(self):
        position = HilbertMap(2).position
        assert position.dtype == np.int64 and not position.flags.writeable
        with pytest.raises(ValueError):
            position[0, 0] = 1

    @pytest.mark.parametrize("g", range(1, 9))
    def test_position_matches_walk(self, g):
        cx, cy = np.indices((1 << g, 1 << g), dtype=np.int64)
        assert np.array_equal(HilbertMap(g).position, xy_to_d(g, cx, cy))

    def test_build_allocates_little_beside_table(self):
        # the per-level walk peaked at 11.3 times the 512 KiB table
        peak, position = peak_bytes(lambda: HilbertMap(8).position)
        assert peak <= 3 * position.nbytes == 3 * 512 * 1024

    def test_table_too_large_fails_at_first_allocation(self):
        # 8 PiB: the table is asked for whole before any level is filled
        with pytest.raises(MemoryError):
            HilbertMap(25).position

    def test_one_walk_per_run(self, monkeypatch):
        calls = []
        build = spatial._hilbert_table

        def spy(*args):
            calls.append(args[0])
            return build(*args)

        monkeypatch.setattr(spatial, "_hilbert_table", spy)
        spec = GridSpec(g=3, xmin=0, xmax=8, ymin=0, ymax=8)
        pts = np.random.default_rng(6).uniform(0, 8, size=(100, 2))
        rects = [RectangleQuery.from_box(spec, 0.5, 5.0, 1.0, 7.5), RectangleQuery(2, 6, 0, 3)]
        run_spatial(pts, rects, spec, PrivacyBudget.split(1.0), RngStream(0))
        assert calls == [3]


class TestDiscretize:
    def test_interior_points(self):
        spec = GridSpec(g=2, xmin=0, xmax=4, ymin=0, ymax=4)
        grid = grid_discretize(np.array([[0.5, 0.5], [3.2, 3.9]]), spec)
        assert grid.shape == (4, 4)
        assert grid[0, 0] == 1
        assert grid[3, 3] == 1
        assert grid.sum() == 2

    def test_boundary_goes_to_smaller_cell(self):
        spec = GridSpec(g=2, xmin=0, xmax=4, ymin=0, ymax=4)
        grid = grid_discretize(np.array([[1.0, 2.0]]), spec)
        assert grid[0, 1] == 1

    def test_min_corner(self):
        spec = GridSpec(g=2, xmin=0, xmax=4, ymin=0, ymax=4)
        grid = grid_discretize(np.array([[0.0, 0.0]]), spec)
        assert grid[0, 0] == 1

    def test_max_corner_clamps(self):
        spec = GridSpec(g=2, xmin=0, xmax=4, ymin=0, ymax=4)
        grid = grid_discretize(np.array([[4.0, 4.0]]), spec)
        assert grid[3, 3] == 1

    def test_outside_points_clamp(self):
        spec = GridSpec(g=2, xmin=0, xmax=4, ymin=0, ymax=4)
        grid = grid_discretize(np.array([[4.5, 1.0], [-0.5, -3.0]]), spec)
        assert grid[3, 0] == 1
        assert grid[0, 0] == 1

    def test_bad_shape_rejected(self):
        spec = GridSpec(g=2, xmin=0, xmax=4, ymin=0, ymax=4)
        with pytest.raises(ParameterError):
            grid_discretize(np.array([1.0, 2.0, 3.0]), spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        spec = GridSpec(g=2, xmin=0, xmax=4, ymin=0, ymax=4)
        for pts in ([[bad, 1.0]], [[1.0, 1.0], [2.0, bad]]):
            with pytest.raises(ParameterError):
                grid_discretize(np.array(pts), spec)

    def test_count_conservation(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 4, size=(137, 2))
        spec = GridSpec(g=3, xmin=0, xmax=4, ymin=0, ymax=4)
        assert grid_discretize(pts, spec).sum() == 137

    def test_matches_scatter_add_reference(self):
        # random points, plus points on and past every edge and corner, which clamp
        rng = np.random.default_rng(5)
        spec = GridSpec(g=3, xmin=-1.0, xmax=3.0, ymin=2.0, ymax=10.0)
        inside = np.column_stack([rng.uniform(-1, 3, 500), rng.uniform(2, 10, 500)])
        edge_x = [-9.0, -1.0, 3.0, 7.0]
        edge_y = [-5.0, 2.0, 10.0, 40.0]
        along = np.linspace(0.0, 1.0, 11)
        edges = np.concatenate([
            np.column_stack([np.full(along.size, ex), 2.0 + 8.0 * along]) for ex in edge_x
        ] + [
            np.column_stack([-1.0 + 4.0 * along, np.full(along.size, ey)]) for ey in edge_y
        ])
        pts = np.concatenate([inside, edges])
        want = np.zeros((spec.side, spec.side), dtype=np.int64)
        for px, py in pts.tolist():
            want[grid_cell(spec, px, py)] += 1
        got = grid_discretize(pts, spec)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        for line in (want[0], want[-1], want[:, 0], want[:, -1]):
            assert line.sum() > 0

    @pytest.mark.filterwarnings("error")
    def test_far_outside_points_clamp_to_the_near_edge(self):
        # ceil(u / width) passes 2^63 here, so it must be clipped before the
        # cast to int64 or it wraps into the far cell
        spec = GridSpec(g=3)
        far = [-1e300, -2e18, 2e18, 1e300]
        pts = np.array([[c, 0.5] for c in far] + [[0.5, c] for c in far])
        grid = grid_discretize(pts, spec)
        want = np.zeros((8, 8), dtype=np.int64)
        for px, py in pts.tolist():
            want[grid_cell(spec, px, py)] += 1
        np.testing.assert_array_equal(grid, want)
        assert grid[0, 3] == grid[7, 3] == grid[3, 0] == grid[3, 7] == 2
        # an offset that overflows to inf clips the same way
        tiny = GridSpec(g=3, xmin=-1e308, xmax=-1e308 + 1e293, ymin=0.0, ymax=1.0)
        assert grid_discretize(np.array([[1e308, 0.5], [-1.7e308, 0.5]]), tiny)[[7, 0], 3].tolist() == [1, 1]


class TestLinearize:
    def test_conservation_and_placement(self):
        rng = np.random.default_rng(1)
        m = HilbertMap(3)
        grid = rng.integers(0, 5, size=(8, 8))
        x = linearize(grid, m)
        assert x.total() == int(grid.sum())
        for d in (0, 17, 63):
            cx, cy = hilbert_cell(m, d)
            assert x.counts[d] == grid[cx, cy]

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            linearize(np.zeros((4, 8), dtype=np.int64), HilbertMap(3))


class TestRectangleQuery:
    def test_cell_bounds_inclusive(self):
        r = RectangleQuery(1, 2, 0, 3)
        assert (r.xlo, r.xhi, r.ylo, r.yhi) == (1, 2, 0, 3)

    def test_invalid(self):
        with pytest.raises(ParameterError):
            RectangleQuery(2, 1, 0, 3)

    def test_from_box(self):
        spec = GridSpec(g=2, xmin=0, xmax=4, ymin=0, ymax=4)
        r = RectangleQuery.from_box(spec, 0.0, 2.0, 1.0, 4.0)
        # upper edges on a cell boundary stop at the smaller cell
        assert (r.xlo, r.xhi, r.ylo, r.yhi) == (0, 1, 1, 3)
        assert r.box == (0.0, 2.0, 1.0, 4.0)

    def test_from_box_fractional(self):
        spec = GridSpec(g=2, xmin=0, xmax=4, ymin=0, ymax=4)
        r = RectangleQuery.from_box(spec, 0.5, 2.5, 0.5, 1.5)
        assert (r.xlo, r.xhi, r.ylo, r.yhi) == (0, 2, 0, 1)


class TestRectangleToRanges:
    def test_full_grid_is_one_run(self):
        m = HilbertMap(3)
        los, his = rectangle_to_ranges(RectangleQuery(0, 7, 0, 7), m)
        assert (los.tolist(), his.tolist()) == ([1], [64])

    def test_single_cell(self):
        m = HilbertMap(2)
        d = hilbert_index(m, 2, 3)
        los, his = rectangle_to_ranges(RectangleQuery(2, 2, 3, 3), m)
        assert (los.tolist(), his.tolist()) == ([d + 1], [d + 1])

    @given(st.integers(1, 4), st.data())
    def test_matches_brute_force(self, g, data):
        m = HilbertMap(g)
        side = m.side
        xlo = data.draw(st.integers(0, side - 1))
        xhi = data.draw(st.integers(xlo, side - 1))
        ylo = data.draw(st.integers(0, side - 1))
        yhi = data.draw(st.integers(ylo, side - 1))
        rect = RectangleQuery(xlo, xhi, ylo, yhi)
        los, his = rectangle_to_ranges(rect, m)
        assert los.dtype == his.dtype == np.int64
        assert list(zip(los.tolist(), his.tolist())) == brute_ranges(rect, m)

    def test_runs_cover_area(self):
        m = HilbertMap(4)
        rect = RectangleQuery(3, 9, 2, 13)
        los, his = rectangle_to_ranges(rect, m)
        assert int((his - los + 1).sum()) == 7 * 12
        # disjoint and ascending
        assert np.all(los[1:] > his[:-1] + 1)

    def test_translation_soundness_exact(self):
        # summing the linearized counts over a rectangle's runs equals
        # summing the grid over the rectangle, with no tolerance at all
        rng = np.random.default_rng(21)
        for g in (2, 3, 4):
            m = HilbertMap(g)
            grid = rng.integers(0, 50, size=(m.side, m.side))
            x = linearize(grid, m)
            for _ in range(20):
                xlo = int(rng.integers(0, m.side))
                xhi = int(rng.integers(xlo, m.side))
                ylo = int(rng.integers(0, m.side))
                yhi = int(rng.integers(ylo, m.side))
                rect = RectangleQuery(xlo, xhi, ylo, yhi)
                los, his = rectangle_to_ranges(rect, m)
                got = sum(int(x.counts[lo - 1:hi].sum()) for lo, hi in zip(los, his))
                assert got == int(grid[xlo:xhi + 1, ylo:yhi + 1].sum())


class TestWorkloadAssembly:
    def test_concatenates_runs(self):
        m = HilbertMap(3)
        rects = [RectangleQuery(0, 3, 0, 3), RectangleQuery(4, 7, 4, 7)]
        W = rectangles_to_workload(rects, m)
        runs = [rectangle_to_ranges(rect, m) for rect in rects]
        assert W.los.tolist() == runs[0][0].tolist() + runs[1][0].tolist()
        assert W.his.tolist() == runs[0][1].tolist() + runs[1][1].tolist()

    def test_needs_a_rectangle(self):
        with pytest.raises(ParameterError):
            rectangles_to_workload([], HilbertMap(3))


class TestAnswerRectangle:
    def test_aligned_exact(self):
        rng = np.random.default_rng(3)
        m = HilbertMap(3)
        spec = GridSpec(g=3, xmin=0, xmax=8, ymin=0, ymax=8)
        grid = rng.integers(0, 6, size=(8, 8))
        x = linearize(grid, m)
        xhat = EstimateVector(x.counts.astype(float))
        rect = RectangleQuery(1, 4, 2, 5)
        got = answer_rectangle(xhat, rect, m, spec)
        assert got == float(grid[1:5, 2:6].sum())

    def test_fractional_overlap(self):
        m = HilbertMap(1)
        spec = GridSpec(g=1, xmin=0, xmax=2, ymin=0, ymax=2)
        grid = np.array([[4, 0], [0, 0]])
        xhat = EstimateVector(linearize(grid, m).counts.astype(float))
        rect = RectangleQuery.from_box(spec, 0.0, 0.5, 0.0, 1.0)
        # half of the only occupied cell in x, all of it in y
        assert answer_rectangle(xhat, rect, m, spec) == pytest.approx(2.0)

    @pytest.mark.parametrize("box", [
        (2.0, 3.0, 0.2, 0.4), (-3.0, -2.0, 0.2, 0.4), (0.2, 0.4, 2.0, 3.0), (0.2, 0.4, -3.0, -2.0),
        (1.0, 2.0, 0.2, 0.4),
    ], ids=["right", "left", "above", "below", "touching"])
    def test_box_outside_grid_answers_zero(self, box):
        m = HilbertMap(3)
        spec = GridSpec(g=3)
        rect = RectangleQuery.from_box(spec, *box)
        assert answer_rectangle(EstimateVector(np.ones(64)), rect, m, spec) == 0.0

    def test_quarter_cell(self):
        m = HilbertMap(1)
        spec = GridSpec(g=1, xmin=0, xmax=2, ymin=0, ymax=2)
        grid = np.array([[8, 0], [0, 0]])
        xhat = EstimateVector(linearize(grid, m).counts.astype(float))
        rect = RectangleQuery.from_box(spec, 0.5, 1.0, 0.5, 1.0)
        assert answer_rectangle(xhat, rect, m, spec) == pytest.approx(2.0)


class TestRunSpatial:
    def test_zero_noise_matches_truth(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 8, size=(300, 2))
        spec = GridSpec(g=3, xmin=0, xmax=8, ymin=0, ymax=8)
        rects = [
            RectangleQuery.from_box(spec, 0.0, 4.0, 0.0, 4.0),
            RectangleQuery.from_box(spec, 1.0, 7.0, 2.0, 6.0),
        ]
        answers, xhat = run_spatial(
            pts, rects, spec, PrivacyBudget.split(1e9), RngStream(0)
        )
        grid = grid_discretize(pts, spec)
        want0 = float(grid[0:4, 0:4].sum())
        want1 = float(grid[1:7, 2:6].sum())
        assert answers[0] == pytest.approx(want0, abs=1e-4)
        assert answers[1] == pytest.approx(want1, abs=1e-4)
        assert xhat.values.shape == (64,)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 4, size=(50, 2))
        spec = GridSpec(g=2, xmin=0, xmax=4, ymin=0, ymax=4)
        rects = [RectangleQuery(0, 1, 0, 1)]
        a, _ = run_spatial(pts, rects, spec, PrivacyBudget.split(1.0), RngStream(9))
        b, _ = run_spatial(pts, rects, spec, PrivacyBudget.split(1.0), RngStream(9))
        assert a == b

    def test_refuses_overflow_before_the_grid(self, monkeypatch, window_index_calls):
        def discretize(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(spatial, "grid_discretize", discretize)
        spec = GridSpec(g=3, xmin=0, xmax=8, ymin=0, ymax=8)
        pts = np.random.default_rng(6).uniform(0, 8, size=(100, 2))
        with pytest.raises(ParameterError, match="a larger eps1 or eps2 is needed"):
            run_spatial(pts, [RectangleQuery(2, 6, 0, 3)], spec, PrivacyBudget.split(1e-306), RngStream(0))
        assert window_index_calls == []


class TestSpatialFiles:
    def test_points_round_trip(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.5,1.5\n2.0,3.25\n")
        pts = read_points_file(p)
        assert np.array_equal(pts, [[0.5, 1.5], [2.0, 3.25]])

    def test_rects_file(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("xlo,xhi,ylo,yhi\n0.0,2.0,0.0,2.0\n")
        boxes = read_rectangles_file(p)
        assert boxes == [(0.0, 2.0, 0.0, 2.0)]

    def test_header_with_spaces(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x, y\n0.5, 1.5\n")
        assert np.array_equal(read_points_file(p), [[0.5, 1.5]])
        r = tmp_path / "r.csv"
        r.write_text(" xlo , xhi, ylo,yhi\n0, 2, 0, 2\n")
        assert read_rectangles_file(r) == [(0.0, 2.0, 0.0, 2.0)]

    @pytest.mark.parametrize("reader, header, body, fragment", [
        (read_points_file, "x,y", "0.5,1.5\n2.0\n", ":3: expected 2 fields, got 1"),
        (read_points_file, "x,y", "0.5,1.5,9\n", ":2: expected 2 fields, got 3"),
        (read_points_file, "x,y", "0.5,abc\n", ":2: not float: 'abc'"),
        (read_rectangles_file, "xlo,xhi,ylo,yhi", "0,1,0\n", ":2: expected 4 fields, got 3"),
        (read_rectangles_file, "xlo,xhi,ylo,yhi", "0,1,0,1\n0,1,,1\n", ":3: not float: ''"),
    ], ids=["points-short-row", "points-extra-field", "points-not-float",
            "rects-short-row", "rects-empty-field"])
    def test_bad_row_names_line(self, tmp_path, reader, header, body, fragment):
        p = tmp_path / "f.csv"
        p.write_text(header + "\n" + body)
        with pytest.raises(ParameterError, match=re.escape(str(p) + fragment)):
            reader(p)
