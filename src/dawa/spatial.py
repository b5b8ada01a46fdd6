"""2D support: grid discretization, Hilbert linearization, rectangle queries.

Points are binned onto a 2^g x 2^g grid, the grid is flattened along a
Hilbert curve so nearby cells stay nearby in 1D, rectangles become small
sets of 1D runs, and answers assume uniformity within each cell.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import (
    DataVector,
    DimensionError,
    EstimateVector,
    ParameterError,
    PrivacyBudget,
    RngStream,
    Workload,
    read_csv_rows,
)
from .mechanisms import run_dawa
from .partition import PartitionParams, check_stage1_size


@dataclass(frozen=True)
class GridSpec:
    """Bounding box split evenly into 2^g bins per axis."""

    g: int = 10
    xmin: float = 0.0
    xmax: float = 1.0
    ymin: float = 0.0
    ymax: float = 1.0

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ParameterError(f"need g >= 1, got {self.g}")
        spans = (self.xmax - self.xmin, self.ymax - self.ymin)
        if not all(np.isfinite(s) and s > 0 for s in spans):
            raise ParameterError(
                "bounding box must be finite and non-degenerate, got "
                f"x [{self.xmin}, {self.xmax}], y [{self.ymin}, {self.ymax}]"
            )

    @property
    def side(self) -> int:
        return 1 << self.g

    @property
    def cell_width(self) -> float:
        return (self.xmax - self.xmin) / self.side

    @property
    def cell_height(self) -> float:
        return (self.ymax - self.ymin) / self.side


@dataclass(frozen=True)
class HilbertMap:
    """Hilbert enumeration of the 2^g x 2^g grid, starting at cell (0,0)."""

    g: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ParameterError(f"need g >= 1, got {self.g}")

    @property
    def side(self) -> int:
        return 1 << self.g

    @property
    def domain_size(self) -> int:
        return 1 << (2 * self.g)

    @cached_property
    def position(self) -> np.ndarray:
        """Read-only int64 table: position[cx, cy] is the cell's 0-based curve
        position.  Built on first use by `_hilbert_table`."""
        table = _hilbert_table(self.g)
        table.setflags(write=False)
        return table


def _hilbert_table(g: int) -> np.ndarray:
    """2^g x 2^g table of curve positions, rows cx, doubled in place: the
    curve p over the s x s corner, reflected in its diagonal, fills [:s, :s];
    p + s*s fills [:s, s:2s]; p + 2*s*s fills [s:2s, s:2s]; and p reflected in
    its anti-diagonal, plus 3*s*s, fills [s:2s, :s].  The whole table is
    allocated first, so a g too large fails before any work."""
    table = np.zeros((1 << g, 1 << g), dtype=np.int64)
    for s in [1 << k for k in range(g)]:
        p, q = table[:s, :s].copy(), s * s
        table[:s, :s] = p.T
        table[:s, s:2 * s] = p + q
        table[s:2 * s, s:2 * s] = p + 2 * q
        table[s:2 * s, :s] = p[::-1, ::-1].T + 3 * q
    return table


def _cells_of(coords: np.ndarray, lo: float, width: float, side: int) -> np.ndarray:
    # ceil - 1 sends boundary values to the smaller-index cell; clipping before
    # the cast clamps points outside the box, even where the offset overflows.
    with np.errstate(over="ignore"):
        u = coords - lo
        np.subtract(np.ceil(np.divide(u, width, out=u), out=u), 1.0, out=u)
    return np.clip(u, 0, side - 1, out=u).astype(np.int64)


def grid_discretize(points, spec: GridSpec) -> np.ndarray:
    """Count points per grid cell; outside points clamp to the nearest cell."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ParameterError(f"points must be (N, 2), got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ParameterError("points must have finite coordinates")
    side = spec.side
    # flat row-major index cx * side + cy, built in place so that no third
    # point-sized array is live
    cells = _cells_of(pts[:, 0], spec.xmin, spec.cell_width, side)
    cells *= side
    cells += _cells_of(pts[:, 1], spec.ymin, spec.cell_height, side)
    return np.bincount(cells, minlength=side * side).reshape(side, side)


def linearize(grid: np.ndarray, map_: HilbertMap) -> DataVector:
    """Flatten the grid along the curve: position map_.position[cx, cy] holds grid[cx, cy]."""
    arr = np.asarray(grid)
    if arr.shape != (map_.side, map_.side):
        raise DimensionError(f"grid shape {arr.shape} does not match {map_.side}x{map_.side}")
    flat = np.empty(map_.domain_size, dtype=arr.dtype)
    flat[map_.position] = arr
    return DataVector(flat)


@dataclass(frozen=True)
class RectangleQuery:
    """Inclusive cell-coordinate rectangle, optionally carrying the real box.

    When the real box is present, boundary cells are weighted by covered
    area; without it the rectangle is aligned to cell boundaries.
    """

    xlo: int
    xhi: int
    ylo: int
    yhi: int
    box: "tuple[float, float, float, float] | None" = None

    def __post_init__(self) -> None:
        if not (0 <= self.xlo <= self.xhi and 0 <= self.ylo <= self.yhi):
            raise ParameterError(f"bad cell ranges in {self}")

    @classmethod
    def from_box(cls, spec: GridSpec, x0: float, x1: float, y0: float, y1: float) -> "RectangleQuery":
        if not (x1 > x0 and y1 > y0):
            raise ParameterError("rectangle box must be non-degenerate")
        x0, x1 = max(x0, spec.xmin), min(x1, spec.xmax)
        y0, y1 = max(y0, spec.ymin), min(y1, spec.ymax)
        u0 = (x0 - spec.xmin) / spec.cell_width
        u1 = (x1 - spec.xmin) / spec.cell_width
        v0 = (y0 - spec.ymin) / spec.cell_height
        v1 = (y1 - spec.ymin) / spec.cell_height
        side = spec.side
        xlo = int(np.clip(np.floor(u0), 0, side - 1))
        xhi = int(np.clip(np.ceil(u1) - 1, xlo, side - 1))
        ylo = int(np.clip(np.floor(v0), 0, side - 1))
        yhi = int(np.clip(np.ceil(v1) - 1, ylo, side - 1))
        return cls(xlo=xlo, xhi=xhi, ylo=ylo, yhi=yhi, box=(x0, x1, y0, y1))


def _cell_indices(rect: RectangleQuery, map_: HilbertMap) -> np.ndarray:
    """0-based curve positions of the rectangle's cells, indexed [x, y]."""
    if rect.xhi >= map_.side or rect.yhi >= map_.side:
        raise ParameterError(f"rectangle {rect} outside {map_.side}x{map_.side} grid")
    return map_.position[rect.xlo:rect.xhi + 1, rect.ylo:rect.yhi + 1]


def rectangle_to_ranges(rect: RectangleQuery, map_: HilbertMap) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of consecutive curve indices covering the rectangle's cells.

    Returns the runs' int64 (los, his), 1-based over the linearized domain
    and in curve order.
    """
    d = np.sort(_cell_indices(rect, map_).ravel())
    breaks = np.nonzero(np.diff(d) > 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [d.size - 1]))
    return d[starts] + 1, d[ends] + 1


def rectangles_to_workload(rects: "list[RectangleQuery]", map_: HilbertMap) -> Workload:
    """1D workload serving every rectangle: all runs of all rectangles."""
    if not rects:
        raise ParameterError("need at least one rectangle")
    los, his = zip(*(rectangle_to_ranges(rect, map_) for rect in rects))
    return Workload(np.concatenate(los), np.concatenate(his))


def _axis_weights(lo_cell: int, hi_cell: int, u0: float, u1: float) -> np.ndarray:
    # a box clamped from outside the grid has u1 < u0; it covers nothing
    cells = np.arange(lo_cell, hi_cell + 1, dtype=np.float64)
    return np.maximum(np.minimum(u1, cells + 1.0) - np.maximum(u0, cells), 0.0)


def answer_rectangle(
    xhat: EstimateVector,
    rect: RectangleQuery,
    map_: HilbertMap,
    spec: GridSpec,
) -> float:
    """Estimated point count in the rectangle under per-cell uniformity.

    Fully covered cells contribute their whole estimate; boundary cells
    contribute in proportion to the covered area fraction.
    """
    if xhat.n != map_.domain_size:
        raise DimensionError(f"estimate has {xhat.n} entries, curve domain is {map_.domain_size}")
    values = xhat.values[_cell_indices(rect, map_)]
    if rect.box is None:
        return float(values.sum())
    x0, x1, y0, y1 = rect.box
    wx = _axis_weights(rect.xlo, rect.xhi, (x0 - spec.xmin) / spec.cell_width,
                       (x1 - spec.xmin) / spec.cell_width)
    wy = _axis_weights(rect.ylo, rect.yhi, (y0 - spec.ymin) / spec.cell_height,
                       (y1 - spec.ymin) / spec.cell_height)
    return float((wx[:, None] * wy[None, :] * values).sum())


def run_spatial(
    points,
    rects: "list[RectangleQuery]",
    spec: GridSpec,
    budget: PrivacyBudget,
    rng: RngStream,
    mode: str = "pow2",
    t: int = 2,
) -> tuple[list[float], EstimateVector]:
    """Full 2D pipeline: discretize, linearize, run the 1D mechanism, answer.

    Returns the per-rectangle answers and the private linearized estimate.
    """
    # refuse what stage 1 cannot run before the grid and curve table exist
    params = PartitionParams(budget.eps1, budget.eps2, mode)
    check_stage1_size(spec.side * spec.side, len(points), mode, eps2=params.eps2, noise_scale=params.noise_scale)
    map_ = HilbertMap(spec.g)
    grid = grid_discretize(points, spec)
    x = linearize(grid, map_)
    W = rectangles_to_workload(rects, map_)
    xhat = run_dawa(x, W, budget, rng, mode=mode, t=t)
    answers = [answer_rectangle(xhat, rect, map_, spec) for rect in rects]
    return answers, xhat


def read_points_file(path: "str | Path") -> np.ndarray:
    """Read points from a CSV file with header x,y."""
    pts = read_csv_rows(path, ("x", "y"), float)
    if not pts:
        raise ParameterError(f"{path}: no points found")
    return np.asarray(pts, dtype=np.float64)


def read_rectangles_file(path: "str | Path") -> list[tuple[float, float, float, float]]:
    """Read rectangles from a CSV file with header xlo,xhi,ylo,yhi (real units)."""
    boxes = read_csv_rows(path, ("xlo", "xhi", "ylo", "yhi"), float)
    if not boxes:
        raise ParameterError(f"{path}: no rectangles found")
    return boxes
