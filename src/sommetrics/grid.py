"""Map lattice geometry: grid topologies, inter-unit distances, neighborhood kernels.

Units are indexed 0..K-1 in row-major order everywhere (codebook rows, label
outputs, SVG layout). The inter-unit distance is the shortest-path length on
the lattice graph: Manhattan distance on 4-connected rectangular grids, cube
distance on 6-connected hexagonal grids (even-row offset layout). It depends
only on the row and column offsets between two units, and on the hexagonal
grid on the source row's parity, so every distance is read from one O(K)
table per grid (``_offset_tables``); only the public ``distance_matrix``
builds the K x K matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TOPOLOGIES = ("rectangular", "hexagonal")
KERNEL_KINDS = ("gaussian", "window")


@dataclass(frozen=True)
class MapGrid:
    """A rows x cols lattice of map units."""

    rows: int
    cols: int
    topology: str = "rectangular"

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.rows}x{self.cols}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}")

    @property
    def n_units(self) -> int:
        return self.rows * self.cols

    @property
    def dimensionality(self) -> int:
        """Lattice dimensionality: 1 for single-row/column chains, 2 otherwise."""
        return 1 if self.rows == 1 or self.cols == 1 else 2

    def unit_position(self, k: int) -> tuple[int, int]:
        """(row, col) of unit ``k``; inverse of :meth:`unit_index`."""
        self._check_index(k)
        return divmod(k, self.cols)

    def unit_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"position ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def distance(self, k: int, l: int) -> int:
        """Shortest-path length between units ``k`` and ``l`` on the lattice graph."""
        self._check_index(k)
        self._check_index(l)
        return int(_pair_distances(self, k, l))

    def neighbors(self, k: int) -> np.ndarray:
        """Indices of all units at lattice distance exactly 1 from ``k``, ascending."""
        self._check_index(k)
        return np.flatnonzero(_distance_rows(self, [k])[0] == 1)

    def max_distance(self) -> int:
        """Lattice diameter: the largest inter-unit distance over all pairs."""
        if self.n_units < 2:
            raise ValueError("map diameter is undefined for a single-unit grid")
        return _diameter(self)

    def _check_index(self, k: int) -> None:
        if not 0 <= k < self.n_units:
            raise ValueError(f"unit index {k} out of range for {self.rows}x{self.cols} grid")


@lru_cache(maxsize=16)
def _offset_tables(grid: MapGrid) -> np.ndarray:
    """(2, 2R-1, 2C-1) lattice distances by source row parity and offset; cached per grid, read-only.

    Entry ``[p, R-1+dr, C-1+dc]`` is the distance from a unit in a row of
    parity ``p`` to the unit ``dr`` rows and ``dc`` columns away. Only the
    hexagonal layout depends on the parity: in axial coordinates
    q = col - ceil(row/2), a step of ``dr`` rows shifts q by ceil(dr/2) from an
    even row and by floor(dr/2) from an odd one.
    """
    R, C = grid.rows, grid.cols
    dr = np.arange(1 - R, R)[:, None]
    dc = np.arange(1 - C, C)
    tables = np.empty((2, 2 * R - 1, 2 * C - 1), dtype=np.int64)
    for parity, table in enumerate(tables):
        if grid.topology == "rectangular":
            np.add(np.abs(dr), np.abs(dc), out=table)
            continue
        np.subtract(dc, (dr + 1 - parity) // 2, out=table)  # dq, the axial column step
        across = table + dr
        np.abs(across, out=across)
        np.abs(table, out=table)
        table += across
        table += np.abs(dr)
        table //= 2
    tables.setflags(write=False)
    return tables


def _distance_windows(grid: MapGrid, by_distance: np.ndarray | None = None) -> np.ndarray:
    """(2, R, C, R, C) read-only view of the offset tables: ``[r & 1, R-1-r, C-1-c]`` is unit (r, c)'s row.

    That (R, C) window holds the distance from unit (r, c) to every unit in
    row-major order, without a copy. Given ``by_distance``, values indexed by
    map distance, the windows are those of ``by_distance[tables]``, so a row
    holds each unit's value at its distance from unit (r, c).
    """
    tables = _offset_tables(grid) if by_distance is None else by_distance[_offset_tables(grid)]
    return sliding_window_view(tables, (grid.rows, grid.cols), axis=(1, 2))


def _distance_rows(grid: MapGrid, units, by_distance: np.ndarray | None = None) -> np.ndarray:
    """(B, K) rows of ``distance_matrix`` for the B ``units``, int64, or of ``by_distance`` at those distances."""
    r, c = np.divmod(np.asarray(units), grid.cols)
    windows = _distance_windows(grid, by_distance)
    return windows[r & 1, grid.rows - 1 - r, grid.cols - 1 - c].reshape(len(r), grid.n_units)


def _pair_distances(grid: MapGrid, a, b) -> np.ndarray:
    """Distances between units ``a`` and ``b``, elementwise (broadcasting): ``distance_matrix(grid)[a, b]``."""
    ra, ca = np.divmod(a, grid.cols)
    rb, cb = np.divmod(b, grid.cols)
    return _offset_tables(grid)[ra & 1, grid.rows - 1 + rb - ra, grid.cols - 1 + cb - ca]


def _diameter(grid: MapGrid) -> int:
    """The largest inter-unit distance, 0 on a single unit, from the offsets that each row parity reaches.

    Rows of parity p run from p to the last such row, R-1-(R-1-p)%2, so they
    reach the row offsets from -(that row) to R-1-p, and every column offset.
    """
    R, tables = grid.rows, _offset_tables(grid)
    return max(int(tables[p, (R - 1 - p) % 2:2 * R - 1 - p].max()) for p in range(min(2, R)))


@lru_cache(maxsize=16)
def distance_matrix(grid: MapGrid) -> np.ndarray:
    """K x K matrix of inter-unit distances; cached per grid, read-only.

    Public, and O(K^2) in time and memory: no metric and not the trainer use
    it; they read rows or pairs of the O(K) offset tables instead. Built from
    those tables' windows, so it peaks at one copy of the result.
    """
    d = _distance_rows(grid, np.arange(grid.n_units))
    d.setflags(write=False)
    return d


def adjacency_pairs(grid: MapGrid) -> np.ndarray:
    """(n_edges, 2) array of unit index pairs (a < b) at lattice distance 1, sorted by a, then b.

    A unit's neighbors of higher index are 1, C-1, C or C+1 units on; each
    such candidate pair is kept when its distance is 1, which also drops the
    steps that wrap around a row's end.
    """
    K, C = grid.n_units, grid.cols
    steps = np.unique([1, C - 1, C, C + 1])  # ascending, so b ascends for each a
    steps = steps[steps > 0]
    a = np.repeat(np.arange(K), len(steps))
    b = a + np.tile(steps, K)
    a, b = a[b < K], b[b < K]
    adjacent = _pair_distances(grid, a, b) == 1
    return np.column_stack([a[adjacent], b[adjacent]])


@dataclass(frozen=True)
class NeighborhoodKernel:
    """Kernel mapping a map distance and a temperature to a weight in [0, 1].

    ``gaussian`` gives exp(-d^2 / T^2); ``window`` gives 1 inside radius T,
    0 outside.
    """

    kind: str = "gaussian"

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")

    def weight(self, d, temperature):
        """Weight at map distance ``d`` for ``temperature``, each a scalar or an array.

        The two broadcast against each other; a scalar distance and a scalar
        temperature give a Python ``float``. Every temperature must be positive.
        Above about 1e154 a temperature squares to ``inf``, as a Python float
        does, and the Gaussian weighs every distance 1.0.
        """
        t = np.asarray(temperature, dtype=float)
        bad = ~(t > 0)
        if bad.any():
            raise ValueError(f"temperature must be positive, got {t[bad].flat[0]}")
        arr = np.asarray(d, dtype=float)
        if np.any(arr < 0):
            raise ValueError("map distance must be nonnegative")
        if self.kind == "gaussian":
            with np.errstate(over="ignore"):
                tt = t * t
            w = np.exp(-(arr * arr) / tt)
        else:
            w = (arr <= t).astype(float)
        return w if w.ndim else float(w)


def _weights_by_distance(kernel: NeighborhoodKernel, grid: MapGrid, temperature: float) -> np.ndarray:
    """Weights at map distances 0..diameter; ``ValueError`` naming the temperature if float64 cannot hold one."""
    diameter = _diameter(grid)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return kernel.weight(np.arange(diameter + 1.0), temperature)
    except FloatingPointError:
        raise ValueError(f"the {kernel.kind} kernel cannot weigh map distances 0..{diameter} "
                         f"at temperature {temperature:g} in float64") from None


GAUSSIAN = NeighborhoodKernel("gaussian")
WINDOW = NeighborhoodKernel("window")
