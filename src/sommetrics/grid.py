"""Map lattice geometry: grid topologies, inter-unit distances, neighborhood kernels.

Units are indexed 0..K-1 in row-major order everywhere (codebook rows, label
outputs, SVG layout). The inter-unit distance is the shortest-path length on
the lattice graph: Manhattan distance on 4-connected rectangular grids, cube
distance on 6-connected hexagonal grids (even-row offset layout).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
        return int(distance_matrix(self)[k, l])

    def neighbors(self, k: int) -> np.ndarray:
        """Indices of all units at lattice distance exactly 1 from ``k``, ascending."""
        self._check_index(k)
        return np.flatnonzero(distance_matrix(self)[k] == 1)

    def max_distance(self) -> int:
        """Lattice diameter: the largest inter-unit distance over all pairs."""
        if self.n_units < 2:
            raise ValueError("map diameter is undefined for a single-unit grid")
        return int(distance_matrix(self).max())

    def _check_index(self, k: int) -> None:
        if not 0 <= k < self.n_units:
            raise ValueError(f"unit index {k} out of range for {self.rows}x{self.cols} grid")


@lru_cache(maxsize=16)
def distance_matrix(grid: MapGrid) -> np.ndarray:
    """K x K matrix of inter-unit distances; cached per grid, read-only."""
    idx = np.arange(grid.n_units)
    rows = idx // grid.cols
    cols = idx % grid.cols
    if grid.topology == "rectangular":
        d = np.abs(rows[:, None] - rows[None, :]) + np.abs(cols[:, None] - cols[None, :])
    else:
        q = cols - (rows + (rows & 1)) // 2  # even-row offset -> axial (even rows pushed half a cell right)
        dq = q[:, None] - q[None, :]
        dr = rows[:, None] - rows[None, :]
        d = (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2
    d = d.astype(np.int64)
    d.setflags(write=False)
    return d


def adjacency_pairs(grid: MapGrid) -> np.ndarray:
    """(n_edges, 2) array of unit index pairs (a < b) at lattice distance 1."""
    d = distance_matrix(grid)
    a, b = np.nonzero(np.triu(d == 1))
    return np.column_stack([a, b])


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

    def weight(self, d, temperature: float):
        """Weight at map distance ``d`` (scalar or array) for temperature ``temperature``."""
        if not temperature > 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        arr = np.asarray(d, dtype=float)
        if np.any(arr < 0):
            raise ValueError("map distance must be nonnegative")
        if self.kind == "gaussian":
            w = np.exp(-(arr * arr) / (temperature * temperature))
        else:
            w = (arr <= temperature).astype(float)
        return w if arr.ndim else float(w)


def _weights_by_distance(kernel: NeighborhoodKernel, grid: MapGrid, temperature: float) -> np.ndarray:
    """Weights at map distances 0..diameter; ``ValueError`` naming the temperature if float64 cannot hold one."""
    diameter = int(distance_matrix(grid).max())
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return kernel.weight(np.arange(diameter + 1.0), temperature)
    except FloatingPointError:
        raise ValueError(f"the {kernel.kind} kernel cannot weigh map distances 0..{diameter} "
                         f"at temperature {temperature:g} in float64") from None


GAUSSIAN = NeighborhoodKernel("gaussian")
WINDOW = NeighborhoodKernel("window")
