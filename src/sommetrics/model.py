"""Codebook and dataset containers, BMU projection, and the stochastic trainer.

The trainer exists to generate evaluation fixtures; it draws samples with
replacement from a seeded generator, anneals the temperature geometrically
from ``t_max`` to ``t_min``, and keeps the learning rate constant.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .grid import GAUSSIAN, MapGrid, NeighborhoodKernel, _weights_by_distance, distance_matrix


@dataclass
class Dataset:
    """N x D sample matrix with optional integer class labels."""

    samples: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise ValueError(f"samples must be a nonempty 2-D matrix, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if not np.issubdtype(self.labels.dtype, np.integer):
                raise ValueError("labels must be integers")
            self.labels = self.labels.astype(np.int64).ravel()
            if self.labels.shape[0] != self.samples.shape[0]:
                raise ValueError(
                    f"labels length {self.labels.shape[0]} does not match sample count {self.samples.shape[0]}"
                )
            if self.labels.min() < 0:
                raise ValueError("labels must be nonnegative class ids")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]

    @property
    def n_classes(self) -> int | None:
        return None if self.labels is None else int(self.labels.max()) + 1


@dataclass
class CodeBook:
    """K x D prototype matrix, row k belonging to map unit k of ``grid``."""

    prototypes: np.ndarray
    grid: MapGrid

    def __post_init__(self) -> None:
        self.prototypes = np.atleast_2d(np.asarray(self.prototypes, dtype=float))
        if self.prototypes.shape[0] != self.grid.n_units:
            raise ValueError(
                f"codebook has {self.prototypes.shape[0]} rows but grid "
                f"{self.grid.rows}x{self.grid.cols} has {self.grid.n_units} units"
            )
        if not np.all(np.isfinite(self.prototypes)):
            raise ValueError("prototypes contain non-finite values")

    @property
    def n_units(self) -> int:
        return self.prototypes.shape[0]

    @property
    def n_features(self) -> int:
        return self.prototypes.shape[1]


@dataclass
class ProjectionIndex:
    """Per-sample unit rankings by ascending squared distance, ties to lowest index."""

    bmu_ranks: np.ndarray  # (N, depth) int

    @property
    def bmu(self) -> np.ndarray:
        return self.bmu_ranks[:, 0]

    @property
    def second_bmu(self) -> np.ndarray:
        if self.bmu_ranks.shape[1] < 2:
            raise ValueError("projection was computed with depth < 2")
        return self.bmu_ranks[:, 1]

    @property
    def depth(self) -> int:
        return self.bmu_ranks.shape[1]


def _check_dims(codebook: CodeBook, data: Dataset) -> None:
    if codebook.n_features != data.n_features:
        raise ValueError(
            f"dimension mismatch: codebook is {codebook.n_units}x{codebook.n_features}, "
            f"data is {data.n_samples}x{data.n_features}"
        )


@contextmanager
def _overflow_is_an_error():
    """Turn a float64 overflow inside the block into ``ValueError``.

    Values above about 1e154 in magnitude make squared distances infinite,
    which would make ties and ratios meaningless.
    """
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError:
            raise ValueError("squared distances overflow float64; rescale the data and prototypes") from None


_CHUNK = 65_536  # elements per temporary of the distance kernel; a constant, so bits never depend on the machine
_BLOCK = 256  # rows per block of every scan (projection, pair scans, distortion, topographic product)


def _pairwise_sum(term, lo: int, hi: int) -> np.ndarray:
    """``term(lo) + ... + term(hi - 1)``, added in the order of numpy's pairwise summation.

    That is the order in which ``arr.sum(axis=-1)`` adds a contiguous last
    axis, so summing coordinate terms one at a time gives the bits of
    ``((a - b) ** 2).sum(axis=-1)`` without its (..., D) temporary. Fewer than
    8 terms are added in order; up to 128 go to 8 interleaved partial sums,
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the rest in
    order; longer runs split at half their length rounded down to a multiple
    of 8. ``term(j, out)`` fills ``out``, or a new array when ``out`` is None;
    at most 9 arrays are live per level.
    """
    n = hi - lo
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _pairwise_sum(term, lo, lo + half)
        total += _pairwise_sum(term, lo + half, hi)
        return total
    buf = None
    if n < 8:
        total, rest = term(lo), range(lo + 1, hi)
    else:
        r = [term(lo + m) for m in range(8)]
        end = hi - n % 8
        for i in range(lo + 8, end, 8):
            for m in range(8):
                buf = term(i + m, buf)
                r[m] += buf
        r[0] += r[1]
        r[2] += r[3]
        r[0] += r[2]
        r[4] += r[5]
        r[6] += r[7]
        r[4] += r[6]
        r[0] += r[4]
        total, rest = r[0], range(end, hi)
    for j in rest:
        buf = term(j, buf)
        total += buf
    return total


def _squared(diff: np.ndarray) -> np.ndarray:
    return np.multiply(diff, diff, out=diff)


def squared_distances(x: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Exact squared euclidean distances, rows of ``x`` against all prototypes.

    Computed from explicit differences (not the expanded dot-product form) so
    that exact ties in the inputs stay exact ties in the output, and bit for
    bit equal to ``((x[:, None] - prototypes[None]) ** 2).sum(-1)``, in chunks
    of at most ``_CHUNK`` output elements. Raises ``ValueError`` when a
    distance overflows float64 (|values| above about 1e154), because an
    infinite distance would make ties and ratios meaningless.
    """
    n, m, d = len(x), len(prototypes), x.shape[1]
    out = np.zeros((n, m))
    if d == 0:  # no coordinates: every distance is 0
        return out
    cols = max(1, min(m, _CHUNK))
    rows = _CHUNK // cols
    xt, pt = np.ascontiguousarray(x.T), np.ascontiguousarray(prototypes.T)
    with _overflow_is_an_error():
        for r0 in range(0, n, rows):
            a = xt[:, r0:r0 + rows, None]
            for c0 in range(0, m, cols):
                b = pt[:, None, c0:c0 + cols]
                out[r0:r0 + rows, c0:c0 + cols] = _pairwise_sum(
                    lambda j, buf=None: _squared(np.subtract(a[j], b[j], out=buf)), 0, d)
    return out


def _paired_squared_distances(x: np.ndarray, rows: np.ndarray, prototypes: np.ndarray,
                              units: np.ndarray) -> np.ndarray:
    """``squared_distances(x, prototypes)[rows, units]``, computing only those pairs.

    Gathers one coordinate column per term, in chunks of ``_CHUNK`` pairs.
    """
    d = x.shape[1]
    out = np.zeros(len(rows))
    if d == 0:  # no coordinates: every distance is 0
        return out
    with _overflow_is_an_error():
        for s in range(0, len(rows), _CHUNK):
            r, u = rows[s:s + _CHUNK], units[s:s + _CHUNK]
            out[s:s + _CHUNK] = _pairwise_sum(
                lambda j, buf=None: _squared(np.subtract(x[r, j], prototypes[u, j], out=buf)), 0, d)
    return out


def project(codebook: CodeBook, data: Dataset, depth: int = 2) -> ProjectionIndex:
    """Rank map units by distance to each sample, truncated to ``depth``.

    Ranks come from the exact squared distances of ``squared_distances``
    (explicit differences), ties going to the lowest unit, and raise the same
    ``ValueError`` on overflow. A matrix product only screens candidates: per
    sample, every unit whose expanded-form distance ``|x|² - 2x·p + |p|²`` lies
    within a rounding bound of the ``depth``-th smallest is recomputed exactly.
    The bound holds for any summation order and with fused multiply-add, so
    neither the BLAS library nor its thread count can change the ranks.
    """
    _check_dims(codebook, data)
    K = codebook.n_units
    if not 1 <= depth <= K:
        raise ValueError(f"depth must be in 1..{K}, got {depth}")
    protos = codebook.prototypes
    n, d = data.samples.shape
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    with np.errstate(over="ignore", invalid="ignore"):
        # Screening about the prototype mean keeps the expanded form
        # discriminating for data far from the origin.
        center = protos.mean(axis=0)
        centered = protos - center
        pp = np.einsum("kd,kd->k", centered, centered)
        reach = np.sqrt(pp.max())
    ranks = np.empty((n, depth), dtype=np.int64)
    for start in range(0, n, _BLOCK):
        x = data.samples[start:start + _BLOCK]
        with np.errstate(over="ignore", invalid="ignore"):
            cx = x - center
            xx = np.einsum("nd,nd->n", cx, cx)
            screen = -2.0 * (cx @ centered.T) + xx[:, None] + pp
            # 4(D+4)·(eps·(|x| + max|p|)² + 2·tiny), norms taken from the
            # prototype mean, exceeds the rounding error of two screened and
            # two exact distances (centering, any summation order, fused
            # multiply-add and underflow included). Written with the doubled
            # radius, it overflows to inf, keeping every unit, whenever an
            # exact distance of the row could overflow; a NaN screen or cut
            # also keeps every unit.
            slack = (d + 4) * (eps * (2.0 * (np.sqrt(xx) + reach)) ** 2 + 8.0 * tiny)
            limit = np.partition(screen, depth - 1, axis=1)[:, depth - 1] + slack
            keep = ~(screen > limit[:, None])
        rows, units = np.nonzero(keep)
        exact = _paired_squared_distances(x, rows, protos, units)
        ranked = units[np.lexsort((units, exact, rows))]
        counts = keep.sum(axis=1)
        ranks[start:start + len(x)] = ranked[(np.cumsum(counts) - counts)[:, None] + np.arange(depth)]
    return ProjectionIndex(ranks)


def bmu_distances(codebook: CodeBook, data: Dataset, bmus: np.ndarray) -> np.ndarray:
    """Euclidean distance from each sample to its assigned unit's prototype."""
    return np.sqrt(_paired_squared_distances(data.samples, np.arange(data.n_samples), codebook.prototypes, bmus))


def receptive_field_connectivity(codebook: CodeBook, data: Dataset) -> np.ndarray:
    """K x K boolean matrix marking unit pairs that are BMU and second BMU of some sample.

    Symmetric with an all-false diagonal; estimates receptive-field adjacency
    without a Voronoi tessellation.
    """
    if codebook.n_units < 2:
        raise ValueError("receptive-field connectivity requires at least two units")
    proj = project(codebook, data, depth=2)
    K = codebook.n_units
    conn = np.zeros((K, K), dtype=bool)
    conn[proj.bmu, proj.second_bmu] = True
    conn |= conn.T
    np.fill_diagonal(conn, False)
    return conn


def init_codebook(data: Dataset, grid: MapGrid, seed) -> CodeBook:
    """Initialize prototypes by sampling data rows (without replacement when N >= K)."""
    rng = np.random.default_rng(seed)
    K = grid.n_units
    n = data.n_samples
    idx = rng.choice(n, size=K, replace=n < K)
    return CodeBook(data.samples[idx].copy(), grid)


@dataclass
class TrainerConfig:
    """Stochastic trainer parameters; defaults match the square-map fixture."""

    rows: int
    cols: int
    topology: str = "rectangular"
    t_max: float = 10.0
    t_min: float = 0.1
    alpha: float = 0.5
    iterations: int = 20000
    seed: int = 0
    kernel: NeighborhoodKernel = field(default_factory=lambda: GAUSSIAN)

    def __post_init__(self) -> None:
        if not (self.t_max >= self.t_min > 0):
            raise ValueError(f"need t_max >= t_min > 0, got t_max={self.t_max}, t_min={self.t_min}")
        if not self.alpha > 0:
            raise ValueError(f"learning rate must be positive, got {self.alpha}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        # the last step has the lowest temperature; train_som computes it as
        # t_max * ratio ** 1, and its weights as kernel.weight does
        grid = self.grid  # an invalid grid raises its own error, outside the t_min message
        try:
            _weights_by_distance(self.kernel, grid, self.t_max * (self.t_min / self.t_max))
        except ValueError as exc:
            raise ValueError(f"t_min={self.t_min} is too small: {exc}") from None

    @property
    def grid(self) -> MapGrid:
        return MapGrid(self.rows, self.cols, self.topology)


def train_som(data: Dataset, config: TrainerConfig) -> CodeBook:
    """Run the stochastic training loop and return the trained codebook.

    At step n (1-based) the temperature is
    ``t_max * (t_min / t_max) ** (n / iterations)`` and the learning rate
    anneals by the same geometric factor (staying at ``alpha`` when the
    temperature is held constant); one sample is drawn uniformly per step and
    every prototype moves toward it, weighted by the neighborhood kernel
    around the BMU. Deterministic given the seed.
    """
    grid = config.grid
    rng = np.random.default_rng(config.seed)
    codebook = init_codebook(data, grid, rng)
    protos = codebook.prototypes
    _check_dims(codebook, data)

    dmat = distance_matrix(grid).astype(float)
    x = data.samples
    n = data.n_samples
    ratio = config.t_min / config.t_max
    iters = config.iterations
    with _overflow_is_an_error():
        for step in range(1, iters + 1):
            anneal = ratio ** (step / iters)
            t = config.t_max * anneal
            i = int(rng.integers(n))
            diff = x[i] - protos
            b = int(np.argmin((diff * diff).sum(axis=1)))
            w = config.kernel.weight(dmat[b], t)
            protos += (config.alpha * anneal) * w[:, None] * diff
    return CodeBook(protos, grid)
