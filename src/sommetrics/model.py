"""Codebook and dataset containers, BMU projection, and the stochastic trainer.

The trainer exists to generate evaluation fixtures; it draws samples with
replacement from a seeded generator, anneals the temperature geometrically
from ``t_max`` to ``t_min``, and anneals the learning rate by the same factor.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .grid import (GAUSSIAN, MapGrid, NeighborhoodKernel, _diameter, _distance_rows, _distance_windows,
                   _weights_by_distance)
from .grid import distance_matrix  # unused here: perfbench/trace_layers.py wraps this module's binding


def _finite_matrix(values, name: str) -> np.ndarray:
    """``values`` as a float matrix; raises ``ValueError`` unless 2-D, at least 1x1, and finite."""
    matrix = np.atleast_2d(np.asarray(values, dtype=float))
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{name} contain non-finite values")
    return matrix


@dataclass
class Dataset:
    """N x D sample matrix with optional integer class labels."""

    samples: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.samples = _finite_matrix(self.samples, "samples")
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
        self.prototypes = _finite_matrix(self.prototypes, "prototypes")
        if self.prototypes.shape[0] != self.grid.n_units:
            raise ValueError(
                f"codebook has {self.prototypes.shape[0]} rows but grid "
                f"{self.grid.rows}x{self.grid.cols} has {self.grid.n_units} units"
            )

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


@contextmanager
def _small_ufunc_buffer():
    """Run the block with numpy's ufunc buffer at its minimum of 16 elements; restores the caller's size.

    numpy's buffered iterator copies a stride-0 operand, the (D, 1) column of
    ``(D, K) - (D, 1)`` or the (K,) row of ``(D, K) * (K,)``, into its buffer
    and runs inner loops shorter than the buffer: at the default 8,192
    elements such a call on (16, 900) took 11-13 µs on numpy 2.4.6, against
    4 µs for the same call at 16 elements or for a same-shape subtract.

    Inside the block run only same-dtype float64 add, subtract, multiply and
    square, plus ``argmin`` and ``take``: IEEE rounds each of these element
    by element, so the bits do not depend on how the iterator splits the
    work. No reduction (its pairwise blocks may follow the iterator's inner
    loops), no transcendental ufunc such as ``exp`` (its vector and scalar
    loops may differ) and no cast, which needs the buffer: a (256, 3000)
    ``uint8 <= int64`` compare went 0.77 to 4.22 ms at 16 elements. The
    size is local to the thread (numpy 1.x) or the context (numpy 2.x).
    """
    old = np.setbufsize(16)
    try:
        yield
    finally:
        np.setbufsize(old)


# Elements per stacked slab of the distance kernel (see _pairwise_sum for how
# many are live); a constant, so bits never depend on the machine.
_CHUNK = 65_536
_TABLE = 8_192  # entries per weight table of the trainer
_BLOCK = 256  # rows per block of every scan (projection, pair scans, distortion)


def _pairwise_tree(leaf, lo: int, hi: int, limit: int):
    """``leaf(lo, hi)``'s sum of terms ``lo..hi-1``, split and added in numpy's pairwise order.

    numpy sums a contiguous float64 run of n > 128 terms as the sum of its
    first half and then its second, the half being n/2 rounded down to a
    multiple of 8. This applies that split to every run longer than
    ``limit`` and adds the halves' sums in place, so with ``limit`` >= 128
    and ``leaf(i, j)`` returning ``a[i:j].sum()``, the result has the bits of
    ``a[lo:hi].sum()``. ``leaf`` may return an array of several such sums.
    """
    n = hi - lo
    if n <= limit:
        return leaf(lo, hi)
    half = n // 2 - n // 2 % 8
    total = _pairwise_tree(leaf, lo, lo + half, limit)
    total += _pairwise_tree(leaf, lo + half, hi, limit)
    return total


def _pairwise_sum(terms, lo: int, hi: int) -> np.ndarray:
    """Sum of coordinate terms ``lo..hi-1``, added in the order of numpy's pairwise summation.

    That is the order in which ``arr.sum(axis=-1)`` adds a contiguous last
    axis, so summing stacked coordinate terms gives the bits of
    ``((a - b) ** 2).sum(axis=-1)`` without its (..., D) temporary. Fewer than
    8 terms are added in order; up to 128 go to 8 partial sums, one 8-term
    slab at a time, combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then
    the rest in order; longer runs split at half their length rounded down to
    a multiple of 8. ``terms(i, j)`` returns a ``(j - i, ...)`` array of terms
    ``i..j-1``: a new array, or a view into a scratch buffer that holds every
    term. This function adds into the first slab of each run it sums, so a
    scratch buffer's terms are spent after the call and the result may be a
    view into it. Two slabs of at most 8 terms are live at once, the partial
    sums and the next slab, plus the first half's sum for each level of
    splitting.
    """
    n = hi - lo
    if n > 128:
        return _pairwise_tree(lambda i, j: _pairwise_sum(terms, i, j), lo, hi, 128)
    if n < 8:
        slab = terms(lo, hi)
        total, rest = slab[0], slab[1:]
    else:
        r = terms(lo, lo + 8)
        end = hi - n % 8
        for i in range(lo + 8, end, 8):
            r += terms(i, i + 8)
        r0, r1, r2, r3, r4, r5, r6, r7 = r  # row views: each add below is one in-place ufunc call
        r0 += r1
        r2 += r3
        r0 += r2
        r4 += r5
        r6 += r7
        r4 += r6
        r0 += r4
        total, rest = r0, (terms(end, hi) if end < hi else ())
    for term in rest:
        total += term
    return total


def _summed_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``((a - b) ** 2).sum(axis=0)`` of (D, ...) operands in ``_pairwise_sum``'s order: every exact distance."""

    def squares(i: int, j: int) -> np.ndarray:
        diff = np.subtract(a[i:j], b[i:j])
        return np.multiply(diff, diff, out=diff)

    return _pairwise_sum(squares, 0, len(a))


def squared_distances(x: np.ndarray, prototypes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact squared euclidean distances, rows of ``x`` against all prototypes.

    Computed from explicit differences (not the expanded dot-product form) so
    that exact ties in the inputs stay exact ties in the output, and bit for
    bit equal to ``((x[:, None] - prototypes[None]) ** 2).sum(-1)``, in chunks
    of at most ``_CHUNK // min(D, 8)`` output elements. Raises ``ValueError``
    when a distance overflows float64 (|values| above about 1e154), because an
    infinite distance would make ties and ratios meaningless. The chunk loop
    runs under ``_small_ufunc_buffer``. ``out``, a (len(x), len(prototypes))
    float64 array, receives the distances instead of a new array, so that a
    scan can reuse one buffer for all its rows.
    """
    n, m, d = len(x), len(prototypes), x.shape[1]
    if out is None:
        out = np.empty((n, m))
    size = max(1, _CHUNK // min(d, 8))  # output elements per chunk: one slab holds at most _CHUNK
    cols = max(1, min(m, size))
    rows = size // cols
    xt, pt = np.ascontiguousarray(x.T), np.ascontiguousarray(prototypes.T)
    with _overflow_is_an_error(), _small_ufunc_buffer():
        for r0 in range(0, n, rows):
            for c0 in range(0, m, cols):
                out[r0:r0 + rows, c0:c0 + cols] = _summed_squares(xt[:, r0:r0 + rows, None], pt[:, None, c0:c0 + cols])
    return out


def _paired_squared_distances(x: np.ndarray, rows: np.ndarray, prototypes: np.ndarray,
                              units: np.ndarray) -> np.ndarray:
    """``squared_distances(x, prototypes)[rows, units]``, computing only those pairs, with the same summation.

    Each chunk of ``max(1, _CHUNK // D)`` pairs gathers at most ``_CHUNK``
    values (D when D exceeds it) of ``x`` and of ``prototypes``, so no call
    copies all of ``x``. Overflow raises as in ``squared_distances``. No
    operand is broadcast, so the chunks run at numpy's own ufunc buffer size.
    """
    size = max(1, _CHUNK // x.shape[1])
    out = np.empty(len(rows))
    with _overflow_is_an_error():
        for s in range(0, len(rows), size):
            out[s:s + size] = _summed_squares(x[rows[s:s + size]].T, prototypes[units[s:s + size]].T)
    return out


def _distance_blocks(x: np.ndarray, prototypes: np.ndarray, rows: int):
    """``(start, squared_distances(x[start:start + rows], prototypes))`` per block of ``x``, in one reused buffer."""
    out = np.empty((min(rows, len(x)), len(prototypes)))
    for start in range(0, len(x), rows):
        block = x[start:start + rows]
        yield start, squared_distances(block, prototypes, out=out[:len(block)])


@dataclass
class _Evaluation:
    """The running evaluation: operands, parameters, the plan made by ``report.evaluate_map``, kept results."""

    codebook: CodeBook
    data: Dataset
    k: int | None
    temperature: float | None  # distortion's, None unless the evaluation asks for it: then its pass makes the ranks
    kernel: NeighborhoodKernel
    pair_plan: tuple[int | None, bool, bool]  # the (trust/NP order, KSE, C) consumers of the one pair scan
    ranks: np.ndarray | ValueError | None = None  # read-only depth-min(2, K) ranks of project
    distortion: tuple | ValueError | None = None  # (total, ranks) of distortion's pass at the plan's temperature
    pairs: tuple | ValueError | None = None  # the pair scan of pair_plan, made by internal._pair_sums

    def once(self, slot: str, make):
        """``make()``'s value, made on first need and kept in ``slot``; a ``ValueError`` it raised is kept instead."""
        kept = getattr(self, slot)
        if kept is None:
            try:
                kept = make()
            except ValueError as exc:
                kept = exc
            setattr(self, slot, kept)
        if isinstance(kept, ValueError):
            raise kept.with_traceback(None)  # a kept traceback would hold the failed computation's arrays
        return kept


_SCOPE: ContextVar[_Evaluation | None] = ContextVar("sommetrics.evaluation", default=None)


def project(codebook: CodeBook, data: Dataset, depth: int = 2) -> ProjectionIndex:
    """Rank map units by distance to each sample, truncated to ``depth``.

    Ranks come from the exact squared distances of ``squared_distances``
    (explicit differences), ties going to the lowest unit, and raise the same
    ``ValueError`` on overflow. A matrix product only screens candidates: per
    sample, every unit whose expanded-form distance ``|x|² - 2x·p + |p|²`` lies
    within a rounding bound of the ``depth``-th smallest is recomputed exactly.
    The bound holds for any summation order and with fused multiply-add, so
    neither the BLAS library nor its thread count can change the ranks.

    Within an evaluation (``report.evaluate_map``), whose metrics ask for
    depth 1 or 2, a call reads the leading columns of one read-only ranking
    of depth ``min(2, K)``, made once (``_Evaluation.once``, which keeps an
    error too): the ranking is exact, so they are the ranks a shallower call
    would compute. When the evaluation asks for distortion, the ranking comes
    from distortion's exact pass (``_distortion_pass``), kept whole for
    distortion; if that pass raises, the ranking is made as outside an
    evaluation.
    """
    _check_dims(codebook, data)
    K = codebook.n_units
    if not (isinstance(depth, Integral) and 1 <= depth <= K):
        raise ValueError(f"depth must be an integer in 1..{K}, got {depth!r}")
    evaluation = _SCOPE.get()
    if evaluation is None:
        return ProjectionIndex(_rank_units(codebook, data, depth))

    def ranks():
        if evaluation.temperature is not None:
            try:  # distortion's pass, kept whole for distortion, which raises its error
                return evaluation.once("distortion", lambda: _distortion_pass(
                    codebook, data, evaluation.temperature, evaluation.kernel))[1]
            except ValueError:
                pass  # the other metrics rank as without distortion
        return _rank_units(codebook, data, min(2, K))

    kept = evaluation.once("ranks", ranks)
    kept.flags.writeable = False  # every metric of the evaluation gets a view of this one array
    return ProjectionIndex(kept[:, :depth])


def _rank_units(codebook: CodeBook, data: Dataset, depth: int) -> np.ndarray:
    """(N, depth) unit ranks of ``project``, for valid operands and depth."""
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
    return ranks


def _distortion_pass(codebook: CodeBook, data: Dataset, temperature: float,
                     kernel: NeighborhoodKernel) -> tuple[np.float64, np.ndarray]:
    """Distortion's weighted total over all samples, and the (N, min(2, K)) unit ranks of ``project``.

    One exact pass over the ``_BLOCK``-row blocks of ``_distance_blocks``:
    each block's BMUs (``argmin``, ties to the lowest unit, as in ``project``)
    pick the kernel weights of every unit by the BMUs' distance rows; the BMU
    entries are then set to inf, and a second ``argmin`` gives the second
    BMUs. Raises ``ValueError`` when the kernel cannot weigh the map at
    ``temperature``, or when a distance or the running total overflows
    float64.
    """
    grid = codebook.grid
    by_distance = _weights_by_distance(kernel, grid, temperature)
    _check_dims(codebook, data)
    ranks = np.empty((data.n_samples, min(2, codebook.n_units)), dtype=np.int64)
    total = np.float64(0.0)  # a numpy scalar, so that an overflowing running total raises too
    with _overflow_is_an_error():
        for start, d2 in _distance_blocks(data.samples, codebook.prototypes, _BLOCK):
            bmus = d2.argmin(axis=1)
            weights = _distance_rows(grid, bmus, by_distance)  # B x K, each unit's weight around the row's BMU
            weights *= d2
            total += weights.sum()
            del weights
            block = ranks[start:start + len(d2)]
            block[:, 0] = bmus
            if ranks.shape[1] == 2:
                d2[np.arange(len(d2)), bmus] = np.inf
                block[:, 1] = d2.argmin(axis=1)
    return total, ranks


def bmu_distances(codebook: CodeBook, data: Dataset, bmus: np.ndarray) -> np.ndarray:
    """Euclidean distance from each sample to its assigned unit's prototype."""
    return np.sqrt(_paired_squared_distances(data.samples, np.arange(data.n_samples), codebook.prototypes, bmus))


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
        for name in ("t_max", "t_min", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.t_max >= self.t_min > 0):
            raise ValueError(f"need t_max >= t_min > 0, got t_max={self.t_max}, t_min={self.t_min}")
        if not self.alpha > 0:
            raise ValueError(f"learning rate must be positive, got {self.alpha}")
        for name in ("iterations", "seed"):
            value = getattr(self, name)
            if not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        grid = self.grid  # an invalid grid raises its own error
        try:
            _diameter(grid)  # builds the grid's offset tables, which every step reads
        except (ValueError, MemoryError) as exc:  # numpy refuses the shape, or cannot allocate it
            raise ValueError(f"map {self.rows}x{self.cols} is too large: {exc}") from None
        # the last step has the lowest temperature; train_som computes it as
        # t_max * ratio ** 1 and weighs map distances 0..diameter at it
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
    around the BMU. The BMU is the lowest unit of least squared distance,
    summed in the order of ``squared_distances``. Deterministic given the seed.

    The learning rate times the kernel weight of each map distance
    0..diameter is tabulated, and the sample indices drawn, for a block of
    steps at once: at most ``_TABLE`` entries and at least one step per table
    (``Generator.integers`` gives one stream however the draws are split).
    Each step reads its row at every unit's distance from the BMU, a window of
    the grid's offset tables. The squared differences go to one reused D x K
    buffer. Each table's steps run under ``_small_ufunc_buffer``; the table
    itself is made outside it.
    """
    grid = config.grid
    rng = np.random.default_rng(config.seed)
    pt = np.ascontiguousarray(init_codebook(data, grid, rng).prototypes.T)  # D x K: one row per coordinate
    diff, sq = np.empty_like(pt), np.empty_like(pt)
    unit_weights = np.empty((grid.rows, grid.cols))  # the step's weight of each unit, by (row, col)
    weights_row = unit_weights.reshape(-1)  # the same K weights, in unit order

    def squares(i, j):
        return sq[i:j]

    windows, rows, cols = _distance_windows(grid), grid.rows, grid.cols
    span = np.arange(_diameter(grid) + 1.0)  # every map distance 0..diameter
    x = data.samples
    n, d = x.shape
    ratio = config.t_min / config.t_max
    iters = config.iterations
    per_table = max(1, _TABLE // len(span))
    with _overflow_is_an_error():
        for first in range(1, iters + 1, per_table):
            anneal = np.array([ratio ** (step / iters) for step in range(first, min(first + per_table, iters + 1))])
            table = (config.alpha * anneal)[:, None] * config.kernel.weight(span, config.t_max * anneal[:, None])
            with _small_ufunc_buffer():
                for rates, i in zip(table, rng.integers(n, size=len(table)).tolist()):
                    np.subtract(x[i, :, None], pt, out=diff)
                    np.square(diff, out=sq)
                    b = int(_pairwise_sum(squares, 0, d).argmin())
                    r, c = divmod(b, cols)
                    rates.take(windows[r & 1, rows - 1 - r, cols - 1 - c], out=unit_weights)
                    diff *= weights_row
                    pt += diff
    return CodeBook(pt.T.copy(), grid)
