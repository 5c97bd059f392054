"""Internal quality indices: quantization and topographic errors over a codebook and data.

All indices are pure deterministic functions; every ordering that could tie
breaks toward the lowest unit or sample index.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .grid import (GAUSSIAN, NeighborhoodKernel, _diameter, _distance_rows, _distance_windows, _pair_distances,
                   adjacency_pairs)
from .grid import distance_matrix  # unused here: perfbench/trace_layers.py wraps this module's binding
from .model import (_BLOCK, _CHUNK, _SCOPE, CodeBook, Dataset, _distance_blocks, _distortion_pass,
                    _overflow_is_an_error, _paired_squared_distances, _pairwise_tree, bmu_distances, project,
                    squared_distances)


def quantization_error(codebook: CodeBook, data: Dataset) -> float:
    """Mean euclidean distance between each sample and its BMU prototype."""
    bmus = project(codebook, data, depth=1).bmu
    return float(bmu_distances(codebook, data, bmus).mean())


def distortion(codebook: CodeBook, data: Dataset, temperature: float,
               kernel: NeighborhoodKernel = GAUSSIAN) -> float:
    """Neighborhood-weighted mean of squared sample-to-prototype distances.

    The loss minimized by SOM training: every unit contributes for every
    sample, weighted by the kernel applied to its map distance from the BMU.
    Within an evaluation, the total comes from the pass that also makes the
    evaluation's projection; that pass runs once, and its result or error is
    kept (``_Evaluation.once``).
    """
    evaluation = _SCOPE.get()
    if evaluation is None:
        return float(_distortion_pass(codebook, data, temperature, kernel)[0]) / data.n_samples
    total = evaluation.once("distortion", lambda: _distortion_pass(codebook, data, temperature, kernel))[0]
    return float(total) / data.n_samples


def topographic_error(codebook: CodeBook, data: Dataset) -> float:
    """Fraction of samples whose two best-matching units are not map neighbors."""
    if codebook.n_units < 2:
        raise ValueError("topographic error requires at least two units")
    proj = project(codebook, data, depth=2)
    return float(np.mean(_pair_distances(codebook.grid, proj.bmu, proj.second_bmu) > 1))


def _map_path_costs(codebook: CodeBook, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Exact shortest-path cost on the unit adjacency graph from each ``sources[i]`` to ``targets[i]``.

    Edge weight between adjacent units is the squared euclidean distance of
    their prototypes. Zero-weight edges (duplicate prototypes) are legitimate:
    the graph is built from COO without ``eliminate_zeros``, so csgraph keeps
    explicit zeros as edges.

    Dijkstra runs from ``max(1, _CHUNK // K)`` distinct sources at a time, so
    no cost array holds more than ``_CHUNK`` values (K of them when K exceeds
    ``_CHUNK``), and only as far as each needed cost: first up to a limit of
    the median positive edge weight, then again, with the limit doubled, from
    the sources whose needed cost is still unreached, and without a limit
    once the limit reaches the sum of all edge weights. The
    costs equal those of one unlimited run bit for bit: adding a nonnegative
    weight with rounding never lowers a sum, so every node within the
    (inclusive) limit is reached by the same sums as without it.
    """
    # scipy loads on first use, so that importing the package and training do not pay for it
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import dijkstra

    K = codebook.n_units
    a, b = adjacency_pairs(codebook.grid).T
    p = codebook.prototypes
    w = _paired_squared_distances(p, a, p, b)
    graph = coo_array((w, (a, b)), shape=(K, K)).tocsr()
    positive = np.sort(w[w > 0])
    first_limit = float(positive[len(positive) // 2]) if len(positive) else 0.0  # no arithmetic: no overflow
    with np.errstate(over="ignore"):
        total = float(w.sum())  # an overflow to inf lets the doubling run to inf
    units, source_of = np.unique(sources, return_inverse=True)
    costs = np.empty(len(sources))
    per_run = max(1, _CHUNK // K)
    for lo in range(0, len(units), per_run):
        pending = np.flatnonzero((source_of >= lo) & (source_of < lo + per_run))  # pairs whose cost is unreached
        limit = first_limit
        while len(pending):
            run = limit if limit < total else np.inf
            starts, row = np.unique(source_of[pending], return_inverse=True)
            costs[pending] = dijkstra(graph, directed=False, indices=units[starts], limit=run)[row, targets[pending]]
            if run == np.inf:
                break
            pending = pending[np.isinf(costs[pending])]
            limit *= 2.0  # a Python float: doubling past the largest float gives inf, without an error
    return costs


def combined_error(codebook: CodeBook, data: Dataset) -> float:
    """Quantization error extended by the cheapest map path from BMU to second BMU.

    Per sample: squared distance to the BMU prototype, plus the minimum over
    map paths (consecutive units adjacent) of the summed squared prototype
    distances along the path, from BMU to second BMU.
    """
    if codebook.n_units < 2:
        raise ValueError("combined error requires at least two units")
    proj = project(codebook, data, depth=2)
    path = _map_path_costs(codebook, proj.bmu, proj.second_bmu)
    first = _paired_squared_distances(data.samples, np.arange(data.n_samples), codebook.prototypes, proj.bmu)
    with _overflow_is_an_error():
        # dijkstra overflows to inf without a floating-point error; the lattice
        # is connected, so an infinite path cost can only be such an overflow
        if np.isinf(path).any():
            raise FloatingPointError
        return float((first + path).mean())


def _check_samples(data: Dataset, least: int) -> None:
    if data.n_samples < least:
        raise ValueError(f"need at least {least} samples, got {data.n_samples}")


def _check_order(data: Dataset, k: int) -> None:
    """Trustworthiness' and neighborhood preservation's checks, in order."""
    if not isinstance(k, Integral):
        raise ValueError(f"neighborhood order k must be an integer, got {k!r}")
    _check_samples(data, 3)
    n = data.n_samples
    if not 1 <= k < n / 2:
        raise ValueError(f"neighborhood order k must satisfy 1 <= k < N/2 = {n / 2}, got {k}")


def _check_kse(codebook: CodeBook, data: Dataset) -> None:
    """The Kruskal-Shepard error's checks before its scan, in order."""
    _check_samples(data, 2)
    codebook.grid.max_distance()  # a one-unit map has no diameter to scale by


class _PairSums(NamedTuple):
    """Results of one sample-pair scan; None for a consumer that was off."""

    np_trust: tuple[float, float] | None
    kse: float | None
    c: float | None


def _pair_sums(codebook: CodeBook, data: Dataset, own: tuple[int | None, bool, bool]) -> _PairSums:
    """The scan for the consumers ``own`` = (trust/NP order, KSE, C), which the caller has checked.

    Inside an evaluation, whose pair plan holds them, the one scan of the plan
    serves them; it runs once, and its result or error is kept.
    """
    evaluation = _SCOPE.get()
    if evaluation is None:
        return _pair_scan(codebook, data, *own)
    return evaluation.once("pairs", lambda: _pair_scan(codebook, data, *evaluation.pair_plan))


def _leaf_terms(n: int) -> int:
    """Most terms in one leaf of the pair scan's summation tree over N samples: at least 16 rows' worth."""
    return max(2**16, 16 * n)


def _pair_scan(codebook: CodeBook, data: Dataset, k: int | None, kse: bool, c: bool) -> _PairSums:
    """One pass over all sample pairs for the consumers switched on, in leaves of numpy's summation tree.

    ``k`` is the trust/NP order (None: off); ``kse`` and ``c`` switch on the
    Kruskal-Shepard and C sums. Each KSE and C sum adds, block by block of
    ``_BLOCK`` rows, the sum of the block's (B, N) terms in numpy's pairwise
    order, as ``terms.sum()`` would, without building the block:
    ``_pairwise_tree`` splits each block's flat range of terms until a range
    holds at most ``_leaf_terms(N)`` terms, and a leaf sums its range with
    ``.sum()``. A leaf of a full block is whole rows; only the last, partial
    block can cut a row. Each leaf computes the squared input distances and
    the BMU map distances of the rows it touches, the latter from the distance
    rows of the block's distinct BMUs, in the smallest unsigned type that
    holds the map diameter; sums its range of the KSE and C terms; and runs
    trust/NP on the rows that start in it. Two (rows, N) float64 buffers, allocated once
    per scan, hold the distances and, in turn, the KSE terms, the C terms and
    the sorted rows of trust/NP. Integer map distances convert to float64
    exactly, so the narrow type changes no bit; the block and leaf sizes are
    constants, so summation order and output bits never depend on the
    machine, and the leaf size changes none.
    """
    x = np.asfortranarray(data.samples)  # column-major: each leaf's squared_distances reads x.T without a copy
    n = len(x)
    bmus = project(codebook, data, depth=1).bmu
    if kse:
        max_d2 = _max_squared_distance(x)
        kse = max_d2 != 0.0  # all samples identical: the KSE cannot be scaled, and fails on its own
    if k is None and not kse and not c:
        return _PairSums(None, None, None)
    grid = codebook.grid
    diameter = _diameter(grid)  # the KSE's map-side scale: _check_kse refused a map without one
    by_distance = np.arange(diameter + 1, dtype=np.min_scalar_type(diameter))  # map distances, narrow
    if k is not None:
        per_unit = np.bincount(bmus, minlength=grid.n_units)
        trust_terms, np_terms = np.empty(n), np.empty(n)
    limit = _leaf_terms(n)
    distances, scratch = np.empty((2, min(_BLOCK, n, limit // n + 2), n))  # the most rows a leaf touches
    kse_sum = c_sum = 0.0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        units, block_unit_of = np.unique(bmus[start:stop], return_inverse=True)
        unit_rows = _distance_rows(grid, units, by_distance)
        if k is not None:
            cut, size, closer = _map_ranks(unit_rows, per_unit, k, diameter)

        def leaf(lo: int, hi: int) -> np.ndarray:
            """(KSE, C) sums of the block's terms with flat pair index lo..hi-1, pair (i, j) at i * N + j."""
            first, last = lo // n, (hi - 1) // n + 1
            d2 = squared_distances(x[first:last], x, out=distances[:last - first])
            terms = scratch[:last - first]
            unit_of = block_unit_of[first - start:last - start]
            dm = unit_rows[unit_of].take(bmus, axis=1)
            part = slice(lo - first * n, hi - first * n)
            sums = np.zeros(2)
            if kse:
                np.divide(d2, max_d2, out=terms)
                for row, row_dm in zip(terms, dm):
                    row -= row_dm / diameter  # a row at a time: no (rows, N) temporary
                sums[0] = np.square(terms, out=terms).ravel()[part].sum()
            if c:
                np.sqrt(d2, out=terms)
                terms *= dm
                for i, row in enumerate(terms, first):
                    row[i:] = 0.0  # each unordered pair counted once
                sums[1] = terms.ravel()[part].sum()
            begin, end = -(-lo // n), -(-hi // n)  # the rows that start in this leaf
            if k is not None and begin < end:
                own = slice(begin - first, end - first)
                of = unit_of[own]
                false_pen, missed_pen = _np_trust_penalties(d2[own], dm[own], terms[own], begin, k, of, cut, closer)
                trust_terms[begin:end] = (k / size[of]) * false_pen.astype(float)
                np_terms[begin:end] = (size[of] / k) * missed_pen.astype(float)
            return sums

        block_kse, block_c = _pairwise_tree(leaf, start * n, stop * n, limit)
        kse_sum += float(block_kse)
        c_sum += float(block_c)

    np_trust = None
    if k is not None:
        factor = 2.0 / (n * k * (2 * n - 3 * k - 1))
        # cumsum adds strictly in sample order, as a running total would
        np_trust = (1.0 - factor * float(np.cumsum(np_terms)[-1]), 1.0 - factor * float(np.cumsum(trust_terms)[-1]))
    return _PairSums(np_trust, kse_sum / (n * (n - 1)) if kse else None, c_sum if c else None)


def _max_squared_distance(x: np.ndarray) -> float:
    """``squared_distances(x, x).max()``, bit for bit, from the samples that can end the farthest pair.

    With r_i the distance of sample i from the sample mean, no pair with
    sample i is farther apart than r_i + max r. A sample whose squared bound,
    plus a rounding slack, stays below the exact largest distance from the
    farthest sample cannot end the farthest pair; the exact distances among
    the other samples give the maximum, in ``_distance_blocks`` of a pair
    scan leaf's worth of rows. The kernel's per-element bits do not depend on
    the rows computed together, so the maximum is the full scan's.
    """
    d = x.shape[1]
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=0)
        radii = np.sqrt(np.einsum("nd,nd->n", centered, centered))
        reach = radii + radii.max()
        # With u = eps/2, a kernel distance is within (D+2)u of the exact one
        # and the bound's radii, sum and square within (D+7)u, for any
        # summation order and with fused multiply-add; 4(D+4)·eps covers both
        # with room to spare. Subnormal rounding adds at most
        # 4·sqrt(D·tiny)·reach + (5D+1)·tiny, covered twice by the absolute
        # terms. A bound that overflows to inf, or a NaN one, keeps the sample.
        bound = reach * reach + ((d + 4) * (eps * (2.0 * reach) ** 2 + 8.0 * tiny)
                                 + 8.0 * reach * np.sqrt(d * tiny))
    lower = squared_distances(x[[np.argmax(radii)]], x).max()
    kept = np.asfortranarray(x[~(bound < lower)])  # column-major, as in the pair scan
    rows = max(1, _leaf_terms(len(kept)) // len(kept))
    return float(max(d2.max() for _, d2 in _distance_blocks(kept, kept, rows)))


def _map_ranks(unit_rows: np.ndarray, per_unit: np.ndarray, k: int,
               diameter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map-side ranks of trust/NP for U units: (cut, projected-set size, strictly-closer counts).

    ``unit_rows`` holds the units' (U, K) distance rows and ``per_unit`` the
    samples on each unit. For a sample on unit u, the other samples lie at
    map distances ``unit_rows[u, bmus]``; ``counts[u, v]`` counts them at
    distance v. The cut is the k-th smallest of those distances, the size K_i
    counts the samples within the cut, and ``closer[u, v]`` those strictly
    closer than v. The scan asks for the distinct BMUs of one block at a
    time, so the tables hold at most ``_BLOCK`` x (diameter + 1) entries.
    """
    occupied = np.flatnonzero(per_unit)
    weights = per_unit[occupied]
    counts = np.empty((len(unit_rows), diameter + 1), dtype=np.int64)
    for count, row in zip(counts, unit_rows[:, occupied]):
        count[:] = np.bincount(row, weights, minlength=diameter + 1)  # float64 sums of counts below 2**53: exact
    counts[:, 0] -= 1  # the sample itself, at map distance 0
    within = np.cumsum(counts, axis=1)
    cuts = np.argmax(within >= k, axis=1)
    sizes = within[np.arange(len(cuts)), cuts]
    return cuts, sizes, np.subtract(within, counts, out=within)


def _np_trust_penalties(d2: np.ndarray, dm: np.ndarray, ranked: np.ndarray, start: int, k: int,
                        unit_of: np.ndarray, cut: np.ndarray, closer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a leaf: (trustworthiness, neighborhood preservation) rank penalties.

    ``d2`` and ``dm`` are the leaf's (B, N) squared input and map distances,
    rows ``start..start+B-1``; row i's BMU is unit ``unit_of[i]`` of the
    ``cut`` and ``closer`` map ranks of ``_map_ranks``. Overwrites each row's
    own entry of ``d2`` with inf, and ``ranked``, a (B, N) float64 scratch,
    with the sorted rows.
    """
    b = len(d2)
    own = (np.arange(b), np.arange(start, start + b))
    d2[own] = np.inf  # a sample is never its own neighbor

    # input side: the exact k nearest, ties at the k-th value going to the
    # lowest sample index; min-ranks (strictly closer count + 1) by binary
    # search in the sorted row
    np.copyto(ranked, d2)
    ranked.sort(axis=1)
    kth = ranked[:, k - 1:k]
    nearest = d2 <= kth
    tied = np.flatnonzero(np.count_nonzero(nearest, axis=1) > k)  # rows with more than k candidates
    if len(tied):
        row, value = d2[tied], kth[tied]
        below, at_kth = row < value, row == value
        nearest[tied] = below | (at_kth & (np.cumsum(at_kth, axis=1) <= k - below.sum(axis=1)[:, None]))

    # map side: the tie-expanded projected set, without the sample itself;
    # trustworthiness ranks its members outside the k nearest in the sorted
    # row, neighborhood preservation the k nearest outside it by map counts
    row_cut = cut[unit_of][:, None]
    proj_set = dm <= row_cut
    proj_set[own] = False
    false_rows, false_cols = np.nonzero(proj_set & ~nearest)
    values = d2[false_rows, false_cols]
    bounds = np.searchsorted(false_rows, np.arange(b + 1))  # row i's members are bounds[i]:bounds[i + 1]
    ranks = np.concatenate([ranked[i].searchsorted(values[bounds[i]:bounds[i + 1]]) for i in range(b)])
    running = np.concatenate(([0], np.cumsum(ranks + 1 - k)))
    false_pen = running[bounds[1:]] - running[bounds[:-1]]
    near_dm = dm[nearest].reshape(b, k)  # exactly k per row, in input order
    missed = np.where(near_dm <= row_cut, 0, closer[unit_of[:, None], near_dm] + 1 - k)
    return false_pen, missed.sum(axis=1)


def trustworthiness(codebook: CodeBook, data: Dataset, k: int) -> float:
    """How much the k nearest map neighbors of each sample can be trusted.

    Penalizes samples that enter a projected k-neighborhood without belonging
    to the input-space one. The projected neighbor set of a sample holds every
    other sample whose BMU map distance is within the k-th smallest (ties at
    the cut included, size K_i >= k); each sample's penalty is weighted k/K_i.
    Ranks are min-ranks (strictly-closer count + 1), so with ties the score
    may fall slightly outside [0, 1]; it is reported unclamped.
    """
    _check_order(data, k)
    return _pair_sums(codebook, data, (k, False, False)).np_trust[1]


def neighborhood_preservation(codebook: CodeBook, data: Dataset, k: int) -> float:
    """How much input-space k-neighborhoods survive the projection.

    Penalizes input-space neighbors that fall outside the projected
    neighbor set; the space-swapped counterpart of :func:`trustworthiness`,
    weighted K_i/k.
    """
    _check_order(data, k)
    return _pair_sums(codebook, data, (k, False, False)).np_trust[0]


def topographic_product(codebook: CodeBook) -> float:
    """Log-ratio comparison of map-side and input-side neighbor orderings.

    Negative values mean the map dimensionality is too low for the data,
    positive too high, zero adequate. Uses only prototypes and map distances.

    Input distances come in ``_distance_blocks`` of ``max(1, _CHUNK // K)``
    units; each unit's map row is copied from its window of the
    grid's offset tables.
    """
    K = codebook.n_units
    if K < 2:
        raise ValueError("topographic product requires at least two units")
    p, grid = codebook.prototypes, codebook.grid
    windows, rows, cols = _distance_windows(grid), grid.rows, grid.cols

    orders = 1.0 / (2.0 * np.arange(1, K))
    total = 0.0
    for start, dins in _distance_blocks(p, p, max(1, _CHUNK // K)):
        for unit, din in enumerate(np.sqrt(dins, out=dins), start):
            r, c = divmod(unit, cols)
            dmap = windows[r & 1, rows - 1 - r, cols - 1 - c].ravel()  # int64, the unit's distance_matrix row
            if np.count_nonzero(din == 0.0) > 1:
                raise ValueError("duplicate prototypes: topographic product needs nonzero pairwise distances")
            # the row's own unit is the only zero on both sides, so it sorts
            # first; stable sorts keep the relative order of the other units
            by_map = np.argsort(dmap, kind="stable")[1:]
            by_input = np.argsort(din, kind="stable")[1:]
            logs = (np.log(din[by_map]) - np.log(din[by_input])
                    + np.log(dmap[by_map]) - np.log(dmap[by_input]))
            total += float((np.cumsum(logs) * orders).sum())
    return total / (K * (K - 1))


@dataclass
class TopographicFunction:
    """TF series over neighborhood radii, with the size-normalized variant.

    ``normalized_tf`` is None when K <= 3**p, where the normalizer
    K*(K - 3**p) is not positive.
    """

    k: np.ndarray
    tf: np.ndarray
    normalized_k: np.ndarray
    normalized_tf: np.ndarray | None


def topographic_function(codebook: CodeBook, data: Dataset, k_max: int | None = None) -> TopographicFunction:
    """Count, per radius k, ordered unit pairs with adjacent receptive fields but map distance > k.

    Receptive-field adjacency is estimated from the BMU / second-BMU
    connectivity of the data: each unordered pair of units that are BMU and
    second BMU of some sample counts as two ordered pairs. The series runs
    for k = 1..k_max (default: the map diameter).
    """
    K = codebook.n_units
    if K < 2:
        raise ValueError("topographic function requires at least two units")
    grid = codebook.grid
    delta_max = grid.max_distance()
    if k_max is None:
        k_max = delta_max
    if not isinstance(k_max, Integral):
        raise ValueError(f"k_max must be an integer, got {k_max!r}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    proj = project(codebook, data, depth=2)
    pairs = np.unique(np.minimum(proj.bmu, proj.second_bmu) * K + np.maximum(proj.bmu, proj.second_bmu))
    pair_dists = np.sort(_pair_distances(grid, *np.divmod(pairs, K)))
    ks = np.arange(1, k_max + 1)
    tf = 2 * (len(pair_dists) - np.searchsorted(pair_dists, ks, side="right"))
    denom = K * (K - 3 ** grid.dimensionality)
    normalized_tf = tf / denom if denom > 0 else None
    return TopographicFunction(ks, tf, ks / delta_max, normalized_tf)


def kruskal_shepard_error(codebook: CodeBook, data: Dataset) -> float:
    """Mean squared mismatch between scaled input and map pairwise distance matrices.

    Input side: squared euclidean distances over samples, scaled by their
    maximum. Map side: BMU map distances scaled by the map diameter.
    """
    _check_kse(codebook, data)
    kse = _pair_sums(codebook, data, (None, True, False)).kse
    if kse is None:
        raise ValueError("all samples identical: input distance matrix cannot be scaled")
    return kse


def c_measure(codebook: CodeBook, data: Dataset) -> float:
    """Sum over sample pairs of input distance times BMU map distance.

    Large values mean far-apart samples also land far apart on the map; a
    cost to maximize, not an error.
    """
    _check_samples(data, 2)
    return _pair_sums(codebook, data, (None, False, True)).c
