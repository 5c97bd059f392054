"""Internal quality indices: quantization and topographic errors over a codebook and data.

All indices are pure deterministic functions; every ordering that could tie
breaks toward the lowest unit or sample index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import dijkstra

from .grid import GAUSSIAN, NeighborhoodKernel, _weights_by_distance, adjacency_pairs, distance_matrix
from .model import (_BLOCK, CodeBook, Dataset, _check_dims, _overflow_is_an_error, _paired_squared_distances,
                    _shared, bmu_distances, project, receptive_field_connectivity, squared_distances)


def quantization_error(codebook: CodeBook, data: Dataset) -> float:
    """Mean euclidean distance between each sample and its BMU prototype."""
    bmus = project(codebook, data, depth=1).bmu
    return float(bmu_distances(codebook, data, bmus).mean())


def distortion(codebook: CodeBook, data: Dataset, temperature: float,
               kernel: NeighborhoodKernel = GAUSSIAN) -> float:
    """Neighborhood-weighted mean of squared sample-to-prototype distances.

    The loss minimized by SOM training: every unit contributes for every
    sample, weighted by the kernel applied to its map distance from the BMU.
    """
    grid = codebook.grid
    weights = _weights_by_distance(kernel, grid, temperature)[distance_matrix(grid)]  # K x K, by BMU row
    _check_dims(codebook, data)
    total = np.float64(0.0)  # a numpy scalar, so that an overflowing running total raises too
    with _overflow_is_an_error():
        for start in range(0, data.n_samples, _BLOCK):
            d2 = squared_distances(data.samples[start:start + _BLOCK], codebook.prototypes)
            w = weights[d2.argmin(axis=1)]  # BMU: ties to the lowest unit, as in project
            total += (w * d2).sum()
    return float(total) / data.n_samples


def topographic_error(codebook: CodeBook, data: Dataset) -> float:
    """Fraction of samples whose two best-matching units are not map neighbors."""
    if codebook.n_units < 2:
        raise ValueError("topographic error requires at least two units")
    proj = project(codebook, data, depth=2)
    dmat = distance_matrix(codebook.grid)
    return float(np.mean(dmat[proj.bmu, proj.second_bmu] > 1))


def _map_path_costs(codebook: CodeBook, sources: np.ndarray) -> np.ndarray:
    """Exact shortest-path costs on the unit adjacency graph, one row per source unit.

    Edge weight between adjacent units is the squared euclidean distance of
    their prototypes. Zero-weight edges (duplicate prototypes) are legitimate:
    the graph is built from COO without ``eliminate_zeros``, so csgraph keeps
    explicit zeros as edges.
    """
    K = codebook.n_units
    a, b = adjacency_pairs(codebook.grid).T
    p = codebook.prototypes
    w = _paired_squared_distances(p, a, p, b)
    graph = coo_array((w, (a, b)), shape=(K, K)).tocsr()
    return dijkstra(graph, directed=False, indices=sources)


def combined_error(codebook: CodeBook, data: Dataset) -> float:
    """Quantization error extended by the cheapest map path from BMU to second BMU.

    Per sample: squared distance to the BMU prototype, plus the minimum over
    map paths (consecutive units adjacent) of the summed squared prototype
    distances along the path, from BMU to second BMU.
    """
    if codebook.n_units < 2:
        raise ValueError("combined error requires at least two units")
    proj = project(codebook, data, depth=2)
    sources, row = np.unique(proj.bmu, return_inverse=True)
    costs = _map_path_costs(codebook, sources)
    first = _paired_squared_distances(data.samples, np.arange(data.n_samples), codebook.prototypes, proj.bmu)
    path = costs[row, proj.second_bmu]
    with _overflow_is_an_error():
        # dijkstra overflows to inf without a floating-point error; the lattice
        # is connected, so an infinite path cost can only be such an overflow
        if np.isinf(path).any():
            raise FloatingPointError
        return float((first + path).mean())


def _pair_blocks(codebook: CodeBook, data: Dataset, bmus: np.ndarray):
    """Yield ``(rows, d2, dmap)`` per ``_BLOCK`` rows: squared input and BMU map distances, both (B, N).

    The block size is a constant, so summation order and output bits never depend on the machine.
    """
    x = data.samples
    dmat = distance_matrix(codebook.grid)
    for start in range(0, data.n_samples, _BLOCK):
        rows = slice(start, start + _BLOCK)
        yield rows, squared_distances(x[rows], x), dmat[np.ix_(bmus[rows], bmus)]


def _np_trust_scores(codebook: CodeBook, data: Dataset, k: int) -> tuple[float, float]:
    """(neighborhood preservation, trustworthiness) under tie-expanded projected sets.

    The projected neighbor set of a sample holds every other sample whose BMU
    map distance is within the k-th smallest (ties at the cut included, size
    K_i >= k). Trustworthiness penalizes projected neighbors missing from the
    exact k input-space nearest, weighted k/K_i; neighborhood preservation
    penalizes the k input-space nearest missing from the projected set,
    weighted K_i/k. Ranks are min-ranks (strictly-closer count + 1), so with
    ties the scores may fall slightly outside [0, 1]; they are reported
    unclamped.
    """
    n = data.n_samples
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    if not 1 <= k < n / 2:
        raise ValueError(f"neighborhood order k must satisfy 1 <= k < N/2 = {n / 2}, got {k}")
    bmus = project(codebook, data, depth=1).bmu
    trust_terms, np_terms = np.empty(n), np.empty(n)
    for rows, d2, dm in _pair_blocks(codebook, data, bmus):
        b = len(d2)
        others = np.ones(d2.shape, dtype=bool)
        others[np.arange(b), np.arange(b) + rows.start] = False  # drop each row's own sample
        d2, dm = d2[others].reshape(b, n - 1), dm[others].reshape(b, n - 1)

        # input side: the exact k nearest, ties at the k-th value going to
        # the lowest sample index; min-ranks (strictly closer count + 1) by
        # binary search in the sorted row
        ranked = np.sort(d2, axis=1)
        kth = ranked[:, k - 1:k]
        below, at_kth = d2 < kth, d2 == kth
        nearest = below | (at_kth & (np.cumsum(at_kth, axis=1) <= k - below.sum(axis=1)[:, None]))

        # map side: tie-expanded projected set, min-ranks from per-row counts
        cut = np.partition(dm, k - 1, axis=1)[:, k - 1:k]
        proj_set = dm <= cut
        width = int(dm.max()) + 1
        counts = np.bincount((dm + width * np.arange(b)[:, None]).ravel(), minlength=b * width).reshape(b, width)
        closer = np.cumsum(counts, axis=1) - counts

        size = proj_set.sum(axis=1)
        false_set = proj_set & ~nearest
        false_pen = np.zeros(b, dtype=np.int64)
        for i in np.flatnonzero(false_set.any(axis=1)):
            false_pen[i] = (np.searchsorted(ranked[i], d2[i, false_set[i]]) + 1 - k).sum()
        near_dm = dm[nearest].reshape(b, k)  # exactly k per row, in input order
        missed_pen = np.where(near_dm <= cut, 0, np.take_along_axis(closer, near_dm, axis=1) + 1 - k).sum(axis=1)
        trust_terms[rows] = (k / size) * false_pen.astype(float)
        np_terms[rows] = (size / k) * missed_pen.astype(float)

    factor = 2.0 / (n * k * (2 * n - 3 * k - 1))
    # cumsum adds strictly in sample order, as a running total would
    return 1.0 - factor * float(np.cumsum(np_terms)[-1]), 1.0 - factor * float(np.cumsum(trust_terms)[-1])


def trustworthiness(codebook: CodeBook, data: Dataset, k: int) -> float:
    """How much the k nearest map neighbors of each sample can be trusted.

    Penalizes samples that enter a projected k-neighborhood without belonging
    to the input-space one.
    """
    return _shared(codebook, data, ("np_trust", k), lambda: _np_trust_scores(codebook, data, k))[1]


def neighborhood_preservation(codebook: CodeBook, data: Dataset, k: int) -> float:
    """How much input-space k-neighborhoods survive the projection.

    Penalizes input-space neighbors that fall outside the projected
    neighbor set; the space-swapped counterpart of :func:`trustworthiness`.
    """
    return _shared(codebook, data, ("np_trust", k), lambda: _np_trust_scores(codebook, data, k))[0]


def topographic_product(codebook: CodeBook) -> float:
    """Log-ratio comparison of map-side and input-side neighbor orderings.

    Negative values mean the map dimensionality is too low for the data,
    positive too high, zero adequate. Uses only prototypes and map distances.
    """
    K = codebook.n_units
    if K < 2:
        raise ValueError("topographic product requires at least two units")
    p = codebook.prototypes
    dmap = distance_matrix(codebook.grid).astype(float)

    orders = 1.0 / (2.0 * np.arange(1, K))
    total = 0.0
    for start in range(0, K, _BLOCK):
        dins = squared_distances(p[start:start + _BLOCK], p)
        for j, din in enumerate(np.sqrt(dins, out=dins), start):
            if np.count_nonzero(din == 0.0) > 1:
                raise ValueError("duplicate prototypes: topographic product needs nonzero pairwise distances")
            # unit j is the only zero on both sides, so it sorts first; stable
            # sorts keep the relative order of the other units
            by_map = np.argsort(dmap[j], kind="stable")[1:]
            by_input = np.argsort(din, kind="stable")[1:]
            logs = (np.log(din[by_map]) - np.log(din[by_input])
                    + np.log(dmap[j, by_map]) - np.log(dmap[j, by_input]))
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
    connectivity of the data. The series runs for k = 1..k_max (default: the
    map diameter).
    """
    if codebook.n_units < 2:
        raise ValueError("topographic function requires at least two units")
    grid = codebook.grid
    conn = receptive_field_connectivity(codebook, data)
    delta_max = grid.max_distance()
    if k_max is None:
        k_max = delta_max
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    pair_dists = distance_matrix(grid)[conn]  # ordered pairs: symmetric mask
    ks = np.arange(1, k_max + 1)
    tf = (pair_dists[None, :] > ks[:, None]).sum(axis=1)
    K = codebook.n_units
    denom = K * (K - 3 ** grid.dimensionality)
    normalized_tf = tf / denom if denom > 0 else None
    return TopographicFunction(ks, tf, ks / delta_max, normalized_tf)


def kruskal_shepard_error(codebook: CodeBook, data: Dataset) -> float:
    """Mean squared mismatch between scaled input and map pairwise distance matrices.

    Input side: squared euclidean distances over samples, scaled by their
    maximum. Map side: BMU map distances scaled by the map diameter.
    """
    n = data.n_samples
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    delta_max = codebook.grid.max_distance()
    bmus = project(codebook, data, depth=1).bmu

    x = data.samples
    max_d2 = max(float(squared_distances(x[start:start + _BLOCK], x).max()) for start in range(0, n, _BLOCK))
    if max_d2 == 0.0:
        raise ValueError("all samples identical: input distance matrix cannot be scaled")

    acc = 0.0
    for _, d2, dm in _pair_blocks(codebook, data, bmus):
        acc += float(((d2 / max_d2 - dm / delta_max) ** 2).sum())
    return acc / (n * (n - 1))


def c_measure(codebook: CodeBook, data: Dataset) -> float:
    """Sum over sample pairs of input distance times BMU map distance.

    Large values mean far-apart samples also land far apart on the map; a
    cost to maximize, not an error.
    """
    n = data.n_samples
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    bmus = project(codebook, data, depth=1).bmu
    total = 0.0
    for rows, d2, dm in _pair_blocks(codebook, data, bmus):
        mask = np.arange(n) < np.arange(len(d2))[:, None] + rows.start  # each unordered pair counted once
        total += float((np.sqrt(d2) * dm * mask).sum())
    return total
