"""Internal quality indices: quantization and topographic errors over a codebook and data.

All indices are pure deterministic functions; every ordering that could tie
breaks toward the lowest unit or sample index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import dijkstra

from .grid import GAUSSIAN, NeighborhoodKernel, adjacency_pairs, distance_matrix
from .model import CodeBook, Dataset, _check_dims, bmu_distances, project, receptive_field_connectivity, squared_distances

_BLOCK = 256  # row block size for O(N^2) pairwise scans


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
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    _check_dims(codebook, data)
    bmus = project(codebook, data, depth=1).bmu
    dmat = distance_matrix(codebook.grid).astype(float)
    total = 0.0
    for start in range(0, data.n_samples, _BLOCK):
        sl = slice(start, min(start + _BLOCK, data.n_samples))
        d2 = squared_distances(data.samples[sl], codebook.prototypes)
        w = kernel.weight(dmat[bmus[sl]], temperature)
        total += float((w * d2).sum())
    return total / data.n_samples


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
    w = ((p[a] - p[b]) ** 2).sum(axis=1)
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
    diff = data.samples - codebook.prototypes[proj.bmu]
    first = (diff * diff).sum(axis=1)
    return float((first + costs[row, proj.second_bmu]).mean())


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
    dmap_all = distance_matrix(codebook.grid)[np.ix_(bmus, bmus)]
    x = data.samples

    trust_pen = 0.0
    np_pen = 0.0
    for i in range(n):
        others = np.concatenate([np.arange(i), np.arange(i + 1, n)])
        din = ((x[others] - x[i]) ** 2).sum(axis=1)
        dmap = dmap_all[i, others]

        # exact k nearest in input space, ties to lowest sample index
        in_knn = np.zeros(n - 1, dtype=bool)
        in_knn[np.argsort(din, kind="stable")[:k]] = True

        # tie-expanded projected neighbor set
        cut = np.partition(dmap, k - 1)[k - 1]
        proj_set = dmap <= cut
        size_i = int(proj_set.sum())

        rank_in = np.searchsorted(np.sort(din), din, side="left") + 1
        rank_map = np.searchsorted(np.sort(dmap), dmap, side="left") + 1

        false_nb = proj_set & ~in_knn
        missed_nb = in_knn & ~proj_set
        trust_pen += (k / size_i) * float((rank_in[false_nb] - k).sum())
        np_pen += (size_i / k) * float((rank_map[missed_nb] - k).sum())

    factor = 2.0 / (n * k * (2 * n - 3 * k - 1))
    return 1.0 - factor * np_pen, 1.0 - factor * trust_pen


def trustworthiness(codebook: CodeBook, data: Dataset, k: int) -> float:
    """How much the k nearest map neighbors of each sample can be trusted.

    Penalizes samples that enter a projected k-neighborhood without belonging
    to the input-space one.
    """
    return _np_trust_scores(codebook, data, k)[1]


def neighborhood_preservation(codebook: CodeBook, data: Dataset, k: int) -> float:
    """How much input-space k-neighborhoods survive the projection.

    Penalizes input-space neighbors that fall outside the projected
    neighbor set; the space-swapped counterpart of :func:`trustworthiness`.
    """
    return _np_trust_scores(codebook, data, k)[0]


def topographic_product(codebook: CodeBook) -> float:
    """Log-ratio comparison of map-side and input-side neighbor orderings.

    Negative values mean the map dimensionality is too low for the data,
    positive too high, zero adequate. Uses only prototypes and map distances.
    """
    K = codebook.n_units
    if K < 2:
        raise ValueError("topographic product requires at least two units")
    diff = codebook.prototypes[:, None, :] - codebook.prototypes[None, :, :]
    din = np.sqrt((diff * diff).sum(axis=2))
    off_diag = ~np.eye(K, dtype=bool)
    if np.any(din[off_diag] == 0.0):
        raise ValueError("duplicate prototypes: topographic product needs nonzero pairwise distances")
    dmap = distance_matrix(codebook.grid).astype(float)

    orders = 1.0 / (2.0 * np.arange(1, K))
    total = 0.0
    for j in range(K):
        others = np.concatenate([np.arange(j), np.arange(j + 1, K)])
        by_map = others[np.argsort(dmap[j, others], kind="stable")]
        by_input = others[np.argsort(din[j, others], kind="stable")]
        logs = (np.log(din[j, by_map]) - np.log(din[j, by_input])
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
    _check_dims(codebook, data)
    n = data.n_samples
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    delta_max = codebook.grid.max_distance()
    bmus = project(codebook, data, depth=1).bmu
    dmap = distance_matrix(codebook.grid)
    x = data.samples

    max_d2 = 0.0
    for start in range(0, n, _BLOCK):
        sl = slice(start, min(start + _BLOCK, n))
        d2 = squared_distances(x[sl], x)
        max_d2 = max(max_d2, float(d2.max()))
    if max_d2 == 0.0:
        raise ValueError("all samples identical: input distance matrix cannot be scaled")

    acc = 0.0
    for start in range(0, n, _BLOCK):
        sl = slice(start, min(start + _BLOCK, n))
        dx = squared_distances(x[sl], x) / max_d2
        ds = dmap[np.ix_(bmus[sl], bmus)] / delta_max
        acc += float(((dx - ds) ** 2).sum())
    return acc / (n * (n - 1))


def c_measure(codebook: CodeBook, data: Dataset) -> float:
    """Sum over sample pairs of input distance times BMU map distance.

    Large values mean far-apart samples also land far apart on the map; a
    cost to maximize, not an error.
    """
    _check_dims(codebook, data)
    n = data.n_samples
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    bmus = project(codebook, data, depth=1).bmu
    dmap = distance_matrix(codebook.grid)
    x = data.samples
    total = 0.0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        d = np.sqrt(squared_distances(x[start:stop], x))
        ds = dmap[np.ix_(bmus[start:stop], bmus)]
        cols = np.arange(n)[None, :]
        rows = np.arange(start, stop)[:, None]
        mask = cols < rows  # each unordered pair counted once
        total += float((d * ds * mask).sum())
    return total
