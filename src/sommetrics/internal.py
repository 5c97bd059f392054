"""Internal quality indices: quantization and topographic errors over a codebook and data.

All indices are pure deterministic functions; every ordering that could tie
breaks toward the lowest unit or sample index.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import GAUSSIAN, NeighborhoodKernel, _weights_by_distance, adjacency_pairs, distance_matrix
from .model import (_BLOCK, CodeBook, Dataset, _check_dims, _evaluation, _overflow_is_an_error,
                    _paired_squared_distances, bmu_distances, project, receptive_field_connectivity,
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
    # scipy loads on first use, so that importing the package and training do not pay for it
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import dijkstra

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


class _PairSums(NamedTuple):
    """Results of one sample-pair scan; None for a consumer that was off."""

    np_trust: tuple[float, float] | None
    kse: float | None
    c: float | None


def _check_samples(data: Dataset, least: int) -> None:
    if data.n_samples < least:
        raise ValueError(f"need at least {least} samples, got {data.n_samples}")


def _check_order(data: Dataset, k: int) -> None:
    """Trustworthiness' and neighborhood preservation's checks, in order."""
    _check_samples(data, 3)
    n = data.n_samples
    if not 1 <= k < n / 2:
        raise ValueError(f"neighborhood order k must satisfy 1 <= k < N/2 = {n / 2}, got {k}")


def _check_kse(codebook: CodeBook, data: Dataset) -> None:
    """The Kruskal-Shepard error's checks before its scan, in order."""
    _check_samples(data, 2)
    codebook.grid.max_distance()  # a one-unit map has no diameter to scale by


def _passes(check, *args) -> bool:
    try:
        check(*args)
    except ValueError:
        return False
    return True


def _pair_sums(codebook: CodeBook, data: Dataset, own: tuple[int | None, bool, bool]) -> _PairSums:
    """The scan for the consumers ``own`` = (trust/NP order, KSE, C), which the caller has checked.

    Inside an evaluation that asks for them, one scan serves every pair metric
    the evaluation asks for whose checks pass; it runs once and is kept.
    Consumers the evaluation does not ask for are scanned on their own.
    """
    evaluation = _evaluation(codebook, data)
    if evaluation is None:
        return _pair_scan(codebook, data, *own)
    metrics, k = evaluation.metrics, evaluation.k
    planned = (k if k is not None and metrics & {"trustworthiness", "neighborhood_preservation"}
               and _passes(_check_order, data, k) else None,
               "kruskal_shepard_error" in metrics and _passes(_check_kse, codebook, data),
               "c_measure" in metrics and _passes(_check_samples, data, 2))
    if any(mine and mine != plan for mine, plan in zip(own, planned)):
        return _pair_scan(codebook, data, *own)  # not in the plan: scanned alone, not kept
    if evaluation.pairs is None:
        evaluation.pairs = _pair_scan(codebook, data, *planned)
    return evaluation.pairs


def _pair_scan(codebook: CodeBook, data: Dataset, k: int | None, kse: bool, c: bool) -> _PairSums:
    """One pass over all sample pairs, in ``_BLOCK``-row blocks, for the consumers switched on.

    ``k`` is the trust/NP order (None: off); ``kse`` and ``c`` switch on the
    Kruskal-Shepard and C sums. Each block computes its squared input and BMU
    map distances once. The KSE and C sums are taken first, on those (B, N)
    arrays and in block order; the trust/NP work then reuses the distances.
    The block size is a constant, so summation order and output bits never
    depend on the machine.
    """
    x = data.samples
    n = len(x)
    bmus = project(codebook, data, depth=1).bmu
    if kse:
        max_d2, delta_max = _max_squared_distance(x), codebook.grid.max_distance()
        kse = max_d2 != 0.0  # all samples identical: the KSE cannot be scaled, and fails on its own
    if k is None and not kse and not c:
        return _PairSums(None, None, None)
    dmat = distance_matrix(codebook.grid)
    if k is not None:
        cuts, sizes, closer = _map_ranks(dmat, bmus, k)
        trust_terms, np_terms = np.empty(n), np.empty(n)
    kse_sum = c_sum = 0.0
    for start in range(0, n, _BLOCK):
        rows = slice(start, start + _BLOCK)
        d2 = squared_distances(x[rows], x)
        dm = dmat[bmus[rows]].take(bmus, axis=1)
        if kse:
            terms = d2 / max_d2
            terms -= dm / delta_max
            kse_sum += float(np.square(terms, out=terms).sum())
            del terms
        if c:
            terms = np.sqrt(d2)
            terms *= dm
            for i, row in enumerate(terms, start):
                row[i:] = 0.0  # each unordered pair counted once
            c_sum += float(terms.sum())
            del terms
        if k is not None:
            units = bmus[rows]
            false_pen, missed_pen = _np_trust_penalties(d2, dm, start, k, cuts[units], closer[units])
            trust_terms[rows] = (k / sizes[units]) * false_pen.astype(float)
            np_terms[rows] = (sizes[units] / k) * missed_pen.astype(float)

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
    the other samples give the maximum. The kernel's per-element bits do not
    depend on the block, so the maximum is the full scan's.
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
    kept = x[~(bound < lower)]
    return float(max(squared_distances(kept[s:s + _BLOCK], kept).max() for s in range(0, len(kept), _BLOCK)))


def _map_ranks(dmat: np.ndarray, bmus: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map-side ranks of trust/NP per BMU unit: (cut, projected-set size, strictly-closer counts).

    For a sample on unit u, the other samples lie at map distances
    ``dmat[u, bmus]``; ``counts[u, v]`` counts them at distance v. The cut is
    the k-th smallest of those distances, the size K_i counts the samples
    within the cut, and ``closer[u, v]`` those strictly closer than v.
    """
    K = len(dmat)
    counts = np.zeros((K, int(dmat.max()) + 1), dtype=np.int64)
    np.add.at(counts, (np.arange(K)[:, None], dmat), np.bincount(bmus, minlength=K))
    counts[:, 0] -= 1  # the sample itself, at map distance 0
    within = np.cumsum(counts, axis=1)
    cuts = np.argmax(within >= k, axis=1)
    return cuts, within[np.arange(K), cuts], within - counts


def _np_trust_penalties(d2: np.ndarray, dm: np.ndarray, start: int, k: int, cut: np.ndarray,
                        closer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a block: (trustworthiness, neighborhood preservation) rank penalties.

    ``d2`` and ``dm`` are the block's (B, N) squared input and map distances,
    rows ``start..start+B-1``; ``cut`` and ``closer`` are the rows' map ranks
    of ``_map_ranks``. Overwrites each row's own entry of ``d2`` with inf.
    """
    b = len(d2)
    own = (np.arange(b), np.arange(start, start + b))
    d2[own] = np.inf  # a sample is never its own neighbor

    # input side: the exact k nearest, ties at the k-th value going to the
    # lowest sample index; min-ranks (strictly closer count + 1) by binary
    # search in the sorted row
    ranked = np.sort(d2, axis=1)
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
    proj_set = dm <= cut[:, None]
    proj_set[own] = False
    false_rows, false_cols = np.nonzero(proj_set & ~nearest)
    values = d2[false_rows, false_cols]
    bounds = np.searchsorted(false_rows, np.arange(b + 1))  # row i's members are bounds[i]:bounds[i + 1]
    ranks = np.concatenate([ranked[i].searchsorted(values[bounds[i]:bounds[i + 1]]) for i in range(b)])
    running = np.concatenate(([0], np.cumsum(ranks + 1 - k)))
    false_pen = running[bounds[1:]] - running[bounds[:-1]]
    near_dm = dm[nearest].reshape(b, k)  # exactly k per row, in input order
    missed = np.where(near_dm <= cut[:, None], 0, np.take_along_axis(closer, near_dm, axis=1) + 1 - k)
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
