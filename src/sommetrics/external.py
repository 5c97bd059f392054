"""External (label-based) indices: purity, best-assignment accuracy, class scatter."""
from __future__ import annotations

import numpy as np

from .grid import distance_matrix
from .model import CodeBook, Dataset, project


def _as_assignments(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must be integer ids")
    arr = arr.astype(np.int64).ravel()
    if arr.size < 1:
        raise ValueError(f"{name} must be nonempty")
    if arr.min() < 0:
        raise ValueError(f"{name} must be nonnegative ids")
    return arr


def contingency_table(assignments, labels, n_clusters: int | None = None,
                      n_classes: int | None = None) -> np.ndarray:
    """K x C matrix of co-occurrence counts between cluster and class ids."""
    a = _as_assignments(assignments, "assignments")
    y = _as_assignments(labels, "labels")
    if a.shape[0] != y.shape[0]:
        raise ValueError(f"length mismatch: {a.shape[0]} assignments vs {y.shape[0]} labels")
    k = int(a.max()) + 1 if n_clusters is None else n_clusters
    c = int(y.max()) + 1 if n_classes is None else n_classes
    counts = np.zeros((k, c), dtype=np.int64)
    np.add.at(counts, (a, y), 1)
    return counts


def purity(assignments, labels) -> float:
    """Fraction of samples matching their cluster's majority class."""
    counts = contingency_table(assignments, labels)
    return float(counts.max(axis=1).sum() / counts.sum())


def clustering_accuracy(assignments, labels) -> float:
    """Accuracy under the best one-to-one mapping between cluster and class ids.

    Solved exactly as a maximum-weight full matching on the contingency
    table; when the id counts differ, the surplus clusters or classes stay
    unmatched. Every count is shifted by 1 so that each (cluster, class) pair
    is an edge; every full matching has min(K, C) edges, so the shift adds the
    same amount to each and leaves the optimum unchanged.
    """
    # scipy loads on first use, so that importing the package and training do not pay for it
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    counts = contingency_table(assignments, labels)
    rows, cols = min_weight_full_bipartite_matching(csr_array(counts + 1.0), maximize=True)
    return float(counts[rows, cols].sum() / counts.sum())


def _component_count(grid, marked: np.ndarray) -> int:
    """Connected components among ``marked`` units under map adjacency (distance 1)."""
    # scipy loads on first use, so that importing the package and training do not pay for it
    from scipy.sparse.csgraph import connected_components

    adjacent = distance_matrix(grid)[np.ix_(marked, marked)] == 1
    return connected_components(adjacent, directed=False)[0]


def class_scatter_index(codebook: CodeBook, data: Dataset) -> float:
    """Average number of contiguous map regions occupied per class.

    For each class, units holding at least one sample of that class are
    marked and their connected components counted; 1.0 means every class sits
    in a single blob. Classes without samples are excluded from the average.
    """
    if data.labels is None:
        raise ValueError("class scatter index requires labels")
    bmus = project(codebook, data, depth=1).bmu
    counts = contingency_table(bmus, data.labels, n_clusters=codebook.n_units)
    groups = []
    for j in range(counts.shape[1]):
        marked = np.flatnonzero(counts[:, j] > 0)
        if marked.size:
            groups.append(_component_count(codebook.grid, marked))
    return float(np.mean(groups))
