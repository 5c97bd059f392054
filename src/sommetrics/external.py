"""External (label-based) indices: purity, best-assignment accuracy, class scatter."""
from __future__ import annotations

import numpy as np

from .grid import adjacency_pairs
from .grid import distance_matrix  # unused here: perfbench/trace_layers.py wraps this module's binding
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


def _dense_ids(values, name: str) -> np.ndarray:
    """The ids of ``values`` renumbered 0, 1, ... in sorted order over the ids that occur.

    A table over them grows with the number of distinct ids, not with the
    largest one.
    """
    return np.unique(_as_assignments(values, name), return_inverse=True)[1]


def contingency_table(assignments, labels, n_clusters: int | None = None,
                      n_classes: int | None = None) -> np.ndarray:
    """K x C matrix of co-occurrence counts between cluster and class ids.

    Rows and columns are indexed by the raw ids, so the table has one row per
    id up to the largest assignment and one column per id up to the largest
    label, unless ``n_clusters`` or ``n_classes`` asks for more; a size that
    leaves out the largest id raises ``ValueError``. Purity and clustering
    accuracy first renumber both id arrays over the ids that occur, and the
    class scatter index its labels, so sparse ids cost them nothing.
    """
    a = _as_assignments(assignments, "assignments")
    y = _as_assignments(labels, "labels")
    if a.shape[0] != y.shape[0]:
        raise ValueError(f"length mismatch: {a.shape[0]} assignments vs {y.shape[0]} labels")
    shape = []
    for name, ids, size in (("n_clusters", a, n_clusters), ("n_classes", y, n_classes)):
        largest = int(ids.max())
        if size is not None and size <= largest:
            raise ValueError(f"{name}={size} is too small for the largest id, {largest}")
        shape.append(largest + 1 if size is None else size)
    counts = np.zeros(shape, dtype=np.int64)
    np.add.at(counts, (a, y), 1)
    return counts


def purity(assignments, labels) -> float:
    """Fraction of samples matching their cluster's majority class."""
    counts = contingency_table(_dense_ids(assignments, "assignments"), _dense_ids(labels, "labels"))
    return float(counts.max(axis=1).sum() / counts.sum())


def clustering_accuracy(assignments, labels) -> float:
    """Accuracy under the best one-to-one mapping between cluster and class ids.

    Solved exactly as a maximum-weight full matching on the contingency
    table; when the id counts differ, the surplus clusters or classes stay
    unmatched. Every count is shifted by 1 so that each (cluster, class) pair
    is an edge; every full matching has min(K, C) edges, so the shift adds the
    same amount to each and leaves the optimum unchanged. Ids that occur in no
    sample only add zero-count edges, so they are left out of the table.
    """
    # scipy loads on first use, so that importing the package and training do not pay for it
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    counts = contingency_table(_dense_ids(assignments, "assignments"), _dense_ids(labels, "labels"))
    rows, cols = min_weight_full_bipartite_matching(csr_array(counts + 1.0), maximize=True)
    return float(counts[rows, cols].sum() / counts.sum())


def class_scatter_index(codebook: CodeBook, data: Dataset) -> float:
    """Average number of contiguous map regions occupied per class.

    For each class, the units holding at least one sample of that class are
    taken with the map edges between them, and the components of that
    subgraph counted; 1.0 means every class sits in a single blob. Classes
    without samples are excluded from the average: the class ids are
    renumbered over those that occur.
    """
    if data.labels is None:
        raise ValueError("class scatter index requires labels")
    # scipy loads on first use, so that importing the package and training do not pay for it
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    bmus = project(codebook, data, depth=1).bmu
    counts = contingency_table(bmus, _dense_ids(data.labels, "labels"), n_clusters=codebook.n_units)
    a, b = adjacency_pairs(codebook.grid).T
    graph = csr_array((np.ones(len(a)), (a, b)), shape=(codebook.n_units, codebook.n_units))
    groups = [connected_components(graph[units][:, units], directed=False)[0]
              for units in map(np.flatnonzero, counts.T)]
    return float(np.mean(groups))
