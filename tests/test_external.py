import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sommetrics import (
    CodeBook,
    Dataset,
    MapGrid,
    adjacency_pairs,
    class_scatter_index,
    clustering_accuracy,
    contingency_table,
    purity,
)

from oracles import clustering_accuracy_bruteforce, component_count_unionfind


def test_contingency_table_counts():
    counts = contingency_table(np.array([0, 0, 1, 2]), np.array([1, 1, 0, 1]))
    assert counts.tolist() == [[0, 2], [1, 0], [0, 1]]
    assert counts.sum() == 4


def test_contingency_table_refuses_a_size_below_the_largest_id():
    for sizes, message in (({"n_clusters": 2}, "n_clusters=2 is too small for the largest id, 5"),
                           ({"n_classes": 2}, "n_classes=2 is too small for the largest id, 3"),
                           ({"n_clusters": 5}, "n_clusters=5 is too small for the largest id, 5")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            contingency_table([5], [3], **sizes)
    # rows and columns are the raw ids: a larger size adds empty ones
    assert contingency_table([0], [3], n_clusters=2).tolist() == [[0, 0, 0, 1], [0, 0, 0, 0]]
    assert contingency_table([1], [0], n_clusters=3, n_classes=2).tolist() == [[0, 0], [1, 0], [0, 0]]


@pytest.mark.parametrize("name", ["n_clusters", "n_classes"])
@pytest.mark.parametrize("size", [2.5, 4.0, "4"])
def test_contingency_table_refuses_a_non_integer_size(name, size):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {size!r}$"):
        contingency_table([0, 1], [1, 0], **{name: size})
    assert contingency_table([0, 1], [1, 0], **{name: np.int64(2)}).tolist() == [[0, 1], [1, 0]]


def test_purity_one_sample_per_unit():
    n = 8
    assignments = np.arange(n)
    labels = np.array([0, 1, 0, 2, 1, 2, 0, 1])
    assert purity(assignments, labels) == 1.0


def test_purity_single_cluster_half_and_half():
    assignments = np.zeros(10, dtype=int)
    labels = np.array([0] * 5 + [1] * 5)
    assert purity(assignments, labels) == 0.5


def test_purity_uniform_labels():
    assignments = np.array([0, 3, 1, 2, 3, 0])
    labels = np.zeros(6, dtype=int)
    assert purity(assignments, labels) == 1.0


def test_purity_length_mismatch():
    with pytest.raises(ValueError):
        purity(np.array([0, 1]), np.array([0, 1, 1]))


@pytest.mark.parametrize("fn", [purity, clustering_accuracy, contingency_table])
@pytest.mark.parametrize("assignments, labels, message", [
    (np.array([0.0, 1.0]), np.array([0, 1]), "assignments must be integer ids"),
    (np.array([0, 1]), np.array([-1, 1]), "labels must be nonnegative ids"),
    (np.array([], dtype=np.int64), np.array([], dtype=np.int64), "assignments must be nonempty"),
])
def test_id_arrays_are_checked_before_counting(fn, assignments, labels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(assignments, labels)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 40))
def test_purity_nondecreasing_under_cluster_split(seed, n):
    rng = np.random.default_rng(seed)
    assignments = rng.integers(0, 3, size=n)
    labels = rng.integers(0, 3, size=n).astype(np.int64)
    before = purity(assignments.astype(np.int64), labels)
    # split cluster 0 into clusters 0 and 3 at random
    split = assignments.copy()
    mask = (split == 0) & (rng.random(n) < 0.5)
    split[mask] = 3
    after = purity(split.astype(np.int64), labels)
    assert after >= before - 1e-12


def test_accuracy_identity_assignment():
    labels = np.array([0, 1, 2, 2, 1, 0])
    assert clustering_accuracy(labels, labels) == 1.0


def test_accuracy_invariant_under_id_permutation():
    labels = np.array([0, 1, 2, 2, 1, 0, 0, 2])
    permuted = np.array([2, 0, 1, 1, 0, 2, 2, 1])  # ids renamed 0->2, 1->0, 2->1
    assert clustering_accuracy(permuted, labels) == 1.0


def test_accuracy_rectangular_table_padded():
    assignments = np.array([0, 0, 1, 1, 2, 2])
    labels = np.array([0, 0, 1, 1, 1, 1])
    assert clustering_accuracy(assignments, labels) == pytest.approx(4 / 6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(5, 40), ids=st.integers(2, 5))
def test_accuracy_matches_exhaustive_permutations(seed, n, ids):
    rng = np.random.default_rng(seed)
    assignments = rng.integers(0, ids, size=n).astype(np.int64)
    labels = rng.integers(0, ids, size=n).astype(np.int64)
    expected = clustering_accuracy_bruteforce(assignments.tolist(), labels.tolist())
    assert clustering_accuracy(assignments, labels) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(5, 30))
def test_accuracy_relabeling_invariance(seed, n):
    rng = np.random.default_rng(seed)
    assignments = rng.integers(0, 4, size=n).astype(np.int64)
    labels = rng.integers(0, 4, size=n).astype(np.int64)
    base = clustering_accuracy(assignments, labels)
    perm_a = rng.permutation(4)
    perm_y = rng.permutation(4)
    assert clustering_accuracy(perm_a[assignments], labels) == pytest.approx(base, abs=1e-12)
    assert clustering_accuracy(assignments, perm_y[labels]) == pytest.approx(base, abs=1e-12)


def test_csi_contiguous_classes():
    grid = MapGrid(1, 4)
    cb = CodeBook(np.arange(4, dtype=float)[:, None], grid)
    data = Dataset(
        np.array([[0.0], [1.0], [2.0], [3.0]]),
        labels=np.array([0, 0, 1, 1]),
    )
    assert class_scatter_index(cb, data) == 1.0


def test_csi_split_class_counts_two_groups():
    grid = MapGrid(1, 5)
    cb = CodeBook(np.arange(5, dtype=float)[:, None], grid)
    # class 0 occupies units 0 and 2 with nothing in between
    data = Dataset(np.array([[0.0], [2.0], [4.0]]), labels=np.array([0, 0, 1]))
    assert class_scatter_index(cb, data) == pytest.approx(1.5)  # (2 + 1) / 2


def test_csi_requires_labels():
    cb = CodeBook(np.zeros((2, 1)), MapGrid(1, 2))
    with pytest.raises(ValueError):
        class_scatter_index(cb, Dataset(np.zeros((3, 1))))


def test_csi_sorted_labels_beat_shuffled_labels():
    rng = np.random.default_rng(4)
    grid = MapGrid(10, 10)
    coords = np.array([[r, c] for r in range(10) for c in range(10)], dtype=float)
    cb = CodeBook(coords, grid)
    samples = np.repeat(coords, 2, axis=0)
    sorted_labels = (samples[:, 0] >= 5).astype(np.int64)  # top/bottom halves
    shuffled_labels = rng.permutation(sorted_labels)
    sorted_csi = class_scatter_index(cb, Dataset(samples, labels=sorted_labels))
    shuffled_csi = class_scatter_index(cb, Dataset(samples, labels=shuffled_labels))
    assert sorted_csi == 1.0
    assert shuffled_csi > sorted_csi


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 10), cols=st.integers(1, 10),
       topology=st.sampled_from(["rectangular", "hexagonal"]))
def test_csi_component_counts_match_unionfind(seed, rows, cols, topology):
    rng = np.random.default_rng(seed)
    grid = MapGrid(rows, cols, topology)
    K = grid.n_units
    coords = np.array([[k // cols, k % cols] for k in range(K)], dtype=float)
    cb = CodeBook(coords, grid)
    n = int(rng.integers(1, 3 * K + 1))
    # samples placed exactly on units so BMUs are the chosen units
    units = rng.integers(0, K, size=n)
    labels = rng.integers(0, 3, size=n).astype(np.int64)
    data = Dataset(coords[units], labels=labels)
    edges = [tuple(e) for e in adjacency_pairs(grid)]
    per_class = []
    for j in sorted(set(labels.tolist())):
        marked = sorted(set(int(u) for u, y in zip(units, labels) if y == j))
        per_class.append(component_count_unionfind(marked, edges))
    expected = float(np.mean(per_class))
    assert class_scatter_index(cb, data) == pytest.approx(expected, abs=1e-12)


def test_accuracy_and_purity_equal_one_on_matching_partitions():
    # exhaustive over id permutations for every size up to 5
    from itertools import permutations

    rng = np.random.default_rng(13)
    for ids in range(2, 6):
        labels = np.concatenate([np.arange(ids), rng.integers(0, ids, size=10)]).astype(np.int64)
        for perm in permutations(range(ids)):
            assignments = np.array([perm[y] for y in labels])
            assert clustering_accuracy(assignments, labels) == 1.0
            assert purity(assignments, labels) == 1.0


def _traced_peak(fn):
    tracemalloc.start()
    try:
        value = fn()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_ids_cost_what_the_distinct_ids_cost():
    # one label of 100,000 and cluster ids spread out threefold: the tables
    # span the ids that occur, so the peaks stay small and the values equal
    # those of the same ids renumbered 0, 1, ...
    rng = np.random.default_rng(3)
    samples = rng.random((200, 2))
    labels = rng.integers(0, 3, 200)
    labels[0] = 100_000
    dense_labels = np.unique(labels, return_inverse=True)[1]
    cb = CodeBook(rng.random((9, 2)), MapGrid(3, 3))
    assignments = rng.integers(0, 9, 200)
    clustering_accuracy(assignments, dense_labels)  # scipy's import is not the metric's memory
    for fn, sparse, dense in [
        (purity, (assignments * 3, labels), (assignments, dense_labels)),
        (clustering_accuracy, (assignments * 3, labels), (assignments, dense_labels)),
        (class_scatter_index, (cb, Dataset(samples, labels)), (cb, Dataset(samples, dense_labels))),
    ]:
        value, peak = _traced_peak(lambda: fn(*sparse))
        assert peak < 1 << 20, (fn.__name__, peak)
        assert value == fn(*dense)
