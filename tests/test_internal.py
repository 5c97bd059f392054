import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sommetrics import (
    GAUSSIAN,
    WINDOW,
    CodeBook,
    Dataset,
    MapGrid,
    adjacency_pairs,
    c_measure,
    combined_error,
    distance_matrix,
    distortion,
    kruskal_shepard_error,
    neighborhood_preservation,
    project,
    quantization_error,
    topographic_error,
    topographic_function,
    topographic_product,
    trustworthiness,
)
from sommetrics import internal
from sommetrics.internal import _map_path_costs
from sommetrics.model import _shared_results, bmu_distances, squared_distances

from oracles import min_path_cost_exhaustive, topographic_product_bruteforce, trust_np_bruteforce


def chain_codebook(values):
    values = np.asarray(values, dtype=float)
    return CodeBook(values[:, None], MapGrid(1, len(values)))


def random_instance(seed, n=12, rows=2, cols=3, dims=2):
    rng = np.random.default_rng(seed)
    grid = MapGrid(rows, cols)
    cb = CodeBook(rng.normal(size=(grid.n_units, dims)), grid)
    data = Dataset(rng.normal(size=(n, dims)))
    return cb, data


# ---------------------------------------------------------------------------
# quantization error
# ---------------------------------------------------------------------------

def test_qe_zero_when_samples_sit_on_prototypes():
    cb, _ = random_instance(0)
    data = Dataset(cb.prototypes.copy())
    assert quantization_error(cb, data) == 0.0


def test_qe_hand_value():
    cb = chain_codebook([0.0, 2.0])
    assert quantization_error(cb, Dataset(np.array([[0.5]]))) == 0.5


def test_qe_duplication_invariant():
    cb, data = random_instance(1)
    doubled = Dataset(np.vstack([data.samples, data.samples]))
    assert quantization_error(cb, doubled) == pytest.approx(quantization_error(cb, data), rel=1e-12)


# ---------------------------------------------------------------------------
# distortion
# ---------------------------------------------------------------------------

def test_distortion_single_unit_independent_of_temperature():
    cb = CodeBook(np.array([[0.5, 0.5]]), MapGrid(1, 1))
    data = Dataset(np.random.default_rng(2).random((20, 2)))
    direct = float((((data.samples - cb.prototypes[0]) ** 2).sum(axis=1)).mean())
    for t in (0.01, 1.0, 100.0):
        assert distortion(cb, data, t) == pytest.approx(direct, rel=1e-12)


def test_distortion_hand_value():
    cb = chain_codebook([0.0, 1.0])
    data = Dataset(np.array([[0.0]]))
    assert distortion(cb, data, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_distortion_small_temperature_limit_is_bmu_term():
    cb, data = random_instance(3, n=40)
    bmus = project(cb, data, depth=1).bmu
    direct = float((bmu_distances(cb, data, bmus) ** 2).mean())
    assert distortion(cb, data, 1e-3) == pytest.approx(direct, rel=1e-6)


def test_distortion_exact_tie_goes_to_lowest_unit():
    # sample 1 is equidistant from units 0 and 1; BMU 0 weights units 0 and 1
    # (1 + 1), BMU 1 would also weight unit 2 (1 + 1 + 81)
    cb = chain_codebook([0.0, 2.0, 10.0])
    assert distortion(cb, Dataset(np.array([[1.0]])), 1.5, WINDOW) == 2.0


def test_distortion_requires_positive_temperature():
    cb, data = random_instance(4)
    with pytest.raises(ValueError):
        distortion(cb, data, 0.0)


def test_distortion_refuses_temperature_the_gaussian_cannot_weigh():
    # at 1e-158, (3 / T)^2 overflows float64 on a 2x3 map; at 1e-170 T^2 is 0 and 0 / 0 is NaN
    cb, data = random_instance(4, n=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e-158, 1e-170):
            with pytest.raises(ValueError, match=f"temperature {t:g}"):
                distortion(cb, data, t)
        assert distortion(cb, data, 1e-170, WINDOW) == distortion(cb, data, 0.5, WINDOW)


@pytest.mark.parametrize("kernel", [GAUSSIAN, WINDOW], ids=lambda kernel: kernel.kind)
def test_distortion_at_a_huge_temperature_weighs_every_unit_one(kernel):
    # above about 1e154 the Gaussian's T^2 is inf and every weight is 1.0, so
    # the distortion is the plain sum of every squared distance over N
    cb, data = random_instance(4, n=20)
    expected = float(np.float64(0.0) + squared_distances(data.samples, cb.prototypes).sum()) / data.n_samples
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e200, 1e300):
            assert distortion(cb, data, t, kernel) == expected


# ---------------------------------------------------------------------------
# topographic error
# ---------------------------------------------------------------------------

def test_te_ordered_chain_is_zero():
    cb = chain_codebook([0.0, 1.0, 2.0])
    assert topographic_error(cb, Dataset(np.array([[0.4]]))) == 0.0


def test_te_scrambled_chain_is_one():
    cb = chain_codebook([0.0, 2.0, 1.0])
    assert topographic_error(cb, Dataset(np.array([[0.9]]))) == 1.0


def test_te_zero_on_samples_of_ordered_grid():
    grid = MapGrid(4, 5)
    coords = np.array([[r, c] for r in range(4) for c in range(5)], dtype=float)
    cb = CodeBook(coords, grid)
    assert topographic_error(cb, Dataset(coords.copy())) == 0.0


def test_te_requires_two_units():
    cb = CodeBook(np.zeros((1, 1)), MapGrid(1, 1))
    with pytest.raises(ValueError):
        topographic_error(cb, Dataset(np.zeros((3, 1))))


# ---------------------------------------------------------------------------
# combined error
# ---------------------------------------------------------------------------

def test_ce_hand_value_ordered_chain():
    cb = chain_codebook([0.0, 1.0, 2.0])
    assert combined_error(cb, Dataset(np.array([[0.6]]))) == pytest.approx(1.16, rel=1e-12)


def test_ce_sample_on_bmu_with_adjacent_second():
    cb = chain_codebook([0.0, 1.0, 5.0])
    assert combined_error(cb, Dataset(np.array([[0.0]]))) == pytest.approx(1.0, rel=1e-12)


def test_ce_path_costs_match_exhaustive_enumeration():
    rect, hexa = MapGrid(3, 3), MapGrid(3, 3, "hexagonal")
    cases = [CodeBook(np.random.default_rng(seed).normal(size=(9, 2)), rect) for seed in range(3)]
    cases.append(CodeBook(np.random.default_rng(3).normal(size=(9, 2)), hexa))
    duplicated = np.random.default_rng(4).normal(size=(9, 2))
    duplicated[[1, 3]] = duplicated[0]  # units 1 and 3 are both adjacent to unit 0
    cases.append(CodeBook(duplicated, rect))
    for cb in cases:
        weights = {
            (a, b): float(((cb.prototypes[a] - cb.prototypes[b]) ** 2).sum())
            for a, b in (tuple(e) for e in adjacency_pairs(cb.grid))
        }
        costs = _map_path_costs(cb, np.arange(9))
        for s in range(9):
            for t in range(9):
                if s == t:
                    continue
                expected = min_path_cost_exhaustive(9, weights, s, t)
                assert costs[s][t] == pytest.approx(expected, abs=1e-12)
    assert weights[(0, 1)] == weights[(0, 3)] == 0.0  # zero-weight edges were exercised


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5000), n=st.integers(2, 15))
def test_ce_at_least_mean_squared_bmu_distance(seed, n):
    cb, data = random_instance(seed, n=n)
    bmus = project(cb, data, depth=1).bmu
    base = float((bmu_distances(cb, data, bmus) ** 2).mean())
    assert combined_error(cb, data) >= base - 1e-12


# ---------------------------------------------------------------------------
# trustworthiness / neighborhood preservation
# ---------------------------------------------------------------------------

def test_trust_and_np_perfect_chain():
    n = 9
    cb = chain_codebook(np.arange(n, dtype=float))
    data = Dataset(np.arange(n, dtype=float)[:, None])
    assert trustworthiness(cb, data, 1) == pytest.approx(1.0, abs=1e-12)
    assert neighborhood_preservation(cb, data, 1) == pytest.approx(1.0, abs=1e-12)


def test_trust_and_np_agree_on_distance_order_isomorphism():
    # equispaced chain: input and map orderings coincide (ties only the
    # symmetric ones), so both penalty sets stay empty for every k
    xs = np.arange(10, dtype=float) * 2.5
    cb = chain_codebook(xs)
    data = Dataset(xs[:, None].copy())
    for k in (1, 2, 4):
        assert trustworthiness(cb, data, k) == pytest.approx(1.0, abs=1e-12)
        assert neighborhood_preservation(cb, data, k) == pytest.approx(1.0, abs=1e-12)


def _oracle_pair(cb, data, k):
    bmus = project(cb, data, depth=1).bmu
    dmat = distance_matrix(cb.grid).tolist()
    return trust_np_bruteforce(data.samples.tolist(), [int(b) for b in bmus], dmat, k)


PAIR_METRICS = ("trustworthiness", "neighborhood_preservation", "kruskal_shepard_error", "c_measure")


def _pair_values(cb, data, k):
    return (trustworthiness(cb, data, k), neighborhood_preservation(cb, data, k),
            kruskal_shepard_error(cb, data), c_measure(cb, data))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trust_below_one_when_clusters_collapse_onto_adjacent_units():
    cb = chain_codebook([0.1, 10.1, 100.0])
    data = Dataset(np.array([[0.0], [0.15], [0.3], [10.0], [10.15], [10.3]]))
    value = trustworthiness(cb, data, 1)
    oracle_trust, _ = _oracle_pair(cb, data, 1)
    assert value == pytest.approx(oracle_trust, abs=1e-12)
    assert value < 1.0


def test_np_total_collapse_matches_oracle():
    # every sample lands on one unit: the tie-expanded projected set holds
    # everyone, so nothing is ever missed and the score stays exactly 1
    cb = chain_codebook([0.0, 100.0, 200.0, 300.0])
    data = Dataset(np.arange(6, dtype=float)[:, None])
    value = neighborhood_preservation(cb, data, 1)
    _, oracle_np = _oracle_pair(cb, data, 1)
    assert value == pytest.approx(oracle_np, abs=1e-12)
    assert value == 1.0


def test_np_penalizes_split_input_neighbors():
    # input-close pair mapped to opposite chain ends with occupied units between
    cb = chain_codebook([0.0, 3.0, 4.0, 5.0, 1.0])
    data = Dataset(np.array([[0.0], [1.0], [3.0], [4.0], [5.0]]))
    value = neighborhood_preservation(cb, data, 1)
    _, oracle_np = _oracle_pair(cb, data, 1)
    assert value == pytest.approx(oracle_np, abs=1e-12)
    assert value == pytest.approx(0.6, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(7, 24), k=st.integers(1, 3))
def test_trust_np_match_bruteforce_on_random_instances(seed, n, k):
    rng = np.random.default_rng(seed)
    grid = MapGrid(2, int(rng.integers(2, 5)))
    cb = CodeBook(rng.normal(size=(grid.n_units, 2)), grid)
    data = Dataset(rng.normal(size=(n, 2)))
    oracle_trust, oracle_np = _oracle_pair(cb, data, k)
    assert trustworthiness(cb, data, k) == pytest.approx(oracle_trust, abs=1e-12)
    assert neighborhood_preservation(cb, data, k) == pytest.approx(oracle_np, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), topology=st.sampled_from(["rectangular", "hexagonal"]),
       n=st.integers(7, 40), k_frac=st.floats(0.0, 1.0))
def test_trust_np_match_bruteforce_on_tied_integer_data(seed, topology, n, k_frac):
    # small integers in both spaces: exact ties at the k-th input distance
    # and at the map cut, for every k up to the largest allowed one
    rng = np.random.default_rng(seed)
    grid = MapGrid(int(rng.integers(1, 4)), int(rng.integers(2, 5)), topology)
    d = int(rng.integers(1, 4))
    cb = CodeBook(rng.integers(0, 3, size=(grid.n_units, d)).astype(float), grid)
    data = Dataset(rng.integers(0, 3, size=(n, d)).astype(float))
    k = 1 + int(k_frac * ((n - 1) // 2 - 1))  # 1 <= k < n / 2
    oracle_trust, oracle_np = _oracle_pair(cb, data, k)
    assert trustworthiness(cb, data, k) == pytest.approx(oracle_trust, abs=1e-12)
    assert neighborhood_preservation(cb, data, k) == pytest.approx(oracle_np, abs=1e-12)


@pytest.mark.parametrize("topology", ["rectangular", "hexagonal"])
@pytest.mark.parametrize("seed", range(3))
def test_pair_metrics_do_not_depend_on_block_size(monkeypatch, topology, seed):
    # integer-valued data and prototypes: exact ties in both spaces, with
    # block boundaries falling inside runs of tied samples
    rng = np.random.default_rng(seed)
    grid = MapGrid(3, 3, topology)
    cb = CodeBook(rng.integers(0, 4, size=(grid.n_units, 2)).astype(float), grid)
    data = Dataset(rng.integers(0, 4, size=(int(rng.integers(20, 31)), 2)).astype(float))
    k = 3
    oracle_trust, oracle_np = _oracle_pair(cb, data, k)
    trust, nbp = trustworthiness(cb, data, k), neighborhood_preservation(cb, data, k)
    assert trust == pytest.approx(oracle_trust, abs=1e-12)
    assert nbp == pytest.approx(oracle_np, abs=1e-12)
    kse, cm = kruskal_shepard_error(cb, data), c_measure(cb, data)
    for block in (1, 3, 7):
        monkeypatch.setattr(internal, "_BLOCK", block)
        direct = _pair_values(cb, data, k)
        with _shared_results(cb, data, PAIR_METRICS, k):  # one fused scan serves all four
            assert _pair_values(cb, data, k) == direct
        assert direct[:2] == (trust, nbp)
        assert direct[2] == pytest.approx(kse, rel=1e-12)
        assert direct[3] == pytest.approx(cm, rel=1e-12)


def test_pair_metric_with_another_k_in_a_scope_is_scanned_alone():
    # the scope keeps only the planned scan; a trust call with another k
    # scans on its own and leaves the kept scan as it was
    cb, data = random_instance(12, n=30)
    direct = trustworthiness(cb, data, 3)
    with _shared_results(cb, data, PAIR_METRICS, 2) as evaluation:
        assert trustworthiness(cb, data, 3) == direct
        assert evaluation.pairs is None
        planned = _pair_values(cb, data, 2)
        kept = evaluation.pairs
        assert kept is not None
        assert trustworthiness(cb, data, 3) == direct
        assert evaluation.pairs is kept
        assert _pair_values(cb, data, 2) == planned


def test_trust_memory_is_bounded_by_the_block(monkeypatch):
    monkeypatch.setattr(internal, "_BLOCK", 16)
    rng = np.random.default_rng(4)
    cb = CodeBook(rng.normal(size=(100, 2)), MapGrid(10, 10))
    data = Dataset(rng.normal(size=(2000, 2)))
    assert _traced_peak(trustworthiness, cb, data, 10) < 16 * 2**20  # an N x N int64 matrix is 30.5 MiB

    def fused():
        with _shared_results(cb, data, PAIR_METRICS, 10):
            return _pair_values(cb, data, 10)

    assert _traced_peak(fused) < 16 * 2**20


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), d=st.sampled_from([1, 2, 16, 200]),
       shape=st.sampled_from(["normal", "sphere", "offset", "duplicated"]))
@example(seed=0, n=2, d=1, shape="normal")
def test_pruned_kse_maximum_equals_the_full_scan(seed, n, d, shape):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    if shape == "sphere":  # antipodal pairs about a mean of about 0: every bound is close to the maximum
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        x = np.vstack([x, -x])
    elif shape == "offset":  # a spread far below the magnitude
        x = 1e8 + 1e-3 * x
    elif shape == "duplicated":  # the two samples farthest from the mean, twice more each
        far = np.argsort(np.linalg.norm(x - x.mean(axis=0), axis=1))[-2:]
        x = np.vstack([x, x[far], x[far]])
    assert internal._max_squared_distance(x) == squared_distances(x, x).max()


def test_trust_k_range_validated():
    cb, data = random_instance(0, n=10)
    with pytest.raises(ValueError):
        trustworthiness(cb, data, 0)
    with pytest.raises(ValueError):
        trustworthiness(cb, data, 5)  # k must stay below N/2


# ---------------------------------------------------------------------------
# topographic product
# ---------------------------------------------------------------------------

def test_tp_zero_for_equispaced_monotone_chain():
    cb = chain_codebook([0.0, 1.0, 2.0, 3.0])
    assert topographic_product(cb) == 0.0


def test_tp_monotone_chain_with_uneven_spacing():
    # map and input neighbor orders disagree once at the interior, giving a
    # small negative value rather than exactly zero
    cb = chain_codebook([0.0, 1.0, 3.0, 7.0])
    expected = math.log(2.0 / 3.0) / 48.0
    assert topographic_product(cb) == pytest.approx(expected, abs=1e-15)
    assert abs(topographic_product(cb)) < 0.01


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 3), cols=st.integers(2, 4),
       topology=st.sampled_from(["rectangular", "hexagonal"]))
def test_tp_matches_bruteforce(seed, rows, cols, topology):
    rng = np.random.default_rng(seed)
    grid = MapGrid(rows, cols, topology)
    cb = CodeBook(rng.normal(size=(grid.n_units, 2)), grid)
    expected = topographic_product_bruteforce(
        cb.prototypes.tolist(), distance_matrix(grid).tolist()
    )
    assert topographic_product(cb) == pytest.approx(expected, abs=1e-9)


def test_tp_rejects_duplicate_prototypes():
    for protos in ([[0.0], [0.0], [1.0]], [[0.0], [1.0], [1.0]]):  # first units, last units
        cb = CodeBook(np.array(protos), MapGrid(1, 3))
        with pytest.raises(ValueError):
            topographic_product(cb)


def test_tp_memory_is_one_unit_row_at_a_time():
    grid = MapGrid(20, 20, "hexagonal")
    cb = CodeBook(np.random.default_rng(3).normal(size=(grid.n_units, 32)), grid)
    assert _traced_peak(topographic_product, cb) < 16 * 2**20  # a K x K x D temporary is 39 MiB


# ---------------------------------------------------------------------------
# topographic function
# ---------------------------------------------------------------------------

def test_tf_zero_for_ordered_chain_with_dense_data():
    n = 400
    cb = chain_codebook(np.arange(10, dtype=float))
    data = Dataset(np.linspace(-0.5, 9.5, n)[:, None])
    tf = topographic_function(cb, data)
    assert np.all(tf.tf == 0)


def test_tf_series_shape_and_normalization():
    rng = np.random.default_rng(9)
    grid = MapGrid(1, 20)
    cb = CodeBook(rng.random((20, 2)), grid)
    data = Dataset(rng.random((100, 2)))
    tf = topographic_function(cb, data, k_max=25)
    assert tf.k.tolist() == list(range(1, 26))
    assert np.all(tf.tf[tf.k >= 19] == 0)  # nothing lies beyond the diameter
    assert tf.normalized_k[18] == pytest.approx(1.0)
    assert tf.normalized_tf is not None
    np.testing.assert_allclose(tf.normalized_tf, tf.tf / (20 * (20 - 3)))


def test_tf_normalization_undefined_for_tiny_maps():
    rng = np.random.default_rng(10)
    cb = CodeBook(rng.random((3, 2)), MapGrid(1, 3))  # K == 3**1
    data = Dataset(rng.random((30, 2)))
    assert topographic_function(cb, data).normalized_tf is None
    cb = CodeBook(rng.random((4, 2)), MapGrid(2, 2))  # K < 3**2
    assert topographic_function(cb, data).normalized_tf is None


def test_tf_refuses_a_radius_below_one():
    cb, data = random_instance(11)
    with pytest.raises(ValueError, match="^k_max must be >= 1, got 0$"):
        topographic_function(cb, data, k_max=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), n=st.integers(2, 30))
def test_tf_nonincreasing(seed, n):
    rng = np.random.default_rng(seed)
    grid = MapGrid(3, 3)
    cb = CodeBook(rng.normal(size=(9, 2)), grid)
    data = Dataset(rng.normal(size=(n, 2)))
    tf = topographic_function(cb, data)
    assert np.all(np.diff(tf.tf) <= 0)
    assert tf.tf[-1] == 0


# ---------------------------------------------------------------------------
# Kruskal-Shepard error
# ---------------------------------------------------------------------------

def test_kse_zero_when_both_matrices_saturate():
    cb = chain_codebook([0.0, 1.0])
    data = Dataset(np.array([[0.0], [1.0]]))
    assert kruskal_shepard_error(cb, data) == 0.0


def test_kse_all_samples_on_one_unit():
    cb = chain_codebook([0.0, 100.0])
    data = Dataset(np.array([[0.0], [1.0], [2.0]]))
    # map side is identically zero; direct computation of the input side
    assert kruskal_shepard_error(cb, data) == pytest.approx(0.375, rel=1e-12)


def test_kse_degenerate_data_rejected():
    cb = chain_codebook([0.0, 1.0])
    data = Dataset(np.zeros((4, 1)))
    with pytest.raises(ValueError):
        kruskal_shepard_error(cb, data)


# ---------------------------------------------------------------------------
# C measure
# ---------------------------------------------------------------------------

def test_c_measure_single_pair():
    cb = chain_codebook([0.0, 2.0])
    data = Dataset(np.array([[0.0], [2.0]]))
    assert c_measure(cb, data) == pytest.approx(2.0, rel=1e-12)


def test_c_measure_zero_when_all_on_one_unit():
    cb = chain_codebook([0.0, 100.0])
    data = Dataset(np.array([[0.0], [1.0], [2.0]]))
    assert c_measure(cb, data) == 0.0


def test_c_measure_matches_pairwise_loop():
    cb, data = random_instance(11, n=17)
    bmus = project(cb, data, depth=1).bmu
    dmat = distance_matrix(cb.grid)
    expected = 0.0
    for i in range(data.n_samples):
        for j in range(i):
            expected += float(np.linalg.norm(data.samples[i] - data.samples[j])) * dmat[bmus[i], bmus[j]]
    assert c_measure(cb, data) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# shared range properties
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(5, 20))
def test_metric_ranges(seed, n):
    cb, data = random_instance(seed, n=n)
    assert quantization_error(cb, data) >= 0
    assert distortion(cb, data, 1.0) >= 0
    assert 0.0 <= topographic_error(cb, data) <= 1.0
    assert combined_error(cb, data) >= 0
    assert kruskal_shepard_error(cb, data) >= 0
    assert c_measure(cb, data) >= 0



# ---------------------------------------------------------------------------
# float64 overflow
# ---------------------------------------------------------------------------

OVERFLOWING_METRICS = {
    "quantization_error": quantization_error,
    "topographic_error": topographic_error,
    "combined_error": combined_error,
    "trustworthiness": lambda cb, data: trustworthiness(cb, data, 3),
    "neighborhood_preservation": lambda cb, data: neighborhood_preservation(cb, data, 3),
    "kruskal_shepard_error": kruskal_shepard_error,
    "c_measure": c_measure,
    "distortion": lambda cb, data: distortion(cb, data, 1.0),
}


@pytest.mark.parametrize("name", OVERFLOWING_METRICS)
def test_metrics_reject_float64_overflow(name):
    # finite inputs whose squared distances exceed float64: an error, never
    # a NaN, a silently wrong number or a numpy RuntimeWarning
    cb, data = random_instance(5, n=20)
    cb, data = CodeBook(cb.prototypes * 1e160, cb.grid), Dataset(data.samples * 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow float64"):
            OVERFLOWING_METRICS[name](cb, data)


def test_distortion_total_overflow_is_an_error():
    # every squared distance is finite, their weighted sum is not
    rng = np.random.default_rng(6)
    grid = MapGrid(3, 3)
    cb, data = CodeBook(rng.random((9, 4)) * 1e153, grid), Dataset(rng.random((200, 4)) * 1e153)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow float64"):
            distortion(cb, data, 1.0)


def test_ce_path_weight_overflow_is_an_error():
    # adjacent units 0 and 1 are 2.6e154 apart, so their edge weight overflows;
    # every sample-to-prototype distance stays finite
    rng = np.random.default_rng(7)
    protos = rng.random((6, 2))
    protos[0], protos[1] = [1.3e154, 0.0], [-1.3e154, 0.0]
    cb, data = CodeBook(protos, MapGrid(2, 3)), Dataset(rng.random((20, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow float64"):
            combined_error(cb, data)


def test_ce_bmu_term_plus_path_overflow_is_an_error():
    # the BMU term (0.36e308) and the path cost (1.69e308) are finite, their sum is not
    cb = CodeBook(np.array([[0.0, 0.0], [1.3e154, 0.0]]), MapGrid(1, 2))
    data = Dataset(np.array([[0.6e154, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow float64"):
            combined_error(cb, data)


def test_ce_path_cost_overflow_inside_dijkstra_is_an_error():
    # both edge weights (1.44e308 and 1.44e308 + 1) are finite, the path 0 -> 1 -> 2 is not
    cb = CodeBook(np.array([[0.0, 0.0], [1.2e154, 0.0], [0.0, 1.0]]), MapGrid(1, 3))
    data = Dataset(np.array([[0.0, 0.4]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow float64"):
            combined_error(cb, data)
