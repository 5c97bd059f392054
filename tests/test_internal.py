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
    TrainerConfig,
    adjacency_pairs,
    c_measure,
    class_scatter_index,
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
    train_som,
    trustworthiness,
)
from sommetrics import internal
from sommetrics.grid import _offset_tables, _pair_distances
from sommetrics.internal import _map_path_costs
from sommetrics.model import _SCOPE, _pairwise_tree, bmu_distances, squared_distances
from sommetrics.report import _computations

from oracles import (min_path_cost_exhaustive, topographic_function_bruteforce, topographic_product_bruteforce,
                     trust_np_bruteforce)


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
        costs = _map_path_costs(cb, *np.divmod(np.arange(81), 9)).reshape(9, 9)  # every ordered pair
        for s in range(9):
            for t in range(9):
                if s == t:
                    continue
                expected = min_path_cost_exhaustive(9, weights, s, t)
                assert costs[s][t] == pytest.approx(expected, abs=1e-12)
    assert weights[(0, 1)] == weights[(0, 3)] == 0.0  # zero-weight edges were exercised


def _recorded_limits(monkeypatch):
    import scipy.sparse.csgraph

    limits = []
    dijkstra = scipy.sparse.csgraph.dijkstra

    def recording(*args, limit=np.inf, **kwargs):
        limits.append(limit)
        return dijkstra(*args, limit=limit, **kwargs)

    monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", recording)
    return limits


def test_ce_path_cost_equal_to_a_stage_limit_is_found_at_that_stage(monkeypatch):
    # chain weights 1, 1, 1: the limits are 1, 2, then none (4 is not below the total 3);
    # the limit is inclusive, so a cost equal to it ends the search there
    cb = chain_codebook([0.0, 1.0, 2.0, 3.0])
    limits = _recorded_limits(monkeypatch)
    for target, cost, expected in ((1, 1.0, [1.0]), (2, 2.0, [1.0, 2.0]), (3, 3.0, [1.0, 2.0, np.inf])):
        limits.clear()
        assert _map_path_costs(cb, np.array([0]), np.array([target])).tolist() == [cost]
        assert limits == expected


def test_ce_path_costs_on_an_all_zero_weight_graph(monkeypatch):
    # every prototype equal: every cost is 0, found by one unlimited run
    cb = CodeBook(np.ones((6, 2)), MapGrid(2, 3, "hexagonal"))
    limits = _recorded_limits(monkeypatch)
    sources, targets = np.divmod(np.arange(36), 6)
    assert _map_path_costs(cb, sources, targets).tolist() == [0.0] * 36
    assert limits == [np.inf]
    assert combined_error(cb, Dataset(np.zeros((5, 2)))) == 2.0


def test_ce_path_costs_equal_unbounded_dijkstra_bit_for_bit():
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import dijkstra

    rng = np.random.default_rng(1818)
    for case in range(120):
        kind = ("generic", "chain", "integer ties", "half duplicated")[case % 4]
        rows = 1 if kind == "chain" else int(rng.integers(1, 12))
        cols = max(int(rng.integers(1, 12)), 3 - rows)
        grid = MapGrid(rows, cols, ("rectangular", "hexagonal")[case // 4 % 2])
        k, d = grid.n_units, int(rng.integers(1, 4))
        protos = rng.integers(-2, 3, size=(k, d)).astype(float) if kind == "integer ties" else rng.normal(size=(k, d))
        if kind == "half duplicated":
            copies = rng.choice(k, k // 2, replace=False)
            protos[copies] = protos[rng.integers(0, k, size=len(copies))]
        cb = CodeBook(protos, grid)
        n = int(rng.integers(1, 301))
        sources, targets = rng.integers(0, k, size=n), rng.integers(0, k, size=n)
        a, b = adjacency_pairs(grid).T
        weights = ((protos[a] - protos[b]) ** 2).sum(axis=1)
        full = dijkstra(coo_array((weights, (a, b)), shape=(k, k)).tocsr(), directed=False)
        expected = full[sources, targets]
        assert _map_path_costs(cb, sources, targets).tobytes() == expected.tobytes(), (case, kind)


def test_ce_path_cost_memory_is_bounded_by_a_block_of_sources():
    # 895 distinct sources on a 30x30 map: one cost row per source would be
    # 6.1 MiB; blocks of 256 sources hold 1.8 MiB at a time
    rng = np.random.default_rng(3)
    grid = MapGrid(30, 30, "hexagonal")
    cb = CodeBook(rng.normal(size=(900, 4)), grid)
    sources, targets = rng.integers(0, 900, 5000), rng.integers(0, 900, 5000)
    _map_path_costs(cb, sources[:1], targets[:1])  # loads scipy and caches the grid's distances
    tracemalloc.start()
    try:
        _map_path_costs(cb, sources, targets)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 4.0, peak


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


def test_map_side_metrics_and_the_trainer_stay_below_a_distance_matrix():
    # 50x50 hexagonal, K = 2500: one K x K int64 matrix is 48 MiB. Each call
    # first runs on a 3x3 map, so that imports are not counted, then on the
    # large map with the grid caches emptied, so that a call that built the
    # matrix would pay for it.
    rng = np.random.default_rng(5)
    calls = {
        "distortion": lambda cb, data: distortion(cb, data, 1.0),
        "topographic_error": topographic_error,
        "topographic_function": topographic_function,
        "topographic_product": lambda cb, data: topographic_product(cb),
        "combined_error": combined_error,
        "class_scatter_index": class_scatter_index,
        "trustworthiness": lambda cb, data: trustworthiness(cb, data, 10),
        "neighborhood_preservation": lambda cb, data: neighborhood_preservation(cb, data, 10),
        "trainer": lambda cb, data: train_som(data, TrainerConfig(cb.grid.rows, cb.grid.cols, cb.grid.topology,
                                                                  iterations=200)),
    }
    operands = []
    for rows, cols, n in ((3, 3, 30), (50, 50, 600)):
        grid = MapGrid(rows, cols, "hexagonal")
        operands.append((CodeBook(rng.normal(size=(grid.n_units, 3)), grid),
                         Dataset(rng.normal(size=(n, 3)), labels=rng.integers(0, 4, n))))
    for name, call in calls.items():
        call(*operands[0])
        _offset_tables.cache_clear()
        distance_matrix.cache_clear()
        peak = _traced_peak(call, *operands[1])
        assert peak < 32 * 2**20, (name, peak / 2**20)


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
        with _computations(cb, data, PAIR_METRICS, k):  # one fused scan serves all four
            assert _pair_values(cb, data, k) == direct
        assert direct[:2] == (trust, nbp)
        assert direct[2] == pytest.approx(kse, rel=1e-12)
        assert direct[3] == pytest.approx(cm, rel=1e-12)


def test_pair_metric_with_another_k_in_a_scope_is_scanned_alone():
    # the scope keeps only the planned scan; a trust call with another k
    # scans on its own and leaves the kept scan as it was
    cb, data = random_instance(12, n=30)
    direct = trustworthiness(cb, data, 3)
    with _computations(cb, data, PAIR_METRICS, 2):
        evaluation = _SCOPE.get()
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
        with _computations(cb, data, PAIR_METRICS, 10):
            return _pair_values(cb, data, 10)

    assert _traced_peak(fused) < 16 * 2**20


@pytest.mark.parametrize("consumers", ["fused", "kse", "c"])
def test_pair_scan_memory_is_below_three_block_arrays(consumers):
    # at the default block, a block holds its squared distances and one
    # reused scratch of the same shape: two 256 x N float64 arrays and the
    # narrow map distances, below three such arrays
    rng = np.random.default_rng(6)
    cb = CodeBook(rng.normal(size=(100, 2)), MapGrid(10, 10))
    data = Dataset(rng.normal(size=(3000, 2)))

    def fused(data):
        with _computations(cb, data, PAIR_METRICS, 10):
            return _pair_values(cb, data, 10)

    call = {"fused": fused, "kse": lambda data: kruskal_shepard_error(cb, data),
            "c": lambda data: c_measure(cb, data)}[consumers]
    call(Dataset(data.samples[:30]))  # imports and grid caches, not counted
    peak = _traced_peak(call, data)
    assert peak < 3 * 256 * 3000 * 8, peak / 2**20


def test_trust_map_ranks_stay_per_block_on_a_long_chain():
    # a 1 x 4000 chain: map ranks over every unit and map distance would be
    # 4000 x 4000 int64 tables of 122 MiB each; per block of BMUs they hold
    # at most 256 x 4000 entries
    rng = np.random.default_rng(6)
    cb = CodeBook(rng.normal(size=(4000, 2)), MapGrid(1, 4000))
    data = Dataset(rng.normal(size=(1000, 2)))
    trustworthiness(cb, Dataset(data.samples[:30]), 3)  # imports and grid caches, not counted
    assert _traced_peak(trustworthiness, cb, data, 10) < 48 * 2**20


@pytest.mark.parametrize("shape", ["row", "column"])
@pytest.mark.parametrize("diameter", [255, 256, 65_535, 65_536])
def test_pair_scan_at_the_ends_of_the_narrow_map_distance_types(shape, diameter):
    # a chain of diameter + 1 units (rectangular row, hexagonal column):
    # map distances in 1, 2 or 4 bytes; samples at both ends reach the diameter
    grid = MapGrid(1, diameter + 1) if shape == "row" else MapGrid(diameter + 1, 1, "hexagonal")
    cb = CodeBook(np.arange(diameter + 1, dtype=float)[:, None], grid)
    rng = np.random.default_rng(diameter)
    x = np.concatenate([[0.0, diameter, diameter - 0.2], rng.uniform(0, diameter, 37)])
    data = Dataset(x[:, None])
    n, k = len(x), 3
    bmus = project(cb, data, depth=1).bmu
    dm = np.array([[int(_pair_distances(grid, a, b)) for b in bmus] for a in bmus])
    assert dm.max() == diameter
    d2 = squared_distances(data.samples, data.samples)
    kse_terms = (d2 / d2.max() - dm / diameter) ** 2
    assert kruskal_shepard_error(cb, data) == kse_terms.sum() / (n * (n - 1))
    assert c_measure(cb, data) == np.tril(np.sqrt(d2) * dm, -1).sum()

    # the oracle reads map distances among the occupied units only, so no K x K matrix is built
    occupied, local = np.unique(bmus, return_inverse=True)
    unit_distances = _pair_distances(grid, occupied[:, None], occupied).tolist()
    oracle_trust, oracle_np = trust_np_bruteforce(data.samples.tolist(), local.tolist(), unit_distances, k)
    assert trustworthiness(cb, data, k) == pytest.approx(oracle_trust, abs=1e-12)
    assert neighborhood_preservation(cb, data, k) == pytest.approx(oracle_np, abs=1e-12)


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 150_000), limit=st.integers(128, 70_000))
@example(seed=0, n=768_000, limit=2**16)  # a 256 x 3000 block in 48,000-term leaves
@example(seed=1, n=129, limit=128)
def test_pairwise_tree_adds_as_numpy_sums(seed, n, limit):
    # numpy sums a contiguous float64 array as one pairwise tree: split at
    # half the length rounded down to a multiple of 8, down to 128 terms;
    # leaf sums added along that tree give the same bits at any limit >= 128
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n) * 2.0 ** rng.integers(-300, 300, size=n)
    assert _pairwise_tree(lambda i, j: a[i:j].sum(), 0, n, limit) == a.sum()


def test_squared_distances_fills_a_given_buffer():
    rng = np.random.default_rng(3)
    x, p = rng.normal(size=(7, 3)), rng.normal(size=(11, 3))
    buffer = np.empty((9, 11))
    out = squared_distances(x, p, out=buffer[:7])
    assert out.base is buffer
    assert np.array_equal(out, squared_distances(x, p))


def _pair_sums_by_block(cb, data):
    # the KSE and C sums as whole (256, N) blocks of terms, each one .sum()
    x, n = data.samples, data.n_samples
    bmus = project(cb, data, depth=1).bmu
    d2 = squared_distances(x, x)
    dm = _pair_distances(cb.grid, bmus[:, None], bmus)
    kse_terms = (d2 / d2.max() - dm / cb.grid.max_distance()) ** 2
    c_terms = np.tril(np.sqrt(d2) * dm, -1)
    kse = c = 0.0
    for s in range(0, n, 256):
        kse += float(kse_terms[s:s + 256].sum())
        c += float(c_terms[s:s + 256].sum())
    return kse / (n * (n - 1)), c


@pytest.mark.parametrize("kind", ["tied", "random"])
def test_pair_scan_bits_do_not_depend_on_the_leaf_size(monkeypatch, kind):
    # N = 517: not a multiple of 8, and a last block of 5 rows; leaves of 128,
    # 1000 and 7777 terms cut rows, the default holds whole rows of full blocks
    rng = np.random.default_rng(17)
    if kind == "tied":  # integer lattices: exact ties in both spaces
        grid = MapGrid(4, 5, "hexagonal")
        cb = CodeBook(rng.integers(0, 4, size=(grid.n_units, 3)).astype(float), grid)
        data = Dataset(rng.integers(0, 4, size=(517, 3)).astype(float))
    else:
        grid = MapGrid(5, 4)
        cb = CodeBook(rng.normal(size=(grid.n_units, 2)), grid)
        data = Dataset(rng.normal(size=(517, 2)))
    plans = [(5, False, False), (None, True, False), (None, False, True), (5, True, True)]
    default = [internal._pair_scan(cb, data, *plan) for plan in plans]
    kse, c = _pair_sums_by_block(cb, data)
    assert (default[1].kse, default[2].c) == (kse, c)
    assert default[3] == (default[0].np_trust, kse, c)
    for limit in (128, 1000, 7777):
        monkeypatch.setattr(internal, "_leaf_terms", lambda n: limit)
        assert [internal._pair_scan(cb, data, *plan) for plan in plans] == default, limit


@pytest.mark.parametrize("consumers", ["fused", "kse_on_a_sphere"])
def test_pair_scan_memory_is_a_few_leaf_rows(consumers):
    # at N = 3000 a leaf holds at most 2**16 terms (16 rows of a full block),
    # and two 23 x N float64 buffers (0.5 MiB each) serve the whole scan; the
    # KSE's exact maximum, which keeps every sample on a sphere, reuses one
    # buffer of 21 rows. One 256 x N float64 block is 5.9 MiB.
    rng = np.random.default_rng(6)
    cb = CodeBook(rng.normal(size=(100, 3)), MapGrid(10, 10))
    if consumers == "fused":
        data = Dataset(rng.normal(size=(3000, 3)))
    else:
        x = rng.normal(size=(3000, 3))
        data = Dataset(x / np.linalg.norm(x, axis=1, keepdims=True))

    def fused(data):
        with _computations(cb, data, PAIR_METRICS, 10):
            return _pair_values(cb, data, 10)

    call = fused if consumers == "fused" else lambda data: kruskal_shepard_error(cb, data)
    call(Dataset(data.samples[:30]))  # imports and grid caches, not counted
    peak = _traced_peak(call, data)
    assert peak < (4 if consumers == "fused" else 3) * 2**20, peak / 2**20


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), topology=st.sampled_from(["rectangular", "hexagonal"]),
       chain=st.booleans(), n=st.integers(1, 30), past_diameter=st.one_of(st.none(), st.integers(-3, 3)))
def test_tf_matches_bruteforce_on_tied_integer_data(seed, topology, chain, n, past_diameter):
    # small integers: exact ties between the first and second BMU and between
    # samples; k_max runs below, at and past the diameter, or is left default
    rng = np.random.default_rng(seed)
    rows, cols = (1 if chain else int(rng.integers(2, 5))), int(rng.integers(2, 7))
    grid = MapGrid(rows, cols, topology)
    d = int(rng.integers(1, 4))
    prototypes = rng.integers(0, 3, size=(grid.n_units, d)).astype(float)
    samples = rng.integers(0, 3, size=(n, d)).astype(float)
    k_max = None if past_diameter is None else max(1, grid.max_distance() + past_diameter)
    tf = topographic_function(CodeBook(prototypes, grid), Dataset(samples), k_max)
    k, counts, normalized_k, normalized_tf = topographic_function_bruteforce(samples, prototypes, rows, cols,
                                                                             topology, k_max)
    for got, expected in ((tf.k, k), (tf.tf, counts)):
        assert got.dtype == np.asarray(expected).dtype
        assert got.tolist() == expected
    assert tf.normalized_k.tolist() == normalized_k
    assert (None if tf.normalized_tf is None else tf.normalized_tf.tolist()) == normalized_tf


def test_tf_requires_two_units():
    cb = CodeBook(np.zeros((1, 1)), MapGrid(1, 1))
    with pytest.raises(ValueError, match="^topographic function requires at least two units$"):
        topographic_function(cb, Dataset(np.zeros((2, 1))))


def test_tf_memory_does_not_grow_with_radii_times_pairs():
    # 758 distinct BMU / second-BMU pairs on a 20x20 map: a (k_max, pairs)
    # boolean matrix at k_max = 100,000 would be 72 MiB, while each of the
    # four output series is 0.8 MiB
    rng = np.random.default_rng(4)
    grid = MapGrid(20, 20)
    cb, data = CodeBook(rng.normal(size=(grid.n_units, 2)), grid), Dataset(rng.normal(size=(3000, 2)))
    topographic_function(cb, data, k_max=10)
    assert _traced_peak(topographic_function, cb, data, 100_000) < 8 * 2**20


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
