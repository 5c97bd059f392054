import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sommetrics import GAUSSIAN, WINDOW, MapGrid, NeighborhoodKernel, adjacency_pairs, distance_matrix
from sommetrics.grid import _diameter, _distance_rows, _offset_tables, _pair_distances

from oracles import bfs_distances, lattice_distances, lattice_edges

SHAPES = [(1, 2), (2, 1), (1, 7), (3, 3), (2, 5), (4, 4), (5, 5), (3, 7), (10, 10)]


def _grid_edges(grid):
    return [tuple(e) for e in adjacency_pairs(grid)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("topology", ["rectangular", "hexagonal"])
def test_distance_equals_bfs_on_adjacency(shape, topology):
    grid = MapGrid(*shape, topology)
    expected = np.asarray(bfs_distances(grid.n_units, _grid_edges(grid)))
    assert np.array_equal(distance_matrix(grid), expected)
    K = grid.n_units
    assert [[grid.distance(k, l) for l in range(K)] for k in range(K)] == expected.tolist()


LATTICES = [(r, c) for r in range(1, 10) for c in range(1, 10)] + [(2, 31), (31, 2), (30, 30)]


@pytest.mark.parametrize("shape", LATTICES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
@pytest.mark.parametrize("topology", ["rectangular", "hexagonal"])
def test_offset_table_geometry_equals_lattice_bfs(shape, topology):
    # every reader of the offset tables against breadth-first search on the
    # lattice graph built from the layout's own neighbor rules
    grid = MapGrid(*shape, topology)
    expected = np.array(lattice_distances(*shape, topology))
    K = grid.n_units
    units = np.arange(K)
    shuffled = np.random.default_rng(K).permutation(K)  # rows of any units, in any order
    rows = _distance_rows(grid, shuffled)
    assert rows.dtype == np.int64 and np.array_equal(rows, expected[shuffled])
    assert np.array_equal(_pair_distances(grid, units[:, None], units), expected)
    assert _pair_distances(grid, K - 1, 0) == expected[K - 1, 0]
    matrix = distance_matrix(grid)
    assert matrix.dtype == np.int64 and not matrix.flags.writeable and np.array_equal(matrix, expected)
    assert _diameter(grid) == expected.max()
    if K > 1:
        assert grid.max_distance() == expected.max()
    assert adjacency_pairs(grid).tolist() == [list(edge) for edge in lattice_edges(*shape, topology)]


def _cold_peak_mib(fn):
    """Traced peak of one call with the grid caches emptied first, and the call's result."""
    _offset_tables.cache_clear()
    distance_matrix.cache_clear()
    tracemalloc.start()
    try:
        value = fn()
        return tracemalloc.get_traced_memory()[1] / 2**20, value
    finally:
        tracemalloc.stop()


def test_one_lookup_on_a_large_grid_stays_small():
    # 100x100 hexagonal: the K x K matrix alone would be 763 MiB, the offset
    # tables are 0.6 MiB
    grid = MapGrid(100, 100, "hexagonal")
    for call, expected in ((lambda: grid.distance(0, 9999), 148),
                           (lambda: grid.neighbors(5050).tolist(), [4950, 4951, 5049, 5051, 5150, 5151]),
                           (grid.max_distance, 149)):
        peak, value = _cold_peak_mib(call)
        assert value == expected
        assert peak < 2.0, peak


@pytest.mark.parametrize("topology", ["rectangular", "hexagonal"])
def test_distance_metric_axioms_exhaustive(topology):
    grid = MapGrid(8, 8, topology)
    d = distance_matrix(grid)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    assert np.all(d[~np.eye(grid.n_units, dtype=bool)] > 0)
    # triangle inequality over all triples
    assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :])


def test_rectangular_distance_examples():
    grid = MapGrid(10, 10)
    assert grid.distance(0, 0) == 0
    assert grid.distance(grid.unit_index(0, 0), grid.unit_index(2, 3)) == 5


def test_hexagonal_adjacent_units_have_distance_one():
    grid = MapGrid(5, 5, "hexagonal")
    center = grid.unit_index(2, 2)
    nbrs = grid.neighbors(center)
    assert len(nbrs) == 6
    assert all(grid.distance(center, int(l)) == 1 for l in nbrs)


def test_neighbors_rectangular_3x3():
    grid = MapGrid(3, 3)
    assert set(grid.neighbors(4)) == {1, 3, 5, 7}  # center: the 4 edge-sharing units
    assert set(grid.neighbors(0)) == {1, 3}  # corner


def test_neighbors_single_unit_grid():
    assert MapGrid(1, 1).neighbors(0).size == 0


@pytest.mark.parametrize("shape,topology", [(s, t) for s in SHAPES for t in ("rectangular", "hexagonal")])
def test_neighbor_counts_bounded(shape, topology):
    grid = MapGrid(*shape, topology)
    limit = 4 if topology == "rectangular" else 6
    for k in range(grid.n_units):
        assert len(grid.neighbors(k)) <= limit


@pytest.mark.parametrize("shape,expected", [((10, 10), 18), ((1, 5), 4), ((1, 2), 1)])
def test_max_distance_rectangular(shape, expected):
    grid = MapGrid(*shape)
    assert grid.max_distance() == expected
    assert grid.max_distance() == int(distance_matrix(grid).max())  # exhaustive pair scan


@pytest.mark.parametrize("shape", SHAPES)
def test_max_distance_hexagonal_matches_pair_scan(shape):
    grid = MapGrid(*shape, "hexagonal")
    assert grid.max_distance() == max(map(max, bfs_distances(grid.n_units, _grid_edges(grid))))


def test_max_distance_degenerate_grid():
    with pytest.raises(ValueError):
        MapGrid(1, 1).max_distance()


def test_index_round_trip():
    grid = MapGrid(4, 7)
    for k in range(grid.n_units):
        assert grid.unit_index(*grid.unit_position(k)) == k


def test_index_out_of_range():
    grid = MapGrid(3, 3)
    with pytest.raises(ValueError):
        grid.distance(0, 9)
    with pytest.raises(ValueError):
        grid.neighbors(-1)


def test_bad_grid_parameters():
    with pytest.raises(ValueError):
        MapGrid(0, 3)
    with pytest.raises(ValueError):
        MapGrid(3, 3, "toroidal")


def test_dimensionality():
    assert MapGrid(1, 9).dimensionality == 1
    assert MapGrid(9, 1).dimensionality == 1
    assert MapGrid(1, 1).dimensionality == 1
    assert MapGrid(2, 2).dimensionality == 2


def test_kernel_values():
    assert GAUSSIAN.weight(0.0, 3.7) == 1.0
    assert GAUSSIAN.weight(2.0, 2.0) == pytest.approx(math.exp(-1.0))
    assert WINDOW.weight(2.0, 1.0) == 0.0
    assert WINDOW.weight(1.0, 1.0) == 1.0


def test_kernel_validation():
    with pytest.raises(ValueError):
        GAUSSIAN.weight(1.0, 0.0)
    with pytest.raises(ValueError):
        GAUSSIAN.weight(-0.5, 1.0)
    with pytest.raises(ValueError):
        NeighborhoodKernel("triangular")


@pytest.mark.parametrize("kernel", [GAUSSIAN, WINDOW], ids=lambda kernel: kernel.kind)
def test_kernel_refuses_any_bad_temperature_in_an_array(kernel):
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match=f"^temperature must be positive, got {bad}$"):
            kernel.weight(np.arange(4.0), np.array([[2.0], [bad], [1.0]]))
        with pytest.raises(ValueError, match=f"^temperature must be positive, got {bad}$"):
            kernel.weight(1.0, bad)


@pytest.mark.parametrize("kernel", [GAUSSIAN, WINDOW], ids=lambda kernel: kernel.kind)
def test_kernel_return_types(kernel):
    assert type(kernel.weight(1.0, 2.0)) is float
    assert type(kernel.weight(np.float64(1.0), np.float64(2.0))) is float
    ts = np.array([0.5, 2.0])
    assert np.array_equal(kernel.weight(1.0, ts), [kernel.weight(1.0, t) for t in ts])
    assert kernel.weight(np.arange(3.0), 2.0).shape == (3,)


@pytest.mark.parametrize("kernel", [GAUSSIAN, WINDOW], ids=lambda kernel: kernel.kind)
def test_kernel_weighs_every_distance_one_at_a_huge_temperature(kernel):
    # above about 1e154, T^2 is inf, as the product of two Python floats is:
    # d^2 / inf is 0, so every weight is exactly 1.0, with no overflow raised
    # inside a scan's errstate and no warning outside one
    span = np.arange(30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state in ("raise", "warn"):
            with np.errstate(over=state):
                for t in (1e200, 1e300):
                    assert kernel.weight(span, t).tobytes() == np.ones(30).tobytes()
                    assert kernel.weight(29.0, t) == 1.0
                table = kernel.weight(span, np.array([[1e200], [2.0], [1e300]]))
                assert table.tobytes() == np.stack([np.ones(30), kernel.weight(span, 2.0), np.ones(30)]).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "window"]),
    diameter=st.integers(0, 80),
    ts=st.lists(st.floats(min_value=1e-150, max_value=1e300), min_size=1, max_size=40),
)
@example(kind="gaussian", diameter=80, ts=[1e-150, 1e154, 1.5e154, 1e200, 1e300])
def test_kernel_temperature_rows_match_scalar_calls(kind, diameter, ts):
    # the trainer weighs a block of steps at once: each row of the broadcast
    # table must carry the bytes of that step's scalar-temperature call
    kernel = NeighborhoodKernel(kind)
    span = np.arange(diameter + 1.0)
    ts = np.array(ts)
    table = kernel.weight(span, ts[:, None])
    assert table.shape == (len(ts), diameter + 1)
    for row, t in zip(table, ts.tolist()):
        assert row.tobytes() == kernel.weight(span, t).tobytes()


@settings(max_examples=200)
@given(
    kind=st.sampled_from(["gaussian", "window"]),
    d1=st.floats(min_value=0, max_value=50),
    d2=st.floats(min_value=0, max_value=50),
    t1=st.floats(min_value=1e-3, max_value=50),
    t2=st.floats(min_value=1e-3, max_value=50),
)
def test_kernel_monotonicity(kind, d1, d2, t1, t2):
    kernel = NeighborhoodKernel(kind)
    lo_d, hi_d = sorted((d1, d2))
    assert kernel.weight(lo_d, t1) >= kernel.weight(hi_d, t1)
    lo_t, hi_t = sorted((t1, t2))
    d = max(d1, 1e-2)
    assert kernel.weight(d, hi_t) >= kernel.weight(d, lo_t)
    w = kernel.weight(d1, t1)
    assert 0.0 <= w <= 1.0
