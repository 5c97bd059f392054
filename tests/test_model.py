import contextlib
import re
import tracemalloc
import warnings
from types import SimpleNamespace

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
    NeighborhoodKernel,
    TopographicFunction,
    TrainerConfig,
    distortion,
    init_codebook,
    project,
    quantization_error,
    topographic_error,
    train_som,
)
from sommetrics import internal, model
from sommetrics.grid import KERNEL_KINDS, TOPOLOGIES, _offset_tables, distance_matrix
from sommetrics.report import METRIC_NAMES, REGISTRY, MetricSpec, _jsonable, evaluate_map

from oracles import project_bruteforce, train_som_reference


def chain_codebook(values):
    values = np.asarray(values, dtype=float)
    return CodeBook(values[:, None], MapGrid(1, len(values)))


def test_project_sample_on_prototype():
    cb = CodeBook(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]), MapGrid(2, 2))
    data = Dataset(np.array([[5.0, 5.0]]))
    assert project(cb, data, depth=1).bmu[0] == 3


def test_project_hand_ranked_chain():
    cb = chain_codebook([0.0, 2.0, 1.0])
    data = Dataset(np.array([[0.9]]))
    ranks = project(cb, data, depth=3).bmu_ranks
    assert ranks.tolist() == [[2, 0, 1]]  # distances 0.9, 1.1, 0.1


def test_project_tie_breaks_to_lowest_unit():
    cb = chain_codebook([0.0, 2.0])
    data = Dataset(np.array([[1.0]]))
    assert project(cb, data, depth=2).bmu_ranks.tolist() == [[0, 1]]


def test_project_depth_validation():
    cb = chain_codebook([0.0, 1.0])
    data = Dataset(np.array([[0.0]]))
    with pytest.raises(ValueError):
        project(cb, data, depth=0)
    with pytest.raises(ValueError):
        project(cb, data, depth=3)


@pytest.mark.parametrize("depth", [2.0, 1.5, "2", None])
def test_project_refuses_a_non_integer_depth(depth):
    cb = chain_codebook([0.0, 1.0])
    data = Dataset(np.array([[0.0]]))
    with pytest.raises(ValueError, match=f"^depth must be an integer in 1..2, got {re.escape(repr(depth))}$"):
        project(cb, data, depth=depth)
    assert project(cb, data, depth=np.int64(2)).bmu_ranks.tolist() == [[0, 1]]


def test_project_dimension_mismatch_names_operands():
    cb = CodeBook(np.zeros((2, 3)), MapGrid(1, 2))
    data = Dataset(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="2x3.*4x2"):
        project(cb, data)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        CodeBook(np.array([[np.inf]]), MapGrid(1, 1))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    n=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
def test_project_full_depth_is_permutation(rows, cols, n, seed):
    rng = np.random.default_rng(seed)
    grid = MapGrid(rows, cols)
    cb = CodeBook(rng.normal(size=(grid.n_units, 3)), grid)
    data = Dataset(rng.normal(size=(n, 3)))
    ranks = project(cb, data, depth=grid.n_units).bmu_ranks
    expected = np.arange(grid.n_units)
    for row in ranks:
        assert np.array_equal(np.sort(row), expected)


def projection_data(kind, rng, k, d, n):
    """(prototypes, samples) of one of the hard cases for a screened projection."""
    if kind == "ties":  # small integers: many exactly equal distances
        return rng.integers(-2, 3, (k, d)).astype(float), rng.integers(-2, 3, (n, d)).astype(float)
    if kind == "duplicates":
        protos = rng.normal(size=(max(1, k // 2), d))[rng.integers(0, max(1, k // 2), k)]
        samples = rng.normal(size=(n, d))
        samples[: n // 3] = protos[rng.integers(0, k, n // 3)]
        return protos, samples
    if kind == "cancellation":  # two far clusters of tiny spread: |x|^2 dwarfs the distances
        offset = 10.0 ** rng.integers(4, 9)
        def points(m):
            return offset * rng.choice([-1.0, 1.0], (m, 1)) + 1e-4 * rng.normal(size=(m, d))
        return points(k), points(n)
    scale = 1e-160  # "subnormal": squared distances round to subnormal numbers
    if rng.random() < 0.5:
        return scale * rng.integers(-3, 4, (k, d)), scale * rng.integers(-3, 4, (n, d))
    return scale * rng.normal(size=(k, d)), scale * rng.normal(size=(n, d))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["ties", "duplicates", "cancellation", "subnormal"]),
    topology=st.sampled_from(TOPOLOGIES),
    wide=st.sampled_from([False, False, False, True]),
    depth=st.sampled_from([1, 2, "K"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_project_matches_bruteforce(kind, topology, wide, depth, seed):
    rng = np.random.default_rng(seed)
    if wide:  # D=250, 170 samples: three 64-row blocks below
        rows, cols, d, n = 10, 10, 250, 170
    else:
        rows, cols, d, n = (int(v) for v in (rng.integers(1, 5), rng.integers(2, 5), rng.integers(1, 6),
                                              rng.integers(1, 40)))
    grid = MapGrid(rows, cols, topology)
    depth = grid.n_units if depth == "K" else depth
    protos, samples = projection_data(kind, rng, grid.n_units, d, n)
    with pytest.MonkeyPatch.context() as mp:
        if wide:
            mp.setattr(model, "_BLOCK", 64)
        ranks = project(CodeBook(protos, grid), Dataset(samples), depth=depth).bmu_ranks
    assert ranks.tolist() == project_bruteforce(samples, protos, depth)


@pytest.mark.parametrize("spread", [0.0, 0.25])
def test_project_with_overflowing_norms_matches_bruteforce(spread):
    # |x|^2 overflows float64 but no difference does, so there is no error and
    # no numpy warning; spread prototypes make every unit a candidate
    rng = np.random.default_rng(4)
    k, d, n = 12, 3, 40
    protos = 1.2e154 * (1.0 + spread * rng.uniform(-1.0, 1.0, (k, d)))
    samples = protos[rng.integers(0, k, n)] + 1e150 * rng.normal(size=(n, d))
    with np.errstate(over="ignore"):
        assert np.isinf((samples * samples).sum(axis=1)).all()
    cb = CodeBook(protos, MapGrid(3, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for depth in (1, 2, k):
            ranks = project(cb, Dataset(samples), depth=depth).bmu_ranks
            assert ranks.tolist() == project_bruteforce(samples, protos, depth)


@pytest.mark.parametrize("far", ["all", "one prototype"])
def test_project_rejects_float64_overflow(far):
    rng = np.random.default_rng(5)
    protos, samples = rng.normal(size=(6, 2)), rng.normal(size=(10, 2))
    if far == "all":
        protos, samples = protos * 1e160, samples * 1e160
    else:  # the nearest units are fine, one distance of every sample overflows
        protos[4] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow float64"):
            project(CodeBook(protos, MapGrid(2, 3)), Dataset(samples), depth=1)


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 300),
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    chunk=st.sampled_from([1, 7, 40, None]),
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from(["C", "F", "F rows"]),
)
def test_distance_kernel_matches_numpy_sum(d, shape, chunk, seed, order):
    # the kernel replays numpy's pairwise summation order column by column; a
    # numpy whose reduction order differs must fail here, not shift metrics.
    # The bits do not depend on the operands' memory order: "F rows" is a row
    # slice of column-major samples, as the pair scan's leaves pass them
    rng = np.random.default_rng(seed)
    b, n = shape
    a = rng.normal(size=(b, d)) * rng.uniform(0.0, 10.0, size=d)
    p = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    rows, units = rng.integers(0, b, size=3 * b), rng.integers(0, n, size=3 * b)
    full, paired = ((a[:, None, :] - p[None, :, :]) ** 2).sum(-1), ((a[rows] - p[units]) ** 2).sum(-1)
    if order != "C":
        a = np.asfortranarray(np.vstack([a, a]))[b:] if order == "F rows" else np.asfortranarray(a)
        p = np.asfortranarray(p)
    with pytest.MonkeyPatch.context() as mp:
        if chunk:  # small budgets cross chunk boundaries
            mp.setattr(model, "_CHUNK", chunk)
        assert np.array_equal(model.squared_distances(a, p), full)
        assert np.array_equal(model._paired_squared_distances(a, rows, p, units), paired)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 300),
    k=st.integers(1, 1000),
    chunk=st.sampled_from([1, 7, 40]),
    seed=st.integers(0, 2**32 - 1),
)
def test_slab_sum_matches_numpy_sum(d, k, chunk, seed):
    # stacked 8-term slabs over a D x K layout (the trainer's BMU sum) and over
    # output chunks that split the K axis give the bits of a contiguous row sum
    rng = np.random.default_rng(seed)
    terms = rng.normal(size=(k, d)) ** 2 * 10.0 ** rng.integers(-3, 4, size=d)
    columns = np.ascontiguousarray(terms.T)
    assert np.array_equal(model._pairwise_sum(lambda i, j: columns[i:j].copy(), 0, d), terms.sum(axis=-1))
    x, p = rng.normal(size=(1, d)), rng.normal(size=(k, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_CHUNK", chunk)
        assert np.array_equal(model.squared_distances(x, p)[0], ((x - p) ** 2).sum(axis=-1))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 300),
    k=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=129, k=5, seed=0)
@example(d=300, k=200, seed=1)
def test_slab_sum_over_one_reused_buffer_matches_numpy_sum(d, k, seed):
    # the trainer squares into one D x K buffer and sums views of it; the sum
    # spends the buffer's terms, so each round refills it, as each step does
    rng = np.random.default_rng(seed)
    buffer = np.empty((d, k))
    for _ in range(2):
        terms = rng.normal(size=(k, d)) ** 2 * 10.0 ** rng.integers(-3, 4, size=d)
        np.copyto(buffer, terms.T)
        total = model._pairwise_sum(lambda i, j: buffer[i:j], 0, d)
        assert total.tobytes() == terms.sum(axis=-1).tobytes()


def _probed(cb, data, metrics, probes, **params):
    """``evaluate_map`` with ``probes``, {name: compute(evaluation)}, in the registry for the call."""
    with pytest.MonkeyPatch.context() as patch:
        for name, probe in probes.items():
            patch.setitem(REGISTRY, name, MetricSpec(probe))
        return evaluate_map(cb, data, metrics, **params)


def _ranks(depth):
    """A probe: the evaluation's ``project`` ranks at ``depth``."""
    return lambda evaluation: project(evaluation.codebook, evaluation.data, depth=depth).bmu_ranks


@settings(max_examples=80, deadline=None)
@given(
    duplicates=st.booleans(),
    scale=st.sampled_from([1.0, 1e-6, 1e6]),
    offset=st.sampled_from([0.0, 1e8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_project_depth_one_is_first_column_of_depth_two(duplicates, scale, offset, seed):
    # integer-lattice samples and prototypes tie often; an evaluation serves
    # depth-1 calls from the first column of its depth-2 ranks
    rng = np.random.default_rng(seed)
    grid = MapGrid(int(rng.integers(1, 5)), int(rng.integers(2, 5)))
    K, d, n = grid.n_units, int(rng.integers(1, 5)), int(rng.integers(1, 60))
    lattice = rng.integers(-2, 3, (K, d))
    if duplicates:
        lattice = lattice[rng.integers(0, max(1, K // 2), K)]
    protos = offset + scale * lattice.astype(float)
    samples = offset + scale * rng.integers(-3, 4, (n, d)).astype(float)
    cb, data = CodeBook(protos, grid), Dataset(samples)
    bmu = project(cb, data, depth=1).bmu
    assert np.array_equal(bmu, project(cb, data, depth=2).bmu)
    assert bmu.tolist() == [ranks[0] for ranks in project_bruteforce(samples, protos, 1)]
    assert np.array_equal(_probed(cb, data, ["bmu"], {"bmu": _ranks(1)})["bmu"][:, 0], bmu)


def test_project_in_an_evaluation_equals_direct_calls_at_every_depth(monkeypatch):
    # the first call keeps depth-2 ranks, and depth 1 and depth 2, the depths
    # of the registry's calls, read them; integer lattices tie often
    rng = np.random.default_rng(8)
    cb = CodeBook(rng.integers(-2, 3, (6, 2)).astype(float), MapGrid(2, 3))
    data = Dataset(rng.integers(-3, 4, (50, 2)).astype(float))
    direct = {depth: project(cb, data, depth=depth).bmu_ranks for depth in (1, 2)}
    depths = []
    rank_units = model._rank_units

    def counting_rank_units(codebook, data, depth):
        depths.append(depth)
        return rank_units(codebook, data, depth)

    monkeypatch.setattr(model, "_rank_units", counting_rank_units)
    got = _probed(cb, data, [1, 2], {depth: _ranks(depth) for depth in (1, 2)})
    for depth, ranks in got.items():
        assert ranks.dtype == direct[depth].dtype and np.array_equal(ranks, direct[depth]), depth
        assert not ranks.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        got[1][0] = 0
    assert depths == [2]


@settings(max_examples=40, deadline=None)
@given(
    topology=st.sampled_from(TOPOLOGIES),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    n=st.integers(1, 300),
    seed=st.integers(0, 10_000),
)
def test_distortion_pass_ranks_match_bruteforce_on_tied_integer_data(topology, rows, cols, n, seed):
    # integer lattices tie often; a one-unit map ranks to depth 1. Inside an
    # evaluation that asks for distortion, project reads these very ranks,
    # and distortion the total of the same kept pass.
    rng = np.random.default_rng(seed)
    grid = MapGrid(rows, cols, topology)
    cb = CodeBook(rng.integers(-2, 3, (grid.n_units, 2)).astype(float), grid)
    data = Dataset(rng.integers(-3, 4, (n, 2)) / 2.0)
    depth = min(2, grid.n_units)
    total, ranks = model._distortion_pass(cb, data, 0.8, GAUSSIAN)
    assert ranks.tolist() == project_bruteforce(data.samples, cb.prototypes, depth)
    with pytest.MonkeyPatch.context() as patch:
        passes = _count_distortion_passes(patch)
        got = _probed(cb, data, [1, depth, "distortion"], {1: _ranks(1), depth: _ranks(depth)}, temperature=0.8)
    assert passes == [(0.8, GAUSSIAN)]
    assert np.array_equal(got[1], ranks[:, :1]) and np.array_equal(got[depth], ranks)
    assert got["distortion"] == float(total) / n


def test_distortion_pass_makes_the_evaluation_ranks_and_total(monkeypatch):
    rng = np.random.default_rng(10)
    cb = CodeBook(rng.integers(-2, 3, (6, 2)).astype(float), MapGrid(2, 3, "hexagonal"))
    data = Dataset(rng.integers(-3, 4, (600, 2)).astype(float))  # three blocks
    direct = (project(cb, data, depth=2).bmu_ranks, distortion(cb, data, 0.6, WINDOW))
    depths = []
    monkeypatch.setattr(model, "_rank_units", lambda *args: depths.append(args[2]))
    for metrics in (["quantization_error", "ranks", "distortion"], ["distortion", "ranks", "quantization_error"]):
        got = _probed(cb, data, metrics, {"ranks": _ranks(2)}, temperature=0.6, kernel="window")
        assert np.array_equal(got["ranks"], direct[0]) and got["distortion"] == direct[1]
    assert depths == []


def _outcomes(cb, data, metrics, temperature):
    """Each ``evaluate_map`` entry at k = 2: a value's repr, or the error's type and message."""
    return {name: value["error"] if isinstance(value, dict) else repr(_jsonable(value))
            for name, value in evaluate_map(cb, data, metrics, 2, temperature).items()}


@pytest.mark.parametrize("case", ["total overflows", "temperature too small"])
def test_an_evaluation_whose_distortion_fails_computes_the_rest_as_without_it(case):
    rng = np.random.default_rng(6)
    if case == "total overflows":  # the inputs of test_distortion_total_overflow_is_an_error
        cb, data = CodeBook(rng.random((9, 4)) * 1e153, MapGrid(3, 3)), Dataset(rng.random((200, 4)) * 1e153)
        temperature, message = 1.0, "ValueError: squared distances overflow float64"
    else:
        cb, data = CodeBook(rng.random((9, 4)), MapGrid(3, 3)), Dataset(rng.random((200, 4)))
        temperature, message = 1e-160, "ValueError: the gaussian kernel cannot weigh map distances 0..4"
    others = [name for name in METRIC_NAMES if name != "distortion" and not REGISTRY[name].needs_labels]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message.removeprefix("ValueError: ")):
            distortion(cb, data, temperature)
        without = _outcomes(cb, data, others, temperature)
        for metrics in (["distortion", *others], [*others, "distortion"]):
            with_distortion = _outcomes(cb, data, metrics, temperature)
            assert with_distortion.pop("distortion").startswith(message)
            assert with_distortion == without
    assert sum(value.startswith("ValueError") for value in without.values()) < len(others) / 2


def _count_distortion_passes(monkeypatch) -> list:
    """Records (temperature, kernel) of every distortion pass, kept or direct."""
    passes = []
    distortion_pass = model._distortion_pass

    def counting_passes(*args):
        passes.append(args[2:])
        return distortion_pass(*args)

    for module in (model, internal):
        monkeypatch.setattr(module, "_distortion_pass", counting_passes)
    return passes


@pytest.mark.parametrize("metrics", [("quantization_error", "distortion", "topographic_error"),
                                     ("distortion", "quantization_error", "topographic_error")])
def test_an_evaluation_whose_distortion_fails_runs_its_pass_once(monkeypatch, metrics):
    # the inputs of test_distortion_total_overflow_is_an_error: the pass's
    # error is kept for distortion, so the N x K pass does not run again
    rng = np.random.default_rng(6)
    cb, data = CodeBook(rng.random((9, 4)) * 1e153, MapGrid(3, 3)), Dataset(rng.random((200, 4)) * 1e153)
    with pytest.raises(ValueError) as failure:
        distortion(cb, data, 1.0)
    direct = {"distortion": f"ValueError: {failure.value}",
              "quantization_error": repr(quantization_error(cb, data)),
              "topographic_error": repr(topographic_error(cb, data))}
    passes = _count_distortion_passes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcomes(cb, data, metrics, 1.0) == direct
    assert passes == [(1.0, GAUSSIAN)]


def _bits(value):
    """A metric value as its type and bytes; a topographic function series by series."""
    if isinstance(value, TopographicFunction):
        series = (value.k, value.tf, value.normalized_k, value.normalized_tf)
        return tuple(None if s is None else (s.dtype.str, s.shape, s.tobytes()) for s in series)
    return type(value), np.float64(value).tobytes()


def _entry(compute, *args):
    """The entry ``evaluate_map`` makes of the call: its value's bits, or ``{"error": "<Type>: <message>"}``."""
    try:
        value = compute(*args)
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"non-finite result {value!r}")
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return _bits(value)


@settings(max_examples=200, deadline=None)
@given(
    topology=st.sampled_from(TOPOLOGIES),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    n=st.integers(1, 12),
    d=st.integers(1, 3),
    scale=st.sampled_from([1.0, 0.5, 1e153, 3e153]),  # 3e153 lattices can overflow a squared distance
    duplicates=st.booleans(),
    labelled=st.booleans(),
    k=st.integers(0, 12),
    temperature=st.one_of(st.sampled_from([1e-160, 0.5, 1.0, 1e153, 1e200]), st.floats(1e-160, 1e200)),
    kernel=st.sampled_from(KERNEL_KINDS),
    metrics=st.lists(st.sampled_from(METRIC_NAMES), min_size=1, max_size=2 * len(METRIC_NAMES)),
    seed=st.integers(0, 2**32 - 1),
)
@example(topology="rectangular", rows=1, cols=1, n=5, d=2, scale=1.0, duplicates=False, labelled=True, k=2,
         temperature=0.5, kernel="gaussian", metrics=list(METRIC_NAMES), seed=0)  # no diameter: KSE fails alone
@example(topology="rectangular", rows=1, cols=2, n=5, d=2, scale=3e153, duplicates=False, labelled=False, k=2,
         temperature=0.5, kernel="gaussian", seed=0,  # the projection overflows, so the scan fails with it
         metrics=["quantization_error", "topographic_error", "trustworthiness", "neighborhood_preservation"])
@example(topology="rectangular", rows=1, cols=2, n=5, d=1, scale=3e153, duplicates=False, labelled=False, k=2,
         temperature=0.5, kernel="gaussian", seed=1,  # the projection holds; the scan's sample distances overflow
         metrics=["quantization_error", "topographic_error", "trustworthiness", "neighborhood_preservation"])
def test_an_evaluation_equals_each_metric_called_alone(topology, rows, cols, n, d, scale, duplicates, labelled,
                                                       k, temperature, kernel, metrics, seed):
    # every evaluate_map entry is the entry of the registry's call outside
    # any evaluation: a bit-equal value, or an error of the same type and
    # message. The evaluation completes at most one N x K pass, distortion's
    # (tried only when distortion is asked for) or a depth-2 _rank_units, and
    # tries at most one sample-pair scan; a pass or scan that raises keeps its
    # error, so _rank_units and _pair_scan are counted before they run.
    # Integer lattices tie often.
    rng = np.random.default_rng(seed)
    grid = MapGrid(rows, cols, topology)
    lattice = rng.integers(-3, 4, (grid.n_units, d))
    if duplicates:
        lattice = lattice[rng.integers(0, max(1, grid.n_units // 2), grid.n_units)]
    cb = CodeBook(scale * lattice.astype(float), grid)
    data = Dataset(scale * rng.integers(-3, 4, (n, d)).astype(float), rng.integers(0, 3, n) if labelled else None)
    k = min(k, n)
    alone = SimpleNamespace(codebook=cb, data=data, k=k, temperature=temperature, kernel=NeighborhoodKernel(kernel))
    assert model._SCOPE.get() is None
    expected = {name: _entry(REGISTRY[name].compute, alone) for name in metrics}

    attempts, passes, ranks, scans = [], [], [], []
    distortion_pass, rank_units, pair_scan = model._distortion_pass, model._rank_units, internal._pair_scan

    def counting_passes(*args):
        attempts.append(args[2:])
        result = distortion_pass(*args)
        passes.append(args[2:])
        return result

    def counting_rank_units(*args):
        ranks.append(args[2])
        return rank_units(*args)

    def counting_scans(*args):
        scans.append(args[2:])
        return pair_scan(*args)

    # not the monkeypatch fixture: hypothesis runs every example in one test call
    with pytest.MonkeyPatch.context() as patch:
        for module in (model, internal):
            patch.setattr(module, "_distortion_pass", counting_passes)
        patch.setattr(model, "_rank_units", counting_rank_units)
        patch.setattr(internal, "_pair_scan", counting_scans)
        got = {name: value if isinstance(value, dict) else _bits(value)
               for name, value in evaluate_map(cb, data, metrics, k, temperature, kernel).items()}
    assert list(got) == list(expected)
    for name in got:
        assert got[name] == expected[name], name
    assert len(attempts) <= ("distortion" in metrics)
    assert len(passes) + sum(depth <= 2 for depth in ranks) <= 1, (passes, ranks)
    assert len(scans) <= 1, scans
    assert model._SCOPE.get() is None


def test_an_unknown_metric_name_raises_before_any_metric_runs(monkeypatch):
    rng = np.random.default_rng(12)
    cb, data = CodeBook(rng.random((6, 2)), MapGrid(2, 3)), Dataset(rng.random((30, 2)))
    calls = []
    monkeypatch.setattr(model, "_rank_units", lambda *args: calls.append("_rank_units"))
    monkeypatch.setattr(internal, "_pair_scan", lambda *args: calls.append("_pair_scan"))
    with pytest.raises(KeyError, match="nope"):
        evaluate_map(cb, data, ["quantization_error", "trustworthiness", "nope", "c_measure"], k=3)
    assert calls == [] and model._SCOPE.get() is None


def test_the_evaluation_scope_is_reset_when_a_metric_is_interrupted(monkeypatch):
    # only an Exception becomes an entry; a KeyboardInterrupt ends the
    # evaluation, and the scope with it
    rng = np.random.default_rng(13)
    cb, data = CodeBook(rng.random((6, 2)), MapGrid(2, 3)), Dataset(rng.random((30, 2)))
    scopes = []

    def interrupted(*args):
        scopes.append(model._SCOPE.get())
        raise KeyboardInterrupt

    monkeypatch.setattr(internal, "topographic_error", interrupted)
    with pytest.raises(KeyboardInterrupt):
        evaluate_map(cb, data, ["quantization_error", "topographic_error", "combined_error"])
    assert len(scopes) == 1 and scopes[0] is not None
    assert model._SCOPE.get() is None


def test_project_depth_k_memory_is_bounded():
    # 30x30, D=16: two gathered (B*K) x D copies alone would be 61 MiB.
    # 10x10, D=1, N=20000: the ranks are 15 MiB; index arrays for blocks
    # sized by K*D rather than by rows would be over 100 MiB.
    rng = np.random.default_rng(6)
    for grid, d, n, limit in ((MapGrid(30, 30, "hexagonal"), 16, 2000, 48), (MapGrid(10, 10), 1, 20000, 32)):
        cb, data = CodeBook(rng.normal(size=(grid.n_units, d)), grid), Dataset(rng.normal(size=(n, d)))
        tracemalloc.start()
        try:
            project(cb, data, depth=grid.n_units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * 2**20


def test_bmu_distances_memory_is_bounded_by_a_chunk():
    # 100,000 x 16 samples are 12.2 MiB: a transposed copy of them peaked at
    # 15.9 MiB; chunks of 65,536 values in one reused buffer hold 3.0 MiB,
    # most of it the N sample indices and the N distances
    rng = np.random.default_rng(7)
    grid = MapGrid(30, 30, "hexagonal")
    cb, data = CodeBook(rng.normal(size=(grid.n_units, 16)), grid), Dataset(rng.normal(size=(100_000, 16)))
    bmus = rng.integers(0, grid.n_units, data.n_samples)
    tracemalloc.start()
    try:
        model.bmu_distances(cb, data, bmus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_init_codebook_permutation_when_counts_match():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(6, 2)))
    cb = init_codebook(data, MapGrid(2, 3), seed=42)
    got = {tuple(row) for row in cb.prototypes}
    expected = {tuple(row) for row in data.samples}
    assert got == expected


def test_init_codebook_deterministic():
    data = Dataset(np.random.default_rng(1).normal(size=(10, 2)))
    a = init_codebook(data, MapGrid(2, 2), seed=7)
    b = init_codebook(data, MapGrid(2, 2), seed=7)
    assert np.array_equal(a.prototypes, b.prototypes)


def test_init_codebook_small_dataset_resamples_rows():
    data = Dataset(np.array([[0.0], [1.0], [2.0]]))
    cb = init_codebook(data, MapGrid(2, 2), seed=0)
    assert cb.prototypes.shape == (4, 1)
    assert all(float(v) in {0.0, 1.0, 2.0} for v in cb.prototypes.ravel())


def test_train_single_point_full_update():
    data = Dataset(np.array([[3.0, -2.0]]))
    config = TrainerConfig(1, 1, t_max=1.0, t_min=1.0, alpha=1.0, iterations=1, seed=9)
    cb = train_som(data, config)
    assert np.array_equal(cb.prototypes, data.samples)


def test_train_deterministic_given_seed():
    data = Dataset(np.random.default_rng(5).random((60, 2)))
    config = TrainerConfig(3, 3, iterations=300, seed=11)
    a = train_som(data, config)
    b = train_som(data, config)
    assert np.array_equal(a.prototypes, b.prototypes)


def test_train_window_kernel_bmu_step_contracts():
    # T < 1 with a window kernel updates only the BMU; each such step must
    # strictly shrink the BMU residual when 0 < alpha < 1. The initial
    # codebook and the drawn sample come from the seeded generator in that order.
    data = Dataset(np.random.default_rng(2).random((20, 2)))
    grid, alpha = MapGrid(2, 2), 0.5
    moved = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        start = init_codebook(data, grid, rng).prototypes
        x = data.samples[int(rng.integers(data.n_samples))]
        b = int(np.argmin(((start - x) ** 2).sum(axis=1)))
        config = TrainerConfig(2, 2, t_max=0.5, t_min=0.5, alpha=alpha, iterations=1, seed=seed, kernel=WINDOW)
        trained = train_som(data, config).prototypes
        others = np.arange(grid.n_units) != b
        assert np.array_equal(trained[others], start[others])
        before = float(np.linalg.norm(x - start[b]))
        if before > 0.0:
            moved += 1
            assert float(np.linalg.norm(x - trained[b])) < before
    assert moved > 0


@pytest.mark.parametrize("kernel", [GAUSSIAN, WINDOW], ids=lambda kernel: kernel.kind)
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("d, chunk", [(1, None), (2, None), (3, None), (9, 7), (5, 47), (16, None), (50, None),
                                      (250, None)])
def test_train_matches_reference_loop(d, chunk, topology, kernel):
    # the slab-sum BMU and the per-block weight tables, each with its own
    # draws, change no bit of the trained codebook; N = 1 and N < K resample
    # the initial rows. A table cap of 7 leaves one step per weight table (the
    # 1x20 chain's 20 distances exceed it); 47 gives tables of 7, 9 and 2
    # steps (3x4 rectangular, 3x4 hexagonal, chain), so the draws split there.
    # The chain's diameter, 19, is large relative to K.
    rng = np.random.default_rng(d)
    cases = [(rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d), 4.0, n) for n in (1, 5, 40)]
    # every cyclic shift of v lies at the same exact distance from the
    # constant row, so the summation order alone picks the BMU among them; at
    # T = 0.5 the window kernel moves only the BMU, and seed 6 leaves the
    # constant row out of the initial codebook (at D = 1 every row is the same)
    v = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4, size=d)
    tied = np.array([np.roll(v, s) for s in range(12)] + [np.full(d, v.mean())])
    cases = [case + (shape,) for shape in ((3, 4), (1, 20)) for case in cases]
    if d > 1:
        assert not (init_codebook(Dataset(tied), MapGrid(3, 4), 6).prototypes == tied[-1]).all(axis=1).any()
        cases.append((tied, 0.5, 6, (3, 4)))
    for samples, t_max, seed, shape in cases:
        data = Dataset(samples)
        config = TrainerConfig(*shape, topology, t_max=t_max, t_min=0.5, alpha=0.3, iterations=60, seed=seed,
                               kernel=kernel)
        with pytest.MonkeyPatch.context() as mp:
            if chunk:
                mp.setattr(model, "_TABLE", chunk)
            trained = train_som(data, config)
        assert trained.prototypes.tobytes() == train_som_reference(data, config).tobytes()


@pytest.mark.parametrize("kernel", [GAUSSIAN, WINDOW], ids=lambda kernel: kernel.kind)
def test_train_at_a_huge_temperature_matches_reference_loop(kernel):
    # from T = 1e200 down to about 1e154 every kernel weight is exactly 1.0
    # (T^2 is inf), so every unit moves by the full learning rate; the weight
    # tables must not turn that T^2 into an overflow error or a warning
    data = Dataset(np.random.default_rng(5).normal(size=(30, 3)))
    for t_min in (1.0, 1e180):
        config = TrainerConfig(3, 4, "hexagonal", t_max=1e200, t_min=t_min, alpha=0.3, iterations=80, seed=2,
                               kernel=kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trained = train_som(data, config)
        assert trained.prototypes.tobytes() == train_som_reference(data, config).tobytes()


BUFSIZES = [16, 8192, 1 << 20]  # numpy's minimum, its default and a large one


def _at_bufsize(size, call):
    """``call()`` under an outer ufunc buffer of ``size`` elements, which must be the size again afterwards."""
    old = np.setbufsize(size)
    try:
        result = call()
        assert np.getbufsize() == size
    finally:
        np.setbufsize(old)
    return result


@pytest.mark.parametrize("d", [1, 7, 16, 130])  # 130 coordinates split in halves
def test_squared_distances_bits_do_not_depend_on_the_ufunc_buffer(d):
    rng = np.random.default_rng(d)
    x = rng.integers(-3, 4, size=(300, d)) * 10.0 ** rng.integers(-3, 4, size=d)  # ties among the distances
    protos = np.concatenate([x[:7], rng.normal(size=(60, d))])
    outs = [_at_bufsize(size, lambda: model.squared_distances(x, protos)).tobytes() for size in BUFSIZES]
    assert outs[0] == outs[1] == outs[2]


def test_distortion_pass_bits_do_not_depend_on_the_ufunc_buffer():
    rng = np.random.default_rng(3)
    data = Dataset(rng.integers(0, 4, size=(600, 16)).astype(float))  # ties: argmin picks the lowest unit
    cb = CodeBook(np.concatenate([data.samples[:30], rng.normal(size=(70, 16))]), MapGrid(10, 10, "hexagonal"))
    outs = []
    for size in BUFSIZES:
        total, ranks = _at_bufsize(size, lambda: model._distortion_pass(cb, data, 1.5, GAUSSIAN))
        outs.append((total.tobytes(), ranks.tobytes()))
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("shape", [(2, 3, "rectangular"), (30, 30, "hexagonal")])  # K below and above 16
def test_train_bits_do_not_depend_on_the_ufunc_buffer(shape):
    data = Dataset(np.random.default_rng(4).normal(size=(200, 16)))
    config = TrainerConfig(*shape, t_min=0.5, iterations=300, seed=1)
    expected = train_som_reference(data, config).tobytes()
    for size in BUFSIZES:
        assert _at_bufsize(size, lambda: train_som(data, config)).prototypes.tobytes() == expected


@pytest.mark.parametrize("size", BUFSIZES)
def test_the_small_ufunc_buffer_scope_restores_the_callers_size(size):
    # outside any errstate, whose exit restores the size on numpy 2 but not on 1.24
    def leave(error):
        with pytest.raises(KeyError) if error else contextlib.nullcontext():
            with model._small_ufunc_buffer():
                assert np.getbufsize() == 16
                if error:
                    raise KeyError("left early")

    _at_bufsize(size, lambda: leave(False))
    _at_bufsize(size, lambda: leave(True))


@pytest.mark.parametrize("size", BUFSIZES)
def test_an_overflow_error_restores_the_callers_ufunc_buffer(size):
    rng = np.random.default_rng(5)
    data = Dataset(rng.normal(size=(20, 3)) * 1e160)

    def raises(call):
        with pytest.raises(ValueError, match="overflow float64"):
            call()

    _at_bufsize(size, lambda: raises(lambda: model.squared_distances(data.samples, data.samples[:4])))
    _at_bufsize(size, lambda: raises(lambda: train_som(data, TrainerConfig(2, 2, iterations=10))))


def test_train_square_fixture_stays_organized():
    # reference fixture: 10x10 map, 5000 uniform-square samples, default schedule
    data = Dataset(np.random.default_rng(0).random((5000, 2)))
    cb = train_som(data, TrainerConfig(10, 10, seed=0))
    from sommetrics import topographic_error

    assert topographic_error(cb, data) <= 0.15


def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(2, 2, t_max=0.1, t_min=1.0)
    with pytest.raises(ValueError):
        TrainerConfig(2, 2, t_min=0.0)
    with pytest.raises(ValueError):
        TrainerConfig(2, 2, alpha=0.0)
    with pytest.raises(ValueError):
        TrainerConfig(2, 2, iterations=0)
    with pytest.raises(ValueError, match="grid dimensions"):
        TrainerConfig(0, 2)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        TrainerConfig(2, 2, seed=-1)
    # a float reached train_som and ended in a bare TypeError; numpy ints still pass
    with pytest.raises(ValueError, match=r"^iterations must be an integer, got 2\.5$"):
        TrainerConfig(2, 2, iterations=2.5)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
        TrainerConfig(2, 2, seed=1.5)
    config = TrainerConfig(2, 2, iterations=np.int64(3), seed=np.int32(1))
    assert train_som(Dataset(np.arange(8.0).reshape(4, 2)), config).prototypes.shape == (4, 2)


@pytest.mark.parametrize("name", ["t_max", "t_min", "alpha"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_trainer_config_refuses_non_finite_parameters(name, value):
    # with an infinite t_max the last temperature is t_max * 0 = NaN, which
    # must not be blamed on t_min; an infinite alpha would train NaN prototypes
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        TrainerConfig(2, 3, **{name: value})


def test_trainer_config_refuses_t_min_the_gaussian_cannot_weigh():
    # at 1e-158, (3 / T)^2 overflows float64 on a 2x3 map; at 1e-170 even T^2 underflows to 0
    for t_min in (1e-158, 1e-170):
        with pytest.raises(ValueError, match=f"t_min={t_min}"):
            TrainerConfig(2, 3, t_min=t_min)
    with pytest.raises(ValueError, match="t_min"):
        TrainerConfig(1, 1, t_max=1.0, t_min=1e-170)  # distance 0 only: 0 / 0
    TrainerConfig(1, 1, t_max=1.0, t_min=1e-160)  # T^2 is subnormal but not 0
    TrainerConfig(2, 3, t_min=1e-158, kernel=WINDOW)
    data = Dataset(np.random.default_rng(0).random((50, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codebook = train_som(data, TrainerConfig(2, 3, t_max=1.0, t_min=1e-153, iterations=200))
    assert np.all(np.isfinite(codebook.prototypes))


def test_trainer_config_checks_t_min_without_the_distance_matrix():
    # the check weighs map distances 0..diameter and needs only the
    # diameter; on a 100x100 hexagonal map the K x K matrix would be 763 MiB
    _offset_tables.cache_clear()
    distance_matrix.cache_clear()
    tracemalloc.start()
    try:
        TrainerConfig(100, 100, "hexagonal")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_train_som_memory_is_bounded():
    # 70,000 steps: one 65,536-element list of Python ints would be 2.5 MiB,
    # and weight tables of 65,536 entries 0.5 MiB each. Tables of at most
    # 8,192 entries, each with its indices drawn and made ints, hold ~1 MiB.
    data = Dataset(np.random.default_rng(0).normal(size=(1000, 2)))
    config = TrainerConfig(30, 30, "hexagonal", iterations=70_000, seed=0)
    tracemalloc.start()
    try:
        train_som(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_dataset_label_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 1)), labels=np.array([0, 1]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), labels=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), labels=np.array([-1, 0]))
    ds = Dataset(np.zeros((3, 1)), labels=np.array([0, 2, 1]))
    assert ds.n_classes == 3


def test_zero_column_matrices_rejected():
    with pytest.raises(ValueError, match=r"^samples must be a nonempty 2-D matrix, got shape \(5, 0\)$"):
        Dataset(np.zeros((5, 0)))
    with pytest.raises(ValueError, match=r"^prototypes must be a nonempty 2-D matrix, got shape \(4, 0\)$"):
        CodeBook(np.zeros((4, 0)), MapGrid(2, 2))


def test_codebook_row_count_checked():
    with pytest.raises(ValueError, match="4 rows"):
        CodeBook(np.zeros((4, 2)), MapGrid(1, 3))
    with pytest.raises(ValueError, match="2-D matrix"):
        CodeBook(np.zeros((2, 2, 2)), MapGrid(1, 2))
