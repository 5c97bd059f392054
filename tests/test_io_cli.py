import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sommetrics as sm
from sommetrics import dataio
from sommetrics.cli import main
from sommetrics.dataio import load_labels, load_matrix, save_matrix
from sommetrics.demos import _ORGANIZATION_METRICS, _score_maps, run_demo
from sommetrics.errors import ConfigError, InputError
from sommetrics.figures import render_map_svg
from sommetrics.report import EvaluationConfig, _jsonable, evaluate

from oracles import _data_lines_reference, load_labels_reference, load_matrix_reference, save_matrix_reference


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def fixture_files(tmp_path):
    """Small ordered 3x3 map on 2-D data with labels."""
    rng = np.random.default_rng(42)
    coords = np.array([[r, c] for r in range(3) for c in range(3)], dtype=float)
    samples = np.repeat(coords, 4, axis=0) + rng.normal(scale=0.05, size=(36, 2))
    labels = np.repeat(np.arange(9) % 3, 4)
    codebook_path = tmp_path / "codebook.csv"
    data_path = tmp_path / "data.csv"
    labels_path = tmp_path / "labels.txt"
    save_matrix(codebook_path, coords)
    save_matrix(data_path, samples)
    labels_path.write_text("\n".join(str(v) for v in labels) + "\n")
    return codebook_path, data_path, labels_path, coords, samples, labels


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(17, 3)) * 1e3
    path = tmp_path / "m.csv"
    save_matrix(path, matrix)
    again = load_matrix(path)
    assert np.all(np.abs(again - matrix) <= 1e-12 * np.abs(matrix))
    assert np.array_equal(again, matrix)  # 17 significant digits round-trip float64


def test_load_matrix_reports_file_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(InputError, match=r"bad\.csv:2"):
        load_matrix(path)


def test_load_matrix_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(InputError, match="expected 2 columns"):
        load_matrix(path)


def test_load_matrix_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_matrix(tmp_path / "absent.csv")


def test_load_labels_round_trip(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n2\n1\n")
    assert load_labels(path).tolist() == [0, 2, 1]


def test_load_labels_rejects_non_integers(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\nx\n")
    with pytest.raises(InputError, match=r"labels\.txt:2"):
        load_labels(path)


# every line break str.splitlines knows, "\r\n" and a lone "\r" included;
# padding is whitespace that breaks no line
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_PADS = st.sampled_from(["", " ", "\t", "\xa0", "\u3000"])
_BLANKS = st.lists(_PADS, max_size=3).map("".join)


def _padded(tokens):
    return st.tuples(_PADS, tokens, _PADS).map("".join)


@st.composite
def _file_texts(draw, good_row, bad_row):
    """Nonblank and blank lines, at most one bad line anywhere, any line breaks, maybe no final one."""
    lines = draw(st.lists(st.one_of(good_row, _BLANKS), max_size=40))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad_row))
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text[:-len(breaks[-1])] if breaks and draw(st.booleans()) else text


@st.composite
def _matrix_texts(draw):
    width = draw(st.integers(1, 4))
    field = _padded(st.one_of(st.floats().map(repr), st.sampled_from(
        ["-0", "1e3", "inf", "-inf", "nan", "1_000", ".5", "5.", "+2", "1e400", "1e-400"])))
    good_row = st.lists(field, min_size=width, max_size=width).map(",".join)
    ragged = st.sampled_from([w for w in (width - 1, width + 1) if w]).flatmap(
        lambda w: st.lists(field, min_size=w, max_size=w)).map(",".join)
    not_numeric = st.tuples(good_row, st.sampled_from(["oops", "", "0x10", "1,,2"])).map(",".join)
    return draw(_file_texts(good_row, st.one_of(ragged, not_numeric)))


_label_texts = _file_texts(
    _padded(st.one_of(st.integers(-10**6, 10**6).map(str), st.sampled_from(["+3", "-0", "1_0", "007"]),
                      # int64's ends, and beyond them a label refused at its line
                      st.sampled_from([2**63 - 1, -2**63, 2**63, -2**63 - 1, 10**30]).map(str))),
    st.sampled_from(["x", "1.5", "1 2", "0x10"]))


def _assert_same_load(load, reference, path):
    """Same array (bytes, shape, dtype, C order) or same exception (type, message)."""
    try:
        expected = reference(path)
    except Exception as exc:
        with pytest.raises(type(exc)) as caught:
            load(path)
        assert type(caught.value) is type(exc) and str(caught.value) == str(exc)
        return
    got = load(path)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.flags.c_contiguous and expected.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()


def _open_reading(size):
    """``open`` for text whose decoder reads ``size`` bytes at a time."""
    def opener(path):
        file = open(path)
        file._CHUNK_SIZE = size
        return file
    return opener


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(_matrix_texts(), _BLANKS), read=st.sampled_from([1, 7, 64]))
def test_load_matrix_matches_whole_text_oracle(tmp_path, text, read):
    # decoder reads of 1, 7 and 64 bytes split "\r\n" pairs, characters,
    # lines and rows
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "open", _open_reading(read), raising=False)
        _assert_same_load(load_matrix, load_matrix_reference, path)


def _int64_labels_reference(path):
    """``load_labels_reference``, except that the first label that is not an integer or not in int64 is refused.

    The whole-text oracle converts its labels only at the end, so a label
    outside int64 raises numpy's ``OverflowError`` there, after any later
    non-integer line.
    """
    path = Path(path)
    for lineno, line in _data_lines_reference(path, "labels"):
        try:
            label = int(line)
        except ValueError:
            break  # the oracle refuses this line
        if not -2**63 <= label < 2**63:
            raise InputError(f"{path}:{lineno}: label outside int64: {line!r}")
    return load_labels_reference(path)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(_label_texts, _BLANKS), read=st.sampled_from([1, 7, 64]))
def test_load_labels_matches_whole_text_oracle(tmp_path, text, read):
    path = tmp_path / "labels.txt"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "open", _open_reading(read), raising=False)
        _assert_same_load(load_labels, _int64_labels_reference, path)


@pytest.mark.parametrize("label", [str(2**63), str(-2**63 - 1), "9" * 30])
def test_load_labels_refuses_a_label_outside_int64_at_its_line(tmp_path, label):
    path = tmp_path / "labels.txt"
    path.write_text(f"0\n{2**63 - 1}\n{-2**63}\n{label}\nx\n{label}\n")
    with pytest.raises(InputError) as caught:
        load_labels(path)
    assert str(caught.value) == f"{path}:4: label outside int64: {label!r}"


def test_load_matrix_memory_is_bounded(tmp_path):
    # the whole text, its line list and a list of float lists peaked at 7.5x
    # the result; blocks of parsed rows and their join peaked near 2x
    path = tmp_path / "big.csv"
    save_matrix(path, np.random.default_rng(4).normal(size=(50_000, 16)))
    tracemalloc.start()
    try:
        matrix = load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.shape == (50_000, 16)
    assert peak < 2 * matrix.nbytes + 2**20, (peak, matrix.nbytes)


def test_content_hash_reads_the_matrix_without_a_copy():
    # a tobytes() copy of the 6.1 MiB matrix was the peak; the hash reads the
    # contiguous array's buffer
    matrix = np.random.default_rng(4).normal(size=(50_000, 16))
    tracemalloc.start()
    try:
        digest = dataio.content_hash(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(matrix.tobytes()).hexdigest()
    assert peak < 0.5 * 2**20, peak


def test_load_matrix_memory_is_one_growing_result(tmp_path):
    # np.fromiter grows the result in place of joined blocks (2.02x the result)
    path = tmp_path / "big.csv"
    save_matrix(path, np.random.default_rng(4).normal(size=(50_000, 16)))
    tracemalloc.start()
    try:
        matrix = load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.shape == (50_000, 16)
    assert peak < 1.5 * matrix.nbytes + 2**20, (peak, matrix.nbytes)


def test_load_matrix_refuses_a_one_value_row_at_its_line(tmp_path):
    # np.fromiter would broadcast the one value across the row
    path = tmp_path / "short.csv"
    path.write_text("1,2\n3,4\n5\n6,7\n")
    with pytest.raises(InputError) as caught:
        load_matrix(path)
    assert str(caught.value) == f"{path}:3: expected 2 columns, found 1"


_SAVED_FLOATS = st.one_of(st.floats(width=64), st.sampled_from(
    [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.2250738585072e-308, 1e308, -1.7976931348623157e308]))


@st.composite
def _saved_matrices(draw):
    """Matrices of at least one row: n x m, 1 x n and n x 1, and 1-D and 0-d arrays."""
    shape = draw(st.sampled_from([(3, 4), (1, 5), (5, 1), (1, 1), (5,), ()]))
    values = draw(st.lists(_SAVED_FLOATS, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=float).reshape(shape)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix=_saved_matrices(), name=st.sampled_from(["m.csv", "m.csv.gz", "m.bz2", "m.xz"]))
def test_save_matrix_matches_whole_text_writer(tmp_path, matrix, name):
    # a path ending in .gz, .bz2 or .xz is still written as plain text
    path, expected = tmp_path / name, tmp_path / "expected.csv"
    save_matrix(path, matrix)
    save_matrix_reference(expected, matrix)
    assert path.read_bytes() == expected.read_bytes()


def test_save_matrix_memory_is_one_row(tmp_path):
    # the whole text and its line list peaked at 48.9 MiB for this 6.1 MiB matrix
    matrix = np.random.default_rng(4).normal(size=(50_000, 16))
    tracemalloc.start()
    try:
        save_matrix(tmp_path / "big.csv", matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def _decode_error(raw: bytes) -> str:
    with pytest.raises(UnicodeDecodeError) as caught:
        raw.decode("utf-8")
    return str(caught.value)


@pytest.mark.parametrize("before", ["bad_row", "blank"])
@pytest.mark.parametrize("load", [load_matrix, load_labels], ids=["load_matrix", "load_labels"])
def test_undecodable_byte_wins_and_names_its_position_in_the_file(tmp_path, load, before):
    # the byte sits past the text decoder's first reads, after a bad row or
    # only blank lines: the decode error still wins, with its position in the
    # whole file
    lines = "1\nx\n" + "1\n" * 6000 if before == "bad_row" else " \n" * 6000
    raw = lines.encode() + b"\xff\n2\n"
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "open", _open_reading(7), raising=False)
        with pytest.raises(InputError) as caught:
            load(path)
    assert str(caught.value) == f"{path}: {_decode_error(raw)}"
    assert f"in position {len(lines)}:" in str(caught.value)


def test_cli_evaluate_load_labels_outside_int64_is_one_input_line(runner, fixture_files):
    # exit 1 naming the file and the first such label's line, not a computation error
    codebook_path, data_path, labels_path, _, _, _ = fixture_files
    labels_path.write_text("0\n99999999999999999999\n-99999999999999999999\n" + "1\n" * 33)
    result = runner.invoke(main, _evaluate_args(codebook_path, data_path, "purity", ["--labels", str(labels_path)]))
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"error: input: {labels_path}:2: label outside int64: '99999999999999999999'"]
    labels_path.write_bytes(b"0\n99999999999999999999\n\xff\n")  # a decode error anywhere in the file wins
    result = runner.invoke(main, _evaluate_args(codebook_path, data_path, "purity", ["--labels", str(labels_path)]))
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"error: input: {labels_path}: {_decode_error(labels_path.read_bytes())}"]


@pytest.mark.parametrize("command, bad", [("evaluate", "codebook"), ("evaluate", "data"), ("evaluate", "labels"),
                                          ("train", "data")])
def test_cli_undecodable_file_is_one_input_line(runner, fixture_files, tmp_path, command, bad):
    # an unparsable file is exit 1 for both commands, named by the path as given
    codebook_path, data_path, labels_path, _, _, _ = fixture_files
    named = {"codebook": codebook_path, "data": data_path, "labels": labels_path}[bad]
    raw = named.read_bytes() + b"oops\n\xff\n"  # a bad row first: the decode error still wins
    named.write_bytes(raw)
    if command == "evaluate":
        args = _evaluate_args(codebook_path, data_path, "purity", ["--labels", str(labels_path)])
    else:
        args = ["train", "--data", str(data_path), "--rows", "2", "--cols", "2", "--out", str(tmp_path / "cb.csv")]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"error: input: {named}: {_decode_error(raw)}"]


# ---------------------------------------------------------------------------
# evaluate (library level)
# ---------------------------------------------------------------------------

def test_evaluate_matches_direct_library_calls(fixture_files):
    codebook_path, data_path, labels_path, coords, samples, labels = fixture_files
    names = (
        "quantization_error", "distortion", "topographic_error", "combined_error",
        "trustworthiness", "neighborhood_preservation", "topographic_product",
        "kruskal_shepard_error", "c_measure",
    )
    config = EvaluationConfig(
        codebook_path=str(codebook_path), data_path=str(data_path),
        rows=3, cols=3, metrics=names, k=2, temperature=0.5,
    )
    report = evaluate(config)
    cb = sm.CodeBook(coords, sm.MapGrid(3, 3))
    data = sm.Dataset(samples)
    expected = {
        "quantization_error": sm.quantization_error(cb, data),
        "distortion": sm.distortion(cb, data, 0.5),
        "topographic_error": sm.topographic_error(cb, data),
        "combined_error": sm.combined_error(cb, data),
        "trustworthiness": sm.trustworthiness(cb, data, 2),
        "neighborhood_preservation": sm.neighborhood_preservation(cb, data, 2),
        "topographic_product": sm.topographic_product(cb),
        "kruskal_shepard_error": sm.kruskal_shepard_error(cb, data),
        "c_measure": sm.c_measure(cb, data),
    }
    for name in names:
        assert report.metrics[name] == expected[name]  # bit-for-bit
    assert not report.failed


def test_evaluate_partial_failure_keeps_other_metrics(fixture_files):
    codebook_path, data_path, _, _, _, _ = fixture_files
    config = EvaluationConfig(
        codebook_path=str(codebook_path), data_path=str(data_path),
        rows=3, cols=3, metrics=("quantization_error", "trustworthiness"), k=30,
    )
    report = evaluate(config)  # k too large for N=36 -> error entry
    assert isinstance(report.metrics["quantization_error"], float)
    assert "error" in report.metrics["trustworthiness"]
    assert report.failed == ["trustworthiness"]


def test_evaluate_projects_once_for_label_metrics(fixture_files, monkeypatch):
    # one N x K pass per evaluation: distortion's pass when distortion is
    # requested, which then also gives the ranks; else one _rank_units call
    codebook_path, data_path, labels_path, _, _, _ = fixture_files
    calls, passes = [], []
    rank_units, distortion_pass = sm.model._rank_units, sm.model._distortion_pass

    def counting_rank_units(*args):
        calls.append(args[2])
        return rank_units(*args)

    def counting_passes(*args):
        passes.append(args[2])
        return distortion_pass(*args)

    monkeypatch.setattr(sm.model, "_rank_units", counting_rank_units)
    for module in (sm.model, sm.internal):
        monkeypatch.setattr(module, "_distortion_pass", counting_passes)
    config = EvaluationConfig(
        codebook_path=str(codebook_path), data_path=str(data_path), labels_path=str(labels_path),
        rows=3, cols=3, temperature=0.5,
        metrics=("quantization_error", "distortion", "topographic_error", "combined_error",
                 "topographic_product", "topographic_function", "purity", "clustering_accuracy",
                 "class_scatter_index"),
    )
    report = evaluate(config)
    assert not report.failed
    assert (calls, passes) == ([], [0.5])

    config.metrics = tuple(name for name in config.metrics if name != "distortion")
    calls.clear()
    passes.clear()
    report = evaluate(config)
    assert not report.failed
    assert (calls, passes) == ([2], [])

    # with all metrics: still one N x K pass, and one sample-pair scan for all four pair metrics
    scans = []
    pair_scan = sm.internal._pair_scan

    def counting_scans(*args):
        scans.append(args[2:])
        return pair_scan(*args)

    monkeypatch.setattr(sm.internal, "_pair_scan", counting_scans)
    calls.clear()
    passes.clear()
    config.metrics, config.k = sm.METRIC_NAMES, 2
    report = evaluate(config)
    assert not report.failed
    assert (calls, passes) == ([], [0.5])
    assert scans == [(2, True, True)]


def test_evaluate_all_metrics_equal_direct_calls_on_ties(tmp_path):
    # prototypes on an integer lattice and samples on a half-integer one:
    # many samples lie exactly between two or four units; a 4x3 map has a
    # normalized topographic function
    rng = np.random.default_rng(3)
    protos = np.array([[r, c] for r in range(4) for c in range(3)], dtype=float)
    samples = np.column_stack([rng.integers(0, 7, 40), rng.integers(0, 5, 40)]) / 2.0
    labels = rng.integers(0, 3, 40)
    paths = [tmp_path / name for name in ("codebook.csv", "data.csv", "labels.txt")]
    save_matrix(paths[0], protos)
    save_matrix(paths[1], samples)
    paths[2].write_text("\n".join(map(str, labels)) + "\n")
    config = EvaluationConfig(codebook_path=str(paths[0]), data_path=str(paths[1]), labels_path=str(paths[2]),
                              rows=4, cols=3, metrics=sm.METRIC_NAMES, k=3, temperature=0.5)
    report = evaluate(config)
    assert not report.failed
    assert sm.model._SCOPE.get() is None

    def fresh():
        return sm.CodeBook(protos.copy(), sm.MapGrid(4, 3)), sm.Dataset(samples.copy(), labels.copy())

    expected = {
        "quantization_error": sm.quantization_error(*fresh()),
        "distortion": sm.distortion(*fresh(), 0.5),
        "topographic_error": sm.topographic_error(*fresh()),
        "combined_error": sm.combined_error(*fresh()),
        "trustworthiness": sm.trustworthiness(*fresh(), 3),
        "neighborhood_preservation": sm.neighborhood_preservation(*fresh(), 3),
        "topographic_product": sm.topographic_product(fresh()[0]),
        "kruskal_shepard_error": sm.kruskal_shepard_error(*fresh()),
        "c_measure": sm.c_measure(*fresh()),
        "purity": sm.purity(sm.project(*fresh(), depth=1).bmu, labels),
        "clustering_accuracy": sm.clustering_accuracy(sm.project(*fresh(), depth=1).bmu, labels),
        "class_scatter_index": sm.class_scatter_index(*fresh()),
    }
    for name, value in expected.items():
        assert report.metrics[name] == value, name  # bit for bit
    tf, direct = report.metrics["topographic_function"], sm.topographic_function(*fresh())
    assert tf.normalized_tf is not None
    for series in ("k", "tf", "normalized_k", "normalized_tf"):
        assert np.array_equal(getattr(tf, series), getattr(direct, series)), series

    def assert_evaluate_map_agrees(config, report):
        """evaluate_map, on the matrices loaded from the config's files, gives the report's entries in order."""
        cb = sm.CodeBook(load_matrix(paths[0]), sm.MapGrid(4, 3))
        data = sm.Dataset(load_matrix(paths[1]), load_labels(paths[2]))
        entries = sm.evaluate_map(cb, data, config.metrics, config.k, config.temperature, config.kernel)
        assert [(name, repr(_jsonable(value))) for name, value in entries.items()] == \
            [(name, repr(_jsonable(value))) for name, value in report.metrics.items()]

    assert_evaluate_map_agrees(config, report)

    # the scope ends with the evaluation, also when a metric raised
    config.metrics, config.k = ("trustworthiness", "quantization_error"), 30
    report = evaluate(config)
    assert report.failed == ["trustworthiness"]
    assert sm.model._SCOPE.get() is None
    assert_evaluate_map_agrees(config, report)


PAIR_METRICS = ("trustworthiness", "neighborhood_preservation", "kruskal_shepard_error", "c_measure")


def _count_pair_scans(monkeypatch) -> list:
    scans = []
    pair_scan = sm.internal._pair_scan

    def counting_scans(*args):
        scans.append(args[2:])
        return pair_scan(*args)

    monkeypatch.setattr(sm.internal, "_pair_scan", counting_scans)
    return scans


def _direct_entry(name, cb, data, k):
    """A pair metric's value from a direct call, or the report entry of its error."""
    try:
        return getattr(sm, name)(cb, data, *([k] if name in PAIR_METRICS[:2] else []))
    except ValueError as exc:
        return {"error": f"ValueError: {exc}"}


@pytest.mark.parametrize("case, failed", [
    ("bad_k", ["trustworthiness", "neighborhood_preservation"]),
    ("identical_samples", ["kruskal_shepard_error"]),
    ("one_unit_map", ["kruskal_shepard_error"]),
])
def test_evaluate_pair_metric_errors_stay_per_metric(tmp_path, monkeypatch, case, failed):
    # one fused scan serves the pair metrics whose own checks pass; the
    # others fail with the error string of a direct call
    rng = np.random.default_rng(8)
    rows, k = 3, 2
    samples, protos = rng.normal(size=(30, 2)), rng.normal(size=(9, 2))
    if case == "bad_k":
        k = 15  # k must stay below N/2
    elif case == "identical_samples":
        samples = np.tile(samples[:1], (30, 1))
    else:
        rows, protos = 1, protos[:1]
    save_matrix(tmp_path / "codebook.csv", protos)
    save_matrix(tmp_path / "data.csv", samples)
    scans = _count_pair_scans(monkeypatch)
    report = evaluate(EvaluationConfig(codebook_path=str(tmp_path / "codebook.csv"),
                                       data_path=str(tmp_path / "data.csv"), rows=rows, cols=rows,
                                       metrics=PAIR_METRICS, k=k))
    assert report.failed == failed
    assert len(scans) == 1
    cb, data = sm.CodeBook(protos, sm.MapGrid(rows, rows)), sm.Dataset(samples)
    for name in PAIR_METRICS:
        assert report.metrics[name] == _direct_entry(name, cb, data, k), name


def test_evaluate_kse_alone_runs_no_trust_work(fixture_files, monkeypatch):
    codebook_path, data_path, _, coords, samples, _ = fixture_files
    scans = _count_pair_scans(monkeypatch)
    monkeypatch.setattr(sm.internal, "_np_trust_penalties", None)  # any trust/NP work would raise
    report = evaluate(EvaluationConfig(codebook_path=str(codebook_path), data_path=str(data_path),
                                       rows=3, cols=3, metrics=("kruskal_shepard_error",), k=2))
    assert not report.failed
    assert scans == [(None, True, False)]
    assert report.metrics["kruskal_shepard_error"] == sm.kruskal_shepard_error(
        sm.CodeBook(coords, sm.MapGrid(3, 3)), sm.Dataset(samples))


def _direct_report_entry(name, cb, data, k, temperature):
    """``evaluate``'s entry for any metric from a direct call: its value, or the entry of its error."""
    calls = {
        "distortion": lambda: sm.distortion(cb, data, temperature),
        "trustworthiness": lambda: sm.trustworthiness(cb, data, k),
        "neighborhood_preservation": lambda: sm.neighborhood_preservation(cb, data, k),
        "topographic_product": lambda: sm.topographic_product(cb),
        "purity": lambda: sm.purity(sm.project(cb, data, depth=1).bmu, data.labels),
        "clustering_accuracy": lambda: sm.clustering_accuracy(sm.project(cb, data, depth=1).bmu, data.labels),
    }
    try:
        return calls.get(name, lambda: getattr(sm, name)(cb, data))()
    except ValueError as exc:
        return {"error": f"ValueError: {exc}"}


@pytest.mark.parametrize("case, scans_expected, failed", [
    ("one_unit_map", [(2, False, True)], ["topographic_error", "combined_error", "topographic_product",
                                          "topographic_function", "kruskal_shepard_error"]),
    ("one_sample", [], list(PAIR_METRICS)),
])
def test_evaluate_all_metrics_on_degenerate_inputs_equal_direct_calls(tmp_path, monkeypatch, case, scans_expected,
                                                                      failed):
    # a one-unit map fails every metric that needs two units or a diameter;
    # one sample fails every pair metric, so no pair scan runs at all
    rng = np.random.default_rng(21)
    rows, n = (1, 7) if case == "one_unit_map" else (3, 1)
    protos, samples, labels = rng.normal(size=(rows * rows, 2)), rng.normal(size=(n, 2)), rng.integers(0, 3, n)
    paths = [tmp_path / name for name in ("codebook.csv", "data.csv", "labels.txt")]
    save_matrix(paths[0], protos)
    save_matrix(paths[1], samples)
    paths[2].write_text("\n".join(map(str, labels)) + "\n")
    scans = _count_pair_scans(monkeypatch)
    report = evaluate(EvaluationConfig(codebook_path=str(paths[0]), data_path=str(paths[1]),
                                       labels_path=str(paths[2]), rows=rows, cols=rows,
                                       metrics=sm.METRIC_NAMES, k=2, temperature=0.5))
    assert scans == scans_expected
    cb, data = sm.CodeBook(protos, sm.MapGrid(rows, rows)), sm.Dataset(samples, labels)
    for name in sm.METRIC_NAMES:
        entry = _direct_report_entry(name, cb, data, 2, 0.5)
        assert _jsonable(report.metrics[name]) == _jsonable(entry), name  # bit for bit
    assert report.failed == failed


def test_evaluate_json_round_trip_preserves_floats(fixture_files):
    codebook_path, data_path, _, _, _, _ = fixture_files
    config = EvaluationConfig(
        codebook_path=str(codebook_path), data_path=str(data_path),
        rows=3, cols=3, metrics=("quantization_error", "topographic_function"),
    )
    report = evaluate(config)
    payload = json.loads(report.to_json())
    assert payload["metrics"]["quantization_error"] == report.metrics["quantization_error"]
    series = payload["metrics"]["topographic_function"]
    assert series["k"] == list(range(1, 5))
    assert payload["params"]["rows"] == 3
    assert set(payload["inputs"]) == {"codebook", "data"}
    assert len(payload["inputs"]["data"]["sha256"]) == 64


@pytest.mark.parametrize("field, value, message", [
    ("rows", 2.0, "rows must be an integer, got 2.0"),
    ("cols", "3", "cols must be an integer, got '3'"),
    ("k", 2.5, "k must be an integer, got 2.5"),
    ("k", "5", "k must be an integer, got '5'"),
    ("temperature", "1", "temperature must be a real number, got '1'"),
    ("temperature", 1j, "temperature must be a real number, got 1j"),
])
def test_evaluate_config_refuses_a_mistyped_parameter_before_reading_files(tmp_path, field, value, message):
    params = {"rows": 3, "cols": 3, "k": 2, "temperature": 1.0, field: value}
    config = EvaluationConfig(codebook_path=str(tmp_path / "missing.csv"), data_path=str(tmp_path / "missing.csv"),
                              metrics=("trustworthiness", "distortion"), **params)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        evaluate(config)


def test_evaluate_weighs_distortion_with_the_requested_kernel(fixture_files):
    codebook_path, data_path, _, coords, samples, _ = fixture_files
    cb, data = sm.CodeBook(coords, sm.MapGrid(3, 3)), sm.Dataset(samples)
    values = {}
    for kernel in ("gaussian", "window"):
        config = EvaluationConfig(codebook_path=str(codebook_path), data_path=str(data_path), rows=3, cols=3,
                                  metrics=("distortion",), temperature=1.5, kernel=kernel)
        values[kernel] = evaluate(config).metrics["distortion"]
    assert values["window"] == sm.distortion(cb, data, 1.5, sm.WINDOW)  # bit for bit
    assert values["gaussian"] == sm.distortion(cb, data, 1.5, sm.GAUSSIAN)
    assert values["window"] != values["gaussian"]


# ---------------------------------------------------------------------------
# CLI: evaluate
# ---------------------------------------------------------------------------

def _evaluate_args(codebook, data, metrics, extra=()):
    return ["evaluate", "--codebook", str(codebook), "--data", str(data),
            "--rows", "3", "--cols", "3", "--metrics", metrics, *extra]


def test_cli_evaluate_json_stdout(runner, fixture_files):
    codebook_path, data_path, _, _, _, _ = fixture_files
    result = runner.invoke(main, _evaluate_args(codebook_path, data_path, "topographic_error"))
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert 0.0 <= payload["metrics"]["topographic_error"] <= 1.0


def test_cli_evaluate_csv_format(runner, fixture_files):
    codebook_path, data_path, _, _, _, _ = fixture_files
    result = runner.invoke(main, _evaluate_args(
        codebook_path, data_path, "quantization_error,c_measure", ["--format", "csv"]))
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1].startswith("quantization_error,")
    assert float(lines[1].split(",")[1]) >= 0


def test_cli_evaluate_unknown_metric_is_config_error(runner, fixture_files):
    codebook_path, data_path, _, _, _, _ = fixture_files
    result = runner.invoke(main, _evaluate_args(codebook_path, data_path, "nope"))
    assert result.exit_code == 2
    assert result.stderr.startswith("error: config:")
    assert "quantization_error" in result.stderr  # lists the valid names
    assert len(result.stderr.strip().splitlines()) == 1  # one machine-parsable line


def test_cli_evaluate_hexagonal_topology(runner, fixture_files):
    codebook_path, data_path, _, coords, samples, _ = fixture_files
    result = runner.invoke(main, _evaluate_args(
        codebook_path, data_path, "topographic_error,combined_error",
        ["--topology", "hexagonal"]))
    assert result.exit_code == 0, result.stderr
    payload = json.loads(result.output)
    cb = sm.CodeBook(coords, sm.MapGrid(3, 3, "hexagonal"))
    data = sm.Dataset(samples)
    assert payload["metrics"]["topographic_error"] == sm.topographic_error(cb, data)
    assert payload["metrics"]["combined_error"] == sm.combined_error(cb, data)


def test_cli_evaluate_csv_serializes_tf_series(runner, fixture_files):
    codebook_path, data_path, _, _, _, _ = fixture_files
    result = runner.invoke(main, _evaluate_args(
        codebook_path, data_path, "topographic_function", ["--format", "csv"]))
    assert result.exit_code == 0
    rows = {line.split(",")[0]: line.split(",", 1)[1]
            for line in result.output.strip().splitlines()[1:]}
    assert rows["topographic_function.k"].strip('"') == "1;2;3;4"
    assert len(rows["topographic_function.tf"].strip('"').split(";")) == 4


def test_cli_evaluate_labels_required_before_computation(runner, fixture_files):
    codebook_path, data_path, _, _, _, _ = fixture_files
    result = runner.invoke(main, _evaluate_args(codebook_path, data_path, "purity"))
    assert result.exit_code == 2
    assert "labels" in result.stderr
    assert result.stdout == ""  # no partial report emitted


def test_cli_evaluate_external_metrics(runner, fixture_files):
    codebook_path, data_path, labels_path, _, _, _ = fixture_files
    result = runner.invoke(main, _evaluate_args(
        codebook_path, data_path, "purity,clustering_accuracy,class_scatter_index",
        ["--labels", str(labels_path)]))
    assert result.exit_code == 0, result.stderr
    payload = json.loads(result.output)
    assert 0.0 < payload["metrics"]["purity"] <= 1.0
    assert payload["metrics"]["class_scatter_index"] >= 1.0


def test_cli_evaluate_unparsable_file_is_input_error(runner, fixture_files, tmp_path):
    _, data_path, _, _, _, _ = fixture_files
    bad = tmp_path / "bad.csv"
    bad.write_text("1,1\nbroken\n")
    result = runner.invoke(main, _evaluate_args(bad, data_path, "quantization_error"))
    assert result.exit_code == 1
    assert result.stderr.startswith("error: input:")
    assert "bad.csv" in result.stderr


def test_cli_evaluate_row_count_mismatch_is_input_error(runner, fixture_files, tmp_path):
    _, data_path, _, _, samples, _ = fixture_files
    short = tmp_path / "short.csv"
    save_matrix(short, samples[:5])
    result = runner.invoke(main, _evaluate_args(short, data_path, "quantization_error"))
    assert result.exit_code == 1
    assert "9 units" in result.stderr


def test_cli_evaluate_dimension_mismatch_names_both_operands(runner, fixture_files, tmp_path):
    codebook_path, _, _, _, _, _ = fixture_files
    wide = tmp_path / "wide.csv"
    save_matrix(wide, np.zeros((4, 3)))
    result = runner.invoke(main, _evaluate_args(codebook_path, wide, "quantization_error"))
    assert result.exit_code == 1
    assert "codebook" in result.stderr and "data" in result.stderr


def test_cli_evaluate_failed_metric_exits_3_but_writes_report(runner, fixture_files, tmp_path):
    codebook_path, data_path, _, _, _, _ = fixture_files
    out = tmp_path / "report.json"
    result = runner.invoke(main, _evaluate_args(
        codebook_path, data_path, "quantization_error,trustworthiness",
        ["--k", "30", "--out", str(out)]))
    assert result.exit_code == 3
    assert result.stderr.startswith("error: computation:")
    payload = json.loads(out.read_text())
    assert isinstance(payload["metrics"]["quantization_error"], float)
    assert "error" in payload["metrics"]["trustworthiness"]


def test_cli_evaluate_overflow_is_one_error_line(fixture_files, tmp_path):
    # a real process, so that numpy warnings would reach stderr
    _, _, _, coords, samples, _ = fixture_files
    codebook, data, out = tmp_path / "huge_codebook.csv", tmp_path / "huge_data.csv", tmp_path / "report.json"
    save_matrix(codebook, coords * 1e160)
    save_matrix(data, samples * 1e160)
    metrics = ("quantization_error,topographic_error,combined_error,trustworthiness,"
               "neighborhood_preservation,kruskal_shepard_error,c_measure,distortion")
    src = str(Path(sm.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "sommetrics.cli",
         *_evaluate_args(codebook, data, metrics, ["--k", "3", "--temperature", "1.0", "--out", str(out)])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert result.returncode == 3
    assert result.stderr.splitlines() == [f"error: computation: metric(s) failed: {metrics.replace(',', ', ')}"]
    errors = json.loads(out.read_text())["metrics"].values()
    assert all("overflow float64" in value["error"] for value in errors)


def test_cli_evaluate_tiny_temperature_is_one_error_line(fixture_files, tmp_path):
    # a real process: the Gaussian's 0 / 0 at T^2 = 0 would print numpy warnings
    codebook_path, data_path, _, _, _, _ = fixture_files
    out = tmp_path / "report.json"
    src = str(Path(sm.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "sommetrics.cli",
         *_evaluate_args(codebook_path, data_path, "distortion", ["--temperature", "1e-170", "--out", str(out)])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert result.returncode == 3
    assert result.stderr.splitlines() == ["error: computation: metric(s) failed: distortion"]
    assert "temperature 1e-170" in json.loads(out.read_text())["metrics"]["distortion"]["error"]


def test_cli_evaluate_computes_and_names_a_repeated_metric_once(runner, fixture_files, monkeypatch):
    codebook_path, data_path, _, _, _, _ = fixture_files
    calls = []
    trustworthiness = sm.internal.trustworthiness

    def counting_trustworthiness(*args):
        calls.append(args)
        return trustworthiness(*args)

    monkeypatch.setattr(sm.internal, "trustworthiness", counting_trustworthiness)
    for k, code in (("2", 0), ("30", 3)):  # k=30 is too large for N=36
        once, twice = (runner.invoke(main, _evaluate_args(codebook_path, data_path, metrics, ["--k", k]))
                       for metrics in ("trustworthiness,quantization_error",
                                       "trustworthiness,quantization_error,trustworthiness"))
        assert once.exit_code == twice.exit_code == code
        assert twice.stdout == once.stdout and twice.stderr == once.stderr
    assert len(calls) == 4  # once per evaluation
    assert twice.stderr.splitlines() == ["error: computation: metric(s) failed: trustworthiness"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_evaluate_non_finite_temperature_is_one_config_line(runner, fixture_files, value):
    # the report would carry NaN or Infinity, which are not JSON
    codebook_path, data_path, _, _, _, _ = fixture_files
    result = runner.invoke(main, _evaluate_args(codebook_path, data_path, "quantization_error",
                                                ["--temperature", value]))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: config: temperature must be finite, got {value}"]


@pytest.mark.parametrize("metrics, extra, line", [
    (",", [], "error: config: no metrics requested"),
    ("trustworthiness", [], "error: config: metric trustworthiness requires the neighborhood order k (--k)"),
    ("distortion", [], "error: config: metric distortion requires a temperature (--temperature)"),
    ("quantization_error", ["--rows", "0"], "error: config: map size must be positive, got 0x3"),
    ("trustworthiness", ["--k", "0"], "error: config: neighborhood order k must be >= 1, got 0"),
    ("quantization_error,neighborhood_preservation", ["--k", "-3"],
     "error: config: neighborhood order k must be >= 1, got -3"),
    ("distortion", ["--temperature", "0"], "error: config: temperature must be positive, got 0.0"),
    ("quantization_error,distortion", ["--temperature", "-0.5"],
     "error: config: temperature must be positive, got -0.5"),
])
def test_cli_evaluate_config_contract_is_one_line(runner, fixture_files, metrics, extra, line):
    codebook_path, data_path, _, _, _, _ = fixture_files
    result = runner.invoke(main, _evaluate_args(codebook_path, data_path, metrics, extra))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [line]


def test_cli_evaluate_k_and_temperature_are_checked_only_for_the_metrics_that_read_them(runner, fixture_files,
                                                                                        tmp_path):
    codebook_path, data_path, _, _, _, _ = fixture_files
    # checked before any file is loaded: a missing data file is not reached
    result = runner.invoke(main, _evaluate_args(codebook_path, tmp_path / "missing.csv", "trustworthiness",
                                                ["--k", "0"]))
    assert result.exit_code == 2
    assert result.stderr.splitlines() == ["error: config: neighborhood order k must be >= 1, got 0"]
    # a k or a temperature that no requested metric reads is not checked
    result = runner.invoke(main, _evaluate_args(codebook_path, data_path, "quantization_error",
                                                ["--k", "0", "--temperature", "0"]))
    assert result.exit_code == 0, result.output


def test_cli_evaluate_empty_data_file_is_one_input_line(runner, fixture_files, tmp_path):
    codebook_path, _, _, _, _, _ = fixture_files
    empty = tmp_path / "empty.csv"
    empty.write_text("\n  \n")
    result = runner.invoke(main, _evaluate_args(codebook_path, empty, "quantization_error"))
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"error: input: {empty}: file holds no data rows"]


@pytest.mark.parametrize("bad, reason", [
    ("data", "samples contain non-finite values"),
    ("codebook", "prototypes contain non-finite values"),
    ("labels_length", "labels length 3 does not match sample count 4"),
    ("labels_sign", "labels must be nonnegative class ids"),
])
def test_cli_evaluate_unusable_file_contents_name_the_file(runner, fixture_files, tmp_path, bad, reason):
    codebook_path, _, _, coords, _, _ = fixture_files
    data_path, labels_path = tmp_path / "four.csv", tmp_path / "four.txt"
    samples, labels = coords[:4].copy(), ["0", "1", "2", "0"]
    if bad == "data":
        samples[2, 1], named = np.nan, data_path
    elif bad == "codebook":
        codebook_path = named = tmp_path / "inf.csv"
        save_matrix(codebook_path, np.where(coords == 2.0, np.inf, coords))
    elif bad == "labels_length":
        labels, named = labels[:3], labels_path
    else:
        labels[1], named = "-1", labels_path
    save_matrix(data_path, samples)
    labels_path.write_text("\n".join(labels) + "\n")
    result = runner.invoke(main, _evaluate_args(codebook_path, data_path, "purity", ["--labels", str(labels_path)]))
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"error: input: {named}: {reason}"]


def test_cli_evaluate_csv_names_a_failed_metric_in_its_row(runner, fixture_files):
    codebook_path, data_path, _, _, _, _ = fixture_files
    result = runner.invoke(main, _evaluate_args(
        codebook_path, data_path, "trustworthiness,quantization_error", ["--k", "30", "--format", "csv"]))
    assert result.exit_code == 3
    rows = result.stdout.splitlines()
    assert rows[0] == "metric,value"
    # the csv module quotes the reason, which holds a comma
    assert rows[1] == 'trustworthiness,"error:ValueError: neighborhood order k must satisfy 1 <= k < N/2 = 18.0, got 30"'
    assert rows[2].startswith("quantization_error,") and float(rows[2].split(",")[1]) >= 0
    assert result.stderr.splitlines() == ["error: computation: metric(s) failed: trustworthiness"]


def test_cli_evaluate_deterministic(runner, fixture_files):
    codebook_path, data_path, labels_path, _, _, _ = fixture_files
    args = _evaluate_args(codebook_path, data_path,
                          "quantization_error,topographic_function,purity",
                          ["--labels", str(labels_path)])
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


# ---------------------------------------------------------------------------
# CLI: train
# ---------------------------------------------------------------------------

def test_cli_train_single_sample_writes_that_sample(runner, tmp_path):
    data = tmp_path / "one.csv"
    save_matrix(data, np.array([[0.25, 0.75]]))
    out = tmp_path / "codebook.csv"
    result = runner.invoke(main, [
        "train", "--data", str(data), "--rows", "1", "--cols", "1",
        "--tmax", "1", "--tmin", "1", "--alpha", "1", "--iters", "1",
        "--seed", "3", "--out", str(out),
    ])
    assert result.exit_code == 0, result.stderr
    assert load_matrix(out).tolist() == [[0.25, 0.75]]


def test_cli_train_deterministic_bytes(runner, tmp_path):
    data = tmp_path / "data.csv"
    save_matrix(data, np.random.default_rng(1).random((80, 2)))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        result = runner.invoke(main, [
            "train", "--data", str(data), "--rows", "3", "--cols", "3",
            "--iters", "500", "--seed", "12", "--out", str(out),
        ])
        assert result.exit_code == 0, result.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_train_overflow_is_one_error_line(tmp_path):
    # a real process, so that numpy warnings would reach stderr
    data, out = tmp_path / "huge_data.csv", tmp_path / "codebook.csv"
    save_matrix(data, np.random.default_rng(3).random((20, 2)) * 1e160)
    src = str(Path(sm.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "sommetrics.cli", "train", "--data", str(data), "--rows", "2", "--cols", "3",
         "--iters", "50", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert result.returncode == 3
    assert result.stderr.splitlines() == [
        "error: computation: ValueError: squared distances overflow float64; rescale the data and prototypes"]
    assert not out.exists()


def test_cli_train_tiny_t_min_is_one_config_line(tmp_path):
    # a real process: the Gaussian's d^2/T^2 would overflow at the last step
    data, out = tmp_path / "data.csv", tmp_path / "codebook.csv"
    save_matrix(data, np.random.default_rng(3).random((20, 2)))
    src = str(Path(sm.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "sommetrics.cli", "train", "--data", str(data), "--rows", "2", "--cols", "3",
         "--tmin", "1e-158", "--iters", "50", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config: t_min=1e-158 is too small")
    assert not out.exists()


@pytest.mark.parametrize("rows, cols", [(2**62, 2), (2, 2**62)])
def test_cli_train_map_numpy_cannot_shape_is_one_config_line(tmp_path, rows, cols):
    # a real process: numpy refuses the offset tables' shape without allocating
    # anything, and the one line blames the map size, not t_min
    data, out = tmp_path / "data.csv", tmp_path / "codebook.csv"
    save_matrix(data, np.random.default_rng(3).random((3, 2)))
    src = str(Path(sm.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "sommetrics.cli", "train", "--data", str(data), "--rows", str(rows),
         "--cols", str(cols), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: config: map {rows}x{cols} is too large: "), lines
    assert not out.exists()


def test_cli_train_map_out_of_memory_is_one_config_line(runner, tmp_path, monkeypatch):
    # the MemoryError numpy raises when it cannot allocate the offset tables
    # (53.6 GiB at 30000x30000), raised here on a small map so that a patch
    # that missed would train that map instead of allocating
    def out_of_memory(grid):
        raise MemoryError("Unable to allocate 53.6 GiB for an array with shape (2, 59999, 59999) and data type int64")

    monkeypatch.setattr(sm.grid, "_offset_tables", out_of_memory)
    data, out = tmp_path / "data.csv", tmp_path / "codebook.csv"
    save_matrix(data, np.random.default_rng(3).random((3, 2)))
    result = runner.invoke(main, ["train", "--data", str(data), "--rows", "3", "--cols", "4", "--iters", "10",
                                  "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == ("error: config: map 3x4 is too large: Unable to allocate 53.6 GiB for an "
                             "array with shape (2, 59999, 59999) and data type int64\n")
    assert not out.exists()


@pytest.mark.parametrize("option, name, value", [("--alpha", "alpha", "inf"), ("--tmax", "t_max", "inf"),
                                                 ("--tmin", "t_min", "nan")])
def test_cli_train_non_finite_parameter_is_one_config_line(tmp_path, option, name, value):
    # a real process, so that numpy warnings would reach stderr; the one line
    # names the parameter at fault, before any temperature is computed from it
    data, out = tmp_path / "data.csv", tmp_path / "codebook.csv"
    save_matrix(data, np.random.default_rng(3).random((20, 2)))
    src = str(Path(sm.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "sommetrics.cli", "train", "--data", str(data), "--rows", "2", "--cols", "3",
         option, value, "--iters", "50", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"error: config: {name} must be finite, got {value}"]
    assert not out.exists()


def test_cli_train_at_a_huge_temperature_succeeds_quietly(tmp_path):
    # a real process, so that numpy warnings would reach stderr; T^2 is inf
    # above about 1e154 and the kernel weighs every map distance 1.0
    data, out = tmp_path / "data.csv", tmp_path / "codebook.csv"
    save_matrix(data, np.random.default_rng(3).random((20, 2)))
    src = str(Path(sm.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "sommetrics.cli", "train", "--data", str(data), "--rows", "2", "--cols", "3",
         "--tmax", "1e200", "--tmin", "1", "--iters", "50", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert result.returncode == 0 and result.stderr == ""
    assert load_matrix(out).shape == (6, 2)


def test_cli_train_round_trip_close_to_library(runner, tmp_path):
    data_arr = np.random.default_rng(2).random((60, 2))
    data = tmp_path / "data.csv"
    save_matrix(data, data_arr)
    out = tmp_path / "cb.csv"
    result = runner.invoke(main, [
        "train", "--data", str(data), "--rows", "2", "--cols", "2",
        "--iters", "300", "--seed", "5", "--out", str(out),
    ])
    assert result.exit_code == 0
    direct = sm.train_som(
        sm.Dataset(load_matrix(data)),
        sm.TrainerConfig(2, 2, iterations=300, seed=5),
    )
    assert np.all(np.abs(load_matrix(out) - direct.prototypes) <= 1e-12 * np.abs(direct.prototypes))


def test_cli_train_bad_config_exits_2(runner, tmp_path):
    data = tmp_path / "data.csv"
    save_matrix(data, np.random.default_rng(0).random((10, 2)))
    result = runner.invoke(main, [
        "train", "--data", str(data), "--rows", "2", "--cols", "2",
        "--tmax", "0.1", "--tmin", "1.0", "--out", str(tmp_path / "cb.csv"),
    ])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: config:")


def test_cli_train_negative_seed_is_one_config_line(runner, tmp_path):
    data, out = tmp_path / "data.csv", tmp_path / "cb.csv"
    save_matrix(data, np.random.default_rng(0).random((10, 2)))
    result = runner.invoke(main, [
        "train", "--data", str(data), "--rows", "2", "--cols", "2", "--seed", "-1", "--out", str(out),
    ])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == ["error: config: seed must be non-negative, got -1"]
    assert not out.exists()


def test_cli_train_missing_data_exits_1(runner, tmp_path):
    result = runner.invoke(main, [
        "train", "--data", str(tmp_path / "absent.csv"), "--rows", "2", "--cols", "2",
        "--out", str(tmp_path / "cb.csv"),
    ])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: input:")


def test_cli_train_non_finite_data_is_input_error(runner, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("0.5,0.5\nnan,1.0\n")
    result = runner.invoke(main, [
        "train", "--data", str(data), "--rows", "1", "--cols", "2",
        "--out", str(tmp_path / "cb.csv"),
    ])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: input:")


@pytest.mark.parametrize("case", ["evaluate_out_is_a_directory", "train_out_is_a_directory",
                                  "demo_outdir_is_a_file", "demo_output_is_a_directory",
                                  "evaluate_out_directory_is_missing", "train_out_directory_is_missing"])
def test_cli_write_failures_are_one_input_line(runner, fixture_files, tmp_path, monkeypatch, case):
    codebook_path, data_path, _, _, _, _ = fixture_files
    # an unusable --out is refused before any input is loaded, any metric computed or any map trained
    ran = []

    def recorded(name, run):
        def call(*args, **kwargs):
            ran.append(name)
            return run(*args, **kwargs)
        return call

    for module, name in ((sm.dataio, "load_matrix"), (sm.report, "load_matrix"), (sm.report, "evaluate_map"),
                         (sm.model, "train_som")):  # the commands import them from these modules when they run
        monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    taken = tmp_path / "taken"
    missing = tmp_path / "absent" / "out.csv"
    if case == "evaluate_out_is_a_directory":
        taken.mkdir()
        args = [*_evaluate_args(codebook_path, data_path, "quantization_error"), "--out", str(taken)]
        prefix = f"error: input: cannot write {taken}: "
    elif case == "train_out_is_a_directory":
        taken.mkdir()
        args = ["train", "--data", str(data_path), "--rows", "2", "--cols", "2", "--iters", "10", "--out", str(taken)]
        prefix = f"error: input: cannot write {taken}: "
    elif case == "evaluate_out_directory_is_missing":
        args = [*_evaluate_args(codebook_path, data_path, "quantization_error"), "--out", str(missing)]
        prefix = f"error: input: cannot write {missing}: "
    elif case == "train_out_directory_is_missing":
        args = ["train", "--data", str(data_path), "--rows", "2", "--cols", "2", "--iters", "10", "--out", str(missing)]
        prefix = f"error: input: cannot write {missing}: "
    elif case == "demo_outdir_is_a_file":
        taken.write_text("not a directory\n")
        args = ["demo", "--experiment", "stripe", "--outdir", str(taken)]
        prefix = f"error: input: cannot create output directory {taken}: "
    else:
        (taken / "stripe_zigzag.svg").mkdir(parents=True)  # the demo's first output file
        args = ["demo", "--experiment", "stripe", "--outdir", str(taken)]
        prefix = f"error: input: cannot write into {taken}: "
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines
    if not case.startswith("demo"):
        assert ran == []
        assert not missing.parent.exists()


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_cli_config_errors_precede_an_unusable_out(runner, fixture_files, tmp_path, command):
    codebook_path, data_path, _, _, _, _ = fixture_files
    if command == "evaluate":
        args = _evaluate_args(codebook_path, data_path, "distortion")  # no --temperature
    else:
        args = ["train", "--data", str(data_path), "--rows", "2", "--cols", "2", "--tmin", "0"]
    result = runner.invoke(main, [*args, "--out", str(tmp_path)])
    assert result.exit_code == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config: "), lines


@pytest.mark.parametrize("args, line", [
    (_evaluate_args("cb.csv", "data.csv", "trustworthiness", ["--k", "1.5"]),
     "Invalid value for '--k': '1.5' is not a valid integer."),
    (_evaluate_args("cb.csv", "data.csv", "quantization_error", ["--topology", "hex"]),
     "Invalid value for '--topology': 'hex' is not one of 'rectangular', 'hexagonal'."),
    (["evaluate", "--data", "data.csv", "--rows", "3", "--cols", "3", "--metrics", "quantization_error"],
     "Missing option '--codebook'."),
    (["demo", "--experiment", "nope", "--outdir", "out"],
     "Invalid value for '--experiment': 'nope' is not one of 'square', 'tf1d', 'stripe'."),
    (["nosuch"], "No such command 'nosuch'."),
    (["--bogus"], click.exceptions.NoSuchOption("--bogus").format_message()),  # its wording changed in click 8.2
], ids=["k_value", "topology_value", "missing_codebook", "experiment_value", "command", "group_option"])
def test_cli_usage_errors_are_one_config_line(runner, args, line):
    # click parses before any file is read, so the files need not exist
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: config: {line}"]


def test_cli_usage_bare_command_prints_its_help(runner):
    # the help goes to stdout (exit 0) up to click 8.1, to stderr (exit 2) from click 8.2
    result = runner.invoke(main, [])
    assert result.stdout + result.stderr == runner.invoke(main, ["--help"]).stdout


def test_cli_usage_bare_command_help_is_stdout_exit_0(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 0 and result.stderr == ""
    assert result.stdout == runner.invoke(main, ["--help"]).stdout


def test_cli_evaluate_help_lists_metric_names(runner):
    result = runner.invoke(main, ["evaluate", "--help"])
    assert result.exit_code == 0
    assert "class_scatter_index" in result.output


# ---------------------------------------------------------------------------
# CLI: demo
# ---------------------------------------------------------------------------

def test_cli_demo_stripe_outputs(runner, tmp_path):
    outdir = tmp_path / "stripe"
    result = runner.invoke(main, ["demo", "--experiment", "stripe", "--outdir", str(outdir), "--seed", "4"])
    assert result.exit_code == 0, result.stderr
    table = outdir / "stripe_metrics.csv"
    assert table.exists()
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "solution,quantization_error,topographic_error,combined_error"
    assert len(lines) == 4
    for name in ("zigzag", "moderate", "straight"):
        svg = outdir / f"stripe_{name}.svg"
        assert svg.exists()
        ET.fromstring(svg.read_text())  # well-formed XML


def test_cli_demo_deterministic_bytes(runner, tmp_path):
    digests = []
    for sub in ("run1", "run2"):
        outdir = tmp_path / sub
        result = runner.invoke(main, ["demo", "--experiment", "stripe", "--outdir", str(outdir), "--seed", "9"])
        assert result.exit_code == 0
        digests.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    assert digests[0] == digests[1]


def test_cli_demo_tf1d_series(runner, tmp_path):
    outdir = tmp_path / "tf"
    result = runner.invoke(main, ["demo", "--experiment", "tf1d", "--outdir", str(outdir), "--seed", "0"])
    assert result.exit_code == 0, result.stderr
    lines = (outdir / "tf1d_series.csv").read_text().strip().splitlines()
    assert lines[0] == "k,tf,normalized_k,normalized_tf"
    rows = [line.split(",") for line in lines[1:]]
    ks = [int(r[0]) for r in rows]
    assert ks == list(range(1, 26))


def test_cli_demo_negative_seed_is_one_config_line(runner, tmp_path):
    outdir = tmp_path / "out"
    result = runner.invoke(main, ["demo", "--experiment", "square", "--outdir", str(outdir), "--seed", "-1"])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == ["error: config: seed must be non-negative, got -1"]
    assert not outdir.exists()


def test_run_demo_unknown_experiment_names_the_valid_ones(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment 'nope'; valid: square, tf1d, stripe"):
        run_demo("nope", tmp_path / "x")
    assert not (tmp_path / "x").exists()


def test_score_maps_runs_one_pair_scan_per_map(tmp_path, monkeypatch):
    # each map's KSE and C-measure share one sample-pair scan; the scores
    # equal direct calls made outside any scope
    rng = np.random.default_rng(13)
    data = sm.Dataset(rng.random((60, 2)))
    maps = {name: sm.CodeBook(rng.random((9, 2)), sm.MapGrid(3, 3)) for name in ("a", "b", "c")}
    scans = _count_pair_scans(monkeypatch)
    result = _score_maps(tmp_path, "t", "map", maps, data, _ORGANIZATION_METRICS)
    assert scans == [(None, True, True)] * len(maps)
    for name, cb in maps.items():
        assert result["metrics"][name] == {metric: getattr(sm, metric)(cb, data) for metric in _ORGANIZATION_METRICS}


def test_cli_import_leaves_out_scipy_optimize():
    # a fresh interpreter: the CLI and the accuracy matching load no scipy.optimize
    src = str(Path(sm.__file__).resolve().parents[1])
    code = ("import sys, sommetrics, sommetrics.cli; sommetrics.clustering_accuracy([0, 0, 1], [1, 1, 0]); "
            "print('scipy.optimize' in sys.modules)")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_startup_and_train_load_no_scipy(tmp_path):
    # a fresh interpreter: importing the package, --help and train load no
    # scipy module; the first combined error call loads csgraph
    src = str(Path(sm.__file__).resolve().parents[1])
    data, out = tmp_path / "data.csv", tmp_path / "codebook.csv"
    save_matrix(data, np.random.default_rng(3).random((20, 2)))
    code = f"""
import json, sys
seen = {{}}
def scipy_modules(stage):
    seen[stage] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import sommetrics, sommetrics.cli
scipy_modules("import")
sommetrics.cli.main(["--help"], standalone_mode=False)
scipy_modules("help")
sommetrics.cli.main(["train", "--data", {str(data)!r}, "--rows", "2", "--cols", "3", "--iters", "50",
                     "--seed", "1", "--out", {str(out)!r}], standalone_mode=False)
scipy_modules("train")
cb = sommetrics.CodeBook(sommetrics.dataio.load_matrix({str(out)!r}), sommetrics.MapGrid(2, 3))
sommetrics.combined_error(cb, sommetrics.Dataset(sommetrics.dataio.load_matrix({str(data)!r})))
print(json.dumps([seen, "scipy.sparse.csgraph" in sys.modules]))
"""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [{"import": [], "help": [], "train": []}, True]


def _fresh_python(args, blas_threads=None):
    """Run ``python args`` with ``PYTHONPATH=src`` and OPENBLAS_NUM_THREADS set to ``blas_threads``, or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(sm.__file__).resolve().parents[1])
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    result = subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_lazy_package_loads_nothing_until_a_name_is_used():
    code = """
import json, sys, types
import sommetrics as sm
numpy_on_import = "numpy" in sys.modules
submodules = [isinstance(getattr(sm, name), types.ModuleType) for name in ("dataio", "model", "internal", "report")]
star = {}
exec("from sommetrics import *", star)
del star["__builtins__"]
owners = ("external", "grid", "internal", "model", "report")
same = [name for name in sm.__all__ if name == "__version__"
        or any(getattr(sys.modules["sommetrics." + m], name, None) is star[name] for m in owners)]
print(json.dumps([numpy_on_import, submodules, sorted(star) == sorted(sm.__all__), same == sm.__all__,
                  sm.project is sm.model.project, sm.evaluate is sm.report.evaluate, hasattr(sm, "no_such_name")]))
"""
    assert json.loads(_fresh_python(["-c", code])) == [False, [True] * 4, True, True, True, True, False]


def test_lazy_package_reaches_every_module():
    package = Path(sm.__file__).parent
    assert sorted(sm._SUBMODULES) == sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")


def test_lazy_names_are_the_registrys_and_the_experiments():
    assert sm.names.METRIC_NAMES == tuple(sm.report.REGISTRY) == sm.METRIC_NAMES
    assert sm.names.EXPERIMENTS == tuple(sm.demos._EXPERIMENTS)
    assert (sm.names.TOPOLOGIES, sm.names.KERNEL_KINDS) == (sm.grid.TOPOLOGIES, sm.grid.KERNEL_KINDS)


# what only a command that computes may load: numpy, scipy and the modules built on them
_COMPUTING_MODULES = {"numpy", "scipy", *(f"sommetrics.{name}" for name in (
    "dataio", "grid", "model", "report", "internal", "external", "demos", "figures"))}


def _fresh_cli(args):
    """(stdout, stderr, exit code, computing modules loaded) of ``python -m sommetrics.cli args`` in a fresh interpreter.

    The child prints the sorted module list as its last stdout line.
    """
    code = f"""
import json, runpy, sys
sys.argv = ["sommetrics", *{list(args)!r}]
try:
    runpy.run_module("sommetrics.cli", run_name="__main__")
except SystemExit as stop:
    status = stop.code or 0
computing = {sorted(_COMPUTING_MODULES)!r}
print(json.dumps([status, sorted(m for m in sys.modules if m in computing or m.split(".")[0] in computing)]))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(sm.__file__).resolve().parents[1]), "COLUMNS": "80"}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    *out, last = result.stdout.splitlines(keepends=True)
    status, loaded = json.loads(last)
    return "".join(out), result.stderr, status, loaded


def test_cli_lazy_help_and_usage_errors_load_no_numpy():
    helps = []
    for args in (["--help"], ["evaluate", "--help"], ["train", "--help"], ["demo", "--help"]):
        out, err, status, loaded = _fresh_cli(args)
        assert (status, err, loaded) == (0, "", []), args
        helps.append(out)
    # click's rendering at 80 columns, recorded when the CLI still loaded every module
    assert "".join(helps) == (Path(__file__).parent / "cli_help.txt").read_text()
    out, err, status, loaded = _fresh_cli(["evaluate", "--rows", "x"])
    assert (out, status, loaded) == ("", 2, [])
    assert err.splitlines() == ["error: config: Invalid value for '--rows': 'x' is not a valid integer."]


def test_cli_lazy_train_loads_no_metric_modules(tmp_path):
    data, out = tmp_path / "data.csv", tmp_path / "codebook.csv"
    save_matrix(data, np.random.default_rng(3).random((20, 2)))
    _, err, status, loaded = _fresh_cli(["train", "--data", str(data), "--rows", "2", "--cols", "3", "--iters", "50",
                                         "--out", str(out)])
    assert (status, err) == (0, "")
    assert out.is_file()
    assert {"numpy", "sommetrics.dataio", "sommetrics.grid", "sommetrics.model"} <= set(loaded)
    assert not {f"sommetrics.{name}" for name in ("report", "internal", "external", "demos", "figures")} & set(loaded)


# the two CLI entry points, each run with --help, and a plain import of the CLI module
_BLAS_ENTRIES = {
    "module": 'runpy.run_module("sommetrics.cli", run_name="__main__")',
    "console script": "sommetrics._console_main()",
    "import": "import sommetrics.cli",
}


def _child_blas_threads(entry, blas_threads):
    """(OPENBLAS_NUM_THREADS, thread count or None) after ``_BLAS_ENTRIES[entry]`` in a fresh interpreter.

    --help loads no numpy, so the child imports numpy after the entry point
    returns: its OpenBLAS pool is sized by the variable the entry left. The
    count is None off Linux and when numpy's BLAS is not OpenBLAS.
    """
    code = f"""
import json, os, runpy, sys
import sommetrics
sys.argv = ["sommetrics", "--help"]
try:
    {_BLAS_ENTRIES[entry]}
except SystemExit as stop:
    assert not stop.code, stop.code
import numpy
openblas = sys.platform == "linux" and "openblas" in open("/proc/self/maps").read().lower()
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task")) if openblas else None]))
"""
    return json.loads(_fresh_python(["-c", code], blas_threads).splitlines()[-1])


def test_cli_blas_threads_default_to_one():
    for entry in ("module", "console script"):
        value, threads = _child_blas_threads(entry, None)
        assert value == "1", entry
        assert threads in (None, 1), entry


def test_cli_blas_threads_keep_the_callers_setting():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for entry in ("module", "console script"):
        value, threads = _child_blas_threads(entry, "2")
        assert value == "2", entry
        if threads is not None and cpus >= 2:
            assert threads > 1, entry


def test_cli_import_leaves_blas_threads_as_the_caller_set_them():
    for blas_threads in (None, "2"):
        assert _child_blas_threads("import", blas_threads)[0] == blas_threads


def test_cli_evaluate_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # no distortion, so that the projection's screen runs its matrix product
    rng = np.random.default_rng(11)
    codebook, data = tmp_path / "codebook.csv", tmp_path / "data.csv"
    save_matrix(codebook, rng.normal(size=(64, 6)))
    save_matrix(data, rng.normal(size=(700, 6)))
    args = ["-m", "sommetrics.cli", "evaluate", "--codebook", str(codebook), "--data", str(data),
            "--rows", "8", "--cols", "8", "--metrics",
            "quantization_error,topographic_error,combined_error,topographic_product,topographic_function"]
    one, two = _fresh_python(args), _fresh_python(args, "2")
    assert json.loads(one)["metrics"]
    assert one == two

# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

def test_svg_well_formed_and_deterministic():
    rng = np.random.default_rng(6)
    cb = sm.CodeBook(rng.random((12, 2)), sm.MapGrid(3, 4))
    data = sm.Dataset(rng.random((50, 2)))
    svg1 = render_map_svg(cb, data)
    svg2 = render_map_svg(cb, data)
    assert svg1 == svg2
    root = ET.fromstring(svg1)
    assert root.tag.endswith("svg")
    # 17 lattice edges for a 3x4 rectangular grid
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    assert len(lines) == 17
