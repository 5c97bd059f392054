import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import sommetrics as sm
from sommetrics.cli import main
from sommetrics.dataio import load_labels, load_matrix, save_matrix
from sommetrics.demos import _ORGANIZATION_METRICS, _score_maps, run_demo
from sommetrics.errors import InputError
from sommetrics.figures import render_map_svg
from sommetrics.report import EvaluationConfig, _jsonable, evaluate


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
    codebook_path, data_path, labels_path, _, _, _ = fixture_files
    calls = []
    rank_units = sm.model._rank_units

    def counting_rank_units(*args):
        calls.append(args[2])
        return rank_units(*args)

    monkeypatch.setattr(sm.model, "_rank_units", counting_rank_units)
    config = EvaluationConfig(
        codebook_path=str(codebook_path), data_path=str(data_path), labels_path=str(labels_path),
        rows=3, cols=3, temperature=0.5,
        metrics=("quantization_error", "distortion", "topographic_error", "combined_error",
                 "topographic_product", "topographic_function", "purity", "clustering_accuracy",
                 "class_scatter_index"),
    )
    report = evaluate(config)
    assert not report.failed
    assert len(calls) == 1

    # with all metrics: still one projection, and one sample-pair scan for all four pair metrics
    scans = []
    pair_scan = sm.internal._pair_scan

    def counting_scans(*args):
        scans.append(args[2:])
        return pair_scan(*args)

    monkeypatch.setattr(sm.internal, "_pair_scan", counting_scans)
    calls.clear()
    config.metrics, config.k = sm.METRIC_NAMES, 2
    report = evaluate(config)
    assert not report.failed
    assert len(calls) == 1
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

    # the scope ends with the evaluation, also when a metric raised
    config.metrics, config.k = ("trustworthiness", "quantization_error"), 30
    report = evaluate(config)
    assert report.failed == ["trustworthiness"]
    assert sm.model._SCOPE.get() is None
    cb, data = fresh()
    with pytest.raises(RuntimeError):
        with sm.model._shared_results(cb, data):
            raise RuntimeError
    assert sm.model._SCOPE.get() is None

    # inside a scope, another Dataset object is projected on its own
    other = sm.Dataset(samples[::-1].copy())
    alone = sm.project(cb, other).bmu_ranks
    with sm.model._shared_results(cb, data):
        shared = sm.project(cb, data).bmu_ranks
        assert np.array_equal(sm.project(cb, other).bmu_ranks, alone)
    assert not np.array_equal(shared, alone)


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
])
def test_cli_evaluate_config_contract_is_one_line(runner, fixture_files, metrics, extra, line):
    codebook_path, data_path, _, _, _, _ = fixture_files
    result = runner.invoke(main, _evaluate_args(codebook_path, data_path, metrics, extra))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [line]


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
                                  "demo_outdir_is_a_file", "demo_output_is_a_directory"])
def test_cli_write_failures_are_one_input_line(runner, fixture_files, tmp_path, case):
    codebook_path, data_path, _, _, _, _ = fixture_files
    taken = tmp_path / "taken"
    if case == "evaluate_out_is_a_directory":
        taken.mkdir()
        args = [*_evaluate_args(codebook_path, data_path, "quantization_error"), "--out", str(taken)]
        prefix = f"error: input: cannot write {taken}: "
    elif case == "train_out_is_a_directory":
        taken.mkdir()
        args = ["train", "--data", str(data_path), "--rows", "2", "--cols", "2", "--iters", "10", "--out", str(taken)]
        prefix = f"error: input: cannot write {taken}: "
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
