"""Metric registry, evaluation orchestration, and report serialization."""
from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from . import external, internal
from .dataio import content_hash, load_labels, load_matrix
from .errors import ConfigError, InputError
from .grid import KERNEL_KINDS, TOPOLOGIES, MapGrid, NeighborhoodKernel
from .internal import TopographicFunction, _check_kse, _check_order, _check_samples
from .model import _SCOPE, CodeBook, Dataset, _Evaluation, project


@dataclass(frozen=True)
class MetricSpec:
    compute: Callable[[_Evaluation], Any]
    needs_labels: bool = False
    needs_k: bool = False
    needs_temperature: bool = False


REGISTRY: dict[str, MetricSpec] = {
    "quantization_error": MetricSpec(lambda c: internal.quantization_error(c.codebook, c.data)),
    "distortion": MetricSpec(
        lambda c: internal.distortion(c.codebook, c.data, c.temperature, c.kernel),
        needs_temperature=True,
    ),
    "topographic_error": MetricSpec(lambda c: internal.topographic_error(c.codebook, c.data)),
    "combined_error": MetricSpec(lambda c: internal.combined_error(c.codebook, c.data)),
    "trustworthiness": MetricSpec(
        lambda c: internal.trustworthiness(c.codebook, c.data, c.k), needs_k=True
    ),
    "neighborhood_preservation": MetricSpec(
        lambda c: internal.neighborhood_preservation(c.codebook, c.data, c.k), needs_k=True
    ),
    "topographic_product": MetricSpec(lambda c: internal.topographic_product(c.codebook)),
    "topographic_function": MetricSpec(lambda c: internal.topographic_function(c.codebook, c.data)),
    "kruskal_shepard_error": MetricSpec(lambda c: internal.kruskal_shepard_error(c.codebook, c.data)),
    "c_measure": MetricSpec(lambda c: internal.c_measure(c.codebook, c.data)),
    "purity": MetricSpec(
        lambda c: external.purity(project(c.codebook, c.data, depth=1).bmu, c.data.labels),
        needs_labels=True,
    ),
    "clustering_accuracy": MetricSpec(
        lambda c: external.clustering_accuracy(project(c.codebook, c.data, depth=1).bmu, c.data.labels),
        needs_labels=True,
    ),
    "class_scatter_index": MetricSpec(
        lambda c: external.class_scatter_index(c.codebook, c.data), needs_labels=True
    ),
}

METRIC_NAMES = tuple(REGISTRY)


@dataclass
class EvaluationConfig:
    """One evaluation request: input files, map geometry, metric list, parameters."""

    codebook_path: str
    data_path: str
    rows: int
    cols: int
    metrics: tuple[str, ...]
    labels_path: str | None = None
    topology: str = "rectangular"
    k: int | None = None
    temperature: float | None = None
    kernel: str = "gaussian"

    def __post_init__(self) -> None:
        self.metrics = tuple(self.metrics)

    def validate(self) -> None:
        if not self.metrics:
            raise ConfigError("no metrics requested")
        unknown = [m for m in self.metrics if m not in REGISTRY]
        if unknown:
            raise ConfigError(
                f"unknown metric name(s) {', '.join(unknown)}; valid names: {', '.join(METRIC_NAMES)}"
            )
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"unknown topology {self.topology!r}; valid: {', '.join(TOPOLOGIES)}")
        if self.kernel not in KERNEL_KINDS:
            raise ConfigError(f"unknown kernel {self.kernel!r}; valid: {', '.join(KERNEL_KINDS)}")
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"map size must be positive, got {self.rows}x{self.cols}")
        if self.temperature is not None and not np.isfinite(self.temperature):
            raise ConfigError(f"temperature must be finite, got {self.temperature}")
        for name in self.metrics:
            spec = REGISTRY[name]
            if spec.needs_labels and self.labels_path is None:
                raise ConfigError(f"metric {name} requires a labels file (--labels)")
            if spec.needs_k and self.k is None:
                raise ConfigError(f"metric {name} requires the neighborhood order k (--k)")
            if spec.needs_k and self.k < 1:  # k >= N/2 depends on the data: it fails per metric
                raise ConfigError(f"neighborhood order k must be >= 1, got {self.k}")
            if spec.needs_temperature and self.temperature is None:
                raise ConfigError(f"metric {name} requires a temperature (--temperature)")
            if spec.needs_temperature and not self.temperature > 0:
                raise ConfigError(f"temperature must be positive, got {self.temperature}")


@dataclass
class MetricReport:
    """Computed metric values plus the parameters and input fingerprints used."""

    metrics: dict[str, Any]
    params: dict[str, Any]
    inputs: dict[str, Any]
    failed: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "metrics": {name: _jsonable(v) for name, v in self.metrics.items()},
            "params": self.params,
            "inputs": self.inputs,
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["metric", "value"])
        for name, value in self.metrics.items():
            for key, cell in _csv_cells(name, value):
                writer.writerow([key, cell])
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ConfigError(f"unknown report format {fmt!r}; valid: json, csv")


def _jsonable(value):
    if isinstance(value, TopographicFunction):
        return {
            "k": value.k.tolist(),
            "tf": value.tf.tolist(),
            "normalized_k": value.normalized_k.tolist(),
            "normalized_tf": None if value.normalized_tf is None else value.normalized_tf.tolist(),
        }
    return value


def _csv_cells(name: str, value) -> list[tuple[str, str]]:
    if isinstance(value, dict) and "error" in value:
        return [(name, f"error:{value['error']}")]
    value = _jsonable(value)
    if isinstance(value, dict):  # one row per series, Python ints and floats joined by ";"
        return [(f"{name}.{key}", ";".join(map(repr, series))) for key, series in value.items() if series is not None]
    return [(name, repr(float(value)))]


def _fingerprint(matrix: np.ndarray) -> dict[str, Any]:
    return {
        "rows": int(matrix.shape[0]),
        "dims": int(matrix.shape[1]) if matrix.ndim > 1 else 1,
        "sha256": content_hash(matrix),
    }


def _from_file(path, make, *args):
    """``make(*args)``, its ``ValueError`` turned into an ``InputError`` naming ``path``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _passes(check, *args) -> bool:
    try:
        check(*args)
    except ValueError:
        return False
    return True


@contextmanager
def _computations(codebook: CodeBook, data: Dataset, metrics, k: int | None = None,
                  temperature: float | None = None, kernel: str = "gaussian"):
    """Yields ``{name: compute}`` for each distinct name of ``metrics``, in order of first occurrence.

    Every ``compute()`` runs in one evaluation over ``codebook`` and ``data``,
    whose plan is fixed here from the names: one sample-pair scan serves the
    requested pair metrics whose checks pass, and distortion's exact pass
    makes the projection when distortion is requested (only then is the
    temperature kept). The first metric that needs either pays for it. This
    is the one place that sets ``model._SCOPE``, reset when the block ends.
    """
    names = dict.fromkeys(metrics)
    pair_plan = (k if k is not None and names.keys() & {"trustworthiness", "neighborhood_preservation"}
                 and _passes(_check_order, data, k) else None,
                 "kruskal_shepard_error" in names and _passes(_check_kse, codebook, data),
                 "c_measure" in names and _passes(_check_samples, data, 2))
    evaluation = _Evaluation(codebook, data, k, temperature if "distortion" in names else None,
                             NeighborhoodKernel(kernel), pair_plan)
    token = _SCOPE.set(evaluation)
    try:
        yield {name: partial(REGISTRY[name].compute, evaluation) for name in names}
    finally:
        _SCOPE.reset(token)


def evaluate(config: EvaluationConfig) -> MetricReport:
    """Load inputs, compute the requested metrics, and assemble the report.

    A failing metric becomes an ``{"error": reason}`` entry without aborting
    the others; the report's ``failed`` list names such metrics.
    """
    config.validate()
    protos = load_matrix(config.codebook_path)
    samples = load_matrix(config.data_path)
    labels = load_labels(config.labels_path) if config.labels_path else None

    codebook = _from_file(config.codebook_path, CodeBook, protos,
                          MapGrid(config.rows, config.cols, config.topology))
    data = _from_file(config.data_path, Dataset, samples)
    if labels is not None:
        data = _from_file(config.labels_path, Dataset, data.samples, labels)
    if codebook.n_features != data.n_features:
        raise InputError(
            f"dimension mismatch: codebook {config.codebook_path} is "
            f"{codebook.n_units}x{codebook.n_features}, data {config.data_path} is "
            f"{data.n_samples}x{data.n_features}"
        )

    results: dict[str, Any] = {}
    failed: list[str] = []
    with _computations(codebook, data, config.metrics, config.k, config.temperature,
                       config.kernel) as computations:
        for name, compute in computations.items():
            try:
                value = compute()
                if isinstance(value, float) and not np.isfinite(value):
                    raise ValueError(f"non-finite result {value!r}")
                results[name] = value
            except Exception as exc:  # one bad metric must not sink the others
                results[name] = {"error": f"{type(exc).__name__}: {exc}"}
                failed.append(name)

    params = {
        "rows": config.rows,
        "cols": config.cols,
        "topology": config.topology,
        "k": config.k,
        "temperature": config.temperature,
        "kernel": config.kernel,
    }
    inputs = {
        "codebook": {"path": str(config.codebook_path), **_fingerprint(protos)},
        "data": {"path": str(config.data_path), **_fingerprint(samples)},
    }
    if labels is not None:
        inputs["labels"] = {"path": str(config.labels_path), **_fingerprint(labels.astype(float))}
    return MetricReport(results, params, inputs, failed)
