"""Quality metrics for self-organizing maps.

Clustering-quality and topographic indices, internal and external, over a
codebook and its map lattice, plus the reference stochastic trainer used to
build evaluation fixtures.

Importing the package loads nothing: each public name, and each submodule
(``sommetrics.model``), is imported on first use (PEP 562), so the CLI can
set its environment before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "external": ("class_scatter_index", "clustering_accuracy", "contingency_table", "purity"),
    "grid": ("GAUSSIAN", "WINDOW", "MapGrid", "NeighborhoodKernel", "adjacency_pairs", "distance_matrix"),
    "internal": ("TopographicFunction", "c_measure", "combined_error", "distortion", "kruskal_shepard_error",
                 "neighborhood_preservation", "quantization_error", "topographic_error",
                 "topographic_function", "topographic_product", "trustworthiness"),
    "model": ("CodeBook", "Dataset", "ProjectionIndex", "TrainerConfig", "init_codebook", "project", "train_som"),
    "report": ("METRIC_NAMES", "EvaluationConfig", "MetricReport", "evaluate"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
_SUBMODULES = ("cli", "dataio", "demos", "errors", "external", "figures", "grid", "internal", "model", "report")


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


__all__ = [*_MODULE_OF, "__version__"]
