"""The names the CLI offers as choices, in a module that loads no numpy.

``report.REGISTRY``, ``grid`` and ``demos._EXPERIMENTS`` act on these names;
``sommetrics --help`` lists them without importing any of those modules.
"""

METRIC_NAMES = (
    "quantization_error", "distortion", "topographic_error", "combined_error", "trustworthiness",
    "neighborhood_preservation", "topographic_product", "topographic_function", "kruskal_shepard_error",
    "c_measure", "purity", "clustering_accuracy", "class_scatter_index",
)  # report.REGISTRY's keys, in its order
TOPOLOGIES = ("rectangular", "hexagonal")
KERNEL_KINDS = ("gaussian", "window")
EXPERIMENTS = ("square", "tf1d", "stripe")  # demos._EXPERIMENTS' keys, in its order
