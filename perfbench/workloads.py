"""The benchmark's workloads: input sizes, CLI arguments and file names.

Stdlib only, because the benchmark process that spawns the timed CLI
children imports it and must stay small (see ``run.py``).
"""
from __future__ import annotations

from dataclasses import dataclass

# Registry order of ``sommetrics.report.METRIC_NAMES``.
ALL_METRICS = (
    "quantization_error", "distortion", "topographic_error", "combined_error",
    "trustworthiness", "neighborhood_preservation", "topographic_product",
    "topographic_function", "kruskal_shepard_error", "c_measure",
    "purity", "clustering_accuracy", "class_scatter_index",
)
# The four metrics that scan all O(N^2) sample pairs.
PAIR_METRICS = ("trustworthiness", "neighborhood_preservation", "kruskal_shepard_error", "c_measure")
MAP_METRICS = tuple(m for m in ALL_METRICS if m not in PAIR_METRICS)

# Input and output file names inside a workload's work directory. They are
# relative on purpose: the report embeds input paths, so its bytes (and the
# reference digests) must not depend on where the checkout lives.
DATA, LABELS, CODEBOOK = "data.csv", "labels.txt", "codebook.csv"
PAIR_DATA, PAIR_LABELS = "pairs.csv", "pairs_labels.txt"
MANIFEST = "manifest.json"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str             # "evaluate" or "train"
    rows: int
    cols: int
    topology: str
    n: int                   # samples
    d: int                   # features
    classes: int
    data: str                # "uniform" (unit square, quadrant labels) or "blobs"
    metrics: tuple[str, ...] = ()
    k: int = 10
    temperature: float = 1.0
    fixture_iters: int = 20000   # train_som iterations for the evaluated codebook
    train_iters: int = 40000     # --iters of the timed `train` command
    pair_rows: int = 1000        # rows of pairs.csv, see trace_layers.py

    @property
    def out(self) -> str:
        return "report.json" if self.command == "evaluate" else "trained.csv"

    @property
    def needs_fixture(self) -> bool:
        return self.command == "evaluate"

    @property
    def grid_args(self) -> list[str]:
        return ["--rows", str(self.rows), "--cols", str(self.cols), "--topology", self.topology]

    def evaluate_args(self, codebook: str, data: str, labels: str,
                      metrics: tuple[str, ...], out: str) -> list[str]:
        return ["evaluate", "--codebook", codebook, "--data", data, "--labels", labels,
                *self.grid_args, "--metrics", ",".join(metrics), "--k", str(self.k),
                "--temperature", repr(self.temperature), "--out", out]

    def cli_args(self, out: str | None = None) -> list[str]:
        """Arguments of the timed CLI command, after ``python -m sommetrics.cli``."""
        out = out or self.out
        if self.command == "evaluate":
            return self.evaluate_args(CODEBOOK, DATA, LABELS, self.metrics, out)
        return ["train", "--data", DATA, *self.grid_args, "--iters", str(self.train_iters),
                "--seed", "0", "--out", out]


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "pairscan": Workload("pairscan", "evaluate", 10, 10, "rectangular", n=3000, d=2, classes=4,
                         data="uniform", metrics=ALL_METRICS, pair_rows=3000),
    "largemap": Workload("largemap", "evaluate", 30, 30, "hexagonal", n=10000, d=16, classes=10,
                         data="blobs", metrics=MAP_METRICS),
    "train": Workload("train", "train", 30, 30, "hexagonal", n=10000, d=16, classes=10,
                      data="blobs"),
}

# Tiny versions: same code paths, output checks and metric names; seconds to run.
SMOKE = {
    "pairscan": Workload("pairscan", "evaluate", 5, 5, "rectangular", n=160, d=2, classes=4,
                         data="uniform", metrics=ALL_METRICS, fixture_iters=2000, pair_rows=160),
    "largemap": Workload("largemap", "evaluate", 6, 6, "hexagonal", n=400, d=16, classes=10,
                         data="blobs", metrics=MAP_METRICS, fixture_iters=2000, pair_rows=120),
    "train": Workload("train", "train", 6, 6, "hexagonal", n=400, d=16, classes=10,
                      data="blobs", train_iters=2000, pair_rows=120),
}


def get(name: str, smoke: bool = False) -> Workload:
    return (SMOKE if smoke else WORKLOADS)[name]
