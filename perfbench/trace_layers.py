"""Traced in-process pass over one workload: a span around every layer call.

    PYTHONPATH=src python3 perfbench/trace_layers.py --workload NAME --seed N \\
        --max-unattributed FRACTION --out FILE [--smoke]

Run it in the workload's work directory, after gen_inputs.py has written the
inputs there. The spans are taken from outside the program. For the length of
the pass, the public functions of each ``sommetrics`` module are replaced by
wrappers. Each wrapper records name, start, end, parent span, workload and
phase, plus the counts known at that boundary. The spans stay in memory and
are written out at the end, together with the per-layer metrics derived from
them. The pass has three phases:

command     the workload's CLI command, run in-process through ``cli.main``
            with the timed run's arguments.
complement  the layers the command does not call, so every workload reports
            every per-layer metric. Evaluation workloads retrain their
            codebook with ``train_som`` and save it. Metrics the command does
            not compute are evaluated on ``pairs.csv``, the first
            ``pair_rows`` samples, because the O(N^2) scans at full size
            would take minutes.
probe       single direct calls: a cold ``distance_matrix`` (after
            ``cache_clear()``), ``max_distance`` and one depth-2 ``project``
            over the full data.

Memory peaks come from a separate ``tracemalloc`` pass with the wrappers
removed, so that they do not inflate span times.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import workloads
from sommetrics import cli, dataio, external, grid, internal, model, report

INTERNAL = ("quantization_error", "distortion", "topographic_error", "combined_error",
            "trustworthiness", "neighborhood_preservation", "topographic_product",
            "topographic_function", "kruskal_shepard_error", "c_measure")
EXTERNAL = ("purity", "clustering_accuracy", "class_scatter_index")
FIXTURE_COPY = "trace_fixture.csv"


def _count_bytes(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _count_projection(result, codebook, data, *args, **kwargs):
    return {"distance_evals": data.n_samples * codebook.n_units,
            "distinct_bmus": int(np.unique(result.bmu).size)}


def _count_steps(result, data, config, *args, **kwargs):
    return {"steps": config.iterations}


def _count_pairs(result, codebook, data, *args, **kwargs):
    return {"sample_pairs": data.n_samples * (data.n_samples - 1) // 2}


def layer_targets() -> list[tuple]:
    """(span name, every namespace that binds the function, attribute, counter)."""
    return [
        ("dataio.load_matrix", (dataio, report, cli), "load_matrix", _count_bytes),
        ("dataio.load_labels", (dataio, report), "load_labels", _count_bytes),
        ("dataio.save_matrix", (dataio, cli), "save_matrix", None),
        ("grid.distance_matrix", (grid, model, internal, external), "distance_matrix", None),
        ("grid.max_distance", (grid.MapGrid,), "max_distance", None),
        ("model.project", (model, internal, external, report), "project", _count_projection),
        ("model.train_som", (model, cli), "train_som", _count_steps),
        *[(f"internal.{m}", (internal,), m, _count_pairs if m in workloads.PAIR_METRICS else None)
          for m in INTERNAL],
        *[(f"external.{m}", (external,), m, None) for m in EXTERNAL],
        ("report.evaluate", (report, cli), "evaluate", None),
        ("report.render", (report.MetricReport,), "render", None),
    ]


class Tracer:
    """Records spans around wrapped calls; ``install`` swaps the wrappers in."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.phase = ""
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload, "phase": self.phase}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter() - self._t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:  # counted after the span closes, so not timed
                rec.update(counter(result, *args, **kwargs))
            return result
        return traced

    def install(self, targets) -> None:
        for name, owners, attr, counter in targets:
            traced = self._wrap(name, getattr(owners[0], attr), counter)
            for owner in owners:
                self._undo.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class TraceError(RuntimeError):
    pass


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_cli(tracer: Tracer, args: list[str]) -> dict:
    """Run one CLI command in-process, inside a ``cli.<command>`` span."""
    with tracer.span(f"cli.{args[0]}") as rec:
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            raise TraceError(f"in-process `{' '.join(args)}` exited with {exc.code}") from exc
    return rec


def _codebook_file(w: workloads.Workload) -> str:
    """The evaluated codebook: generated, or for `train` the one the traced command wrote."""
    return workloads.CODEBOOK if w.needs_fixture else "trace_" + w.out


def traced_pass(w: workloads.Workload, seed: int) -> tuple[list[dict], dict]:
    tracer = Tracer(w.name)
    original_distance_matrix = grid.distance_matrix
    trace_out = "trace_" + w.out
    codebook_file = _codebook_file(w)
    tracer.install(layer_targets())
    try:
        tracer.phase = "command"
        command = run_cli(tracer, w.cli_args(out=trace_out))

        tracer.phase = "complement"
        outputs = {"command": _sha256(trace_out)}
        if w.needs_fixture:
            data = model.Dataset(dataio.load_matrix(workloads.DATA))
            config = model.TrainerConfig(rows=w.rows, cols=w.cols, topology=w.topology,
                                         iterations=w.fixture_iters, seed=seed)
            dataio.save_matrix(FIXTURE_COPY, model.train_som(data, config).prototypes)
            outputs["fixture"] = _sha256(FIXTURE_COPY)
        missing = tuple(m for m in workloads.ALL_METRICS if m not in w.metrics)
        if missing:
            run_cli(tracer, w.evaluate_args(codebook_file, workloads.PAIR_DATA, workloads.PAIR_LABELS,
                                            missing, "trace_complement.json"))

        tracer.phase = "probe"
        g = grid.MapGrid(w.rows, w.cols, w.topology)
        original_distance_matrix.cache_clear()
        grid.distance_matrix(g)
        g.max_distance()
        codebook = model.CodeBook(dataio.load_matrix(codebook_file), g)
        model.project(codebook, model.Dataset(dataio.load_matrix(workloads.DATA)), depth=2)
    finally:
        tracer.uninstall()
    return tracer.spans, {"command_s": _dur(command), "outputs": outputs}


def _peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def memory_peaks(w: workloads.Workload) -> dict[str, float]:
    """Traced peak MiB of the calls whose temporaries set the CLI's peak RSS."""
    g = grid.MapGrid(w.rows, w.cols, w.topology)
    codebook = model.CodeBook(dataio.load_matrix(_codebook_file(w)), g)
    data = model.Dataset(dataio.load_matrix(workloads.DATA))
    pairs = model.Dataset(dataio.load_matrix(workloads.PAIR_DATA))
    grid.distance_matrix(g)  # cached, as it is by the time any metric runs in `evaluate`
    return {
        "model.project_peak_mb": _peak_mb(model.project, codebook, data, 2),
        "internal.topographic_product_peak_mb": _peak_mb(internal.topographic_product, codebook),
        "internal.distortion_peak_mb": _peak_mb(internal.distortion, codebook, data, w.temperature),
        "internal.kruskal_shepard_error_peak_mb": _peak_mb(internal.kruskal_shepard_error, codebook, pairs),
        "internal.c_measure_peak_mb": _peak_mb(internal.c_measure, codebook, pairs),
    }


def derive_metrics(spans: list[dict], max_unattributed: float) -> dict[str, float]:
    """Per-layer metrics from the spans: each from the command phase when the
    command calls that layer, else from the complement phase."""
    def find(name, phases=("command", "complement")):
        for phase in phases:
            found = [s for s in spans if s["name"] == name and s["phase"] == phase]
            if found:
                return found
        raise TraceError(f"no {name} span in phase(s) {', '.join(phases)}")

    def children(span):
        return [s for s in spans if s["parent"] == span["id"]]

    for ev in (s for s in spans if s["name"] == "report.evaluate"):
        unattributed = _dur(ev) - sum(_dur(c) for c in children(ev))
        if unattributed > max_unattributed * _dur(ev):
            raise TraceError(f"trace incomplete: spans under report.evaluate ({ev['phase']}) leave "
                             f"{unattributed:.4f} s of {_dur(ev):.4f} s unattributed")

    m: dict[str, float] = {}
    loads = find("dataio.load_matrix", ("command",))
    m["dataio.load_matrix_s"] = sum(_dur(s) for s in loads)
    m["dataio.bytes_parsed"] = sum(s["bytes"] for s in loads)
    m["dataio.save_matrix_s"] = sum(_dur(s) for s in find("dataio.save_matrix"))
    m["grid.distance_matrix_s"] = _dur(find("grid.distance_matrix", ("probe",))[0])
    m["grid.max_distance_s"] = _dur(find("grid.max_distance", ("probe",))[0])
    proj = find("model.project", ("probe",))[0]
    m["model.project_s"] = _dur(proj)
    m["model.distance_evals"] = proj["distance_evals"]
    train = find("model.train_som")[0]
    m["model.train_som_s"] = _dur(train)
    m["model.train_steps_per_s"] = train["steps"] / _dur(train)
    for layer, names in (("internal", INTERNAL), ("external", EXTERNAL)):
        for name in names:
            m[f"{layer}.{name}_s"] = sum(_dur(s) for s in find(f"{layer}.{name}"))
    m["internal.sample_pairs"] = find("internal.trustworthiness")[0]["sample_pairs"]
    combined = find("internal.combined_error")[0]
    m["internal.path_sources"] = next(c["distinct_bmus"] for c in children(combined)
                                      if c["name"] == "model.project")
    ev = find("report.evaluate")[0]
    m["report.evaluate_s"] = _dur(ev)
    m["report.render_s"] = _dur(find("report.render", (ev["phase"],))[0])
    m["report.unattributed_s"] = _dur(ev) - sum(_dur(c) for c in children(ev))
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--max-unattributed", type=float, required=True,
                    help="largest share of report.evaluate_s its child spans may leave unexplained")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    w = workloads.get(args.workload, args.smoke)
    try:
        spans, info = traced_pass(w, args.seed)
        metrics = derive_metrics(spans, args.max_unattributed)
        metrics.update(memory_peaks(w))
    except TraceError as exc:
        print(f"error: trace: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps({**info, "metrics": metrics, "spans": spans}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
