"""Tests of the benchmark harness, on the tiny smoke versions of the workloads.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import trace_layers  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_declared_metric(name, trace):
    proc = bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # seed 0 has stored reference digests, so every output was compared byte for byte
    assert "must match the reference digest for seed 0" in proc.stdout


def test_comparator_flags_a_perturbed_output(tmp_path):
    w = workloads.get("pairscan", smoke=True)
    work = tmp_path / "work"
    work.mkdir()
    deadline = time.monotonic() + 120
    gen = [sys.executable, str(BENCH / "gen_inputs.py"), "--workload", w.name, "--seed", "0",
           "--outdir", str(work), "--smoke"]
    assert run.run_child(gen, ROOT, deadline).returncode == 0
    manifest = json.loads((work / workloads.MANIFEST).read_text())
    expected, problem, _ = run.reference_for(run.reference_key(w, True), 0, manifest)
    assert expected is not None and problem is None

    cli = [sys.executable, "-m", "sommetrics.cli", *w.cli_args()]
    good = run.run_child(cli, work, deadline, work / "stderr.txt")
    run.check_output(w, work, manifest, good, expected)
    assert good.problem is None and good.digest == expected

    report = (work / w.out).read_text()
    value = json.loads(report)["metrics"]["quantization_error"]
    perturbed = report.replace(repr(value), repr(math.nextafter(value, math.inf)), 1)
    assert perturbed != report
    (work / w.out).write_text(perturbed)
    bad = run.Child(0.0, 0.0, 0.0, 0)
    run.check_output(w, work, manifest, bad, expected)
    assert bad.problem is not None and "differs from the expected" in bad.problem

    # with no reference, a run is compared with the first run of the same invocation
    assert run.compare_digest(hashlib.sha256(perturbed.encode()).hexdigest(), good.digest)


def test_report_checks_hold_at_any_seed(tmp_path):
    w = workloads.get("pairscan", smoke=True)
    manifest = {"files": {n: {"content_sha256": "x"} for n in (workloads.CODEBOOK, workloads.DATA, workloads.LABELS)}}
    metrics = {m: 0.5 for m in w.metrics}
    metrics["class_scatter_index"] = 1.25
    metrics["topographic_function"] = {"k": [1, 2], "tf": [3, 1]}
    inputs = {k: {"sha256": "x"} for k in ("codebook", "data", "labels")}
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"metrics": metrics, "inputs": inputs}))
    assert run.check_report(w, path, manifest) is None
    for name, value in (("purity", 1.5), ("class_scatter_index", 0.5), ("c_measure", {"error": "x"}),
                        ("topographic_function", {"k": [1, 2], "tf": [1, 3]})):
        path.write_text(json.dumps({"metrics": {**metrics, name: value}, "inputs": inputs}))
        assert run.check_report(w, path, manifest) is not None, name
    inputs["data"]["sha256"] = "y"
    path.write_text(json.dumps({"metrics": metrics, "inputs": inputs}))
    assert "fingerprints data" in run.check_report(w, path, manifest)


def _help_rss(cwd: Path) -> float:
    child = run.run_child([sys.executable, "-m", "sommetrics.cli", "--help"], cwd, time.monotonic() + 60)
    assert child.returncode == 0
    return child.peak_rss_mb


def test_help_peak_rss_does_not_depend_on_input_generation(tmp_path):
    before = _help_rss(tmp_path)
    gen = [sys.executable, str(BENCH / "gen_inputs.py"), "--workload", "largemap", "--seed", "0",
           "--outdir", str(tmp_path), "--smoke"]
    assert run.run_child(gen, ROOT, time.monotonic() + 60).returncode == 0
    after = _help_rss(tmp_path)
    assert abs(after - before) < 4.0, (before, after)

    # A child's ru_maxrss includes the memory of the process it was started
    # from, which is why the generator runs in a process of its own.
    fat = (f"import sys, time; sys.path[:0] = [{str(BENCH)!r}]; import run; "
           "ballast = bytearray(200 * 2**20); ballast[::4096] = b'x' * len(ballast[::4096]); "
           "c = run.run_child([sys.executable, '-m', 'sommetrics.cli', '--help'], run.ROOT, "
           "time.monotonic() + 60); print(c.peak_rss_mb)")
    out = subprocess.run([sys.executable, "-c", fat], cwd=tmp_path, env=run.child_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    assert float(out.stdout) > before + 100


def _span(sid, name, start, end, parent=None, phase="command", **attrs):
    return {"id": sid, "name": name, "parent": parent, "workload": "w", "phase": phase,
            "start": start, "end": end, **attrs}


def test_trace_fails_loudly_when_spans_do_not_cover_evaluate():
    spans = [_span(0, "report.evaluate", 0.0, 1.0), _span(1, "internal.c_measure", 0.1, 0.2, parent=0)]
    with pytest.raises(trace_layers.TraceError, match="trace incomplete"):
        trace_layers.derive_metrics(spans, max_unattributed=0.15)


def test_trace_fails_loudly_when_a_layer_is_missing():
    spans = [_span(0, "report.evaluate", 0.0, 1.0), _span(1, "dataio.load_matrix", 0.0, 1.0, parent=0, bytes=9)]
    with pytest.raises(trace_layers.TraceError, match="no dataio.save_matrix span"):
        trace_layers.derive_metrics(spans, max_unattributed=0.15)


def test_exits_nonzero_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "pairscan", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / "perfbench" / "out").exists()
