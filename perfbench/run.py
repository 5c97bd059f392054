"""Benchmark of the sommetrics CLI: seeded workloads, output checks, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--smoke]

Run it from a source checkout; the package need not be installed, because the
children run ``python -m sommetrics.cli`` with ``PYTHONPATH=src``. The load is
a closed loop with one client: this process starts one CLI child at a time and
waits for it.

A run (``--trace 0``) does this:

1. ``gen_inputs.py``, in its own process, writes the workload's inputs from
   ``--seed`` into ``perfbench/out/<workload>-seed<N>/``. The program only ever
   receives these files.
2. ``setup_s``: the median wall time of five ``--help`` runs, after one
   untimed warm-up run.
3. The workload's CLI command is started again and again until ``--seconds``
   have passed. ``wall_s``, ``cpu_s`` (user+sys from ``os.wait4``) and
   ``peak_rss_mb`` (``ru_maxrss``) are the medians over these runs.
4. Every run's output is checked: exit code, report contents, and the sha256
   of the report (or of the trained codebook). At the seeds in
   ``reference.json`` the digest must equal the stored one. At other seeds it
   must equal the first run's digest, and it is recorded so that two commits
   can be compared.

``--trace 1`` runs steps 1 and 2 with three ``--help`` runs, then one untimed
CLI run, then ``trace_layers.py``. That script times every layer from outside
the program and prints the per-layer metrics.

This process imports only the standard library. On Linux a child's
``ru_maxrss`` includes the memory of the process it was forked from, so a
harness that held numpy arrays would inflate ``peak_rss_mb``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The metric names and units come from
``BENCHMARK.json``. A full record goes to ``perfbench/out/result-*.json``: the
provenance, each run and its digests. The spans go to ``trace.json`` in the
work directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 5
TRACE_SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # a workload run stays under a 180 s per-run limit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a result."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    digest: str | None = None
    problem: str | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], cwd: Path, deadline: float, log: Path | None = None) -> Child:
    """Run one child to completion; wall time, user+sys time and peak RSS from ``wait4``."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before `{' '.join(cmd[-3:])}`")
    with open(log or os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

# Ranges every correct report satisfies, whatever the seed.
METRIC_RANGES = {
    "quantization_error": (0.0, math.inf), "distortion": (0.0, math.inf),
    "topographic_error": (0.0, 1.0), "combined_error": (0.0, math.inf),
    "kruskal_shepard_error": (0.0, math.inf), "c_measure": (0.0, math.inf),
    "purity": (0.0, 1.0), "clustering_accuracy": (0.0, 1.0),
    "class_scatter_index": (1.0, math.inf),
}


def check_report(w: workloads.Workload, path: Path, manifest: dict) -> str | None:
    """Problems with an `evaluate` report that hold at any seed, or None."""
    try:
        report = json.loads(path.read_text())
        metrics, inputs = report["metrics"], report["inputs"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable report {path.name}: {exc!r}"
    if list(metrics) != list(w.metrics):
        return f"report lists metrics {list(metrics)}, expected {list(w.metrics)}"
    for name, value in metrics.items():
        if name == "topographic_function":
            tf = value.get("tf") if isinstance(value, dict) else None
            if not tf or len(tf) != len(value["k"]) or any(b > a for a, b in zip(tf, tf[1:])) or tf[-1] < 0:
                return f"topographic_function is not a nonincreasing nonnegative series: {value!r}"
            continue
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name} = {value!r} is not a finite number"
        lo, hi = METRIC_RANGES.get(name, (-math.inf, math.inf))
        if not lo <= value <= hi:
            return f"{name} = {value!r} outside [{lo}, {hi}]"
    for key, name in (("codebook", workloads.CODEBOOK), ("data", workloads.DATA), ("labels", workloads.LABELS)):
        if inputs.get(key, {}).get("sha256") != manifest["files"][name]["content_sha256"]:
            return f"report fingerprints {key} as {inputs.get(key)}, not the generated {name}"
    return None


def check_codebook(w: workloads.Workload, path: Path) -> str | None:
    """Problems with a trained codebook file that hold at any seed, or None."""
    try:
        rows = [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()]
    except (OSError, ValueError) as exc:
        return f"unreadable codebook {path.name}: {exc!r}"
    if len(rows) != w.rows * w.cols or any(len(r) != w.d for r in rows):
        return f"codebook is not {w.rows * w.cols}x{w.d}"
    if not all(math.isfinite(v) for r in rows for v in r):
        return "codebook holds non-finite values"
    return None


def check_output(w: workloads.Workload, work: Path, manifest: dict, run: Child,
                 expected: str | None) -> None:
    """Fill ``run.digest`` and ``run.problem``; ``expected`` is the digest the output must have."""
    path = work / w.out
    if run.returncode != 0:
        run.problem = f"exit code {run.returncode}: {(work / 'stderr.txt').read_text().strip()[-300:]}"
        return
    if not path.is_file():
        run.problem = f"no output file {path.name}"
        return
    run.digest = sha256_file(path)
    run.problem = check_report(w, path, manifest) if w.command == "evaluate" else check_codebook(w, path)
    if run.problem is None:
        run.problem = compare_digest(run.digest, expected)


def compare_digest(digest: str, expected: str | None) -> str | None:
    if expected is not None and digest != expected:
        return f"output sha256 {digest[:16]}... differs from the expected {expected[:16]}..."
    return None


def reference_key(w: workloads.Workload, smoke: bool) -> str:
    return w.name + ("-smoke" if smoke else "")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"workloads": {}}


def reference_for(key: str, seed: int, manifest: dict) -> tuple[str | None, str | None, str]:
    """(expected output digest, problem, note) for this workload and seed.

    References only apply where numpy's elementary functions give the same
    bits as on the machine that recorded them (``numeric_fingerprint``); there
    the generated inputs must match too, since the evaluated codebook is
    itself an output of ``train_som``.
    """
    ref = load_reference()
    entry = ref["workloads"].get(key, {}).get(str(seed))
    if entry is None:
        return None, None, f"no reference digest for seed {seed}: digests recorded only"
    if manifest["numeric_fingerprint"] != ref.get("numeric_fingerprint"):
        return None, None, "numpy's exp/log/sqrt differ from the reference machine: digests recorded only"
    inputs = {name: f["sha256"] for name, f in manifest["files"].items()}
    if inputs != entry["inputs"]:
        changed = sorted(n for n in inputs if inputs[n] != entry["inputs"].get(n))
        return entry["output"], f"generated inputs differ from the reference: {', '.join(changed)}", ""
    return entry["output"], None, f"output must match the reference digest for seed {seed}"


def write_reference(key: str, seed: int, manifest: dict, digest: str) -> None:
    ref = load_reference()
    ref["numeric_fingerprint"] = manifest["numeric_fingerprint"]
    ref["workloads"].setdefault(key, {})[str(seed)] = {
        "inputs": {name: f["sha256"] for name, f in sorted(manifest["files"].items())},
        "output": digest,
    }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, smoke: bool, manifest: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **manifest["versions"],
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "git_commit": git_commit(),
        "seed": seed,
        "smoke": smoke,
        "inputs": {name: {"shape": f["shape"], "sha256": f["sha256"]}
                   for name, f in sorted(manifest["files"].items())},
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def bench_workload(w: workloads.Workload, seed: int, seconds: float, trace: bool, smoke: bool,
                   contract: dict, record: bool = False) -> dict:
    """Run one workload; returns metrics, attempt counts and the full record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    key = reference_key(w, smoke)
    work = OUT / f"{key}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "stderr.txt"

    gen = [sys.executable, str(BENCH / "gen_inputs.py"), "--workload", w.name,
           "--seed", str(seed), "--outdir", str(work)] + (["--smoke"] if smoke else [])
    if run_child(gen, ROOT, deadline, log).returncode != 0:
        raise BenchError(f"input generation failed: {log.read_text().strip()[-500:]}")
    manifest = json.loads((work / workloads.MANIFEST).read_text())
    expected, input_problem, note = reference_for(key, seed, manifest)

    cli = [sys.executable, "-m", "sommetrics.cli"]
    run_child(cli + ["--help"], work, deadline)  # warm-up: bytecode and page cache
    helps = [run_child(cli + ["--help"], work, deadline)
             for _ in range(TRACE_SETUP_REPEATS if trace else SETUP_REPEATS)]
    for h in helps:
        if h.returncode != 0:
            h.problem = f"--help exited with {h.returncode}"

    runs: list[Child] = []
    t0 = time.perf_counter()
    while not runs or (not trace and time.perf_counter() - t0 < seconds):
        (work / w.out).unlink(missing_ok=True)
        run = run_child(cli + w.cli_args(), work, deadline, log)
        check_output(w, work, manifest, run, expected or (runs[0].digest if runs else None))
        if input_problem:
            run.problem = input_problem
        runs.append(run)
    measured_s = time.perf_counter() - t0

    setup_s = statistics.median([h.wall_s for h in helps])
    if trace:
        metrics = trace_layers(w, seed, smoke, work, runs[0], setup_s, contract, deadline)
    else:
        metrics = {"wall_s": statistics.median([r.wall_s for r in runs]),
                   "cpu_s": statistics.median([r.cpu_s for r in runs]),
                   "peak_rss_mb": statistics.median([r.peak_rss_mb for r in runs]),
                   "setup_s": setup_s}
    failed = sum(c.problem is not None for c in helps + runs)
    if record and not trace and failed == 0 and expected is None:
        write_reference(key, seed, manifest, runs[0].digest)
        note = f"reference digest written for seed {seed}"
    return {
        "workload": w.name, "trace": trace, "seconds": seconds, "measured_s": measured_s,
        "reference": note, "attempted": len(helps) + len(runs), "failed": failed,
        "setup_runs": [asdict(h) for h in helps], "runs": [asdict(r) for r in runs],
        "metrics": metrics, "provenance": provenance(seed, smoke, manifest),
    }


def trace_layers(w, seed, smoke, work, untraced: Child, setup_s, contract, deadline) -> dict:
    """Per-layer metrics from trace_layers.py, checked against the declared names."""
    bound = next(m["bound"] for m in contract["end_to_end"] if m["name"] == "wall_s")
    cmd = [sys.executable, str(BENCH / "trace_layers.py"), "--workload", w.name, "--seed", str(seed),
           "--max-unattributed", repr(bound), "--out", "trace.json"] + (["--smoke"] if smoke else [])
    log = work / "trace_stderr.txt"
    if run_child(cmd, work, deadline, log).returncode != 0:
        raise BenchError(f"traced pass failed: {log.read_text().strip()[-800:]}")
    trace = json.loads((work / "trace.json").read_text())
    if untraced.digest is not None and trace["outputs"]["command"] != untraced.digest:
        untraced.problem = "in-process output differs from the CLI output"
    if "fixture" in trace["outputs"] and trace["outputs"]["fixture"] != sha256_file(work / workloads.CODEBOOK):
        untraced.problem = "retrained codebook differs from the generated one"
    metrics = trace["metrics"]
    # How much slower the traced in-process command plus interpreter start-up is
    # than the same command run untraced.
    metrics["trace.overhead_frac"] = (setup_s + trace["command_s"]) / untraced.wall_s - 1.0
    declared = [m["name"] for m in contract["per_layer"]]
    missing = [n for n in declared if n not in metrics]
    extra = [n for n in metrics if n not in declared]
    if missing or extra:
        raise BenchError(f"per-layer metrics missing: {missing}; undeclared: {extra}")
    return {n: metrics[n] for n in declared}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_result(res: dict, units: dict[str, str]) -> None:
    p, name = res["provenance"], res["workload"]
    mode = "traced" if res["trace"] else f"{len(res['runs'])} timed runs in {res['measured_s']:.1f} s"
    print(f"== {name}  seed {p['seed']}{'  smoke' if p['smoke'] else ''}  ({mode})")
    print(f"provenance  nproc={p['nproc']} usable={p['cpus_usable']} cpu={p['cpu_model']!r} "
          f"python={p['python']} numpy={p['numpy']} scipy={p['scipy']} blas={p['blas']!r} "
          f"threads={p['thread_env']} commit={p['git_commit']}")
    for fname, f in p["inputs"].items():
        print(f"input       {fname} shape={'x'.join(map(str, f['shape']))} sha256={f['sha256']}")
    print(f"output      {res['reference']}")
    for r in res["runs"]:
        print(f"run         wall={r['wall_s']:.4f}s cpu={r['cpu_s']:.4f}s rss={r['peak_rss_mb']:.1f}MiB "
              f"sha256={r['digest']} {'FAILED: ' + r['problem'] if r['problem'] else 'ok'}")
    walls = [r["wall_s"] for r in res["runs"]]
    counts = {"wall_s": f"median of {len(walls)} runs [{min(walls):.3f} .. {max(walls):.3f}]",
              "setup_s": f"median of {len(res['setup_runs'])} --help runs"}
    for metric, value in res["metrics"].items():
        print(f"{name:<10}  {metric:<40} {value:>14.6g} {units[metric]:<6} {counts.get(metric, '')}")
    print(f"{name:<10}  {'failed_frac':<40} {res['failed'] / res['attempted']:>14.6g} {'ratio':<6} "
          f"{res['failed']} of {res['attempted']} child runs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, same code paths and checks")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this seed's output digest in reference.json (untraced runs only)")
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    try:
        if not (ROOT / "src" / "sommetrics" / "cli.py").is_file():
            raise BenchError(f"no sommetrics sources under {ROOT / 'src'}")
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
        seconds = contract["run_seconds"] if args.seconds is None else args.seconds
        plan = ([(n, t) for n in workloads.WORKLOADS for t in (False, True)] if args.all
                else [(args.workload, bool(args.trace))])
        results = []
        for name, trace in plan:
            res = bench_workload(workloads.get(name, args.smoke), args.seed, seconds, trace,
                                 args.smoke, contract, args.write_reference)
            OUT.mkdir(parents=True, exist_ok=True)
            tag = f"{reference_key(workloads.get(name, args.smoke), args.smoke)}-seed{args.seed}-trace{int(trace)}"
            (OUT / f"result-{tag}.json").write_text(json.dumps(res, indent=1) + "\n")
            print_result(res, units)
            results.append(res)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: benchmark: {exc}", file=sys.stderr)
        return 2
    metrics = {(f"{r['workload']}.{n}" if args.all else n): {"value": v, "unit": units[n]}
               for r in results for n, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    summary = {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
               "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
