"""Write one workload's input files from a seed, plus a manifest describing them.

    PYTHONPATH=src python3 perfbench/gen_inputs.py --workload NAME --seed N --outdir DIR [--smoke]

It runs as its own process so that the benchmark process that spawns the
timed CLI children stays small: on Linux a child's ``ru_maxrss`` includes the
memory of the process it was forked from.

The evaluated codebook comes from ``train_som`` with the workload seed. The
manifest records each file's shape and sha256, the content hash the CLI
reports for it, the library versions and a fingerprint of numpy's
elementary functions (see ``run.reference_for``).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import scipy

import workloads
from sommetrics.dataio import save_matrix
from sommetrics.model import Dataset, TrainerConfig, train_som


def make_data(w: workloads.Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    if w.data == "uniform":
        x = rng.random((w.n, w.d))
        labels = 2 * (x[:, 0] >= 0.5) + (x[:, 1] >= 0.5)  # quadrant of the unit square
    else:
        centers = rng.normal(scale=3.0, size=(w.classes, w.d))
        labels = rng.integers(w.classes, size=w.n)
        x = centers[labels] + rng.normal(size=(w.n, w.d))
    return x, labels.astype(np.int64)


def numeric_fingerprint() -> str:
    """Digest of numpy's exp/log/sqrt on fixed inputs.

    Their last bits depend on the SIMD code path numpy picks for the CPU. The
    metrics use them, so reference digests taken on one CPU family only apply
    where this fingerprint matches.
    """
    v = np.linspace(1e-3, 50.0, 4099)
    parts = (np.exp(-v), np.log(v), np.sqrt(v), np.exp(-(v * v) / 7.0))
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


def versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def _write_labels(path: Path, labels: np.ndarray) -> None:
    path.write_text("\n".join(str(int(v)) for v in labels) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    w = workloads.get(args.workload, args.smoke)
    out = Path(args.outdir)

    x, labels = make_data(w, args.seed)
    arrays = {workloads.DATA: x, workloads.PAIR_DATA: x[: w.pair_rows]}
    save_matrix(out / workloads.DATA, x)
    save_matrix(out / workloads.PAIR_DATA, x[: w.pair_rows])
    _write_labels(out / workloads.LABELS, labels)
    _write_labels(out / workloads.PAIR_LABELS, labels[: w.pair_rows])
    if w.needs_fixture:
        config = TrainerConfig(rows=w.rows, cols=w.cols, topology=w.topology,
                               iterations=w.fixture_iters, seed=args.seed)
        codebook = train_som(Dataset(x), config)
        arrays[workloads.CODEBOOK] = codebook.prototypes
        save_matrix(out / workloads.CODEBOOK, codebook.prototypes)
    arrays[workloads.LABELS] = labels.astype(float)
    arrays[workloads.PAIR_LABELS] = labels[: w.pair_rows].astype(float)

    files = {}
    for name, arr in sorted(arrays.items()):
        raw = (out / name).read_bytes()
        files[name] = {
            "shape": list(arr.shape),
            "bytes": len(raw),
            "sha256": hashlib.sha256(raw).hexdigest(),
            # what the CLI report's "inputs" section must show for this file
            "content_sha256": hashlib.sha256(np.ascontiguousarray(arr, dtype=float).tobytes()).hexdigest(),
        }
    manifest = {"workload": w.name, "smoke": args.smoke, "seed": args.seed, "files": files,
                "versions": versions(), "numeric_fingerprint": numeric_fingerprint()}
    (out / workloads.MANIFEST).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
