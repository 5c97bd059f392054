"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted explicitly.
"""
import time

import numpy as np
import pytest
from click.testing import CliRunner

import sommetrics as sm
from sommetrics.cli import main as cli_main
from sommetrics.dataio import save_matrix
from sommetrics.demos import square_demo, stripe_demo, tf1d_demo
from sommetrics.grid import MapGrid, adjacency_pairs, distance_matrix
from sommetrics.internal import _map_path_costs
from sommetrics.model import bmu_distances

from oracles import (
    clustering_accuracy_bruteforce,
    min_path_cost_exhaustive,
    topographic_product_bruteforce,
    trust_np_bruteforce,
)


def _report(number: int, ok: bool, label: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_c01_trust_np_match_bruteforce_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(50):
        k = (1, 2, 5)[i % 3]
        n = int(rng.integers(11, 31))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(2, 5))
        grid = MapGrid(rows, cols)
        cb = sm.CodeBook(rng.normal(size=(grid.n_units, 2)), grid)
        data = sm.Dataset(rng.normal(size=(n, 2)))
        bmus = sm.project(cb, data, depth=1).bmu
        oracle_t, oracle_np = trust_np_bruteforce(
            data.samples.tolist(), [int(b) for b in bmus], distance_matrix(grid).tolist(), k
        )
        worst = max(worst, abs(sm.trustworthiness(cb, data, k) - oracle_t))
        worst = max(worst, abs(sm.neighborhood_preservation(cb, data, k) - oracle_np))
    elapsed = time.time() - start
    _report(1, worst <= 1e-12 and elapsed < 10,
            f"trust/NP vs brute force: max |diff| = {worst:.2e}, {elapsed:.1f}s")


def test_c02_topographic_product_matches_bruteforce():
    start = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(2, 13 // rows))
        grid = MapGrid(rows, cols)
        cb = sm.CodeBook(rng.normal(size=(grid.n_units, 3)), grid)
        expected = topographic_product_bruteforce(
            cb.prototypes.tolist(), distance_matrix(grid).tolist()
        )
        worst = max(worst, abs(sm.topographic_product(cb) - expected))
    elapsed = time.time() - start
    _report(2, worst <= 1e-9 and elapsed < 5,
            f"topographic product vs brute force: max |diff| = {worst:.2e}, {elapsed:.1f}s")


def test_c03_combined_error_paths_match_exhaustive_enumeration():
    start = time.time()
    grid = MapGrid(3, 3)
    edge_idx = [tuple(e) for e in adjacency_pairs(grid)]
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        cb = sm.CodeBook(rng.normal(size=(9, 2)), grid)
        weights = {
            (a, b): float(((cb.prototypes[a] - cb.prototypes[b]) ** 2).sum())
            for a, b in edge_idx
        }
        costs = _map_path_costs(cb, *np.divmod(np.arange(81), 9)).reshape(9, 9)  # every ordered pair
        for s in range(9):
            for t in range(9):
                if s != t:
                    worst = max(worst, abs(costs[s][t] - min_path_cost_exhaustive(9, weights, s, t)))
    elapsed = time.time() - start
    _report(3, worst <= 1e-12 and elapsed < 5,
            f"map path costs vs exhaustive paths: max |diff| = {worst:.2e}, {elapsed:.1f}s")


def test_c04_clustering_accuracy_matches_permutation_search():
    start = time.time()
    rng = np.random.default_rng(404)
    exact = True
    for _ in range(50):
        ids = int(rng.integers(2, 7))
        n = int(rng.integers(ids, 40))
        assignments = rng.integers(0, ids, size=n).astype(np.int64)
        labels = rng.integers(0, ids, size=n).astype(np.int64)
        expected = clustering_accuracy_bruteforce(assignments.tolist(), labels.tolist())
        exact &= sm.clustering_accuracy(assignments, labels) == expected
    elapsed = time.time() - start
    _report(4, exact and elapsed < 5,
            f"assignment accuracy vs exhaustive permutations: exact = {exact}, {elapsed:.1f}s")


def test_c05_square_demo_orderings(tmp_path):
    start = time.time()
    metrics = square_demo(tmp_path / "square", seed=0)["metrics"]
    o, m, d = metrics["ordered"], metrics["medium"], metrics["disordered"]
    ok = all(
        o[name] < m[name] < d[name]
        for name in ("topographic_error", "combined_error", "kruskal_shepard_error")
    ) and o["c_measure"] > m["c_measure"] > d["c_measure"]
    elapsed = time.time() - start
    _report(5, ok and elapsed < 60,
            "TE/CE/KSE strictly increase and C strictly decreases over "
            f"ordered/medium/disordered ({elapsed:.1f}s)")


def test_c06_tf_vanishes_at_map_length(tmp_path):
    start = time.time()
    result = tf1d_demo(tmp_path / "tf1d", seed=0, length=20)
    tf = result["tf"]
    tail = tf.tf[tf.k >= 20]
    ok = tail.size > 0 and np.all(tail == 0)
    elapsed = time.time() - start
    _report(6, ok and elapsed < 30,
            f"TF(k) = 0 for all k >= 20 on a trained 1x20 map ({elapsed:.1f}s)")


def test_c07_stripe_argmins(tmp_path):
    start = time.time()
    metrics = stripe_demo(tmp_path / "stripe", seed=0)["metrics"]
    qmin = min(metrics, key=lambda s: metrics[s]["quantization_error"])
    tmin = min(metrics, key=lambda s: metrics[s]["topographic_error"])
    cmin = min(metrics, key=lambda s: metrics[s]["combined_error"])
    ok = (qmin, tmin, cmin) == ("zigzag", "straight", "straight")
    elapsed = time.time() - start
    _report(7, ok and elapsed < 5,
            f"stripe argmins: QE->{qmin}, TE->{tmin}, CE->{cmin} ({elapsed:.1f}s)")


def test_c08_topographic_product_sign_behavior():
    start = time.time()
    rng = np.random.default_rng(808)
    data = sm.Dataset(rng.random((4000, 2)))
    folded = sm.train_som(data, sm.TrainerConfig(1, 64, iterations=30000, seed=0))
    tp_folded = sm.topographic_product(folded)

    chain = sm.CodeBook(np.linspace(0.0, 1.0, 32)[:, None], MapGrid(1, 32))
    tp_chain = sm.topographic_product(chain)
    elapsed = time.time() - start
    ok = tp_folded < -0.01 and abs(tp_chain) < 0.01 and elapsed < 60
    _report(8, ok,
            f"TP(1x64 on square) = {tp_folded:.4f} < -0.01; "
            f"|TP(ordered chain)| = {abs(tp_chain):.2e} < 0.01 ({elapsed:.1f}s)")


def _all_indices(cb, data):
    tf = sm.topographic_function(cb, data)
    return {
        "qe": sm.quantization_error(cb, data),
        "distortion": sm.distortion(cb, data, 1.0),
        "te": sm.topographic_error(cb, data),
        "ce": sm.combined_error(cb, data),
        "tp": sm.topographic_product(cb),
        "tf": tf.tf.copy(),
        "kse": sm.kruskal_shepard_error(cb, data),
        "c": sm.c_measure(cb, data),
    }


def _close(a, b, rtol=1e-9):
    return bool(np.isclose(a, b, rtol=rtol, atol=1e-12))


def test_c09_rigid_motion_and_scaling_laws():
    start = time.time()
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(20):
        rows = int(rng.integers(2, 4))
        cols = int(rng.integers(2, 4))
        grid = MapGrid(rows, cols)
        dims = int(rng.integers(2, 4))
        cb = sm.CodeBook(rng.normal(size=(grid.n_units, dims)), grid)
        data = sm.Dataset(rng.normal(size=(25, dims)))
        base = _all_indices(cb, data)

        # rigid motion: random rotation + translation of data and codebook together
        q, _ = np.linalg.qr(rng.normal(size=(dims, dims)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.normal(size=dims)
        moved = _all_indices(
            sm.CodeBook(cb.prototypes @ q.T + shift, grid),
            sm.Dataset(data.samples @ q.T + shift),
        )
        for name in ("qe", "distortion", "te", "ce", "tp", "kse", "c"):
            ok &= _close(base[name], moved[name])
        ok &= np.array_equal(base["tf"], moved["tf"])

        # uniform scaling laws
        s = float(rng.uniform(0.2, 5.0))
        scaled = _all_indices(
            sm.CodeBook(cb.prototypes * s, grid),
            sm.Dataset(data.samples * s),
        )
        ok &= _close(scaled["qe"], s * base["qe"])
        ok &= _close(scaled["distortion"], s * s * base["distortion"])
        ok &= _close(scaled["ce"], s * s * base["ce"])
        ok &= _close(scaled["c"], s * base["c"])
        for name in ("te", "tp", "kse"):
            ok &= _close(scaled[name], base[name])
        ok &= np.array_equal(base["tf"], scaled["tf"])
    elapsed = time.time() - start
    _report(9, ok and elapsed < 10,
            f"rigid-motion invariance and scaling laws at 1e-9 relative ({elapsed:.1f}s)")


def test_c10_distortion_small_temperature_limit():
    start = time.time()
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(20):
        grid = MapGrid(int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        cb = sm.CodeBook(rng.normal(size=(grid.n_units, 2)), grid)
        data = sm.Dataset(rng.normal(size=(40, 2)))
        bmus = sm.project(cb, data, depth=1).bmu
        direct = float((bmu_distances(cb, data, bmus) ** 2).mean())
        value = sm.distortion(cb, data, 1e-3)
        worst = max(worst, abs(value - direct) / direct)
    elapsed = time.time() - start
    _report(10, worst <= 1e-6 and elapsed < 5,
            f"distortion at T=1e-3 vs BMU term: max rel diff = {worst:.2e} ({elapsed:.1f}s)")


def test_c11_purity_is_one_when_each_sample_owns_a_unit():
    n = 12
    assignments = np.arange(n)
    labels = np.random.default_rng(11).integers(0, 3, size=n).astype(np.int64)
    value = sm.purity(assignments, labels)
    _report(11, value == 1.0, f"purity = {value} for the K = N partition")


def test_c12_cli_subcommands_bit_identical(tmp_path):
    runner = CliRunner()
    rng = np.random.default_rng(1212)
    data_path = tmp_path / "data.csv"
    save_matrix(data_path, rng.random((60, 2)))

    ok = True
    # train: byte-identical codebooks
    cb_paths = []
    for name in ("cb1.csv", "cb2.csv"):
        out = tmp_path / name
        res = runner.invoke(cli_main, [
            "train", "--data", str(data_path), "--rows", "3", "--cols", "3",
            "--iters", "400", "--seed", "21", "--out", str(out),
        ])
        ok &= res.exit_code == 0
        cb_paths.append(out)
    ok &= cb_paths[0].read_bytes() == cb_paths[1].read_bytes()

    # evaluate: byte-identical reports
    outputs = []
    for _ in range(2):
        res = runner.invoke(cli_main, [
            "evaluate", "--codebook", str(cb_paths[0]), "--data", str(data_path),
            "--rows", "3", "--cols", "3",
            "--metrics", "quantization_error,topographic_error,topographic_function",
        ])
        ok &= res.exit_code == 0
        outputs.append(res.output)
    ok &= outputs[0] == outputs[1]

    # demo: byte-identical output trees for each cheap experiment
    for experiment in ("stripe", "tf1d"):
        trees = []
        for sub in ("a", "b"):
            outdir = tmp_path / f"{experiment}_{sub}"
            res = runner.invoke(cli_main, [
                "demo", "--experiment", experiment, "--outdir", str(outdir), "--seed", "7",
            ])
            ok &= res.exit_code == 0
            trees.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
        ok &= trees[0] == trees[1]

    _report(12, ok, "train, evaluate and demo are bit-identical across repeated seeded runs")
