"""Reference experiments: maps at three disorder levels, a folded 1-D map's
topographic function, and scripted stripe solutions.

Each experiment writes SVG figures and a metric table into an output
directory; everything is deterministic given the seed.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .figures import render_map_svg
from .grid import MapGrid
from .internal import topographic_function
from .model import CodeBook, Dataset, TrainerConfig, train_som
from .names import EXPERIMENTS
from .report import evaluate_map

# Fraction of unit pairs whose prototypes get swapped for the medium map.
_MEDIUM_SWAP_FRACTION = 0.25


def _swap_units(codebook: CodeBook, fraction: float, rng: np.random.Generator) -> CodeBook:
    """Scramble a map by swapping the prototypes of a random set of unit pairs.

    Grading the swapped fraction grades every organization index between the
    intact map and a full random permutation.
    """
    protos = codebook.prototypes.copy()
    n_swaps = int(fraction * codebook.n_units / 2)
    idx = rng.choice(codebook.n_units, size=2 * n_swaps, replace=False)
    a, b = idx[:n_swaps], idx[n_swaps:]
    protos[a], protos[b] = protos[b].copy(), protos[a].copy()
    return CodeBook(protos, codebook.grid)


def _write_table(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# Table columns of each demo, in order: the four indices that track organization, and the stripe trade-off.
_ORGANIZATION_METRICS = ("topographic_error", "combined_error", "kruskal_shepard_error", "c_measure")
_STRIPE_METRICS = ("quantization_error", "topographic_error", "combined_error")


def _score_maps(outdir: Path, prefix: str, first_column: str, maps: dict[str, CodeBook],
                data: Dataset, metrics) -> dict:
    """Score and draw each map in order, then tabulate the scores as ``<prefix>_metrics.csv``."""
    scores: dict[str, dict[str, float]] = {}
    files = []
    for name, codebook in maps.items():
        scores[name] = evaluate_map(codebook, data, metrics)
        svg_path = outdir / f"{prefix}_{name}.svg"
        svg_path.write_text(render_map_svg(codebook, data))
        files.append(svg_path)
    table = outdir / f"{prefix}_metrics.csv"
    _write_table(table, [first_column, *metrics],
                 [[name, *map(repr, row.values())] for name, row in scores.items()])
    files.append(table)
    return {"metrics": scores, "files": [str(p) for p in files]}


def square_demo(outdir, seed: int = 0) -> dict:
    """Three 10x10 maps on the unit square at increasing disorder.

    Ordered: the full training schedule. Medium: the ordered map with a
    quarter of its unit pairs swapped. Disordered: a full random permutation
    of the ordered map's prototypes. Writes one SVG per map and a table of
    the four indices that track organization.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    data = Dataset(rng.random((5000, 2)))

    ordered = train_som(data, TrainerConfig(10, 10, seed=seed))
    medium = _swap_units(ordered, _MEDIUM_SWAP_FRACTION, np.random.default_rng(seed + 1))
    perm = np.random.default_rng(seed + 2).permutation(ordered.n_units)
    disordered = CodeBook(ordered.prototypes[perm].copy(), ordered.grid)

    maps = {"ordered": ordered, "medium": medium, "disordered": disordered}
    return _score_maps(outdir, "square", "map", maps, data, _ORGANIZATION_METRICS)


def tf1d_demo(outdir, seed: int = 0, length: int = 20) -> dict:
    """A 1-D chain trained on the 2-D unit square; folding is expected.

    Writes the topographic function series together with its normalized
    variant, extended a few radii past the map diameter to show the vanishing
    tail, plus the trained map figure.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    data = Dataset(rng.random((2000, 2)))
    codebook = train_som(data, TrainerConfig(1, length, seed=seed))
    tf = topographic_function(codebook, data, k_max=length + 5)

    table = outdir / "tf1d_series.csv"
    rows = [[int(tf.k[i]), int(tf.tf[i]), repr(float(tf.normalized_k[i])),
             repr(float(tf.normalized_tf[i])) if tf.normalized_tf is not None else ""]
            for i in range(len(tf.k))]
    _write_table(table, ["k", "tf", "normalized_k", "normalized_tf"], rows)
    svg_path = outdir / "tf1d_map.svg"
    svg_path.write_text(render_map_svg(codebook, data))
    return {
        "tf": tf,
        "codebook": codebook,
        "files": [str(table), str(svg_path)],
    }


def _stripe_codebooks(length: int = 32) -> dict[str, CodeBook]:
    """Three scripted 1-D solutions over the 10 x 2 stripe.

    zigzag: vertical runs sweeping the stripe height, best coverage;
    moderate: a gentle sine wave; straight: the centerline.
    """
    grid = MapGrid(1, length)
    xs = (np.arange(length) + 0.5) * 10.0 / length

    straight = np.column_stack([xs, np.full(length, 1.0)])

    moderate = np.column_stack([xs, 1.0 + 0.72 * np.sin(2.0 * np.pi * xs / 4.0)])

    runs = 8
    per_run = length // runs
    zx = np.repeat((np.arange(runs) + 0.5) * 10.0 / runs, per_run)
    ramp = 0.4 + 1.2 * np.arange(per_run) / (per_run - 1)
    zy = np.concatenate([ramp if j % 2 == 0 else ramp[::-1] for j in range(runs)])
    zigzag = np.column_stack([zx, zy])

    return {
        "zigzag": CodeBook(zigzag, grid),
        "moderate": CodeBook(moderate, grid),
        "straight": CodeBook(straight, grid),
    }


def stripe_demo(outdir, seed: int = 0) -> dict:
    """Scripted 1-D chains on a rectangular stripe, compared by QE, TE and CE.

    The zig-zag quantizes best, the straight line is smoothest; only the
    combined error accounts for both the fit and the map-path geometry.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    data = Dataset(rng.random((2000, 2)) * np.array([10.0, 2.0]))
    return _score_maps(outdir, "stripe", "solution", _stripe_codebooks(), data, _STRIPE_METRICS)


_EXPERIMENTS = {"square": square_demo, "tf1d": tf1d_demo, "stripe": stripe_demo}  # keyed as names.EXPERIMENTS


def run_demo(experiment: str, outdir, seed: int = 0) -> dict:
    """Dispatch one of the named experiments into ``outdir``."""
    if experiment not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; valid: {', '.join(EXPERIMENTS)}")
    return _EXPERIMENTS[experiment](outdir, seed)
