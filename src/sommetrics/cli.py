"""Command-line interface: evaluate metrics on files, train fixture maps, run demos.

Exit codes: 0 success, 1 input/parse error, 2 config error, 3 computation
error. Every failure prints one machine-parsable line on stderr:
``error: <category>: <reason>``.
"""
from __future__ import annotations

import os

# The only BLAS call is projection's small screening product, and idle OpenBLAS
# workers cost each short run CPU time: one BLAS thread unless the caller set
# a number. This runs before numpy loads, as the package's __init__ loads nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import sys
from pathlib import Path

from .dataio import load_matrix, save_matrix
from .demos import EXPERIMENTS, run_demo
from .errors import ConfigError, InputError
from .grid import KERNEL_KINDS, TOPOLOGIES
from .model import Dataset, TrainerConfig, train_som
from .report import METRIC_NAMES, EvaluationConfig, evaluate

import click  # imported before numpy, it left each run's peak RSS about 0.4 MiB higher


def _fail(category: str, message: str, code: int) -> None:
    reason = " ".join(str(message).split())  # keep the diagnostic on one line
    click.echo(f"error: {category}: {reason}", err=True)
    sys.exit(code)


def _refuse_unwritable(out_path: str) -> None:
    """Fail now, before any input is loaded, when ``out_path`` is a directory or its directory is missing."""
    target = Path(out_path)
    if target.is_dir():
        _fail("input", f"cannot write {out_path}: it is a directory", 1)
    if not target.parent.is_dir():
        _fail("input", f"cannot write {out_path}: no directory {target.parent}", 1)


class _Group(click.Group):
    """Reports click's own usage errors (a bad option value, an unknown command) as config errors."""

    def parse_args(self, ctx, args):
        if not args and not ctx.resilient_parsing:  # a bare command prints its help, exit 0, under every click
            click.echo(ctx.get_help(), color=ctx.color)
            ctx.exit()
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            _fail("config", exc.format_message(), 2)

    def invoke(self, ctx):  # looks the command up, then parses the command's own options
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail("config", exc.format_message(), 2)


@click.group(cls=_Group)
def main() -> None:
    """Quality metrics for self-organizing maps."""


@main.command(
    name="evaluate",
    help="Compute metrics for a codebook/data pair and emit a report. "
         "Valid metric names: " + ", ".join(METRIC_NAMES) + ".",
)
@click.option("--codebook", "codebook_path", required=True, help="Codebook CSV, one prototype per line in row-major unit order.")
@click.option("--data", "data_path", required=True, help="Data CSV, one sample per line.")
@click.option("--labels", "labels_path", default=None, help="Label file, one integer per line (external indices).")
@click.option("--rows", required=True, type=int, help="Map rows.")
@click.option("--cols", required=True, type=int, help="Map columns.")
@click.option("--topology", default="rectangular", type=click.Choice(TOPOLOGIES), show_default=True)
@click.option("--metrics", "metric_list", required=True, help="Comma-separated metric names.")
@click.option("--k", type=int, default=None, help="Neighborhood order for trustworthiness / neighborhood preservation.")
@click.option("--temperature", type=float, default=None, help="Temperature for distortion.")
@click.option("--kernel", default="gaussian", type=click.Choice(KERNEL_KINDS), show_default=True)
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]), show_default=True)
@click.option("--out", "out_path", default=None, help="Write the report here instead of stdout.")
def evaluate_cmd(codebook_path, data_path, labels_path, rows, cols, topology,
                 metric_list, k, temperature, kernel, fmt, out_path) -> None:
    config = EvaluationConfig(
        codebook_path=codebook_path,
        data_path=data_path,
        labels_path=labels_path,
        rows=rows,
        cols=cols,
        topology=topology,
        metrics=tuple(name.strip() for name in metric_list.split(",") if name.strip()),
        k=k,
        temperature=temperature,
        kernel=kernel,
    )
    try:
        config.validate()
        if out_path:
            _refuse_unwritable(out_path)
        report = evaluate(config)
        rendered = report.render(fmt)
    except InputError as exc:
        _fail("input", str(exc), 1)
    except ConfigError as exc:
        _fail("config", str(exc), 2)
    except Exception as exc:
        _fail("computation", f"{type(exc).__name__}: {exc}", 3)
    if out_path:
        try:
            Path(out_path).write_text(rendered)
        except OSError as exc:
            _fail("input", f"cannot write {out_path}: {exc}", 1)
    else:
        click.echo(rendered, nl=False)
    if report.failed:
        _fail("computation", f"metric(s) failed: {', '.join(report.failed)}", 3)


@main.command(name="train")
@click.option("--data", "data_path", required=True, help="Training data CSV.")
@click.option("--rows", required=True, type=int)
@click.option("--cols", required=True, type=int)
@click.option("--topology", default="rectangular", type=click.Choice(TOPOLOGIES), show_default=True)
@click.option("--tmax", default=10.0, type=float, show_default=True, help="Initial temperature.")
@click.option("--tmin", default=0.1, type=float, show_default=True, help="Final temperature.")
@click.option("--alpha", default=0.5, type=float, show_default=True, help="Learning rate.")
@click.option("--iters", default=20000, type=int, show_default=True, help="Training iterations.")
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--out", "out_path", required=True, help="Output codebook path.")
def train_cmd(data_path, rows, cols, topology, tmax, tmin, alpha, iters, seed, out_path) -> None:
    """Train a map on a data file and write the codebook."""
    try:
        config = TrainerConfig(rows=rows, cols=cols, topology=topology, t_max=tmax,
                               t_min=tmin, alpha=alpha, iterations=iters, seed=seed)
    except ValueError as exc:
        _fail("config", str(exc), 2)
    _refuse_unwritable(out_path)
    try:
        data = Dataset(load_matrix(data_path))
    except InputError as exc:
        _fail("input", str(exc), 1)
    except ValueError as exc:  # parseable file, unusable contents
        _fail("input", f"{data_path}: {exc}", 1)
    try:
        codebook = train_som(data, config)
    except Exception as exc:
        _fail("computation", f"{type(exc).__name__}: {exc}", 3)
    try:
        save_matrix(out_path, codebook.prototypes)
    except OSError as exc:
        _fail("input", f"cannot write {out_path}: {exc}", 1)


@main.command(name="demo")
@click.option("--experiment", required=True, type=click.Choice(EXPERIMENTS))
@click.option("--outdir", required=True, help="Directory for figures and tables.")
@click.option("--seed", default=0, type=int, show_default=True)
def demo_cmd(experiment, outdir, seed) -> None:
    """Reproduce one of the reference experiments."""
    if seed < 0:
        _fail("config", f"seed must be non-negative, got {seed}", 2)
    try:
        Path(outdir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail("input", f"cannot create output directory {outdir}: {exc}", 1)
    try:
        result = run_demo(experiment, outdir, seed)
    except OSError as exc:
        _fail("input", f"cannot write into {outdir}: {exc}", 1)
    except Exception as exc:
        _fail("computation", f"{type(exc).__name__}: {exc}", 3)
    for path in result["files"]:
        click.echo(path)


if __name__ == "__main__":
    main()
