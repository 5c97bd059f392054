"""Self-contained SVG rendering of a map over its data: scatter dots plus lattice edges.

No plotting dependency; output is deterministic text, good enough for visual
fixture inspection and byte-level comparison in tests.
"""
from __future__ import annotations

import numpy as np

from .grid import adjacency_pairs
from .model import CodeBook, Dataset


_SIZE = 480  # pixels along the longer side
_MARGIN = 0.05  # fraction of the bounding box added around the content


def _first_two_columns(matrix: np.ndarray) -> np.ndarray:
    """The first two columns of ``matrix``; a 1-column matrix gets a zero second column."""
    return np.column_stack([matrix[:, :2], np.zeros((len(matrix), max(0, 2 - matrix.shape[1])))])


def render_map_svg(codebook: CodeBook, data: Dataset) -> str:
    """SVG text showing data points and the codebook lattice in input space.

    Only the first two feature dimensions are drawn.
    """
    protos = _first_two_columns(codebook.prototypes)
    points = _first_two_columns(data.samples)

    stack = np.vstack([protos, points])
    lo = stack.min(axis=0)
    hi = stack.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = _MARGIN * span.max()
    lo, hi = lo - pad, hi + pad
    span = hi - lo
    scale = _SIZE / span.max()
    width = span[0] * scale
    height = span[1] * scale

    def sx(v: float) -> str:
        return f"{(v - lo[0]) * scale:.2f}"

    def sy(v: float) -> str:
        return f"{height - (v - lo[1]) * scale:.2f}"  # y grows upward in data space

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" height="{height:.2f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<rect width="{width:.2f}" height="{height:.2f}" fill="#ffffff"/>',
    ]
    parts.append('<g fill="#8a8a8a" fill-opacity="0.35" stroke="none">')
    for x, y in points:
        parts.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="1.6"/>')
    parts.append("</g>")
    parts.append('<g stroke="#d62728" stroke-width="1.4" fill="none" stroke-linecap="round">')
    for a, b in adjacency_pairs(codebook.grid):
        xa, ya = protos[a]
        xb, yb = protos[b]
        parts.append(f'<line x1="{sx(xa)}" y1="{sy(ya)}" x2="{sx(xb)}" y2="{sy(yb)}"/>')
    parts.append("</g>")
    parts.append('<g fill="#1f3b79" stroke="none">')
    for x, y in protos:
        parts.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="2.4"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
