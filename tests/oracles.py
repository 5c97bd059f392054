"""Independent brute-force reference implementations used only by the tests.

Everything here is written from first principles with explicit loops, rank
matrices and tie sets, deliberately sharing no code path with the library.
The one exception is ``train_som_reference``: it keeps the trainer's original
per-step loop and starts from the library's initial codebook and lattice
distances, so that trained codebooks can be compared byte for byte. The
file loaders ``load_matrix_reference`` and ``load_labels_reference`` keep the
original whole-text parsers, so that the streamed ones can be compared with
them result for result and message for message, and ``save_matrix_reference``
keeps the original whole-text writer, so that written files can be compared
byte for byte.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from pathlib import Path

import numpy as np

from sommetrics.errors import InputError
from sommetrics.grid import distance_matrix
from sommetrics.model import _check_dims, _overflow_is_an_error, init_codebook


def bfs_distances(n_nodes: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """All-pairs shortest path lengths by breadth-first search."""
    adj = [[] for _ in range(n_nodes)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    out = []
    for s in range(n_nodes):
        dist = [-1] * n_nodes
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        out.append(dist)
    return out


def lattice_edges(rows: int, cols: int, topology: str) -> list[tuple[int, int]]:
    """Unit pairs (a < b) that share an edge of the lattice, sorted, from the layout's neighbor rules.

    Rectangular units touch the units above, below, left and right. Hexagonal
    units (even rows pushed half a cell right) also touch the units left and
    right, and two in each adjacent row: columns c and c+1 from an even row,
    c-1 and c from an odd one.
    """
    edges = set()
    for r in range(rows):
        moves = [(0, 1), (1, 0)] if topology == "rectangular" else [(0, 1), (1, 0), (1, 1 if r % 2 == 0 else -1)]
        for c in range(cols):
            for dr, dc in moves:
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < rows and 0 <= c2 < cols:
                    a, b = r * cols + c, r2 * cols + c2
                    edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def lattice_distances(rows: int, cols: int, topology: str) -> list[list[int]]:
    """All-pairs unit distances: breadth-first search on the graph of ``lattice_edges``."""
    return bfs_distances(rows * cols, lattice_edges(rows, cols, topology))


def min_path_cost_exhaustive(n_nodes: int, edges: dict[tuple[int, int], float],
                             start: int, goal: int) -> float:
    """Cheapest start-to-goal path cost by enumerating every simple path."""
    adj = [[] for _ in range(n_nodes)]
    for (a, b), w in edges.items():
        adj[a].append((b, w))
        adj[b].append((a, w))
    best = math.inf

    def walk(node: int, cost: float, seen: set[int]) -> None:
        nonlocal best
        if node == goal:
            best = min(best, cost)
            return
        for nxt, w in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                walk(nxt, cost + w, seen)
                seen.remove(nxt)

    walk(start, 0.0, {start})
    return best


def project_bruteforce(samples, prototypes, depth: int) -> list[list[int]]:
    """The ``depth`` nearest units of each sample, ordered by (squared distance, unit index).

    Each distance sums the squared explicit differences with numpy, so that it
    rounds exactly as the library's distances do; the ranking is a Python sort.
    """
    protos = np.asarray(prototypes, dtype=float)
    out = []
    for x in np.asarray(samples, dtype=float):
        d2 = ((x - protos) ** 2).sum(axis=1)
        out.append(sorted(range(len(protos)), key=lambda k: (d2[k], k))[:depth])
    return out


def trust_np_bruteforce(samples, bmus, unit_distances, k: int) -> tuple[float, float]:
    """(trustworthiness, neighborhood preservation) with explicit ranks and tie sets.

    samples: list of vectors; bmus: BMU unit per sample; unit_distances: map
    distance lookup between units.
    """
    n = len(samples)

    def sqdist(a, b) -> float:
        return sum((x - y) ** 2 for x, y in zip(a, b))

    trust_pen = 0.0
    np_pen = 0.0
    for i in range(n):
        others = [j for j in range(n) if j != i]
        din = {j: sqdist(samples[i], samples[j]) for j in others}
        dmap = {j: unit_distances[bmus[i]][bmus[j]] for j in others}

        rank_in = {j: 1 + sum(1 for l in others if din[l] < din[j]) for j in others}
        rank_map = {j: 1 + sum(1 for l in others if dmap[l] < dmap[j]) for j in others}

        by_input = sorted(others, key=lambda j: (din[j], j))
        input_knn = set(by_input[:k])

        by_map = sorted(others, key=lambda j: (dmap[j], j))
        cut = dmap[by_map[k - 1]]
        projected = {j for j in others if dmap[j] <= cut}
        size = len(projected)

        trust_pen += (k / size) * sum(rank_in[j] - k for j in projected - input_knn)
        np_pen += (size / k) * sum(rank_map[j] - k for j in input_knn - projected)

    factor = 2.0 / (n * k * (2 * n - 3 * k - 1))
    return 1.0 - factor * trust_pen, 1.0 - factor * np_pen


def topographic_product_bruteforce(prototypes, unit_distances) -> float:
    """Direct evaluation of the neighbor-order ratio products."""
    K = len(prototypes)

    def dist(a, b) -> float:
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    total = 0.0
    for j in range(K):
        others = [l for l in range(K) if l != j]
        by_map = sorted(others, key=lambda l: (unit_distances[j][l], l))
        by_input = sorted(others, key=lambda l: (dist(prototypes[j], prototypes[l]), l))
        for k in range(1, K):
            prod = 1.0
            for l in range(1, k + 1):
                q1 = dist(prototypes[j], prototypes[by_map[l - 1]]) / dist(prototypes[j], prototypes[by_input[l - 1]])
                q2 = unit_distances[j][by_map[l - 1]] / unit_distances[j][by_input[l - 1]]
                prod *= q1 * q2
            total += math.log(prod ** (1.0 / (2.0 * k)))
    return total / (K * (K - 1))


def topographic_function_bruteforce(samples, prototypes, rows: int, cols: int, topology: str, k_max=None):
    """(k, tf, normalized_k, normalized_tf) as lists, from the BMU / second-BMU pairs of the samples.

    tf counts, per radius k = 1..k_max (default: the map diameter), the ordered
    unit pairs (a, b) such that some sample has a and b as its two nearest
    units, in either order, and whose lattice distance exceeds k.
    normalized_tf is None when K <= 3**p, p being 1 for a chain and 2 otherwise.
    """
    dist = lattice_distances(rows, cols, topology)
    adjacent = set()
    for first, second in project_bruteforce(samples, prototypes, 2):
        adjacent |= {(first, second), (second, first)}
    diameter = max(max(row) for row in dist)
    ks = list(range(1, (diameter if k_max is None else k_max) + 1))
    tf = [sum(1 for a, b in adjacent if dist[a][b] > k) for k in ks]
    K = rows * cols
    denom = K * (K - 3 ** (1 if rows == 1 or cols == 1 else 2))
    return ks, tf, [k / diameter for k in ks], [t / denom for t in tf] if denom > 0 else None


def clustering_accuracy_bruteforce(assignments, labels) -> float:
    """Best accuracy over every one-to-one id mapping, by full enumeration."""
    n = len(assignments)
    ids = max(max(assignments), max(labels)) + 1
    best = 0
    for perm in itertools.permutations(range(ids)):
        hits = sum(1 for a, y in zip(assignments, labels) if perm[a] == y)
        best = max(best, hits)
    return best / n


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def component_count_unionfind(marked: list[int], edges: list[tuple[int, int]]) -> int:
    """Connected components among marked nodes given the full edge list."""
    marked_set = set(marked)
    index = {u: i for i, u in enumerate(sorted(marked_set))}
    uf = UnionFind(len(index))
    for a, b in edges:
        if a in marked_set and b in marked_set:
            uf.union(index[a], index[b])
    return len({uf.find(i) for i in range(len(index))})


def train_som_reference(data, config) -> np.ndarray:
    """Trained prototypes from the trainer's original loop: a K x D codebook, one scalar draw per step.

    Each step sums ``(diff * diff)`` over a K x D difference and weighs the
    K lattice distances from the BMU with the kernel.
    """
    grid = config.grid
    rng = np.random.default_rng(config.seed)
    codebook = init_codebook(data, grid, rng)
    protos = codebook.prototypes
    _check_dims(codebook, data)

    dmat = distance_matrix(grid).astype(float)
    x = data.samples
    n = data.n_samples
    ratio = config.t_min / config.t_max
    iters = config.iterations
    with _overflow_is_an_error():
        for step in range(1, iters + 1):
            anneal = ratio ** (step / iters)
            t = config.t_max * anneal
            i = int(rng.integers(n))
            diff = x[i] - protos
            b = int(np.argmin((diff * diff).sum(axis=1)))
            w = config.kernel.weight(dmat[b], t)
            protos += (config.alpha * anneal) * w[:, None] * diff
    return protos


def _data_lines_reference(path: Path, what: str):
    """(line number, stripped text) of each nonblank line of the whole text, read at once."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    if not text or text.isspace():
        raise InputError(f"{path}: file holds no {what}")
    return ((n, s) for n, line in enumerate(text.splitlines(), start=1) if (s := line.strip()))


def load_matrix_reference(path) -> np.ndarray:
    """The whole-text matrix parser: the text, its lines and a list of float rows are all alive at once."""
    path = Path(path)
    rows: list[list[float]] = []
    for lineno, line in _data_lines_reference(path, "data rows"):
        try:
            row = [float(f) for f in line.split(",")]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: not a numeric row: {line!r}") from exc
        if rows and len(row) != len(rows[0]):
            raise InputError(f"{path}:{lineno}: expected {len(rows[0])} columns, found {len(row)}")
        rows.append(row)
    return np.asarray(rows, dtype=float)


def load_labels_reference(path) -> np.ndarray:
    """The whole-text label parser: one list of every label, converted at the end."""
    path = Path(path)
    labels = []
    for lineno, line in _data_lines_reference(path, "labels"):
        try:
            labels.append(int(line))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: not an integer label: {line!r}") from exc
    return np.asarray(labels, dtype=np.int64)


def save_matrix_reference(path, matrix) -> None:
    """The whole-text matrix writer: every line is joined in memory, then written at once."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(f"{v:.17g}" for v in row) for row in matrix]
    Path(path).write_text("\n".join(lines) + "\n")
