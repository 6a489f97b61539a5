"""Weighted directed spreading networks.

Convention: ``adjacency[i, j]`` is the weight with which node j influences
node i. Edge-list records ``i,j,weight`` populate ``adjacency[i, j]``, i.e.
"j influences i". All neighbor sums in the dynamics run over row i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Network",
    "NetworkError",
    "load_network",
    "save_network",
    "neighbors",
    "is_irreducible",
]


class NetworkError(ValueError):
    """Malformed network data (bad record, bad index, bad weight)."""


def _check_matrix(m: np.ndarray, n: int, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (n, n):
        raise NetworkError(f"{name} must be {n}x{n}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NetworkError(f"{name} has non-finite entries")
    if np.any(m < 0):
        raise NetworkError(f"{name} has negative entries")
    return m


@dataclass(frozen=True)
class Network:
    """Immutable spreading network: base adjacency plus optional extra layers."""

    adjacency: np.ndarray
    layers: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        n = a.shape[0]
        a = _check_matrix(a, n, "adjacency")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)
        checked = []
        for idx, layer in enumerate(self.layers):
            m = _check_matrix(layer, n, f"layer {idx}").copy()
            m.setflags(write=False)
            checked.append(m)
        object.__setattr__(self, "layers", tuple(checked))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def load_network(source: Iterable[str] | str, n: int) -> Network:
    """Parse comma-separated ``i,j,weight`` records into a Network.

    ``source`` is an iterable of lines (an open text file works). Lines that
    are blank or start with '#' are skipped. A record means node j influences
    node i with the given positive weight.
    """
    if isinstance(source, str):
        source = source.splitlines()
    a = np.zeros((n, n))
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise NetworkError(f"line {lineno}: expected 'i,j,weight', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError as exc:
            raise NetworkError(f"line {lineno}: malformed record {line!r}") from exc
        if not (0 <= i < n and 0 <= j < n):
            raise NetworkError(f"line {lineno}: index out of range for n={n}")
        if not np.isfinite(w) or w <= 0:
            raise NetworkError(f"line {lineno}: weight must be positive and finite")
        if (i, j) in seen:
            raise NetworkError(f"line {lineno}: duplicate edge ({i},{j})")
        seen.add((i, j))
        a[i, j] = w
    return Network(a)


def save_network(net: Network) -> str:
    """Serialize a Network back to edge-list text (round-trips bit-exactly)."""
    lines = []
    for i in range(net.n):
        for j in range(net.n):
            w = net.adjacency[i, j]
            if w != 0.0:
                lines.append(f"{i},{j},{float(w)!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def neighbors(net: Network, i: int) -> set[int]:
    """Indices j with adjacency[i, j] > 0 (nodes that influence i)."""
    if not (0 <= i < net.n):
        raise NetworkError(f"node index {i} out of range for n={net.n}")
    return set(np.flatnonzero(net.adjacency[i] > 0).tolist())


def is_irreducible(m: np.ndarray) -> bool:
    """True iff the digraph of nonzero entries is strongly connected, i.e. it
    is one strongly connected component. A 1x1 matrix is irreducible iff its
    entry is nonzero.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NetworkError("matrix must be square")
    if np.any(m < 0):
        raise NetworkError("matrix must be nonnegative")
    n = m.shape[0]
    if n == 1:
        return bool(m[0, 0] > 0)
    return bool(_components(n, *np.nonzero(m > 0)).max() == 0)


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Strongly connected component label (0, 1, ...) of each of the ``n``
    nodes of the digraph with edges rows[k] -> cols[k], ``rows`` ascending.

    Tarjan's algorithm ("Depth-first search and linear graph algorithms",
    SIAM J. Comput. 1972) with an explicit stack; the components come out in
    reverse topological order. Reversing every edge leaves them unchanged.
    """
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=start[1:])
    start, succ = start.tolist(), np.asarray(cols).tolist()
    index, low, label, at = [-1] * n, [0] * n, [-1] * n, [0] * n
    path, work, count = [], [], 0  # work: the DFS stack of (node, its remaining edges)
    order = itertools.count()

    def visit(v: int) -> None:
        index[v] = low[v] = next(order)
        at[v] = len(path)
        path.append(v)
        work.append((v, iter(succ[start[v]:start[v + 1]])))

    for root in range(n):
        if index[root] >= 0:
            continue
        visit(root)
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:  # descend; v's remaining edges resume after w
                    visit(w)
                    break
                if label[w] < 0 and index[w] < low[v]:  # w is on the path
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    for w in path[at[v]:]:
                        label[w] = count
                    del path[at[v]:]
                    count += 1
    return np.array(label, dtype=np.int64)
