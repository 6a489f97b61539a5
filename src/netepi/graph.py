"""Weighted directed spreading networks.

Convention: ``adjacency[i, j]`` is the weight with which node j influences
node i. Edge-list records ``i,j,weight`` populate ``adjacency[i, j]``, i.e.
"j influences i". All neighbor sums in the dynamics run over row i.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

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


def _loaded(a: np.ndarray) -> Network:
    """A Network over ``a``, a float n x n array already checked and owned by
    the caller, filled in directly: it is only set read-only, not copied and
    checked again as ``Network(a)`` would."""
    a.setflags(write=False)
    net = object.__new__(Network)
    net.__dict__.update(adjacency=a, layers=())
    return net


# one edge-list record: node i is influenced by node j with weight w
EDGE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def load_network(source: Iterable[str] | str, n: int) -> Network:
    """Parse comma-separated ``i,j,weight`` records into a Network.

    ``source`` is a text or an iterable of lines (an open text file works).
    Blank lines and lines that start with '#' are skipped, and text after a
    '#' that ends a record is a comment. A record means node j influences
    node i with the given positive weight.

    The records are parsed in one np.loadtxt call and checked as arrays; only
    when a check fails are they scanned line by line, to name the first bad
    line.
    """
    lines = source.splitlines() if isinstance(source, str) else list(source)
    if next(_records(lines, "#"), None) is None:  # np.loadtxt would warn
        return _loaded(np.zeros((n, n)))
    try:
        rec = _read_table(lines, EDGE, "#", "#")
    except ValueError:
        raise _edge_error(lines, n) from None
    i, j, w = rec["i"], rec["j"], rec["w"]
    if np.all((0 <= i) & (i < n) & (0 <= j) & (j < n) & (w > 0) & (w < np.inf)):
        a = np.zeros((n, n))
        a[i, j] = w
        # the weights are positive, so a repeated (i, j) leaves fewer nonzeros
        if np.count_nonzero(a) == len(rec):
            return _loaded(a)
    raise _edge_error(lines, n)


def _records(lines: list[str], skip: str) -> Iterator[tuple[int, str]]:
    """Line number (from 1) and stripped text of each line that holds a
    record: one that is neither blank nor starts with ``skip``."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith(skip):
            yield lineno, line


def _read_table(lines: list[str], dtype: np.dtype, comments: str | None,
                skip: str) -> np.ndarray:
    """The records of ``lines`` (at least one), one row each, as a structured
    array of ``dtype``, parsed by np.loadtxt (numpy's C reader); ValueError
    if one does not parse. A first line that starts with ``skip`` (a header)
    is left out. Should that read fail, the stripped records alone are read
    once more: np.loadtxt refuses whitespace-only lines, and ``skip`` lines
    after the first, which the records leave out. (The plain read comes
    first because stripping the records is a Python pass over every line.)"""
    try:
        return _loadtxt(lines, dtype, comments, int(lines[0].startswith(skip)))
    except ValueError:
        return _loadtxt([line for _, line in _records(lines, skip)], dtype, comments, 0)


def _loadtxt(lines: list[str], dtype: np.dtype, comments: str | None,
             skiprows: int) -> np.ndarray:
    """np.loadtxt of comma-separated ``lines`` that refuses a non-integer
    text such as '1.5' or '1e3' in an integer field whatever the caller's
    warning filters: numpy releases from 1.23 that still read such a field
    through float truncate it and only warn DeprecationWarning, which is
    raised here as ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=comments,
                              skiprows=skiprows, ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from exc


def _edge_error(lines: list[str], n: int) -> NetworkError:
    """The error of the first bad record, naming its line; each record is
    parsed on its own, as load_network parses them all."""
    seen = set()
    for lineno, line in _records(lines, "#"):
        if line.partition("#")[0].count(",") != 2:
            return NetworkError(f"line {lineno}: expected 'i,j,weight', got {line!r}")
        try:
            i, j, w = _loadtxt([line], EDGE, "#", 0)[0].item()
        except ValueError:
            return NetworkError(f"line {lineno}: malformed record {line!r}")
        if not (0 <= i < n and 0 <= j < n):
            return NetworkError(f"line {lineno}: index out of range for n={n}")
        if not np.isfinite(w) or w <= 0:
            return NetworkError(f"line {lineno}: weight must be positive and finite")
        if (i, j) in seen:
            return NetworkError(f"line {lineno}: duplicate edge ({i},{j})")
        seen.add((i, j))
    return NetworkError("malformed edge list")


def save_network(net: Network) -> str:
    """Serialize a Network back to edge-list text (round-trips bit-exactly).
    An edge list holds one matrix, so a network with transport layers is
    refused rather than written without them."""
    if net.layers:
        raise NetworkError(f"cannot write a network with {len(net.layers)} transport "
                           "layers as one edge list")
    rows, cols = np.nonzero(net.adjacency)
    return "".join(f"{i},{j},{w!r}\n" for i, j, w in
                   zip(rows.tolist(), cols.tolist(), net.adjacency[rows, cols].tolist()))


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
    nodes of the digraph with edges rows[k] -> cols[k], in any order.

    Tarjan's algorithm ("Depth-first search and linear graph algorithms",
    SIAM J. Comput. 1972) with an explicit stack; the components come out in
    reverse topological order. Reversing every edge leaves them unchanged.
    """
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=start[1:])
    succ = np.asarray(cols)[np.argsort(rows, kind="stable")]
    start, succ = start.tolist(), succ.tolist()
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
