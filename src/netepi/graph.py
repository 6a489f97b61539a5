"""Weighted directed spreading networks.

Convention: ``adjacency[i, j]`` is the weight with which node j influences
node i. Edge-list records ``i,j,weight`` populate ``adjacency[i, j]``, i.e.
"j influences i". All neighbor sums in the dynamics run over row i.

Each matrix of a Network also has an edge table, its nonzero entries in
row-major order (``Network.edges``), which the products with a sparse
matrix run over (``dynamics._use_edges``). It is kept on the Network:
scanned from the matrix on first use, or, for a loaded network, sorted from
the parsed records. A loaded network holds only n and its edge tables, and
builds a matrix from its table (zeros, then the weights scattered in) at
its first read, which is the first product the rule sends dense; on a
sparse network no command reads one. Peak RSS of one command in a fresh
process on metro-large's network (n = 2000, 24 203 edges, seed 7; VmHWM,
three runs each within 0.2 MB; importing numpy alone reads 26.9 MB), with
every matrix built at load and with this lazy build (MB):

    command                       built at load   lazy
    simulate                      83.2            52.7
    estimate                      95.3            67.1
    diagnose (2-state excerpt)    74.7            44.2
    perturb (loads no network)    59.6            59.6

A sidecar is a file netepi writes beside one it reads, holding what parsing
that file gave (``_write_sidecar``, ``_read_sidecar``): the SHA-256 of the
source's bytes followed by the payload, then the payload, an .npy array
(format 1.0) of one dtype and rank. Both helpers take the source's bytes,
so the digest is computed here alone; a miss that writes the sidecar hashes
the source twice (about 0.6 ms for metro-large's 677 kB edge list). It is
used only while that digest matches, as Python's hash-based .pyc files are
trusted only while their source's hash matches (PEP 552), and only through
a header of that one form; any other case is a miss, logged at DEBUG, and
the source is parsed.
The digest covers the payload, so a payload damaged on disk is a miss, not
other values. dynamics keeps a trajectory's levels in one; the CLI loads
each network file through one (``_read_network``): ``<file>.edges``, the
row-major edge table as records (i, j, w). The records of a hit are checked
as load_network checks parsed ones, for the scenario's n (indices in range,
weights positive and finite, keys i*n + j strictly increasing), and a
record that fails is a miss. So one sidecar serves scenarios of any n, and
a hit gives the parse's network bit for bit. A sidecar that cannot be
written is logged and left out. A sidecar that is not there is a miss
before any hashing. Per load of a ring network as the bench builds them
(metro-large's at seed 7, and a sweep-small one), with 1 BLAS thread on
2 vCPUs, the least over six alternating processes of the best of 15 (ms),
with the dense adjacency built at load and without (a miss parses and
writes the sidecar):

    network                  edge list   sidecar   parse            hit              miss
    n = 2000, 24 203 edges   677 kB      581 kB    12.7 -> 8.9      5.07 -> 1.47     15.6 -> 11.3
    n = 20, 86 edges         2.1 kB      2.2 kB    0.080 -> 0.079   0.066 -> 0.063   0.469 -> 0.487

Of a hit at n = 2000, the SHA-256 of the two files takes about 1 ms.

Every file netepi writes, the CLI's outputs and both sidecars, goes through
one writer (``_write_file``): it opens the file without truncating it,
writes the new bytes over the old ones and then cuts off any old bytes
beyond them. The file stays the same one, as with a truncating write: a symlink
is written through, and every name of a hard link reads the new bytes.
Truncating to zero first (Path.write_bytes, open(path, "wb")) costs more on
ext4: the file's blocks are freed, and a file truncated to zero and written
again is written back to disk at its close (the auto_da_alloc heuristic of
Documentation/admin-guide/ext4.rst). Per write of the same bytes over an
existing file on ext4 (mounted with discard), 2 vCPUs, in us, the least
over four runs of the best of 300 (the host's speed moved a run's figures
by up to 1.5x, and the truncating 6.4 MB write's up to 4x); the unlinked
file of the middle column is one whose writeback has not started yet, as
the sidecars' were between passes:

    size      Path.write_bytes   unlink, then open "wb"   in place, then cut
    100 B     92                 18                       10
    5 kB      90                 22                       11
    140 kB    143                61                       16
    6.4 MB    1796               1527                     654

On the bench's passes the in-place writes cut what reaches the disk within
a pass from 21.7 to 0.44 MB on sweep-small and from 12.2 to 0.07 MB on
metro-large (CHANGES.md, the entry on in-place writes, says how this was
measured).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import logging
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

log = logging.getLogger(__name__)

__all__ = [
    "Network",
    "NetworkError",
    "load_network",
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


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable spreading network: base adjacency plus optional extra layers.

    ``Network(adjacency, layers)`` checks and copies the matrices it is
    given. A network loaded from records (``_loaded``) holds only n and its
    edge tables; it builds ``adjacency`` or ``layers`` from those on first
    read (zeros, then the weights scattered in) and keeps them, so a network
    whose products all run over its edges never allocates n x n floats."""

    adjacency: np.ndarray
    # a factory, not a default, so that the class has no attribute
    # ``layers`` and a loaded network's first read reaches __getattr__
    layers: tuple[np.ndarray, ...] = field(default_factory=tuple)
    n: int = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        n = a.shape[0]
        mats = [_check_matrix(m, n, f"layer {k - 1}" if k else "adjacency").copy()
                for k, m in enumerate((a, *self.layers))]
        for m in mats:
            m.setflags(write=False)
        vars(self).update(n=n, adjacency=mats[0], layers=tuple(mats[1:]))

    def __getattr__(self, name: str):
        """The adjacency or the layers of a loaded network, built from their
        edge tables on first read and kept; called only for a name the
        network does not hold."""
        if name not in ("adjacency", "layers"):
            raise AttributeError(f"'Network' object has no attribute {name!r}")
        value = (_dense(self.n, self.edges[0]) if name == "adjacency"
                 else tuple(_dense(self.n, table) for table in self.edges[1:]))
        vars(self)[name] = value
        return value

    @cached_property
    def edges(self) -> tuple:
        """The edge table of the adjacency and of each layer, in that order:
        the nonzero entries a[i, j] in row-major order (i, then j ascending)
        as (rows i, columns j, weights a[i, j], the index of the first entry
        of each nonempty row). Computed on first use and kept."""
        return tuple(_edge_table(*np.nonzero(m), m[m != 0]) for m in (self.adjacency, *self.layers))


def _edge_table(i: np.ndarray, j: np.ndarray, w: np.ndarray) -> tuple:
    """The edge table of the entries w at (i, j), given in row-major order."""
    return i, j, w, np.flatnonzero(np.diff(i, prepend=-1))


def _dense(n: int, table: tuple) -> np.ndarray:
    """The read-only n x n matrix of the edge table ``table``."""
    i, j, w, _ = table
    a = np.zeros((n, n))
    a[i, j] = w
    a.setflags(write=False)
    return a


def _loaded(n: int, tables: tuple) -> Network:
    """The Network of ``n`` nodes whose adjacency and transport layers have
    the edge tables ``tables``, already checked: it holds only n and the
    tables, and builds a matrix from its table on first read."""
    net = object.__new__(Network)
    vars(net).update(n=n, edges=tuple(tables))
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
    line. Sorted row-major, they are also the network's edge table, so the
    n*n entries are never scanned for it.
    """
    lines = source.splitlines() if isinstance(source, str) else list(source)
    rec = np.zeros(0, EDGE)
    if next(_records(lines, "#"), None) is not None:  # else np.loadtxt would warn
        try:
            rec = _read_table(lines, EDGE, "#", "#")
        except ValueError:
            raise _edge_error(lines, n) from None
    try:
        return _from_records(rec["i"], rec["j"], rec["w"], n, ordered=False)
    except NetworkError as exc:
        # no record at fault: the error is the network's own (its n)
        raise _edge_error(lines, n) or exc from None


def _from_records(i: np.ndarray, j: np.ndarray, w: np.ndarray, n: int,
                  ordered: bool) -> Network:
    """The network of ``n`` nodes with the weights w at (i, j), held as its
    edge table alone (``_loaded``); a NetworkError where n*n overflows the
    int64 keys i*n + j, an index is out of range, a weight is not positive
    and finite, or an (i, j) repeats. Records not ``ordered`` are sorted
    row-major first; ``ordered`` ones (a sidecar's) must already have
    strictly increasing keys i*n + j."""
    if n * n >= 2**63:
        raise NetworkError(f"n={n} is too large: n*n must be below 2**63")
    if not np.all((0 <= i) & (i < n) & (0 <= j) & (j < n) & (w > 0) & (w < np.inf)):
        raise NetworkError(f"an index is out of range for n={n} or a weight is not "
                           "positive and finite")
    key = i * n + j
    if not ordered:
        # the stable sort (timsort) takes one pass over records already in
        # row-major order
        order = np.argsort(key, kind="stable")
        i, j, w, key = i[order], j[order], w[order], key[order]
    # sorted, a repeated (i, j) is a run of equal keys
    if np.any(np.diff(key) <= 0):
        raise NetworkError("an edge repeats or is out of row-major order")
    return _loaded(n, (_edge_table(i, j, w),))


def _read_network(path: Path, n: int) -> Network:
    """The network file at ``path`` for a scenario of ``n`` nodes: from the
    edge table in its sidecar ``<path>.edges`` while that is a sidecar of the
    file's bytes (``_read_sidecar``) whose records pass load_network's checks
    for this n, else load_network of the file as UTF-8, whose edge table is
    then written to the sidecar. One sidecar serves scenarios of any n."""
    data = path.read_bytes()
    edges = path.with_name(path.name + ".edges")
    net = _read_sidecar(edges, data, EDGE, 1, lambda rec: _from_records(
        rec["i"].copy(), rec["j"].copy(), rec["w"].copy(), n, ordered=True))
    if net is None:
        net = load_network(data.decode(), n)
        i, j, w, _ = net.edges[0]
        rec = np.empty(len(i), EDGE)
        rec["i"], rec["j"], rec["w"] = i, j, w
        _write_sidecar(edges, data, rec)
    return net


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
    parsed on its own, as load_network parses them all. load_network calls
    it when its parse or its checks of all the records fail, and each of
    those but the check of n alone has a check on one record here, so a bad
    record is found unless n is at fault; then it returns None."""
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


# ---------------------------------------------------------------------------
# Output files and sidecars (module docstring).


def _write_file(path: Path, pieces: Iterable) -> None:
    """Write the bytes-like ``pieces`` to ``path``, one after another, as the
    file's whole content: over the old bytes in place, with no truncation
    first, and then the file cut to their length where it was longer. So it
    stays the same file (a link is written through, and every name of a hard
    link reads the new bytes); a new file gets mode 0o666 & ~umask, as
    open(path, "wb") gives. A file that cannot be cut and has no length,
    such as /dev/null or a pipe, is written as open(path, "wb") writes it."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.writelines(pieces)
        if os.fstat(f.fileno()).st_size > f.tell():
            f.truncate()


DIGEST_BYTES = 32  # a SHA-256 digest, at the head of every sidecar


@cache
def _npy_header(dtype: np.dtype, ndim: int) -> re.Pattern:
    """The one header np.lib.format.write_array gives a C-order ``ndim``-d
    array of ``dtype`` in .npy format 1.0, with its two-byte length and
    padding; its groups are the shape's numbers."""
    shape = ", ".join([r"(\d+)"] * ndim) + "," * (ndim == 1)
    descr = re.escape(repr(np.lib.format.dtype_to_descr(dtype)))
    return re.compile(rf"\x93NUMPY\x01\x00..\{{'descr': {descr}, 'fortran_order': False, "
                      rf"'shape': \({shape}\), \}} *\n".encode(), re.DOTALL)


def _write_sidecar(path: Path, source: bytes, array: np.ndarray) -> None:
    """Write the sidecar ``path`` of the bytes ``source``: the SHA-256 of
    those bytes followed by the .npy payload (format 1.0) of ``array``, then
    that payload. A sidecar that cannot be written is logged and left out."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(array))
    # the payload in two pieces, never copied whole: the header and the
    # array's own bytes
    payload = [header.getvalue(), np.ascontiguousarray(array).reshape(-1).view(np.uint8)]
    key = hashlib.sha256(source)
    for piece in payload:
        key.update(piece)
    try:
        _write_file(path, [key.digest(), *payload])
    except OSError as exc:
        log.debug("sidecar %s not written: %s", path, exc)


def _read_sidecar(path: Path, source: bytes, dtype: np.dtype, ndim: int, load: Callable):
    """``load`` of the ``ndim``-d array of ``dtype`` in the sidecar ``path``
    of the bytes ``source``, if the sidecar is as _write_sidecar writes it:
    the digest of those bytes and the payload, then a payload of exactly one
    _npy_header and the values of its shape; else None, logged, as is a
    ValueError of ``load``. Only a header of that one form is read, so no
    pickle and no other header is ever parsed, and no shape is allocated
    that the file does not hold."""
    dtype = np.dtype(dtype)
    try:
        with open(path, "rb") as f:
            digest = f.read(DIGEST_BYTES)
            payload = f.read()
        # hashed only once the sidecar is open: a missing one costs no hash
        key = hashlib.sha256(source)
        key.update(payload)
        if key.digest() != digest:
            raise ValueError("its digest is not that of the source and its payload")
        header = _npy_header(dtype, ndim).match(payload)
        if header is None:
            raise ValueError(f"its payload is not a {ndim}-d array of {dtype}")
        shape = tuple(map(int, header.groups()))
        array = np.frombuffer(payload, dtype, offset=header.end())
        if array.size != math.prod(shape):
            raise ValueError(f"it holds {array.size} values, not those of shape {shape}")
        return load(array.reshape(shape))
    except (OSError, ValueError) as exc:
        log.debug("sidecar %s not used: %s", path, exc)
        return None


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
    # Tarjan alone, not _components: bench/workloads.py calls this in every
    # set-up, whose inputs sit in reference cycles, and the one-block check
    # allocates too few objects to start the collector that frees them
    # (metro-large's peak RSS read 312 MB with it, 227 MB without)
    return bool(_tarjan(n, *np.nonzero(m > 0)).max() == 0)


# the one-block check of _components gives up after REACH_PASSES passes in
# either direction, each one step of breadth-first search from node 0
REACH_PASSES = 32


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Strongly connected component label (0, 1, ...) of each of the ``n``
    nodes of the digraph with edges rows[k] -> cols[k], in any order.

    A digraph in which node 0 reaches every node and every node reaches
    node 0 is one component, all labelled 0; the two searches run as array
    passes over the edges (``_reaches_all``). Any other digraph, or one of
    greater depth than REACH_PASSES, is labelled by ``_tarjan``."""
    if n and _reaches_all(n, rows, cols) and _reaches_all(n, cols, rows):
        return np.zeros(n, dtype=np.int64)
    return _tarjan(n, rows, cols)


def _reaches_all(n: int, tails: np.ndarray, heads: np.ndarray) -> bool:
    """Whether node 0 reaches all ``n`` nodes along the edges tails[k] ->
    heads[k] within REACH_PASSES passes, each of which marks the heads of
    the edges whose tails are marked."""
    marked = np.zeros(n, dtype=bool)
    marked[0] = True
    count = 1
    for _ in range(REACH_PASSES):
        marked[heads[marked[tails]]] = True
        count, before = np.count_nonzero(marked), count
        if count in (n, before):
            return count == n
    return False


def _tarjan(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``_components`` by Tarjan's algorithm ("Depth-first search and linear
    graph algorithms", SIAM J. Comput. 1972) with an explicit stack; the
    components come out in reverse topological order. Reversing every edge
    leaves them unchanged.
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
