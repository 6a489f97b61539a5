"""Spreading-matrix construction, Perron-root computation, and convergence
diagnostics for simulated epidemics.

The one-step linear map on the infectious coordinates is state dependent:
for SEIR it is the 2n x 2n block matrix

    [ I + h*diag(s)*Be*A - h*sigma   h*diag(s)*B*A ]
    [ h*sigma                        I - h*gamma   ]

acting on (e, p), where Be*A and B*A sum over the base network and the
transport layers; for SIR it is the n x n matrix I + h*diag(s)*B*A - h*gamma
acting on p alone. Its dominant eigenvalue drops below 1 once enough
susceptibles are depleted, after which the infection decays geometrically.

``build_spreading_matrix`` forms the matrix for one state.
``convergence_diagnostics`` never does: it runs power iteration on all the
states of a trajectory at once through the matrices' left action, computed
from s, the rates and the adjacency, so its memory is the (T+1) x 2n
iterates (SEIR; (T+1) x n for SIR) besides the adjacency. A reducible
matrix is solved per strongly connected block of its off-diagonal pattern;
its Perron root is the largest of the blocks' roots.

Each iteration multiplies the rows still iterating by each layer's
adjacency A. The dense product reads all n*n entries of A however few rows
remain. The edge product gathers the rows' columns at A's nonzero entries,
weights them and sums each column's run (np.take, then np.add.reduceat), so
its cost grows with nnz(A) times the rows. It runs where
8 * nnz(A) * rows < n*n, else the dense one does. Measured with 1 BLAS
thread on 2 vCPUs at n = 2000 and 24 059 edges (ms per product):

    rows    dense   edge
    1       1.33    0.09
    4       2.73    0.47
    16      4.71    1.90
    36      7.41    4.00
    162     26.9    26.2

At n = 300 (1% dense) A stays in cache and the dense product wins at every
row count, by 3-20x at n = 20. The rule keeps every network of n <= 20 with
density >= 0.2 dense; at n = 300 and 1% it takes the edges below 10 rows,
where they cost up to 1.7x the dense product's 10-60 us. The edges are read
once per call and also give the block labelling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import (SUM_TOL, EpidemicState, SirParams, Trajectory, _prepare,
                       _pressure_jacobian)
from .graph import Network, _components

__all__ = [
    "SpreadingMatrix",
    "ConvergenceReport",
    "PowerIterationError",
    "build_spreading_matrix",
    "dominant_eigenvalue",
    "convergence_diagnostics",
    "report_to_csv",
    "report_to_json",
]

EXTINCTION_THRESHOLD = 1e-8
MONOTONE_TOL = 1e-10
# power iteration stops once the 1-norm change of the iterate is at most
# POWER_RTOL, and fails after POWER_MAX_ITER iterations
POWER_RTOL = 1e-12
POWER_MAX_ITER = 100_000
# the iteration runs on M + SHIFT*I, which breaks the period-2 oscillation
# of patterns like permutation matrices; the roots are shifted back
SHIFT = 1e-8


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the iteration cap."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (achieved residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SpreadingMatrix:
    m: np.ndarray


@dataclass(frozen=True)
class ConvergenceReport:
    lambda_seq: np.ndarray
    k_bar: int | None
    monotone: bool
    linear_rate_estimate: float | None
    extinction_step: int | None
    p_norms: np.ndarray


def build_spreading_matrix(state: EpidemicState, params, net: Network) -> SpreadingMatrix:
    """Linear map propagating the infectious coordinates one step from
    ``state``; its infection blocks are diag(s) times the Jacobian of the
    infection pressure the step uses, transport layers included."""
    pr, op = _prepare(params, state, net)
    eye = np.eye(net.n)
    if isinstance(pr, SirParams):
        m = eye + pr.h * (state.s[:, None] * _pressure_jacobian(op, 0)) - pr.h * np.diag(pr.gamma)
        return SpreadingMatrix(m=m)
    sba_e = state.s[:, None] * _pressure_jacobian(op, 0)
    sba_p = state.s[:, None] * _pressure_jacobian(op, 1)
    top = np.hstack([eye + pr.h * sba_e - pr.h * np.diag(pr.sigma), pr.h * sba_p])
    bot = np.hstack([pr.h * np.diag(pr.sigma), eye - pr.h * np.diag(pr.gamma)])
    return SpreadingMatrix(m=np.vstack([top, bot]))


def dominant_eigenvalue(m: np.ndarray) -> tuple:
    """Spectral radius and a nonnegative left eigenvector (unit 1-norm) of a
    matrix, or of each matrix in a ``(B, N, N)`` stack (then ``(B,)``, ``(B, N)``),
    by power iteration on the whole stack, each matrix stopping at its own
    convergence."""
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or not m.size:
        raise ValueError("matrix must be square and nonempty, or a stack of them")
    if not np.all(m >= 0):  # written so that NaN fails too
        raise ValueError("matrix must be nonnegative")
    lam, vec = _power_iteration(_dense_action, (m if m.ndim == 3 else m[None],), m.shape[-1])
    return (lam, vec) if m.ndim == 3 else (lam[0], vec[0])


def _dense_action(w: np.ndarray, ms: np.ndarray) -> np.ndarray:
    return (w[:, None, :] @ ms)[:, 0] + SHIFT * w


def _power_iteration(apply, data: tuple, size: int) -> tuple:
    """Perron roots and left vectors (unit 1-norm) of B nonnegative matrices
    M of order ``size``, given by the left action of the shifted matrices,
    ``apply(w, *data) = w M + SHIFT*w``, on the iterates ``w`` (B, size); row i
    of each ``data`` array belongs to matrix i.

    The iteration runs on all matrices at once; each stops once its iterate
    moves by at most POWER_RTOL in the 1-norm, and then leaves ``w`` and
    ``data``, so the arrays shrink only as members converge."""
    b = len(data[0])
    lam, vec, todo = np.empty(b), np.empty((b, size)), np.arange(b)
    w = np.full((b, size), 1.0 / size)
    for _ in range(POWER_MAX_ITER):
        nxt = apply(w, *data)
        norm = nxt.sum(axis=1, keepdims=True)  # 1-norm (entries are >= 0), at least SHIFT
        nxt /= norm
        w -= nxt
        delta = np.abs(w, out=w).sum(axis=1)
        w = nxt
        if delta.min() <= POWER_RTOL:
            done = delta <= POWER_RTOL
            lam[todo[done]], vec[todo[done]] = norm[done, 0] - SHIFT, w[done]
            todo, w = todo[~done], w[~done]
            data = tuple(d[~done] for d in data)
            if not todo.size:
                return lam, vec
    # the 1-norm of w M + SHIFT*w - norm*w, over the members still unconverged
    residual = (norm[:, 0] * delta)[delta > POWER_RTOL].max()
    raise PowerIterationError("power iteration did not converge", float(residual))


def _trajectory_roots(traj: Trajectory, params, net: Network) -> np.ndarray:
    """Perron root of M(s_k) for every step k, without forming any M.

    The left action of all T+1 matrices at once, for iterates w = [u, v]
    stacked as (T+1, 2n) and x = h*u*s_k (SIR: w = u, no e block), is

        [u, v] M = [u*(1 - h*sigma) + h*sigma*v + sum_l (x*beta_e_l) A_l,
                    v*(1 - h*gamma)             + sum_l (x*beta_l) A_l]

    with one (c*b, n) @ (n, n) product per layer for the c compartments of
    the b unconverged rows, taken over the layer's edges when
    8 * nnz(A_l) * c*b < n*n and dense otherwise (see the module docstring).
    A state's root is the largest over the strongly
    connected blocks of its own pattern; nodes with s = 0 contribute no
    infection edges. A singleton block's root is its diagonal entry."""
    pr, op = _prepare(params, traj, net)
    n, h = net.n, pr.h
    hs = h * traj.s
    sir = isinstance(pr, SirParams)
    comps = len(op[0][1])
    size = comps * n
    # (A_l, rates as (comps, n), A_l's edges), the edges read once for both
    # the products and the block labelling
    layers = [(a, np.stack(r), _column_edges(a)) for a, r in op]
    keep = 1 - h * pr.gamma if sir else np.concatenate([1 - h * pr.sigma, 1 - h * pr.gamma])
    keep_shifted = keep + SHIFT
    h_sigma = None if sir else h * pr.sigma

    def apply(w, hs_rows):
        x = (w[:, :n] * hs_rows)[:, None, :]
        out = None
        for a, r, edges in layers:
            y = _left_product((x * r).reshape(-1, n), a, edges)
            out = y if out is None else out + y
        out = out.reshape(len(w), size)
        out += w * keep_shifted
        if not sir:
            out[:, :n] += h_sigma * w[:, n:]
        return out

    diag = np.tile(keep, (len(hs), 1))
    diag[:, :n] += hs * sum(r[0] * np.diagonal(a) for a, r, _ in layers)
    # M >= 0 follows from these (each written so that NaN fails too)
    if not (np.all(hs >= 0) and all(np.all(r >= 0) for _, r, _ in layers)
            and np.all(diag >= 0) and (sir or np.all(h_sigma >= 0))):
        raise ValueError("spreading matrix must be nonnegative (h*s, the rates, "
                         "h*sigma and its diagonal must be >= 0)")

    # a state's pattern is the digraph on the nodes (c, i) = c*n + i,
    # compartment c (e then p; p alone for SIR) of node i: infection edges
    # (0, i) -> (c, j) where h*s_i != 0 and some layer has
    # rates_l[c][i] * A_l[i, j] != 0, and for SEIR the progression p_i -> e_i
    # where sigma_i != 0. The states are grouped by their nodes with s = 0
    # (hashing, not sorting, the rows), and each group's blocks are labelled
    # once.
    infection = [(src, c * n + dst, r[c][src] != 0)
                 for _, r, (src, dst, _, _) in layers for c in range(comps)]
    link = np.zeros(0, dtype=np.intp) if sir else np.flatnonzero(pr.sigma != 0)
    groups: dict[bytes, list[int]] = {}
    for k, zero in enumerate(hs == 0):
        groups.setdefault(zero.tobytes(), []).append(k)
    roots = np.empty(len(hs))
    for ks in map(np.array, groups.values()):
        live = hs[ks[0]] != 0
        src, dst = [link + n], [link]
        for i, j, rated in infection:
            on = rated & live[i]
            src.append(i[on])
            dst.append(j[on])
        labels = _components(size, np.concatenate(src), np.concatenate(dst))
        roots[ks] = _block_roots(apply, labels, diag[ks], hs[ks]).max(axis=1)
    return roots


def _column_edges(a: np.ndarray) -> tuple:
    """The nonzero entries a[i, j] of a square matrix in column order (j
    ascending, then i): their rows i, columns j and values, and the index of
    the first entry of each nonempty column."""
    i, j = np.divmod(np.flatnonzero(a), len(a))
    order = np.argsort(j, kind="stable")
    i, j = i[order], j[order]
    return i, j, a[i, j], np.flatnonzero(np.diff(j, prepend=-1))


def _left_product(x: np.ndarray, a: np.ndarray, edges: tuple) -> np.ndarray:
    """x @ a for x (rows, n), given a's ``_column_edges``: over the edges
    where 8 * nnz(a) * rows < n*n, dense otherwise."""
    n = len(a)
    if 8 * len(edges[0]) * len(x) < n * n:
        return _edge_product(x, edges, n)
    return x @ a


def _edge_product(x: np.ndarray, edges: tuple, n: int) -> np.ndarray:
    """x @ a over a's ``_column_edges``: x's columns gathered at the edges'
    rows, weighted, and summed over each column's run."""
    rows, cols, weights, starts = edges
    out = np.zeros((len(x), n))
    # reduceat over an empty run would return the next entry, so only the
    # nonempty columns are summed; an edgeless a leaves out zero
    out[:, cols[starts]] = np.add.reduceat(np.take(x, rows, axis=1) * weights, starts, axis=1)
    return out


def _block_roots(apply, labels: np.ndarray, diag: np.ndarray,
                 hs: np.ndarray) -> np.ndarray:
    """Perron roots, (states, blocks), of the diagonal blocks of the states
    ``hs`` for the strongly connected blocks ``labels`` of their pattern: a
    singleton block's root is its diagonal entry, the others come from power
    iteration on the block. A state's root is the largest of them."""
    size = len(labels)
    sizes = np.bincount(labels)
    roots = np.empty((len(hs), len(sizes)))
    single = sizes[labels] == 1
    roots[:, labels[single]] = diag[:, single]
    for block in np.flatnonzero(sizes > 1):
        idx = np.flatnonzero(labels == block)
        act = apply if idx.size == size else partial(_restricted, apply, idx, size)
        roots[:, block] = _power_iteration(act, (hs,), idx.size)[0]
    return roots


def _restricted(apply, idx: np.ndarray, size: int, w: np.ndarray, *data) -> np.ndarray:
    """Left action of the diagonal block M[idx, idx], through the full one."""
    full = np.zeros((len(w), size))
    full[:, idx] = w
    return apply(full, *data)[:, idx]


def convergence_diagnostics(traj: Trajectory, params, net: Network) -> ConvergenceReport:
    """Per-step dominant eigenvalues and decay diagnostics for a simulated run;
    the eigenvalues come from the left action of the spreading matrices, which
    are never formed. An s level above 1 by more than SUM_TOL, or NaN, is
    refused."""
    if len(traj) < 2:
        raise ValueError("trajectory too short for diagnostics (< 2 states)")
    # written so that NaN fails too
    if not np.all(traj.s <= 1 + SUM_TOL):
        raise ValueError("trajectory 's' level above 1 or NaN")
    lambdas = _trajectory_roots(traj, params, net)
    below = np.flatnonzero(lambdas < 1.0)
    k_bar = int(below[0]) if below.size else None
    monotone = bool(np.all(np.diff(lambdas) <= MONOTONE_TOL))
    # row-wise dot products: the same BLAS dot np.linalg.norm takes per vector
    p_norms = np.sqrt((traj.p[:, None, :] @ traj.p[:, :, None]).ravel())
    peak = traj.p.max(axis=1)
    if traj.e is not None:
        peak = np.maximum(peak, traj.e.max(axis=1))
    quiet = np.flatnonzero(peak < EXTINCTION_THRESHOLD)
    extinction_step = int(quiet[0]) if quiet.size else None
    rate = None
    if k_bar is not None:
        end = extinction_step if extinction_step is not None else len(traj) - 1
        ks = np.arange(k_bar, end + 1)
        vals = p_norms[k_bar:end + 1]
        mask = vals > 0
        if mask.sum() >= 2:
            slope = np.polyfit(ks[mask], np.log(vals[mask]), 1)[0]
            rate = float(np.exp(slope))
    return ConvergenceReport(lambda_seq=lambdas, k_bar=k_bar, monotone=monotone,
                             linear_rate_estimate=rate,
                             extinction_step=extinction_step, p_norms=p_norms)


def report_to_csv(report: ConvergenceReport) -> str:
    lines = ["k,lambda_max,p_norm"]
    for k, (lam, pn) in enumerate(zip(report.lambda_seq, report.p_norms)):
        lines.append(f"{k},{format(lam, '.17g')},{format(pn, '.17g')}")
    return "\n".join(lines) + "\n"


def report_to_json(report: ConvergenceReport) -> str:
    return json.dumps({
        "k_bar": report.k_bar,
        "monotone": report.monotone,
        "linear_rate_estimate": report.linear_rate_estimate,
        "extinction_step": report.extinction_step,
    }, indent=2)
