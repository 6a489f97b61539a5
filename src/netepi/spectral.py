"""Spreading-matrix construction, Perron-root computation, and convergence
diagnostics for simulated epidemics.

The one-step linear map on the infectious coordinates is state dependent.
It has one block per compartment of the chain whose rates ``params.stages``
gives (e -> p -> r for SEIR; SIR is the one-stage case p -> r); for SEIR it
is the 2n x 2n block matrix

    [ I + h*diag(s)*Be*A - h*sigma   h*diag(s)*B*A ]
    [ h*sigma                        I - h*gamma   ]

acting on (e, p), where Be*A and B*A sum over the base network and the
transport layers; for SIR it is the n x n matrix I + h*diag(s)*B*A - h*gamma
acting on p alone. Its dominant eigenvalue drops below 1 once enough
susceptibles are depleted, after which the infection decays geometrically.

``build_spreading_matrix`` forms the matrix for one state, or the stack of
a trajectory's matrices. ``convergence_diagnostics`` runs power iteration on
all the states of a trajectory at once, through the matrices' left action
computed from s, the rates and the adjacency. A reducible matrix is solved
per strongly connected block of its off-diagonal pattern; its Perron root
is the largest of the blocks' roots. ``dominant_eigenvalue`` iterates on M
itself from the uniform vector: it is the independent check the trajectory
solve is tested against. The solve has two regimes, split by the node count
n (the crossover below):

- n <= DENSE_NODES: numpy's per-call overhead dominates at these sizes, so
  the solve spends flops to save calls. It forms the states' matrices,
  CHUNK_ENTRIES entries at a time at most, squares each block's stack
  SQUARINGS times (one stacked product each), and takes the left vectors of
  (M + SHIFT*I)^(2^SQUARINGS) by power iteration; that power has M's Perron
  vector and the ratio |lambda_2| / lambda_1 raised to the 32nd power
  (repeated squaring; Golub and Van Loan, *Matrix Computations*, 7.3). The
  matrix-free iteration on M itself, from those vectors, then gives each
  root by the same POWER_RTOL test, mostly after one left action. Over the
  9 072 states of the bench's sweep-small diagnose inputs (seed 1) the
  roots lie within 9.1e-15 of ``np.linalg.eigvals`` (median 1.2e-15),
  against 5.5e-13 (median 6.4e-14) for the matrix-free regime.
- n > DENSE_NODES: no matrix is formed, so the memory is the (T+1) x 2n
  iterates (SEIR; (T+1) x n for SIR) besides the adjacency. Each block
  iterates from the uniform vector on M - alpha*I and alpha is added back
  to the root. alpha is at most a share DIAGONAL_SHIFT < 1 of the block's
  smallest diagonal entry, and at most what a lower bound on the real parts
  of the block's eigenvalues allows, so that a block with eigenvalues far
  left of its diagonal (a bipartite network, say) is not slowed (see
  DIAGONAL_SHIFT).

Milliseconds per ``convergence_diagnostics`` call, matrix-free -> dense, on
the bench's ring networks (4 per size, T = 80, sweep-small's rates; median
of 12 alternating rounds, 1 BLAS thread, 2 vCPUs):

    n     SIR           SEIR
    8     3.6 -> 1.6    4.8 -> 1.4
    12    3.9 -> 1.8    4.9 -> 2.2
    16    4.3 -> 2.3    6.0 -> 3.4
    20    4.1 -> 3.0    6.3 -> 5.1
    24    4.4 -> 3.7    7.1 -> 7.0
    28    4.5 -> 4.5    7.6 -> 9.1
    32    4.5 -> 5.0    7.7 -> 12.0
    40    3.1 -> 5.3    13.3 -> 29.6

The squarings cost O((c*n)^3) per state, so the dense regime loses past
n = 24 for SEIR and n = 28 for SIR.

Each left action multiplies the rows still iterating by each layer's
adjacency A: over A's edges in column order, the edge table of A's
transpose sorted once per call from the one ``dynamics._operator`` gives,
where EDGE_FACTOR * nnz(A) * rows < n*n (``dynamics._use_edges``), else
with the dense A (see the dynamics module docstring for the rule and its
measurements). The edges also give the block labelling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import (SUM_TOL, EpidemicState, Trajectory, _edge_product, _prepare,
                       _pressure_jacobian, _use_edges)
from .graph import Network, _components, _edge_table

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
# power iteration runs on M + SHIFT*I, which breaks the period-2 oscillation
# of patterns like permutation matrices; the roots are shifted back
SHIFT = 1e-8
# The shift and its probe serve the matrix-free regime only (networks of
# more than DENSE_NODES nodes): there convergence_diagnostics iterates each
# block on M - alpha*I, one alpha >= 0 per state, and adds alpha back to the
# root. The eigenvalues move by -alpha, so the ratio |lambda_2 - alpha| /
# (lambda_1 - alpha) that sets the iteration count falls where the
# eigenvalues other than lambda_1 lie near the diagonal, and rises where one
# lies far left of it. The gain thus
# depends on the block's coupling being weaker than its diagonal: g, the
# smallest eigenvalue of diag(M_jj) - N for the off-diagonal part N, is
# positive. Every state of the bench's inputs has it. A bipartite block
# whose coupling exceeds its diagonal lacks it: on an undirected SIR star
# with equal gamma, 0.9 times the diagonal took 6 to 8 times the
# iterations, and at h*gamma = 0.999 failed to converge. So alpha is the
# smaller of
#  - DIAGONAL_SHIFT times the block's smallest diagonal entry: M - alpha*I
#    keeps a positive diagonal, hence stays nonnegative and primitive;
#  - 2*g*l / (l + g) for a lower bound l on lambda_1, the largest shift
#    under which no real eigenvalue's ratio |lambda - alpha| /
#    (lambda_1 - alpha) exceeds |lambda| / lambda_1 (0 where g <= 0).
# g is bounded below by min_j (M_jj - (w N)_j / w_j), a scaled Gershgorin
# bound on the real parts of the eigenvalues, and l by max M_jj and by the
# Collatz-Wielandt bound min_j (w M)_j / w_j, over the positive iterates w
# of SHIFT_PROBE + 1 left actions of N + diag(max(M_jj) - M_jj), whose limit
# gives g itself. g is well left of the leftmost eigenvalue where N's
# spectrum lies near 0 apart from its root (about 0.24 against 0.41 on the
# bench's SEIR rings near s = 1), so the bound keeps only part of the gain.
# Iterations over one pass of the bench's sweep-small diagnose inputs
# (seed 1), probe actions excluded: 25 255 unshifted; 11 693, 10 630,
# 10 255 and 10 087 at DIAGONAL_SHIFT = 0.8, 0.9, 0.95 and 1; 9 326 with
# alpha = 0.9 times the smallest diagonal entry alone. SHIFT_PROBE = 3 gave
# 11 754 at 0.9, 15 gave 10 499.
DIAGONAL_SHIFT = 0.95
SHIFT_PROBE = 8
# convergence_diagnostics forms the matrices of the states of networks of at
# most DENSE_NODES nodes (the crossover in the module docstring), and starts
# their power iteration from the vectors of (M + SHIFT*I)^(2^SQUARINGS).
# Seconds for the 112 sweep-small diagnose inputs (seed 1), median of 7
# alternating rounds: 0.78 matrix-free; 0.57, 0.44, 0.38, 0.35, 0.34 and
# 0.38 for 2 to 7 squarings, 4 to 7 within the host's noise.
DENSE_NODES = 24
SQUARINGS = 5
# states are formed CHUNK_ENTRIES matrix entries at a time at most. On a
# T = 20 000, n = 20 SEIR run the tracemalloc peak was 63.3 MB matrix-free,
# and 18, 23, 35 and 59 MB with chunks of 2**18 to 2**21 entries, all within
# the host's noise of one another in time (1.0-1.5 s); unchunked, one stack
# alone is 256 MB
CHUNK_ENTRIES = 2**20


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


def build_spreading_matrix(state: EpidemicState | Trajectory, params,
                           net: Network) -> SpreadingMatrix:
    """Linear map propagating the infectious coordinates one step from
    ``state``, one block per compartment of the chain ``params.stages``
    walks: the first block row holds diag(s) times the Jacobian of the
    infection pressure the step uses, transport layers included; each stage
    keeps 1 - h*rate of its compartment and passes h*rate on to the next.
    For a Trajectory, the ``(T+1, N, N)`` stack of its states' maps."""
    pr, op = _prepare(params, state, net)
    return SpreadingMatrix(m=_spreading_stack(pr, op, state.s))


def _spreading_stack(pr, op: tuple, s: np.ndarray) -> np.ndarray:
    """``build_spreading_matrix`` on resolved parameters and their operator,
    for the s levels of one state (n,) or of a stack of states (B, n)."""
    h, n, k = pr.h, s.shape[-1], len(pr.stages)
    full = partial(np.broadcast_to, shape=s.shape + (n,))
    eye = np.eye(n)
    blocks = [[full(0.0)] * k for _ in range(k)]
    for c, rate in enumerate(pr.stages):
        blocks[0][c] = h * (s[..., :, None] * _pressure_jacobian(op, c))
        blocks[c][c] = full(eye + blocks[c][c] - h * np.diag(rate))
        if c + 1 < k:
            blocks[c + 1][c] = full(h * np.diag(rate))
    return np.block(blocks)


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
    ms = m if m.ndim == 3 else m[None]
    lam, vec = _power_iteration(_dense_action, (ms,), _uniform(len(ms), m.shape[-1]))
    return (lam, vec) if m.ndim == 3 else (lam[0], vec[0])


def _dense_action(w: np.ndarray, ms: np.ndarray) -> np.ndarray:
    return (w[:, None, :] @ ms)[:, 0] + SHIFT * w


def _uniform(b: int, size: int) -> np.ndarray:
    return np.full((b, size), 1.0 / size)


def _power_iteration(apply, data: tuple, w: np.ndarray) -> tuple:
    """Perron roots and left vectors (unit 1-norm) of B nonnegative matrices
    M, given by the left action of the shifted matrices,
    ``apply(w, *data) = w M + SHIFT*w``, on the iterates ``w`` (B, order),
    started from the given nonnegative ``w`` (left unchanged); row i of each
    ``data`` array belongs to matrix i. The matrix-free path of
    ``convergence_diagnostics`` passes each block as M - alpha*I,
    nonnegative too, and adds alpha back to the roots (``_block_roots``,
    DIAGONAL_SHIFT).

    The iteration runs on all matrices at once; each stops once its iterate
    moves by at most POWER_RTOL in the 1-norm, and then leaves ``w`` and
    ``data``, so the arrays shrink only as members converge."""
    b = len(w)
    lam, vec, todo = np.empty(b), np.empty_like(w), np.arange(b)
    w = w.copy()
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
    """Perron root of M(s_k) for every step k; M is formed only for networks
    of at most DENSE_NODES nodes, to start the iteration (``_squared_start``).

    For iterates w = [w_0, ..., w_{c-1}] over the chain's c compartments at
    rates rho_c = params.stages[c], stacked as (T+1, c*n), and x = h*w_0*s_k,
    the left action of all T+1 matrices at once is

        (w M)_c = w_c*(1 - h*rho_c) + h*rho_c*w_{c+1} + sum_l (x*rates_l[c]) A_l

    (no w_{c+1} for the last c), one (c*b, n) @ (n, n) product per layer for
    the b unconverged rows, over the layer's edges where ``_use_edges`` takes
    them and dense otherwise. A state's root is the largest over the strongly
    connected blocks of its own pattern; nodes with s = 0 contribute no
    infection edges. A singleton block's root is its diagonal entry."""
    pr, op = _prepare(params, traj, net)
    n, h = net.n, pr.h
    hs = h * traj.s
    comps = len(pr.stages)
    size = comps * n
    # (A_l, rates as (comps, n), A_l's edges in column order), the edges
    # taken once for both the products and the block labelling
    layers = [(a, np.stack(r), _column_edges(edges)) for a, edges, r in op]
    rho = np.ravel(pr.stages)
    keep = 1 - h * rho
    keep_shifted = keep + SHIFT
    # each compartment but the last passes h*rho_c of it on to the next
    h_pass = h * rho[:size - n]

    def apply(w, hs_rows, alpha):
        # the left action of M - alpha*I, alpha one value per state
        x = (w[:, :n] * hs_rows)[:, None, :]
        out = None
        for a, r, edges in layers:
            y = _left_product((x * r).reshape(-1, n), a, edges)
            out = y if out is None else out + y
        out = out.reshape(len(w), size)
        out += w * (keep_shifted - alpha[:, None])
        out[:, :size - n] += h_pass * w[:, n:]
        return out

    diag = np.tile(keep, (len(hs), 1))
    diag[:, :n] += hs * sum(r[0] * np.diagonal(a) for a, r, _ in layers)
    # M >= 0 follows from these (each written so that NaN fails too)
    if not (np.all(hs >= 0) and all(np.all(r >= 0) for _, r, _ in layers)
            and np.all(diag >= 0) and np.all(h_pass >= 0)):
        raise ValueError("spreading matrix must be nonnegative (h*s, the rates, "
                         "h*sigma and its diagonal must be >= 0)")

    # a state's pattern is the digraph on the nodes (c, i) = c*n + i,
    # compartment c of node i: infection edges (0, i) -> (c, j) where
    # h*s_i != 0 and some layer has rates_l[c][i] * A_l[i, j] != 0, and the
    # progression edges (c + 1, i) -> (c, i) where rho_c[i] != 0. The states
    # are grouped by their nodes with s = 0 (hashing, not sorting, the rows),
    # and each group's blocks are labelled once.
    infection = [(src, c * n + dst, r[c][src] != 0)
                 for _, r, (dst, src, _, _) in layers for c in range(comps)]
    link = np.flatnonzero(rho[:size - n] != 0)
    groups: dict[bytes, list[int]] = {}
    for k, zero in enumerate(hs == 0):
        groups.setdefault(zero.tobytes(), []).append(k)
    roots = np.empty(len(hs))
    dense = n <= DENSE_NODES
    chunk = max(1, CHUNK_ENTRIES // size**2) if dense else len(hs)
    for ks in map(np.array, groups.values()):
        live = hs[ks[0]] != 0
        src, dst = [link + n], [link]
        for i, j, rated in infection:
            on = rated & live[i]
            src.append(i[on])
            dst.append(j[on])
        labels = _components(size, np.concatenate(src), np.concatenate(dst))
        for rows in np.split(ks, range(chunk, len(ks), chunk)):
            ms = _spreading_stack(pr, op, traj.s[rows]) if dense else None
            roots[rows] = _block_roots(apply, labels, diag[rows], hs[rows], ms).max(axis=1)
    return roots


def _column_edges(edges: tuple) -> tuple:
    """A matrix's edges in column order (j ascending, then i), from its edge
    table: the edge table of its transpose."""
    rows, cols, weights, _ = edges
    order = np.argsort(cols, kind="stable")
    return _edge_table(cols[order], rows[order], weights[order])


def _left_product(x: np.ndarray, a: np.ndarray, edges: tuple) -> np.ndarray:
    """x @ a for x (rows, n), given a's ``_column_edges``: over the edges
    where ``_use_edges`` takes them for len(x) rows, dense otherwise."""
    if _use_edges(a, edges, len(x)):
        return _edge_product(x, edges)
    return x @ a


def _block_roots(apply, labels: np.ndarray, diag: np.ndarray, hs: np.ndarray,
                 ms: np.ndarray | None) -> np.ndarray:
    """Perron roots, (states, blocks), of the diagonal blocks of the states
    ``hs`` for the strongly connected blocks ``labels`` of their pattern: a
    singleton block's root is its diagonal entry, the others come from power
    iteration on the block. With the states' matrices ``ms``, it runs on the
    block itself from ``_squared_start``'s vectors; without, on the block
    less alpha*I (``_diagonal_shift``) from the uniform vector. A state's
    root is the largest of them."""
    size = len(labels)
    sizes = np.bincount(labels)
    roots = np.empty((len(hs), len(sizes)))
    single = sizes[labels] == 1
    roots[:, labels[single]] = diag[:, single]
    for block in np.flatnonzero(sizes > 1):
        idx = np.flatnonzero(labels == block)
        act = apply if idx.size == size else partial(_restricted, apply, idx, size)
        if ms is None:
            alpha = _diagonal_shift(act, hs, diag[:, idx])
            start = _uniform(len(hs), idx.size)
        else:
            alpha = np.zeros(len(hs))
            start = _squared_start(ms if idx.size == size else ms[:, idx[:, None], idx])
        roots[:, block] = _power_iteration(act, (hs, alpha), start)[0] + alpha
    return roots


def _squared_start(block: np.ndarray) -> np.ndarray:
    """Left Perron vectors of a stack of irreducible blocks M, from power
    iteration on P = (M + SHIFT*I)^(2^SQUARINGS), which has them too: each
    squaring is one stacked product and squares the ratio |lambda_2| /
    lambda_1 that sets the iteration count. P is rescaled to a largest entry
    of 1 after each squaring, or its root could fall below the SHIFT the
    iteration adds (lambda_1 = 0.5 gives 2e-10 after five). ``block`` is
    overwritten."""
    order = np.arange(block.shape[-1])
    block[:, order, order] += SHIFT
    for _ in range(SQUARINGS):
        block = block @ block
        block *= 1 / block.max(axis=(1, 2), keepdims=True)
    return _power_iteration(_dense_action, (block,), _uniform(len(block), len(order)))[1]


def _diagonal_shift(act, hs: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The shift alpha, one per state, of an irreducible block with left
    action ``act`` and diagonal ``diag`` (states, size), checked >= 0: the
    smaller of DIAGONAL_SHIFT * min(diag) and 2*g*l / (l + g), g and l the
    lower bounds on the smallest eigenvalue of diag(M) - N and on lambda_1
    that SHIFT_PROBE + 1 left actions give (see DIAGONAL_SHIFT)."""
    top = diag.max(axis=1, keepdims=True)
    w, unshifted = np.ones_like(diag), np.zeros(len(hs))
    g, lam = np.full(len(hs), -np.inf), top[:, 0]
    # an iterate with a zero entry (underflow) gives NaN ratios, which fmax
    # skips; g stays -inf, and alpha 0, where no iterate gave a bound
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(SHIFT_PROBE + 1):
            wm = act(w, hs, unshifted) - SHIFT * w
            ratio = wm / w
            g = np.fmax(g, (2 * diag - ratio).min(axis=1))
            lam = np.fmax(lam, ratio.min(axis=1))
            # the next iterate, w (N + diag(top - diag)), is >= 0
            w = wm + w * (top - 2 * diag)
            w /= w.sum(axis=1, keepdims=True)
        g = np.maximum(g, 0.0)
        # g <= min(diag) <= lam, so 0/0 only where the cap is 0 too
        return np.fmin(DIAGONAL_SHIFT * diag.min(axis=1), 2 * g * lam / (lam + g))


def _restricted(apply, idx: np.ndarray, size: int, w: np.ndarray, *data) -> np.ndarray:
    """Left action of the diagonal block M[idx, idx], through the full one."""
    full = np.zeros((len(w), size))
    full[:, idx] = w
    return apply(full, *data)[:, idx]


def convergence_diagnostics(traj: Trajectory, params, net: Network) -> ConvergenceReport:
    """Per-step dominant eigenvalues and decay diagnostics for a simulated run;
    the eigenvalues come from the left action of the spreading matrices, which
    are formed only on networks of at most DENSE_NODES nodes (see the module
    docstring). An s level above 1 by more than SUM_TOL, or NaN, is
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
