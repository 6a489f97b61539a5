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
a trajectory's matrices. ``convergence_diagnostics`` solves all the states
of a trajectory at once, through the matrices' left action computed from s,
the rates and the adjacency. A reducible matrix is solved per strongly
connected block of its off-diagonal pattern; its Perron root is the largest
of the blocks' roots. ``dominant_eigenvalue`` iterates on M itself from the
uniform vector: it is the independent check the trajectory solve is tested
against. The solve has three regimes, split by the node count n (the
crossovers below), and logs each call's regime, states, left actions,
product rows (the rows its left products took, summed) and worst relative
residual at DEBUG:

- n <= DENSE_NODES, repeated squaring: numpy's per-call overhead dominates
  at these sizes, so the solve spends flops to save calls. It forms the
  states' matrices, CHUNK_ENTRIES entries at a time at most, squares each
  block's stack SQUARINGS times (one stacked product each), and takes the
  left vectors of (M + SHIFT*I)^(2^SQUARINGS) by power iteration; that
  power has M's Perron vector and the ratio |lambda_2| / lambda_1 raised to
  the 32nd power (repeated squaring; Golub and Van Loan, *Matrix
  Computations*, 7.3). The matrix-free iteration on M itself, from those
  vectors, then gives each root by the same POWER_RTOL test, mostly after
  one left action. Over the 9 072 states of the bench's sweep-small
  diagnose inputs (seed 1) the roots lie within 9.1e-15 of
  ``np.linalg.eigvals`` (median 1.2e-15), against 5.5e-13 (median 6.4e-14)
  for the shifted power iteration.
- DENSE_NODES < n <= KRYLOV_NODES, shifted power iteration: no matrix is
  formed, so the memory is the (T+1) x 2n iterates (SEIR; (T+1) x n for
  SIR) besides the adjacency. Each block iterates from the uniform vector
  on M - alpha*I and alpha is added back to the root. alpha is at most a
  share DIAGONAL_SHIFT < 1 of the block's smallest diagonal entry, and at
  most what a lower bound on the real parts of the block's eigenvalues
  allows, so that a block with eigenvalues far left of its diagonal (a
  bipartite network, say) is not slowed (see DIAGONAL_SHIFT).
- n > KRYLOV_NODES, Krylov: no matrix is formed either. Each block runs
  batched Arnoldi on its left action (``_krylov_roots``; Saad, *Numerical
  Methods for Large Eigenvalue Problems*, 2nd ed., 2011, ch. 6): one left
  action adds one vector to the Krylov basis of every state still running,
  orthogonalised twice against it (CGS2), and a state's root is the Ritz
  value of largest real part. The Perron root is the rightmost eigenvalue
  of a nonnegative block, whatever lies left of it, so bipartite blocks
  need no care and no shift: M - alpha*I has M's Krylov spaces. Every
  KRYLOV_CHECK steps the Ritz values come from ``np.linalg.eigvals`` of the
  (b, k, k) Hessenberg stack and the Ritz vector y from one step of inverse
  iteration, and a state stops once |h[k, k-1] * y[k-1]| / theta <=
  KRYLOV_RTOL, or at a breakdown: the new vector vanishes, the space is
  invariant and the Ritz value exact. Cycles restart from the Ritz vector
  after KRYLOV_STEPS steps and grow where a cycle barely cuts the residual;
  chunks of states keep a basis within CHUNK_ENTRIES entries. On the whole
  T = 35 run of metro-large's network (n = 2000, seed 1) each state took 40
  left actions against 96 (87 iterations and 9 probe actions) for the
  shifted power iteration, and the 2-state excerpt the bench diagnoses 40
  against 80; the roots moved by at most 1.3e-14 (relative), against
  8.5e-15 between power iteration and a Krylov solve to 2e-14.

The Krylov solve pays for each step with the orthogonalisation, which
reads the state's basis four times, and with an eigenvalue solve per check,
both per state, while power iteration's left action shares the adjacency
over all the states. So it wins where the left action is dear: on dense
networks from a few hundred nodes, for SEIR before SIR, and on sparse ones
once a chunk of states is few enough rows for ``dynamics._use_edges`` to
take the edges (about 2000 nodes at 11 extra edges a node). A one-pass
orthogonalisation, DCGS2 (Bielich et al., "Low-synch Gram-Schmidt with
delayed reorthogonalization for Krylov solvers", Parallel Computing 2022),
reads the basis twice for the same flops: in process it took the whole
metro run 8-12 % less time, where a chunk's basis of 10 states outgrows
the cache, but not the bench's 2-state excerpt, where it does not (1.05x
and 0.99x in two runs of 8 and 10 alternating rounds), so CGS2 stays.
With the split at 1900 nodes no size measured below runs slower.
Milliseconds per
``convergence_diagnostics`` call, shifted power iteration -> Krylov
(``tools/crossover.py``: ring networks, 2 per size, T = 80, sweep-small's
rates; median of 3 alternating rounds, of 5 from n = 1500; 1 BLAS thread,
2 vCPUs); "sparse" networks have 11 extra edges a node on average, the
others 20 % of all pairs. The n = 2000 row was re-measured with one
product row a state, at density 0.0055 (5 rounds); the SEIR cells of the
rows above predate it:

    n      edges    SIR               SEIR
    100    20 %     7.0 -> 21.6       26.6 -> 49.8
    200    20 %     15.0 -> 17.2      66.7 -> 67.0
    400    20 %     51.0 -> 38.1      132.0 -> 112.9
    600    20 %     97.7 -> 56.4      225.8 -> 169.6
    800    sparse   137.1 -> 183.0    540.5 -> 466.9
    1000   sparse   190.3 -> 213.4    782.0 -> 561.6
    1500   sparse   413.4 -> 422.8    1599.9 -> 1213.4
    1600   sparse   441.7 -> 467.6    1370.2 -> 1367.8
    1800   sparse   546.3 -> 558.8    1784.8 -> 1724.5
    1950   sparse   645.3 -> 594.1    2598.3 -> 1130.1
    2000   sparse   718.7 -> 349.9    1844.0 -> 803.7

Milliseconds per call, matrix-free (shifted power iteration) -> dense
(repeated squaring), on the same rings (4 per size, median of 12
alternating rounds):

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
adjacency A. Where the layer's rates are uniform over the nodes and there
is more than one infected compartment (SEIR's beta_e and beta, as in every
bench scenario), the compartments' rows (x*rate_c) A are rate_c*(x A), so
the product takes one row a state and the rates multiply after it; other
rates (SIR, or per-node rates) keep one row a compartment, the product as
written, bit for bit (``_factored``). That halves the product rows of
SEIR's Krylov solve on metro-large's network (1296 against 2592 over a
whole T = 35 run), and took a call from 453 to 323-339 ms there
(``tools/crossover.py --nodes 2000 --density 0.0055 --steps 35``: 4 rings,
medians of 5 and of 9 alternating rounds); the roots moved by at most
6.2e-16 (relative) on one such ring and 3.7e-15 on the bench's seed-1
run, where the moved roots lie closer to ``np.linalg.eigvals``. The
product runs over A's edges in column order, the
edge table of A's transpose sorted once per call from the one
``dynamics._operator`` gives, where EDGE_FACTOR * nnz(A) * rows < n*n
(``dynamics._use_edges``), else with the dense A (see the dynamics module
docstring for the rule and its measurements). The operator is asked for
the matrices at the most rows a product takes, (T+1) times the widest
layer's rows a state, and for all of them where the states' matrices are
formed (n <= DENSE_NODES); so on a sparse network loaded from records no
n x n matrix is built. The edges also give the block labelling and the
diagonal of M, whose infection part is h*s_i*rates_l[0][i]*A_l[i, i]: the
self-loop weights, read from the edges where i == j (``_diagonal``).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import (SUM_TOL, EpidemicState, Trajectory, _edge_product, _operator,
                       _prepare, _pressure_jacobian, _use_edges)
from .graph import Network, _components, _edge_table

log = logging.getLogger(__name__)

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
# POWER_RTOL, and fails after POWER_MAX_ITER iterations; the Krylov solve
# fails once a state took POWER_MAX_ITER left actions
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
# states are formed CHUNK_ENTRIES matrix entries at a time at most, and the
# Krylov solve keeps at most CHUNK_ENTRIES basis entries. On a T = 20 000,
# n = 20 SEIR run the tracemalloc peak was 63.3 MB matrix-free, and 18, 23,
# 35 and 59 MB with chunks of 2**18 to 2**21 entries, all within the host's
# noise of one another in time (1.0-1.5 s); unchunked, one stack alone is
# 256 MB
CHUNK_ENTRIES = 2**20
# Networks of more than KRYLOV_NODES nodes take the Krylov solve (the
# crossover in the module docstring): batched Arnoldi on each block's left
# action, restarted from the Ritz vector after KRYLOV_STEPS steps, with the
# Ritz values checked every KRYLOV_CHECK steps. A state stops once its
# relative Ritz residual is at most KRYLOV_RTOL, or at a breakdown: a new
# vector left with at most BREAKDOWN of its norm by the orthogonalisation. A
# state whose residual one cycle cuts by less than the factor KRYLOV_STALL
# restarts with cycles twice as long, up to the block's order, where the
# Krylov space is the whole space (the eigenvalues of a directed ring with
# a uniform diagonal lie on a circle, which short cycles barely resolve),
# and up to a basis of CHUNK_ENTRIES entries.
KRYLOV_NODES = 1900
KRYLOV_STEPS = 24
KRYLOV_CHECK = 4
KRYLOV_RTOL = 5e-13
KRYLOV_STALL = 0.1
BREAKDOWN = 1e-13


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
    pr = _prepare(params, state, net)
    return SpreadingMatrix(m=_spreading_stack(pr, _operator(net, pr.rates, None), state.s))


def _spreading_stack(pr, op: tuple, s: np.ndarray) -> np.ndarray:
    """``build_spreading_matrix`` on resolved parameters and their operator,
    for the s levels of one state (n,) or of a stack of states (B, n)."""
    h, n, k = pr.h, s.shape[-1], len(pr.stages)
    full = partial(np.broadcast_to, shape=s.shape + (n,))
    eye = np.eye(n)
    blocks = [[full(0.0)] * k for _ in range(k)]
    for c, rate in enumerate(pr.stages):
        blocks[0][c] = h * (s[..., :, None] * _pressure_jacobian(op, c))
        # 1 - h*rate first, as the left action forms it (_trajectory_roots)
        blocks[c][c] = full(eye - h * np.diag(rate) + blocks[c][c])
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
    lam, vec = _power_iteration(_dense_action, (ms,), _uniform(len(ms), m.shape[-1]))[:2]
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
    ``data``, so the arrays shrink only as members converge. Returns the
    roots, the vectors, the left actions taken (summed over the matrices)
    and the largest last move of an iterate."""
    b = len(w)
    lam, vec, todo = np.empty(b), np.empty_like(w), np.arange(b)
    actions, change = 0, 0.0
    w = w.copy()
    for _ in range(POWER_MAX_ITER):
        actions += len(w)
        nxt = apply(w, *data)
        norm = nxt.sum(axis=1, keepdims=True)  # 1-norm (entries are >= 0), at least SHIFT
        nxt /= norm
        w -= nxt
        delta = np.abs(w, out=w).sum(axis=1)
        w = nxt
        if delta.min() <= POWER_RTOL:
            done = delta <= POWER_RTOL
            lam[todo[done]], vec[todo[done]] = norm[done, 0] - SHIFT, w[done]
            change = max(change, delta[done].max())
            todo, w = todo[~done], w[~done]
            data = tuple(d[~done] for d in data)
            if not todo.size:
                return lam, vec, actions, change
    # the 1-norm of w M + SHIFT*w - norm*w, over the members still unconverged
    residual = (norm[:, 0] * delta)[delta > POWER_RTOL].max()
    raise PowerIterationError("power iteration did not converge", float(residual))


def _trajectory_roots(traj: Trajectory, params, net: Network) -> tuple:
    """Perron root of M(s_k) for every step k, the solve's regime (module
    docstring), its left actions of the states' blocks and the rows its left
    products took, each summed, and its worst relative residual
    (``_block_roots``); M is formed only for networks of at most DENSE_NODES
    nodes, to start the iteration (``_squared_start``).

    For iterates w = [w_0, ..., w_{c-1}] over the chain's c compartments at
    rates rho_c = params.stages[c], stacked as (T+1, c*n), and x = h*w_0*s_k,
    the left action of all T+1 matrices at once is

        (w M)_c = w_c*(1 - h*rho_c) + h*rho_c*w_{c+1} + sum_l (x*rates_l[c]) A_l

    (no w_{c+1} for the last c). Each layer's term is ((x*u_l) A_l) * v_l[c]
    for its factors (u_l, v_l) (``_factored``): one (len(u_l)*b, n) @ (n, n)
    product for the b unconverged rows, b rows where the layer's rates are
    uniform over the nodes and c*b otherwise, over the layer's edges where
    ``_use_edges`` takes them and dense otherwise. A state's root is the
    largest over the strongly connected blocks of its own pattern; nodes with
    s = 0 contribute no infection edges. A singleton block's root is its
    diagonal entry."""
    pr = _prepare(params, traj, net)
    n, h = net.n, pr.h
    rates = [np.stack(r) for r in pr.rates]
    factors = [_factored(r) for r in rates]
    # the matrices a product reads: all of them where the states' matrices
    # are formed, else those the rule sends dense at the most rows a layer's
    # product takes, len(u)*(T+1) for the widest u
    dense = n <= DENSE_NODES
    most = max(len(u) for u, _ in factors) * len(traj)
    op = _operator(net, pr.rates, None if dense else most)
    hs = h * traj.s
    comps = len(pr.stages)
    size = comps * n
    # (A_l or None, rates as (comps, n), their factors (u, v), A_l's edges in
    # column order), the edges taken once for the products, the diagonal and
    # the block labelling
    layers = [(a, r, u, v, _column_edges(n, edges))
              for (a, edges, _), r, (u, v) in zip(op, rates, factors)]
    rho = np.ravel(pr.stages)
    keep = 1 - h * rho
    keep_shifted = keep + SHIFT
    # each compartment but the last passes h*rho_c of it on to the next
    h_pass = h * rho[:size - n]

    def apply(w, hs_rows, alpha):
        # the left action of M - alpha*I, alpha one value per state
        x = (w[:, :n] * hs_rows)[:, None, :]
        out = None
        for a, _, u, v, edges in layers:
            y = _left_product((x * u).reshape(-1, n), a, edges).reshape(len(w), len(u), n) * v
            out = y if out is None else out + y
        out = out.reshape(len(w), size)
        out += w * (keep_shifted - alpha[:, None])
        out[:, :size - n] += h_pass * w[:, n:]
        return out

    diag = np.tile(keep, (len(hs), 1))
    diag[:, :n] += hs * sum(r[0] * _diagonal(n, edges) for _, r, _, _, edges in layers)
    # M >= 0 follows from these (each written so that NaN fails too)
    if not (np.all(hs >= 0) and all(np.all(r >= 0) for r in rates)
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
                 for _, r, _, _, (dst, src, _, _) in layers for c in range(comps)]
    link = np.flatnonzero(rho[:size - n] != 0)
    groups: dict[bytes, list[int]] = {}
    for k, zero in enumerate(hs == 0):
        groups.setdefault(zero.tobytes(), []).append(k)
    roots = np.empty(len(hs))
    regime = "squaring" if dense else "power" if n <= KRYLOV_NODES else "krylov"
    actions, residual = 0, 0.0
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
            block, acts, res = _block_roots(apply, labels, diag[rows], hs[rows], ms,
                                            regime == "krylov")
            roots[rows] = block.max(axis=1)
            actions, residual = actions + acts, max(residual, res)
    # each left action of a state takes len(u) product rows a layer
    return roots, regime, actions, actions * sum(len(u) for u, _ in factors), residual


def _factored(r: np.ndarray) -> tuple:
    """Weights u, taken before a layer's product, and scalars v, taken after
    it, for the layer's rates r (comps, n): (x * r) @ A = ((x * u) @ A) * v
    for x (b, 1, n), and the product takes len(u) rows a state. Where r has
    more than one row and each is uniform over the nodes, u is one row of
    ones and v = r[:, :1]; otherwise u = r and v = 1, the product as
    written."""
    if len(r) > 1 and np.all(r == r[:, :1]):
        return np.ones((1, 1)), r[:, :1]
    return r, 1.0


def _column_edges(n: int, edges: tuple) -> tuple:
    """A matrix's edges in column order (j ascending, then i), from its edge
    table: the edge table of its transpose. The stable sort runs on the
    columns in the smallest integer type that holds n - 1, where numpy's
    radix sort takes the types of at most 16 bits (1.57 -> 0.14 ms on
    24 203 edges at n = 2000, best of 5); the order is the same."""
    rows, cols, weights, _ = edges
    order = np.argsort(cols.astype(np.min_scalar_type(n - 1)), kind="stable")
    return _edge_table(cols[order], rows[order], weights[order])


def _diagonal(n: int, edges: tuple) -> np.ndarray:
    """The diagonal of a matrix of order ``n``, from its edge table in either
    order: the weights of its self-loops."""
    rows, cols, weights, _ = edges
    loop = rows == cols
    d = np.zeros(n)
    d[rows[loop]] = weights[loop]
    return d


def _left_product(x: np.ndarray, a: np.ndarray | None, edges: tuple) -> np.ndarray:
    """x @ a for x (rows, n), given a's ``_column_edges``: over the edges
    where the operator left a out or ``_use_edges`` takes them for len(x)
    rows, dense otherwise."""
    if a is None or _use_edges(x.shape[1], edges, len(x)):
        return _edge_product(x, edges)
    return x @ a


def _block_roots(apply, labels: np.ndarray, diag: np.ndarray, hs: np.ndarray,
                 ms: np.ndarray | None, krylov: bool) -> tuple:
    """Perron roots, (states, blocks), of the diagonal blocks of the states
    ``hs`` for the strongly connected blocks ``labels`` of their pattern: a
    singleton block's root is its diagonal entry, the others come from the
    Krylov solve (``_krylov_roots``) or from power iteration on the block.
    With the states' matrices ``ms``, power iteration runs on the block
    itself from ``_squared_start``'s vectors; without, on the block less
    alpha*I (``_diagonal_shift``) from the uniform vector. A state's root is
    the largest of them. Also returns the left actions taken, summed over
    the states (a power solve's probe included), and the worst relative
    residual: a Ritz residual, or the last move of a power iterate."""
    size = len(labels)
    sizes = np.bincount(labels)
    roots = np.empty((len(hs), len(sizes)))
    single = sizes[labels] == 1
    roots[:, labels[single]] = diag[:, single]
    actions, residual = 0, 0.0
    for block in np.flatnonzero(sizes > 1):
        idx = np.flatnonzero(labels == block)
        act = apply if idx.size == size else partial(_restricted, apply, idx, size)
        alpha = np.zeros(len(hs))
        if krylov:
            lam, acts, res = _krylov_roots(act, (hs, alpha), idx.size)
        else:
            if ms is None:
                alpha = _diagonal_shift(act, hs, diag[:, idx])
                start = _uniform(len(hs), idx.size)
                actions += (SHIFT_PROBE + 1) * len(hs)
            else:
                start = _squared_start(ms if idx.size == size else ms[:, idx[:, None], idx])
            lam, _, acts, res = _power_iteration(act, (hs, alpha), start)
        roots[:, block] = lam + alpha
        actions, residual = actions + acts, max(residual, res)
    return roots, actions, residual


def _krylov_roots(act, data: tuple, size: int) -> tuple:
    """Perron roots of B irreducible nonnegative blocks of order ``size``,
    given by the left action of the shifted blocks, ``act(w, *data) =
    w M + SHIFT*w`` on rows w (B, size) (``_power_iteration``), by batched
    Arnoldi (Saad, *Numerical Methods for Large Eigenvalue Problems*, 2nd
    ed., 2011, ch. 6). Each left action adds one vector to the Krylov basis
    of every state still running; a state's root is the Ritz value of
    largest real part, which is M's Perron root in the limit. The states run
    in chunks whose bases hold at most CHUNK_ENTRIES entries, each from the
    unit uniform vector. Returns the roots, the left actions taken (summed
    over the states) and the largest relative Ritz residual at the stop
    (see KRYLOV_RTOL)."""
    b = len(data[0])
    roots, residual = np.empty(b), np.zeros(b)
    actions = np.zeros(b, dtype=np.int64)
    start = np.full((b, size), size**-0.5)
    todo, steps = np.arange(b), KRYLOV_STEPS
    while todo.size:
        steps = min(steps, size, max(KRYLOV_STEPS, CHUNK_ENTRIES // size - 1))
        chunk = max(1, CHUNK_ENTRIES // ((steps + 1) * size))
        # the states that stalled, to run again with cycles twice as long
        todo = np.concatenate([
            _arnoldi(act, data, start, steps, rows, (roots, residual, actions))
            for rows in np.split(todo, range(chunk, len(todo), chunk))])
        steps *= 2
    return roots, int(actions.sum()), float(residual.max())


def _arnoldi(act, data: tuple, start: np.ndarray, steps: int, rows: np.ndarray,
             out: tuple) -> np.ndarray:
    """Restarted Arnoldi with cycles of ``steps`` steps on the states
    ``rows``, from their ``start`` vectors (unit 2-norm), for
    ``_krylov_roots``. Each new vector is orthogonalised twice against the
    state's basis (classical Gram-Schmidt, twice: CGS2), and every
    KRYLOV_CHECK steps and at the end of a cycle the states' Hessenberg
    matrices give their Ritz pairs (``_ritz``). A state that converged or
    broke down leaves every per-state array; at the end of a cycle the
    others restart from their Ritz vectors, which overwrite ``start``. Fills
    in ``out`` = (roots, residuals, actions), indexed by state, and returns
    the states whose residual a cycle cut by less than KRYLOV_STALL."""
    roots, residual, actions = out
    size = start.shape[1]
    last = np.full(len(rows), np.inf)  # the residual after the previous cycle
    stalled = [rows[:0]]
    while rows.size:
        basis = np.empty((len(rows), steps + 1, size))
        basis[:, 0] = start[rows]
        h = np.zeros((len(rows), steps + 1, steps))
        args = tuple(d[rows] for d in data)
        for j in range(steps):
            w = act(basis[:, j], *args)
            actions[rows] += 1
            top = np.linalg.norm(w, axis=1)
            span = basis[:, :j + 1]
            for _ in range(2):
                c = span @ w[:, :, None]
                w -= (c.transpose(0, 2, 1) @ span)[:, 0]
                h[:, :j + 1, j] += c[..., 0]
            h[:, j + 1, j] = norm = np.linalg.norm(w, axis=1)
            broken = norm <= BREAKDOWN * top
            if (j + 1) % KRYLOV_CHECK and j + 1 < steps and not broken.any():
                basis[:, j + 1] = w / norm[:, None]
                continue
            theta, y, res = _ritz(h[:, :j + 2, :j + 1])
            # at a breakdown the basis spans an invariant space, which holds
            # the Perron vector, so the Ritz value is exact
            done = broken | ((res <= KRYLOV_RTOL) & (theta.imag == 0))
            roots[rows[done]] = theta[done].real - SHIFT
            residual[rows[done]] = res[done]
            if j + 1 == steps:
                break
            keep = ~done
            rows, basis, h, w, norm, last = (rows[keep], basis[keep], h[keep], w[keep],
                                             norm[keep], last[keep])
            args = tuple(d[keep] for d in args)
            if not rows.size:
                return np.concatenate(stalled)
            basis[:, j + 1] = w / norm[:, None]
        keep = ~done
        rows, res, last = rows[keep], res[keep], last[keep]
        if rows.size and actions[rows].max() >= POWER_MAX_ITER:
            raise PowerIterationError("Krylov solve did not converge", float(res.max()))
        x = (y[keep, None, :] @ basis[keep, :steps])[:, 0]
        start[rows] = x / np.linalg.norm(x, axis=1, keepdims=True)
        slow = res > KRYLOV_STALL * last
        stalled.append(rows[slow])
        rows, last = rows[~slow], res[~slow]
    return np.concatenate(stalled)


def _ritz(h: np.ndarray) -> tuple:
    """The Ritz value of largest real part of each Arnoldi relation h,
    (B, k + 1, k), its Ritz vector y (unit 2-norm, in the basis) and its
    relative residual |h[k, k-1] * y[k-1]| / |theta|. The values come from
    the eigenvalues of the (B, k, k) Hessenberg stack, and y from one step
    of inverse iteration, (H - sigma*I) y = 1, with sigma 1e-14 (relative)
    right of Re(theta), so that the matrix is not singular; y is real."""
    k = h.shape[-1]
    square = h[:, :k]
    values = np.linalg.eigvals(square)
    theta = values[np.arange(len(h)), values.real.argmax(axis=1)]
    sigma = theta.real * (1 + 1e-14)
    y = np.linalg.solve(square - sigma[:, None, None] * np.eye(k), np.ones((len(h), k, 1)))[..., 0]
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    return theta, y, np.abs(h[:, k, k - 1] * y[:, -1]) / np.abs(theta)


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
    lambdas, regime, actions, rows, residual = _trajectory_roots(traj, params, net)
    log.debug("perron solve: %s regime, %d states, %d left actions, %d product rows, "
              "worst relative residual %.3g", regime, len(lambdas), actions, rows, residual)
    below = np.flatnonzero(lambdas < 1.0)
    k_bar = int(below[0]) if below.size else None
    monotone = bool(np.all(np.diff(lambdas) <= MONOTONE_TOL))
    # row-wise dot products: the same BLAS dot np.linalg.norm takes per vector
    p_norms = np.sqrt((traj.p[:, None, :] @ traj.p[:, :, None]).ravel())
    # the chain of infected compartments: e and p for SEIR, p for SIR
    peak = traj.levels[1:-1].max(axis=(0, 2))
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
