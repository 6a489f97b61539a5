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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import (EpidemicState, SirParams, Trajectory, _prepare,
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
    the b unconverged rows. A state's root is the largest over the strongly
    connected blocks of its own pattern; nodes with s = 0 contribute no
    infection edges. A singleton block's root is its diagonal entry."""
    pr, op = _prepare(params, traj, net)
    n, h = net.n, pr.h
    hs = h * traj.s
    sir = isinstance(pr, SirParams)
    comps = len(op[0][1])
    size = comps * n
    layers = [(a, np.stack(r)) for a, r in op]  # rates as (comps, n)
    keep = 1 - h * pr.gamma if sir else np.concatenate([1 - h * pr.sigma, 1 - h * pr.gamma])
    keep_shifted = keep + SHIFT
    h_sigma = None if sir else h * pr.sigma

    def apply(w, hs_rows):
        x = (w[:, :n] * hs_rows)[:, None, :]
        out = None
        for a, r in layers:
            y = (x * r).reshape(-1, n) @ a
            out = y if out is None else out + y
        out = out.reshape(len(w), size)
        out += w * keep_shifted
        if not sir:
            out[:, :n] += h_sigma * w[:, n:]
        return out

    diag = np.tile(keep, (len(hs), 1))
    diag[:, :n] += hs * sum(r[0] * np.diagonal(a) for a, r in layers)
    # M >= 0 follows from these (each written so that NaN fails too)
    if not (np.all(hs >= 0) and all(np.all(r >= 0) for _, r in layers)
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
    pattern = np.zeros((n, comps, n), dtype=bool)
    for a, r in layers:
        pattern |= (a != 0)[:, None, :] & (r != 0).T[:, :, None]
    link = np.zeros(0, dtype=np.intp) if sir else np.flatnonzero(pr.sigma != 0)
    groups: dict[bytes, list[int]] = {}
    for k, zero in enumerate(hs == 0):
        groups.setdefault(zero.tobytes(), []).append(k)
    roots = np.empty(len(hs))
    for ks in map(np.array, groups.values()):
        rows, cols = np.nonzero(pattern.reshape(n, size) & (hs[ks[0]] != 0)[:, None])
        labels = _components(size, np.concatenate([rows, link + n]),
                             np.concatenate([cols, link]))
        roots[ks] = _block_roots(apply, labels, diag[ks], hs[ks]).max(axis=1)
    return roots


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
    are never formed."""
    if len(traj) < 2:
        raise ValueError("trajectory too short for diagnostics (< 2 states)")
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
