"""Spreading-matrix construction, Perron-root computation, and convergence
diagnostics for simulated epidemics.

The one-step linear map on the infectious coordinates is state dependent:
for SEIR it is the 2n x 2n block matrix

    [ I + h*diag(s)*Be*A - h*sigma   h*diag(s)*B*A ]
    [ h*sigma                        I - h*gamma   ]

acting on (e, p), where Be*A and B*A sum over the base network and the
transport layers; for SIR it is the n x n matrix I + h*diag(s)*B*A - h*gamma
acting on p alone. Its dominant eigenvalue
drops below 1 once enough susceptibles are depleted, after which the
infection decays geometrically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import (EpidemicState, SirParams, Trajectory, _prepare,
                       _pressure_jacobian)
from .graph import Network

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
STACK_ENTRIES = 2 ** 22  # most matrix entries (32 MB) solved in one stack


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
    matrix, or of each matrix in a ``(B, N, N)`` stack (then ``(B,)``, ``(B, N)``).

    Power iteration runs on the whole stack as ``w @ m + eps*w``, each matrix
    stopping at its own convergence; the shift (subtracted before returning)
    breaks the period-2 oscillation of patterns like permutation matrices."""
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or not m.size:
        raise ValueError("matrix must be square and nonempty, or a stack of them")
    if not np.all(m >= 0):  # written so that NaN fails too
        raise ValueError("matrix must be nonnegative")
    ms = m if m.ndim == 3 else m[None]  # shrinks to the unconverged ones, m[todo]
    b, n = ms.shape[:2]
    eps = 1e-8
    lam, vec, todo = np.empty(b), np.empty((b, n)), np.arange(b)
    w = np.full((b, 1, n), 1.0 / n)
    for _ in range(POWER_MAX_ITER):
        nxt = w @ ms + eps * w
        norm = nxt.sum(axis=2, keepdims=True)  # 1-norm (entries are >= 0), at least eps
        w_new = nxt / norm
        delta = np.abs(w_new - w).sum(axis=(1, 2))
        w = w_new
        done = delta <= POWER_RTOL
        if done.any():
            lam[todo[done]], vec[todo[done]] = norm[done, 0, 0] - eps, w[done, 0]
            todo, ms, w = todo[~done], ms[~done], w[~done]
            if not todo.size:
                return (lam, vec) if m.ndim == 3 else (lam[0], vec[0])
    residual = (norm[:, 0, 0] * delta)[~done].max()  # 1-norm of w @ m + eps*w - norm*w
    raise PowerIterationError("power iteration did not converge", float(residual))


def convergence_diagnostics(traj: Trajectory, params, net: Network) -> ConvergenceReport:
    """Per-step dominant eigenvalues and decay diagnostics for a simulated run,
    solved in stacks of at most STACK_ENTRIES entries (or one matrix) to bound memory."""
    if len(traj) < 2:
        raise ValueError("trajectory too short for diagnostics (< 2 states)")
    dim = net.n if isinstance(params, SirParams) else 2 * net.n
    chunk = max(1, STACK_ENTRIES // dim ** 2)
    lambdas = np.empty(len(traj))
    for i in range(0, len(traj), chunk):
        ms = [build_spreading_matrix(st, params, net).m for st in traj.states[i:i + chunk]]
        # a lone matrix goes as a view (copying 4000x4000 costs ~5% of its solve)
        lambdas[i:i + chunk] = dominant_eigenvalue(np.stack(ms) if chunk > 1 else ms[0][None])[0]
        del ms  # freed before the next chunk is built, which bounds peak memory
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
