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


def dominant_eigenvalue(m: np.ndarray, v0: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Spectral radius and a nonnegative left eigenvector (unit 1-norm).

    Power iteration runs on the transpose of ``m + eps*I``; the small diagonal
    shift keeps the Perron value (subtracted before returning) while breaking
    the period-2 oscillation of patterns like permutation matrices. ``v0``
    warm-starts the iteration, which pays off when scanning a trajectory whose
    matrices change slowly.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(m < 0):
        raise ValueError("matrix must be nonnegative")
    n = m.shape[0]
    eps = 1e-8
    mt = m.T + eps * np.eye(n)
    if v0 is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(v0, dtype=float).clip(min=0)
        tot = w.sum()
        w = np.full(n, 1.0 / n) if tot <= 0 else w / tot
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        nxt = mt @ w
        norm = nxt.sum()  # 1-norm: all entries nonnegative
        if norm == 0.0:
            return 0.0, w
        w_new = nxt / norm
        delta = np.abs(w_new - w).sum()
        lam = norm
        w = w_new
        if delta <= POWER_RTOL:
            return lam - eps, w
    residual = float(np.abs(mt @ w - lam * w).sum())
    raise PowerIterationError("power iteration did not converge", residual)


def convergence_diagnostics(traj: Trajectory, params, net: Network) -> ConvergenceReport:
    """Per-step dominant eigenvalues and decay diagnostics for a simulated run."""
    if len(traj) < 2:
        raise ValueError("trajectory too short for diagnostics (< 2 states)")
    lambdas = np.empty(len(traj))
    w = None
    for k in range(len(traj)):
        sm = build_spreading_matrix(traj.states[k], params, net)
        lambdas[k], w = dominant_eigenvalue(sm.m, v0=w)
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
