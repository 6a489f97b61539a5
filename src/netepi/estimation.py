"""Least-squares recovery of spread parameters from state time series.

The one-step updates are linear in the unknown rates, so stacking state
differences over a window of T transitions gives an overdetermined linear
system Q * theta = delta. Exact identifiability reduces to full column rank
of Q, which in turn reduces to simple nonzero / non-proportionality
conditions on the observed states; those are checked explicitly so a
degenerate window is reported rather than silently producing one of many
consistent solutions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .dynamics import (SUM_TOL, SeirParams, SirParams, Trajectory, _operator,
                       _pressure, simulate)
from .graph import Network

__all__ = [
    "RegressionSystem",
    "IdentifiabilityVerdict",
    "EstimateReport",
    "NoiseModel",
    "g_value",
    "check_identifiability",
    "build_regression",
    "solve_least_squares",
    "apply_noise",
    "estimate_pipeline",
    "report_to_json",
]

NONZERO_TOL = 1e-12
RANK_TOL_FACTOR = 1e-10


@dataclass(frozen=True)
class RegressionSystem:
    q: np.ndarray
    delta: np.ndarray
    kind: str  # "sir-homog" | "sir-hetero" | "seir-homog" | "seir-hetero"
    t: int
    node: int | None = None


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    identifiable: bool
    witnesses: dict = field(default_factory=dict)
    failed_conditions: tuple[str, ...] = ()


@dataclass(frozen=True)
class EstimateReport:
    kind: str
    estimates: np.ndarray
    residual_norm: float
    rank: int
    verdict: IdentifiabilityVerdict | None
    non_unique: bool
    trajectory_errors: dict | None = None

    def estimates_dict(self) -> dict:
        names = ("beta", "gamma") if self.kind.startswith("sir") else ("beta_e", "beta", "sigma", "gamma")
        est = np.atleast_2d(self.estimates)
        if est.shape[0] == 1:
            return {name: float(v) for name, v in zip(names, est[0])}
        return {name: est[:, idx].tolist() for idx, name in enumerate(names)}


@dataclass(frozen=True)
class NoiseModel:
    """Per-measurement Gaussian noise with level-dependent second parameter.

    The second parameter of the normal distribution, slope*x + floor, is read
    as a variance by default; set ``param_is_std`` to treat it as a standard
    deviation instead.
    """

    e_slope: float = 0.015
    e_floor: float = 0.0001
    x_slope: float = 0.008
    x_floor: float = 0.00001
    seed: int = 0
    start_k: int = 0
    param_is_std: bool = False

    def __post_init__(self):
        if min(self.e_slope, self.e_floor, self.x_slope, self.x_floor) < 0:
            raise ValueError("noise slopes and floors must be >= 0")
        if self.start_k < 0:
            raise ValueError("noise start_k must be >= 0")


def _g(s: np.ndarray, x: np.ndarray, net: Network) -> np.ndarray:
    """g = s * (A x) row by row for (steps, n) arrays of s and of one
    compartment x: one product for all steps. The regression models the base
    network only, so transport layers are refused."""
    try:
        op = _operator(net, ((1.0,),))
    except ValueError as exc:
        raise ValueError(f"estimation does not model transport layers: {exc}") from exc
    # a stack of column vectors: the per-step matrix-vector products, bit for bit
    return s * _pressure(op, (x[:, :, None],))[:, :, 0]


def _window_g(traj: Trajectory, net: Network):
    """g(x) = _g over the window's first T states for compartment ``x`` ("e"
    or "p"), computed on first use and kept, so that the identifiability
    check and the regression of one estimate share it. Its callers check
    ``_transitions`` before they call it."""
    return cache(lambda x: _g(traj.s[:traj.transitions], getattr(traj, x)[:traj.transitions], net))


def _transitions(traj: Trajectory) -> int:
    if traj.transitions < 1:
        raise ValueError("need at least one transition (T >= 1)")
    return traj.transitions


def _nodes(net: Network, node: int | None) -> np.ndarray:
    """Columns of the network-wide system a check or regression covers."""
    if node is None:
        return np.arange(net.n)
    if not (0 <= node < net.n):
        raise ValueError(f"node {node} out of range for n={net.n}")
    return np.array([node])


def g_value(traj: Trajectory, net: Network, i: int, k: int, x: str) -> float:
    """s_i^k times the weighted neighbor sum of compartment ``x`` ("e" or "p")."""
    if not (0 <= k < len(traj)):
        raise IndexError("step index out of range")
    if not (0 <= i < net.n):
        raise IndexError("node index out of range")
    vec = traj.p if x == "p" else traj.e
    if vec is None:
        raise ValueError(f"compartment {x!r} not present in this trajectory")
    return float(_g(traj.s[k:k + 1], vec[k:k + 1], net)[0, i])


def _nonzero_conditions(conditions, nodes: np.ndarray) -> tuple[dict, list]:
    """For each (name, x) of ``conditions``, "x[k, i] != 0 for some step k and
    i in ``nodes``": a witness, the first hit with steps in order and nodes
    within a step, or a failure."""
    witnesses = {}
    failed = []
    for name, x in conditions:
        hits = np.argwhere(np.abs(x[:, nodes]) > NONZERO_TOL)
        if not len(hits):
            failed.append(name)
            continue
        k, i = int(hits[0, 0]), int(nodes[hits[0, 1]])
        witnesses[name] = {"i": i, "k": k, "value": float(x[k, i])}
    return witnesses, failed


def _check_sir(traj: Trajectory, net: Network, node: int | None, g) -> IdentifiabilityVerdict:
    """Some p != 0 and some (S A p) entry != 0 over the window. Per node, the
    same restricted to node i: the source results state no per-node SIR
    theorem, so this is the direct per-node translation."""
    t = _transitions(traj)
    nodes = _nodes(net, node)
    names = ("p_nonzero", "sAp_nonzero") if node is None else ("p_i_nonzero", "g_i_p_nonzero")
    witnesses, failed = _nonzero_conditions(
        zip(names, (traj.p[:t], g("p"))), nodes)
    if node is not None:
        witnesses = {name: {"k": w["k"], "value": w["value"]} for name, w in witnesses.items()}
    return IdentifiabilityVerdict(identifiable=not failed, witnesses=witnesses,
                                  failed_conditions=tuple(failed))


def _nonproportional_witness(ge: np.ndarray, gp: np.ndarray, nodes: np.ndarray) -> dict | None:
    """A pair of (g(e), g(p)) points over ``nodes`` that are not proportional,
    or None. Points are taken node-major, then in step order. The pivot c is
    the first point of largest norm and the witness pairs it with the first
    point j not parallel to it: a pair (a, b) has
    |a x b| = |a||b||sin(a, b)| <= |a||b|(|sin(a, c)| + |sin(b, c)|)
    <= |a x c| + |b x c| since |c| is largest, so when no point's cross
    product with c exceeds the tolerance, no pair's exceeds two of them."""
    e = ge[:, nodes].T.ravel()
    p = gp[:, nodes].T.ravel()
    c = int(np.argmax(e * e + p * p))
    lhs = e[c] * p
    rhs = e * p[c]
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    off = np.flatnonzero(np.abs(lhs - rhs) > NONZERO_TOL * scale)
    if not off.size:
        return None
    j = int(off[0])
    t = len(ge)
    return {"i3": int(nodes[c // t]), "k3": c % t, "i4": int(nodes[j // t]), "k4": j % t,
            "lhs": float(lhs[j]), "rhs": float(rhs[j])}


def _check_seir(traj: Trajectory, net: Network, node: int | None, g) -> IdentifiabilityVerdict:
    """Nonzero p, nonzero e, and a non-proportional pair of (g(e), g(p))
    values. Per node this requires T > 1; network-wide n > 1 and T > 0."""
    nodes = _nodes(net, node)
    if node is None and net.n <= 1:
        raise ValueError("network-wide SEIR identifiability requires n > 1")
    t = _transitions(traj)
    if node is not None and t < 2:
        # per-node identification needs two transitions; with fewer the
        # stacked system cannot reach full column rank
        return IdentifiabilityVerdict(identifiable=False,
                                      failed_conditions=("horizon_T>1",))
    witnesses, failed = _nonzero_conditions(
        (("p_nonzero", traj.p[:t]), ("e_nonzero", traj.e[:t])), nodes)
    pair = _nonproportional_witness(g("e"), g("p"), nodes)
    if pair is None:
        failed.append("g_pair_nonproportional")
    else:
        witnesses["g_pair"] = pair
    return IdentifiabilityVerdict(identifiable=not failed, witnesses=witnesses,
                                  failed_conditions=tuple(failed))


def check_identifiability(traj: Trajectory, net: Network,
                          node: int | None = None) -> IdentifiabilityVerdict:
    """The conditions, necessary and sufficient for the regression of
    ``build_regression`` to have full column rank, checked on the window of
    ``traj``; the model follows ``traj.kind``. ``node`` restricts them to one
    node. Each condition met gets a witness, each one failed is named."""
    check = _check_sir if traj.kind == "sir" else _check_seir
    return check(traj, net, node, _window_g(traj, net))


def _regression_sir(traj: Trajectory, net: Network, node: int | None, g) -> RegressionSystem:
    nodes = _nodes(net, node)
    t = _transitions(traj)
    h = traj.h
    a_col = h * g("p")[:, nodes].ravel()
    b_col = h * traj.p[:t, nodes].ravel()
    zeros = np.zeros_like(a_col)
    q = np.block([[a_col[:, None], -b_col[:, None]],
                  [zeros[:, None], b_col[:, None]]])
    dp = np.diff(traj.p, axis=0)[:, nodes].ravel()
    dr = np.diff(traj.r, axis=0)[:, nodes].ravel()
    return RegressionSystem(q=q, delta=np.concatenate([dp, dr]),
                            kind="sir-homog" if node is None else "sir-hetero",
                            t=t, node=node)


def _regression_seir(traj: Trajectory, net: Network, node: int | None, g) -> RegressionSystem:
    t = _transitions(traj)
    nodes = _nodes(net, node)
    h = traj.h
    ae = h * g("e")[:, nodes].ravel()
    be = h * g("p")[:, nodes].ravel()
    ce = h * traj.e[:t, nodes].ravel()
    de = h * traj.p[:t, nodes].ravel()
    z = np.zeros(len(ae))
    phi = np.column_stack([ae, be, -ce, z])
    sig = np.column_stack([z, z, ce, -de])
    gam = np.column_stack([z, z, z, de])
    q = np.vstack([phi, sig, gam])
    delta = np.concatenate([np.diff(x, axis=0)[:, nodes].ravel()
                            for x in (traj.e, traj.p, traj.r)])
    return RegressionSystem(q=q, delta=delta,
                            kind="seir-homog" if node is None else "seir-hetero",
                            t=t, node=node)


def build_regression(traj: Trajectory, net: Network,
                     node: int | None = None) -> RegressionSystem:
    """Stack the one-step updates over the nodes (all, or ``node`` alone) and
    the steps of ``traj`` into Q theta = delta; the model follows
    ``traj.kind``. SIR stacks the p- and r-updates, unknowns (beta, gamma);
    SEIR stacks the e-, p- and r-updates, unknowns (beta_e, beta, sigma, gamma)."""
    build = _regression_sir if traj.kind == "sir" else _regression_seir
    return build(traj, net, node, _window_g(traj, net))


def solve_least_squares(sys: RegressionSystem,
                        verdict: IdentifiabilityVerdict | None = None) -> EstimateReport:
    """Minimum-norm least-squares solve with explicit numerical rank.

    Singular values below RANK_TOL_FACTOR times the largest column norm are
    treated as zero; rank below the column count sets the non-uniqueness flag.
    """
    q, delta = sys.q, sys.delta
    if q.size == 0:
        raise ValueError("empty regression system")
    col_norms = np.linalg.norm(q, axis=0)
    tol = RANK_TOL_FACTOR * max(float(col_norms.max()), np.finfo(float).tiny)
    u, s, vt = np.linalg.svd(q, full_matrices=False)
    rank = int(np.sum(s > tol))
    s_inv = np.where(s > tol, 1.0 / np.where(s > tol, s, 1.0), 0.0)
    theta = vt.T @ (s_inv * (u.T @ delta))
    residual = float(np.linalg.norm(q @ theta - delta))
    return EstimateReport(kind=sys.kind, estimates=theta, residual_norm=residual,
                          rank=rank, verdict=verdict,
                          non_unique=rank < q.shape[1])


def _check_levels(e: np.ndarray | None, p: np.ndarray, r: np.ndarray) -> None:
    """Refuse e, p or r levels that are NaN or outside [0, 1] beyond SUM_TOL;
    e is None for SIR. s is not checked, nor are the row sums."""
    for name, x in zip("epr", (e, p, r)):
        # written so that NaN fails too
        if x is not None and not np.all((x >= -SUM_TOL) & (x <= 1 + SUM_TOL)):
            raise ValueError(f"trajectory {name!r} level outside [0, 1] or NaN")


def apply_noise(traj: Trajectory, model: NoiseModel) -> Trajectory:
    """Measured trajectory: Gaussian perturbations on e, p, r from step
    ``start_k`` on (earlier steps are dropped), clamped to [0, 1], with s
    recomputed from the conservation law. Deterministic under the seed.
    Those e, p, r levels must lie in [0, 1] up to SUM_TOL; their rows need
    not sum to 1."""
    if traj.kind != "seir":
        raise ValueError("noise model applies to SEIR trajectories")
    if model.start_k >= len(traj):
        raise ValueError("start_k beyond trajectory horizon")
    rng = np.random.default_rng(model.seed)

    def scale(x: np.ndarray, slope: float, floor: float) -> np.ndarray:
        second = slope * np.clip(x, 0.0, 1.0) + floor
        return second if model.param_is_std else np.sqrt(second)

    e, p, r = (x[model.start_k:] for x in (traj.e, traj.p, traj.r))
    _check_levels(e, p, r)
    # one draw per step for e, then p, then r: the order of the random stream
    z = rng.normal(0.0, 1.0, size=(len(e), 3, traj.n))
    e = np.clip(e + z[:, 0] * scale(e, model.e_slope, model.e_floor), 0.0, 1.0)
    p = np.clip(p + z[:, 1] * scale(p, model.x_slope, model.x_floor), 0.0, 1.0)
    r = np.clip(r + z[:, 2] * scale(r, model.x_slope, model.x_floor), 0.0, 1.0)
    return Trajectory(s=1.0 - e - p - r, e=e, p=p, r=r, h=traj.h)


def _trajectory_errors(measured: Trajectory, resim: Trajectory) -> dict:
    """Mean absolute error per compartment."""
    comps = ["s", "p", "r"] + (["e"] if measured.kind == "seir" else [])
    return {comp: float(np.mean(np.abs((getattr(measured, comp) - getattr(resim, comp)).ravel())))
            for comp in comps}


def estimate_pipeline(measured: Trajectory, net: Network,
                      node: int | None = None) -> EstimateReport:
    """Identifiability check, system assembly and pseudoinverse solve for the
    model of ``measured``; when the data are identifiable, a re-simulation
    from the first measured state scores the fit. The e, p and r levels
    must lie in [0, 1] up to SUM_TOL."""
    _check_levels(measured.e, measured.p, measured.r)
    g = _window_g(measured, net)
    sir = measured.kind == "sir"
    verdict = (_check_sir if sir else _check_seir)(measured, net, node, g)
    system = (_regression_sir if sir else _regression_seir)(measured, net, node, g)
    report = solve_least_squares(system, verdict=verdict)
    if not verdict.identifiable:
        return report
    # the estimates come in the order of the parameter fields
    params = (SirParams if measured.kind == "sir" else SeirParams)(*report.estimates, h=measured.h)
    try:
        resim = simulate(measured.states[0], params, net,
                         steps=measured.transitions, strict=False)
    except (ValueError, TypeError):
        return report
    return replace(report, trajectory_errors=_trajectory_errors(measured, resim))


def report_to_json(report: EstimateReport) -> str:
    verdict = report.verdict
    return json.dumps({
        "kind": report.kind,
        "estimates": report.estimates_dict(),
        "residual_norm": report.residual_norm,
        "rank": report.rank,
        "identifiable": None if verdict is None else verdict.identifiable,
        "witnesses": None if verdict is None else verdict.witnesses,
        "failed_conditions": None if verdict is None else list(verdict.failed_conditions),
        "non_unique": report.non_unique,
        "trajectory_errors": report.trajectory_errors,
    }, indent=2)
