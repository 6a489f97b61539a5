"""Least-squares recovery of spread parameters from state time series.

The one-step updates are linear in the unknown rates, so stacking state
differences over a window of T transitions gives an overdetermined linear
system Q * theta = delta. Exact identifiability reduces to full column rank
of Q, which in turn reduces to simple nonzero / non-proportionality
conditions on the observed states; those are checked explicitly so a
degenerate window is reported rather than silently producing one of many
consistent solutions.

The regression (``RegressionSystem``) is held as its row blocks, one per
compartment of the chain (p, r) or (e, p, r), each with only its nonzero
columns of Q and its rows of delta (``_blocks``); half of SEIR's dense Q is
structural zeros, and Q and delta are assembled from the blocks only where
they are read. The solve (``solve_least_squares``) is
the R-SVD (Chan, "An improved algorithm for computing the singular value
decomposition", ACM TOMS 8, 1982) with one QR per row block, as in
tall-skinny QR (Demmel, Grigori, Hoemmen and Langou, "Communication-optimal
parallel and sequential QR and LU factorizations", SIAM J. Sci. Comput. 34,
2012): each block's [Q_b | delta_b] is reduced to its triangle, the
triangles are stacked at their columns and factored once more, and the
stack's triangle is [[R, z], [0, rho]] with R of 2k x 2k for k infected
compartments. Then [Q | delta] = W [[R, z], [0, rho]] for a W with
orthonormal columns, so Q = W R has R's singular values, Q's column norms
are the stack's (each block's triangle keeps its columns' norms), z = W^T
delta, and |Q theta - delta|^2 = |R theta - z|^2 + rho^2 for every theta.
The rank rule and the minimum-norm theta are thus the dense SVD's, with
neither Q nor the SVD's tall U formed. The QR work, the sum over the blocks
of rows x width^2, is 29/75 of a QR of the dense [Q | delta] for SEIR and
13/18 for SIR.

``estimate_pipeline`` network-wide on SEIR ring networks (``tools/solve.py``:
sweep-small's rates, about 11 extra edges a node, the bench's noise; median
ms per call over 5 alternating rounds, 2 rings each, 1 BLAS thread, 2-core
x86-64 host), the dense SVD solve against the block solve (which also scans
each window array once for the nonzero conditions); the block solve took
less time in every round but one (n = 20, T = 200):

       n      T    dense   blocks   ratio
      20     35     1.58     0.94    0.59
      20    200     5.32     3.12    0.59
     200     35     5.35     3.50    0.65
     200    200    32.64    18.10    0.55
    2000     35    40.79    19.98    0.49
    2000    200   319.83   144.44    0.45
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .dynamics import (SUM_TOL, SeirParams, SirParams, Trajectory, _operator, _pressure,
                       _state, _trajectory, simulate)
from .graph import Network

__all__ = [
    "RegressionSystem",
    "IdentifiabilityVerdict",
    "EstimateReport",
    "NoiseModel",
    "check_identifiability",
    "build_regression",
    "solve_least_squares",
    "apply_noise",
    "estimate_pipeline",
    "report_to_json",
]

NONZERO_TOL = 1e-12
RANK_TOL_FACTOR = 1e-10


@dataclass(frozen=True, eq=False)
class RegressionSystem:
    """Q theta = delta, held as its row blocks: pairs of (the block's first
    column of Q, [its columns of Q from there | its rows of delta]), in row
    order, the last block ending at Q's last column. ``build_regression``
    gives one block per compartment of the chain with only its nonzero
    columns (``_blocks``), read-only; a system built by hand is one block
    ``((0, [Q | delta]),)``. ``q`` and ``delta`` are assembled from the
    blocks, as new arrays, on each read; the solve reads the blocks alone."""
    blocks: tuple
    kind: str  # "sir-homog" | "sir-hetero" | "seir-homog" | "seir-hetero"
    t: int
    node: int | None = None

    @property
    def q(self) -> np.ndarray:
        q = np.zeros(_shape(self.blocks))
        at = 0
        for col, block in self.blocks:
            q[at:at + len(block), col:col + block.shape[1] - 1] = block[:, :-1]
            at += len(block)
        return q

    @property
    def delta(self) -> np.ndarray:
        return np.concatenate([block[:, -1] for _, block in self.blocks])


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    identifiable: bool
    witnesses: dict = field(default_factory=dict)
    failed_conditions: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
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
        return dict(zip(names, map(float, self.estimates)))


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
    return s * _pressure(op, (x,))


def _window_g(traj: Trajectory, net: Network):
    """g(x) = _g over the window's first T states for compartment ``x`` ("e"
    or "p"), computed on first use and kept, so that the identifiability
    check and the regression of one estimate share it. Its callers check
    ``_transitions`` before they call it. A trajectory whose node count is
    not the network's is refused."""
    if traj.n != net.n:
        raise ValueError(f"trajectory has {traj.n} nodes, the network {net.n}")
    return cache(lambda x: _g(traj.s[:traj.transitions], getattr(traj, x)[:traj.transitions], net))


def _transitions(traj: Trajectory) -> int:
    if traj.transitions < 1:
        raise ValueError("need at least one transition (T >= 1)")
    return traj.transitions


def _nodes(net: Network, node: int | None) -> slice:
    """Columns of the network-wide system a check or regression covers, as a
    slice, so that the columns read are a view of the window's arrays."""
    if node is None:
        return slice(None)
    if not (0 <= node < net.n):
        raise ValueError(f"node {node} out of range for n={net.n}")
    return slice(node, node + 1)


def _nonzero_conditions(conditions, nodes: slice) -> tuple[dict, list]:
    """For each (name, x) of ``conditions``, "x[k, i] != 0 for some step k and
    i in ``nodes``": a witness, the first hit with steps in order and nodes
    within a step, or a failure."""
    witnesses = {}
    failed = []
    for name, x in conditions:
        hits = np.abs(x[:, nodes]) > NONZERO_TOL
        first = int(hits.argmax())
        if not hits.flat[first]:
            failed.append(name)
            continue
        k, j = divmod(first, hits.shape[1])
        i = range(x.shape[1])[nodes][j]
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


def _nonproportional_witness(ge: np.ndarray, gp: np.ndarray, nodes) -> dict | None:
    """A pair of (g(e), g(p)) points over ``nodes`` that are not proportional,
    or None. Points are taken node-major, then in step order. The pivot c is
    the first point of largest norm and the witness pairs it with the first
    point j not parallel to it: a pair (a, b) has
    |a x b| = |a||b||sin(a, b)| <= |a||b|(|sin(a, c)| + |sin(b, c)|)
    <= |a x c| + |b x c| since |c| is largest, so when no point's cross
    product with c exceeds the tolerance, no pair's exceeds two of them.
    ``nodes`` is a slice or an index array."""
    ids = np.arange(ge.shape[1])[nodes]
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
    return {"i3": int(ids[c // t]), "k3": c % t, "i4": int(ids[j // t]), "k4": j % t,
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


# the models' conditions are different theorems, with different witnesses
_CHECKS = {"sir": _check_sir, "seir": _check_seir}


def check_identifiability(traj: Trajectory, net: Network,
                          node: int | None = None) -> IdentifiabilityVerdict:
    """The conditions, necessary and sufficient for the regression of
    ``build_regression`` to have full column rank, checked on the window of
    ``traj``; the model follows ``traj.kind``. ``node`` restricts them to one
    node. Each condition met gets a witness, each one failed is named."""
    return _CHECKS[traj.kind](traj, net, node, _window_g(traj, net))


def _blocks(traj: Trajectory, net: Network, node: int | None, g) -> tuple:
    """The rows of Q theta = delta over ``traj``'s chain, a block per
    compartment, each as (its first column, [its nonzero columns of Q | its
    rows of delta]) in column order: block 0 holds h*g(x) for each infected x
    and -h*x_0, and block c holds +h*x_{c-1} and, but in the last block,
    -h*x_c."""
    t = _transitions(traj)
    nodes = _nodes(net, node)
    chain = ("p", "r") if traj.kind == "sir" else ("e", "p", "r")
    k = len(chain) - 1
    passed = [traj.h * getattr(traj, x)[:t, nodes].ravel() for x in chain[:-1]]
    blocks = []
    for c, x in enumerate(chain):
        cols = [traj.h * g(y)[:, nodes].ravel() for y in chain[:-1]] if c == 0 else [passed[c - 1]]
        if c < k:
            cols.append(-passed[c])
        cols.append(np.diff(getattr(traj, x), axis=0)[:, nodes].ravel())
        # one row per column, so that the block's columns are contiguous
        block = np.array(cols).T
        block.setflags(write=False)
        blocks.append((k + c - 1 if c else 0, block))
    return tuple(blocks)


def _kind(traj: Trajectory, node: int | None) -> str:
    return traj.kind + ("-homog" if node is None else "-hetero")


def build_regression(traj: Trajectory, net: Network,
                     node: int | None = None) -> RegressionSystem:
    """Stack the one-step updates over the nodes (all, or ``node`` alone) and
    the steps of ``traj`` into Q theta = delta, held as its row blocks
    (``_blocks``); the model follows ``traj.kind``. SIR stacks the p- and
    r-updates, unknowns (beta, gamma); SEIR stacks the e-, p- and r-updates,
    unknowns (beta_e, beta, sigma, gamma)."""
    return RegressionSystem(_blocks(traj, net, node, _window_g(traj, net)), _kind(traj, node),
                            traj.transitions, node)


def _shape(blocks: tuple) -> tuple[int, int]:
    """Q's shape: the blocks' rows, and the columns up to the last block's
    last."""
    col, block = blocks[-1]
    return sum(len(b) for _, b in blocks), col + block.shape[1] - 1


def solve_least_squares(sys: RegressionSystem) -> EstimateReport:
    """Minimum-norm least-squares solve of Q theta = delta on its row blocks,
    with explicit numerical rank (module docstring). Each block's
    [Q_b | delta_b] is reduced to its triangle, the triangles are stacked at
    their columns in at least cols + 1 rows, and the stack's own triangle
    [[R, z], [0, rho]] is what the SVD solves.

    Singular values below RANK_TOL_FACTOR times the largest column norm are
    treated as zero; rank below the column count sets the non-uniqueness flag.
    The report carries no identifiability verdict.
    """
    blocks = sys.blocks
    rows, cols = _shape(blocks) if blocks else (0, 0)
    if not rows * cols:
        raise ValueError("empty regression system")
    stack = np.zeros((max(sum(min(block.shape) for _, block in blocks), cols + 1), cols + 1))
    at = 0
    for col, block in blocks:
        tri = np.linalg.qr(block, mode="r")
        stack[at:at + len(tri), col:col + block.shape[1] - 1] = tri[:, :-1]
        stack[at:at + len(tri), cols] = tri[:, -1]
        at += len(tri)
    # each block's triangle keeps the norms of its columns, so the stack's
    # column norms are Q's
    col_norms = np.sqrt(np.einsum("ij,ij->j", stack[:, :cols], stack[:, :cols]))
    tol = RANK_TOL_FACTOR * max(float(col_norms.max()), np.finfo(float).tiny)
    top = np.linalg.qr(stack, mode="r")
    r, z, rho = top[:cols, :cols], top[:cols, cols], top[cols, cols]
    u, s, vt = np.linalg.svd(r)
    rank = int(np.sum(s > tol))
    s_inv = np.where(s > tol, 1.0 / np.where(s > tol, s, 1.0), 0.0)
    theta = vt.T @ (s_inv * (u.T @ z))
    residual = float(np.hypot(np.linalg.norm(r @ theta - z), rho))
    return EstimateReport(kind=sys.kind, estimates=theta, residual_norm=residual,
                          rank=rank, verdict=None, non_unique=rank < cols)


def _check_levels(levels: np.ndarray) -> None:
    """Refuse e, p or r levels of ``levels``, a trajectory's block or steps
    of it, that are NaN or outside [0, 1] beyond SUM_TOL; SIR has no e. s is
    not checked, nor are the row sums."""
    for name, x in zip("epr"[4 - len(levels):], levels[1:]):
        # written so that NaN fails too
        if not np.all((x >= -SUM_TOL) & (x <= 1 + SUM_TOL)):
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

    _, e0, p0, r0 = kept = traj.levels[:, model.start_k:]
    _check_levels(kept)
    # one draw per step for e, then p, then r: the order of the random stream
    z = rng.normal(0.0, 1.0, size=(kept.shape[1], 3, traj.n))
    s, e, p, r = levels = np.empty(kept.shape)
    np.clip(e0 + z[:, 0] * scale(e0, model.e_slope, model.e_floor), 0.0, 1.0, out=e)
    np.clip(p0 + z[:, 1] * scale(p0, model.x_slope, model.x_floor), 0.0, 1.0, out=p)
    np.clip(r0 + z[:, 2] * scale(r0, model.x_slope, model.x_floor), 0.0, 1.0, out=r)
    # s = 1.0 - e - p - r, in that order
    np.subtract(1.0 - e - p, r, out=s)
    return _trajectory(levels, traj.h)


def _trajectory_errors(measured: Trajectory, resim: Trajectory, nodes: slice) -> dict:
    """Mean absolute error per compartment over the columns ``nodes``."""
    comps = ["s", "p", "r"] + (["e"] if measured.kind == "seir" else [])
    return {comp: float(np.mean(np.abs(getattr(measured, comp) - getattr(resim, comp))[:, nodes]
                                .ravel()))
            for comp in comps}


def estimate_pipeline(measured: Trajectory, net: Network,
                      node: int | None = None) -> EstimateReport:
    """Identifiability check and ``solve_least_squares`` of the regression
    for the model of ``measured``, the two sharing the window's g values
    (``_window_g``), with no dense system formed; when the data are
    identifiable, a re-simulation from the first measured state scores the
    fit, over the columns of the nodes estimated. The e, p and r levels must
    lie in [0, 1] up to SUM_TOL."""
    _check_levels(measured.levels)
    g = _window_g(measured, net)
    verdict = _CHECKS[measured.kind](measured, net, node, g)
    system = RegressionSystem(_blocks(measured, net, node, g), _kind(measured, node),
                              measured.transitions, node)
    report = replace(solve_least_squares(system), verdict=verdict)
    if not verdict.identifiable:
        return report
    # the estimates come in the order of the parameter fields
    params = (SirParams if measured.kind == "sir" else SeirParams)(*report.estimates, h=measured.h)
    resim = simulate(_state(measured.levels[:, 0]), params, net, steps=measured.transitions,
                     strict=False)
    return replace(report, trajectory_errors=_trajectory_errors(measured, resim, _nodes(net, node)))


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
