"""Discrete-time networked SIR/SEIR stepping and simulation.

Per-node updates (SIR), with pressure(i) = beta_i * sum_j a_ij * p_j:

    s' = s - h*s*pressure
    p' = p + h*(s*pressure - gamma*p)
    r' = r + h*gamma*p

SEIR adds an exposed compartment fed by pressure from both e and p, summed
over the base network and any transport layers. All compartments stay in
[0, 1] and sum to 1 per node as long as the well-posedness inequalities hold
(see check_assumption).

The infection operator (``_operator``) is the one reader of a network's
matrices: stepping, check_assumption, spectral's spreading matrix and
Perron solve, and estimation's regression columns g = s * (A x) all go
through it. A product with a matrix A of order n runs over A's edge table
(graph.Network.edges, its nonzero entries in row-major order) where
EDGE_FACTOR * nnz(A) * rows < n*n, and reads the dense A otherwise. The
edge product gathers x at the edges' columns, weights it and sums each
row's run in column order (np.take, then np.add.reduceat), so its cost
grows with nnz(A) times the rows, and its bytes do not depend on the
order of the edge-list records. The right product A x of a (B, n) stack
is B matrix-vector products, each reading A, so it counts one row
whatever B is, and ``_operator`` picks the product once per layer.
spectral's left product x A is one (B, n) @ (n, n) product and counts B
rows, picked per product. Measured with 1 BLAS thread on 2 vCPUs at
n = 2000 and 24 059 edges (ms per product, best of 40):

    rows    A x: dense   edge     x A: dense   edge
    1       1.10         0.063    1.14         0.065
    4       4.58         0.28     2.49         0.28
    16      17.8         1.08     3.61         1.10
    35      41.9         3.19     5.66         2.41
    72      86.6         4.99     9.06         5.13
    162     193          18.2     18.2         18.3

At n = 300 (1% dense) A stays in cache and the dense left product wins at
every row count, by 3-20x at n = 20. The rule keeps every network of
n <= 20 with density >= 0.2 dense, on the products ``a @ x`` per vector,
bit for bit; at n = 300 and 1% the left product takes the edges below 10
rows, where they cost up to 1.7x the dense product's 10-60 us.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable

import numpy as np

from .graph import Network, _read_table, _records

__all__ = [
    "SirParams",
    "SeirParams",
    "EpidemicState",
    "Trajectory",
    "AssumptionViolation",
    "AssumptionReport",
    "AssumptionError",
    "StateInvariantError",
    "check_assumption",
    "step",
    "simulate",
    "trajectory_to_csv",
    "trajectory_from_csv",
]

SUM_TOL = 1e-9


class AssumptionError(ValueError):
    """Well-posedness inequalities violated."""


class StateInvariantError(ValueError):
    """State off the unit simplex beyond tolerance."""


def _as_vector(x, n: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = np.full(n, float(v))
    if v.shape != (n,):
        raise ValueError(f"{name} must be a scalar or length-{n} vector")
    return v


@dataclass(frozen=True)
class SirParams:
    beta: np.ndarray
    gamma: np.ndarray
    h: float

    def resolved(self, n: int) -> "SirParams":
        return SirParams(_as_vector(self.beta, n, "beta"),
                         _as_vector(self.gamma, n, "gamma"), float(self.h))

    @property
    def rates(self) -> tuple:
        """Infection-operator rates: the base network only, acting on p."""
        return ((self.beta,),)


@dataclass(frozen=True)
class SeirParams:
    beta_e: np.ndarray
    beta: np.ndarray
    sigma: np.ndarray
    gamma: np.ndarray
    h: float
    layer_beta_e: tuple = ()
    layer_beta: tuple = ()

    def resolved(self, n: int) -> "SeirParams":
        if len(self.layer_beta_e) != len(self.layer_beta):
            raise ValueError("layer_beta_e and layer_beta must have matching length")
        return SeirParams(
            _as_vector(self.beta_e, n, "beta_e"),
            _as_vector(self.beta, n, "beta"),
            _as_vector(self.sigma, n, "sigma"),
            _as_vector(self.gamma, n, "gamma"),
            float(self.h),
            tuple(_as_vector(v, n, "layer_beta_e") for v in self.layer_beta_e),
            tuple(_as_vector(v, n, "layer_beta") for v in self.layer_beta),
        )

    @property
    def rates(self) -> tuple:
        """Infection-operator rates: (beta_e, beta) per network, acting on (e, p)."""
        return ((self.beta_e, self.beta),) + tuple(zip(self.layer_beta_e, self.layer_beta))


def _validate(s, p, r, e, tol: float) -> None:
    """Simplex check on compartment arrays of any one shape."""
    parts = [s, p, r] + ([e] if e is not None else [])
    for v in parts:
        # written so that NaN fails too
        if not np.all((v >= -tol) & (v <= 1 + tol)):
            raise StateInvariantError("compartment level outside [0, 1] or NaN")
    if np.any(np.abs(sum(parts) - 1.0) > tol):
        raise StateInvariantError("per-node compartments do not sum to 1")


@dataclass(frozen=True)
class EpidemicState:
    """Per-node compartment levels; ``e`` is None for SIR states."""

    s: np.ndarray
    p: np.ndarray
    r: np.ndarray
    e: np.ndarray | None = None

    def __post_init__(self):
        for name in ("s", "p", "r", "e"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, np.asarray(v, dtype=float))
        if any(v is not None and v.shape != (self.n,) for v in (self.p, self.r, self.e)):
            raise ValueError("compartment vectors must share one length")

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @property
    def kind(self) -> str:
        return "sir" if self.e is None else "seir"

    def validate(self, tol: float = SUM_TOL) -> None:
        _validate(self.s, self.p, self.r, self.e, tol)


@dataclass(frozen=True, kw_only=True)
class Trajectory:
    """Compartment levels over steps 0..T, one read-only (T+1, n) array per
    compartment (row k is step k); ``e`` is None for SIR."""

    s: np.ndarray
    p: np.ndarray
    r: np.ndarray
    e: np.ndarray | None = None
    h: float

    def __post_init__(self):
        if np.ndim(self.s) != 2 or len(self.s) == 0:
            raise ValueError("trajectory must contain at least one state")
        for name in ("s", "p", "r", "e"):
            v = getattr(self, name)
            if v is not None:
                v = np.array(v, dtype=float)
                v.setflags(write=False)
                object.__setattr__(self, name, v)
        if any(v is not None and v.shape != self.s.shape for v in (self.p, self.r, self.e)):
            raise ValueError("compartment arrays must share one (T+1, n) shape")
        object.__setattr__(self, "h", float(self.h))

    def __len__(self) -> int:
        return self.s.shape[0]

    @property
    def n(self) -> int:
        return self.s.shape[1]

    @property
    def kind(self) -> str:
        return "sir" if self.e is None else "seir"

    @property
    def transitions(self) -> int:
        return len(self) - 1

    @cached_property
    def states(self) -> tuple[EpidemicState, ...]:
        """Per-step states whose vectors are row views of the arrays. The rows
        are already float, read-only and of one length, so the states are
        filled in directly, without EpidemicState's conversions and checks."""
        states = []
        for s, p, r, e in zip(self.s, self.p, self.r,
                              [None] * len(self) if self.e is None else self.e):
            state = object.__new__(EpidemicState)
            state.__dict__.update(s=s, p=p, r=r, e=e)
            states.append(state)
        return tuple(states)


@dataclass(frozen=True)
class AssumptionViolation:
    node: int
    label: str
    value: float
    bound: str

    def __str__(self) -> str:
        return f"node {self.node}: {self.label} = {self.value:.6g} {self.bound}"


@dataclass(frozen=True)
class AssumptionReport:
    violations: tuple[AssumptionViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        if self.violations:
            msgs = "; ".join(str(v) for v in self.violations)
            raise AssumptionError(f"well-posedness violated: {msgs}")


# ---------------------------------------------------------------------------
# The infection operator: the one place that reads ``net.layers``.

# a product with a matrix A of order n runs over A's edge table where
# EDGE_FACTOR * nnz(A) * rows < n*n (see the module docstring)
EDGE_FACTOR = 8


def _operator(net: Network, rates: tuple) -> tuple:
    """Triples (A_l, A_l's edge table or None, rates_l) over the base network
    (l = 0) and each transport layer, defining the infection pressure on the
    nodes

        pressure(x) = sum_l sum_c rates_l[c] * (A_l @ x_c)

    for compartment levels x = (x_c); the table is given where A_l x runs
    over it (EDGE_FACTOR). ``rates`` must cover every layer, so a model
    without layer rates is refused on a layered network."""
    mats = (net.adjacency,) + net.layers
    if len(rates) != len(mats):
        raise ValueError(f"rates are given for {len(rates) - 1} transport layers, "
                         f"the network has {len(mats) - 1}")
    return tuple((a, edges if EDGE_FACTOR * len(edges[0]) < net.n ** 2 else None, r)
                 for a, edges, r in zip(mats, net.edges, rates))


def _pressure(op: tuple, xs: tuple) -> np.ndarray:
    """pressure(x) for the operator ``op``. Each x_c is a length-n vector, or
    a (T, n) stack of them when the rates are scalars. The rates multiply
    after the product, in layer-then-compartment order."""
    return reduce(np.add, (rate * _product(a, edges, x)
                           for a, edges, rates in op for rate, x in zip(rates, xs)))


def _product(a: np.ndarray, edges: tuple | None, x: np.ndarray) -> np.ndarray:
    """a @ x for a length-n vector x, or a @ x_k for each row x_k of a (T, n)
    stack: over a's edge table unless it is None, else one dense
    matrix-vector product per vector."""
    if edges is not None:
        return _edge_product(x, edges)
    return a @ x if x.ndim == 1 else (a @ x[:, :, None])[:, :, 0]


def _edge_product(x: np.ndarray, edges: tuple) -> np.ndarray:
    """a @ x_k for each row x_k of x (or for x, a vector) over a's edge table:
    x's entries gathered at the edges' columns, weighted, and summed over
    each row's run in column order."""
    rows, cols, weights, starts = edges
    out = np.zeros(x.shape)
    # reduceat over an empty run would return the next entry, so only the
    # nonempty rows are summed; an edgeless a leaves out zero
    out[..., rows[starts]] = np.add.reduceat(np.take(x, cols, axis=-1) * weights, starts, axis=-1)
    return out


def _pressure_jacobian(op: tuple, c: int) -> np.ndarray:
    """d pressure / d x_c = sum_l diag(rates_l[c]) A_l."""
    return reduce(np.add, (rates[c][:, None] * a for a, _, rates in op))


def _report(checks: list) -> AssumptionReport:
    """Violations node by node, in the order of ``checks``: (label, values, ok mask, bound)."""
    return AssumptionReport(tuple(
        AssumptionViolation(i, label, values[i], bound)
        for i in range(len(checks[0][1])) for label, values, ok, bound in checks if not ok[i]))


def check_assumption(params, net: Network) -> AssumptionReport:
    """Well-posedness of ``params`` on ``net``; the model follows the type of
    ``params``. Every node needs 0 < h*gamma < 1 and a nonnegative infection
    rate; SIR needs h*beta*(row sum of A) < 1, SEIR needs 0 < h*sigma <= 1 and
    h*(beta_e + beta)*(row sum) < 1, summed over the transport layers."""
    pr = params.resolved(net.n)
    hg = pr.h * pr.gamma
    gamma = ("h*gamma", hg, (0 < hg) & (hg < 1), "not in (0, 1)")
    # the row sums: the pressure of all-ones levels in every compartment
    hb = pr.h * _pressure(_operator(net, pr.rates), (np.ones(net.n),) * len(pr.rates[0]))
    if isinstance(pr, SirParams):
        return _report([gamma, ("h*beta*row_sum", hb, hb < 1, "not < 1"),
                        ("beta", pr.beta, ~(pr.beta < 0), "negative")])
    hs = pr.h * pr.sigma
    low = np.minimum(pr.beta_e, pr.beta)
    return _report([gamma, ("h*sigma", hs, (0 < hs) & (hs <= 1), "not in (0, 1]"),
                    ("beta_e/beta", low, ~(low < 0), "negative"),
                    ("h*(beta_e+beta)*row_sum", hb, (0 <= hb) & (hb < 1), "not in [0, 1)")])


def _prepare(params, state, net: Network) -> tuple:
    """Check ``params`` against ``state`` (an EpidemicState or a Trajectory)
    and ``net``; resolve them and build their operator."""
    if not isinstance(params, (SirParams, SeirParams)):
        raise TypeError("params must be SirParams or SeirParams")
    kind = "sir" if isinstance(params, SirParams) else "seir"
    if state.kind != kind:
        raise ValueError(f"{type(params).__name__} require an {kind.upper()} state")
    if state.n != net.n:
        raise ValueError("state/network dimension mismatch")
    pr = params.resolved(net.n)
    return pr, _operator(net, pr.rates)


def _kernel(pr, op: tuple, s, p, r, e) -> tuple:
    """The update equations on resolved parameters; returns (s, p, r, e), e None for SIR."""
    h = pr.h
    if e is None:
        pressure = _pressure(op, (p,))
        return (s - h * s * pressure, p + h * (s * pressure - pr.gamma * p),
                r + h * pr.gamma * p, None)
    iota = _pressure(op, (e, p))
    return (s - h * s * iota, p + h * (pr.sigma * e - pr.gamma * p),
            r + h * pr.gamma * p, e + h * s * iota - h * pr.sigma * e)


def step(state: EpidemicState, params, net: Network,
         strict: bool = True) -> EpidemicState:
    """One SIR or SEIR step (the model follows the type of ``params``) through
    the kernel ``simulate`` runs. The parameters are always checked against the
    well-posedness bounds; ``strict`` also validates ``state`` against the
    simplex (turn it off for noisy measured data)."""
    pr, op = _prepare(params, state, net)
    check_assumption(pr, net).raise_if_violated()
    if strict:
        state.validate()
    s, p, r, e = _kernel(pr, op, state.s, state.p, state.r, state.e)
    return EpidemicState(s=s, p=p, r=r, e=e)


def simulate(initial: EpidemicState, params, net: Network, steps: int,
             strict: bool = True) -> Trajectory:
    """Run ``steps`` steps from ``initial``; returns steps+1 states.

    With ``strict`` on, parameters are checked once up front and every state
    is validated against the simplex invariants; drift beyond tolerance
    aborts, since it signals an implementation bug rather than model behavior.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    pr, op = _prepare(params, initial, net)
    if strict:
        check_assumption(pr, net).raise_if_violated()
    rows = [(initial.s, initial.p, initial.r, initial.e)]
    for _ in range(steps):
        rows.append(_kernel(pr, op, *rows[-1]))
    s, p, r, e = (None if comp[0] is None else np.stack(comp) for comp in zip(*rows))
    if strict:
        _validate(s, p, r, e, SUM_TOL)
    return Trajectory(s=s, p=p, r=r, e=e, h=pr.h)


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV "k,node,s,e,p,r"; e left blank for SIR; 17 significant digits."""
    steps, n = traj.s.shape
    comps = [traj.s, traj.p, traj.r] if traj.e is None else [traj.s, traj.e, traj.p, traj.r]
    table = np.column_stack([np.repeat(np.arange(steps), n), np.tile(np.arange(n), steps)]
                            + [c.ravel() for c in comps])
    row = "%d,%d,%.17g," + ("" if traj.e is None else "%.17g") + ",%.17g,%.17g\n"
    return "k,node,s,e,p,r\n" + (row * len(table)) % tuple(table.ravel().tolist())


# one trajectory row; SIR rows leave e blank, so it is read as text there
SEIR_ROW = np.dtype([("k", np.int64), ("node", np.int64), ("s", np.float64),
                     ("e", np.float64), ("p", np.float64), ("r", np.float64)])
SIR_ROW = np.dtype([("k", np.int64), ("node", np.int64), ("s", np.float64),
                    ("e", "U1"), ("p", np.float64), ("r", np.float64)])
MIXED_E = "e column must be blank on every row (SIR) or on none (SEIR)"


def trajectory_from_csv(text: str | Iterable[str], h: float = 1.0) -> Trajectory:
    """Inverse of trajectory_to_csv. ``h`` is supplied by the caller since the
    CSV carries only states.

    Blank lines and "k,..." header lines are skipped, and a row may carry
    surrounding whitespace. The rows are parsed in one np.loadtxt call and
    checked as arrays; the model follows the first row, whose e is blank
    for SIR."""
    lines = text.splitlines() if isinstance(text, str) else list(text)
    first = next(_records(lines, "k,"), None)
    if first is None:
        raise ValueError("empty trajectory CSV")
    sir = first[1].split(",")[3:4] == [""]
    try:
        table = _read_table(lines, SIR_ROW if sir else SEIR_ROW, None, "k,")
    except ValueError as exc:
        raise _row_error(lines, exc) from None
    k, node = table["k"], table["node"]
    # counting, not sorting: numpy's sort kernels add ~1.5 MB of resident
    # code; an id of at least the row count leaves a gap, so it is refused
    # before bincount allocates for it
    if k.min() < 0 or k.max() >= len(table) or not np.bincount(k).all():
        raise ValueError("trajectory steps must be contiguous from 0")
    if node.min() < 0 or node.max() >= len(table) or not np.bincount(node).all():
        raise ValueError("trajectory node ids must be 0..n-1")
    if sir and (table["e"] != "").any():
        raise ValueError(MIXED_E)
    shape = (k.max() + 1, node.max() + 1)
    seen = np.zeros(shape, dtype=bool)
    seen[k, node] = True
    missing = np.flatnonzero(~seen.all(axis=1))
    if missing.size:
        raise ValueError(f"step {missing[0]} missing node rows")
    if len(table) != seen.size:
        raise ValueError("trajectory has duplicate (k, node) rows")

    def grid(name: str) -> np.ndarray:
        out = np.empty(shape)
        out[k, node] = table[name]
        if not np.isfinite(out).all():
            raise ValueError("trajectory values must be finite")
        return out

    return Trajectory(s=grid("s"), p=grid("p"), r=grid("r"),
                      e=None if sir else grid("e"), h=h)


def _row_error(lines: list[str], exc: ValueError) -> ValueError:
    """The error for rows that do not parse: the first row without six
    fields, else an e column blank on some rows only, else ``exc``."""
    rows = [line for _, line in _records(lines, "k,")]
    for line in rows:
        if line.count(",") != 5:
            return ValueError(f"malformed trajectory row: {line!r}")
    if len({line.split(",")[3] == "" for line in rows}) > 1:
        return ValueError(MIXED_E)
    return exc
