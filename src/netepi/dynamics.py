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
matrices and edge tables: stepping, check_assumption, spectral's spreading
matrix and Perron solve, and estimation's regression columns g = s * (A x)
all go through it. A product with a matrix A of order n runs over A's edge
table (graph.Network.edges, its nonzero entries in row-major order) where
EDGE_FACTOR * nnz(A) * rows < n*n (``_use_edges``), and reads the dense A
otherwise. The edge product gathers x at the edges' columns, weights it
and sums each row's run in column order (np.take, then np.add.reduceat),
so its cost grows with nnz(A) times the rows, and its bytes do not depend
on the order of the edge-list records. The right product A x of a (B, n)
stack is B matrix-vector products, each reading A, so it counts one row
whatever B is. spectral's left product x A is one (B, n) @ (n, n) product
and counts B rows. Measured with 1 BLAS thread on 2 vCPUs at
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

trajectory_to_csv writes each level exactly as '%.17g' % x does, but has
Python's % format integers, not doubles: '%.17g' runs Gay's correctly
rounded dtoa ("Correctly rounded binary-decimal and decimal-binary
conversions", 1990), which takes its bignum path for 17 digits. For
FAST_LEAST <= |x| < FAST_BOUND (1e-24 and 1e16), numpy finds the decimal
exponent X and the 17-digit integer D = round(|x| * 10**(16 - X)) (_digits):

- X is floor(log10 |x|), moved by one where |x| * 10**(16 - X) falls
  outside [1e16, 1e17): log10 rounds to the power for the doubles just
  below it, such as 1e-23.
- 10**k, k = 16 - X <= 41, is a pair of doubles built from Python ints at
  import: the power rounded, and the rest. 5**k has at most 96 bits, so the
  pair is exact.
- |x| times the rounded power is formed without error by Dekker's product
  ("A floating-point technique for extending the available precision",
  Numer. Math. 1971), on Veltkamp's 26-bit halves; |x| times the rest is
  added, and a two-sum gives s + t with |t| <= ulp(s)/2. Only that product
  and that addition round, each by at most half an ulp of a number below
  32: s + t is off by less than 3e-15 of a last-digit unit.
- s >= 1e16 > 2**53 is a whole number, so D = s + rint(t), and D = 1e17
  means X + 1 and D = 1e16 (1e-14 rounds up so). A t within TIE_GUARD =
  1e-9 of a half is never decided here: np.rint breaks an exact tie (such
  as 2**-25's) to even as dtoa does, but the guard keeps the rounding away
  from the error above.

D without its trailing zeros, M of L digits, takes one template piece from a
table built at import and keyed by (X, L, sign), such as '0.00%d' (M) or
'%d.%015de-07' (M's first digit and the rest). Zero is '0' or '-0'; a
value outside the range, not finite or near a tie goes into the template as
the literal '%.17g' % x. The rows' 'k,node,' come from per-step and
per-node strings, and one ''.join and one % give the file. Per call, with 1
BLAS thread on 2 vCPUs, best of 9, against one '%.17g' template over every
value (tests/conftest.py; ms):

    trajectory (SEIR unless named)   values      text      '%.17g'   digits
    n = 2000, T = 35                 288 000     6.4 MB    151       66.3
    n = 2000, T = 35, noisy          248 000     4.0 MB    97.4      47.5
    n = 2000, T = 200                1 608 000   36.6 MB   863       396
    n = 20, T = 80                   6 480       0.14 MB   3.18      1.43
    n = 20, T = 80, SIR              4 860       0.11 MB   2.59      1.10

Reading the CSV back costs about as much as writing it: its 17-digit
levels take the bignum path of correctly rounded decimal-to-binary
conversion, and trajectory_from_csv reads 310-330 ns a level. So the
commands do not parse the CSVs netepi wrote. _write_trajectory writes a
levels file beside each one: the SHA-256 of the CSV's bytes, then an .npy
payload (format 1.0) of the (c, T+1, n) float64 levels, s, e, p, r in that
order (SIR has no e).
_read_trajectory takes the levels from it while that digest is the CSV's,
as Python's hash-based .pyc files are trusted only while their source's
hash matches (PEP 552), and parses the CSV in every other case. '%.17g'
reads back bit for bit, so both give the same levels. Per call, with 1 BLAS
thread on 2 vCPUs, best of 7 (ms):

    trajectory (SEIR)     CSV       levels file   write: CSV   + levels   read: parse   hit
    n = 2000, T = 35      6.4 MB    2.3 MB        79.7         85.8       89.5          6.3
    n = 2000, T = 200     36.6 MB   12.9 MB       479          503        529           41.4
    n = 20, T = 80        0.14 MB   0.05 MB       1.88         2.17       1.91          0.15

Most of a hit is the SHA-256 of the CSV's bytes: about 26 ms of the 41 at
T = 200.
"""

from __future__ import annotations

import hashlib
import logging
import math
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from pathlib import Path
from typing import Iterable

import numpy as np

from .graph import Network, _read_table, _records

log = logging.getLogger(__name__)

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

    @property
    def stages(self) -> tuple:
        """Progression rates down the chain of infected compartments: p -> r."""
        return (self.gamma,)


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

    @property
    def stages(self) -> tuple:
        """Progression rates down the chain of infected compartments: e -> p -> r."""
        return (self.sigma, self.gamma)


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

    def validate(self) -> None:
        _validate(self.s, self.p, self.r, self.e, SUM_TOL)


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

EDGE_FACTOR = 8  # see _use_edges


def _operator(net: Network, rates: tuple) -> tuple:
    """Triples (A_l, A_l's edge table, rates_l) over the base network (l = 0)
    and each transport layer, defining the infection pressure on the nodes

        pressure(x) = sum_l sum_c rates_l[c] * (A_l @ x_c)

    for compartment levels x = (x_c). ``rates`` must cover every layer, so a
    model without layer rates is refused on a layered network."""
    mats = (net.adjacency,) + net.layers
    if len(rates) != len(mats):
        raise ValueError(f"rates are given for {len(rates) - 1} transport layers, "
                         f"the network has {len(mats) - 1}")
    return tuple(zip(mats, net.edges, rates))


def _use_edges(a: np.ndarray, edges: tuple, rows: int) -> bool:
    """Whether a product of ``rows`` rows with ``a``, of order n, runs over its
    edge table ``edges``: EDGE_FACTOR * nnz(a) * rows < n*n (module docstring)."""
    return EDGE_FACTOR * len(edges[0]) * rows < len(a) ** 2


def _pressure(op: tuple, xs: tuple) -> np.ndarray:
    """pressure(x) for the operator ``op``. Each x_c is a length-n vector, or
    a (T, n) stack of them when the rates are scalars. The rates multiply
    after the product, in layer-then-compartment order."""
    return reduce(np.add, (rate * _product(a, edges, x)
                           for a, edges, rates in op for rate, x in zip(rates, xs)))


def _product(a: np.ndarray, edges: tuple, x: np.ndarray) -> np.ndarray:
    """a @ x for a length-n vector x, or a @ x_k for each row x_k of a (T, n)
    stack: over a's edge table where ``_use_edges`` takes it for one row,
    else one dense matrix-vector product per vector."""
    if _use_edges(a, edges, 1):
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


def step(state: EpidemicState, params, net: Network) -> EpidemicState:
    """One SIR or SEIR step (the model follows the type of ``params``): the
    second state of ``simulate(state, params, net, 1)``, so ``params`` and
    ``state`` are checked as ``simulate`` checks them. Its vectors are
    read-only row views, as every ``Trajectory.states`` entry's are."""
    return simulate(state, params, net, 1).states[1]


def simulate(initial: EpidemicState, params, net: Network, steps: int,
             strict: bool = True) -> Trajectory:
    """Run ``steps`` steps from ``initial``; returns steps+1 states.

    With ``strict`` on, the parameters are checked against the
    well-posedness bounds and ``initial`` against the simplex before the
    first step, so a malformed state never reaches the kernel, and every
    state after the last; drift beyond tolerance aborts, since it signals an
    implementation bug rather than model behavior. Noisy measured data,
    whose levels need not sum to 1, are run with ``strict`` off.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    pr, op = _prepare(params, initial, net)
    if strict:
        check_assumption(pr, net).raise_if_violated()
        initial.validate()
    rows = [(initial.s, initial.p, initial.r, initial.e)]
    for _ in range(steps):
        rows.append(_kernel(pr, op, *rows[-1]))
    s, p, r, e = (None if comp[0] is None else np.stack(comp) for comp in zip(*rows))
    if strict:
        _validate(s, p, r, e, SUM_TOL)
    return Trajectory(s=s, p=p, r=r, e=e, h=pr.h)


# ---------------------------------------------------------------------------
# The trajectory CSV writer: '%.17g' text from integer digits (module docstring).

# |x| in [FAST_LEAST, FAST_BOUND) is formatted from its digits: its decimal
# exponent X, and log10's first estimate of it, lie in [X_LEAST, X_MOST].
# Any other value, and one within TIE_GUARD last-digit units of a rounding
# tie, is '%.17g' % x
FAST_LEAST, FAST_BOUND = 1e-24, 1e16
X_LEAST, X_MOST = -25, 16
TIE_GUARD = 1e-9
_SPLITTER = 2.0 ** 27 + 1  # Veltkamp's split of a double into two 26-bit halves


def _split(a: np.ndarray) -> tuple:
    """(high, low) halves of each entry of ``a``, of at most 26 bits each."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


# 10**(16 - X) for X = X_MOST, X_MOST - 1, ..., X_LEAST as two doubles, the
# power rounded (with its halves) and the rest, both from Python ints
_POWERS = [10 ** k for k in range(16 - X_MOST, 16 - X_LEAST + 1)]
_POWER = np.array([float(p) for p in _POWERS])
_POWER_REST = np.array([float(p - int(float(p))) for p in _POWERS])
_POWER_HALVES = _split(_POWER)


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple:
    """(s, t) with a * 10**(16 - x) = s + t within 3e-15 units and
    |t| <= ulp(s)/2: Dekker's exact product with the rounded power, plus a
    times the rest."""
    i = X_MOST - x
    hi = a * _POWER[i]
    (ah, al), bh, bl = _split(a), _POWER_HALVES[0][i], _POWER_HALVES[1][i]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl + a * _POWER_REST[i]
    s = hi + lo
    return s, lo - (s - hi)


def _digits(a: np.ndarray) -> tuple:
    """For each a in [FAST_LEAST, FAST_BOUND): its decimal exponent X, the
    17-digit integer D = round(a * 10**(16 - X)) and whether D is certain
    (a is not within TIE_GUARD of a rounding tie)."""
    x = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, x)
    # log10 may be one off near a power of ten; a * 10**(16 - X) must lie
    # in [1e16, 1e17)
    low = (s < 1e16) | ((s == 1e16) & (t < 0))
    high = (s > 1e17) | ((s == 1e17) & (t >= 0))
    off = np.flatnonzero(low | high)
    if off.size:
        x[off] += np.where(low[off], -1, 1)
        s[off], t[off] = _scaled(a[off], x[off])
    # s >= 1e16 > 2**53 is a whole number: the rounding is t's
    r = np.rint(t)
    d = s.astype(np.int64) + r.astype(np.int64)
    certain = np.abs(np.abs(t - r) - 0.5) >= TIE_GUARD
    up = d == 10 ** 17  # rounded up to the next power of ten
    x[up] += 1
    d[up] = 10 ** 16
    return x, d, certain


def _piece(x: int, length: int) -> tuple[str, int]:
    """'%.17g''s text of a positive value with decimal exponent x and
    ``length`` significant digits M, as a template of M (one %d), or of
    M // 10**w and M % 10**w (two); with that w, 0 for one."""
    if x < -4:
        if length == 1:
            return f"%de{x:+03d}", 0
        return f"%d.%0{length - 1}de{x:+03d}", length - 1
    if x < 0:
        return "0." + "0" * (-x - 1) + "%d", 0
    if length <= x + 1:
        return "%d" + "0" * (x + 1 - length), 0
    return f"%d.%0{length - x - 1}d", length - x - 1


# The template piece of each key ((X - X_LEAST) * 17 + length - 1) * 2 + sign,
# then of 0, -0 and a literal's placeholder, with the 10**w of its split
_KEYED = [("-" * neg + form, 10 ** w) for x in range(X_LEAST, X_MOST + 1)
          for length in range(1, 18) for form, w in [_piece(x, length)] for neg in (0, 1)]
_ZERO, _LITERAL = len(_KEYED), len(_KEYED) + 2
_KEYED += [("0", 1), ("-0", 1), ("", 1)]
# each piece with each ending of a field: the next field's comma, the
# comma and SIR's blank e, or the end of the row
_ENDINGS = (",", ",,", "\n")
_PIECES = np.array([[form + end for form, _ in _KEYED] for end in _ENDINGS], dtype=object)
_ARGS = np.array([form.count("%") for form, _ in _KEYED])
_DIVISOR = np.array([divisor for _, divisor in _KEYED], dtype=np.int64)

# values per block of _keys: 8192 doubles are 64 kB a temporary; a whole
# 288k-value trajectory at once took 1.9x as long
BLOCK = 2 ** 13


def _keys(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The template key of each value of ``v`` and the args of its piece, as
    an (N, 2) int array of which the first _ARGS[key] of each row are used.
    Taken BLOCK values at a time, so that the temporaries stay in cache."""
    keys = np.empty(len(v), dtype=np.int64)
    args = np.empty((len(v), 2), dtype=np.int64)
    for start in range(0, len(v), BLOCK):
        part = slice(start, start + BLOCK)
        keys[part], args[part] = _block_keys(v[part])
    return keys, args


def _block_keys(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_keys of one block."""
    neg = np.signbit(v).astype(np.int64)
    a = np.abs(v)
    keys = np.where(v == 0, _ZERO + neg, _LITERAL)
    fast = np.flatnonzero((a >= FAST_LEAST) & (a < FAST_BOUND))
    x, m, certain = _digits(a[fast])
    # M: D without its trailing zeros
    length = np.full(len(m), 17)
    zeros = np.flatnonzero(m % 10 == 0)
    while zeros.size:
        m[zeros] //= 10
        length[zeros] -= 1
        zeros = zeros[m[zeros] % 10 == 0]
    keys[fast] = np.where(certain, ((x - X_LEAST) * 17 + length - 1) * 2 + neg[fast], _LITERAL)
    args = np.zeros((len(v), 2), dtype=np.int64)
    args[fast, 0], args[fast, 1] = np.divmod(m, _DIVISOR[keys[fast]])
    return keys, args


def _compartments(traj: Trajectory) -> list[np.ndarray]:
    """The (T+1, n) levels of s, e, p and r, in that order; SIR has no e."""
    return [traj.s, traj.p, traj.r] if traj.e is None else [traj.s, traj.e, traj.p, traj.r]


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV "k,node,s,e,p,r"; e left blank for SIR; each level as '%.17g'
    formats it, from its digits (module docstring)."""
    v = np.stack(_compartments(traj), axis=-1)
    keys, args = _keys(v.ravel())
    template = _template(v, keys.reshape(v.shape), [1, 0, 2] if traj.e is None else [0, 0, 0, 2])
    return template % tuple(args[np.arange(2) < _ARGS[keys, None]].tolist())


def _template(v: np.ndarray, keys: np.ndarray, ends: list) -> str:
    """The header and one row per step and node of the (steps, n, comps)
    levels ``v``: 'k,node,' and each level's piece by its key, ended as
    ``ends`` gives per compartment."""
    steps, n, width = v.shape
    cells = np.empty((steps, n, 2 + width), dtype=object)
    cells[:, :, 0] = np.array([f"{k}," for k in range(steps)], dtype=object)[:, None]
    cells[:, :, 1] = np.array([f"{i}," for i in range(n)], dtype=object)
    cells[:, :, 2:] = _PIECES[ends, keys]
    # '%.17g' text holds no '%', so it goes into the template as it is
    for k, i, c in zip(*np.nonzero(keys == _LITERAL)):
        cells[k, i, 2 + c] = "%.17g" % v[k, i, c] + _ENDINGS[ends[c]]
    return "".join(["k,node,s,e,p,r\n"] + cells.ravel().tolist())


# one trajectory row; SIR rows leave e blank, so it is read as text there
SEIR_ROW = np.dtype([("k", np.int64), ("node", np.int64), ("s", np.float64),
                     ("e", np.float64), ("p", np.float64), ("r", np.float64)])
SIR_ROW = np.dtype([("k", np.int64), ("node", np.int64), ("s", np.float64),
                    ("e", "U1"), ("p", np.float64), ("r", np.float64)])
MIXED_E = "e column must be blank on every row (SIR) or on none (SEIR)"
NOT_FINITE = "trajectory values must be finite"


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
            raise ValueError(NOT_FINITE)
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


# ---------------------------------------------------------------------------
# The levels file beside a trajectory CSV that netepi wrote (module docstring).

# the header np.lib.format.write_array gives a C-order little-endian float64
# 3-d array in .npy format 1.0, with its two-byte length and padding
_HEADER = re.compile(rb"\x93NUMPY\x01\x00..\{'descr': '<f8', 'fortran_order': False, "
                     rb"'shape': \((\d+), (\d+), (\d+)\), \} *\n", re.DOTALL)


def _levels_path(path: Path) -> Path:
    return path.with_name(path.name + ".levels")


def _write_trajectory(path: Path, traj: Trajectory) -> None:
    """Write ``traj`` to ``path`` as trajectory_to_csv's text, then its
    levels file: the SHA-256 of the CSV's bytes and an .npy payload of the
    (c, T+1, n) levels (_compartments). The CSV goes first, so that a write
    stopped between the two leaves a digest that does not match. A levels
    file that cannot be written is logged and left out."""
    data = trajectory_to_csv(traj).encode()
    path.write_bytes(data)
    levels = _levels_path(path)
    try:
        # a new file, not the old one overwritten: ext4 writes a file
        # truncated and rewritten in place back to disk at close, which for
        # metro-large's two levels files measured 3.9 MB of writeback a pass
        levels.unlink(missing_ok=True)
        with open(levels, "wb") as f:
            f.write(hashlib.sha256(data).digest())
            np.lib.format.write_array(f, np.stack(_compartments(traj)), version=(1, 0))
    except OSError as exc:
        log.debug("levels file %s not written: %s", levels, exc)


def _read_trajectory(path: Path, h: float) -> Trajectory:
    """The trajectory CSV at ``path``, with step size ``h``: its levels file's
    levels while that file holds the SHA-256 of the CSV's bytes and a
    well-formed payload, else trajectory_from_csv of the CSV as UTF-8. The
    levels are checked as the parsed ones are: all finite."""
    data = path.read_bytes()
    levels = _cached_levels(_levels_path(path), hashlib.sha256(data).digest())
    if levels is None:
        return trajectory_from_csv(data.decode(), h)
    if not np.isfinite(levels).all():
        raise ValueError(NOT_FINITE)
    return Trajectory(s=levels[0], p=levels[-2], r=levels[-1],
                      e=levels[1] if len(levels) == 4 else None, h=h)


def _cached_levels(path: Path, digest: bytes) -> np.ndarray | None:
    """The (c, T+1, n) levels of the levels file at ``path`` if it starts
    with ``digest`` and then holds _HEADER with c 3 (SIR) or 4 (SEIR) and
    T+1, n >= 1, and exactly that many values; else None, logged. Only a
    header of that one form is read, so no pickle and no other header is
    ever parsed, and no shape is allocated that the file does not hold."""
    try:
        with open(path, "rb") as f:
            if f.read(len(digest)) != digest:
                raise ValueError("its digest is not the CSV's")
            payload = f.read()
        header = _HEADER.match(payload)
        if header is None:
            raise ValueError("its payload is not a float64 (c, T+1, n) array")
        shape = tuple(map(int, header.groups()))
        if shape[0] not in (3, 4) or min(shape) < 1:
            raise ValueError(f"its levels have shape {shape}")
        levels = np.frombuffer(payload, "<f8", offset=header.end())
        if levels.size != math.prod(shape):
            raise ValueError(f"it holds {levels.size} levels, not those of shape {shape}")
    except (OSError, ValueError) as exc:
        log.debug("levels file %s not used: %s", path, exc)
        return None
    return levels.reshape(shape)
