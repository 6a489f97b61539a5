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
otherwise. The rule reads n and the edge count, never A, and ``_operator``
asks it once per call, for the most rows its caller's products take: it
hands A over only where the rule sends a product dense, and None in its
place otherwise, so the step loop reads a plain array or None and looks
nothing up. A network loaded from records (graph._loaded) builds A from its
edge table at the first dense product, and a sparse one never does (graph
module docstring). The edge product gathers x at the edges' columns, weights it
and sums each row's run in column order (np.take, then np.add.reduceat),
so its cost grows with nnz(A) times the rows, and its bytes do not depend
on the order of the edge-list records. It takes a stack EDGE_BLOCK = 16
rows at a time, so that its (rows, nnz) temporaries stay in cache; each
row's bytes are those of one pass over the whole stack. The right product
A x of a (B, n) stack is B matrix-vector products, each reading A, so it
counts one row whatever B is. spectral's left product x A is one
(B, n) @ (n, n) product and counts B rows. Measured with 1 BLAS thread on
2 vCPUs (4 MB of L2 cache each) at n = 2000 and 24 059 edges (ms per
product, best of 40 in two rounds; "one pass" is A x over the edges
without blocks):

    rows    A x: dense   edge     x A: dense   edge     one pass
    1       1.21         0.068    1.26         0.066    0.063
    4       4.87         0.29     2.53         0.43     0.29
    16      18.9         1.06     3.76         1.12     1.08
    35      42.3         2.40     5.65         2.39     2.34
    72      86.7         4.93     9.02         4.89     4.89
    162     192          10.9     18.3         10.9     20.5

At n = 300 (1% dense) A stays in cache and the dense left product wins at
every row count, by 3-20x at n = 20. The rule keeps every network of
n <= 20 with density >= 0.2 dense, on the products ``a @ x`` per vector,
bit for bit; at n = 300 and 1% the left product takes the edges below 10
rows, where they cost up to 1.7x the dense product's 10-60 us.

A Trajectory is one read-only (c, T+1, n) float64 block of levels, in the
levels file's order (s, e, p, r; SIR has no e), and an EpidemicState one
(c, n) block; their s, e, p and r are views of it. simulate steps in place.
It allocates the block, copies the initial state into step 0, and _kernel
writes step k + 1 from step k with ufuncs that write into the block (out=);
the Trajectory takes the block as it is. h*gamma and h*sigma are formed once
per run, and (h*s)*pressure once per step, for both s and e. Every level is
formed in the order of operations of the equations as written, so its bytes
are those of the loop this one replaced, which built a tuple of new arrays
per step and stacked the list of them at the end (simulate_reference in
tests/conftest.py). _pressure takes each layer's product rule once per
call, forms a dense matrix-vector product as a.dot(x) (0.49 us against
1.00 us for a @ x at n = 13, with the same bytes) and sums its terms in
place. Per simulate() call, with 1 BLAS thread on 2 vCPUs, best of 25
rounds of the two loops interleaved in one process (ms; ring networks with
sweep-small's density and rates, and metro-large's network at n = 2000):

    network                  steps   list and stack   in place
    n = 6, SIR               80      0.857            0.669
    n = 6, SEIR              80      1.331            0.962
    n = 13, SIR              80      0.967            0.743
    n = 13, SEIR             80      1.360            0.939
    n = 20, SIR              80      0.868            0.695
    n = 20, SEIR             80      1.309            0.967
    n = 20, SEIR + layer     80      1.729            1.324
    n = 2000, SEIR           35      8.48             7.82

trajectory_to_csv writes each level exactly as '%.17g' % x does, but has
Python's % format integers, not doubles: '%.17g' runs Gay's correctly
rounded dtoa ("Correctly rounded binary-decimal and decimal-binary
conversions", 1990), which takes its bignum path for 17 digits. For
FAST_LEAST <= |x| < 1e16, numpy finds the decimal exponent X and the
17-digit integer D = round(|x| * 10**(16 - X)) (_digits):

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

The writer builds the bytes of BLOCK = 2048 rows at a time in numpy arrays,
with a NUL byte wherever there is no text. It reads the trajectory's block
as (T+1)*n rows of c levels, a strided view, and copies each BLOCK of rows
whole before it fills them in. At n = 2000, T = 35 (SEIR), with 1 BLAS
thread on 2 vCPUs, in three runs of the best of 7 rounds of the three
interleaved, a whole call took 38.7-39.3 ms that way, 38.7-39.1 ms filling
from the strided view, and 39.9-40.8 ms stacking the compartments into a new
(rows, c) array first, as the writer did before. A row is 'k,' and 'node,',
each from a per-step or per-node table and padded to the longest, and then,
from the next multiple of 8 bytes, eight 4-byte words per level:

    words 0-1   the head, by (X, sign, first digit, more digits or not):
                '-', then 'd', 'd.', '0.d' to '0.000d' (X = -1 to -4) or,
                for 0, '0'
    words 2-5   D's other 16 digits as four 4-digit chunks from '0000' to
                '9999', or from the same table with the trailing zeros
                NUL'd where every later chunk is 0: D drops its trailing
                zeros without a loop
    word 6      the exponent where X < -4, 'e-05' to 'e-25'
    word 7      the field's ending: ',', ',,' (before SIR's blank e) or '\\n'

That covers 0, -0 and FAST_LEAST <= |x| < FAST_BOUND = 10, where X <= 0
('0.000123', '1.5', '2.5e-07'); _digits runs on 1.0 in place of any other
value. Every other level, below 1e-24 or from 10 up, not finite or near a
tie, is '%.17g' % x, at most 24 bytes, over words 0-6. Each block goes
through bytes.translate(None, b'\\0'), which drops the NULs, and the pieces
are joined: on the 10.4 MB of all 72 000 rows of metro's trajectory, that
took 8.6 ms, and numpy's boolean compress of the same bytes 14.7 ms. Per
call, with 1 BLAS thread on 2 vCPUs, best of 9, the three interleaved (ms):
one '%.17g' template over every value (tests/conftest.py), the writer this
one replaced (one template piece per level keyed by X, digit count and
sign, filled in by one %), and this writer:

    trajectory (SEIR unless named)   values      text      '%.17g'   template   words
    n = 2000, T = 35                 288 000     6.4 MB    197       86.2       35.6
    n = 2000, T = 35, noisy          248 000     5.7 MB    154       69.6       29.2
    n = 2000, T = 200                1 608 000   36.6 MB   1040      472        227
    n = 20, T = 80                   6 480       0.14 MB   3.41      1.57       0.79
    n = 20, T = 80, SIR              4 860       0.11 MB   2.70      1.28       0.66

Reading the CSV back costs more than writing it: its 17-digit
levels take the bignum path of correctly rounded decimal-to-binary
conversion, and trajectory_from_csv reads 310-330 ns a level. So the
commands do not parse the CSVs netepi wrote. _write_trajectory writes a
levels file beside each one, a sidecar (graph module docstring) whose
payload is the (c, T+1, n) float64 levels, s, e, p, r in that order (SIR
has no e). _read_trajectory takes the levels from it while its digest is
that of the CSV's bytes and of the payload, and parses the CSV in every
other case. '%.17g' reads back bit for bit, so both give the same levels.
Per call, with 1 BLAS thread on 2 vCPUs (ms): the writes over the files of
an earlier write (graph._write_file), best of 9 in each of three runs, the
reads, not measured again, best of 7 over four runs:

    trajectory (SEIR)     CSV       levels file   write: CSV   + levels   read: parse   hit
    n = 2000, T = 35      6.4 MB    2.3 MB        36.2         44.1       88.7          8.35
    n = 2000, T = 200     36.6 MB   12.9 MB       223          263        481           47.9
    n = 20, T = 80        0.14 MB   0.05 MB       0.92         1.15       1.68          0.17

Most of a hit is the SHA-256 of the CSV's bytes and of the payload: about
34 ms of the 48 at T = 200.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property, reduce
from pathlib import Path
from typing import Iterable

import numpy as np

from .graph import (Network, _read_sidecar, _read_table, _records, _write_file,
                    _write_sidecar)

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

log = logging.getLogger(__name__)

SUM_TOL = 1e-9


class AssumptionError(ValueError):
    """Well-posedness inequalities violated; its ``report`` (an
    AssumptionReport) lists them."""


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


def _validate(levels: np.ndarray) -> None:
    """Simplex check, to SUM_TOL, on ``levels``: a block of s, e, p and r on
    axis 0 (SIR has no e)."""
    # written so that NaN fails too
    if not np.all((levels >= -SUM_TOL) & (levels <= 1 + SUM_TOL)):
        raise StateInvariantError("compartment level outside [0, 1] or NaN")
    if np.any(np.abs(sum(levels) - 1.0) > SUM_TOL):
        raise StateInvariantError("per-node compartments do not sum to 1")


def _stacked(parts, ndim: int, error: str) -> np.ndarray:
    """The compartments ``parts`` (s, e, p and r; e None for SIR) stacked
    into one new float block; ``error`` unless they are ``ndim``-d arrays of
    one shape."""
    parts = [np.asarray(v, dtype=float) for v in parts if v is not None]
    if len({v.shape for v in parts}) > 1 or parts[0].ndim != ndim:
        raise ValueError(error)
    return np.stack(parts)


def _hold(obj, levels: np.ndarray, **rest):
    """``obj``, an EpidemicState or a Trajectory, filled in as the block
    ``levels`` (axis 0 is s, e, p and r; SIR has no e) and ``rest``: its
    s, e, p and r are views of the block."""
    s, *e, p, r = levels
    obj.__dict__.update(levels=levels, s=s, e=e[0] if e else None, p=p, r=r, **rest)
    return obj


class _Block:
    """What an EpidemicState and a Trajectory read off their block."""

    @property
    def n(self) -> int:
        return self.levels.shape[-1]

    @property
    def kind(self) -> str:
        return "sir" if self.e is None else "seir"


@dataclass(frozen=True, eq=False)
class EpidemicState(_Block):
    """Per-node compartment levels: one (c, n) block ``levels`` of s, e, p
    and r (SIR has no e), with ``s``, ``e``, ``p`` and ``r`` as its rows;
    ``e`` is None for SIR states. The keyword constructor stacks its
    vectors into a new, writable block. States compare and hash by
    identity."""

    s: np.ndarray
    p: np.ndarray
    r: np.ndarray
    e: np.ndarray | None = None
    levels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _hold(self, _stacked((self.s, self.e, self.p, self.r), 1,
                             "compartment vectors must share one length"))

    def validate(self) -> None:
        _validate(self.levels)


def _state(levels: np.ndarray) -> EpidemicState:
    """The EpidemicState of the (c, n) block ``levels``, taken as it is."""
    return _hold(object.__new__(EpidemicState), levels)


@dataclass(frozen=True, kw_only=True, eq=False)
class Trajectory(_Block):
    """Compartment levels over steps 0..T: one read-only (c, T+1, n) block
    ``levels`` of s, e, p and r (SIR has no e), with ``s``, ``e``, ``p`` and
    ``r`` as its (T+1, n) views (row k is step k); ``e`` is None for SIR.
    The keyword constructor stacks its arrays into a new block.
    Trajectories compare and hash by identity."""

    s: np.ndarray
    p: np.ndarray
    r: np.ndarray
    e: np.ndarray | None = None
    h: float
    levels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.ndim(self.s) != 2 or len(self.s) == 0:
            raise ValueError("trajectory must contain at least one state")
        levels = _stacked((self.s, self.e, self.p, self.r), 2,
                          "compartment arrays must share one (T+1, n) shape")
        levels.setflags(write=False)
        _hold(self, levels, h=float(self.h))

    def __len__(self) -> int:
        return self.levels.shape[1]

    @property
    def transitions(self) -> int:
        return len(self) - 1

    @cached_property
    def states(self) -> tuple[EpidemicState, ...]:
        """Per-step states, each over the (c, n) view of its step."""
        return tuple(map(_state, self.levels.swapaxes(0, 1)))


def _trajectory(levels: np.ndarray, h: float) -> Trajectory:
    """The Trajectory of the (c, T+1, n) block ``levels``, taken as it is
    and made read-only."""
    levels.setflags(write=False)
    return _hold(object.__new__(Trajectory), levels, h=float(h))


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
            error = AssumptionError("well-posedness violated: " + "; ".join(map(str, self.violations)))
            error.report = self
            raise error


# ---------------------------------------------------------------------------
# The infection operator: the one place that reads ``net.layers``.

EDGE_FACTOR = 8  # see _use_edges
EDGE_BLOCK = 16  # rows per pass of _edge_product


def _operator(net: Network, rates: tuple, rows: int | None) -> tuple:
    """Triples (A_l, A_l's edge table, rates_l) over the base network (l = 0)
    and each transport layer, defining the infection pressure on the nodes

        pressure(x) = sum_l sum_c rates_l[c] * (A_l @ x_c)

    for compartment levels x = (x_c). A_l is None where a product of up to
    ``rows`` rows with it runs over its edge table (``_use_edges``), so that
    a network loaded from records builds only the matrices a product reads;
    ``rows`` None gives every A_l, for the callers that form matrices from
    them. ``rates`` must cover every layer, so a model without layer rates
    is refused on a layered network."""
    tables = net.edges
    if len(rates) != len(tables):
        raise ValueError(f"rates are given for {len(rates) - 1} transport layers, "
                         f"the network has {len(tables) - 1}")
    return tuple((None if rows is not None and _use_edges(net.n, edges, rows)
                  else net.layers[l - 1] if l else net.adjacency, edges, rate)
                 for l, (edges, rate) in enumerate(zip(tables, rates)))


def _use_edges(n: int, edges: tuple, rows: int) -> bool:
    """Whether a product of ``rows`` rows with a matrix of order ``n`` runs
    over its edge table ``edges``: EDGE_FACTOR * nnz * rows < n*n (module
    docstring). It reads n, not the matrix, so asking it builds none."""
    return EDGE_FACTOR * len(edges[0]) * rows < n * n


def _pressure(op: tuple, xs: tuple) -> np.ndarray:
    """pressure(x) for the operator ``op``. Each x_c is a length-n vector, or
    a (T, n) stack of them when the rates are scalars. A @ x_c runs over A's
    edge table where the operator leaves A out (``_use_edges`` took it for
    one row), else as one dense matrix-vector product per vector. The rates
    multiply after the product, and the terms are summed in place in
    layer-then-compartment order."""
    total = None
    for a, edges, rates in op:
        for rate, x in zip(rates, xs):
            term = (_edge_product(x, edges) if a is None else a.dot(x) if x.ndim == 1
                    else (a @ x[:, :, None])[:, :, 0])
            term *= rate
            total = term if total is None else np.add(total, term, out=total)
    return total


def _edge_product(x: np.ndarray, edges: tuple) -> np.ndarray:
    """a @ x_k for each row x_k of x (or for x, a vector) over a's edge table,
    EDGE_BLOCK rows of x at a time (_edge_pass), so that the (rows, nnz)
    temporaries stay in cache; each row's bytes are those of one pass."""
    if x.ndim == 2 and len(x) > EDGE_BLOCK:
        return np.concatenate([_edge_pass(x[k:k + EDGE_BLOCK], edges)
                               for k in range(0, len(x), EDGE_BLOCK)])
    return _edge_pass(x, edges)


def _edge_pass(x: np.ndarray, edges: tuple) -> np.ndarray:
    """_edge_product in one pass: x's entries gathered at the edges' columns,
    weighted, and summed over each row's run in column order."""
    rows, cols, weights, starts = edges
    out = np.zeros(x.shape)
    # reduceat over an empty run would return the next entry, so only the
    # nonempty rows are summed; an edgeless a leaves out zero
    out[..., rows[starts]] = np.add.reduceat(np.take(x, cols, axis=-1) * weights, starts, axis=-1)
    return out


def _pressure_jacobian(op: tuple, c: int) -> np.ndarray:
    """d pressure / d x_c = sum_l diag(rates_l[c]) A_l, for an operator that
    holds every A_l (``_operator`` with ``rows`` None)."""
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
    hb = pr.h * _pressure(_operator(net, pr.rates, 1), (np.ones(net.n),) * len(pr.rates[0]))
    if isinstance(pr, SirParams):
        return _report([gamma, ("h*beta*row_sum", hb, hb < 1, "not < 1"),
                        ("beta", pr.beta, ~(pr.beta < 0), "negative")])
    hs = pr.h * pr.sigma
    low = np.minimum(pr.beta_e, pr.beta)
    return _report([gamma, ("h*sigma", hs, (0 < hs) & (hs <= 1), "not in (0, 1]"),
                    ("beta_e/beta", low, ~(low < 0), "negative"),
                    ("h*(beta_e+beta)*row_sum", hb, (0 <= hb) & (hb < 1), "not in [0, 1)")])


def _prepare(params, state, net: Network) -> SirParams | SeirParams:
    """Check ``params`` against ``state`` (an EpidemicState or a Trajectory)
    and ``net``, and resolve them; ``_operator(net, pr.rates, rows)`` is
    their operator."""
    if not isinstance(params, (SirParams, SeirParams)):
        raise TypeError("params must be SirParams or SeirParams")
    kind = "sir" if isinstance(params, SirParams) else "seir"
    if state.kind != kind:
        raise ValueError(f"{type(params).__name__} require an {kind.upper()} state")
    if state.n != net.n:
        raise ValueError("state/network dimension mismatch")
    return params.resolved(net.n)


def _kernel(pr, op: tuple, hstages: tuple, levels: np.ndarray, k: int) -> None:
    """The update equations on resolved parameters, in place: step k + 1 of
    ``levels``, a (c, T+1, n) block of s, e, p and r (SIR has no e), from
    step k. ``hstages`` is h times ``pr.stages``. Each level is formed in the
    order of operations of the equations as written, so its bytes are theirs."""
    h, x, y = pr.h, levels[:, k], levels[:, k + 1]
    # rows by index: unpacking x row by row costs more than the indexing
    s, p, r, s1, p1, r1 = x[0], x[-2], x[-1], y[0], y[-2], y[-1]
    e, e1 = (x[1], y[1]) if len(x) == 4 else (None, None)
    pressure = _pressure(op, (p,) if e is None else (e, p))
    np.multiply(h, s, out=s1)
    s1 *= pressure  # (h*s)*pressure, the new infections
    if e is None:
        np.multiply(s, pressure, out=p1)
    else:
        # e' = (e + h*s*iota) - (h*sigma)*e, and sigma*e flows on to p
        np.add(e, s1, out=e1)
        e1 -= np.multiply(hstages[0], e, out=p1)
        np.multiply(pr.sigma, e, out=p1)
    np.subtract(s, s1, out=s1)
    # p' = p + h*(inflow - gamma*p), r' = r + (h*gamma)*p
    p1 -= np.multiply(pr.gamma, p, out=r1)
    np.add(p, np.multiply(h, p1, out=p1), out=p1)
    np.add(r, np.multiply(hstages[-1], p, out=r1), out=r1)


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
    pr = _prepare(params, initial, net)
    op = _operator(net, pr.rates, 1)
    if strict:
        check_assumption(pr, net).raise_if_violated()
        initial.validate()
    levels = np.empty((2 + len(pr.stages), steps + 1, net.n))
    levels[:, 0] = initial.levels
    hstages = tuple(pr.h * rate for rate in pr.stages)
    for k in range(steps):
        _kernel(pr, op, hstages, levels, k)
    if strict:
        _validate(levels)
    return _trajectory(levels, pr.h)


# ---------------------------------------------------------------------------
# The trajectory CSV writer: '%.17g' text from integer digits, in NUL-padded
# words (module docstring).

# |x| in [FAST_LEAST, FAST_BOUND) is written from its digits, and so is 0.
# _digits takes |x| up to 1e16: its decimal exponent X, and log10's first
# estimate of it, lie in [X_LEAST, X_MOST]. Any other value, and one within
# TIE_GUARD last-digit units of a rounding tie, is '%.17g' % x
FAST_LEAST, FAST_BOUND = 1e-24, 10.0
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
    """For each a in [FAST_LEAST, 1e16): its decimal exponent X, the
    17-digit integer D = round(a * 10**(16 - X)) and whether D is certain
    (a is not within TIE_GUARD of a rounding tie)."""
    x = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, x)
    # log10 may be one off near a power of ten; a * 10**(16 - X) must lie
    # in [1e16, 1e17)
    low = (s < 1e16) | ((s == 1e16) & (t < 0))
    high = (s > 1e17) | ((s == 1e17) & (t >= 0))
    off = low | high
    if off.any():
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


# Each level is 32 bytes, NUL where there is no text: the head (sign, '0.'
# and the zeros of 0.000d, the first digit and its '.'), 16 more digits as
# four 4-digit chunks, the exponent and the field's ending. A level's slot is
# its X - X_LEAST, or ZERO_SLOT for 0 and -0
_SLOTS = [*range(X_LEAST, 1), None]
ZERO_SLOT = len(_SLOTS) - 1


def _head(x: int | None, lead: int, more: int) -> str:
    """The text before the chunks of a level's magnitude, of decimal exponent
    x (None for zero), first digit ``lead`` and ``more`` digits after it; a
    sign goes in front."""
    if x is None:
        return "0"
    return "0." + "0" * (-x - 1) + str(lead) if -4 <= x < 0 else str(lead) + "." * more


def _words(strings: list[str], size: int) -> np.ndarray:
    """``strings`` NUL-padded to ``size`` bytes, as 4-byte words."""
    return np.array(strings, dtype=f"S{size}").view(np.uint32)


# by ((slot * 2 + sign) * 10 + first digit) * 2 + more; by the chunk, and by
# 10**4 + the chunk without its trailing zeros; by slot; the next field's
# comma, that and SIR's blank e, and the row's end
_HEAD = _words(["-" * neg + _head(x, lead, more) for x in _SLOTS for neg in (0, 1)
                for lead in range(10) for more in (0, 1)], 8).view(np.uint64)
_CHUNK = _words([f"{c:04d}".rstrip("0" * trim) for trim in (0, 1) for c in range(10 ** 4)], 4)
_EXPONENT = _words([f"e{x:+03d}" if x is not None and x < -4 else "" for x in _SLOTS], 4)
_ENDING = _words([",", ",,", "\n"], 4)

# rows per block of trajectory_to_csv: 2048 SEIR rows are 8192 levels, so
# that the temporaries stay in cache
BLOCK = 2 ** 11


def _from_digits(v: np.ndarray) -> tuple:
    """Whether each level of ``v`` is written from its digits (zero, or in
    [FAST_LEAST, FAST_BOUND) and not near a tie), its slot and its 17-digit D.
    _digits runs on 1.0 in place of any other value."""
    a, zero = np.abs(v), v == 0
    fast = (a >= FAST_LEAST) & (a < FAST_BOUND)
    x, d, certain = _digits(np.where(fast, a, 1.0))
    return certain & (fast | zero), np.where(zero, ZERO_SLOT, x - X_LEAST), d


def _fill(words: np.ndarray, v: np.ndarray) -> None:
    """The head, chunks and exponent of each level of ``v`` into its first
    7 words of ``words``, an 8-byte aligned (m, c, 8) uint32 array (module
    docstring)."""
    digits, slot, d = _from_digits(v)
    q = [d // 10 ** k for k in (16, 12, 8, 4)] + [d]  # D's first 1, 5, 9, 13 and 17 digits
    words.view(np.uint64)[..., 0] = _HEAD[((slot * 2 + np.signbit(v)) * 10 + q[0]) * 2
                                          + (q[0] * 10 ** 16 != d)]
    for j in range(4):
        # chunk j, without its trailing zeros where every later chunk is 0
        chunk = q[j + 1] - 10 ** 4 * q[j]
        zeros = q[j + 1] * 10 ** (12 - 4 * j) == d
        words[..., 2 + j] = _CHUNK[chunk + 10 ** 4 * zeros]
    words[..., 6] = _EXPONENT[slot]
    if not digits.all():
        words[~digits, :7] = _words(["%.17g" % x for x in v[~digits].tolist()], 28).reshape(-1, 7)


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV "k,node,s,e,p,r"; e left blank for SIR; each level as '%.17g'
    formats it, from its digits (module docstring)."""
    # (T+1)*n rows of c levels, a strided view of the block; each BLOCK of
    # rows is copied whole before _fill reads it (module docstring)
    v = traj.levels.reshape(len(traj.levels), -1).T
    # a row: 'k,' and 'node,' NUL-padded to the longest of each, then from
    # the next multiple of 8 bytes, 8 words per level
    ids = [np.array([f"{i}," for i in range(count)], dtype="S") for count in (len(traj), traj.n)]
    start = -(-(ids[0].itemsize + ids[1].itemsize) // 8) * 8
    rows = np.zeros(min(BLOCK, len(v)), dtype={
        "names": ["k", "node", "levels"], "offsets": [0, ids[0].itemsize, start],
        "formats": [ids[0].dtype, ids[1].dtype, (np.uint32, (v.shape[1], 8))]})
    rows["levels"][..., 7] = _ENDING[[1, 0, 2] if traj.e is None else [0, 0, 0, 2]]
    pieces = ["k,node,s,e,p,r\n"]
    for first in range(0, len(v), BLOCK):
        block = rows[:len(v) - first]
        step, node = np.divmod(np.arange(first, first + len(block)), traj.n)
        block["k"], block["node"] = ids[0][step], ids[1][node]
        _fill(block["levels"], v[first:first + len(block)].copy())
        pieces.append(block.tobytes().translate(None, b"\0").decode())
    return "".join(pieces)


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

    names = "spr" if sir else "sepr"
    levels = np.empty((len(names),) + shape)
    for out, name in zip(levels, names):
        out[k, node] = table[name]
    if not np.isfinite(levels).all():
        raise ValueError(NOT_FINITE)
    return _trajectory(levels, h)


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


def _levels_path(path: Path) -> Path:
    return path.with_name(path.name + ".levels")


def _write_trajectory(path: Path, traj: Trajectory) -> None:
    """Write ``traj`` to ``path`` as trajectory_to_csv's text, then its
    levels file: a sidecar (graph._write_sidecar) of its (c, T+1, n) block
    ``levels``. The CSV goes first, so that a write stopped between the
    two leaves a digest that does not match. Logs one DEBUG line: the path,
    the CSV's bytes, the levels and how many of them went through '%.17g'."""
    data = trajectory_to_csv(traj).encode()
    _write_file(path, [data])
    _write_sidecar(_levels_path(path), data, traj.levels)
    if log.isEnabledFor(logging.DEBUG):
        # counted again, n levels at a time, so that only a debugging run pays
        literals = sum(np.count_nonzero(~_from_digits(row)[0])
                       for row in traj.levels.reshape(-1, traj.n))
        log.debug("trajectory %s: %d bytes, %d levels, %d written by '%%.17g'",
                  path, len(data), traj.levels.size, literals)


def _read_trajectory(path: Path, h: float) -> Trajectory:
    """The trajectory CSV at ``path``, with step size ``h``: the levels of its
    levels file while that is a sidecar of the CSV's bytes (graph._read_sidecar)
    holding c = 3 (SIR) or 4 (SEIR) compartments and T+1, n >= 1, else
    trajectory_from_csv of the CSV as UTF-8. The levels are checked as the
    parsed ones are: all finite."""
    data = path.read_bytes()
    levels = _read_sidecar(_levels_path(path), data, np.float64, 3, _levels)
    if levels is None:
        return trajectory_from_csv(data.decode(), h)
    if not np.isfinite(levels).all():
        raise ValueError(NOT_FINITE)
    return _trajectory(levels, h)


def _levels(levels: np.ndarray) -> np.ndarray:
    """``levels`` if their shape is that of a trajectory's (c, T+1, n)."""
    if levels.shape[0] not in (3, 4) or min(levels.shape) < 1:
        raise ValueError(f"its levels have shape {levels.shape}")
    return levels
