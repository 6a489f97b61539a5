import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import strategies as st

from netepi import EpidemicState, Network, SeirParams, SirParams, Trajectory
from netepi.dynamics import _edge_product, _operator, _prepare
from netepi.estimation import (NONZERO_TOL, RANK_TOL_FACTOR, RegressionSystem, _nodes,
                               _transitions)
from netepi.graph import NetworkError


# ---------------------------------------------------------------------------
# Shared fixtures: the 2-node worked examples used across modules.

@pytest.fixture
def two_node_net():
    return Network(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.fixture
def sir_example(two_node_net):
    params = SirParams(beta=0.5, gamma=0.2, h=0.1)
    state = EpidemicState(s=np.array([0.9, 1.0]), p=np.array([0.1, 0.0]),
                          r=np.zeros(2))
    return two_node_net, params, state


@pytest.fixture
def seir_example(two_node_net):
    params = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0)
    state = EpidemicState(s=np.array([0.95, 1.0]), e=np.array([0.02, 0.0]),
                          p=np.array([0.03, 0.0]), r=np.zeros(2))
    return two_node_net, params, state


# ---------------------------------------------------------------------------
# Random-instance generators.

def random_irreducible_network(rng, n, extra_prob=0.2):
    """Bidirectional ring (guarantees strong connectivity) plus random extras."""
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = rng.uniform(0.5, 1.5)
        a[(i + 1) % n, i] = rng.uniform(0.5, 1.5)
    mask = rng.random((n, n)) < extra_prob
    a[mask] += rng.uniform(0.2, 1.0, size=int(mask.sum()))
    return Network(a)


def random_sir_params(rng, net, h=1.0):
    rowmax = max(net.adjacency.sum(axis=1).max(), 1e-12)
    beta = rng.uniform(0.05, 0.9) / (h * rowmax)
    gamma = rng.uniform(0.1, 0.9) / h
    return SirParams(beta=beta, gamma=gamma, h=h)


def random_seir_params(rng, net, h=1.0):
    rowmax = max(net.adjacency.sum(axis=1).max(), 1e-12)
    total = rng.uniform(0.05, 0.9) / (h * rowmax)
    split = rng.uniform(0.1, 0.9)
    return SeirParams(beta_e=total * split, beta=total * (1 - split),
                      sigma=rng.uniform(0.1, 1.0) / h,
                      gamma=rng.uniform(0.1, 0.9) / h, h=h)


def random_layered_seir(rng, n):
    """Network with one transport layer and SEIR params with layer rates,
    well-posed over base + layer."""
    base = random_irreducible_network(rng, n).adjacency
    layer = random_irreducible_network(rng, n).adjacency
    pr = random_seir_params(rng, Network(base + layer))
    params = SeirParams(beta_e=pr.beta_e, beta=pr.beta, sigma=pr.sigma,
                        gamma=pr.gamma, h=pr.h,
                        layer_beta_e=(np.full(n, pr.beta_e),),
                        layer_beta=(np.full(n, pr.beta),))
    return Network(base, layers=(layer,)), params


def random_simplex_state(rng, n, kind):
    comps = 3 if kind == "sir" else 4
    levels = rng.dirichlet(np.ones(comps), size=n)
    if kind == "sir":
        return EpidemicState(s=levels[:, 0], p=levels[:, 1], r=levels[:, 2])
    return EpidemicState(s=levels[:, 0], e=levels[:, 1], p=levels[:, 2],
                         r=levels[:, 3])


def seeded_state(n, kind, e_seeds=(), p_seeds=()):
    """Mostly-susceptible state with a few seeded nodes, as in the scenarios."""
    e = np.zeros(n)
    p = np.zeros(n)
    for i, v in e_seeds:
        e[i] = v
    for i, v in p_seeds:
        p[i] = v
    if kind == "sir":
        return EpidemicState(s=1.0 - p, p=p, r=np.zeros(n))
    return EpidemicState(s=1.0 - e - p, e=e, p=p, r=np.zeros(n))


def fabricated_seir(e, p, r, h=1.0):
    """Trajectory from (T+1, n) arrays of e, p and r; s fills in."""
    e, p, r = (np.asarray(x, dtype=float) for x in (e, p, r))
    return Trajectory(s=1.0 - e - p - r, e=e, p=p, r=r, h=h)


# ---------------------------------------------------------------------------
# Independent oracles.

def save_network(net):
    """Edge-list text of a network, one ``i,j,weight`` line per nonzero entry
    in row-major order, weights by repr (round-trips bit-exactly through
    load_network). An edge list holds one matrix, so transport layers are
    refused."""
    if net.layers:
        raise NetworkError(f"cannot write a network with {len(net.layers)} transport "
                           "layers as one edge list")
    rows, cols = np.nonzero(net.adjacency)
    return "".join(f"{i},{j},{w!r}\n" for i, j, w in
                   zip(rows.tolist(), cols.tolist(), net.adjacency[rows, cols].tolist()))


def g_value(traj, net, i, k, x):
    """s_i^k times the weighted neighbor sum of compartment ``x`` ("e" or
    "p") at step k, over the base network: one row of A times one state."""
    if not (0 <= k < len(traj)):
        raise IndexError("step index out of range")
    if not (0 <= i < net.n):
        raise IndexError("node index out of range")
    vec = traj.p if x == "p" else traj.e
    return float(traj.s[k, i] * (net.adjacency[i] @ vec[k]))


def charpoly_spectral_radius(m):
    """Spectral radius via Faddeev-LeVerrier characteristic-polynomial
    coefficients and companion-matrix root finding; independent of the
    power-iteration path it checks."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ mk + coeffs[k - 1] * m
        coeffs[k] = -np.trace(mk) / k
    roots = np.roots(coeffs)
    return float(np.max(np.abs(roots)))


def sir_step_oracle(state, params, net):
    """One SIR step written as explicit per-node sums."""
    pr = params.resolved(net.n)
    n, h, a = net.n, pr.h, net.adjacency
    s, p, r = state.s, state.p, state.r
    s2 = np.empty(n)
    p2 = np.empty(n)
    r2 = np.empty(n)
    for i in range(n):
        pressure = pr.beta[i] * sum(a[i, j] * p[j] for j in range(n) if a[i, j] != 0.0)
        s2[i] = s[i] - h * s[i] * pressure
        p2[i] = p[i] + h * (s[i] * pressure - pr.gamma[i] * p[i])
        r2[i] = r[i] + h * pr.gamma[i] * p[i]
    return EpidemicState(s=s2, p=p2, r=r2)


def seir_step_oracle(state, params, net):
    """One SEIR step written as explicit per-node sums over the base network
    and every transport layer."""
    pr = params.resolved(net.n)
    n, h, a = net.n, pr.h, net.adjacency
    s, e, p, r = state.s, state.e, state.p, state.r
    s2 = np.empty(n)
    e2 = np.empty(n)
    p2 = np.empty(n)
    r2 = np.empty(n)
    for i in range(n):
        iota = (pr.beta_e[i] * sum(a[i, j] * e[j] for j in range(n) if a[i, j] != 0.0)
                + pr.beta[i] * sum(a[i, j] * p[j] for j in range(n) if a[i, j] != 0.0))
        for lidx, al in enumerate(net.layers):
            iota += (pr.layer_beta_e[lidx][i]
                     * sum(al[i, j] * e[j] for j in range(n) if al[i, j] != 0.0)
                     + pr.layer_beta[lidx][i]
                     * sum(al[i, j] * p[j] for j in range(n) if al[i, j] != 0.0))
        s2[i] = s[i] - h * s[i] * iota
        e2[i] = e[i] + h * s[i] * iota - h * pr.sigma[i] * e[i]
        p2[i] = p[i] + h * (pr.sigma[i] * e[i] - pr.gamma[i] * p[i])
        r2[i] = r[i] + h * pr.gamma[i] * p[i]
    return EpidemicState(s=s2, e=e2, p=p2, r=r2)


def simulate_reference(initial, params, net, steps):
    """The levels (s, p, r, e) of ``simulate(initial, params, net, steps,
    strict=False)``, each a (T+1, n) array (e None for SIR), as the step loop
    before the in-place one formed them: a list of per-step tuples, each from
    the one before by the update equations as written, stacked at the end.
    The pressure sums rate * (A @ x) over the layers and compartments with
    reduce, each product over A's edge table where dynamics._operator leaves
    A out (dynamics._use_edges takes the edges for one row), else a @ x."""
    pr = _prepare(params, initial, net)
    op = _operator(net, pr.rates)

    def product(a, edges, x):
        return _edge_product(x, edges) if a is None else a @ x

    def pressure(xs):
        return reduce(np.add, (rate * product(a, edges, x)
                               for a, edges, rates in op for rate, x in zip(rates, xs)))

    def kernel(s, p, r, e):
        h = pr.h
        if e is None:
            force = pressure((p,))
            return (s - h * s * force, p + h * (s * force - pr.gamma * p),
                    r + h * pr.gamma * p, None)
        iota = pressure((e, p))
        return (s - h * s * iota, p + h * (pr.sigma * e - pr.gamma * p),
                r + h * pr.gamma * p, e + h * s * iota - h * pr.sigma * e)

    rows = [(initial.s, initial.p, initial.r, initial.e)]
    for _ in range(steps):
        rows.append(kernel(*rows[-1]))
    return tuple(None if comp[0] is None else np.stack(comp) for comp in zip(*rows))


def spreading_matrix_oracle(state, params, net):
    """The per-model spreading matrix that the chain build replaced: SIR's
    n x n matrix, SEIR's 2n x 2n one from its four blocks."""
    pr = _prepare(params, state, net)

    def jacobian(c):
        # sum_l diag(rates_l[c]) A_l, from the network's matrices
        return reduce(np.add, (r[c][:, None] * a
                               for a, r in zip((net.adjacency, *net.layers), pr.rates, strict=True)))

    eye = np.eye(net.n)
    if isinstance(pr, SirParams):
        return (eye - pr.h * np.diag(pr.gamma)
                + pr.h * (state.s[:, None] * jacobian(0)))
    sba_e = state.s[:, None] * jacobian(0)
    sba_p = state.s[:, None] * jacobian(1)
    top = np.hstack([eye - pr.h * np.diag(pr.sigma) + pr.h * sba_e, pr.h * sba_p])
    bot = np.hstack([pr.h * np.diag(pr.sigma), eye - pr.h * np.diag(pr.gamma)])
    return np.vstack([top, bot])


def regression_sir_oracle(traj, net, node, g):
    """The SIR regression that the chain regression replaced, as one block
    [Q | delta]; ``g`` as estimation._window_g gives it."""
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
    return RegressionSystem(((0, np.column_stack([q, np.concatenate([dp, dr])])),),
                            kind="sir-homog" if node is None else "sir-hetero",
                            t=t, node=node)


def regression_seir_oracle(traj, net, node, g):
    """The SEIR regression that the chain regression replaced, as one block
    [Q | delta]; ``g`` as estimation._window_g gives it."""
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
    return RegressionSystem(((0, np.column_stack([q, delta])),),
                            kind="seir-homog" if node is None else "seir-hetero",
                            t=t, node=node)


def least_squares_oracle(sys):
    """The dense solve that the block solve replaced: Q's column norms by
    einsum, the SVD of Q itself, the same rank tolerance and the minimum-norm
    theta. Returns (theta, rank, non_unique, residual norm, singular values)."""
    q, delta = sys.q, sys.delta
    col_norms = np.sqrt(np.einsum("ij,ij->j", q, q))
    tol = RANK_TOL_FACTOR * max(float(col_norms.max()), np.finfo(float).tiny)
    u, s, vt = np.linalg.svd(q, full_matrices=False)
    rank = int(np.sum(s > tol))
    s_inv = np.where(s > tol, 1.0 / np.where(s > tol, s, 1.0), 0.0)
    theta = vt.T @ (s_inv * (u.T @ delta))
    return theta, rank, rank < q.shape[1], float(np.linalg.norm(q @ theta - delta)), s


def nonproportional_pair_oracle(ge, gp, nodes):
    """First pair of (g(e), g(p)) points, node-major then step order, that
    are not proportional: the scan over all pairs."""
    points = [(i, k, e, p)
              for i, e_row, p_row in zip(nodes.tolist(), ge[:, nodes].T.tolist(),
                                         gp[:, nodes].T.tolist())
              for k, (e, p) in enumerate(zip(e_row, p_row))]
    for i3, k3, e3, p3 in points:
        for i4, k4, e4, p4 in points:
            lhs = e3 * p4
            rhs = e4 * p3
            scale = max(1.0, abs(lhs), abs(rhs))
            if abs(lhs - rhs) > NONZERO_TOL * scale:
                return {"i3": i3, "k3": k3, "i4": i4, "k4": k4, "lhs": lhs, "rhs": rhs}
    return None


def brute_force_strongly_connected(m):
    """Path existence between all ordered pairs via boolean pattern powers."""
    pattern = (np.asarray(m) > 0)
    n = pattern.shape[0]
    reach = np.zeros((n, n), dtype=bool)
    power = np.eye(n, dtype=bool)
    for _ in range(n):
        power = power @ pattern
        reach |= power
    return bool(reach.all())


def load_network_oracle(source, n):
    """The per-line edge-list reader that np.loadtxt replaced: each stripped
    line is split on ',' and converted by int() and float()."""
    if isinstance(source, str):
        source = source.splitlines()
    a = np.zeros((n, n))
    seen = set()
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise NetworkError(f"line {lineno}: expected 'i,j,weight', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError as exc:
            raise NetworkError(f"line {lineno}: malformed record {line!r}") from exc
        if not (0 <= i < n and 0 <= j < n):
            raise NetworkError(f"line {lineno}: index out of range for n={n}")
        if not np.isfinite(w) or w <= 0:
            raise NetworkError(f"line {lineno}: weight must be positive and finite")
        if (i, j) in seen:
            raise NetworkError(f"line {lineno}: duplicate edge ({i},{j})")
        seen.add((i, j))
        a[i, j] = w
    return Network(a)


def trajectory_to_csv_oracle(traj):
    """The writer that formatting from integer digits replaced: one
    '%.17g' template over a tuple of every value."""
    steps, n = traj.s.shape
    comps = [traj.s, traj.p, traj.r] if traj.e is None else [traj.s, traj.e, traj.p, traj.r]
    table = np.column_stack([np.repeat(np.arange(steps), n), np.tile(np.arange(n), steps)]
                            + [c.ravel() for c in comps])
    row = "%d,%d,%.17g," + ("" if traj.e is None else "%.17g") + ",%.17g,%.17g\n"
    return "k,node,s,e,p,r\n" + (row * len(table)) % tuple(table.ravel().tolist())


def trajectory_from_csv_oracle(text, h=1.0):
    """The per-line trajectory reader that np.loadtxt replaced, with one
    addition: a step or node id of at least the row count is refused before
    bincount allocates for it (such an id always leaves a gap, so the
    verdict is the same; only a huge allocation is spared)."""
    rows = []
    for ln in text.splitlines() if isinstance(text, str) else text:
        ln = ln.strip()
        if not ln or ln.startswith("k,"):
            continue
        parts = ln.split(",")
        if len(parts) != 6:
            raise ValueError(f"malformed trajectory row: {ln!r}")
        rows.append(parts)
    if not rows:
        raise ValueError("empty trajectory CSV")
    k, node, s, e, p, r = zip(*rows)
    k = np.array(list(map(int, k)))
    node = np.array(list(map(int, node)))
    if k.min() < 0 or k.max() >= len(rows) or not np.bincount(k).all():
        raise ValueError("trajectory steps must be contiguous from 0")
    if node.min() < 0 or node.max() >= len(rows) or not np.bincount(node).all():
        raise ValueError("trajectory node ids must be 0..n-1")
    blank = [v == "" for v in e]
    if any(blank) and not all(blank):
        raise ValueError("e column must be blank on every row (SIR) or on none (SEIR)")
    shape = (k.max() + 1, node.max() + 1)
    seen = np.zeros(shape, dtype=bool)
    seen[k, node] = True
    missing = np.flatnonzero(~seen.all(axis=1))
    if missing.size:
        raise ValueError(f"step {missing[0]} missing node rows")
    if len(rows) != seen.size:
        raise ValueError("trajectory has duplicate (k, node) rows")

    def grid(column):
        out = np.empty(shape)
        out[k, node] = list(map(float, column))
        if not np.isfinite(out).all():
            raise ValueError("trajectory values must be finite")
        return out

    return Trajectory(s=grid(s), p=grid(p), r=grid(r),
                      e=None if blank[0] else grid(e), h=h)


def read_int_fields_through_float(monkeypatch):
    """Make np.loadtxt read integer fields as numpy releases from 1.23 did
    until the deprecation expired: a text that int() refuses, such as '1.5'
    or '1e3', is read through float and truncated, with only a
    DeprecationWarning."""
    loadtxt = np.loadtxt

    def through_float(text):
        try:
            return int(text)
        except ValueError:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return int(float(text))

    def lenient(*args, dtype, **kwargs):
        dtype = np.dtype(dtype)
        ints = {c: through_float for c, name in enumerate(dtype.names)
                if dtype[name].kind == "i"}
        return loadtxt(*args, dtype=dtype, converters=ints, **kwargs)

    monkeypatch.setattr(np, "loadtxt", lenient)


# ---------------------------------------------------------------------------
# Malformed input: valid text, mutated.

MUTATION_TOKENS = list("0123456789+-.e,# \n") + ["nan", "inf"]


@st.composite
def mutated_text(draw, text):
    """``text`` with up to two rows dropped or duplicated, then up to three
    edits, each replacing up to two characters by one token (or nothing)."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 2))):
        if lines:
            i = draw(st.integers(0, len(lines) - 1))
            if draw(st.booleans()):
                del lines[i]
            else:
                lines.insert(i, lines[i])
    text = "\n".join(lines) + "\n"
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:pos] + draw(st.sampled_from([""] + MUTATION_TOKENS)) + text[pos + cut:]
    return text
