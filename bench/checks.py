"""Output checks for every CLI call the benchmark makes.

Each check takes the call's exit code and the files it wrote and returns a
list of failure messages (empty when the output is correct). The checks read
the outputs with their own parsers and oracles, never through netepi, so a
defect in the program cannot hide behind its own reader.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Per-node simplex tolerance the CLI promises for simulated states
# (README: "strict state validation"; validation.json "simplex_tolerance").
SUM_TOL = 1e-9
LAMBDA_TOL = 1e-8
EXACT_REL_TOL = 1e-6
# Largest spreading-matrix dimension checked with a dense eigen-solve; larger
# ones are checked with a Collatz-Wielandt bracket on the sparse form.
DENSE_EIG_MAX_DIM = 400


def read_states(path: Path) -> dict[str, np.ndarray]:
    """Parse ``k,node,s,e,p,r`` into per-compartment (K, n) arrays.

    ``e`` is absent for SIR files (blank column)."""
    with open(path) as fh:
        header = fh.readline().strip()
        first = fh.readline()
    if header != "k,node,s,e,p,r":
        raise ValueError(f"{path.name}: unexpected header {header!r}")
    has_e = first.split(",")[3] != ""
    cols = (0, 1, 2, 3, 4, 5) if has_e else (0, 1, 2, 4, 5)
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)
    k, node = data[:, 0].astype(int), data[:, 1].astype(int)
    n = int(node.max()) + 1
    steps = int(k.max()) + 1
    if data.shape[0] != steps * n or np.any(k != np.repeat(np.arange(steps), n)) \
            or np.any(node != np.tile(np.arange(n), steps)):
        raise ValueError(f"{path.name}: rows are not k-major over nodes 0..{n - 1}")
    names = ("s", "e", "p", "r") if has_e else ("s", "p", "r")
    return {name: data[:, 2 + idx].reshape(steps, n) for idx, name in enumerate(names)}


def _read(path: Path, failures: list[str]) -> dict[str, np.ndarray] | None:
    try:
        return read_states(path)
    except (OSError, ValueError) as exc:
        failures.append(f"{path.name}: unreadable ({exc})")
        return None


def _exit(rc: int, expected: int, what: str) -> list[str]:
    return [] if rc == expected else [f"{what}: exit {rc}, expected {expected}"]


def trajectory(rc: int, path: Path, n: int, steps: int) -> list[str]:
    """simulate: T+1 states of n nodes, each on the simplex within SUM_TOL."""
    failures = _exit(rc, 0, "simulate")
    if failures:
        return failures
    st = _read(path, failures)
    if st is None:
        return failures
    if st["s"].shape != (steps + 1, n):
        return [f"simulate: {st['s'].shape} states x nodes, expected {(steps + 1, n)}"]
    parts = list(st.values())
    total = sum(parts)
    if any(np.any((v < -SUM_TOL) | (v > 1 + SUM_TOL)) for v in parts):
        failures.append("simulate: compartment level outside [0, 1]")
    if np.any(np.abs(total - 1.0) > SUM_TOL):
        failures.append("simulate: compartments do not sum to 1")
    return failures


def measured(rc: int, path: Path, n: int, states: int) -> list[str]:
    """perturb: finite measurements with e, p and r in [0, 1]."""
    failures = _exit(rc, 0, "perturb")
    if failures:
        return failures
    st = _read(path, failures)
    if st is None:
        return failures
    if st["s"].shape != (states, n):
        return [f"perturb: {st['s'].shape} states x nodes, expected {(states, n)}"]
    if not all(np.all(np.isfinite(v)) for v in st.values()):
        failures.append("perturb: non-finite measurement")
    if any(np.any((st[c] < 0) | (st[c] > 1)) for c in ("e", "p", "r") if c in st):
        failures.append("perturb: e, p or r outside [0, 1]")
    return failures


def spreading_matrices(s: np.ndarray, model: str, params: dict,
                       adjacency: np.ndarray) -> np.ndarray:
    """Stacked (K, d, d) spreading matrices for the (K, n) susceptible levels
    ``s``, built from the formula documented in ``netepi.spectral``."""
    h = params["h"]
    n = s.shape[1]
    eye = np.eye(n)
    sa = s[:, :, None] * adjacency[None, :, :]
    if model == "sir":
        return eye + h * params["beta"] * sa - h * params["gamma"] * eye
    m = np.empty((s.shape[0], 2 * n, 2 * n))
    m[:, :n, :n] = eye + h * params["beta_e"] * sa - h * params["sigma"] * eye
    m[:, :n, n:] = h * params["beta"] * sa
    m[:, n:, :n] = h * params["sigma"] * eye
    m[:, n:, n:] = (1 - h * params["gamma"]) * eye
    return m


def perron_bracket(s: np.ndarray, model: str, params: dict, adjacency: np.ndarray,
                   max_iter: int = 20_000) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the Perron root of each state's spreading
    matrix, without forming it.

    For a nonnegative irreducible M and any positive x,
    min_i (Mx)_i / x_i <= rho(M) <= max_i (Mx)_i / x_i (Collatz-Wielandt);
    power iteration on the sparse form narrows the bracket.
    """
    h = params["h"]
    rows, cols = np.nonzero(adjacency)
    w = adjacency[rows, cols]
    n = s.shape[1]

    def a_dot(u):
        return np.bincount(rows, weights=w * u[cols], minlength=n)

    lo = np.empty(s.shape[0])
    hi = np.empty(s.shape[0])
    x = np.ones(n if model == "sir" else 2 * n)
    for k, sk in enumerate(s):
        for _ in range(max_iter):
            if model == "sir":
                y = x + h * (params["beta"] * sk * a_dot(x) - params["gamma"] * x)
            else:
                e, q = x[:n], x[n:]
                y = np.concatenate([
                    e + h * (sk * (params["beta_e"] * a_dot(e) + params["beta"] * a_dot(q))
                             - params["sigma"] * e),
                    h * params["sigma"] * e + (1 - h * params["gamma"]) * q])
            ratio = y / x
            lo[k], hi[k] = ratio.min(), ratio.max()
            x = y / y.sum()
            if hi[k] - lo[k] <= 0.1 * LAMBDA_TOL:
                break
    return lo, hi


def diagnose(rc: int, lambda_path: Path, traj_path: Path, model: str,
             params: dict, adjacency: np.ndarray) -> list[str]:
    """diagnose: every lambda_max agrees with an independent oracle."""
    failures = _exit(rc, 0, "diagnose")
    if failures:
        return failures
    st = _read(traj_path, failures)
    if st is None:
        return failures
    try:
        lam = np.loadtxt(lambda_path, delimiter=",", skiprows=1, usecols=1, ndmin=1)
    except (OSError, ValueError) as exc:
        return [f"diagnose: lambda.csv unreadable ({exc})"]
    s = st["s"]
    if lam.shape != (s.shape[0],):
        return [f"diagnose: {lam.size} lambda rows for {s.shape[0]} states"]
    if s.shape[1] * (1 if model == "sir" else 2) <= DENSE_EIG_MAX_DIM:
        m = spreading_matrices(s, model, params, adjacency)
        lo = hi = np.abs(np.linalg.eigvals(m)).max(axis=1)
    else:
        lo, hi = perron_bracket(s, model, params, adjacency)
        if np.any(hi - lo > LAMBDA_TOL):
            return ["diagnose: Perron bracket did not narrow below 1e-8"]
    bad = np.flatnonzero(~((lam >= lo - LAMBDA_TOL) & (lam <= hi + LAMBDA_TOL)))
    if bad.size:
        k = int(bad[0])
        failures.append(f"diagnose: lambda_max[{k}] = {float(lam[k])!r}, oracle in "
                        f"[{float(lo[k])!r}, {float(hi[k])!r}] ({bad.size} states off)")
    return failures


def estimate(rc: int, path: Path, expected_rc: int, truth: dict | None,
             exact: bool, expected_failed: tuple[str, ...] = (),
             rel_errors: list[float] | None = None) -> list[str]:
    """estimate: exit code as expected; exact recovery when the data are
    noiseless; the failed identifiability conditions when not identifiable.

    The largest relative parameter error of an identifiable estimate is
    appended to ``rel_errors``."""
    failures = _exit(rc, expected_rc, "estimate")
    if failures:
        return failures
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return [f"estimate: estimate.json unreadable ({exc})"]
    if expected_rc != 0:
        got = set(report.get("failed_conditions") or ())
        if got != set(expected_failed):
            failures.append(f"estimate: failed conditions {sorted(got)}, "
                            f"expected {sorted(expected_failed)}")
        return failures
    est = report.get("estimates", {})
    try:
        err = max(abs(float(est[k]) - v) / abs(v) for k, v in truth.items())
    except (KeyError, TypeError, ValueError) as exc:
        return [f"estimate: estimates unreadable ({exc})"]
    if rel_errors is not None:
        rel_errors.append(err)
    if exact and not err <= EXACT_REL_TOL:
        failures.append(f"estimate: noiseless relative error {err:.3g} > {EXACT_REL_TOL}")
    return failures
