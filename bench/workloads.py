"""Seeded benchmark workloads.

Each workload writes its inputs (networks, scenario JSON files) under a
directory and returns the jobs one pass runs: a job is one scenario's chain
of CLI calls, each with the check its output must pass. The program sees
only these generated files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from netepi import graph

# Noise read as a standard deviation (the reading criterion 4 passes with).
NOISE = {"e_slope": 0.015, "e_floor": 1e-4, "x_slope": 0.008, "x_floor": 1e-5,
         "param_is_std": True}


@dataclass
class Step:
    """One timed CLI call, its output check, and an optional untimed
    benchmark-side step run after the check (e.g. cutting an excerpt)."""

    command: str
    argv: list[str]
    check: Callable[[int], list[str]]
    then: Callable[[], None] | None = None


@dataclass
class Job:
    name: str
    steps: list[Step]
    # counted in the per-scenario latency percentiles
    scenario: bool = True


@dataclass
class Inputs:
    jobs: list[Job]
    warmup: list[Job]
    # Largest relative parameter error of each identifiable estimate, appended
    # by the estimate checks as jobs run.
    rel_errors: list[float] = field(default_factory=list)


def ring_network(rng: np.random.Generator, n: int, extra_density: float) -> np.ndarray:
    """Directed ring (node j influences j+1) plus random extra edges, with
    weights in [0.2, 1); irreducible by construction, confirmed by netepi."""
    a = np.zeros((n, n))
    mask = rng.random((n, n)) < extra_density
    np.fill_diagonal(mask, False)
    a[mask] = rng.uniform(0.2, 1.0, int(mask.sum()))
    ring = np.arange(n)
    a[(ring + 1) % n, ring] = rng.uniform(0.2, 1.0, n)
    if not graph.is_irreducible(a):
        raise RuntimeError("generated network is not irreducible")
    return a


def write_network(path: Path, a: np.ndarray) -> None:
    rows, cols = np.nonzero(a)
    path.write_text("".join(f"{i},{j},{w!r}\n" for i, j, w in
                            zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())))


def write_scenario(path: Path, model: str, n: int, params: dict, seeds: dict,
                   steps: int, noise: dict | None = None, seed: int = 0,
                   layers: tuple[str, ...] = (), network: str = "net.csv") -> Path:
    sc = {"model": model, "n": n, "network": network, "params": params,
          "initial": {"seeds": seeds}, "steps": steps, "seed": seed}
    if noise is not None:
        sc["noise"] = noise
    if layers:
        sc["layers"] = list(layers)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(sc, indent=1))
    return path


def cli(command: str, scenario: Path, out: Path, check: Callable[[int], list[str]],
        trajectory: Path | None = None, then: Callable[[], None] | None = None) -> Step:
    argv = [command, "--scenario", str(scenario), "--out", str(out)]
    if trajectory is not None:
        argv += ["--trajectory", str(trajectory)]
    return Step(command, argv, check, then)


def _seeds(rng: np.random.Generator, n: int, comps: tuple[str, ...], count: int) -> dict:
    nodes = rng.choice(n, size=count * len(comps), replace=False).tolist()
    return {c: {str(nodes[idx * count + j]): float(rng.uniform(0.005, 0.03))
                for j in range(count)} for idx, c in enumerate(comps)}


def _grid(idx: int) -> np.ndarray:
    """Point ``idx`` of a 4-d Kronecker sequence in [0, 1)^4: rates that
    depend on the scenario index only, so every seed gets the same spread of
    epidemic sizes (late, s-depleted states are where power iteration is
    slow) and the seed varies networks, initial seeds and noise."""
    return (idx * np.array([0.6180339887, 0.4142135624, 0.7320508076, 0.2360679775])) % 1.0


def _seir_params(u: np.ndarray, rowmax: float, spread: float = 1.0) -> dict:
    return {"beta_e": spread * (0.2 + 0.15 * u[0]) / rowmax,
            "beta": spread * (0.3 + 0.15 * u[1]) / rowmax,
            "sigma": 0.3 + 0.3 * u[2], "gamma": 0.15 + 0.2 * u[3], "h": 1.0}


def _truth(params: dict, model: str) -> dict:
    names = ("beta", "gamma") if model == "sir" else ("beta_e", "beta", "sigma", "gamma")
    return {k: params[k] for k in names}


def _sim_job(name: str, d: Path, sc: Path, model: str, params: dict, a: np.ndarray,
             n: int, steps: int, noise: dict | None, inputs: Inputs,
             diagnose: bool = True, estimate: bool = True) -> Job:
    """simulate, then diagnose and estimate on the trajectory; with a noise
    model the estimate runs on perturbed measurements instead."""
    out = d / "out"
    traj, meas = out / "trajectory.csv", out / "measured.csv"
    steps_ = [cli("simulate", sc, out, lambda rc: checks.trajectory(rc, traj, n, steps))]
    if diagnose:
        steps_.append(cli("diagnose", sc, out, lambda rc: checks.diagnose(
            rc, out / "lambda.csv", traj, model, params, a), trajectory=traj))
    if noise is not None:
        states = steps + 1 - noise["start_k"]
        steps_.append(cli("perturb", sc, out, lambda rc: checks.measured(rc, meas, n, states),
                        trajectory=traj))
    if estimate:
        exact = noise is None
        steps_.append(cli("estimate", sc, out, lambda rc: checks.estimate(
            rc, out / "estimate.json", 0, _truth(params, model), exact,
            rel_errors=inputs.rel_errors), trajectory=traj if exact else meas))
    return Job(name, steps_)


SWEEP_SCENARIOS = 120
SWEEP_STEPS = 80
BLIND_JOBS = 12
BLIND_N = 20
BLIND_STEPS = 25
BLIND_FAILED = ("e_nonzero", "g_pair_nonproportional")


def sweep_small(root: Path, seed: int) -> Inputs:
    """120 small scenarios (n = 6..20, each size eight times, 80 steps): a
    third SIR through simulate/diagnose/estimate, the rest SEIR through
    simulate/diagnose/perturb/estimate, and 8 SEIR with one transport layer
    through simulate/perturb. Sizes and kinds follow the index so every seed
    has the same mix and rates; the seed draws networks, initial seeds and
    noise.
    Twelve blind-exposed jobs are spread through the list; they are not
    scenarios of the sweep and stay out of the latency percentiles."""
    inputs = Inputs([], [])
    for idx in range(SWEEP_SCENARIOS):
        rng = np.random.default_rng([seed, idx])
        n = 6 + (11 * idx) % 15  # 11 is prime to 15: every size, for SIR and SEIR alike
        d = root / f"s{idx:03d}"
        d.mkdir(parents=True)
        a = ring_network(rng, n, 0.2)
        write_network(d / "net.csv", a)
        rowmax = a.sum(axis=1).max()
        sc = d / "scenario.json"
        u = _grid(idx)
        if idx % 3 == 0:
            params = {"beta": (0.5 + 0.4 * u[0]) / rowmax, "gamma": 0.15 + 0.2 * u[3], "h": 1.0}
            write_scenario(sc, "sir", n, params, _seeds(rng, n, ("p",), 2), SWEEP_STEPS)
            job = _sim_job(f"sir-{idx}", d, sc, "sir", params, a, n, SWEEP_STEPS, None, inputs)
        else:
            layered = idx % 15 == 2
            params = _seir_params(u, rowmax, 0.8 if layered else 1.0)
            noise = dict(NOISE, start_k=5)
            layers = ()
            if layered:
                layer = ring_network(rng, n, 0.1)
                write_network(d / "layer.csv", layer)
                layers = ("layer.csv",)
                params["layer_beta_e"] = [0.08 / layer.sum(axis=1).max()]
                params["layer_beta"] = [0.08 / layer.sum(axis=1).max()]
            write_scenario(sc, "seir", n, params, _seeds(rng, n, ("e", "p"), 1), SWEEP_STEPS,
                           noise, int(rng.integers(2**31)), layers)
            job = _sim_job(f"seir-{idx}", d, sc, "seir", params, a, n, SWEEP_STEPS, noise,
                           inputs, diagnose=not layered, estimate=not layered)
        inputs.jobs.append(job)
        if idx % (SWEEP_SCENARIOS // BLIND_JOBS) == 4:
            b = idx // (SWEEP_SCENARIOS // BLIND_JOBS)
            inputs.jobs.append(_blind_job(root / f"blind{b}", np.random.default_rng([seed, SWEEP_SCENARIOS + b])))
    # one scenario of each kind: SIR, SEIR, SEIR with a layer
    inputs.warmup = inputs.jobs[:3]
    return inputs


def _blind_job(d: Path, rng: np.random.Generator) -> Job:
    """Network-wide SEIR estimate on data whose exposed column is all zero.

    An SIR scenario (n = 20, T = 25) is simulated; its states, with e = 0,
    are perturbed on p and r only and estimated as SEIR, which must exit 2
    with exactly BLIND_FAILED. No g pair is non-proportional, so the
    identifiability check scans all (nT)^2 = 250k pairs."""
    n, steps = BLIND_N, BLIND_STEPS
    d.mkdir(parents=True)
    a = ring_network(rng, n, 0.2)
    write_network(d / "net.csv", a)
    rowmax = a.sum(axis=1).max()
    sir = write_scenario(d / "sir.json", "sir", n,
                         {"beta": rng.uniform(0.6, 0.9) / rowmax,
                          "gamma": rng.uniform(0.2, 0.3), "h": 1.0},
                         _seeds(rng, n, ("p",), 2), steps)
    seir = write_scenario(d / "seir.json", "seir", n, _seir_params(rng.random(4), rowmax), {}, steps,
                          dict(NOISE, e_slope=0.0, e_floor=0.0, start_k=0),
                          int(rng.integers(2**31)))
    out = d / "out"
    traj, blind, meas = out / "trajectory.csv", d / "blind.csv", out / "measured.csv"

    def write_blind():
        lines = traj.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        blind.write_text(lines[0] + "\n" + "".join(
            f"{r[0]},{r[1]},{r[2]},0,{r[4]},{r[5]}\n" for r in rows))

    return Job(f"blind-{d.name}", scenario=False, steps=[
        cli("simulate", sir, out, lambda rc: checks.trajectory(rc, traj, n, steps),
            then=write_blind),
        cli("perturb", seir, out, lambda rc: checks.measured(rc, meas, n, steps + 1),
            trajectory=blind),
        cli("estimate", seir, out, lambda rc: checks.estimate(
            rc, out / "estimate.json", 2, None, False, BLIND_FAILED), trajectory=meas),
    ])


METRO_N = 2000
METRO_STEPS = 35
METRO_EXCERPT = 2


def metro_large(root: Path, seed: int) -> Inputs:
    """One SEIR scenario on an n = 2000 network with ~24k edges, T = 35:
    simulate, perturb, estimate on the measurements, then diagnose on a
    2-state excerpt of the trajectory (the fewest diagnose accepts; a full
    diagnose at this size takes minutes). A short scenario keeps a pass near
    six seconds, so a run repeats it often enough for medians over passes."""
    rng = np.random.default_rng(seed)
    n, steps = METRO_N, METRO_STEPS
    root.mkdir(parents=True)
    a = ring_network(rng, n, 22_000 / n ** 2)
    write_network(root / "net.csv", a)
    rowmax = a.sum(axis=1).max()
    params = {"beta_e": rng.uniform(0.25, 0.35) / rowmax,
              "beta": rng.uniform(0.45, 0.55) / rowmax,
              "sigma": rng.uniform(0.35, 0.45), "gamma": rng.uniform(0.18, 0.22), "h": 1.0}
    noise = dict(NOISE, start_k=5)
    d = root / "m0"
    sc = write_scenario(d / "scenario.json", "seir", n, params,
                        _seeds(rng, n, ("e",), 20), steps, noise,
                        int(rng.integers(2**31)), network="../net.csv")
    inputs = Inputs([], [])
    inputs.jobs.append(_metro_job(d, sc, params, a, noise, inputs))
    inputs.warmup = [Job("metro-warmup", inputs.jobs[0].steps[:1])]
    return inputs


def _metro_job(d: Path, sc: Path, params: dict, a: np.ndarray, noise: dict,
               inputs: Inputs) -> Job:
    n, steps = METRO_N, METRO_STEPS
    out = d / "out"
    traj, meas, excerpt = out / "trajectory.csv", out / "measured.csv", d / "excerpt.csv"

    def cut_excerpt():
        with open(traj) as src:
            head = [src.readline() for _ in range(1 + METRO_EXCERPT * n)]
        excerpt.write_text("".join(head))

    return Job(d.name, [
        cli("simulate", sc, out, lambda rc: checks.trajectory(rc, traj, n, steps),
            then=cut_excerpt),
        cli("perturb", sc, out, lambda rc: checks.measured(
            rc, meas, n, steps + 1 - noise["start_k"]), trajectory=traj),
        cli("estimate", sc, out, lambda rc: checks.estimate(
            rc, out / "estimate.json", 0, _truth(params, "seir"), False,
            rel_errors=inputs.rel_errors), trajectory=meas),
        cli("diagnose", sc, out, lambda rc: checks.diagnose(
            rc, out / "lambda.csv", excerpt, "seir", params, a), trajectory=excerpt),
    ])


WORKLOADS: dict[str, Callable[[Path, int], Inputs]] = {
    "sweep-small": sweep_small,
    "metro-large": metro_large,
}

# How much slower each workload's calls run while the shared host is in its
# slow state (bench/README.md, "Noise"), measured on the unchanged program:
# every sweep-small call about 1.6; on metro-large simulate 1.4, estimate 1.5,
# perturb and diagnose (memory-bound) 1.1, weighted by their times 1.2.
SLOW_FACTORS = {"sweep-small": 1.6, "metro-large": 1.2}
