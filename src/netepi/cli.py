"""Command-line front end: simulate / diagnose / perturb / estimate.

A scenario is a single JSON document; file paths inside it are resolved
relative to the scenario file so a run is reproducible from one directory.
Exit codes: 0 success, 1 error, 2 estimation ran but the data were not
identifiable.

Scenario schema (SEIR shown; SIR omits beta_e/sigma and the e seeds):

    {
      "model": "seir",
      "n": 20,
      "network": "net.csv",            // edge-list, or "layers": [...] extras
      "params": {"beta_e": 0.04, "beta": 0.06, "sigma": 0.4,
                 "gamma": 0.3, "h": 1.0},
      "initial": {"seeds": {"e": {"1": 0.02, "2": 0.03}, "p": {"1": 0.01}}},
      "steps": 100,
      "noise": {"e_slope": 0.015, "e_floor": 0.0001,
                "x_slope": 0.008, "x_floor": 0.00001,
                "seed": 0, "start_k": 14},
      "seed": 0
    }

Parameter values may be scalars, per-node lists, or a path to a text file
with one value per line. "initial" may instead give explicit "s"/"e"/"p"/"r"
lists.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import dynamics, estimation, graph, spectral

log = logging.getLogger("netepi")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_IDENTIFIABLE = 2


class ScenarioError(ValueError):
    pass


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    return value


def _require(mapping, key: str, where: str):
    if key not in _object(mapping, where):
        raise ScenarioError(f"{where} missing {key!r}")
    return mapping[key]


def _finite(name: str, value):
    if not np.all(np.isfinite(value)):
        raise ScenarioError(f"{name} is NaN or infinite")
    return value


def _resolve(value, base: Path, n: int, name: str) -> np.ndarray:
    if isinstance(value, str):
        path = base / value
        arr = np.array([float(x) for x in path.read_text().split()])
    else:
        arr = np.asarray(value, dtype=float) if isinstance(value, list) else np.full(n, float(value))
    return _finite(f"parameter {name!r}", arr)


def load_scenario(path: str | Path) -> dict:
    """Read and check a scenario: a missing key, an "initial", "seeds" or
    "noise" value that is not a JSON object, a NaN or infinite parameter or
    initial level, a seed node outside 0..n-1 or an unknown noise key is a
    ``ScenarioError`` naming it."""
    path = Path(path)
    sc = json.loads(path.read_text())
    base = path.parent
    model = _require(sc, "model", "scenario")
    if model not in ("sir", "seir"):
        raise ScenarioError("scenario 'model' must be 'sir' or 'seir'")
    n = int(_require(sc, "n", "scenario"))
    net_path = base / _require(sc, "network", "scenario")
    if not net_path.exists():
        raise ScenarioError(f"network file not found: {net_path}")
    with open(net_path) as fh:
        layers = []
        for lp in sc.get("layers", []):
            lpath = base / lp
            if not lpath.exists():
                raise ScenarioError(f"layer file not found: {lpath}")
            layers.append(graph.load_network(lpath.read_text(), n).adjacency)
        net = graph.load_network(fh, n)
        if layers:
            net = graph.Network(net.adjacency, layers=tuple(layers))
    p = _require(sc, "params", "scenario")
    needed = ("beta", "gamma") if model == "sir" else ("beta_e", "beta", "sigma", "gamma")
    rates = {k: _resolve(_require(p, k, "params"), base, n, k) for k in needed}
    h = _finite("parameter 'h'", float(p.get("h", 1.0)))
    if model == "sir":
        params = dynamics.SirParams(**rates, h=h)
    else:
        layer_rates = {k: tuple(_resolve(v, base, n, k) for v in p.get(k, []))
                       for k in ("layer_beta_e", "layer_beta")}
        params = dynamics.SeirParams(**rates, h=h, **layer_rates)
    initial = _build_initial(_object(sc.get("initial", {}), "scenario 'initial'"), model, n)
    noise = None
    if "noise" in sc:
        nz = dict(_object(sc["noise"], "scenario 'noise'"))
        nz.setdefault("seed", sc.get("seed", 0))
        unknown = set(nz) - {f.name for f in dataclasses.fields(estimation.NoiseModel)}
        if unknown:
            raise ScenarioError(f"noise has unknown keys {sorted(unknown)}")
        noise = estimation.NoiseModel(**nz)
    return {
        "model": model,
        "net": net,
        "params": params,
        "initial": initial,
        "steps": int(sc.get("steps", 0)),
        "noise": noise,
    }


def _build_initial(spec: dict, model: str, n: int) -> dynamics.EpidemicState:
    comps = ("s", "p", "r") if model == "sir" else ("s", "e", "p", "r")
    if "seeds" in spec:
        vals = {c: np.zeros(n) for c in comps if c != "s"}
        for comp, seeds in _object(spec["seeds"], "initial 'seeds'").items():
            if comp not in vals:
                raise ScenarioError(f"cannot seed compartment {comp!r} for model {model}")
            for node, level in _object(seeds, f"seeds {comp!r}").items():
                if not 0 <= int(node) < n:
                    raise ScenarioError(f"seed node {node} out of range for n={n}")
                vals[comp][int(node)] = _finite(f"initial {comp!r} level", float(level))
        s = 1.0 - sum(vals.values())
        return dynamics.EpidemicState(s=s, **{c: vals[c] for c in vals})
    arrays = {c: np.asarray(_require(spec, c, "initial state"), dtype=float) for c in comps}
    for c, arr in arrays.items():
        _finite(f"initial {c!r}", arr)
    e = arrays.pop("e", None)
    return dynamics.EpidemicState(e=e, **arrays)


def cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    check = dynamics.check_assumption(sc["params"], sc["net"])
    if not check.ok:
        for v in check.violations:
            print(f"assumption violation: {v}", file=sys.stderr)
        return EXIT_ERROR
    traj = dynamics.simulate(sc["initial"], sc["params"], sc["net"],
                             steps=sc["steps"], strict=args.strict)
    (out / "trajectory.csv").write_text(dynamics.trajectory_to_csv(traj))
    summary = {
        "model": sc["model"],
        "steps": sc["steps"],
        "h": traj.h,
        "assumptions_ok": True,
        "simplex_tolerance": dynamics.SUM_TOL,
        "states": len(traj),
    }
    (out / "validation.json").write_text(json.dumps(summary, indent=2))
    log.info("wrote %s", out / "trajectory.csv")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    sc = load_scenario(args.scenario)
    traj = dynamics.trajectory_from_csv(Path(args.trajectory).read_text(),
                                        h=sc["params"].h)
    report = spectral.convergence_diagnostics(traj, sc["params"], sc["net"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "lambda.csv").write_text(spectral.report_to_csv(report))
    (out / "convergence.json").write_text(spectral.report_to_json(report))
    return EXIT_OK


def cmd_perturb(args) -> int:
    sc = load_scenario(args.scenario)
    if sc["noise"] is None:
        print("scenario has no noise model", file=sys.stderr)
        return EXIT_ERROR
    noise = sc["noise"]
    if args.seed is not None:
        noise = dataclasses.replace(noise, seed=args.seed)
    traj = dynamics.trajectory_from_csv(Path(args.trajectory).read_text(),
                                        h=sc["params"].h)
    measured = estimation.apply_noise(traj, noise)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "measured.csv").write_text(dynamics.trajectory_to_csv(measured))
    sidecar = {
        "seed": noise.seed,
        "start_k": noise.start_k,
        "e_slope": noise.e_slope,
        "e_floor": noise.e_floor,
        "x_slope": noise.x_slope,
        "x_floor": noise.x_floor,
        "param_is_std": noise.param_is_std,
    }
    (out / "noise.json").write_text(json.dumps(sidecar, indent=2))
    return EXIT_OK


def cmd_estimate(args) -> int:
    sc = load_scenario(args.scenario)
    traj = dynamics.trajectory_from_csv(Path(args.trajectory).read_text(),
                                        h=sc["params"].h)
    if traj.kind != sc["model"]:
        raise ScenarioError(f"scenario model {sc['model']!r} does not match "
                            f"the {traj.kind!r} trajectory")
    report = estimation.estimate_pipeline(traj, sc["net"], node=args.node)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "estimate.json").write_text(estimation.report_to_json(report))
    if report.verdict is not None and not report.verdict.identifiable:
        print("data not identifiable: " + ", ".join(report.verdict.failed_conditions),
              file=sys.stderr)
        return EXIT_NOT_IDENTIFIABLE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netepi",
                                     description="Networked SIR/SEIR simulation and estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_traj=False):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")
        if with_traj:
            p.add_argument("--trajectory", required=True, help="trajectory CSV input")

    sim = sub.add_parser("simulate", help="run a scenario and write the trajectory")
    common(sim)
    strict = sim.add_mutually_exclusive_group()
    strict.add_argument("--strict", dest="strict", action="store_true", default=True)
    strict.add_argument("--no-strict", dest="strict", action="store_false")
    common(sub.add_parser("diagnose", help="eigenvalue/convergence diagnostics"), with_traj=True)
    perturb = sub.add_parser("perturb", help="inject measurement noise")
    common(perturb, with_traj=True)
    perturb.add_argument("--seed", type=int, default=None, help="override the noise seed")
    est = sub.add_parser("estimate", help="recover spread parameters")
    common(est, with_traj=True)
    est.add_argument("--node", type=int, default=None,
                     help="estimate per-node parameters for this node only")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("NETEPI_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "diagnose": cmd_diagnose,
        "perturb": cmd_perturb,
        "estimate": cmd_estimate,
    }
    try:
        return handlers[args.command](args)
    except (ScenarioError, ValueError, OSError, json.JSONDecodeError,
            spectral.PowerIterationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
