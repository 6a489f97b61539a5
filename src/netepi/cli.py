"""Command-line front end: simulate / diagnose / perturb / estimate.

A scenario is a single JSON document, checked against the tables below;
file paths inside it are resolved relative to the scenario file so a run is
reproducible from one directory. Exit codes: 0 success, 1 error, 2
estimation ran but the data were not identifiable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
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


def _number(v) -> bool:
    # a bool is an int to Python, not to JSON
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(v) -> bool:
    return _number(v) or isinstance(v, list) and all(map(_number, v))


# a rate may name a text file of its per-node values, one a line
_RATE = "a number or a list of numbers, or a file name"

# each JSON type a value may have, by the words that name it in an error
_TYPES = {
    "a number": _number,
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
    "a list": lambda v: isinstance(v, list),
    "a JSON object": lambda v: isinstance(v, dict),
    "any JSON value": lambda v: True,
    "'sir' or 'seir'": lambda v: v in ("sir", "seir"),
    "a number or a list of numbers": _numbers,
    _RATE: lambda v: _numbers(v) or isinstance(v, str),
}

# One table per JSON object: key -> (JSON type, required, None or the range
# (least, greatest) of its numbers). Rate bounds are left to
# dynamics.check_assumption, vector lengths to the code that uses them.
_AT_LEAST_0, _LEVEL = (0, math.inf), (0, 1)
_SCENARIO = {
    "model": ("'sir' or 'seir'", True, None),
    "n": ("an integer", True, (1, math.inf)),
    "network": ("a string", True, None),
    "layers": ("a list", False, None),
    "params": ("a JSON object", True, None),
    "initial": ("a JSON object", True, None),
    "steps": ("an integer", False, _AT_LEAST_0),
    "seed": ("any JSON value", False, None),  # the default noise seed, checked as that
    "noise": ("a JSON object", False, None),
}
_SIR_PARAMS = {"beta": (_RATE, True, None), "gamma": (_RATE, True, None),
               "h": ("a number", False, None)}
_PARAMS = {
    "sir": _SIR_PARAMS,
    "seir": {"beta_e": (_RATE, True, None), **_SIR_PARAMS, "sigma": (_RATE, True, None),
             "layer_beta_e": ("a list", False, None), "layer_beta": ("a list", False, None)},
}
_COMPARTMENTS = {"sir": ("s", "p", "r"), "seir": ("s", "e", "p", "r")}
_LEVELS = {model: {c: ("a number or a list of numbers", True, _LEVEL) for c in comps}
           for model, comps in _COMPARTMENTS.items()}
_INITIAL_SEEDS = {"seeds": ("a JSON object", True, None)}
_SEEDS = {model: {c: ("a JSON object", False, None) for c in comps[1:]}
          for model, comps in _COMPARTMENTS.items()}
# the noise model's fields, typed by their defaults; its numbers are >= 0
_NOISE = {f.name: ({bool: "a boolean", int: "an integer", float: "a number"}[type(f.default)],
                   False, None if isinstance(f.default, bool) else _AT_LEAST_0)
          for f in dataclasses.fields(estimation.NoiseModel)}


def _walk(obj, table: dict, where: str, label: str) -> dict:
    """``obj`` if it is a JSON object whose keys are all in ``table``, that
    has every required key, and whose values ``_check`` accepts; else a
    ScenarioError. ``where`` names the object, ``label`` prefixes its keys."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ScenarioError(f"{where} has unknown keys {unknown}")
    for key, (kind, required, bounds) in table.items():
        if key in obj:
            _check(obj[key], kind, bounds, f"{label} {key!r}")
        elif required:
            raise ScenarioError(f"{where} missing {key!r}")
    return obj


def _check(value, kind: str, bounds, name: str):
    """``value`` if it has the JSON type ``kind``, its numbers are finite and
    lie within ``bounds`` (if given); else a ScenarioError naming it."""
    if not _TYPES[kind](value):
        raise ScenarioError(f"{name} must be {kind}")
    xs = value if isinstance(value, list) else [value]
    if any(isinstance(x, float) and not math.isfinite(x) for x in xs):
        raise ScenarioError(f"{name} is NaN or infinite")
    if bounds and not all(bounds[0] <= x <= bounds[1] for x in xs):
        least, greatest = bounds
        raise ScenarioError(f"{name} must be " + (f">= {least}" if greatest == math.inf
                                                  else f"in [{least}, {greatest}]"))
    return value


def _rate(value, base: Path, key: str, n: int) -> np.ndarray:
    """A rate as a per-node vector; one given as a file name is the list of
    the numbers in that file, one a line."""
    name = f"parameter {key!r}"
    if isinstance(value, str):
        value = _check([float(x) for x in (base / value).read_text().split()], _RATE, None, name)
    return dynamics._as_vector(value, n, name)


def _document(path: Path) -> dict:
    """The scenario document at ``path`` checked against the tables above,
    with its step size ``h``, initial state and noise model (None without a
    ``noise`` table) filled in; none of the files it names is opened. An
    unknown or missing key, a value of the wrong JSON type, a NaN or
    infinite number, a number out of its range or a seed node outside
    0..n-1 is a ``ScenarioError`` naming it."""
    sc = _walk(json.loads(path.read_text()), _SCENARIO, "scenario", "scenario")
    for f in sc.get("layers", []):
        _check(f, "a string", None, "scenario 'layers' entry")
    p = _walk(sc["params"], _PARAMS[sc["model"]], "params", "parameter")
    for key in ("layer_beta_e", "layer_beta"):
        for x in p.get(key, []):
            _check(x, _RATE, None, f"parameter {key!r}")
    noise = _walk({"seed": sc.get("seed", 0), **sc.get("noise", {})}, _NOISE, "noise", "noise")
    return {**sc, "h": float(p.get("h", 1.0)),
            "initial": _initial(sc["initial"], sc["model"], sc["n"]),
            "noise": estimation.NoiseModel(**noise) if "noise" in sc else None}


def load_scenario(path: str | Path) -> dict:
    """Read a scenario, check it as ``_document`` does, and load the network,
    layer and rate files it names; a malformed file is a ValueError."""
    path = Path(path)
    base = path.parent
    sc = _document(path)
    model, n = sc["model"], sc["n"]
    nets = [graph.load_network((base / f).read_text(), n)
            for f in [sc["network"], *sc.get("layers", [])]]
    # one network over the loaded matrices, keeping the edge tables sorted
    # from their records
    net = graph._loaded(tuple(x.adjacency for x in nets), tuple(x.edges[0] for x in nets))
    rates = {k: tuple(_rate(x, base, k, n) for x in v) if k.startswith("layer_")
             else _rate(v, base, k, n) for k, v in sc["params"].items() if k != "h"}
    params = (dynamics.SirParams if model == "sir" else dynamics.SeirParams)(**rates, h=sc["h"])
    return {
        "model": model,
        "net": net,
        "params": params,
        "initial": sc["initial"],
        "steps": sc.get("steps", 0),
        "noise": sc["noise"],
    }


def _initial(spec: dict, model: str, n: int) -> dynamics.EpidemicState:
    """The levels of every compartment, or seeds: levels at some nodes of the
    compartments other than s, which takes the rest."""
    if "seeds" not in spec:
        levels = _walk(spec, _LEVELS[model], "initial state", "initial")
        return dynamics.EpidemicState(**{c: dynamics._as_vector(v, n, f"initial {c!r}")
                                         for c, v in levels.items()})
    seeds = _walk(spec, _INITIAL_SEEDS, "initial", "initial")["seeds"]
    vals = {c: np.zeros(n) for c in _COMPARTMENTS[model][1:]}
    for comp, levels in _walk(seeds, _SEEDS[model], "seeds", "seeds").items():
        for node, level in levels.items():
            if not (node.isdecimal() and int(node) < n):
                raise ScenarioError(f"seed node {node} out of range for n={n}")
            vals[comp][int(node)] = _check(level, "a number", _LEVEL, f"initial {comp!r} level")
    return dynamics.EpidemicState(s=1.0 - sum(vals.values()), **vals)


def cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    check = dynamics.check_assumption(sc["params"], sc["net"])
    if not check.ok:
        for v in check.violations:
            print(f"assumption violation: {v}", file=sys.stderr)
        return EXIT_ERROR
    traj = dynamics.simulate(sc["initial"], sc["params"], sc["net"], steps=sc["steps"])
    dynamics._write_trajectory(out / "trajectory.csv", traj)
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


def _inputs(args, h: float) -> tuple:
    """The trajectory of a diagnose, perturb or estimate run, read with the
    scenario's step size ``h`` (from its levels file where that matches),
    and the output directory, created."""
    traj = dynamics._read_trajectory(Path(args.trajectory), h)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return traj, out


def cmd_diagnose(args) -> int:
    sc = load_scenario(args.scenario)
    traj, out = _inputs(args, sc["params"].h)
    report = spectral.convergence_diagnostics(traj, sc["params"], sc["net"])
    (out / "lambda.csv").write_text(spectral.report_to_csv(report))
    (out / "convergence.json").write_text(spectral.report_to_json(report))
    return EXIT_OK


def cmd_perturb(args) -> int:
    # the noise needs no network: the scenario's files are left unopened
    sc = _document(Path(args.scenario))
    traj, out = _inputs(args, sc["h"])
    noise = sc["noise"]
    if noise is None:
        raise ScenarioError("scenario has no noise model")
    measured = estimation.apply_noise(traj, noise)
    dynamics._write_trajectory(out / "measured.csv", measured)
    # seed and start_k lead, the other fields follow in their order
    sidecar = {"seed": noise.seed, "start_k": noise.start_k, **dataclasses.asdict(noise)}
    (out / "noise.json").write_text(json.dumps(sidecar, indent=2))
    return EXIT_OK


def cmd_estimate(args) -> int:
    sc = load_scenario(args.scenario)
    traj, out = _inputs(args, sc["params"].h)
    if traj.kind != sc["model"]:
        raise ScenarioError(f"scenario model {sc['model']!r} does not match "
                            f"the {traj.kind!r} trajectory")
    report = estimation.estimate_pipeline(traj, sc["net"], node=args.node)
    (out / "estimate.json").write_text(estimation.report_to_json(report))
    if report.verdict is not None and not report.verdict.identifiable:
        print("data not identifiable: " + ", ".join(report.verdict.failed_conditions),
              file=sys.stderr)
        return EXIT_NOT_IDENTIFIABLE
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(prog="netepi",
                                     description="Networked SIR/SEIR simulation and estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_traj=False):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")
        if with_traj:
            p.add_argument("--trajectory", required=True, help="trajectory CSV input")

    common(sub.add_parser("simulate", help="run a scenario and write the trajectory"))
    common(sub.add_parser("diagnose", help="eigenvalue/convergence diagnostics"), with_traj=True)
    common(sub.add_parser("perturb", help="inject measurement noise"), with_traj=True)
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
    except (ValueError, OSError, OverflowError, MemoryError,
            spectral.PowerIterationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
