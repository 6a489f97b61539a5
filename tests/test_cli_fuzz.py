"""Fuzz gate for the command line: mutated scenarios and trajectory CSVs run
through ``cli.main``. Whatever the input, the exit code is 0, 1 or 2 and no
exception or warning escapes; a refusal (exit 1) prints exactly one
``error:`` line, or from ``simulate`` only ``assumption violation:`` lines.
``simulate`` validates every state against the simplex, the initial one
before the first step, so a mutated initial state off the simplex is one
more refusal.

A trajectory that netepi wrote has a levels file beside it, which the
reading commands trust while it holds the digest of the CSV's bytes; a
corrupted, truncated or deleted levels file is one more input. So is the
edge-table sidecar netepi writes beside a network file, and whatever is
done to it, a command exits and reports as it does without one.

Sizes stay at n <= 8 and steps <= 5: every run allocates a dense n x n
adjacency, so no mutation may draw a large n.
"""

import contextlib
import copy
import io
import json
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import dynamics, graph
from netepi.cli import load_scenario, main

N, STEPS = 5, 4
NETWORK = "".join(f"{i},{(i + 1) % N},1.0\n{(i + 1) % N},{i},0.5\n" for i in range(N))
SCENARIOS = {
    "sir": {
        "model": "sir", "n": N, "network": "net.csv", "steps": STEPS, "seed": 1,
        "params": {"beta": 0.2, "gamma": [0.3] * N, "h": 1.0},
        "initial": {"s": 0.9, "p": [0.1] * N, "r": 0},
    },
    "seir": {
        "model": "seir", "n": N, "network": "net.csv", "layers": ["net.csv"], "steps": STEPS,
        "params": {"beta_e": 0.1, "beta": [0.1] * N, "sigma": 0.4, "gamma": 0.3, "h": 1.0,
                   "layer_beta_e": [0.05], "layer_beta": [[0.05] * N]},
        "initial": {"seeds": {"e": {"1": 0.02}, "p": {"1": 0.01, "3": 0.02}}},
        "noise": {"e_slope": 0.015, "x_floor": 1e-5, "start_k": 0, "param_is_std": False},
        "seed": 0,
    },
}
# JSON values of every type, with numbers too small to make a large n
NUMBERS = st.integers(-3, STEPS) | st.floats(-2, 2)
VALUES = st.one_of(NUMBERS, st.text(max_size=3), st.booleans(), st.none(),
                   st.lists(NUMBERS, max_size=3),
                   st.dictionaries(st.text(max_size=2), NUMBERS, max_size=2))
IDS = ["99999999999999999999", "9223372036854775807", "-1", "1.5", "1e0"]
LEVELS = ["nan", "", "x", "-1", "2"]


def paths(obj, prefix=()):
    """The key path of ``obj`` and of every value nested in it."""
    yield prefix
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from paths(value, prefix + (key,))


def outcome(d: Path, command: str) -> tuple:
    """The exit code and stderr lines of ``command`` on the scenario and
    trajectory in ``d``, checked: 0, 1 or 2, and a refusal (1) prints one
    ``error:`` line, or from ``simulate`` only ``assumption violation:`` lines."""
    argv = [command, "--scenario", str(d / "scenario.json"), "--out", str(d / command)]
    if command != "simulate":
        argv += ["--trajectory", str(d / "trajectory.csv")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2), (rc, lines)
    if rc == 1 and not (command == "simulate" and lines and
                        all(line.startswith("assumption violation: ") for line in lines)):
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return rc, lines


def run_all(d: Path, scenario, trajectory: str, commands):
    (d / "net.csv").write_text(NETWORK)
    (d / "scenario.json").write_text(json.dumps(scenario))
    (d / "trajectory.csv").write_text(trajectory)
    for command in commands:
        outcome(d, command)


def trajectory_text(model: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "net.csv").write_text(NETWORK)
        (d / "scenario.json").write_text(json.dumps(SCENARIOS[model]))
        sc = load_scenario(d / "scenario.json")
    return dynamics.trajectory_to_csv(
        dynamics.simulate(sc["initial"], sc["params"], sc["net"], STEPS))


TRAJECTORIES = {model: trajectory_text(model) for model in SCENARIOS}
# estimate models the base network only
MEASURED = dict(SCENARIOS["seir"], layers=[],
                params=dict(SCENARIOS["seir"]["params"], layer_beta_e=[], layer_beta=[]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(SCENARIOS)), st.data())
def test_scenario_mutations(model, data):
    doc = [copy.deepcopy(SCENARIOS[model])]  # a parent for the root as well
    kind = data.draw(st.sampled_from(["drop", "retype", "nan", "negative", "unknown"]))
    if kind == "unknown":
        objects = [p for p in paths(doc) if isinstance(reduce(getitem, p, doc), dict)]
        reduce(getitem, data.draw(st.sampled_from(objects)), doc)["unknown_key"] = 1
    else:
        path = data.draw(st.sampled_from(list(paths(doc))[2 if kind == "drop" else 1:]))
        parent = reduce(getitem, path[:-1], doc)
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw({"retype": VALUES, "nan": st.just(float("nan")),
                                          "negative": st.integers(-10**6, -1)}[kind])
    with tempfile.TemporaryDirectory() as tmp:
        run_all(Path(tmp), doc[0], TRAJECTORIES[model], ["simulate", "diagnose"])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_trajectory_mutations(data):
    text = TRAJECTORIES["seir"]
    lines = text.splitlines()
    kind = data.draw(st.sampled_from(["truncate", "drop", "duplicate", "id", "level"]))
    row = data.draw(st.integers(1, len(lines) - 1))
    if kind == "truncate":
        lines = text[:data.draw(st.integers(0, len(text) - 1))].splitlines()
    elif kind == "drop":
        del lines[row]
    elif kind == "duplicate":
        lines.insert(row, lines[row])
    else:
        fields = lines[row].split(",")
        col = data.draw(st.integers(0, 1) if kind == "id" else st.integers(2, 5))
        fields[col] = data.draw(st.sampled_from(IDS if kind == "id" else LEVELS))
        lines[row] = ",".join(fields)
    with tempfile.TemporaryDirectory() as tmp:
        run_all(Path(tmp), MEASURED, "\n".join(lines) + "\n",
                ["diagnose", "perturb", "estimate"])


def mutated(blob: bytes, kind: str, data) -> bytes | None:
    """``blob`` kept, deleted (None), truncated, with bits flipped in one
    byte, replaced by garbage or with bytes appended, as ``kind`` names."""
    if kind == "keep":
        return blob
    if kind == "delete":
        return None
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        at = data.draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) + blob[at + 1:]
    if kind == "garbage":
        return data.draw(st.binary(max_size=len(blob) + 8))
    return blob + data.draw(st.binary(min_size=1, max_size=16))


SIDECAR_MUTATIONS = st.sampled_from(["keep", "delete", "truncate", "flip", "garbage", "append"])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(SIDECAR_MUTATIONS, st.data())
def test_levels_file_mutations(kind, data):
    text = TRAJECTORIES["seir"]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        dynamics._write_trajectory(d / "trajectory.csv", dynamics.trajectory_from_csv(text))
        levels = d / "trajectory.csv.levels"
        blob = mutated(levels.read_bytes(), kind, data)
        levels.unlink()
        if blob is not None:
            levels.write_bytes(blob)
        # the same CSV bytes: the digest still matches where it was left whole
        run_all(d, MEASURED, text, ["diagnose", "perturb", "estimate"])


# a SIR scenario whose n may be smaller than the network's: then every
# command that loads the network refuses it
EDGES_SCENARIO = dict(SCENARIOS["sir"], params={"beta": 0.2, "gamma": 0.3, "h": 1.0},
                      initial={"s": 0.9, "p": 0.1, "r": 0})


@settings(max_examples=100, derandomize=True, deadline=None)
@given(SIDECAR_MUTATIONS, st.sampled_from([(EDGES_SCENARIO, N), (EDGES_SCENARIO, 3),
                                           (SCENARIOS["seir"], N)]), st.data())
def test_edges_file_mutations(kind, case, data):
    scenario, n = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "net.csv").write_text(NETWORK)
        (d / "scenario.json").write_text(json.dumps(dict(scenario, n=n)))
        (d / "trajectory.csv").write_text(TRAJECTORIES[scenario["model"]])
        edges = d / "net.csv.edges"
        graph._read_network(d / "net.csv", N)
        blob = mutated(edges.read_bytes(), kind, data)
        for command in ("simulate", "diagnose", "estimate"):
            seen = []
            # a miss writes the sidecar anew, so each run starts from its own
            for sidecar in (blob, None):
                edges.unlink(missing_ok=True)
                if sidecar is not None:
                    edges.write_bytes(sidecar)
                seen.append(outcome(d, command))
            assert seen[0] == seen[1], (command, seen)
