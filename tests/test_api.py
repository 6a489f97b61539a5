"""The public API, pinned: a removed name left behind, a per-model twin
added back, or a new option, fails here."""

import ast
import types
from pathlib import Path

import pytest

import netepi
from netepi import dynamics, estimation, graph, spectral

ALL = {
    graph: {"Network", "NetworkError", "load_network", "is_irreducible"},
    dynamics: {"SirParams", "SeirParams", "EpidemicState", "Trajectory",
               "AssumptionViolation", "AssumptionReport", "AssumptionError",
               "StateInvariantError", "check_assumption", "step", "simulate",
               "trajectory_to_csv", "trajectory_from_csv"},
    spectral: {"SpreadingMatrix", "ConvergenceReport", "PowerIterationError",
               "build_spreading_matrix", "dominant_eigenvalue", "convergence_diagnostics",
               "report_to_csv", "report_to_json"},
    estimation: {"RegressionSystem", "IdentifiabilityVerdict", "EstimateReport",
                 "NoiseModel", "check_identifiability", "build_regression",
                 "solve_least_squares", "apply_noise", "estimate_pipeline",
                 "report_to_json"},
}

PACKAGE = {
    "Network", "load_network", "is_irreducible",
    "SirParams", "SeirParams", "EpidemicState", "Trajectory", "check_assumption",
    "step", "simulate", "trajectory_to_csv", "trajectory_from_csv",
    "SpreadingMatrix", "ConvergenceReport", "build_spreading_matrix",
    "dominant_eigenvalue", "convergence_diagnostics",
    "RegressionSystem", "IdentifiabilityVerdict", "EstimateReport", "NoiseModel",
    "check_identifiability", "build_regression", "solve_least_squares",
    "apply_noise", "estimate_pipeline",
}

# every parameter with a default, over every function and method in the package
OPTIONS = {
    "cli.common(with_traj)", "cli.main(argv)",
    "dynamics.simulate(strict)", "dynamics.trajectory_from_csv(h)",
    "estimation.check_identifiability(node)", "estimation.build_regression(node)",
    "estimation.estimate_pipeline(node)",
}


@pytest.mark.parametrize("module", list(ALL), ids=lambda m: m.__name__)
def test_module_all(module):
    assert set(module.__all__) == ALL[module]
    assert len(module.__all__) == len(ALL[module])
    for name in module.__all__:
        assert getattr(module, name).__module__ == module.__name__


def test_package_exports():
    public = {name for name, value in vars(netepi).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == PACKAGE
    for name in PACKAGE:
        assert getattr(netepi, name) is getattr(
            next(m for m in ALL if name in m.__all__), name)


def test_no_new_options():
    found = set()
    for path in Path(netepi.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found |= {f"{path.stem}.{node.name}({a.arg})" for a in named}
    assert found == OPTIONS
