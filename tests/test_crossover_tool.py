"""tools/crossover.py: tiny runs of each model over one and two copies of this tree."""

import importlib.util
import logging
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("crossover", ROOT / "tools" / "crossover.py")
crossover = importlib.util.module_from_spec(spec)
spec.loader.exec_module(crossover)


def test_tiny_run_prints_the_table(capsys):
    assert crossover.main(["--src", str(ROOT), str(ROOT), "--nodes", "5", "7", "--rounds", "2",
                           "--rings", "1", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"tree 1: {ROOT}", f"tree 2: {ROOT}"]
    assert lines[2].split() == ["model", "n", "tree", "1", "ms", "min-max", "tree", "2", "ms",
                                "min-max", "2/1", "won"]
    rows = [line.split() for line in lines[3:]]
    assert [row[:2] for row in rows] == [[model, n] for model in ("sir", "seir", "seir-node")
                                         for n in ("5", "7")]
    for row in rows:
        for median, spread in (row[2:4], row[4:6]):
            low, high = map(float, spread.split("-"))
            assert 0 < low <= float(median) <= high
        assert float(row[6]) > 0 and row[7] in ("0/2", "1/2", "2/2")


def test_per_node_row_keeps_the_two_stage_chain(caplog):
    # the worker's seir row solves the one-stage chain, its seir-node row the
    # two-stage one
    args = crossover.parse_args(["--src", str(ROOT), "--nodes", "6", "--rings", "1", "--steps",
                                 "3", "--worker"])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        with caplog.at_level(logging.DEBUG, logger="netepi"):
            times = crossover.worker(args)
    finally:
        del sys.path[:2]
    assert set(times) == {"sir", "seir", "seir-node"}
    solves = [r.getMessage() for r in caplog.records if r.name == "netepi.spectral"]
    # one untimed and one timed call per model, in the order of MODELS
    assert [m.split(",")[0] for m in solves] == ["perron solve: 1-stage chain"] * 4 + [
        "perron solve: 2-stage chain"] * 2


def test_rounds_alternate_the_tree_that_runs_first(monkeypatch):
    order = []

    def run(argv, **kwargs):
        order.append(argv[argv.index("--src") + 1])
        assert argv[2:] == ["--worker", "--src", order[-1], "--nodes", "5", "--rings", "4",
                            "--steps", "80", "--density", "0.2"]
        stdout = '{"sir": {"5": 1.0}, "seir": {"5": 2.0}, "seir-node": {"5": 3.0}}'
        return type("Done", (), {"returncode": 0, "stdout": stdout, "stderr": ""})

    monkeypatch.setattr(crossover.rounds.subprocess, "run", run)
    args = crossover.parse_args(["--src", "a", "b", "--nodes", "5", "--rounds", "3"])
    rounds = crossover.rounds.run(args, crossover.__file__)
    assert order == ["a", "b", "b", "a", "a", "b"]
    assert crossover.table(rounds, [5])[1].split() == ["sir", "5", "1.00", "1.00-1.00", "1.00",
                                                       "1.00-1.00", "1.000", "0/3"]


def test_table_gives_each_trees_spread_and_the_rounds_won():
    def result(sir):
        return {"sir": {"5": sir}, "seir": {"5": 1.0}, "seir-node": {"5": 1.0}}

    rounds = [[result(a), result(b)] for a, b in ((1.0, 0.5), (3.0, 4.0), (2.0, 1.0))]
    assert crossover.table(rounds, [5])[1].split() == ["sir", "5", "2.00", "1.00-3.00", "1.00",
                                                       "0.50-4.00", "0.500", "2/3"]
    single = crossover.table([[r[0]] for r in rounds], [5])
    assert single[0].split() == ["model", "n", "tree", "1", "ms", "min-max"]
    assert single[1].split() == ["sir", "5", "2.00", "1.00-3.00"]
