"""tools/crossover.py: a tiny run of both models over two copies of this tree."""

import importlib.util
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
    assert lines[2].split() == ["model", "n", "tree", "1", "ms", "tree", "2", "ms", "2/1"]
    rows = [line.split() for line in lines[3:]]
    assert [row[:2] for row in rows] == [["sir", "5"], ["sir", "7"], ["seir", "5"], ["seir", "7"]]
    assert all(float(x) > 0 for row in rows for x in row[2:])


def test_rounds_alternate_the_tree_that_runs_first(monkeypatch):
    order = []

    def run(argv, **kwargs):
        order.append(argv[argv.index("--src") + 1])
        assert argv[2:] == ["--worker", "--src", order[-1], "--nodes", "5", "--rings", "4",
                            "--steps", "80", "--density", "0.2"]
        stdout = '{"sir": {"5": 1.0}, "seir": {"5": 2.0}}'
        return type("Done", (), {"returncode": 0, "stdout": stdout, "stderr": ""})

    monkeypatch.setattr(crossover.rounds.subprocess, "run", run)
    args = crossover.parse_args(["--src", "a", "b", "--nodes", "5", "--rounds", "3"])
    rounds = crossover.rounds.run(args, crossover.__file__)
    assert order == ["a", "b", "b", "a", "a", "b"]
    assert crossover.table(rounds, [5])[1].split() == ["sir", "5", "1.00", "1.00", "1.000"]
