"""tools/rounds.py: the alternating rounds that crossover.py and solve.py share."""

import argparse
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("rounds", ROOT / "tools" / "rounds.py")
rounds = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rounds)


def parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--nodes", nargs="+", type=int)
    return rounds.parse_args(p, argv, rounds=4)


def fake_run(calls, returncode=0, stdout='{"x": 1}\n', stderr=""):
    def run(argv, **kwargs):
        calls.append((argv, kwargs))
        return type("Done", (), {"returncode": returncode, "stdout": stdout, "stderr": stderr})
    return run


def test_rounds_alternate_the_tree_that_runs_first(monkeypatch):
    calls = []
    monkeypatch.setattr(rounds.subprocess, "run", fake_run(calls, stdout='noise\n{"x": 1}\n'))
    got = rounds.run(parse(["--src", "a", "b", "--nodes", "5", "7"]), "tool.py")
    assert [argv[argv.index("--src") + 1] for argv, _ in calls] == list("abbaabba")
    assert calls[0][0][1:] == ["tool.py", "--worker", "--src", "a", "--nodes", "5", "7"]
    assert all(kw["env"]["OPENBLAS_NUM_THREADS"] == "1" for _, kw in calls)
    assert got == [[{"x": 1}, {"x": 1}]] * 4


def test_a_failed_worker_stops_the_run_with_its_stderr(monkeypatch):
    calls = []
    monkeypatch.setattr(rounds.subprocess, "run",
                        fake_run(calls, returncode=3, stdout="", stderr="Traceback: boom\n"))
    with pytest.raises(SystemExit) as exc:
        rounds.run(parse(["--src", "a", "b"]), "tool.py")
    assert str(exc.value) == "error: a exited 3:\nTraceback: boom\n"
    assert len(calls) == 1


def test_three_trees_are_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        parse(["--src", "a", "b", "c"])
    assert exc.value.code == 2
    assert "--src takes one or two trees" in capsys.readouterr().err


def test_main_prints_the_trees_then_the_table(monkeypatch, capsys):
    monkeypatch.setattr(rounds.subprocess, "run", fake_run([]))
    args = parse(["--src", "a", "--rounds", "2"])
    assert rounds.main(args, "tool.py", None, lambda got: [f"{len(got)} x {got[0]}"]) == 0
    assert capsys.readouterr().out == "tree 1: a\n2 x [{'x': 1}]\n"


def test_the_worker_imports_its_tree_and_prints_json(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(rounds.sys, "path", list(rounds.sys.path))
    args = parse(["--worker", "--src", str(tmp_path)])
    assert rounds.main(args, "tool.py", lambda a: {"path": rounds.sys.path[:2]}, None) == 0
    assert capsys.readouterr().out == (
        f'{{"path": ["{tmp_path.resolve() / "src"}", "{ROOT / "bench"}"]}}\n')
