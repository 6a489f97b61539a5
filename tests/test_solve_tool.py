"""tools/solve.py: tiny runs over one and two copies of this tree."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("solve", ROOT / "tools" / "solve.py")
solve = importlib.util.module_from_spec(spec)
spec.loader.exec_module(solve)


def test_tiny_run_prints_the_table(capsys):
    assert solve.main(["--src", str(ROOT), str(ROOT), "--nodes", "5", "8", "--steps", "2", "4",
                       "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"tree 1: {ROOT}", f"tree 2: {ROOT}"]
    assert lines[2].split() == ["n", "T", "tree", "1", "ms", "min-max", "tree", "2", "ms",
                                "min-max", "2/1", "won"]
    rows = [line.split() for line in lines[3:]]
    assert [row[:2] for row in rows] == [["5", "2"], ["5", "4"], ["8", "2"], ["8", "4"]]
    for row in rows:
        for median, spread in (row[2:4], row[4:6]):
            low, high = map(float, spread.split("-"))
            assert 0 < low <= float(median) <= high
        assert float(row[6]) > 0 and row[7] in ("0/2", "1/2", "2/2")


def test_worker_times_the_pipeline_on_windows_of_t_transitions(monkeypatch):
    # every call is the network-wide estimate on measurements of --steps
    # transitions, one untimed and then one per ring
    args = solve.parse_args(["--src", str(ROOT), "--nodes", "6", "--steps", "3", "5",
                             "--worker"])
    monkeypatch.setattr(sys, "path", [str(ROOT / "src"), str(ROOT / "bench"), *sys.path])
    from netepi import estimation
    calls, run = [], estimation.estimate_pipeline

    def recorded(measured, net, *rest):
        calls.append((measured.transitions, net.n, rest))
        return run(measured, net, *rest)

    monkeypatch.setattr(estimation, "estimate_pipeline", recorded)
    monkeypatch.setattr(sys.modules["netepi"], "estimate_pipeline", recorded)
    times = solve.worker(args)
    assert set(times) == {6} and set(times[6]) == {3, 5}
    assert calls == [(3, 6, ())] * 3 + [(5, 6, ())] * 3


def test_table_gives_each_trees_spread_and_the_rounds_won():
    def result(ms):
        return {"5": {"2": ms, "4": 1.0}}

    rounds = [[result(a), result(b)] for a, b in ((1.0, 0.5), (3.0, 4.0), (2.0, 1.0))]
    lines = solve.table(rounds, [5], [2, 4])
    assert lines[1].split() == ["5", "2", "2.00", "1.00-3.00", "1.00", "0.50-4.00", "0.500", "2/3"]
    assert lines[2].split() == ["5", "4", "1.00", "1.00-1.00", "1.00", "1.00-1.00", "1.000", "0/3"]
    single = solve.table([[r[0]] for r in rounds], [5], [2])
    assert single[0].split() == ["n", "T", "tree", "1", "ms", "min-max"]
    assert single[1].split() == ["5", "2", "2.00", "1.00-3.00"]
