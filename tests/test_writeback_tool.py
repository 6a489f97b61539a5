"""tools/writeback.py: a tiny run over two copies of this tree."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("writeback", ROOT / "tools" / "writeback.py")
writeback = importlib.util.module_from_spec(spec)
spec.loader.exec_module(writeback)


def test_tiny_run_prints_the_table(capsys):
    assert writeback.main(["--src", str(ROOT), str(ROOT), "--workload", "sweep-small",
                           "--rounds", "1", "--passes", "2", "--jobs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"tree 1: {ROOT}", f"tree 2: {ROOT}",
                         f"{'tree':6s} {'MB/pass':>10s} {'s/pass':>10s} {'failed':>7s}"]
    rows = [line.split() for line in lines[3:]]
    assert [row[0] for row in rows] == ["1", "2"]
    assert all(float(row[1]) >= 0 and float(row[2]) > 0 and row[3] == "0" for row in rows)


def test_rounds_alternate_the_tree_that_runs_first(monkeypatch):
    order = []

    def run(argv, **kwargs):
        order.append(argv[argv.index("--src") + 1])
        assert argv[2:] == ["--worker", "--src", order[-1], "--workload", "w", "--passes", "3",
                            "--seed", "1"]
        stdout = '{"mb": [1.5, 2.5, 0.5], "s": [0.25, 0.5, 0.125], "failed": 0}\n'
        return type("Done", (), {"returncode": 0, "stdout": stdout, "stderr": ""})

    monkeypatch.setattr(writeback.rounds.subprocess, "run", run)
    args = writeback.parse_args(["--src", "a", "b", "--workload", "w", "--rounds", "3"])
    rounds = writeback.rounds.run(args, writeback.__file__)
    assert order == ["a", "b", "b", "a", "a", "b"]
    assert writeback.table(rounds)[1].split() == ["1", "1.50", "0.250", "0"]


def test_nr_written_is_read_from_vmstat(tmp_path):
    vmstat = tmp_path / "vmstat"
    vmstat.write_text("nr_dirty 12\nnr_written 3456\nnr_written_extra 7\n")
    assert writeback.nr_written(vmstat) == 3456
