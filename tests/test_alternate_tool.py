"""tools/alternate.py: alternating pairs from two checkouts, run through stub benches."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "alternate.py"
spec = importlib.util.spec_from_file_location("alternate", TOOL)
alternate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(alternate)

# a bench/run.py that records its side and arguments and writes a result
# file; the change's pipeline takes 0.7 of the parent's
STUB = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
root = Path.cwd()
with open(root.parent / "order.log", "a") as log:
    log.write(f"{root.name} {args['--seed']} {args['--seconds']}\\n")
pipeline = (0.7 if root.name == "change" else 1.0) * (1 + int(args["--seed"]) / 100)
Path(args["--out"]).write_text(json.dumps({
    "workload": args["--workload"], "seed": int(args["--seed"]), "failed": 0,
    "metrics": {"pipeline_s": pipeline}, "raw_metrics": {"pipeline_s": pipeline}}))
print(f"bench: stub seed={args['--seed']}")
print("{}")
'''


def test_sides_alternate_and_the_summary_follows(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(STUB)
    seeds = [3, 4, 5, 6]
    rc = alternate.main(["--parent", str(tmp_path / "parent"), "--change",
                         str(tmp_path / "change"), "--workload", "w", "--seeds",
                         *map(str, seeds), "--seconds", "2", "--out", str(tmp_path / "out")])
    assert rc == 0
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["parent 3 2.0", "change 3 2.0", "change 4 2.0", "parent 4 2.0",
                     "parent 5 2.0", "change 5 2.0", "change 6 2.0", "parent 6 2.0"]
    for side in ("parent", "change"):
        for seed in seeds:
            doc = json.loads((tmp_path / "out" / f"{side}-w-s{seed}.json").read_text())
            assert doc["seed"] == seed
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "parent seed 3: bench: stub seed=3"
    assert lines[8].startswith("w: 4 pairs, seeds [3, 4, 5, 6]")
    row = next(line.split() for line in lines if line.split()[:2] == ["pipeline_s", "met"])
    assert row[-3:] == ["4/4", "yes", "ok"]


def test_failed_run_stops_with_its_error(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(
            "import sys\nprint('boom', file=sys.stderr)\nsys.exit(3)\n")
    with pytest.raises(SystemExit, match="parent seed 1 exited 3:\nboom"):
        alternate.main(["--parent", str(tmp_path / "parent"), "--change",
                        str(tmp_path / "change"), "--workload", "w", "--seeds", "1",
                        "--seconds", "1", "--out", str(tmp_path / "out")])
