"""tools/pairs.py: the claim rule and the bound check on paired bench runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def test_claim_needs_nine_of_ten_and_a_gap_beyond_the_iqr():
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.1, 0.9, 1.05, 0.95]
    change = [0.7 * x for x in parent]
    r = pairs.compare(parent, change, lower=True, bound=0.25)
    assert r["won"] == 10 and r["claim"] and not r["worse"]
    # two pairs lost: 8/10 is not enough, however large the gap
    change[:2] = [2.0, 2.0]
    assert not pairs.compare(parent, change, lower=True, bound=0.25)["claim"]
    # every pair won by a hair: the gap is inside the parent's spread
    r = pairs.compare(parent, [x - 1e-3 for x in parent], lower=True, bound=0.25)
    assert r["won"] == 10 and not r["claim"]


@pytest.mark.parametrize("lower", [True, False])
def test_bound_in_the_metric_direction(lower):
    parent = [1.0] * 5
    worse = [1.3 if lower else 0.7] * 5
    assert pairs.compare(parent, worse, lower, bound=0.25)["worse"]
    assert not pairs.compare(parent, [1.2 if lower else 0.8] * 5, lower, bound=0.25)["worse"]


def test_report_pairs_runs_by_workload_and_seed(tmp_path):
    def run(side, seed, diagnose):
        doc = {"workload": "w", "seed": seed, "failed": 0,
               "metrics": {"diagnose_s": diagnose, "peak_rss_mb": 50.0},
               "raw_metrics": {"diagnose_s": diagnose}}
        path = tmp_path / f"{side}{seed}.json"
        path.write_text(json.dumps(doc))
        return path

    spec = {"end_to_end": [{"name": "diagnose_s", "better": "lower", "bound": 0.25},
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
    parent = pairs.load([run("p", s, 1.0 + 0.01 * s) for s in range(10)])
    change = pairs.load([run("c", s, 0.7) for s in reversed(range(10))])
    lines = pairs.report(parent, change, spec)
    assert lines[0].startswith("w: 10 pairs")
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [["diagnose_s", "met"], ["diagnose_s", "raw"],
                                         ["peak_rss_mb", "met"]]
    assert rows[0][-3:] == ["10/10", "yes", "ok"]
    assert rows[2][-3:] == ["0/10", "no", "ok"]


def test_claim_names_the_pair_nearest_the_medians_and_pools_setup(tmp_path):
    def run(side, seed, diagnose, setup):
        doc = {"workload": "w", "seed": seed, "failed": 0,
               "metrics": {"diagnose_s": diagnose}, "raw_metrics": {"diagnose_s": diagnose},
               "setup_runs_raw": setup}
        path = tmp_path / f"{side}{seed}.json"
        path.write_text(json.dumps(doc))
        return path

    spec = {"end_to_end": [{"name": "diagnose_s", "better": "lower", "bound": 0.25}]}
    # medians 1.0 and 0.6; seed 3 sits on both, seed 2 on the parent's alone
    readings = {1: (0.9, 0.5), 2: (1.0, 0.8), 3: (1.0, 0.6), 4: (1.2, 0.6), 5: (1.1, 0.7)}
    parent = pairs.load([run("p", s, p, [0.3, 0.5]) for s, (p, _) in readings.items()])
    change = pairs.load([run("c", s, c, [0.4, 0.4, 0.6]) for s, (_, c) in readings.items()])
    lines = pairs.report(parent, change, spec, claim="diagnose_s")
    assert lines[-2] == ("  setup_runs_raw pooled: parent 0.4 [0.3, 0.5] (10 runs), "
                         "change 0.4 [0.4, 0.6] (15 runs)")
    assert lines[-1] == ("  pair to commit for diagnose_s: seed 3 (parent 1, change 0.6; "
                         "medians 1, 0.6)")
    assert not any("pair to commit" in line for line in pairs.report(parent, change, spec))
