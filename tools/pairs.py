"""Compare alternating parent and change runs of ``bench/run.py``.

    python3 tools/pairs.py --parent P1.json P2.json ... --change C1.json C2.json ... \
        [--claim METRIC]

Each file is a result file that ``bench/run.py --out`` wrote. Runs pair up by
workload and seed. For each workload and each end-to-end metric of
BENCHMARK.json, the table gives, once for the host-speed adjusted
``metrics`` and once for ``raw_metrics`` (which has no ``setup_s`` or
``peak_rss_mb``):

- each side's median and quartiles;
- the pairs the change won (strictly better, in the metric's direction);
- ``claim``: whether a claimed gain would hold, that is at least 9 of 10
  pairs won and a median gap, in the better direction, larger than the
  parent's interquartile range;
- ``bound``: ``WORSE`` where the change's median is worse than the
  parent's by more than the metric's relative bound, else ``ok``.

Where the runs hold their raw set-up repetitions (``setup_runs_raw``), each
side's repetitions are also pooled over the runs, with their median and
quartiles, so that a ``setup_s`` verdict can be read against them. With
``--claim METRIC``, each workload also names the pair to commit: the seed
whose parent and change readings of the adjusted METRIC lie nearest their
sides' medians (the smallest sum of the two relative distances).

Quartiles are ``statistics.quantiles(..., n=4)`` with its default
(exclusive) method. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_SHARE = 0.9


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", nargs="+", type=Path, required=True)
    p.add_argument("--change", nargs="+", type=Path, required=True)
    p.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    p.add_argument("--claim", metavar="METRIC", help="name the pair to commit for METRIC")
    return p.parse_args(argv)


def load(paths: list[Path]) -> dict:
    """Result documents by (workload, seed)."""
    runs = {}
    for path in paths:
        doc = json.loads(path.read_text())
        key = (doc["workload"], doc["seed"])
        if key in runs:
            raise SystemExit(f"error: two runs of {key[0]} seed {key[1]} ({path})")
        runs[key] = doc
    return runs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def compare(parent: list[float], change: list[float], lower: bool, bound: float) -> dict:
    """The summary of one metric over paired runs (same order on both sides)."""
    sign = 1 if lower else -1
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])  # > 0 where the change's median is better
    worse = -gap / abs(pq[1]) if pq[1] else 0.0
    return {"parent": pq, "change": cq, "won": won, "pairs": len(parent),
            "claim": won >= CLAIM_SHARE * len(parent) and gap > pq[2] - pq[0],
            "worse": worse > bound}


def nearest_pair(parent: list[float], change: list[float]) -> int:
    """The index of the pair whose readings lie nearest their sides' medians."""
    pm, cm = statistics.median(parent), statistics.median(change)
    return min(range(len(parent)),
               key=lambda i: abs(parent[i] - pm) / abs(pm) + abs(change[i] - cm) / abs(cm))


def report(parent_runs: dict, change_runs: dict, spec: dict,
           claim: str | None = None) -> list[str]:
    lines = []
    shared = sorted(set(parent_runs) & set(change_runs))
    unpaired = sorted(set(parent_runs) ^ set(change_runs))
    if unpaired:
        lines.append(f"unpaired runs left out: {unpaired}")
    for workload in sorted({w for w, _ in shared}):
        keys = [k for k in shared if k[0] == workload]
        failed = [sum(runs[k]["failed"] for k in keys) for runs in (parent_runs, change_runs)]
        lines.append(f"{workload}: {len(keys)} pairs, seeds {[s for _, s in keys]}, "
                     f"failed parent {failed[0]} change {failed[1]}")
        lines.append(f"  {'metric':15s} {'kind':4s} {'parent median [q1, q3]':>28s} "
                     f"{'change median [q1, q3]':>28s} {'change/parent':>13s} "
                     f"{'won':>6s} {'claim':>5s} {'bound':>5s}")
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            for kind in ("metrics", "raw_metrics"):
                if not all(name in runs[k].get(kind, {})
                           for runs in (parent_runs, change_runs) for k in keys):
                    continue
                p = [parent_runs[k][kind][name] for k in keys]
                c = [change_runs[k][kind][name] for k in keys]
                r = compare(p, c, lower, metric["bound"])
                ratio = r["change"][1] / r["parent"][1] if r["parent"][1] else float("nan")
                lines.append(
                    f"  {name:15s} {kind[:3]:4s} {_spread(r['parent']):>28s} "
                    f"{_spread(r['change']):>28s} {ratio:13.3f} "
                    f"{r['won']:>3d}/{r['pairs']:<2d} {'yes' if r['claim'] else 'no':>5s} "
                    f"{'WORSE' if r['worse'] else 'ok':>5s}")
        pooled = [[x for k in keys for x in runs[k].get("setup_runs_raw", [])]
                  for runs in (parent_runs, change_runs)]
        if all(pooled):
            lines.append(f"  setup_runs_raw pooled: parent {_spread(quartiles(pooled[0]))} "
                         f"({len(pooled[0])} runs), change {_spread(quartiles(pooled[1]))} "
                         f"({len(pooled[1])} runs)")
        if claim is not None:
            p = [parent_runs[k]["metrics"][claim] for k in keys]
            c = [change_runs[k]["metrics"][claim] for k in keys]
            i = nearest_pair(p, c)
            lines.append(f"  pair to commit for {claim}: seed {keys[i][1]} "
                         f"(parent {p[i]:.4g}, change {c[i]:.4g}; medians "
                         f"{statistics.median(p):.4g}, {statistics.median(c):.4g})")
    return lines


def _spread(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads(args.spec.read_text())
    print("\n".join(report(load(args.parent), load(args.change), spec, args.claim)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
