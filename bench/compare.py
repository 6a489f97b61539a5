"""Compare two benchmark result files metric by metric and layer by layer.

    python3 bench/compare.py BEFORE.json AFTER.json

Result files are what ``bench/run.py`` writes (``--out``). End-to-end
metrics are judged against the bounds in BENCHMARK.json; per-layer metrics
and the per-span table (calls, inclusive and self seconds) are shown when
both runs were traced. Exits 1 when an end-to-end metric got worse by more
than its bound, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def change(a: float, b: float) -> str:
    return f"{(b - a) / abs(a):+8.1%}" if a else "     n/a"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    before, after = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for tag, res in (("before", before), ("after", after)):
        env = res.get("env", {})
        print(f"{tag}: {res['workload']} seed={res['seed']} passes={res.get('passes')} "
              f"failed={res.get('failed')}/{res.get('attempted')} "
              f"commit={env.get('git_commit')} numpy={env.get('numpy')} "
              f"blas_threads={env.get('blas_threads')}")
    if before["workload"] != after["workload"]:
        print("warning: different workloads", file=sys.stderr)

    worse = []
    print(f"\n{'end-to-end metric':32s} {'before':>12s} {'after':>12s} {'change':>8s}  verdict")
    for m in spec["end_to_end"]:
        name = m["name"]
        a, b = before["metrics"].get(name), after["metrics"].get(name)
        if a is None or b is None:
            print(f"{name:32s} missing in one file")
            continue
        sign = 1 if m["better"] == "lower" else -1
        rel = sign * (b - a) / abs(a) if a else 0.0
        verdict = "WORSE" if rel > m["bound"] else ("better" if rel < 0 else "within bound")
        if verdict == "WORSE":
            worse.append(name)
        print(f"{name:32s} {a:12.5g} {b:12.5g} {change(a, b)}  {verdict} "
              f"(bound {m['bound']:.0%}, {m['better']} is better)")

    la, lb = before.get("layers"), after.get("layers")
    if la and lb:
        print(f"\n{'per-layer metric':42s} {'before':>12s} {'after':>12s} {'change':>8s}")
        for m in spec["per_layer"]:
            a, b = la.get(m["name"], 0.0), lb.get(m["name"], 0.0)
            print(f"{m['name']:42s} {a:12.5g} {b:12.5g} {change(a, b)}")
        sa, sb = before.get("spans", {}), after.get("spans", {})
        pa, pb = before.get("traced_passes", 1), after.get("traced_passes", 1)
        print(f"\n{'span (per pass)':40s} {'calls':>9s} {'calls':>9s} {'self_s':>10s} "
              f"{'self_s':>10s} {'change':>8s}")
        for name in sorted(set(sa) | set(sb)):
            ra = sa.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rb = sb.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            a, b = ra["self_s"] / pa, rb["self_s"] / pb
            print(f"{name:40s} {ra['calls'] / pa:9.0f} {rb['calls'] / pb:9.0f} "
                  f"{a:10.4g} {b:10.4g} {change(a, b)}")
    elif la or lb:
        print("\nper-layer tables: only one file was traced")
    if worse:
        print(f"\nworse beyond bound: {', '.join(worse)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
