"""Run alternating parent/change pairs of ``bench/run.py`` from two checkouts.

    python3 tools/alternate.py --parent DIR --change DIR --workload metro-large \\
        --seeds 11 12 13 --seconds 40 --out RESULTS_DIR

Each checkout is a repository root (a ``git clone`` or ``git archive`` of
the commit). For each seed, in the order given, the two sides run
``python3 bench/run.py --workload W --seed S --seconds X --out F`` one after
the other, each from its own root, with F ``RESULTS_DIR/<side>-<W>-s<S>.json``.
The side that runs first alternates: the parent on the first seed, the
change on the second, and so on, so that a drift of the host's speed over the
run does not favour one side. Then ``tools/pairs.py`` prints its summary of
the result files. Standard library only.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import pairs  # noqa: E402

SIDES = ("parent", "change")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    p.add_argument("--change", type=Path, required=True, help="the change's checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", type=Path, required=True, help="directory of the result files")
    return p.parse_args(argv)


def run_pairs(roots: dict, workload: str, seeds: list[int], seconds: float,
              out: Path) -> dict:
    """The result files of each side, in seed order, after running them."""
    out.mkdir(parents=True, exist_ok=True)
    files = {side: [] for side in SIDES}
    for idx, seed in enumerate(seeds):
        for side in SIDES[::-1] if idx % 2 else SIDES:
            result = (out / f"{side}-{workload}-s{seed}.json").resolve()
            argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--out", str(result)]
            done = subprocess.run(argv, cwd=roots[side], capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"error: {side} seed {seed} exited {done.returncode}:\n"
                                 f"{done.stderr}")
            lines = done.stdout.splitlines()
            print(f"{side} seed {seed}: {lines[0] if lines else ''}", flush=True)
            files[side].append(result)
    return files


def main(argv=None) -> int:
    args = parse_args(argv)
    files = run_pairs({"parent": args.parent, "change": args.change}, args.workload,
                      args.seeds, args.seconds, args.out)
    return pairs.main(["--parent", *map(str, files["parent"]),
                       "--change", *map(str, files["change"])])


if __name__ == "__main__":
    sys.exit(main())
