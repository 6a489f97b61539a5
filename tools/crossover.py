"""Time ``convergence_diagnostics`` on ring networks, for one or two source trees.

    python3 tools/crossover.py --src TREE [TREE] --nodes 28 32 40 64 100 200 \\
        [--rounds 5] [--rings 4] [--steps 80] [--density 0.2]

A tree is a repository root (this checkout, or a ``git archive`` of another
commit); its ``src`` is what gets timed. Each network is built by
``bench/workloads.ring_network`` of this checkout (imported, not changed): a
directed ring plus random edges at ``--density``. For each node count there
are ``--rings`` networks, SIR with sweep-small's SIR rates and SEIR with its
SEIR rates (``workloads._grid`` of the ring's index), seeded at two nodes and
simulated for ``--steps`` steps by the tree's own ``simulate``.

Each round runs every tree once, each in a fresh subprocess with one BLAS
thread; the tree that runs first alternates from round to round, so that a
drift of the host's speed does not favour one tree. A round times one call
per network, after one untimed call, and reports the mean over the rings in
ms per call. The table gives the median over the rounds, and the ratio of
the second tree to the first. Standard library plus numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELS = ("sir", "seir")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", nargs="+", type=Path, required=True, help="one or two trees")
    p.add_argument("--nodes", nargs="+", type=int, required=True)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--rings", type=int, default=4)
    p.add_argument("--steps", type=int, default=80)
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if len(args.src) > 2:
        p.error("--src takes one or two trees")
    return args


def worker(args) -> dict:
    """ms per call for each model and node count, on the tree ``args.src[0]``."""
    sys.path[:0] = [str(args.src[0].resolve() / "src"), str(ROOT / "bench")]
    import time

    import numpy as np
    import workloads
    from netepi import Network, SeirParams, SirParams, simulate, spectral
    from netepi.dynamics import EpidemicState

    times = {model: {} for model in MODELS}
    for n in args.nodes:
        cases = {model: [] for model in MODELS}
        for ring in range(args.rings):
            rng = np.random.default_rng([n, ring])
            a = workloads.ring_network(rng, n, args.density)
            net, rowmax, u = Network(a), a.sum(axis=1).max(), workloads._grid(ring)
            seeds = rng.choice(n, size=2, replace=False)
            start = np.zeros(n)
            start[seeds] = 0.02
            sir = SirParams(beta=(0.5 + 0.4 * u[0]) / rowmax, gamma=0.15 + 0.2 * u[3], h=1.0)
            seir = SeirParams(**workloads._seir_params(u, rowmax))
            zero = np.zeros(n)
            cases["sir"].append((simulate(EpidemicState(s=1 - start, p=start, r=zero), sir, net,
                                          args.steps), sir, net))
            cases["seir"].append((simulate(EpidemicState(s=1 - start, e=start, p=zero, r=zero),
                                           seir, net, args.steps), seir, net))
        for model in MODELS:
            spectral.convergence_diagnostics(*cases[model][0])
            begin = time.perf_counter()
            for case in cases[model]:
                spectral.convergence_diagnostics(*case)
            times[model][n] = (time.perf_counter() - begin) / args.rings * 1e3
    return times


def run_rounds(args) -> list[list[dict]]:
    """Each round's timings, one dict per tree in the order of ``--src``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    rounds = []
    for idx in range(args.rounds):
        order = list(range(len(args.src)))
        if idx % 2:
            order.reverse()
        got = {}
        for tree in order:
            argv = [sys.executable, __file__, "--worker", "--src", str(args.src[tree]),
                    "--nodes", *map(str, args.nodes), "--rings", str(args.rings),
                    "--steps", str(args.steps), "--density", str(args.density)]
            done = subprocess.run(argv, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"error: {args.src[tree]} exited {done.returncode}:\n"
                                 f"{done.stderr}")
            got[tree] = json.loads(done.stdout)
        rounds.append([got[tree] for tree in range(len(args.src))])
        print(f"round {idx + 1} of {args.rounds} done", file=sys.stderr, flush=True)
    return rounds


def table(rounds: list[list[dict]], nodes: list[int]) -> list[str]:
    """Median ms per call over the rounds, per model, node count and tree."""
    trees = len(rounds[0])
    head = f"{'model':6s} {'n':>5s}" + "".join(f" {'tree ' + str(t + 1) + ' ms':>12s}"
                                             for t in range(trees))
    lines = [head + (f" {'2/1':>6s}" if trees == 2 else "")]
    for model in MODELS:
        for n in nodes:
            med = [statistics.median(r[t][model][str(n)] for r in rounds) for t in range(trees)]
            line = f"{model:6s} {n:5d}" + "".join(f" {m:12.2f}" for m in med)
            lines.append(line + (f" {med[1] / med[0]:6.3f}" if trees == 2 else ""))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    for t, src in enumerate(args.src):
        print(f"tree {t + 1}: {src}")
    print("\n".join(table(run_rounds(args), args.nodes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
