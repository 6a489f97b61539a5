"""Alternating rounds of a worker over one or two source trees: the harness
of tools/crossover.py and tools/solve.py, with the ring cases and the timing
that the two share.

A tree is a repository root (this checkout, or a ``git archive`` of another
commit); its ``src`` is what the worker imports, ahead of ``bench/`` of this
checkout. Each round runs the tool's hidden ``--worker`` once per tree, each
in a fresh subprocess with one BLAS thread, and reads the JSON of the
worker's last line on stdout; the tree that runs first alternates from round
to round, so that a drift of the host's speed does not favour one tree. A
worker that fails stops the run with its stderr. Standard library only, but
for ``ring_case``, which runs in a worker and imports numpy and
bench/workloads there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from functools import reduce
from operator import getitem
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHARED = ("src", "rounds", "worker")


def parse_args(p: argparse.ArgumentParser, argv, rounds: int) -> argparse.Namespace:
    """The arguments of ``p``, a tool's own options, together with the shared
    ones: ``--src`` (one or two trees), ``--rounds`` (default ``rounds``) and
    the hidden ``--worker``."""
    p.add_argument("--src", nargs="+", type=Path, required=True, help="one or two trees")
    p.add_argument("--rounds", type=int, default=rounds)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if len(args.src) > 2:
        p.error("--src takes one or two trees")
    return args


def run(args: argparse.Namespace, script: str) -> list[list[dict]]:
    """Each round's worker results, one dict per tree in the order of
    ``--src``. The worker is ``script --worker --src TREE`` followed by the
    tool's own options as given, ``--name value``, those left at None out."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    options = []
    for name, value in vars(args).items():
        if name not in SHARED and value is not None:
            options += [f"--{name}", *map(str, value if isinstance(value, list) else [value])]
    rounds = []
    for idx in range(args.rounds):
        got = {}
        for tree in range(len(args.src))[::-1 if idx % 2 else 1]:
            argv = [sys.executable, script, "--worker", "--src", str(args.src[tree]), *options]
            done = subprocess.run(argv, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"error: {args.src[tree]} exited {done.returncode}:\n"
                                 f"{done.stderr}")
            got[tree] = json.loads(done.stdout.splitlines()[-1])
        rounds.append([got[tree] for tree in range(len(args.src))])
        print(f"round {idx + 1} of {args.rounds} done", file=sys.stderr, flush=True)
    return rounds


def ring_case(n: int, ring: int, density: float) -> tuple:
    """Ring network ``ring`` of ``n`` nodes: (the adjacency of
    ``workloads.ring_network`` at ``density``, a start of 0.02 at two nodes,
    sweep-small's SIR rates, its SEIR rates), the rates from
    ``workloads._grid`` of ``ring`` and the adjacency's largest row sum. The
    network and the two nodes come from one stream, seeded by [n, ring]."""
    import numpy as np
    import workloads

    rng = np.random.default_rng([n, ring])
    a = workloads.ring_network(rng, n, density)
    rowmax, u = a.sum(axis=1).max(), workloads._grid(ring)
    start = np.zeros(n)
    start[rng.choice(n, size=2, replace=False)] = 0.02
    sir = {"beta": (0.5 + 0.4 * u[0]) / rowmax, "gamma": 0.15 + 0.2 * u[3], "h": 1.0}
    return a, start, sir, workloads._seir_params(u, rowmax)


def mean_ms(call, cases: list[tuple]) -> float:
    """ms per call of ``call`` over ``cases``, each a tuple of its
    arguments, after one untimed call on the first."""
    call(*cases[0])
    begin = time.perf_counter()
    for case in cases:
        call(*case)
    return (time.perf_counter() - begin) / len(cases) * 1e3


def spread_table(results: list[list[dict]], head: str, rows: list[tuple[str, tuple]]) -> list[str]:
    """Median ms and its spread (min-max) over the rounds, per row and tree;
    with two trees, the ratio of the medians, second tree to first, and the
    rounds the second tree won (took less time in). ``rows`` are (label,
    keys): the row's label, under ``head``, and the keys of its time in a
    worker's result."""
    trees = len(results[0])
    lines = [head + "".join(f" {'tree ' + str(t + 1) + ' ms':>12s} {'min-max':>15s}"
                            for t in range(trees))
             + (f" {'2/1':>6s} {'won':>5s}" if trees == 2 else "")]
    for label, keys in rows:
        got = [[reduce(getitem, keys, r[t]) for r in results] for t in range(trees)]
        med = [statistics.median(g) for g in got]
        line = label + "".join(f" {m:12.2f} {f'{min(g):.2f}-{max(g):.2f}':>15s}"
                               for m, g in zip(med, got))
        if trees == 2:
            won = sum(b < a for a, b in zip(*got))
            line += f" {med[1] / med[0]:6.3f} {f'{won}/{len(results)}':>5s}"
        lines.append(line)
    return lines


def main(args: argparse.Namespace, script: str, worker, table) -> int:
    """As the worker, print the JSON of ``worker(args)`` on the tree
    ``args.src[0]``; else print one ``tree N:`` line per tree and then the
    lines of ``table`` over the rounds."""
    if args.worker:
        sys.path[:0] = [str(args.src[0].resolve() / "src"), str(ROOT / "bench")]
        print(json.dumps(worker(args)))
        return 0
    for t, src in enumerate(args.src):
        print(f"tree {t + 1}: {src}")
    print("\n".join(table(run(args, script))))
    return 0
