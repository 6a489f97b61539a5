"""Alternating rounds of a worker over one or two source trees: the harness
of tools/crossover.py and tools/writeback.py.

A tree is a repository root (this checkout, or a ``git archive`` of another
commit); its ``src`` is what the worker imports, ahead of ``bench/`` of this
checkout. Each round runs the tool's hidden ``--worker`` once per tree, each
in a fresh subprocess with one BLAS thread, and reads the JSON of the
worker's last line on stdout; the tree that runs first alternates from round
to round, so that a drift of the host's speed does not favour one tree. A
worker that fails stops the run with its stderr. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
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
