"""Disk writeback and seconds of in-process bench passes, for one or two trees.

    python3 tools/writeback.py --src TREE [TREE] --workload sweep-small \\
        [--rounds 3] [--passes 3] [--seed 1] [--jobs K]

A tree is a repository root (this checkout, or a ``git archive`` of another
commit); its ``src`` is what runs. Each round runs every tree once, in the
alternating order of tools/rounds.py. The worker sets the workload up with
``bench/`` of this checkout (imported, not changed) in a temporary directory
under this checkout's ``.benchwork``, where the bench writes, runs one
untimed pass over its jobs, so that every later pass overwrites each output
as the bench's passes after the first do, and then ``--passes`` measured passes:
every job's CLI calls through ``netepi.cli.main`` in-process, in job order,
each checked by the bench's check (``--jobs K`` keeps the first K jobs).
For each tree it prints the median over all measured passes of the MB a
pass (the growth of ``nr_written`` in ``/proc/vmstat``, pages written back
to disk, times the page size) and of the seconds a pass (checks included).

Two caveats. ``nr_written`` counts the writeback of the whole system, so
other processes' writes fall into a pass. And it counts only what reaches
the disk within the pass: writeback that the kernel defers (dirty pages
expire after 30 s by default) falls outside so short a window, and the
temporary directory is deleted before it comes. What it does catch is
writeback started at once, such as ext4's at the close of a file truncated
to zero and rewritten (``auto_da_alloc``). It only reads ``/proc``.
Standard library plus the tree's own dependencies.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import rounds  # noqa: E402

VMSTAT = Path("/proc/vmstat")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--passes", type=int, default=3, help="measured passes a round")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", type=int, default=None, help="keep the first JOBS jobs")
    return rounds.parse_args(p, argv, rounds=3)


def nr_written(vmstat: Path = VMSTAT) -> int:
    """The pages written back to disk since boot, from ``vmstat``."""
    for line in vmstat.read_text().splitlines():
        name, _, value = line.partition(" ")
        if name == "nr_written":
            return int(value)
    raise SystemExit(f"error: no nr_written in {vmstat}")


def worker(args) -> dict:
    """MB written back and seconds of each measured pass on ``args.src[0]``,
    and the checks that failed over all passes."""
    from time import perf_counter

    import run
    import workloads
    from netepi import cli

    work = rounds.ROOT / ".benchwork"
    work.mkdir(exist_ok=True)
    passes = {"mb": [], "s": []}
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        generate = workloads.WORKLOADS[args.workload]
        jobs = generate(Path(tmp) / args.workload, args.seed).jobs[:args.jobs]
        ledger = run.Ledger()
        run.run_jobs(jobs, cli, ledger)
        for _ in range(args.passes):
            pages, begin = nr_written(), perf_counter()
            run.run_jobs(jobs, cli, ledger)
            passes["s"].append(perf_counter() - begin)
            passes["mb"].append((nr_written() - pages) * os.sysconf("SC_PAGE_SIZE") / 1e6)
    return {**passes, "failed": len(ledger.failures)}


def table(results: list[list[dict]]) -> list[str]:
    """Per tree, the median MB written back and seconds a pass over every
    measured pass of the rounds, and the checks that failed in all of them."""
    lines = [f"{'tree':6s} {'MB/pass':>10s} {'s/pass':>10s} {'failed':>7s}"]
    for t in range(len(results[0])):
        mb = statistics.median(x for r in results for x in r[t]["mb"])
        s = statistics.median(x for r in results for x in r[t]["s"])
        lines.append(f"{t + 1:<6d} {mb:10.2f} {s:10.3f} {sum(r[t]['failed'] for r in results):7d}")
    return lines


def main(argv=None) -> int:
    return rounds.main(parse_args(argv), __file__, worker, table)


if __name__ == "__main__":
    sys.exit(main())
