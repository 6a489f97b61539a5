"""Time ``convergence_diagnostics`` on ring networks, for one or two source trees.

    python3 tools/crossover.py --src TREE [TREE] --nodes 28 32 40 64 100 200 \\
        [--rounds 5] [--rings 4] [--steps 80] [--density 0.2]

A tree is a repository root (this checkout, or a ``git archive`` of another
commit); its ``src`` is what gets timed. Each network is built by
``bench/workloads.ring_network`` of this checkout (imported, not changed): a
directed ring plus random edges at ``--density``. For each node count there
are ``--rings`` networks (``rounds.ring_case``), SIR with sweep-small's SIR
rates and SEIR with its SEIR rates (``workloads._grid`` of the ring's
index), seeded at two nodes and simulated for ``--steps`` steps by the
tree's own ``simulate``. The ``seir-node`` row runs the same SEIR rates,
each scaled per node by a factor drawn from [0.5, 1), so that its Perron
solve keeps the two-stage chain, where uniform SEIR rates solve the
one-stage chain.

Each round runs every tree once, in the alternating order of
tools/rounds.py. A round times one call per network, after one untimed call,
and reports the mean over the rings in ms per call. The table gives, for
each tree, the median over the rounds and beside it the spread (min-max);
with two trees, the ratio of the medians, second tree to first, and the
rounds the second tree won (took less time in).
Standard library plus numpy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import rounds  # noqa: E402

MODELS = ("sir", "seir", "seir-node")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--nodes", nargs="+", type=int, required=True)
    p.add_argument("--rings", type=int, default=4)
    p.add_argument("--steps", type=int, default=80)
    p.add_argument("--density", type=float, default=0.2)
    return rounds.parse_args(p, argv, rounds=5)


def worker(args) -> dict:
    """ms per call for each model and node count, on the tree ``args.src[0]``."""
    import numpy as np
    from netepi import Network, SeirParams, SirParams, simulate, spectral
    from netepi.dynamics import EpidemicState

    times = {model: {} for model in MODELS}
    for n in args.nodes:
        cases = {model: [] for model in MODELS}
        for ring in range(args.rings):
            a, start, sir_rates, rates = rounds.ring_case(n, ring, args.density)
            net, sir = Network(a), SirParams(**sir_rates)
            spread = np.random.default_rng([n, ring, 1]).uniform(0.5, 1.0, n)
            seir = {"seir": SeirParams(**rates),
                    "seir-node": SeirParams(**{k: v if k == "h" else v * spread
                                               for k, v in rates.items()})}
            zero = np.zeros(n)
            cases["sir"].append((simulate(EpidemicState(s=1 - start, p=start, r=zero), sir, net,
                                          args.steps), sir, net))
            for model, params in seir.items():
                cases[model].append((simulate(EpidemicState(s=1 - start, e=start, p=zero, r=zero),
                                              params, net, args.steps), params, net))
        for model in MODELS:
            times[model][n] = rounds.mean_ms(spectral.convergence_diagnostics, cases[model])
    return times


def table(results: list[list[dict]], nodes: list[int]) -> list[str]:
    """rounds.spread_table of the ms per call, per model and node count."""
    return rounds.spread_table(results, f"{'model':9s} {'n':>5s}",
                               [(f"{model:9s} {n:5d}", (model, str(n)))
                                for model in MODELS for n in nodes])


def main(argv=None) -> int:
    args = parse_args(argv)
    return rounds.main(args, __file__, worker, lambda got: table(got, args.nodes))


if __name__ == "__main__":
    sys.exit(main())
