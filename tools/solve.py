"""Time ``estimate_pipeline`` on ring networks, for one or two source trees.

    python3 tools/solve.py --src TREE [TREE] --nodes 20 200 2000 --steps 35 200 \\
        [--rounds 5]

A tree is a repository root (this checkout, or a ``git archive`` of another
commit); its ``src`` is what gets timed. For each node count n there are
``RINGS`` networks built by ``bench/workloads.ring_network`` of this
checkout (imported, not changed; ``rounds.ring_case``): a directed ring plus
random edges at density ``DEGREE``/n (metro-large's 22 000 extra edges over
2000 nodes). Each carries SEIR with sweep-small's SEIR rates
(``workloads._seir_params`` of ``workloads._grid`` of the ring's index),
seeded in e at two nodes, simulated for each of ``--steps`` steps by the
tree's own ``simulate`` and measured through ``apply_noise`` with the bench's
noise (``workloads.NOISE``, from step 0), so that the window has T = steps
transitions. The call timed is the network-wide ``estimate_pipeline`` on the
measurements: the identifiability check, the regression's solve and the
re-simulation.

Each round runs every tree once, in the alternating order of
tools/rounds.py. A round times one call per network, after one untimed call,
and reports the mean over the rings in ms per call; the table is
``rounds.spread_table``'s. Standard library plus numpy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import rounds  # noqa: E402


RINGS = 2
DEGREE = 11


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--nodes", nargs="+", type=int, required=True)
    p.add_argument("--steps", nargs="+", type=int, required=True)
    return rounds.parse_args(p, argv, rounds=5)


def worker(args) -> dict:
    """ms per call for each node count and step count, on the tree ``args.src[0]``."""
    import numpy as np
    import workloads
    from netepi import Network, SeirParams, apply_noise, estimate_pipeline, simulate
    from netepi.dynamics import EpidemicState
    from netepi.estimation import NoiseModel

    times = {}
    for n in args.nodes:
        nets = []
        for ring in range(RINGS):
            a, start, _, rates = rounds.ring_case(n, ring, min(DEGREE / n, 1.0))
            zero = np.zeros(n)
            nets.append((Network(a), SeirParams(**rates),
                         EpidemicState(s=1 - start, e=start, p=zero, r=zero)))
        times[n] = {steps: rounds.mean_ms(estimate_pipeline, [
            (apply_noise(simulate(state, params, net, steps),
                         NoiseModel(**workloads.NOISE, seed=ring)), net)
            for ring, (net, params, state) in enumerate(nets)]) for steps in args.steps}
    return times


def table(results: list[list[dict]], nodes: list[int], steps: list[int]) -> list[str]:
    """rounds.spread_table of the ms per call, per node count and step count."""
    return rounds.spread_table(results, f"{'n':>5s} {'T':>5s}",
                               [(f"{n:5d} {t:5d}", (str(n), str(t)))
                                for n in nodes for t in steps])


def main(argv=None) -> int:
    args = parse_args(argv)
    return rounds.main(args, __file__, worker, lambda got: table(got, args.nodes, args.steps))


if __name__ == "__main__":
    sys.exit(main())
