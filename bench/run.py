"""netepi benchmark: drives ``netepi.cli.main`` in-process on seeded workloads.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 40 --trace 0

Run from the repository root. Set-up (input generation and one warm-up) is
repeated SETUP_REPEATS times and ``setup_s`` is the import time plus their
median; then whole passes over the workload's jobs, each pass in a new
seeded order, run until ``--seconds`` have elapsed. Every CLI call is timed
and its output checked.

Times are host-speed adjusted. The shared host this runs on switches, every
few seconds, between a fast state and one in which the same code runs 1.1 to
1.7 times slower, and how long it stays in each drifts over minutes. So a
fixed reference kernel (``HostSpeed``) is timed right before and right after
every timed stretch to tell which state the host is in; while it is slow,
the stretch's time is divided by how much slower the workload's calls run
then (``workloads.SLOW_FACTORS``), averaged over the two readings. A call's
time is then its median over the passes. Raw times are kept in the result
file.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` an untraced and then a traced measurement
run, half of ``--seconds`` each, and it carries the per-layer metrics,
including the tracing overhead. Span times are raw seconds.
The full result, with the environment, goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("simulate", "diagnose", "perturb", "estimate")
SETUP_REPEATS = 7
# One BLAS thread: on the 2-vCPU machines this runs on, the two vCPUs share
# a physical core, and OpenBLAS worker threads spinning on the second one
# slow the Python thread on the first by up to 60%.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# HostSpeed's kernel: its time in the host's fast state on the host in
# README's "Noise" section, and how much slower it runs in the slow state.
PROBE_REF_S = 1.62e-3
PROBE_SLOW = 1.4


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="result file (default .benchwork/results/<workload>-s<seed>-t<trace>.json)")
    return p.parse_args(argv)


class Ledger:
    """Commands attempted and the failures their checks found."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, job: str, command: str, failures: list[str]) -> None:
        self.attempted += 1
        self.failures.extend(f"{job}/{command}: {msg}" for msg in failures)
        if failures:
            print(f"check failed: {job}/{command}: {failures[0]}", file=sys.stderr)


class HostSpeed:
    """Which state the host is in, read from a fixed reference kernel that
    mixes an interpreter loop, many small numpy calls and BLAS
    matrix-vector products, all in cache so that the program's own memory
    traffic does not move its time. In the slow state it takes about
    PROBE_SLOW times as long. Timed work is divided by ``slow_factor``, the
    workload's own slow-state factor, while the host is slow."""

    def __init__(self, slow_factor: float):
        import numpy as np
        self.slow_factor = slow_factor
        self.np = np
        self.small = np.full((48, 48), 1 / 48)
        self.mid = np.random.default_rng(0).random((256, 256)) / 256
        self.slowness()  # first touch of the matrices

    def slowness(self) -> float:
        """``slow_factor`` if the host is in its slow state now, else 1:
        whether the kernel's time is nearer PROBE_SLOW * PROBE_REF_S or
        PROBE_REF_S. Two levels, not the time itself, so that within a state
        the kernel's own jitter, an interrupt or a preemption adds nothing."""
        t0 = perf_counter()
        s = 0
        for i in range(12_000):
            s += i * i
        v = self.np.ones(48)
        for _ in range(100):
            v = self.small @ v
        w = self.np.ones(256)
        for _ in range(30):
            w = self.mid @ w
        slow = perf_counter() - t0 > PROBE_REF_S * (1 + PROBE_SLOW) / 2
        return self.slow_factor if slow else 1.0

    def time(self, fn, *args):
        """``fn(*args)``, its raw time, and its time divided by the host's
        slowness right before and right after it."""
        before = self.slowness()
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        return out, dt, dt * 2 / (before + self.slowness())


def call(cli, argv):
    try:
        return cli.main(argv)
    except Exception as exc:  # a crash fails this call, not the benchmark
        return f"{type(exc).__name__}: {exc}"


def run_jobs(jobs, cli, ledger: Ledger, host: HostSpeed | None = None,
             samples: dict | None = None) -> None:
    """One pass: every job's CLI calls, timed one by one and then checked;
    call ``i`` of a job appends its (raw, adjusted) time to
    ``samples[job.name, i]``. A job stops at its first failed call."""
    for job in jobs:
        for i, step in enumerate(job.steps):
            if samples is None:
                rc = call(cli, step.argv)
            else:
                rc, dt, adjusted = host.time(call, cli, step.argv)
                samples.setdefault((job.name, i), []).append((dt, adjusted))
            failures = step.check(rc)
            ledger.record(job.name, step.command, failures)
            if failures:
                break  # later calls of the job need this call's output
            if step.then is not None:
                step.then()


def measure(jobs, cli, ledger: Ledger, host: HostSpeed, seconds: float,
            rng: random.Random) -> tuple[int, dict]:
    """Whole passes until ``seconds`` have elapsed (at least one), each over
    the jobs in a new order, so that a job's samples fall at different
    points of the run. Returns the pass count and the per-call samples."""
    samples: dict[tuple[str, int], list[float]] = {}
    passes = 0
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        order = list(jobs)
        rng.shuffle(order)
        run_jobs(order, cli, ledger, host, samples)
        passes += 1
    return passes, samples


def end_to_end(jobs, samples: dict, raw: bool = False) -> dict[str, float]:
    """Per-pass times from the median (adjusted, or ``raw``) time of each
    call: a command's time is the sum of its calls' medians, a scenario's
    latency the sum of its calls' medians, and the percentiles are taken
    over scenarios."""
    median = {key: statistics.median(t[0 if raw else 1] for t in times)
              for key, times in samples.items()}
    out = dict.fromkeys((f"{cmd}_s" for cmd in COMMANDS), 0.0)
    lat = []
    for job in jobs:
        calls = [(step.command, median[job.name, i]) for i, step in enumerate(job.steps)
                 if (job.name, i) in median]
        for cmd, t in calls:
            out[f"{cmd}_s"] += t
        if job.scenario:
            lat.append(sum(t for _, t in calls))
    out["pipeline_s"] = sum(median.values())
    out["scenario_p50_s"] = statistics.median(lat)
    out["scenario_p90_s"] = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    return out


def environment() -> dict:
    import numpy as np
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
        else:
            commit = ref
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "git_commit": commit,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": l3.read_text().strip() if l3.is_file() else None,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:  # before numpy loads BLAS
        os.environ[var] = BLAS_THREADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from netepi import cli
    except ImportError as exc:
        print(f"error: cannot import netepi from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    import_s = perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: netepi imported from {cli.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 1
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    generate = workloads.WORKLOADS[args.workload]
    work = ROOT / ".benchwork" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    ledger = Ledger()
    host = HostSpeed(workloads.SLOW_FACTORS[args.workload])
    import_s /= host.slowness()  # the import is over; the host's state now is the nearest known

    def set_up():
        shutil.rmtree(work, ignore_errors=True)
        inputs = generate(work, args.seed)
        run_jobs(inputs.warmup, cli, ledger)
        return inputs

    try:
        setup, setup_raw = [], []
        for rep in range(SETUP_REPEATS):
            inputs, dt, adjusted = host.time(set_up)
            setup.append(adjusted)
            setup_raw.append(dt)
        rng = random.Random(args.seed)
        seconds = args.seconds / 2 if args.trace else args.seconds
        passes, samples = measure(inputs.jobs, cli, ledger, host, seconds, rng)
        metrics = end_to_end(inputs.jobs, samples)
        metrics["setup_s"] = import_s + statistics.median(setup)
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "passes": passes, "setup_runs": setup, "setup_runs_raw": setup_raw,
                  "raw_metrics": end_to_end(inputs.jobs, samples, raw=True),
                  "env": environment()}
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, traced_samples = measure(inputs.jobs, cli, ledger, host, seconds, rng)
            finally:
                tracer.uninstall()
            traced_s = end_to_end(inputs.jobs, traced_samples)["pipeline_s"]
            layers = tracer.layer_metrics(traced)
            layers["trace.pipeline_s"] = traced_s
            layers["trace.overhead_s"] = traced_s - metrics["pipeline_s"]
            layers["estimation.rel_err_max"] = max(inputs.rel_errors, default=0.0)
            result.update(traced_passes=traced, spans=tracer.table(), layers=layers)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result.update(metrics=metrics, attempted=ledger.attempted, failed=len(ledger.failures),
                  error_rate=len(ledger.failures) / max(ledger.attempted, 1),
                  estimate_rel_err=max(inputs.rel_errors, default=None),
                  failures=ledger.failures[:50])
    out = args.out or ROOT / ".benchwork" / "results" / \
        f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    if args.trace:
        tracer.save(out.with_suffix(".spans.npz"))

    if args.trace:
        chosen = {m["name"]: (result["layers"].get(m["name"], 0.0), m["unit"])
                  for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: (metrics[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    print(f"bench: {args.workload} seed={args.seed} passes={passes} "
          f"attempted={ledger.attempted} failed={len(ledger.failures)} result={out}")
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
