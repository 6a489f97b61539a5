"""Show that the benchmark's output checks catch corrupted outputs.

    python3 bench/selftest.py

Runs one SIR and one SEIR scenario of ``sweep-small`` through the CLI,
confirms every check passes, then corrupts one output at a time (or the
exit code) and confirms the matching check reports a failure. The sparse
Perron-root oracle used at large n is exercised on the same files. Exits 0
only when the clean run passes and every corruption is caught.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from netepi import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def bump_field(row: int, col: int, value=None):
    """Edit one CSV field: add 1e-6, or replace it with ``value``."""
    def edit(text: str) -> str:
        lines = text.splitlines()
        parts = lines[row].split(",")
        parts[col] = value if value is not None else repr(float(parts[col]) + 1e-6)
        lines[row] = ",".join(parts)
        return "\n".join(lines) + "\n"
    return edit


def scale_estimate(text: str) -> str:
    report = json.loads(text)
    report["estimates"]["beta"] *= 1.0001
    return json.dumps(report)


def drop_condition(text: str) -> str:
    report = json.loads(text)
    report["failed_conditions"] = report["failed_conditions"][:1]
    return json.dumps(report)


def main() -> int:
    work = ROOT / ".benchwork" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = workloads.sweep_small(work, seed=0)
        sir, seir = inputs.jobs[0], inputs.jobs[1]
        dense_max = checks.DENSE_EIG_MAX_DIM
        steps = {(job.name, s.command): s for job in (sir, seir) for s in job.steps}
        clean = []
        for job in (sir, seir):
            for step in job.steps:
                clean += step.check(cli.main(step.argv))
        if clean:
            print("clean run failed its checks:", *clean, sep="\n  ")
            return 1
        print(f"clean run: {len(steps)} calls, all checks pass")

        sir_out, seir_out = work / "s000" / "out", work / "s001" / "out"
        blind = work / "blind-estimate.json"
        blind.write_text(json.dumps({"failed_conditions": list(workloads.BLIND_FAILED)}))
        steps["blind", "estimate"] = workloads.Step("estimate", [], lambda rc: checks.estimate(
            rc, blind, 2, None, False, workloads.BLIND_FAILED))
        cases = [
            ("trajectory off the simplex", (sir.name, "simulate"),
             sir_out / "trajectory.csv", bump_field(5, 2), 0),
            ("SEIR lambda_max off by 1e-6", (seir.name, "diagnose"),
             seir_out / "lambda.csv", bump_field(3, 1), 0),
            ("measured p above 1", (seir.name, "perturb"),
             seir_out / "measured.csv", bump_field(4, 4, "1.5"), 0),
            ("noiseless estimate off by 1e-4", (sir.name, "estimate"),
             sir_out / "estimate.json", scale_estimate, 0),
            ("estimate exit code 1", (sir.name, "estimate"), None, None, 1),
            ("simulate exit code 2", (seir.name, "simulate"), None, None, 2),
            ("blind estimate missing a failed condition", ("blind", "estimate"),
             blind, drop_condition, 2),
        ]
        missed = 0
        for sparse in (False, True):
            # at large n a Collatz-Wielandt bracket replaces the dense eigen-solve
            checks.DENSE_EIG_MAX_DIM = 0 if sparse else dense_max
            for label, key, path, edit, rc in (cases[1:2] if sparse else cases):
                label += " (sparse oracle)" if sparse else ""
                if path and steps[key].check(rc):
                    print(f"MISSED: {label}: the uncorrupted output already fails")
                    missed += 1
                    continue
                original = path.read_text() if path else None
                if path:
                    path.write_text(edit(original))
                try:
                    found = steps[key].check(rc)
                finally:
                    if path:
                        path.write_text(original)
                missed += not found
                print(f"{'caught' if found else 'MISSED'}: {label}"
                      + (f" -> {found[0]}" if found else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "FAILED" if missed else "passed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
