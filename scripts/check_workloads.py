#!/usr/bin/env python3
"""Run the benchmark's workloads through the harness's own output checks.

For each workload and each seed from 1 to ``--seeds``, calls
``perfbench/run.py``'s ``run`` with ``seconds=0`` (the fewest calls a run
makes: two CLI calls on the data sets of that seed), untraced, and counts
the calls that exited non-zero or failed the harness's check of their
output (``check_vmp`` or ``check_compare``). Prints one line per workload
with the attempted and failed counts and the first problems, and exits 1
if any call failed.

Usage, from the repository root:

    python3 scripts/check_workloads.py --seeds 10
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py, imported as it is)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, required=True, help="number of seeds per workload")
    seeds = ap.parse_args(argv).seeds
    if seeds < 1:
        ap.error("--seeds must be at least 1")
    any_failed = False
    for name in sorted(bench.WORKLOADS):
        attempted, failed, problems = 0, 0, []
        for seed in range(1, seeds + 1):
            result, info = bench.run(bench.WORKLOADS[name], seed, seconds=0, trace=False)
            attempted += result["attempted"]
            failed += result["failed"]
            problems.extend(f"seed {seed} {p}" for p in info["problems"])
        any_failed |= failed > 0
        print(f"{name}: seeds 1-{seeds} attempted {attempted} failed {failed}")
        for problem in problems[:5]:
            print(f"  {problem}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
