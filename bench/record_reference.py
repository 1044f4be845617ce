"""Record 1-worker reference digests of the workloads into bench/reference.json.

    python3 bench/record_reference.py --seeds 0-31,42 [--workload NAME ...]

Run it only at a commit whose pinned outputs are known to be right: the
stored digests pin every later run of those seeds byte for byte (of
``bound_report.csv`` only the columns in ``outputs.BOUND_COLUMNS``).  A
run that writes every expected file is recorded even if it fails a
fixed property such as ``violation`` all 0; that failure is printed, and
every benchmark run of the seed still reports it.  The
digests hold for the machine and BLAS build they were recorded on.
"""

from __future__ import annotations

import argparse
import json
import sys

import run as bench
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    try:
        with open(bench.REFERENCE, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {}
    failures = 0
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            run = bench.Run(WORKLOADS[name], seed)
            run.reference = None
            try:
                _, problems = run.cli(workers=1)
            finally:
                run.close()
            if run.reference is None:
                print(f"{name} seed {seed}: not recorded: {'; '.join(problems)}", file=sys.stderr)
                failures += 1
                continue
            stored.setdefault(name, {})[str(seed)] = run.reference
            with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(stored, fh, indent=1, sort_keys=True)
                fh.write("\n")
            failing = f", but the run fails: {'; '.join(problems)}" if problems else ""
            print(f"{name} seed {seed}: recorded{failing}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
