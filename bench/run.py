#!/usr/bin/env python3
"""trelliskit benchmark: one workload, a closed loop with one caller.

    python3 bench/run.py --workload words-bsc75 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each op starts only after the previous one has returned.  ``--trace 0``
times the ops untraced and reports the end-to-end metrics, their times
scaled to a reference host speed (``hostspeed.py``).  ``--trace 1``
runs every op once untraced and once traced (alternating which goes
first), runs stage probes on the op's labelled trellis, and reports the
per-layer metrics derived from the spans.  ``--workload all`` runs every
workload, one child process at a time.

The last line of standard output is the JSON result.  A failed
correctness check exits with status 1 and prints no result; a checkout
without ``src/trelliskit`` exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_all(workloads, seed: int, seconds: float, trace: bool) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trelliskit" / "__init__.py").is_file():
        print(f"no trelliskit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trelliskit

    if Path(trelliskit.__file__).resolve().parent != SRC / "trelliskit":
        print(f"imported trelliskit from {trelliskit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    names = list(harness.W.WORKLOADS)
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds, bool(args.trace))
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(names)} or all")
    return harness.run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
