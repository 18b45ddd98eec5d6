"""Run one or more workloads repeatedly and report each end-to-end metric's
spread against its bound in BENCHMARK.json.

    python3 bench/steadiness.py --workload sparse-ladder --runs 10 [--first-seed 1]

Each run uses the next seed.  The spread of a metric is the distance between
the first and third quartile of its values (``statistics.quantiles(n=4)``)
as a share of their median; a metric is steady when its spread stays below
a third of its bound.  ``setup_s`` is reported but, like the acceptance rule
it mirrors, only its median is meant to be compared between sets of runs.
Runs are sequential, one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]],
                   help="repeatable; default: every workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            duration = perf_counter() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: incorrect run\n{proc.stderr}", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({duration:.1f} s): " + "  ".join(
                f"{n}={result['metrics'][n]['value']:.4f}" for n in bounds), flush=True)
        for name, bound in bounds.items():
            s = spread(values[name])
            ok = name == "setup_s" or s < bound / 3
            steady &= ok
            print(f"{workload:16s} {name:12s} median {statistics.median(values[name]):10.4f}"
                  f"  spread {s:7.2%}  bound {bound:.0%}  {'ok' if ok else 'UNSTEADY'}",
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
