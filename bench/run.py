"""weakhopf benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload sparse-ladder --seed 1 --seconds 30 --trace 0

Run from anywhere; it measures the checkout it sits in (``src/weakhopf``),
pinned to one CPU so that every child shares it with the reference kernel.
Each run builds the workload's seeded corpus (``corpus.py``) at least five
times and for at least two seconds (at most 50 builds); ``setup_s`` is the
median build.  Then, for ``--seconds``:

* ``--trace 0``: rounds of one sequential pass of every job as a ``whw``
  child process (closed loop, one client) followed by one pass through the
  Python API in this process, until the next round would overrun the time;
  at least three rounds.  Reports the end-to-end metrics of
  BENCHMARK.json.
* ``--trace 1``: passes of the jobs through the API untraced, then traced
  (set-up included, after a fixed cross-section of tiny jobs) with spans
  around every public library function (``tracing.py``); at least one pass.  Reports the per-layer metrics of
  BENCHMARK.json, as medians over passes, and writes the spans of the last
  traced pass to ``.bench_work/<workload>/trace.json``.

End-to-end times are scaled to a fixed machine speed by the reference
kernel run beside each timed run (see ``harness.py``); the raw wall time is
printed next to each.  Per-layer times are raw.

Every job run, in either mode, is checked against the verdict its document
was built to have (``harness.problems``).  The last line of stdout is the
JSON result; the lines before it repeat each metric with its sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import checkout
import harness
import tracing

# corpus.py imports weakhopf, so it is imported only after
# checkout.use_sources() has put this checkout's src/ on the path.

SETUP_MIN_BUILDS = 5          # set-up is repeated until both minimums are met
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_BUILDS = 50
MIN_ROUNDS = 3
STARTUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "corpus_s": "s", "job_p50_s": "s", "api_s": "s",
                    "peak_rss_mb": "MB"}


class Gate:
    """Runs jobs, checks each outcome against the known verdict, and returns
    it with its wall time scaled by the reference run beside it."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, job, res, workdir: Path | None = None):
        found = harness.problems(job, res, workdir or self.workdir)
        self.attempted += 1
        if found:
            self.failed += 1
            self.messages.append(f"{job.name}: {'; '.join(found)}")
        return res

    def whw(self, job):
        harness.clear_output(job, self.workdir)
        ref = harness.reference_child_s(self.workdir)
        res = self.check(job, harness.run_whw(job.argv(self.workdir), self.workdir))
        return res, harness.scaled(res.wall_s, ref, harness.REFERENCE_CHILD_NOMINAL_S)

    def api(self, job):
        harness.clear_output(job, self.workdir)
        before = harness.reference_s()
        res = self.check(job, harness.run_api(job.argv(self.workdir)))
        ref = (before + harness.reference_s()) / 2
        return res, harness.scaled(res.wall_s, ref, harness.REFERENCE_NOMINAL_S)


def _sum_of_medians(samples: dict) -> float:
    return sum(median(v) for v in samples.values())


def measure_setup(args, workdir: Path):
    """Build the corpus repeatedly; returns the jobs, the ``setup_s`` entry
    and whether every build wrote the same manifest."""
    import corpus

    scaled, raw, manifests = [], [], set()
    while len(raw) < SETUP_MIN_BUILDS or (
            sum(raw) < SETUP_MIN_SECONDS and len(raw) < SETUP_MAX_BUILDS):
        before = harness.reference_s()
        t0 = perf_counter()
        jobs = corpus.build(args.workload, args.seed, workdir, args.size)
        raw.append(perf_counter() - t0)
        ref = (before + harness.reference_s()) / 2
        scaled.append(harness.scaled(raw[-1], ref, harness.REFERENCE_NOMINAL_S))
        manifests.add((workdir / "jobs.json").read_text(encoding="utf-8"))
    entry = (median(scaled), f"median of {len(raw)} corpus builds; raw {median(raw):.4f} s")
    return jobs, entry, len(manifests) == 1


def measure_end_to_end(jobs, workdir: Path, seconds: float, gate: Gate):
    """Rounds of one whw pass and one API pass.  Each job's time is its
    median over the rounds, which drops the bursts a shared machine adds to
    single runs; a pass's time is the sum of those medians."""
    harness.startup_s(workdir)          # fills the bytecode cache before timing
    whw, whw_raw, api, api_raw = ({job.name: [] for job in jobs} for _ in range(4))
    peak_kb = rounds = 0
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        for job in jobs:
            res, t = gate.whw(job)
            whw[job.name].append(t)
            whw_raw[job.name].append(res.wall_s)
            peak_kb = max(peak_kb, res.maxrss_kb)
        for job in jobs:
            res, t = gate.api(job)
            api[job.name].append(t)
            api_raw[job.name].append(res.wall_s)
        rounds += 1
        now = perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - t0) > deadline:
            break
    per_job = [median(v) for v in whw.values()]
    per_job_raw = [median(v) for v in whw_raw.values()]
    return {
        "corpus_s": (sum(per_job), f"sum over {len(jobs)} jobs of the median of {rounds} "
                     f"whw runs; raw {sum(per_job_raw):.4f} s"),
        "job_p50_s": (median(per_job), f"median over {len(jobs)} jobs of the median of "
                      f"{rounds} whw runs; raw {median(per_job_raw):.4f} s; "
                      f"p90 {quantiles(per_job, n=10)[-1]:.4f} s"),
        "api_s": (_sum_of_medians(api), f"sum over {len(jobs)} jobs of the median of "
                  f"{rounds} API runs; raw {_sum_of_medians(api_raw):.4f} s"),
        "peak_rss_mb": (peak_kb / 1024, f"max over {rounds * len(jobs)} whw runs"),
    }


def _input_bytes(jobs, workdir: Path) -> int:
    return sum((workdir / a).stat().st_size for job in jobs for a in job.args
               if a.endswith(".json") and a != job.output)


def _q_over_fp(jobs, times: dict) -> float:
    q = sum(times[j.name] for j in jobs if j.pair == "Q")
    fp = sum(times[j.name] for j in jobs if j.pair == "Fp")
    return q / fp


def _cross_section(workdir: Path, gate: Gate) -> None:
    """Set up and run ``corpus.cross_section`` once (see there)."""
    import corpus

    wd = workdir / "cross-section"
    for job in corpus.cross_section(wd):
        harness.clear_output(job, wd)
        gate.check(job, harness.run_api(job.argv(wd)), wd)


def measure_layers(args, jobs, workdir: Path, gate: Gate):
    """Untraced then traced API passes until the time is up (at least one)."""
    import corpus

    startup = [harness.startup_s(workdir) for _ in range(1 + STARTUP_SAMPLES)][1:]
    bytes_in = _input_bytes(jobs, workdir)
    passes = []
    deadline = perf_counter() + args.seconds
    while True:
        t0 = perf_counter()
        untraced = {job.name: gate.api(job)[0].wall_s for job in jobs}
        tracer = tracing.Tracer()
        traced = {}
        t1 = perf_counter()
        with tracing.instrumented(tracer, [corpus]):
            _cross_section(workdir, gate)
            corpus.build(args.workload, args.seed, workdir, args.size)
            for job in jobs:
                harness.clear_output(job, workdir)
                traced[job.name] = gate.check(job, harness.run_api(job.argv(workdir))).wall_s
        m = tracing.layer_metrics(tracer, perf_counter() - t1)
        m["scalars.q_over_fp"] = _q_over_fp(jobs, untraced)
        m["trace.overhead"] = sum(traced.values()) / sum(untraced.values())
        m["jsonio.bytes_in"] = bytes_in
        passes.append(m)
        now = perf_counter()
        if now + (now - t0) > deadline:
            break
    tracer.write(workdir / "trace.json")
    metrics = {name: (median([p[name] for p in passes]),
                      f"median of {len(passes)} traced passes") for name in passes[0]}
    metrics["cli.startup_s"] = (median(startup), f"median of {len(startup)} whw --help")
    return metrics


def parse_args(argv):
    import corpus

    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=corpus.SIZES, default="full",
                   help="corpus size; 'tiny' is for the smoke test only")
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        checkout.use_sources()
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = checkout.WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    jobs, setup, deterministic = measure_setup(args, workdir)

    gate = Gate(workdir)
    if args.trace:
        metrics, units = measure_layers(args, jobs, workdir, gate), tracing.PER_LAYER_UNITS
    else:
        metrics = measure_end_to_end(jobs, workdir, args.seconds, gate)
        metrics["setup_s"] = setup
        units = END_TO_END_UNITS

    print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs, trace={args.trace}")
    for message in gate.messages:
        print(f"# FAILED {message}", file=sys.stderr)
    if not deterministic:
        print("# FAILED the corpus differs between builds with one seed", file=sys.stderr)
    for name in units:
        value, note = metrics[name]
        print(f"{name:32s} {value:14.6f} {units[name]:6s} {note}")
    print(f"{'error_rate':32s} {gate.failed / gate.attempted:14.6f} {'ratio':6s} "
          f"{gate.failed} of {gate.attempted} job runs failed the verdict check")
    print(json.dumps({
        "correct": gate.failed == 0 and deterministic,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
