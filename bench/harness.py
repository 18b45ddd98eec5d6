"""Run corpus jobs and check every verdict.

Two ways to run a job, both through ``weakhopf.cli:main``:

* ``run_whw``: a ``python -m weakhopf.cli`` child process, timed from spawn
  to reap, with its peak RSS taken from ``os.wait4``.  A SIGALRM watchdog
  kills a child that outlives the per-job timeout.
* ``run_api``: ``cli.main(argv)`` in this process with stdout and stderr
  captured, which is the library path (``jsonio.*_from_json`` → checker →
  ``Report.to_json`` → ``canonical_dumps``) without interpreter start-up.

``problems`` compares one outcome with the job's expected verdict.

The machine this runs on is shared, and its speed swings by a quarter or
more over seconds to minutes, for Python work and process start-up
alike.  So every timed run is paired with a fixed pure-Python reference
kernel (exact ``Fraction`` arithmetic over a small matrix) run the same way
right beside it: in this process before and after an in-process run, and as
a child process just before a ``whw`` child.  ``scaled`` divides a wall time
by its reference and multiplies by the reference's nominal duration, giving
seconds at a fixed machine speed.  The reference is part of the benchmark,
not of weakhopf, so a change to the library moves the scaled times in
proportion to the wall times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checkout import whw_env

JOB_TIMEOUT_S = 60


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int = 0
    timed_out: bool = False


REFERENCE_SOURCE = """
from fractions import Fraction
third = Fraction(1, 3)
rows = [tuple(Fraction(i * j % 5, 7) for j in range(30)) for i in range(30)]
acc = Fraction(0)
for row in rows:
    for x in row:
        if x:
            acc = acc + x * third
"""
_REFERENCE = compile(REFERENCE_SOURCE, "<reference>", "exec")
REFERENCE_NOMINAL_S = 0.004          # in this process
REFERENCE_CHILD_NOMINAL_S = 0.065    # as a child process, start-up included


def reference_s() -> float:
    t0 = perf_counter()
    exec(_REFERENCE, {})
    return perf_counter() - t0


def reference_child_s(workdir: Path) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_SOURCE], stdin=subprocess.DEVNULL,
                   cwd=workdir, env=whw_env(), check=True)
    return perf_counter() - t0


def scaled(wall_s: float, reference: float, nominal: float) -> float:
    """``wall_s`` at the machine speed where the reference takes ``nominal``."""
    return wall_s * nominal / reference


def run_whw(argv: list, workdir: Path) -> Outcome:
    out_path, err_path = workdir / "whw.stdout", workdir / "whw.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "weakhopf.cli", *argv],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=workdir, env=whw_env())
        timed_out = []

        def kill(signum, frame):
            timed_out.append(True)
            os.kill(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out_path.read_text(encoding="utf-8"),
                   err_path.read_text(encoding="utf-8"), wall, usage.ru_maxrss,
                   bool(timed_out))


def run_api(argv: list) -> Outcome:
    from weakhopf import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return Outcome(code, out.getvalue(), err.getvalue(), perf_counter() - t0)


def startup_s(workdir: Path) -> float:
    """Wall time of ``whw --help``: interpreter start plus the library import."""
    res = run_whw(["--help"], workdir)
    if res.code != 0:
        raise RuntimeError(f"whw --help exited {res.code}: {res.stderr.strip()}")
    return res.wall_s


def _failed_labels(doc: dict) -> set:
    reports = doc["reports"] if "reports" in doc else [doc["report"]]
    return {f"{r['title']}: {x['label']}" for r in reports for x in r["results"]
            if not x["passed"] and not x["skipped"]}


def problems(job, res: Outcome, workdir: Path) -> list:
    """Every way ``res`` departs from the job's known verdict (empty if none)."""
    out = []
    if res.timed_out:
        out.append(f"timed out after {JOB_TIMEOUT_S} s")
    if res.code != job.exit:
        out.append(f"exit {res.code}, expected {job.exit}")
    if "Traceback" in res.stderr:
        out.append("traceback on stderr")
    if job.ok is not None:
        try:
            doc = json.loads(res.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return out + ["no JSON report on stdout"]
        if doc.get("ok") is not job.ok:
            out.append(f"ok={doc.get('ok')}, expected {job.ok}")
        missing = sorted(set(job.fails) - _failed_labels(doc))
        if missing:
            out.append(f"expected failures not reported: {missing}")
    if job.output:
        path = workdir / job.output
        if not path.is_file():
            out.append(f"{job.output} was not written")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != job.output_sha:
            out.append(f"{job.output} differs from the expected document")
    return out


def clear_output(job, workdir: Path) -> None:
    if job.output:
        (workdir / job.output).unlink(missing_ok=True)
