"""Print, for each job of a benchmark workload, the weakhopf modules its ``whw``
process loads, the source lines it compiles, and how many of those lines
are in functions the job never calls.

    python3 tools/closure_lines.py --workload action-pipeline --seed 1 [--summary | --by-function]

The workload's documents are built with ``bench/corpus.py`` in a temporary
directory.  Each job then runs in a fresh child interpreter with this
checkout's ``src/`` on its path, which imports ``weakhopf.cli`` and calls
``cli.main`` on the job's arguments under ``sys.settrace``, recording the code
object of every call.
Once ``cli.main`` returns, the child reads the ``weakhopf`` modules in
``sys.modules``: every line of each module's file is compiled, since no
bytecode cache is read or written.  A function whose code object was never
called counts with all its lines (from its first line, a decorator if it has
one, to its last), and the functions nested in it are not counted again;
comprehensions, generator expressions and lambdas are parts of the function
that holds them.  The last lines give the median over the jobs; with
``--summary`` only those are printed.  With ``--by-function`` the per-job
lines give way to one line per function that some job compiles and never
calls, with its lines summed over those jobs, largest first: the code that
the most compiling would be saved by moving out of those jobs' modules.
"""

import argparse
import json
from collections import Counter
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import contextlib, io, json, sys
called = set()

def trace(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.settrace(trace)
from weakhopf import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
sys.settrace(None)
keys = {(c.co_filename, c.co_firstlineno, c.co_name) for c in called}

def uncalled(code, prefix, out):
    # {qualified name: lines} of the functions nested in ``code`` that never ran
    for sub in code.co_consts:
        if not hasattr(sub, "co_lines") or sub.co_name.startswith("<"):
            continue
        if (sub.co_filename, sub.co_firstlineno, sub.co_name) in keys:
            uncalled(sub, f"{prefix}{sub.co_name}.", out)
        else:
            last = max((line for _, _, line in sub.co_lines() if line), default=sub.co_firstlineno)
            out[prefix + sub.co_name] = last - sub.co_firstlineno + 1
    return out

modules = {}
for name, module in sorted(sys.modules.items()):
    if name.startswith("weakhopf") and getattr(module, "__file__", None):
        with open(module.__file__, encoding="utf-8") as fh:
            source = fh.read()
        code = compile(source, module.__file__, "exec")
        modules[name.partition(".")[2] or "__init__"] = (source.count("\n"), uncalled(code, "", {}))
print(json.dumps(modules))
"""


def job_closure(argv: list, workdir: Path) -> dict:
    """{module: (lines, {function never called: its lines})} of one ``whw`` child."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"child failed on {argv}: {proc.stderr}")
    return json.loads(proc.stdout)


def by_function(closures: list) -> list:
    """(lines summed over the jobs, jobs, "module.function") for each function
    that some of the ``job_closure`` results compile and never call, largest first."""
    lines, jobs = Counter(), Counter()
    for modules in closures:
        for module, (_, idle) in modules.items():
            for function, n in idle.items():
                lines[f"{module}.{function}"] += n
                jobs[f"{module}.{function}"] += 1
    return sorted(((n, jobs[name], name) for name, n in lines.items()),
                  key=lambda row: (-row[0], row[2]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    listing = parser.add_mutually_exclusive_group()
    listing.add_argument("--summary", action="store_true", help="print only the medians")
    listing.add_argument("--by-function", action="store_true",
                         help="list the never-called functions instead of the jobs")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import corpus

    rows, closures = [], []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for job in corpus.build(args.workload, args.seed, workdir):
            modules = job_closure(job.argv(workdir), workdir)
            closures.append(modules)
            lines = sum(n for n, _ in modules.values())
            idle = sum(sum(u.values()) for _, u in modules.values())
            rows.append((job.name, len(modules), lines, idle))
            if not (args.summary or args.by_function):
                print(f"{job.name:<40} {len(modules):>2} modules  {lines:>5} lines  "
                      f"{idle:>5} never called  {' '.join(sorted(modules))}")
    if args.by_function:
        for n, jobs, name in by_function(closures):
            print(f"{n:>6} lines over {jobs:>3} jobs  {name}")
    print(f"{args.workload}, seed {args.seed}, {len(rows)} jobs, median per job: "
          f"{median(r[1] for r in rows):g} modules, {median(r[2] for r in rows):g} lines "
          f"compiled, {median(r[3] for r in rows):g} of them in functions never called")


if __name__ == "__main__":
    main()
