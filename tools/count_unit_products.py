"""Count the exact-rational multiplications of one in-process pass over a
benchmark workload, and how many of them have an operand equal to 1.

    python3 tools/count_unit_products.py [--workload dense-coproduct] [--seed 1]

The workload's documents are built with ``bench/corpus.py`` in a temporary
directory, every job runs once through ``weakhopf.cli.main``, and then runs
again with ``Fraction.__mul__`` and ``Fraction.__rmul__`` wrapped by a
counter.  Products of two ints are not counted: they build no ``Fraction``.
The counts are exact and repeat from run to run; the table names the
function that asked for each product with an operand of 1.
"""

import argparse
import collections
import contextlib
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_jobs(cli, jobs, workdir: Path) -> None:
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(job.argv(workdir))
            except SystemExit:
                pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="dense-coproduct")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import corpus
    from weakhopf import cli

    total, by_caller = 0, collections.Counter()
    mul, rmul = Fraction.__mul__, Fraction.__rmul__

    def counted(op):
        def wrapper(a, b):
            nonlocal total
            total += 1
            if a == 1 or b == 1:
                by_caller[sys._getframe(1).f_code.co_name] += 1
            return op(a, b)
        return wrapper

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        jobs = corpus.build(args.workload, args.seed, workdir)
        Fraction.__mul__, Fraction.__rmul__ = counted(mul), counted(rmul)
        try:
            run_jobs(cli, jobs, workdir)
        finally:
            Fraction.__mul__, Fraction.__rmul__ = mul, rmul
    ones = sum(by_caller.values())
    print(f"{args.workload}, seed {args.seed}, {len(jobs)} jobs: {ones} of {total} "
          f"Fraction multiplications have an operand equal to 1")
    for caller, count in by_caller.most_common():
        print(f"  {caller}: {count}")


if __name__ == "__main__":
    main()
