"""Count the exact-rational multiplications and additions of one in-process
pass over a benchmark workload, by the function that asked for them, and how
many of the multiplications have an operand equal to 1.

    python3 tools/count_unit_products.py [--workload dense-coproduct] [--seed 1]

The workload's documents are built with ``bench/corpus.py`` in a temporary
directory, every job runs once through ``weakhopf.cli.main``, and then runs
again with ``Fraction.__mul__``, ``__rmul__``, ``__add__`` and ``__radd__``
wrapped by a counter.  Operations on two ints are not counted: they build no
``Fraction``.  The counts are exact and repeat from run to run.
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

    # caller → [products, products with an operand equal to 1, additions]
    counts = collections.defaultdict(lambda: [0, 0, 0])
    originals = {name: getattr(Fraction, name)
                 for name in ("__mul__", "__rmul__", "__add__", "__radd__")}

    def counted(op, product: bool):
        def wrapper(a, b):
            code = sys._getframe(1).f_code
            row = counts[getattr(code, "co_qualname", code.co_name).replace(".<locals>", "")]
            if product:
                row[0] += 1
                row[1] += a == 1 or b == 1
            else:
                row[2] += 1
            return op(a, b)
        return wrapper

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        jobs = corpus.build(args.workload, args.seed, workdir)
        run_jobs(cli, jobs, workdir)   # first pass: caches and lazy imports
        for name, op in originals.items():
            setattr(Fraction, name, counted(op, "mul" in name))
        try:
            run_jobs(cli, jobs, workdir)
        finally:
            for name, op in originals.items():
                setattr(Fraction, name, op)
    products, ones, additions = (sum(row[i] for row in counts.values()) for i in range(3))
    print(f"{args.workload}, seed {args.seed}, {len(jobs)} jobs: {products} Fraction "
          f"multiplications ({ones} with an operand equal to 1) and {additions} "
          f"Fraction additions")
    width = max((len(caller) for caller in counts), default=6)
    print(f"  {'caller':<{width}}  products  by 1  additions")
    for caller, (mul, one, add) in sorted(counts.items(), key=lambda kv: -kv[1][0] - kv[1][2]):
        print(f"  {caller:<{width}}  {mul:>8}  {one:>4}  {add:>9}")


if __name__ == "__main__":
    main()
