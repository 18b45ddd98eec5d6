"""Count the exact-rational multiplications and additions of one in-process
pass over a benchmark workload, by the function that asked for them, and how
many of the multiplications have an operand equal to 1; and count the calls of
the sparse kernels ``_combine`` and ``_accumulate`` by shape.

    python3 tools/count_unit_products.py [--workload dense-coproduct] [--seed 1]

The workload's documents are built with ``bench/corpus.py`` in a temporary
directory, every job runs once through ``weakhopf.cli.main``, and then runs
again with ``Fraction.__mul__``, ``__rmul__``, ``__add__`` and ``__radd__``
wrapped by a counter.  Operations on two ints are not counted: they build no
``Fraction``.  In the same pass the two kernels are wrapped in every module that
imports them, and each call is counted as empty (no terms), shared (its result
is one of its operand columns itself: one term with coefficient 1) or other.
The counts are exact and repeat from run to run.
"""

import argparse
import collections
import contextlib
import importlib
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

KERNEL_MODULES = ("tensor_space", "elimination", "structures", "axioms", "weak_hopf", "weak_axioms",
                  "hopf", "identities", "actions", "partial_actions", "groupoid_actions",
                  "globalization")
SHAPES = ("empty", "shared", "other")

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

    # kernel → calls by shape
    shapes = {"_combine": collections.Counter(), "_accumulate": collections.Counter()}

    def shaped(name, kernel):
        def wrapper(*args):
            *cols, terms, p = args      # _combine(cols, terms, p) or _accumulate(terms, p)
            terms = list(terms)
            got = kernel(*cols, terms, p)
            operands = [cols[0][k] for k, _ in terms] if cols else [v for v, _ in terms]
            shapes[name]["empty" if not terms else
                         "shared" if any(got is v for v in operands) else "other"] += 1
            return got
        return wrapper

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        jobs = corpus.build(args.workload, args.seed, workdir)
        run_jobs(cli, jobs, workdir)   # first pass: caches and lazy imports
        modules = [importlib.import_module(f"weakhopf.{m}") for m in KERNEL_MODULES]
        kernels = [(m, name, getattr(m, name)) for m in modules for name in shapes
                   if hasattr(m, name)]
        for name, op in originals.items():
            setattr(Fraction, name, counted(op, "mul" in name))
        for m, name, kernel in kernels:
            setattr(m, name, shaped(name, kernel))
        try:
            run_jobs(cli, jobs, workdir)
        finally:
            for name, op in originals.items():
                setattr(Fraction, name, op)
            for m, name, kernel in kernels:
                setattr(m, name, kernel)
    products, ones, additions = (sum(row[i] for row in counts.values()) for i in range(3))
    print(f"{args.workload}, seed {args.seed}, {len(jobs)} jobs: {products} Fraction "
          f"multiplications ({ones} with an operand equal to 1) and {additions} "
          f"Fraction additions")
    width = max((len(caller) for caller in counts), default=6)
    print(f"  {'caller':<{width}}  products  by 1  additions")
    for caller, (mul, one, add) in sorted(counts.items(), key=lambda kv: -kv[1][0] - kv[1][2]):
        print(f"  {caller:<{width}}  {mul:>8}  {one:>4}  {add:>9}")
    for name, by_shape in shapes.items():
        print(f"{name} calls: {sum(by_shape.values())}, of them "
              + ", ".join(f"{by_shape[s]} {s}" for s in SHAPES)
              + " (shared: the result is one operand column itself)")


if __name__ == "__main__":
    main()
