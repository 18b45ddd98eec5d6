"""Seeded mutations of the benchmark corpus, run through ``cli.main`` in process.

Each job of the seed-1 corpus of every workload is run on copies of its
document with one node of the JSON tree mutated: a member deleted, a list one
element longer or shorter, a list shuffled, an unknown member added, a label
repeated, or a node replaced by a value of the wrong type or a hostile scalar
string.  Whatever the mutant, ``whw`` must end with a documented exit code,
and an input it refuses (3) or a construction it cannot make (4) is reported on
one line of stderr: no exception escapes ``main``.  The line of a refused input
names where the fault is: a JSON path in the mutant or a command-line argument.
"""

import contextlib
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

import pytest

from weakhopf.cli import main

ROOT = Path(__file__).resolve().parent.parent
MUTANTS_PER_JOB = 40
WORKLOADS = ("sparse-ladder", "dense-coproduct", "action-pipeline")

HOSTILE = [None, True, 1.5, -1, 0, 10 ** 30, [], {}, [[]], {"a": 1}, ["x"], "", "x", "1/0",
           "abc", "1e100000000", "0e100000000", "-0.000", "nan", "inf", "1/3", " 7", "0x10",
           "9" * 5000, "Fp:4", "Fp:x"]


def _corpus():
    """``bench/corpus.py``, loaded by its path: ``bench/`` is not a package."""
    spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
    corpus = sys.modules["bench_corpus"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def names_a_path(doc, path: str) -> bool:
    """Whether ``path`` ("hopf.mul[0][2]", "document") reaches a node of ``doc``
    or a missing member of an object that it reaches.  A member name may hold a
    dot (a groupoid element such as "g1.e"), so the longest name that the path
    continues with is taken first."""
    node = doc
    while path and path != "document":
        if path.startswith("["):
            i, _, path = path[1:].partition("]")
            if not (isinstance(node, list) and i.isdecimal() and int(i) < len(node)):
                return False
            node, path = node[int(i)], path.removeprefix(".")
            continue
        key = max((k for k in node if path == k or path.startswith((f"{k}.", f"{k}["))),
                  key=len, default=None) if isinstance(node, dict) else None
        if key is None:   # a member missing, or of a node that is no object: one name
            return not any(c in path for c in "[] '\"")
        node, path = node[key], path[len(key):].removeprefix(".")
    return True


def mutate(doc, rng: random.Random):
    """A copy of ``doc`` with one node, reached by a random walk from the root, mutated."""
    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and rng.random() < 0.85:
        parent, key = node, rng.choice(sorted(node) if isinstance(node, dict) else range(len(node)))
        node = parent[key]
    kind = rng.randrange(6)
    if parent is None:
        return rng.choice(HOSTILE)
    if kind == 0 and isinstance(parent, dict):
        del parent[key]
    elif kind == 1 and isinstance(node, list) and node:
        node.append(node[-1]) if rng.random() < 0.5 else node.pop()
    elif kind == 2 and isinstance(node, list):
        rng.shuffle(node)
    elif kind == 3 and isinstance(node, dict):
        node["unknown"] = 1
    elif kind == 4 and isinstance(node, str) and isinstance(parent, list):
        parent[key] = parent[rng.randrange(len(parent))]
    else:
        parent[key] = rng.choice(HOSTILE)
    return doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_mutant_of_a_corpus_document_escapes_main(tmp_path, workload):
    rng, faults, codes = random.Random(workload), [], set()
    jobs = _corpus().build(workload, 1, tmp_path)
    for job in jobs:
        argv = job.argv(tmp_path)
        output = str(tmp_path / job.output) if job.output else None
        at = next(i for i, a in enumerate(argv) if a.endswith(".json") and a != output)
        doc = json.loads(Path(argv[at]).read_text(encoding="utf-8"))
        for n in range(MUTANTS_PER_JOB):
            mutant, mutated = tmp_path / "mutant.json", mutate(doc, rng)
            mutant.write_text(json.dumps(mutated), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([*argv[:at], str(mutant), *argv[at + 1:]])
                except SystemExit as exc:
                    code = exc.code
            codes.add(code)
            lines = err.getvalue().splitlines()
            if code not in (0, 2, 3, 4) or code in (3, 4) and len(lines) != 1:
                faults.append(f"{job.name} mutant {n}: exit {code}, stderr {lines}")
            elif code == 3:   # "whw: [malformed input: MalformedInput: |cannot read ]<where>: …"
                where = lines[0].removeprefix("whw: ").removeprefix(
                    "malformed input: MalformedInput: ").removeprefix("cannot read ")
                where = where.partition(": ")[0]
                if not (where in (str(mutant), *argv) or names_a_path(mutated, where)):
                    faults.append(f"{job.name} mutant {n}: {lines[0]!r} names no path")
    assert not faults, "\n".join(faults)
    assert {0, 3} <= codes   # the mutants reach both the checkers and the readers
