"""Print the SHA-256 of every benchmark job's exit code, stdout, stderr and
written document, and of every corpus document, for the given workloads and
seeds, and one digest over all of those lines: two trees whose digests agree
produce byte-identical outputs on the benchmark corpus.

    python3 tools/output_hashes.py [--workload W ...] [--seed N ...] [--digest-only]

Each workload's documents are built with ``bench/corpus.py`` in a temporary
directory, and every job runs once, in process, through ``weakhopf.cli.main``
(``bench/harness.py``'s ``run_api``).  The temporary directory's path is
replaced by ``<workdir>`` before stdout and stderr are hashed, and a job's
written document is removed after it is hashed, as the benchmark does.
Nothing under ``bench/`` is changed.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sparse-ladder", "dense-coproduct", "action-pipeline")


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def hashes(workload: str, seed: int) -> list[str]:
    """One ``<workload> <seed> <kind> <name> <sha256>`` line per output."""
    import corpus
    import harness

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "work"
        jobs = corpus.build(workload, seed, workdir)
        for path in sorted(workdir.iterdir()):
            lines.append(f"{workload} {seed} document {path.name} {_sha(path.read_bytes())}")
        for job in jobs:
            res = harness.run_api(job.argv(workdir))
            for kind, text in (("code", str(res.code)), ("stdout", res.stdout),
                               ("stderr", res.stderr)):
                lines.append(f"{workload} {seed} {kind} {job.name} "
                             f"{_sha(text.replace(str(workdir), '<workdir>'))}")
            if job.output:
                written = workdir / job.output
                sha = _sha(written.read_bytes()) if written.exists() else "missing"
                lines.append(f"{workload} {seed} output {job.name} {sha}")
                harness.clear_output(job, workdir)
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (repeatable; default: all three)")
    parser.add_argument("--seed", action="append", type=int,
                        help="a corpus seed (repeatable; default: 1)")
    parser.add_argument("--digest-only", action="store_true",
                        help="print only the digest over all lines")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    lines = [line for workload in args.workload or WORKLOADS for seed in args.seed or [1]
             for line in hashes(workload, seed)]
    if not args.digest_only:
        print(*lines, sep="\n")
    print(f"digest of {len(lines)} output hashes "
          f"({', '.join(args.workload or WORKLOADS)}; seeds {args.seed or [1]}): "
          f"{_sha(chr(10).join(lines))}")


if __name__ == "__main__":
    main()
