"""Smoke test for the benchmark, on the tiny corpora.

    python3 -m pytest bench/test_bench.py -q

Checks that every job of every workload reaches the verdict its document
was built to have, through both runners; that a short benchmark run reports
exactly the metric names BENCHMARK.json declares, in both trace modes; that
the traced time adds up; and that the benchmark refuses a directory that
holds no weakhopf sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checkout  # noqa: E402

checkout.use_sources()

import corpus  # noqa: E402
import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_tiny_corpus_verdicts(workload, tmp_path):
    jobs = corpus.build(workload, 11, tmp_path, "tiny")
    assert any(job.exit == 2 and job.fails for job in jobs), "no corrupted document"
    for job in jobs:
        for runner in (harness.run_api, lambda argv: harness.run_whw(argv, tmp_path)):
            harness.clear_output(job, tmp_path)
            res = runner(job.argv(tmp_path))
            assert harness.problems(job, res, tmp_path) == [], job.name


def test_cross_section_verdicts(tmp_path):
    for job in corpus.cross_section(tmp_path):
        harness.clear_output(job, tmp_path)
        res = harness.run_api(job.argv(tmp_path))
        assert harness.problems(job, res, tmp_path) == [], job.name


def test_seed_changes_contents_not_dimensions(tmp_path):
    a = corpus.build("sparse-ladder", 1, tmp_path / "a", "tiny")
    b = corpus.build("sparse-ladder", 2, tmp_path / "b", "tiny")
    assert [j.args[:2] for j in a] == [j.args[:2] for j in b]
    doc_a = json.loads((tmp_path / "a" / "kG4.json").read_text(encoding="utf-8"))
    doc_b = json.loads((tmp_path / "b" / "kG4.json").read_text(encoding="utf-8"))
    assert len(doc_a["basis"]) == len(doc_b["basis"]) == 4
    assert doc_a["basis"] != doc_b["basis"]


def test_end_to_end_metric_names_match_spec():
    proc = _run("action-pipeline", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_per_layer_metric_names_match_spec_and_time_adds_up():
    proc = _run("sparse-ladder", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    parts = layers + metrics["trace.bookkeeping_s"] + metrics["trace.unattributed_s"]
    assert parts == pytest.approx(metrics["trace.total_s"], rel=1e-9)
    assert metrics["tensor_space.matmul_calls"] > 0
    assert 0 < metrics["tensor_space.matmul_fill"] < 1
    assert [k for k, unit in declared.items() if unit == "s" and metrics[k] == 0] == []


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("action-pipeline", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
