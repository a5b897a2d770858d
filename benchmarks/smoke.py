"""Smoke test of the benchmark itself; run with

    python3 -m pytest benchmarks/smoke.py -q

(the file name keeps it out of the package's own test collection).  Tiny
inputs keep it to a few seconds per workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
CONFIG = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=BENCH_DIR.parent):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def _metrics(section):
    return {m["name"]: m["unit"] for m in CONFIG[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
def test_tiny_run_is_correct_and_prints_every_metric(workload):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    *_, context_line, result_line = done.stdout.splitlines()
    result = json.loads(result_line)
    context = json.loads(context_line)["context"]
    assert result["correct"] and result["failed"] == 0, context["failures"]
    assert context["failed_ratio"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _metrics("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("python", "nproc", "platform", "seed", "samples", "op_tail_percentile"):
        assert key in context


def test_traced_run_prints_every_layer_metric():
    done = _bench("--workload", "word_stream", "--seed", "3", "--seconds", "0.2",
                  "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _metrics("per_layer")
    assert all(v["value"] is not None for v in result["metrics"].values())


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"), "--workload",
         "word_stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _off_by_one(real):
    return lambda *args: real(*args) + 1


def _flip_first_symbol(ff, real):
    def corrupted(*args):
        w = real(*args)
        return ff.Word(w.modulus, ((w.symbols[0] + 1) % w.modulus,) + w.symbols[1:])
    return corrupted


def _drop_last_element(real):
    def corrupted(*args):
        lines = real(*args).split(b"\n")
        return b"\n".join(lines[:-3] + lines[-2:])
    return corrupted


def _all_green(ff):
    return lambda: [ff.CheckResult(f"check-{i}", True, "ok") for i in range(13)]


CORRUPTIONS = {
    "codebook_walk": ("minimum_distance", lambda ff, real: _off_by_one(real)),
    "word_stream": ("apply_addition_only", _flip_first_symbol),
    "flower_render": ("to_svg", lambda ff, real: _drop_last_element(real)),
    "cli_session": ("cli.run_checks", lambda ff, real: _all_green(ff)),
}


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failure(workload, monkeypatch, tmp_path):
    ff = workloads.import_fieldflower()
    _, ops = run.prepare(ff, workload, 3, True, tmp_path)
    clean = run.run_rounds(ops, spans.NullTracer, 0)
    assert clean.failed == 0, clean.notes

    path, corrupt = CORRUPTIONS[workload]
    owner = ff
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    monkeypatch.setattr(owner, attr, corrupt(ff, getattr(owner, attr)))
    broken = run.run_rounds(ops, spans.NullTracer, 0)
    assert broken.attempted == clean.attempted
    assert broken.failed > 0, f"{path} corrupted but every output passed"
