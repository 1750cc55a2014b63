"""The benchmark's own test: every workload at a tiny size, through the same
command the measured runs use.

    python3 -m pytest perfbench/tests -q

It is outside the package's tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    CONFIG = json.load(fh)

SEED = 3
EXACT_COUNTS = ("rng.draws", "calculus.limit_evals", "hyperbolic.ops",
                "stability.cells", "distributions.load_states")
# Counts each workload must exercise, so "repeats exactly" is not 0 == 0.
NONZERO = {
    "sweep-random": ("rng.draws", "stability.cells"),
    "sweep-analytic": ("stability.cells", "stability.copy_bytes"),
    "file-analysis": ("calculus.limit_evals", "distributions.load_states"),
    "scalar-calculus": ("rng.draws", "hyperbolic.ops", "calculus.limit_evals"),
}


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    summary = json.loads(proc.stdout.splitlines()[-1])
    path = os.path.join(run.OUT, f"{workload}-seed{SEED}-trace{trace}-tiny.json")
    with open(path, encoding="utf-8") as fh:
        return summary, json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
def test_workload_tiny(workload):
    plain, plain_result = bench(workload, 0)
    traced, traced_result = bench(workload, 1)
    again, _ = bench(workload, 1)

    for summary in (plain, traced, again):
        assert summary["correct"] and summary["failed"] == 0, summary
        assert summary["attempted"] >= 1
    for summary, specs in ((plain, CONFIG["end_to_end"]), (traced, CONFIG["per_layer"])):
        assert {k: v["unit"] for k, v in summary["metrics"].items()} == \
            {m["name"]: m["unit"] for m in specs}

    # Tracing must not change a single output byte.
    assert traced_result["traced_digests"] == plain_result["digests"]
    assert traced_result["digests"] == plain_result["digests"]

    for name in EXACT_COUNTS:
        assert traced["metrics"][name]["value"] == again["metrics"][name]["value"], name
    for name in NONZERO[workload]:
        assert traced["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "sweep-random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_closed_form_matches_the_known_ratio():
    # Renyi q = 2 on UniformSpike at N = 1e5, delta = 0.01.
    _, ratio = workloads.closed_form("UniformSpike", 100_000, 0.01, "renyi", 2.0)
    assert round(ratio, 4) == 0.1088


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail(list(range(5))) == (4, 100.0)


def test_each_op_is_scaled_by_the_probes_around_it():
    import hostspeed

    ref = hostspeed.REFERENCE_NS
    probes = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert hostspeed.op_factors(probes) == pytest.approx(
        [3 / 4, 2 / 3, 5 / 8, 5 / 9, 1 / 2, 1 / 2])
