"""hypentropy benchmark: run workloads, print end-to-end or per-layer metrics.

    python3 perfbench/run.py                                  # all workloads, untraced
    python3 perfbench/run.py --workload sweep-random --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload file-analysis --trace 1   # per-layer figures

Each workload runs in its own worker process with numpy's BLAS pool pinned to
one thread.  Every op's output is checked (exit code, an independent oracle,
and byte equality with the recorded digest), and failures count against the
run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones in BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170          # the whole command must end within 180 s
SETUP_REPEATS = 12
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ, **dict.fromkeys(BLAS_PINS, "1"))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Set-up ends when the CLI is imported and its parser built.
SETUP_CHILD = ("import time; import hypentropy.cli as c; c.build_parser(); "
               "print(time.time_ns())")


def time_setup(env: dict, repeats: int) -> list[int]:
    """Set-up wall ns of fresh interpreters."""
    cmd = [sys.executable, "-c", SETUP_CHILD]
    samples = []
    for _ in range(repeats):
        start = time.time_ns()
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
        samples.append(int(out) - start)
    return samples


def tail(latencies_ms: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(res: dict, setup: list) -> tuple[dict, list, list]:
    """Metric values by name, at reference host speed, plus report-only
    figures: the host probe and the counts with no place in BENCHMARK.json."""
    factors = hostspeed.op_factors(res["probe_ns"])
    lat = [f * ns / 1e6 for f, ns in zip(factors, res["latency_ns"])]
    busy_s = sum(lat) / 1e3
    ops = res["ops"]
    tail_ms, tail_pct = tail(lat)
    values = {
        "setup_s": hostspeed.speed_factor(res["probe_ns"]) * statistics.median(setup) / 1e9,
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail": tail_ms,
        "ops_per_s": ops / busy_s,
        "cpu_s_per_op": sum(f * ns for f, ns in zip(factors, res["cpu_ns"])) / ops / 1e9,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    ref_ms = hostspeed.REFERENCE_NS / 1e6
    notes = [f"op_ms_tail is p{tail_pct:.1f} of {ops} op latencies",
             f"setup_s is the median of {len(setup)} fresh interpreters",
             f"times are at reference host speed (perfbench/hostspeed.py): an op's "
             f"times x {ref_ms:g} ms / mean of the {hostspeed.WINDOW} probes around it; "
             f"setup_s x {ref_ms:g} ms / host_probe_ms"]
    extra = [("failed_frac", res["failed"] / res["attempted"], "1")]
    if res["counts_states"]:
        extra.append(("states_per_s", res["states"] / busy_s, "1/s"))
    if res["counts_cells"]:
        extra.append(("cells_per_s", res["cells"] / busy_s, "1/s"))
    extra.append(("host_probe_ms", statistics.fmean(res["probe_ns"]) / 1e6, "ms"))
    return values, notes, extra


def run_workload(name: str, args, config: dict, deadline: float) -> dict:
    env = worker_env()
    setup = []
    if not args.trace:
        # One unmeasured start writes the bytecode cache; half the samples
        # come before the worker and half after, so setup_s does not hang on
        # one moment of the host's load.
        time_setup(env, 1)
        setup = time_setup(env, SETUP_REPEATS // 2)
    os.makedirs(OUT, exist_ok=True)
    inputs = args.seed % workloads.INPUT_SETS
    result_path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}-{args.scale}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(inputs), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale, "--result", result_path]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    if not args.trace:
        setup += time_setup(env, SETUP_REPEATS - len(setup))

    env_info = res["env"]
    print(f"# workload={name} seed={args.seed} inputs={inputs} trace={args.trace} scale={args.scale} "
          f"passes={res['passes']} ops={res['ops']} golden={res['golden_checked']}")
    print(f"# host nproc={env_info['nproc']} cpu={env_info['cpu']!r} "
          f"python={env_info['python']} numpy={env_info['numpy']} blas={env_info['blas']!r} "
          f"blas_threads={env_info['blas_threads']}")
    for problem in res["problems"]:
        print(f"# FAILED {problem}")
    if args.trace:
        specs = config["per_layer"]
        values = res["layers"]
        notes = [f"spans: {res['spans_stored']} stored, {res['spans_dropped']} "
                 f"dropped, in out/{res['spans_file']}"]
        if res["unwrapped"]:
            notes.append(f"not wrapped (absent from the program): {res['unwrapped']}")
        extra = []
    else:
        specs = config["end_to_end"]
        values, notes, extra = end_to_end(res, setup)
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:<44} {value:>16.6g} {spec['unit']}")
    for metric, value, unit in extra:
        print(f"{metric:<44} {value:>16.6g} {unit}   (report only)")
    for note in notes:
        print(f"# {note}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own test")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "hypentropy", "__init__.py")):
        print(f"error: no hypentropy package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    if args.seconds is None:
        args.seconds = config["run_seconds"]

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args, config, deadline) for name in names}
    except (subprocess.SubprocessError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": v for name, r in results.items()
                        for metric, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
