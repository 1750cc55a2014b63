"""Runs one workload in its own process and writes a result file.

Started by ``run.py`` with numpy's BLAS pool pinned to one thread in the
environment.  The loop is closed: one client, each op starts when the
previous one returns, and only whole passes are measured so every run has
the same mix of ops.  Each op is preceded by a host-speed probe (see
hostspeed.py).  With ``--trace 1`` passes alternate between traced and
untraced, which gives the per-layer figures and the tracing overhead from
the same window.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def environment() -> dict:
    import numpy

    env = {"nproc": os.cpu_count(), "cpu": platform.machine(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "blas_threads": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        env["blas"] = "unknown"
    return env


class Runner:
    def __init__(self, workload, workdir: str):
        from hypentropy import calculus, cli
        from hypentropy.hyperbolic import HyperbolicInterval, embed_real

        self.workload = workload
        self.cli = cli
        self.calculus = calculus
        self.out_path = os.path.join(workdir, "op-output")
        # The shipped log function of the invariant suite, on [0.1, 2.0]_D.
        box = HyperbolicInterval(embed_real(workloads.PROBE_BOX[0]),
                                 embed_real(workloads.PROBE_BOX[1]))
        self.log_fn = calculus.DifferentiableFunction(
            calculus.ComponentFunction.symmetric(math.log, box),
            calculus.ComponentFunction.symmetric(lambda x: 1.0 / x, box))
        # (label, latency_ns, cpu_ns, probe_ns, rc, digest) per op
        self.records: list[tuple] = []
        self.texts: dict = {}            # (label, digest) -> output text

    def execute(self, op) -> None:
        """Probe the host's speed, then run one op and keep its digest."""
        probe_ns = hostspeed.probe()
        text, result = "", None
        if op.argv is not None and os.path.exists(self.out_path):
            os.remove(self.out_path)
        cpu, start = time.process_time_ns(), time.perf_counter_ns()
        try:
            if op.argv is not None:
                rc = self.cli.main(list(op.argv) + ["--output", self.out_path])
            else:
                samples, seed = op.probe
                result = self.calculus.concavity_probe(self.log_fn, samples=samples, seed=seed)
                rc = 0
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            rc = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter_ns() - start
        cpu = time.process_time_ns() - cpu
        if result is not None:
            text = workloads.probe_text(result)
        elif os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.texts.setdefault((op.label, digest), text)
        self.records.append((op.label, latency, cpu, probe_ns, rc, digest))

    def run_pass(self, tracer=None) -> list:
        """Run every op of one pass; return their records."""
        first = len(self.records)
        if tracer is not None:
            tracer.install()
        try:
            for op in self.workload.ops:
                if tracer is not None:
                    tracer.begin_op(len(self.records))
                self.execute(op)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return self.records[first:]

    def _check(self, label: str, digest: str, text: str) -> list:
        if not text:
            return [f"{label}: no output"]
        try:
            return self.workload.check(label, text)
        except Exception as exc:  # malformed output fails the op, not the run
            return [f"{label}: unreadable output ({type(exc).__name__}: {exc})"]

    def verdicts(self, golden: dict | None) -> tuple[int, list]:
        """Failed op count and the first problems found.

        An op fails on a non-zero exit code, on output its oracle rejects, or
        on output bytes that differ from the recorded digest for its label
        (the golden digest when this seed has one, otherwise the first output
        seen for that label in this run).
        """
        problems = {key: self._check(*key, text) for key, text in self.texts.items()}
        reference = dict(golden or {})
        for label, *_, digest in self.records:
            reference.setdefault(label, digest)
        failed, messages = 0, []
        for label, _, _, _, rc, digest in self.records:
            why = []
            if rc != 0:
                why.append(f"{label}: exit {rc}")
            why += problems[(label, digest)]
            if digest != reference[label]:
                why.append(f"{label}: output digest {digest[:12]} != recorded "
                           f"{reference[label][:12]}")
            if why:
                failed += 1
                messages += [w for w in why if w not in messages]
        return failed, messages[:20]


def digests(records) -> dict:
    """The output digest of each op label."""
    return {label: digest for label, *_, digest in records}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    out_dir = os.path.dirname(args.result)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        workload = workloads.build(args.workload, args.seed, args.scale, workdir)
        runner = Runner(workload, workdir)
        tracer = None
        if args.trace:
            from spans import Tracer, hypentropy_modules
            tracer = Tracer(hypentropy_modules())
        warmup = runner.run_pass()  # lazy imports, allocator, page cache

        measured = {False: [], True: []}  # untraced / traced op records
        start = time.perf_counter()
        passes = 0
        while True:
            traced = bool(args.trace) and passes % 2 == 0
            measured[traced] += runner.run_pass(tracer if traced else None)
            passes += 1
            if time.perf_counter() - start >= args.seconds and not traced:
                break
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        golden = None
        golden_path = os.path.join(HERE, "golden.json")
        if args.scale == "full" and os.path.exists(golden_path):
            with open(golden_path, encoding="utf-8") as fh:
                golden = json.load(fh).get(args.workload, {}).get(str(args.seed))
        failed, problems = runner.verdicts(golden)
        plain, traced_ops = measured[False], measured[True]
        plain_passes = len(plain) // len(workload.ops)
        result = {
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "trace": args.trace, "env": environment(),
            "golden_checked": golden is not None,
            "attempted": len(runner.records), "failed": failed, "problems": problems,
            "passes": passes, "ops": len(plain), "peak_rss_kb": peak_rss_kb,
            "latency_ns": [r[1] for r in plain],
            "cpu_ns": [r[2] for r in plain],
            "probe_ns": [r[3] for r in plain],
            "states": sum(op.states for op in workload.ops) * plain_passes,
            "cells": sum(op.cells for op in workload.ops) * plain_passes,
            "counts_states": workload.counts_states,
            "counts_cells": workload.counts_cells,
            "digests": digests(warmup + plain),
        }
        if tracer is not None:
            result["traced_digests"] = digests(traced_ops)
            result["layers"] = tracer.layer_metrics(
                hostspeed.speed_factor([r[3] for r in traced_ops]))
            # Traced and untraced passes alternate in one window, so their
            # wall times compare directly.
            traced_ms, plain_ms = (sum(r[1] for r in recs) / len(recs)
                                   for recs in (traced_ops, plain))
            result["layers"]["trace.overhead_frac"] = traced_ms / plain_ms - 1.0
            result["span_summary"] = tracer.span_summary()
            result["unwrapped"] = tracer.missing
            result["spans_stored"] = len(tracer.spans)
            result["spans_dropped"] = tracer.dropped_spans
            spans_path = args.result[:-len(".json")] + "-spans.jsonl"
            tracer.write_spans(spans_path)
            result["spans_file"] = os.path.basename(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
