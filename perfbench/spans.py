"""Out-of-tree span recorder for the hypentropy package.

The tracer wraps each layer's public functions from outside the program: it
replaces module attributes (including the names other modules bound with
``from .x import y``) and a few class attributes, records one span per call
(name, start, end, parent, op id, self time) in memory, and restores every
original on ``uninstall``.  Nothing in ``src/`` knows about it.

Three kinds of wrapper keep the cost proportionate to the call rate:

* spans: ordinary layer-boundary calls, stored and aggregated;
* tallies: the RNG entry points, called up to 10^5 times per op, are timed
  and counted but not stored; only calls entering the generator from outside
  go through a wrapper, and their time is charged to the enclosing span as
  child time;
* counts: hyperbolic arithmetic dunders, counted only.

Self time of a span is its duration minus the time its child spans and
tallies cover.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import sys
import time
from collections import defaultdict

_now = time.perf_counter_ns

# Functions wrapped as spans, per layer module.  Private names are the CLI's
# load/format/write steps, which have no public entry point.
SPAN_FUNCTIONS = {
    "cli": ["main", "cmd_entropy", "cmd_stability", "cmd_limits", "cmd_verify",
            "records_to_csv", "_records_to_json", "_load_distribution",
            "_write_output"],
    "distributions": ["validate", "embed", "uniform", "uniform_hyp", "mix",
                      "perturbation_family", "hyp_to_json", "hyp_from_json",
                      "hyp_to_csv", "hyp_from_csv", "real_to_json",
                      "real_from_json", "real_to_csv", "real_from_csv"],
    "measures": ["shannon", "extropy", "extropy_duality_check", "renyi",
                 "hartley", "collision", "renyi_extropy",
                 "shannon_via_generating", "strong_shannon_hyp",
                 "strong_shannon_via_generating", "renyi_hyp",
                 "renyi_hyp_mixed", "renyi_hyp_limit", "hartley_hyp",
                 "collision_hyp", "strong_extropy_hyp", "renyi_extropy_hyp"],
    "stability": ["lesche_norm", "lesche_norm_hyp", "stability_ratio",
                  "stability_sweep"],
    "calculus": ["hyp_derivative", "check_cauchy_riemann", "hyp_limit",
                 "lhopital_check", "concavity_probe"],
    "verify": ["run_invariants"],
}
SPAN_METHODS = {
    ("distributions", "HyperbolicDistribution"): ["projection1", "projection2"],
    ("distributions", "RealDistribution"): ["__post_init__"],
}
RNG_METHODS = ("randoms", "random", "uniform", "randint", "next_u64")
HYPERBOLIC_DUNDERS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__")

LOADERS = ("distributions.hyp_from_json", "distributions.hyp_from_csv",
           "distributions.real_from_json", "distributions.real_from_csv")
FORMATTERS = ("cli.cmd_entropy", "cli.cmd_stability", "cli.cmd_limits",
              "cli.cmd_verify", "cli.records_to_csv", "cli._records_to_json")
KERNEL_BUCKETS = ("small", "N1e3", "N1e4", "N1e5", "N1e6")


def kernel_bucket(n: int) -> str:
    """Nearest power of ten from 1e3 to 1e6; smaller N go to ``small``."""
    if n < 10 ** 2.5:
        return "small"
    return f"N1e{min(6, max(3, round(math.log10(n))))}"


class _Agg:
    __slots__ = ("calls", "incl_ns", "self_ns", "n", "errors")

    def __init__(self):
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.n = 0
        self.errors = defaultdict(int)


class Tracer:
    """Span stack, aggregates and the list of patches that feed them."""

    MAX_SPANS = 200_000  # stored per run; aggregates keep counting beyond it

    def __init__(self, hypentropy_modules):
        self.mods = hypentropy_modules
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op = -1
        self.ops = 0
        self._stack: list[list] = []
        self._next_id = 0
        self.agg: dict[str, _Agg] = defaultdict(_Agg)
        self.kernel_self_ns = dict.fromkeys(KERNEL_BUCKETS, 0)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._patches = self._build_patches()

    # -- span bookkeeping ---------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.ops += 1

    def _push(self, name: str) -> list:
        frame = [self._next_id, name, _now(), 0, 0, None]  # id, name, start, child_ns, rng draws, extra
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list, error) -> None:
        end = _now()
        self._stack.pop()
        span_id, name, start, child_ns, _, extra = frame
        dur = end - start
        self_ns = dur - child_ns
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        agg = self.agg[name]
        agg.calls += 1
        agg.incl_ns += dur
        agg.self_ns += self_ns
        n = extra.get("n", 0) if extra else 0
        agg.n += n
        if error is not None:
            agg.errors[error] += 1
        if name.startswith("measures."):
            self.kernel_self_ns[kernel_bucket(n)] += self_ns
        if len(self.spans) < self.MAX_SPANS:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else -1,
                               self.op, self_ns, error, extra))
        else:
            self.dropped_spans += 1

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, info=None, prepare=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            frame = tracer._push(name)
            error = None
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    frame[5] = info(args, kwargs, result, frame)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer._pop(frame, error)

        return wrapper

    def _rng(self, fn, draws_of, pristine):
        tracer = self

        def wrapper(self_, *args):
            # For the length of the call the generator runs as ``pristine``,
            # a subclass holding the unwrapped methods, so the draws it makes
            # internally (randoms -> random -> next_u64) pay no wrapper cost.
            cls = self_.__class__
            self_.__class__ = pristine
            start = _now()
            try:
                return fn(self_, *args)
            finally:
                dur = _now() - start
                self_.__class__ = cls
                draws = draws_of(args)
                counts = tracer.counts
                counts["rng.calls"] += 1
                counts["rng.draws"] += draws
                counts["rng.ns"] += dur
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent[3] += dur
                    parent[4] += draws

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- per-function detail ------------------------------------------------

    def _info_for(self, name: str):
        """Extra fields recorded on a span, computed from args and result."""
        mods = self.mods
        layer = name.split(".", 1)[0]
        if layer == "measures":
            return lambda a, k, r, f: {"n": a[0].n}
        if name in LOADERS:
            def load(a, k, r, f):
                self.counts["distributions.load_bytes"] += len(a[0])
                return {"n": r.n, "bytes": len(a[0])}
            return load
        if name == "distributions.perturbation_family":
            def family(a, k, r, f):
                extra = {"n": r.n, "family": r.family, "draws": f[4]}
                if r.family == "RandomSmooth":
                    self.counts["distributions.accepted_draws"] += 2 * r.n
                    self.counts["distributions.smooth_draws"] += f[4]
                return extra
            return family
        if name in ("distributions.embed",
                    "distributions.HyperbolicDistribution.projection1",
                    "distributions.HyperbolicDistribution.projection2"):
            per_state = 16 if name == "distributions.embed" else 8

            def copies(a, k, r, f):
                n = r.n
                caller = self._stack[-2][1] if len(self._stack) > 1 else ""
                if caller.startswith("stability."):
                    self.counts["stability.copy_bytes"] += per_state * n
                return {"n": n}
            return copies
        if name == "stability.stability_sweep":
            def sweep(a, k, r, f):
                errors = sum(1 for rec in r if rec.error)
                self.counts["stability.cells"] += len(r)
                self.counts["stability.error_cells"] += errors
                return {"cells": len(r), "error_cells": errors}
            return sweep
        if name == "stability.stability_ratio":
            return lambda a, k, r, f: {"n": r.n}
        if name == "calculus.concavity_probe":
            signature = inspect.signature(mods["calculus"].concavity_probe)

            def probe(a, k, r, f):
                bound = signature.bind(*a, **k)
                bound.apply_defaults()
                samples = bound.arguments["samples"]
                self.counts["calculus.probe_samples"] += samples
                return {"samples": samples}
            return probe
        if name == "cli._write_output":
            def write(a, k, r, f):
                size = len(a[0].encode("utf-8"))
                self.counts["cli.bytes_out"] += size
                return {"bytes": size}
            return write
        if name == "verify.run_invariants":
            def invariants(a, k, r, f):
                failed = sum(1 for res in r if not res.passed)
                self.counts["verify.failed"] += failed
                return {"failed": failed}
            return invariants
        return None

    def _prepare_limit(self):
        """Count function evaluations inside ``hyp_limit`` by wrapping its
        first argument in a counting copy of the same type."""
        calculus = self.mods["calculus"]
        counts = self.counts

        def counted(f):
            def g(x):
                counts["calculus.limit_evals"] += 1
                return f(x)
            return g

        def proxy(F):
            if isinstance(F, calculus.DifferentiableFunction):
                return dataclasses.replace(F, value=proxy(F.value))
            if isinstance(F, calculus.ComponentFunction):
                return dataclasses.replace(F, f1=counted(F.f1))
            return counted(F)

        def prepare(args, kwargs):
            if args:
                args = (proxy(args[0]),) + tuple(args[1:])
            else:
                kwargs = dict(kwargs, F=proxy(kwargs["F"]))
            return args, kwargs

        return prepare

    # -- patching -----------------------------------------------------------

    def _rebind(self, orig, wrapper, patches) -> None:
        for mod in self.mods.values():
            for attr, value in vars(mod).items():
                if value is orig:
                    patches.append((mod, attr, orig, wrapper))

    def _build_patches(self) -> list:
        patches: list = []
        for layer, names in SPAN_FUNCTIONS.items():
            mod = self.mods[layer]
            for attr in names:
                orig = getattr(mod, attr, None)
                if orig is None:
                    self.missing.append(f"{layer}.{attr}")
                    continue
                name = f"{layer}.{attr}"
                prepare = self._prepare_limit() if name == "calculus.hyp_limit" else None
                self._rebind(orig, self._span(name, orig, self._info_for(name), prepare),
                             patches)
        for (layer, cls_name), methods in SPAN_METHODS.items():
            cls = getattr(self.mods[layer], cls_name)
            for attr in methods:
                orig = cls.__dict__.get(attr)
                if orig is None:
                    self.missing.append(f"{layer}.{cls_name}.{attr}")
                    continue
                name = f"{layer}.{cls_name}.{attr}"
                patches.append((cls, attr, orig,
                                self._span(name, orig, self._info_for(name))))
        verify = self.mods["verify"]
        wrapped = [(inv, self._span(f"verify.invariant.{inv}", check))
                   for inv, check in verify.INVARIANTS]
        patches.append((verify, "INVARIANTS", verify.INVARIANTS, wrapped))
        gen = self.mods["rng"].Xoshiro256StarStar
        originals = {attr: gen.__dict__[attr] for attr in RNG_METHODS}
        pristine = type(gen.__name__, (gen,), dict(originals))
        for attr, orig in originals.items():
            draws_of = (lambda a: a[0]) if attr == "randoms" else (lambda a: 1)
            patches.append((gen, attr, orig, self._rng(orig, draws_of, pristine)))
        num = self.mods["hyperbolic"].HyperbolicNumber
        for attr in HYPERBOLIC_DUNDERS:
            patches.append((num, attr, num.__dict__[attr],
                            self._count("hyperbolic.ops", num.__dict__[attr])))
        return patches

    def install(self) -> None:
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, orig, _ in self._patches:
            setattr(target, attr, orig)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, speed: float) -> dict[str, float]:
        """Per-op figures for the per-layer metrics named in BENCHMARK.json.

        Times are multiplied by ``speed``, the run's reference host speed ÷
        measured host speed (see hostspeed.py)."""
        ops = max(self.ops, 1)
        agg, counts = self.agg, self.counts

        def ms(*names, field="self_ns"):
            return speed * sum(getattr(agg[n], field) for n in names if n in agg) / ops / 1e6

        def calls(*names):
            return sum(agg[n].calls for n in names if n in agg) / ops

        def ratio(num, den):
            return num / den if den else 0.0

        draws, rng_calls = counts["rng.draws"], counts["rng.calls"]
        limit = agg["calculus.hyp_limit"] if "calculus.hyp_limit" in agg else _Agg()
        measure_names = [n for n in agg if n.startswith("measures.")]
        m = {
            "rng.draws": draws / ops,
            "rng.calls": rng_calls / ops,
            "rng.draws_per_call": ratio(draws, rng_calls),
            "rng.self_ms": speed * counts["rng.ns"] / ops / 1e6,
            "rng.ns_per_draw": speed * ratio(counts["rng.ns"], draws),
            "distributions.family_ms": ms("distributions.perturbation_family"),
            "distributions.family_calls": calls("distributions.perturbation_family"),
            "distributions.family_accept_ratio": ratio(
                counts["distributions.accepted_draws"],
                counts["distributions.smooth_draws"]),
            "distributions.load_ms": ms(*LOADERS, field="incl_ns"),
            "distributions.load_bytes": counts["distributions.load_bytes"] / ops,
            "distributions.load_states": sum(agg[n].n for n in LOADERS if n in agg) / ops,
            "distributions.validate_ms": ms("distributions.validate", field="incl_ns"),
            "distributions.realdist_validations":
                calls("distributions.RealDistribution.__post_init__"),
        }
        for bucket in KERNEL_BUCKETS:
            m[f"measures.kernel_ms.{bucket}"] = speed * self.kernel_self_ns[bucket] / ops / 1e6
        m.update({
            "measures.calls": calls(*measure_names),
            "measures.states": sum(agg[n].n for n in measure_names) / ops,
            "stability.ratio_self_ms": ms("stability.stability_ratio"),
            "stability.norm_ms": ms("stability.lesche_norm", "stability.lesche_norm_hyp"),
            "stability.copy_bytes": counts["stability.copy_bytes"] / ops,
            "stability.cells": counts["stability.cells"] / ops,
            "stability.error_cells": counts["stability.error_cells"] / ops,
            "calculus.limit_ms": ms("calculus.hyp_limit"),
            "calculus.limit_calls": calls("calculus.hyp_limit"),
            "calculus.limit_evals": counts["calculus.limit_evals"] / ops,
            "calculus.limit_nonconvergent": limit.errors.get("NonConvergent", 0) / ops,
            "calculus.lhopital_ms": ms("calculus.lhopital_check"),
            "calculus.derivative_calls": calls("calculus.hyp_derivative"),
            "calculus.probe_ms": ms("calculus.concavity_probe"),
            "calculus.probe_samples": counts["calculus.probe_samples"] / ops,
            "hyperbolic.ops": counts["hyperbolic.ops"] / ops,
        })
        for inv, _ in self.mods["verify"].INVARIANTS:
            m[f"verify.invariant_ms.{inv}"] = ms(f"verify.invariant.{inv}", field="incl_ns")
        m.update({
            "verify.failed": counts["verify.failed"] / ops,
            "cli.parse_ms": ms("cli.main"),
            "cli.read_ms": ms("cli._load_distribution"),
            "cli.format_ms": ms(*FORMATTERS),
            "cli.write_ms": ms("cli._write_output", field="incl_ns"),
            "cli.bytes_out": counts["cli.bytes_out"] / ops,
        })
        return m

    def span_summary(self) -> dict:
        """Median inclusive ms per span name and state count N."""
        by_key: dict = defaultdict(list)
        for _, name, start, end, _, _, _, _, extra in self.spans:
            n = extra.get("n", 0) if extra else 0
            by_key[(name, n)].append(end - start)
        out: dict = defaultdict(dict)
        for (name, n), durs in sorted(by_key.items()):
            durs.sort()
            out[name][str(n)] = {"calls": len(durs),
                                 "median_ms": durs[len(durs) // 2] / 1e6}
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op, self_ns, error, extra in self.spans:
                row = {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "op": op, "self_ns": self_ns}
                if error:
                    row["error"] = error
                if extra:
                    row.update(extra)
                fh.write(json.dumps(row) + "\n")


def hypentropy_modules() -> dict:
    """The loaded package modules by short name."""
    return {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
            if name.startswith("hypentropy.")} | {"hypentropy": sys.modules["hypentropy"]}
