"""The four benchmark workloads: inputs made from a seed, the ops of one pass,
and an independent check of every op's output.

Every op is one call into the program: ``hypentropy.cli.main(argv)`` with
``--output`` pointing at a temp file, or (for the concavity probe, which has
no CLI command) one ``hypentropy.calculus.concavity_probe`` call.  The
checks below use closed forms and ``math.fsum`` sums written here; they
import nothing from the program.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

DELTAS = (0.01, 0.001)
SWEEP_MEASURES = ("shannon", "renyi", "strong_shannon_hyp", "renyi_hyp")
ENTROPY_MEASURES = ("strong_shannon_hyp", "renyi_hyp", "strong_extropy_hyp",
                    "collision_hyp", "strong_shannon_via_generating")
ENTROPY_ORDER = (0.5, 2.0)
LIMIT_STEPS = [(1.0 + sign * 10.0 ** -k) for k in range(1, 7) for sign in (1, -1)]
INVARIANTS = (
    "ring-laws", "idempotents-exact", "partial-order", "metric-triangle",
    "componentwise-oracle", "derivative-fd-agreement", "lhopital-pairs",
    "serialization-roundtrip", "embed-projections", "mix-preserves-sum",
    "perturbation-norm-bound", "measure-factorization",
    "maxima-at-equiprobability", "renyi-properties", "extropy-relations",
    "generating-rewrite", "renyi-limit-equivalence", "lesche-norm-properties",
    "shannon-stability", "renyi-instability",
)
ANALYTIC_FAMILIES = ("CertaintySpread", "UniformSpike")
PROBE_BOX = (0.1, 2.0)
PROBE_SLACK = 1e-10

# "tiny" is the size the benchmark's own test runs at.
SIZES = {
    "full": {"random_grid": (1000, 10_000, 100_000),
             "analytic_grid": (10_000, 100_000, 1_000_000),
             "file_n": (10_000, 100_000), "small_file_reps": 3,
             "verify_seeds": 8, "probes": 2, "probe_samples": 10_000},
    "tiny": {"random_grid": (100, 1000), "analytic_grid": (100, 1000),
             "file_n": (100, 1000), "small_file_reps": 1,
             "verify_seeds": 1, "probes": 1, "probe_samples": 500},
}


@dataclass(frozen=True)
class Op:
    """One call into the program.  Ops with equal labels must produce equal
    output bytes."""

    label: str
    argv: Optional[tuple] = None        # CLI argv without --output
    probe: Optional[tuple] = None       # (samples, seed) for the library probe
    states: int = 0                     # N generated or loaded
    cells: int = 0                      # sweep cells written


@dataclass
class Workload:
    name: str
    ops: list                           # one pass, in order
    check: Callable[[str, str], list]   # (label, output text) -> problems
    counts_states: bool = True
    counts_cells: bool = False


# Every --seed selects one of the input sets whose output digests golden.json
# records at the seed commit, so every run is held to byte-identical output.
INPUT_SETS = 64


def sub_seeds(seed: int, salt: str, k: int) -> list[int]:
    rng = random.Random(f"{salt}:{seed}")
    return [int(rng.random() * 2 ** 32) for _ in range(k)]


# --- sweeps -----------------------------------------------------------------

def _grid(values) -> str:
    return ",".join(str(v) for v in values)


def _sweep_argv(families, grid, order, seed, fmt="csv") -> tuple:
    argv = ["stability"]
    for fam in families:
        argv += ["--family", fam]
    argv += ["--N-grid", _grid(grid), "--delta-grid", _grid(DELTAS)]
    for m in SWEEP_MEASURES:
        argv += ["--measure", m]
    argv += ["--order", repr(order), "--seed", str(seed), "--format", fmt]
    return tuple(argv)


def _parse_sweep(text: str) -> list[tuple]:
    """(family, measure, order, N, delta, norm1, norm2, ratio1, ratio2, error)."""
    rows = []
    if text.lstrip().startswith("["):
        for r in json.loads(text):
            order = None if r["order"] is None else tuple(r["order"])
            rows.append((r["family"], r["measure"], order, r["N"], r["delta"],
                         *r["norm"], *r["ratio"], r["error"] or ""))
        return rows
    for r in csv.DictReader(io.StringIO(text)):
        order = (float(r["order_e1"]), float(r["order_e2"])) if r["order_e1"] else None
        rows.append((r["family"], r["measure"], order, int(r["N"]), float(r["delta"]),
                     float(r["norm_e1"]), float(r["norm_e2"]),
                     float(r["ratio_e1"]), float(r["ratio_e2"]), r["error"]))
    return rows


def closed_form(family: str, n: int, delta: float, measure: str, q: float
                ) -> tuple[float, float]:
    """(L1 norm, stability ratio) of the analytic families in closed form."""
    renyi = measure in ("renyi", "renyi_hyp")
    if family == "CertaintySpread":
        top, rest = 1.0 - delta / 2.0, delta / (2.0 * (n - 1))
        base = 0.0
        if renyi:
            pert = math.log(top ** q + (n - 1) * rest ** q) / (1.0 - q)
        else:
            pert = -(top * math.log(top) + (n - 1) * rest * math.log(rest))
        norm = delta
    else:  # UniformSpike
        low = (1.0 - delta / 2.0) / n
        high = low + delta / 2.0
        base = math.log(n)
        if renyi:
            pert = math.log((n - 1) * low ** q + high ** q) / (1.0 - q)
        else:
            pert = -((n - 1) * low * math.log(low) + high * math.log(high))
        norm = delta * (1.0 - 1.0 / n)
    return norm, abs(base - pert) / math.log(n)


def _sweep_checker(families, grid, order, analytic: bool):
    expected = {(f, m, n, d) for f in families for m in SWEEP_MEASURES
                for n in grid for d in DELTAS}

    def check(label: str, text: str) -> list:
        problems = []
        rows = _parse_sweep(text)
        keys = {(r[0], r[1], r[3], r[4]) for r in rows}
        if keys != expected or len(rows) != len(expected):
            return [f"{label}: cells {sorted(keys ^ expected)[:3]} missing or extra"]
        by_key = {}
        for fam, measure, o, n, delta, n1, n2, r1, r2, err in rows:
            where = f"{label}: {fam}/{measure} N={n} delta={delta}"
            if err:
                problems.append(f"{where}: error row {err}")
                continue
            want_order = (order, order) if measure in ("renyi", "renyi_hyp") else None
            if o != want_order:
                problems.append(f"{where}: order {o} != {want_order}")
            if not all(map(math.isfinite, (n1, n2, r1, r2))) or n1 != n2 or r1 != r2:
                problems.append(f"{where}: embedded pair gave {n1},{n2},{r1},{r2}")
                continue
            if analytic:
                norm, ratio = closed_form(fam, n, delta, measure, order)
                if abs(n1 - norm) > 1e-12 or abs(r1 - ratio) > 1e-10:
                    problems.append(f"{where}: ({n1}, {r1}) != closed form "
                                    f"({norm}, {ratio})")
            elif abs(n1 - delta) > 1e-12 or not 0.0 <= r1 <= 1.0:
                problems.append(f"{where}: norm {n1} or ratio {r1} out of range")
            by_key[(fam, measure, n, delta)] = r1
        # A real measure on an embedded pair equals its hyperbolic lift.
        for (fam, measure, n, delta), r in by_key.items():
            lift = {"shannon": "strong_shannon_hyp", "renyi": "renyi_hyp"}.get(measure)
            if lift and by_key.get((fam, lift, n, delta)) not in (None, r):
                problems.append(f"{label}: {measure} != {lift} at {fam} N={n}")
        return problems

    return check


def sweep_random(seed: int, size: dict, workdir: str) -> Workload:
    grid = size["random_grid"]
    ops = [Op(f"stability RandomSmooth seed={s}",
              argv=_sweep_argv(["RandomSmooth"], grid, 0.5, s),
              states=len(DELTAS) * sum(grid),
              cells=len(DELTAS) * len(grid) * len(SWEEP_MEASURES))
           for s in sub_seeds(seed, "sweep-random", 2)]
    return Workload("sweep-random", ops,
                    _sweep_checker(["RandomSmooth"], grid, 0.5, analytic=False),
                    counts_cells=True)


def sweep_analytic(seed: int, size: dict, workdir: str) -> Workload:
    # One family per op halves the op, so a run holds enough ops for a tail
    # above the median.
    grid = size["analytic_grid"]
    (s,) = sub_seeds(seed, "sweep-analytic", 1)
    ops = [Op(f"stability {fam} {fmt}",
              argv=_sweep_argv([fam], grid, 2.0, s, fmt),
              states=len(DELTAS) * sum(grid),
              cells=len(DELTAS) * len(grid) * len(SWEEP_MEASURES))
           for fmt in ("csv", "json") for fam in ANALYTIC_FAMILIES]
    checks = {fam: _sweep_checker([fam], grid, 2.0, analytic=True)
              for fam in ANALYTIC_FAMILIES}
    return Workload("sweep-analytic", ops,
                    lambda label, text: checks[label.split()[1]](label, text),
                    counts_cells=True)


# --- files ------------------------------------------------------------------

def flat_dirichlet(rng: random.Random, n: int) -> list[float]:
    """Normalized exponentials; only ``random()`` is used, whose stream Python
    keeps stable across versions."""
    g = []
    while len(g) < n:
        u = rng.random()
        if u > 0.0:
            g.append(-math.log(u))
    total = math.fsum(g)
    return [x / total for x in g]


def file_distributions(seed: int, sizes) -> dict[int, tuple[list, list]]:
    rng = random.Random(f"file-analysis:{seed}")
    return {n: (flat_dirichlet(rng, n), flat_dirichlet(rng, n)) for n in sizes}


def write_distribution(path_stem: str, p1: list, p2: list) -> dict[str, str]:
    """Write one case-full distribution as JSON and as CSV (shortest repr, so
    both files load to the same arrays)."""
    paths = {"json": path_stem + ".json", "csv": path_stem + ".csv"}
    with open(paths["json"], "w", encoding="utf-8") as fh:
        fh.write('{"case": "full", "rho": [')
        fh.write(", ".join(f"[{a!r}, {b!r}]" for a, b in zip(p1, p2)))
        fh.write("]}\n")
    with open(paths["csv"], "w", encoding="utf-8") as fh:
        fh.write("p1,p2\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(p1, p2))
    return paths


def shannon(p) -> float:
    return -math.fsum(x * math.log(x) for x in p if x > 0.0)


def extropy(p) -> float:
    return -math.fsum((1.0 - x) * math.log1p(-x) for x in p)


def renyi(p, a: float) -> float:
    return math.log(math.fsum(x ** a for x in p if x > 0.0)) / (1.0 - a)


def _close(value: float, want: float, rel: float = 1e-11, abs_: float = 0.0) -> bool:
    return abs(value - want) <= abs_ + rel * max(1.0, abs(want))


def _check_entropy(text: str, p1, p2, h: tuple) -> list:
    rows = list(csv.DictReader(io.StringIO(text)))
    if [r["measure"] for r in rows] != list(ENTROPY_MEASURES):
        return [f"measures {[r['measure'] for r in rows]}"]
    want = {
        "strong_shannon_hyp": (h, 1e-11, 0.0),
        "renyi_hyp": ((renyi(p1, ENTROPY_ORDER[0]), renyi(p2, ENTROPY_ORDER[1])), 1e-11, 0.0),
        "strong_extropy_hyp": ((extropy(p1), extropy(p2)), 1e-11, 0.0),
        "collision_hyp": ((renyi(p1, 2.0), renyi(p2, 2.0)), 1e-11, 0.0),
        "strong_shannon_via_generating": (h, 0.0, 1e-8),
    }
    problems = []
    for r in rows:
        (w1, w2), rel, abs_ = want[r["measure"]]
        v1, v2 = float(r["value_e1"]), float(r["value_e2"])
        if not (_close(v1, w1, rel, abs_) and _close(v2, w2, rel, abs_)):
            problems.append(f"{r['measure']} = ({v1}, {v2}), oracle ({w1}, {w2})")
    return problems


def _check_limits(text: str, p1, p2, h: tuple) -> list:
    lines = text.splitlines()
    if len(lines) != 1 + len(LIMIT_STEPS) + 3:
        return [f"{len(lines)} lines"]
    problems = []
    for line, a in zip(lines[1:], LIMIT_STEPS):
        o1, o2, v1, v2 = (float(x) for x in line.split())
        t = abs(a - 1.0)
        tol = 1e-13 / t
        if abs(o1 - a) > 5e-8 or abs(o2 - a) > 5e-8 or not (
                _close(v1, renyi(p1, a), 1e-11, tol) and _close(v2, renyi(p2, a), 1e-11, tol)):
            problems.append(f"row at order {a}: {line.strip()}")
    h1, h2 = h
    tail = [[float(x) for x in line.split(":", 1)[1].split()] for line in lines[-3:]]
    (l1, l2), (e1, e2), (d1, d2) = tail
    if not (_close(l1, h1, 0.0, 1e-6) and _close(l2, h2, 0.0, 1e-6)):
        problems.append(f"limit ({l1}, {l2}) != Shannon ({h1}, {h2})")
    if not (_close(e1, h1) and _close(e2, h2)):
        problems.append(f"entropy ({e1}, {e2}) != Shannon ({h1}, {h2})")
    if max(d1, d2) >= 1e-6:
        problems.append(f"differences ({d1}, {d2})")
    return problems


def file_analysis(seed: int, size: dict, workdir: str) -> Workload:
    dists = file_distributions(seed, size["file_n"])
    paths = {n: write_distribution(os.path.join(workdir, f"dist-{n}"), *pq)
             for n, pq in dists.items()}
    del dists  # regenerated for the checks, so they do not count in peak RSS
    entropy_args = []
    for m in ENTROPY_MEASURES:
        entropy_args += ["--measure", m]
    entropy_args += ["--order", ",".join(repr(o) for o in ENTROPY_ORDER)]
    ops = []
    for n in size["file_n"]:
        # The small file runs several times per pass so that the median op
        # falls inside one size's latency band, not in the gap between them.
        reps = size["small_file_reps"] if n == min(size["file_n"]) else 1
        for _ in range(reps):
            for fmt in ("json", "csv"):
                path = paths[n][fmt]
                # One label per N: JSON and CSV inputs must give equal bytes.
                ops.append(Op(f"entropy N={n}",
                              argv=("entropy", "--input", path, *entropy_args), states=n))
                ops.append(Op(f"limits N={n}",
                              argv=("limits", "--input", path), states=n))
    oracles: dict = {}

    def check(label: str, text: str) -> list:
        if not oracles:
            for n, (p1, p2) in file_distributions(seed, size["file_n"]).items():
                oracles[n] = (p1, p2, (shannon(p1), shannon(p2)))
        command, n_text = label.split()
        p1, p2, h = oracles[int(n_text[2:])]
        run = _check_entropy if command == "entropy" else _check_limits
        return [f"{label}: {p}" for p in run(text, p1, p2, h)]

    return Workload("file-analysis", ops, check)


# --- scalar calculus --------------------------------------------------------

def probe_text(result) -> str:
    """Deterministic text form of a ConcavityResult."""
    lines = [f"concave={result.concave} convex={result.convex}"]
    for kind, witnesses in (("concave", result.concave_witnesses),
                            ("convex", result.convex_witnesses)):
        for xi, chi, lam in witnesses:
            lines.append(f"{kind} {xi.x1!r} {xi.x2!r} {chi.x1!r} {chi.x2!r} "
                         f"{lam.x1!r} {lam.x2!r}")
    return "\n".join(lines) + "\n"


def _check_probe(text: str) -> list:
    lines = text.splitlines()
    if lines[0] != "concave=True convex=False" or len(lines) != 4:
        return [f"log verdict {lines[0]!r} with {len(lines) - 1} witnesses"]
    lo, hi = PROBE_BOX
    problems = []
    for line in lines[1:]:
        kind, *vals = line.split()
        x1, x2, y1, y2, l1, l2 = (float(v) for v in vals)
        inside = all(lo <= v <= hi for v in (x1, x2, y1, y2))
        ordered = x1 <= y1 and x2 <= y2 and 0.0 <= l1 < 1.0 and 0.0 <= l2 < 1.0
        excess = [math.log((1 - l) * x + l * y) - ((1 - l) * math.log(x) + l * math.log(y))
                  for x, y, l in ((x1, y1, l1), (x2, y2, l2))]
        if kind != "convex" or not (inside and ordered) or max(excess) <= PROBE_SLACK:
            problems.append(f"witness {line!r} does not break convexity of log")
    return problems


def scalar_calculus(seed: int, size: dict, workdir: str) -> Workload:
    verify = [Op(f"verify seed={s}", argv=("verify", "--seed", str(s)))
              for s in sub_seeds(seed, "verify", size["verify_seeds"])]
    probes = [Op(f"probe seed={s}", probe=(size["probe_samples"], s))
              for s in sub_seeds(seed, "probe", size["probes"])]
    expected_verify = "".join(f"PASS {name}\n" for name in INVARIANTS) + \
        f"OK ({len(INVARIANTS)}/{len(INVARIANTS)} invariants)\n"

    def check(label: str, text: str) -> list:
        if label.startswith("verify"):
            return [] if text == expected_verify else [f"{label}: {text.splitlines()}"]
        return [f"{label}: {p}" for p in _check_probe(text)]

    return Workload("scalar-calculus", verify + probes, check, counts_states=False)


BUILDERS = {"sweep-random": sweep_random, "sweep-analytic": sweep_analytic,
            "file-analysis": file_analysis, "scalar-calculus": scalar_calculus}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, scale: str, workdir: str) -> Workload:
    return BUILDERS[name](seed, SIZES[scale], workdir)
