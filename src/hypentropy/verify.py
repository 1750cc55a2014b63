"""Cross-module invariant suite.

Each invariant is a named check of a sub-seed: it returns None when the
invariant holds, or else the detail of its failure.  ``run_invariants``
turns the checks' answers into one ``InvariantResult`` per name.  The CLI
``verify`` command runs all of them and reports one line per invariant; the
same checks back the release-gate test module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import calculus, distributions as dist, measures, stability
from .calculus import ComponentFunction, DifferentiableFunction
from .hyperbolic import (
    E1,
    E2,
    K,
    ONE,
    ZERO,
    HyperbolicInterval,
    HyperbolicNumber,
    Ordering,
    embed_real,
    hyp_log,
    hyp_pow,
    metric_dk,
    partial_cmp,
)
from .rng import Xoshiro256StarStar, derive_seed

__all__ = ["InvariantResult", "run_invariants", "INVARIANTS"]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class InvariantResult:
    name: str
    passed: bool
    detail: str = ""


# Words per refill of a _BlockReader.  One block draw takes about 1 ms, the
# time of some 700 scalar draws, so only the invariants that draw many short
# fixture sets, 1,200 words or more in all, read through one; at 800 words a
# reader measured between 0.1 ms faster and 1.1 ms slower per invariant.  An
# invariant whose draw count is fixed takes its fixtures in one ``randoms``
# call of the generator instead.
_READ_BLOCK = 4096


class _BlockReader:
    """The draws of ``Xoshiro256StarStar(seed)``, in stream order, read from
    blocks of ``_READ_BLOCK`` pre-drawn words.

    ``random``, ``uniform`` and ``randint`` are the generator's own mappings,
    here reading the block; ``randoms(k)`` converts its k words at once.  It
    is not a subclass: the generator's state runs up to a block ahead of the
    reader's next draw.
    """

    def __init__(self, seed: int):
        gen = Xoshiro256StarStar(seed)
        # One endless stream of words(_READ_BLOCK) blocks, end to end.
        self._words = itertools.chain.from_iterable(
            iter(lambda: gen.words(_READ_BLOCK), None))

    def next_u64(self) -> int:
        return next(self._words)

    def randoms(self, k: int) -> np.ndarray:
        return (np.fromiter(self._words, np.uint64, k) >> np.uint64(11)) \
            * (1.0 / (1 << 53))

    random = Xoshiro256StarStar.random
    uniform = Xoshiro256StarStar.uniform
    randint = Xoshiro256StarStar.randint


def _rand_hyps(rng: Xoshiro256StarStar | _BlockReader, k: int,
               *ranges: tuple[float, float]) -> list[list[HyperbolicNumber]]:
    """k groups of hyperbolic numbers from one ``randoms`` call.

    ``ranges`` holds a (lo, hi) per coordinate of a group, in stream order,
    and each two coordinates make one number.  lo + (hi - lo) * r is the
    float arithmetic of ``uniform``, so each coordinate is the Python float
    that ``uniform(lo, hi)`` would draw in its place.
    """
    lo, hi = np.array(ranges).T
    x = lo + (hi - lo) * rng.randoms(k * lo.size).reshape(k, lo.size)
    return [[HyperbolicNumber(*row[j:j + 2]) for j in range(0, len(row), 2)]
            for row in x.tolist()]


def _rand_probs(rng: Xoshiro256StarStar | _BlockReader, n: int, k: int
                ) -> np.ndarray:
    """k flat Dirichlet draws as the rows of one array: n normalized
    exponentials each, from one ``randoms`` call.  A row has the bits of
    its own draw of n, as a row sum of a contiguous row is its 1-D sum."""
    g = -np.log(1.0 - rng.randoms(k * n).reshape(k, n))
    return g / g.sum(axis=1, keepdims=True)


def _rand_full(rng: Xoshiro256StarStar | _BlockReader, n: int
               ) -> dist.HyperbolicDistribution:
    p1, p2 = _rand_probs(rng, n, 2)
    return dist.HyperbolicDistribution(p1, p2, dist.Case.FULL)


def _check_ring_laws(seed: int) -> Optional[str]:
    rng = Xoshiro256StarStar(seed)
    for a, b, c in _rand_hyps(rng, 200, *[(-100.0, 100.0)] * 6):
        # Floating-point associativity/distributivity hold to a few ulps of
        # the largest operand magnitude, not exactly.
        scale = max(abs(v) for t in (a, b, c) for v in (t.x1, t.x2))
        tol = 8 * _EPS * max(scale, scale * scale)
        lhs = (a + b) + c
        rhs = a + (b + c)
        if abs(lhs.x1 - rhs.x1) > tol or abs(lhs.x2 - rhs.x2) > tol:
            return f"assoc fail {a},{b},{c}"
        if a * b != b * a:
            return f"commut fail {a},{b}"
        lhs = a * (b + c)
        rhs = a * b + a * c
        if abs(lhs.x1 - rhs.x1) > tol or abs(lhs.x2 - rhs.x2) > tol:
            return f"distrib fail {a},{b},{c}"


def _check_idempotents(seed: int) -> Optional[str]:
    ok = (E1 * E1 == E1 and E2 * E2 == E2 and E1 * E2 == ZERO
          and K * K == ONE)
    return None if ok else ""


def _check_partial_order(seed: int) -> Optional[str]:
    rng = Xoshiro256StarStar(seed)
    for a, b, c in _rand_hyps(rng, 300, *[(-100.0, 100.0)] * 6):
        if not a.preceq(a):
            return "not reflexive"
        if a.preceq(b) and b.preceq(a) and a != b:
            return "not antisymmetric"
        if a.preceq(b) and b.preceq(c) and not a.preceq(c):
            return "not transitive"
        if (partial_cmp(a, b) is Ordering.INCOMPARABLE) != (
                partial_cmp(b, a) is Ordering.INCOMPARABLE):
            return "incomparability not symmetric"


def _check_triangle(seed: int) -> Optional[str]:
    slack = 1e-12
    rng = Xoshiro256StarStar(seed)
    for a, b, c in _rand_hyps(rng, 300, *[(-100.0, 100.0)] * 6):
        d_ac = metric_dk(a, c)
        bound = metric_dk(a, b) + metric_dk(b, c)
        if d_ac.x1 > bound.x1 + slack * max(1.0, bound.x1) or \
                d_ac.x2 > bound.x2 + slack * max(1.0, bound.x2):
            return f"{a},{b},{c}"


def _check_componentwise_oracle(seed: int) -> Optional[str]:
    for a, b in _rand_hyps(Xoshiro256StarStar(seed), 200,
                           *[(0.1, 50.0)] * 2, *[(-3.0, 3.0)] * 2):
        if (a + b).x1 != a.x1 + b.x1 or (a * b).x2 != a.x2 * b.x2:
            return f"{a},{b}"
        powed = hyp_pow(a, b)
        if not math.isclose(powed.x1, a.x1 ** b.x1, rel_tol=4 * _EPS):
            return f"pow mismatch at {a},{b}"
        logged = hyp_log(a)
        if not math.isclose(logged.x2, math.log(a.x2), rel_tol=4 * _EPS):
            return f"log mismatch at {a}"


def _sym(f: Callable[[float], float], df: Callable[[float], float],
         box: Optional[HyperbolicInterval] = None) -> DifferentiableFunction:
    """The embedded real function f with derivative df, on box."""
    return DifferentiableFunction(ComponentFunction.symmetric(f, box),
                                  ComponentFunction.symmetric(df, box))


# The domain of every shipped function.
_BOX = HyperbolicInterval(embed_real(0.1), embed_real(2.0))


def _shipped_functions() -> list[tuple[str, DifferentiableFunction]]:
    return [
        ("square", _sym(lambda x: x * x, lambda x: 2.0 * x, _BOX)),
        ("log", _sym(math.log, lambda x: 1.0 / x, _BOX)),
        ("exp", _sym(math.exp, math.exp, _BOX)),
        ("cubic", _sym(lambda x: x ** 3 - x, lambda x: 3.0 * x * x - 1.0,
                       _BOX)),
    ]


def _check_derivative_agreement(seed: int) -> Optional[str]:
    functions = _shipped_functions()
    # 100 points per function, function by function, in one draw.
    points = _rand_hyps(Xoshiro256StarStar(seed), 100 * len(functions),
                        (_BOX.lo.x1 + 0.01, _BOX.hi.x1 - 0.01),
                        (_BOX.lo.x2 + 0.01, _BOX.hi.x2 - 0.01))
    for i, (name, F) in enumerate(functions):
        bare = DifferentiableFunction(F.value)  # forces finite differences
        for (xi,) in points[100 * i:100 * (i + 1)]:
            analytic = calculus.hyp_derivative(F, xi)
            fd = calculus.hyp_derivative(bare, xi)
            if max(abs(analytic.x1 - fd.x1), abs(analytic.x2 - fd.x2)) > 1e-6:
                return f"{name} at {xi}"


def _check_lhopital_pairs(seed: int) -> Optional[str]:
    identity = _sym(lambda x: x, lambda x: 1.0)
    pairs = [
        # (F, G, xi0): shipped 0/0 forms
        (_sym(lambda x: x * x - 1.0, lambda x: 2.0 * x),
         _sym(lambda x: x - 1.0, lambda x: 1.0), ONE),
        (_sym(lambda x: x ** 3, lambda x: 3.0 * x * x), identity, ZERO),
        (_sym(lambda x: math.exp(x) - 1.0, math.exp), identity, ZERO),
    ]
    for i, (F, G, xi0) in enumerate(pairs):
        result = calculus.lhopital_check(F, G, xi0)
        if not result.agree:
            return f"pair {i}: {result.lhs} vs {result.rhs}"


def _check_serialization_roundtrip(seed: int) -> Optional[str]:
    rng = Xoshiro256StarStar(seed)
    fixtures = [dist.uniform_hyp(4), _rand_full(rng, 7),
                dist.validate([(0.3, 0.0), (0.7, 0.0)])]
    for B in fixtures:
        for dump, load in ((dist.hyp_to_json, dist.hyp_from_json),
                           (dist.hyp_to_csv, dist.hyp_from_csv)):
            C = load(dump(B))
            if C.case is not B.case or not (
                    np.array_equal(B.p1, C.p1) and np.array_equal(B.p2, C.p2)):
                return f"case {B.case.value}"


def _check_embedding(seed: int) -> Optional[str]:
    rng = Xoshiro256StarStar(seed)
    for _ in range(20):
        n = rng.randint(1, 30)
        P = dist.RealDistribution(_rand_probs(rng, n, 1)[0])
        B = dist.embed(P)
        if not (np.array_equal(B.projection1().p, P.p)
                and np.array_equal(B.projection2().p, P.p)):
            return f"n={n}"


def _check_mix(seed: int) -> Optional[str]:
    rng = _BlockReader(seed)
    for _ in range(50):
        n = rng.randint(2, 20)
        A = _rand_full(rng, n)
        B = _rand_full(rng, n)
        lam = HyperbolicNumber(rng.random(), rng.random())
        M = dist.mix(A, B, lam)
        if abs(M.p1.sum() - 1.0) > 1e-12 or abs(M.p2.sum() - 1.0) > 1e-12:
            return f"n={n}"


def _check_perturbation_norms(seed: int) -> Optional[str]:
    rng = Xoshiro256StarStar(seed)
    for family in dist.FAMILIES:
        for _ in range(10):
            n = rng.randint(2, 200)
            delta = rng.uniform(1e-4, 0.2)
            pair = dist.perturbation_family(family, n, delta,
                                            seed=rng.next_u64())
            norm = stability.lesche_norm(pair.base, pair.perturbed)
            if norm > delta + 1e-12:
                return f"{family} n={n} norm={norm} > {delta}"
            # CertaintySpread and RandomSmooth realize the budget exactly;
            # UniformSpike lands at delta * (1 - 1/n) by construction.
            expected = delta * (1 - 1 / n) if family == "UniformSpike" else delta
            if abs(norm - expected) > 1e-12:
                return f"{family} n={n} norm={norm} != {expected}"


def _reference_values(p: list[float], orders: list[float]) -> list[float]:
    """Shannon, collision and extropy of one coordinate p, then Renyi and
    Renyi extropy at each of ``orders``: the definitions, over Python floats
    with ``math.fsum``, ``math.log`` and ``**``, sharing no code with
    ``measures``."""
    n = len(p)
    q = [1.0 - v for v in p]
    values = [-math.fsum([v * math.log(v) for v in p if v > 0.0]),
              -math.log(math.fsum([v * v for v in p])),
              -math.fsum([v * math.log(v) for v in q if v > 0.0])]
    for a in orders:
        values.append(math.log(math.fsum([v ** a for v in p if v > 0.0]))
                      / (1.0 - a))
        values.append((n - 1.0) * (math.log(math.fsum([v ** a for v in q]))
                                   - math.log(n - 1.0)) / (1.0 - a))
    return values


def _factorization_gap(n: int, values: list[HyperbolicNumber],
                       refs: list[tuple[float, float]]) -> Optional[str]:
    """The first value off its reference pair by more than 1e-12 relative."""
    for value, (r1, r2) in zip(values, refs):
        if abs(value.x1 - r1) > 1e-12 * max(1.0, abs(r1)) or \
                abs(value.x2 - r2) > 1e-12 * max(1.0, abs(r2)):
            return f"n={n}: {value} vs ({r1},{r2})"
    return None


def _check_factorization(seed: int) -> Optional[str]:
    rng = _BlockReader(seed)
    alphas = [HyperbolicNumber(0.5, 0.5), HyperbolicNumber(2.0, 3.0),
              HyperbolicNumber(0.25, 4.0)]
    for _ in range(50):
        n = rng.randint(2, 50)
        B = _rand_full(rng, n)
        refs = list(zip(
            _reference_values(B.p1.tolist(), [a.x1 for a in alphas]),
            _reference_values(B.p2.tolist(), [a.x2 for a in alphas])))
        values = [measures.strong_shannon_hyp(B), measures.collision_hyp(B),
                  measures.strong_extropy_hyp(B)]
        for a in alphas:
            values += [measures.renyi_hyp(B, a), measures.renyi_extropy_hyp(B, a)]
        detail = _factorization_gap(n, values, refs)
        if detail is not None:
            return detail
    # A real measure runs its lift's kernel through the real branch of
    # Measure.of, which does not look at the data, so the projections of
    # the last fixture check that branch.
    P1, P2 = B.projection1(), B.projection2()
    values = [HyperbolicNumber(f(P1), f(P2))
              for f in (measures.shannon, measures.collision, measures.extropy)]
    for a in alphas:
        values += [
            HyperbolicNumber(measures.renyi(P1, a.x1), measures.renyi(P2, a.x2)),
            HyperbolicNumber(measures.renyi_extropy(P1, a.x1),
                             measures.renyi_extropy(P2, a.x2))]
    return _factorization_gap(n, values, refs)


def _check_maxima(seed: int) -> Optional[str]:
    for n in (2, 3, 8, 64):
        U = dist.uniform_hyp(n)
        target = math.log(n)
        for value in (measures.strong_shannon_hyp(U),
                      measures.hartley_hyp(U),
                      measures.renyi_hyp(U, HyperbolicNumber(0.5, 2.0))):
            if abs(value.x1 - target) > 1e-12 or abs(value.x2 - target) > 1e-12:
                return f"n={n}: {value} != {target}"


def _check_renyi_properties(seed: int) -> Optional[str]:
    rng = _BlockReader(seed)
    for _ in range(50):
        n = rng.randint(2, 30)
        B = _rand_full(rng, n)
        a = HyperbolicNumber(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        b = a + HyperbolicNumber(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
        ra = measures.renyi_hyp(B, a)
        rb = measures.renyi_hyp(B, b)
        if ra.x1 < -1e-10 or ra.x2 < -1e-10:
            return f"negative value {ra}"
        if not (ra.x1 >= rb.x1 - 1e-10 and ra.x2 >= rb.x2 - 1e-10):
            return f"monotonicity fail {a} vs {b}"


def _two_state_tol(p: np.ndarray, s: float) -> float:
    # S = J at N = 2 holds only for an exact (p, 1 - p) pair.  _rand_full
    # leaves |1 - sum p| at about an ulp, and J - S moves by that gap times
    # sum |1 + ln p_s|, so the tolerance carries that conditioning too.
    return 4 * _EPS * (max(1.0, abs(s)) + float(np.abs(1.0 + np.log(p)).sum()))


def _binary_entropy(p: float) -> float:
    """-p ln p - (1 - p) ln(1 - p) over Python floats, sharing no code with
    ``measures``."""
    return -math.fsum([v * math.log(v) for v in (p, 1.0 - p) if v > 0.0])


def _check_extropy_relations(seed: int) -> Optional[str]:
    rng = _BlockReader(seed)
    for _ in range(50):
        B2 = _rand_full(rng, 2)
        s = measures.strong_shannon_hyp(B2)
        j = measures.strong_extropy_hyp(B2)
        # At N = 2 both S and J are the binary entropy of p_1, which S and J
        # compute through one kernel; the reference does not.
        for p, sv, jv in ((B2.p1, s.x1, j.x1), (B2.p2, s.x2, j.x2)):
            h = _binary_entropy(float(p[0]))
            tol = _two_state_tol(p, h)
            if abs(sv - h) > tol or abs(jv - h) > tol:
                return f"N=2: {s} vs {j}, binary entropy {h!r}"
        n = rng.randint(3, 40)
        B = _rand_full(rng, n)
        s = measures.strong_shannon_hyp(B)
        j = measures.strong_extropy_hyp(B)
        if s.x1 < j.x1 - 1e-12 or s.x2 < j.x2 - 1e-12:
            return f"N={n}: entropy below extropy"


def _check_generating_rewrite(seed: int) -> Optional[str]:
    rng = Xoshiro256StarStar(seed)
    for _ in range(20):
        n = rng.randint(2, 20)
        B = _rand_full(rng, n)
        direct = measures.strong_shannon_hyp(B)
        via = measures.strong_shannon_via_generating(B)
        if max(abs(direct.x1 - via.x1), abs(direct.x2 - via.x2)) > 1e-8:
            return f"n={n}: {direct} vs {via}"


def _check_renyi_limit(seed: int) -> Optional[str]:
    rng = Xoshiro256StarStar(seed)
    for _ in range(10):
        n = rng.randint(2, 15)
        B = _rand_full(rng, n)
        limit = measures.renyi_hyp_limit(B)
        closed = measures.strong_shannon_hyp(B)
        if max(abs(limit.x1 - closed.x1), abs(limit.x2 - closed.x2)) > 1e-6:
            return f"n={n}: {limit} vs {closed}"


def _check_norm_properties(seed: int) -> Optional[str]:
    rng = _BlockReader(seed)
    for _ in range(50):
        n = rng.randint(2, 30)
        # The e1 projections of three full fixtures.
        P, Q, R = map(dist.RealDistribution, _rand_probs(rng, n, 6)[::2])
        if stability.lesche_norm(P, Q) != stability.lesche_norm(Q, P):
            return "symmetry"
        if stability.lesche_norm(P, R) > stability.lesche_norm(P, Q) + \
                stability.lesche_norm(Q, R) + 1e-12:
            return "triangle"
        hyp = stability.lesche_norm_hyp(dist.embed(P), dist.embed(Q))
        real = stability.lesche_norm(P, Q)
        if hyp.x1 != real or hyp.x2 != real:
            return "embedding coherence"


def _check_shannon_stability(seed: int) -> Optional[str]:
    delta = 1e-4
    prev = None
    for n in (100, 1000, 10_000):
        for family in dist.FAMILIES:
            pair = dist.perturbation_family(family, n, delta,
                                            seed=derive_seed(seed, family, n))
            for measure in ("shannon", "strong_shannon_hyp"):
                rec = stability.stability_ratio(measure, pair)
                if max(rec.ratio.x1, rec.ratio.x2) >= 0.01:
                    return f"{measure}/{family} n={n}: ratio {rec.ratio}"
                if measure == "shannon":
                    ratio = rec.ratio.x1
            if family == "CertaintySpread":
                if prev is not None and ratio > prev + 1e-15:
                    return f"ratio not non-increasing at n={n}"
                prev = ratio


def _check_renyi_instability(seed: int) -> Optional[str]:
    # The adversarial trend: the q = 0.5 spread ratio keeps growing with N
    # and crosses 0.4 by N = 1e5; the q = 2 spike ratio grows monotonically.
    half = HyperbolicNumber(0.5, 0.5)
    two = HyperbolicNumber(2.0, 2.0)
    prev_half = prev_two = -1.0
    for n in (100, 1000, 10_000, 100_000):
        spread = dist.perturbation_family("CertaintySpread", n, 0.01)
        spike = dist.perturbation_family("UniformSpike", n, 0.01)
        r_half = stability.stability_ratio("renyi", spread, half).ratio.x1
        r_two = stability.stability_ratio("renyi", spike, two).ratio.x1
        if r_half <= prev_half or r_two <= prev_two:
            return f"ratio not increasing at n={n}"
        prev_half, prev_two = r_half, r_two
    if prev_half <= 0.4:
        return f"q=0.5 ratio {prev_half} at n=1e5 not > 0.4"


# A check of a sub-seed: None when its invariant holds, else the detail of
# its failure, "" when it has none to give.
Check = Callable[[int], Optional[str]]

INVARIANTS: list[tuple[str, Check]] = [
    ("ring-laws", _check_ring_laws),
    ("idempotents-exact", _check_idempotents),
    ("partial-order", _check_partial_order),
    ("metric-triangle", _check_triangle),
    ("componentwise-oracle", _check_componentwise_oracle),
    ("derivative-fd-agreement", _check_derivative_agreement),
    ("lhopital-pairs", _check_lhopital_pairs),
    ("serialization-roundtrip", _check_serialization_roundtrip),
    ("embed-projections", _check_embedding),
    ("mix-preserves-sum", _check_mix),
    ("perturbation-norm-bound", _check_perturbation_norms),
    ("measure-factorization", _check_factorization),
    ("maxima-at-equiprobability", _check_maxima),
    ("renyi-properties", _check_renyi_properties),
    ("extropy-relations", _check_extropy_relations),
    ("generating-rewrite", _check_generating_rewrite),
    ("renyi-limit-equivalence", _check_renyi_limit),
    ("lesche-norm-properties", _check_norm_properties),
    ("shannon-stability", _check_shannon_stability),
    ("renyi-instability", _check_renyi_instability),
]


def run_invariants(seed: int = 0, extra: Optional[list[tuple[str, Check]]] = None
                   ) -> list[InvariantResult]:
    """Run every invariant, then each of ``extra``, with sub-seeds derived
    from ``seed``."""
    results = []
    for name, check in INVARIANTS + (extra or []):
        try:
            detail = check(derive_seed(seed, name))
        except Exception as exc:  # an invariant crashing is a failure, not an abort
            detail = f"{type(exc).__name__}: {exc}"
        results.append(InvariantResult(name, detail is None, detail or ""))
    return results
