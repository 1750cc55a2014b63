"""Cross-module invariant suite.

Each invariant is a named, seeded check returning pass/fail plus a short
diagnostic.  The CLI ``verify`` command runs all of them and reports one
line per invariant; the same checks back the release-gate test module.
"""

from __future__ import annotations

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
# time of some 700 scalar draws, so only the invariants whose generator draws
# 1,200 words or more read through one; at 800 words a reader measured
# between 0.1 ms faster and 1.1 ms slower per invariant.
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
        self._gen = Xoshiro256StarStar(seed)
        self._words: list[int] = []
        self._pos = 0

    def _refill(self) -> None:
        self._words, self._pos = self._gen.words(_READ_BLOCK), 0

    def next_u64(self) -> int:
        if self._pos == len(self._words):
            self._refill()
        self._pos += 1
        return self._words[self._pos - 1]

    def randoms(self, k: int) -> np.ndarray:
        taken: list[int] = []
        while True:
            part = self._words[self._pos:self._pos + k - len(taken)]
            self._pos += len(part)
            taken += part
            if len(taken) == k:
                break
            self._refill()
        return (np.array(taken, dtype=np.uint64) >> np.uint64(11)) \
            * (1.0 / (1 << 53))

    random = Xoshiro256StarStar.random
    uniform = Xoshiro256StarStar.uniform
    randint = Xoshiro256StarStar.randint


def _rand_hyp(rng: Xoshiro256StarStar | _BlockReader,
              lo: float = -100.0, hi: float = 100.0) -> HyperbolicNumber:
    return HyperbolicNumber(rng.uniform(lo, hi), rng.uniform(lo, hi))


def _rand_full(rng: Xoshiro256StarStar | _BlockReader, n: int
               ) -> dist.HyperbolicDistribution:
    p1 = -np.log(1.0 - rng.randoms(n))
    p2 = -np.log(1.0 - rng.randoms(n))
    return dist.HyperbolicDistribution(p1 / p1.sum(), p2 / p2.sum(),
                                       dist.Case.FULL)


def _check_ring_laws(seed: int) -> InvariantResult:
    rng = _BlockReader(seed)
    for _ in range(200):
        a, b, c = (_rand_hyp(rng) for _ in range(3))
        # Floating-point associativity/distributivity hold to a few ulps of
        # the largest operand magnitude, not exactly.
        scale = max(abs(v) for t in (a, b, c) for v in (t.x1, t.x2))
        tol = 8 * _EPS * max(scale, scale * scale)
        lhs = (a + b) + c
        rhs = a + (b + c)
        if abs(lhs.x1 - rhs.x1) > tol or abs(lhs.x2 - rhs.x2) > tol:
            return InvariantResult("ring-laws", False, f"assoc fail {a},{b},{c}")
        if a * b != b * a:
            return InvariantResult("ring-laws", False, f"commut fail {a},{b}")
        lhs = a * (b + c)
        rhs = a * b + a * c
        if abs(lhs.x1 - rhs.x1) > tol or abs(lhs.x2 - rhs.x2) > tol:
            return InvariantResult("ring-laws", False, f"distrib fail {a},{b},{c}")
    return InvariantResult("ring-laws", True)


def _check_idempotents(seed: int) -> InvariantResult:
    ok = (E1 * E1 == E1 and E2 * E2 == E2 and E1 * E2 == ZERO
          and K * K == ONE)
    return InvariantResult("idempotents-exact", ok)


def _check_partial_order(seed: int) -> InvariantResult:
    rng = _BlockReader(seed)
    for _ in range(300):
        a, b, c = (_rand_hyp(rng) for _ in range(3))
        if not a.preceq(a):
            return InvariantResult("partial-order", False, "not reflexive")
        if a.preceq(b) and b.preceq(a) and a != b:
            return InvariantResult("partial-order", False, "not antisymmetric")
        if a.preceq(b) and b.preceq(c) and not a.preceq(c):
            return InvariantResult("partial-order", False, "not transitive")
        if (partial_cmp(a, b) is Ordering.INCOMPARABLE) != (
                partial_cmp(b, a) is Ordering.INCOMPARABLE):
            return InvariantResult("partial-order", False,
                                   "incomparability not symmetric")
    return InvariantResult("partial-order", True)


def _check_triangle(seed: int) -> InvariantResult:
    rng = _BlockReader(seed)
    slack = 1e-12
    for _ in range(300):
        a, b, c = (_rand_hyp(rng) for _ in range(3))
        d_ac = metric_dk(a, c)
        bound = metric_dk(a, b) + metric_dk(b, c)
        if d_ac.x1 > bound.x1 + slack * max(1.0, bound.x1) or \
                d_ac.x2 > bound.x2 + slack * max(1.0, bound.x2):
            return InvariantResult("metric-triangle", False, f"{a},{b},{c}")
    return InvariantResult("metric-triangle", True)


def _check_componentwise_oracle(seed: int) -> InvariantResult:
    rng = Xoshiro256StarStar(seed)
    for _ in range(200):
        a = _rand_hyp(rng, 0.1, 50.0)
        b = _rand_hyp(rng, -3.0, 3.0)
        if (a + b).x1 != a.x1 + b.x1 or (a * b).x2 != a.x2 * b.x2:
            return InvariantResult("componentwise-oracle", False, f"{a},{b}")
        powed = hyp_pow(a, b)
        if not math.isclose(powed.x1, a.x1 ** b.x1, rel_tol=4 * _EPS):
            return InvariantResult("componentwise-oracle", False,
                                   f"pow mismatch at {a},{b}")
        logged = hyp_log(a)
        if not math.isclose(logged.x2, math.log(a.x2), rel_tol=4 * _EPS):
            return InvariantResult("componentwise-oracle", False,
                                   f"log mismatch at {a}")
    return InvariantResult("componentwise-oracle", True)


def _shipped_functions() -> list[tuple[str, DifferentiableFunction, HyperbolicInterval]]:
    box = HyperbolicInterval(embed_real(0.1), embed_real(2.0))
    return [
        ("square", DifferentiableFunction(
            ComponentFunction.symmetric(lambda x: x * x, box),
            ComponentFunction.symmetric(lambda x: 2.0 * x, box)), box),
        ("log", DifferentiableFunction(
            ComponentFunction.symmetric(math.log, box),
            ComponentFunction.symmetric(lambda x: 1.0 / x, box)), box),
        ("exp", DifferentiableFunction(
            ComponentFunction.symmetric(math.exp, box),
            ComponentFunction.symmetric(math.exp, box)), box),
        ("cubic", DifferentiableFunction(
            ComponentFunction.symmetric(lambda x: x ** 3 - x, box),
            ComponentFunction.symmetric(lambda x: 3.0 * x * x - 1.0, box)), box),
    ]


def _check_derivative_agreement(seed: int) -> InvariantResult:
    rng = Xoshiro256StarStar(seed)
    for name, F, box in _shipped_functions():
        bare = DifferentiableFunction(F.value)  # forces finite differences
        for _ in range(100):
            xi = HyperbolicNumber(rng.uniform(box.lo.x1 + 0.01, box.hi.x1 - 0.01),
                                  rng.uniform(box.lo.x2 + 0.01, box.hi.x2 - 0.01))
            analytic = calculus.hyp_derivative(F, xi)
            fd = calculus.hyp_derivative(bare, xi)
            if max(abs(analytic.x1 - fd.x1), abs(analytic.x2 - fd.x2)) > 1e-6:
                return InvariantResult("derivative-fd-agreement", False,
                                       f"{name} at {xi}")
    return InvariantResult("derivative-fd-agreement", True)


def _check_lhopital_pairs(seed: int) -> InvariantResult:
    one = ONE
    pairs = [
        # (F, G, xi0): shipped 0/0 forms
        (DifferentiableFunction(
            ComponentFunction.symmetric(lambda x: x * x - 1.0),
            ComponentFunction.symmetric(lambda x: 2.0 * x)),
         DifferentiableFunction(
            ComponentFunction.symmetric(lambda x: x - 1.0),
            ComponentFunction.symmetric(lambda x: 1.0)),
         one),
        (DifferentiableFunction(
            ComponentFunction.symmetric(lambda x: x ** 3),
            ComponentFunction.symmetric(lambda x: 3.0 * x * x)),
         DifferentiableFunction(
            ComponentFunction.symmetric(lambda x: x),
            ComponentFunction.symmetric(lambda x: 1.0)),
         ZERO),
        (DifferentiableFunction(
            ComponentFunction.symmetric(lambda x: math.exp(x) - 1.0),
            ComponentFunction.symmetric(math.exp)),
         DifferentiableFunction(
            ComponentFunction.symmetric(lambda x: x),
            ComponentFunction.symmetric(lambda x: 1.0)),
         ZERO),
    ]
    for i, (F, G, xi0) in enumerate(pairs):
        result = calculus.lhopital_check(F, G, xi0)
        if not result.agree:
            return InvariantResult("lhopital-pairs", False,
                                   f"pair {i}: {result.lhs} vs {result.rhs}")
    return InvariantResult("lhopital-pairs", True)


def _check_serialization_roundtrip(seed: int) -> InvariantResult:
    rng = Xoshiro256StarStar(seed)
    fixtures = [dist.uniform_hyp(4), _rand_full(rng, 7),
                dist.validate([(0.3, 0.0), (0.7, 0.0)])]
    for B in fixtures:
        for dump, load in ((dist.hyp_to_json, dist.hyp_from_json),
                           (dist.hyp_to_csv, dist.hyp_from_csv)):
            C = load(dump(B))
            if C.case is not B.case or not (
                    np.array_equal(B.p1, C.p1) and np.array_equal(B.p2, C.p2)):
                return InvariantResult("serialization-roundtrip", False,
                                       f"case {B.case.value}")
    return InvariantResult("serialization-roundtrip", True)


def _check_embedding(seed: int) -> InvariantResult:
    rng = Xoshiro256StarStar(seed)
    for _ in range(20):
        n = rng.randint(1, 30)
        g = -np.log(1.0 - rng.randoms(n))
        P = dist.RealDistribution(g / g.sum())
        B = dist.embed(P)
        if not (np.array_equal(B.projection1().p, P.p)
                and np.array_equal(B.projection2().p, P.p)):
            return InvariantResult("embed-projections", False, f"n={n}")
    return InvariantResult("embed-projections", True)


def _check_mix(seed: int) -> InvariantResult:
    rng = _BlockReader(seed)
    for _ in range(50):
        n = rng.randint(2, 20)
        A = _rand_full(rng, n)
        B = _rand_full(rng, n)
        lam = HyperbolicNumber(rng.random(), rng.random())
        M = dist.mix(A, B, lam)
        if abs(M.p1.sum() - 1.0) > 1e-12 or abs(M.p2.sum() - 1.0) > 1e-12:
            return InvariantResult("mix-preserves-sum", False, f"n={n}")
    return InvariantResult("mix-preserves-sum", True)


def _check_perturbation_norms(seed: int) -> InvariantResult:
    rng = Xoshiro256StarStar(seed)
    for family in dist.FAMILIES:
        for _ in range(10):
            n = rng.randint(2, 200)
            delta = rng.uniform(1e-4, 0.2)
            pair = dist.perturbation_family(family, n, delta,
                                            seed=rng.next_u64())
            norm = stability.lesche_norm(pair.base, pair.perturbed)
            if norm > delta + 1e-12:
                return InvariantResult("perturbation-norm-bound", False,
                                       f"{family} n={n} norm={norm} > {delta}")
            # CertaintySpread and RandomSmooth realize the budget exactly;
            # UniformSpike lands at delta * (1 - 1/n) by construction.
            expected = delta * (1 - 1 / n) if family == "UniformSpike" else delta
            if abs(norm - expected) > 1e-12:
                return InvariantResult("perturbation-norm-bound", False,
                                       f"{family} n={n} norm={norm} != {expected}")
    return InvariantResult("perturbation-norm-bound", True)


def _check_factorization(seed: int) -> InvariantResult:
    rng = _BlockReader(seed)
    alphas = [HyperbolicNumber(0.5, 0.5), HyperbolicNumber(2.0, 3.0),
              HyperbolicNumber(0.25, 4.0)]
    for _ in range(50):
        n = rng.randint(2, 50)
        B = _rand_full(rng, n)
        P1, P2 = B.projection1(), B.projection2()
        checks = [
            (measures.strong_shannon_hyp(B),
             measures.shannon(P1), measures.shannon(P2)),
            (measures.collision_hyp(B),
             measures.collision(P1), measures.collision(P2)),
            (measures.strong_extropy_hyp(B),
             measures.extropy(P1), measures.extropy(P2)),
        ]
        for a in alphas:
            checks.append((measures.renyi_hyp(B, a),
                           measures.renyi(P1, a.x1), measures.renyi(P2, a.x2)))
            checks.append((measures.renyi_extropy_hyp(B, a),
                           measures.renyi_extropy(P1, a.x1),
                           measures.renyi_extropy(P2, a.x2)))
        for value, c1, c2 in checks:
            if abs(value.x1 - c1) > 1e-12 or abs(value.x2 - c2) > 1e-12:
                return InvariantResult("measure-factorization", False,
                                       f"n={n}: {value} vs ({c1},{c2})")
    return InvariantResult("measure-factorization", True)


def _check_maxima(seed: int) -> InvariantResult:
    for n in (2, 3, 8, 64):
        U = dist.uniform_hyp(n)
        target = math.log(n)
        for value in (measures.strong_shannon_hyp(U),
                      measures.hartley_hyp(U),
                      measures.renyi_hyp(U, HyperbolicNumber(0.5, 2.0))):
            if abs(value.x1 - target) > 1e-12 or abs(value.x2 - target) > 1e-12:
                return InvariantResult("maxima-at-equiprobability", False,
                                       f"n={n}: {value} != {target}")
    return InvariantResult("maxima-at-equiprobability", True)


def _check_renyi_properties(seed: int) -> InvariantResult:
    rng = _BlockReader(seed)
    for _ in range(50):
        n = rng.randint(2, 30)
        B = _rand_full(rng, n)
        a = HyperbolicNumber(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        b = a + HyperbolicNumber(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
        ra = measures.renyi_hyp(B, a)
        rb = measures.renyi_hyp(B, b)
        if ra.x1 < -1e-10 or ra.x2 < -1e-10:
            return InvariantResult("renyi-properties", False,
                                   f"negative value {ra}")
        if not (ra.x1 >= rb.x1 - 1e-10 and ra.x2 >= rb.x2 - 1e-10):
            return InvariantResult("renyi-properties", False,
                                   f"monotonicity fail {a} vs {b}")
    return InvariantResult("renyi-properties", True)


def _two_state_tol(p: np.ndarray, s: float) -> float:
    # S = J at N = 2 holds only for an exact (p, 1 - p) pair.  _rand_full
    # leaves |1 - sum p| at about an ulp, and J - S moves by that gap times
    # sum |1 + ln p_s|, so the tolerance carries that conditioning too.
    return 4 * _EPS * (max(1.0, abs(s)) + float(np.abs(1.0 + np.log(p)).sum()))


def _check_extropy_relations(seed: int) -> InvariantResult:
    rng = _BlockReader(seed)
    for _ in range(50):
        B2 = _rand_full(rng, 2)
        s = measures.strong_shannon_hyp(B2)
        j = measures.strong_extropy_hyp(B2)
        if abs(s.x1 - j.x1) > _two_state_tol(B2.p1, s.x1) or \
                abs(s.x2 - j.x2) > _two_state_tol(B2.p2, s.x2):
            return InvariantResult("extropy-relations", False, f"N=2: {s} vs {j}")
        n = rng.randint(3, 40)
        B = _rand_full(rng, n)
        s = measures.strong_shannon_hyp(B)
        j = measures.strong_extropy_hyp(B)
        if s.x1 < j.x1 - 1e-12 or s.x2 < j.x2 - 1e-12:
            return InvariantResult("extropy-relations", False,
                                   f"N={n}: entropy below extropy")
    return InvariantResult("extropy-relations", True)


def _check_generating_rewrite(seed: int) -> InvariantResult:
    rng = Xoshiro256StarStar(seed)
    for _ in range(20):
        n = rng.randint(2, 20)
        B = _rand_full(rng, n)
        direct = measures.strong_shannon_hyp(B)
        via = measures.strong_shannon_via_generating(B)
        if max(abs(direct.x1 - via.x1), abs(direct.x2 - via.x2)) > 1e-8:
            return InvariantResult("generating-rewrite", False,
                                   f"n={n}: {direct} vs {via}")
    return InvariantResult("generating-rewrite", True)


def _check_renyi_limit(seed: int) -> InvariantResult:
    rng = Xoshiro256StarStar(seed)
    for _ in range(10):
        n = rng.randint(2, 15)
        B = _rand_full(rng, n)
        limit = measures.renyi_hyp_limit(B)
        closed = measures.strong_shannon_hyp(B)
        if max(abs(limit.x1 - closed.x1), abs(limit.x2 - closed.x2)) > 1e-6:
            return InvariantResult("renyi-limit-equivalence", False,
                                   f"n={n}: {limit} vs {closed}")
    return InvariantResult("renyi-limit-equivalence", True)


def _check_norm_properties(seed: int) -> InvariantResult:
    rng = _BlockReader(seed)
    for _ in range(50):
        n = rng.randint(2, 30)
        dists = [_rand_full(rng, n).projection1() for _ in range(3)]
        P, Q, R = dists
        if stability.lesche_norm(P, Q) != stability.lesche_norm(Q, P):
            return InvariantResult("lesche-norm-properties", False, "symmetry")
        if stability.lesche_norm(P, R) > stability.lesche_norm(P, Q) + \
                stability.lesche_norm(Q, R) + 1e-12:
            return InvariantResult("lesche-norm-properties", False, "triangle")
        hyp = stability.lesche_norm_hyp(dist.embed(P), dist.embed(Q))
        real = stability.lesche_norm(P, Q)
        if hyp.x1 != real or hyp.x2 != real:
            return InvariantResult("lesche-norm-properties", False,
                                   "embedding coherence")
    return InvariantResult("lesche-norm-properties", True)


def _check_shannon_stability(seed: int) -> InvariantResult:
    delta = 1e-4
    prev = None
    for n in (100, 1000, 10_000):
        for family in dist.FAMILIES:
            pair = dist.perturbation_family(family, n, delta,
                                            seed=derive_seed(seed, family, n))
            for measure in ("shannon", "strong_shannon_hyp"):
                rec = stability.stability_ratio(measure, pair)
                if max(rec.ratio.x1, rec.ratio.x2) >= 0.01:
                    return InvariantResult(
                        "shannon-stability", False,
                        f"{measure}/{family} n={n}: ratio {rec.ratio}")
            if family == "CertaintySpread":
                rec = stability.stability_ratio("shannon", pair)
                if prev is not None and rec.ratio.x1 > prev + 1e-15:
                    return InvariantResult("shannon-stability", False,
                                           f"ratio not non-increasing at n={n}")
                prev = rec.ratio.x1
    return InvariantResult("shannon-stability", True)


def _check_renyi_instability(seed: int) -> InvariantResult:
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
            return InvariantResult("renyi-instability", False,
                                   f"ratio not increasing at n={n}")
        prev_half, prev_two = r_half, r_two
    if prev_half <= 0.4:
        return InvariantResult("renyi-instability", False,
                               f"q=0.5 ratio {prev_half} at n=1e5 not > 0.4")
    return InvariantResult("renyi-instability", True)


INVARIANTS: list[tuple[str, Callable[[int], InvariantResult]]] = [
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


def run_invariants(seed: int = 0,
                   extra: Optional[list[tuple[str, Callable[[int], InvariantResult]]]] = None
                   ) -> list[InvariantResult]:
    """Run every invariant with sub-seeds derived from ``seed``."""
    results = []
    suite = INVARIANTS + (extra or [])
    for name, check in suite:
        try:
            results.append(check(derive_seed(seed, name)))
        except Exception as exc:  # an invariant crashing is a failure, not an abort
            results.append(InvariantResult(name, False,
                                           f"{type(exc).__name__}: {exc}"))
    return results
