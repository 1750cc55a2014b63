"""Derivatives, limits, L'Hopital checks and convexity probes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hypentropy import (
    ONE,
    ZERO,
    ComponentFunction,
    DifferentiableFunction,
    HyperbolicInterval,
    HyperbolicNumber,
    approx_eq,
    check_cauchy_riemann,
    concavity_probe,
    embed_real,
    from_unit_k,
    hyp_derivative,
    hyp_limit,
    lhopital_check,
)
from hypentropy.calculus import CONCAVITY_SLACK, ConcavityResult
from hypentropy.errors import (
    EmptyDomain,
    HypothesisViolated,
    NonConvergent,
    OutsideDomain,
)
from hypentropy.rng import Xoshiro256StarStar

SQUARE = ComponentFunction.symmetric(lambda x: x * x)
CUBE = ComponentFunction.symmetric(lambda x: x ** 3)
LOG = ComponentFunction.symmetric(math.log)


class TestDerivative:
    def test_square_example(self):
        d = hyp_derivative(SQUARE, HyperbolicNumber(3.0, 5.0))
        assert approx_eq(d, HyperbolicNumber(6.0, 10.0), tol=1e-8)

    def test_log_at_one(self):
        assert approx_eq(hyp_derivative(LOG, ONE), ONE, tol=1e-9)

    def test_generating_function_derivative(self, fixture_b):
        # d/dxi sum rho^(-xi) at -1_D recovers the componentwise entropies.
        p1, p2 = fixture_b.p1, fixture_b.p2
        F = ComponentFunction(
            lambda t: float((p1 ** (-t)).sum()),
            lambda t: float((p2 ** (-t)).sum()),
        )
        d = hyp_derivative(F, embed_real(-1.0))
        expected = HyperbolicNumber(0.69314718055994529, 0.56233514461880829)
        assert approx_eq(d, expected, tol=1e-8)

    def test_analytic_derivative_preferred(self):
        calls = []
        F = DifferentiableFunction(
            SQUARE,
            ComponentFunction.symmetric(lambda x: calls.append(x) or 2.0 * x),
        )
        d = hyp_derivative(F, HyperbolicNumber(3.0, 5.0))
        assert d == HyperbolicNumber(6.0, 10.0)
        assert calls  # the analytic path was taken

    def test_linearity(self):
        xi = HyperbolicNumber(0.7, 1.3)
        combo = ComponentFunction.symmetric(lambda x: 2.0 * x * x + x ** 3)
        lhs = hyp_derivative(combo, xi)
        rhs = hyp_derivative(SQUARE, xi) * embed_real(2.0) \
            + hyp_derivative(CUBE, xi)
        assert approx_eq(lhs, rhs, tol=1e-7)

    def test_domain_enforced(self):
        box = HyperbolicInterval(ZERO, ONE)
        F = ComponentFunction.symmetric(lambda x: x * x, domain=box)
        with pytest.raises(OutsideDomain):
            hyp_derivative(F, HyperbolicNumber(2.0, 0.5))
        with pytest.raises(OutsideDomain):
            hyp_derivative(F, ONE)  # boundary point is not interior


class TestCauchyRiemann:
    def test_square_holds(self):
        res = check_cauchy_riemann(SQUARE, HyperbolicNumber(0.4, 1.9))
        assert res.holds
        assert max(abs(res.residuals.x1), abs(res.residuals.x2)) < 1e-6

    def test_log_holds_on_positive_points(self):
        res = check_cauchy_riemann(LOG, HyperbolicNumber(0.5, 2.0))
        assert res.holds

    def test_swap_map_fails(self):
        # Exchanging idempotent coordinates is the analogue of conjugation
        # and is not differentiable in the hyperbolic sense.
        def swap(xi: HyperbolicNumber) -> HyperbolicNumber:
            return HyperbolicNumber(xi.x2, xi.x1)

        res = check_cauchy_riemann(swap, HyperbolicNumber(0.4, 1.9))
        assert not res.holds
        assert max(abs(res.residuals.x1), abs(res.residuals.x2)) > 0.1


class TestLimit:
    def test_identity_is_continuous(self):
        lim = hyp_limit(lambda xi: xi, ONE)
        assert approx_eq(lim, ONE, tol=1e-10)

    def test_generating_derivative_limit_uniform_two(self):
        p = np.array([0.5, 0.5])
        G = DifferentiableFunction(
            ComponentFunction.symmetric(lambda t: float((p ** (-t)).sum()))
        )
        lim = hyp_limit(lambda xi: hyp_derivative(G, xi), embed_real(-1.0))
        assert approx_eq(lim, embed_real(math.log(2.0)), tol=1e-8)

    def test_removable_singularity(self):
        # (x^2 - 1) / (x - 1) extends continuously to 2 at 1, per coordinate.
        def F(xi: HyperbolicNumber) -> HyperbolicNumber:
            return (xi * xi - ONE) / (xi - ONE)

        lim = hyp_limit(F, ONE)
        assert approx_eq(lim, embed_real(2.0), tol=1e-8)

    def test_nonconvergence_detected(self):
        # cos oscillates without decay; its two-sided means do not settle
        # (sin would be averaged away exactly by the odd-term cancellation).
        wild = ComponentFunction.symmetric(
            lambda x: math.cos(1.0 / (x - 1.0)) if x != 1.0 else 0.0
        )
        with pytest.raises(NonConvergent):
            hyp_limit(wild, ONE)


class TestLHopital:
    def test_factorable_quotient(self):
        F = DifferentiableFunction(
            ComponentFunction.symmetric(lambda x: x * x - 1.0),
            ComponentFunction.symmetric(lambda x: 2.0 * x),
        )
        G = DifferentiableFunction(
            ComponentFunction.symmetric(lambda x: x - 1.0),
            ComponentFunction.symmetric(lambda x: 1.0),
        )
        res = lhopital_check(F, G, ONE)
        assert res.agree
        assert approx_eq(res.lhs, embed_real(2.0), tol=1e-6)
        assert approx_eq(res.rhs, embed_real(2.0), tol=1e-6)

    def test_cubic_over_linear_at_zero(self):
        F = DifferentiableFunction(
            CUBE, ComponentFunction.symmetric(lambda x: 3.0 * x * x))
        G = DifferentiableFunction(
            ComponentFunction.symmetric(lambda x: x),
            ComponentFunction.symmetric(lambda x: 1.0),
        )
        res = lhopital_check(F, G, ZERO)
        assert res.agree
        assert approx_eq(res.lhs, ZERO, tol=1e-6)

    def test_log_power_sum_quotient(self, fixture_b):
        p1, p2 = fixture_b.p1, fixture_b.p2
        F = DifferentiableFunction(
            ComponentFunction(
                lambda a: float(np.log((p1 ** a).sum())),
                lambda a: float(np.log((p2 ** a).sum())),
            )
        )
        G = DifferentiableFunction(
            ComponentFunction.symmetric(lambda a: 1.0 - a),
            ComponentFunction.symmetric(lambda a: -1.0),
        )
        res = lhopital_check(F, G, ONE)
        assert res.agree
        expected = HyperbolicNumber(0.69314718055994529, 0.56233514461880829)
        assert approx_eq(res.lhs, expected, tol=1e-6)

    def test_rejects_non_zero_numerator(self):
        F = DifferentiableFunction(ComponentFunction.symmetric(lambda x: x + 1.0))
        G = DifferentiableFunction(ComponentFunction.symmetric(lambda x: x - 1.0))
        with pytest.raises(HypothesisViolated):
            lhopital_check(F, G, ONE)

    def test_rejects_zero_divisor_denominator_derivative(self):
        # G(x1 e1 + x2 e2) = (x1-1) e1 + (x2-1)^2 e2 vanishes at 1_D but its
        # derivative there is e1, a zero divisor.
        F = DifferentiableFunction(
            ComponentFunction.symmetric(lambda x: x - 1.0),
            ComponentFunction.symmetric(lambda x: 1.0),
        )
        G = DifferentiableFunction(
            ComponentFunction(lambda x: x - 1.0, lambda x: (x - 1.0) ** 2),
            ComponentFunction(lambda x: 1.0, lambda x: 2.0 * (x - 1.0)),
        )
        with pytest.raises(HypothesisViolated):
            lhopital_check(F, G, ONE)


class TestConcavityProbe:
    def test_log_is_concave(self):
        box = HyperbolicInterval(embed_real(0.1), ONE)
        res = concavity_probe(LOG, samples=2000, domain=box)
        assert res.concave and not res.convex
        assert res.convex_witnesses  # evidence against convexity was recorded

    def test_square_is_convex(self):
        box = HyperbolicInterval(ZERO, ONE)
        res = concavity_probe(SQUARE, samples=2000, domain=box)
        assert res.convex and not res.concave

    def test_mixed_power_is_neither(self):
        # x^2 on one coordinate, sqrt on the other: convex e1, concave e2.
        F = ComponentFunction(lambda x: x * x, lambda x: x ** 0.5)
        box = HyperbolicInterval(embed_real(0.1), ONE)
        res = concavity_probe(F, samples=2000, domain=box)
        assert not res.convex and not res.concave

    def test_affine_is_both(self):
        F = ComponentFunction.symmetric(lambda x: 3.0 * x + 1.0)
        box = HyperbolicInterval(ZERO, ONE)
        res = concavity_probe(F, samples=500, domain=box)
        assert res.convex and res.concave

    def test_deterministic_given_seed(self):
        box = HyperbolicInterval(embed_real(0.1), ONE)
        a = concavity_probe(LOG, samples=200, seed=7, domain=box)
        b = concavity_probe(LOG, samples=200, seed=7, domain=box)
        assert a.convex_witnesses == b.convex_witnesses

    def test_needs_domain(self):
        with pytest.raises(EmptyDomain):
            concavity_probe(SQUARE, samples=10)


def _probe_oracle(F, samples, seed, domain, max_witnesses=3,
                  slack=CONCAVITY_SLACK):
    """The probe one sample at a time: scalar draws and HyperbolicNumber
    arithmetic, stopping right after the sample that fills both lists."""
    rng = Xoshiro256StarStar(seed)
    lo, hi = domain.lo, domain.hi
    concave = convex = True
    concave_w, convex_w = [], []
    for _ in range(samples):
        u1, v1 = rng.uniform(lo.x1, hi.x1), rng.uniform(lo.x1, hi.x1)
        u2, v2 = rng.uniform(lo.x2, hi.x2), rng.uniform(lo.x2, hi.x2)
        lam = HyperbolicNumber(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        a1, b1 = sorted((u1, v1))
        a2, b2 = sorted((u2, v2))
        xi, chi = HyperbolicNumber(a1, a2), HyperbolicNumber(b1, b2)
        mid = F((ONE - lam) * xi + lam * chi)
        bound = (ONE - lam) * F(xi) + lam * F(chi)
        if mid.x1 > bound.x1 + slack or mid.x2 > bound.x2 + slack:
            convex = False
            if len(convex_w) < max_witnesses:
                convex_w.append((xi, chi, lam))
        if mid.x1 < bound.x1 - slack or mid.x2 < bound.x2 - slack:
            concave = False
            if len(concave_w) < max_witnesses:
                concave_w.append((xi, chi, lam))
        if not concave and not convex and len(concave_w) >= max_witnesses \
                and len(convex_w) >= max_witnesses:
            break
    return ConcavityResult(concave, convex, concave_w, convex_w)


# name -> (F, order interval, seed, max_witnesses, slack).  x^2 on e1 and
# sqrt on e2 violates both inequalities at every sample, so with 1500
# witnesses "mixed" fills both lists inside the second 1024-sample block.
# With no slack, an affine F fails either inequality only by rounding, so
# "affine-exact" pins the float operations of the mix and the bound.
MIXED = ComponentFunction(lambda x: x * x, lambda x: x ** 0.5)
AFFINE = ComponentFunction.symmetric(lambda x: 3.0 * x + 1.0)
PROBE_CASES = {
    "log": (LOG, (0.1, 2.0), 11, 3, CONCAVITY_SLACK),
    "mixed": (MIXED, (0.1, 1.0), 3, 1500, CONCAVITY_SLACK),
    "mixed-no-witnesses": (MIXED, (0.1, 1.0), 4, 0, CONCAVITY_SLACK),
    "affine": (AFFINE, (0.0, 1.0), 5, 3, CONCAVITY_SLACK),
    "affine-exact": (AFFINE, (0.3, 7.0), 6, 2000, 0.0),
    "square": (SQUARE, (0.0, 1.0), 7, 3, CONCAVITY_SLACK),
}


class TestBlockProbeMatchesPerSampleOracle:
    @pytest.mark.parametrize("samples", [0, 1, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("name", sorted(PROBE_CASES))
    def test_same_repr(self, name, samples):
        F, (lo, hi), seed, max_witnesses, slack = PROBE_CASES[name]
        box = HyperbolicInterval(embed_real(lo), embed_real(hi))
        got = concavity_probe(F, samples=samples, seed=seed, slack=slack,
                              domain=box, max_witnesses=max_witnesses)
        want = _probe_oracle(F, samples, seed, box, max_witnesses, slack)
        assert repr(got) == repr(want)
        for xi, chi, lam in got.concave_witnesses + got.convex_witnesses:
            for x in (xi, chi, lam):
                assert type(x.x1) is float and type(x.x2) is float

    def test_stops_after_the_block_that_fills_both_lists(self):
        calls = []

        def square(x):
            calls.append(x)
            return x * x

        F = ComponentFunction(square, MIXED.f2)
        box = HyperbolicInterval(embed_real(0.1), ONE)
        res = concavity_probe(F, samples=10_000, seed=3, domain=box,
                              max_witnesses=1500)
        assert len(res.convex_witnesses) == len(res.concave_witnesses) == 1500
        # f1 runs on mix, xi and chi of each sample in two blocks of 1024.
        assert len(calls) == 3 * 2048
        assert all(type(x) is float for x in calls)


class TestPooledProbeDraws:
    # The probe draws four 1024-sample blocks per randoms call.
    @pytest.mark.parametrize("samples", [4095, 4096, 4097])
    @pytest.mark.parametrize("name", ["affine-exact", "log"])
    def test_same_repr_across_a_pool_edge(self, name, samples):
        F, (lo, hi), seed, max_witnesses, slack = PROBE_CASES[name]
        box = HyperbolicInterval(embed_real(lo), embed_real(hi))
        got = concavity_probe(F, samples=samples, seed=seed, slack=slack,
                              domain=box, max_witnesses=max_witnesses)
        want = _probe_oracle(F, samples, seed, box, max_witnesses, slack)
        assert repr(got) == repr(want)

    def test_early_exit_in_the_second_pool(self):
        # Every sample of MIXED is a witness of both kinds, so 4100 of each
        # fill at sample 4100, in the first block of the second pool.
        box = HyperbolicInterval(embed_real(0.1), ONE)
        got = concavity_probe(MIXED, samples=3 * 4096, seed=3, domain=box,
                              max_witnesses=4100)
        want = _probe_oracle(MIXED, 3 * 4096, 3, box, 4100)
        assert len(got.convex_witnesses) == 4100
        assert repr(got) == repr(want)


class TestBasisViews:
    def test_cr_uses_unit_basis(self):
        # F(xi) = k * xi has u(x, y) = y, v(x, y) = x, which satisfies the
        # equations u_x = v_y, u_y = v_x.
        def F(xi: HyperbolicNumber) -> HyperbolicNumber:
            return HyperbolicNumber(1.0, -1.0) * xi

        res = check_cauchy_riemann(F, from_unit_k(0.3, 0.8))
        assert res.holds
