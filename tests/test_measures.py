"""Entropy and extropy measures, real and hyperbolic, and their identities."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypentropy import (
    ONE,
    ZERO,
    Case,
    HyperbolicDistribution,
    HyperbolicNumber,
    RealDistribution,
    approx_eq,
    collision,
    collision_hyp,
    embed,
    embed_real,
    extropy,
    extropy_duality_check,
    hartley,
    hartley_hyp,
    hyp_limit,
    perturbation_family,
    renyi,
    renyi_extropy,
    renyi_extropy_hyp,
    renyi_hyp,
    renyi_hyp_limit,
    renyi_hyp_mixed,
    shannon,
    shannon_via_generating,
    strong_extropy_hyp,
    strong_shannon_hyp,
    strong_shannon_via_generating,
    uniform,
    uniform_hyp,
    validate,
)
from hypentropy.errors import (
    CaseMismatch,
    HypentropyError,
    NegativeOrder,
    NonFinite,
    NonPositiveOrder,
    OrderOne,
    OrderOnZeroDivisorLine,
    ZeroComponent,
    ZeroProbability,
)
from hypentropy import calculus, measures
from hypentropy.calculus import LIMIT_STEPS
from hypentropy.measures import MEASURES, Measure, evaluate

from conftest import (
    CountingArray,
    oracle_collision,
    oracle_extropy,
    oracle_hartley,
    oracle_renyi,
    oracle_renyi_extropy,
    oracle_shannon,
    random_full,
)

P_MIXED = np.array([0.5, 0.25, 0.25])


def dist(p) -> RealDistribution:
    return RealDistribution(np.asarray(p, dtype=float))


class TestShannon:
    def test_uniform_maximum(self):
        for n in (2, 3, 10):
            assert abs(shannon(uniform(n)) - math.log(n)) < 1e-12

    def test_certainty_is_zero(self):
        assert shannon(dist([1.0, 0.0, 0.0])) == 0.0

    def test_mixed_example(self):
        assert abs(shannon(dist(P_MIXED)) - 1.0397207708399179) < 1e-15

    def test_against_oracle(self, rng):
        for n in (2, 3, 7, 20):
            p = rng.dirichlet(np.ones(n))
            assert abs(shannon(dist(p)) - oracle_shannon(p)) < 1e-13


class TestExtropy:
    def test_uniform_three(self):
        expected = 2.0 * math.log(1.5)
        assert abs(extropy(uniform(3)) - expected) < 1e-15

    def test_two_states_equals_entropy(self, rng):
        for _ in range(20):
            p1 = rng.uniform(0.25, 0.75)
            P = dist([p1, 1.0 - p1])
            assert abs(extropy(P) - shannon(P)) <= math.ulp(shannon(P))

    def test_mixed_example(self):
        assert abs(extropy(dist(P_MIXED)) - 0.778096698957644) < 1e-15

    def test_against_oracle(self, rng):
        for n in (2, 5, 12):
            p = rng.dirichlet(np.ones(n))
            assert abs(extropy(dist(p)) - oracle_extropy(p)) < 1e-13


class TestDuality:
    def test_half_half(self):
        res = extropy_duality_check(dist([0.5, 0.5]))
        assert abs(res.lhs - math.log(2.0)) < 1e-15
        assert abs(res.rhs - math.log(2.0)) < 1e-15

    def test_certainty(self):
        res = extropy_duality_check(dist([1.0, 0.0]))
        assert res.lhs == 0.0 and res.rhs == 0.0

    def test_mixed_example(self):
        res = extropy_duality_check(dist(P_MIXED))
        assert abs(res.lhs - 0.778096698957644) < 1e-15
        assert abs(res.lhs - res.rhs) < 1e-12

    def test_random(self, rng):
        for n in (2, 4, 9, 30):
            P = dist(rng.dirichlet(np.ones(n)))
            res = extropy_duality_check(P)
            assert abs(res.lhs - res.rhs) < 1e-10

    @pytest.mark.parametrize("wrong", [
        MEASURES["shannon"].kernel,
        lambda p, j=MEASURES["extropy"].kernel: j(p) / math.log(2.0),
        lambda p, j=MEASURES["extropy"].kernel: j(p) * (1.0 + 1e-9),
    ], ids=["shannon-kernel", "log2", "relative-1e-9"])
    def test_wrong_extropy_kernel_fails(self, monkeypatch, wrong):
        P = dist(P_MIXED)
        exact = extropy_duality_check(P)
        monkeypatch.setitem(MEASURES, "extropy", Measure(wrong))
        res = extropy_duality_check(P)
        assert res.lhs == wrong(P.p)
        assert res.rhs == exact.rhs
        assert abs(res.lhs - res.rhs) > 1e-10


class TestNonFiniteValue:
    """A value that overflows to infinity raises NonFinite, with no warning:
    at order 2000, 0.5**2000 underflows to 0 and log 0 = -inf."""

    @pytest.mark.parametrize("call", [
        lambda: renyi(uniform(2), 2000.0),
        lambda: renyi_extropy(uniform(2), 2000.0),
        lambda: renyi_hyp(uniform_hyp(2), HyperbolicNumber(2000.0, 2.0)),
        lambda: renyi_hyp(uniform_hyp(2), HyperbolicNumber(2.0, 2000.0)),
        lambda: renyi_hyp_mixed(uniform_hyp(2), HyperbolicNumber(1.0, 2000.0)),
        lambda: renyi_extropy_hyp(uniform_hyp(2), HyperbolicNumber(2000.0, 2.0)),
        lambda: evaluate("renyi_hyp", uniform(2), HyperbolicNumber(2000.0, 2.0)),
        lambda: evaluate("renyi", uniform(2), embed_real(2000.0)),
    ], ids=["renyi", "renyi_extropy", "renyi_hyp-e1", "renyi_hyp-e2",
            "renyi_hyp_mixed", "renyi_extropy_hyp", "evaluate-hyp",
            "evaluate-real"])
    def test_raises_without_warning(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                call()

    def test_large_finite_order_still_evaluates(self):
        got = renyi_hyp(uniform_hyp(2), HyperbolicNumber(1000.0, 2.0))
        assert abs(got.x1 - math.log(2.0)) < 1e-12


class TestPublicFunctionsReadEvaluate:
    """The public measure functions are ``evaluate`` of their name, so
    their input and order checks are the registry's."""

    @pytest.mark.parametrize("fn", [shannon, extropy, hartley, collision])
    def test_real_measure_rejects_hyperbolic_input(self, fn):
        with pytest.raises(HypentropyError, match="expects a real"):
            fn(uniform_hyp(3))

    @pytest.mark.parametrize("fn", [
        strong_shannon_hyp, strong_extropy_hyp, hartley_hyp, collision_hyp])
    def test_hyperbolic_measure_reads_real_input_as_its_embedding(self, fn):
        assert fn(uniform(3)) == fn(uniform_hyp(3))
        assert fn(dist(P_MIXED)) == fn(embed(dist(P_MIXED)))

    @pytest.mark.parametrize("fn", [renyi_hyp, renyi_extropy_hyp])
    def test_hyperbolic_order_on_real_input(self, fn):
        alpha = HyperbolicNumber(0.5, 2.0)
        assert fn(dist(P_MIXED), alpha) == fn(embed(dist(P_MIXED)), alpha)

    @pytest.mark.parametrize("name", ["renyi", "renyi_extropy"])
    @pytest.mark.parametrize("e2", [math.nan, math.inf, -math.inf])
    def test_real_measure_rejects_a_nonfinite_unused_coordinate(self, name,
                                                                e2):
        with pytest.raises(NonFinite, match="e2 coordinate"):
            evaluate(name, uniform(2), HyperbolicNumber(2.0, e2))

    def test_real_measure_ignores_a_finite_unused_coordinate(self):
        got = evaluate("renyi", dist(P_MIXED), HyperbolicNumber(2.0, 0.5))
        assert got == embed_real(renyi(dist(P_MIXED), 2.0))


class TestMeasureOfSharesByArray:
    """``Measure.of`` runs a kernel once per (kernel, order coordinate,
    array): two coordinates that are one array at one order share a pass,
    and distinct arrays take one each, with the same bits."""

    @pytest.fixture
    def passes(self, monkeypatch):
        passes = []

        def counted_kernel(fn):
            def kernel(p, *order):
                passes.append((fn.__name__, order))
                return fn(p, *order)
            return kernel
        kernels = {m.kernel: counted_kernel(m.kernel)
                   for m in MEASURES.values() if m.kernel is not None}
        monkeypatch.setattr(measures, "MEASURES", {
            name: dataclasses.replace(m, kernel=kernels.get(m.kernel))
            for name, m in MEASURES.items()})
        return passes

    CASES = [("strong_shannon_hyp", None, [("_neg_xlogx_sum", ())]),
             ("renyi_hyp", embed_real(2.0), [("_renyi_coordinate", (2.0,))]),
             ("renyi", embed_real(2.0), [("_renyi_coordinate", (2.0,))]),
             ("renyi_hyp", HyperbolicNumber(0.5, 2.0),
              [("_renyi_coordinate", (0.5,)), ("_renyi_coordinate", (2.0,))])]
    IDS = ["strong-shannon-hyp", "renyi-hyp-2", "renyi-2", "renyi-hyp-0.5-2"]

    @pytest.mark.parametrize("name, order, want", CASES, ids=IDS)
    def test_real_input_takes_one_pass_per_order(self, passes, name, order,
                                                 want):
        evaluate(name, dist(P_MIXED), order)
        assert passes == want

    @pytest.mark.parametrize("name, order, want", CASES[:2] + CASES[3:],
                             ids=IDS[:2] + IDS[3:])
    def test_one_array_in_both_coordinates(self, passes, name, order, want):
        p = P_MIXED.copy()
        one = evaluate(name, HyperbolicDistribution(p, p, Case.FULL), order)
        assert passes == want
        del passes[:]
        two = evaluate(name, HyperbolicDistribution(p, p.copy(), Case.FULL),
                       order)
        assert len(passes) == 2
        assert one == two

    def test_a_shared_memo_shares_passes_across_calls(self, passes):
        m, p, memo = measures.MEASURES["renyi_hyp"], P_MIXED.copy(), {}
        first = m.of("renyi_hyp", p, p, HyperbolicNumber(0.5, 2.0), memo)
        assert m.of("renyi_hyp", p, p, embed_real(2.0), memo) == \
            HyperbolicNumber(first.x2, first.x2)
        assert len(passes) == 2


class TestRenyi:
    def test_uniform_any_order(self):
        for q in (0.5, 2.0, 5.0):
            assert abs(renyi(uniform(8), q) - math.log(8)) < 1e-12

    def test_collision_example(self):
        assert abs(renyi(dist(P_MIXED), 2.0) + math.log(0.375)) < 1e-15

    def test_certainty(self):
        assert renyi(dist([1.0, 0.0, 0.0]), 0.5) == 0.0

    def test_order_zero_routes_to_hartley(self):
        assert renyi(dist(P_MIXED), 0.0) == hartley(dist(P_MIXED))

    def test_order_one_rejected(self):
        with pytest.raises(OrderOne):
            renyi(uniform(2), 1.0)

    def test_negative_order_rejected(self):
        with pytest.raises(NegativeOrder):
            renyi(uniform(2), -0.5)

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_nonfinite_order_rejected(self, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                renyi(uniform(2), q)

    def test_negative_infinite_order_is_negative(self):
        with pytest.raises(NegativeOrder):
            renyi(uniform(2), -math.inf)

    def test_against_oracle(self, rng):
        for q in (0.3, 0.5, 2.0, 4.0):
            p = rng.dirichlet(np.ones(6))
            assert abs(renyi(dist(p), q) - oracle_renyi(p, q)) < 1e-12

    def test_nonincreasing_in_order(self, rng):
        p = dist(rng.dirichlet(np.ones(5)))
        values = [renyi(p, q) for q in (0.25, 0.5, 0.75, 1.5, 2.0, 4.0)]
        for lo, hi in zip(values, values[1:]):
            assert lo >= hi - 1e-12


class TestHartleyCollision:
    def test_hartley_counts_all_states(self):
        assert abs(hartley(dist([0.2, 0.8, 0.0, 0.0, 0.0])) - math.log(5)) < 1e-15

    def test_collision_uniform(self):
        assert abs(collision(uniform(4)) - math.log(4)) < 1e-15

    def test_collision_certainty(self):
        assert collision(dist([1.0, 0.0])) == 0.0

    def test_against_oracles(self, rng):
        p = rng.dirichlet(np.ones(9))
        assert abs(collision(dist(p)) - oracle_collision(p)) < 1e-13
        assert hartley(dist(p)) == oracle_hartley(p)

    def test_collision_is_renyi_two_bit_for_bit_with_zeros(self):
        # Twelve states with two zeros: an unmasked sum of p**2 groups the
        # terms differently and differs from the Renyi-2 value in the last bit.
        P = dist([0.08, 0.08, 0.0, 0.0, 0.1, 0.12, 0.18, 0.12, 0.06, 0.08,
                  0.08, 0.1])
        assert collision(P) == renyi(P, 2.0) == collision_hyp(embed(P)).x1


class TestRenyiExtropy:
    def test_against_oracle(self, rng):
        for q in (0.5, 2.0, 3.0):
            p = rng.dirichlet(np.ones(6))
            got = renyi_extropy(dist(p), q)
            assert abs(got - oracle_renyi_extropy(p, q)) < 1e-11

    def test_order_one_rejected(self):
        with pytest.raises(OrderOne):
            renyi_extropy(uniform(3), 1.0)

    def test_single_state_warns(self):
        with pytest.warns(UserWarning):
            assert renyi_extropy(dist([1.0]), 2.0) == 0.0

    @pytest.mark.parametrize("q, error", [
        (-1.0, NegativeOrder), (math.nan, NonFinite), (math.inf, NonFinite),
    ])
    def test_order_domain_is_renyis(self, q, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                renyi_extropy(uniform(3), q)

    def test_order_zero_allowed(self):
        P = dist(P_MIXED)
        assert renyi_extropy(P, 0.0) == 2.0 * (math.log(3.0) - math.log(2.0))


class TestGeneratingFunctionRoute:
    def test_half_half(self):
        assert abs(shannon_via_generating(dist([0.5, 0.5])) - math.log(2)) < 1e-8

    def test_mixed_example(self):
        got = shannon_via_generating(dist(P_MIXED))
        assert abs(got - 1.0397207708399179) < 1e-8

    def test_uniform_ten(self):
        assert abs(shannon_via_generating(uniform(10)) - math.log(10)) < 1e-8

    def test_zero_probability_rejected(self):
        with pytest.raises(ZeroProbability):
            shannon_via_generating(dist([1.0, 0.0]))


class TestStrongShannonHyp:
    def test_uniform_maximum(self):
        for n in (2, 7, 64):
            got = strong_shannon_hyp(uniform_hyp(n))
            assert approx_eq(got, embed_real(math.log(n)), tol=1e-12)

    def test_fixture(self, fixture_b):
        expected = HyperbolicNumber(0.69314718055994529, 0.56233514461880829)
        assert approx_eq(strong_shannon_hyp(fixture_b), expected, tol=1e-15)

    def test_e1_only_case(self):
        B = validate([(0.3, 0.0), (0.7, 0.0)])
        got = strong_shannon_hyp(B)
        assert abs(got.x1 - 0.6108643020548935) < 1e-15
        assert got.x2 == 0.0

    def test_e2_only_case(self):
        B = validate([(0.0, 0.3), (0.0, 0.7)])
        got = strong_shannon_hyp(B)
        assert got.x1 == 0.0
        assert abs(got.x2 - 0.6108643020548935) < 1e-15

    def test_factorizes_through_projections(self, rng):
        for n in (2, 5, 17, 50):
            B = random_full(rng, n)
            got = strong_shannon_hyp(B)
            assert abs(got.x1 - oracle_shannon(B.p1)) < 1e-12
            assert abs(got.x2 - oracle_shannon(B.p2)) < 1e-12


class TestStrongShannonViaGenerating:
    def test_uniform_fixtures(self):
        for n in (2, 16):
            got = strong_shannon_via_generating(uniform_hyp(n))
            assert approx_eq(got, embed_real(math.log(n)), tol=1e-8)

    def test_fixture(self, fixture_b):
        got = strong_shannon_via_generating(fixture_b)
        expected = strong_shannon_hyp(fixture_b)
        assert approx_eq(got, expected, tol=1e-8)

    def test_zero_component_rejected(self):
        B = validate([(1.0, 0.5), (0.0, 0.5)])
        with pytest.raises(ZeroComponent):
            strong_shannon_via_generating(B)

    def test_requires_case_full(self):
        B = validate([(0.3, 0.0), (0.7, 0.0)])
        with pytest.raises(CaseMismatch):
            strong_shannon_via_generating(B)


def _per_exponent_via_generating(B) -> HyperbolicNumber:
    """The generating-function route with one power pass per exponent: the
    limit of the finite-difference derivative of sum rho^{-xi} at -1_D."""
    p1, p2 = B.p1, B.p2
    G = calculus.DifferentiableFunction(calculus.ComponentFunction(
        lambda t: float((p1 ** (-t)).sum()),
        lambda t: float((p2 ** (-t)).sum()),
    ))
    return hyp_limit(lambda xi: calculus.hyp_derivative(G, xi),
                     embed_real(-1.0))


class TestBatchedGeneratingStencil:
    """The batched power passes give the bits of one pass per exponent."""

    @pytest.mark.parametrize("n", [2, 20, 10_000, 100_000])
    def test_case_full(self, n, rng):
        B = random_full(rng, n)
        got = strong_shannon_via_generating(B)
        want = _per_exponent_via_generating(B)
        assert (got.x1, got.x2) == (want.x1, want.x2)

    @pytest.mark.parametrize("n", [2, 20, 10_000, 100_000])
    def test_embedded(self, n, rng):
        P = RealDistribution(rng.dirichlet(np.ones(n)))
        got = strong_shannon_via_generating(embed(P))
        want = _per_exponent_via_generating(embed(P))
        assert (got.x1, got.x2) == (want.x1, want.x2)
        assert shannon_via_generating(P) == want.x1


class TestRenyiHyp:
    def test_uniform_any_order(self):
        got = renyi_hyp(uniform_hyp(2), HyperbolicNumber(2.0, 0.5))
        assert approx_eq(got, embed_real(math.log(2)), tol=1e-15)

    def test_fixture_order_two(self, fixture_b):
        got = renyi_hyp(fixture_b, embed_real(2.0))
        expected = HyperbolicNumber(-math.log(0.5), -math.log(0.625))
        assert approx_eq(got, expected, tol=1e-15)

    def test_embedding_consistency(self, rng):
        p = rng.dirichlet(np.ones(6))
        for q in (0.5, 2.0, 3.0):
            got = renyi_hyp(embed(dist(p)), embed_real(q))
            assert approx_eq(got, embed_real(renyi(dist(p), q)), tol=0.0)

    def test_factorizes_through_projections(self, rng):
        B = random_full(rng, 12)
        alpha = HyperbolicNumber(0.7, 2.5)
        got = renyi_hyp(B, alpha)
        assert abs(got.x1 - oracle_renyi(B.p1, 0.7)) < 1e-12
        assert abs(got.x2 - oracle_renyi(B.p2, 2.5)) < 1e-12

    def test_rejects_nonpositive_order(self, fixture_b):
        with pytest.raises(NonPositiveOrder):
            renyi_hyp(fixture_b, HyperbolicNumber(0.5, -1.0))
        with pytest.raises(NonPositiveOrder):
            renyi_hyp(fixture_b, HyperbolicNumber(0.0, 2.0))

    def test_rejects_nonfinite_order(self, fixture_b):
        with pytest.raises(NonFinite):
            renyi_hyp(fixture_b, HyperbolicNumber(math.inf, 2.0))
        with pytest.raises(NonPositiveOrder):
            renyi_hyp(fixture_b, HyperbolicNumber(math.nan, 2.0))

    def test_rejects_order_on_zero_divisor_line(self, fixture_b):
        with pytest.raises(OrderOnZeroDivisorLine):
            renyi_hyp(fixture_b, HyperbolicNumber(1.0, 2.0))
        with pytest.raises(OrderOnZeroDivisorLine):
            renyi_hyp(fixture_b, ONE)

    def test_requires_case_full(self):
        B = validate([(0.3, 0.0), (0.7, 0.0)])
        with pytest.raises(CaseMismatch):
            renyi_hyp(B, embed_real(2.0))

    def test_order_monotonicity(self, rng):
        B = random_full(rng, 8)
        small = renyi_hyp(B, HyperbolicNumber(0.4, 0.6))
        large = renyi_hyp(B, HyperbolicNumber(2.0, 3.0))
        assert (large - embed_real(1e-12)).preceq(small)

    def test_nonnegative(self, rng):
        for n in (2, 5, 20):
            B = random_full(rng, n)
            got = renyi_hyp(B, HyperbolicNumber(0.5, 2.0))
            assert embed_real(-1e-12).preceq(got)


class TestRenyiHypMixed:
    def test_dispatches_shannon_coordinate(self, fixture_b):
        got = renyi_hyp_mixed(fixture_b, HyperbolicNumber(1.0, 2.0))
        assert abs(got.x1 - shannon(fixture_b.projection1())) < 1e-15
        assert abs(got.x2 - renyi(fixture_b.projection2(), 2.0)) < 1e-15

    def test_matches_renyi_hyp_off_the_line(self, fixture_b):
        alpha = HyperbolicNumber(0.5, 3.0)
        assert renyi_hyp_mixed(fixture_b, alpha) == renyi_hyp(fixture_b, alpha)

    def test_both_coordinates_one(self, fixture_b):
        got = renyi_hyp_mixed(fixture_b, ONE)
        assert got == strong_shannon_hyp(fixture_b)

    def test_rejects_nonfinite_order(self, fixture_b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                renyi_hyp_mixed(fixture_b, HyperbolicNumber(math.inf, 2.0))


class TestRenyiHypLimit:
    def test_uniform_three(self):
        got = renyi_hyp_limit(uniform_hyp(3))
        assert approx_eq(got, embed_real(math.log(3)), tol=1e-6)

    def test_fixture(self, fixture_b):
        got = renyi_hyp_limit(fixture_b)
        assert approx_eq(got, strong_shannon_hyp(fixture_b), tol=1e-6)

    def test_embedded_mixed(self):
        got = renyi_hyp_limit(embed(dist(P_MIXED)))
        assert approx_eq(got, embed_real(1.0397207708399179), tol=1e-6)

    def test_zero_component_rejected(self):
        B = validate([(1.0, 0.5), (0.0, 0.5)])
        with pytest.raises(ZeroComponent):
            renyi_hyp_limit(B)

    def test_one_power_pass_per_order_and_coordinate(self, rng):
        # F, F/G and F'/G' visit the same orders 1 +- t; each coordinate
        # raises p to each order once (44 exponent rows where the routes on
        # their own take 132) and takes ln p once.
        B = random_full(rng, 50)
        for name in ("p1", "p2"):
            object.__setattr__(B, name, getattr(B, name).view(CountingArray))
        CountingArray.calls, CountingArray.exponents = {}, []
        renyi_hyp_limit(B)
        orders = [1.0 + sign * t for t in LIMIT_STEPS for sign in (1.0, -1.0)]
        assert sorted(CountingArray.exponents) == sorted(2 * orders)
        # Two more logs are the closed-form entropy's own.
        assert CountingArray.calls["log"] == 2 + 2

    def test_shared_power_sums_keep_the_direct_route_bits(self, rng):
        B = random_full(rng, 200)
        assert renyi_hyp_limit(B) == hyp_limit(lambda a: renyi_hyp(B, a), ONE)

    def test_table_has_the_bits_of_renyi_hyp(self, rng):
        B = random_full(rng, 200)
        orders = [embed_real(1.1), embed_real(1.0 - 1e-4),
                  HyperbolicNumber(0.5, 2.0)]
        result = measures.renyi_hyp_limit_table(B, orders)
        assert result.table == tuple(renyi_hyp(B, a) for a in orders)
        assert result.limit == renyi_hyp_limit(B)
        assert result.entropy == strong_shannon_hyp(B)

    @pytest.mark.parametrize("alpha, error", [
        (HyperbolicNumber(2000.0, 2.0), NonFinite),
        (HyperbolicNumber(1.0, 2.0), OrderOnZeroDivisorLine),
    ], ids=["underflow", "order-one"])
    def test_table_orders_have_renyi_hyps_domain(self, fixture_b, alpha,
                                                 error):
        with pytest.raises(error):
            renyi_hyp(fixture_b, alpha)
        with pytest.raises(error):
            measures.renyi_hyp_limit_table(fixture_b, [alpha])

    def test_one_limit_per_route(self, fixture_b, monkeypatch):
        # L'Hopital takes the limits of F, G, F/G and F'/G'; the F/G limit is
        # the value, so no separate direct limit is taken.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return hyp_limit(*args, **kwargs)

        monkeypatch.setattr(calculus, "hyp_limit", counted)
        monkeypatch.setattr(measures, "hyp_limit", counted)
        renyi_hyp_limit(fixture_b)
        assert calls == [ONE] * 4


class TestPowerSums:
    # Repeats, numpy's scalar-power exponents 2, 0.5 and -1, and the orders
    # of both limit routes near 1 and -1.
    EXPONENTS = [1.1, 0.5, 1.0 - 1e-9, 2.0, 1.1, -1.0, 0.5, -0.9999, 1.0 + 1e-3]

    @pytest.mark.parametrize("n", [
        1, 2, measures._STENCIL_CHUNK // 3, measures._STENCIL_CHUNK - 1,
        measures._STENCIL_CHUNK, measures._STENCIL_CHUNK + 1])
    def test_rows_have_the_bits_of_single_sums(self, rng, n):
        # At _STENCIL_CHUNK // 3 a pass holds three rows, so the seven
        # distinct exponents take three passes, the last one short.
        p = rng.random(n) + 0.01
        p /= p.sum()
        sums = measures._power_sums(p, self.EXPONENTS)
        logged = measures._power_sums(p, self.EXPONENTS, with_log=True)
        assert len(sums) == len(logged) == len(set(self.EXPONENTS))
        for e in self.EXPONENTS:
            assert sums[e] == ((p ** e).sum(),)
            assert logged[e] == ((p ** e).sum(), (p ** e * np.log(p)).sum())
            assert all(type(v) is float for v in logged[e])

    def test_scalar_power_exponents_keep_their_bits(self, rng):
        # numpy takes p ** 2, p ** 0.5 and p ** -1 as square, sqrt and
        # reciprocal, which miss its power loop's bits on some entries; the
        # sum of a one-state array is its entry, so it shows every miss.
        for x in rng.random(200):
            p = np.array([x])
            sums = measures._power_sums(p, self.EXPONENTS)
            for e in (2.0, 0.5, -1.0):
                assert sums[e] == ((p ** e).sum(),)

    def test_table_checks_every_order_before_any_power_pass(self):
        # p ** -5 of a 1e-300 entry overflows; the typed error comes first.
        B = HyperbolicDistribution(np.array([1e-300, 1.0]),
                                   np.array([0.5, 0.5]), Case.FULL)
        for name in ("p1", "p2"):
            object.__setattr__(B, name, getattr(B, name).view(CountingArray))
        CountingArray.exponents = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveOrder):
                measures.renyi_hyp_limit_table(
                    B, [embed_real(1.1), HyperbolicNumber(-5.0, -5.0)])
        assert CountingArray.exponents == []


class TestHartleyCollisionHyp:
    def test_hartley_three(self):
        B = validate([(0.5, 0.2), (0.25, 0.3), (0.25, 0.5)])
        assert approx_eq(hartley_hyp(B), embed_real(math.log(3)), tol=0.0)

    def test_collision_uniform(self):
        got = collision_hyp(uniform_hyp(4))
        assert approx_eq(got, embed_real(math.log(4)), tol=1e-15)

    def test_collision_fixture(self, fixture_b):
        got = collision_hyp(fixture_b)
        assert got == renyi_hyp(fixture_b, embed_real(2.0))


class TestStrongExtropyHyp:
    def test_two_states_equals_entropy(self, fixture_b):
        S = strong_shannon_hyp(fixture_b)
        J = strong_extropy_hyp(fixture_b)
        assert abs(S.x1 - J.x1) <= math.ulp(S.x1)
        assert abs(S.x2 - J.x2) <= math.ulp(S.x2)

    def test_uniform_three(self):
        got = strong_extropy_hyp(uniform_hyp(3))
        assert approx_eq(got, embed_real(2.0 * math.log(1.5)), tol=1e-15)

    def test_embedded_mixed(self):
        got = strong_extropy_hyp(embed(dist(P_MIXED)))
        assert approx_eq(got, embed_real(0.778096698957644), tol=1e-15)

    def test_dominated_by_entropy_for_three_plus(self, rng):
        for n in (3, 6, 25):
            B = random_full(rng, n)
            S = strong_shannon_hyp(B)
            J = strong_extropy_hyp(B)
            assert J.preceq(S + embed_real(1e-12))


class TestRenyiExtropyHyp:
    def test_uniform_two_order_two(self):
        got = renyi_extropy_hyp(uniform_hyp(2), embed_real(2.0))
        assert approx_eq(got, embed_real(math.log(2)), tol=1e-15)

    def test_embedding_consistency(self, rng):
        p = rng.dirichlet(np.ones(5))
        for q in (0.5, 2.0):
            got = renyi_extropy_hyp(embed(dist(p)), embed_real(q))
            assert approx_eq(got, embed_real(renyi_extropy(dist(p), q)), tol=0.0)

    def test_factorizes_through_projections(self, rng):
        B = random_full(rng, 9)
        alpha = HyperbolicNumber(0.5, 3.0)
        got = renyi_extropy_hyp(B, alpha)
        assert abs(got.x1 - oracle_renyi_extropy(B.p1, 0.5)) < 1e-11
        assert abs(got.x2 - oracle_renyi_extropy(B.p2, 3.0)) < 1e-11

    def test_rejects_order_on_zero_divisor_line(self, fixture_b):
        with pytest.raises(OrderOnZeroDivisorLine):
            renyi_extropy_hyp(fixture_b, HyperbolicNumber(2.0, 1.0))

    @pytest.mark.parametrize("alpha, error", [
        (ZERO, NonPositiveOrder),
        (HyperbolicNumber(math.inf, 2.0), NonFinite),
    ], ids=["zero", "inf,2"])
    def test_order_domain_is_renyi_hyps(self, fixture_b, alpha, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                renyi_extropy_hyp(fixture_b, alpha)

    def test_single_state_returns_zero_with_warning(self):
        B = validate([(1.0, 1.0)])
        with pytest.warns(UserWarning):
            assert renyi_extropy_hyp(B, embed_real(2.0)) == ZERO

    def test_order_to_one_regression(self, fixture_b):
        # No closed form is asserted for the order -> 1_D limit; the value
        # below was produced by this exact numerical route and is pinned as
        # a regression fixture.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lim = hyp_limit(lambda a: renyi_extropy_hyp(fixture_b, a), ONE)
        frozen = HyperbolicNumber(0.693147180557528, 0.5623351446095097)
        assert approx_eq(lim, frozen, tol=1e-9)


def _compressed(name: str, p: np.ndarray, *q: float) -> float:
    """A kernel as the compress formula: its sum over p[p > 0] (or over the
    positive entries of 1 - p), always on a copy."""
    def neg_xlogx_sum(y):
        x = y[y > 0.0]
        return float(-(x * np.log(x)).sum())

    def renyi_(y, a):
        total = (y[y > 0.0] ** a).sum()
        return (float(np.log(total)) if total > 0.0 else -math.inf) / (1.0 - a)

    if name == "shannon":
        return neg_xlogx_sum(p)
    if name == "extropy":
        return neg_xlogx_sum(1.0 - p)
    if name == "collision":
        return renyi_(p, 2.0)
    return renyi_(p, *q)


KERNEL_CASES = [("shannon", ()), ("extropy", ()), ("collision", ()),
                ("renyi", (0.5,)), ("renyi", (2.0,)), ("renyi", (3.7,))]


class TestKernelsReadInPlace:
    """A zero-free array is read in place, with the bits of the compress
    formula; any other array takes the compress formula itself."""

    @staticmethod
    def arrays() -> dict:
        rng = np.random.default_rng(7)
        return {
            **{f"dirichlet-{n}": rng.dirichlet(np.ones(n))
               for n in (2, 1000, 100_000)},
            "certainty-spread-base":
                np.asarray(
                    perturbation_family("CertaintySpread", 1000, 0.01).base.p),
            "entry-one": np.array([0.25, 1.0, 0.5]),
            "entry-above-one": np.array([0.25, 1.0 + 1e-10, 0.5]),
        }

    @pytest.mark.parametrize("name, q", KERNEL_CASES)
    def test_bits_of_the_compress_formula(self, name, q):
        for label, p in self.arrays().items():
            assert MEASURES[name].kernel(p, *q) == _compressed(name, p, *q), \
                label

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(0.0, 1.0, exclude_min=True)),
                    min_size=1, max_size=40),
           st.sampled_from(KERNEL_CASES))
    def test_random_zero_positions(self, cells, case):
        name, q = case
        p = np.array([0.0 if zero else v for zero, v in cells])
        assert MEASURES[name].kernel(p, *q) == _compressed(name, p, *q)

    @pytest.mark.parametrize("kernel, q", [
        (measures._neg_xlogx_sum, ()),
        (measures._renyi_coordinate, (2.0,)),
    ], ids=["neg-xlogx-sum", "renyi-2"])
    def test_zero_free_array_is_not_copied(self, kernel, q):
        # One 8N-byte temporary (the log or the power), none for a copy of p.
        n = 1_000_000
        p = np.full(n, 1.0 / n)
        tracemalloc.start()
        try:
            kernel(p, *q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n


# --- pairwise summation --------------------------------------------------------

LEAF = measures._LEAF
PAIRWISE_NS = (1, 7, 8, LEAF - 1, LEAF, LEAF + 1, LEAF + 7, 2 * LEAF + 9,
               100_000, 1_000_000)
# name -> (number of arrays, term)
PAIRWISE_TERMS = {
    "scaled": (1, lambda x: x * 1.0),
    "abs-diff": (2, lambda a, b: np.abs(a - b)),
    "xlogx": (1, lambda x: x * np.log(x)),
    "power-0.5": (1, lambda x: x ** 0.5),
    "power-2": (1, lambda x: x ** 2.0),
    "power-3.7": (1, lambda x: x ** 3.7),
    "complement-power-2.5": (1, lambda x: (1.0 - x) ** 2.5),
}
SPECIALS = {"none": (), "zeros": (0.0, -0.0),
            "nonfinite": (0.0, -0.0, math.nan, math.inf, -math.inf)}


def _signed_magnitudes(seed: int, n: int, view: str, specials: str
                       ) -> np.ndarray:
    """n floats of both signs with magnitudes 1e-300 to 1e300, a tenth of
    them replaced by the values of ``SPECIALS[specials]``, as a contiguous,
    reversed or every-third-element view."""
    rng = np.random.default_rng(seed)
    step = 3 if view == "strided" else 1
    x = rng.choice([-1.0, 1.0], n * step) \
        * 10.0 ** rng.uniform(-300.0, 300.0, n * step)
    if SPECIALS[specials]:
        where = np.flatnonzero(rng.random(x.size) < 0.1)
        x[where] = rng.choice(SPECIALS[specials], where.size)
    return {"contiguous": x, "reversed": x[::-1], "strided": x[::3]}[view]


def _bits(v) -> bytes:
    """The bits of a float, with every NaN as one: which NaN operand an
    addition of two NaNs returns is up to the compiler, not numpy's tree."""
    return np.float64(math.nan if math.isnan(v) else v).tobytes()


class TestPairwiseSum:
    """``pairwise_sum`` has the bits of one numpy ``.sum()`` of the whole
    term array; if numpy changes how it sums, this fails by name."""

    @pytest.mark.parametrize("n", PAIRWISE_NS)
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           term=st.sampled_from(sorted(PAIRWISE_TERMS)),
           view=st.sampled_from(["contiguous", "reversed", "strided"]),
           specials=st.sampled_from(sorted(SPECIALS)))
    def test_bits_of_one_sum(self, n, seed, term, view, specials):
        k, f = PAIRWISE_TERMS[term]
        arrays = [_signed_magnitudes(seed + i, n, view, specials)
                  for i in range(k)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert _bits(measures.pairwise_sum(f, *arrays)) \
                == _bits(f(*arrays).sum())

    @pytest.fixture(scope="class")
    def million(self) -> dict:
        rng = np.random.default_rng(19)
        p = rng.dirichlet(np.ones(1_000_000))
        with_zeros = p.copy()
        with_zeros[rng.integers(0, p.size, 1000)] = 0.0
        return {"zero-free": p, "with-zeros": with_zeros}

    @pytest.mark.parametrize("kernel, q, old", [
        (measures._neg_xlogx_sum, (),
         lambda x: float(-(x * np.log(x)).sum())),
        (measures._renyi_coordinate, (0.5,),
         lambda x: float(np.log((x ** 0.5).sum())) / (1.0 - 0.5)),
        (measures._renyi_coordinate, (3.7,),
         lambda x: float(np.log((x ** 3.7).sum())) / (1.0 - 3.7)),
        (measures._collision_coordinate, (),
         lambda x: float(np.log((x ** 2.0).sum())) / (1.0 - 2.0)),
    ], ids=["neg-xlogx-sum", "renyi-0.5", "renyi-3.7", "collision"])
    @pytest.mark.parametrize("label", ["zero-free", "with-zeros"])
    def test_kernel_keeps_its_one_line_formula(self, million, label, kernel,
                                               q, old):
        p = million[label]
        assert kernel(p, *q) == old(p[p > 0.0])

    @pytest.mark.parametrize("a", [0.5, 2.0, 3.7])
    def test_renyi_extropy_keeps_its_one_line_formula(self, million, a):
        p = million["with-zeros"]
        n = p.size
        old = ((n - 1.0) * (float(np.log(((1.0 - p) ** a).sum()))
                            - math.log(n - 1.0))) / (1.0 - a)
        assert measures._renyi_extropy_coordinate(p, a) == old

    @pytest.mark.parametrize("kernel, q", [
        (measures._neg_xlogx_sum, ()),
        (measures._renyi_coordinate, (0.5,)),
        (measures._renyi_coordinate, (2.0,)),
        (measures._renyi_extropy_coordinate, (2.0,)),
    ], ids=["shannon", "renyi-0.5", "renyi-2", "renyi-extropy-2"])
    def test_no_n_element_temporary(self, million, kernel, q):
        # A whole term array would take 7.63 MiB; a leaf takes 0.25 MiB.
        p = million["zero-free"]
        tracemalloc.start()
        try:
            kernel(p, *q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
