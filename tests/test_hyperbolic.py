"""Arithmetic, order, elementary functions and parsing on hyperbolic numbers."""

from __future__ import annotations

import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypentropy import (
    E1,
    E2,
    K,
    ONE,
    ZERO,
    HyperbolicInterval,
    HyperbolicNumber,
    Ordering,
    approx_eq,
    embed_real,
    from_unit_k,
    hyp_exp,
    hyp_log,
    hyp_pow,
    metric_dk,
    modulus_k,
    parse_hyperbolic,
    partial_cmp,
)
from hypentropy.errors import (
    DivisionByZeroDivisor,
    DomainError,
    NonFinite,
    ParseError,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
hyp = st.builds(HyperbolicNumber, finite, finite)


class TestRingStructure:
    def test_idempotent_products(self):
        assert E1 * E2 == ZERO
        assert E1 * E1 == E1
        assert E2 * E2 == E2

    def test_k_squares_to_one(self):
        assert K * K == ONE

    def test_e1_plus_e2_is_one(self):
        assert E1 + E2 == ONE

    def test_division_identity(self):
        xi = HyperbolicNumber(3.0, 5.0)
        assert xi / xi == ONE

    def test_division_by_zero_divisor_rejected(self):
        for bad in (ZERO, E1, E2, HyperbolicNumber(0.0, 2.0)):
            with pytest.raises(DivisionByZeroDivisor):
                _ = ONE / bad

    @given(hyp, hyp)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(hyp, hyp)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(hyp, hyp, hyp)
    def test_associativity_within_rounding(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        scale = max(abs(v) for v in
                    (lhs.x1, lhs.x2, rhs.x1, rhs.x2, 1.0))
        tol = 8 * math.ulp(scale)
        assert abs(lhs.x1 - rhs.x1) <= tol and abs(lhs.x2 - rhs.x2) <= tol

    @given(hyp)
    def test_additive_inverse(self, a):
        assert a + (-a) == ZERO

    @given(hyp)
    def test_multiplicative_identity(self, a):
        assert a * ONE == a


class TestEmbeddingAndBases:
    def test_embed_examples(self):
        assert embed_real(1.0) == ONE
        assert embed_real(0.0) == ZERO
        assert embed_real(2.5) == HyperbolicNumber(2.5, 2.5)

    def test_embed_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(NonFinite):
                embed_real(bad)

    def test_k_in_unit_basis(self):
        assert from_unit_k(0.0, 1.0) == K
        assert K.to_unit_k() == (0.0, 1.0)

    @given(finite, finite)
    def test_basis_round_trip(self, a, b):
        xi = from_unit_k(a, b)
        a2, b2 = xi.to_unit_k()
        tol = 4 * math.ulp(max(abs(a), abs(b), 1.0))
        assert abs(a2 - a) <= tol and abs(b2 - b) <= tol

    def test_embedding_multiplicative(self):
        # The real line embeds as a subring: images respect both operations.
        x, y = 1.25, -3.5
        assert embed_real(x) * embed_real(y) == embed_real(x * y)
        assert embed_real(x) + embed_real(y) == embed_real(x + y)


class TestZeroDivisors:
    def test_classification(self):
        assert E1.is_zero_divisor()
        assert E2.is_zero_divisor()
        assert not ZERO.is_zero_divisor()
        assert not ONE.is_zero_divisor()
        assert ZERO.in_g0()
        assert E1.in_g0()
        assert not ONE.in_g0()

    def test_zero_divisors_annihilate(self):
        assert E1 * HyperbolicNumber(0.0, 7.0) == ZERO


class TestPartialOrder:
    def test_less(self):
        assert partial_cmp(HyperbolicNumber(1, 2), HyperbolicNumber(3, 4)) \
            is Ordering.LESS

    def test_incomparable(self):
        assert partial_cmp(HyperbolicNumber(1, 4), HyperbolicNumber(3, 2)) \
            is Ordering.INCOMPARABLE

    def test_equal_reflexive(self):
        xi = HyperbolicNumber(0.25, -1.5)
        assert partial_cmp(xi, xi) is Ordering.EQUAL

    def test_single_coordinate_tie_is_incomparable(self):
        assert partial_cmp(HyperbolicNumber(1, 2), HyperbolicNumber(1, 3)) \
            is Ordering.INCOMPARABLE

    @given(hyp, hyp)
    def test_cmp_antisymmetric(self, a, b):
        ab = partial_cmp(a, b)
        ba = partial_cmp(b, a)
        flip = {Ordering.LESS: Ordering.GREATER,
                Ordering.GREATER: Ordering.LESS,
                Ordering.EQUAL: Ordering.EQUAL,
                Ordering.INCOMPARABLE: Ordering.INCOMPARABLE}
        assert ba is flip[ab]

    @given(hyp, hyp, hyp)
    def test_preceq_translation_invariant(self, a, b, c):
        if a.preceq(b):
            assert (a + c).preceq(b + c)


class TestModulusAndMetric:
    def test_modulus_examples(self):
        assert modulus_k(-ONE) == ONE
        assert modulus_k(HyperbolicNumber(3.0, -4.0)) == HyperbolicNumber(3.0, 4.0)
        assert modulus_k(ZERO) == ZERO

    def test_metric_examples(self):
        xi = HyperbolicNumber(1.0, 5.0)
        assert metric_dk(xi, xi) == ZERO
        assert metric_dk(ZERO, ONE) == ONE
        assert metric_dk(HyperbolicNumber(1, 5), HyperbolicNumber(4, 1)) \
            == HyperbolicNumber(3, 4)

    @given(hyp, hyp)
    def test_metric_symmetric(self, a, b):
        assert metric_dk(a, b) == metric_dk(b, a)

    @given(hyp, hyp, hyp)
    def test_triangle_inequality(self, a, b, c):
        direct = metric_dk(a, c)
        detour = metric_dk(a, b) + metric_dk(b, c)
        slack = 4 * math.ulp(max(detour.x1, detour.x2, 1.0))
        assert direct.x1 <= detour.x1 + slack
        assert direct.x2 <= detour.x2 + slack


class TestElementaryFunctions:
    def test_pow_example(self):
        base = HyperbolicNumber(4.0, 9.0)
        assert hyp_pow(base, embed_real(0.5)) == HyperbolicNumber(2.0, 3.0)

    def test_pow_zero_exponent(self):
        assert hyp_pow(HyperbolicNumber(4.0, 9.0), ZERO) == ONE

    def test_pow_identity_exponent(self):
        alpha = HyperbolicNumber(0.3, 1.7)
        assert hyp_pow(alpha, ONE) == alpha

    def test_pow_zero_base_positive_exponent(self):
        assert hyp_pow(E1, embed_real(2.0)) == E1

    def test_pow_zero_to_zero_needs_flag(self):
        # e1^e1 hits 0^0 in the e2 coordinate.
        with pytest.raises(DomainError):
            hyp_pow(E1, E1)
        assert hyp_pow(E1, E1, zero_zero_one=True) == ONE

    def test_pow_negative_base_rejected(self):
        with pytest.raises(DomainError):
            hyp_pow(HyperbolicNumber(-1.0, 2.0), embed_real(0.5))

    def test_log_examples(self):
        assert hyp_log(ONE) == ZERO
        val = hyp_log(HyperbolicNumber(math.e, math.e ** 2))
        assert approx_eq(val, HyperbolicNumber(1.0, 2.0), tol=1e-15)

    def test_log_rejects_zero_divisor_line(self):
        for bad in (ZERO, E1, HyperbolicNumber(-1.0, 1.0)):
            with pytest.raises(DomainError):
                hyp_log(bad)

    @given(st.floats(min_value=0.01, max_value=50.0),
           st.floats(min_value=0.01, max_value=50.0))
    def test_exp_log_round_trip(self, x1, x2):
        xi = HyperbolicNumber(x1, x2)
        assert approx_eq(hyp_exp(hyp_log(xi)), xi, tol=1e-12 * max(x1, x2, 1.0))

    @given(st.floats(min_value=0.1, max_value=20.0),
           st.floats(min_value=0.1, max_value=20.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_log_of_power(self, b1, b2, a1, a2):
        base = HyperbolicNumber(b1, b2)
        alpha = HyperbolicNumber(a1, a2)
        lhs = hyp_log(hyp_pow(base, alpha))
        rhs = alpha * hyp_log(base)
        assert approx_eq(lhs, rhs, tol=1e-9)


class TestInterval:
    def test_contains(self):
        box = HyperbolicInterval(ZERO, ONE)
        assert box.contains(HyperbolicNumber(0.5, 0.25))
        assert box.contains(ZERO)
        assert not box.contains(HyperbolicNumber(1.5, 0.5))
        assert not box.contains_interior(ZERO)

    def test_rejects_unordered_endpoints(self):
        with pytest.raises(DomainError):
            HyperbolicInterval(ONE, ZERO)

    def test_closed_rejects_zero_divisor_width(self):
        with pytest.raises(DomainError):
            HyperbolicInterval(ZERO, E1)
        # The open version of the same degenerate box is representable.
        assert HyperbolicInterval(ZERO, E1, closed=False).closed is False


class TestParsingAndRendering:
    def test_parse_unit_k(self):
        assert parse_hyperbolic("2+3k") == from_unit_k(2.0, 3.0)
        assert parse_hyperbolic("2.5 - 0.5*k") == from_unit_k(2.5, -0.5)

    def test_parse_idempotent(self):
        assert parse_hyperbolic("4*e1+9*e2") == HyperbolicNumber(4.0, 9.0)
        assert parse_hyperbolic("1e1-2e2") == HyperbolicNumber(1.0, -2.0)

    def test_parse_bare_real_embeds(self):
        assert parse_hyperbolic("2.5") == embed_real(2.5)

    def test_parse_garbage_rejected(self):
        for bad in ("", "k+1", "one plus k", "1+2j", "inf"):
            with pytest.raises(ParseError):
                parse_hyperbolic(bad)

    @given(finite, finite)
    def test_render_parse_round_trip_idempotent(self, x1, x2):
        xi = HyperbolicNumber(x1, x2)
        assert parse_hyperbolic(str(xi)) == xi

    @given(finite, finite)
    def test_render_parse_round_trip_unit_k(self, a, b):
        # Converting to the {1, k} view rounds, so this trip is only exact
        # to a few ulps; the idempotent form above is the exact round-trip.
        xi = from_unit_k(a, b)
        back = parse_hyperbolic(xi.str_unit_k())
        scale = max(abs(xi.x1), abs(xi.x2), 1.0)
        assert approx_eq(back, xi, tol=8 * math.ulp(scale))

    @pytest.mark.parametrize("text", [
        "1e400*e1+1*e2", "2*e1+1e400*e2", "1e308+1e308k",
    ])
    def test_parse_non_finite_coordinate_rejected(self, text):
        # The last one is finite as written; its {1, k} sum overflows.
        with pytest.raises(ParseError):
            parse_hyperbolic(text)


class TestValueSemantics:
    """A HyperbolicNumber is an immutable value compared as (x1, x2)."""

    def test_assignment_and_deletion_raise(self):
        xi = HyperbolicNumber(1.0, 2.0)
        with pytest.raises(FrozenInstanceError):
            xi.x1 = 3.0
        with pytest.raises(FrozenInstanceError):
            del xi.x2
        assert xi == HyperbolicNumber(1.0, 2.0)

    def test_equality_agrees_with_hash(self):
        nan = float("nan")
        pairs = [
            (HyperbolicNumber(-0.0, 0.0), HyperbolicNumber(0.0, -0.0)),
            (HyperbolicNumber(nan, 1.0), HyperbolicNumber(nan, 1.0)),
            (HyperbolicNumber(1, 2), HyperbolicNumber(1.0, 2.0)),
        ]
        for a, b in pairs:
            assert a == b
            assert hash(a) == hash(b)
        assert len({a for a, _ in pairs} | {b for _, b in pairs}) == 3
        assert HyperbolicNumber(float("nan"), 1.0) != HyperbolicNumber(
            float("nan"), 1.0)

    def test_not_equal_to_a_tuple(self):
        xi = HyperbolicNumber(1.0, 2.0)
        assert xi != (1.0, 2.0)
        assert (1.0, 2.0) != xi
        assert xi.__eq__((1.0, 2.0)) is NotImplemented

    def test_no_total_order_and_no_iteration(self):
        with pytest.raises(TypeError):
            HyperbolicNumber(1.0, 2.0) < HyperbolicNumber(3.0, 4.0)
        with pytest.raises(TypeError):
            tuple(HyperbolicNumber(1.0, 2.0))

    @pytest.mark.parametrize("x1, x2, text", [
        (0.0, -0.0, "HyperbolicNumber(x1=0.0, x2=-0.0)"),
        (-0.0, 0.0, "HyperbolicNumber(x1=-0.0, x2=0.0)"),
        (float("nan"), float("inf"), "HyperbolicNumber(x1=nan, x2=inf)"),
        (float("-inf"), 1e-300, "HyperbolicNumber(x1=-inf, x2=1e-300)"),
        (1, -2, "HyperbolicNumber(x1=1, x2=-2)"),
    ])
    def test_repr_bytes(self, x1, x2, text):
        # The int row also shows that arguments are stored uncoerced.
        assert repr(HyperbolicNumber(x1, x2)) == text

    @pytest.mark.parametrize("trip", [
        lambda xi: pickle.loads(pickle.dumps(xi)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trips(self, trip):
        for xi in (HyperbolicNumber(1.5, -0.0), HyperbolicNumber(1, 2), K):
            back = trip(xi)
            assert type(back) is HyperbolicNumber
            assert repr(back) == repr(xi)

    def test_keyword_construction_and_match(self):
        xi = HyperbolicNumber(x2=2.0, x1=1.0)
        assert xi == HyperbolicNumber(1.0, 2.0)
        match xi:
            case HyperbolicNumber(a, b):
                assert (a, b) == (1.0, 2.0)
            case _:
                pytest.fail("positional pattern did not match")

    def test_no_instance_dict(self):
        assert not hasattr(HyperbolicNumber(1.0, 2.0), "__dict__")
