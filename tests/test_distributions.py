"""Distribution validation, mixing, perturbation families and serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypentropy import (
    Case,
    HyperbolicDistribution,
    HyperbolicNumber,
    RealDistribution,
    embed,
    embed_real,
    mix,
    perturbation_family,
    uniform,
    uniform_hyp,
    validate,
)
from hypentropy.distributions import (
    FAMILIES,
    hyp_from_csv,
    hyp_from_json,
    hyp_to_csv,
    hyp_to_json,
    real_from_csv,
    real_from_json,
    real_to_csv,
    real_to_json,
)
from hypentropy.errors import (
    BadDelta,
    CaseMismatch,
    ComponentExceedsOne,
    LambdaOutOfRange,
    LengthMismatch,
    NegativeComponent,
    SumInvalid,
)
from hypentropy.rng import Xoshiro256StarStar, derive_seed
from hypentropy.verify import _rand_full

from conftest import random_full


class TestRealDistribution:
    def test_valid(self):
        P = RealDistribution(np.array([0.5, 0.25, 0.25]))
        assert P.n == 3

    def test_negative_rejected(self):
        with pytest.raises(NegativeComponent):
            RealDistribution(np.array([1.2, -0.2]))

    def test_nan_rejected(self):
        with pytest.raises(NegativeComponent, match="NaN"):
            RealDistribution(np.array([np.nan, 1.0]))
        with pytest.raises(NegativeComponent, match="NaN"):
            RealDistribution(np.array([0.5, -0.1, np.nan]))

    def test_exceeds_one_rejected(self):
        with pytest.raises(ComponentExceedsOne):
            RealDistribution(np.array([1.5, 0.0]))

    def test_bad_sum_rejected(self):
        with pytest.raises(SumInvalid):
            RealDistribution(np.array([0.5, 0.6]))

    def test_empty_rejected(self):
        with pytest.raises(SumInvalid):
            RealDistribution(np.array([]))


class TestValidate:
    def test_full(self):
        B = validate([(0.5, 0.25), (0.5, 0.75)])
        assert B.case is Case.FULL
        assert B.rho(0) == HyperbolicNumber(0.5, 0.25)

    def test_e1_only(self):
        B = validate([(0.3, 0.0), (0.7, 0.0)])
        assert B.case is Case.E1_ONLY
        with pytest.raises(CaseMismatch):
            B.projection2()

    def test_e2_only(self):
        B = validate([(0.0, 0.4), (0.0, 0.6)])
        assert B.case is Case.E2_ONLY
        with pytest.raises(CaseMismatch):
            B.projection1()

    def test_sum_invalid(self):
        with pytest.raises(SumInvalid):
            validate([(0.5, 0.5), (0.6, 0.5)])

    def test_zero_divisor_entries_allowed_when_sums_close(self):
        # Individual entries may be zero divisors; only the component sums
        # decide the case.
        B = validate([(1.0, 0.0), (0.0, 1.0)])
        assert B.case is Case.FULL

    def test_substochastic_split_rejected(self):
        # Mass split between the e1 and e2 lines leaves both sums short of 1.
        with pytest.raises(SumInvalid):
            validate([(0.5, 0.0), (0.0, 0.5)])

    def test_projections_of_full(self):
        B = validate([(0.5, 0.25), (0.5, 0.75)])
        assert np.allclose(B.projection1().p, [0.5, 0.5])
        assert np.allclose(B.projection2().p, [0.25, 0.75])


class TestConstructionChecks:
    """HyperbolicDistribution checks its projections itself; validate only
    picks the case."""

    def test_negative_component_raises(self):
        with pytest.raises(NegativeComponent, match="-0.5"):
            HyperbolicDistribution([0.7, 0.7], [-0.5, 1.5], Case.FULL)

    def test_nan_component_raises(self):
        with pytest.raises(NegativeComponent, match="probability is NaN"):
            HyperbolicDistribution([np.nan, 1.0], [0.5, 0.5], Case.FULL)
        with pytest.raises(NegativeComponent, match="probability is NaN"):
            validate([(0.5, np.nan), (0.5, 0.5)])

    def test_component_above_one_raises(self):
        with pytest.raises(ComponentExceedsOne):
            HyperbolicDistribution([0.5, 0.5], [1.5, 0.0], Case.FULL)

    def test_sums_must_fit_the_declared_case(self):
        with pytest.raises(SumInvalid, match="fit case full, not e1"):
            HyperbolicDistribution([0.3, 0.7], [0.4, 0.6], Case.E1_ONLY)
        with pytest.raises(SumInvalid, match=r"^component sums \(0.5, 1.0\)$"):
            HyperbolicDistribution([0.25, 0.25], [0.4, 0.6], Case.FULL)

    def test_projection_shapes_must_match(self):
        with pytest.raises(LengthMismatch):
            HyperbolicDistribution([1.0], [0.5, 0.5], Case.FULL)

    def test_sums_off_by_an_ulp_pass(self):
        # The verify suite's random fixtures are normalised in floats, so
        # their sums miss 1 by about an ulp.
        sums = []
        for seed in range(20):
            B = _rand_full(Xoshiro256StarStar(seed), 7)
            sums += [float(B.p1.sum()), float(B.p2.sum())]
        assert any(s != 1.0 for s in sums)
        assert max(abs(s - 1.0) for s in sums) < 1e-15

    def test_component_fault_reported_before_sums(self):
        # The sums (1.1, 0.4) fit no case, but the negative component is
        # the fault that is named.
        with pytest.raises(NegativeComponent):
            validate([(0.5, 0.5), (0.6, -0.1)])

    def test_validate_reads_an_array(self):
        B = validate(np.array([[0.5, 0.25], [0.5, 0.75]]))
        assert B.case is Case.FULL
        assert B.p1.flags.c_contiguous and B.p2.flags.c_contiguous
        assert np.array_equal(B.p2, [0.25, 0.75])

    @pytest.mark.parametrize("rows", [[(0.5, 0.25, 0.0)], [[]], 0.5])
    def test_validate_rejects_rows_that_are_not_pairs(self, rows):
        with pytest.raises(ValueError):
            validate(rows)

    def test_validate_rejects_empty(self):
        with pytest.raises(SumInvalid, match="empty"):
            validate([])

    def test_mix_keeps_a_degenerate_case(self):
        A = validate([(0.3, 0.0), (0.7, 0.0)])
        B = validate([(0.6, 0.0), (0.4, 0.0)])
        M = mix(A, B, HyperbolicNumber(0.5, 0.25))
        assert M.case is Case.E1_ONLY
        assert np.array_equal(M.p1, 0.5 * A.p1 + 0.5 * B.p1)


class TestEmbedAndUniform:
    def test_embed_single_state(self):
        B = embed(RealDistribution(np.array([1.0])))
        assert B.rho(0) == HyperbolicNumber(1.0, 1.0)

    def test_embed_projections_equal_source(self):
        P = RealDistribution(np.array([0.5, 0.25, 0.25]))
        B = embed(P)
        assert np.array_equal(B.projection1().p, P.p)
        assert np.array_equal(B.projection2().p, P.p)

    def test_uniform(self):
        assert np.array_equal(uniform(2).p, [0.5, 0.5])
        assert np.array_equal(uniform(1).p, [1.0])
        assert np.array_equal(uniform(4).p, [0.25] * 4)

    def test_uniform_hyp(self):
        B = uniform_hyp(3)
        assert B.case is Case.FULL
        assert B.rho(1) == embed_real(1.0 / 3.0)


class TestMix:
    def test_endpoints(self, rng):
        A = random_full(rng, 4)
        B = random_full(rng, 4)
        zero = HyperbolicNumber(0.0, 0.0)
        one = HyperbolicNumber(1.0, 1.0)
        assert np.array_equal(mix(A, B, zero).p1, A.p1)
        assert np.array_equal(mix(A, B, one).p2, B.p2)

    def test_halfway_example(self):
        A = uniform_hyp(2)
        B = embed(RealDistribution(np.array([1.0, 0.0])))
        M = mix(A, B, embed_real(0.5))
        assert M.rho(0) == embed_real(0.75)
        assert M.rho(1) == embed_real(0.25)

    def test_hyperbolic_weight(self):
        A = uniform_hyp(2)
        B = embed(RealDistribution(np.array([1.0, 0.0])))
        M = mix(A, B, HyperbolicNumber(0.0, 1.0))
        # e1 coordinate stays at A, e2 coordinate moves fully to B
        assert M.rho(0) == HyperbolicNumber(0.5, 1.0)
        assert M.rho(1) == HyperbolicNumber(0.5, 0.0)

    def test_case_mismatch(self):
        A = validate([(0.3, 0.0), (0.7, 0.0)])
        B = uniform_hyp(2)
        with pytest.raises(CaseMismatch):
            mix(A, B, embed_real(0.5))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mix(uniform_hyp(2), uniform_hyp(3), embed_real(0.5))

    def test_lambda_out_of_range(self):
        with pytest.raises(LambdaOutOfRange):
            mix(uniform_hyp(2), uniform_hyp(2), embed_real(1.5))
        with pytest.raises(LambdaOutOfRange):
            mix(uniform_hyp(2), uniform_hyp(2), HyperbolicNumber(0.5, -0.1))

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_mix_always_validates(self, l1, l2):
        A = uniform_hyp(3)
        B = embed(RealDistribution(np.array([0.7, 0.2, 0.1])))
        M = mix(A, B, HyperbolicNumber(l1, l2))
        assert M.case is Case.FULL


class TestPerturbationFamilies:
    def test_certainty_spread_example(self):
        pair = perturbation_family("CertaintySpread", 3, 0.1)
        assert np.array_equal(pair.base.p, [1.0, 0.0, 0.0])
        assert np.allclose(pair.perturbed.p, [0.95, 0.025, 0.025])
        assert abs(np.abs(pair.base.p - pair.perturbed.p).sum() - 0.1) < 1e-15

    def test_uniform_spike_example(self):
        pair = perturbation_family("UniformSpike", 2, 0.2)
        assert np.array_equal(pair.base.p, [0.5, 0.5])
        assert np.allclose(pair.perturbed.p, [0.55, 0.45])
        # L1 size is delta * (1 - 1/N), not delta itself: the spike delta/2
        # is partly compensated by the uniform rescaling.
        assert abs(np.abs(pair.base.p - pair.perturbed.p).sum() - 0.1) < 1e-15

    def test_random_smooth_norm_exact(self):
        for seed in (0, 1, 42):
            pair = perturbation_family("RandomSmooth", 10, 0.01, seed=seed)
            norm = float(np.abs(pair.base.p - pair.perturbed.p).sum())
            assert abs(norm - 0.01) < 1e-12

    def test_random_smooth_deterministic(self):
        a = perturbation_family("RandomSmooth", 10, 0.01, seed=3)
        b = perturbation_family("RandomSmooth", 10, 0.01, seed=3)
        assert np.array_equal(a.base.p, b.base.p)
        assert np.array_equal(a.perturbed.p, b.perturbed.p)

    def test_norm_never_exceeds_delta(self):
        for family in FAMILIES:
            for n in (2, 5, 100):
                pair = perturbation_family(family, n, 0.05, seed=9)
                norm = float(np.abs(pair.base.p - pair.perturbed.p).sum())
                assert norm <= 0.05 + 1e-12

    def test_bad_parameters(self):
        with pytest.raises(BadDelta):
            perturbation_family("CertaintySpread", 1, 0.1)
        with pytest.raises(BadDelta):
            perturbation_family("CertaintySpread", 3, 0.0)
        with pytest.raises(BadDelta):
            perturbation_family("CertaintySpread", 3, 1.0)
        with pytest.raises(BadDelta):
            perturbation_family("NoSuchFamily", 3, 0.1)


class TestSerialization:
    def test_hyp_json_round_trip(self, rng):
        B = random_full(rng, 7)
        back = hyp_from_json(hyp_to_json(B))
        assert np.array_equal(back.p1, B.p1)
        assert np.array_equal(back.p2, B.p2)
        assert back.case is B.case

    def test_hyp_json_case_checked(self):
        text = '{"case": "e1", "rho": [[0.5, 0.25], [0.5, 0.75]]}'
        with pytest.raises(CaseMismatch):
            hyp_from_json(text)

    def test_hyp_csv_round_trip(self, rng):
        B = random_full(rng, 5)
        text = hyp_to_csv(B)
        assert text.splitlines()[0] == "p1,p2"
        back = hyp_from_csv(text)
        assert np.array_equal(back.p1, B.p1)
        assert np.array_equal(back.p2, B.p2)

    def test_hyp_csv_header_required(self):
        with pytest.raises(SumInvalid):
            hyp_from_csv("a,b\n0.5,0.5\n0.5,0.5\n")

    def test_real_json_round_trip(self, rng):
        P = RealDistribution(rng.dirichlet(np.ones(6)))
        back = real_from_json(real_to_json(P))
        assert np.array_equal(back.p, P.p)

    def test_real_csv_round_trip(self, rng):
        P = RealDistribution(rng.dirichlet(np.ones(6)))
        back = real_from_csv(real_to_csv(P))
        assert np.array_equal(back.p, P.p)

    def test_serialized_inputs_revalidate(self):
        with pytest.raises(SumInvalid):
            real_from_json("[0.5, 0.6]")
        with pytest.raises(SumInvalid):
            hyp_from_json('{"rho": [[0.5, 0.5], [0.6, 0.5]]}')


class TestTextSyntax:
    """The accepted CSV and JSON syntax of the loaders."""

    def test_hyp_json_string_numbers(self):
        B = hyp_from_json('{"rho": [["0.5", "0.25"], ["0.5", "0.75"]]}')
        assert np.array_equal(B.p2, [0.25, 0.75])

    @pytest.mark.parametrize("rho, error", [
        ("[[0.5, null], [0.5, 0.75]]", TypeError),
        ("[[0.5, 0.25, 0.0], [0.5, 0.75]]", ValueError),
        ("[[0.5], [0.5]]", ValueError),
        ("5", TypeError),
    ])
    def test_hyp_json_malformed_rows(self, rho, error):
        with pytest.raises(error):
            hyp_from_json('{"rho": %s}' % rho)

    def test_hyp_json_empty(self):
        with pytest.raises(SumInvalid, match="empty"):
            hyp_from_json('{"rho": []}')

    def test_hyp_csv_syntax(self):
        # Quoted cells, CRLF line ends, blank lines, spaces around cells,
        # and cells past the second column, which are ignored.
        text = 'p1,p2\r\n"0.5", 0.25 ,x\r\n\r\n0.5,"0.75"\r\n'
        B = hyp_from_csv(text)
        assert np.array_equal(B.p1, [0.5, 0.5])
        assert np.array_equal(B.p2, [0.25, 0.75])

    @pytest.mark.parametrize("body", [
        "# note\n0.5,0.25\n0.5,0.75\n",
        "0.5\n0.5,0.75\n",
        "0.5,\n0.5,0.75\n",
        "1_0e-1,0.25\n0.5,0.75\n",
        "0.5,0.25\n   \n0.5,0.75\n",
    ], ids=["comment", "short-row", "empty-cell", "underscore", "blank-cells"])
    def test_hyp_csv_malformed_rows(self, body):
        with pytest.raises(ValueError):
            hyp_from_csv("p1,p2\n" + body)

    def test_csv_header_only(self):
        with pytest.raises(SumInvalid, match="empty"):
            hyp_from_csv("p1,p2\n")
        with pytest.raises(SumInvalid):
            real_from_csv("p\n")

    def test_real_csv_ignores_extra_columns(self):
        P = real_from_csv("p\n0.25,x\n0.75\n")
        assert np.array_equal(P.p, [0.25, 0.75])


class TestDeriveSeed:
    def test_distinct_tokens_distinct_seeds(self):
        cells = {derive_seed(0, fam, n, d)
                 for fam in FAMILIES for n in (10, 100) for d in (0.1, 0.01)}
        assert len(cells) == 12

    def test_deterministic(self):
        assert derive_seed(5, "CertaintySpread", 100, 0.01) \
            == derive_seed(5, "CertaintySpread", 100, 0.01)
