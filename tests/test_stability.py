"""Lesche norms, stability ratios, and sweep experiments."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest

from hypentropy import (
    HyperbolicNumber,
    PerturbationPair,
    RealDistribution,
    StabilityRecord,
    SweepConfig,
    approx_eq,
    embed,
    embed_real,
    extropy,
    lesche_norm,
    lesche_norm_hyp,
    perturbation_family,
    stability_ratio,
    stability_sweep,
    validate,
)
from hypentropy import distributions, stability
from hypentropy.cli import main
from hypentropy.distributions import FAMILIES
from hypentropy.measures import MEASURES
from hypentropy.errors import (
    CaseMismatch,
    DegenerateN,
    HypentropyError,
    LengthMismatch,
)
from hypentropy.rng import Xoshiro256StarStar, derive_seed

from conftest import oracle_renyi, oracle_shannon, random_full, traced_peak


def dist(p) -> RealDistribution:
    return RealDistribution(np.asarray(p, dtype=float))


class TestLescheNorm:
    def test_identical(self):
        P = dist([0.5, 0.5])
        assert lesche_norm(P, P) == 0.0

    def test_maximal(self):
        assert lesche_norm(dist([1.0, 0.0]), dist([0.0, 1.0])) == 2.0

    def test_example(self):
        assert abs(lesche_norm(dist([0.5, 0.5]), dist([0.55, 0.45])) - 0.1) < 1e-15

    def test_symmetry(self, rng):
        P = dist(rng.dirichlet(np.ones(6)))
        Q = dist(rng.dirichlet(np.ones(6)))
        assert lesche_norm(P, Q) == lesche_norm(Q, P)

    def test_triangle(self, rng):
        for _ in range(20):
            P = dist(rng.dirichlet(np.ones(5)))
            Q = dist(rng.dirichlet(np.ones(5)))
            R = dist(rng.dirichlet(np.ones(5)))
            assert lesche_norm(P, R) <= lesche_norm(P, Q) + lesche_norm(Q, R) + 1e-14

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            lesche_norm(dist([0.5, 0.5]), dist([1.0]))


class TestLescheNormAtAMillion:
    """At N = 1e6 the norm is summed leaf by leaf, with the bits of one
    numpy sum and no N-element temporary."""

    @pytest.fixture(scope="class")
    def pair(self) -> tuple:
        rng = np.random.default_rng(23)
        return (rng.dirichlet(np.ones(1_000_000)),
                rng.dirichlet(np.ones(1_000_000)))

    def test_keeps_its_one_line_formula(self, pair):
        a, b = pair
        for x, y in ((a, b), (a[::-1], b), (a[::2], b[1::2])):
            assert stability._l1(x, y) == float(np.abs(x - y).sum())

    def test_no_n_element_temporary(self, pair):
        # The difference array would take 7.63 MiB; a leaf takes 0.25 MiB.
        assert traced_peak(stability._l1, *pair) < 1 << 20


class TestLescheNormHyp:
    def test_example(self):
        B = validate([(0.5, 0.25), (0.5, 0.75)])
        C = validate([(0.4, 0.3), (0.6, 0.7)])
        got = lesche_norm_hyp(B, C)
        assert approx_eq(got, HyperbolicNumber(0.2, 0.1), tol=1e-15)

    def test_identical(self, fixture_b):
        assert lesche_norm_hyp(fixture_b, fixture_b) == HyperbolicNumber(0.0, 0.0)

    def test_embedding_consistency(self, rng):
        P = dist(rng.dirichlet(np.ones(5)))
        Q = dist(rng.dirichlet(np.ones(5)))
        got = lesche_norm_hyp(embed(P), embed(Q))
        assert got == embed_real(lesche_norm(P, Q))

    def test_each_coordinate_is_the_real_norm(self, rng):
        B, C = random_full(rng, 7), random_full(rng, 7)
        assert lesche_norm_hyp(B, C) == HyperbolicNumber(
            lesche_norm(B.projection1(), C.projection1()),
            lesche_norm(B.projection2(), C.projection2()))

    def test_case_mismatch(self, fixture_b):
        E = validate([(0.3, 0.0), (0.7, 0.0)])
        with pytest.raises(CaseMismatch):
            lesche_norm_hyp(fixture_b, E)

    def test_length_mismatch(self, rng):
        with pytest.raises(LengthMismatch):
            lesche_norm_hyp(random_full(rng, 3), random_full(rng, 4))


class TestStabilityRatio:
    def test_shannon_certainty_spread_example(self):
        pair = perturbation_family("CertaintySpread", 3, 0.1)
        rec = stability_ratio("shannon", pair)
        expected = oracle_shannon(np.asarray(pair.perturbed.p)) / math.log(3)
        assert abs(rec.ratio.x1 - expected) < 1e-12
        assert abs(rec.ratio.x1 - 0.2122) < 1e-3
        assert rec.ratio.x1 == rec.ratio.x2  # real measure: equal components

    def test_norm_recorded(self):
        pair = perturbation_family("CertaintySpread", 3, 0.1)
        rec = stability_ratio("shannon", pair)
        assert approx_eq(rec.norm, embed_real(0.1), tol=1e-15)

    def test_renyi_against_oracle(self):
        pair = perturbation_family("UniformSpike", 100, 0.01)
        rec = stability_ratio("renyi", pair, order=embed_real(2.0))
        expected = abs(oracle_renyi(np.asarray(pair.base.p), 2.0)
                       - oracle_renyi(np.asarray(pair.perturbed.p), 2.0)
                       ) / math.log(100)
        assert abs(rec.ratio.x1 - expected) < 1e-12

    def test_hyperbolic_matches_real_on_embedded_pairs(self):
        pair = perturbation_family("RandomSmooth", 20, 0.01, seed=11)
        real_rec = stability_ratio("shannon", pair)
        hyp_rec = stability_ratio("strong_shannon_hyp", pair)
        assert abs(hyp_rec.ratio.x1 - real_rec.ratio.x1) < 1e-12
        assert abs(hyp_rec.ratio.x2 - real_rec.ratio.x1) < 1e-12

    def test_renyi_hyp_componentwise(self):
        pair = perturbation_family("CertaintySpread", 50, 0.01)
        alpha = HyperbolicNumber(0.5, 2.0)
        rec = stability_ratio("renyi_hyp", pair, order=alpha)
        r1 = stability_ratio("renyi", pair, order=embed_real(0.5)).ratio.x1
        r2 = stability_ratio("renyi", pair, order=embed_real(2.0)).ratio.x1
        assert abs(rec.ratio.x1 - r1) < 1e-12
        assert abs(rec.ratio.x2 - r2) < 1e-12

    def test_degenerate_n(self):
        pair = PerturbationPair(
            base=dist([1.0]), perturbed=dist([1.0]),
            family="CertaintySpread", delta=0.01, n=1,
        )
        with pytest.raises(DegenerateN):
            stability_ratio("shannon", pair)

    @pytest.mark.parametrize("measure, order", [
        ("renyi", embed_real(2.0)),
        ("strong_shannon_hyp", None),
        ("renyi_hyp", HyperbolicNumber(0.5, 2.0)),
    ])
    def test_degenerate_n_precedes_measure(self, measure, order):
        pair = PerturbationPair(
            base=dist([1.0]), perturbed=dist([1.0]),
            family="CertaintySpread", delta=0.01, n=1,
        )
        with pytest.raises(DegenerateN):
            stability_ratio(measure, pair, order)

    def test_renyi_requires_order(self):
        pair = perturbation_family("CertaintySpread", 3, 0.1)
        with pytest.raises(HypentropyError):
            stability_ratio("renyi", pair)

    def test_ratio_nonnegative(self):
        pair = perturbation_family("UniformSpike", 10, 0.05)
        for measure, order in (("shannon", None), ("renyi", embed_real(2.0))):
            rec = stability_ratio(measure, pair, order=order)
            assert rec.ratio.x1 >= 0.0 and rec.ratio.x2 >= 0.0
            assert rec.norm.x1 >= 0.0 and rec.norm.x2 >= 0.0


class TestSweep:
    def make_config(self, **overrides) -> SweepConfig:
        base = dict(
            families=("CertaintySpread", "UniformSpike"),
            n_grid=(10, 100),
            delta_grid=(0.01, 0.001),
            measures=(("shannon", None), ("renyi", embed_real(0.5))),
            seed=0,
        )
        base.update(overrides)
        return SweepConfig(**base)

    def test_grid_size(self):
        records = stability_sweep(self.make_config())
        assert len(records) == 2 * 2 * 2 * 2

    def test_deterministic(self):
        a = stability_sweep(self.make_config())
        b = stability_sweep(self.make_config())
        assert a == b

    def test_sorted_output(self):
        records = stability_sweep(self.make_config())
        keys = [(r.family, r.measure, r.order.x1 if r.order else 0.0,
                 r.n, r.delta) for r in records]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2], k[3], k[4]))

    def test_numpy_numbers_give_the_records_of_python_ones(self):
        # Seeds hash each token's repr, which numpy 2 writes as np.int64(..).
        def records(**grid):
            return repr(stability_sweep(self.make_config(
                families=("RandomSmooth", "CertaintySpread"), **grid)))

        want = records(n_grid=[1000], delta_grid=[0.01], seed=3)
        assert records(n_grid=np.array([1000]), delta_grid=np.array([0.01]),
                       seed=np.int64(3)) == want

    def test_numpy_family_names_give_the_records_of_python_ones(self):
        # np.str_ reprs as np.str_('RandomSmooth'), which would change the seed.
        def records(families):
            return stability_sweep(self.make_config(
                families=families, n_grid=[1000], delta_grid=[0.01],
                measures=(("shannon", None),), seed=3))

        want = records(["RandomSmooth"])
        got = records(np.array(["RandomSmooth"]))
        assert repr(got) == repr(want)
        assert type(got[0].family) is str
        assert f"{got[0].ratio.x1:.4e}" == "7.2160e-05"

    @pytest.mark.parametrize("grid", [{"n_grid": [1000.0]},
                                      {"n_grid": [np.float64(1000)]},
                                      {"seed": 3.0}, {"delta_grid": ["x"]}])
    def test_non_integer_n_or_seed_or_bad_delta_is_a_typed_error(self, grid):
        with pytest.raises(HypentropyError):
            self.make_config(**grid)

    def test_error_rows_instead_of_abort(self):
        # Order 1_D puts renyi_hyp on the zero-divisor line: every cell for
        # that measure becomes an error row while shannon cells still compute.
        config = self.make_config(
            measures=(("shannon", None), ("renyi_hyp", embed_real(1.0))),
        )
        records = stability_sweep(config)
        errors = [r for r in records if r.error is not None]
        clean = [r for r in records if r.error is None]
        assert len(errors) == 8 and len(clean) == 8
        assert all(r.error == "OrderOnZeroDivisorLine" for r in errors)
        assert all(math.isnan(r.ratio.x1) for r in errors)

    def test_records_equal_stability_ratio(self):
        # The sweep and stability_ratio share one pair evaluator; every clean
        # record must equal the single-measure call bit for bit.
        alpha = HyperbolicNumber(0.5, 2.0)
        selection = tuple(
            (name, alpha if m.check else None)
            for name, m in MEASURES.items() if m.kernel is not None)
        assert len(selection) == 12
        config = self.make_config(families=FAMILIES, measures=selection,
                                  seed=5)
        records = stability_sweep(config)
        assert len(records) == 3 * 2 * 2 * 12
        assert all(r.error is None for r in records)
        for rec in records:
            pair = perturbation_family(
                rec.family, rec.n, rec.delta,
                seed=derive_seed(config.seed, rec.family, rec.n, rec.delta))
            single = stability_ratio(rec.measure, pair, rec.order)
            assert repr(single) == repr(rec)

    def test_extropy_ratio_from_public_function(self):
        config = self.make_config(families=FAMILIES,
                                  measures=(("extropy", None),), seed=5)
        for rec in stability_sweep(config):
            pair = perturbation_family(
                rec.family, rec.n, rec.delta,
                seed=derive_seed(config.seed, rec.family, rec.n, rec.delta))
            want = abs(extropy(pair.base) - extropy(pair.perturbed)) \
                / math.log(rec.n)
            assert rec.ratio == embed_real(want)

    def test_empty_grid_rejected(self):
        with pytest.raises(HypentropyError):
            self.make_config(n_grid=())

    def test_unknown_family_rejected(self):
        with pytest.raises(HypentropyError):
            self.make_config(families=("NoSuchFamily",))

    @pytest.mark.parametrize("families, calls", [
        (("CertaintySpread", "UniformSpike"), 0),
        (FAMILIES, 2 * 2),
    ], ids=["analytic", "all"])
    def test_seed_derived_only_for_a_seeded_family(self, monkeypatch,
                                                   families, calls):
        seen = []

        def counted(*args):
            seen.append(args)
            return derive_seed(*args)

        monkeypatch.setattr(stability, "derive_seed", counted)
        stability_sweep(self.make_config(families=families, seed=5))
        assert len(seen) == calls
        assert all(args[1] == "RandomSmooth" for args in seen)


SWEEP_MEASURES = ("shannon", "renyi", "strong_shannon_hyp", "renyi_hyp")


def _per_cell_sweep(config: SweepConfig) -> list:
    """The sweep as one perturbation_family and one stability_ratio call per
    cell and measure, sorted as stability_sweep sorts."""
    records = []
    for family in config.families:
        for n in config.n_grid:
            for delta in config.delta_grid:
                try:
                    pair = perturbation_family(
                        family, n, delta,
                        seed=derive_seed(config.seed, family, n, delta))
                except HypentropyError as exc:
                    pair = exc
                for measure, order in config.measures:
                    try:
                        if isinstance(pair, HypentropyError):
                            raise pair
                        records.append(stability_ratio(measure, pair, order))
                    except HypentropyError as exc:
                        nan = HyperbolicNumber(math.nan, math.nan)
                        records.append(stability.StabilityRecord(
                            family, n, delta, measure, order, norm=nan,
                            ratio=nan, error=type(exc).__name__))
    records.sort(key=lambda r: (
        r.family, stability._measure_key(r.measure, r.order), r.n, r.delta))
    return records


class TestSweepSharesTheBase:
    """An analytic family's base depends on N alone: the sweep builds,
    validates and evaluates it once per N, and every delta reuses it."""

    GRID = dict(n_grid=(10, 1000, 100_000), delta_grid=(0.01, 0.3, 0.001))

    @pytest.fixture
    def counts(self, monkeypatch):
        bases, validated, passes = [], [], []

        # A base still alive from an earlier test would not be counted.
        distributions._BASES.clear()
        for family, (base, perturbed) in distributions._ANALYTIC.items():
            def counted(n, base=base):
                bases.append(base(n))
                return bases[-1]
            monkeypatch.setitem(distributions._ANALYTIC, family,
                                (counted, perturbed))

        post_init = RealDistribution.__post_init__

        def counted_post_init(self):
            validated.append(self.p)
            post_init(self)
        monkeypatch.setattr(RealDistribution, "__post_init__",
                            counted_post_init)

        def counted_kernel(fn):
            def kernel(p, *order):
                passes.append((fn.__name__, order, p))
                return fn(p, *order)
            return kernel
        kernels = {m.kernel: counted_kernel(m.kernel)
                   for m in MEASURES.values() if m.kernel is not None}
        monkeypatch.setattr(stability, "MEASURES", {
            name: dataclasses.replace(m, kernel=kernels.get(m.kernel))
            for name, m in MEASURES.items()})
        return bases, validated, passes

    @pytest.mark.parametrize("order, orders", [
        (embed_real(2.0), [(2.0,)]),
        (HyperbolicNumber(0.5, 2.0), [(0.5,), (2.0,)]),
    ])
    def test_one_base_and_one_pass_per_kernel(self, counts, order, orders):
        bases, validated, passes = counts
        config = SweepConfig(
            families=("CertaintySpread", "UniformSpike"),
            measures=tuple((m, order if MEASURES[m].check else None)
                           for m in SWEEP_MEASURES), **self.GRID)
        records = stability_sweep(config)
        assert len(records) == 2 * 3 * 3 * 4
        assert all(r.error is None for r in records)
        assert len(bases) == 6
        assert sum(any(p is b for b in bases) for p in validated) == 6
        assert len(validated) == 6 + 18
        want = sorted([("_neg_xlogx_sum", ())]
                      + [("_renyi_coordinate", a) for a in orders])
        for b in bases:
            got = sorted((name, a) for name, a, p in passes if p is b)
            assert got == want
        assert len(passes) == (6 + 18) * len(want)

    def test_random_smooth_bases_are_never_shared(self, counts):
        _, validated, passes = counts
        config = SweepConfig(
            families=("RandomSmooth",),
            measures=tuple((m, embed_real(2.0) if MEASURES[m].check else None)
                           for m in SWEEP_MEASURES), **self.GRID)
        assert all(r.error is None for r in stability_sweep(config))
        # Each cell's base and perturbed distribution: one pass per kernel.
        assert len(validated) == 2 * 9
        for p in validated:
            got = sorted((name, a) for name, a, q in passes if q is p)
            assert got == [("_neg_xlogx_sum", ()),
                           ("_renyi_coordinate", (2.0,))]

    def test_random_smooth_draws_one_block_per_cell(self, monkeypatch):
        draws = []
        randoms = Xoshiro256StarStar.randoms

        def counted(self, k):
            draws.append(k)
            return randoms(self, k)
        monkeypatch.setattr(Xoshiro256StarStar, "randoms", counted)
        config = SweepConfig(
            families=("RandomSmooth",),
            measures=tuple((m, embed_real(2.0) if MEASURES[m].check else None)
                           for m in SWEEP_MEASURES), **self.GRID)
        assert all(r.error is None for r in stability_sweep(config))
        assert draws == [2 * n for n in self.GRID["n_grid"]
                         for _ in self.GRID["delta_grid"]]


class TestSweepAgreesWithPerCellPath:
    """Every record of stability_sweep, error rows included, equals the
    per-cell path: perturbation_family with the cell's derived seed, then
    stability_ratio."""

    ALPHA = HyperbolicNumber(0.5, 2.0)

    @pytest.mark.parametrize("n_grid, delta_grid", [
        ((10, 300, 10, 2), (0.01, 0.2, 0.01)),
        ((10, 1, 300), (0.0, 1.5, 0.01, 0.2)),
        ((1, 2, 50), (1.5, 0.3, 0.0, 0.3)),
    ], ids=["repeated-n-and-delta", "invalid-deltas-first", "n-1-first"])
    def test_records_equal_the_per_cell_path(self, n_grid, delta_grid):
        selection = tuple(
            (name, self.ALPHA if m.check else None)
            for name, m in MEASURES.items() if m.kernel is not None)
        config = SweepConfig(families=FAMILIES, n_grid=n_grid,
                             delta_grid=delta_grid, measures=selection,
                             seed=7)
        records = stability_sweep(config)
        expected = _per_cell_sweep(config)
        assert len(records) == len(expected) == (
            3 * len(n_grid) * len(delta_grid) * len(selection))
        for rec, want in zip(records, expected):
            assert (rec.family, rec.n, rec.delta, rec.measure, rec.order,
                    rec.error) == (want.family, want.n, want.delta,
                                   want.measure, want.order, want.error)
            if rec.error is None:
                assert rec.norm == want.norm and rec.ratio == want.ratio
            else:
                assert repr((rec.norm, rec.ratio)) == repr(
                    (want.norm, want.ratio))
            valid = rec.n >= 2 and 0.0 < rec.delta < 1.0
            assert (rec.error == "BadDelta") == (not valid)
        assert any(r.error is None for r in records)


class TestSignatures:
    def test_shannon_stable_and_decreasing(self):
        ratios = []
        for n in (100, 1000, 10000):
            pair = perturbation_family("CertaintySpread", n, 1e-4)
            ratios.append(stability_ratio("shannon", pair).ratio.x1)
        assert all(r < 0.01 for r in ratios)
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_renyi_half_unstable_and_increasing(self):
        ratios = []
        for n in (100, 1000, 10000, 100000):
            pair = perturbation_family("CertaintySpread", n, 0.01)
            ratios.append(
                stability_ratio("renyi", pair, order=embed_real(0.5)).ratio.x1)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.4

    def test_renyi_half_matches_asymptotic_form(self):
        # Closed-form approximation for the CertaintySpread response:
        # (ln(N-1) + (q/(1-q)) ln(delta/2)) / ln N at q = 0.5.
        n, delta = 100000, 0.01
        pair = perturbation_family("CertaintySpread", n, delta)
        got = stability_ratio("renyi", pair, order=embed_real(0.5)).ratio.x1
        approx = (math.log(n - 1) + math.log(delta / 2.0)) / math.log(n)
        assert abs(got - approx) < 0.02

    def test_renyi_two_increasing_on_uniform_spike(self):
        ratios = []
        for n in (100, 1000, 10000):
            pair = perturbation_family("UniformSpike", n, 0.01)
            ratios.append(
                stability_ratio("renyi", pair, order=embed_real(2.0)).ratio.x1)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


class TestGoldenSweepOutput:
    """SHA-256 of `hypentropy stability` output on a fixed corpus.

    The digests were recorded from the per-measure evaluation that embedded
    each pair and projected it back; any rewrite of the stability layer must
    reproduce the CLI output byte for byte, error rows included.
    """

    ANALYTIC = ["--family", "CertaintySpread", "--family", "UniformSpike",
                "--N-grid", "2,10,10000,100000",
                "--delta-grid", "0.01,0.3,1.5"]
    SMOOTH = ["--family", "RandomSmooth", "--N-grid", "2,10,10000,100000",
              "--delta-grid", "0.01,0.3"]
    MEASURES = ["--measure", "shannon", "--measure", "renyi",
                "--measure", "strong_shannon_hyp", "--measure", "renyi_hyp"]
    REVERSED = ["--measure", "renyi_hyp", "--measure", "strong_shannon_hyp",
                "--measure", "renyi", "--measure", "shannon"]

    CASES = {
        "order-2-csv": ANALYTIC + MEASURES + ["--order", "2"],
        "order-2-json": ANALYTIC + MEASURES + ["--order", "2",
                                               "--format", "json"],
        "order-0.5-csv": ANALYTIC + MEASURES + ["--order", "0.5"],
        "order-0.5,2-csv": ANALYTIC + MEASURES + ["--order", "0.5,2"],
        "order-0.5,2-json": ANALYTIC + MEASURES + ["--order", "0.5,2",
                                                   "--format", "json"],
        "order-0.5,2-unit-k": ANALYTIC + MEASURES + ["--order", "0.5,2",
                                                     "--basis", "unit-k"],
        "order-1-csv": ANALYTIC + MEASURES + ["--order", "1"],
        "order-minus-1-csv": ANALYTIC + MEASURES + ["--order=-1"],
        "order-0-csv": ANALYTIC + MEASURES + ["--order", "0"],
        "order-nan,2-csv": ANALYTIC + MEASURES + ["--order", "nan,2"],
        "order-nan,2-json": ANALYTIC + MEASURES + ["--order", "nan,2",
                                                   "--format", "json"],
        "no-order-csv": ANALYTIC + MEASURES,
        "smooth-seed-3-csv": SMOOTH + MEASURES + ["--order", "0.5,2",
                                                  "--seed", "3"],
        "smooth-seed-11-json": SMOOTH + MEASURES + ["--order", "0.5,2",
                                                    "--seed", "11",
                                                    "--format", "json"],
        "reversed-csv": ANALYTIC + REVERSED + ["--order", "0.5,2"],
    }
    DIGESTS = {
        "no-order-csv":
            "878346ba3b7637c83547a79889cd4c455e675db1d3a690c23080b734c59c29a1",
        "order-0-csv":
            "8c72836d41fb81b22a877ba3c50606872e176640ee677defc25df74d3b6b043f",
        "order-0.5,2-csv":
            "daaa436a16e068ba55c92341d83f03705070679ad81d8105b064f13979be2e32",
        "order-0.5,2-json":
            "ec05ed4d9063378dbb59b99a35afea9bea9a7f21e15a73c848231a07f2f3df55",
        "order-0.5,2-unit-k":
            "29113684f71ae3eb2767c0e926e6f6ae65aa985b4af00e97a909fec764fe0d19",
        "order-0.5-csv":
            "08139f8f762c88e5fc9539e400ec5f6e3717468ba82795480a9a853a65fd980c",
        "order-1-csv":
            "28f09aad418310880a23f4d52b75b0d8a329df974a3162ee95e435e1f910891e",
        "order-2-csv":
            "242edd9e537ed60ce2f5e534c03886f6463889c98a31e09beca5383568c5c36e",
        "order-2-json":
            "cf469a3d9bfb5af1a957d2a76bbefecb0c4d09e910cca3be6d6f2b8d45773eab",
        "order-minus-1-csv":
            "30b964beb1cbf48e2e6f00f855193f6792bc8f85b4c48aeb30672e95fc1b3032",
        "order-nan,2-csv":
            "70ee649ad5c22169a4836138ba00ca81bb852582f5a041efda7466e31df11d9a",
        "order-nan,2-json":
            "7688e4e6a3ad4cbf1603deba338dab320da8fca739b042d34cf9044f6c26e15c",
        "reversed-csv":
            "daaa436a16e068ba55c92341d83f03705070679ad81d8105b064f13979be2e32",
        "smooth-seed-11-json":
            "a3fa72f74d65a0a9bed72be406c45997712a71a1353519239e2c060c8fc6bc5b",
        "smooth-seed-3-csv":
            "8f828e55cec13390d683fe2bb0e4d9e9592c66290ad053407f784b07744d30a3",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_digest(self, case, tmp_path):
        out = tmp_path / "sweep.out"
        assert main(["stability", *self.CASES[case],
                     "--output", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.DIGESTS[case]


class TestGoldenAnalyticSweep:
    """SHA-256 of `hypentropy stability` output for both analytic families,
    all 12 closed-form measures, N at the edges of numpy's summation tree
    (8, 128, the 2**15 leaf) and up to 1e6, recorded from the dense
    evaluation before the sweep moved to runs."""

    ARGS = ["--family", "CertaintySpread", "--family", "UniformSpike",
            "--N-grid", "2,3,7,8,9,127,128,129,1000,32768,32769,65544,"
                        "123457,1000000",
            "--delta-grid", "0.01,0.3,0.001"]
    DIGESTS = {
        ("0.5", "csv"):
            "cd8f56721840ca32aa55ad4b762651a40af4d15aeaafb55150cec763929ff5a4",
        ("0.5", "json"):
            "20439c376f370705d3dfc280b5540c3744ec02b334bc3ebfdc4e01e4f24cd3e7",
        ("2.0", "csv"):
            "2d16d06be1e3cec7e8423139198eff1c8a0f5eeafa17494f36b423d3a53ffe50",
        ("2.0", "json"):
            "ecdf02f2129a8a89dbdb0b2757ee0aee4b8a4477f6069d162543c1bf748c6dcd",
        ("3.7", "csv"):
            "d4d6177429bdc280cee8e201fdbf0230d8c75a496a7c01836b631b15d3e9807b",
        ("3.7", "json"):
            "00707a7942916afa4cd5ded2195066a75a05fc4995feb205e8d4f1873178ada0",
    }

    @pytest.mark.parametrize("order, fmt", sorted(DIGESTS))
    def test_output_digest(self, order, fmt, tmp_path):
        selection = [arg for name, m in MEASURES.items() if m.kernel
                     for arg in ("--measure", name)]
        assert len(selection) == 2 * 12
        out = tmp_path / "sweep.out"
        assert main(["stability", *self.ARGS, *selection, "--order", order,
                     "--format", fmt, "--output", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.DIGESTS[order, fmt]


LARGE_NS = tuple(10 ** k for k in range(2, 13))


def _renyi_trend(family: str, q: float) -> list[StabilityRecord]:
    """The sweep's renyi and renyi_hyp records at order q, delta = 0.01,
    N = 1e2 ... 1e12, in N order for each measure."""
    config = SweepConfig(families=(family,), n_grid=LARGE_NS,
                         delta_grid=(0.01,),
                         measures=(("renyi", embed_real(q)),
                                   ("renyi_hyp", embed_real(q))))
    records = stability_sweep(config)
    assert all(r.error is None for r in records)
    return records


class TestLargeNTrend:
    """The Renyi responses that criterion 8 can only bound at N = 1e5,
    followed to N = 1e12 on runs: they rise strictly toward 1, as Lesche
    instability says."""

    def test_uniform_spike_order_2(self):
        start = time.perf_counter()
        records = _renyi_trend("UniformSpike", 2.0)
        for measure in ("renyi", "renyi_hyp"):
            ratios = [r.ratio.x1 for r in records if r.measure == measure]
            for n, ratio in zip(LARGE_NS, ratios):
                want = math.log1p((n - 1) * (0.01 / 2.0) ** 2) / math.log(n)
                assert abs(ratio - want) < 1e-12
            assert all(a < b for a, b in zip(ratios, ratios[1:]))
            assert ratios[LARGE_NS.index(10 ** 8)] > 0.4
        assert all(r.ratio.x1 == r.ratio.x2 for r in records)
        assert time.perf_counter() - start < 1.0

    def test_certainty_spread_order_half(self):
        start = time.perf_counter()
        records = _renyi_trend("CertaintySpread", 0.5)
        for measure in ("renyi", "renyi_hyp"):
            ratios = [r.ratio.x1 for r in records if r.measure == measure]
            for n, ratio in zip(LARGE_NS, ratios):
                # The point mass has Renyi entropy 0 at every order.
                want = 2.0 * math.log(math.sqrt(1.0 - 0.01 / 2.0)
                                      + math.sqrt((n - 1) * 0.01 / 2.0)
                                      ) / math.log(n)
                assert abs(ratio - want) < 1e-12
            assert all(a < b for a, b in zip(ratios, ratios[1:]))
            assert ratios[-1] > 0.8
        assert time.perf_counter() - start < 1.0


class TestSweepOnRuns:
    """An analytic sweep builds no N-element array, so N is limited by the
    float range rather than by memory."""

    SELECTION = tuple(
        (name, HyperbolicNumber(0.5, 2.0) if m.check else None)
        for name, m in MEASURES.items() if m.kernel is not None)

    def test_no_n_element_array_at_a_million(self):
        # One dense distribution would take 7.63 MiB.
        config = SweepConfig(families=("CertaintySpread", "UniformSpike"),
                             n_grid=(1_000_000,), delta_grid=(0.01, 0.3),
                             measures=self.SELECTION)
        records = []
        peak = traced_peak(lambda: records.extend(stability_sweep(config)))
        assert all(r.error is None for r in records)
        assert peak < 1 << 20

    def test_a_trillion_states_in_under_a_second(self):
        config = SweepConfig(families=("CertaintySpread", "UniformSpike"),
                             n_grid=(10 ** 12,), delta_grid=(0.01, 0.001),
                             measures=self.SELECTION)
        start = time.perf_counter()
        records = stability_sweep(config)
        assert time.perf_counter() - start < 1.0
        assert len(records) == 2 * 2 * 12
        assert all(r.error is None for r in records)
        assert all(math.isfinite(r.ratio.x1) for r in records)


class TestRandomSmoothWorkingSet:
    """A RandomSmooth pair is built inside its own draw buffer, and a sweep
    holds one drawn pair at a time."""

    SELECTION = (("shannon", None), ("renyi", embed_real(0.5)),
                 ("strong_shannon_hyp", None), ("renyi_hyp", embed_real(0.5)))

    @pytest.mark.parametrize("n", [100_000, 1_000_000])
    def test_sweep_peaks_near_its_pair(self, n):
        # Draw once untraced, so that the peak holds no jump-matrix cache.
        pair = perturbation_family("RandomSmooth", n, 0.01)
        assert pair.base.p.base is None and pair.perturbed.p.base is None
        pair_bytes = pair.base.p.nbytes + pair.perturbed.p.nbytes
        del pair
        config = SweepConfig(families=("RandomSmooth",), n_grid=(n,),
                             delta_grid=(0.01, 0.001), measures=self.SELECTION)
        assert traced_peak(stability_sweep, config) <= 2.5 * pair_bytes
