"""Lesche-stability metrics, stability ratios, and batch sweep experiments.

The experimental-robustness criterion compares |M(P) - M(P')| / log(N)
against the L1 distance between the two distributions.  Shannon-type
measures keep this ratio uniformly small; Renyi-type measures of order
q != 1 admit adversarial pairs that push it toward 1 as N grows.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .distributions import (
    FAMILIES,
    SEEDED_FAMILIES,
    HyperbolicDistribution,
    PerturbationPair,
    RealDistribution,
    perturbation_family,
)
from .errors import CaseMismatch, DegenerateN, HypentropyError, LengthMismatch
from .hyperbolic import HyperbolicNumber, embed_real
from .measures import MEASURES, pairwise_sum
from .rng import derive_seed
from .runs import Runs

__all__ = [
    "StabilityRecord",
    "SweepConfig",
    "lesche_norm",
    "lesche_norm_hyp",
    "stability_ratio",
    "stability_sweep",
]


def _abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b|, taking abs in place on the one difference array."""
    diff = a - b
    return np.abs(diff, out=diff)


def _common_runs(a: Runs, b: Runs) -> tuple[Runs, Runs]:
    """``a`` and ``b`` as runs with one set of counts: each of their common
    runs lies inside one run of ``a`` and one run of ``b``."""
    ends = [list(itertools.accumulate(r.counts)) for r in (a, b)]
    cuts = sorted(set(ends[0]).union(ends[1]) - {0})
    counts = [hi - lo for lo, hi in zip([0, *cuts], cuts)]
    return tuple(Runs(r.values[[bisect.bisect_left(e, c) for c in cuts]],
                      counts) for r, e in zip((a, b), ends))


def _l1(a: np.ndarray, b: np.ndarray) -> float:
    """sum |a - b|, with the bits of one numpy sum of ``_abs_diff(a, b)``.

    Two ``Runs`` are read on their common runs, and a ``Runs`` beside a
    dense array as its dense array.
    """
    if isinstance(a, Runs) != isinstance(b, Runs):
        a, b = np.asarray(a), np.asarray(b)
    elif isinstance(a, Runs) and a.counts != b.counts:
        a, b = _common_runs(a, b)
    return float(pairwise_sum(_abs_diff, a, b))


def lesche_norm(P: RealDistribution, Q: RealDistribution) -> float:
    """L1 distance sum |p_s - q_s|."""
    if P.n != Q.n:
        raise LengthMismatch(f"length mismatch: {P.n} vs {Q.n}")
    return _l1(P.p, Q.p)


def lesche_norm_hyp(
    B: HyperbolicDistribution, C: HyperbolicDistribution
) -> HyperbolicNumber:
    """Hyperbolic L1 distance: projection norms per idempotent coordinate."""
    if B.n != C.n:
        raise LengthMismatch(f"length mismatch: {B.n} vs {C.n}")
    if B.case is not C.case:
        raise CaseMismatch(f"case mismatch: {B.case.value} vs {C.case.value}")
    return HyperbolicNumber(_l1(B.p1, C.p1), _l1(B.p2, C.p2))


@dataclass(frozen=True)
class StabilityRecord:
    """One cell of a Lesche experiment."""

    family: str
    n: int
    delta: float
    measure: str
    order: Optional[HyperbolicNumber]
    norm: HyperbolicNumber
    ratio: HyperbolicNumber
    error: Optional[str] = None


def _evaluate_pair(
    pair: PerturbationPair,
    selection: Sequence[tuple[str, Optional[HyperbolicNumber]]],
    base_memo: dict[tuple, float],
) -> list[Union[StabilityRecord, HypentropyError]]:
    """Stability records of several measures on one pair, in selection order.

    The pair is evaluated once: one L1 norm, and each side through
    ``Measure.of`` with its array in both coordinates, so each kernel runs
    at each order at most once per distribution and a hyperbolic measure
    shares its kernel values with the real measure.  Any closed-form measure
    of ``MEASURES`` can be swept; a measure that fails yields its error in
    place of a record.

    ``base_memo`` is the base side's ``of`` memo: a fresh one, or, for pairs
    that share one base object, the same one while it holds that object.
    """
    if pair.n < 2:
        raise DegenerateN("stability ratio needs at least two states")
    norm = embed_real(lesche_norm(pair.base, pair.perturbed))
    log_n = math.log(pair.n)
    p_base, p_pert = pair.base.p, pair.perturbed.p
    pert_memo: dict[tuple, float] = {}
    results: list[Union[StabilityRecord, HypentropyError]] = []
    for measure, order in selection:
        try:
            m = MEASURES.get(measure)
            if m is None or m.kernel is None:
                raise HypentropyError(f"no closed-form measure {measure!r}")
            base = m.of(measure, p_base, p_base, order, base_memo)
            pert = m.of(measure, p_pert, p_pert, order, pert_memo)
        except HypentropyError as exc:
            results.append(exc)
            continue
        results.append(StabilityRecord(
            family=pair.family,
            n=pair.n,
            delta=pair.delta,
            measure=measure,
            order=order,
            norm=norm,
            ratio=HyperbolicNumber(abs(base.x1 - pert.x1) / log_n,
                                   abs(base.x2 - pert.x2) / log_n),
        ))
    return results


def stability_ratio(
    measure: str,
    pair: PerturbationPair,
    order: Optional[HyperbolicNumber] = None,
) -> StabilityRecord:
    """Normalized response |M(P) - M(P')| / log(N) of one measure to one pair.

    Real measures evaluate on the real pair (their record components are then
    equal); hyperbolic measures evaluate on the embedded pair, dividing by
    log(N) * 1_D coordinatewise.  This is the sweep's pair evaluation with a
    single measure, so the two agree bit for bit.
    """
    (result,) = _evaluate_pair(pair, [(measure, order)], {})
    if isinstance(result, HypentropyError):
        raise result
    return result


@dataclass(frozen=True)
class SweepConfig:
    """Cartesian-product experiment description."""

    families: Sequence[str]
    n_grid: Sequence[int]
    delta_grid: Sequence[float]
    measures: Sequence[tuple[str, Optional[HyperbolicNumber]]]
    seed: int = 0

    def __post_init__(self) -> None:
        # A numpy number would change the seeds, which hash each token's repr.
        try:
            fields = {"n_grid": tuple(map(operator.index, self.n_grid)),
                      "delta_grid": tuple(map(float, self.delta_grid)),
                      "seed": operator.index(self.seed)}
        except (TypeError, ValueError) as exc:
            raise HypentropyError(f"bad sweep grid or seed: {exc}") from None
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        if not (self.families and self.n_grid and self.delta_grid
                and self.measures):
            raise HypentropyError("sweep grids must be non-empty")
        for fam in self.families:
            if fam not in FAMILIES:
                raise HypentropyError(f"unknown family {fam!r}")


def _measure_key(measure: str, order: Optional[HyperbolicNumber]) -> tuple:
    return (measure, order.x1 if order else 0.0, order.x2 if order else 0.0)


def stability_sweep(config: SweepConfig) -> list[StabilityRecord]:
    """Evaluate every (family, measure, N, delta) cell deterministically.

    Each cell is ``perturbation_family(family, n, delta, seed=derive_seed(
    config.seed, family, n, delta))``, the seed derived only for a family of
    ``SEEDED_FAMILIES``, as no other family reads it.  An analytic pair is
    two runs, and its base, which depends on n alone, is one object for all
    deltas of that n while the sweep holds it, so it is evaluated once for
    all of them.  Per-cell errors become error rows (machine-readable code
    in ``error``) instead of aborting the sweep.  Output is sorted by
    (family, measure, N, delta).
    """
    records: list[StabilityRecord] = []
    base, base_memo = None, {}
    for family, n, delta in itertools.product(
            config.families, config.n_grid, config.delta_grid):
        try:
            seed = (derive_seed(config.seed, family, n, delta)
                    if family in SEEDED_FAMILIES else 0)
            pair = perturbation_family(family, n, delta, seed=seed)
            if pair.base is not base:
                base, base_memo = pair.base, {}
            results = _evaluate_pair(pair, config.measures, base_memo)
        except HypentropyError as exc:
            results = [exc] * len(config.measures)
        for (measure, order), result in zip(config.measures, results):
            if isinstance(result, HypentropyError):
                result = StabilityRecord(
                    family, n, delta, measure, order,
                    norm=HyperbolicNumber(math.nan, math.nan),
                    ratio=HyperbolicNumber(math.nan, math.nan),
                    error=type(result).__name__,
                )
            records.append(result)
    records.sort(key=lambda r: (
        r.family, _measure_key(r.measure, r.order), r.n, r.delta))
    return records
