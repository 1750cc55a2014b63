"""Entropy and extropy measures, real and hyperbolic, plus the
generating-function reformulations.

Every hyperbolic measure is evaluated coordinatewise in the idempotent basis
with the 0*log(0) := 0 convention applied per coordinate inside entropy sums
(the standalone hyperbolic logarithm still rejects non-positive inputs).
Natural logarithms throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import ComponentFunction, DifferentiableFunction, hyp_derivative, \
    hyp_limit, lhopital_check
from .distributions import Case, HyperbolicDistribution, RealDistribution
from .errors import (
    CaseMismatch,
    NegativeOrder,
    NonConvergent,
    NonFinite,
    NonPositiveOrder,
    OrderOnZeroDivisorLine,
    OrderOne,
    ZeroComponent,
    ZeroProbability,
)
from .hyperbolic import ONE, ZERO, HyperbolicNumber, embed_real

__all__ = [
    "EntropyValue",
    "shannon",
    "extropy",
    "extropy_duality_check",
    "renyi",
    "hartley",
    "collision",
    "renyi_extropy",
    "shannon_via_generating",
    "strong_shannon_hyp",
    "strong_shannon_via_generating",
    "renyi_hyp",
    "renyi_hyp_mixed",
    "renyi_hyp_limit",
    "hartley_hyp",
    "collision_hyp",
    "strong_extropy_hyp",
    "renyi_extropy_hyp",
    "DualityResult",
]

GENERATING_TOL = 1e-8
LIMIT_AGREE_TOL = 1e-6


@dataclass(frozen=True)
class EntropyValue:
    """A measurement result: which measure produced which hyperbolic value."""

    value: HyperbolicNumber
    measure: str
    order: Optional[HyperbolicNumber]
    n: int


def _neg_xlogx_sum(p: np.ndarray) -> float:
    """-sum p*log(p) with 0*log(0) := 0."""
    x = p[p > 0.0]
    return float(-(x * np.log(x)).sum())


def _renyi_coordinate(p: np.ndarray, a: float) -> float:
    """log(sum p**a) / (1 - a) over the positive entries of p."""
    mask = p > 0.0
    return float(np.log((p[mask] ** a).sum()) / (1.0 - a))


# --- real measures -----------------------------------------------------------

def shannon(P: RealDistribution) -> float:
    """Shannon entropy -sum p log p."""
    return _neg_xlogx_sum(P.p)


def extropy(P: RealDistribution) -> float:
    """Extropy -sum (1-p) log(1-p), the complementary dual of entropy."""
    return _neg_xlogx_sum(1.0 - P.p)


@dataclass(frozen=True)
class DualityResult:
    lhs: float  # J(P)
    rhs: float  # sum_s S(p_s; 1-p_s) - S(P)


def extropy_duality_check(P: RealDistribution) -> DualityResult:
    """Both sides of the entropy/extropy duality identity.

    J(P) should equal sum_s [-p_s log p_s - (1-p_s) log(1-p_s)] - S(P); the
    symmetric identity (with S and J swapped) is the same equation rearranged,
    so one pair of sides certifies both directions.
    """
    binary_sum = _neg_xlogx_sum(P.p) + _neg_xlogx_sum(1.0 - P.p)
    return DualityResult(lhs=extropy(P), rhs=binary_sum - shannon(P))


def _check_renyi_order(q: float) -> None:
    """Order domain of the real Renyi entropy: finite q >= 0, q != 1."""
    if q < 0.0:
        raise NegativeOrder(f"Renyi order must be positive, got {q!r}")
    if not math.isfinite(q):
        raise NonFinite(f"Renyi order must be finite, got {q!r}")
    if q == 1.0:
        raise OrderOne("order 1 is the Shannon entropy; call shannon()")


def renyi(P: RealDistribution, q: float) -> float:
    """Renyi entropy of order q > 0, q != 1; zero probabilities contribute 0."""
    _check_renyi_order(q)
    if q == 0.0:
        return hartley(P)
    return _renyi_coordinate(P.p, q)


def hartley(P: RealDistribution) -> float:
    """Hartley entropy log N, counting all N states (0**0 := 1)."""
    return math.log(P.n)


def collision(P: RealDistribution) -> float:
    """Collision entropy -log sum p^2."""
    return float(-np.log((P.p ** 2).sum()))


def renyi_extropy(P: RealDistribution, q: float) -> float:
    """Renyi extropy of order q != 1 for an N-state distribution."""
    if q == 1.0:
        raise OrderOne("order 1 has no closed form here; take a limit")
    n = P.n
    if n == 1:
        warnings.warn("Renyi extropy of a single state is 0 by convention")
        return 0.0
    comp = float(np.log(((1.0 - P.p) ** q).sum()))
    return ((n - 1.0) * (comp - math.log(n - 1.0))) / (1.0 - q)


def shannon_via_generating(P: RealDistribution) -> float:
    """Shannon entropy as lim_{t -> -1} d/dt sum p^{-t}.

    Numerical route through the derivative/limit machinery; requires strictly
    positive probabilities and must land within 1e-8 of the closed form.
    """
    if np.any(P.p <= 0.0):
        raise ZeroProbability("generating-function route needs p > 0")
    p = P.p

    def g(t: float) -> float:
        return float((p ** (-t)).sum())

    G = DifferentiableFunction(ComponentFunction.symmetric(g))

    def g_prime(xi: HyperbolicNumber) -> HyperbolicNumber:
        return hyp_derivative(G, xi)

    limit = hyp_limit(g_prime, embed_real(-1.0))
    value = limit.x1
    closed = shannon(P)
    if abs(value - closed) > GENERATING_TOL:
        raise NonConvergent(
            f"generating-function value {value!r} drifted from entropy {closed!r}"
        )
    return value


# --- hyperbolic measures -----------------------------------------------------

def _require_full(B: HyperbolicDistribution, measure: str) -> None:
    if B.case is not Case.FULL:
        raise CaseMismatch(
            f"{measure} is defined for case full only, got {B.case.value}"
        )


def strong_shannon_hyp(B: HyperbolicDistribution) -> HyperbolicNumber:
    """Strong hyperbolic Shannon entropy sum -rho_s Log_D(rho_s).

    Acts coordinatewise; in the degenerate cases e1/e2 the zero coordinate of
    every entry annihilates its log factor, so the result lives on the
    corresponding zero-divisor line.
    """
    return HyperbolicNumber(_neg_xlogx_sum(B.p1), _neg_xlogx_sum(B.p2))


def strong_shannon_via_generating(B: HyperbolicDistribution) -> HyperbolicNumber:
    """Entropy via the hyperbolic generating function sum rho^{-xi}.

    Takes the hyperbolic derivative, then the limit xi -> -1_D along
    non-zero-divisor directions.  Requires case full with positive components.
    """
    _require_full(B, "strong_shannon_via_generating")
    if np.any(B.p1 <= 0.0) or np.any(B.p2 <= 0.0):
        raise ZeroComponent("generating-function route needs positive components")
    p1, p2 = B.p1, B.p2

    G = DifferentiableFunction(ComponentFunction(
        lambda t: float((p1 ** (-t)).sum()),
        lambda t: float((p2 ** (-t)).sum()),
    ))

    def g_prime(xi: HyperbolicNumber) -> HyperbolicNumber:
        return hyp_derivative(G, xi)

    value = hyp_limit(g_prime, embed_real(-1.0))
    closed = strong_shannon_hyp(B)
    if max(abs(value.x1 - closed.x1), abs(value.x2 - closed.x2)) > GENERATING_TOL:
        raise NonConvergent(
            f"generating-function value {value} drifted from entropy {closed}"
        )
    return value


def _check_renyi_hyp_order(alpha: HyperbolicNumber) -> None:
    """Order domain of the hyperbolic Renyi entropy: both coordinates finite
    and > 0, neither equal to 1."""
    if not alpha.is_positive():
        raise NonPositiveOrder(f"order {alpha} must be strictly positive")
    if not (math.isfinite(alpha.x1) and math.isfinite(alpha.x2)):
        raise NonFinite(f"order {alpha} must be finite")
    if alpha.x1 == 1.0 or alpha.x2 == 1.0:
        raise OrderOnZeroDivisorLine(
            f"1_D - {alpha} is a zero divisor; use renyi_hyp_limit or "
            "renyi_hyp_mixed"
        )


def renyi_hyp(B: HyperbolicDistribution, alpha: HyperbolicNumber) -> HyperbolicNumber:
    """Hyperbolic Renyi entropy (1_D / (1_D - alpha)) Log_D sum rho^alpha.

    The order must be strictly positive and finite with neither coordinate
    equal to 1;
    an order on the zero-divisor line of 1_D - alpha is rejected rather than
    silently mixing a Shannon coordinate with a Renyi coordinate.
    """
    _require_full(B, "renyi_hyp")
    _check_renyi_hyp_order(alpha)
    return HyperbolicNumber(
        _renyi_coordinate(B.p1, alpha.x1), _renyi_coordinate(B.p2, alpha.x2)
    )


def renyi_hyp_mixed(
    B: HyperbolicDistribution, alpha: HyperbolicNumber
) -> HyperbolicNumber:
    """Per-coordinate dispatch extension: a coordinate of order exactly 1 is
    evaluated as Shannon entropy.  Convenience beyond the strict definition."""
    _require_full(B, "renyi_hyp_mixed")
    if not alpha.is_positive():
        raise NonPositiveOrder(f"order {alpha} must be strictly positive")

    def coord(p: np.ndarray, a: float) -> float:
        return _neg_xlogx_sum(p) if a == 1.0 else _renyi_coordinate(p, a)

    return HyperbolicNumber(coord(B.p1, alpha.x1), coord(B.p2, alpha.x2))


def _log_power_sum_function(B: HyperbolicDistribution) -> DifferentiableFunction:
    """F(alpha) = Log_D sum rho^alpha with its analytic derivative."""
    p1, p2 = B.p1, B.p2

    def f(p: np.ndarray, a: float) -> float:
        return float(np.log((p ** a).sum()))

    def fprime(p: np.ndarray, a: float) -> float:
        pa = p ** a
        return float((pa * np.log(p)).sum() / pa.sum())

    return DifferentiableFunction(
        ComponentFunction(lambda a: f(p1, a), lambda a: f(p2, a)),
        ComponentFunction(lambda a: fprime(p1, a), lambda a: fprime(p2, a)),
    )


def renyi_hyp_limit(B: HyperbolicDistribution) -> HyperbolicNumber:
    """lim_{alpha -> 1_D} of the hyperbolic Renyi entropy.

    Evaluated both as a direct sequence limit and through the hyperbolic
    L'Hopital rule on Log_D(sum rho^alpha) / (1_D - alpha); both routes must
    agree with the strong hyperbolic Shannon entropy within 1e-6.
    """
    _require_full(B, "renyi_hyp_limit")
    if np.any(B.p1 <= 0.0) or np.any(B.p2 <= 0.0):
        raise ZeroComponent("limit route needs positive components")

    direct = hyp_limit(lambda a: renyi_hyp(B, a), ONE)

    F = _log_power_sum_function(B)
    G = DifferentiableFunction(
        ComponentFunction.symmetric(lambda a: 1.0 - a),
        ComponentFunction.symmetric(lambda a: -1.0),
    )
    lh = lhopital_check(F, G, ONE, tol=LIMIT_AGREE_TOL)

    closed = strong_shannon_hyp(B)
    for route, value in (("direct", direct), ("lhopital", lh.lhs)):
        if max(abs(value.x1 - closed.x1), abs(value.x2 - closed.x2)) > LIMIT_AGREE_TOL:
            raise NonConvergent(
                f"{route} limit {value} disagrees with entropy {closed}"
            )
    if not lh.agree:
        raise NonConvergent(f"L'Hopital sides disagree: {lh.lhs} vs {lh.rhs}")
    return direct


def hartley_hyp(B: HyperbolicDistribution) -> HyperbolicNumber:
    """Hyperbolic Hartley entropy: log N in both coordinates."""
    _require_full(B, "hartley_hyp")
    return embed_real(math.log(B.n))


def collision_hyp(B: HyperbolicDistribution) -> HyperbolicNumber:
    """Hyperbolic collision entropy: order 2_D Renyi entropy."""
    _require_full(B, "collision_hyp")
    return HyperbolicNumber(
        _renyi_coordinate(B.p1, 2.0), _renyi_coordinate(B.p2, 2.0)
    )


def strong_extropy_hyp(B: HyperbolicDistribution) -> HyperbolicNumber:
    """Strong hyperbolic extropy -sum (1_D - rho) Log_D (1_D - rho)."""
    _require_full(B, "strong_extropy_hyp")
    return HyperbolicNumber(
        _neg_xlogx_sum(1.0 - B.p1), _neg_xlogx_sum(1.0 - B.p2)
    )


def renyi_extropy_hyp(
    B: HyperbolicDistribution, alpha: HyperbolicNumber
) -> HyperbolicNumber:
    """Strong hyperbolic Renyi extropy of hyperbolic order alpha.

    Per coordinate: (1/(1-a)) * (N-1) * [log sum (1-p)^a - log(N-1)].
    A single-state distribution returns 0_D with a warning, since the (N-1)
    prefactor annihilates the expression.
    """
    _require_full(B, "renyi_extropy_hyp")
    if alpha.x1 == 1.0 or alpha.x2 == 1.0:
        raise OrderOnZeroDivisorLine(
            f"1_D - {alpha} is a zero divisor for order {alpha}"
        )
    n = B.n
    if n == 1:
        warnings.warn("Renyi extropy of a single state is 0_D by convention")
        return ZERO

    def coord(p: np.ndarray, a: float) -> float:
        comp = float(np.log(((1.0 - p) ** a).sum()))
        return ((n - 1.0) * (comp - math.log(n - 1.0))) / (1.0 - a)

    return HyperbolicNumber(coord(B.p1, alpha.x1), coord(B.p2, alpha.x2))
