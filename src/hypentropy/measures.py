"""Entropy and extropy measures, real and hyperbolic, plus the
generating-function reformulations.

Every hyperbolic measure is evaluated coordinatewise in the idempotent basis
with the 0*log(0) := 0 convention applied per coordinate inside entropy sums
(the standalone hyperbolic logarithm still rejects non-positive inputs).
Natural logarithms throughout.

``MEASURES`` is the one map from a measure name to its computation: a real
measure is its 1-D coordinate kernel on ``P.p`` at order q, and its
hyperbolic lift is ``HyperbolicNumber(kernel(p1, a1), kernel(p2, a2))``.
The public functions, the CLI and the Lesche sweep all read it.
The kernels read a zero-free array in place and copy out the positive
entries only when the array has a zero (or a negative or NaN entry).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .calculus import ComponentFunction, DifferentiableFunction, fd_points, \
    hyp_derivative, hyp_limit, lhopital_check, limit_points
from .distributions import Case, HyperbolicDistribution, RealDistribution, embed
from .errors import (
    CaseMismatch,
    HypentropyError,
    NegativeOrder,
    NonConvergent,
    NonFinite,
    NonPositiveOrder,
    OrderOnZeroDivisorLine,
    OrderOne,
    ZeroComponent,
    ZeroProbability,
)
from .hyperbolic import ONE, HyperbolicNumber, embed_real

__all__ = [
    "Measure",
    "MEASURES",
    "evaluate",
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
    "renyi_hyp_limit_table",
    "RenyiLimit",
    "hartley_hyp",
    "collision_hyp",
    "strong_extropy_hyp",
    "renyi_extropy_hyp",
    "DualityResult",
]

GENERATING_TOL = 1e-8
LIMIT_AGREE_TOL = 1e-6
# Elements per power pass of the generating-function stencil.
_STENCIL_CHUNK = 1 << 16


# --- coordinate kernels --------------------------------------------------------

def _positive(p: np.ndarray) -> np.ndarray:
    """The positive entries of p, in order: p itself, uncopied, when its
    minimum is positive (the same floats, so every sum keeps its bits)."""
    return p if p.min() > 0.0 else p[p > 0.0]


def _neg_xlogx_sum(p: np.ndarray) -> float:
    """-sum p*log(p) with 0*log(0) := 0."""
    x = _positive(p)
    return float(-(x * np.log(x)).sum())


def _extropy_coordinate(p: np.ndarray) -> float:
    """-sum (1-p)*log(1-p) with 0*log(0) := 0."""
    return _neg_xlogx_sum(1.0 - p)


def _hartley_coordinate(p: np.ndarray) -> float:
    """log N, counting all N states (0**0 := 1)."""
    return math.log(p.size)


def _log_total(total: float) -> float:
    """log of a power sum; -inf, without a divide-by-zero warning, when every
    term underflowed to 0 (a large order), so the value check can reject it."""
    return float(np.log(total)) if total > 0.0 else -math.inf


def _renyi_coordinate(p: np.ndarray, a: float) -> float:
    """log(sum p**a) / (1 - a) over the positive entries of p; orders 0 and 1
    are the Hartley and the Shannon entropy."""
    if a == 0.0:
        return _hartley_coordinate(p)
    if a == 1.0:
        return _neg_xlogx_sum(p)
    return _log_total((_positive(p) ** a).sum()) / (1.0 - a)


def _collision_coordinate(p: np.ndarray) -> float:
    """Renyi entropy of order 2, -log sum p**2."""
    return _renyi_coordinate(p, 2.0)


def _renyi_extropy_coordinate(p: np.ndarray, a: float) -> float:
    """(N-1) * [log sum (1-p)**a - log(N-1)] / (1-a); 0 for a single state."""
    n = p.size
    if n == 1:
        warnings.warn("Renyi extropy of a single state is 0 by convention")
        return 0.0
    comp = _log_total(((1.0 - p) ** a).sum())
    return ((n - 1.0) * (comp - math.log(n - 1.0))) / (1.0 - a)


# --- order domains -------------------------------------------------------------

def _check_renyi_order(q: float) -> None:
    """Order domain of a real Renyi-type measure: finite q >= 0, q != 1."""
    if q < 0.0:
        raise NegativeOrder(f"Renyi order must be positive, got {q!r}")
    if not math.isfinite(q):
        raise NonFinite(f"Renyi order must be finite, got {q!r}")
    if q == 1.0:
        raise OrderOne("order 1 is a limit; call shannon() or extropy()")


def _check_positive_finite(alpha: HyperbolicNumber) -> None:
    """Both coordinates of a hyperbolic order finite and > 0."""
    if not alpha.is_positive():
        raise NonPositiveOrder(f"order {alpha} must be strictly positive")
    if not (math.isfinite(alpha.x1) and math.isfinite(alpha.x2)):
        raise NonFinite(f"order {alpha} must be finite")


def _check_renyi_hyp_order(alpha: HyperbolicNumber) -> None:
    """Order domain of a hyperbolic Renyi-type measure: both coordinates
    finite and > 0, neither equal to 1."""
    _check_positive_finite(alpha)
    if alpha.x1 == 1.0 or alpha.x2 == 1.0:
        raise OrderOnZeroDivisorLine(
            f"1_D - {alpha} is a zero divisor; an order-1 coordinate is a "
            "limit (see renyi_hyp_limit, renyi_hyp_mixed)"
        )


# --- the registry --------------------------------------------------------------

@dataclass(frozen=True)
class Measure:
    """How one named measure is computed.

    ``kernel(p, *order)`` evaluates one coordinate on a 1-D probability
    array.  ``check`` validates the real order q of a real measure or the
    hyperbolic order of a hyperbolic one (None: the measure takes no order).
    ``any_case`` admits case e1/e2 input.  A generating-function route has no
    kernel; ``route`` takes the whole distribution.
    """

    kernel: Optional[Callable[..., float]]
    check: Optional[Callable[..., None]] = None
    hyperbolic: bool = False
    any_case: bool = False
    route: Optional[Callable] = None

    def order_args(self, name: str, order: Optional[HyperbolicNumber]
                   ) -> tuple[tuple, tuple]:
        """Kernel order arguments per coordinate, after the domain check; a
        real measure takes q = order.x1 in both, and its unused e2
        coordinate must be finite."""
        if self.check is None:
            return (), ()
        if order is None:
            raise HypentropyError(f"measure {name!r} needs an order")
        if self.hyperbolic:
            self.check(order)
            return (order.x1,), (order.x2,)
        self.check(order.x1)
        if not math.isfinite(order.x2):
            raise NonFinite(f"order {order} has a non-finite e2 coordinate")
        return (order.x1,), (order.x1,)

    def value(self, v1: float, v2: float) -> HyperbolicNumber:
        """Coordinate values as a hyperbolic number, or a real value v1 as
        v1 * 1_D; a non-finite value raises ``NonFinite``."""
        if not self.hyperbolic:
            return embed_real(v1)
        if not (math.isfinite(v1) and math.isfinite(v2)):
            raise NonFinite(f"measure value ({v1!r}, {v2!r}) is not finite")
        return HyperbolicNumber(v1, v2)


def _require_full(B: HyperbolicDistribution, measure: str) -> None:
    if B.case is not Case.FULL:
        raise CaseMismatch(
            f"{measure} is defined for case full only, got {B.case.value}"
        )


def evaluate(
    name: str,
    D: Union[RealDistribution, HyperbolicDistribution],
    order: Optional[HyperbolicNumber] = None,
) -> HyperbolicNumber:
    """The named measure of a real or hyperbolic distribution.

    A real measure takes q = order.x1 and needs real input; its value comes
    back as v * 1_D.  A hyperbolic measure evaluates its kernel on each
    projection at the matching order coordinate, and reads real input as its
    embedding, in place.
    """
    m = MEASURES.get(name)
    if m is None:
        raise HypentropyError(f"unknown measure {name!r}")
    if isinstance(D, HyperbolicDistribution):
        if not m.hyperbolic:
            raise HypentropyError(
                f"measure {name!r} expects a real distribution input")
        if m.route is not None:
            return m.route(D)
        if not m.any_case:
            _require_full(D, name)
        p1, p2 = D.p1, D.p2
    elif m.route is not None:
        return m.route(embed(D)) if m.hyperbolic else embed_real(m.route(D))
    else:
        p1 = p2 = D.p
    a1, a2 = m.order_args(name, order)
    v1 = m.kernel(p1, *a1)
    return m.value(v1, v1 if p2 is p1 and a2 == a1 else m.kernel(p2, *a2))


# --- real measures -----------------------------------------------------------

def shannon(P: RealDistribution) -> float:
    """Shannon entropy -sum p log p."""
    return evaluate("shannon", P).x1


def extropy(P: RealDistribution) -> float:
    """Extropy -sum (1-p) log(1-p), the complementary dual of entropy."""
    return evaluate("extropy", P).x1


@dataclass(frozen=True)
class DualityResult:
    lhs: float  # J(P)
    rhs: float  # sum_s S(p_s; 1-p_s) - S(P)


def extropy_duality_check(P: RealDistribution) -> DualityResult:
    """Both sides of the entropy/extropy duality identity.

    J(P) should equal sum_s [-p_s log p_s - (1-p_s) log(1-p_s)] - S(P); the
    symmetric identity (with S and J swapped) is the same equation rearranged,
    so one pair of sides certifies both directions.  The right-hand side sums
    the per-state binary entropies with ``math.fsum``, apart from the extropy
    kernel, so a wrong extropy formula shows as a gap between the sides.
    """
    binary = np.zeros_like(P.p)
    for x in (P.p, 1.0 - P.p):
        pos = x > 0.0
        binary[pos] -= x[pos] * np.log(x[pos])
    return DualityResult(lhs=extropy(P), rhs=math.fsum(binary) - shannon(P))


def renyi(P: RealDistribution, q: float) -> float:
    """Renyi entropy of order q >= 0, q != 1; zero probabilities contribute 0,
    and order 0 is the Hartley entropy."""
    return evaluate("renyi", P, HyperbolicNumber(q, q)).x1


def hartley(P: RealDistribution) -> float:
    """Hartley entropy log N, counting all N states (0**0 := 1)."""
    return evaluate("hartley", P).x1


def collision(P: RealDistribution) -> float:
    """Collision entropy -log sum p^2, the Renyi entropy of order 2."""
    return evaluate("collision", P).x1


def renyi_extropy(P: RealDistribution, q: float) -> float:
    """Renyi extropy of order q >= 0, q != 1, for an N-state distribution."""
    return evaluate("renyi_extropy", P, HyperbolicNumber(q, q)).x1


def shannon_via_generating(P: RealDistribution) -> float:
    """Shannon entropy as lim_{t -> -1} d/dt sum p^{-t}.

    The hyperbolic route of ``strong_shannon_via_generating`` on the embedded
    distribution, whose coordinates are equal; requires strictly positive
    probabilities and must land within 1e-8 of the closed form.
    """
    if np.any(P.p <= 0.0):
        raise ZeroProbability("generating-function route needs p > 0")
    return strong_shannon_via_generating(embed(P)).x1


# --- hyperbolic measures -----------------------------------------------------

def strong_shannon_hyp(B: HyperbolicDistribution) -> HyperbolicNumber:
    """Strong hyperbolic Shannon entropy sum -rho_s Log_D(rho_s).

    Acts coordinatewise; in the degenerate cases e1/e2 the zero coordinate of
    every entry annihilates its log factor, so the result lives on the
    corresponding zero-divisor line.
    """
    return evaluate("strong_shannon_hyp", B)


def _generating_sums(p: np.ndarray, points: list[float]) -> dict[float, float]:
    """sum p**(-t) at each t of points, keyed by t.

    The sums are the row sums of p ** e[rows, None] for the exponents e = -t,
    at most ``_STENCIL_CHUNK`` elements per power pass; each row sum has the
    bits of ``(p ** (-t)).sum()``.
    """
    e = -np.array(points)
    rows = max(1, _STENCIL_CHUNK // p.size)
    sums = np.concatenate([(p ** e[i:i + rows, None]).sum(axis=1)
                           for i in range(0, e.size, rows)])
    return dict(zip(points, sums.tolist()))


def strong_shannon_via_generating(B: HyperbolicDistribution) -> HyperbolicNumber:
    """Entropy via the hyperbolic generating function sum rho^{-xi}.

    Takes the hyperbolic derivative, then the limit xi -> -1_D along
    non-zero-divisor directions.  Requires case full with positive components.
    """
    _require_full(B, "strong_shannon_via_generating")
    if np.any(B.p1 <= 0.0) or np.any(B.p2 <= 0.0):
        raise ZeroComponent("generating-function route needs positive components")
    xi0 = embed_real(-1.0)
    # G is read from its values at every t where the finite differences at
    # the limit's points evaluate it, taken per coordinate in batched passes.
    visited = [xi for pair in limit_points(xi0) for xi in pair]
    points1 = [t for xi in visited for t in fd_points(xi.x1)[1]]
    points2 = [t for xi in visited for t in fd_points(xi.x2)[1]]
    G = DifferentiableFunction(ComponentFunction(
        _generating_sums(B.p1, points1).__getitem__,
        _generating_sums(B.p2, points2).__getitem__,
    ))

    def g_prime(xi: HyperbolicNumber) -> HyperbolicNumber:
        return hyp_derivative(G, xi)

    value = hyp_limit(g_prime, xi0)
    closed = strong_shannon_hyp(B)
    if max(abs(value.x1 - closed.x1), abs(value.x2 - closed.x2)) > GENERATING_TOL:
        raise NonConvergent(
            f"generating-function value {value} drifted from entropy {closed}"
        )
    return value


def renyi_hyp(B: HyperbolicDistribution, alpha: HyperbolicNumber) -> HyperbolicNumber:
    """Hyperbolic Renyi entropy (1_D / (1_D - alpha)) Log_D sum rho^alpha.

    The order must be strictly positive and finite with neither coordinate
    equal to 1;
    an order on the zero-divisor line of 1_D - alpha is rejected rather than
    silently mixing a Shannon coordinate with a Renyi coordinate.
    """
    return evaluate("renyi_hyp", B, alpha)


def renyi_hyp_mixed(
    B: HyperbolicDistribution, alpha: HyperbolicNumber
) -> HyperbolicNumber:
    """Per-coordinate dispatch extension: a coordinate of order exactly 1 is
    evaluated as Shannon entropy.  Convenience beyond the strict definition."""
    _require_full(B, "renyi_hyp_mixed")
    _check_positive_finite(alpha)
    return MEASURES["renyi_hyp"].value(
        _renyi_coordinate(B.p1, alpha.x1), _renyi_coordinate(B.p2, alpha.x2)
    )


def _power_sums(p: np.ndarray) -> Callable[[float], tuple]:
    """(sum p**a, sum p**a ln p) at order a, one power pass per order, with
    ln p taken once.  They are the numpy sums of ``p ** a`` and of
    ``p ** a * np.log(p)``, so what is built from them keeps its bits."""
    log_p = np.log(p)

    @functools.cache
    def sums(a: float) -> tuple:
        pa = p ** a
        return pa.sum(), (pa * log_p).sum()

    return sums


def _log_power_sum_function(B: HyperbolicDistribution) -> DifferentiableFunction:
    """F(alpha) = Log_D sum rho^alpha with its analytic derivative, both read
    from each coordinate's power sums."""
    sums1, sums2 = _power_sums(B.p1), _power_sums(B.p2)

    def f(sums: Callable, a: float) -> float:
        return _log_total(sums(a)[0])

    def fprime(sums: Callable, a: float) -> float:
        pa_sum, pa_log_sum = sums(a)
        return float(pa_log_sum / pa_sum)

    return DifferentiableFunction(
        ComponentFunction(lambda a: f(sums1, a), lambda a: f(sums2, a)),
        ComponentFunction(lambda a: fprime(sums1, a), lambda a: fprime(sums2, a)),
    )


@dataclass(frozen=True)
class RenyiLimit:
    """The Renyi limit at 1_D, the strong hyperbolic Shannon entropy it was
    checked against, and ``renyi_hyp`` at each requested order."""

    limit: HyperbolicNumber
    entropy: HyperbolicNumber
    table: tuple[HyperbolicNumber, ...]


def renyi_hyp_limit_table(
    B: HyperbolicDistribution, orders: Sequence[HyperbolicNumber] = ()
) -> RenyiLimit:
    """``renyi_hyp_limit`` of B, and ``renyi_hyp`` of B at each of ``orders``.

    The table is read from the limit's power sums, so an order that the
    limit visits too is raised to once per coordinate; each table value has
    the bits of ``renyi_hyp``.
    """
    _require_full(B, "renyi_hyp_limit")
    if np.any(B.p1 <= 0.0) or np.any(B.p2 <= 0.0):
        raise ZeroComponent("limit route needs positive components")

    F = _log_power_sum_function(B)
    G = DifferentiableFunction(
        ComponentFunction.symmetric(lambda a: 1.0 - a),
        ComponentFunction.symmetric(lambda a: -1.0),
    )
    # The Renyi entropy at order a > 0, a != 1, of positive components is
    # F(a) / G(a) in the float operations of renyi_hyp.
    lh = lhopital_check(F, G, ONE)
    limit = lh.lhs
    closed = strong_shannon_hyp(B)
    if max(abs(limit.x1 - closed.x1), abs(limit.x2 - closed.x2)) > LIMIT_AGREE_TOL:
        raise NonConvergent(
            f"direct limit {limit} disagrees with entropy {closed}"
        )
    if not lh.agree:
        raise NonConvergent(f"L'Hopital sides disagree: {limit} vs {lh.rhs}")

    table = []
    for alpha in orders:
        _check_renyi_hyp_order(alpha)
        v = F(alpha)
        table.append(MEASURES["renyi_hyp"].value(
            v.x1 / (1.0 - alpha.x1), v.x2 / (1.0 - alpha.x2)))
    return RenyiLimit(limit, closed, tuple(table))


def renyi_hyp_limit(B: HyperbolicDistribution) -> HyperbolicNumber:
    """lim_{alpha -> 1_D} of the hyperbolic Renyi entropy.

    Taken by the hyperbolic L'Hopital rule on F / G = Log_D(sum rho^alpha) /
    (1_D - alpha): the F/G sequence limit (the direct limit) is returned; it
    must agree with the strong hyperbolic Shannon entropy, and the F'/G'
    derivative limit with it, within 1e-6.  Both routes visit the same
    orders, so each coordinate's power sums are taken once per order and
    shared.
    """
    return renyi_hyp_limit_table(B).limit


def hartley_hyp(B: HyperbolicDistribution) -> HyperbolicNumber:
    """Hyperbolic Hartley entropy: log N in both coordinates."""
    return evaluate("hartley_hyp", B)


def collision_hyp(B: HyperbolicDistribution) -> HyperbolicNumber:
    """Hyperbolic collision entropy: order 2_D Renyi entropy."""
    return evaluate("collision_hyp", B)


def strong_extropy_hyp(B: HyperbolicDistribution) -> HyperbolicNumber:
    """Strong hyperbolic extropy -sum (1_D - rho) Log_D (1_D - rho)."""
    return evaluate("strong_extropy_hyp", B)


def renyi_extropy_hyp(
    B: HyperbolicDistribution, alpha: HyperbolicNumber
) -> HyperbolicNumber:
    """Strong hyperbolic Renyi extropy of hyperbolic order alpha.

    Per coordinate: (1/(1-a)) * (N-1) * [log sum (1-p)^a - log(N-1)], with the
    order domain of ``renyi_hyp``.  A single-state distribution returns 0_D
    with a warning, since the (N-1) prefactor annihilates the expression.
    """
    return evaluate("renyi_extropy_hyp", B, alpha)


MEASURES: dict[str, Measure] = {
    "shannon": Measure(_neg_xlogx_sum),
    "extropy": Measure(_extropy_coordinate),
    "hartley": Measure(_hartley_coordinate),
    "collision": Measure(_collision_coordinate),
    "renyi": Measure(_renyi_coordinate, _check_renyi_order),
    "renyi_extropy": Measure(_renyi_extropy_coordinate, _check_renyi_order),
    "shannon_via_generating": Measure(None, route=shannon_via_generating),
    "strong_shannon_hyp": Measure(_neg_xlogx_sum, hyperbolic=True,
                                  any_case=True),
    "strong_shannon_via_generating": Measure(
        None, hyperbolic=True, route=strong_shannon_via_generating),
    "strong_extropy_hyp": Measure(_extropy_coordinate, hyperbolic=True),
    "renyi_hyp": Measure(_renyi_coordinate, _check_renyi_hyp_order,
                         hyperbolic=True),
    "renyi_extropy_hyp": Measure(_renyi_extropy_coordinate,
                                 _check_renyi_hyp_order, hyperbolic=True),
    "hartley_hyp": Measure(_hartley_coordinate, hyperbolic=True),
    "collision_hyp": Measure(_collision_coordinate, hyperbolic=True),
}
