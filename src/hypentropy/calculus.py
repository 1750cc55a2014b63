"""Differentiation, numerical limits, L'Hopital checks and convexity probes
for hyperbolic-valued functions given as componentwise callables.

A function of a hyperbolic variable that is differentiable in the hyperbolic
sense factorizes as F(x1*e1 + x2*e2) = F1(x1)*e1 + F2(x2)*e2, so every
operation here reduces to one-dimensional real numerics applied per
idempotent coordinate.  Limits approach their target along t * (e1 + e2)
only, staying clear of the zero-divisor directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import (
    EmptyDomain,
    HypothesisViolated,
    NonConvergent,
    OutsideDomain,
)
from .hyperbolic import (
    ONE,
    HyperbolicInterval,
    HyperbolicNumber,
    embed_real,
    from_unit_k,
)
from .rng import Xoshiro256StarStar

__all__ = [
    "ComponentFunction",
    "DifferentiableFunction",
    "CauchyRiemannResult",
    "LHopitalResult",
    "ConcavityResult",
    "hyp_derivative",
    "check_cauchy_riemann",
    "hyp_limit",
    "lhopital_check",
    "concavity_probe",
]

FD_STEP = 1e-6
CR_TOL = 1e-6
LIMIT_TOL = 1e-8
# hyp_limit's steps t, shrinking tenfold from 1e-3 to 1e-13 on every approach.
LIMIT_STEPS = tuple(10.0 ** (-3 - n) for n in range(11))
LHOPITAL_TOL = 1e-6
CONCAVITY_SLACK = 1e-10
# Samples drawn per block by concavity_probe; an early exit wastes at most
# one block of draws.
_PROBE_CHUNK = 1024

RealFn = Callable[[float], float]
HypMap = Callable[[HyperbolicNumber], HyperbolicNumber]


@dataclass(frozen=True)
class ComponentFunction:
    """Hyperbolic function in idempotent form: f1 acts on x1, f2 on x2."""

    f1: RealFn
    f2: RealFn
    domain: Optional[HyperbolicInterval] = None

    def __call__(self, xi: HyperbolicNumber) -> HyperbolicNumber:
        return HyperbolicNumber(self.f1(xi.x1), self.f2(xi.x2))

    @staticmethod
    def symmetric(f: RealFn, domain: Optional[HyperbolicInterval] = None
                  ) -> "ComponentFunction":
        """Same real function on both coordinates (embedded real function)."""
        return ComponentFunction(f, f, domain)


@dataclass(frozen=True)
class DifferentiableFunction:
    """A component function with an optional analytic derivative.

    When ``derivative`` is absent, derivatives fall back to Richardson-refined
    central differences.
    """

    value: ComponentFunction
    derivative: Optional[ComponentFunction] = None

    def __call__(self, xi: HyperbolicNumber) -> HyperbolicNumber:
        return self.value(xi)

    @property
    def domain(self) -> Optional[HyperbolicInterval]:
        return self.value.domain


def _as_component(F: Union[ComponentFunction, DifferentiableFunction]
                  ) -> ComponentFunction:
    return F.value if isinstance(F, DifferentiableFunction) else F


def _fd_derivative(f: RealFn, x: float) -> float:
    # Central difference with one Richardson step; fixed (non-adaptive) step
    # keeps verification output deterministic.
    h = max(FD_STEP, FD_STEP * abs(x))
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def hyp_derivative(
    F: Union[ComponentFunction, DifferentiableFunction],
    xi: HyperbolicNumber,
) -> HyperbolicNumber:
    """Hyperbolic derivative F'(xi) = dF1/dx1(x1) e1 + dF2/dx2(x2) e2."""
    comp = _as_component(F)
    if comp.domain is not None and not comp.domain.contains_interior(xi):
        raise OutsideDomain(f"{xi} is not interior to the function domain")
    if isinstance(F, DifferentiableFunction) and F.derivative is not None:
        return F.derivative(xi)
    return HyperbolicNumber(
        _fd_derivative(comp.f1, xi.x1), _fd_derivative(comp.f2, xi.x2)
    )


@dataclass(frozen=True)
class CauchyRiemannResult:
    holds: bool
    # residuals = (u_x - v_y) e1 + (u_y - v_x) e2 in the {1, k} basis view
    residuals: HyperbolicNumber


def check_cauchy_riemann(
    F: Union[ComponentFunction, DifferentiableFunction, HypMap],
    xi: HyperbolicNumber,
    cr_tol: float = CR_TOL,
) -> CauchyRiemannResult:
    """Finite-difference check of u_x = v_y and u_y = v_x at a point.

    F is viewed in the {1, k} basis as u + k v.  Accepts any map from
    hyperbolic numbers to hyperbolic numbers, so non-componentwise
    counterexamples can be probed too.
    """
    fmap: HypMap
    if isinstance(F, (ComponentFunction, DifferentiableFunction)):
        comp = _as_component(F)
        if comp.domain is not None and not comp.domain.contains_interior(xi):
            raise OutsideDomain(f"{xi} is not interior to the function domain")
        fmap = comp
    else:
        fmap = F

    x0, y0 = xi.to_unit_k()

    def u(x: float, y: float) -> float:
        return fmap(from_unit_k(x, y)).to_unit_k()[0]

    def v(x: float, y: float) -> float:
        return fmap(from_unit_k(x, y)).to_unit_k()[1]

    u_x = _fd_derivative(lambda x: u(x, y0), x0)
    u_y = _fd_derivative(lambda y: u(x0, y), y0)
    v_x = _fd_derivative(lambda x: v(x, y0), x0)
    v_y = _fd_derivative(lambda y: v(x0, y), y0)

    residuals = HyperbolicNumber(u_x - v_y, u_y - v_x)
    holds = abs(residuals.x1) < cr_tol and abs(residuals.x2) < cr_tol
    return CauchyRiemannResult(holds, residuals)


def hyp_limit(
    F: Union[ComponentFunction, DifferentiableFunction, HypMap],
    xi0: HyperbolicNumber,
    approach: str = "both",
    limit_tol: float = LIMIT_TOL,
) -> HyperbolicNumber:
    """Numerical limit of F at xi0 along xi0 + t*(e1+e2), t = +/- 10^(-3-n).

    Two-sided evaluation averages out the odd error terms; a single Richardson
    step then removes the leading even (resp. linear, when one-sided) term.
    The best-settled pair of successive extrapolants is returned; if even that
    pair differs by more than ``limit_tol`` the limit is declared
    non-convergent.
    """
    if approach not in ("both", "above", "below"):
        raise ValueError(f"unknown approach {approach!r}")
    fmap = _as_component(F) if isinstance(
        F, (ComponentFunction, DifferentiableFunction)) else F

    means: list[tuple[float, float]] = []
    for t in LIMIT_STEPS:
        if approach == "both":
            above = fmap(xi0 + embed_real(t))
            below = fmap(xi0 - embed_real(t))
            means.append(((above.x1 + below.x1) / 2.0,
                          (above.x2 + below.x2) / 2.0))
        else:
            signed = t if approach == "above" else -t
            val = fmap(xi0 + embed_real(signed))
            means.append((val.x1, val.x2))

    # Steps shrink by 10x: weight 100/99 cancels t^2 (two-sided), 10/9
    # cancels t (one-sided).
    w = 100.0 if approach == "both" else 10.0
    extrap = [
        (
            (w * means[n + 1][0] - means[n][0]) / (w - 1.0),
            (w * means[n + 1][1] - means[n][1]) / (w - 1.0),
        )
        for n in range(len(means) - 1)
    ]

    best_idx = None
    best_diff = math.inf
    for n in range(len(extrap) - 1):
        diff = max(
            abs(extrap[n + 1][0] - extrap[n][0]),
            abs(extrap[n + 1][1] - extrap[n][1]),
        )
        if diff < best_diff:
            best_diff = diff
            best_idx = n + 1
    if best_idx is None or best_diff > limit_tol:
        raise NonConvergent(
            f"limit at {xi0} did not settle: best successive gap {best_diff:.3e}"
        )
    return HyperbolicNumber(*extrap[best_idx])


@dataclass(frozen=True)
class LHopitalResult:
    lhs: HyperbolicNumber  # limit of F/G
    rhs: HyperbolicNumber  # limit of F'/G'
    agree: bool


def lhopital_check(
    F: DifferentiableFunction,
    G: DifferentiableFunction,
    xi0: HyperbolicNumber,
    tol: float = LHOPITAL_TOL,
    limit_tol: float = LIMIT_TOL,
) -> LHopitalResult:
    """Verify a 0/0 limit two ways: directly and through derivatives.

    Requires both functions to vanish at xi0 (within ``limit_tol``) and G' at
    xi0 to stay off the zero-divisor set.
    """
    f0 = hyp_limit(F, xi0, limit_tol=limit_tol)
    g0 = hyp_limit(G, xi0, limit_tol=limit_tol)
    small = 10.0 * limit_tol
    if max(abs(f0.x1), abs(f0.x2)) > small or max(abs(g0.x1), abs(g0.x2)) > small:
        raise HypothesisViolated(
            f"not a 0/0 form at {xi0}: F -> {f0}, G -> {g0}"
        )
    gprime = hyp_derivative(G, xi0)
    if gprime.in_g0():
        raise HypothesisViolated(f"G'({xi0}) = {gprime} lies in the zero-divisor set")

    def ratio(xi: HyperbolicNumber) -> HyperbolicNumber:
        return F(xi) / G(xi)

    def derivative_ratio(xi: HyperbolicNumber) -> HyperbolicNumber:
        return hyp_derivative(F, xi) / hyp_derivative(G, xi)

    lhs = hyp_limit(ratio, xi0, limit_tol=limit_tol)
    rhs = hyp_limit(derivative_ratio, xi0, limit_tol=limit_tol)
    agree = abs(lhs.x1 - rhs.x1) < tol and abs(lhs.x2 - rhs.x2) < tol
    return LHopitalResult(lhs, rhs, agree)


@dataclass(frozen=True)
class ConcavityResult:
    concave: bool
    convex: bool
    concave_witnesses: list = field(default_factory=list)
    convex_witnesses: list = field(default_factory=list)


def _probe_draws(rng: Xoshiro256StarStar, lo: HyperbolicNumber,
                 hi: HyperbolicNumber, samples: int) -> Iterator[list]:
    """Per sample: two x1 uniforms, two x2 uniforms, then lambda's two weights.

    Drawn in blocks, in the order the six draws of one sample come from the
    stream; lo + (hi - lo) * r is the float arithmetic of ``rng.uniform``.
    """
    low = np.array([lo.x1, lo.x1, lo.x2, lo.x2, 0.0, 0.0])
    span = np.array([hi.x1, hi.x1, hi.x2, hi.x2, 1.0, 1.0]) - low
    for start in range(0, samples, _PROBE_CHUNK):
        k = min(_PROBE_CHUNK, samples - start)
        # tolist gives Python floats, which is what the witnesses carry.
        yield from (low + span * rng.randoms(6 * k).reshape(k, 6)).tolist()


def concavity_probe(
    F: Union[ComponentFunction, DifferentiableFunction],
    samples: int = 10_000,
    seed: int = 0,
    slack: float = CONCAVITY_SLACK,
    domain: Optional[HyperbolicInterval] = None,
    max_witnesses: int = 3,
) -> ConcavityResult:
    """Sampling-based convexity/concavity verdict on an order interval.

    Draws comparable pairs xi preceq chi and hyperbolic weights lambda in
    [0, 1_D], and tests F((1-l)xi + l chi) against (1-l)F(xi) + l F(chi)
    componentwise.  A verdict of True means "no violation found", not a proof.
    """
    comp = _as_component(F)
    dom = domain if domain is not None else comp.domain
    if dom is None:
        raise EmptyDomain("concavity_probe needs a bounded order interval")
    lo, hi = dom.lo, dom.hi
    if not (lo.x1 < hi.x1 and lo.x2 < hi.x2):
        raise EmptyDomain(f"degenerate interval [{lo}, {hi}]")

    rng = Xoshiro256StarStar(seed)
    concave = True
    convex = True
    concave_witnesses: list = []
    convex_witnesses: list = []
    for u1, v1, u2, v2, l1, l2 in _probe_draws(rng, lo, hi, samples):
        a1, b1 = sorted((u1, v1))
        a2, b2 = sorted((u2, v2))
        xi = HyperbolicNumber(a1, a2)
        chi = HyperbolicNumber(b1, b2)
        lam = HyperbolicNumber(l1, l2)
        mid = comp((ONE - lam) * xi + lam * chi)
        bound = (ONE - lam) * comp(xi) + lam * comp(chi)
        if mid.x1 > bound.x1 + slack or mid.x2 > bound.x2 + slack:
            convex = False
            if len(convex_witnesses) < max_witnesses:
                convex_witnesses.append((xi, chi, lam))
        if mid.x1 < bound.x1 - slack or mid.x2 < bound.x2 - slack:
            concave = False
            if len(concave_witnesses) < max_witnesses:
                concave_witnesses.append((xi, chi, lam))
        if not concave and not convex \
                and len(concave_witnesses) >= max_witnesses \
                and len(convex_witnesses) >= max_witnesses:
            break
    return ConcavityResult(concave, convex, concave_witnesses, convex_witnesses)
