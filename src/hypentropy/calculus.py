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
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    EmptyDomain,
    HypothesisViolated,
    NonConvergent,
    OutsideDomain,
)
from .hyperbolic import (
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
    "limit_points",
    "fd_points",
    "lhopital_check",
    "concavity_probe",
]

FD_STEP = 1e-6
CR_TOL = 1e-6
LIMIT_TOL = 1e-8
# hyp_limit's steps t, shrinking tenfold from 1e-3 to 1e-13 on either side.
LIMIT_STEPS = tuple(10.0 ** (-3 - n) for n in range(11))
LHOPITAL_TOL = 1e-6
CONCAVITY_SLACK = 1e-10
# Samples per block of concavity_probe: each block is tested as numpy
# arrays, and an early exit stops at the end of the block in which both
# witness lists fill, so it evaluates at most one block too many.
_PROBE_CHUNK = 1024
# Blocks per ``randoms`` call of concavity_probe.  On a 2-CPU AVX-512 host,
# 4 blocks halve the draw time of a 10,000-sample probe (6.3 -> 3.0 ms); 16
# took 2.4 ms but raised the probe's peak RSS by another 0.4 MB.
_PROBE_POOL = 4

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


def fd_points(x: float) -> tuple[float, tuple[float, float, float, float]]:
    """The step h of a finite-difference derivative at x, and the points
    x + h, x - h, x + h/2, x - h/2 at which it evaluates the function, in
    that order."""
    # A fixed (non-adaptive) step keeps verification output deterministic.
    h = max(FD_STEP, FD_STEP * abs(x))
    return h, (x + h, x - h, x + h / 2.0, x - h / 2.0)


def _fd_derivative(f: RealFn, x: float) -> float:
    # Central difference with one Richardson step.
    h, (right, left, half_right, half_left) = fd_points(x)
    d1 = (f(right) - f(left)) / (2.0 * h)
    d2 = (f(half_right) - f(half_left)) / h
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
    holds = abs(residuals.x1) < CR_TOL and abs(residuals.x2) < CR_TOL
    return CauchyRiemannResult(holds, residuals)


def limit_points(xi0: HyperbolicNumber
                 ) -> list[tuple[HyperbolicNumber, HyperbolicNumber]]:
    """The points at which ``hyp_limit`` evaluates F, in order: the pair
    (xi0 + t*(e1+e2), xi0 - t*(e1+e2)) for each t of ``LIMIT_STEPS``."""
    return [(xi0 + embed_real(t), xi0 - embed_real(t)) for t in LIMIT_STEPS]


def hyp_limit(
    F: Union[ComponentFunction, DifferentiableFunction, HypMap],
    xi0: HyperbolicNumber,
) -> HyperbolicNumber:
    """Numerical limit of F at xi0 along xi0 + t*(e1+e2), t = +/- 10^(-3-n).

    Two-sided evaluation averages out the odd error terms; a single Richardson
    step then removes the leading even term.  The best-settled pair of
    successive extrapolants is returned; if even that pair differs by more
    than ``LIMIT_TOL`` the limit is declared non-convergent.
    """
    means: list[tuple[float, float]] = []
    for above_xi, below_xi in limit_points(xi0):
        above = F(above_xi)
        below = F(below_xi)
        means.append(((above.x1 + below.x1) / 2.0,
                      (above.x2 + below.x2) / 2.0))

    # Steps shrink by 10x: weight 100/99 cancels t^2.
    extrap = [
        (
            (100.0 * means[n + 1][0] - means[n][0]) / 99.0,
            (100.0 * means[n + 1][1] - means[n][1]) / 99.0,
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
    if best_idx is None or best_diff > LIMIT_TOL:
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
) -> LHopitalResult:
    """Verify a 0/0 limit two ways: as the limit of F/G and as the limit of
    F'/G'.

    Requires both functions to vanish at xi0 (within ``10 * LIMIT_TOL``) and
    G' at xi0 to stay off the zero-divisor set; the two limits agree when
    they differ by less than ``LHOPITAL_TOL`` in each coordinate.
    """
    f0 = hyp_limit(F, xi0)
    g0 = hyp_limit(G, xi0)
    small = 10.0 * LIMIT_TOL
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

    lhs = hyp_limit(ratio, xi0)
    rhs = hyp_limit(derivative_ratio, xi0)
    agree = (abs(lhs.x1 - rhs.x1) < LHOPITAL_TOL
             and abs(lhs.x2 - rhs.x2) < LHOPITAL_TOL)
    return LHopitalResult(lhs, rhs, agree)


@dataclass(frozen=True)
class ConcavityResult:
    concave: bool
    convex: bool
    concave_witnesses: list = field(default_factory=list)
    convex_witnesses: list = field(default_factory=list)


def _witnesses(found: np.ndarray, room: int, *coords: np.ndarray) -> list:
    """The first ``room`` found samples as (xi, chi, lambda), Python floats."""
    return [tuple(HyperbolicNumber(*x[:, i].tolist()) for x in coords)
            for i in found[:max(room, 0)]]


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
    Samples are drawn ``_PROBE_POOL`` blocks at a time and tested one block
    of ``_PROBE_CHUNK`` at a time as arrays; F's coordinate functions run
    once per element on Python floats, and the witnesses are the first
    violations in sample order.
    """
    comp = _as_component(F)
    dom = domain if domain is not None else comp.domain
    if dom is None:
        raise EmptyDomain("concavity_probe needs a bounded order interval")
    lo, hi = dom.lo, dom.hi
    if not (lo.x1 < hi.x1 and lo.x2 < hi.x2):
        raise EmptyDomain(f"degenerate interval [{lo}, {hi}]")

    def values(x: np.ndarray) -> np.ndarray:
        # F's coordinate functions, called once per element on Python floats.
        return np.array([list(map(f, row)) for f, row
                         in zip((comp.f1, comp.f2), x.tolist())], dtype=float)

    # Per sample: two x1 uniforms, two x2 uniforms, then lambda's two weights,
    # in the order they come from the stream; lo + (hi - lo) * r is the float
    # arithmetic of ``rng.uniform``.
    low = np.array([lo.x1, lo.x1, lo.x2, lo.x2, 0.0, 0.0])
    span = np.array([hi.x1, hi.x1, hi.x2, hi.x2, 1.0, 1.0]) - low
    rng = Xoshiro256StarStar(seed)
    concave = True
    convex = True
    concave_witnesses: list = []
    convex_witnesses: list = []
    pool = np.empty((0, 6))
    for start in range(0, samples, _PROBE_CHUNK):
        if not pool.size:
            k = min(_PROBE_POOL * _PROBE_CHUNK, samples - start)
            pool = rng.randoms(6 * k).reshape(k, 6)
        draws = (low + span * pool[:_PROBE_CHUNK]).T
        pool = pool[_PROBE_CHUNK:]
        # Row j of a, b and lam is idempotent coordinate j + 1, column i is
        # sample i; each element sees the float operations of the
        # HyperbolicNumber arithmetic, in the same order.
        a = np.minimum(draws[0:4:2], draws[1:4:2])
        b = np.maximum(draws[0:4:2], draws[1:4:2])
        lam = draws[4:]
        mid = values((1.0 - lam) * a + lam * b)
        fa, fb = values(a), values(b)
        # Like Python floats, an infinite F value gives inf or nan unwarned.
        with np.errstate(over="ignore", invalid="ignore"):
            bound = (1.0 - lam) * fa + lam * fb
        above = np.flatnonzero((mid > bound + slack).any(axis=0))
        below = np.flatnonzero((mid < bound - slack).any(axis=0))
        if above.size:
            convex = False
            convex_witnesses += _witnesses(
                above, max_witnesses - len(convex_witnesses), a, b, lam)
        if below.size:
            concave = False
            concave_witnesses += _witnesses(
                below, max_witnesses - len(concave_witnesses), a, b, lam)
        if not concave and not convex \
                and len(concave_witnesses) >= max_witnesses \
                and len(convex_witnesses) >= max_witnesses:
            break
    return ConcavityResult(concave, convex, concave_witnesses, convex_witnesses)
