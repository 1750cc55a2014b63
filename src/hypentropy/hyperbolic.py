"""Arithmetic, order and elementary functions on the hyperbolic (split-complex) plane.

A hyperbolic number is a + b*k with k*k = 1.  Internally every value is kept
in idempotent coordinates (x1, x2) relative to e1 = (1+k)/2 and e2 = (1-k)/2,
where every ring operation acts independently on each coordinate.  The
{1, k} basis is exposed only as an I/O view.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import FrozenInstanceError, dataclass

from .errors import DivisionByZeroDivisor, DomainError, NonFinite, ParseError

__all__ = [
    "HyperbolicNumber",
    "HyperbolicInterval",
    "Ordering",
    "ZERO",
    "ONE",
    "E1",
    "E2",
    "K",
    "embed_real",
    "from_unit_k",
    "partial_cmp",
    "modulus_k",
    "hyp_pow",
    "hyp_log",
    "hyp_exp",
    "metric_dk",
    "approx_eq",
    "parse_hyperbolic",
]

_DEFAULT_TOL = 1e-12


class Ordering(enum.Enum):
    """Result of comparing two hyperbolic numbers under the partial order."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


class HyperbolicNumber:
    """Element of the hyperbolic plane in idempotent coordinates (x1, x2).

    An immutable value: equal and hashed as the tuple (x1, x2), with the
    partial order of ``preceq``/``prec``/``partial_cmp`` and no ``<``.  The
    coordinates live in slots and are stored as given, with no coercion.
    """

    __slots__ = ("x1", "x2")
    __match_args__ = ("x1", "x2")

    x1: float
    x2: float

    def __init__(self, x1: float, x2: float) -> None:
        _set_x1(self, x1)
        _set_x2(self, x2)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__: restoring slot state
        # would go through the frozen __setattr__.
        return self.__class__, (self.x1, self.x2)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.x1, self.x2) == (other.x1, other.x2)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x1, self.x2))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(x1={self.x1!r}, x2={self.x2!r})"

    # -- constructors / views ------------------------------------------------

    @staticmethod
    def from_unit_k(a: float, b: float) -> "HyperbolicNumber":
        """Build from the {1, k} basis: a + b*k maps to (a+b, a-b)."""
        return HyperbolicNumber(a + b, a - b)

    def to_unit_k(self) -> tuple[float, float]:
        """Coefficients (a, b) of the {1, k} basis view."""
        return (self.x1 + self.x2) / 2.0, (self.x1 - self.x2) / 2.0

    # -- predicates -----------------------------------------------------------

    def is_zero_divisor(self) -> bool:
        """True iff the value lies in G: exactly one coordinate is zero."""
        return (self.x1 == 0.0) != (self.x2 == 0.0)

    def in_g0(self) -> bool:
        """True iff the value lies in G0 = G together with zero."""
        return self.x1 * self.x2 == 0.0

    def is_positive(self) -> bool:
        """Strictly positive: both coordinates > 0."""
        return self.x1 > 0.0 and self.x2 > 0.0

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "HyperbolicNumber") -> "HyperbolicNumber":
        return HyperbolicNumber(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "HyperbolicNumber") -> "HyperbolicNumber":
        return HyperbolicNumber(self.x1 - other.x1, self.x2 - other.x2)

    def __mul__(self, other: "HyperbolicNumber") -> "HyperbolicNumber":
        return HyperbolicNumber(self.x1 * other.x1, self.x2 * other.x2)

    def __truediv__(self, other: "HyperbolicNumber") -> "HyperbolicNumber":
        if other.in_g0():
            raise DivisionByZeroDivisor(
                f"cannot divide by {other!r}: a coordinate is zero"
            )
        return HyperbolicNumber(self.x1 / other.x1, self.x2 / other.x2)

    def __neg__(self) -> "HyperbolicNumber":
        return HyperbolicNumber(-self.x1, -self.x2)

    # -- order predicates (componentwise) --------------------------------------

    def preceq(self, other: "HyperbolicNumber") -> bool:
        return self.x1 <= other.x1 and self.x2 <= other.x2

    def prec(self, other: "HyperbolicNumber") -> bool:
        return self.x1 < other.x1 and self.x2 < other.x2

    # -- rendering --------------------------------------------------------------

    def __str__(self) -> str:
        return f"{self.x1:.17g}*e1+{self.x2:.17g}*e2"

    def str_unit_k(self) -> str:
        a, b = self.to_unit_k()
        sign = "+" if b >= 0 or math.isnan(b) else "-"
        return f"{a:.17g}{sign}{abs(b):.17g}k"


_set_x1 = HyperbolicNumber.x1.__set__
_set_x2 = HyperbolicNumber.x2.__set__

ZERO = HyperbolicNumber(0.0, 0.0)
ONE = HyperbolicNumber(1.0, 1.0)
E1 = HyperbolicNumber(1.0, 0.0)
E2 = HyperbolicNumber(0.0, 1.0)
K = HyperbolicNumber(1.0, -1.0)  # k = e1 - e2


def embed_real(x: float) -> HyperbolicNumber:
    """Embed a real number: x maps to x*e1 + x*e2."""
    if not math.isfinite(x):
        raise NonFinite(f"cannot embed non-finite real {x!r}")
    return HyperbolicNumber(x, x)


def from_unit_k(a: float, b: float) -> HyperbolicNumber:
    return HyperbolicNumber.from_unit_k(a, b)


def partial_cmp(xi: HyperbolicNumber, chi: HyperbolicNumber) -> Ordering:
    """Compare under the partial order.

    LESS/GREATER require strict inequality in both coordinates; EQUAL requires
    equality in both.  Everything else (including ties in one coordinate) is
    INCOMPARABLE, so callers can never mistake a partial comparison for a
    total one.
    """
    if xi.x1 == chi.x1 and xi.x2 == chi.x2:
        return Ordering.EQUAL
    if xi.x1 < chi.x1 and xi.x2 < chi.x2:
        return Ordering.LESS
    if xi.x1 > chi.x1 and xi.x2 > chi.x2:
        return Ordering.GREATER
    return Ordering.INCOMPARABLE


def modulus_k(xi: HyperbolicNumber) -> HyperbolicNumber:
    """Coordinatewise absolute value |x1|e1 + |x2|e2."""
    return HyperbolicNumber(abs(xi.x1), abs(xi.x2))


def _real_pow(a: float, b: float, zero_zero_one: bool) -> float:
    if a < 0.0:
        raise DomainError(f"negative base component {a!r} in hyperbolic power")
    if a == 0.0:
        if b > 0.0:
            return 0.0
        if b == 0.0 and zero_zero_one:
            return 1.0
        raise DomainError(
            f"0 ** {b!r} is undefined (enable zero_zero_one for 0**0 = 1)"
        )
    return a ** b


def hyp_pow(
    base: HyperbolicNumber,
    exponent: HyperbolicNumber,
    *,
    zero_zero_one: bool = False,
) -> HyperbolicNumber:
    """Hyperbolic power a1**b1 e1 + a2**b2 e2.

    Base coordinates must be >= 0; zero base coordinates need a positive
    exponent coordinate, except that ``zero_zero_one`` opts into 0**0 = 1.
    """
    return HyperbolicNumber(
        _real_pow(base.x1, exponent.x1, zero_zero_one),
        _real_pow(base.x2, exponent.x2, zero_zero_one),
    )


def hyp_log(xi: HyperbolicNumber) -> HyperbolicNumber:
    """Natural logarithm per coordinate; requires both coordinates > 0."""
    if xi.x1 <= 0.0 or xi.x2 <= 0.0:
        raise DomainError(f"hyp_log requires positive coordinates, got {xi!r}")
    return HyperbolicNumber(math.log(xi.x1), math.log(xi.x2))


def hyp_exp(xi: HyperbolicNumber) -> HyperbolicNumber:
    """Exponential per coordinate."""
    return HyperbolicNumber(math.exp(xi.x1), math.exp(xi.x2))


def metric_dk(xi: HyperbolicNumber, chi: HyperbolicNumber) -> HyperbolicNumber:
    """Hyperbolic-valued distance |x1-y1|e1 + |x2-y2|e2."""
    return modulus_k(xi - chi)


def approx_eq(
    xi: HyperbolicNumber, chi: HyperbolicNumber, tol: float = _DEFAULT_TOL
) -> bool:
    """Componentwise absolute-tolerance comparison (exact equality is ==)."""
    return abs(xi.x1 - chi.x1) <= tol and abs(xi.x2 - chi.x2) <= tol


@dataclass(frozen=True)
class HyperbolicInterval:
    """Order interval [lo, hi] (or open version) under the partial order."""

    lo: HyperbolicNumber
    hi: HyperbolicNumber
    closed: bool = True

    def __post_init__(self) -> None:
        if not self.lo.preceq(self.hi):
            raise DomainError(f"interval endpoints not ordered: {self.lo} vs {self.hi}")
        if self.closed and (self.hi - self.lo).is_zero_divisor():
            raise DomainError(
                "closed interval requires hi - lo outside the zero-divisor set"
            )

    def contains(self, xi: HyperbolicNumber) -> bool:
        if self.closed:
            return self.lo.preceq(xi) and xi.preceq(self.hi)
        return self.lo.prec(xi) and xi.prec(self.hi)

    def contains_interior(self, xi: HyperbolicNumber) -> bool:
        return self.lo.prec(xi) and xi.prec(self.hi)


_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_UNIT_K_RE = re.compile(rf"^\s*({_NUM})\s*([+-])\s*({_NUM})\s*\*?\s*k\s*$")
_IDEMPOTENT_RE = re.compile(
    rf"^\s*({_NUM})\s*\*?\s*e1\s*([+-])\s*({_NUM})\s*\*?\s*e2\s*$"
)


def parse_hyperbolic(text: str) -> HyperbolicNumber:
    """Parse either "a+bk" or "x1*e1+x2*e2" (and their spacing variants).

    A coordinate that is not finite, as written or after the {1, k} sum
    overflows, is a ParseError.
    """
    m = _IDEMPOTENT_RE.match(text)
    if m:
        x1 = float(m.group(1))
        x2 = float(m.group(3))
        if m.group(2) == "-":
            x2 = -x2
        xi = HyperbolicNumber(x1, x2)
    elif m := _UNIT_K_RE.match(text):
        a = float(m.group(1))
        b = float(m.group(3))
        if m.group(2) == "-":
            b = -b
        xi = HyperbolicNumber.from_unit_k(a, b)
    else:
        try:
            return embed_real(float(text))
        except (ValueError, NonFinite):
            raise ParseError(
                f"cannot parse hyperbolic number from {text!r}") from None
    if not (math.isfinite(xi.x1) and math.isfinite(xi.x2)):
        raise ParseError(f"non-finite coordinate in hyperbolic number {text!r}")
    return xi
