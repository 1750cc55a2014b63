"""Real and hyperbolic probability distributions, mixing, perturbations, I/O.

A hyperbolic distribution is a vector of hyperbolic numbers inside
[0, 1_D] whose sum is 1_D (case ``full``), 1*e1 (case ``e1``) or 1*e2
(case ``e2``).  Both idempotent projections of a full distribution are
ordinary probability vectors, which is what every entropy measure in this
package ultimately consumes.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    BadDelta,
    CaseMismatch,
    ComponentExceedsOne,
    LambdaOutOfRange,
    LengthMismatch,
    NegativeComponent,
    SumInvalid,
)
from .hyperbolic import HyperbolicNumber
from .rng import Xoshiro256StarStar

__all__ = [
    "SUM_TOL",
    "Case",
    "RealDistribution",
    "HyperbolicDistribution",
    "PerturbationPair",
    "validate",
    "embed",
    "uniform",
    "uniform_hyp",
    "mix",
    "perturbation_family",
    "FAMILIES",
]

SUM_TOL = 1e-9


class Case(enum.Enum):
    FULL = "full"
    E1_ONLY = "e1"
    E2_ONLY = "e2"


@dataclass(frozen=True)
class RealDistribution:
    """Finite probability vector; entries in [0, 1] summing to 1."""

    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.p.ndim != 1 or self.p.size < 1:
            raise SumInvalid("a distribution needs at least one entry")
        # Written as "not all >= 0" so that NaN, which fails every
        # comparison, is caught in the same pass.
        if not np.all(self.p >= 0):
            if np.isnan(self.p).any():
                raise NegativeComponent("probability is NaN")
            raise NegativeComponent(f"negative probability {float(self.p.min())!r}")
        if np.any(self.p > 1 + SUM_TOL):
            raise ComponentExceedsOne(f"probability {float(self.p.max())!r} exceeds 1")
        total = float(self.p.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise SumInvalid(f"probabilities sum to {total!r}, expected 1")

    @property
    def n(self) -> int:
        return int(self.p.size)

    def __iter__(self):
        return iter(self.p)


@dataclass(frozen=True)
class HyperbolicDistribution:
    """Vector of hyperbolic numbers stored by idempotent projection."""

    p1: np.ndarray
    p2: np.ndarray
    case: Case

    @property
    def n(self) -> int:
        return int(self.p1.size)

    def rho(self, s: int) -> HyperbolicNumber:
        return HyperbolicNumber(float(self.p1[s]), float(self.p2[s]))

    def rhos(self) -> list[HyperbolicNumber]:
        return [self.rho(s) for s in range(self.n)]

    def projection1(self) -> RealDistribution:
        if self.case is Case.E2_ONLY:
            raise CaseMismatch("case e2 has no e1 projection distribution")
        return RealDistribution(self.p1.copy())

    def projection2(self) -> RealDistribution:
        if self.case is Case.E1_ONLY:
            raise CaseMismatch("case e1 has no e2 projection distribution")
        return RealDistribution(self.p2.copy())


def validate(raw: Iterable[tuple[float, float]]) -> HyperbolicDistribution:
    """Classify raw (x1, x2) pairs into a hyperbolic distribution or reject.

    Mixed zero-divisor vectors (some entries pure e1, others pure e2) fall
    through to the sum check and are rejected, since the degenerate cases
    require every entry to share the divisor form.
    """
    pairs = list(raw)
    if not pairs:
        raise SumInvalid("empty distribution")
    p1 = np.array([a for a, _ in pairs], dtype=float)
    p2 = np.array([b for _, b in pairs], dtype=float)
    for arr in (p1, p2):
        if np.any(arr < 0):
            raise NegativeComponent(f"negative component {float(arr.min())!r}")
        if np.any(arr > 1 + SUM_TOL):
            raise ComponentExceedsOne(f"component {float(arr.max())!r} exceeds 1")
    s1 = float(p1.sum())
    s2 = float(p2.sum())
    if abs(s1 - 1.0) <= SUM_TOL and abs(s2 - 1.0) <= SUM_TOL:
        return HyperbolicDistribution(p1, p2, Case.FULL)
    if abs(s1 - 1.0) <= SUM_TOL and s2 <= SUM_TOL:
        return HyperbolicDistribution(p1, p2, Case.E1_ONLY)
    if s1 <= SUM_TOL and abs(s2 - 1.0) <= SUM_TOL:
        return HyperbolicDistribution(p1, p2, Case.E2_ONLY)
    raise SumInvalid(f"component sums ({s1!r}, {s2!r})")


def embed(P: RealDistribution) -> HyperbolicDistribution:
    """Embed a real distribution: every entry becomes p * (e1 + e2)."""
    return HyperbolicDistribution(P.p.copy(), P.p.copy(), Case.FULL)


def uniform(n: int) -> RealDistribution:
    if n < 1:
        raise SumInvalid("need at least one state")
    return RealDistribution(np.full(n, 1.0 / n))


def uniform_hyp(n: int) -> HyperbolicDistribution:
    return embed(uniform(n))


def mix(
    A: HyperbolicDistribution,
    B: HyperbolicDistribution,
    lam: HyperbolicNumber,
) -> HyperbolicDistribution:
    """Entrywise affine combination (1_D - lam) * A + lam * B."""
    if A.case is not B.case:
        raise CaseMismatch(f"cannot mix case {A.case.value} with {B.case.value}")
    if A.n != B.n:
        raise LengthMismatch(f"length mismatch: {A.n} vs {B.n}")
    if not (0.0 <= lam.x1 <= 1.0 and 0.0 <= lam.x2 <= 1.0):
        raise LambdaOutOfRange(f"lambda {lam} outside [0, 1_D]")
    p1 = (1.0 - lam.x1) * A.p1 + lam.x1 * B.p1
    p2 = (1.0 - lam.x2) * A.p2 + lam.x2 * B.p2
    return validate(zip(p1, p2))


@dataclass(frozen=True)
class PerturbationPair:
    """A base distribution and a designed nearby perturbation of it."""

    base: RealDistribution
    perturbed: RealDistribution
    family: str
    delta: float
    n: int


FAMILIES = ("CertaintySpread", "UniformSpike", "RandomSmooth")


def _certainty_spread(n: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    p = np.zeros(n)
    p[0] = 1.0
    q = np.full(n, delta / (2.0 * (n - 1)))
    q[0] = 1.0 - delta / 2.0
    return p, q


def _uniform_spike(n: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    p = np.full(n, 1.0 / n)
    q = np.full(n, (1.0 - delta / 2.0) / n)
    q[0] += delta / 2.0
    return p, q


def _random_smooth(
    n: int, delta: float, rng: Xoshiro256StarStar
) -> tuple[np.ndarray, np.ndarray]:
    # Base point: normalized exponentials, i.e. a flat Dirichlet draw.
    g = -np.log(1.0 - rng.randoms(n))
    p = g / g.sum()
    # Zero-sum direction d_i = p_i * (u_i - <u>_p) keeps perturbed entries
    # positive after scaling to L1 size delta; redraw in the rare case the
    # scaled step would leave [0, 1].
    for _ in range(100):
        u = rng.randoms(n)
        d = p * (u - float(np.dot(p, u)))
        l1 = float(np.abs(d).sum())
        if l1 == 0.0:
            continue
        q = p + (delta / l1) * d
        if np.all(q >= 0.0) and np.all(q <= 1.0):
            return p, q
    raise BadDelta(f"could not realize an L1 perturbation of size {delta!r}")


def perturbation_family(
    family: str, n: int, delta: float, seed: int = 0
) -> PerturbationPair:
    """Generate one adversarial (base, perturbed) pair.

    CertaintySpread spreads a point mass (L1 distance exactly delta);
    UniformSpike adds a spike of delta/2 on a uniform base (L1 distance
    delta * (1 - 1/n)); RandomSmooth perturbs a seeded random base along a
    zero-sum direction with L1 distance exactly delta.
    """
    if n < 2:
        raise BadDelta("perturbation families need at least two states")
    if not (0.0 < delta < 1.0):
        raise BadDelta(f"delta must lie in (0, 1), got {delta!r}")
    if family == "CertaintySpread":
        p, q = _certainty_spread(n, delta)
    elif family == "UniformSpike":
        p, q = _uniform_spike(n, delta)
    elif family == "RandomSmooth":
        p, q = _random_smooth(n, delta, Xoshiro256StarStar(seed))
    else:
        raise BadDelta(f"unknown family {family!r}")
    return PerturbationPair(
        RealDistribution(p), RealDistribution(q), family, delta, n
    )


# --- serialization -----------------------------------------------------------

def hyp_to_json(B: HyperbolicDistribution) -> str:
    payload = {
        "case": B.case.value,
        "rho": [[float(a), float(b)] for a, b in zip(B.p1, B.p2)],
    }
    return json.dumps(payload)


def hyp_from_json(text: str) -> HyperbolicDistribution:
    payload = json.loads(text)
    B = validate((float(a), float(b)) for a, b in payload["rho"])
    declared = payload.get("case")
    if declared is not None and declared != B.case.value:
        raise CaseMismatch(
            f"declared case {declared!r}, classified {B.case.value!r}"
        )
    return B


def hyp_to_csv(B: HyperbolicDistribution) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p1", "p2"])
    for a, b in zip(B.p1, B.p2):
        writer.writerow([f"{a:.17g}", f"{b:.17g}"])
    return buf.getvalue()


def hyp_from_csv(text: str) -> HyperbolicDistribution:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["p1", "p2"]:
        raise SumInvalid("hyperbolic CSV requires a 'p1,p2' header")
    return validate((float(row[0]), float(row[1])) for row in reader if row)


def real_to_json(P: RealDistribution) -> str:
    return json.dumps([float(v) for v in P.p])


def real_from_json(text: str) -> RealDistribution:
    return RealDistribution(np.asarray(json.loads(text), dtype=float))


def real_to_csv(P: RealDistribution) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p"])
    for v in P.p:
        writer.writerow([f"{v:.17g}"])
    return buf.getvalue()


def real_from_csv(text: str) -> RealDistribution:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["p"]:
        raise SumInvalid("real CSV requires a 'p' header")
    return RealDistribution(
        np.array([float(row[0]) for row in reader if row], dtype=float)
    )
