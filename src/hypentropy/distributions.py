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
import itertools
import json
import math
import warnings
import weakref
from dataclasses import dataclass
from typing import Optional

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
from .runs import Runs

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
    "SEEDED_FAMILIES",
    "from_text",
]

SUM_TOL = 1e-9


class Case(enum.Enum):
    FULL = "full"
    E1_ONLY = "e1"
    E2_ONLY = "e2"


def _check_components(p: np.ndarray, noun: str) -> None:
    """Every entry of a non-empty p in [0, 1]."""
    lo = float(p.min())
    # The minimum is NaN when any entry is, and NaN fails every comparison.
    if not lo >= 0:
        if math.isnan(lo):
            raise NegativeComponent("probability is NaN")
        raise NegativeComponent(f"negative {noun} {lo!r}")
    hi = float(p.max())
    if hi > 1 + SUM_TOL:
        raise ComponentExceedsOne(f"{noun} {hi!r} exceeds 1")


@dataclass(frozen=True)
class RealDistribution:
    """Finite probability vector; entries in [0, 1] summing to 1.  ``p`` is
    a float array, or a ``Runs`` as ``perturbation_family`` gives it."""

    p: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.p, Runs):
            object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.p.ndim != 1 or self.p.size < 1:
            raise SumInvalid("a distribution needs at least one entry")
        _check_components(self.p, "probability")
        total = float(self.p.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise SumInvalid(f"probabilities sum to {total!r}, expected 1")

    @property
    def n(self) -> int:
        return int(self.p.size)


def _case_of(s1: float, s2: float) -> Optional[Case]:
    """The case whose component sums are (s1, s2), or None."""
    one1 = abs(s1 - 1.0) <= SUM_TOL
    one2 = abs(s2 - 1.0) <= SUM_TOL
    if one1 and one2:
        return Case.FULL
    if one1 and s2 <= SUM_TOL:
        return Case.E1_ONLY
    if one2 and s1 <= SUM_TOL:
        return Case.E2_ONLY
    return None


@dataclass(frozen=True)
class HyperbolicDistribution:
    """Vector of hyperbolic numbers stored by idempotent projection.

    Both projections hold components in [0, 1] whose sums fit ``case``;
    anything else raises at construction.
    """

    p1: np.ndarray
    p2: np.ndarray
    case: Case

    def __post_init__(self) -> None:
        p1 = np.asarray(self.p1, dtype=float)
        p2 = np.asarray(self.p2, dtype=float)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        if p1.ndim != 1 or p1.shape != p2.shape:
            raise LengthMismatch(f"projection shapes {p1.shape} and {p2.shape}")
        if not p1.size:
            raise SumInvalid("empty distribution")
        _check_components(p1, "component")
        _check_components(p2, "component")
        s1 = float(p1.sum())
        s2 = float(p2.sum())
        found = _case_of(s1, s2)
        if found is not self.case:
            message = f"component sums ({s1!r}, {s2!r})"
            if found is not None:
                message += f" fit case {found.value}, not {self.case.value}"
            raise SumInvalid(message)

    @property
    def n(self) -> int:
        return int(self.p1.size)

    def rho(self, s: int) -> HyperbolicNumber:
        return HyperbolicNumber(float(self.p1[s]), float(self.p2[s]))

    def projection1(self) -> RealDistribution:
        if self.case is Case.E2_ONLY:
            raise CaseMismatch("case e2 has no e1 projection distribution")
        return RealDistribution(self.p1.copy())

    def projection2(self) -> RealDistribution:
        if self.case is Case.E1_ONLY:
            raise CaseMismatch("case e1 has no e2 projection distribution")
        return RealDistribution(self.p2.copy())


def validate(rows) -> HyperbolicDistribution:
    """Classify (x1, x2) rows, an (N, 2) array-like, into a hyperbolic
    distribution or reject them.

    The component sums pick the case; the constructor checks the
    components, then the sums.  Mixed zero-divisor vectors (some entries pure
    e1, others pure e2) fit no case and are rejected, since the degenerate
    cases require every entry to share the divisor form.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape == (0,):
        rows = rows.reshape(0, 2)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError(f"expected (x1, x2) rows, got an array of shape {rows.shape}")
    # One contiguous array per projection, so that every later reduction
    # runs over contiguous memory.
    p1, p2 = rows.T.copy()
    case = _case_of(float(p1.sum()), float(p2.sum()))
    # With no case to fit, FULL lets the constructor report the fault: a bad
    # component before the sums.
    return HyperbolicDistribution(p1, p2, case or Case.FULL)


def embed(P: RealDistribution) -> HyperbolicDistribution:
    """Embed a real distribution: every entry becomes p * (e1 + e2)."""
    return HyperbolicDistribution(np.array(P.p), np.array(P.p), Case.FULL)


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
    return HyperbolicDistribution(p1, p2, A.case)


@dataclass(frozen=True)
class PerturbationPair:
    """A base distribution and a designed nearby perturbation of it."""

    base: RealDistribution
    perturbed: RealDistribution
    family: str
    delta: float
    n: int


def _certainty_spread_base(n: int) -> Runs:
    return Runs((1.0, 0.0), (1, n - 1))


def _certainty_spread(n: int, delta: float) -> Runs:
    return Runs((1.0 - delta / 2.0, delta / 2.0 / (n - 1)), (1, n - 1))


def _uniform_base(n: int) -> Runs:
    return Runs((1.0 / n, 1.0 / n), (1, n - 1))


def _uniform_spike(n: int, delta: float) -> Runs:
    low = (1.0 - delta / 2.0) / n
    return Runs((low + delta / 2.0, low), (1, n - 1))


# The families whose base depends on n alone: family -> (base(n),
# perturbed(n, delta)), each as the runs of state 0 and of the other n - 1
# states.  They read no seed.
_ANALYTIC = {
    "CertaintySpread": (_certainty_spread_base, _certainty_spread),
    "UniformSpike": (_uniform_base, _uniform_spike),
}
# The families that draw their pair from the seed.
SEEDED_FAMILIES = ("RandomSmooth",)
FAMILIES = (*_ANALYTIC, *SEEDED_FAMILIES)


# The analytic bases alive, by (family, n), held weakly: the pairs
# alive at once share one base, and it is freed with the last of them.
_BASES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _random_smooth(
    n: int, delta: float, rng: Xoshiro256StarStar
) -> tuple[np.ndarray, np.ndarray]:
    # Base point: normalized exponentials, i.e. a flat Dirichlet draw.  The
    # base and the first direction come from one block draw, and each is
    # built in place in its half of it, so p and q are the only new arrays.
    draws = rng.randoms(2 * n)
    g, u = draws[:n], draws[n:]
    np.subtract(1.0, g, out=g)
    np.log(g, out=g)
    np.negative(g, out=g)
    p = g / g.sum()
    # Zero-sum direction d_i = p_i * (u_i - <u>_p) keeps perturbed entries
    # positive after scaling to L1 size delta; redraw in the rare case the
    # scaled step would leave [0, 1].  g is the scratch for |d|.
    for attempt in range(100):
        if attempt:
            u = rng.randoms(n)
        d = np.subtract(u, float(np.dot(p, u)), out=u)
        np.multiply(p, d, out=d)
        l1 = float(np.abs(d, out=g).sum())
        if l1 == 0.0:
            continue
        q = p + np.multiply(d, delta / l1, out=d)
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

    An analytic distribution is two runs, state 0 and the other n - 1
    states: its ``p`` is a ``Runs``, which the kernels and the L1 norm
    evaluate with the dense array's bits in O(log N), and ``np.asarray(p)``
    is that array.  The pairs of one analytic family and n alive at once
    share one read-only base.  RandomSmooth is dense.  An N that no float
    or array can hold is ``BadDelta``.
    """
    if n < 2:
        raise BadDelta("perturbation families need at least two states")
    if not (0.0 < delta < 1.0):
        raise BadDelta(f"delta must lie in (0, 1), got {delta!r}")
    try:
        if family in _ANALYTIC:
            base, perturbed = _ANALYTIC[family]
            P = _BASES.get((family, n))
            if P is None:
                P = _BASES[family, n] = RealDistribution(base(n))
            q = perturbed(n, delta)
        elif family == "RandomSmooth":
            p, q = _random_smooth(n, delta, Xoshiro256StarStar(seed))
            P = RealDistribution(p)
        else:
            raise BadDelta(f"unknown family {family!r}")
    except (MemoryError, ValueError, OverflowError):
        raise BadDelta(f"cannot allocate a family of {n} states") from None
    return PerturbationPair(P, RealDistribution(q), family, delta, n)


# --- serialization -----------------------------------------------------------

def hyp_to_json(B: HyperbolicDistribution) -> str:
    payload = {
        "case": B.case.value,
        "rho": [[float(a), float(b)] for a, b in zip(B.p1, B.p2)],
    }
    return json.dumps(payload)


def _check_json_cells(text: str, cells: np.ndarray, values, noun: str
                      ) -> None:
    """Reject a JSON null, true or false among the cells, and a string cell
    with a non-ASCII character, such as a fullwidth digit ``float()`` reads.

    numpy reads null, true and false as NaN, 1 and 0.  Only a cell outside
    (0, 1) can be one of them, and a string holds a non-ASCII character
    only if the text has one or an escape.  Each per-cell test runs only
    then, so a file of plain numbers costs an O(1) ``isascii`` and a
    ``memchr`` for a backslash.
    """
    if not text.isascii() or "\\" in text:
        values = list(values)
        if any(isinstance(v, str) and not v.isascii() for v in values):
            raise ValueError(f"a {noun} has a non-ASCII character")
    if ((cells > 0) & (cells < 1)).all():
        return
    kinds = set(map(type, values))
    if type(None) in kinds:
        raise TypeError(f"a {noun} is null")
    if bool in kinds:
        raise TypeError(f"a {noun} is true or false")


def hyp_from_json(text: str) -> HyperbolicDistribution:
    """Read ``{"case": ..., "rho": [[x1, x2], ...]}``; "case" is optional, and
    numbers may also be given as strings."""
    payload = json.loads(text)
    rho = payload["rho"]
    if set(map(len, rho)) - {2}:
        raise ValueError("every row of rho needs exactly two components")
    cells = np.fromiter(itertools.chain.from_iterable(rho), float, 2 * len(rho))
    _check_json_cells(text, cells, itertools.chain.from_iterable(rho),
                      "component")
    declared = payload.get("case")
    # The parsed rows take several times the cells' bytes: free them before
    # validate copies the projections.
    del payload, rho
    B = validate(cells.reshape(-1, 2))
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


def _csv_line(line: str) -> list[str]:
    """The cells of one CSV line, each stripped; quotes must close on the
    line, and only a comma may follow a closing quote."""
    try:
        return [h.strip() for h in next(csv.reader([line], strict=True))]
    except csv.Error as exc:  # an unclosed quote, or a field past the size limit
        raise ValueError(f"unreadable CSV line: {exc}") from None


def _csv_cells(text: str, header: list[str]) -> np.ndarray:
    """The cells under a CSV header line, as an (N, len(header)) array.

    Cells are comma-separated numbers, optionally in double quotes; cells
    past the header's columns are ignored, empty lines are skipped, and any
    other line (a comment, a short row, a non-numeric cell or one with a
    non-ASCII character) is a ValueError.
    A line that holds a quote is read as ``_csv_line`` reads the header
    too, since ``np.loadtxt`` would read an unclosed quote on to the end of
    the text.
    """
    lines = text.split("\n")
    head = lines.pop(0)
    if _csv_line(head) != header:
        raise SumInvalid(f"CSV input requires a {','.join(header)!r} header")
    if text.find('"', len(head)) >= 0:
        for line in lines:
            if '"' in line:
                _csv_line(line)
    if not text.isascii():
        # np.loadtxt reads a number with non-ASCII spaces around it.
        for line in lines:
            if not line.isascii() and not all(map(
                    str.isascii, next(csv.reader([line]))[:len(header)])):
                raise ValueError(f"a CSV cell has a non-ASCII character: "
                                 f"{line!r}")
    with warnings.catch_warnings():
        # No data lines give an empty array; the caller rejects it.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"',
                          usecols=range(len(header)), ndmin=2)


def hyp_from_csv(text: str) -> HyperbolicDistribution:
    """Read a ``p1,p2`` header line, then one ``x1,x2`` row per state."""
    return validate(_csv_cells(text, ["p1", "p2"]))


def real_to_json(P: RealDistribution) -> str:
    return json.dumps([float(v) for v in np.asarray(P.p)])


def real_from_json(text: str) -> RealDistribution:
    values = json.loads(text)
    p = np.asarray(values, dtype=float)
    if p.ndim != 1:
        raise ValueError("expected a flat array of probabilities, "
                         f"got an array of shape {p.shape}")
    _check_json_cells(text, p, values, "probability")
    return RealDistribution(p)


def real_to_csv(P: RealDistribution) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p"])
    for v in np.asarray(P.p):
        writer.writerow([f"{v:.17g}"])
    return buf.getvalue()


def real_from_csv(text: str) -> RealDistribution:
    """Read a ``p`` header line, then one probability per line."""
    return RealDistribution(_csv_cells(text, ["p"])[:, 0])


def from_text(text: str) -> RealDistribution | HyperbolicDistribution:
    """Read a distribution in whichever of the four formats ``text`` is in.

    A JSON object is hyperbolic and a JSON array real; CSV text is
    hyperbolic under a ``p1,p2`` header and real under a ``p`` header.
    Anything else is a ValueError, as malformed text is in each loader.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return hyp_from_json(text)
    if stripped.startswith("["):
        return real_from_json(text)
    end = text.find("\n")
    header = _csv_line(text if end < 0 else text[:end])
    if header == ["p1", "p2"]:
        return hyp_from_csv(text)
    if header == ["p"]:
        return real_from_csv(text)
    raise ValueError("unrecognized distribution format: expected a JSON "
                     "object or array, or a 'p1,p2' or 'p' CSV header")
