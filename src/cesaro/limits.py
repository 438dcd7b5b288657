"""Upper/lower Cesàro limits: exact where structure allows, streamed otherwise.

The exact engine (``exprs._exact``) evaluates each node's one exact rule
once: a periodic normal form (residues modulo m as a sorted int64 array,
possibly perturbed by a density-zero set), else the node's limits.  A
null perturbation never moves the upper or lower limit, so |R|/m survives
finite exceptions and unions with known null sets.  Block and greedy
families have closed forms; complements, dilations, shifts and midpoints
follow from their operands' results, and a Boolean node with no joint
form retries once on its ``canonicalize``d expression.  Everything else
falls back to a windowed streaming estimate with an explicit Unknown
verdict when the evidence is inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .exprs import NotExactlySolvable, SetExpr, _exact, gap_functions, indicator

DEFAULT_HORIZON = 10**6
DEFAULT_WINDOW = 0.5
DEFAULT_TOLERANCE = 1e-3


class Verdict(str, Enum):
    IN_F = "InF"
    NOT_IN_F = "NotInF"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class LimitReport:
    upper: Fraction | float
    lower: Fraction | float
    limit: Fraction | float | None
    method: str  # "exact" | "block-formula" | "streamed"
    horizon: int | None
    tolerance: float
    verdict: Verdict

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper <= 1):
            raise ValueError("limits must satisfy 0 <= lower <= upper <= 1")
        if self.verdict is Verdict.IN_F and self.limit is None:
            raise ValueError("InF verdict requires a limit value")
        if self.method in ("exact", "block-formula") and self.tolerance != 0:
            raise ValueError("exact methods carry zero tolerance")

    @property
    def exact(self) -> bool:
        return self.method in ("exact", "block-formula")

    def as_dict(self) -> dict:
        def render(v):
            if v is None:
                return None
            if isinstance(v, Fraction):
                return {"rational": f"{v.numerator}/{v.denominator}", "value": float(v)}
            return {"value": float(v)}

        return {
            "upper": render(self.upper),
            "lower": render(self.lower),
            "limit": render(self.limit),
            "method": self.method,
            "horizon": self.horizon,
            "tolerance": self.tolerance,
            "verdict": self.verdict.value,
        }


def exact_limits(e: SetExpr) -> LimitReport:
    """Exact upper/lower limits, or NotExactlySolvable.

    Covers residue/explicit Boolean combinations (with null perturbations),
    geometric and polynomial block sets, greedy targets, registered
    predicates with known limits, and midpoints/complements/affine images
    of all of these.
    """
    upper, lower, method = _exact(e)
    verdict = Verdict.IN_F if upper == lower else Verdict.NOT_IN_F
    return LimitReport(upper, lower, upper if upper == lower else None, method, None, 0, verdict)


# ---------------------------------------------------------------------------
# streamed estimation


#: Elements per chunk of the chunked passes over a mask; their buffers
#: and temporaries are this long.
_CHUNK = 1 << 16


def _running_averages(mask: np.ndarray, first: int, last: int):
    """(c_first, c_n/n, c_n - c_first) for n in (first, last], c_n counting
    the members among the first n entries of ``mask``.

    The dense recount behind ``uniformity_check``'s exact test, at about
    6 ns per element.  The counts are int32 (masks are shorter than
    ``MAX_MASK``); c_n/n is the same float64 as from an N-long count array.
    """
    carry = int(np.count_nonzero(mask[:first]))
    run = np.add.accumulate(mask[first:last], dtype=np.int32)
    # carry + run[i] <= last < 2**31, so the integer sum cannot overflow
    avg = np.add(run, carry, dtype=np.float64)
    avg /= np.arange(first + 1, last + 1, dtype=np.float64)
    return carry, avg, run


_STEPS = np.arange(_CHUNK // 2, dtype=np.float64)


def _piece_extremes(seg: np.ndarray, a: int, carry: int, buf: np.ndarray):
    """(max, min) of c_n/n over n in (a, a + k], and the piece's count, for
    ``seg`` = mask[a : a + k] with 0 < k <= ``_CHUNK``, c_a = carry and a
    float64 work array ``buf`` of shape (3, ``_CHUNK // 2``).

    c_n/n rises at each member, as (c + 1)/n >= c/(n - 1), and falls at each
    non-member, so its extremes lie at a + 1, at a + k, or at or just before
    a position of the rarer bit, where the count is closed-form in the
    position.  Rounding is monotone: the float extremes are the dense ones.
    """
    k = seg.size
    total = int(np.count_nonzero(seg))
    ends = ((carry + int(seg[0])) / (a + 1), (carry + total) / (a + k))
    members = 2 * total <= k
    r = np.flatnonzero(seg if members else ~seg)
    m = r.size
    c, n, q = buf[:, :m]
    # the j-th rarer bit lies at n = a + r + 1, where c_n is carry + j + 1
    # for a member and carry + r - j for a non-member
    np.add(r, a + 1, out=n)
    if members:
        np.add(_STEPS[:m], carry + 1, out=c)
    else:
        np.subtract(n, _STEPS[:m], out=c)
        c += carry - a - 1
    at = np.divide(c, n, out=q)
    top, bottom = at.max(initial=max(ends)), at.min(initial=min(ends))
    # one point earlier the count drops by one after a member; a rarer bit
    # at a + 1 has no such point inside the piece
    s = 1 if m and r[0] == 0 else 0
    c -= members
    n -= 1
    before = np.divide(c[s:], n[s:], out=q[s:])
    return float(before.max(initial=top)), float(before.min(initial=bottom)), total


def _window_extremes(
    mask: np.ndarray, segments: list[tuple[int, int]]
) -> list[tuple[float, float]]:
    """(max, min) of the partial averages c_n/n over n in (lo, hi], per window.

    One pass over the span of the windows, cut at every window bound and
    every ``_CHUNK`` positions, so each piece lies wholly inside or outside
    each window and windows share the pieces they overlap.  Windows must be
    nonempty.
    """
    first = min(lo for lo, _ in segments)
    last = max(hi for _, hi in segments)
    cuts = sorted({*range(first, last, _CHUNK), *(b for seg in segments for b in seg), last})
    buf = np.empty((3, _CHUNK // 2))
    carry = int(np.count_nonzero(mask[:first]))
    tops, bottoms = [], []
    for a, b in zip(cuts, cuts[1:]):
        top, bottom, total = _piece_extremes(mask[a:b], a, carry, buf)
        tops.append(top)
        bottoms.append(bottom)
        carry += total
    at = {b: i for i, b in enumerate(cuts)}
    return [(max(tops[at[lo] : at[hi]]), min(bottoms[at[lo] : at[hi]])) for lo, hi in segments]


def _estimate(
    e: SetExpr, horizon: int, window: float, tolerance: float
) -> tuple[LimitReport, list[tuple[float, float]]]:
    """``estimate_limits``, plus the (max, min) of each doubling sub-window."""
    if horizon < 1000:
        raise ValueError("estimation horizon must be >= 1000")
    if not (0 < window < 1):
        raise ValueError("window must lie in (0, 1)")
    start = max(1, math.ceil((1 - window) * horizon))
    doubling = [(horizon // 2, horizon), (horizon // 4, horizon // 2), (horizon // 8, horizon // 4)]
    (upper, lower), *subs = _window_extremes(
        indicator(e, horizon), [(start - 1, horizon), *doubling]
    )
    persistent = all(mx - mn > tolerance for mx, mn in subs)

    if upper - lower <= tolerance:
        verdict, limit = Verdict.IN_F, (upper + lower) / 2
    elif persistent:
        verdict, limit = Verdict.NOT_IN_F, None
    else:
        verdict, limit = Verdict.UNKNOWN, None
    return LimitReport(upper, lower, limit, "streamed", horizon, tolerance, verdict), subs


def estimate_limits(
    e: SetExpr,
    horizon: int,
    window: float = DEFAULT_WINDOW,
    tolerance: float = DEFAULT_TOLERANCE,
) -> LimitReport:
    """Windowed surrogate for the upper/lower limits in one streaming pass.

    The upper/lower estimates are the max/min of the partial averages over
    the trailing window.  NotInF requires the oscillation to persist in
    three consecutive doubling sub-windows; a single wide swing is not
    treated as divergence.  The cost is one ``indicator`` walk and one
    pass of ``_piece_extremes`` over the windows, which reads c_n/n only at
    the positions of each piece's rarer bit and just before them; no
    running count and no N-long count array is built.
    """
    return _estimate(e, horizon, window, tolerance)[0]


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    kind: str  # "InF" | "Null" | "NotInF" | "Unknown"
    report: LimitReport
    approximate: bool


def classify(
    e: SetExpr,
    horizon: int = DEFAULT_HORIZON,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Classification:
    """Three-way (plus Unknown) classification, exact first, streamed fallback.

    The kind is the report's verdict, except that a limit at or below the
    report's tolerance (0 for an exact report) is Null.
    """
    try:
        rep = exact_limits(e)
    except NotExactlySolvable:
        rep = estimate_limits(e, horizon, DEFAULT_WINDOW, tolerance)
    kind = rep.verdict.value
    if rep.verdict is Verdict.IN_F and rep.limit <= rep.tolerance:
        kind = "Null"
    return Classification(kind, rep, approximate=not rep.exact)


# ---------------------------------------------------------------------------
# gap diagnostics


@dataclass(frozen=True)
class GapDiagnostic:
    # entries are (N, ratio or None); None marks a horizon-censored sample
    p_samples: tuple[tuple[int, float | None], ...]
    q_samples: tuple[tuple[int, float | None], ...]
    trend: str  # "decreasing" | "bounded-away-from-zero" | "inconclusive"


def gap_sublinearity(e: SetExpr, horizon: int) -> GapDiagnostic:
    """Sample next-member/next-gap distances at N = 2^j and classify the trend.

    A decreasing trend of P(N)/N is the finite-scale signature of
    convergence; ratios staying bounded away from zero witness long runs
    of the complement growing with N.
    """
    if horizon < 1000:
        raise ValueError("horizon must be >= 1000")
    p_samples: list[tuple[int, float | None]] = []
    q_samples: list[tuple[int, float | None]] = []
    j = 3
    while 2**j <= horizon:
        n = 2**j
        pair = gap_functions(e, n, 5 * n + 100)
        p_samples.append((n, None if pair.p is None else pair.p / n))
        q_samples.append((n, None if pair.q is None else pair.q / n))
        j += 1

    # censored samples exceeded a horizon ~4N past the base point; treat
    # them as a large ratio for trend purposes
    ratios = [4.0 if r is None else r for _, r in p_samples]
    head = ratios[: min(4, len(ratios))]
    tail = ratios[-min(4, len(ratios)) :]
    if max(tail) <= max(0.25 * max(head), 1e-6):
        trend = "decreasing"
    elif max(tail) >= 0.01:
        trend = "bounded-away-from-zero"
    else:
        trend = "inconclusive"
    return GapDiagnostic(tuple(p_samples), tuple(q_samples), trend)
