"""Upper/lower Cesàro limits: exact where structure allows, streamed otherwise.

The exact engine (``exprs._exact``) evaluates each node's one exact rule
once: a periodic normal form (residues modulo m as a sorted int64 array,
possibly perturbed by a density-zero set), else the node's limits.  A
null perturbation never moves the upper or lower limit, so |R|/m survives
finite exceptions and unions with known null sets.  Greedy sets and
periodic run lists are such forms, other block families have closed
forms, and complements, dilations, shifts and midpoints follow from their
operands' results.  A tree over one generator, a block set whose runs
grow without bound or ``paired`` (so o(N) runs up to N), is up to a null
set a periodic set X on the generator's member runs and Y off them, so
ν_N = d(Y) + (d(X) − d(Y))·ν_N(generator) + o(1) and both limits follow
from the block formula.  In a Boolean node a null operand (no residues) acts
as Empty next to any operand; with no joint form the node retries once on
its ``canonicalize``d expression.  Everything else falls back to a
windowed streaming estimate with an explicit Unknown verdict when the
evidence is inconclusive.  The estimate reads the set's phase table where
it has one, with no mask and so no mask limit, and otherwise one mask,
only in the runs of blocks that can hold an extreme; both give the same
floats (``_window_extremes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .exprs import (
    TABLE_SHARE,
    NotExactlySolvable,
    SetExpr,
    _bools,
    _complement,
    _distinct,
    _eval,
    _exact,
    _Form,
    _Table,
    _union,
)

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
    geometric, polynomial and periodic run-list block sets, greedy targets,
    registered predicates with known limits, and midpoints/complements/
    affine images of all of these.  A tree over one generator (a geometric
    or polynomial block set, or ``paired``: runs that grow without bound,
    so o(N) runs up to N) and periodic or null sets is exact too: a
    periodic set X on the generator's member runs and Y off them has
    limits d(Y) + (d(X) − d(Y))·(the generator's upper or lower limit).
    Trees over two different generators, and a dilated generator inside
    a Boolean node, raise NotExactlySolvable and stream in ``classify``.
    """
    upper, lower, method = _exact(e)
    if upper == lower:
        return LimitReport(upper, lower, upper, method, None, 0, Verdict.IN_F)
    return LimitReport(upper, lower, None, method, None, 0, Verdict.NOT_IN_F)


# ---------------------------------------------------------------------------
# streamed estimation


#: Elements per chunk of the chunked passes over a mask; their buffers
#: and temporaries are this long.
_CHUNK = 1 << 16


def _running_averages(seg: np.ndarray, first: int, carry: int):
    """(c_n/n, c_n - c_first) for n in (first, first + seg.size], from the
    membership ``seg`` of those n and c_first = carry.

    The dense recount behind ``uniformity_check``'s exact test, at about
    6 ns per element.  The counts are int32 (horizons are below
    ``MAX_MASK``); c_n/n is the same float64 as from an N-long count array.
    """
    run = np.add.accumulate(seg, dtype=np.int32)
    # carry + run[i] <= first + seg.size < 2**31, so the integer sum cannot overflow
    avg = np.add(run, carry, dtype=np.float64)
    avg /= np.arange(first + 1, first + seg.size + 1, dtype=np.float64)
    return avg, run


_STEPS = np.arange(_CHUNK // 2, dtype=np.float64)


def _piece_extremes(seg: np.ndarray, a: int, carry: int, total: int, buf: np.ndarray):
    """(max, min) of c_n/n over n in (a, a + k] for ``seg`` = mask[a : a + k]
    with 0 < k <= ``_CHUNK``, c_a = carry, ``total`` members and a float64
    work array ``buf`` of shape (3, ``_CHUNK // 2``).

    c_n/n rises at each member, as (c + 1)/n >= c/(n - 1), and falls at each
    non-member, so its maximum lies at a + 1, at a + k, at a member or just
    before a non-member, and its minimum at a + 1, at a + k, at a non-member
    or just before a member.  Those next to the rarer bit are read, where
    the count is closed-form in the position.  Rounding is monotone: the
    float extremes are the dense ones.
    """
    k = seg.size
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
    np.divide(c, n, out=q)
    at = float(q.max(initial=max(ends)) if members else q.min(initial=min(ends)))
    # one point earlier the count drops by one after a member; a rarer bit
    # at a + 1 has no such point inside the piece
    s = 1 if m and r[0] == 0 else 0
    c -= members
    n -= 1
    before = np.divide(c[s:], n[s:], out=q[s:])
    if members:
        return at, float(before.min(initial=min(ends)))
    return float(before.max(initial=max(ends))), at


def _dense_extremes(fill, a: int, b: int, carry: int, buf: np.ndarray):
    """(max, min) of c_n/n over n in (a, b], and c_b, for c_a = carry, from
    the mask ``fill(x, y)`` of n = x + 1, ..., y, one ``_CHUNK`` at a time
    (``_piece_extremes``): the one reader of a table's short pieces, of a
    mask's runs of picked blocks and of a mask read whole."""
    top, bottom = -math.inf, math.inf
    for x in range(a, b, _CHUNK):
        seg = fill(x, min(b, x + _CHUNK))
        total = int(np.count_nonzero(seg))
        t, m = _piece_extremes(seg, x, carry, total, buf)
        top, bottom, carry = max(top, t), min(bottom, m), carry + total
    return top, bottom, carry


def _form_extremes(f: _Form, a: np.ndarray, b: np.ndarray, ca: np.ndarray):
    """(max, min) of c_n/n over n in (a, b] per piece of form f = (L, R),
    from candidates; ca is the count at a.

    With g = |R|, n = n0 + kL has c_n = c_n0 + kg, so c_n/n is monotone in
    k: the last maximum and minimum of a piece lie in its first or last L
    positions.  As in ``_piece_extremes`` they also lie at a + 1 or at b,
    which the caller reads, or at or just before a position of the rarer
    bit.  The counts there come from one cumulative count over the period,
    at the rarer residues s and at s - 1.
    """
    L, R, g = f.modulus, f.residues, f.residues.size
    members = 2 * g <= L
    rare = R if members else _complement(f)
    rank = np.arange(1, rare.size + 1) - (rare.size and rare[0] == 0)
    at = rank if members else rare - rank  # the count on [1, s] of residue s
    # s - 1 has one member fewer when s is one, and residue 0 stands for L
    s = np.concatenate((rare, (rare - 1) % L))
    at = np.concatenate((at, at - members + g * (rare == 0)))
    a, b = a[:, None], b[:, None]
    q, r = np.divmod(a, L)
    base = ca[:, None] - q * g - (R.searchsorted(r, side="right") - (g and R[0] == 0))
    # each residue's first and last position in the piece
    n = np.concatenate((a + 1 + (s - a - 1) % L, b - (b - s) % L), axis=1)
    inside = (n > a) & (n <= b)
    # c_n = base + F(n), divided only inside the piece: a short piece's
    # candidates outside it can be 0 or negative
    v = np.divide(base + n // L * g + np.concatenate((at, at)), n, out=np.empty(n.shape), where=inside)
    top = v.max(axis=1, initial=-np.inf, where=inside)
    return top, v.min(axis=1, initial=np.inf, where=inside)


def _table_extremes(t: _Table, cuts: np.ndarray):
    """(max, min) of c_n/n per piece between consecutive ``cuts`` of a
    phase table, each piece inside one of its pieces."""
    a, b = cuts[:-1], cuts[1:]
    c = t.counts(np.concatenate((cuts, a + 1)))
    ca, cb, c1 = c[: a.size], c[1 : cuts.size], c[cuts.size :]
    # the ends; they are all of an All or Empty piece's candidates
    first, last = c1 / (a + 1), cb / b
    tops, bottoms = np.maximum(first, last), np.minimum(first, last)
    phase = t.phase[t.bounds.searchsorted(b) - 1]
    buf = np.empty((3, _CHUNK // 2))
    for j in _distinct(phase, len(t.forms))[0]:
        f = t.forms[j]
        if f.modulus == 1:
            continue
        on = phase == j
        rare = min(f.residues.size, f.modulus - f.residues.size)
        # a rarer residue's candidates cost about as much as TABLE_SHARE
        # mask elements scanned densely, and a dense piece about _CHUNK // 2
        # more, so a shorter piece is filled
        long = on & (b - a + _CHUNK // 2 > TABLE_SHARE * rare)
        pieces = np.flatnonzero(long)
        step = max(1, _CHUNK // (4 * rare + 1))  # pieces of at most _CHUNK candidates at a time
        for k in range(0, pieces.size, step):
            i = pieces[k : k + step]
            top, bottom = _form_extremes(f, a[i], b[i], ca[i])
            tops[i] = np.maximum(tops[i], top)
            bottoms[i] = np.minimum(bottoms[i], bottom)
        for i in np.flatnonzero(on & ~long).tolist():
            top, bottom, _ = _dense_extremes(t.fill, int(a[i]), int(b[i]), int(ca[i]), buf)
            tops[i], bottoms[i] = max(tops[i], top), min(bottoms[i], bottom)
    return tops, bottoms


#: Positions per block of the block-count pass over a mask; a byte lane
#: of its uint64 lane sums holds at most _BLOCK // 8 of them.
_BLOCK = 256
#: Spans shorter than this are scanned whole: below it the block-count
#: pass and its bookkeeping cost more than the scan they save.  At least
#: 2 * _BLOCK, so a counted span holds a whole block.
_PRUNE_FROM = 1 << 17
_LOW_BYTES = np.uint64(0x00FF00FF00FF00FF)
_SUM_SHORTS = np.uint64(0x0001000100010001)


def _mask_extremes(mask: np.ndarray, first: int, last: int, edges: np.ndarray, segments):
    """The cuts of (first, last] and the (max, min) of c_n/n on each piece
    between them, from a mask; see ``_window_extremes``."""
    B = _BLOCK
    bounds = edges.tolist()
    buf = np.empty((3, _CHUNK // 2))

    def fill(x, y):
        return mask[x:y]

    carry = int(np.count_nonzero(mask[:first]))
    # a short span, or a rarer bit under one position per block before it,
    # is read whole: counting blocks costs more than reading it
    if last - first < _PRUNE_FROM or min(carry, first - carry) * B < first:
        tops, bottoms = np.empty((2, len(bounds) - 1))
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            tops[i], bottoms[i], carry = _dense_extremes(fill, a, b, carry, buf)
        return edges, tops, bottoms
    mask = np.ascontiguousarray(mask)
    base, top = first - first % B, last - last % B
    # the count of every aligned block: byte lanes of a uint64 lane sum,
    # folded to 16-bit lanes (a full block's 256 overflows a byte), summed
    lanes = np.add.reduceat(mask[base:top].view(np.uint64), np.arange(0, (top - base) // 8, B // 8))
    low = lanes & _LOW_BYTES
    lanes >>= np.uint64(8)
    lanes &= _LOW_BYTES
    lanes += low
    lanes *= _SUM_SHORTS
    lanes >>= np.uint64(48)
    grid = np.empty(lanes.size + 1, dtype=np.int64)
    grid[0] = carry - np.count_nonzero(mask[base:first])
    np.cumsum(lanes.view(np.int64), out=grid[1:])
    grid[1:] += grid[0]
    # the grid cut at every window bound off it, where c is the grid's
    # count plus the members since the block's start
    points = np.arange(base, top + 1, B)
    cuts, counts, done = [], [], 0
    for x in bounds:
        if x % B:
            j = (x - base) // B + 1
            cuts += [points[done:j], [x]]
            counts += [grid[done:j], [grid[j - 1] + np.count_nonzero(mask[x - x % B : x])]]
            done = j
    cuts, counts = np.concatenate([*cuts, points[done:]]), np.concatenate([*counts, grid[done:]])
    ends = cuts.searchsorted(edges)
    cuts, counts = cuts[ends[0] : ends[-1] + 1], counts[ends[0] : ends[-1] + 1]
    ends -= ends[0]
    a, b, ca, cb = cuts[:-1], cuts[1:], counts[:-1], counts[1:]
    t = cb - ca
    # the attained c_b/b, and each piece's bounds on its max and min
    tops = cb / b
    hi = cb / (a + np.maximum(t, 1))
    n_lo = np.maximum(b - t, a + 1)
    lo = (cb - b + n_lo) / n_lo
    # per stretch between consecutive window bounds: its largest and
    # smallest c_b/b, then the lowest largest and the highest smallest of
    # the windows holding it
    most = np.maximum.reduceat(tops, ends[:-1]).tolist()
    least = np.minimum.reduceat(tops, ends[:-1]).tolist()
    index = {x: i for i, x in enumerate(bounds)}
    cap, floor = [math.inf] * len(most), [-math.inf] * len(most)
    for lo_w, hi_w in segments:
        i, j = index[lo_w], index[hi_w]
        top_w, bottom_w = max(most[i:j]), min(least[i:j])
        for s in range(i, j):
            cap[s], floor[s] = min(cap[s], top_w), max(floor[s], bottom_w)
    sizes = np.diff(ends)
    scan = np.flatnonzero((hi > np.repeat(cap, sizes)) | (lo < np.repeat(floor, sizes)))
    # picked pieces in one stretch and under _CHUNK // 2 positions apart
    # join into a run, read whole with the pieces between them: a second
    # run would cost about that many positions more (see _table_extremes).
    # A run's (max, min) goes on its first piece; its other pieces keep
    # their c_b/b, which lies between the two
    stretch = ends.searchsorted(scan, side="right")
    split = np.ones(scan.size, dtype=bool)
    split[1:] = (stretch[1:] != stretch[:-1]) | (a[scan[1:]] - b[scan[:-1]] >= _CHUNK // 2)
    # each run stops at the piece before the next run's start
    starts, stops = scan[split], scan[np.roll(split, -1)] + 1
    bottoms = tops.copy()
    runs = zip(starts.tolist(), cuts[starts].tolist(), cuts[stops].tolist(), counts[starts].tolist())
    for i, x, y, c in runs:
        tops[i], bottoms[i], _ = _dense_extremes(fill, x, y, c, buf)
    return cuts, tops, bottoms


def _window_extremes(src, segments: list[tuple[int, int]]) -> list[tuple[float, float]]:
    """(max, min) of the partial averages c_n/n over n in (lo, hi], per window.

    ``src`` is a mask or a phase table.  One pass over the span of the
    windows, cut at every window bound, and every bound of a table, so each
    piece lies wholly inside or outside each window and windows share the
    pieces they overlap.  Windows must be nonempty.

    A mask spanning ``_PRUNE_FROM`` or more, whose rarer bit has at least
    as many positions before the span as there are blocks there, is first
    counted by aligned blocks of ``_BLOCK`` positions, one uint64 lane-sum
    pass, so c is exact at every block end and every window bound.  c_b/b at a piece's
    end is attained; with t members and 0 < t < b - a, c_n <= min(c_b,
    c_a + n - a) bounds the piece's max by c_b/(a + t) and c_n >= max(c_a,
    c_b - b + n) its min by c_a/(b - t).  A piece is picked only if its
    bound beats the largest or smallest c_b/b of a window holding it;
    picked pieces between the same two window bounds, less than
    ``_CHUNK // 2`` positions apart, join into a run, read by
    ``_dense_extremes``, whose (max, min) goes on the run's first piece.
    The skipped pieces cannot hold a window's extreme, and as float
    rounding is monotone, a bound that does not beat it in floats does not
    in reals: the floats are those of a dense scan.  Any other mask is
    read whole by ``_dense_extremes``, one stretch between window bounds
    after another.
    """
    cuts, tops, bottoms = _window_pieces(src, segments)
    # windows overlap, so each gets its own (start, end) pair of indices;
    # the reductions between one window's end and the next one's start are
    # dropped, and a sentinel piece keeps an end at the last cut in range
    ends = cuts.searchsorted(np.ravel(segments))
    top = np.maximum.reduceat(np.append(tops, -math.inf), ends)[::2]
    bottom = np.minimum.reduceat(np.append(bottoms, math.inf), ends)[::2]
    return list(zip(top.tolist(), bottom.tolist()))


def _window_pieces(src, segments: list[tuple[int, int]]):
    """The cuts of ``_window_extremes`` and the (max, min) of c_n/n on each
    piece between consecutive cuts."""
    first = min(lo for lo, _ in segments)
    last = max(hi for _, hi in segments)
    edges = np.unique([b for seg in segments for b in seg])
    if isinstance(src, _Table):
        cuts = _union(src.bounds[(src.bounds > first) & (src.bounds < last)], edges)
        return (cuts, *_table_extremes(src, cuts))
    return _mask_extremes(src, first, last, edges, segments)


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
        _bools(_eval(e, horizon), horizon), [(start - 1, horizon), *doubling]
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
    treated as divergence.  The cost is one evaluation of the tree and
    one pass over the windows, which reads c_n/n only at the positions of
    each piece's rarer bit and just before them; a tree with a phase table
    builds no mask, and no running count or N-long count array is built.
    On a mask, a block-count pass first bounds c_n/n in every block of 256
    positions, and only the runs of blocks whose bound can beat a window's
    max or min, from the exact c_b/b at the block ends, are read that way
    (a short span and a sparse mask are read whole); float rounding is
    monotone, so the estimate is the dense scan's to the bit
    (``_window_extremes``).
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
