"""Finite chains of sets: verification, the symmetric-difference
pseudo-metric, uniform-convergence certificates, dense and maximal
extensions, and epsilon-skeletons.

All operations are finite-chain, prefix-verified versions of the
countable statements; horizons are explicit everywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import _check_contained
from .exprs import (
    All,
    CesaroError,
    Empty,
    Explicit,
    Midpoint,
    NotExactlySolvable,
    SetExpr,
    SymDiff,
    _as_fraction,
    _check_mask,
    _counts_at,
    _first_outside,
    _members,
    _segment,
    _step,
    _Table,
    _table_or_words,
)
from .limits import (
    _CHUNK,
    DEFAULT_HORIZON,
    Verdict,
    _running_averages,
    _window_extremes,
    classify,
    exact_limits,
)


class ChainError(CesaroError):
    pass


@dataclass(frozen=True)
class OrderEvidence:
    kind: str  # "structural" | "prefix"
    horizon: int
    detail: str = ""


@dataclass(frozen=True)
class Chain:
    """Sets totally ordered by inclusion, smallest first, with per-adjacent
    pair evidence of containment."""

    elements: tuple[SetExpr, ...]
    evidence: tuple[OrderEvidence, ...]
    horizon: int

    def __len__(self):
        return len(self.elements)


def _exact_nu(e: SetExpr) -> Fraction:
    rep = exact_limits(e)
    if rep.verdict is not Verdict.IN_F:
        raise ChainError("element has no Cesàro limit (not in the convergent family)")
    return rep.limit


def _exact_nus(elements) -> list[Fraction]:
    """``_exact_nu`` of each element; an element outside the exact engine
    is a chain error that names it."""
    nus = []
    for i, e in enumerate(elements):
        try:
            nus.append(_exact_nu(e))
        except NotExactlySolvable as exc:
            raise ChainError(f"element {i} has no exact limit: {exc}") from None
    return nus


def verify_chain(elements, horizon: int = 10**4) -> Chain:
    """Sort by prefix counts and establish pairwise containment evidence.

    Incomparable pairs are rejected with one witness on each side;
    duplicate denoted sets (on the prefix) are rejected too.  Containment
    is an empty difference, counted (from phase tables where the sets
    have them); masks are built only to name the witnesses.
    """
    elems = list(elements)
    if not elems:
        raise ChainError("empty chain")
    _check_mask(horizon, ChainError)
    return _verify(elems, [_table_or_words(e, horizon) for e in elems], horizon)


def _verify(elems: list[SetExpr], sets: list, horizon: int) -> Chain:
    """``verify_chain`` of ``elems`` from their sets on [1, horizon] as
    ``_table_or_words`` gives them."""
    counts = [_members(r) for r in sets]
    order = sorted(range(len(elems)), key=lambda i: (counts[i], i))
    evidence = []
    for a, b in zip(order, order[1:]):
        n = _first_outside(elems[a], elems[b], sets[a], sets[b], horizon)
        if n is not None:
            m = _first_outside(elems[b], elems[a], sets[b], sets[a], horizon) or n
            raise ChainError(f"incomparable pair: witness {n} in one set only, {m} in the other")
        if counts[a] == counts[b]:
            raise ChainError(
                f"duplicate denoted sets on prefix 1..{horizon}: "
                f"elements {a} and {b}"
            )
        evidence.append(OrderEvidence("prefix", horizon))
    return Chain(tuple(elems[i] for i in order), tuple(evidence), horizon)


# ---------------------------------------------------------------------------
# pseudo-metric


def pseudo_metric(a: SetExpr, b: SetExpr, horizon: int = DEFAULT_HORIZON):
    """Upper Cesàro limit of the symmetric difference; exact when possible."""
    return classify(SymDiff(a, b), horizon).report.upper


# ---------------------------------------------------------------------------
# uniform convergence


@dataclass(frozen=True)
class UniformityCertificate:
    epsilon: Fraction
    n_epsilon: int
    checked_horizon: int
    per_element_max_deviation: tuple[float, ...]

    def __post_init__(self):
        if any(d >= self.epsilon for d in self.per_element_max_deviation):
            raise ValueError("recorded deviation at or above epsilon")

    def as_dict(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "N_epsilon": self.n_epsilon,
            "horizon": self.checked_horizon,
            "deviations": list(self.per_element_max_deviation),
        }


@dataclass(frozen=True)
class UniformityFailure:
    element_index: int
    element: SetExpr
    n: int
    deviation: float


def _window_deviations(src, a: int, b: int, nu_f: float):
    """c_a, the running counts c_n - c_a and the float |c_n/n - nu| for n in
    the window (a, b], from a dense recount of ``src``, word masks or a
    phase table, of which only the window is read."""
    carry = _counts_at(src, [a])[0]
    avg, run = _running_averages(_segment(src, a, b), a, carry)
    avg -= nu_f
    return carry, run, np.abs(avg, out=avg)


def _windows(horizon: int) -> list[tuple[int, int]]:
    """(0, 1], (1, 2], (2, 4], ... up to ``_CHUNK``, where the early partial
    averages swing, then chunks of ``_CHUNK``, cut at the horizon."""
    cuts = [0, *(1 << k for k in range(_CHUNK.bit_length() - 1)), *range(_CHUNK, horizon, _CHUNK)]
    cuts = [x for x in cuts if x < horizon] + [horizon]
    return list(zip(cuts, cuts[1:]))


def uniformity_check(chain: Chain, epsilon, horizon: int):
    """Least N_eps with every element's partial average within epsilon of
    its limit for all N in (N_eps, horizon]; failure report if a violation
    reaches the horizon itself.

    One ``_window_extremes`` pass per element, over its phase table where
    it has one and its word masks otherwise, with ``_windows`` as windows,
    keeps for each window the larger of max(c_n/n) - nu and nu - min(c_n/n);
    x -> fl(x - nu) is monotone, so these are the largest float deviations
    above and below nu in the window.  Only windows whose deviation
    reaches epsilon - 1e-12 are recounted for the exact integer test, from
    the top down until one holds a violation; only the window recounted
    is unpacked or filled.  The deviations above N_eps then come from the
    kept window figures, except in the window holding N_eps, which is
    recounted.  At most one element's words are in memory at a time.
    """
    eps = _as_fraction(epsilon)
    if eps <= 0:
        raise ChainError("epsilon must be positive")
    if horizon < 1:
        raise ChainError("horizon must be >= 1")
    _check_mask(horizon, ChainError)
    nus = _exact_nus(chain.elements)
    cutoff = float(eps) - 1e-12
    windows = _windows(horizon)
    last_bad = 0
    worst = (0, 0.0)
    stats = []  # per element: nu as a float, the deviation per window
    for i, (e, nu) in enumerate(zip(chain.elements, nus)):
        q, p = nu.denominator, nu.numerator
        if q * eps.denominator * horizon >= 2**62:
            raise ChainError("parameters too large for exact deviation scan")
        src = _table_or_words(e, horizon)
        nu_f = p / q
        tops = [max(mx - nu_f, nu_f - mn) for mx, mn in _window_extremes(src, windows)]
        stats.append((nu_f, tops))
        for (a, b), top in zip(reversed(windows), reversed(tops)):
            if b <= last_bad:
                break  # no later violation than the one already found
            if top < cutoff:
                continue
            # float pre-filter: its rounding error is far below the 1e-12
            # margin, so every N the exact integer test flags is a candidate
            carry, run, dev = _window_deviations(src, a, b, nu_f)
            cand = np.flatnonzero(dev >= cutoff)
            # int64 before the products: int32 counts plus an int stay int32
            cnt = run[cand].astype(np.int64) + carry
            n = cand + (a + 1)
            bad = np.flatnonzero(np.abs(cnt * q - p * n) * eps.denominator >= eps.numerator * q * n)
            if bad.size:
                if n[bad[-1]] > last_bad:
                    last_bad = int(n[bad[-1]])
                    worst = (i, abs(cnt[bad[-1]] / last_bad - nu_f))
                break
    if last_bad >= horizon:
        i, dev = worst
        return UniformityFailure(i, chain.elements[i], last_bad, dev)
    n_eps = max(1, last_bad)
    k = bisect_right(windows, (n_eps, horizon)) - 1  # the window (a, b] with a <= N_eps < b
    a, b = windows[k]
    deviations = []
    for e, (nu_f, tops) in zip(chain.elements, stats):
        tail = tops[k + (a < n_eps) :]
        if a < n_eps < horizon:
            # N_eps lies inside this window: recount the window for its tail
            dev = _window_deviations(_table_or_words(e, b), a, b, nu_f)[2]
            tail.append(float(dev[n_eps - a :].max()))
        deviations.append(max(tail, default=0.0))
    return UniformityCertificate(eps, n_eps, horizon, tuple(deviations))


# ---------------------------------------------------------------------------
# dense extension


def dense_extension(chain: Chain, k: int, check_horizon: int = 10**4) -> Chain:
    """Insert midpoint sets into wide density gaps, one pass per scale.

    Pass j splits every gap of width >= 2^-j between adjacent densities,
    widest gaps first (ties broken by lower endpoint).  Endpoints Empty
    and All are added first if absent.

    Each entry holds its set on the checking prefix as ``verify_chain``
    holds it (``_table_or_words``): a midpoint's is the one evaluation step
    of ``Midpoint`` on its neighbours' sets, and the final ordering check
    reads these.  Containment of each gap is checked as ``midpoint_set``
    checks it; every entry's limit is exact (the inputs' by
    ``_exact_nus``, a midpoint's as the mean of its neighbours'), so the
    endpoint checks of ``midpoint_set`` have nothing to reject.
    """
    if k < 1:
        raise ChainError("resolution exponent must be >= 1")
    H = check_horizon
    nus = _exact_nus(chain.elements)
    # every density of every pass is a multiple of 1/D: entries hold D·nu
    D = math.lcm(*(nu.denominator for nu in nus)) << k
    entries = [(nu.numerator * (D // nu.denominator), e) for nu, e in zip(nus, chain.elements)]
    if not any(x == 0 for x, _ in entries):
        entries.append((0, Empty()))
    if not any(x == D for x, _ in entries):
        entries.append((D, All()))
    entries.sort(key=lambda t: t[0])
    if max(b[0] - a[0] for a, b in zip(entries, entries[1:])) < D >> k:
        return verify_chain([e for _, e in entries], H)  # no gap to split
    _check_mask(H)  # as the masks of the first gap's midpoint_set do
    entries = [(x, e, _table_or_words(e, H)) for x, e in entries]
    for j in range(1, k + 1):
        widths = [b[0] - a[0] for a, b in zip(entries, entries[1:])]
        gaps = [i for i, w in enumerate(widths) if w >= D >> j]
        gaps.sort(key=lambda i: (-widths[i], entries[i][0]))
        mids = {}
        for i in gaps:
            (lo_x, lo, lo_set), (hi_x, hi, hi_set) = entries[i], entries[i + 1]
            _check_contained(lo, hi, lo_set, hi_set, H)
            mid = Midpoint(lo, hi)
            parts = [r if isinstance(r, _Table) else r.copy() for r in (lo_set, hi_set)]
            mids[i] = ((lo_x + hi_x) // 2, mid, _step(mid, H, parts, H))
        # a midpoint's density lies strictly between its neighbours'
        entries = [x for i, t in enumerate(entries) for x in (t, mids.get(i)) if x]
    return _verify([e for _, e, _ in entries], [r for _, _, r in entries], H)


# ---------------------------------------------------------------------------
# skeleton


def skeleton(chain: Chain, epsilon) -> Chain:
    """Minimal subchain epsilon-sandwiching every element.

    Greedy sweep over the exact densities: from the last selected element,
    jump to the farthest element strictly less than epsilon away; forced
    single steps handle gaps of width >= epsilon.
    """
    eps = _as_fraction(epsilon)
    if eps <= 0:
        raise ChainError("epsilon must be positive")
    nus = _exact_nus(chain.elements)
    if sorted(nus) != nus:
        raise ChainError("chain densities out of order")
    n = len(nus)
    selected = [0]
    s = 0
    while s < n - 1:
        # the last density below nus[s] + eps, or the next element
        s = max(s + 1, bisect_left(nus, nus[s] + eps) - 1)
        selected.append(s)
    return verify_chain([chain.elements[i] for i in selected], chain.horizon)


# ---------------------------------------------------------------------------
# maximal extension in a finite universe


def _restrict(e: SetExpr, universe: int) -> int:
    """Members of e in 1..universe as a bitmask, bit k - 1 for member k."""
    return int.from_bytes(_table_or_words(e, universe).tobytes(), "little")


def _restricted_ladder(chain: Chain, universe: int) -> list[int]:
    """Distinct restricted element masks by size, framed by 0 and the full mask."""
    masks = sorted({_restrict(e, universe) for e in chain.elements}, key=int.bit_count)
    full = (1 << universe) - 1
    if masks[0] != 0:
        masks.insert(0, 0)
    if masks[-1] != full:
        masks.append(full)
    return masks


def maximal_extension(chain: Chain, universe_horizon: int) -> Chain:
    """Extend to a saturated (hence maximal) chain inside {1..universe}.

    Restricts every element to the finite universe, then fills each gap
    by adding the gap's points one at a time in increasing order.  The
    result has one element per cardinality 0..universe, which certifies
    maximality in the finite power set.  Each step inserts one point into
    a sorted member list and copies it into the next rung, built without
    re-checking its order, so the Python work is O(universe) steps; the
    copies are the output, O(universe^2) integers in all.
    """
    u = universe_horizon
    if not (1 <= u <= 10**4):
        raise ChainError("universe horizon must lie in 1..10^4")
    masks = _restricted_ladder(chain, u)
    members: list[int] = []  # the current ladder element, sorted
    elements: list[SetExpr] = [Empty()]
    for small, big in zip(masks, masks[1:]):
        if small & ~big:
            raise ChainError("restricted elements are not nested")
        diff = big & ~small
        while diff:
            low = diff & -diff
            diff ^= low
            insort(members, low.bit_length())
            elements.append(Explicit._increasing(tuple(members)))
    if len(elements) != u + 1:
        raise ChainError("saturation failed: cardinality ladder incomplete")
    evidence = (OrderEvidence("structural", u, "explicit containment"),) * u
    return Chain(tuple(elements), evidence, u)
