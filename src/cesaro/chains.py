"""Finite chains of sets: verification, the symmetric-difference
pseudo-metric, uniform-convergence certificates, dense and maximal
extensions, and epsilon-skeletons.

All operations are finite-chain, prefix-verified versions of the
countable statements; horizons are explicit everywhere.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import midpoint_set
from .exprs import All, CesaroError, Empty, Explicit, SetExpr, SymDiff, indicator
from .limits import (
    _CHUNK,
    DEFAULT_HORIZON,
    Verdict,
    _running_averages,
    _window_extremes,
    classify,
    exact_limits,
)
from .nullmod import _as_fraction, _check_horizon


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


def verify_chain(elements, horizon: int = 10**4) -> Chain:
    """Sort by prefix counts and establish pairwise containment evidence.

    Incomparable pairs are rejected with one witness on each side;
    duplicate denoted sets (on the prefix) are rejected too.
    """
    elems = list(elements)
    if not elems:
        raise ChainError("empty chain")
    _check_horizon(horizon, ChainError)
    masks = [indicator(e, horizon) for e in elems]
    order = sorted(range(len(elems)), key=lambda i: (int(masks[i].sum()), i))
    evidence = []
    for a, b in zip(order, order[1:]):
        small, big = masks[a], masks[b]
        if np.array_equal(small, big):
            raise ChainError(
                f"duplicate denoted sets on prefix 1..{horizon}: "
                f"elements {a} and {b}"
            )
        extra = np.flatnonzero(small & ~big)
        if extra.size:
            missing = np.flatnonzero(big & ~small)
            n = int(extra[0]) + 1
            m = int(missing[0]) + 1 if missing.size else int(extra[0]) + 1
            raise ChainError(
                f"incomparable pair: witness {n} in one set only, {m} in the other"
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


def _chunk_deviations(mask: np.ndarray, a: int, horizon: int, nu_f: float):
    """c_a, the running counts c_n - c_a and the float |c_n/n - nu| for n in
    the chunk (a, min(a + _CHUNK, horizon)], from a dense recount."""
    carry, avg, run = _running_averages(mask, a, min(a + _CHUNK, horizon))
    avg -= nu_f
    return carry, run, np.abs(avg, out=avg)


def uniformity_check(chain: Chain, epsilon, horizon: int):
    """Least N_eps with every element's partial average within epsilon of
    its limit for all N in (N_eps, horizon]; failure report if a violation
    reaches the horizon itself.

    One ``_window_extremes`` pass per element, with the chunks as windows,
    keeps for each chunk the larger of max(c_n/n) - nu and nu - min(c_n/n);
    x -> fl(x - nu) is monotone, so these are the largest float deviations
    above and below nu in the chunk.  Only chunks whose deviation reaches epsilon - 1e-12
    are recounted for the exact integer test, from the top down until one
    holds a violation.  The deviations above N_eps then come from the
    kept chunk figures, except in the chunk holding N_eps, which is
    recounted.  One element's mask is in memory at a time.
    """
    eps = _as_fraction(epsilon)
    if eps <= 0:
        raise ChainError("epsilon must be positive")
    if horizon < 1:
        raise ChainError("horizon must be >= 1")
    _check_horizon(horizon, ChainError)
    nus = [_exact_nu(e) for e in chain.elements]
    cutoff = float(eps) - 1e-12
    last_bad = 0
    worst = (0, 0.0)
    stats = []  # per element: nu as a float, (start, deviation) per chunk
    for i, (e, nu) in enumerate(zip(chain.elements, nus)):
        q, p = nu.denominator, nu.numerator
        if q * eps.denominator * horizon >= 2**62:
            raise ChainError("parameters too large for exact deviation scan")
        mask = indicator(e, horizon)
        nu_f = p / q
        windows = [(a, min(a + _CHUNK, horizon)) for a in range(0, horizon, _CHUNK)]
        extremes = _window_extremes(mask, windows)
        chunks = [(a, max(mx - nu_f, nu_f - mn)) for (a, _), (mx, mn) in zip(windows, extremes)]
        stats.append((nu_f, chunks))
        for a, top in reversed(chunks):
            if a + _CHUNK <= last_bad:
                break  # no later violation than the one already found
            if top < cutoff:
                continue
            # float pre-filter: its rounding error is far below the 1e-12
            # margin, so every N the exact integer test flags is a candidate
            carry, run, dev = _chunk_deviations(mask, a, horizon, nu_f)
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
    deviations = []
    for e, (nu_f, chunks) in zip(chain.elements, stats):
        tail = [top for a, top in chunks if a >= n_eps]
        a = chunks[n_eps // _CHUNK][0]
        if a < n_eps < horizon:
            # N_eps lies inside this chunk: recount the chunk for its tail
            mask = indicator(e, min(a + _CHUNK, horizon))
            tail.append(float(_chunk_deviations(mask, a, horizon, nu_f)[2][n_eps - a :].max()))
        deviations.append(max(tail, default=0.0))
    return UniformityCertificate(eps, n_eps, horizon, tuple(deviations))


# ---------------------------------------------------------------------------
# dense extension


def dense_extension(chain: Chain, k: int, check_horizon: int = 10**4) -> Chain:
    """Insert midpoint sets into wide density gaps, one pass per scale.

    Pass j splits every gap of width >= 2^-j between adjacent densities,
    widest gaps first (ties broken by lower endpoint).  Endpoints Empty
    and All are added first if absent.
    """
    if k < 1:
        raise ChainError("resolution exponent must be >= 1")
    entries = [(_exact_nu(e), e) for e in chain.elements]
    if not any(nu == 0 for nu, _ in entries):
        entries.append((Fraction(0), Empty()))
    if not any(nu == 1 for nu, _ in entries):
        entries.append((Fraction(1), All()))
    entries.sort(key=lambda t: t[0])
    for j in range(1, k + 1):
        threshold = Fraction(1, 2**j)
        gaps = [
            (entries[i + 1][0] - entries[i][0], i)
            for i in range(len(entries) - 1)
            if entries[i + 1][0] - entries[i][0] >= threshold
        ]
        gaps.sort(key=lambda t: (-t[0], entries[t[1]][0]))
        inserted = []
        for _, i in gaps:
            (lo_nu, lo), (hi_nu, hi) = entries[i], entries[i + 1]
            mid = midpoint_set(lo, hi, check_horizon)
            inserted.append(((lo_nu + hi_nu) / 2, mid))
        entries.extend(inserted)
        entries.sort(key=lambda t: t[0])
    return verify_chain([e for _, e in entries], check_horizon)


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
    nus = [_exact_nu(e) for e in chain.elements]
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
    bits = np.packbits(indicator(e, universe), bitorder="little")
    return int.from_bytes(bits.tobytes(), "little")


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
    a sorted member list, so the Python work is O(universe) steps.
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
            elements.append(Explicit(tuple(members)))
    if len(elements) != u + 1:
        raise ChainError("saturation failed: cardinality ladder incomplete")
    evidence = tuple(
        OrderEvidence("structural", u, "explicit containment")
        for _ in range(len(elements) - 1)
    )
    return Chain(tuple(elements), evidence, u)
