"""Finite chains of sets: verification, the symmetric-difference
pseudo-metric, uniform-convergence certificates, dense and maximal
extensions, and epsilon-skeletons.

All operations are finite-chain, prefix-verified versions of the
countable statements; horizons are explicit everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import midpoint_set
from .exprs import All, CesaroError, Empty, Explicit, SetExpr, SymDiff, indicator
from .limits import (
    DEFAULT_HORIZON,
    NotExactlySolvable,
    Verdict,
    estimate_limits,
    exact_limits,
)
from .nullmod import _as_fraction


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
    d = SymDiff(a, b)
    try:
        return exact_limits(d).upper
    except NotExactlySolvable:
        return estimate_limits(d, horizon).upper


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


def _prefix_counts(e: SetExpr, horizon: int) -> np.ndarray:
    """|e on 1..n| for n = 1..horizon, accumulated in place."""
    cnt = indicator(e, horizon).astype(np.int32 if horizon < 2**31 else np.int64)
    return np.add.accumulate(cnt, out=cnt)


def _deviations(cnt: np.ndarray, narr: np.ndarray, nu: Fraction) -> np.ndarray:
    """|cnt/n - nu| in float, computed in place."""
    dev = cnt / narr
    dev -= nu.numerator / nu.denominator
    return np.abs(dev, out=dev)


def uniformity_check(chain: Chain, epsilon, horizon: int):
    """Least N_eps with every element's partial average within epsilon of
    its limit for all N in (N_eps, horizon]; failure report if a violation
    reaches the horizon itself.

    Two passes keep one element's counts in memory at a time: the first
    finds each element's last N at or beyond epsilon, the second measures
    the deviations above N_eps.
    """
    eps = _as_fraction(epsilon)
    if eps <= 0:
        raise ChainError("epsilon must be positive")
    nus = [_exact_nu(e) for e in chain.elements]
    narr = np.arange(1, horizon + 1, dtype=np.float64)  # exact below 2**53
    # float pre-filter: its rounding error is far below the 1e-12 margin,
    # so every N the exact integer test flags is among the candidates
    cutoff = float(eps) - 1e-12
    last_bad = 0
    worst = (0, 0.0)
    for i, (e, nu) in enumerate(zip(chain.elements, nus)):
        q, p = nu.denominator, nu.numerator
        if q * eps.denominator * horizon >= 2**62:
            raise ChainError("parameters too large for exact deviation scan")
        cnt = _prefix_counts(e, horizon)
        cand = np.flatnonzero(_deviations(cnt, narr, nu) >= cutoff)
        n = cand + 1
        lhs = np.abs(cnt[cand].astype(np.int64) * q - p * n) * eps.denominator
        bad = cand[lhs >= eps.numerator * q * n]
        if bad.size and bad[-1] + 1 > last_bad:
            last_bad = int(bad[-1]) + 1
            worst = (i, abs(cnt[last_bad - 1] / last_bad - p / q))
    if last_bad >= horizon:
        i, dev = worst
        return UniformityFailure(i, chain.elements[i], last_bad, dev)
    n_eps = max(1, last_bad)
    deviations = []
    for e, nu in zip(chain.elements, nus):
        tail = _deviations(_prefix_counts(e, horizon)[n_eps:], narr[n_eps:], nu)
        deviations.append(float(tail.max()) if tail.size else 0.0)
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
        t = s + 1
        for j in range(n - 1, s, -1):
            if nus[j] - nus[s] < eps:
                t = j
                break
        selected.append(t)
        s = t
    return verify_chain([chain.elements[i] for i in selected], chain.horizon)


# ---------------------------------------------------------------------------
# maximal extension in a finite universe


def _restrict(e: SetExpr, universe: int) -> int:
    mask = 0
    arr = indicator(e, universe)
    for i in np.flatnonzero(arr):
        mask |= 1 << int(i)
    return mask


def _mask_expr(mask: int, universe: int) -> SetExpr:
    if mask == 0:
        return Empty()
    elems = tuple(i + 1 for i in range(universe) if mask >> i & 1)
    return Explicit(elems)


def interval_blocks(chain: Chain, universe_horizon: int) -> list[tuple[int, int, int]]:
    """For each point k of the finite universe: (B_k, C_k, D_k) bitmasks.

    B_k is the union of chain elements missing k, C_k the intersection of
    elements containing k, D_k their difference; k always lands in D_k and
    the D_k partition the universe into the chain's gaps.
    """
    u = universe_horizon
    masks = sorted({_restrict(e, u) for e in chain.elements}, key=int.bit_count)
    full = (1 << u) - 1
    if masks[0] != 0:
        masks.insert(0, 0)
    if masks[-1] != full:
        masks.append(full)
    out = []
    for k in range(1, u + 1):
        bit = 1 << (k - 1)
        b = 0
        c = full
        for m in masks:
            if m & bit:
                c &= m
            else:
                b |= m
        d = c & ~b
        # the reader-verified properties of the construction, asserted live
        if b & bit or not (c & bit) or (b & ~c) or not (d & bit):
            raise ChainError(f"interval block properties violated at k={k}")
        for m in masks:
            if (m | b) != b and (m & c) != c:
                raise ChainError(f"element incomparable to interval at k={k}")
        out.append((b, c, d))
    return out


def maximal_extension(chain: Chain, universe_horizon: int) -> Chain:
    """Extend to a saturated (hence maximal) chain inside {1..universe}.

    Restricts every element to the finite universe, then fills each gap
    by adding the gap's points one at a time in increasing order.  The
    result has one element per cardinality 0..universe, which certifies
    maximality in the finite power set.
    """
    u = universe_horizon
    if not (1 <= u <= 10**4):
        raise ChainError("universe horizon must lie in 1..10^4")
    interval_blocks(chain, u)  # runtime-checks the construction's premises
    masks = sorted({_restrict(e, u) for e in chain.elements}, key=int.bit_count)
    full = (1 << u) - 1
    if masks[0] != 0:
        masks.insert(0, 0)
    if masks[-1] != full:
        masks.append(full)
    result = [masks[0]]
    for small, big in zip(masks, masks[1:]):
        if small & ~big:
            raise ChainError("restricted elements are not nested")
        cur = small
        diff = big & ~small
        while diff:
            low = diff & -diff
            cur |= low
            diff &= ~low
            result.append(cur)
    if len(result) != u + 1:
        raise ChainError("saturation failed: cardinality ladder incomplete")
    for a, b in zip(result, result[1:]):
        if a & ~b or b.bit_count() != a.bit_count() + 1:
            raise ChainError("saturation failed: non-adjacent step")
    elements = tuple(_mask_expr(m, u) for m in result)
    evidence = tuple(
        OrderEvidence("structural", u, "explicit containment")
        for _ in range(len(elements) - 1)
    )
    return Chain(elements, evidence, u)
