"""Null modification: trimming a set by a null part so that no partial
average ever exceeds the target bound, plus the chain-level extensions
(the order-preserving psi map, disjoint-part cleanup, and the two-sided
phi map).

Everything is materialized on a finite prefix; removed parts are finite
lists of integers there, so modified sets stay expressible as the
original expression minus an explicit finite set, with the tail
unmodified.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exprs import (
    CesaroError,
    Diff,
    Empty,
    Explicit,
    SetExpr,
    Union,
    _periodic,
    indicator,
)
from .limits import DEFAULT_HORIZON, NotExactlySolvable, Verdict, classify, exact_limits


class NullModError(CesaroError):
    pass


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def _excess(mask: np.ndarray, p: int, q: int) -> np.ndarray:
    """Count excess e_n = |mask on 1..n| - floor(p*n/q) for n = 1..N.

    For 0 <= p <= q, floor(p*n/q) steps up by 0 or 1, at n = ceil(k*q/p),
    with period q in n.  One period of steps is built with exact integers
    and tiled, so the pass is an int8 subtraction and one cumsum.
    """
    n = mask.size
    if not 0 <= p <= q:
        raise NullModError("bound must lie in [0, 1]")
    if p * n >= 2**62:
        raise NullModError("bound numerator times horizon too large")
    span = min(q, n)
    period = np.zeros(span, dtype=bool)
    if p:
        k = np.arange(1, p * span // q + 1, dtype=np.int64)
        period[-(-k * q // p) - 1] = True
    steps = _periodic(period[:0], period, n).view(np.int8)
    excess = np.subtract(
        np.asarray(mask, dtype=bool).view(np.int8),
        steps,
        dtype=np.int32 if n < 2**31 else np.int64,
    )
    return np.add.accumulate(excess, out=excess)


def _removed_points(mask: np.ndarray, p: int, q: int) -> np.ndarray:
    """0-based indices the trimming pass removes from ``mask``.

    Walk n upward; a member joins the kept set unless that would push the
    kept count above floor(p*n/q).  The excess rises by at most 1 per
    step, so a member is removed exactly when the excess first reaches
    1, 2, ..., max excess: found by a search in its running maximum, which
    is needed only up to the first place the maximum is reached.
    """
    excess = _excess(mask, p, q)
    run = excess[: int(np.argmax(excess)) + 1] if excess.size else excess
    if not run.size or run[-1] <= 0:
        return np.empty(0, dtype=np.intp)
    np.maximum.accumulate(run, out=run)
    return np.searchsorted(run, np.arange(1, int(run[-1]) + 1, dtype=run.dtype))


def _null_modify_mask(mask: np.ndarray, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Kept mask and removed indices of the trimming pass on a prefix."""
    removed = _removed_points(mask, p, q)
    kept = mask.copy()
    kept[removed] = False
    return kept, removed


_AUDIT_CHUNK = 2**14  # rows per write: bounds the memory of the audit text
_AUDIT_LABELS = np.array(["0,,", "1,kept,", "1,removed,"], dtype=object)


@dataclass(frozen=True)
class NullModResult:
    source: SetExpr
    bound: Fraction
    horizon: int
    kept_mask: np.ndarray  # indicator of the kept part on 1..horizon
    removed: tuple[int, ...]  # elements moved to the null part
    approximate: bool  # bound came from an estimate, not an exact limit

    @property
    def kept_expr(self) -> SetExpr:
        """Kept part as an expression: the source minus the removed
        elements, tail unmodified."""
        if not self.removed:
            return self.source
        return Diff(self.source, Explicit(self.removed))

    @property
    def removed_expr(self) -> SetExpr:
        return Explicit(self.removed) if self.removed else Empty()

    def kept_average(self, n: int) -> Fraction:
        if not (1 <= n <= self.horizon):
            raise ValueError("n outside the materialized prefix")
        return Fraction(int(self.kept_mask[:n].sum()), n)

    def removed_density(self, n: int) -> Fraction:
        if not (1 <= n <= self.horizon):
            raise ValueError("n outside the materialized prefix")
        return Fraction(bisect_right(self.removed, n), n)

    def verify(self) -> None:
        """Re-check the decomposition and the bound, exhaustively."""
        mask = indicator(self.source, self.horizon)
        rem = np.zeros(self.horizon, dtype=bool)
        if self.removed:
            rem[np.fromiter(self.removed, dtype=np.int64) - 1] = True
        if np.any(self.kept_mask & rem):
            raise NullModError("kept and removed overlap")
        if not np.array_equal(self.kept_mask | rem, mask):
            raise NullModError("kept and removed do not partition the source")
        p, q = self.bound.numerator, self.bound.denominator
        if _excess(self.kept_mask, p, q).max(initial=0) > 0:
            raise NullModError("kept part exceeds the bound somewhere")

    def export_audit(self, stream) -> None:
        """CSV audit: one row per prefix position, written in chunks."""
        stream.write("N,member,kept_or_removed,running_nu\n")
        status = self.kept_mask.astype(np.int8)  # 0 non-member, 1 kept, 2 removed
        status[np.asarray(self.removed, dtype=np.intp) - 1] = 2
        kept = 0
        for lo in range(0, self.horizon, _AUDIT_CHUNK):
            hi = min(lo + _AUDIT_CHUNK, self.horizon)
            n = np.arange(lo + 1, hi + 1, dtype=np.int64)
            cnt = np.cumsum(self.kept_mask[lo:hi], dtype=np.int64) + kept
            kept = int(cnt[-1])
            labels = _AUDIT_LABELS[status[lo:hi]].tolist()
            rows = zip(n.tolist(), labels, (cnt / n).tolist())
            fields = tuple(itertools.chain.from_iterable(rows))
            stream.write(("%d,%s%.12g\n" * (hi - lo)) % fields)


def null_modify(a: SetExpr, bound, horizon: int = DEFAULT_HORIZON) -> NullModResult:
    """Split a into a conforming part and a null remainder on the prefix.

    The bound must be the exact upper limit when one is computable; an
    estimated bound is accepted otherwise and flags the result
    approximate.
    """
    b = _as_fraction(bound)
    if not (0 <= b <= 1):
        raise NullModError("bound must lie in [0, 1]")
    approximate = False
    try:
        rep = exact_limits(a)
    except NotExactlySolvable:
        approximate = True
    else:
        if rep.upper != b:
            raise NullModError(
                f"bound {b} does not match the exact upper limit {rep.upper}"
            )
    mask = indicator(a, horizon)
    kept, removed_idx = _null_modify_mask(mask, b.numerator, b.denominator)
    removed = tuple(int(i) + 1 for i in removed_idx)
    return NullModResult(a, b, horizon, kept, removed, approximate)


# ---------------------------------------------------------------------------
# chain-level maps


@dataclass(frozen=True)
class ChainModification:
    element: SetExpr
    modified_expr: SetExpr
    modified_mask: np.ndarray
    removed: tuple[int, ...]
    added: tuple[int, ...]
    nu: Fraction


@dataclass(frozen=True)
class ChainMapResult:
    modifications: tuple[ChainModification, ...]  # user order
    horizon: int
    approximate: bool


def _chain_nus(elements, horizon: int) -> tuple[list[Fraction], bool]:
    nus = []
    approximate = False
    for e in elements:
        try:
            rep = exact_limits(e)
        except NotExactlySolvable:
            cls = classify(e, horizon)
            if cls.kind not in ("InF", "Null"):
                raise NullModError("chain element has no convergent average")
            nus.append(_as_fraction(cls.report.limit))
            approximate = True
            continue
        if rep.verdict is not Verdict.IN_F:
            raise NullModError("chain element has no convergent average")
        nus.append(rep.limit)
    return nus, approximate


def _psi_masks(
    masks: list[np.ndarray], nus: list[Fraction]
) -> tuple[list[np.ndarray], list[list[int]]]:
    """Sequential order-preserving null modification of a finite chain.

    Elements are processed in the given order; each one's increment over
    the largest already-processed subset is trimmed to the density gap,
    and the trimmed-away points are deleted from every chain member
    strictly between that subset and the element itself.
    """
    n = len(masks)
    if len(set(nus)) != n:
        raise NullModError("tied densities across chain elements")
    order = sorted(range(n), key=lambda i: nus[i])
    for a, b in zip(order, order[1:]):
        witness = np.flatnonzero(masks[a] & ~masks[b])
        if witness.size:
            raise NullModError(
                f"ordering violation on prefix: {int(witness[0]) + 1} in the "
                f"smaller-density element only"
            )
    masks = [m.copy() for m in masks]
    removed: list[list[int]] = [[] for _ in range(n)]
    processed: list[int] = []
    for k in range(n):
        below = [j for j in processed if nus[j] < nus[k]]
        if below:
            b = max(below, key=lambda j: nus[j])
            base, base_nu = masks[b], nus[b]
        else:
            base, base_nu = np.zeros(masks[k].size, dtype=bool), Fraction(0)
        inc = masks[k] & ~base
        gap = nus[k] - base_nu
        rem_idx = _removed_points(inc, gap.numerator, gap.denominator)
        if rem_idx.size:
            for j in range(n):
                if base_nu < nus[j] <= nus[k]:
                    hit = rem_idx[masks[j][rem_idx]]
                    masks[j][hit] = False
                    removed[j].extend(int(i) + 1 for i in hit)
        processed.append(k)
    for r in removed:
        r.sort()
    return masks, removed


def chain_psi(elements, horizon: int = DEFAULT_HORIZON) -> ChainMapResult:
    """Downward modification of a finite chain, preserving inclusion.

    Each output is a subset of its input with null difference on the
    prefix, every partial average of an output stays at or below its
    density, and comparable inputs stay comparable.
    """
    elements = list(elements)
    nus, approximate = _chain_nus(elements, horizon)
    masks = [indicator(e, horizon) for e in elements]
    out_masks, removed = _psi_masks(masks, nus)
    mods = []
    for e, m, r, nu in zip(elements, out_masks, removed, nus):
        expr = Diff(e, Explicit(tuple(r))) if r else e
        mods.append(ChainModification(e, expr, m, tuple(r), (), nu))
    return ChainMapResult(tuple(mods), horizon, approximate)


def disjoint_modify(parts, horizon: int = DEFAULT_HORIZON) -> ChainMapResult:
    """Trim pairwise-disjoint convergent parts so the trimmed parts'
    densities add up exactly to the density of their union.

    Null parts collapse to the empty set; the rest are cleaned through
    the chain map on the cumulative unions.
    """
    parts = list(parts)
    masks = [indicator(p, horizon) for p in parts]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            overlap = np.flatnonzero(masks[i] & masks[j])
            if overlap.size:
                raise NullModError(
                    f"parts {i} and {j} intersect at {int(overlap[0]) + 1}"
                )
    nus, approximate = _chain_nus(parts, horizon)

    live = [i for i in range(len(parts)) if nus[i] != 0]
    cum_masks = []
    cum_nus = []
    acc = None
    total = Fraction(0)
    for i in live:
        acc = masks[i].copy() if acc is None else acc | masks[i]
        total += nus[i]
        cum_masks.append(acc)
        cum_nus.append(total)
    psi_masks = _psi_masks(cum_masks, cum_nus)[0] if live else []

    mods: list[ChainModification] = []
    live_pos = {i: pos for pos, i in enumerate(live)}
    for i, (part, mask, nu) in enumerate(zip(parts, masks, nus)):
        if i not in live_pos:
            rem = tuple(int(x) + 1 for x in np.flatnonzero(mask))
            mods.append(
                ChainModification(
                    part, Empty(), np.zeros(horizon, dtype=bool), rem, (), nu
                )
            )
            continue
        kept = mask & psi_masks[live_pos[i]]
        rem = tuple(int(x) + 1 for x in np.flatnonzero(mask & ~kept))
        expr = Diff(part, Explicit(rem)) if rem else part
        mods.append(ChainModification(part, expr, kept, rem, (), nu))
    return ChainMapResult(tuple(mods), horizon, approximate)


def chain_phi(elements, horizon: int = DEFAULT_HORIZON) -> ChainMapResult:
    """Two-sided modification: apply the downward map to the complement
    chain, complement back, and apply the downward map once more.

    Outputs differ from inputs by prefix-null sets, preserve strict
    inclusion, and keep every partial average at or below the density.
    """
    elements = list(elements)
    nus, approximate = _chain_nus(elements, horizon)
    masks = [indicator(e, horizon) for e in elements]
    comp_masks = [~m for m in masks]
    comp_nus = [1 - nu for nu in nus]
    stage1, _ = _psi_masks(comp_masks, comp_nus)
    flipped = [~m for m in stage1]
    stage2, removed2 = _psi_masks(flipped, nus)
    mods = []
    for e, orig, mid, final, r2, nu in zip(
        elements, masks, flipped, stage2, removed2, nus
    ):
        added = tuple(int(i) + 1 for i in np.flatnonzero(mid & ~orig))
        expr: SetExpr = e
        if added:
            expr = Union(expr, Explicit(added))
        if r2:
            expr = Diff(expr, Explicit(tuple(r2)))
        mods.append(ChainModification(e, expr, final, tuple(r2), added, nu))
    return ChainMapResult(tuple(mods), horizon, approximate)
