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
    MAX_MASK,
    TABLE_BASE,
    CesaroError,
    Compl,
    Diff,
    Empty,
    Explicit,
    Inter,
    SetExpr,
    Union,
    _eval,
    _farey_neighbours,
    _Table,
    indicator,
)
from .limits import (
    _CHUNK,
    DEFAULT_HORIZON,
    NotExactlySolvable,
    classify,
    exact_limits,
)


class NullModError(CesaroError):
    pass


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def _check_horizon(horizon: int, error: type[CesaroError]) -> None:
    """Reject a mask of ``MAX_MASK`` elements or more before it is allocated."""
    if horizon >= MAX_MASK:
        raise error(f"horizon {horizon} not below the mask limit {MAX_MASK}")


_RANK = np.arange(1, _CHUNK + 1, dtype=np.int64)  # a member's rank in its chunk
_RANK.flags.writeable = False

#: a skipped stretch shorter than this is scanned instead: each stretch
#: read costs a few numpy calls, about as much as scanning this many
#: positions
_SKIP_MIN = _CHUNK // 16


def _dense_spans(t: _Table, p: int, q: int, dirty: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the stretches of [1, N] the trimming pass must
    read, from the phase table ``t`` of the trimmed set, given that the
    mask may differ from the table only on [1, dirty].

    Inside a piece of form (L, R), past ``dirty``, with M = lcm(L, q), the
    excess e_n = c_n - floor(p*n/q) has e_{n+M} = e_n + |R|·M/L - p·M/q.
    Where that drift is <= 0, each excess in the piece is at most the one
    M positions earlier, so no new record falls past its first M
    positions: only those are read, and none of a piece without members.
    Pieces that drift upward are read whole.
    """
    lo = np.maximum(t.bounds[:-1], dirty)
    hi = t.bounds[1:]
    moduli = np.array([f.modulus for f in t.forms], dtype=np.int64)[t.phase]
    sizes = np.array([f.residues.size for f in t.forms], dtype=np.int64)[t.phase]
    flat = sizes * q <= p * moduli  # |R|/L <= p/q; both products fit int64
    end = np.where(flat, np.minimum(hi, lo + np.lcm(moduli, q)), hi)
    end[sizes == 0] = 0
    keep = end > lo
    starts = np.concatenate(([0], lo[keep])) if dirty else lo[keep]
    ends = np.concatenate(([dirty], end[keep])) if dirty else end[keep]
    if not starts.size:
        return starts, ends
    # join the stretches whose gap is short
    cut = np.flatnonzero(starts[1:] - ends[:-1] >= _SKIP_MIN)
    return starts[np.concatenate(([0], cut + 1))], ends[np.append(cut, ends.size - 1)]


def _removed_points(
    mask: np.ndarray,
    p: int,
    q: int,
    below: np.ndarray | None = None,
    table: _Table | None = None,
    dirty: int = 0,
) -> np.ndarray:
    """0-based indices the trimming pass removes from ``mask``, or from
    ``mask & ~below`` when ``below`` is given.

    Walk n upward; a member joins the kept set unless that would push the
    kept count above floor(p*n/q).  The excess e_n = c_n - floor(p*n/q)
    rises only at members, where it is j - floor(p*n/q) for the j-th
    member n, and by at most 1 from one member to the next.  So a member
    is removed exactly when its excess is a new record above 0.  The
    members are read in chunks of ``_CHUNK`` positions, so every
    temporary is chunk-sized; the rank and the record carry from one
    chunk to the next.

    ``table``, when given, is the phase table of the trimmed set, which
    the mask matches past its first ``dirty`` positions.  Then only the
    stretches ``_dense_spans`` names are read, and the rank steps over
    the rest by the table's counts, from one call.
    """
    n = mask.size
    if not 0 <= p <= q:
        raise NullModError("bound must lie in [0, 1]")
    # the lower Farey neighbour of order n has the floors of p/q up to n
    # and a numerator at most n < MAX_MASK, so p*n fits int64
    p, q = _farey_neighbours(Fraction(p, q), max(n, 1))[0].as_integer_ratio()
    if table is None:
        starts, ends = np.array([0]), np.array([n])
        skipped = np.zeros(1, dtype=np.int64)
    else:
        starts, ends = _dense_spans(table, p, q, dirty)
        c = table.counts(np.concatenate((starts, ends)))
        # the members between one stretch's end and the next one's start
        skipped = c[: starts.size] - np.concatenate(([0], c[starts.size : -1]))
    tmp = np.empty(min(n, _CHUNK), dtype=bool)
    found = []
    seen = best = 0  # members so far; highest excess so far, at least 0
    for s, e, skip in zip(starts.tolist(), ends.tolist(), skipped.tolist()):
        seen += skip
        for a in range(s, e, _CHUNK):
            part = mask[a : min(a + _CHUNK, e)]
            if below is not None:
                part = np.greater(part, below[a : a + part.size], out=tmp[: part.size])
            idx = np.flatnonzero(part)
            if not idx.size:
                continue
            # the excess minus ``seen``, in place over floor(p*n/q)
            ex = idx + (a + 1)
            ex *= p
            ex //= q
            np.subtract(_RANK[: idx.size], ex, out=ex)
            top = int(ex.max()) + seen
            if top > best:
                np.maximum.accumulate(ex, out=ex)
                levels = np.arange(best + 1 - seen, top + 1 - seen, dtype=np.int64)
                found.append(idx[np.searchsorted(ex, levels)] + a)
                best = top
            seen += idx.size
    return np.concatenate(found) if found else np.empty(0, dtype=np.intp)


def _table_or_mask(e: SetExpr, horizon: int) -> _Table | np.ndarray:
    """e on [1, horizon]: from ``TABLE_BASE`` on, where tables pay for
    themselves (as in ``_eval``), its phase table where it has one, each
    node taking its own; else its mask, fresh."""
    if horizon < TABLE_BASE:
        return indicator(e, horizon)
    return _eval(e, horizon, horizon)


def _mask_and_table(e: SetExpr, horizon: int) -> tuple[np.ndarray, _Table | None]:
    """e's mask on [1, horizon], fresh, and its phase table or None
    (``_table_or_mask``)."""
    r = _table_or_mask(e, horizon)
    return (r.fill(0, horizon), r) if isinstance(r, _Table) else (r, None)


def _masks_and_tables(sets, horizon: int) -> tuple[list[np.ndarray], list[_Table | None]]:
    """``_mask_and_table`` of each set, as a list of masks and one of tables."""
    pairs = [_mask_and_table(e, horizon) for e in sets]
    return [m for m, _ in pairs], [t for _, t in pairs]


def _combined(node: SetExpr, horizon: int, *tables: _Table | None) -> _Table | None:
    """``node``'s phase table on [1, horizon] from its operands' tables,
    or None where an operand has none or the table would not pay."""
    if any(t is None for t in tables):
        return None
    return node._table(horizon, *tables)


def _members(r: _Table | np.ndarray) -> int:
    """The members of a set on [1, N], from its phase table or its mask."""
    return int(r.counts(r.bounds[-1:])[0]) if isinstance(r, _Table) else int(np.count_nonzero(r))


def _first_outside(lower: SetExpr, upper: SetExpr, lo, hi, horizon: int) -> int | None:
    """The least n in [1, horizon] in ``lower`` but not in ``upper``, or
    None, from their sets ``lo`` and ``hi`` there (``_table_or_mask``,
    left unchanged).  The difference is counted from its phase table where
    both sets are tables; masks are built only to name n."""
    if isinstance(lo, _Table) and isinstance(hi, _Table):
        diff = Diff(lower, upper)._table(horizon, lo, hi)
        if diff is not None and not _members(diff):
            return None
    lo, hi = (r.fill(0, horizon) if isinstance(r, _Table) else r for r in (lo, hi))
    extra = np.greater(lo, hi)  # lo & ~hi
    return int(extra.argmax()) + 1 if extra.any() else None


def _modified(e: SetExpr, added, removed) -> SetExpr:
    """e with the points ``added`` joined and the points ``removed`` taken out."""
    if added:
        e = Union(e, Explicit(tuple(added)))
    if removed:
        e = Diff(e, Explicit(tuple(removed)))
    return e


def _null_modify_mask(mask: np.ndarray, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Kept mask and removed indices of the trimming pass on a prefix."""
    removed = _removed_points(mask, p, q)
    kept = mask.copy()
    kept[removed] = False
    return kept, removed


# The audit is rendered a chunk at a time into records of NUL-padded fixed-width
# fields filled from lookup tables; the records' bytes without the NULs are its text.
_AUDIT_CHUNK = 2**11  # rows per write: every per-chunk array stays below 128 KB
_AUDIT_ROW = np.dtype(  # "ed," of "removed," opens prefix; lead: digits 1-4 of running_nu
    [("n", "u4", 3), ("label", "u8"), ("prefix", "u8"), ("lead", "u8")]
    + [("mid", "u4"), ("low", "u4"), ("tail", "u8")]
)
_NU_START = _AUDIT_ROW.fields["prefix"][1] + 3
_digits = list(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + 48)  # digit i of k
_nonzero = [d > 48 for d in _digits]
_more = list(itertools.accumulate(_nonzero[::-1], np.logical_or))[::-1]  # a nonzero from i on
_bare = [d * m for d, m in zip(_digits, itertools.accumulate(_nonzero, np.logical_or))]
_cut = [d * m for d, m in zip(_digits, _more)]
# group k at k + j·10^4: "%04d" % k (j = 0), less trailing (1) or leading zeros (2)
_GROUPS = np.stack([np.concatenate(c) for c in zip(_digits, _cut, _bare)], 1).view("u4").ravel()
# digits 1-4 the same (j = 0, 1), then with "." after the first unless nothing follows
_none, _dot = np.zeros(10**4, np.uint8), np.full(10**4, 46, np.uint8)
_lead = [[*_digits, _none], [*_cut, _none], [_digits[0], _dot, *_digits[1:]]]
_lead += [[_cut[0], _dot * _more[1], *_cut[1:]]]
_LEAD = np.stack([np.concatenate(c) for c in zip(*_lead)] + [_none.repeat(4)] * 3, 1)
_LEAD = _LEAD.view("u8").ravel()
# by status, then the end of ",1,removed," that goes in prefix
_LABELS = np.array([b",0,,", b",1,kept,", b",1,remov", b"ed,"], "S8").view("u8")
# by s = #{10^-10, ..., 10^0 <= running_nu}: "0" at s = 0, exponent notation at 1..6,
# a "0.000" prefix cut to 12 - s bytes at 7..10, and the digits alone at 11
_DECADES = np.array([float(f"1e{j}") for j in range(-10, 1)])
_SCALE = np.array([float(10 ** (22 - s)) for s in range(12)])
_prefix = [b"0", *[b""] * 6, *(b"0.000"[: 12 - s] for s in range(7, 11)), b""]
_PREFIX = np.array([b"\0\0\0" + p for p in _prefix], "S8").view("u8")
_TAIL = np.array([b"e-%02d" % (11 - s) * (1 <= s <= 6) + b"\n" for s in range(12)], "S8").view("u8")


def _render_nu(x: np.ndarray, rows: np.ndarray) -> None:
    """Write ``"%.12g\\n" % v`` for each v of x, 0 or in [10^-10, 1], into
    the running_nu fields of ``rows``.  v·10^(22 - s) lies in [10^11, 10^12)
    and is exact to 2^-14 in float64, so it rounds to the 12 significant
    digits unless it lies within 2^-12 of a half or rounds up to 10^12:
    those rows Python formats."""
    # a running average rarely leaves its decade within a chunk: s is then a scalar
    first, last = _DECADES.searchsorted((x.min(), x.max()), side="right")
    s = first + sum(x >= d for d in _DECADES[first:last])
    y = x * _SCALE[s]
    m = np.rint(y)
    slow = np.flatnonzero((np.abs(y - m) > 0.5 - 2**-12) | (m >= 1e12))
    m[slow] = 0  # keeps the lookups below in range
    top, low = np.divmod(m.astype(np.int64), 10**4)
    lead, mid = np.divmod(top, 10**4)
    stripped = low == 0  # the groups before the last nonzero one lose trailing zeros
    rows["low"] = _GROUPS[low + 10**4]
    rows["mid"] = _GROUPS[mid + stripped * 10**4]
    stripped &= mid == 0
    rows["lead"] = _LEAD[lead + (stripped + ((1 <= s) & (s <= 6)) * 2) * 10**4]
    rows["prefix"], rows["tail"] = _PREFIX[s], _TAIL[s]
    for i in slow.tolist():
        text = (b"%.12g\n" % x[i]).ljust(_AUDIT_ROW.itemsize - _NU_START, b"\0")
        rows[i : i + 1].view(np.uint8)[_NU_START:] = np.frombuffer(text, np.uint8)


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
        return _modified(self.source, (), self.removed)

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
        mask, table = _mask_and_table(self.source, self.horizon)
        rem = np.array(self.removed, dtype=np.int64) - 1
        if self.kept_mask[rem].any():
            raise NullModError("kept and removed overlap")
        # disjoint, they partition the source when it holds the removed
        # points and is the kept part without them
        whole = mask[rem].all()
        mask[rem] = False
        if not (whole and np.array_equal(self.kept_mask, mask)):
            raise NullModError("kept and removed do not partition the source")
        p, q = self.bound.numerator, self.bound.denominator
        # past the last removed point the kept part is the source
        dirty = self.removed[-1] if self.removed else 0
        if _removed_points(self.kept_mask, p, q, table=table, dirty=dirty).size:
            raise NullModError("kept part exceeds the bound somewhere")

    def export_audit(self, stream) -> None:
        """CSV audit: one row per prefix position, written in chunks."""
        stream.write("N,member,kept_or_removed,running_nu\n")
        gone = np.asarray(self.removed, dtype=np.int64) - 1
        buf = np.empty(min(self.horizon, _AUDIT_CHUNK), _AUDIT_ROW)
        kept = 0
        for lo in range(0, self.horizon, _AUDIT_CHUNK):
            rows = buf[: min(_AUDIT_CHUNK, self.horizon - lo)]
            i = 0  # N without leading zeros (j = 2); its first two words change at each 10^4
            while i < rows.size:
                q, r = divmod(lo + 1 + i, 10**4)
                j = min(rows.size, i + 10**4 - r)
                rows["n"][i:j, :2] = _GROUPS[[q // 10**4 + 20000, q % 10**4 + (q < 10**4) * 20000]]
                rows["n"][i:j, 2] = _GROUPS[r + (q == 0) * 20000 :][: j - i]
                i = j
            part = self.kept_mask[lo : lo + rows.size]
            rows["label"] = np.where(part, _LABELS[1], _LABELS[0])
            cnt = np.cumsum(part, dtype=np.int64) + kept
            kept = int(cnt[-1])
            _render_nu(cnt / np.arange(lo + 1, lo + 1 + rows.size), rows)
            out = gone[gone.searchsorted(lo) : gone.searchsorted(lo + rows.size)] - lo
            rows["label"][out], rows["prefix"][out] = _LABELS[2], rows["prefix"][out] | _LABELS[3]
            stream.write(rows.tobytes().translate(None, b"\0").decode("ascii"))


def null_modify(a: SetExpr, bound, horizon: int = DEFAULT_HORIZON) -> NullModResult:
    """Split a into a conforming part and a null remainder on the prefix.

    The bound must be the exact upper limit when one is computable; an
    estimated bound is accepted otherwise and flags the result
    approximate.
    """
    _check_horizon(horizon, NullModError)
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
    kept, table = _mask_and_table(a, horizon)  # fresh, so trimmed in place
    removed_idx = _removed_points(kept, b.numerator, b.denominator, table=table)
    kept[removed_idx] = False
    removed = tuple((removed_idx + 1).tolist())
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
        cls = classify(e, horizon)
        if cls.kind not in ("InF", "Null"):
            raise NullModError("chain element has no convergent average")
        nus.append(_as_fraction(cls.report.limit))
        approximate |= cls.approximate
    return nus, approximate


def _psi_masks(
    masks: list[np.ndarray],
    nus: list[Fraction],
    sets: list[SetExpr],
    tables: list[_Table | None],
    dirty: int = 0,
) -> tuple[list[list[int]], int]:
    """Sequential order-preserving null modification of a finite chain,
    in place on ``masks``; returns the points removed from each element,
    and the last position any trim has edited so far.

    Elements are processed in the given order; each one's increment over
    the largest already-processed subset is trimmed to the density gap,
    and the trimmed-away points are deleted from every chain member
    strictly between that subset and the element itself.  ``sets`` and
    ``tables`` are the elements and their phase tables (or None); the
    masks match them past their first ``dirty`` positions, and each trim
    and ordering check reads the table of the difference it scans.
    """
    n = len(masks)
    if len(set(nus)) != n:
        raise NullModError("tied densities across chain elements")

    def increment(k: int, b: int) -> _Table | None:
        return _combined(Diff(sets[k], sets[b]), masks[k].size, tables[k], tables[b])

    order = sorted(range(n), key=lambda i: nus[i])
    for a, b in zip(order, order[1:]):
        # trimmed to density 0, the points of a & ~b are all removed
        extra = _removed_points(masks[a], 0, 1, masks[b], increment(a, b), dirty)
        if extra.size:
            raise NullModError(
                f"ordering violation on prefix: {int(extra[0]) + 1} in the "
                f"smaller-density element only"
            )
    removed: list[list[int]] = [[] for _ in range(n)]
    processed: list[int] = []
    for k in range(n):
        below = [j for j in processed if nus[j] < nus[k]]
        if below:
            b = max(below, key=lambda j: nus[j])
            base, base_nu, table = masks[b], nus[b], increment(k, b)
        else:
            base, base_nu, table = None, Fraction(0), tables[k]
        gap = nus[k] - base_nu
        rem_idx = _removed_points(masks[k], gap.numerator, gap.denominator, base, table, dirty)
        if rem_idx.size:
            dirty = max(dirty, int(rem_idx[-1]) + 1)
            for j in range(n):
                if base_nu < nus[j] <= nus[k]:
                    hit = rem_idx[masks[j][rem_idx]]
                    masks[j][hit] = False
                    removed[j].extend((hit + 1).tolist())
        processed.append(k)
    for r in removed:
        r.sort()
    return removed, dirty


def chain_psi(elements, horizon: int = DEFAULT_HORIZON) -> ChainMapResult:
    """Downward modification of a finite chain, preserving inclusion.

    Each output is a subset of its input with null difference on the
    prefix, every partial average of an output stays at or below its
    density, and comparable inputs stay comparable.
    """
    _check_horizon(horizon, NullModError)
    elements = list(elements)
    nus, approximate = _chain_nus(elements, horizon)
    masks, tables = _masks_and_tables(elements, horizon)
    removed, _ = _psi_masks(masks, nus, elements, tables)
    mods = []
    for e, m, r, nu in zip(elements, masks, removed, nus):
        mods.append(ChainModification(e, _modified(e, (), r), m, tuple(r), (), nu))
    return ChainMapResult(tuple(mods), horizon, approximate)


def disjoint_modify(parts, horizon: int = DEFAULT_HORIZON) -> ChainMapResult:
    """Trim pairwise-disjoint convergent parts so the trimmed parts'
    densities add up exactly to the density of their union.

    Null parts collapse to the empty set; the rest are cleaned through
    the chain map on the cumulative unions.
    """
    _check_horizon(horizon, NullModError)
    parts = list(parts)
    masks, tables = _masks_and_tables(parts, horizon)
    tmp = np.empty(horizon, dtype=bool)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            meet = _combined(Inter(parts[i], parts[j]), horizon, tables[i], tables[j])
            if meet is not None and not _members(meet):
                continue  # the masks are needed only to name a common point
            if np.logical_and(masks[i], masks[j], out=tmp).any():
                raise NullModError(
                    f"parts {i} and {j} intersect at {int(tmp.argmax()) + 1}"
                )
    nus, approximate = _chain_nus(parts, horizon)
    acc = np.zeros(horizon, dtype=bool)
    cover = {}  # part index -> union of the non-null parts up to it
    unions, union_tables = [Empty()], [_combined(Empty(), horizon)]  # the same as sets
    for i, nu in enumerate(nus):
        if nu:
            acc = cover[i] = acc | masks[i]
            unions.append(Union(unions[-1], parts[i]))
            union_tables.append(_combined(unions[-1], horizon, union_tables[-1], tables[i]))
    totals = list(itertools.accumulate(nu for nu in nus if nu))
    removed, _ = _psi_masks(list(cover.values()), totals, unions[1:], union_tables[1:])
    trimmed = dict(zip(cover, removed))  # part index -> the points trimmed from its cover
    mods: list[ChainModification] = []
    for i, (part, mask, nu) in enumerate(zip(parts, masks, nus)):
        if nu:  # the part loses its points that left its cover
            gone = np.array(trimmed[i], dtype=np.int64)
            gone = gone[mask[gone - 1]]
        else:  # a null part keeps nothing
            gone = np.flatnonzero(mask) + 1
        mask[gone - 1] = False
        rem = tuple(gone.tolist())
        expr = _modified(part, (), rem) if nu else Empty()
        mods.append(ChainModification(part, expr, mask, rem, (), nu))
    return ChainMapResult(tuple(mods), horizon, approximate)


def chain_phi(elements, horizon: int = DEFAULT_HORIZON) -> ChainMapResult:
    """Two-sided modification: apply the downward map to the complement
    chain, complement back, and apply the downward map once more.

    Outputs differ from inputs by prefix-null sets, preserve strict
    inclusion, and keep every partial average at or below the density.
    The points the first map removes from a complement are exactly the
    points added back to the element, so both maps run in place on one
    set of masks.
    """
    _check_horizon(horizon, NullModError)
    elements = list(elements)
    nus, approximate = _chain_nus(elements, horizon)
    masks, tables = _masks_and_tables(elements, horizon)
    for m in masks:
        np.invert(m, out=m)  # the complement chain
    compls = [Compl(e) for e in elements]
    compl_tables = [_combined(s, horizon, t) for s, t in zip(compls, tables)]
    # the second pass reads the masks as edited by the first
    added, dirty = _psi_masks(masks, [1 - nu for nu in nus], compls, compl_tables)
    for m in masks:
        np.invert(m, out=m)
    removed, _ = _psi_masks(masks, nus, elements, tables, dirty)
    mods = []
    for e, final, add, rem, nu in zip(elements, masks, added, removed, nus):
        add, rem = tuple(add), tuple(rem)
        mods.append(ChainModification(e, _modified(e, add, rem), final, rem, add, nu))
    return ChainMapResult(tuple(mods), horizon, approximate)
