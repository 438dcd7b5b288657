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

import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exprs import (
    MAX_MASK,
    CesaroError,
    Compl,
    Diff,
    Empty,
    Explicit,
    Inter,
    SetExpr,
    Union,
    _as_fraction,
    _bools,
    _check_mask,
    _farey_neighbours,
    _members,
    _Table,
    _table_or_words,
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


def _mask_and_table(e: SetExpr, horizon: int) -> tuple[np.ndarray, _Table | None]:
    """e's mask on [1, horizon], fresh, and its phase table or None
    (``_table_or_words``)."""
    r = _table_or_words(e, horizon)
    return (r.fill(0, horizon), r) if isinstance(r, _Table) else (_bools(r, horizon), None)


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


def _modified(e: SetExpr, added, removed) -> SetExpr:
    """e with the points ``added`` joined and the points ``removed`` taken out."""
    if added:
        e = Union(e, Explicit(tuple(added)))
    if removed:
        e = Diff(e, Explicit(tuple(removed)))
    return e


# The audit is rendered a chunk of rows at a time into fixed-width records of
# NUL-padded fields filled from lookup tables; the records' bytes without the
# NULs are its text.  Each chunk's record is only as wide as its rows need.
_AUDIT_CHUNK = 2**13  # rows per chunk; their arrays are made once per audit
_AUDIT_PIECE = 2**17 - 2**10  # record bytes per write: each text piece stays below 128 KB
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
# ",member,status," of a non-member, a kept member, and the start of a removed
# member's, whose "ed," goes in the field ``slot``
_LABELS = np.array([b",0,,", b",1,kept,", b",1,remov"], "S8").view("u8")
_REMOVED_END = np.frombuffer(b"ed,\0", np.uint32)[0]
# by s = #{10^-10, ..., 10^0 <= running_nu}: "0" at s = 0, exponent notation
# at 1..6, a "0.000" prefix cut to 12 - s bytes at 7..10, and "1" at 11; at
# 1..10 the 12 digits of running_nu·10^(22 - s) follow the prefix
_DECADES = [float(f"1e{j}") for j in range(-10, 1)]
_BOUNDS = [-np.inf, *_DECADES, np.inf]  # decade s is [_BOUNDS[s], _BOUNDS[s + 1])
_SCALE = np.array([float(10 ** (22 - s)) * (1 <= s <= 10) for s in range(12)])
_prefix = [b"0", *[b""] * 6, *(b"0.000"[: 12 - s] for s in range(7, 11)), b"1"]
# the fields the rows of one decade share, by s, left-aligned in 8 bytes
_SHARED = {
    "slot": [b""] * 12,
    "pre": _prefix,
    "exp": [b"e-%02d" % (11 - s) * (1 <= s <= 6) for s in range(12)],
    "tail": [b"\n"] * 12,
}
_SHARED = {f: np.array(v, "S8").view("u8") for f, v in _SHARED.items()}


@functools.lru_cache(maxsize=256)
def _audit_record(digits: int, label: int, decades: tuple[int, ...]):
    """The record of a chunk whose N has at most ``digits`` digits (at
    least 4), whose ",member,status," takes ``label`` bytes (4 with no
    member, 8, or 11 with a removed one) and whose running_nu has its s
    among ``decades``; with the ``_SHARED`` tables read as its fields'
    types, and the offset of running_nu.

    Every field is one unsigned integer, as numpy writes subarray fields
    slowly.  ``nh``, ``slot``, ``pre`` and ``lead`` are wider than their
    text: the fields after them, written later, overwrite the rest."""
    exp = any(1 <= s <= 6 for s in decades)  # some running_nu in exponent notation
    groups = any(1 <= s <= 10 for s in decades)  # some running_nu in (0, 1) has digits
    widths = {"nh": digits - 4, "nl": 4, "label": min(label, 8), "slot": label - 8}
    widths["pre"] = max(len(_prefix[s]) for s in decades)
    if groups:
        widths.update(lead=4 + exp, mid=4, low=4)
    widths.update(exp=4 * exp, tail=1)
    sizes = {"nh": 8, "label": 4 + 4 * (label > 4), "pre": 8 if groups else 1, "lead": 8, "tail": 1}
    names = [f for f, w in widths.items() if w > 0]
    offsets = list(itertools.accumulate((widths[f] for f in names), initial=0))
    formats = [f"u{sizes.get(f, 4)}" for f in names]
    fields = {"names": names, "formats": formats, "offsets": offsets[:-1], "itemsize": offsets[-1]}
    dt = np.dtype(fields)
    shared = {f: t.view(dt[f])[:: 8 // dt[f].itemsize] for f, t in _SHARED.items() if f in names}
    return dt, shared, digits + label


class _AuditWriter:
    """Writes audit rows a chunk of at most ``size`` rows at a time, into
    arrays made once."""

    def __init__(self, size: int):
        widest = _audit_record(len(str(MAX_MASK)), 11, tuple(range(12)))[0].itemsize
        self.raw = np.empty(size * widest, np.uint8)  # the records
        self.floats = np.empty((2, size))
        self.ints = np.empty((4, size), np.int64)  # digit groups and a lookup's result

    def write(self, stream, lo: int, kept: np.ndarray, x: np.ndarray, gone: np.ndarray) -> None:
        """Write the rows N = lo + 1, ..., lo + k of the audit: ``kept`` is
        each row's kept bit, ``x`` its running_nu (0 or in [10^-10, 1]) and
        ``gone`` the offsets of the removed rows, which ``kept`` marks 0."""
        k = x.size
        # a running average rarely leaves its decade within a chunk: s is then
        # a scalar, and otherwise the same as the last row's on most rows
        first, last = bisect_right(_DECADES, x.min()), bisect_right(_DECADES, x.max())
        s = bisect_right(_DECADES, x[-1])
        decades = (s,)
        if first != last:
            other = np.flatnonzero((x < _BOUNDS[s]) | (x >= _BOUNDS[s + 1]))
            s = np.full(k, s)
            s[other] = np.searchsorted(_DECADES, x[other], side="right")
            decades = tuple(sorted({*s[other].tolist(), s[-1]}))
        label = 11 if gone.size else 8 if kept.any() else 4
        digits = max(4, len(str(lo + k)))
        dt, shared, start = _audit_record(digits, label, decades)
        rows = np.ndarray(k, dt, self.raw)
        i = 0  # N: its digits above the last 4 hold for up to 10^4 rows
        while i < k:
            q, r = divmod(lo + 1 + i, 10**4)
            j = min(k, i + 10**4 - r)
            if digits > 4:
                high = (b"%d" % q if q else b"").rjust(digits - 4, b"\0").ljust(8, b"\0")
                self._put(rows[i:j], "nh", np.frombuffer(high, np.uint64), 0)
            rows["nl"][i:j] = _GROUPS[r + (q == 0) * 20000 :][: j - i]
            i = j
        self._put(rows, "label", _LABELS.view(dt["label"]), kept.view(np.uint8))
        for f, t in shared.items():
            self._put(rows, f, t, s)
        if gone.size:  # "slot" spills a NUL into the prefix, written again
            rows["label"][gone], rows["slot"][gone] = _LABELS[2], _REMOVED_END
            if "pre" in shared:
                rows["pre"][gone] = shared["pre"][s if len(decades) == 1 else s[gone]]
        if "lead" in dt.names:
            for i in self._digits(rows, x, s).tolist():  # "%.12g" from Python
                text = self.raw[i * dt.itemsize + start : (i + 1) * dt.itemsize]
                text[:] = np.frombuffer((b"%.12g\n" % x[i]).ljust(text.size, b"\0"), np.uint8)
        flat = self.raw[: k * dt.itemsize]
        step = _AUDIT_PIECE // dt.itemsize * dt.itemsize
        for a in range(0, flat.size, step):
            stream.write(flat[a : a + step].tobytes().translate(None, b"\0").decode("ascii"))

    def _put(self, rows: np.ndarray, field: str, table: np.ndarray, idx) -> None:
        """rows[field] = table[idx], idx an index array or one index for
        every row, through a reused array: numpy writes a scalar to an
        unaligned field slowly."""
        out = self.ints[3].view(table.dtype)[: rows.size]
        if isinstance(idx, int):
            out.fill(table[idx])
        else:
            np.take(table, idx, out=out, mode="wrap")
        rows[field] = out

    def _digits(self, rows: np.ndarray, x: np.ndarray, s) -> np.ndarray:
        """Write the 12 significant digits of each running_nu x in (0, 1),
        trailing zeros dropped, into ``rows``; none for 0 and 1.  Returns the
        rows it could not decide, for Python to format.

        x·10^(22 - s) lies in [10^11, 10^12) and is exact to 2^-14 in
        float64, so it rounds to the 12 digits unless it lies within 2^-12
        of a half or rounds up to 10^12."""
        k = x.size
        y, m = self.floats[:, :k]
        np.multiply(x, _SCALE[s], out=y)
        np.rint(y, out=m)
        y -= m
        np.abs(y, out=y)
        slow = np.flatnonzero(y > 0.5 - 2**-12)
        if m.max() >= 1e12:
            slow = np.union1d(slow, np.flatnonzero(m >= 1e12))
        m[slow] = 0  # keeps the lookups below in range
        lead, mid, low, tmp = self.ints[:, :k]
        np.copyto(lead, m, casting="unsafe")
        np.floor_divide(lead, 10**4, out=mid)
        np.multiply(mid, -(10**4), out=low)
        low += lead
        np.floor_divide(mid, 10**4, out=lead)
        np.multiply(lead, -(10**4), out=tmp)
        mid += tmp
        lead += 20000 * ((1 <= s) & (s <= 6))  # "." after the first digit in exponent notation
        self._put(rows, "lead", _LEAD, lead)
        self._put(rows, "mid", _GROUPS, mid)
        self._put(rows, "low", _GROUPS[10**4 :], low)
        # the groups before the last nonzero one lose their trailing zeros too
        z = np.flatnonzero(low == 0)
        rows["mid"][z] = _GROUPS[mid[z] + 10**4]
        z = z[mid[z] == 0]
        rows["lead"][z] = _LEAD[lead[z] + 10**4]
        return slow


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
        """CSV audit: one row per prefix position, written in chunks.

        After the header ``N,member,kept_or_removed,running_nu`` the text
        is byte for byte that of ``"%d,%d,%s,%.12g\\n" % (N, member, status,
        kept_N / N)`` for N = 1, ..., horizon, with status "kept",
        "removed" or empty and kept_N / N in float64.  The rows are
        rendered ``_AUDIT_CHUNK`` at a time into fixed-width records as
        wide as the chunk needs (``_audit_record``), from arrays made once
        per call, and written to ``stream`` in pieces below 128 KB."""
        stream.write("N,member,kept_or_removed,running_nu\n")
        gone = np.asarray(self.removed, dtype=np.int64) - 1
        size = min(self.horizon, _AUDIT_CHUNK)
        writer = _AuditWriter(size)
        n = np.arange(1, size + 1, dtype=np.float64)
        cnt, x = np.empty(size, np.int64), np.empty(size)
        kept = 0
        for lo in range(0, self.horizon, _AUDIT_CHUNK):
            part = self.kept_mask[lo : lo + _AUDIT_CHUNK]
            k = part.size
            c = np.cumsum(part, dtype=np.int64, out=cnt[:k])
            c += kept
            kept = int(c[-1])
            np.divide(c, n[:k], out=x[:k])
            n += _AUDIT_CHUNK
            out = gone[gone.searchsorted(lo) : gone.searchsorted(lo + k)] - lo
            writer.write(stream, lo, part, x[:k], out)


def null_modify(a: SetExpr, bound, horizon: int = DEFAULT_HORIZON) -> NullModResult:
    """Split a into a conforming part and a null remainder on the prefix.

    The bound must be the exact upper limit when one is computable; an
    estimated bound is accepted otherwise and flags the result
    approximate.
    """
    _check_mask(horizon, NullModError)
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
    _check_mask(horizon, NullModError)
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
    _check_mask(horizon, NullModError)
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
    _check_mask(horizon, NullModError)
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
