"""Set expressions over the positive integers.

A ``SetExpr`` is a closed, immutable description of a subset of
N = {1, 2, ...}: explicit finite sets, residue classes, run-length block
sets, greedy target-density sets, a small registry of named predicate
sets, and Boolean/affine combinators on top of those.  Everything here is
exact: membership is a pure total function and partial averages are
returned as ``fractions.Fraction``.

A node kind is one class; to add one, define its methods.  Each frozen
dataclass below holds every rule of its kind: membership (``_member``),
its phase table (``_table``) and mask kernel (``_indicator``), counts
(``_counts``), the rewrite of ``canonicalize`` (``_canon``), its one
exact rule (``_rule``: one ``_Rule``, the node's periodic forms on the
phases of a lattice, else a bracket of its (upper, lower, method),
computed once from its operands' rules), and its DSL ``keyword``,
``_parse`` and ``_format``.
``SetExpr`` holds the defaults.  The public functions check their
arguments and dispatch.

A generator is a leaf whose runs grow without bound, so that it has o(N)
runs up to N: a geometric or polynomial block set, or ``paired`` (the
evens on the member runs of geometric 2 at half scale, the odds off
them).  A tree over one generator and periodic or null sets, under
Boolean, complement and shift nodes, is up to a null set one periodic
form on the generator's member runs and one off them (its two phases),
so its limits are an affine image of the generator's.  A dilated
generator keeps only that image, a bracket; two different generators,
and a dilated generator inside a Boolean node, have no rule.

Residue sets are sorted int64 arrays of distinct residues; the exact
engine and ``canonicalize`` lift and combine them with the same numpy
operations (``_lift``, ``_union``, ``_inter``, ``_symdiff``, ``_diff``).

A set on [1, N] is evaluated once per call, bottom up (``_eval``), as a
phase table where it has one and as a word mask otherwise; ``_eval`` is
the only route from an expression to either, and its one policy picks
between them.  A word mask is a uint64 array of ceil(N/64) words, one
bit per position: bit i of word w is n = 64w + i + 1, and the bits past N
are 0.  The mask kernels combine, shift and count whole words
(``np.bitwise_count``).  Two readers serve a table and words alike:
``_segment``, the membership of a range as a bool array, of words only
those covering it unpacked, and ``_counts_at``, the counts at given
positions; ``indicator``, the counts, the window scans and the chain
layer's trims read a set through them.  A phase table (``_Table``) cuts [1, N]
at a few breakpoints into pieces that are each one fuzz-free form:
residue classes and constants are one piece, a greedy set with target
p/q is periodic with period q from n = 3 on, block sets are one All or
Empty piece per run (a ``RunList`` set adds one periodic piece once its
listed runs are spent), and the combinators combine their operands'
tables piece by piece.  Counts and the streamed window scan read a table
in closed form, and ``indicator`` fills it out to a mask.  The policy: a
leaf takes its table where it has one; a combinator takes its table
only in a tree whose root covers ``TABLE_BASE`` positions or more, and
only where its table costs less than its mask (``_affordable``).
Explicit sets, the sparse predicates and primes, and every node above
one of them, keep mask kernels; a table under such a node is written out
to words (``_Table.words``).  Masks stop below ``MAX_MASK`` and tables
below ``MAX_TABLE``; block sets and ``paired``, whose counts come from
their tables, count below ``MAX_TABLE`` only.  Nothing is cached between
calls but the primes sieve, kept as words of the same layout and built
in segments (``_prime_words``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, takewhile
from operator import and_, lt, or_, sub, xor
from typing import NamedTuple

import numpy as np

#: Largest explicit set accepted.  Bigger explicit inputs are rejected:
#: they have density 0 anyway and usually signal misuse.
MAX_EXPLICIT = 10**6

#: Largest modulus of residue rewriting in ``canonicalize`` and of greedy/run-list forms.
MAX_CANON_MODULUS = 10**6

#: residue refinement guard: reject common moduli beyond this
MAX_MODULUS = 10**9

#: largest residue array the exact engine builds; a lift or complement
#: that would need more entries raises NotExactlySolvable before allocating
MAX_FORM_ENTRIES = 1 << 24

#: Masks and the primes sieve hold fewer than this many elements, so every
#: count fits in int32.
MAX_MASK = 2**31

#: Phase tables cover [1, N] for N below this, so every count and position
#: is exact in float64.
MAX_TABLE = 2**53

#: The size rule of phase tables, from measured cost parity: a combinator
#: keeps its table on [1, N] only from N = TABLE_BASE on, below which the
#: fixed cost of building and scanning a table exceeds the mask's, and,
#: where it lifts or complements forms, while TABLE_SHARE · (residues its
#: forms hold) <= N, past which the table's size does.
TABLE_SHARE = 64
TABLE_BASE = 1 << 16


class CesaroError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(CesaroError):
    """Unknown predicate name or other registry misconfiguration."""


class NotExactlySolvable(CesaroError):
    """The expression is outside the exactly solvable fragment."""


# ---------------------------------------------------------------------------
# residue sets as sorted int64 arrays


@dataclass(frozen=True, eq=False)
class _Form:
    """Residues mod modulus, possibly perturbed by some null set (fuzz).

    ``residues`` is a sorted int64 array of distinct residues in
    [0, modulus); every rule keeps it so.  The perturbation is never
    tracked pointwise; it only matters that it is null, which leaves both
    Cesàro limits at |residues|/modulus.
    """

    modulus: int
    residues: np.ndarray
    fuzz: bool

    @property
    def density(self) -> Fraction:
        return Fraction(self.residues.size, self.modulus)


_NONE = np.empty(0, dtype=np.int64)
_ZERO = np.zeros(1, dtype=np.int64)
_ONE = np.ones(1, dtype=np.int64)
_NONE.flags.writeable = _ZERO.flags.writeable = _ONE.flags.writeable = False  # shared by many forms


class _Rule(NamedTuple):
    """A node's exact rule: up to a null set, one form per phase of a
    lattice, or where there are no phases, a bracket.

    The lattice is empty (``gen`` None), with one phase, the set's form,
    whose density is both limits; or it is one generator ``gen``, a leaf
    whose runs grow without bound (a geometric or polynomial block set, or
    ``paired``), with two phases: the form ``on`` on the generator's member
    runs and the form ``off`` on its other runs.  A generator has o(N) runs
    up to N, and a form of modulus L misses its density by less than L in
    each run: c_N = d(off)·N + (d(on) − d(off))·c_N(runs) + o(N), where
    c_N(runs) counts the points of the member runs, whose (upper, lower,
    method) are ``runs``.  With no phases, ``bracket`` is the set's
    (upper, lower, method).
    """

    phases: tuple[_Form, ...]
    gen: SetExpr | None = None
    runs: tuple[Fraction, Fraction, str] | None = None
    bracket: tuple[Fraction, Fraction, str] | None = None

    @property
    def form(self) -> _Form | None:
        """The one phase of the empty lattice, or None."""
        return self.phases[0] if len(self.phases) == 1 else None

    def limits(self) -> tuple[Fraction, Fraction, str]:
        """(upper, lower, method) of the set."""
        return self.bracket or self.at([f.density for f in self.phases])

    def at(self, densities: list[Fraction]) -> tuple[Fraction, Fraction, str]:
        """The limits of a set on this lattice whose phases have these
        densities: on a generator those of off + (on − off)·ν_N, where ν_N
        has the limits ``runs``, so the ends swap where on < off."""
        if self.gen is None:
            (d,) = densities
            return d, d, "exact"
        (on, off), (upper, lower, method) = densities, self.runs
        beta = on - off
        if beta < 0:
            upper, lower = lower, upper
        return off + beta * upper, off + beta * lower, method

    def map(self, fn: Callable[..., _Form], *args) -> _Rule:
        """This rule with each phase f mapped to fn(f, *args)."""
        return _Rule(tuple([fn(f, *args) for f in self.phases]), self.gen, self.runs, self.bracket)

    def rephased(self, phases: list[_Form]) -> _Rule:
        """These phases on this lattice; where a generator's two phases are
        one set, that set as a fuzzy form (it differs from them at run ends)."""
        if len(phases) == 2:
            on, off = phases
            L = math.lcm(on.modulus, off.modulus)
            if _fits(on, L) and _fits(off, L):
                res = _lift(on, L)
                if np.array_equal(res, _lift(off, L)):
                    return _Rule((_Form(L, res, True),))
        return _Rule(tuple(phases), self.gen, self.runs)


def _bracket(upper: Fraction, lower: Fraction, method: str) -> _Rule:
    """The rule with no phases whose bracket is (upper, lower, method)."""
    return _Rule((), bracket=(upper, lower, method))


def _aligned(a: _Rule, b: _Rule) -> tuple[_Rule, tuple[_Form, ...], tuple[_Form, ...]] | None:
    """The rule of a and b whose lattice is their joint one, and each one's
    phases on it (a form is every phase); None where one has no phases or
    they follow different generators."""
    if not (a.phases and b.phases) or (a.gen and b.gen and a.gen != b.gen):
        return None
    lattice = b if a.gen is None else a
    n = len(lattice.phases)
    return lattice, a.phases * (n // len(a.phases)), b.phases * (n // len(b.phases))


def _fits(f: _Form, L: int) -> bool:
    """Whether f lifts to L, a multiple of its modulus, within the caps above."""
    return L <= MAX_MODULUS and f.residues.size * (L // f.modulus) <= MAX_FORM_ENTRIES


def _lift(f: _Form, L: int) -> np.ndarray:
    """The residues of f modulo L, a multiple of f.modulus, still sorted:
    row i of the table holds r + i·modulus."""
    if L == f.modulus or not f.residues.size:
        return f.residues
    return (np.arange(0, L, f.modulus)[:, None] + f.residues).ravel()


def _complement(f: _Form) -> np.ndarray:
    """The residues modulo f.modulus that f lacks, sorted."""
    table = np.ones(f.modulus, dtype=bool)
    table[f.residues] = False
    return np.flatnonzero(table)


def _complement_form(f: _Form) -> _Form:
    """The complement of the form f, refused past ``MAX_FORM_ENTRIES``."""
    if f.modulus > MAX_FORM_ENTRIES:
        raise NotExactlySolvable(f"complement of a form of modulus {f.modulus} is past the form cap")
    return _Form(f.modulus, _complement(f), f.fuzz)


def _rotated_form(f: _Form, s: int) -> _Form:
    """The form of f shifted by s >= 0: shifting drops nothing but delays
    the pattern, so a finite prefix of the rotated residue classes is
    missing, a null perturbation."""
    return _Form(f.modulus, _rotate(f.residues, f.modulus, s % f.modulus), f.fuzz or s > 0)


def _merged(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a and b merged in order, and where each entry differs from the next."""
    c = np.concatenate((a, b))
    c.sort(kind="stable")  # two sorted runs: a single merge
    return c, c[1:] != c[:-1]


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c, new = _merged(a, b)
    keep = np.ones(c.size, dtype=bool)
    keep[1:] = new
    return c[keep]


def _inter(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c, new = _merged(a, b)
    return c[:-1][~new]


def _symdiff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c, new = _merged(a, b)
    keep = np.ones(c.size, dtype=bool)
    keep[1:] = new
    keep[:-1] &= new
    return c[keep]


def _diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _symdiff(a, _inter(a, b))


def _divisors(m: int) -> list[int]:
    """The divisors of m in increasing order, by trial division up to isqrt(m)."""
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def _rotate(res: np.ndarray, m: int, s: int) -> np.ndarray:
    """The residues r + s mod m of the sorted residues ``res``, still
    sorted (0 <= s < m)."""
    # r + s wraps below s exactly for the residues r >= m - s
    i = int(res.searchsorted(m - s))
    return np.concatenate((res[i:] + (s - m), res[:i] + s))


def _reduce_residue(m: int, res: np.ndarray) -> SetExpr:
    """Smallest-modulus residue expression denoting the residues ``res``
    (sorted and distinct) modulo m.

    R has period d, a divisor of m, exactly when R + d = R mod m; it then
    holds m/d lifted copies of each of its residues below d, which are its
    first |R|·d/m entries.  So only d = m/c for c dividing gcd(m, |R|) can
    pass, and d = m always does.
    """
    if not res.size:
        return Empty()
    for copies in reversed(_divisors(math.gcd(m, res.size))):
        d = m // copies  # increasing
        if np.array_equal(_rotate(res, m, d % m), res):
            low = res[: res.size // copies]
            return All() if low.size == d else Residue(d, frozenset(low.tolist()))


# ---------------------------------------------------------------------------
# phase tables: piecewise-periodic membership on [1, N]

_EMPTY_FORM = _Form(1, _NONE, False)
_ALL_FORM = _Form(1, _ZERO, False)
_EVEN_FORM = _Form(2, _ZERO, False)
_ODD_FORM = _Form(2, _ONE, False)


#: a block set's phases: all of N on its member runs, nothing off them
_MEMBER_RUNS = (_ALL_FORM, _EMPTY_FORM)


def _table_form(L: int, res: np.ndarray) -> _Form:
    """The fuzz-free form of the residues ``res`` mod L; an empty or full
    one gets modulus 1."""
    if not res.size:
        return _EMPTY_FORM
    return _ALL_FORM if res.size == L else _Form(L, res, False)


def _tile(out: np.ndarray, period: np.ndarray) -> None:
    """Fill ``out`` with ``period`` repeated from its start, no longer than it."""
    out[: period.size] = period
    done = period.size  # a whole number of periods: copy them, doubling
    while done < out.size:
        step = min(done, out.size - done)
        out[done : done + step] = out[:step]
        done += step


#: a form with at most this many residues is written one residue class at
#: a time, a strided write each, rather than tiled, unless it is dense and
#: long: a strided write costs about 0.44 ns per member, tiling about
#: 0.045 ns per position plus about 1.2 µs per doubling, so tiling pays
#: once (|R|/L - 1/10)·k passes about 5·10^4, taken as 2^19/10.  From
#: 2^18 positions a sparser form with L >= 16 is tiled too if its strided
#: writes touch a cache line per 16 positions or more, 16·|R| >= max(L,
#: 64): each residue's write touches a line per L positions, or every line
#: when L < 64, at about 1.8 ns a line.  Sparser forms stay strided: from
#: 1/32 to 1/16 of a line per position, tiling measured up to 1.4 times
#: faster on some (L = 256 with 8 residues) and up to 1.6 times slower on
#: others (L = 16, 32 or 64 with 2) between 2^18 and 5·10^5 positions
_STRIDED = 8


def _fill_form(out: np.ndarray, s: int, f: _Form) -> None:
    """Set out[i], all False on entry, for each n = s + 1 + i with n mod L
    in f's residues."""
    L, res, k = f.modulus, f.residues, out.size
    if L == 1:  # All or Empty
        out[:] = res.size
        return
    first = (s + 1) % L
    if L > k:  # at most one period: the residues in [first, first + k), wrapped
        i, j = res.searchsorted((first, first + k))
        out[res[i:j] - first] = True
        if first + k > L:
            out[res[: res.searchsorted(first + k - L)] + (L - first)] = True
        return
    g = res.size
    sparse_lines = L >= 16 and k >= 1 << 18 and 16 * g >= max(L, 64)
    if g <= _STRIDED and (10 * g - L) * k <= L << 19 and not sparse_lines:
        for r in res.tolist():
            out[(r - first) % L :: L] = True  # n = s + 1 + (r - first) % L has residue r
        return
    period = np.zeros(L, dtype=bool)
    period[(res - first) % L] = True
    _tile(out, period)


# ---------------------------------------------------------------------------
# word masks: bit i of word w is n = 64w + i + 1; the bits past N are 0

_WORD = np.dtype("<u8")
_ONES = np.uint64(2**64 - 1)


def _pack(mask: np.ndarray) -> np.ndarray:
    """The words of a bool mask, entry i as bit i."""
    if mask.size % 64:
        mask = np.concatenate((mask, np.zeros(-mask.size % 64, dtype=bool)))
    return np.packbits(mask, bitorder="little").view(_WORD)


def _bit(words: np.ndarray, i: int) -> bool:
    return bool(int(words[i >> 6]) >> (i & 63) & 1)


def _clear_tail(words: np.ndarray, N: int) -> np.ndarray:
    """words with the bits past N cleared, in place."""
    if N % 64:
        words[-1] &= np.uint64((1 << N % 64) - 1)
    return words


def _below(x: np.ndarray) -> np.ndarray:
    """Per entry, the word of bits below x mod 64 (0 where x mod 64 is 0)."""
    return ~(_ONES << (x & 63).astype(np.uint64))


def _point_words(idx: np.ndarray, N: int) -> np.ndarray:
    """Word masks on [1, N] holding the 0-based positions idx below N: each
    point's bit ORed into its word by one unbuffered ``bitwise_or.at``
    (measured 1.5-3 times faster than a ``reduceat`` over each word's points
    from 2 to 10^5 points)."""
    out = np.zeros(_ceil_div(N, 64), dtype=_WORD)
    np.bitwise_or.at(out, idx >> 6, np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64)))
    return out


def _form_words(f: _Form, k: int) -> np.ndarray:
    """The form f on n = 1, ..., 64·k as k fresh words: one period of
    lcm(L, 64) positions filled and packed, then tiled."""
    first = np.zeros(64 * min(math.lcm(f.modulus, 64) // 64, k), dtype=bool)
    _fill_form(first, 0, f)
    out = np.empty(k, dtype=_WORD)
    _tile(out, _pack(first))
    return out


def _clear(words: np.ndarray, g0: np.ndarray, g1: np.ndarray) -> None:
    """Clear the bits [g0[i], g1[i]) of words, in place, for sorted disjoint
    ranges that end inside them: their whole words through one byte mask
    of runs, and their partial end words by an AND each."""
    s, e = (g0 + 63) >> 6, g1 >> 6  # the whole words s <= w < e
    ends = np.zeros(2 * s.size + 2, dtype=np.int64)  # where each run of kept or cleared words ends
    ends[1:-1:2], ends[2:-1:2], ends[-1] = s, np.maximum(s, e), words.size
    runs = np.zeros(ends.size - 1, dtype=bool)
    runs[1::2] = True
    np.copyto(words, 0, where=np.repeat(runs, ends[1:] - ends[:-1]))
    head, tail = _ONES << (g0 & 63).astype(np.uint64), _below(g1)
    same = g0 >> 6 == e
    np.bitwise_and.at(words, g0 >> 6, ~np.where(same, head & tail, head))
    np.bitwise_and.at(words, e[~same], ~tail[~same])


def _keep(words: np.ndarray, a: int, b: int) -> None:
    """Clear the bits of words outside [a, b), in place."""
    words[: a >> 6] = 0
    words[a >> 6] &= _ONES << np.uint64(a & 63)
    words[_ceil_div(b, 64) :] = 0
    _clear_tail(words[: _ceil_div(b, 64)], b)


def _andnot(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a & ~b into out, without a temporary: (a | b) ^ b."""
    np.bitwise_or(a, b, out=out)
    return np.bitwise_xor(out, b, out=out)


#: below this many positions, a table of at most this many pieces is
#: written to words by its fill, packed: about 0.15 ns a position plus
#: 0.3-0.7 µs a piece, against 30-40 µs of numpy calls per form for the
#: tiles and cuts.  Of the 1,381 tables that streamed-scan ops wrote to words at
#: seeds 101 and 173 (400 ops each), the 612 below 2^17 positions took 1.7
#: times as long by tiles as by the fill, those from 2^17 to 2^18 1.1 times
#: less and those from 2^18 on 1.6 to 9.6 times less; at 2^15 to 2^17
#: positions the fill costs as much as the tiles at about 64 pieces, and
#: twice as much at 128 to 256
_FILLED = (1 << 17, 64)


class _Table(NamedTuple):
    """A set on [1, N] as pieces (bounds[i], bounds[i + 1]], each periodic.

    Piece i holds n iff n mod L is one of the residues R of its form
    (L, R) = forms[phase[i]].  The residues are of n itself, not of its
    offset in the piece, so two tables combine piece by piece as their
    forms lift.  Forms are fuzz-free; an empty or full one has modulus 1.
    Within one form the count on [1, x] is (x // L)·|R| + #{r ∈ R :
    1 <= r <= x mod L}, so every count is a closed form.
    """

    bounds: np.ndarray  # int64, 0 = bounds[0] < ... < bounds[-1] = N
    phase: np.ndarray  # intp, one per piece
    forms: tuple[_Form, ...]

    def _form_counts(self, phase: np.ndarray, x: np.ndarray) -> np.ndarray:
        """#{m in [1, x[i]] : m mod L in R} under the form phase[i], for each i."""
        moduli = np.array([f.modulus for f in self.forms], dtype=np.int64)
        sizes = np.array([f.residues.size for f in self.forms], dtype=np.int64)
        if moduli.max() == 1:  # All and Empty count x and 0
            return x * sizes[phase]
        # every form's residues in one sorted array, each form's shifted by
        # the sum of the moduli before it
        shift = np.cumsum(moduli) - moduli
        keys = np.concatenate([f.residues + s for f, s in zip(self.forms, shift.tolist())])
        q, r = np.divmod(x, moduli[phase])
        r += shift[phase]
        zero = keys.searchsorted(shift, side="right")  # the entries up to each residue 0
        return q * sizes[phase] + keys.searchsorted(r, side="right") - zero[phase]

    def _bases(self, x: np.ndarray = _NONE) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per piece, c_b less its form's count at b, for its start b: the
        count at any x in the piece is this plus the form's count at x.
        Then, for each position x, its piece and its form's count there."""
        b, p, k = self.bounds, self.phase, self.phase.size
        i = np.maximum(b.searchsorted(x) - 1, 0)  # bounds[i] < x <= bounds[i + 1]
        f = self._form_counts(np.concatenate((p, p, p[i])), np.concatenate((b[:-1], b[1:], x)))
        at_start, per_piece = f[:k], f[k : 2 * k] - f[:k]
        before = np.cumsum(per_piece) - per_piece
        return before - at_start, i, f[2 * k :]

    def counts(self, x: np.ndarray) -> np.ndarray:
        """c_x, the members in [1, x], for each 0 <= x <= N of the int64 array x."""
        if self.phase.size == 1:  # one piece: its form's count
            f = self.forms[self.phase[0]]
            q, r = np.divmod(x, f.modulus)
            R = f.residues
            return q * R.size + R.searchsorted(r, side="right") - (R.size and R[0] == 0)
        bases, i, at_x = self._bases(x)
        return bases[i] + at_x

    def member(self, n: int) -> bool:
        f = self.forms[self.phase[self.bounds.searchsorted(n) - 1]]
        r = n % f.modulus
        i = int(f.residues.searchsorted(r))
        return i < f.residues.size and int(f.residues[i]) == r

    def fill(self, a: int, b: int) -> np.ndarray:
        """The membership of n = a + 1, ..., b as a fresh bool array."""
        out = np.zeros(b - a, dtype=bool)
        if self.phase.size == 1:
            _fill_form(out, a, self.forms[self.phase[0]])
            return out
        i0 = int(self.bounds.searchsorted(a, side="right")) - 1
        i1 = int(self.bounds.searchsorted(b))
        edges = self.bounds[i0 : i1 + 1].tolist()
        edges[0], edges[-1] = a, b
        for lo, hi, j in zip(edges, edges[1:], self.phase[i0:i1].tolist()):
            if self.forms[j] is not _EMPTY_FORM:
                _fill_form(out[lo - a : hi - a], lo, self.forms[j])
        return out

    def words(self) -> np.ndarray:
        """The membership of n = 1, ..., N as fresh word masks: each form's
        words tiled over the whole table, cleared outside its first and
        last piece and in the gaps between its pieces, ORed together; a
        small table (``_FILLED``) is filled and packed instead."""
        N = int(self.bounds[-1])
        if N < _FILLED[0] and self.phase.size <= _FILLED[1]:
            return _pack(self.fill(0, N))
        k = _ceil_div(N, 64)
        out = None
        for j, f in enumerate(self.forms):
            on = self.phase == j
            if not f.residues.size or not on.any():  # empty, or a form no piece has
                continue
            a, b = self.bounds[:-1][on], self.bounds[1:][on]
            fw = _form_words(f, k)
            _keep(fw, int(a[0]), int(b[-1]))
            if a.size > 1:  # the gaps between its pieces
                _clear(fw, b[:-1], a[1:])
            out = fw if out is None else np.bitwise_or(out, fw, out=out)
        return np.zeros(k, dtype=_WORD) if out is None else out


def _segment(r: _Table | np.ndarray, a: int, b: int) -> np.ndarray:
    """The membership of n = a + 1, ..., b as a fresh bool array: a
    table's fill, or of word masks only the bytes that cover (a, b]
    unpacked."""
    if isinstance(r, _Table):
        return r.fill(a, b)
    start = a >> 3
    bits = np.unpackbits(r.view(np.uint8)[start:], count=b - 8 * start, bitorder="little")
    return bits[a & 7 :].view(bool)


def _counts_at(r: _Table | np.ndarray, xs: list[int]) -> list[int]:
    """c_x for each x of the nondecreasing xs, 0 <= x <= N."""
    if isinstance(r, _Table):
        return r.counts(np.array(xs)).tolist()
    counts, c, done = [], 0, 0
    for x in xs:
        q, s = divmod(x, 64)
        c += int(np.bitwise_count(r[done:q]).sum())
        done = q
        counts.append(c + (int(r[q]) & ((1 << s) - 1)).bit_count() if s else c)
    return counts


_ONE_PHASE = np.zeros(1, dtype=np.intp)
_ONE_PHASE.flags.writeable = False  # shared by every one-piece table


def _one_piece(f: _Form, N: int) -> _Table:
    return _Table(np.array([0, N]), _ONE_PHASE, (f,))


def _run_table(ends, N: int) -> _Table:
    """Alternating Empty and All pieces, the first one Empty, ending at
    ``ends`` (nondecreasing, each below N) and then at N; an empty first
    run gives no piece."""
    bounds = np.concatenate(([0], np.asarray(ends, dtype=np.int64), [N]))
    keep = bounds[1:] > bounds[:-1]
    phase = (np.arange(keep.size) % 2)[keep]
    return _Table(np.concatenate(([0], bounds[1:][keep])), phase, (_EMPTY_FORM, _ALL_FORM))


def _retable(bounds: np.ndarray, phase: np.ndarray, forms: list[_Form]) -> _Table:
    """The table of these pieces with equal forms merged and adjacent
    pieces of one form joined."""
    index: dict = {}
    remap = np.array(
        [index.setdefault((f.modulus, f.residues.tobytes()), (len(index), f))[0] for f in forms],
        dtype=np.intp,
    )
    phase = remap[phase]
    last = np.ones(phase.size, dtype=bool)  # the last piece of each run of one form
    last[:-1] = phase[1:] != phase[:-1]
    forms = tuple(f for _, f in index.values())
    return _Table(np.concatenate((bounds[:1], bounds[1:][last])), phase[last], forms)


def _distinct(codes: np.ndarray, size: int) -> tuple[list[int], np.ndarray]:
    """The distinct values in ``codes``, each in [0, size), in order, and
    the index of each entry among them."""
    seen = np.zeros(size, dtype=bool)
    seen[codes] = True
    return np.flatnonzero(seen).tolist(), (np.cumsum(seen) - 1)[codes]


def _merge(a: _Table, b: _Table) -> tuple[np.ndarray, np.ndarray, list]:
    """The common refinement of two tables on one [1, N]: its bounds, and
    per piece the index of its (a form, b form) pair among the distinct
    pairs; then the pairs."""
    if a.phase.size == 1:  # b's pieces, each with a's one form
        return b.bounds, b.phase, [(a.forms[a.phase[0]], f) for f in b.forms]
    if b.phase.size == 1:
        return a.bounds, a.phase, [(f, b.forms[b.phase[0]]) for f in a.forms]
    bounds = _union(a.bounds, b.bounds)
    ends = bounds[1:]
    pa = a.phase[a.bounds.searchsorted(ends) - 1]
    pb = b.phase[b.bounds.searchsorted(ends) - 1]
    nb = len(b.forms)
    codes, pair = _distinct(pa * nb + pb, len(a.forms) * nb)
    return bounds, pair, [(a.forms[c // nb], b.forms[c % nb]) for c in codes]


def _affordable(entries: int, N: int) -> bool:
    """The size rule: whether a table whose forms hold this many residues
    beats the mask on [1, N]."""
    return TABLE_SHARE * entries <= N


def _lifts(pairs, N: int, periods: int = 1):
    """Each pair's forms lifted to their common modulus L, as (L, a, b);
    None when the lifts, at ``periods`` periods of L each, would hold more
    than the table budget for [1, N]."""
    moduli = [math.lcm(fa.modulus, fb.modulus) for fa, fb in pairs]
    if max(moduli) * periods > MAX_MODULUS:
        return None
    entries = sum(
        L // fa.modulus * fa.residues.size + L // fb.modulus * fb.residues.size
        for L, (fa, fb) in zip(moduli, pairs)
    )
    if not _affordable(entries * periods, N):
        return None
    return [(L, _lift(fa, L), _lift(fb, L)) for L, (fa, fb) in zip(moduli, pairs)]


def _midpoint_form(L: int, lo: np.ndarray, gap: np.ndarray, odd: int) -> _Form:
    """lo plus the gap points whose gap count, plus ``odd``, is odd: a
    midpoint's selection where lo and gap are residues mod L.

    The k-th period of n = 1..L holds gap points k·g + 1, ..., (k + 1)·g,
    so the parity of the count repeats with period L for an even g and 2L
    for an odd one.  A gap point x in [1, M) has count its rank among them
    plus one; a gap point 0 is the last of its period, n = M, whose count
    M/L·g is even.
    """
    M = L if gap.size % 2 == 0 else 2 * L
    lo, gap = _lift(_Form(L, lo, False), M), _lift(_Form(L, gap, False), M)
    count = np.arange(1, gap.size + 1) - (gap.size and gap[0] == 0)
    return _table_form(M, _union(lo, gap[(count + odd) % 2 == 1]))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _farey_neighbours(t: Fraction, D: int) -> tuple[Fraction, Fraction]:
    """The largest fraction <= t and the smallest >= t with denominators
    <= D, t itself when its denominator is at most D: the neighbours of t
    in the Farey sequence of order D, which the continued-fraction loop of
    ``Fraction.limit_denominator`` brackets t between.

    For 1 <= m <= D the lower one has the floors of t and the upper one its
    ceilings: k/m <= lower <= t < (k+1)/m for k = floor(m*t), and
    (k-1)/m < t <= upper <= k/m for k = ceil(m*t).
    """
    n, d = t.numerator, t.denominator
    if d <= D:
        return t, t
    p0, q0, p1, q1 = 0, 1, 1, 0
    while q0 + (n // d) * q1 <= D:
        a = n // d
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, n - a * d
    k = (D - q0) // q1
    return tuple(sorted((Fraction(p0 + k * p1, q0 + k * q1), Fraction(p1, q1))))


# ---------------------------------------------------------------------------
# run-length specifications for block sets


class _Keyed:
    """Registers each subclass that names a DSL ``keyword`` in ``KINDS``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "keyword" in vars(cls):
            cls.KINDS[cls.keyword] = cls


class ZSpec(_Keyed):
    """Run-length law for a block set: alternating runs of zeroes and ones."""

    __slots__ = ()
    #: DSL keyword after ``blocks`` -> spec class
    KINDS: dict[str, type] = {}

    def run(self, k: int) -> int:
        """Length of the k-th run (k >= 1; run 1 is zeroes, run 2 ones, ...)."""
        raise NotImplementedError

    def _ends(self, N: int) -> np.ndarray:
        """The positions where runs 1, 2, ... end, those below N."""
        raise NotImplementedError

    def _table(self, N: int) -> _Table:
        return _run_table(self._ends(N), N)

    def _rule(self, blocks: Blocks) -> _Rule:
        """The rule of ``blocks``, the block set of these runs."""
        raise NotExactlySolvable(f"blocks {self._format()} has no block formula")

    @classmethod
    def _parse(cls, p) -> ZSpec:
        return cls(p.integer())


@dataclass(frozen=True)
class Geometric(ZSpec):
    """Runs z_k = ratio**(k-1)."""

    ratio: int
    keyword = "geometric"

    def __post_init__(self):
        if self.ratio < 2:
            raise ValueError("geometric run ratio must be >= 2")

    def run(self, k: int) -> int:
        return self.ratio ** (k - 1)

    def _ends(self, N):
        # (r**k - 1)/(r - 1), k >= 1: O(log N) of them below N
        ends = takewhile(lambda e: e < N, accumulate(self.ratio**k for k in count()))
        return np.array(list(ends), dtype=np.int64)

    def _rule(self, blocks):
        r = self.ratio
        # run lengths r**(n-1): averages at block ends alternate between
        # r/(r+1) (after a one-run) and 1/(r+1) (after a zero-run)
        runs = Fraction(r, r + 1), Fraction(1, r + 1), "block-formula"
        return _Rule(_MEMBER_RUNS, blocks, runs)

    def _format(self):
        return f"geometric {self.ratio}"


@dataclass(frozen=True)
class Poly(ZSpec):
    """Runs z_k = k**exponent."""

    exponent: int
    keyword = "poly"

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("polynomial run exponent must be >= 1")

    def run(self, k: int) -> int:
        return k**self.exponent

    def _ends(self, N):
        e = self.exponent
        # the first K runs hold at least K**(e + 1)/(e + 1) >= N positions;
        # at most 2**26 of them, else a typed error before anything is built
        K = int(((e + 1) * N) ** (1 / (e + 1))) + 2
        if K > MAX_MASK >> 5:
            raise CesaroError(f"blocks poly {e} has {K} runs up to {N}, past the table limit")
        if K**e < 1 << 62:
            runs = np.arange(1, K + 1, dtype=np.int64) ** e
        else:  # a few runs, each cut to N so that their sum fits int64
            runs = np.array([min(k**e, N) for k in range(1, K + 1)], dtype=np.int64)
        ends = np.cumsum(runs)
        return ends[: ends.searchsorted(N)]

    def _rule(self, blocks):
        return _Rule(_MEMBER_RUNS, blocks, (Fraction(1, 2), Fraction(1, 2), "block-formula"))

    def _format(self):
        return f"poly {self.exponent}"


@dataclass(frozen=True)
class RunList(ZSpec):
    """Explicit run lengths with a tail rule.

    ``head`` is the length of the initial zero run (may be 0); ``runs``
    are the following run lengths (all >= 1).  Once ``runs`` is
    exhausted the ``tail`` rule applies: ``repeat-last`` repeats the
    final entry forever, ``cycle`` cycles through ``runs``.
    """

    head: int
    runs: tuple[int, ...]
    tail: str = "repeat-last"
    keyword = "list"

    def __post_init__(self):
        if self.head < 0:
            raise ValueError("initial zero run must be >= 0")
        if not self.runs or any(z < 1 for z in self.runs):
            raise ValueError("run lengths after the first must be >= 1")
        if self.tail not in ("repeat-last", "cycle"):
            raise ValueError(f"unknown tail rule {self.tail!r}")

    def run(self, k: int) -> int:
        if k == 1:
            return self.head
        i = k - 2
        if i < len(self.runs):
            return self.runs[i]
        if self.tail == "repeat-last":
            return self.runs[-1]
        return self.runs[i % len(self.runs)]

    def _tail(self) -> tuple[np.ndarray, np.ndarray]:
        """One period of runs once the listed runs are spent (an even number,
        so parities repeat too) and its members: the odd runs, head run 0."""
        k = 1 + len(self.runs) % 2  # an odd number of cycled runs goes twice
        tail = np.array(self.runs[-1:] * 2 if self.tail == "repeat-last" else self.runs * k)
        return tail, (np.arange(tail.size) + len(self.runs) + 1) % 2 == 1

    @staticmethod
    def _tail_form(tail: np.ndarray, ones: np.ndarray, start: int, fuzz: bool) -> _Form:
        """The form of ``tail`` repeated from ``start``, the end of the listed
        runs, in absolute residues (never empty or full: runs alternate)."""
        period, z = int(tail.sum()), tail[ones]
        # the offsets o (n = start + 1 + o) of the members, none of the others
        res = np.arange(z.sum()) + np.repeat((np.cumsum(tail) - tail)[ones] - (np.cumsum(z) - z), z)
        return _Form(period, _rotate(res, period, (start + 1) % period), fuzz)

    def _table(self, N):
        listed = np.cumsum([self.head, *self.runs])
        start = int(listed[-1])
        if N <= start:
            return _run_table(listed[listed < N], N)
        tail, ones = self._tail()  # periodic once the listed runs are spent
        reps = _ceil_div(N - start, int(tail.sum()))
        if reps == 1 or reps * tail.size <= tail[ones].sum():  # few runs up to N
            ends = start + np.cumsum(np.tile(tail, reps))
            return _run_table(np.concatenate((listed, ends[ends < N])), N)
        form = self._tail_form(tail, ones, start, False)
        head = _run_table(listed[:-1], start)
        return _Table(np.append(head.bounds, N), np.append(head.phase, 2), (*head.forms, form))

    def _rule(self, blocks):
        tail, ones = self._tail()
        if tail.sum() > MAX_CANON_MODULUS:
            return super()._rule(blocks)
        start = self.head + sum(self.runs)
        return _Rule((self._tail_form(tail, ones, start, True),))  # listed runs: fuzz

    @classmethod
    def _parse(cls, p):
        p.expect("[")
        head = p.integer()
        p.expect(";")
        runs = [p.integer()]
        while p.peek() == ",":
            p.take()
            runs.append(p.integer())
        p.expect("]")
        tail = p.take() if p.peek() in ("repeat-last", "cycle") else "repeat-last"
        return cls(head, tuple(runs), tail)

    def _format(self):
        return "list [%d;%s] %s" % (self.head, ",".join(map(str, self.runs)), self.tail)


# ---------------------------------------------------------------------------
# expression variants


class SetExpr(_Keyed):
    """Base class for set expressions.  All variants are frozen dataclasses.

    Every kind names its DSL ``keyword`` and defines ``_member``,
    ``_rule``, ``_parse`` and ``_format``, and a phase table (``_table``),
    a mask kernel (``_indicator``, on word masks) or both; the methods
    here are the defaults of its other rules.  A combinator lists its
    ``_operands`` and gets their results: ``_table`` their tables,
    returning None where it has no table or one too large to beat the
    mask, and ``_indicator`` their word masks, which it may change in
    place.  ``_rule`` returns one ``_Rule`` from its operands' rules: its
    periodic form, the one phase of the empty lattice; its two phases on
    a generator; or, with no phases, a bracket of its (upper, lower,
    method); it raises NotExactlySolvable where it has none.  The public
    functions below have checked their arguments (n >= 1, xs >= 0 for
    ``_counts``, 1 <= N < ``MAX_TABLE`` for ``_table``, 1 <= N <
    ``MAX_MASK`` for ``_indicator``) before they dispatch.
    """

    __slots__ = ()
    #: DSL keyword -> node class
    KINDS: dict[str, type] = {}
    #: the constant sets: False for Empty, True for All
    _constant: bool | None = None
    #: literal residue classes (Empty, All, Residue), whose periodic forms
    #: ``canonicalize`` merges and complements
    _residue_class = False

    def _operands(self, N: int) -> tuple[tuple[SetExpr, int], ...]:
        """The operands and the prefix of each that this node on [1, N] reads."""
        return ()

    def _table(self, N: int, *tables: _Table) -> _Table | None:
        """The phase table on [1, N] from the operands' tables, or None."""
        return None

    def _counts(self, xs: list[int]) -> list[int]:
        """c_x for each x of the nondecreasing xs, x >= 0: here from one
        evaluation up to the last."""
        return _counts_at(_eval(self, xs[-1]), xs)

    def _canon(self) -> SetExpr:
        return self

    def _complemented(self) -> SetExpr:
        """The canonical complement of this canonical expression."""
        if self._residue_class:
            f = self._rule().form
            if f.modulus <= MAX_CANON_MODULUS:
                return _reduce_residue(f.modulus, _complement(f))
        return Compl(self)

    def _dilated(self, factor: int) -> SetExpr:
        """The canonical dilation by factor >= 2 of this canonical expression."""
        return Dilate(factor, self)

    def _shifted(self, offset: int) -> SetExpr:
        """The canonical shift by offset >= 1 of this canonical expression."""
        return Shift(offset, self)


@dataclass(frozen=True)
class _Constant(SetExpr):
    """The empty set (``_constant`` False) or all of N (True)."""

    _residue_class = True

    def _member(self, n):
        return self._constant

    def _table(self, N):
        return _one_piece(_ALL_FORM if self._constant else _EMPTY_FORM, N)

    def _counts(self, xs):
        return [x * self._constant for x in xs]

    def _dilated(self, factor):
        return Residue(factor, frozenset({0})) if self._constant else self

    def _shifted(self, offset):
        return Shift(offset, self) if self._constant else self

    def _rule(self):
        return _Rule((_ALL_FORM if self._constant else _EMPTY_FORM,))

    @classmethod
    def _parse(cls, p):
        return cls()

    def _format(self):
        return self.keyword


class Empty(_Constant):
    keyword, _constant = "empty", False


class All(_Constant):
    keyword, _constant = "all", True


@dataclass(frozen=True)
class Explicit(SetExpr):
    elements: tuple[int, ...]
    keyword = "explicit"

    def __post_init__(self):
        elems = self.elements
        if len(elems) > MAX_EXPLICIT:
            raise ValueError(f"explicit set larger than {MAX_EXPLICIT} elements")
        if not all(map(lt, elems, elems[1:])) or (elems and elems[0] < 1):
            bad = ">= 1" if min(elems) < 1 else "strictly increasing"  # min() on errors only
            raise ValueError(f"explicit elements must be {bad}")

    @classmethod
    def _increasing(cls, elements: tuple[int, ...]) -> Explicit:
        """The explicit set of ``elements``, which the caller built
        strictly increasing, >= 1 and at most ``MAX_EXPLICIT`` long: the
        public constructor's checks are skipped."""
        e = object.__new__(cls)
        object.__setattr__(e, "elements", elements)
        return e

    def _member(self, n):
        i = bisect_left(self.elements, n)
        return i < len(self.elements) and self.elements[i] == n

    def _indicator(self, N):
        cut = bisect_right(self.elements, N)
        return _point_words(np.fromiter(self.elements[:cut], dtype=np.int64, count=cut) - 1, N)

    def _counts(self, xs):
        return [bisect_right(self.elements, x) for x in xs]

    def _canon(self):
        return self if self.elements else Empty()

    def _dilated(self, factor):
        return Explicit(tuple(factor * n for n in self.elements))

    def _shifted(self, offset):
        return Explicit(tuple(n + offset for n in self.elements))

    def _rule(self):
        return _Rule((_Form(1, _NONE, bool(self.elements)),))

    @classmethod
    def _parse(cls, p):
        return cls(tuple(sorted(set(p.int_list("{", "}")))))

    def _format(self):
        return "explicit{%s}" % ",".join(map(str, self.elements))


@dataclass(frozen=True)
class Residue(SetExpr):
    modulus: int
    residues: frozenset[int]
    keyword = "residue"
    _residue_class = True

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not self.residues:
            raise ValueError("residue set must be nonempty (use Empty instead)")
        if min(self.residues) < 0 or max(self.residues) >= self.modulus:
            raise ValueError("residues must lie in [0, modulus)")
        if not isinstance(self.residues, frozenset):
            object.__setattr__(self, "residues", frozenset(self.residues))

    def _member(self, n):
        return n % self.modulus in self.residues

    def _table(self, N):
        res = np.array(sorted(self.residues), dtype=np.int64)
        if self.modulus > N:  # n mod (N + 1) = n on [1, N]
            return _one_piece(_table_form(N + 1, res[(res >= 1) & (res <= N)]), N)
        return _one_piece(_table_form(self.modulus, res), N)

    def _counts(self, xs):
        m = self.modulus
        return [sum(x // m + (0 < r <= x % m) for r in self.residues) for x in xs]

    def _canon(self):
        return _reduce_residue(self.modulus, self._rule().form.residues)

    def _rule(self):
        res = np.array(sorted(self.residues), dtype=np.int64)
        return _Rule((_Form(self.modulus, res, False),))

    @classmethod
    def _parse(cls, p):
        return cls(p.integer(), frozenset(p.int_list("{", "}")))

    def _format(self):
        return "residue %d {%s}" % (self.modulus, ",".join(map(str, sorted(self.residues))))


@dataclass(frozen=True)
class Blocks(SetExpr):
    """Runs of ``z`` from position 1 on: runs 1, 3, ... are non-members,
    runs 2, 4, ... members."""

    z: ZSpec
    keyword = "blocks"

    def _member(self, n):
        return _eval(self, n).member(n)

    def _table(self, N):
        return self.z._table(N)

    def _rule(self):
        # geometric and polynomial runs grow without bound: a generator; a run
        # list is periodic once its listed runs are spent
        return self.z._rule(self)

    @classmethod
    def _parse(cls, p):
        return cls(p.zspec())

    def _format(self):
        return f"blocks {self.z._format()}"


# Greedy target-density sets.  Start from {1}; each later n joins exactly
# when the average over 1..n-1 is strictly below the target t = p/q.  By
# induction (t <= 1, so ceil(t*m) steps by 0 or 1) the count up to N is
# max(1, ceil(t*(N-1))): 2 never joins, and from 3 on n joins when
# ceil(t*(n-1)) > ceil(t*(n-2)), i.e. n = floor(k*q/p) + 2, k >= 1: period q in n.


@dataclass(frozen=True)
class Greedy(SetExpr):
    target: Fraction
    keyword = "greedy"

    def __post_init__(self):
        t = Fraction(self.target)
        if not (0 <= t <= 1):
            raise ValueError("greedy target must lie in [0, 1]")
        object.__setattr__(self, "target", t)

    def _member(self, n):
        if n <= 2:
            return n == 1
        p, q = self.target.numerator, self.target.denominator
        return _ceil_div(p * (n - 1), q) > _ceil_div(p * (n - 2), q)

    def _table(self, N):
        if N <= 2:
            return _Table(np.arange(N + 1), np.arange(N), (_ALL_FORM, _EMPTY_FORM))
        t = self.target
        span = min(t.denominator, N - 2)  # one period of n = 3, 4, ..., or less
        if span >= MAX_MASK:
            raise CesaroError(f"greedy period {span} not below the mask limit {MAX_MASK}")
        # a long-decimal target has the ceilings of a nearby short fraction;
        # span < MAX_MASK, so p * m < 2**62
        p, q = _farey_neighbours(t, span + 1)[1].as_integer_ratio()
        m = np.arange(1, span + 2, dtype=np.int64)
        joins = np.flatnonzero(np.diff(_ceil_div(p * m, q)) > 0)  # entry i: n = i + 3 joins
        form = _table_form(span, _rotate(joins, span, 3 % span))
        return _Table(np.array([0, 1, 2, N]), np.arange(3), (_ALL_FORM, _EMPTY_FORM, form))

    def _counts(self, xs):
        p, q = self.target.numerator, self.target.denominator
        return [max(1, _ceil_div(p * (x - 1), q)) if x else 0 for x in xs]

    def _rule(self):
        p, q = self.target.numerator, self.target.denominator
        if q > MAX_CANON_MODULUS:
            return _bracket(self.target, self.target, "exact")
        # from 3 on the members are (kq + 2p) // p, k >= 1, and k + p adds q: k = -c,
        # ..., p - c - 1, c = [q <= 2p] + [q <= p], gives them mod q in order (1, 2: fuzz)
        c = (q <= 2 * p) + (q <= p)
        res = np.arange(2 * p - c * q, (p - c) * q + 2 * p, q, dtype=np.int64) // p
        return _Rule((_Form(q, res, True),))

    @classmethod
    def _parse(cls, p):
        return cls(p.rational())

    def _format(self):
        return f"greedy {self.target.numerator}/{self.target.denominator}"


@dataclass(frozen=True)
class Predicate(SetExpr):
    name: str
    keyword = "predicate"

    def _member(self, n):
        spec = predicate_spec(self.name)
        return _eval(self, n).member(n) if spec.table else bool(spec.member(n))

    def _indicator(self, N):
        return predicate_spec(self.name).words(N)

    def _table(self, N):
        table = predicate_spec(self.name).table
        return table and table(N)

    def _counts(self, xs):
        spec = predicate_spec(self.name)
        if spec.table:
            return super()._counts(xs)
        return [int(spec.count_upto(x)) for x in xs]

    def _rule(self):
        spec = predicate_spec(self.name)
        if spec.rule:
            return spec.rule
        if spec.exact_upper == 0 and spec.exact_lower == 0:
            return _Rule((_Form(1, _NONE, True),))  # known null set
        return _bracket(spec.exact_upper, spec.exact_lower, "exact")

    @classmethod
    def _parse(cls, p):
        return cls(p.take())

    def _format(self):
        return f"predicate {self.name}"


def _tried(e: SetExpr):
    """e's rule, or None where it has none."""
    try:
        return e._rule()
    except NotExactlySolvable:
        return None


def _unit(lo: bool, hi: bool, x: SetExpr) -> SetExpr:
    """The canonical set holding the non-members of x iff lo and the
    members of x iff hi."""
    if lo == hi:
        return All() if lo else Empty()
    return x if hi else Compl(x)._canon()


@dataclass(frozen=True)
class Binary(SetExpr):
    """A Boolean combination of two sets.  Each subclass is one row: its
    ``keyword``, its ``bit_op`` on word masks (into ``out``), its
    ``array_op`` on sorted residue arrays and its ``set_op`` on Python sets."""

    left: SetExpr
    right: SetExpr

    def _truth(self, x: bool, y: bool) -> bool:
        """Whether a point is in the result when x and y say whether it is
        in left and in right."""
        return bool(self.set_op({0} if x else set(), {0} if y else set()))

    def _member(self, n):
        x = member(self.left, n)
        if self._truth(x, False) == self._truth(x, True):
            return self._truth(x, False)  # right cannot change the answer
        return self._truth(x, member(self.right, n))

    def _operands(self, N):
        return (self.left, N), (self.right, N)

    def _indicator(self, N, a, b):
        return self.bit_op(a, b, out=a)

    def _table(self, N, a, b):
        bounds, pair, pairs = _merge(a, b)
        lifts = _lifts(pairs, N)
        if lifts is None:
            return None
        forms = [_table_form(L, self.array_op(x, y)) for L, x, y in lifts]
        return _one_piece(forms[pair[0]], N) if pair.size == 1 else _retable(bounds, pair, forms)

    def _canon(self):
        a, b = self.left._canon(), self.right._canon()
        f = self._truth
        # identity and absorption with the constant sets
        if a._constant is False:
            return _unit(f(False, False), f(False, True), b)
        if b._constant is False:
            return _unit(f(False, False), f(True, False), a)
        if a._constant and f(True, True):  # union and inter; all \ b stays
            return _unit(f(True, False), True, b)
        if b._constant:
            return _unit(f(False, True), f(True, True), a)
        if a == b:
            return a if f(True, True) else Empty()
        if a._residue_class and b._residue_class:
            fa, fb = a._rule().form, b._rule().form
            L = math.lcm(fa.modulus, fb.modulus)
            if L <= MAX_CANON_MODULUS:
                return _reduce_residue(L, self.array_op(_lift(fa, L), _lift(fb, L)))
        if type(a) is type(b) is Explicit:
            merged = tuple(sorted(self.set_op(set(a.elements), set(b.elements))))
            return Explicit(merged) if merged else Empty()
        return type(self)(a, b)

    def _rule(self):
        a = _tried(self.left)
        # with no left phases only a constant right operand settles the node,
        # so the simplified expression goes first: its rule runs the right's
        simplified = None if a and a.phases else self._canon()
        if simplified is not None and simplified != self:
            return simplified._rule()
        return self._joint(a, _tried(self.right), simplified)

    def _joint(self, a: _Rule | None, b: _Rule | None, simplified: SetExpr | None = None) -> _Rule:
        """The rule from the operands' rules (None: no rule): a constant
        operand's, their phases lifted pairwise over the joint lattice, or
        the simplified expression's (``simplified``: if taken)."""
        # a form with no residues or all is Empty or All up to a null set: where the
        # other side's non-members stay out (lo, hi as in _unit), it keeps or drops its
        # members; where both are in, the node is the constant next to any other side
        # but a form, which the joint lift below meets on its modulus
        fa, fb = a and a.form, b and b.form
        for const, k, other, f, left in ((a, fa, b, fb, False), (b, fb, a, fa, True)):
            if k is None or 0 < k.residues.size < k.modulus:
                continue
            full = k.residues.size > 0
            lo, hi = (self._truth(x, full) if left else self._truth(full, x) for x in (False, True))
            if lo and hi and f is None:
                return const
            if lo:  # the other side's complement
                continue
            if f is not None:
                if f.modulus % k.modulus == 0:  # the joint lift, unlifted
                    return _Rule((_Form(f.modulus, f.residues if hi else _NONE, k.fuzz or f.fuzz),))
            elif other is not None or not hi:
                return other if hi else _Rule((_Form(k.modulus, _NONE, k.fuzz),))
        if fa is not None and fb is not None:  # both on the empty lattice
            f = self._lifted(fa, fb)
            if f is not None:
                return _Rule((f,))
        elif joint := a and b and _aligned(a, b):
            lattice, xs, ys = joint
            lifted = [self._lifted(x, y) for x, y in zip(xs, ys)]
            if None not in lifted:
                return lattice.rephased(lifted)
        # identities like union with Empty can hide a solvable core; retry
        # once on the simplified expression
        simplified = simplified or self._canon()
        if simplified != self:
            return simplified._rule()
        raise NotExactlySolvable(f"{type(self).__name__} is not exactly solvable here")

    def _lifted(self, a: _Form, b: _Form) -> _Form | None:
        """The forms' joint lift, or None past the caps."""
        L = math.lcm(a.modulus, b.modulus)
        if _fits(a, L) and _fits(b, L):
            return _Form(L, self.array_op(_lift(a, L), _lift(b, L)), a.fuzz or b.fuzz)
        return None

    @classmethod
    def _parse(cls, p):
        return cls(*p.operands(2))

    def _format(self):
        return f"{self.keyword}({self.left._format()},{self.right._format()})"


class Union(Binary):
    keyword, bit_op, array_op, set_op = "union", np.bitwise_or, staticmethod(_union), or_


class Inter(Binary):
    keyword, bit_op, array_op, set_op = "inter", np.bitwise_and, staticmethod(_inter), and_


class Diff(Binary):
    keyword, bit_op, array_op, set_op = "diff", staticmethod(_andnot), staticmethod(_diff), sub


class SymDiff(Binary):
    keyword, bit_op, array_op, set_op = "symdiff", np.bitwise_xor, staticmethod(_symdiff), xor


@dataclass(frozen=True)
class Compl(SetExpr):
    inner: SetExpr
    keyword = "compl"

    def _member(self, n):
        return not member(self.inner, n)

    def _operands(self, N):
        return ((self.inner, N),)

    def _indicator(self, N, m):
        return _clear_tail(np.invert(m, out=m), N)

    def _table(self, N, t):
        if not _affordable(sum(f.modulus - f.residues.size for f in t.forms), N):
            return None
        forms = tuple(_table_form(f.modulus, _complement(f)) for f in t.forms)
        return _Table(t.bounds, t.phase, forms)

    def _counts(self, xs):
        return [x - c for x, c in zip(xs, self.inner._counts(xs))]

    def _canon(self):
        return self.inner._canon()._complemented()

    def _complemented(self):
        return self.inner

    def _rule(self):
        r = self.inner._rule()
        f = r.form
        if r.phases and not (f and f.modulus > MAX_FORM_ENTRIES):
            return r.map(_complement_form)
        # a bracket, or a form past the form cap: its limits flipped, 1 − x as
        # a fraction built directly (mixed int and Fraction arithmetic costs
        # twice as much)
        upper, lower, method = r.limits()
        return _bracket(
            Fraction(lower.denominator - lower.numerator, lower.denominator),
            Fraction(upper.denominator - upper.numerator, upper.denominator),
            method,
        )

    @classmethod
    def _parse(cls, p):
        return cls(*p.operands(1))

    def _format(self):
        return f"compl({self.inner._format()})"


@dataclass(frozen=True)
class Dilate(SetExpr):
    """{factor * n : n in inner}."""

    factor: int
    inner: SetExpr
    keyword = "dilate"

    def __post_init__(self):
        if self.factor < 1:
            raise ValueError("dilation factor must be >= 1")

    def _member(self, n):
        return n % self.factor == 0 and member(self.inner, n // self.factor)

    def _operands(self, N):
        return ((self.inner, N // self.factor),)

    def _indicator(self, N, m):
        arr = np.zeros(64 * _ceil_div(N, 64), dtype=bool)
        arr[self.factor - 1 : N : self.factor] = _segment(m, 0, N // self.factor)
        return _pack(arr)

    def _table(self, N, t):
        k = self.factor
        if max(f.modulus for f in t.forms) * k > MAX_MODULUS:
            return None
        # n = k·m with m in a piece of t: the piece scaled by k, whose form
        # (L, R) becomes (kL, kR); past k·(N // k) lies no multiple of k
        bounds = t.bounds * k
        bounds[-1] = N
        forms = tuple(_table_form(k * f.modulus, k * f.residues) for f in t.forms)
        return _Table(bounds, t.phase, forms)

    def _counts(self, xs):
        return self.inner._counts([x // self.factor for x in xs])

    def _canon(self):
        inner = self.inner._canon()
        return inner if self.factor == 1 else inner._dilated(self.factor)

    def _dilated(self, factor):
        return Dilate(factor * self.factor, self.inner)

    def _rule(self):
        r, k = self.inner._rule(), self.factor
        f = r.form
        if f and f.modulus * k <= MAX_MODULUS:
            return _Rule((_Form(f.modulus * k, f.residues * k, f.fuzz),))
        upper, lower, method = r.limits()
        return _bracket(Fraction(upper, k), Fraction(lower, k), method)

    @classmethod
    def _parse(cls, p):
        k = p.integer()
        if k < 1:
            p.error("dilation factor must be >= 1")
        return cls(k, p.expr())

    def _format(self):
        return f"dilate {self.factor} {self.inner._format()}"


@dataclass(frozen=True)
class Shift(SetExpr):
    """{n + offset : n in inner}; results <= 0 cannot occur (offset >= 0)."""

    offset: int
    inner: SetExpr
    keyword = "shift"

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("shift offset must be >= 0")

    def _member(self, n):
        return n > self.offset and member(self.inner, n - self.offset)

    def _operands(self, N):
        return ((self.inner, max(N - self.offset, 0)),)

    def _indicator(self, N, m):
        # whole words, then the bit offset r carries each word's top r bits
        # into the next word
        q, r = divmod(self.offset, 64)
        out = np.zeros(_ceil_div(N, 64), dtype=_WORD)
        if not r:
            out[q : q + m.size] = m
            return out
        out[q : q + m.size] = m << np.uint64(r)
        spill = max(min(m.size, out.size - q - 1), 0)  # past N the spilt bits are 0
        out[q + 1 : q + 1 + spill] |= m[:spill] >> np.uint64(64 - r)
        return out

    def _table(self, N, t):
        s = self.offset
        if not s:
            return t
        # an Empty piece (0, s], then the pieces moved by s, residues rotated
        forms = [
            _table_form(f.modulus, _rotate(f.residues, f.modulus, s % f.modulus)) for f in t.forms
        ]
        return _retable(
            np.concatenate(([0], t.bounds + s)),
            np.concatenate(([len(forms)], t.phase)),
            forms + [_EMPTY_FORM],
        )

    def _counts(self, xs):
        return self.inner._counts([max(x - self.offset, 0) for x in xs])

    def _canon(self):
        inner = self.inner._canon()
        return inner if self.offset == 0 else inner._shifted(self.offset)

    def _shifted(self, offset):
        return Shift(offset + self.offset, self.inner)

    def _rule(self):
        # the shifted generator is the generator but for O(s) points per run
        # end, a null set: its phases rotate as a form does
        return self.inner._rule().map(_rotated_form, self.offset)

    @classmethod
    def _parse(cls, p):
        return cls(p.integer(), p.expr())

    def _format(self):
        return f"shift {self.offset} {self.inner._format()}"


_DOUBLINGS = tuple(np.uint64(1 << j) for j in range(6))
_TOP = np.uint64(63)


def _every_second(gap: np.ndarray) -> np.ndarray:
    """The first, third, fifth, ... members of word masks, as word masks.

    Bit-parallel over 64 positions a word: a prefix XOR within each word,
    flipped after each word holding an odd count, is the parity of the
    count so far.
    """
    odd = gap.copy()
    for s in _DOUBLINGS:
        odd ^= odd << s
    flips = np.bitwise_xor.accumulate(odd >> _TOP)  # bit 63 is the word's parity
    odd[1:] ^= np.uint64(0) - flips[:-1]
    odd &= gap
    return odd


@dataclass(frozen=True)
class Midpoint(SetExpr):
    """``lower`` plus every second element of ``upper \\ lower``.

    Selection starts with the first element of the difference, so the
    count up to N is c_lower(N) + ceil(c_gap(N) / 2), with the gap
    ``upper \\ lower``; lower plus the gap is lower ∪ upper.  A midpoint of
    two fuzz-free forms is a form (``_midpoint_form``).  Otherwise the
    exact limit is (d(lower) + d(lower ∪ upper)) / 2 when both exist, the
    union's from its own rule: a null perturbation of an operand may flip
    the selection parity from some point on, but moves no density.  Where
    lower and the union follow one generator, ν_N is that mean phase by
    phase, so its limits follow from the generator's.
    """

    lower: SetExpr
    upper: SetExpr
    keyword = "midpoint"

    def _operands(self, N):
        return (self.lower, N), (self.upper, N)

    def _member(self, n):
        if member(self.lower, n):
            return True
        if not member(self.upper, n):
            return False
        r = _eval(self, n)
        return r.member(n) if isinstance(r, _Table) else _bit(r, n - 1)

    def _indicator(self, N, lo, gap):
        _andnot(gap, lo, out=gap)  # upper \\ lower
        lo |= _every_second(gap)
        return lo

    def _counts(self, xs):
        # a mask midpoint is counted from its operands' masks, as c_lower +
        # ceil(c_gap / 2), with no parity pass
        if not xs[-1]:
            return [0] * len(xs)
        r = _eval(self, xs[-1], kernel=lambda N, lo, hi: (lo, _andnot(hi, lo, out=hi)))
        if isinstance(r, _Table):
            return _counts_at(r, xs)
        lo, gap = r
        return [c + (g + 1) // 2 for c, g in zip(_counts_at(lo, xs), _counts_at(gap, xs))]

    def _table(self, N, lo, hi):
        bounds, pair, pairs = _merge(lo, hi)
        lifts = _lifts(pairs, N, periods=2)
        if lifts is None:
            return None
        gaps = [(L, x, _diff(y, x)) for L, x, y in lifts]
        if pair.size == 1:  # one piece from 0: no gap point before it
            return _one_piece(_midpoint_form(*gaps[pair[0]], 0), N)
        # the parity of the gap count before each piece, less its form's
        # count at the piece's start, picks the piece's selection
        odd = _Table(bounds, pair, tuple(_Form(L, d, False) for L, _, d in gaps))._bases()[0] & 1
        codes, phase = _distinct(2 * pair + odd, 2 * len(gaps))
        forms = [_midpoint_form(*gaps[c // 2], c % 2) for c in codes]
        return _retable(bounds, phase, forms)

    def _canon(self):
        lo, hi = self.lower._canon(), self.upper._canon()
        return lo if lo == hi else Midpoint(lo, hi)

    def _rule(self):
        lo, hi = self.lower._rule(), self.upper._rule()
        x, y = lo.form, hi.form
        if x and y and not (x.fuzz or y.fuzz):
            L = math.lcm(x.modulus, y.modulus)
            if _fits(x, 2 * L) and _fits(y, 2 * L):
                low = _lift(x, L)  # the form of its one-piece table
                return _Rule((_midpoint_form(L, low, _diff(_lift(y, L), low), 0),))
        union = Union(self.lower, self.upper)._joint(lo, hi)
        joint = _aligned(lo, union)
        if joint:
            # ν_N is the mean of the lower's and the union's: phase by phase
            lattice, xs, ys = joint
            return _bracket(*lattice.at([(u.density + v.density) / 2 for u, v in zip(xs, ys)]))
        (lu, ll, lm), (uu, ul, um) = lo.limits(), union.limits()
        if lu == ll and uu == ul:
            mid = (lu + uu) / 2
            return _bracket(mid, mid, "exact" if lm == um == "exact" else "block-formula")
        raise NotExactlySolvable("midpoint of divergent endpoints")

    @classmethod
    def _parse(cls, p):
        return cls(*p.operands(2))

    def _format(self):
        return f"midpoint({self.lower._format()},{self.upper._format()})"


# ---------------------------------------------------------------------------
# predicate registry

#: the primes as word masks on [1, 64·len]; replaced whole when it grows
_sieve: np.ndarray = np.zeros(0, dtype=_WORD)
#: positions sieved per segment, a multiple of 64
_SEGMENT = 1 << 20


def _prime_words(upto: int) -> np.ndarray:
    """The primes sieve's words, covering [1, upto] at least.

    A larger sieve keeps the words it has and sieves the rest in segments
    of ``_SEGMENT`` positions, each a bool array packed into its words, so
    no N-byte array is held (Bays and Hudson, BIT 17, 1977).  The new
    words are published by one assignment; a reader reads the global once.
    """
    global _sieve
    if upto >= MAX_MASK:
        raise CesaroError(f"primes sieve up to {upto} not below the mask limit {MAX_MASK}")
    old = _sieve
    if 64 * old.size >= upto:
        return old
    size = min(max(upto, 128 * old.size, 1 << 16), MAX_MASK)
    words = np.empty(_ceil_div(size, 64), dtype=_WORD)
    words[: old.size] = old
    top = 64 * words.size
    small = np.ones(math.isqrt(top) + 1, dtype=bool)  # the primes up to sqrt(top)
    small[:2] = False
    for p in range(2, math.isqrt(small.size - 1) + 1):
        if small[p]:
            small[p * p :: p] = False
    base = np.flatnonzero(small).tolist()
    for lo in range(64 * old.size, top, _SEGMENT):
        hi = min(lo + _SEGMENT, top)
        seg = np.ones(hi - lo, dtype=bool)  # entry i: n = lo + 1 + i
        seg[0] = lo > 0  # 1 is no prime
        for p in base:
            if p * p > hi:
                break
            seg[max(p * p, _ceil_div(lo + 1, p) * p) - lo - 1 :: p] = False
        words[lo // 64 : hi // 64] = _pack(seg)
    _sieve = words
    return words


def _icbrt(n: int) -> int:
    r = round(n ** (1 / 3))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def _primes_words(N: int) -> np.ndarray:
    return _clear_tail(_prime_words(N)[: _ceil_div(N, 64)].copy(), N)


def _paired_table(N: int) -> _Table:
    # the alternating counterpart set from the divergent block example: even
    # n belongs iff n/2 lies in the geometric block set, odd n iff (n+1)/2
    # does not.  So the runs of the block set up to ceil(N/2), doubled: on
    # its member runs the even n belong, on the others the odd ones
    base = Geometric(2)._table((N + 1) // 2)
    bounds = base.bounds * 2
    bounds[-1] = N
    return _Table(bounds, base.phase, (_ODD_FORM, _EVEN_FORM))  # for base's (Empty, All)


@dataclass(frozen=True)
class PredicateSpec:
    """A named set: its exact limits, and either its phase table, from
    which ``Predicate`` reads membership and counts as for any tree, or
    its membership, exact count and word-mask kernel.  A set that follows a
    generator whose runs grow without bound also gives its phases on it, as
    its exact ``rule``."""

    exact_upper: Fraction  # the upper Cesàro limit
    exact_lower: Fraction
    member: object = None  # n -> bool
    count_upto: object = None  # N -> int, exactly
    words: object = None  # N -> word masks on [1, N], fresh
    table: object = None  # N -> _Table, for a piecewise-periodic set
    rule: _Rule | None = None


def _sparse(term, count) -> PredicateSpec:
    """The null set {term(k) : k >= 1}, where count(N) is the number of
    terms up to N; ``term`` maps an int64 array of k elementwise."""
    return PredicateSpec(
        member=lambda n: count(n) > count(n - 1),
        count_upto=count,
        words=lambda N: _point_words(term(np.arange(1, count(N) + 1, dtype=np.int64)) - 1, N),
        exact_upper=Fraction(0),
        exact_lower=Fraction(0),
    )


PREDICATES: dict[str, PredicateSpec] = {
    "squares": _sparse(lambda k: k * k, math.isqrt),
    "cubes": _sparse(lambda k: k**3, _icbrt),
    "pow2": _sparse(lambda k: 2**k, lambda N: N.bit_length() - 1 if N >= 2 else 0),
    "primes": PredicateSpec(
        member=lambda n: _bit(_prime_words(n), n - 1),
        count_upto=lambda N: _counts_at(_prime_words(N), [N])[0],
        words=_primes_words,
        exact_upper=Fraction(0),  # prime number theorem
        exact_lower=Fraction(0),
    ),
    "paired": PredicateSpec(
        # exactly one of {2k-1, 2k} belongs for every k: the limit is 1/2
        exact_upper=Fraction(1, 2),
        exact_lower=Fraction(1, 2),
        table=_paired_table,
        # its generator holds the runs of geometric 2 at half scale, doubled:
        # the evens on the member runs, the odds off them
        rule=_Rule(
            (_EVEN_FORM, _ODD_FORM),
            Predicate("paired"),
            (Fraction(2, 3), Fraction(1, 3), "exact"),
        ),
    ),
}


def predicate_spec(name: str) -> PredicateSpec:
    try:
        return PREDICATES[name]
    except KeyError:
        raise ConfigurationError(f"unknown predicate {name!r}") from None


# ---------------------------------------------------------------------------
# the operations, one dispatch each


def member(e: SetExpr, n: int) -> bool:
    """Indicator of the set denoted by ``e`` at n (n >= 1).  Pure and total."""
    if n < 1:
        raise ValueError("universe starts at 1")
    return e._member(n)


def indicator(e: SetExpr, N: int) -> np.ndarray:
    """Boolean array of length N; entry i is membership of n = i + 1.

    The array is fresh and the caller owns it: it may be changed in place
    without affecting any later call.  The combinators rely on this for
    their word masks and combine into their left operand's, so every mask
    kernel, and every registered predicate's ``words``, must return words
    it keeps no reference to; ``_segment``'s array, a table's fill or
    the words unpacked, always is.
    """
    if N < 0:
        raise ValueError("prefix length must be >= 0")
    _check_mask(N)
    return _segment(_eval(e, N), 0, N)


def _check_mask(N: int, error: type[CesaroError] = CesaroError) -> None:
    """Reject a mask of ``MAX_MASK`` elements or more before it is allocated."""
    if N >= MAX_MASK:
        raise error(
            f"horizon {N} not below the mask limit 2^{MAX_MASK.bit_length() - 1},"
            " past which counts need int64"
        )


def _eval(e: SetExpr, N: int, over: int = 0, kernel=None) -> _Table | np.ndarray:
    """e on [1, N]: its phase table, else its word masks, from its
    operands' results; each node is evaluated once.  ``kernel`` stands for
    e's mask kernel ``_indicator``.  Word masks are fresh, owned by the
    caller, and refused from ``MAX_MASK`` positions on; a table from
    ``MAX_TABLE`` on.  An empty prefix (N = 0) is no words.

    The one table-or-mask policy: a leaf takes its table where it has
    one.  ``over`` is the length of the root, when that is ``TABLE_BASE``
    or more, else 0 (a root below ``TABLE_BASE`` takes masks above its
    leaves, where the fixed cost of a table exceeds the mask's).  Under
    such a root every node takes its table where it has one and it is
    affordable, at any length of its own; and when the root covers
    ``MAX_MASK`` positions or more, a node without one is refused before
    its operands' masks are built."""
    if N >= MAX_TABLE:
        raise CesaroError(f"horizon {N} not below the table limit 2^{MAX_TABLE.bit_length() - 1}")
    if not N:
        return np.zeros(0, dtype=_WORD)
    over = over or (N if N >= TABLE_BASE else 0)
    return _step(e, N, [_eval(x, M, over) for x, M in e._operands(N)], over, kernel)


def _step(e: SetExpr, N: int, parts, over: int = 0, kernel=None) -> _Table | np.ndarray:
    """e on [1, N] from its operands' results ``parts``, each a table or
    word masks on the prefix it covers; word masks among them may be
    changed in place.  ``over`` and ``kernel`` are as in ``_eval``, which
    runs this step for every node."""
    if not parts or (over and all(isinstance(p, _Table) for p in parts)):
        t = e._table(N, *parts)
        if t is not None:
            return t
    _check_mask(over or N)
    masks = (p.words() if isinstance(p, _Table) else p for p in parts)
    return (kernel or e._indicator)(N, *masks)


def _table_or_words(e: SetExpr, N: int) -> _Table | np.ndarray:
    """e on [1, N] for the chain layer: ``_eval``'s table or word masks,
    and below ``TABLE_BASE``, where a table's fixed cost exceeds a scan of
    the mask, word masks only.  Its window scans and trims read either
    through ``_segment`` and ``_counts_at``."""
    r = _eval(e, N)
    return r.words() if N < TABLE_BASE and isinstance(r, _Table) else r


def _members(r: _Table | np.ndarray) -> int:
    """The members of a set on [1, N], from its phase table or its word masks."""
    if isinstance(r, _Table):
        return int(r.counts(r.bounds[-1:])[0])
    return int(np.bitwise_count(r).sum())


def _first_outside(lower: SetExpr, upper: SetExpr, lo, hi, N: int) -> int | None:
    """The least n in [1, N] in ``lower`` but not in ``upper``, or None,
    from their sets ``lo`` and ``hi`` there (``_table_or_words``, left
    unchanged).  The difference is counted from its phase table where
    both sets are tables; word masks are built only to name n."""
    if isinstance(lo, _Table) and isinstance(hi, _Table):
        diff = Diff(lower, upper)._table(N, lo, hi)
        if diff is not None and not _members(diff):
            return None
    lo, hi = (r.words() if isinstance(r, _Table) else r for r in (lo, hi))
    extra = lo & ~hi
    if not extra.any():
        return None
    i = int(np.flatnonzero(extra)[0])
    w = int(extra[i])
    return 64 * i + (w & -w).bit_length()  # the lowest bit of word i


def _as_fraction(x) -> Fraction:
    """x as an exact fraction; a float by its shortest decimal form."""
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def count_upto(e: SetExpr, N: int) -> int:
    """Number of members of ``e`` in [1, N], exactly."""
    return e._counts([N])[0] if N > 0 else 0


def canonicalize(e: SetExpr) -> SetExpr:
    """Structure-preserving simplification.

    Applies Boolean identities, merges residue expressions onto a common
    modulus (then reduces the modulus), and performs explicit-set algebra.
    The output denotes the same set as the input.
    """
    return e._canon()


def _form(e: SetExpr) -> _Form:
    """The periodic normal form of e, or NotExactlySolvable."""
    f = e._rule().form
    if f is None:
        raise NotExactlySolvable(f"{type(e).__name__} has no periodic form")
    return f


def partial_average(e: SetExpr, N: int) -> Fraction:
    """Exact partial average: the fraction of [1, N] belonging to ``e``."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return Fraction(count_upto(e, N), N)


@dataclass(frozen=True)
class PrefixStat:
    """Range-splittable membership count over a scanned span."""

    span: int
    count: int

    def __post_init__(self):
        if not (0 <= self.count <= self.span):
            raise ValueError("count must lie in [0, span]")

    def combine(self, other: "PrefixStat") -> "PrefixStat":
        return PrefixStat(self.span + other.span, self.count + other.count)


def prefix_scan(e: SetExpr, frm: int, to: int) -> PrefixStat:
    """Membership count over [frm, to].  Associative under concatenation."""
    if not (1 <= frm <= to):
        raise ValueError("need 1 <= frm <= to")
    before, upto = e._counts([frm - 1, to])
    return PrefixStat(to - frm + 1, upto - before)


# ---------------------------------------------------------------------------
# gap functions


@dataclass(frozen=True)
class GapPair:
    """Distances from N to the next member (p) and next non-member (q).

    A value of None means no witness was found within the search horizon;
    the matching ``*_limited`` flag is then set.
    """

    p: int | None
    q: int | None
    p_limited: bool = False
    q_limited: bool = False


def gap_functions(e: SetExpr, N: int, horizon: int) -> GapPair:
    """Smallest k > 0 with membership 1 (p) resp. 0 (q) at N + k.

    Searches positions N+1 .. horizon; horizon must exceed N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if horizon <= N:
        raise ValueError("search horizon must exceed N")
    p = q = None
    upto = N
    chunk = 1024
    while upto < horizon and (p is None or q is None):
        nxt = min(horizon, upto + chunk)
        seg = indicator(e, nxt)[upto:]
        if p is None:
            hits = np.flatnonzero(seg)
            if hits.size:
                p = upto + int(hits[0]) + 1 - N
        if q is None:
            gaps = np.flatnonzero(~seg)
            if gaps.size:
                q = upto + int(gaps[0]) + 1 - N
        upto = nxt
        chunk *= 4
    return GapPair(p, q, p_limited=p is None, q_limited=q is None)
