"""Set expressions over the positive integers.

A ``SetExpr`` is a closed, immutable description of a subset of
N = {1, 2, ...}: explicit finite sets, residue classes, run-length block
sets, greedy target-density sets, a small registry of named predicate
sets, and Boolean/affine combinators on top of those.  Everything here is
exact: membership is a pure total function and partial averages are
returned as ``fractions.Fraction``.

A node kind is one class; to add one, define its methods.  Each frozen
dataclass below holds every rule of its kind: membership (``_member``),
the 0/1 prefix (``_indicator``), the count (``_count``), the rewrite of
``canonicalize`` (``_canon``), its one exact rule (``_rule``: the node's
periodic ``_Form``, else its (upper, lower, method), computed once from
its operands' results), and its DSL ``keyword``, ``_parse`` and
``_format``.  ``SetExpr`` holds the defaults.  The public functions
check their arguments and dispatch.

Residue sets are sorted int64 arrays of distinct residues; the exact
engine and ``canonicalize`` lift and combine them with the same numpy
operations (``_lift``, ``_union``, ``_inter``, ``_symdiff``, ``_diff``).

The streaming kernel is ``indicator``, which materialises the 0/1 prefix
of a set as a numpy array; ``prefix_scan`` is the range-splittable
counting primitive built on it.

Leaf kernels are closed forms that keep nothing between calls.  A greedy
set with target p/q has period q from n = 3 on, and a ``RunList`` block
set is periodic once its listed runs are spent: both are one period tiled
out to N, and their ``member``/``count_upto`` reduce n modulo the period.
Geometric and polynomial block sets are built per call from their
O(log N), resp. O(N^(1/(e+1))), runs.  The one cache is the primes sieve.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import and_, lt, or_, sub, xor

import numpy as np

#: Largest explicit set accepted.  Bigger explicit inputs are rejected:
#: they have density 0 anyway and usually signal misuse.
MAX_EXPLICIT = 10**6

#: Largest modulus produced by residue rewriting in ``canonicalize``.
MAX_CANON_MODULUS = 10**6

#: residue refinement guard: reject common moduli beyond this
MAX_MODULUS = 10**9

#: largest residue array the exact engine builds; a lift or complement
#: that would need more entries raises NotExactlySolvable before allocating
MAX_FORM_ENTRIES = 1 << 24

#: Masks and the primes sieve hold fewer than this many elements, so every
#: count fits in int32.
MAX_MASK = 2**31


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
_NONE.flags.writeable = _ZERO.flags.writeable = False  # shared by many forms


def _limits_of(rule) -> tuple[Fraction, Fraction, str]:
    """(upper, lower, method) of a ``_rule`` result; a form's density is both."""
    if isinstance(rule, _Form):
        d = rule.density
        return d, d, "exact"
    return rule


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
    i = int(np.searchsorted(res, m - s))
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
# eventually periodic bit patterns


def _periodic(head: np.ndarray, period: np.ndarray, N: int) -> np.ndarray:
    """The first N bits of ``head`` followed by ``period`` repeated forever."""
    out = np.empty(N, dtype=bool)
    h = min(head.size, N)
    out[:h] = head[:h]
    body = out[h:]
    if body.size:
        # tile a block of at least 4096 bits: numpy copies short periods
        # slowly, one small chunk at a time
        block = np.tile(period, -(-4096 // period.size))
        reps, rest = divmod(body.size, block.size)
        body[: reps * block.size].reshape(reps, block.size)[:] = block
        body[reps * block.size :] = block[:rest]
    return out


def _clip(runs: list[int], N: int) -> list[int]:
    """The runs covering [1, N], the last one cut to end at N."""
    bounds = list(accumulate(runs))
    k = bisect_left(bounds, N)
    if k == len(runs):
        return runs
    return runs[:k] + [runs[k] - (bounds[k] - N)]


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

    def _runs(self, N: int) -> tuple[list[int], int, int]:
        """Run lengths from run 1 on, at least up to the run holding N; then
        the position after which the runs repeat, and their period in
        positions (0: they do not repeat)."""
        runs, total = [], 0
        while total < N:
            zk = self.run(len(runs) + 1)
            if runs and zk < 1:
                raise ValueError("run lengths after the first must be >= 1")
            runs.append(zk)
            total += zk
        return runs, total, 0

    def _limits(self) -> tuple[Fraction, Fraction, str]:
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

    def _limits(self):
        r = self.ratio
        # run lengths r**(n-1): averages at block ends alternate between
        # r/(r+1) (after a one-run) and 1/(r+1) (after a zero-run)
        return Fraction(r, r + 1), Fraction(1, r + 1), "block-formula"

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

    def _limits(self):
        return Fraction(1, 2), Fraction(1, 2), "block-formula"

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

    def _runs(self, N):
        # periodic once the listed runs are spent: the listed runs, then one
        # period of the tail with an even number of runs, so that run
        # parities repeat too
        if self.tail == "repeat-last":
            tail = [self.runs[-1]] * 2
        else:
            tail = list(self.runs) * (1 + len(self.runs) % 2)
        return [self.head, *self.runs, *tail], self.head + sum(self.runs), sum(tail)

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
    ``_indicator``, ``_rule``, ``_parse`` and ``_format``; the methods here
    are the defaults of its other rules.  The public functions below have
    checked their arguments (n >= 1, N >= 1 for ``_count``,
    0 <= N < ``MAX_MASK`` for ``_indicator``) before they dispatch.
    """

    __slots__ = ()
    #: DSL keyword -> node class
    KINDS: dict[str, type] = {}
    #: the constant sets: False for Empty, True for All
    _constant: bool | None = None
    #: literal residue classes (Empty, All, Residue), whose periodic forms
    #: ``canonicalize`` merges and complements
    _residue_class = False

    def _count(self, N: int) -> int:
        return int(np.count_nonzero(indicator(self, N)))

    def _canon(self) -> SetExpr:
        return self

    def _complemented(self) -> SetExpr:
        """The canonical complement of this canonical expression."""
        if self._residue_class:
            f = self._rule()
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

    def _indicator(self, N):
        return np.full(N, self._constant)

    def _count(self, N):
        return N if self._constant else 0

    def _dilated(self, factor):
        return Residue(factor, frozenset({0})) if self._constant else self

    def _shifted(self, offset):
        return Shift(offset, self) if self._constant else self

    def _rule(self):
        return _Form(1, _ZERO if self._constant else _NONE, False)

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
        if elems and min(elems) < 1:
            raise ValueError("explicit elements must be >= 1")
        if not all(map(lt, elems, elems[1:])):
            raise ValueError("explicit elements must be strictly increasing")

    def _member(self, n):
        i = bisect_left(self.elements, n)
        return i < len(self.elements) and self.elements[i] == n

    def _indicator(self, N):
        arr = np.zeros(N, dtype=bool)
        cut = bisect_right(self.elements, N)
        if cut:
            arr[np.fromiter(self.elements[:cut], dtype=np.int64) - 1] = True
        return arr

    def _count(self, N):
        return bisect_right(self.elements, N)

    def _canon(self):
        return self if self.elements else Empty()

    def _dilated(self, factor):
        return Explicit(tuple(factor * n for n in self.elements))

    def _shifted(self, offset):
        return Explicit(tuple(n + offset for n in self.elements))

    def _rule(self):
        return _Form(1, _NONE, bool(self.elements))

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

    def _indicator(self, N):
        arr = np.zeros(N, dtype=bool)
        for r in self.residues:
            arr[(r - 1) % self.modulus :: self.modulus] = True
        return arr

    def _count(self, N):
        total = 0
        for r in self.residues:
            if r == 0:
                total += N // self.modulus
            elif r <= N:
                total += (N - r) // self.modulus + 1
        return total

    def _canon(self):
        return _reduce_residue(self.modulus, self._rule().residues)

    def _rule(self):
        return _Form(self.modulus, np.array(sorted(self.residues), dtype=np.int64), False)

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
        runs, start, period = self.z._runs(n)
        if period and n > start:
            n = start + (n - start - 1) % period + 1
        # run k (from 0) holds n; the odd ones are members
        return bisect_left(list(accumulate(runs)), n) % 2 == 1

    def _indicator(self, N):
        runs, start, period = self.z._runs(N)
        runs = _clip(runs, N)
        bits = np.repeat(np.arange(len(runs)) % 2 == 1, runs)
        return _periodic(bits[:start], bits[start:], N) if period else bits

    def _count(self, N):
        runs, start, period = self.z._runs(N)
        if period and N > start:
            full, rest = divmod(N - start, period)
            period_ones = sum(runs[1::2]) - sum(_clip(runs, start)[1::2])
            return full * period_ones + sum(_clip(runs, start + rest)[1::2])
        return sum(_clip(runs, N)[1::2])  # runs 2, 4, ... are the ones

    def _rule(self):
        return self.z._limits()

    @classmethod
    def _parse(cls, p):
        return cls(p.zspec())

    def _format(self):
        return f"blocks {self.z._format()}"


# Greedy target-density sets.  Start from {1}; each later n joins exactly
# when the average over 1..n-1 is strictly below the target t = p/q.  By
# induction (t <= 1, so ceil(t*m) steps by 0 or 1) the count up to N is
# max(1, ceil(t*(N-1))): 2 never joins, and from 3 on n joins when
# ceil(t*(n-1)) > ceil(t*(n-2)), which has period q in n.


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

    def _indicator(self, N):
        t = self.target
        span = min(t.denominator, max(N - 2, 0))  # one period of n = 3, 4, ..., or less
        # a long-decimal target has the ceilings of a nearby short fraction;
        # span < MAX_MASK, so p * m < 2**62
        p, q = _farey_neighbours(t, span + 1)[1].as_integer_ratio()
        m = np.arange(1, span + 2, dtype=np.int64)
        steps = np.diff(_ceil_div(p * m, q)) > 0  # entry i is membership of n = i + 3
        return _periodic(np.array([True, False]), steps, N)

    def _count(self, N):
        return max(1, _ceil_div(self.target.numerator * (N - 1), self.target.denominator))

    def _rule(self):
        return self.target, self.target, "exact"

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
        return bool(predicate_spec(self.name).member(n))

    def _indicator(self, N):
        return predicate_spec(self.name).indicator(N)

    def _count(self, N):
        return int(predicate_spec(self.name).count_upto(N))

    def _rule(self):
        spec = predicate_spec(self.name)
        if spec.exact_upper == 0 and spec.exact_lower == 0:
            return _Form(1, _NONE, True)  # known null set
        return spec.exact_upper, spec.exact_lower, "exact"

    @classmethod
    def _parse(cls, p):
        return cls(p.take())

    def _format(self):
        return f"predicate {self.name}"


def _unit(lo: bool, hi: bool, x: SetExpr) -> SetExpr:
    """The canonical set holding the non-members of x iff lo and the
    members of x iff hi."""
    if lo == hi:
        return All() if lo else Empty()
    return x if hi else Compl(x)._canon()


@dataclass(frozen=True)
class Binary(SetExpr):
    """A Boolean combination of two sets.  Each subclass is one row: its
    ``keyword``, its ``ufunc`` on bool arrays, its ``array_op`` on sorted
    residue arrays and its ``set_op`` on Python sets."""

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

    def _indicator(self, N):
        out = indicator(self.left, N)
        return self.ufunc(out, indicator(self.right, N), out=out)

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
            fa, fb = a._rule(), b._rule()
            L = math.lcm(fa.modulus, fb.modulus)
            if L <= MAX_CANON_MODULUS:
                return _reduce_residue(L, self.array_op(_lift(fa, L), _lift(fb, L)))
        if type(a) is type(b) is Explicit:
            merged = tuple(sorted(self.set_op(set(a.elements), set(b.elements))))
            return Explicit(merged) if merged else Empty()
        return type(self)(a, b)

    def _rule(self):
        try:
            a = self.left._rule()
            b = self.right._rule() if isinstance(a, _Form) else None  # only forms combine
        except NotExactlySolvable:
            a = b = None
        return self._joint(a, b)

    def _joint(self, a, b):
        """The rule from the operands' rules (None: no joint form to take):
        their joint lift, else the rule of the simplified expression."""
        if isinstance(a, _Form) and isinstance(b, _Form):
            L = math.lcm(a.modulus, b.modulus)
            if _fits(a, L) and _fits(b, L):
                return _Form(L, self.array_op(_lift(a, L), _lift(b, L)), a.fuzz or b.fuzz)
        # identities like union with Empty can hide a solvable core; retry
        # once on the simplified expression
        simplified = self._canon()
        if simplified != self:
            return simplified._rule()
        raise NotExactlySolvable(f"{type(self).__name__} is not exactly solvable here")

    @classmethod
    def _parse(cls, p):
        return cls(*p.operands(2))

    def _format(self):
        return f"{self.keyword}({self.left._format()},{self.right._format()})"


class Union(Binary):
    keyword, ufunc, array_op, set_op = "union", np.logical_or, staticmethod(_union), or_


class Inter(Binary):
    keyword, ufunc, array_op, set_op = "inter", np.logical_and, staticmethod(_inter), and_


class Diff(Binary):
    # a > b is a & ~b on bools
    keyword, ufunc, array_op, set_op = "diff", np.greater, staticmethod(_diff), sub


class SymDiff(Binary):
    keyword, ufunc, array_op, set_op = "symdiff", np.logical_xor, staticmethod(_symdiff), xor


@dataclass(frozen=True)
class Compl(SetExpr):
    inner: SetExpr
    keyword = "compl"

    def _member(self, n):
        return not member(self.inner, n)

    def _indicator(self, N):
        out = indicator(self.inner, N)
        return np.logical_not(out, out=out)

    def _count(self, N):
        return N - count_upto(self.inner, N)

    def _canon(self):
        return self.inner._canon()._complemented()

    def _complemented(self):
        return self.inner

    def _rule(self):
        f = self.inner._rule()
        if isinstance(f, _Form) and f.modulus <= MAX_FORM_ENTRIES:
            return _Form(f.modulus, _complement(f), f.fuzz)
        upper, lower, method = _limits_of(f)
        return 1 - lower, 1 - upper, method

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

    def _indicator(self, N):
        arr = np.zeros(N, dtype=bool)
        arr[self.factor - 1 :: self.factor] = indicator(self.inner, N // self.factor)
        return arr

    def _count(self, N):
        return count_upto(self.inner, N // self.factor)

    def _canon(self):
        inner = self.inner._canon()
        return inner if self.factor == 1 else inner._dilated(self.factor)

    def _dilated(self, factor):
        return Dilate(factor * self.factor, self.inner)

    def _rule(self):
        f = self.inner._rule()
        if isinstance(f, _Form) and f.modulus * self.factor <= MAX_MODULUS:
            return _Form(f.modulus * self.factor, f.residues * self.factor, f.fuzz)
        upper, lower, method = _limits_of(f)
        return Fraction(upper, self.factor), Fraction(lower, self.factor), method

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

    def _indicator(self, N):
        arr = np.zeros(N, dtype=bool)
        if N > self.offset:
            arr[self.offset :] = indicator(self.inner, N - self.offset)
        return arr

    def _count(self, N):
        return count_upto(self.inner, N - self.offset)

    def _canon(self):
        inner = self.inner._canon()
        return inner if self.offset == 0 else inner._shifted(self.offset)

    def _shifted(self, offset):
        return Shift(offset + self.offset, self.inner)

    def _rule(self):
        f = self.inner._rule()
        if not isinstance(f, _Form):
            return f
        shifted = _rotate(f.residues, f.modulus, self.offset % f.modulus)
        # shifting drops nothing but delays the pattern: a finite prefix
        # of the shifted residue classes is missing, a null perturbation
        return _Form(f.modulus, shifted, f.fuzz or self.offset > 0)

    @classmethod
    def _parse(cls, p):
        return cls(p.integer(), p.expr())

    def _format(self):
        return f"shift {self.offset} {self.inner._format()}"


@dataclass(frozen=True)
class Midpoint(SetExpr):
    """``lower`` plus every second element of ``upper \\ lower``.

    Selection starts with the first element of the difference, so the
    count up to N is c_lower(N) + ceil(c_gap(N) / 2), with the gap
    ``upper \\ lower``; lower plus the gap is lower ∪ upper.  So the exact
    limit is (d(lower) + d(lower ∪ upper)) / 2 when both exist, the union's
    from its own rule; without one, d(upper) stands in for it, which holds
    when lower ⊆ upper, as builders verify on a prefix.
    """

    lower: SetExpr
    upper: SetExpr
    keyword = "midpoint"

    def _split(self, N: int) -> tuple[np.ndarray, np.ndarray]:
        """lower and upper \\ lower on [1, N], from one walk of each operand."""
        lo = indicator(self.lower, N)
        gap = indicator(self.upper, N)
        np.greater(gap, lo, out=gap)
        return lo, gap

    def _member(self, n):
        if member(self.lower, n):
            return True
        if not member(self.upper, n):
            return False
        return np.count_nonzero(self._split(n)[1]) % 2 == 1  # n is the last gap element so far

    def _indicator(self, N):
        lo, gap = self._split(N)
        odd = np.logical_xor.accumulate(gap)  # parity of the gap count so far
        odd &= gap
        lo |= odd
        return lo

    def _count(self, N):
        lo, gap = self._split(N)
        return int(np.count_nonzero(lo)) + (int(np.count_nonzero(gap)) + 1) // 2

    def _canon(self):
        lo, hi = self.lower._canon(), self.upper._canon()
        return lo if lo == hi else Midpoint(lo, hi)

    def _rule(self):
        lo, hi = self.lower._rule(), self.upper._rule()
        try:
            union = Union(self.lower, self.upper)._joint(lo, hi)
        except NotExactlySolvable:
            union = hi  # no rule for the union: take lower ⊆ upper
        (lu, ll, lm), (uu, ul, um) = _limits_of(lo), _limits_of(union)
        if lu == ll and uu == ul:
            mid = (lu + uu) / 2
            return mid, mid, "exact" if lm == um == "exact" else "block-formula"
        raise NotExactlySolvable("midpoint of divergent endpoints")

    @classmethod
    def _parse(cls, p):
        return cls(*p.operands(2))

    def _format(self):
        return f"midpoint({self.lower._format()},{self.upper._format()})"


# ---------------------------------------------------------------------------
# predicate registry

_sieve_lock = threading.Lock()
_sieve: np.ndarray = np.zeros(2, dtype=bool)  # index n, valid below len


def _prime_sieve(upto: int) -> np.ndarray:
    global _sieve
    if upto >= MAX_MASK:
        raise CesaroError(f"primes sieve up to {upto} not below the mask limit {MAX_MASK}")
    with _sieve_lock:
        if len(_sieve) <= upto:
            size = max(upto + 1, 2 * len(_sieve), 1 << 16)
            s = np.ones(size, dtype=bool)
            s[:2] = False
            for p in range(2, math.isqrt(size - 1) + 1):
                if s[p]:
                    s[p * p :: p] = False
            _sieve = s
        return _sieve


def _icbrt(n: int) -> int:
    r = round(n ** (1 / 3))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def _primes_indicator(N: int) -> np.ndarray:
    return _prime_sieve(N)[1 : N + 1].copy()


# The alternating counterpart set from the divergent block example: even n
# belongs iff n/2 lies in the geometric block set, odd n iff (n+1)/2 does not.
_PAIRED_BLOCKS = Blocks(Geometric(2))


def _paired_member(n: int) -> bool:
    if n % 2 == 0:
        return member(_PAIRED_BLOCKS, n // 2)
    return not member(_PAIRED_BLOCKS, (n + 1) // 2)


def _paired_indicator(N: int) -> np.ndarray:
    half = (N + 1) // 2
    base = indicator(_PAIRED_BLOCKS, half)
    arr = np.zeros(N, dtype=bool)
    arr[1::2] = base[: N // 2]  # even n = 2k  <->  k in base
    arr[0::2] = ~base[:half]  # odd n = 2k-1 <->  k not in base
    return arr


@dataclass(frozen=True)
class PredicateSpec:
    member: object  # n -> bool
    count_upto: object  # N -> int, exactly
    indicator: object  # N -> np.ndarray
    exact_upper: Fraction  # the upper Cesàro limit
    exact_lower: Fraction


def _sparse(term, count) -> PredicateSpec:
    """The null set {term(k) : k >= 1}, where count(N) is the number of
    terms up to N; ``term`` maps an int64 array of k elementwise."""

    def sparse_indicator(N: int) -> np.ndarray:
        arr = np.zeros(N, dtype=bool)
        arr[term(np.arange(1, count(N) + 1, dtype=np.int64)) - 1] = True
        return arr

    return PredicateSpec(
        member=lambda n: count(n) > count(n - 1),
        count_upto=count,
        indicator=sparse_indicator,
        exact_upper=Fraction(0),
        exact_lower=Fraction(0),
    )


PREDICATES: dict[str, PredicateSpec] = {
    "squares": _sparse(lambda k: k * k, math.isqrt),
    "cubes": _sparse(lambda k: k**3, _icbrt),
    "pow2": _sparse(lambda k: 2**k, lambda N: N.bit_length() - 1 if N >= 2 else 0),
    "primes": PredicateSpec(
        member=lambda n: bool(_prime_sieve(n)[n]),
        count_upto=lambda N: int(np.count_nonzero(_prime_sieve(N)[: N + 1])),
        indicator=_primes_indicator,
        exact_upper=Fraction(0),  # prime number theorem
        exact_lower=Fraction(0),
    ),
    "paired": PredicateSpec(
        member=_paired_member,
        # exactly one of {2k-1, 2k} belongs for every k: N // 2 members in
        # full pairs up to N, and the limit is exactly 1/2
        count_upto=lambda N: N // 2 + (N % 2 == 1 and _paired_member(N)),
        indicator=_paired_indicator,
        exact_upper=Fraction(1, 2),
        exact_lower=Fraction(1, 2),
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
    without affecting any later call.  The combinators rely on this and
    combine into their left child's array, so every leaf kernel, and every
    registered predicate's ``indicator``, must return an array it keeps no
    reference to.
    """
    if N < 0:
        raise ValueError("prefix length must be >= 0")
    if N >= MAX_MASK:
        raise CesaroError(
            f"prefix length {N} not below the mask limit {MAX_MASK}, past which counts need int64"
        )
    return e._indicator(N)


def count_upto(e: SetExpr, N: int) -> int:
    """Number of members of ``e`` in [1, N], exactly."""
    if N <= 0:
        return 0
    return e._count(N)


def canonicalize(e: SetExpr) -> SetExpr:
    """Structure-preserving simplification.

    Applies Boolean identities, merges residue expressions onto a common
    modulus (then reduces the modulus), and performs explicit-set algebra.
    The output denotes the same set as the input.
    """
    return e._canon()


def _form(e: SetExpr) -> _Form:
    """The periodic normal form of e, or NotExactlySolvable."""
    f = e._rule()
    if not isinstance(f, _Form):
        raise NotExactlySolvable(f"{type(e).__name__} has no periodic form")
    return f


def _exact(e: SetExpr) -> tuple[Fraction, Fraction, str]:
    """(upper, lower, method) of e's exact limits, or NotExactlySolvable."""
    return _limits_of(e._rule())


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
    if isinstance(e, Binary):
        # count_upto would walk the tree twice, to frm - 1 and to to
        count = int(np.count_nonzero(indicator(e, to)[frm - 1 :]))
    else:
        count = count_upto(e, to) - count_upto(e, frm - 1)
    return PrefixStat(to - frm + 1, count)


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
