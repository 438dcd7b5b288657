"""Set expressions over the positive integers.

A ``SetExpr`` is a closed, immutable description of a subset of
N = {1, 2, ...}: explicit finite sets, residue classes, run-length block
sets, greedy target-density sets, a small registry of named predicate
sets, and Boolean/affine combinators on top of those.  Everything here is
exact: membership is a pure total function and partial averages are
returned as ``fractions.Fraction``.

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

import numpy as np

#: Largest explicit set accepted.  Bigger explicit inputs are rejected:
#: they have density 0 anyway and usually signal misuse.
MAX_EXPLICIT = 10**6

#: Largest modulus produced by residue rewriting in ``canonicalize``.
MAX_CANON_MODULUS = 10**6


class CesaroError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(CesaroError):
    """Unknown predicate name or other registry misconfiguration."""


# ---------------------------------------------------------------------------
# run-length specifications for block sets


class ZSpec:
    """Run-length law for a block set: alternating runs of zeroes and ones."""

    __slots__ = ()

    def run(self, k: int) -> int:
        """Length of the k-th run (k >= 1; run 1 is zeroes, run 2 ones, ...)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Geometric(ZSpec):
    """Runs z_k = ratio**(k-1)."""

    ratio: int

    def __post_init__(self):
        if self.ratio < 2:
            raise ValueError("geometric run ratio must be >= 2")

    def run(self, k: int) -> int:
        return self.ratio ** (k - 1)


@dataclass(frozen=True)
class Poly(ZSpec):
    """Runs z_k = k**exponent."""

    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("polynomial run exponent must be >= 1")

    def run(self, k: int) -> int:
        return k**self.exponent


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


# ---------------------------------------------------------------------------
# expression variants


class SetExpr:
    """Base class for set expressions.  All variants are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(SetExpr):
    pass


@dataclass(frozen=True)
class All(SetExpr):
    pass


@dataclass(frozen=True)
class Explicit(SetExpr):
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = self.elements
        if len(elems) > MAX_EXPLICIT:
            raise ValueError(f"explicit set larger than {MAX_EXPLICIT} elements")
        if any(n < 1 for n in elems):
            raise ValueError("explicit elements must be >= 1")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError("explicit elements must be strictly increasing")


@dataclass(frozen=True)
class Residue(SetExpr):
    modulus: int
    residues: frozenset[int]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not self.residues:
            raise ValueError("residue set must be nonempty (use Empty instead)")
        if any(not (0 <= r < self.modulus) for r in self.residues):
            raise ValueError("residues must lie in [0, modulus)")
        if not isinstance(self.residues, frozenset):
            object.__setattr__(self, "residues", frozenset(self.residues))


@dataclass(frozen=True)
class Blocks(SetExpr):
    z: ZSpec


@dataclass(frozen=True)
class Greedy(SetExpr):
    target: Fraction

    def __post_init__(self):
        t = Fraction(self.target)
        if not (0 <= t <= 1):
            raise ValueError("greedy target must lie in [0, 1]")
        object.__setattr__(self, "target", t)


@dataclass(frozen=True)
class Predicate(SetExpr):
    name: str


@dataclass(frozen=True)
class Union(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True)
class Inter(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True)
class Compl(SetExpr):
    inner: SetExpr


@dataclass(frozen=True)
class Diff(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True)
class SymDiff(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True)
class Dilate(SetExpr):
    """{factor * n : n in inner}."""

    factor: int
    inner: SetExpr

    def __post_init__(self):
        if self.factor < 1:
            raise ValueError("dilation factor must be >= 1")


@dataclass(frozen=True)
class Shift(SetExpr):
    """{n + offset : n in inner}; results <= 0 cannot occur (offset >= 0)."""

    offset: int
    inner: SetExpr

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("shift offset must be >= 0")


@dataclass(frozen=True)
class Midpoint(SetExpr):
    """``lower`` plus every second element of ``upper \\ lower``.

    Selection starts with the first element of the difference.  Only
    meaningful when lower is a subset of upper; builders verify that on
    a prefix before constructing this node.
    """

    lower: SetExpr
    upper: SetExpr


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


# ---------------------------------------------------------------------------
# block sets from their run lengths


def _block_runs(z: ZSpec, N: int) -> tuple[list[int], int]:
    """Run lengths from run 1 on, and the period in positions (0 if none).

    A ``RunList`` is periodic once its listed runs are spent, so its runs
    are the listed ones followed by one period of the tail: an even number
    of runs, so that run parities repeat too.  Other specs are listed up to
    the run holding N.
    """
    if isinstance(z, RunList):
        if z.tail == "repeat-last":
            tail = [z.runs[-1]] * 2
        else:
            tail = list(z.runs) * (1 + len(z.runs) % 2)
        return [z.head, *z.runs, *tail], sum(tail)
    runs, total = [], 0
    while total < N:
        zk = z.run(len(runs) + 1)
        if runs and zk < 1:
            raise ValueError("run lengths after the first must be >= 1")
        runs.append(zk)
        total += zk
    return runs, 0


def _clip(runs: list[int], N: int) -> list[int]:
    """The runs covering [1, N], the last one cut to end at N."""
    bounds = list(accumulate(runs))
    k = bisect_left(bounds, N)
    if k == len(runs):
        return runs
    return runs[:k] + [runs[k] - (bounds[k] - N)]


def _blocks_count(z: ZSpec, N: int) -> int:
    if N <= 0:
        return 0
    runs, period = _block_runs(z, N)
    start = sum(runs) - period
    if period and N > start:
        full, rest = divmod(N - start, period)
        period_ones = sum(runs[1::2]) - sum(_clip(runs, start)[1::2])
        return full * period_ones + sum(_clip(runs, start + rest)[1::2])
    return sum(_clip(runs, N)[1::2])  # runs 2, 4, ... are the ones


def _blocks_indicator(z: ZSpec, N: int) -> np.ndarray:
    runs, period = _block_runs(z, N)
    start = sum(runs) - period
    runs = _clip(runs, N)
    bits = np.repeat(np.arange(len(runs)) % 2 == 1, runs)
    return _periodic(bits[:start], bits[start:], N) if period else bits


# ---------------------------------------------------------------------------
# greedy target-density sets
#
# Start from {1}; each later n joins exactly when the average over 1..n-1
# is strictly below the target t = p/q.  By induction (t <= 1, so ceil(t*m)
# steps by 0 or 1) the count up to N is max(1, ceil(t*(N-1))): 2 never
# joins, and from 3 on n joins when ceil(t*(n-1)) > ceil(t*(n-2)), which
# has period q in n.


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _greedy_member(t: Fraction, n: int) -> bool:
    if n <= 2:
        return n == 1
    p, q = t.numerator, t.denominator
    return _ceil_div(p * (n - 1), q) > _ceil_div(p * (n - 2), q)


def _greedy_count(t: Fraction, N: int) -> int:
    return max(1, _ceil_div(t.numerator * (N - 1), t.denominator))


def _ceil_equivalent(t: Fraction, D: int) -> tuple[int, int]:
    """The smallest fraction p/q >= t with q <= D.

    It has ceil(m*p/q) == ceil(m*t) for every 1 <= m <= D: if
    ceil(m*t) = k then (k-1)/m < t <= p/q <= k/m.  The continued-fraction
    loop of ``Fraction.limit_denominator`` brackets t between its two
    neighbours in the Farey sequence of order D; p/q is the upper one.
    """
    n, d = t.numerator, t.denominator
    if d <= D:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while q0 + (n // d) * q1 <= D:
        a = n // d
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, n - a * d
    k = (D - q0) // q1
    upper = max(Fraction(p0 + k * p1, q0 + k * q1), Fraction(p1, q1))
    return upper.numerator, upper.denominator


def _greedy_indicator(t: Fraction, N: int) -> np.ndarray:
    span = min(t.denominator, max(N - 2, 0))  # one period of n = 3, 4, ..., or less
    if (span + 1) ** 2 >= 2**63:
        raise CesaroError("greedy period too long for int64 arithmetic")
    # a long-decimal target has the ceilings of a nearby short fraction
    p, q = _ceil_equivalent(t, span + 1)
    m = np.arange(1, span + 2, dtype=np.int64)
    steps = np.diff(_ceil_div(p * m, q)) > 0  # entry i is membership of n = i + 3
    return _periodic(np.array([True, False]), steps, N)


# ---------------------------------------------------------------------------
# predicate registry

_sieve_lock = threading.Lock()
_sieve: np.ndarray = np.zeros(2, dtype=bool)  # index n, valid below len


def _prime_sieve(upto: int) -> np.ndarray:
    global _sieve
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


def _squares_indicator(N: int) -> np.ndarray:
    arr = np.zeros(N, dtype=bool)
    roots = np.arange(1, math.isqrt(N) + 1, dtype=np.int64)
    arr[roots * roots - 1] = True
    return arr


def _cubes_indicator(N: int) -> np.ndarray:
    arr = np.zeros(N, dtype=bool)
    roots = np.arange(1, _icbrt(N) + 1, dtype=np.int64)
    arr[roots**3 - 1] = True
    return arr


def _pow2_indicator(N: int) -> np.ndarray:
    arr = np.zeros(N, dtype=bool)
    k = 1
    while (1 << k) <= N:
        arr[(1 << k) - 1] = True
        k += 1
    return arr


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
    count_upto: object | None  # N -> int, exact closed form if available
    indicator: object | None  # N -> np.ndarray
    exact_upper: Fraction | None  # known upper Cesàro limit, if any
    exact_lower: Fraction | None


PREDICATES: dict[str, PredicateSpec] = {
    "squares": PredicateSpec(
        member=lambda n: math.isqrt(n) ** 2 == n,
        count_upto=math.isqrt,
        indicator=_squares_indicator,
        exact_upper=Fraction(0),
        exact_lower=Fraction(0),
    ),
    "cubes": PredicateSpec(
        member=lambda n: _icbrt(n) ** 3 == n,
        count_upto=_icbrt,
        indicator=_cubes_indicator,
        exact_upper=Fraction(0),
        exact_lower=Fraction(0),
    ),
    "pow2": PredicateSpec(
        member=lambda n: n >= 2 and n & (n - 1) == 0,
        count_upto=lambda N: N.bit_length() - 1 if N >= 2 else 0,
        indicator=_pow2_indicator,
        exact_upper=Fraction(0),
        exact_lower=Fraction(0),
    ),
    "primes": PredicateSpec(
        member=lambda n: bool(_prime_sieve(n)[n]),
        count_upto=lambda N: int(np.count_nonzero(_prime_sieve(N)[: N + 1])),
        indicator=_primes_indicator,
        exact_upper=Fraction(0),  # prime number theorem
        exact_lower=Fraction(0),
    ),
    "paired": PredicateSpec(
        member=_paired_member,
        count_upto=None,
        indicator=_paired_indicator,
        # exactly one of {2k-1, 2k} belongs for every k, so the average
        # stays within 1/N of 1/2 and the limit is exactly 1/2
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
# membership


def member(e: SetExpr, n: int) -> bool:
    """Indicator of the set denoted by ``e`` at n (n >= 1).  Pure and total."""
    if n < 1:
        raise ValueError("universe starts at 1")
    if isinstance(e, Empty):
        return False
    if isinstance(e, All):
        return True
    if isinstance(e, Explicit):
        i = bisect_left(e.elements, n)
        return i < len(e.elements) and e.elements[i] == n
    if isinstance(e, Residue):
        return n % e.modulus in e.residues
    if isinstance(e, Blocks):
        return _blocks_count(e.z, n) > _blocks_count(e.z, n - 1)
    if isinstance(e, Greedy):
        return _greedy_member(e.target, n)
    if isinstance(e, Predicate):
        return bool(predicate_spec(e.name).member(n))
    if isinstance(e, Union):
        return member(e.left, n) or member(e.right, n)
    if isinstance(e, Inter):
        return member(e.left, n) and member(e.right, n)
    if isinstance(e, Compl):
        return not member(e.inner, n)
    if isinstance(e, Diff):
        return member(e.left, n) and not member(e.right, n)
    if isinstance(e, SymDiff):
        return member(e.left, n) != member(e.right, n)
    if isinstance(e, Dilate):
        return n % e.factor == 0 and member(e.inner, n // e.factor)
    if isinstance(e, Shift):
        return n > e.offset and member(e.inner, n - e.offset)
    if isinstance(e, Midpoint):
        if member(e.lower, n):
            return True
        if not member(e.upper, n):
            return False
        pos = count_upto(e.upper, n) - count_upto(e.lower, n)
        return pos % 2 == 1
    raise TypeError(f"unknown expression variant {type(e).__name__}")


# ---------------------------------------------------------------------------
# bulk indicator / counting


#: The binary Boolean combinators as ufuncs on bool arrays; a > b is a & ~b.
_BOOL_UFUNCS = {
    Union: np.logical_or,
    Inter: np.logical_and,
    Diff: np.greater,
    SymDiff: np.logical_xor,
}


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
    if isinstance(e, Empty):
        return np.zeros(N, dtype=bool)
    if isinstance(e, All):
        return np.ones(N, dtype=bool)
    if isinstance(e, Explicit):
        arr = np.zeros(N, dtype=bool)
        cut = bisect_right(e.elements, N)
        if cut:
            arr[np.fromiter(e.elements[:cut], dtype=np.int64) - 1] = True
        return arr
    if isinstance(e, Residue):
        arr = np.zeros(N, dtype=bool)
        for r in e.residues:
            arr[(r - 1) % e.modulus :: e.modulus] = True
        return arr
    if isinstance(e, Blocks):
        return _blocks_indicator(e.z, N)
    if isinstance(e, Greedy):
        return _greedy_indicator(e.target, N)
    if isinstance(e, Predicate):
        spec = predicate_spec(e.name)
        if spec.indicator is not None:
            return spec.indicator(N)
        return np.fromiter((spec.member(n) for n in range(1, N + 1)), dtype=bool, count=N)
    ufunc = _BOOL_UFUNCS.get(type(e))
    if ufunc is not None:
        out = indicator(e.left, N)
        return ufunc(out, indicator(e.right, N), out=out)
    if isinstance(e, Compl):
        out = indicator(e.inner, N)
        return np.logical_not(out, out=out)
    if isinstance(e, Dilate):
        arr = np.zeros(N, dtype=bool)
        inner = indicator(e.inner, N // e.factor)
        arr[e.factor - 1 :: e.factor] = inner
        return arr
    if isinstance(e, Shift):
        arr = np.zeros(N, dtype=bool)
        if N > e.offset:
            arr[e.offset :] = indicator(e.inner, N - e.offset)
        return arr
    if isinstance(e, Midpoint):
        lo = indicator(e.lower, N)
        gap = indicator(e.upper, N)
        np.greater(gap, lo, out=gap)  # members of upper not in lower
        odd = np.logical_xor.accumulate(gap)  # parity of the gap count so far
        odd &= gap
        lo |= odd
        return lo
    raise TypeError(f"unknown expression variant {type(e).__name__}")


def count_upto(e: SetExpr, N: int) -> int:
    """Number of members of ``e`` in [1, N], exactly."""
    if N <= 0:
        return 0
    if isinstance(e, Empty):
        return 0
    if isinstance(e, All):
        return N
    if isinstance(e, Explicit):
        return bisect_right(e.elements, N)
    if isinstance(e, Residue):
        total = 0
        for r in e.residues:
            if r == 0:
                total += N // e.modulus
            elif r <= N:
                total += (N - r) // e.modulus + 1
        return total
    if isinstance(e, Blocks):
        return _blocks_count(e.z, N)
    if isinstance(e, Greedy):
        return _greedy_count(e.target, N)
    if isinstance(e, Predicate):
        spec = predicate_spec(e.name)
        if spec.count_upto is not None:
            return int(spec.count_upto(N))
        return int(indicator(e, N).sum())
    if isinstance(e, Compl):
        return N - count_upto(e.inner, N)
    if isinstance(e, Dilate):
        return count_upto(e.inner, N // e.factor)
    if isinstance(e, Shift):
        return count_upto(e.inner, N - e.offset)
    if isinstance(e, Midpoint):
        clo = count_upto(e.lower, N)
        chi = count_upto(e.upper, N)
        return clo + (chi - clo + 1) // 2
    # general combinators: one bulk scan
    return int(np.count_nonzero(indicator(e, N)))


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
    if type(e) in _BOOL_UFUNCS:
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


# ---------------------------------------------------------------------------
# canonicalisation


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def _lift_residues(res: frozenset[int], m: int, L: int) -> frozenset[int]:
    return frozenset(r + i * m for r in res for i in range(L // m))


def _divisors(m: int) -> list[int]:
    """The divisors of m in increasing order, by trial division up to isqrt(m)."""
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def _reduce_residue(m: int, res: frozenset[int]) -> SetExpr:
    """Smallest-modulus residue expression denoting the same set."""
    if not res:
        return Empty()
    if len(res) == m:
        return All()
    for d in _divisors(m):
        if len(res) % (m // d):
            continue  # a set of period d has m/d lifted copies of each residue
        low = frozenset(r % d for r in res)
        if len(low) * (m // d) == len(res) and _lift_residues(low, d, m) == res:
            if len(low) == d:
                return All()
            return Residue(d, low)
    return Residue(m, res)


def _residue_of(e: SetExpr) -> tuple[int, frozenset[int]] | None:
    if isinstance(e, All):
        return 1, frozenset({0})
    if isinstance(e, Residue):
        return e.modulus, e.residues
    return None


_SET_OPS = {
    Union: lambda a, b: a | b,
    Inter: lambda a, b: a & b,
    Diff: lambda a, b: a - b,
    SymDiff: lambda a, b: a ^ b,
}


def canonicalize(e: SetExpr) -> SetExpr:
    """Structure-preserving simplification.

    Applies Boolean identities, merges residue expressions onto a common
    modulus (then reduces the modulus), and performs explicit-set algebra.
    The output denotes the same set as the input.
    """
    if isinstance(e, (Union, Inter, Diff, SymDiff)):
        a = canonicalize(e.left)
        b = canonicalize(e.right)
        op = type(e)
        # identity / absorption with the extreme sets
        if isinstance(a, Empty):
            return {Union: b, Inter: Empty(), Diff: Empty(), SymDiff: b}[op]
        if isinstance(b, Empty):
            return {Union: a, Inter: Empty(), Diff: a, SymDiff: a}[op]
        if isinstance(a, All) and op in (Union, Inter):
            return All() if op is Union else b
        if isinstance(b, All):
            return {Union: All(), Inter: a, Diff: Empty(), SymDiff: canonicalize(Compl(a))}[op]
        if a == b:
            return a if op in (Union, Inter) else Empty()
        ra, rb = _residue_of(a), _residue_of(b)
        if ra and rb:
            L = _lcm(ra[0], rb[0])
            if L <= MAX_CANON_MODULUS:
                sa = _lift_residues(ra[1], ra[0], L)
                sb = _lift_residues(rb[1], rb[0], L)
                return _reduce_residue(L, _SET_OPS[op](sa, sb))
        if isinstance(a, Explicit) and isinstance(b, Explicit):
            merged = tuple(sorted(_SET_OPS[op](set(a.elements), set(b.elements))))
            return Explicit(merged) if merged else Empty()
        return op(a, b)
    if isinstance(e, Compl):
        inner = canonicalize(e.inner)
        if isinstance(inner, Compl):
            return inner.inner
        if isinstance(inner, Empty):
            return All()
        if isinstance(inner, All):
            return Empty()
        if isinstance(inner, Residue) and inner.modulus <= MAX_CANON_MODULUS:
            return _reduce_residue(
                inner.modulus, frozenset(range(inner.modulus)) - inner.residues
            )
        return Compl(inner)
    if isinstance(e, Dilate):
        inner = canonicalize(e.inner)
        if e.factor == 1:
            return inner
        if isinstance(inner, Empty):
            return Empty()
        if isinstance(inner, All):
            return Residue(e.factor, frozenset({0}))
        if isinstance(inner, Explicit):
            return Explicit(tuple(e.factor * n for n in inner.elements))
        if isinstance(inner, Dilate):
            return Dilate(e.factor * inner.factor, inner.inner)
        return Dilate(e.factor, inner)
    if isinstance(e, Shift):
        inner = canonicalize(e.inner)
        if e.offset == 0:
            return inner
        if isinstance(inner, Empty):
            return Empty()
        if isinstance(inner, Explicit):
            return Explicit(tuple(n + e.offset for n in inner.elements))
        if isinstance(inner, Shift):
            return Shift(e.offset + inner.offset, inner.inner)
        return Shift(e.offset, inner)
    if isinstance(e, Residue):
        return _reduce_residue(e.modulus, e.residues)
    if isinstance(e, Explicit) and not e.elements:
        return Empty()
    if isinstance(e, Midpoint):
        lo = canonicalize(e.lower)
        hi = canonicalize(e.upper)
        if lo == hi:
            return lo
        return Midpoint(lo, hi)
    return e
