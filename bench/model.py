"""The benchmark's own model of the cesaro expression language.

Everything the benchmark checks is checked against this module, which
never imports cesaro.  Expressions are plain tuples:

    ("empty",) ("all",) ("explicit", elems) ("residue", m, residues)
    ("geometric", r) ("poly", e) ("runlist", head, runs, tail)
    ("greedy", p, q, text) ("pred", name)
    ("union"|"inter"|"diff"|"symdiff"|"midpoint", a, b)
    ("compl", a) ("dilate", k, a) ("shift", s, a)

``render`` prints the DSL string the library parses, ``brute_mask``
evaluates membership on 1..N with numpy, ``member`` evaluates one integer
in plain Python (used by the self-test), and ``limits`` gives the exact
upper and lower Cesàro limits by the rules below:

* periodic trees: residue arithmetic over the common period, with
  explicit sets and the null predicates (squares, cubes, pow2, primes)
  counted as density zero;
* greedy leaves: the greedy recurrence replayed in plain Python over one
  period (a target p/q is periodic with period q from n = 3 on);
* ``blocks list`` leaves: the run list is eventually periodic;
* geometric, polynomial and ``paired`` leaves switch between two
  periodic behaviours on runs that grow without bound, so a tree with one
  such leaf B has nu_N = a + b * nu_N(B) + o(1) with a, b from the
  periodic parts, and its limits follow from B's known limits
  (r/(r+1) and 1/(r+1); 1/2; 2/3 and 1/3);
* midpoint(lo, hi) is lo plus every second element of hi \\ lo, so its
  average is nu(lo) + nu(hi \\ lo) / 2 + o(1) whether or not lo is a
  subset of hi.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

BOOLEAN = ("union", "inter", "diff", "symdiff")
NULL_PREDICATES = ("squares", "cubes", "pow2", "primes")
_BOOL_OPS = {
    "union": np.logical_or,
    "inter": np.logical_and,
    "diff": lambda a, b: a & ~b,
    "symdiff": np.logical_xor,
}


class Unsupported(ValueError):
    """The model has no exact limit rule for this tree."""


# ---------------------------------------------------------------------------
# rendering


def render(node) -> str:
    k = node[0]
    if k in ("empty", "all"):
        return k
    if k == "explicit":
        return "explicit{%s}" % ",".join(map(str, node[1]))
    if k == "residue":
        return "residue %d {%s}" % (node[1], ",".join(map(str, sorted(node[2]))))
    if k == "geometric":
        return f"blocks geometric {node[1]}"
    if k == "poly":
        return f"blocks poly {node[1]}"
    if k == "runlist":
        _, head, runs, tail = node
        return "blocks list [%d;%s] %s" % (head, ",".join(map(str, runs)), tail)
    if k == "greedy":
        return f"greedy {node[3]}"
    if k == "pred":
        return f"predicate {node[1]}"
    if k in BOOLEAN or k == "midpoint":
        return f"{k}({render(node[1])},{render(node[2])})"
    if k == "compl":
        return f"compl({render(node[1])})"
    if k in ("dilate", "shift"):
        return f"{k} {node[1]} {render(node[2])}"
    raise ValueError(f"unknown node {k!r}")


def leaves(node):
    """Every leaf of the tree, left to right."""
    k = node[0]
    if k in BOOLEAN or k == "midpoint":
        return leaves(node[1]) + leaves(node[2])
    if k == "compl":
        return leaves(node[1])
    if k in ("dilate", "shift"):
        return leaves(node[2])
    return [node]


def walk(node):
    """The tree's nodes, parents before children."""
    yield node
    for c in children(node):
        yield from walk(c)


def children(node):
    k = node[0]
    if k in BOOLEAN or k == "midpoint":
        return [node[1], node[2]]
    if k == "compl":
        return [node[1]]
    if k in ("dilate", "shift"):
        return [node[2]]
    return []


# ---------------------------------------------------------------------------
# leaf sequences


def greedy_bits(p: int, q: int, n: int) -> list[int]:
    """Membership of 1..n in the greedy set of target p/q, by the recurrence:
    1 belongs; m > 1 joins when the average over 1..m-1 is below p/q."""
    bits, c = [1], 1
    for m in range(2, n + 1):
        take = int(c * q < p * (m - 1))
        bits.append(take)
        c += take
    return bits[:n]


def run_lengths(node, n: int) -> list[int]:
    """Run lengths (zeros first) of a block leaf until they cover 1..n."""
    k, out, total = 1, [], 0
    while total < n:
        if node[0] == "geometric":
            z = node[1] ** (k - 1)
        elif node[0] == "poly":
            z = k ** node[1]
        else:
            _, head, runs, tail = node
            if k == 1:
                z = head
            elif k - 2 < len(runs) or tail == "cycle":
                z = runs[(k - 2) % len(runs)]
            else:
                z = runs[-1]
        out.append(z)
        total += z
        k += 1
    return out


def _runs_mask(node, n: int) -> np.ndarray:
    if node[0] == "runlist" and node[3] == "cycle":
        # vectorised: the cycle repeats, so tile it instead of looping
        _, head, runs, _ = node
        reps = n // sum(runs) + 2
        z = np.concatenate(([head], np.tile(np.asarray(runs, dtype=np.int64), reps)))
    elif node[0] == "runlist":
        _, head, runs, _ = node
        reps = n // runs[-1] + 2
        z = np.concatenate(([head], runs, np.full(reps, runs[-1], dtype=np.int64)))
    else:
        z = np.asarray(run_lengths(node, n), dtype=np.int64)
    # cut the runs at n: a geometric last run can be far longer than n
    ends = np.cumsum(z)
    k = int(np.searchsorted(ends, n))
    z = z[: k + 1].copy()
    z[-1] -= ends[k] - n
    parity = (np.arange(z.size) % 2).astype(bool)
    return np.repeat(parity, z)


def prime_mask(n: int) -> np.ndarray:
    """Entry i is True when i + 1 is prime (sieve of Eratosthenes)."""
    s = np.ones(n + 1, dtype=bool)
    s[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if s[p]:
            s[p * p :: p] = False
    return s[1:]


def _pred_mask(name: str, n: int) -> np.ndarray:
    arr = np.zeros(n, dtype=bool)
    if name == "squares":
        r = np.arange(1, math.isqrt(n) + 1, dtype=np.int64)
        arr[r * r - 1] = True
    elif name == "cubes":
        r = 1
        while r**3 <= n:
            arr[r**3 - 1] = True
            r += 1
    elif name == "pow2":
        v = 2
        while v <= n:
            arr[v - 1] = True
            v *= 2
    elif name == "primes":
        arr = prime_mask(n)
    elif name == "paired":
        a = _runs_mask(("geometric", 2), (n + 1) // 2)
        arr[1::2] = a[: n // 2]  # even 2k belongs iff k is in A
        arr[0::2] = ~a  # odd 2k-1 belongs iff k is not in A
    else:
        raise ValueError(f"unknown predicate {name!r}")
    return arr


def brute_mask(node, n: int) -> np.ndarray:
    """Boolean array of length n; entry i is membership of i + 1."""
    k = node[0]
    if k == "empty":
        return np.zeros(n, dtype=bool)
    if k == "all":
        return np.ones(n, dtype=bool)
    if k == "explicit":
        arr = np.zeros(n, dtype=bool)
        el = np.asarray([x for x in node[1] if x <= n], dtype=np.int64)
        arr[el - 1] = True
        return arr
    if k == "residue":
        m, res = node[1], node[2]
        table = np.zeros(m, dtype=bool)
        table[list(res)] = True
        one_period = table[np.arange(1, m + 1) % m]
        return np.tile(one_period, n // m + 1)[:n]
    if k in ("geometric", "poly", "runlist"):
        return _runs_mask(node, n)
    if k == "greedy":
        _, p, q, _ = node
        head = greedy_bits(p, q, min(n, 2 * q + 2))
        arr = np.zeros(n, dtype=bool)
        arr[: len(head)] = head
        if n > len(head):
            period = np.asarray(head[q + 2 : 2 * q + 2], dtype=bool)
            tail = n - len(head)
            arr[len(head) :] = np.tile(period, tail // q + 1)[:tail]
        return arr
    if k == "pred":
        return _pred_mask(node[1], n)
    if k in BOOLEAN:
        return _BOOL_OPS[k](brute_mask(node[1], n), brute_mask(node[2], n))
    if k == "compl":
        return ~brute_mask(node[1], n)
    if k == "dilate":
        arr = np.zeros(n, dtype=bool)
        arr[node[1] - 1 :: node[1]] = brute_mask(node[2], n // node[1])
        return arr
    if k == "shift":
        arr = np.zeros(n, dtype=bool)
        if n > node[1]:
            arr[node[1] :] = brute_mask(node[2], n - node[1])
        return arr
    if k == "midpoint":
        lo, hi = brute_mask(node[1], n), brute_mask(node[2], n)
        gap = hi & ~lo
        return lo | (gap & (np.cumsum(gap) % 2 == 1))
    raise ValueError(f"unknown node {k!r}")


def member(node, n: int) -> bool:
    """Membership of one integer, in plain Python (no numpy, no periods)."""
    k = node[0]
    if k == "empty":
        return False
    if k == "all":
        return True
    if k == "explicit":
        return n in node[1]
    if k == "residue":
        return n % node[1] in node[2]
    if k in ("geometric", "poly", "runlist"):
        pos = 0
        for i, z in enumerate(run_lengths(node, n)):
            pos += z
            if n <= pos:
                return i % 2 == 1
    if k == "greedy":
        return bool(greedy_bits(node[1], node[2], n)[n - 1])
    if k == "pred":
        name = node[1]
        if name == "squares":
            return math.isqrt(n) ** 2 == n
        if name == "cubes":
            return round(n ** (1 / 3)) ** 3 == n
        if name == "pow2":
            return n >= 2 and n & (n - 1) == 0
        if name == "primes":
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        if n % 2 == 0:  # paired
            return member(("geometric", 2), n // 2)
        return not member(("geometric", 2), (n + 1) // 2)
    if k == "union":
        return member(node[1], n) or member(node[2], n)
    if k == "inter":
        return member(node[1], n) and member(node[2], n)
    if k == "diff":
        return member(node[1], n) and not member(node[2], n)
    if k == "symdiff":
        return member(node[1], n) != member(node[2], n)
    if k == "compl":
        return not member(node[1], n)
    if k == "dilate":
        return n % node[1] == 0 and member(node[2], n // node[1])
    if k == "shift":
        return n > node[1] and member(node[2], n - node[1])
    if k == "midpoint":
        if member(node[1], n):
            return True
        if not member(node[2], n):
            return False
        pos = sum(
            1 for j in range(1, n + 1) if member(node[2], j) and not member(node[1], j)
        )
        return pos % 2 == 1
    raise ValueError(f"unknown node {k!r}")


# ---------------------------------------------------------------------------
# exact limits

_CHUNK = 1 << 18


def _leaf_table(node) -> np.ndarray:
    """Pattern t of an eventually periodic leaf: n belongs iff t[n % len(t)]."""
    k = node[0]
    if k == "residue":
        table = np.zeros(node[1], dtype=bool)
        table[list(node[2])] = True
        return table
    if k == "greedy":
        _, p, q, _ = node
        bits = greedy_bits(p, q, 2 * q + 2)
        table = np.zeros(q, dtype=bool)
        for n in range(q + 3, 2 * q + 3):
            table[n % q] = bits[n - 1]
        return table
    # runlist: sample one period well past the head
    period = leaf_period(node)
    _, head, runs, _ = node
    start = head + 2 * sum(runs) + 2 * period
    seq = _runs_mask(node, start + period)
    table = np.zeros(period, dtype=bool)
    for n in range(start + 1, start + period + 1):
        table[n % period] = seq[n - 1]
    return table


def leaf_period(node) -> int:
    k = node[0]
    if k == "residue":
        return node[1]
    if k == "greedy":
        return node[2]
    if k == "runlist":
        _, _, runs, tail = node
        if tail == "cycle":  # an odd cycle flips the parity every pass
            return sum(runs) * (2 if len(runs) % 2 else 1)
        return 2 * runs[-1]
    if k == "pred" and node[1] == "paired":
        return 2
    return 1


def period(node) -> int:
    """Common period of the tree's periodic parts; for a tree built only
    from residue classes and null sets this is the exact engine's common
    modulus."""
    k = node[0]
    if k in BOOLEAN or k == "midpoint":
        return math.lcm(period(node[1]), period(node[2]))
    if k == "compl":
        return period(node[1])
    if k == "dilate":
        return node[1] * period(node[2])
    if k == "shift":
        return period(node[2])
    return leaf_period(node)


SWITCHING = ("geometric", "poly")


def switch_limits(node):
    """(upper, lower) limits of the tree's one switching leaf, or None."""
    sw = [n for n in leaves(node) if n[0] in SWITCHING or n == ("pred", "paired")]
    if len({render(n) for n in sw}) > 1:
        raise Unsupported("more than one switching leaf")
    if not sw:
        return None
    n = sw[0]
    if n[0] == "geometric":
        return Fraction(n[1], n[1] + 1), Fraction(1, n[1] + 1)
    if n[0] == "poly":
        return Fraction(1, 2), Fraction(1, 2)
    # paired follows the geometric-2 block set at half scale
    return Fraction(2, 3), Fraction(1, 3)


def _tile(table: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """table[n % len(table)] for n in [lo, hi), by tiling."""
    p = table.size
    start = lo % p
    reps = (start + hi - lo) // p + 1
    return np.tile(table, reps)[start : start + hi - lo]


def _eval_range(node, lo: int, hi: int, on: bool, tables: dict) -> np.ndarray:
    """Membership of the integers lo..hi-1, taken far from the origin: null
    sets are dropped and the switching leaf B is held on or off.  The tree
    is B ∩ X ∪ B^c ∩ Y, and this returns X (on) or Y (off)."""
    k = node[0]
    size = hi - lo
    if k in ("empty", "explicit") or (k == "pred" and node[1] in NULL_PREDICATES):
        return np.zeros(size, dtype=bool)
    if k == "all":
        return np.ones(size, dtype=bool)
    if k == "residue":
        out = np.zeros(size, dtype=bool)
        for r in node[2]:
            out[(r - lo) % node[1] :: node[1]] = True
        return out
    if k in ("greedy", "runlist"):
        key = render(node)
        if key not in tables:
            tables[key] = _leaf_table(node)
        return _tile(tables[key], lo, hi)
    if k in SWITCHING:
        return np.full(size, on)
    if k == "pred":  # paired: evens while B is on, odds while off
        out = np.zeros(size, dtype=bool)
        out[(lo + (1 if on else 0)) % 2 :: 2] = True
        return out
    if k in BOOLEAN:
        return _BOOL_OPS[k](
            _eval_range(node[1], lo, hi, on, tables), _eval_range(node[2], lo, hi, on, tables)
        )
    if k == "compl":
        return ~_eval_range(node[1], lo, hi, on, tables)
    if k == "dilate":
        f = node[1]
        out = np.zeros(size, dtype=bool)
        first = -(-lo // f)  # smallest j with f * j >= lo
        count = len(range(first * f, hi, f))
        out[first * f - lo :: f] = _eval_range(node[2], first, first + count, on, tables)
        return out
    if k == "shift":
        return _eval_range(node[2], lo - node[1], hi - node[1], on, tables)
    raise Unsupported(f"no periodic rule for {k}")


def _densities(parts, size: int) -> list[Fraction]:
    """Densities of each part over one period [0, size), counted in chunks
    so memory stays O(chunk) whatever the period."""
    counts = None
    for lo in range(0, size, _CHUNK):
        got = [int(np.count_nonzero(p)) for p in parts(lo, min(size, lo + _CHUNK))]
        counts = got if counts is None else [a + b for a, b in zip(counts, got)]
    return [Fraction(c, size) for c in counts]


def _affine(node):
    """(a, b): nu_N(node) = a + b * nu_N(B) + o(1) for the switching leaf B."""
    tables: dict = {}
    size = period(node)
    switching = switch_limits(node) is not None

    def ev(sub, lo, hi, on):
        return _eval_range(sub, lo, hi, on, tables)

    if node[0] == "midpoint":
        low, high = node[1], node[2]

        def parts(lo, hi):
            xl, yl = ev(low, lo, hi, True), ev(low, lo, hi, False)
            xh, yh = ev(high, lo, hi, True), ev(high, lo, hi, False)
            return xl, yl, xh & ~xl, yh & ~yl

        dxl, dyl, dxg, dyg = _densities(parts, size)
        return dyl + dyg / 2, dxl - dyl + (dxg - dyg) / 2
    if not switching:
        (d,) = _densities(lambda lo, hi: (ev(node, lo, hi, False),), size)
        return d, Fraction(0)
    dx, dy = _densities(lambda lo, hi: (ev(node, lo, hi, True), ev(node, lo, hi, False)), size)
    return dy, dx - dy


def limits(node) -> tuple[Fraction, Fraction]:
    """Exact (upper, lower) Cesàro limits of the tree."""
    k = node[0]
    if k == "compl":
        u, lo = limits(node[1])
        return 1 - lo, 1 - u
    if k == "dilate":
        u, lo = limits(node[2])
        return u / node[1], lo / node[1]
    if k == "shift":
        return limits(node[2])
    sw = switch_limits(node)
    a, b = _affine(node)
    if sw is None or b == 0:
        return a, a
    ends = (a + b * sw[0], a + b * sw[1])
    return max(ends), min(ends)


def switch_weight(node) -> Fraction:
    """|b|: how strongly the tree's average follows its switching leaf."""
    k = node[0]
    if k == "compl":
        return switch_weight(node[1])
    if k == "dilate":
        return switch_weight(node[2]) / node[1]
    if k == "shift":
        return switch_weight(node[2])
    if switch_limits(node) is None:
        return Fraction(0)
    return abs(_affine(node)[1])
