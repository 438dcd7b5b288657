"""Expression layer: membership, indicators, counts, scans, gaps,
canonicalisation.  Everything is checked against the brute-force oracle
in conftest, which evaluates set membership from first principles."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cesaro as c
from cesaro.exprs import (
    MAX_MASK,
    PREDICATES,
    _bools,
    _eval,
    _every_second,
    _farey_neighbours,
    _icbrt,
    _pack,
    _Table,
)
from conftest import brute_set, random_fragment

SPECIALS = [
    c.Empty(),
    c.All(),
    c.Explicit((1, 4, 6)),
    c.Residue(4, frozenset({0, 2})),
    c.Blocks(c.Geometric(2)),
    c.Blocks(c.Geometric(3)),
    c.Blocks(c.Poly(1)),
    c.Blocks(c.Poly(2)),
    c.Blocks(c.RunList(0, (1, 2, 4))),
    c.Blocks(c.RunList(2, (3, 1), "cycle")),
    c.Greedy(Fraction(1, 2)),
    c.Greedy(Fraction(1, 3)),
    c.Greedy(Fraction(2, 7)),
    c.Predicate("squares"),
    c.Predicate("cubes"),
    c.Predicate("pow2"),
    c.Predicate("primes"),
    c.Predicate("paired"),
    c.Midpoint(c.Residue(4, frozenset({0})), c.Residue(2, frozenset({0}))),
    c.Dilate(3, c.Blocks(c.Geometric(2))),
    c.Shift(2, c.Residue(2, frozenset({1}))),
]


def _exprs_under_test():
    rng = random.Random(20240817)
    return SPECIALS + [random_fragment(rng, 3) for _ in range(40)]


@pytest.mark.parametrize("e", _exprs_under_test(), ids=lambda e: type(e).__name__)
def test_member_indicator_count_agree_with_oracle(e):
    N = 300
    truth = brute_set(e, N)
    ind = c.indicator(e, N)
    assert ind.dtype == bool and ind.shape == (N,)
    for n in range(1, N + 1):
        assert c.member(e, n) == (n in truth), (e, n)
        assert bool(ind[n - 1]) == (n in truth), (e, n)
    cum = np.cumsum(ind)
    for n in (1, 7, 99, 100, 256, 300):
        assert c.count_upto(e, n) == int(cum[n - 1])
        assert c.partial_average(e, n) == Fraction(int(cum[n - 1]), n)


def test_geometric_block_prefix():
    # runs 1,2,4,8,...: zero run, one run, alternating
    e = c.Blocks(c.Geometric(2))
    want = [0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0]
    assert list(c.indicator(e, 16).astype(int)) == want


def test_runlist_tail_modes():
    # head 2, runs (3, 1): zeros 1-2, ones 3-5, zeros 6, then tail
    repeat = c.Blocks(c.RunList(2, (3, 1)))
    # repeat-last: runs of length 1 alternating from position 7
    assert [n for n in range(1, 11) if c.member(repeat, n)] == [3, 4, 5, 7, 9]
    cycle = c.Blocks(c.RunList(2, (3, 1), "cycle"))
    # cycle: lengths 3,1,3,1,... alternating membership
    assert [n for n in range(1, 11) if c.member(cycle, n)] == [3, 4, 5, 7, 8, 9]


def test_greedy_prefix_and_two_over_n_bound():
    g = c.Greedy(Fraction(1, 2))
    assert [n for n in range(1, 11) if c.member(g, n)] == [1, 4, 6, 8, 10]
    s = Fraction(1, 3)
    g = c.Greedy(s)
    for n in range(1, 2000):
        assert abs(c.partial_average(g, n) - s) <= Fraction(2, n)


def test_validation_errors():
    with pytest.raises(ValueError):
        c.Explicit((3, 1))
    with pytest.raises(ValueError):
        c.Explicit((0, 1))
    with pytest.raises(ValueError):
        c.Residue(4, frozenset({4}))
    with pytest.raises(ValueError):
        c.Residue(4, frozenset())
    with pytest.raises(ValueError):
        c.Geometric(1)
    with pytest.raises(ValueError):
        c.Poly(0)
    with pytest.raises(ValueError):
        c.RunList(-1, (1,))
    with pytest.raises(ValueError):
        c.RunList(0, (1, 0))
    with pytest.raises(ValueError):
        c.RunList(0, (1,), "bogus")
    with pytest.raises(ValueError):
        c.Greedy(Fraction(3, 2))
    with pytest.raises(ValueError):
        c.Dilate(0, c.All())
    with pytest.raises(ValueError):
        c.Shift(-1, c.All())
    with pytest.raises(c.CesaroError):
        c.member(c.Predicate("nope"), 1)


@settings(max_examples=60, deadline=None)
@given(
    frm=st.integers(1, 400),
    span1=st.integers(0, 200),
    span2=st.integers(0, 200),
    seed=st.integers(0, 2**20),
)
def test_prefix_scan_splits(frm, span1, span2, seed):
    e = random_fragment(random.Random(seed), 2)
    a = c.prefix_scan(e, frm, frm + span1)
    b = c.prefix_scan(e, frm + span1 + 1, frm + span1 + 1 + span2)
    whole = c.prefix_scan(e, frm, frm + span1 + 1 + span2)
    assert a.combine(b) == whole
    assert whole.span == span1 + span2 + 2


def test_gap_functions_geometric():
    e = c.Blocks(c.Geometric(2))
    pair = c.gap_functions(e, 3, 100)
    # next member after 3 is 8, next non-member is 4
    assert (pair.p, pair.q) == (5, 1)
    assert not pair.p_limited and not pair.q_limited


def test_gap_functions_horizon_censoring():
    pair = c.gap_functions(c.Empty(), 1, 50)
    assert pair.p is None and pair.p_limited
    assert pair.q == 1 and not pair.q_limited
    with pytest.raises(ValueError):
        c.gap_functions(c.All(), 5, 5)


def test_canonicalize_preserves_membership():
    rng = random.Random(7)
    for _ in range(60):
        e = random_fragment(rng, 3)
        canon = c.canonicalize(e)
        assert np.array_equal(c.indicator(e, 400), c.indicator(canon, 400)), e


def test_canonicalize_known_rewrites():
    assert c.canonicalize(c.Compl(c.Residue(2, frozenset({0})))) == c.Residue(
        2, frozenset({1})
    )
    assert c.canonicalize(c.Dilate(3, c.All())) == c.Residue(3, frozenset({0}))
    merged = c.canonicalize(
        c.Union(c.Residue(2, frozenset({0})), c.Residue(3, frozenset({0})))
    )
    assert merged == c.Residue(6, frozenset({0, 2, 3, 4}))
    assert c.canonicalize(c.Inter(c.All(), c.Empty())) == c.Empty()
    assert c.canonicalize(c.Union(c.All(), c.Blocks(c.Geometric(2)))) == c.All()


def test_indicator_matches_member_on_blocks_far_out():
    # spot-check block membership deep into the sequence, where the
    # cumulative run table matters
    e = c.Blocks(c.Poly(2))
    ind = c.indicator(e, 5000)
    for n in (999, 1000, 2500, 4999, 5000):
        assert bool(ind[n - 1]) == (n in brute_set(e, 5000))


# ---------------------------------------------------------------------------
# leaf kernels: greedy and block sets are eventually periodic or built from
# few runs; every evaluator must agree with the recurrence replayed by the
# brute-force oracle

LONG_DECIMAL = Fraction("0.123456789012345678901234567891")  # p*q overflows int64

greedy_targets = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), LONG_DECIMAL]),
    st.integers(1, 10**4).flatmap(
        lambda q: st.builds(Fraction, st.integers(0, q), st.just(q))
    ),
)
block_specs = st.one_of(
    st.builds(c.Geometric, st.integers(2, 50)),
    st.builds(c.Poly, st.integers(1, 4)),
    st.builds(
        c.RunList,
        st.integers(0, 5),
        st.lists(st.integers(1, 6), min_size=1, max_size=6).map(tuple),
        st.sampled_from(["repeat-last", "cycle"]),
    ),
)


def _assert_leaf_agrees(e, N):
    truth = brute_set(e, N)
    ind = c.indicator(e, N)
    assert ind.dtype == bool and ind.shape == (N,)
    assert set((np.flatnonzero(ind) + 1).tolist()) == truth
    counts = [c.count_upto(e, n) for n in range(N + 1)]
    for n in range(1, N + 1):
        assert c.member(e, n) == (n in truth) == (counts[n] - counts[n - 1] == 1), (e, n)


@settings(max_examples=40, deadline=None)
@given(target=greedy_targets)
def test_greedy_kernels_agree_with_oracle(target):
    # three full periods past the fixed start: 1 in, 2 out
    _assert_leaf_agrees(c.Greedy(target), 3 * min(target.denominator, 10**4) + 3)


@settings(max_examples=40, deadline=None)
@given(z=block_specs)
@example(z=c.RunList(3, (2, 5, 1), "cycle"))
@example(z=c.RunList(0, (1,), "cycle"))
def test_block_kernels_agree_with_oracle(z):
    _assert_leaf_agrees(c.Blocks(z), 3000)


def _far_out(e, N, start, period):
    """Count and membership at N, with N reduced into the first period
    after ``start`` and read off the oracle."""
    k = (N - start - 1) // period
    n0 = N - k * period  # start < n0 <= start + period
    per_period = len(brute_set(e, start + period)) - len(brute_set(e, start))
    near = brute_set(e, n0)
    return len(near) + k * per_period, n0 in near


@pytest.mark.parametrize(
    "e, start, period",
    [
        (c.Greedy(Fraction(1234, 4999)), 2, 4999),
        (c.Blocks(c.RunList(3, (2, 5, 1), "cycle")), 11, 16),
        (c.Blocks(c.RunList(1, (4, 2))), 7, 4),
    ],
    ids=["greedy", "cycle", "repeat-last"],
)
def test_leaf_counts_far_out_by_period_arithmetic(e, start, period):
    N = 10**12
    want_count, want_member = _far_out(e, N, start, period)
    tracemalloc.start()
    try:
        got = c.count_upto(e, N), c.member(e, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (want_count, want_member)
    assert peak < 1 << 16  # a few Python ints, no prefix array


def test_leaf_kernels_keep_no_state():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(20):
            c.indicator(c.Greedy(Fraction(k + 1, 7919 + 2 * k)), 1 << 20)
            c.indicator(c.Blocks(c.Geometric(51 + k)), 1 << 20)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 1 << 20


def _big_int_greedy_bits(t, N):
    """Greedy indicator from exact Python-integer ceilings, n = 1..N."""
    p, q = t.numerator, t.denominator
    ceils = [-(-p * m // q) for m in range(1, N)]  # ceil(t*m), m = n - 1
    return np.array([True, False] + [b > a for a, b in zip(ceils, ceils[1:])])[:N]


@pytest.mark.parametrize(
    "text",
    [
        "greedy 0.00000000000000000000123",  # q beyond int64
        "greedy 0.123456789012345678901234567891",
        "greedy 0.999999999999999999999999999987",
        "greedy 0.500000000000000000000000000001",
    ],
)
def test_greedy_long_decimal_targets_match_big_int_ceilings(text):
    e = c.parse_expr(text)
    assert e.target.denominator > 2**63
    for N in (1, 2, 3, 1000, 20_000):
        ind = c.indicator(e, N)
        assert np.array_equal(ind, _big_int_greedy_bits(e.target, N)), N
        assert int(ind.sum()) == c.count_upto(e, N)


def test_greedy_indicator_rejects_period_beyond_int64_before_allocating():
    with pytest.raises(c.CesaroError, match="int64"):
        c.indicator(c.Greedy(Fraction(1, 10**30)), 2**33)


# ---------------------------------------------------------------------------
# the combinator walk combines into its children's arrays in place, so every
# array ``indicator`` returns must be owned by the caller

_RES3 = c.Residue(3, frozenset({1}))
_GEO = c.Blocks(c.Geometric(2))
NODE_KINDS = [
    *SPECIALS,
    c.Blocks(c.RunList(1, (2, 3))),
    c.Union(_GEO, _RES3),
    c.Inter(_GEO, _RES3),
    c.Compl(_GEO),
    c.Diff(_GEO, _RES3),
    c.SymDiff(_GEO, _RES3),
    c.Dilate(2, c.Union(_GEO, _RES3)),
    c.Shift(3, c.Compl(_RES3)),
    c.Midpoint(c.Inter(_GEO, _RES3), _GEO),
    c.Midpoint(_RES3, _GEO),  # not nested: lower is no subset of upper
]


@pytest.mark.parametrize("e", NODE_KINDS, ids=lambda e: type(e).__name__)
def test_indicator_returns_an_array_the_caller_owns(e):
    N = 700
    first = c.indicator(e, N)
    want = first.copy()
    first ^= True
    assert np.array_equal(c.indicator(e, N), want)


@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_combinators_leave_predicate_kernels_unchanged(name):
    # a kernel that hands out a view of shared state (the primes sieve)
    # would be overwritten by the in-place combinators
    N = 3000
    p = c.Predicate(name)
    truth = brute_set(p, N)
    for e in (
        c.Compl(p),
        c.Union(p, _RES3),
        c.Inter(p, c.All()),
        c.Diff(p, _RES3),
        c.SymDiff(p, c.All()),
        c.Midpoint(p, c.All()),
        c.Midpoint(c.Empty(), p),
    ):
        c.indicator(e, N)[:] = True
        assert set((np.flatnonzero(c.indicator(p, N)) + 1).tolist()) == truth, e
        assert c.count_upto(p, N) == len(truth)


_midpoint_operands = st.recursive(
    st.one_of(
        st.builds(
            lambda m, r: c.Residue(m, frozenset({r % m})), st.integers(1, 9), st.integers(0, 8)
        ),
        st.builds(lambda p, q: c.Greedy(Fraction(p, p + q)), st.integers(0, 5), st.integers(1, 9)),
        st.builds(lambda r: c.Blocks(c.Geometric(r)), st.integers(2, 5)),
        st.just(c.Predicate("primes")),
    ),
    lambda inner: st.one_of(
        st.builds(c.Union, inner, inner),
        st.builds(c.Inter, inner, inner),
        st.builds(c.Diff, inner, inner),
        st.builds(c.Compl, inner),
    ),
    max_leaves=4,
)


@settings(max_examples=60, deadline=None)
@given(lower=_midpoint_operands, upper=_midpoint_operands, nested=st.booleans())
def test_midpoint_xor_parity_matches_cumsum_parity(lower, upper, nested):
    if nested:
        lower = c.Inter(lower, upper)
    N = 5000
    lo = c.indicator(lower, N)
    gap = c.indicator(upper, N) & ~lo
    want = lo | (gap & (np.cumsum(gap) % 2 == 1))
    assert np.array_equal(c.indicator(c.Midpoint(lower, upper), N), want)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 63, 1000, (1 << 15) - 1, 1 << 15, (1 << 15) + 13, (1 << 17) + 5]),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    offset=st.integers(0, 7),
)
def test_every_second_member_matches_cumsum_parity(n, p, seed, offset):
    # word masks of n positions, on views at word offsets
    gap = np.random.default_rng(seed).random(n) < p
    words = _pack(gap)
    buf = np.zeros(words.size + 8, dtype=words.dtype)
    view = buf[offset : offset + words.size]
    view[:] = words
    want = gap & (np.cumsum(gap) % 2 == 1)
    got = _every_second(view)
    assert np.array_equal(_bools(got, n), want)
    assert np.array_equal(view, words)  # the operand is left as it was


# ---------------------------------------------------------------------------
# word masks at word edges: n = 64w + i + 1 is bit i of word w, so sizes,
# shifts and selections that end at, just before or just past a multiple of
# 64 are checked against the oracle; 2^16 +- 1 straddles TABLE_BASE, so
# trees of tables take their tables there and word masks below

_EDGE_N = (1, 63, 64, 65, 127, 128, 129, 2**16 - 1, 2**16 + 1)
_POINTS = "explicit{1,2,63,64,65,66,127,128,129,130,4096,65535,65536,65537}"
_EDGE_TREES = [
    *(f"shift {s} union({_POINTS}, residue 7 {{0,3}})" for s in (0, 1, 63, 64, 65)),
    *(f"shift {s} compl(predicate squares)" for s in (0, 1, 63, 64, 65)),
    *(f"shift {s} union(residue 7 {{0,3}}, blocks geometric 2)" for s in (0, 1, 63, 64, 65)),
    *(f"dilate {k} union({_POINTS}, residue 3 {{1}})" for k in (2, 3, 4, 5)),
    *(f"dilate {k} diff(blocks geometric 2, predicate squares)" for k in (2, 3, 4, 5)),
    *(f"dilate {k} symdiff(greedy 5/11, residue 4 {{1}})" for k in (2, 3, 4, 5)),
    # three gap points per 64, two of them in the next word: the selection
    # parity flips at every word edge
    "midpoint(predicate squares, union(predicate squares, residue 64 {0,1,63}))",
    f"midpoint({_POINTS}, union(residue 64 {{0,1,63}}, {_POINTS}))",
    "midpoint(residue 64 {5}, residue 64 {0,1,5,63})",
    f"midpoint(inter({_POINTS}, residue 2 {{0}}), shift 63 compl(predicate cubes))",
    "inter(compl(predicate pow2), shift 1 residue 64 {0,62,63})",
    "diff(blocks poly 2, shift 64 predicate squares)",
    # 1 is a member from N = 1 on, none before
    "greedy 1/3",
    "union(greedy 3/7, explicit{2})",
    "shift 1 greedy 2/5",
]


@pytest.mark.parametrize("text", _EDGE_TREES)
def test_word_masks_at_word_edges_match_oracle(text):
    e = c.parse_expr(text)
    for N in _EDGE_N:
        truth = brute_set(e, N)
        ind = c.indicator(e, N)
        assert ind.dtype == bool and ind.shape == (N,)
        assert set((np.flatnonzero(ind) + 1).tolist()) == truth, N
        assert c.count_upto(e, N) == len(truth), N
        for frm in {1, max(1, N - 64), max(1, N - 63), (N + 1) // 2, N}:
            want = sum(frm <= n for n in truth)
            assert c.prefix_scan(e, frm, N) == c.PrefixStat(N - frm + 1, want), (N, frm)
    assert c.indicator(e, 0).shape == (0,) and c.count_upto(e, 0) == len(brute_set(e, 0)) == 0


@pytest.mark.parametrize(
    "text",
    [
        # tables of one to about 500 pieces past 2^17 positions, periodic
        # pieces between pieces of another form among them, written to
        # words under a mask node by tiles
        "union(blocks poly 2, predicate squares)",
        f"inter(union(residue 7 {{0,3}}, blocks geometric 2), {_POINTS[:-1]},131073,131136}})",
        "diff(shift 63 union(residue 5 {1}, blocks poly 1), predicate cubes)",
        "symdiff(union(greedy 5/11, residue 4 {1}), shift 1 predicate pow2)",
    ],
)
def test_table_words_past_2_17_match_oracle(text):
    e = c.parse_expr(text)
    for N in (2**17 + 1, 2**17 + 63):
        truth = brute_set(e, N)
        assert set((np.flatnonzero(c.indicator(e, N)) + 1).tolist()) == truth, N
        assert c.count_upto(e, N) == len(truth), N


@pytest.mark.parametrize(
    "text",
    [
        "blocks poly 1",
        "union(residue 5 {1}, blocks poly 1)",
        "symdiff(residue 7 {0,3}, blocks poly 2)",
        "union(residue 7 {0,3}, blocks geometric 2)",
        "symdiff(greedy 5/11, residue 4 {1})",
        "diff(residue 3 {1}, blocks list [1;1,62,1,2,63,64,65] cycle)",
        "residue 1009 {1,500}",
        "all",
    ],
)
@pytest.mark.parametrize("shift", [0, 1, 31, 63, 64, 65])
def test_table_words_are_the_packed_fill(text, shift):
    # piece bounds at every offset in a word: gaps inside one word, gaps
    # from or to a word edge, and the first and last piece cut mid-word
    e = c.Shift(shift, c.parse_expr(text))
    for N in (*_EDGE_N, 2**17 + 1, 2**17 + 63, 2**18 + 37):
        t = _eval(e, N, N)
        if isinstance(t, _Table):
            assert np.array_equal(t.words(), _pack(t.fill(0, N))), N


@pytest.mark.parametrize(
    "text",
    [
        _POINTS,
        "predicate primes",
        "shift 65 predicate squares",
        "midpoint(predicate primes, residue 3 {1})",
        f"dilate 3 union({_POINTS}, predicate cubes)",
    ],
)
def test_complement_counts_add_up_at_every_word_offset(text):
    x = c.parse_expr(text)
    for N in range(1000, 1064):  # every N mod 64
        assert c.count_upto(c.Compl(x), N) + c.count_upto(x, N) == N, N
        assert c.indicator(c.Compl(x), N).sum() == N - c.count_upto(x, N), N


@pytest.mark.parametrize("e", NODE_KINDS, ids=lambda e: type(e).__name__)
def test_prefix_scan_counts_match_oracle(e):
    truth = brute_set(e, 700)
    for frm, to in ((1, 1), (1, 700), (37, 411), (400, 400), (699, 700)):
        want = sum(frm <= n <= to for n in truth)
        assert c.prefix_scan(e, frm, to) == c.PrefixStat(to - frm + 1, want), (frm, to)


# ---------------------------------------------------------------------------
# registered predicates: the one sparse kernel against the three it replaced


def _old_squares_indicator(N):
    arr = np.zeros(N, dtype=bool)
    roots = np.arange(1, math.isqrt(N) + 1, dtype=np.int64)
    arr[roots * roots - 1] = True
    return arr


def _old_cubes_indicator(N):
    arr = np.zeros(N, dtype=bool)
    roots = np.arange(1, _icbrt(N) + 1, dtype=np.int64)
    arr[roots**3 - 1] = True
    return arr


def _old_pow2_indicator(N):
    arr = np.zeros(N, dtype=bool)
    k = 1
    while (1 << k) <= N:
        arr[(1 << k) - 1] = True
        k += 1
    return arr


#: name -> (member, count_upto, indicator, term) of the hand-written kernels
OLD_SPARSE = {
    "squares": (
        lambda n: math.isqrt(n) ** 2 == n,
        math.isqrt,
        _old_squares_indicator,
        lambda k: k * k,
    ),
    "cubes": (lambda n: _icbrt(n) ** 3 == n, _icbrt, _old_cubes_indicator, lambda k: k**3),
    "pow2": (
        lambda n: n >= 2 and n & (n - 1) == 0,
        lambda N: N.bit_length() - 1 if N >= 2 else 0,
        _old_pow2_indicator,
        lambda k: 2**k,
    ),
}


@pytest.mark.parametrize("name", sorted(OLD_SPARSE))
def test_sparse_predicates_match_the_hand_written_kernels(name):
    old_member, old_count, old_indicator, term = OLD_SPARSE[name]
    p = c.Predicate(name)
    N = 10**5
    want = old_indicator(N)
    assert np.array_equal(c.indicator(p, N), want)
    assert [c.member(p, n) for n in range(1, N + 1)] == want.tolist()
    assert [c.count_upto(p, n) for n in range(1, N + 1)] == np.cumsum(want).tolist()
    # around the terms themselves, far beyond any indicator
    ks = [*range(1, 40), 61, 10**3, 10**4, 10**5]
    points = {term(k) + d for k in ks for d in (-1, 0, 1) if 1 <= term(k) + d < 2**62}
    for n in sorted(points):
        assert c.member(p, n) == old_member(n), n
        assert c.count_upto(p, n) == old_count(n), n
        if n <= N:
            assert np.array_equal(c.indicator(p, n), old_indicator(n)), n


def test_paired_count_is_the_sum_of_its_indicator():
    p = c.Predicate("paired")
    want = np.cumsum(c.indicator(p, 5000))
    assert [c.count_upto(p, N) for N in range(1, 5001)] == want.tolist()
    assert c.count_upto(p, 10**6) == int(np.count_nonzero(c.indicator(p, 10**6)))


@pytest.mark.parametrize("op", [c.member, c.count_upto, c.indicator])
def test_primes_beyond_the_sieve_limit_are_rejected_before_allocating(op):
    tracemalloc.start()
    try:
        with pytest.raises(c.CesaroError, match="mask limit"):
            op(c.Predicate("primes"), 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_cold_primes_sieve_holds_no_byte_per_position(monkeypatch):
    # the sieve is built in segments and kept as words: well under a byte
    # per position at any time, also while the union's masks are combined
    N = 2**24
    monkeypatch.setattr(c.exprs, "_sieve", np.zeros(0, dtype=np.uint64))
    e = c.parse_expr("union(residue 3 {1}, predicate primes)")
    tracemalloc.start()
    try:
        got = c.count_upto(e, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N // 2
    sieve = np.ones(N + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve)
    assert got == (N + 2) // 3 + int(np.count_nonzero(primes % 3 != 1))


# ---------------------------------------------------------------------------
# one prefix budget: indicator refuses MAX_MASK elements or more before it
# allocates, and every prefix-walking entry point goes through it; an
# explicit set has no phase table, so these trees walk masks

_UNION = "union(explicit{1}, blocks geometric 2)"
#: a union with an explicit set that the exact engine does not solve (two
#: generators, paired's and geometric 3's), so that classify streams it
_STREAMED = "union(explicit{1}, inter(predicate paired, blocks geometric 3))"


@pytest.mark.parametrize(
    "call",
    [
        lambda: c.indicator(c.parse_expr(_UNION), MAX_MASK),
        lambda: c.partial_average(c.parse_expr(_UNION), 10**12),
        lambda: c.estimate_limits(c.parse_expr(_UNION), 10**12),
        lambda: c.classify(c.parse_expr(_STREAMED), 10**12),
        lambda: c.prefix_scan(c.parse_expr(_UNION), 1, 10**12),
        lambda: c.count_upto(
            c.parse_expr("midpoint(residue 4 {0}, union(residue 2 {0}, explicit{1}))"), 10**12
        ),
        # operands on a shorter prefix, below the limit, are not built either
        lambda: c.estimate_limits(c.parse_expr("shift 1 explicit{1}"), 2**31),
        lambda: c.estimate_limits(c.parse_expr("dilate 2 explicit{1}"), 2**31),
        lambda: c.estimate_limits(c.parse_expr("shift 1 predicate primes"), 2**31),
        lambda: c.classify(c.parse_expr(f"dilate 2 {_STREAMED}"), 2**31),
        lambda: c.count_upto(c.parse_expr("midpoint(residue 2 {0}, shift 1 explicit{1})"), 2**31),
    ],
    ids=[
        "indicator",
        "partial_average",
        "estimate_limits",
        "classify",
        "prefix_scan",
        "midpoint",
        "shift",
        "dilate",
        "shift_primes",
        "dilate_classify",
        "midpoint_shift",
    ],
)
def test_prefix_walks_beyond_the_mask_limit_are_rejected_before_allocating(call):
    tracemalloc.start()
    try:
        with pytest.raises(c.CesaroError, match="mask limit"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "text, N, upper, lower",
    [
        (_UNION, 10**12, Fraction(2, 3), Fraction(1, 3)),
        (f"dilate 2 {_UNION}", 2**31, Fraction(1, 3), Fraction(1, 6)),
    ],
)
def test_a_null_operand_drops_out_before_any_mask(text, N, upper, lower):
    # the explicit set is null, so the union has the block set's limits
    tracemalloc.start()
    try:
        cls = c.classify(c.parse_expr(text), N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cls.kind == "NotInF" and not cls.approximate
    assert (cls.report.upper, cls.report.lower) == (upper, lower)
    assert peak < 2**20


def _odd_members_of_geometric_2(N):
    """Odd members of blocks geometric 2 in [1, N], run by run."""
    total, end, k = 0, 0, 1
    while end < N:
        start, end = end, end + 2 ** (k - 1)
        if k % 2 == 0:  # runs 2, 4, ... are members
            total += (min(end, N) + 1) // 2 - (start + 1) // 2  # the odd n in (start, end]
        k += 1
    return total


def test_table_counts_past_the_mask_limit():
    N = 10**12
    tracemalloc.start()
    try:
        union = c.count_upto(c.parse_expr("union(residue 2 {0}, blocks geometric 2)"), N)
        mid = c.count_upto(c.parse_expr("midpoint(residue 4 {0}, residue 2 {0})"), N)
        scan = c.prefix_scan(c.parse_expr("blocks poly 1"), N - 10**6 + 1, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert union == N // 2 + _odd_members_of_geometric_2(N)
    # the gap 2 mod 4, every second point from 2 on: 2 mod 8
    assert mid == N // 4 + (N - 2) // 8 + 1
    # runs 1, 2, ..., k end at k(k+1)/2; the even ones are members
    k = (math.isqrt(8 * N + 1) - 1) // 2  # the last run ending by N
    assert k * (k + 1) // 2 <= N < (k + 1) * (k + 2) // 2 and k % 2 == 1
    assert scan.count == min(10**6, N - k * (k + 1) // 2)
    assert peak < 1 << 27  # int64 arrays over the 1.4·10^6 runs of poly 1, no mask


@pytest.mark.parametrize(
    "text, n",
    [
        ("blocks geometric 2", 10**20),
        ("blocks geometric 3", 10**20 + 7),
        ("blocks poly 3", 10**20),
        ("blocks list [3;2,5,7] cycle", 10**20 + 13),
        ("blocks list [0;4,1] repeat-last", 10**20 + 2),
        ("predicate paired", 10**20),
        ("predicate paired", 10**20 + 1),
    ],
)
def test_block_sets_past_the_table_limit_count_with_python_ints(text, n):
    """Past the table limit no count is made, with Python ints or
    otherwise: block sets and paired are refused before anything is
    allocated."""
    e = c.parse_expr(text)
    tracemalloc.start()
    try:
        for call in (c.member, c.count_upto, lambda e, n: c.prefix_scan(e, n - 10, n)):
            with pytest.raises(c.CesaroError, match="table limit"):
                call(e, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "text, is_member, count, scan",
    [
        ("blocks geometric 2", False, 3002399751580330, 0),
        ("blocks list [3;2,5,7] cycle", False, 4503599627370494, 499998),
        ("predicate paired", True, 4503599627370496, 500001),
    ],
)
def test_block_sets_count_up_to_the_table_limit(text, is_member, count, scan):
    # n = 2^53 - 1, the last horizon below the table limit
    e, n = c.parse_expr(text), 2**53 - 1
    assert c.member(e, n) is is_member
    assert c.count_upto(e, n) == count
    assert c.count_upto(e, n - 1) == count - is_member
    assert c.prefix_scan(e, n - 10**6, n).count == scan


def test_farey_neighbours_keep_floors_and_ceilings():
    rng = random.Random(1618)
    for _ in range(300):
        q = rng.randint(1, 10**18)
        t = Fraction(rng.randint(0, q), q)
        D = rng.randint(1, 300)
        lower, upper = _farey_neighbours(t, D)
        assert lower <= t <= upper
        assert lower.denominator <= D and upper.denominator <= D
        for m in range(1, D + 1):
            # nearest on each side among denominators <= D ...
            assert Fraction(math.floor(m * t), m) <= lower
            assert Fraction(math.ceil(m * t), m) >= upper
            # ... so the floors and the ceilings of t survive
            assert math.floor(m * lower) == math.floor(m * t)
            assert math.ceil(m * upper) == math.ceil(m * t)
    assert _farey_neighbours(Fraction(2, 7), 7) == (Fraction(2, 7), Fraction(2, 7))
