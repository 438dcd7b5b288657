"""Limit engine: exact fragment, block formulas, streamed estimation,
classification, gap diagnostics.

The exact engine is cross-checked against the period-window density
oracle from conftest, which counts members over one full period far
beyond any finite perturbation.
"""

import math
import random
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cesaro as c
from cesaro import chains, exprs, limits
from cesaro.exprs import _eval, _Table, _table_or_mask
from cesaro.limits import _CHUNK, NotExactlySolvable, _window_extremes, _window_pieces
from conftest import PERIOD, WINDOW_START, brute_set, random_fragment, window_density
from test_grammar import _leaves, _nodes


def test_exact_matches_window_oracle_on_random_fragments():
    rng = random.Random(31415)
    for _ in range(150):
        e = random_fragment(rng, 3)
        rep = c.exact_limits(e)
        assert rep.verdict is c.Verdict.IN_F
        assert rep.exact and rep.tolerance == 0
        assert rep.upper == rep.lower == rep.limit == window_density(e), e


def test_exact_residue_density():
    rng = random.Random(99)
    for _ in range(50):
        m = rng.randint(1, 50)
        k = rng.randint(1, m)
        res = frozenset(rng.sample(range(m), k))
        rep = c.exact_limits(c.Residue(m, res))
        assert rep.limit == Fraction(k, m)


def test_exact_trivial_sets():
    assert c.exact_limits(c.Empty()).limit == 0
    assert c.exact_limits(c.All()).limit == 1
    assert c.exact_limits(c.Explicit((5, 9, 1000))).limit == 0


def test_geometric_block_formula():
    for r in (2, 3, 4, 5):
        rep = c.exact_limits(c.Blocks(c.Geometric(r)))
        assert rep.verdict is c.Verdict.NOT_IN_F
        assert rep.method == "block-formula"
        assert rep.upper == Fraction(r, r + 1)
        assert rep.lower == Fraction(1, r + 1)


def test_poly_block_and_greedy_limits():
    for q in (1, 2, 3):
        rep = c.exact_limits(c.Blocks(c.Poly(q)))
        assert rep.verdict is c.Verdict.IN_F and rep.limit == Fraction(1, 2)
    for s in (Fraction(1, 3), Fraction(2, 7), Fraction(16, 113)):
        rep = c.exact_limits(c.Greedy(s))
        assert rep.verdict is c.Verdict.IN_F and rep.limit == s


def test_predicate_limits():
    for name in ("squares", "cubes", "pow2", "primes"):
        rep = c.exact_limits(c.Predicate(name))
        assert rep.limit == 0, name
    rep = c.exact_limits(c.Predicate("paired"))
    assert rep.verdict is c.Verdict.IN_F and rep.limit == Fraction(1, 2)


def test_exact_dilate_shift_midpoint():
    geo = c.Blocks(c.Geometric(2))
    rep = c.exact_limits(c.Dilate(3, geo))
    assert (rep.upper, rep.lower) == (Fraction(2, 9), Fraction(1, 9))
    rep = c.exact_limits(c.Shift(7, geo))
    assert (rep.upper, rep.lower) == (Fraction(2, 3), Fraction(1, 3))
    mid = c.Midpoint(c.Residue(4, frozenset({0})), c.Residue(2, frozenset({0})))
    assert c.exact_limits(mid).limit == Fraction(3, 8)


def test_null_perturbation_does_not_move_exact_limits():
    # Cesàro limits are invariant under null-set perturbations
    base = c.Residue(3, frozenset({0, 2}))
    nu = c.exact_limits(base).limit
    for perturbed in (
        c.Union(base, c.Explicit((1, 7, 13))),
        c.Diff(base, c.Explicit((3, 6))),
        c.SymDiff(base, c.Predicate("pow2")),
        c.Union(base, c.Predicate("squares")),
    ):
        rep = c.exact_limits(perturbed)
        assert rep.upper == rep.lower == nu, perturbed


def test_not_exactly_solvable():
    # two generators have no joint exact rule
    geo, other = c.Blocks(c.Geometric(2)), c.Blocks(c.Geometric(3))
    for e in (
        c.Union(geo, c.Union(other, c.Residue(3, frozenset({1})))),
        c.Inter(geo, c.Predicate("paired")),
        c.Midpoint(c.Empty(), c.Inter(geo, other)),
    ):
        with pytest.raises(NotExactlySolvable):
            c.exact_limits(e)


def test_one_generator_next_to_residue_classes_is_exact():
    # geometric 2 with a periodic set X on its member runs and Y off them
    # has limits d(Y) + (d(X) − d(Y))·(2/3 or 1/3)
    geo = c.Blocks(c.Geometric(2))
    for e, upper, lower in (
        (c.Union(geo, c.Residue(3, frozenset({1}))), Fraction(7, 9), Fraction(5, 9)),
        (c.Inter(geo, c.Residue(2, frozenset({0}))), Fraction(1, 3), Fraction(1, 6)),
        (c.Midpoint(c.Empty(), geo), Fraction(1, 3), Fraction(1, 6)),
    ):
        rep = c.exact_limits(e)
        assert (rep.upper, rep.lower, rep.method) == (upper, lower, "block-formula")


def test_estimate_geometric_extremes():
    rep = c.estimate_limits(c.Blocks(c.Geometric(2)), 2**18, 0.5, 1e-3)
    assert rep.verdict is c.Verdict.NOT_IN_F
    assert rep.method == "streamed" and rep.horizon == 2**18
    assert abs(rep.upper - 2 / 3) < 1e-3
    assert abs(rep.lower - 1 / 3) < 1e-3


def test_estimate_convergent_and_finite():
    rep = c.estimate_limits(c.Residue(5, frozenset({0, 3})), 10**5)
    assert rep.verdict is c.Verdict.IN_F
    assert abs(rep.limit - 0.4) < 1e-3
    rep = c.estimate_limits(c.Explicit((2, 4, 8)), 10**5)
    assert rep.verdict is c.Verdict.IN_F and rep.limit < 1e-3


def test_classify_kinds():
    assert c.classify(c.Residue(2, frozenset({0}))).kind == "InF"
    assert c.classify(c.Predicate("primes")).kind == "Null"
    assert c.classify(c.Blocks(c.Geometric(2))).kind == "NotInF"
    # scaled block formulas stay exact
    cls = c.classify(c.Dilate(2, c.Blocks(c.Geometric(2))), 2**18)
    assert cls.kind == "NotInF" and not cls.approximate
    assert (cls.report.upper, cls.report.lower) == (Fraction(1, 3), Fraction(1, 6))
    # and so do intersections with a residue class
    cls = c.classify(c.Inter(c.Blocks(c.Geometric(2)), c.Residue(2, frozenset({0}))), 2**18)
    assert cls.kind == "NotInF" and not cls.approximate
    assert (cls.report.upper, cls.report.lower) == (Fraction(1, 3), Fraction(1, 6))
    # but an intersection with a second generator falls back to streaming
    mixed = c.Inter(c.Blocks(c.Geometric(2)), c.Predicate("paired"))
    cls = c.classify(mixed, 2**18)
    assert cls.kind == "NotInF" and cls.approximate
    assert cls.report.upper - cls.report.lower > 0.1


def test_classify_unknown_kind():
    # {501..750} is null, but at horizon 1000 its window has not settled
    late = c.Diff(c.Shift(500, c.All()), c.Shift(750, c.All()))
    assert c.estimate_limits(late, 1000).verdict is c.Verdict.UNKNOWN
    # {512..750} on [1, 1000]: the members of blocks geometric 2 in late,
    # joined with a set that has no exact rule and no point up to 1000
    geo = c.Blocks(c.Geometric(2))
    unsolved = c.parse_expr("shift 1000 inter(predicate paired, blocks geometric 3)")
    cls = c.classify(c.Union(c.Inter(geo, late), unsolved), 1000)
    assert cls.kind == "Unknown" and cls.approximate
    assert cls.report.verdict is c.Verdict.UNKNOWN and cls.report.limit is None


def test_intersection_with_a_null_operand_is_exactly_null():
    # late is null, so its intersection with a block set is, whatever the
    # block set's limits
    late = c.Diff(c.Shift(500, c.All()), c.Shift(750, c.All()))
    cls = c.classify(c.Inter(c.Blocks(c.Geometric(2)), late), 1000)
    assert cls.kind == "Null" and not cls.approximate
    assert cls.report.upper == cls.report.lower == 0


def test_diff_from_all_up_to_a_null_set_is_exactly_null():
    # shift 750 all is all of N but {1..750}, so what a block set keeps
    # outside it is finite
    geo = c.Blocks(c.Geometric(2))
    cls = c.classify(c.Diff(c.Inter(geo, c.Shift(500, c.All())), c.Shift(750, c.All())), 1000)
    assert cls.kind == "Null" and not cls.approximate
    assert cls.report.upper == cls.report.lower == 0


def test_report_as_dict_rendering():
    d = c.exact_limits(c.Residue(3, frozenset({0}))).as_dict()
    assert d["limit"] == {"rational": "1/3", "value": pytest.approx(1 / 3)}
    assert d["verdict"] == "InF" and d["method"] == "exact"
    d = c.estimate_limits(c.Blocks(c.Geometric(2)), 2**14).as_dict()
    assert d["method"] == "streamed" and d["limit"] is None
    assert d["verdict"] == "NotInF"


# ---------------------------------------------------------------------------
# the chunked partial-average pass against an N-long count array


def _seg_extremes_oracle(mask, lo, hi):
    """(max, min) of c_n/n for n in (lo, hi] from an N-long int64 cumsum."""
    counts = np.cumsum(mask, dtype=np.int64)
    nu = counts[lo:hi] / np.arange(lo + 1, hi + 1, dtype=np.float64)
    return float(nu.max()), float(nu.min())


def _estimate_windows(horizon, window):
    start = max(1, math.ceil((1 - window) * horizon))
    return [
        (start - 1, horizon),
        (horizon // 2, horizon),
        (horizon // 4, horizon // 2),
        (horizon // 8, horizon // 4),
    ]


def _test_mask(kind, horizon, seed, density):
    rng = np.random.default_rng(seed)
    if kind == "empty":
        return np.zeros(horizon, dtype=bool)
    if kind == "ones":
        return np.ones(horizon, dtype=bool)
    if kind == "bernoulli":
        return rng.random(horizon) < density
    # alternating runs of growing random length: partial averages swing
    runs = rng.integers(1, 1 + np.geomspace(2, horizon, 40).astype(np.int64))
    bits = np.repeat(np.arange(runs.size) % 2 == 1, runs)
    return np.resize(bits, horizon)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["empty", "ones", "bernoulli", "runs"]),
    horizon=st.integers(1000, 3 * _CHUNK),
    window=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
)
# a window fraction above 7/8 starts the main window below H/8
@example(kind="runs", horizon=3 * _CHUNK + 17, window=0.95, seed=1, density=0.5)
@example(kind="bernoulli", horizon=_CHUNK + 1, window=0.05, seed=2, density=0.3)
@example(kind="ones", horizon=2 * _CHUNK, window=0.5, seed=0, density=0.0)
@example(kind="empty", horizon=1000, window=0.9, seed=0, density=0.0)
def test_window_extremes_match_full_count_array(kind, horizon, window, seed, density):
    mask = _test_mask(kind, horizon, seed, density)
    segments = _estimate_windows(horizon, window)
    want = [_seg_extremes_oracle(mask, lo, hi) for lo, hi in segments]
    assert _window_extremes(mask, segments) == want


EDGE_N = 2 * _CHUNK + 5
EDGE_WINDOWS = [
    (0, EDGE_N),
    (0, 1),
    (5, 6),
    (EDGE_N - 1, EDGE_N),
    (0, _CHUNK),
    (_CHUNK, 2 * _CHUNK),
    (_CHUNK - 1, _CHUNK),
    (_CHUNK, _CHUNK + 1),
    (_CHUNK - 1, _CHUNK + 1),
    (17, _CHUNK - 1),
    (_CHUNK + 1, EDGE_N),
]


def _edge_mask(kind):
    rng = np.random.default_rng(11)
    idx = np.arange(EDGE_N)
    starts = sorted({b for window in EDGE_WINDOWS for b in window} - {EDGE_N})
    if kind == "alternating-01":
        return idx % 2 == 1
    if kind == "alternating-10":
        return idx % 2 == 0
    if kind == "ones":
        return np.ones(EDGE_N, dtype=bool)
    if kind == "zeros":
        return np.zeros(EDGE_N, dtype=bool)
    if kind == "half-per-chunk":
        # exactly as many members as non-members in each aligned chunk
        chunks = [np.arange(min(_CHUNK, EDGE_N - a)) % 2 == 0 for a in range(0, EDGE_N, _CHUNK)]
        return np.concatenate([rng.permutation(chunk) for chunk in chunks])
    # the rarer bit at the first position of every piece
    mask = rng.random(EDGE_N) < (0.1 if kind == "sparse-member-first" else 0.9)
    mask[starts] = kind == "sparse-member-first"
    return mask


@pytest.mark.parametrize(
    "kind",
    ["alternating-01", "alternating-10", "ones", "zeros", "half-per-chunk",
     "sparse-member-first", "dense-gap-first"],
)
def test_window_extremes_at_piece_edges(kind):
    mask = _edge_mask(kind)
    want = [_seg_extremes_oracle(mask, lo, hi) for lo, hi in EDGE_WINDOWS]
    assert _window_extremes(mask, EDGE_WINDOWS) == want
    # one window at a time: each is then cut into pieces from its own start
    for window, extremes in zip(EDGE_WINDOWS, want):
        assert _window_extremes(mask, [window]) == [extremes]


def _windows(draw, n):
    """Windows in (0, n]: random ones, a nested pair, an overlapping pair,
    one piece of one position and the last piece."""
    cut = lambda lo, hi: draw(st.integers(lo, hi))  # noqa: E731
    a = cut(0, n - 2)
    b = cut(a + 2, n)
    inner = cut(a, b - 1)
    windows = [(a, b), (inner, cut(inner + 1, b)), (cut(0, a), cut(a + 1, n)), (a, a + 1), (n - 1, n)]
    for _ in range(draw(st.integers(0, 6))):
        lo = cut(0, n - 1)
        windows.append((lo, cut(lo + 1, n)))
    return draw(st.permutations(windows))


@st.composite
def window_sources(draw):
    """A mask or a phase table on [1, n] and windows over it."""
    n = draw(st.sampled_from([1000, _CHUNK + 5, limits._PRUNE_FROM + 2 * limits._BLOCK + 3]))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["bernoulli", "runs"]))
        src = _test_mask(kind, n, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.01, 0.99)))
    else:
        trees = ["blocks geometric 2", "union(residue 3 {1}, blocks poly 2)", "greedy 3/7"]
        e = draw(st.sampled_from(trees))
        with mock.patch.multiple(exprs, TABLE_SHARE=1, TABLE_BASE=0):
            src = _eval(c.parse_expr(e), n)
        assert isinstance(src, _Table)
    return src, _windows(draw, n)


@settings(max_examples=60, deadline=None)
@given(source=window_sources())
def test_window_extremes_match_a_loop_over_the_windows(source):
    src, windows = source
    cuts, tops, bottoms = _window_pieces(src, windows)
    want = []
    for lo, hi in windows:
        i, j = cuts.searchsorted((lo, hi))
        want.append((float(tops[i:j].max()), float(bottoms[i:j].min())))
    got = _window_extremes(src, windows)
    assert got == want
    if not isinstance(src, _Table):
        assert got == [_seg_extremes_oracle(src, lo, hi) for lo, hi in windows]


# ---------------------------------------------------------------------------
# block counts: c_n/n read only in the blocks that can hold an extreme

BLOCK = limits._BLOCK


def _block_mask(kind, n, seed, p):
    rng = np.random.default_rng(seed)
    if kind == "empty":
        return np.zeros(n, dtype=bool)
    if kind == "full":
        return np.ones(n, dtype=bool)
    if kind == "bernoulli":
        return rng.random(n) < p
    if kind == "flat":  # periodic: c_n/n settles at once
        L = int(rng.integers(2, 40))
        return np.isin(np.arange(n) % L, rng.choice(L, int(rng.integers(1, L)), replace=False))
    if kind == "whole-blocks":  # aligned blocks all members or none, with a few flips
        mask = np.repeat(rng.random(-(-n // BLOCK)) < p, BLOCK)[:n]
        mask[rng.integers(0, n, 3)] ^= True
        return mask
    # oscillating: runs of growing length
    runs = rng.integers(1, 1 + np.geomspace(2, n, 30).astype(np.int64))
    return np.resize(np.repeat(np.arange(runs.size) % 2 == 1, runs), n)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["flat", "oscillating", "empty", "full", "whole-blocks", "bernoulli"]),
    n=st.integers(2 * BLOCK, 64 * BLOCK),
    offset=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.0, 1.0),
    bounds=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
)
@example(kind="full", n=8 * BLOCK + 3, offset=3, seed=0, p=0.0, bounds=[0.1, 0.9])
@example(kind="whole-blocks", n=20 * BLOCK, offset=5, seed=1, p=0.5, bounds=[0.3, 0.5])
@example(kind="oscillating", n=64 * BLOCK, offset=1, seed=2, p=0.0, bounds=[0.0, 1.0])
def test_block_pruned_window_extremes_match_full_count_array(kind, n, offset, seed, p, bounds):
    # a view at a byte offset, as a uint64 lane sum reads it unaligned
    buf = np.zeros(n + 8, dtype=bool)
    mask = buf[offset : offset + n]
    mask[:] = _block_mask(kind, n, seed, p)
    xs = sorted(int(u * (n - 1)) for u in bounds)
    segments = [*_estimate_windows(n, 0.5), (xs[0], xs[-1] + 1)]
    # windows that start and end inside blocks, and shorter than one
    segments += [(lo, hi) for lo, hi in zip(xs, xs[1:]) if lo < hi]
    segments += [(x, min(n, x + 1 + BLOCK // 3)) for x in xs]
    want = [_seg_extremes_oracle(mask, lo, hi) for lo, hi in segments]
    # every span of two blocks or more takes the block-count pass
    with mock.patch.object(limits, "_PRUNE_FROM", 2 * BLOCK):
        assert _window_extremes(mask, segments) == want


def _runs_read(mask, segments):
    """``_window_extremes`` of a mask, and the (a, b] of every run it reads
    through ``_dense_extremes``."""
    runs = []
    dense = limits._dense_extremes

    def counted(fill, a, b, carry, buf):
        runs.append((a, b))
        return dense(fill, a, b, carry, buf)

    with mock.patch.object(limits, "_dense_extremes", counted):
        return _window_extremes(mask, segments), runs


def test_block_counts_prune_the_primes_union_scan():
    e, H = c.parse_expr("union(predicate primes, blocks geometric 2)"), 2**20
    mask = c.indicator(e, H)
    segments = _estimate_windows(H, 0.5)
    got, runs = _runs_read(mask, segments)
    assert got == [_seg_extremes_oracle(mask, lo, hi) for lo, hi in segments]
    assert 0 < sum(b - a for a, b in runs) <= 0.05 * (H - H // 8)


@pytest.mark.parametrize(
    "source", ["union(predicate primes, greedy 1/3)", "union(predicate squares, residue 5 {0,1})"]
)
def test_block_runs_longer_than_a_chunk_and_cut_at_window_bounds(source):
    # flat masks: their picked blocks join into long runs, some longer than
    # a chunk and some ending at a window bound where the next run starts
    H = 2**22
    mask = c.indicator(c.parse_expr(source), H)
    longest = 0
    for segments in (_estimate_windows(H, 0.5), chains._windows(H)):
        got, runs = _runs_read(mask, segments)
        assert got == [_seg_extremes_oracle(mask, lo, hi) for lo, hi in segments]
        bounds = {x for window in segments for x in window}
        assert any(b == x and b in bounds for (_, b), (x, _) in zip(runs, runs[1:]))
        longest = max(longest, *(b - a for a, b in runs))
    if "squares" in source:
        assert longest > _CHUNK


def test_block_runs_join_across_short_gaps():
    # a dilated flat mask has single unpicked blocks between picked ones:
    # with a run per unbroken stretch of picked blocks its estimate read
    # 491 runs
    e, H = c.parse_expr("dilate 4 diff(residue 24 {8,16},greedy 3185/3981)"), 1285946
    mask = c.indicator(e, H)
    segments = _estimate_windows(H, 0.5)
    got, runs = _runs_read(mask, segments)
    assert got == [_seg_extremes_oracle(mask, lo, hi) for lo, hi in segments]
    # runs in one stretch lie _CHUNK // 2 or more apart; runs in two have a
    # window bound between them
    bounds = np.unique(segments)
    for (_, b), (x, _) in zip(runs, runs[1:]):
        assert x - b >= _CHUNK // 2 or bounds.searchsorted(b) < bounds.searchsorted(x, side="right")


def _estimate_limits_oracle(e, horizon, window, tolerance):
    """The streamed estimate from an N-long int64 cumsum, window by window."""
    mask = c.indicator(e, horizon)
    segments = _estimate_windows(horizon, window)
    upper, lower = _seg_extremes_oracle(mask, *segments[0])
    subs = [_seg_extremes_oracle(mask, lo, hi) for lo, hi in segments[1:]]
    oscs = [mx - mn for mx, mn in subs]
    if upper - lower <= tolerance:
        verdict, limit = c.Verdict.IN_F, (upper + lower) / 2
    elif all(o > tolerance for o in oscs):
        verdict, limit = c.Verdict.NOT_IN_F, None
    else:
        verdict, limit = c.Verdict.UNKNOWN, None
    return c.LimitReport(upper, lower, limit, "streamed", horizon, tolerance, verdict)


_GEO2 = c.Blocks(c.Geometric(2))
STREAMED_TREES = [
    c.Inter(_GEO2, c.Residue(2, frozenset({0}))),
    c.Union(c.Blocks(c.Geometric(3)), c.Residue(3, frozenset({0}))),
    c.Union(c.Greedy(Fraction(1, 2000)), c.Explicit((1,))),
    c.Shift(5, c.Union(c.Blocks(c.Geometric(5)), c.Predicate("primes"))),
    c.Dilate(3, c.SymDiff(c.Blocks(c.RunList(0, (1, 2, 4), "cycle")), c.Greedy(Fraction(3, 11)))),
    c.Midpoint(c.Inter(_GEO2, c.Residue(3, frozenset({1}))), _GEO2),
    c.Compl(c.Diff(c.Blocks(c.Geometric(4)), c.Predicate("squares"))),
    c.Inter(c.Blocks(c.Poly(2)), c.Residue(3, frozenset({1, 2}))),
    c.Predicate("paired"),
    c.Diff(c.Shift(500, c.All()), c.Shift(750, c.All())),
]


@pytest.mark.parametrize("e", STREAMED_TREES, ids=lambda e: type(e).__name__)
def test_estimate_limits_report_matches_full_count_array(e):
    for horizon, window, tolerance in (
        (1000, 0.5, 1e-3),
        (_CHUNK + 3, 0.9, 1e-2),
        (2**18, 0.5, 1e-3),
        (200_003, 0.1, 1e-4),
    ):
        assert c.estimate_limits(e, horizon, window, tolerance) == (
            _estimate_limits_oracle(e, horizon, window, tolerance)
        ), (horizon, window)


# midpoints of operands that are not nested: (d(lower) + d(lower ∪ upper)) / 2
@pytest.mark.parametrize(
    "text, value",
    [
        ("midpoint(symdiff(explicit{2,14,17,57,61,62},all),residue 3 {0,2})", Fraction(1)),
        ("midpoint(shift 10 residue 12 {0,4,11},dilate 3 residue 4 {3})", Fraction(1, 4)),
        (
            "midpoint(symdiff(inter(residue 5 {0},all),diff(all,all)),shift 14 residue 25 {1})",
            Fraction(1, 5),
        ),
        ("midpoint(compl(compl(all)),shift 12 residue 74 {23,43,51})", Fraction(1)),
        (
            "midpoint(inter(all,residue 29 {5,8,11}),dilate 3 inter(all,residue 87 {29,81,84}))",
            Fraction(28, 261),
        ),
        (
            "midpoint(inter(residue 41 {8,39},residue 697 {551,664}),inter(union(explicit{34,51,81},"
            "all),union(residue 41 {6,32},residue 41 {20,27,38})))",
            Fraction(87, 1394),
        ),
        (
            "midpoint(diff(residue 3 {0},residue 3 {1}),shift 8 residue 2196 {150,2084,2195})",
            Fraction(163, 488),
        ),
        (
            "midpoint(residue 6 {1,4},dilate 2 symdiff(residue 2703 {1403,2400},residue 17 {1,4}))",
            Fraction(3817, 10812),
        ),
    ],
)
def test_midpoint_of_operands_that_are_not_nested(text, value):
    rep = c.exact_limits(c.parse_expr(text))
    assert (rep.upper, rep.lower, rep.method) == (value, value, "exact")


def test_midpoint_exact_limits_match_a_count_over_two_periods():
    # every second gap point is selected, so two periods far out hold
    # exactly one period's worth of the gap
    rng = random.Random(2718)
    lo, hi = WINDOW_START, WINDOW_START + 2 * PERIOD
    for _ in range(100):
        m = c.Midpoint(random_fragment(rng, 2), random_fragment(rng, 2))
        want = Fraction(c.count_upto(m, hi) - c.count_upto(m, lo), 2 * PERIOD)
        rep = c.exact_limits(m)
        assert rep.upper == rep.lower == want, m


def test_midpoint_without_a_union_rule_is_not_exact():
    # the dilated paired set lies in the evens, disjoint from the odds, so
    # d(upper) = 1/4 cannot stand in for the union's density 3/4, and the
    # union of a form with the paired set has no rule
    e = c.parse_expr("midpoint(residue 2 {1}, dilate 2 predicate paired)")
    with pytest.raises(NotExactlySolvable):
        c.exact_limits(e)
    assert c.partial_average(e, 10**6) == Fraction(5, 8)
    cls = c.classify(e, 10**6)
    assert cls.kind == "InF" and cls.approximate and abs(cls.report.limit - 0.625) < 1e-3


def test_midpoint_with_a_greedy_operand_takes_the_union_form():
    # greedy 1/2 is {1} and the evens from 4: not nested with the odds, but
    # a fuzzy form, so the union of the two is all of N up to a null set
    e = c.parse_expr("midpoint(residue 2 {1}, greedy 1/2)")
    rep = c.exact_limits(e)
    assert (rep.upper, rep.lower, rep.method) == (Fraction(3, 4), Fraction(3, 4), "exact")
    assert c.partial_average(e, 10**6) == Fraction(3, 4)


# ---------------------------------------------------------------------------
# phase tables against the mask: every tree without explicit sets or
# predicates other than paired has one, unless its forms outgrow the mask

table_trees = st.recursive(
    st.one_of(
        *(leaf for kind, leaf in _leaves.items() if kind not in ("explicit", "predicate")),
        st.just(c.Predicate("paired")),
    ),
    lambda inner: st.one_of(*_nodes(inner).values()),
    max_leaves=5,
)
TABLE_HORIZONS = (1000, 2**16 - 1, 2**16 + 1, 3 * 2**16 + 17)


@settings(max_examples=100, deadline=None)
@given(e=table_trees, window=st.floats(0.05, 0.95), cut=st.floats(0, 1))
@example(e=c.Predicate("paired"), window=0.9, cut=0.5)
@example(e=c.Blocks(c.Poly(1)), window=0.5, cut=0.3)
@example(e=c.Shift(3, c.Greedy(Fraction(1234, 4999))), window=0.5, cut=0.7)
def test_table_scans_match_the_mask(e, window, cut):
    for H in TABLE_HORIZONS:
        # every table the forms allow, whether or not it beats the mask
        with mock.patch.multiple(exprs, TABLE_SHARE=1, TABLE_BASE=0):
            t = _eval(e, H)
            if not isinstance(t, _Table):
                continue
            frm = 1 + int(cut * (H - 1))
            scans = [c.prefix_scan(e, lo, hi).count for lo, hi in ((frm, H), (1, frm))]
            counts = [c.count_upto(e, H), *scans]
        # and no table above the leaves
        with mock.patch.object(exprs, "TABLE_BASE", exprs.MAX_TABLE):
            mask = c.indicator(e, H)
        if H == TABLE_HORIZONS[0]:
            assert set((np.flatnonzero(mask) + 1).tolist()) == brute_set(e, H)
        segments = _estimate_windows(H, window)
        want_extremes = _window_extremes(mask, segments)
        # every periodic piece scanned from candidates, then every one filled
        for share in (0, 2**40):
            with mock.patch.object(limits, "TABLE_SHARE", share):
                assert _window_extremes(t, segments) == want_extremes, (H, share)
        want = [np.count_nonzero(mask[lo - 1 : hi]) for lo, hi in ((1, H), (frm, H), (1, frm))]
        assert counts == want, H


def test_streamed_estimate_at_1e9_from_a_phase_table():
    e = c.parse_expr("union(residue 3 {1}, blocks geometric 2)")
    tracemalloc.start()
    try:
        rep = c.estimate_limits(e, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.method == "streamed" and rep.verdict is c.Verdict.NOT_IN_F
    assert peak < 16 << 20


@pytest.mark.parametrize(
    "text, upper, lower",
    [
        # a piece shorter than one period: its last-period candidates are
        # n = 0 (divide by zero) or 0 with a zero count (0/0)
        ("inter(residue 1000 {0,1},blocks geometric 2)", 0.0013427734375, 0.00067138671875),
        ("inter(residue 64 {0},blocks geometric 2)", 0.010406494140625, 0.005203286768240114),
        # an operand on 2^15 positions, below TABLE_BASE, under a root on
        # 2^17: the root decides, so the operand takes its table too
        ("dilate 4 union(residue 3 {1},blocks geometric 2)", 0.19451904296875, 0.1389213150526067),
    ],
)
def test_short_table_pieces_scan_without_numpy_warnings(text, upper, lower):
    e, H = c.parse_expr(text), 2**17
    segments = [(0, 1), (1, 2), (2, 4), *_estimate_windows(H, 0.5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = c.estimate_limits(e, H)
        got = _window_extremes(_eval(e, H), segments)
    assert isinstance(_eval(e, H), _Table) and isinstance(_table_or_mask(e, H), _Table)
    assert (rep.upper, rep.lower) == (upper, lower)
    with mock.patch.object(exprs, "TABLE_BASE", exprs.MAX_TABLE):
        assert got == _window_extremes(c.indicator(e, H), segments)
        masked = c.estimate_limits(e, H)
    assert (masked.upper, masked.lower) == (upper, lower)
