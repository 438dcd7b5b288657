"""Exact engine internals: the periodic normal form on sorted int64 arrays,
checked against the frozenset engine it replaced, its allocation guards,
and the residue reduction of ``canonicalize``.

The oracles below are the earlier pure-Python implementations, kept here
verbatim in substance: one Python set operation per lifted residue.
"""

import math
import random
from bisect import bisect_left
import tracemalloc
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cesaro as c
from cesaro.exprs import (
    MAX_CANON_MODULUS,
    MAX_FORM_ENTRIES,
    MAX_MODULUS,
    SetExpr,
    _form,
    _Phases,
    _reduce_residue,
    predicate_spec,
)
from cesaro.limits import NotExactlySolvable
from conftest import _brute_blocks, _brute_greedy, brute_set

# ---------------------------------------------------------------------------
# the frozenset engine, as the oracle


@dataclass(frozen=True)
class _SetForm:
    modulus: int
    residues: frozenset
    fuzz: bool


def _lift_set(res, m, L):
    return frozenset(r + i * m for r in res for i in range(L // m))


def _set_merge(a, b, op):
    L = a.modulus // math.gcd(a.modulus, b.modulus) * b.modulus
    if L > MAX_MODULUS:
        raise NotExactlySolvable(f"common modulus {L} exceeds {MAX_MODULUS}")
    ra = _lift_set(a.residues, a.modulus, L)
    rb = _lift_set(b.residues, b.modulus, L)
    return _SetForm(L, op(ra, rb), a.fuzz or b.fuzz)


def _set_form(e):
    if isinstance(e, c.Empty):
        return _SetForm(1, frozenset(), False)
    if isinstance(e, c.All):
        return _SetForm(1, frozenset({0}), False)
    if isinstance(e, c.Explicit):
        return _SetForm(1, frozenset(), bool(e.elements))
    if isinstance(e, c.Residue):
        return _SetForm(e.modulus, e.residues, False)
    if isinstance(e, c.Predicate):
        spec = predicate_spec(e.name)
        if spec.exact_upper == 0 and spec.exact_lower == 0:
            return _SetForm(1, frozenset(), True)
        raise NotExactlySolvable(f"predicate {e.name!r} is not periodic")
    if isinstance(e, c.Union):
        return _set_merge(_set_form(e.left), _set_form(e.right), lambda x, y: x | y)
    if isinstance(e, c.Inter):
        return _set_merge(_set_form(e.left), _set_form(e.right), lambda x, y: x & y)
    if isinstance(e, c.Diff):
        return _set_merge(_set_form(e.left), _set_form(e.right), lambda x, y: x - y)
    if isinstance(e, c.SymDiff):
        return _set_merge(_set_form(e.left), _set_form(e.right), lambda x, y: x ^ y)
    if isinstance(e, c.Compl):
        f = _set_form(e.inner)
        return _SetForm(f.modulus, frozenset(range(f.modulus)) - f.residues, f.fuzz)
    if isinstance(e, c.Dilate):
        f = _set_form(e.inner)
        L = f.modulus * e.factor
        if L > MAX_MODULUS:
            raise NotExactlySolvable(f"common modulus {L} exceeds {MAX_MODULUS}")
        return _SetForm(L, frozenset(r * e.factor for r in f.residues), f.fuzz)
    if isinstance(e, c.Shift):
        f = _set_form(e.inner)
        shifted = frozenset((r + e.offset) % f.modulus for r in f.residues)
        return _SetForm(f.modulus, shifted, f.fuzz or e.offset > 0)
    raise NotExactlySolvable(f"{type(e).__name__} is not in the periodic fragment")


def _period(e) -> int:
    """The modulus of e's periodic form, from lcm arithmetic alone."""
    if isinstance(e, c.Residue):
        return e.modulus
    if isinstance(e, (c.Union, c.Inter, c.Diff, c.SymDiff)):
        return math.lcm(_period(e.left), _period(e.right))
    if isinstance(e, c.Dilate):
        return e.factor * _period(e.inner)
    if isinstance(e, (c.Compl, c.Shift)):
        return _period(e.inner)
    return 1


# ---------------------------------------------------------------------------
# random trees over the periodic fragment

#: most residue moduli divide 2520, so common moduli stay small enough for
#: the frozenset oracle; a few are drawn freely up to 2000
_MODULI = [d for d in range(1, 2521) if 2520 % d == 0]
_NULL_PREDICATES = ("squares", "cubes", "pow2", "primes")
_BOOLEAN = (c.Union, c.Inter, c.Diff, c.SymDiff)
_PERIOD_BUDGET = 200_000


@st.composite
def _residue_leaf(draw):
    m = draw(st.sampled_from(_MODULI) | st.integers(1, 2000))
    if draw(st.booleans()):
        res = draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=12))
    else:  # dense sets, up to the whole of Z/m
        res = {r for r in range(m) if draw(st.integers(0, 3)) or r == 0} if m <= 64 else {0}
    return c.Residue(m, frozenset(res))


_LEAVES = (
    _residue_leaf()
    | st.just(c.Empty())
    | st.just(c.All())
    | st.lists(st.integers(1, 200), max_size=5, unique=True).map(lambda x: c.Explicit(tuple(sorted(x))))
    | st.sampled_from(_NULL_PREDICATES).map(c.Predicate)
)


@st.composite
def _trees(draw, depth=4):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_LEAVES)
    kind = draw(st.sampled_from(("boolean", "boolean", "compl", "dilate", "shift")))
    if kind == "boolean":
        op = draw(st.sampled_from(_BOOLEAN))
        return op(draw(_trees(depth - 1)), draw(_trees(depth - 1)))
    inner = draw(_trees(depth - 1))
    if kind == "compl":
        return c.Compl(inner)
    if kind == "dilate":
        return c.Dilate(draw(st.integers(1, 7)), inner)
    return c.Shift(draw(st.integers(0, 3 * _period(inner))), inner)


@settings(max_examples=400, deadline=None)
@given(_trees())
def test_array_form_matches_frozenset_engine(e):
    if _period(e) > _PERIOD_BUDGET:
        return  # the oracle's lifted sets would dominate the test's time
    try:
        want = _set_form(e)
    except NotExactlySolvable:
        with pytest.raises(NotExactlySolvable):
            _form(e)
        return
    got = _form(e)
    r = got.residues
    assert got.modulus == want.modulus
    assert got.fuzz == want.fuzz
    assert r.dtype == np.int64 and r.ndim == 1
    assert np.all(r[1:] > r[:-1]), "residues must be sorted and distinct"
    assert set(r.tolist()) == want.residues
    assert got.density == Fraction(len(want.residues), want.modulus)


def test_shift_offsets_at_and_beyond_the_modulus():
    base = c.Residue(7, frozenset({0, 3, 6}))
    for offset in range(0, 3 * 7 + 1):
        got = _form(c.Shift(offset, base)).residues.tolist()
        assert got == sorted(_set_form(c.Shift(offset, base)).residues), offset


# ---------------------------------------------------------------------------
# allocation guards


def _peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_null_operand_is_never_lifted():
    # the explicit set has the empty modulus-1 form; lifting it to the
    # other operand's modulus of 7.8 million would build a 63 MB table
    e = c.parse_expr(
        "symdiff(explicit{9,91}, dilate 3 dilate 53 residue 49321 {24474,24616,28209})"
    )
    rep, peak = _peak(lambda: c.exact_limits(e))
    assert rep.limit == Fraction(3, 49321 * 159)
    assert peak < 1 << 20


def test_complement_over_the_entry_cap_is_rejected_before_allocating():
    m = MAX_FORM_ENTRIES + 1
    e = c.Compl(c.Residue(m, frozenset({0})))

    def attempt():
        with pytest.raises(NotExactlySolvable):
            _form(e)

    _, peak = _peak(attempt)
    assert peak < 4 << 20
    # the complement rule still answers exactly, without the table
    rep, peak = _peak(lambda: c.exact_limits(e))
    assert rep.limit == Fraction(m - 1, m)
    assert peak < 4 << 20


def test_prime_modulus_complement_answers_exactly():
    e = c.parse_expr("compl(residue 999999937 {0})")
    rep, peak = _peak(lambda: c.exact_limits(e))
    assert rep.limit == Fraction(999999936, 999999937) and rep.method == "exact"
    assert peak < 4 << 20


def test_lift_over_the_entry_cap_is_rejected_before_allocating():
    # lcm 2·(2^24 + 1): residue 2 {0} would lift to 2^24 + 1 entries
    e = c.Union(c.Residue(2, frozenset({0})), c.Residue(MAX_FORM_ENTRIES + 1, frozenset({0})))

    def attempt():
        with pytest.raises(NotExactlySolvable):
            _form(e)
        with pytest.raises(NotExactlySolvable):
            c.exact_limits(e)

    _, peak = _peak(attempt)
    assert peak < 4 << 20


@pytest.mark.parametrize("m", [MAX_CANON_MODULUS + 1, 999999937])
def test_canonicalize_leaves_a_large_complement_unreduced(m):
    e = c.Compl(c.Residue(m, frozenset({0})))
    out, peak = _peak(lambda: c.canonicalize(e))
    assert out == e
    assert peak < 4 << 20


def test_canonicalize_still_reduces_a_complement_at_the_cap():
    e = c.Compl(c.Residue(MAX_CANON_MODULUS, frozenset(range(0, MAX_CANON_MODULUS, 2))))
    assert c.canonicalize(e) == c.Residue(2, frozenset({1}))


# ---------------------------------------------------------------------------
# residue reduction


def _reduce_by_every_d(m, res):
    """The earlier reduction: try d = 1, 2, ..., m in turn."""
    if not res:
        return c.Empty()
    if len(res) == m:
        return c.All()
    for d in range(1, m + 1):
        if m % d:
            continue
        low = frozenset(r % d for r in res)
        if len(low) * (m // d) == len(res) and _lift_set(low, d, m) == res:
            if len(low) == d:
                return c.All()
            return c.Residue(d, low)
    return c.Residue(m, res)


def test_reduce_residue_matches_trying_every_d():
    rng = random.Random(2718)
    for _ in range(300):
        d = rng.randint(1, 60)
        m = d * rng.randint(1, 40)
        low = rng.sample(range(d), rng.randint(1, d))
        res = {r + i * d for r in low for i in range(m // d)}
        if rng.random() < 0.4:  # break the period now and then
            res ^= {rng.randrange(m)}
        res = frozenset(res)
        array = np.array(sorted(res), dtype=np.int64)
        assert _reduce_residue(m, array) == _reduce_by_every_d(m, res), (m, sorted(res))


# ---------------------------------------------------------------------------
# one exact rule per node, evaluated once per query


def _nodes(e):
    yield e
    for f in fields(e):
        child = getattr(e, f.name)
        if isinstance(child, SetExpr):
            yield from _nodes(child)


@pytest.mark.parametrize(
    "text",
    [
        "compl(dilate 2 shift 1 compl(dilate 2 shift 3 compl(dilate 2 blocks poly 2)))",
        "midpoint(shift 2 residue 6 {1,4}, union(residue 4 {1}, compl(residue 3 {0})))",
        "compl(dilate 3 compl(residue 16777217 {0}))",  # the inner form is refused
        "shift 5 dilate 7 greedy 2/9",
        # a pair next to a form: no canonicalize retry runs a rule again
        "union(inter(predicate paired, residue 3 {0}), union(residue 2 {0}, empty))",
    ],
)
def test_every_rule_runs_once_per_query(text, monkeypatch):
    calls = Counter()

    def counted(rule):
        def wrapper(self):
            calls[id(self)] += 1
            return rule(self)

        return wrapper

    for kind in SetExpr.KINDS.values():
        monkeypatch.setattr(kind, "_rule", counted(kind._rule))
    e = c.parse_expr(text)
    c.exact_limits(e)
    assert calls == Counter({id(n): 1 for n in _nodes(e)})


@pytest.mark.parametrize(
    "text, value",
    [
        # the union is all of N: taking d(upper) for it, which assumes
        # lower ⊆ upper, would give 2/3, and nothing for divergent blocks
        ("midpoint(all, greedy 1/3)", Fraction(1)),
        ("midpoint(all, blocks geometric 2)", Fraction(1)),
        # the union is greedy 2/5 itself, not the empty upper operand
        ("midpoint(greedy 2/5, empty)", Fraction(2, 5)),
    ],
)
def test_midpoint_limit_takes_the_union_of_its_operands(text, value):
    e = c.parse_expr(text)
    rep = c.exact_limits(e)
    assert (rep.upper, rep.lower, rep.method) == (value, value, "exact")
    assert abs(c.partial_average(e, 10**6) - value) < Fraction(1, 1000)


# ---------------------------------------------------------------------------
# every fuzz-free form predicts exact counts, not only its density

fuzz_free = st.recursive(
    st.one_of(
        st.just(c.Empty()),
        st.just(c.All()),
        st.integers(1, 12).flatmap(
            lambda m: st.sets(st.integers(0, m - 1), min_size=1).map(lambda r: c.Residue(m, r))
        ),
    ),
    lambda inner: st.one_of(
        st.builds(c.Union, inner, inner),
        st.builds(c.Inter, inner, inner),
        st.builds(c.Diff, inner, inner),
        st.builds(c.SymDiff, inner, inner),
        st.builds(c.Compl, inner),
        st.builds(c.Dilate, st.integers(1, 4), inner),
        st.builds(c.Midpoint, inner, inner),
    ),
    max_leaves=5,
)


@settings(max_examples=150, deadline=None)
@given(fuzz_free)
def test_every_fuzz_free_form_predicts_its_counts(e):
    f = _form(e)
    assert not f.fuzz
    L, R = f.modulus, f.residues
    for k in (1, 2, 3):
        assert c.count_upto(e, k * L) == k * R.size, k
    want = np.zeros(L, dtype=bool)
    want[(R - 1) % L] = True  # n = r, and n = L for r = 0
    assert np.array_equal(c.indicator(e, L), want)


def test_midpoint_form_of_nested_midpoints():
    # the gap of midpoint(4Z, 2Z) is 2 mod 4, every second point from 2 on
    inner = c.parse_expr("midpoint(residue 4 {0}, residue 2 {0})")
    f = _form(inner)
    assert (f.modulus, f.residues.tolist(), f.fuzz) == (8, [0, 2, 4], False)
    outer = c.Midpoint(inner, c.Residue(2, frozenset({0})))
    rep = c.exact_limits(outer)
    assert (rep.upper, rep.lower, rep.method) == (Fraction(7, 16), Fraction(7, 16), "exact")


# ---------------------------------------------------------------------------
# greedy and periodic run-list sets as fuzzy forms, and null operands


@st.composite
def _periodic_leaves(draw):
    """A greedy set with q <= 5000, or a cycle or repeat-last run list, and
    where its periodic part starts: after n = 2, or after the listed runs."""
    if draw(st.booleans()):
        q = draw(st.integers(1, 5000))
        e = c.Greedy(Fraction(draw(st.integers(0, q)), q))
        return e, 2
    head = draw(st.integers(0, 50))
    runs = tuple(draw(st.lists(st.integers(1, 50), min_size=1, max_size=5)))
    z = c.RunList(head, runs, draw(st.sampled_from(("cycle", "repeat-last"))))
    return c.Blocks(z), head + sum(runs)


def _oracle(e, N):
    if isinstance(e, c.Greedy):
        return _brute_greedy(e.target, N)
    return _brute_blocks(e.z, N)


@settings(max_examples=200, deadline=None)
@given(_periodic_leaves())
def test_greedy_and_run_list_forms_predict_their_counts(leaf):
    e, start = leaf
    f = _form(e)
    assert f.fuzz
    L, R = f.modulus, f.residues
    assert np.all(R[1:] > R[:-1]) and (not R.size or 0 <= R[0] <= R[-1] < L)
    members = sorted(_oracle(e, start + 3 * L))
    at = [sum(1 for n in members if n <= start + k * L) for k in range(4)]
    for k in (1, 2, 3):
        assert at[k] - at[0] == k * R.size, k
        assert c.count_upto(e, start + k * L) == at[k], k
    period = np.flatnonzero(c.indicator(e, start + L)[start:]) + start + 1
    assert np.array_equal(np.sort(period % L), R)
    assert f.density == c.exact_limits(e).limit


@pytest.mark.parametrize("text", ["greedy 0.41421356", "blocks list [1;1000000000] cycle"])
def test_periods_past_the_canon_modulus_build_no_form(text):
    # q = 2.5·10^7 and a period of 2·10^9: neither is written out
    e = c.parse_expr(text)

    def attempt():
        try:
            return c.exact_limits(e)
        except NotExactlySolvable as exc:
            return str(exc)

    out, peak = _peak(attempt)
    if text.startswith("greedy"):
        assert (out.upper, out.lower, out.method) == (Fraction(10355339, 25000000),) * 2 + ("exact",)
    else:
        assert out == "blocks list [1;1000000000] cycle has no block formula"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "text, upper, lower",
    [
        ("blocks list [0;1,2,4] cycle", Fraction(1, 2), Fraction(1, 2)),
        ("union(greedy 1/2000, explicit{1})", Fraction(1, 2000), Fraction(1, 2000)),
        (
            "compl(union(union(predicate primes, blocks list [1;368] cycle), residue 7 {0,1,2}))",
            Fraction(2, 7),
            Fraction(2, 7),
        ),
        ("midpoint(residue 2 {1}, greedy 1/2)", Fraction(3, 4), Fraction(3, 4)),
        # a null operand drops out next to an operand with limits only
        ("union(blocks geometric 2, predicate squares)", Fraction(2, 3), Fraction(1, 3)),
        ("shift 1 union(blocks poly 3, predicate squares)", Fraction(1, 2), Fraction(1, 2)),
        ("inter(blocks poly 2, predicate primes)", Fraction(0), Fraction(0)),
        # All up to a null set keeps the other side's points, or drops them
        ("inter(compl(explicit{3}), blocks geometric 2)", Fraction(2, 3), Fraction(1, 3)),
        ("diff(blocks poly 2, residue 2 {0,1})", Fraction(0), Fraction(0)),
    ],
)
def test_exact_limits_of_greedy_run_list_and_null_operand_trees(text, upper, lower):
    rep = c.exact_limits(c.parse_expr(text))
    assert (rep.upper, rep.lower) == (upper, lower)


@pytest.mark.parametrize(
    "text, upper, lower",
    [
        ("symdiff(blocks geometric 2,union(blocks geometric 2,empty))", Fraction(0), Fraction(0)),
        ("diff(blocks poly 2,shift 0 blocks poly 2)", Fraction(0), Fraction(0)),
        ("inter(compl(compl(predicate paired)),predicate paired)", Fraction(1, 2), Fraction(1, 2)),
        ("union(midpoint(blocks geometric 3,blocks geometric 3),empty)", Fraction(3, 4), Fraction(1, 4)),
    ],
)
def test_exact_limits_only_the_canonicalize_retry_finds(text, upper, lower):
    # neither operand pair has a joint form; the simplified expression does
    rep = c.exact_limits(c.parse_expr(text))
    assert (rep.upper, rep.lower) == (upper, lower)


@pytest.mark.parametrize(
    "text",
    [
        "union(shift 3 all, inter(blocks geometric 2, predicate paired))",
        "union(compl(explicit{2}), inter(blocks geometric 2, predicate paired))",
        "union(inter(blocks geometric 2, predicate paired), shift 3 all)",
    ],
)
def test_a_co_finite_operand_decides_a_union_next_to_any_subtree(text):
    # the other operand is over two generators and has no rule; the union
    # is all of N but for finitely many points
    e = c.parse_expr(text)
    rep = c.exact_limits(e)
    assert (rep.upper, rep.lower, rep.method) == (Fraction(1), Fraction(1), "exact")
    cls = c.classify(e)
    assert cls.kind == "InF" and not cls.approximate
    N = 5000
    assert N - c.count_upto(e, N) == len(set(range(1, N + 1)) - brute_set(e, N)) <= 3


def test_greedy_with_a_point_added_classifies_exactly():
    # streamed at the default horizon this was Null: 1/2000 is near the
    # tolerance
    cls = c.classify(c.parse_expr("union(greedy 1/2000, explicit{1})"))
    assert cls.kind == "InF" and not cls.approximate
    assert cls.report.limit == Fraction(1, 2000)


@pytest.mark.parametrize(
    "text",
    [
        # an intersection with a null operand, or a diff from one, is null
        # even when the other side has no rule
        "inter(inter(predicate paired, residue 3 {0}), predicate cubes)",
        "diff(explicit{4,9}, inter(predicate paired, residue 3 {0}))",
    ],
)
def test_null_operand_makes_an_unsolved_side_null(text):
    rep = c.exact_limits(c.parse_expr(text))
    assert (rep.upper, rep.lower, rep.method) == (0, 0, "exact")


@pytest.mark.parametrize(
    "text",
    [
        "union(predicate primes, inter(predicate paired, blocks geometric 3))",
        "symdiff(explicit{1}, inter(predicate paired, blocks geometric 3))",
        "diff(inter(predicate paired, blocks geometric 3), predicate squares)",
    ],
)
def test_null_operand_leaves_an_unsolved_side_unsolved(text):
    with pytest.raises(NotExactlySolvable):
        c.exact_limits(c.parse_expr(text))


_HALF, _THIRD, _SIXTH = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)


@pytest.mark.parametrize(
    "text, upper, lower, method",
    [
        ("inter(blocks geometric 2, residue 2 {0})", _THIRD, _SIXTH, "block-formula"),
        ("union(blocks geometric 3, residue 3 {0})", Fraction(5, 6), _HALF, "block-formula"),
        ("inter(blocks poly 2, residue 3 {1,2})", _THIRD, _THIRD, "block-formula"),
        ("shift 1 union(blocks poly 3, predicate squares)", _HALF, _HALF, "block-formula"),
        ("midpoint(empty, blocks geometric 2)", _THIRD, _SIXTH, "block-formula"),
        ("union(blocks geometric 2, residue 3 {1})", Fraction(7, 9), Fraction(5, 9), "block-formula"),
        (
            "inter(union(predicate primes,blocks geometric 3),residue 5 {1,2})",
            Fraction(3, 10),
            Fraction(1, 10),
            "block-formula",
        ),
        (
            "midpoint(inter(blocks geometric 2, residue 3 {1}), blocks geometric 2)",
            Fraction(4, 9),
            Fraction(2, 9),
            "block-formula",
        ),
        ("shift 200 union(blocks geometric 2, compl(blocks geometric 2))", 1, 1, "exact"),
        (
            "union(blocks geometric 2, greedy 537/991)",
            Fraction(2519, 2973),
            Fraction(2065, 2973),
            "block-formula",
        ),
        # paired next to multiples of 3 is 0 mod 6 on its generator's
        # member runs and 3 mod 6 off them: 1/6 on both
        ("union(predicate primes, inter(predicate paired, residue 3 {0}))", _SIXTH, _SIXTH, "exact"),
        ("symdiff(explicit{1}, inter(predicate paired, residue 3 {0}))", _SIXTH, _SIXTH, "exact"),
        ("diff(inter(predicate paired, residue 3 {0}), predicate squares)", _SIXTH, _SIXTH, "exact"),
        ("union(explicit{1}, inter(predicate paired, residue 3 {0}))", _SIXTH, _SIXTH, "exact"),
        ("shift 1000 inter(predicate paired, residue 3 {0})", _SIXTH, _SIXTH, "exact"),
        (
            "inter(inter(predicate paired, residue 3 {0}), greedy 537/991)",
            Fraction(179, 1982),
            Fraction(179, 1982),
            "exact",
        ),
        (
            "union(inter(predicate paired, residue 3 {0}), greedy 537/991)",
            Fraction(1838, 2973),
            Fraction(1838, 2973),
            "exact",
        ),
        (
            "symdiff(inter(predicate paired, residue 6 {0,3}), greedy 537/991)",
            Fraction(3139, 5946),
            Fraction(3139, 5946),
            "exact",
        ),
        # the phases rotate under a shift and flip under a complement
        (
            "inter(shift 1 inter(blocks geometric 2, residue 3 {0}), residue 3 {1})",
            Fraction(2, 9),
            Fraction(1, 9),
            "block-formula",
        ),
        (
            "inter(compl(inter(blocks geometric 3, residue 2 {0})), residue 4 {0,1})",
            Fraction(7, 16),
            Fraction(5, 16),
            "block-formula",
        ),
        # 0 and 3 mod 6 with the evens: 1/2 on the member runs, 2/3 off them
        (
            "union(inter(predicate paired, residue 3 {0}), union(residue 2 {0}, empty))",
            Fraction(11, 18),
            Fraction(5, 9),
            "exact",
        ),
    ],
)
def test_one_generator_trees_have_exact_limits(text, upper, lower, method):
    # once streamed: one generator whose runs grow without bound, plus
    # periodic and null sets
    rep = c.exact_limits(c.parse_expr(text))
    assert (rep.upper, rep.lower, rep.method) == (upper, lower, method)


@pytest.mark.parametrize(
    "text",
    [
        # two different generators, also at two scales of one block law
        "inter(blocks geometric 2, predicate paired)",
        "union(blocks geometric 2, blocks geometric 3)",
        "midpoint(blocks geometric 2, blocks poly 2)",
        # a dilated generator inside a Boolean node
        "inter(dilate 2 blocks geometric 2, residue 2 {0})",
    ],
)
def test_trees_over_two_generators_stay_unsolved(text):
    with pytest.raises(NotExactlySolvable):
        c.exact_limits(c.parse_expr(text))


# ---------------------------------------------------------------------------
# a tree over one generator counts as its phases: α·n + β·c_n(gen)

#: generators, with the limits of their member runs (the block formula;
#: paired's are geometric 2's at half scale)
_GENERATORS = st.one_of(
    st.integers(2, 4).map(lambda r: (c.Blocks(c.Geometric(r)), Fraction(r, r + 1), Fraction(1, r + 1))),
    st.integers(1, 3).map(lambda e: (c.Blocks(c.Poly(e)), _HALF, _HALF)),
    st.just((c.Predicate("paired"), Fraction(2, 3), _THIRD)),
)


def _over(gen):
    """Trees over ``gen``, residue classes of modulus up to 30 and small
    explicit sets, under Boolean, complement and shift nodes.  The moduli
    share factors, so that a rotated phase changes a joint lift."""
    residues = st.sampled_from((1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 24, 30)).flatmap(
        lambda m: st.sets(st.integers(0, m - 1), min_size=1, max_size=3).map(
            lambda r: c.Residue(m, frozenset(r))
        )
    )
    explicit = st.sets(st.integers(1, 300), min_size=1, max_size=4).map(
        lambda x: c.Explicit(tuple(sorted(x)))
    )
    return st.recursive(
        st.one_of(st.just(gen), st.just(gen), residues, explicit),
        lambda sub: st.one_of(
            st.builds(lambda op, a, b: op(a, b), st.sampled_from(_BOOLEAN), sub, sub),
            st.builds(c.Compl, sub),
            st.builds(c.Shift, st.integers(0, 50), sub),
        ),
        max_leaves=5,
    )


def _coefficients(e):
    """(α, β) of e's exact rule: a pair's d(off) and d(on) − d(off); a
    form's density and 0."""
    rule = e._rule()
    on, off = rule.phases() if isinstance(rule, _Phases) else (rule, rule)
    return off.density, on.density - off.density


def _stated_error(trees, n_runs):
    """The allowed |c_n − (α·n + β·c_n(gen))|: less than the common
    modulus L per run, S points after each run end for shifts adding up
    to S, and the explicit sets' points."""
    L, S, nulls = 2, 0, 0  # 2: paired's phases
    for t in trees:
        for node in _nodes(t):
            if isinstance(node, c.Residue):
                L = math.lcm(L, node.modulus)
            elif isinstance(node, c.Shift):
                S += node.offset
            elif isinstance(node, c.Explicit):
                nulls += len(node.elements)
    return (L + S) * (n_runs + 1) + nulls


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_one_generator_tree_counts_follow_its_phases(data):
    gen, g_upper, g_lower = data.draw(_GENERATORS)
    tree = _over(gen).filter(lambda t: gen in _nodes(t))
    top = data.draw(st.sampled_from(("none", "midpoint", "dilate")))
    if top == "midpoint":
        lo, hi = data.draw(tree), data.draw(tree)
        body, e, k = (lo, hi), c.Midpoint(lo, hi), 1
        (a0, b0), (a1, b1) = _coefficients(lo), _coefficients(c.Union(lo, hi))
        alpha, beta = (a0 + a1) / 2, (b0 + b1) / 2  # c_lo + ceil(c_gap / 2)
    else:
        t = data.draw(tree)
        k = data.draw(st.integers(2, 4)) if top == "dilate" else 1
        body, e = (t,), c.Dilate(k, t) if k > 1 else t
        alpha, beta = _coefficients(t)
    # the generator's run ends, from its run lengths (paired's: geometric
    # 2's doubled); three consecutive ones in (2^12, 2^22]
    z = gen.z if isinstance(gen, c.Blocks) else c.Geometric(2)
    scale = 1 if isinstance(gen, c.Blocks) else 2
    ends, pos, j = [], 0, 1
    while pos <= 2**22:
        pos += scale * z.run(j)
        ends.append(pos)
        j += 1
    first = [i for i, x in enumerate(ends) if 2**12 < x and i + 2 < len(ends) and ends[i + 2] <= 2**22]
    i = data.draw(st.sampled_from(first))
    top_end = ends[i + 2]
    base = _brute_blocks(z, (top_end + 1) // scale)
    members = {scale * m - d for m in base for d in range(scale)}  # paired's generator: 2m - 1, 2m
    got = brute_set(e, k * top_end)
    for n in ends[i : i + 3]:
        c_gen = sum(1 for m in members if m <= n)
        c_n = sum(1 for m in got if m <= k * n)  # dilate k: c_{kn} of it is c_n of its operand
        bound = _stated_error(body, bisect_left(ends, n) + 1) + (top == "midpoint")
        assert abs(c_n - (alpha * n + beta * c_gen)) <= bound, (e, n)
    # and the exact limits are the affine image of the generator's
    ends_of = sorted((alpha + beta * g_upper, alpha + beta * g_lower))
    rep = c.exact_limits(e)
    assert (rep.upper, rep.lower) == (ends_of[1] / k, ends_of[0] / k)


def test_run_list_table_holds_no_entry_per_non_member():
    # one member per period of 10^9 + 1: the table's periodic piece lists
    # its one member residue, not a flag for every point of the period
    e = c.parse_expr("blocks list [0;1,1000000000] cycle")
    N = 3 * 10**9

    def counts():
        return c.count_upto(e, N), c.prefix_scan(e, 10**9, N)

    (upto, scan), peak = _peak(counts)
    # the members are n = 1 + k·(10^9 + 1), k >= 0
    assert upto == 3 and scan == c.PrefixStat(2 * 10**9 + 1, 2)
    assert peak < 1 << 20


_CONSTANT_LEAVES = (
    "empty",
    "explicit{1,8}",
    "predicate squares",
    "dilate 4 explicit{2}",
    "dilate 5 predicate cubes",
    "all",
    "compl(explicit{3})",
    "residue 2 {0,1}",
)
_FORM_LEAVES = ("residue 12 {1,5,6}", "greedy 5/12", "blocks list [2;3,1] cycle", "residue 4 {3}")


@pytest.mark.parametrize("op", _BOOLEAN)
@pytest.mark.parametrize("const", _CONSTANT_LEAVES)
@pytest.mark.parametrize("other", _FORM_LEAVES)
def test_constant_operand_next_to_a_form_gives_the_joint_lift(op, const, other, monkeypatch):
    k, f = _form(c.parse_expr(const)), _form(c.parse_expr(other))
    full = {0} if k.residues.size else set()
    L = math.lcm(k.modulus, f.modulus)
    for left, right in ((const, other), (other, const)):
        x, y = (_form(c.parse_expr(t)) for t in (left, right))
        lifted = (_SetForm(L, _lift_set(frozenset(g.residues.tolist()), g.modulus, L), g.fuzz) for g in (x, y))
        want = _set_merge(*lifted, op.set_op)
        got = _form(op(c.parse_expr(left), c.parse_expr(right)))
        assert (got.modulus, set(got.residues.tolist()), got.fuzz) == (
            want.modulus,
            want.residues,
            want.fuzz,
        )
        # where the other side's non-members stay out, the constant decides
        # from the truth table alone: nothing is lifted or merged
        if L == f.modulus and not op.set_op(*((set(), full) if left == other else (full, set()))):
            with monkeypatch.context() as m:
                m.setattr(op, "array_op", staticmethod(lambda *args: pytest.fail("merged")))
                _form(op(c.parse_expr(left), c.parse_expr(right)))


@pytest.mark.parametrize(
    "text",
    [
        # no rule on the left, a form on the right that is not null
        "inter(inter(predicate paired, blocks geometric 3), greedy 537/991)",
        "union(inter(predicate paired, blocks geometric 3), greedy 537/991)",
        # limits only on the left: a dilated generator
        "union(dilate 2 blocks geometric 2, greedy 537/991)",
        # the simplified expression differs: its retry runs the right's rule
        "symdiff(inter(predicate paired, inter(blocks geometric 3, residue 6 {0,3})), greedy 537/991)",
    ],
)
def test_right_rule_runs_once_next_to_a_left_without_a_form(text, monkeypatch):
    calls = Counter()
    rule = c.Greedy._rule

    def counted(self):
        calls[self] += 1
        return rule(self)

    monkeypatch.setattr(c.Greedy, "_rule", counted)
    with pytest.raises(NotExactlySolvable):
        c.exact_limits(c.parse_expr(text))
    assert calls == Counter({c.Greedy(Fraction(537, 991)): 1})
