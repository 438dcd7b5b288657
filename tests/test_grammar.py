"""Differential tests over the whole DSL grammar: every node kind, every
run-length spec and every registered predicate, drawn at random and
checked against the brute-force oracle in conftest."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cesaro as c
from cesaro.exprs import PREDICATES
from conftest import brute_set

HORIZONS = (1, 97, 400)

_specs = {
    "geometric": st.builds(c.Geometric, st.integers(2, 5)),
    "poly": st.builds(c.Poly, st.integers(1, 3)),
    "list": st.builds(
        c.RunList,
        st.integers(0, 5),
        st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
        st.sampled_from(["repeat-last", "cycle"]),
    ),
}

_leaves = {
    "empty": st.just(c.Empty()),
    "all": st.just(c.All()),
    "explicit": st.lists(st.integers(1, 400), max_size=6, unique=True).map(
        lambda x: c.Explicit(tuple(sorted(x)))
    ),
    "residue": st.integers(1, 12).flatmap(
        lambda m: st.sets(st.integers(0, m - 1), min_size=1).map(lambda r: c.Residue(m, r))
    ),
    "blocks": st.one_of(*_specs.values()).map(c.Blocks),
    "greedy": st.integers(1, 40).flatmap(
        lambda q: st.integers(0, q).map(lambda p: c.Greedy(Fraction(p, q)))
    ),
    "predicate": st.sampled_from(sorted(PREDICATES)).map(c.Predicate),
}


def _nodes(inner):
    pair = st.tuples(inner, inner)
    return {
        "union": pair.map(lambda ab: c.Union(*ab)),
        "inter": pair.map(lambda ab: c.Inter(*ab)),
        "diff": pair.map(lambda ab: c.Diff(*ab)),
        "symdiff": pair.map(lambda ab: c.SymDiff(*ab)),
        "compl": inner.map(c.Compl),
        "dilate": st.builds(c.Dilate, st.integers(1, 4), inner),
        "shift": st.builds(c.Shift, st.integers(0, 20), inner),
        # operands drawn independently: mostly not nested
        "midpoint": pair.map(lambda ab: c.Midpoint(*ab)),
    }


expressions = st.recursive(
    st.one_of(*_leaves.values()),
    lambda inner: st.one_of(*_nodes(inner).values()),
    max_leaves=5,
)


def test_strategy_covers_every_kind():
    assert set(_leaves) | set(_nodes(st.just(c.All()))) == set(c.SetExpr.KINDS)
    assert set(_specs) == set(c.ZSpec.KINDS)


@settings(max_examples=150, deadline=None)
@given(expressions)
def test_member_indicator_count_agree_with_oracle(e):
    for N in HORIZONS:
        truth = brute_set(e, N)
        ind = c.indicator(e, N)
        assert ind.dtype == bool and ind.shape == (N,)
        assert set((np.flatnonzero(ind) + 1).tolist()) == truth, N
        counts = [c.count_upto(e, n) for n in range(N + 1)]
        for n in range(1, N + 1):
            assert c.member(e, n) == (n in truth) == (counts[n] - counts[n - 1] == 1), (N, n)


@settings(max_examples=150, deadline=None)
@given(expressions)
def test_format_parse_round_trip_and_canonical_form(e):
    assert c.parse_expr(c.format_expr(e)) == e
    N = HORIZONS[-1]
    assert np.array_equal(c.indicator(c.canonicalize(e), N), c.indicator(e, N))


def _sampled_boundaries(truth: set[int], N: int) -> list[int]:
    """The first and last few n < N where membership changes at n + 1."""
    bits = np.zeros(N + 1, dtype=bool)
    bits[list(truth)] = True
    change = (np.flatnonzero(bits[1:-1] != bits[2:]) + 1).tolist()
    return change[:40] + change[-40:]


@pytest.mark.parametrize(
    "z",
    [
        c.Geometric(2),
        c.Geometric(3),
        c.Poly(1),
        c.Poly(2),
        c.RunList(3, (2, 5, 1, 4)),
        c.RunList(1, (4, 2, 3), "cycle"),
    ],
    ids=["geometric-2", "geometric-3", "poly-1", "poly-2", "repeat-last", "odd-cycle"],
)
def test_block_member_at_run_boundaries(z):
    N = 10**6
    e = c.Blocks(z)
    truth = brute_set(e, N)
    for b in _sampled_boundaries(truth, N):
        for n in (b - 1, b, b + 1, b + 2):
            if 1 <= n <= N:
                assert c.member(e, n) == (n in truth), n
