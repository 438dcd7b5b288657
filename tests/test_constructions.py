"""Named constructions: greedy targets, the
divergent-intersection pair, midpoint sets, the dyadic partition."""

from fractions import Fraction

import numpy as np
import pytest

import cesaro as c
from cesaro.constructions import midpoint_set
from conftest import brute_set


def test_greedy_target_coercions():
    assert c.greedy_target(Fraction(1, 3)).target == Fraction(1, 3)
    assert c.greedy_target("2/7").target == Fraction(2, 7)
    assert c.greedy_target(0.5).target == Fraction(1, 2)


def test_counterexample_pair_members():
    b, cc = c.counterexample_pair()
    # both components converge to 1/2 but the intersection diverges
    assert c.exact_limits(b).limit == Fraction(1, 2)
    assert c.exact_limits(cc).limit == Fraction(1, 2)
    n = 2000
    assert brute_set(cc, n) == {m for m in range(1, n + 1) if c.member(cc, m)}
    inter = c.Inter(b, cc)
    # the intersection is exactly the doubled geometric block set
    doubled = {2 * x for x in brute_set(c.Blocks(c.Geometric(2)), n // 2)}
    assert brute_set(inter, n) == doubled


def test_midpoint_set_density_and_checks():
    mult4 = c.Residue(4, frozenset({0}))
    evens = c.Residue(2, frozenset({0}))
    mid = midpoint_set(mult4, evens)
    assert c.exact_limits(mid).limit == Fraction(3, 8)
    # picks every other element of the difference, starting with the first
    got = sorted(brute_set(mid, 30))
    assert got == sorted(set(range(4, 31, 4)) | {2, 10, 18, 26})
    # same expression twice collapses
    assert midpoint_set(evens, evens) == evens


def test_midpoint_set_rejections():
    evens = c.Residue(2, frozenset({0}))
    odds = c.Residue(2, frozenset({1}))
    with pytest.raises(c.ConstructionError):
        midpoint_set(evens, odds)  # not nested, witness exists
    with pytest.raises(c.ConstructionError):
        midpoint_set(c.Empty(), c.Blocks(c.Geometric(2)))  # divergent endpoint


def test_dyadic_partition_structure():
    parts = c.dyadic_partition(6)
    assert len(parts) == 7
    horizon = 2**12
    masks = [c.indicator(d, horizon) for d in parts]
    for i in range(len(parts)):
        assert c.exact_limits(parts[i]).limit == Fraction(1, 2 ** (i + 1))
        for j in range(i + 1, len(parts)):
            assert not np.any(masks[i] & masks[j]), (i, j)
    # the pieces cover everything except 1 and the powers of two
    union = np.zeros(horizon, dtype=bool)
    for m in masks:
        union |= m
    missing = set(np.flatnonzero(~union) + 1)
    leftovers = {1} | {2**k for k in range(13)} | set(
        np.flatnonzero(c.indicator(c.Dilate(2**7, c.All()), horizon)) + 1
    )
    assert missing <= leftovers
    with pytest.raises(c.ConstructionError):
        c.dyadic_partition(31)
