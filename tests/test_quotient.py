"""Finite Boolean algebras, ideals, quotients, monotone closure, and the
null-difference equivalence on set expressions."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import cesaro as c
from cesaro.quotient import Ideal, MAX_EXHAUSTIVE_CARRIER


def principal_ideal(alg, p):
    return Ideal(frozenset(x for x in range(alg.size) if alg.le(x, p)))


def test_build_algebra_structure():
    alg = c.build_algebra(3)
    assert alg.size == 8
    alg.check_axioms()
    # bitmask labels: join is OR, meet is AND
    for a in range(8):
        for b in range(8):
            assert alg.labels[alg.join(a, b)] == alg.labels[a] | alg.labels[b]
            assert alg.labels[alg.meet(a, b)] == alg.labels[a] & alg.labels[b]
    assert alg.labels[alg.compl(alg.zero)] == alg.labels[alg.one]


def test_check_axioms_catches_tampering():
    alg = c.build_algebra(2)
    joins = [list(row) for row in alg.joins]
    joins[1][2] = 0  # break commutative/absorption structure
    broken = c.FiniteAlgebra(
        alg.labels, tuple(tuple(r) for r in joins), alg.meets, alg.compls,
        alg.zero, alg.one,
    )
    with pytest.raises(c.QuotientError):
        broken.check_axioms()


def test_ideal_validation():
    alg = c.build_algebra(3)
    principal_ideal(alg, 3).validate(alg)
    with pytest.raises(c.QuotientError):
        Ideal(frozenset()).validate(alg)
    # join-closure violated: two atoms without their join
    atoms = [x for x in range(alg.size) if bin(alg.labels[x]).count("1") == 1]
    with pytest.raises(c.QuotientError):
        Ideal(frozenset([alg.zero, atoms[0], atoms[1]])).validate(alg)


def test_build_quotient_by_principal_ideal():
    alg = c.build_algebra(3)
    atom = next(x for x in range(alg.size) if alg.labels[x] == 1)
    q = c.build_quotient(alg, principal_ideal(alg, atom))
    assert q.algebra.size == 4
    q.algebra.check_axioms()
    # elements differing by the collapsed atom share a class
    for p in range(alg.size):
        mate = next(
            x for x in range(alg.size) if alg.labels[x] == alg.labels[p] ^ 1
        )
        assert q.class_of[p] == q.class_of[mate]


def test_quotient_by_trivial_ideal_is_isomorphic():
    alg = c.build_algebra(2)
    q = c.build_quotient(alg, Ideal(frozenset({alg.zero})))
    assert q.algebra.size == alg.size


def test_quotient_complement_and_order_laws():
    # the quotient keeps the Boolean order: [A] <= [B] iff [A] meet [B] = [A],
    # complement swaps zero and one, double complement is identity
    alg = c.build_algebra(3)
    q = c.build_quotient(alg, principal_ideal(alg, 3)).algebra
    for a in range(q.size):
        assert q.compl(q.compl(a)) == a
        assert q.join(a, q.compl(a)) == q.one
        assert q.meet(a, q.compl(a)) == q.zero
        for b in range(q.size):
            if q.le(a, b):
                assert q.le(q.compl(b), q.compl(a))
                assert q.join(a, b) == b


def test_generate_subalgebra_and_is_subalgebra():
    alg = c.build_algebra(3)
    sub = c.generate_subalgebra(alg, [3])  # bitmask {1,2}
    assert sorted(alg.labels[x] for x in sub) == [0, 3, 4, 7]
    assert c.is_subalgebra(alg, sub)
    assert not c.is_subalgebra(alg, sub - {alg.zero})


def test_monotone_closure_equals_generated_subalgebra():
    alg = c.build_algebra(4)
    rng = random.Random(4242)
    for _ in range(25):
        gens = rng.sample(range(alg.size), rng.randint(1, 3))
        seed = c.generate_subalgebra(alg, gens)
        assert c.monotone_closure(alg, seed) == seed
    with pytest.raises(c.QuotientError):
        c.monotone_closure(alg, [alg.zero])  # not complement-closed


def test_every_subalgebra_generates_itself():
    # the identity that lets monotone_closure return a subalgebra seed as is
    alg = c.build_algebra(3)
    subalgebras = 0
    for bits in range(2**alg.size):
        s = frozenset(x for x in range(alg.size) if bits >> x & 1)
        if c.is_subalgebra(alg, s):
            subalgebras += 1
            assert c.generate_subalgebra(alg, s) == s
    assert subalgebras == 5  # the partitions of a 3-element set


def test_monotone_closure_takes_a_generator_seed():
    alg = c.build_algebra(3)
    sub = c.generate_subalgebra(alg, [0b011])
    assert c.monotone_closure(alg, (x for x in sub)) == sub
    with pytest.raises(c.QuotientError, match="not a subalgebra"):
        c.monotone_closure(alg, (x for x in sub if x != alg.one))


def test_null_equivalent_exact_branches():
    evens = c.Residue(2, frozenset({0}))
    bumped = c.Union(evens, c.Predicate("pow2"))
    v = c.null_equivalent(evens, bumped)
    assert v.value == "Equivalent" and v.exact and v.density == 0
    v = c.null_equivalent(evens, c.Residue(2, frozenset({1})))
    assert v.value == "Distinct" and v.exact and v.density == 1


def test_null_equivalent_streamed_branches():
    geo = c.Blocks(c.Geometric(2))
    mixed = c.Inter(geo, c.Residue(2, frozenset({0})))
    v = c.null_equivalent(mixed, c.Empty(), 2**16)
    assert v.value == "Distinct" and not v.exact
    # a large tolerance makes the streamed floor inconclusive
    v = c.null_equivalent(mixed, c.Empty(), 2**16, tolerance=0.4)
    assert v.value == "Unknown" and not v.exact


def _streamed_verdict_oracle(a, b, horizon, tolerance):
    """The streamed branch of null_equivalent from an N-long count array."""
    d = c.SymDiff(a, b)
    est = c.estimate_limits(d, horizon, tolerance=tolerance)
    counts = np.cumsum(c.indicator(d, horizon), dtype=np.int64)
    floor = min(
        float((counts[lo:hi] / np.arange(lo + 1, hi + 1, dtype=np.float64)).min())
        for lo, hi in (
            (horizon // 2, horizon),
            (horizon // 4, horizon // 2),
            (horizon // 8, horizon // 4),
        )
    )
    if floor > tolerance:
        return c.EquivalenceVerdict(
            "Distinct",
            f"streamed density stays above {tolerance} in three doubling "
            f"sub-windows up to horizon {horizon}",
            est.upper,
            False,
        )
    return c.EquivalenceVerdict(
        "Unknown", f"streamed density inconclusive at horizon {horizon}", est.upper, False
    )


def test_null_equivalent_streamed_matches_count_array():
    geo = c.Blocks(c.Geometric(2))
    greedy = c.Greedy(Fraction(3, 7))
    pairs = [
        (c.Inter(geo, c.Residue(2, frozenset({0}))), c.Empty()),
        (greedy, c.Union(greedy, c.Predicate("cubes"))),
        (c.Union(geo, c.Residue(3, frozenset({0}))), c.Diff(geo, c.Predicate("pow2"))),
        (c.Midpoint(c.Inter(geo, c.Residue(3, frozenset({1}))), geo), geo),
        # {n > 200}, streamed: at horizon 1000 only the lowest sub-window
        # holds a zero average
        (c.Shift(200, c.Union(geo, c.Compl(geo))), c.Empty()),
    ]
    for a, b in pairs:
        for horizon, tolerance in ((1000, 1e-3), (2**16 + 5, 1e-3), (200_000, 0.2)):
            want = _streamed_verdict_oracle(a, b, horizon, tolerance)
            assert c.null_equivalent(a, b, horizon, tolerance) == want, (a, b, horizon)


def test_disjoint_representatives():
    evens = c.Residue(2, frozenset({0}))
    odds_plus = c.Union(c.Residue(2, frozenset({1})), c.Explicit((2,)))
    reps = c.disjoint_representatives([evens, odds_plus], 10**4)
    masks = [c.indicator(r, 10**4) for r in reps]
    assert not (masks[0] & masks[1]).any()
    nus = [c.exact_limits(r).limit for r in reps]
    assert sum(nus) == 1


def test_disjoint_representatives_rejects_overlapping_classes():
    evens = c.Residue(2, frozenset({0}))
    mult4 = c.Residue(4, frozenset({0}))
    with pytest.raises(c.QuotientError):
        c.disjoint_representatives([evens, mult4], 10**4)


def test_exhaustive_axiom_cap_is_honoured():
    # carriers above the cap switch to sampled triples but still check
    # every unary and binary law
    assert MAX_EXHAUSTIVE_CARRIER == 64
    alg = c.build_algebra(7)  # carrier 128
    alg.check_axioms(sample_triples=2000)



@pytest.mark.parametrize("n", [11, 16])
def test_build_algebra_refuses_a_large_universe_before_allocating(n):
    tracemalloc.start()
    try:
        with pytest.raises(c.QuotientError, match="0..10"):
            c.build_algebra(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
