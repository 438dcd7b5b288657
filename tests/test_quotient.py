"""Finite Boolean algebras, ideals, quotients, monotone closure, and the
null-difference equivalence on set expressions."""

import itertools
import random
import tracemalloc
from dataclasses import replace
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


def loop_check_axioms(alg, sample_triples=10**4, seed=0):
    """Reference: the per-element loop that check_axioms replaced."""
    n = alg.size
    for a in range(n):
        if alg.join(a, alg.zero) != a or alg.meet(a, alg.one) != a:
            raise c.QuotientError(f"identity law fails at {a}")
        if alg.join(a, alg.compl(a)) != alg.one:
            raise c.QuotientError(f"complement join law fails at {a}")
        if alg.meet(a, alg.compl(a)) != alg.zero:
            raise c.QuotientError(f"complement meet law fails at {a}")
    for a in range(n):
        for b in range(n):
            if alg.join(a, b) != alg.join(b, a):
                raise c.QuotientError(f"join commutativity fails at {a},{b}")
            if alg.meet(a, b) != alg.meet(b, a):
                raise c.QuotientError(f"meet commutativity fails at {a},{b}")
    if n <= MAX_EXHAUSTIVE_CARRIER:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(seed)
        triples = (tuple(rng.randrange(n) for _ in range(3)) for _ in range(sample_triples))
    for a, b, x in triples:
        if alg.meet(a, alg.join(b, x)) != alg.join(alg.meet(a, b), alg.meet(a, x)):
            raise c.QuotientError(f"distributivity fails at {a},{b},{x}")
        if alg.join(a, alg.meet(b, x)) != alg.meet(alg.join(a, b), alg.join(a, x)):
            raise c.QuotientError(f"dual distributivity fails at {a},{b},{x}")
        if alg.join(a, alg.join(b, x)) != alg.join(alg.join(a, b), x):
            raise c.QuotientError(f"join associativity fails at {a},{b},{x}")
        if alg.meet(a, alg.meet(b, x)) != alg.meet(alg.meet(a, b), x):
            raise c.QuotientError(f"meet associativity fails at {a},{b},{x}")


def _outcome(f, *args):
    """f's result, or the message of the QuotientError it raises."""
    try:
        return f(*args)
    except c.QuotientError as exc:
        return str(exc)


def _edited(alg, table, x, y, value, mirror):
    """alg with entry (x, y) of its join or meet table set to value, and
    entry (y, x) too when mirror, so that commutativity still holds."""
    rows = [list(r) for r in getattr(alg, table)]
    rows[x][y] = value
    if mirror:
        rows[y][x] = value
    return replace(alg, **{table: tuple(map(tuple, rows))})


# one edit per law and carrier, each found by a search for an edit whose
# first failure under the reference loop is that law
@pytest.mark.parametrize(
    "universe, table, x, y, value, mirror, law",
    [
        (2, "joins", 0, 0, 2, True, "identity law"),
        (2, "joins", 2, 1, 2, True, "complement join law"),
        (2, "meets", 1, 2, 3, True, "complement meet law"),
        (2, "joins", 2, 3, 2, False, "join commutativity"),
        (2, "meets", 3, 2, 0, False, "meet commutativity"),
        (2, "joins", 2, 2, 1, True, "distributivity"),
        (2, "meets", 1, 1, 2, True, "dual distributivity"),
        (2, "joins", 2, 3, 2, True, "join associativity"),
        (2, "meets", 2, 2, 3, True, "meet associativity"),
        (3, "joins", 0, 4, 0, True, "identity law"),
        (3, "joins", 0, 7, 4, True, "complement join law"),
        (3, "meets", 2, 5, 1, True, "complement meet law"),
        (3, "joins", 2, 7, 3, False, "join commutativity"),
        (3, "meets", 0, 1, 2, False, "meet commutativity"),
        (3, "joins", 6, 6, 7, True, "distributivity"),
        (3, "meets", 6, 4, 6, True, "dual distributivity"),
        (3, "joins", 2, 7, 3, True, "join associativity"),
        (3, "meets", 0, 1, 2, True, "meet associativity"),
        # carrier 128: sampled triples
        (7, "joins", 0, 85, 6, True, "identity law"),
        (7, "joins", 55, 72, 20, True, "complement join law"),
        (7, "meets", 55, 72, 16, True, "complement meet law"),
        (7, "joins", 24, 93, 14, False, "join commutativity"),
        (7, "meets", 38, 101, 12, False, "meet commutativity"),
        (7, "meets", 35, 24, 12, True, "distributivity"),
        (7, "joins", 70, 126, 24, True, "dual distributivity"),
        (7, "joins", 81, 125, 86, True, "join associativity"),
        (7, "meets", 98, 107, 90, True, "meet associativity"),
    ],
)
def test_check_axioms_raises_the_first_failure_of_the_loop(universe, table, x, y, value, mirror, law):
    broken = _edited(c.build_algebra(universe), table, x, y, value, mirror)
    want = _outcome(loop_check_axioms, broken)
    assert want.startswith(f"{law} fails at ")
    assert _outcome(broken.check_axioms) == want


@pytest.mark.parametrize("universe", [2, 3])
def test_check_axioms_matches_the_loop_on_random_edits(universe):
    alg = c.build_algebra(universe)
    rng = random.Random(universe)
    n = alg.size
    for _ in range(150):
        table = rng.choice(("joins", "meets", "compls"))
        if table == "compls":
            compls = list(alg.compls)
            compls[rng.randrange(n)] = rng.randrange(n)
            broken = replace(alg, compls=tuple(compls))
        else:
            x, y = rng.randrange(n), rng.randrange(n)
            broken = _edited(alg, table, x, y, rng.randrange(n), rng.random() < 0.5)
        want = _outcome(loop_check_axioms, broken)
        assert _outcome(broken.check_axioms) == want


def loop_validate(ideal, alg):
    """Reference: the per-pair loop that Ideal.validate replaced."""
    if not ideal.members:
        raise c.QuotientError("ideal must be nonempty")
    for p in ideal.members:
        if not (0 <= p < alg.size):
            raise c.QuotientError(f"handle {p} outside the carrier")
    for p in ideal.members:
        for q in ideal.members:
            if alg.join(p, q) not in ideal.members:
                raise c.QuotientError(f"ideal not join-closed at {p},{q}")
    for p in ideal.members:
        for x in range(alg.size):
            if alg.meet(p, x) not in ideal.members:
                raise c.QuotientError(f"ideal not meet-absorbing at {p},{x}")


def loop_build_quotient(alg, ideal):
    """Reference: the per-pair loops that build_quotient replaced."""
    loop_validate(ideal, alg)
    reps, class_of, classes = [], [-1] * alg.size, []
    for p in range(alg.size):
        for ci, r in enumerate(reps):
            if alg.sym_add(p, r) in ideal.members:
                class_of[p] = ci
                classes[ci].add(p)
                break
        else:
            class_of[p] = len(reps)
            reps.append(p)
            classes.append({p})
    for p in range(alg.size):
        for q in range(alg.size):
            if class_of[alg.join(p, q)] != class_of[alg.join(reps[class_of[p]], reps[class_of[q]])]:
                raise c.QuotientError(f"join not well-defined at {p},{q}")
            if class_of[alg.meet(p, q)] != class_of[alg.meet(reps[class_of[p]], reps[class_of[q]])]:
                raise c.QuotientError(f"meet not well-defined at {p},{q}")
        if class_of[alg.compl(p)] != class_of[alg.compl(reps[class_of[p]])]:
            raise c.QuotientError(f"complement not well-defined at {p}")
    qalg = c.FiniteAlgebra(
        tuple(reps),
        tuple(tuple(class_of[alg.join(r, s)] for s in reps) for r in reps),
        tuple(tuple(class_of[alg.meet(r, s)] for s in reps) for r in reps),
        tuple(class_of[alg.compl(r)] for r in reps),
        class_of[alg.zero],
        class_of[alg.one],
    )
    qalg.check_axioms()
    out = tuple(c.QuotientClass(r, frozenset(m)) for r, m in zip(reps, classes))
    return c.QuotientResult(qalg, out, tuple(class_of))


def loop_generate_subalgebra(alg, generators):
    """Reference: the per-pair fixpoint loop that generate_subalgebra replaced."""
    cur = set(generators) | {alg.zero, alg.one}
    while True:
        new = set()
        for a in cur:
            if alg.compl(a) not in cur:
                new.add(alg.compl(a))
            for b in cur:
                new.update(x for x in (alg.join(a, b), alg.meet(a, b)) if x not in cur)
        if not new:
            return frozenset(cur)
        cur |= new


def loop_is_subalgebra(alg, subset):
    """Reference: the per-pair loop that is_subalgebra replaced."""
    s = set(subset)
    if alg.zero not in s or alg.one not in s:
        return False
    for a in s:
        if alg.compl(a) not in s:
            return False
        for b in s:
            if alg.join(a, b) not in s or alg.meet(a, b) not in s:
                return False
    return True


def generated_ideal(alg, gens):
    """The least join-closed, meet-absorbing set holding the handles and zero."""
    members = set(gens) | {alg.zero}
    while True:
        new = {alg.join(p, q) for p in members for q in members}
        new |= {alg.meet(p, x) for p in members for x in range(alg.size)}
        if new <= members:
            return Ideal(frozenset(members))
        members |= new


def _differential_cases(n, rng):
    """(algebra, ideal, subset, generators) tuples on build_algebra(n) and on
    copies of it with one complement entry, or one join or meet entry, or
    the same entry of both, edited."""
    alg = c.build_algebra(n)
    size = alg.size
    algebras = [alg]
    for _ in range(5):
        table = rng.choice(("joins", "meets", "compls", "both"))
        x, y, value = rng.randrange(size), rng.randrange(size), rng.randrange(size)
        if table == "compls":
            compls = list(alg.compls)
            compls[x] = value
            algebras.append(replace(alg, compls=tuple(compls)))
        elif table == "both":
            mirror = rng.random() < 0.5
            broken = _edited(alg, "joins", x, y, value, mirror)
            algebras.append(_edited(broken, "meets", x, y, rng.randrange(size), mirror))
        else:
            algebras.append(_edited(alg, table, x, y, value, rng.random() < 0.5))
    for broken in algebras:
        for _ in range(20):
            kind = rng.randrange(3)
            if kind == 0:  # principal
                ideal = principal_ideal(alg, rng.randrange(size))
            elif kind == 1:  # generated by several handles, under the edited tables
                tops = rng.sample(range(size), rng.randint(1, min(3, size)))
                ideal = generated_ideal(broken, tops)
            else:  # random members, most of them not an ideal
                ideal = Ideal(frozenset(rng.sample(range(size), rng.randint(0, size))))
            subset = rng.sample(range(size), rng.randint(0, size))
            if rng.random() < 0.3:
                subset = sorted(loop_generate_subalgebra(broken, subset[:2]))
            gens = [rng.randrange(size) for _ in range(rng.randint(0, 3))]
            yield broken, ideal, subset, gens


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_quotient_path_matches_the_loops(n):
    rng = random.Random(1000 + n)
    for alg, ideal, subset, gens in _differential_cases(n, rng):
        assert _outcome(ideal.validate, alg) == _outcome(loop_validate, ideal, alg)
        assert _outcome(c.build_quotient, alg, ideal) == _outcome(loop_build_quotient, alg, ideal)
        assert c.is_subalgebra(alg, subset) == loop_is_subalgebra(alg, subset)
        assert c.generate_subalgebra(alg, gens) == loop_generate_subalgebra(alg, gens)


def test_build_quotient_checks_a_complement_before_the_next_row():
    # the loop checks p's complement after p's joins and meets, so the
    # complement failure at 1 comes before the join failure at 2,4
    alg = c.build_algebra(3)
    broken = replace(alg, compls=(2, *alg.compls[1:]))
    ideal = principal_ideal(alg, 1)
    want = "complement not well-defined at 1"
    assert _outcome(loop_build_quotient, broken, ideal) == want
    assert _outcome(c.build_quotient, broken, ideal) == want


@pytest.mark.parametrize("handle", [-1, -8, 8, 9, 2**70])
def test_handles_outside_the_carrier_are_refused(handle):
    alg = c.build_algebra(3)
    message = f"handle {handle} outside the carrier"
    calls = [
        lambda: c.is_subalgebra(alg, [0, 7, handle]),
        lambda: c.generate_subalgebra(alg, [handle]),
        lambda: c.monotone_closure(alg, [0, 7, handle]),
        lambda: Ideal(frozenset({0, handle})).validate(alg),
        lambda: c.build_quotient(alg, Ideal(frozenset({0, handle}))),
    ]
    for call in calls:
        with pytest.raises(c.QuotientError) as exc:
            call()
        assert str(exc.value) == message


def test_algebra_tables_are_read_only_arrays_kept_out_of_equality():
    alg = c.build_algebra(2)
    for table, source in zip(alg._tables, (alg.joins, alg.meets, alg.compls)):
        assert table.dtype == np.intp and not table.flags.writeable
        assert np.array_equal(table, source)
    rebuilt = replace(alg, compls=alg.compls)
    assert rebuilt == alg and hash(rebuilt) == hash(alg) and rebuilt._tables is not alg._tables
    broken = _edited(alg, "joins", 1, 2, 0, True)
    assert broken._tables[0][1, 2] == 0 and alg._tables[0][1, 2] == 3


def test_algebra_tables_hold_python_ints():
    alg = c.build_algebra(4)
    q = c.build_quotient(alg, principal_ideal(alg, 3)).algebra
    for a in (alg, q):
        entries = [*a.labels, *a.compls, a.zero, a.one, *itertools.chain(*a.joins, *a.meets)]
        assert all(type(v) is int for v in entries)
        assert type(a.join(1, 2)) is int and type(a.meet(1, 2)) is int and type(a.compl(1)) is int


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
    # two generators, geometric 2 and paired's, have no joint exact rule
    geo = c.Blocks(c.Geometric(2))
    mixed = c.Inter(geo, c.Predicate("paired"))
    v = c.null_equivalent(mixed, c.Empty(), 2**16)
    assert v.value == "Distinct" and not v.exact
    # a large tolerance makes the streamed floor inconclusive
    v = c.null_equivalent(mixed, c.Empty(), 2**16, tolerance=0.4)
    assert v.value == "Unknown" and not v.exact


def test_null_equivalent_of_one_generator_trees_is_exact():
    geo = c.Blocks(c.Geometric(2))
    v = c.null_equivalent(c.Inter(geo, c.Residue(2, frozenset({0}))), c.Empty(), 2**16)
    assert v.value == "Distinct" and v.exact and v.density == Fraction(1, 3)
    # geometric 2 or not: all of N, less the shift's 200 points
    v = c.null_equivalent(c.Shift(200, c.Union(geo, c.Compl(geo))), c.All(), 1000)
    assert v.value == "Equivalent" and v.exact and v.density == 0


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
    geo, other = c.Blocks(c.Geometric(2)), c.Blocks(c.Geometric(3))
    # no exact rule: two generators, here paired's and geometric 3's
    paired = c.Inter(c.Predicate("paired"), other)
    pairs = [
        (c.Inter(geo, c.Predicate("paired")), c.Empty()),
        (paired, c.Union(paired, c.Predicate("cubes"))),
        (c.Union(geo, other), c.Diff(geo, c.Predicate("pow2"))),
        (c.Midpoint(c.Inter(geo, other), geo), geo),
        # {n > 200}, streamed: at horizon 1000 only the lowest sub-window
        # holds a zero average
        (c.Shift(200, c.Union(geo, c.Compl(c.Inter(geo, other)))), c.Empty()),
    ]
    for a, b in pairs:
        for horizon, tolerance in ((1000, 1e-3), (2**16 + 5, 1e-3), (200_000, 0.2)):
            want = _streamed_verdict_oracle(a, b, horizon, tolerance)
            assert c.null_equivalent(a, b, horizon, tolerance) == want, (a, b, horizon)


@pytest.mark.parametrize(
    "a, b, horizon",
    [
        ("greedy 3/7", "union(greedy 3/7, predicate cubes)", 10**6),
        ("greedy 3/7", "union(greedy 3/7, predicate squares)", 10**5),
        ("greedy 35/37", "union(greedy 35/37, predicate primes)", 10**6),
    ],
)
def test_greedy_plus_a_null_set_is_exactly_equivalent(a, b, horizon):
    # a greedy set is a fuzzy form, so the symmetric difference is the null
    # predicate's points outside a periodic set: exactly null, however slowly
    # its average decays
    verdict = c.null_equivalent(c.parse_expr(a), c.parse_expr(b), horizon)
    assert verdict == c.EquivalenceVerdict(
        "Equivalent", "exact symmetric-difference density 0", Fraction(0), True
    )


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
