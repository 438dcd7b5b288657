"""Acceptance gate: eleven end-to-end criteria with pinned tolerances,
horizons, and wall-clock budgets.  One test per criterion; the terminal
summary prints a PASS/FAIL line for each (see conftest)."""

import math
import random
import time
from fractions import Fraction

import numpy as np

import cesaro as c
from conftest import random_fragment


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.1f}s"


def _counts(e, horizon):
    return np.cumsum(c.indicator(e, horizon), dtype=np.int64)


def test_criterion_01_residue_densities():
    # every residue class density |R|/m, exactly, for all moduli to 1000
    budget = Budget(1.0)
    rng = random.Random(11)
    for m in range(1, 1001):
        rep = c.exact_limits(c.Residue(m, frozenset({0})))
        assert rep.verdict is c.Verdict.IN_F
        assert rep.limit == Fraction(1, m)
    for _ in range(50):
        m = rng.randint(1, 1000)
        k = rng.randint(1, m)
        res = frozenset(rng.sample(range(m), k))
        assert c.exact_limits(c.Residue(m, res)).limit == Fraction(k, m)
    budget.check()


def test_criterion_02_geometric_blocks():
    # exact oscillation limits r/(r+1), 1/(r+1) and a streamed run at 2^22
    # reproducing both extremes within 5e-3
    budget = Budget(30.0)
    geo = c.Blocks(c.Geometric(2))
    rep = c.exact_limits(geo)
    assert (rep.upper, rep.lower) == (Fraction(2, 3), Fraction(1, 3))
    assert rep.verdict is c.Verdict.NOT_IN_F
    est = c.estimate_limits(geo, 2**22, window=0.9, tolerance=1e-3)
    assert est.verdict is c.Verdict.NOT_IN_F
    assert abs(est.upper - 2 / 3) < 5e-3
    assert abs(est.lower - 1 / 3) < 5e-3
    budget.check()


def test_criterion_03_counterexample_pair():
    # B and C both have density 1/2 but B inter C has none: the streamed
    # spread at 2^22 stays at least 0.15
    budget = Budget(60.0)
    b, cc = c.counterexample_pair()
    cls_b = c.classify(b)
    assert cls_b.kind == "InF" and cls_b.report.limit == Fraction(1, 2)
    assert not cls_b.approximate
    cls_c = c.classify(cc)
    assert cls_c.kind == "InF" and cls_c.report.limit == Fraction(1, 2)
    # |nu_N(C) - 1/2| <= 1/N for every N up to 1e5, i.e. |2 cnt - N| <= 2
    h = 10**5
    cnt = _counts(cc, h)
    narr = np.arange(1, h + 1, dtype=np.int64)
    assert np.all(np.abs(2 * cnt - narr) <= 2)
    est = c.estimate_limits(c.Inter(b, cc), 2**22, tolerance=1e-2)
    assert est.verdict is c.Verdict.NOT_IN_F and not est.exact
    assert est.upper - est.lower >= 0.15
    # C is the evens on the member runs of geometric 2 at half scale and
    # the odds off them, so B inter C has exact limits 1/3 and 1/6
    cls_i = c.classify(c.Inter(b, cc), 2**22, tolerance=1e-2)
    assert cls_i.kind == "NotInF" and not cls_i.approximate
    assert (cls_i.report.upper, cls_i.report.lower) == (Fraction(1, 3), Fraction(1, 6))
    budget.check()


def test_criterion_04_greedy_targets():
    # greedy sets track their target within 2/N for every N in [100, 1e6]
    budget = Budget(30.0)
    targets = [
        Fraction(1, 3),
        Fraction(2, 7),
        Fraction(355, 113) - 3,
        Fraction("0.123456789"),
    ]
    h = 10**6
    narr = np.arange(1, h + 1, dtype=np.int64)
    for s in targets:
        g = c.Greedy(s)
        assert c.exact_limits(g).limit == s
        cnt = _counts(g, h)
        p, q = s.numerator, s.denominator
        dev = np.abs(cnt * q - p * narr)  # q <= 1e9, cnt <= 1e6: fits int64
        assert np.all(dev[99:] <= 2 * q), s
    budget.check()


def test_criterion_05_poly_blocks():
    # polynomial blocks converge to 1/2 and the next-member gap ratio
    # P(Z)^((q+1)/q) / Z stays within a factor-4 bracket fixed at the
    # first sample (it tends to q+1)
    budget = Budget(120.0)
    for q in (1, 2, 3):
        e = c.Blocks(c.Poly(q))
        assert c.exact_limits(e).limit == Fraction(1, 2)
        est = c.estimate_limits(e, 10**7, window=0.5, tolerance=1e-2)
        mid = (est.upper + est.lower) / 2
        assert abs(mid - 0.5) <= 1e-2, q
        ratios = []
        two_n = 8
        while True:
            z = sum(j**q for j in range(1, two_n + 1))
            if z > 10**7:
                break
            pair = c.gap_functions(e, z, 2 * z)
            assert pair.p is not None
            ratios.append(pair.p ** ((q + 1) / q) / z)
            two_n *= 2
        assert len(ratios) >= 4
        lo, hi = ratios[0] / 4, ratios[0] * 4
        assert all(lo <= r <= hi for r in ratios), (q, ratios)
    budget.check()


def test_criterion_06_null_modification():
    # the odds trimmed to bound 1/2 lose exactly {1}; twenty random
    # exactly-solvable sets trimmed to their upper limit conform at every
    # N up to 1e6 and lose only a sub-1e-2 fraction
    budget = Budget(120.0)
    res = c.null_modify(c.Residue(2, frozenset({1})), Fraction(1, 2), 10**6)
    assert res.removed == (1,)
    res.verify()
    rng = random.Random(60606)
    for _ in range(20):
        e = random_fragment(rng, 3)
        bound = c.exact_limits(e).upper
        out = c.null_modify(e, bound, 10**6)
        out.verify()  # exhaustive: no partial average exceeds the bound
        assert out.removed_density(10**6) < Fraction(1, 100)
    budget.check()


def test_criterion_07_dyadic_partition():
    # each dyadic piece satisfies nu_N <= 2^-(k+1) for every N <= 1e6;
    # the union of pieces 0..20 at N = 2^20 misses exactly {1} and the
    # 21 powers of two up to 2^20
    budget = Budget(60.0)
    parts = c.dyadic_partition(20)
    h = 10**6
    narr = np.arange(1, h + 1, dtype=np.int64)
    for k, d in enumerate(parts):
        assert c.exact_limits(d).limit == Fraction(1, 2 ** (k + 1))
        assert np.all(_counts(d, h) * 2 ** (k + 1) <= narr), k
    union = parts[0]
    for d in parts[1:]:
        union = c.Union(union, d)
    n = 2**20
    got = c.partial_average(union, n)
    # brute recount, independent of the expression evaluators
    mask = np.zeros(n, dtype=bool)
    for d in parts:
        mask |= c.indicator(d, n)
    assert got == Fraction(int(mask.sum()), n)
    # complement inside 1..2^20 is {2^j : 0 <= j <= 20}: 21 points
    assert got == 1 - Fraction(21, 2**20)
    budget.check()


def test_criterion_08_family_laws():
    # closure and arithmetic laws of the convergent family: pairwise laws
    # on 200 random exactly-solvable pairs, chain laws on residue chains
    # and the dyadic partition
    budget = Budget(120.0)
    rng = random.Random(80808)

    assert c.exact_limits(c.Empty()).limit == 0
    assert c.exact_limits(c.All()).limit == 1

    for _ in range(200):
        a = random_fragment(rng, 2)
        b = random_fragment(rng, 2)
        na = c.exact_limits(a).limit
        nb = c.exact_limits(b).limit
        # complement
        assert c.exact_limits(c.Compl(a)).limit == 1 - na
        # union/intersection inclusion-exclusion and subadditivity
        nu_union = c.exact_limits(c.Union(a, b)).limit
        nu_inter = c.exact_limits(c.Inter(a, b)).limit
        assert nu_union == na + nb - nu_inter
        assert nu_union <= na + nb
        # monotonicity and difference laws on a nested pair
        big = c.Union(a, b)
        n_big = nu_union
        assert na <= n_big
        n_diff = c.exact_limits(c.Diff(big, a)).limit
        assert n_diff == n_big - na
        # equality holds exactly when the difference is null
        assert (na == n_big) == (n_diff == 0)
        # null perturbation: removing or adding a null set moves nothing
        null = c.Explicit(tuple(sorted(rng.sample(range(1, 100), 5))))
        assert c.exact_limits(c.Union(a, null)).limit == na
        assert c.exact_limits(c.Diff(a, null)).limit == na
        assert c.exact_limits(c.Union(a, c.Predicate("pow2"))).limit == na

    # finite additivity over a random residue partition
    for _ in range(30):
        m = rng.randint(2, 12)
        residues = list(range(m))
        rng.shuffle(residues)
        cut1 = rng.randint(1, m - 1)
        cut2 = rng.randint(cut1, m)
        groups = [residues[:cut1], residues[cut1:cut2], residues[cut2:]]
        exprs = [c.Residue(m, frozenset(g)) for g in groups if g]
        total = sum(c.exact_limits(e).limit for e in exprs)
        assert total == 1

    # chain laws: nested residue chain, every partial average at or below
    # the density, union of the chain realizes the supremum
    chain = [c.Residue(2**j, frozenset({0})) for j in range(10, 0, -1)]
    h = 10**5
    narr = np.arange(1, h + 1, dtype=np.int64)
    nus = []
    for e in chain:
        nu = c.exact_limits(e).limit
        nus.append(nu)
        assert np.all(_counts(e, h) * nu.denominator <= nu.numerator * narr)
    union = chain[0]
    for e in chain[1:]:
        union = c.Union(union, e)
    assert c.exact_limits(union).limit == max(nus)  # sup over the chain
    assert c.exact_limits(union).lower >= max(nus)  # lower-limit bound

    # disjoint additivity toward full measure on the dyadic partition
    parts = c.dyadic_partition(20)
    acc = None
    running = Fraction(0)
    for k, d in enumerate(parts):
        acc = d if acc is None else c.Union(acc, d)
        running += Fraction(1, 2 ** (k + 1))
        rep = c.exact_limits(acc)
        assert rep.verdict is c.Verdict.IN_F
        assert rep.limit == running
    assert running == 1 - Fraction(1, 2**21)  # supremum tends to 1
    budget.check()


def test_criterion_09_chain_certificates():
    # uniform convergence certificates for the power-of-two residue
    # chain, with N_eps <= ceil(2/eps), and a dense extension at scale
    # 2^-6 leaving no density gap that wide
    budget = Budget(60.0)
    chain = c.verify_chain(
        [c.Residue(2**j, frozenset({0})) for j in range(1, 11)], 10**4
    )
    for eps in (Fraction(1, 100), Fraction(1, 1000)):
        cert = c.uniformity_check(chain, eps, 10**5)
        assert isinstance(cert, c.UniformityCertificate)
        assert cert.n_epsilon <= math.ceil(2 / eps)
    dense = c.dense_extension(chain, 6)
    nus = [c.exact_limits(e).limit for e in dense.elements]
    assert nus == sorted(nus)
    assert nus[0] == 0 and nus[-1] == 1
    assert all(b - a < Fraction(1, 64) for a, b in zip(nus, nus[1:]))
    budget.check()


def test_criterion_10_quotient():
    budget = Budget(60.0)
    # axioms, exhaustively, for every power-set algebra up to n = 4
    for n in range(1, 5):
        c.build_algebra(n).check_axioms()
    rng = random.Random(101010)
    # fifty random quotients by (principal) ideals keep the axioms
    for _ in range(50):
        alg = c.build_algebra(rng.randint(2, 4))
        p = rng.randrange(alg.size)
        ideal_members = frozenset(x for x in range(alg.size) if alg.le(x, p))
        q = c.build_quotient(alg, c.Ideal(ideal_members))
        q.algebra.check_axioms()
        assert q.algebra.size * len(ideal_members) == alg.size
    # monotone closure agrees with brute-force generation
    alg = c.build_algebra(4)
    for _ in range(50):
        gens = rng.sample(range(alg.size), rng.randint(1, 3))
        seed = c.generate_subalgebra(alg, gens)
        assert c.monotone_closure(alg, seed) == seed
    # disjoint representatives for overlapping null-difference classes
    evens = c.Residue(2, frozenset({0}))
    odds_plus = c.Union(c.Residue(2, frozenset({1})), c.Explicit((2,)))
    reps = c.disjoint_representatives([evens, odds_plus], 10**5)
    masks = [c.indicator(r, 10**5) for r in reps]
    assert not (masks[0] & masks[1]).any()
    assert sum(c.exact_limits(r).limit for r in reps) == 1
    budget.check()


def test_criterion_11_pseudo_metric():
    # triangle inequality on 500 random exactly-solvable triples, and
    # distance zero forces agreement of both limits
    budget = Budget(30.0)
    rng = random.Random(111111)
    for _ in range(500):
        a = random_fragment(rng, 2)
        b = random_fragment(rng, 2)
        cc = random_fragment(rng, 2)
        d_ab = c.pseudo_metric(a, b)
        d_bc = c.pseudo_metric(b, cc)
        d_ac = c.pseudo_metric(a, cc)
        assert d_ac <= d_ab + d_bc
        assert d_ab == c.pseudo_metric(b, a)
        assert c.pseudo_metric(a, a) == 0
    for _ in range(100):
        a = random_fragment(rng, 2)
        bump = c.Explicit(tuple(sorted(rng.sample(range(1, 50), 3))))
        b = c.Union(a, bump) if rng.random() < 0.5 else c.SymDiff(a, c.Predicate("pow2"))
        assert c.pseudo_metric(a, b) == 0
        ra, rb = c.exact_limits(a), c.exact_limits(b)
        assert (ra.upper, ra.lower) == (rb.upper, rb.lower)
    budget.check()
