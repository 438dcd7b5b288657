"""Chain analysis: verification, pseudo-metric, uniformity
certificates, dense/skeleton/maximal extensions."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cesaro as c
from cesaro.chains import _exact_nus
from cesaro.exprs import _pack, _Table, _table_or_words
from cesaro.limits import _CHUNK


def residue_chain(js):
    return [c.Residue(2**j, frozenset({0})) for j in js]


def test_verify_chain_sorts_and_certifies():
    chain = c.verify_chain(residue_chain([1, 3, 2]), 1000)
    assert [e.modulus for e in chain.elements] == [8, 4, 2]
    assert all(ev.kind == "prefix" for ev in chain.evidence)
    assert len(chain.evidence) == 2


def test_verify_chain_rejections():
    with pytest.raises(c.ChainError, match="incomparable"):
        c.verify_chain(
            [c.Residue(2, frozenset({0})), c.Residue(3, frozenset({0}))], 1000
        )
    with pytest.raises(c.ChainError, match="duplicate"):
        c.verify_chain(
            [c.Residue(2, frozenset({0})), c.Residue(4, frozenset({0, 2}))], 1000
        )
    with pytest.raises(c.ChainError, match="empty"):
        c.verify_chain([], 1000)


def test_pseudo_metric_values():
    mult4 = c.Residue(4, frozenset({0}))
    evens = c.Residue(2, frozenset({0}))
    assert c.pseudo_metric(mult4, evens) == Fraction(1, 4)
    assert c.pseudo_metric(evens, evens) == 0
    assert c.pseudo_metric(mult4, evens) == c.pseudo_metric(evens, mult4)
    # null difference gives distance zero without the sets being equal
    bumped = c.Union(evens, c.Explicit((1, 9)))
    assert c.pseudo_metric(evens, bumped) == 0
    # divergent symmetric difference: the upper limit is the distance
    geo = c.Blocks(c.Geometric(2))
    assert c.pseudo_metric(c.Empty(), geo) == Fraction(2, 3)


def test_uniformity_certificate_against_brute_scan():
    horizon = 10**4
    chain = c.verify_chain(residue_chain([1, 2, 3, 4]), 1000)
    eps = Fraction(1, 100)
    cert = c.uniformity_check(chain, eps, horizon)
    # brute: last N anywhere with |nu_N - nu| >= eps
    last_bad = 0
    for e in chain.elements:
        nu = c.exact_limits(e).limit
        for n in range(1, horizon + 1):
            if abs(c.partial_average(e, n) - nu) >= eps:
                last_bad = max(last_bad, n)
    assert cert.n_epsilon == max(1, last_bad)
    assert cert.checked_horizon == horizon
    assert all(d < eps for d in cert.per_element_max_deviation)
    assert cert.as_dict()["N_epsilon"] == cert.n_epsilon


def test_uniformity_failure_at_horizon():
    # a finite set still far from its (zero) limit at the horizon
    chain = c.verify_chain([c.Explicit(tuple(range(1, 501)))], 400)
    res = c.uniformity_check(chain, Fraction(1, 10), 400)
    assert isinstance(res, c.UniformityFailure)
    assert res.n == 400 and res.element_index == 0


def one_pass_uniformity(chain, eps, horizon, nus=None):
    """Reference uniformity scan: every element's counts kept at once and
    an exact integer test at every N; the limits default to the exact ones."""
    nus = nus or [c.exact_limits(e).limit for e in chain.elements]
    narr = np.arange(1, horizon + 1, dtype=np.int64)
    last_bad = 0
    worst = (0, 0.0)
    cache = []
    for i, (e, nu) in enumerate(zip(chain.elements, nus)):
        cnt = np.cumsum(c.indicator(e, horizon), dtype=np.int64)
        q, p = nu.denominator, nu.numerator
        lhs = np.abs(cnt * q - p * narr) * eps.denominator
        bad = np.flatnonzero(lhs >= eps.numerator * q * narr)
        cache.append((cnt, q, p))
        if bad.size and int(bad[-1]) + 1 > last_bad:
            last_bad = int(bad[-1]) + 1
            worst = (i, abs(cnt[last_bad - 1] / last_bad - p / q))
    if last_bad >= horizon:
        i, dev = worst
        return c.UniformityFailure(i, chain.elements[i], last_bad, dev)
    n_eps = max(1, last_bad)
    devs = []
    for cnt, q, p in cache:
        tail = np.abs(cnt[n_eps:] / narr[n_eps:] - p / q)
        devs.append(float(tail.max()) if tail.size else 0.0)
    return c.UniformityCertificate(eps, n_eps, horizon, tuple(devs))


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(0, 2**9 - 1),
    js=st.sets(st.integers(1, 9), min_size=1, max_size=6),
    prefix=st.integers(0, 60),
    eps=st.sampled_from(
        [Fraction(1, 2), Fraction(3, 7), Fraction(1, 10), Fraction(1, 100), Fraction(1, 10**4)]
    ),
    horizon=st.integers(1, 5000),
)
@example(bits=5, js={1, 2, 3}, prefix=0, eps=Fraction(1, 10**4), horizon=5000)
@example(bits=0, js={9}, prefix=50, eps=Fraction(1, 100), horizon=4000)  # fails
def test_uniformity_check_matches_one_pass_scan(bits, js, prefix, eps, horizon):
    # dyadic residues of one integer form a chain; a finite prefix of N
    # added to all of them keeps it a chain and delays convergence
    elements = [c.Residue(2**j, frozenset({bits % 2**j})) for j in sorted(js)]
    if prefix:
        elements = [c.Union(e, c.Explicit(tuple(range(1, prefix + 1)))) for e in elements]
    chain = c.verify_chain(elements, 1024)
    got = c.uniformity_check(chain, eps, horizon)
    assert got == one_pass_uniformity(chain, eps, horizon)


def test_dense_extension_from_trivial_chain():
    chain = c.verify_chain([c.Empty(), c.All()], 1000)
    dense = c.dense_extension(chain, 3, 2000)
    nus = [c.exact_limits(e).limit for e in dense.elements]
    assert nus == [Fraction(i, 8) for i in range(9)]


def test_dense_extension_closes_gaps():
    chain = c.verify_chain(residue_chain([1, 2, 3]), 1000)
    dense = c.dense_extension(chain, 4, 2000)
    nus = [c.exact_limits(e).limit for e in dense.elements]
    assert all(b - a < Fraction(1, 16) for a, b in zip(nus, nus[1:]))
    # originals survive
    for e in chain.elements:
        assert e in dense.elements


def test_skeleton_contract_and_frozen_size():
    elements = [c.Empty()] + [
        c.Residue(100, frozenset(range(k))) for k in range(1, 101)
    ]
    chain = c.verify_chain(elements, 2000)
    eps = Fraction(5, 100)
    sk = c.skeleton(chain, eps)
    nus = [c.exact_limits(e).limit for e in sk.elements]
    all_nus = [c.exact_limits(e).limit for e in chain.elements]
    # endpoints kept; steps either under epsilon or forced single hops
    assert sk.elements[0] == chain.elements[0]
    assert sk.elements[-1] == chain.elements[-1]
    for a, b in zip(nus, nus[1:]):
        assert b - a < eps or all_nus.index(b) == all_nus.index(a) + 1
    assert len(sk.elements) == 26
    # greedy sweep: from each kept element the next kept one is the
    # farthest element still strictly within epsilon, so dropping any
    # interior element cannot be compensated - size is minimal for this
    # sweep order
    assert len(sk.elements) < len(chain.elements)


def _backward_sweep(nus, eps):
    """The skeleton indices: from each selected density, scan back from the
    top for the farthest one strictly less than eps above it."""
    selected, s = [0], 0
    while s < len(nus) - 1:
        t = s + 1
        for j in range(len(nus) - 1, s, -1):
            if nus[j] - nus[s] < eps:
                t = j
                break
        selected.append(t)
        s = t
    return selected


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.integers(0, d - 1), min_size=1, max_size=12).map(sorted),
            st.integers(1, 2 * d),
        )
    )
)
@example((4, [0, 0, 2, 2, 2, 3], 2))
def test_skeleton_matches_the_backward_sweep(case):
    # element i has density ks[i]/d: the first ks[i] residues mod d, plus the
    # points d*j - 1 (j <= i), all in the residue d - 1, to keep ties distinct
    d, ks, eps_num = case
    elements = []
    for i, k in enumerate(ks):
        parts = [c.Residue(d, frozenset(range(k)))] if k else []
        if i:
            parts.append(c.Explicit(tuple(d * j - 1 for j in range(1, i + 1))))
        e = parts[0] if parts else c.Empty()
        for p in parts[1:]:
            e = c.Union(e, p)
        elements.append(e)
    chain = c.verify_chain(elements, d * (len(ks) + 1))
    assert chain.elements == tuple(elements)
    eps = Fraction(eps_num, d)
    want = _backward_sweep([Fraction(k, d) for k in ks], eps)
    assert c.skeleton(chain, eps).elements == tuple(elements[i] for i in want)


def test_maximal_extension_saturates():
    chain = c.verify_chain(residue_chain([1, 2]), 100)
    maximal = c.maximal_extension(chain, 6)
    assert len(maximal.elements) == 7
    masks = [c.indicator(e, 6) for e in maximal.elements]
    for k, (a, b) in enumerate(zip(masks, masks[1:])):
        assert not np.any(a & ~b)
        assert int(b.sum()) == int(a.sum()) + 1
    # restrictions of the original chain all occur
    for e in chain.elements:
        target = c.indicator(e, 6)
        assert any(np.array_equal(target, m) for m in masks)


def test_maximal_extension_universe_cap():
    chain = c.verify_chain([c.All()], 10)
    with pytest.raises(c.ChainError):
        c.maximal_extension(chain, 10**4 + 1)


# ---------------------------------------------------------------------------
# chunk boundaries of the uniformity certificate


def first(k):
    """{1, ..., k}: density 0, and |c_n/n| >= 1/2 exactly for n <= 2k."""
    return c.Compl(c.Shift(k, c.All()))


@pytest.mark.parametrize(
    "ks, horizon, n_eps",
    [
        ((_CHUNK // 2,), 3 * _CHUNK + 17, _CHUNK),  # N_eps on the first boundary
        ((_CHUNK,), 3 * _CHUNK + 17, 2 * _CHUNK),  # ... and on the second
        ((1000, 50_000), 3 * _CHUNK + 17, 100_000),  # inside the second chunk
        ((_CHUNK // 2 + 1,), 2 * _CHUNK, _CHUNK + 2),  # just past the boundary
    ],
)
def test_uniformity_check_n_eps_at_chunk_boundaries(ks, horizon, n_eps):
    chain = c.verify_chain([first(k) for k in ks], 2 * max(ks) + 1)
    got = c.uniformity_check(chain, Fraction(1, 2), horizon)
    assert got == one_pass_uniformity(chain, Fraction(1, 2), horizon)
    assert got.n_epsilon == n_eps


def test_uniformity_failure_at_horizon_past_chunks():
    chain = c.verify_chain([first(10), first(_CHUNK + 100)], 10**4)
    got = c.uniformity_check(chain, Fraction(1, 2), 2 * _CHUNK + 5)
    assert isinstance(got, c.UniformityFailure)
    assert got == one_pass_uniformity(chain, Fraction(1, 2), 2 * _CHUNK + 5)
    assert got.n == 2 * _CHUNK + 5 and got.element_index == 1


@settings(max_examples=30, deadline=None)
@given(
    bits=st.integers(0, 2**9 - 1),
    js=st.sets(st.integers(1, 9), min_size=1, max_size=4),
    prefix=st.integers(2, 2 * _CHUNK),
    eps=st.sampled_from([Fraction(1, 2), Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)]),
    horizon=st.integers(_CHUNK - 2, 3 * _CHUNK + 17),
)
@example(bits=5, js={1, 2, 3}, prefix=3000, eps=Fraction(1, 100), horizon=3 * _CHUNK + 17)
@example(bits=0, js={1}, prefix=_CHUNK, eps=Fraction(1, 10), horizon=2 * _CHUNK)
def test_uniformity_check_across_chunks_matches_one_pass_scan(bits, js, prefix, eps, horizon):
    # the largest element also holds 1..prefix, which delays its convergence
    elements = [c.Residue(2**j, frozenset({bits % 2**j})) for j in sorted(js)]
    elements[0] = c.Union(elements[0], first(prefix))
    chain = c.verify_chain(elements, 1024)
    assert c.uniformity_check(chain, eps, horizon) == one_pass_uniformity(chain, eps, horizon)


@pytest.mark.parametrize("horizon", [0, -1])
def test_uniformity_check_rejects_empty_horizon(horizon):
    chain = c.verify_chain(residue_chain([1, 2]), 100)
    with pytest.raises(c.ChainError, match="horizon"):
        c.uniformity_check(chain, Fraction(1, 10), horizon)


# ---------------------------------------------------------------------------
# maximal extension against the bitmask construction


def bitmask_maximal_extension(chain, u):
    """Reference: the saturated chain built as Python-int bitmasks, one
    per cardinality, each written out bit by bit."""

    def restrict(e):
        mask = 0
        for i in np.flatnonzero(c.indicator(e, u)):
            mask |= 1 << int(i)
        return mask

    def mask_expr(mask):
        if mask == 0:
            return c.Empty()
        return c.Explicit(tuple(i + 1 for i in range(u) if mask >> i & 1))

    full = (1 << u) - 1
    masks = sorted({restrict(e) for e in chain.elements} | {0, full}, key=int.bit_count)
    result = [0]
    for small, big in zip(masks, masks[1:]):
        cur, diff = small, big & ~small
        while diff:
            low = diff & -diff
            cur |= low
            diff &= ~low
            result.append(cur)
    elements = tuple(mask_expr(m) for m in result)
    evidence = tuple(
        c.OrderEvidence("structural", u, "explicit containment") for _ in range(u)
    )
    return c.Chain(elements, evidence, u)


@pytest.mark.parametrize("u", [1, 63, 64, 65, 500])
@pytest.mark.parametrize("seed", range(3))
def test_maximal_extension_matches_bitmask_construction(u, seed):
    rng = random.Random(seed)
    bits = rng.getrandbits(9)
    js = rng.sample(range(1, 10), rng.randint(1, 6))
    chain = c.verify_chain([c.Residue(2**j, frozenset({bits % 2**j})) for j in js], 1024)
    assert c.maximal_extension(chain, u) == bitmask_maximal_extension(chain, u)


@pytest.mark.parametrize("u", [1, 64, 500])
def test_maximal_extension_rungs_are_public_explicit_sets(u):
    chain = c.verify_chain(residue_chain([1, 3, 5]), 1024)
    rungs = c.maximal_extension(chain, u).elements[1:]
    assert len(rungs) == u
    for rung in rungs:
        public = c.Explicit(tuple(rung.elements))
        assert type(rung) is c.Explicit
        assert rung == public and hash(rung) == hash(public)


@pytest.mark.parametrize(
    "elements, message",
    [
        ((0,), ">= 1"),
        ((2, 1), "strictly increasing"),
        ((3, 0), ">= 1"),
        ((1, 4, 4), "strictly increasing"),
        ((-2, 5), ">= 1"),
    ],
)
def test_explicit_rejections(elements, message):
    with pytest.raises(ValueError, match=f"^explicit elements must be {message}$"):
        c.Explicit(elements)


def test_explicit_rejects_more_than_max_explicit(monkeypatch):
    monkeypatch.setattr("cesaro.exprs.MAX_EXPLICIT", 3)
    assert c.Explicit((1, 2, 3)).elements == (1, 2, 3)
    with pytest.raises(ValueError, match="^explicit set larger than 3 elements$"):
        c.Explicit((1, 2, 3, 4))



@pytest.mark.parametrize(
    "elements",
    [
        (c.Explicit((6,)), c.Residue(2, frozenset({1}))),  # nested on 1..4, not on 1..6
        (c.Explicit((1, 5)), c.Explicit((1, 2))),  # nested on 1..4, equal sizes on 1..5
    ],
)
def test_maximal_extension_rejects_a_ladder_that_does_not_nest(elements):
    chain = c.verify_chain(elements, 4)
    with pytest.raises(c.ChainError, match="not nested"):
        c.maximal_extension(chain, 6)


def _greedy_union(t, extra):
    return c.Union(c.Greedy(Fraction(t)), c.Explicit(tuple(extra)))


# each chain's limits; the greedy unions are null perturbations of their
# greedy set, whose limit the exact engine cannot yet carry through a union
REPLAY_CHAINS = {
    "dyadic": (residue_chain([1, 4, 8]), None),
    "dyadic-prefix": ([c.Union(c.Residue(4, frozenset({3})), first(5000)), c.All()], None),
    "greedy": (
        [_greedy_union("1/3", [2, 5]), _greedy_union("1/3", range(1, 301))],
        [Fraction(1, 3)] * 2,
    ),
    "greedy-prefix": ([_greedy_union("5/7", range(2, 3001, 2))], [Fraction(5, 7)]),
}


@pytest.mark.parametrize("horizon", [_CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 17])
@pytest.mark.parametrize(
    "eps", [Fraction(1, 10), Fraction(1, 300), Fraction(1, 1000), Fraction(1, 10**5)]
)
@pytest.mark.parametrize("name", sorted(REPLAY_CHAINS))
def test_uniformity_check_replays_the_count_oracle(monkeypatch, name, eps, horizon):
    elements, nus = REPLAY_CHAINS[name]
    chain = c.Chain(tuple(elements), (), horizon)
    if nus is not None:
        limit = dict(zip(elements, nus))
        monkeypatch.setattr("cesaro.chains._exact_nu", limit.__getitem__)
    # N_eps and every deviation, or the failing element, N and deviation
    assert c.uniformity_check(chain, eps, horizon) == one_pass_uniformity(chain, eps, horizon, nus)


# ---------------------------------------------------------------------------
# phase tables against the masks


def _dense_only(monkeypatch):
    """No phase tables in the chain layer: every scan and every containment
    check reads masks."""
    monkeypatch.setattr("cesaro.chains._table_or_words", lambda e, h: _pack(c.indicator(e, h)))


def _greedy(t):
    return c.Greedy(Fraction(t))


#: chains (nested or not) whose elements have exact limits and phase tables
TABLE_CHAINS = {
    "dyadic": [c.Residue(2**j, frozenset({1234 % 2**j})) for j in (1, 3, 4, 6, 9)],
    "dyadic-prefix": [c.Union(c.Residue(4, frozenset({3})), first(5000)), c.All()],
    "greedy": [_greedy("1/3"), _greedy("3/7"), _greedy("1234/4999")],
    "greedy-shifted": [c.Shift(40_000, _greedy("5/7")), c.Dilate(3, _greedy("2/3"))],
    "blocks": [c.Blocks(c.Poly(1)), c.Blocks(c.Poly(2)), c.Compl(c.Blocks(c.Poly(3)))],
}


@pytest.mark.parametrize("horizon", [2**16, 3 * _CHUNK + 17, 10**6])
@pytest.mark.parametrize(
    "eps", [Fraction(1, 3), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10**5)]
)
@pytest.mark.parametrize("name", sorted(TABLE_CHAINS))
def test_uniformity_check_on_tables_matches_the_masks(monkeypatch, name, eps, horizon):
    chain = c.Chain(tuple(TABLE_CHAINS[name]), (), horizon)
    got = c.uniformity_check(chain, eps, horizon)
    if horizon < 10**6:
        assert got == one_pass_uniformity(chain, eps, horizon)
    _dense_only(monkeypatch)
    assert got == c.uniformity_check(chain, eps, horizon)


@pytest.mark.parametrize(
    "elements",
    [
        TABLE_CHAINS["dyadic"][::-1],
        [c.Residue(4, frozenset({1})), c.Residue(8, frozenset({1})), c.Residue(8, frozenset({5}))],
        [c.Blocks(c.Poly(1)), c.Union(c.Blocks(c.Poly(1)), c.Residue(7, frozenset({3}))), c.All()],
        [c.Inter(_greedy("3/7"), c.Residue(2, frozenset({0}))), _greedy("3/7"), c.Empty()],
        [_greedy("1/3"), _greedy("2/3")],  # not nested
        [c.Residue(2, frozenset({0})), c.Residue(4, frozenset({0, 2}))],  # the same set
        [c.Union(c.Residue(4, frozenset({0})), c.Explicit((999_999,))), c.Residue(2, frozenset({0}))],
    ],
)
@pytest.mark.parametrize("horizon", [2**16, 10**6])
def test_verify_chain_on_tables_matches_the_masks(monkeypatch, elements, horizon):
    def outcome():
        try:
            return c.verify_chain(elements, horizon)
        except c.ChainError as exc:
            return str(exc)

    got = outcome()
    _dense_only(monkeypatch)
    assert got == outcome()


@pytest.mark.parametrize(
    "call",
    [
        lambda chain: c.uniformity_check(chain, Fraction(1, 100), 10**4),
        lambda chain: c.dense_extension(chain, 2),
        lambda chain: c.skeleton(chain, Fraction(1, 4)),
    ],
    ids=["uniformity_check", "dense_extension", "skeleton"],
)
def test_element_without_exact_limit_is_a_chain_error(call):
    # two generators, paired's and geometric 3's, have no joint exact rule
    fuzzy = c.parse_expr("union(inter(predicate paired, blocks geometric 3), explicit{2,5})")
    chain = c.verify_chain([c.Empty(), fuzzy, c.All()], 1000)
    assert chain.elements[1] == fuzzy
    with pytest.raises(c.ChainError, match="^element 1 has no exact limit: Union is not exactly solvable here$"):
        call(chain)


def test_paired_element_with_points_added_has_an_exact_limit():
    # paired is the evens and the odds on alternate runs of one generator,
    # so inter it with multiples of 3 is 0 or 3 mod 6 on those runs: 1/6
    fuzzy = c.parse_expr("union(inter(predicate paired, residue 3 {0}), explicit{2,5})")
    chain = c.verify_chain([c.Empty(), fuzzy, c.All()], 1000)
    assert _exact_nus(chain.elements) == [0, Fraction(1, 6), 1]


def test_greedy_element_with_points_added_has_an_exact_limit():
    # greedy 1/3 is periodic from n = 3 on, so with finitely many points
    # added it is a fuzzy form of density 1/3
    fuzzy = c.parse_expr("union(greedy 1/3, explicit{2,5})")
    chain = c.verify_chain([c.Empty(), fuzzy, c.All()], 1000)
    assert _exact_nus(chain.elements) == [0, Fraction(1, 3), 1]
    cert = c.uniformity_check(chain, Fraction(1, 100), 10**4)
    assert max(cert.per_element_max_deviation) <= 0.01


# ---------------------------------------------------------------------------
# dense extension against a midpoint_set per gap


def reference_dense_extension(chain, k, check_horizon):
    """dense_extension built from the public calls: ``midpoint_set`` per
    gap, in the same pass and gap order, then ``verify_chain``."""
    if k < 1:
        raise c.ChainError("resolution exponent must be >= 1")
    entries = list(zip(_exact_nus(chain.elements), chain.elements))
    if not any(nu == 0 for nu, _ in entries):
        entries.append((Fraction(0), c.Empty()))
    if not any(nu == 1 for nu, _ in entries):
        entries.append((Fraction(1), c.All()))
    entries.sort(key=lambda t: t[0])
    for j in range(1, k + 1):
        pairs = list(zip(entries, entries[1:]))
        gaps = [(b[0] - a[0], a[0], i) for i, (a, b) in enumerate(pairs)]
        wide = [g for g in gaps if g[0] >= Fraction(1, 2**j)]
        for _, _, i in sorted(wide, key=lambda t: (-t[0], t[1])):
            (lo_nu, lo), (hi_nu, hi) = pairs[i]
            entries.append(((lo_nu + hi_nu) / 2, c.midpoint_set(lo, hi, check_horizon)))
        entries.sort(key=lambda t: t[0])
    return c.verify_chain([e for _, e in entries], check_horizon)


def _outcome(call):
    try:
        return call()
    except c.CesaroError as exc:
        return type(exc), str(exc)


def _held_sets(monkeypatch):
    """The (elements, sets, horizon) of each ``_verify`` call, recorded."""
    calls = []
    verify = c.chains._verify

    def recording(elems, sets, horizon):
        calls.append((elems, sets, horizon))
        return verify(elems, sets, horizon)

    monkeypatch.setattr("cesaro.chains._verify", recording)
    return calls


def _same_set(held, e, horizon):
    want = _table_or_words(e, horizon)
    assert isinstance(held, _Table) == isinstance(want, _Table)
    held, want = (r.words() if isinstance(r, _Table) else r for r in (held, want))
    assert np.array_equal(held, want)


#: a union that leaves residue 2 {0} at 5001, past a check horizon of 1000
ESCAPES_AT_5001 = c.Union(c.Residue(4, frozenset({0})), c.Explicit((5001,)))


@st.composite
def dense_chains(draw):
    bits = draw(st.integers(0, 2**9 - 1))
    dyadic = st.integers(1, 9).map(lambda j: c.Residue(2**j, frozenset({bits % 2**j})))
    leaf = st.one_of(
        dyadic,
        dyadic,  # twice as likely: chains of them nest
        st.integers(2, 24).flatmap(
            lambda q: st.integers(1, q - 1).map(lambda p: c.Greedy(Fraction(p, q)))
        ),
        st.just(ESCAPES_AT_5001),
    )
    return draw(st.lists(leaf, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(dense_chains(), st.integers(1, 4), st.sampled_from([10**3, 10**4, 2**16 + 1]))
@example([c.Residue(2, frozenset({0})), c.Residue(8, frozenset({0}))], 4, 2**16 + 1)
@example([c.Greedy(Fraction(1, 3)), c.Greedy(Fraction(2, 3))], 3, 10**4)
def test_dense_extension_matches_midpoint_set_per_gap(elements, k, horizon):
    chain = c.Chain(tuple(elements), (), 1000)
    want = _outcome(lambda: reference_dense_extension(chain, k, horizon))
    with pytest.MonkeyPatch.context() as mp:
        calls = _held_sets(mp)
        got = _outcome(lambda: c.dense_extension(chain, k, horizon))
    assert got == want
    for elems, sets, h in calls:
        for e, held in zip(elems, sets):
            _same_set(held, e, h)


@pytest.mark.parametrize("horizon", [10**4, 2**16 + 1])
def test_dense_extension_names_the_witness_past_the_verified_prefix(horizon):
    chain = c.verify_chain([ESCAPES_AT_5001, c.Residue(2, frozenset({0}))], 1000)
    message = "^lower is not contained in upper: witness 5001$"
    with pytest.raises(c.ConstructionError, match=message):
        c.dense_extension(chain, 4, horizon)
    with pytest.raises(c.ConstructionError, match=message):
        reference_dense_extension(chain, 4, horizon)


def test_dense_extension_holds_tables_in_little_memory(monkeypatch):
    chain = c.verify_chain(residue_chain(range(1, 11)))
    calls = _held_sets(monkeypatch)
    want = c.dense_extension(chain, 4, 2**20)
    (elems, sets, _), = calls
    assert len(elems) == 38 and all(isinstance(r, _Table) for r in sets)
    tracemalloc.start()
    try:
        assert c.dense_extension(chain, 4, 2**20) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # less than one mask at this horizon
