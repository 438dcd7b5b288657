"""Null modification and the chain-level maps.

The vectorized trimming pass is checked against a plain sequential
re-implementation on random inputs; the chain maps are checked for the
contracts they promise (inclusion preserved, null differences, every
partial average at or below the density)."""

import io
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cesaro as c
from cesaro.cli import main
from cesaro.exprs import _table_or_mask
from cesaro.limits import _CHUNK
from cesaro.nullmod import (
    _AUDIT_CHUNK,
    MAX_MASK,
    _AuditWriter,
    _chain_nus,
    _removed_points,
    _Table,
)
from conftest import random_fragment


def _null_modify_mask(mask, p, q):
    """Kept mask and removed indices of the trimming pass on a prefix."""
    removed = _removed_points(mask, p, q)
    kept = mask.copy()
    kept[removed] = False
    return kept, removed


def sequential_trim(mask, p, q):
    """Reference trimming pass: walk left to right, keep a member only if
    the kept count stays at or below floor(p*n/q)."""
    kept = []
    removed = []
    cnt = 0
    for i, m in enumerate(mask):
        n = i + 1
        if m and (cnt + 1) * q <= p * n:
            kept.append(True)
            cnt += 1
        else:
            kept.append(False)
            if m:
                removed.append(i)
    return np.array(kept, dtype=bool), removed


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(st.booleans(), min_size=1, max_size=200),
    p=st.integers(0, 12),
    q=st.integers(1, 12),
)
def test_trimming_pass_matches_sequential_reference(bits, p, q):
    if p > q:
        p = q  # bound must stay in [0, 1]
    mask = np.array(bits, dtype=bool)
    kept, removed_idx = _null_modify_mask(mask, p, q)
    ref_kept, ref_removed = sequential_trim(mask, p, q)
    assert np.array_equal(kept, ref_kept)
    assert list(removed_idx) == ref_removed


@settings(max_examples=100, deadline=None)
@given(
    q=st.integers(1, 10**4),
    p=st.integers(0, 10**4),
    kind=st.sampled_from(["random", "periodic", "full"]),
    length=st.integers(0, 25_000),
    seed=st.integers(0, 2**32 - 1),
)
@example(q=1, p=0, kind="full", length=0, seed=0)  # the empty mask
@example(q=7, p=0, kind="random", length=500, seed=1)  # p = 0 removes every member
@example(q=10**4, p=10**4, kind="full", length=25_000, seed=2)  # p = q removes none
@example(q=9973, p=4001, kind="periodic", length=25_000, seed=3)  # 2.5 step periods
def test_excess_kernel_matches_sequential_reference(q, p, kind, length, seed):
    p = min(p, q)
    rng = np.random.default_rng(seed)
    if kind == "random":
        mask = rng.random(length) < rng.random()
    elif kind == "periodic":
        mask = np.resize(rng.random(int(rng.integers(1, 65))) < 0.5, length)
    else:
        mask = np.ones(length, dtype=bool)
    kept, removed_idx = _null_modify_mask(mask, p, q)
    ref_kept, ref_removed = sequential_trim(mask, p, q)
    assert np.array_equal(kept, ref_kept)
    assert removed_idx.tolist() == ref_removed


def test_verify_rejects_tampered_kept_mask():
    res = c.null_modify(c.Residue(2, frozenset({1})), Fraction(1, 2), 1000)
    res.verify()
    mask = c.indicator(res.source, 1000)
    added_back = res.kept_mask.copy()
    added_back[0] = True
    with pytest.raises(c.NullModError, match="overlap"):
        replace(res, kept_mask=added_back).verify()
    dropped = res.kept_mask.copy()
    dropped[2] = False
    with pytest.raises(c.NullModError, match="partition"):
        replace(res, kept_mask=dropped).verify()
    # a partition of the source that removes 3 instead of 1: 1 alone
    # already averages above 1/2
    moved = mask.copy()
    moved[2] = False
    with pytest.raises(c.NullModError, match="exceeds"):
        replace(res, kept_mask=moved, removed=(3,)).verify()


def test_removed_density_counts_removed_elements_up_to_n():
    res = c.null_modify(c.Blocks(c.Poly(1)), Fraction(1, 2), 10**4)
    assert len(res.removed) > 10
    for n in (1, res.removed[0], res.removed[5] - 1, res.removed[5], 10**4):
        want = sum(1 for r in res.removed if r <= n)
        assert res.removed_density(n) == Fraction(want, n)


def test_null_modify_odds():
    odds = c.Residue(2, frozenset({1}))
    res = c.null_modify(odds, Fraction(1, 2), 10**4)
    assert res.removed == (1,)
    assert not res.approximate
    res.verify()
    assert res.kept_expr == c.Diff(odds, c.Explicit((1,)))
    assert res.removed_density(10**4) == Fraction(1, 10**4)


def test_null_modify_kept_average_and_removed_expr():
    res = c.null_modify(c.Residue(2, frozenset({1})), Fraction(1, 2), 100)
    assert res.removed_expr == c.Explicit((1,))
    assert [res.kept_average(n) for n in (1, 2, 3, 100)] == [0, 0, Fraction(1, 3), Fraction(49, 100)]
    for n in (0, 101):
        with pytest.raises(ValueError, match="outside"):
            res.kept_average(n)
    res = c.null_modify(c.Residue(2, frozenset({0})), Fraction(1, 2), 100)
    assert res.removed == () and res.removed_expr == c.Empty()
    assert res.kept_average(100) == Fraction(1, 2)


def test_null_modify_residue_example():
    e = c.Residue(3, frozenset({0, 1}))
    res = c.null_modify(e, Fraction(2, 3), 1000)
    assert res.removed == (1,)
    res.verify()


def test_null_modify_bound_validation():
    odds = c.Residue(2, frozenset({1}))
    with pytest.raises(c.NullModError):
        c.null_modify(odds, Fraction(1, 3), 100)  # not the exact upper limit
    with pytest.raises(c.NullModError):
        c.null_modify(odds, Fraction(3, 2), 100)


def test_null_modify_streamed_bound_is_flagged_approximate():
    # two generators, geometric 2 and paired's, have no joint exact rule
    mixed = c.Inter(c.Blocks(c.Geometric(2)), c.Predicate("paired"))
    res = c.null_modify(mixed, Fraction(1, 3), 10**4)
    assert res.approximate
    res.verify()


def test_null_modify_one_generator_bound_is_exact():
    # the evens on geometric 2's member runs: upper limit 1/3, exactly
    mixed = c.Inter(c.Blocks(c.Geometric(2)), c.Residue(2, frozenset({0})))
    res = c.null_modify(mixed, Fraction(1, 3), 10**4)
    assert not res.approximate
    res.verify()
    with pytest.raises(c.NullModError):
        c.null_modify(mixed, Fraction(1, 4), 10**4)


def test_null_modify_random_fragments_conform():
    rng = random.Random(5150)
    for _ in range(15):
        e = random_fragment(rng, 3)
        bound = c.exact_limits(e).upper
        res = c.null_modify(e, bound, 10**4)
        res.verify()
        # removals are a vanishing fraction
        assert res.removed_density(10**4) < Fraction(1, 100)


def test_export_audit():
    res = c.null_modify(c.Residue(2, frozenset({1})), Fraction(1, 2), 6)
    buf = io.StringIO()
    res.export_audit(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "N,member,kept_or_removed,running_nu"
    assert lines[1] == "1,1,removed,0"
    assert lines[3] == "3,1,kept,0.333333333333"
    assert len(lines) == 7


def per_row_audit(res):
    """Reference audit: the per-row loop the chunked writer replaced."""
    out = ["N,member,kept_or_removed,running_nu\n"]
    mask = c.indicator(res.source, res.horizon)
    kept_cnt = 0
    removed = set(res.removed)
    for n in range(1, res.horizon + 1):
        m = bool(mask[n - 1])
        if m:
            status = "removed" if n in removed else "kept"
            kept_cnt += status == "kept"
        else:
            status = ""
        out.append(f"{n},{int(m)},{status},{kept_cnt / n:.12g}\n")
    return "".join(out)


@pytest.mark.parametrize(
    "expr, bound, horizon",
    [
        ("residue 2 {1}", "1/2", 0),  # the header alone
        ("residue 2 {1}", "1/2", 1),
        ("greedy 17/199", "17/199", 2**14 + 1),  # one row past a chunk
        ("blocks poly 1", "1/2", 40_000),  # 71 removals, 3 chunks
    ],
)
def test_export_audit_matches_per_row_loop(expr, bound, horizon):
    res = c.null_modify(c.parse_expr(expr), Fraction(bound), horizon)
    buf = io.StringIO()
    res.export_audit(buf)
    assert buf.getvalue() == per_row_audit(res)


@settings(max_examples=40, deadline=None)
@given(
    expr=st.sampled_from(
        [
            "greedy 17/199",
            "blocks poly 1",
            "residue 20000 {7}",  # density below 10^-4: exponent notation
            "union(residue 20000 {7}, explicit {1,2,3,5})",  # removals, then exponent notation
            "all",
            "empty",
            "shift 3000 residue 3 {0}",  # a member-free prefix
        ]
    ),
    horizon=st.one_of(
        st.sampled_from([1, _AUDIT_CHUNK - 1, _AUDIT_CHUNK, _AUDIT_CHUNK + 1, 5 * _AUDIT_CHUNK + 17]),
        st.integers(1, 3 * _AUDIT_CHUNK),
    ),
)
def test_export_audit_matches_per_row_loop_at_chunk_edges(expr, horizon):
    e = c.parse_expr(expr)
    res = c.null_modify(e, c.exact_limits(e).upper, horizon)
    buf = io.StringIO()
    res.export_audit(buf)
    assert buf.getvalue() == per_row_audit(res)


def _rendered_nu(x):
    """running_nu of each x as the audit writer renders it, a chunk at a time."""
    out = io.StringIO()
    writer = _AuditWriter(min(x.size, _AUDIT_CHUNK))
    for a in range(0, x.size, _AUDIT_CHUNK):
        part = x[a : a + _AUDIT_CHUNK]
        writer.write(out, a, np.zeros(part.size, bool), part, np.empty(0, np.int64))
    return [row.rsplit(",", 1)[1] for row in out.getvalue().splitlines()]


def test_running_nu_matches_percent_format():
    top = 1500
    n = np.repeat(np.arange(1, top + 1), np.arange(1, top + 1))
    cnt = np.arange(1, n.size + 1) - np.repeat(np.cumsum(np.arange(top)), np.arange(1, top + 1))
    near = []  # floats next to the powers of ten where rounding carries a digit
    for p in (1e-4, 1e-3, 0.01, 0.1, 1.0):
        near += [p, *np.nextafter(p, 0) - np.arange(40) * np.spacing(p)]
        near += [p + k * np.spacing(p) for k in range(1, 41) if p < 1]
    # exact decimal ties of the 13th significant digit, such as odd c / 2^13
    ties = [c / 2**j for j in (13, 20, 33) for c in range(1, 2**13, 2)]
    x = np.concatenate([cnt / n, near, ties, [0.0, 1e-10, 2**-33]])
    assert np.all((x == 0) | ((x >= 1e-10) & (x <= 1)))
    assert _rendered_nu(x) == ["%.12g" % v for v in x.tolist()]


def percent_rows(lo, kept, x, gone):
    """Reference text of the audit rows N = lo + 1, ...: one % format per row."""
    out = set(gone.tolist())
    rows = []
    for i, (k, v) in enumerate(zip(kept.tolist(), x.tolist())):
        status = "removed" if i in out else "kept" if k else ""
        rows.append("%d,%d,%s,%.12g\n" % (lo + 1 + i, bool(status), status, v))
    return "".join(rows)


def written_rows(chunks, size=_AUDIT_CHUNK):
    """The text of chunks (lo, kept, x, gone) written in turn by one writer."""
    buf = io.StringIO()
    writer = _AuditWriter(size)
    for chunk in chunks:
        writer.write(buf, *chunk)
    return buf.getvalue()


def audit_chunk(rng, lo, x, removed=(), share=0.3):
    """Rows N = lo + 1, ... with running_nu x, random kept bits and the
    given rows removed."""
    kept = rng.random(x.size) < share
    gone = np.array(sorted(set(removed)), dtype=np.int64)
    kept[gone] = False
    return lo, kept, np.asarray(x, dtype=np.float64), gone


@pytest.mark.parametrize("boundary", [10**4, 10**5, 10**6, 10**8, 10**9])
def test_audit_rows_across_a_digit_boundary(boundary):
    # N gains a digit inside the chunk; the first and last rows are removed
    rng = np.random.default_rng(boundary)
    lo, k = boundary - 1500, 4000
    kept = rng.random(k) < 0.3
    x = (int(0.3 * lo) + np.cumsum(kept)) / np.arange(lo + 1, lo + k + 1)
    chunk = audit_chunk(rng, lo, x, removed=(0, 1499, 1500, k - 1))
    assert written_rows([chunk]) == percent_rows(*chunk)


def test_export_audit_across_the_sixth_digit():
    e = c.parse_expr("union(residue 7 {3}, explicit {1,2})")
    res = c.null_modify(e, Fraction(1, 7), 100_100)
    assert res.removed
    buf = io.StringIO()
    res.export_audit(buf)
    assert buf.getvalue() == per_row_audit(res)


@pytest.mark.parametrize("k", [100, 3000, _AUDIT_CHUNK])
def test_audit_rows_across_decades(k):
    # running_nu falls through seven decades within the chunk, in runs
    # shorter and longer than a chunk of their own, past 0 and 1
    rng = np.random.default_rng(k)
    x = 0.9 * (2e-6 / 0.9) ** (np.arange(k) / (k - 1))
    x[[0, 1, k // 2]] = 0.0, 1.0, 0.0
    ties = np.arange(1, 2**13, 2)[: k // 7] / 2**13  # exact ties of the 13th digit
    x[3 : 3 + 7 * ties.size : 7] = ties
    chunk = audit_chunk(rng, 10**5 - k // 2, x, removed=(0, 2, k - 1))
    assert written_rows([chunk]) == percent_rows(*chunk)


@pytest.mark.parametrize("edge", [0.1, 1e-4, 1e-9])
def test_audit_rows_oscillating_across_a_decade(edge):
    rng = np.random.default_rng(7)
    k = 5000
    x = edge * np.where(np.arange(k) % 3 == 0, 1.0, 1 - rng.random(k) * 0.01)
    chunk = audit_chunk(rng, 31_234, x, removed=(1, k - 2))
    assert written_rows([chunk]) == percent_rows(*chunk)


def test_audit_writer_chunks_in_turn():
    # one writer's chunks in turn, shorter and longer, in one decade or two:
    # removed rows and rows Python formats must leave nothing in the next
    rng = np.random.default_rng(11)
    size = 2048
    tie = 4097 / 2**13  # 0.5001220703125 exactly, a tie of the 13th digit
    split = np.where(np.arange(size) < size - 40, 0.5, 0.05)  # 40 rows in the next decade down
    chunks = []
    for j, (removed, ties, k, nu) in enumerate(
        [
            ((0, 5, size - 1), (1, 7, 100), size, 0.5),
            ((3,), (), size, 0.5),
            ((), (9,), size, 0.5),
            ((), (), size, 0.5),
            ((0, 1), (), 1000, 0.5),
            ((), (2,), size, 0.05),
            ((), (), 1000, 0.5),
            ((), (), size, 0.5),
            ((size - 1,), (size - 2,), size, 0.5),
            ((size - 30,), (size - 20,), size, 0.5),
            ((5,), (), size, split),
            ((6,), (), size, 0.5),
            ((size - 35,), (size - 25,), size, 0.5),
            ((7,), (), size, split[::-1]),
            ((8,), (), size, 0.5),
        ]
    ):
        x = nu + rng.random(k) * 0.01 - 0.005
        x[list(ties)] = tie
        chunks.append(audit_chunk(rng, 45_000 + j * size, x, removed))
    expected = "".join(percent_rows(*chunk) for chunk in chunks)
    assert written_rows(chunks, size) == expected


def test_export_audit_oscillating_across_a_decade():
    e = c.parse_expr("residue 10 {0}")  # running_nu 0.1 at every tenth N, below it between
    res = c.null_modify(e, Fraction(1, 10), 20_000)
    buf = io.StringIO()
    res.export_audit(buf)
    assert buf.getvalue() == per_row_audit(res)


def test_cli_audit_file_matches_per_row_loop(capsys, tmp_path):
    audit = tmp_path / "audit.csv"
    expr = "union(residue 3 {0}, explicit {1,2,4})"
    assert main(["nullmod", expr, "--horizon", "20000", "--audit", str(audit)]) == 0
    capsys.readouterr()
    res = c.null_modify(c.parse_expr(expr), Fraction(1, 3), 20_000)
    assert res.removed
    assert audit.read_text(encoding="utf-8") == per_row_audit(res)


def _averages_never_exceed(mask, nu, horizon):
    cnt = np.cumsum(mask, dtype=np.int64)
    narr = np.arange(1, horizon + 1, dtype=np.int64)
    return not np.any(cnt * nu.denominator > nu.numerator * narr)


def test_chain_psi_contracts():
    h = 10**4
    chain = [
        c.Residue(8, frozenset({0})),
        c.Residue(4, frozenset({0})),
        c.Residue(2, frozenset({0})),
        c.All(),
    ]
    out = c.chain_psi(chain, h)
    assert not out.approximate
    for mod, src in zip(out.modifications, chain):
        src_mask = c.indicator(src, h)
        assert not np.any(mod.modified_mask & ~src_mask)  # subset of input
        assert _averages_never_exceed(mod.modified_mask, mod.nu, h)
        assert len(mod.removed) < 50  # null difference on the prefix
        assert np.array_equal(
            c.indicator(mod.modified_expr, h), mod.modified_mask
        )
    mods = out.modifications
    for a, b in zip(mods, mods[1:]):
        assert not np.any(a.modified_mask & ~b.modified_mask)  # still a chain


def test_chain_psi_rejects_non_chains_and_ties():
    with pytest.raises(c.NullModError):
        c.chain_psi(
            [c.Residue(2, frozenset({0})), c.Residue(2, frozenset({1}))], 1000
        )
    with pytest.raises(c.NullModError):
        c.chain_psi(
            [c.Residue(2, frozenset({0})), c.Residue(4, frozenset({0, 2}))], 1000
        )


def test_chain_psi_user_order_is_preserved_in_output():
    h = 1000
    chain = [c.All(), c.Residue(2, frozenset({0}))]  # big one first
    out = c.chain_psi(chain, h)
    assert out.modifications[0].element == c.All()
    assert out.modifications[1].element == c.Residue(2, frozenset({0}))


def test_disjoint_modify_additivity():
    h = 10**4
    parts = [
        c.Residue(4, frozenset({0})),
        c.Residue(4, frozenset({1})),
        c.Residue(4, frozenset({2, 3})),
    ]
    out = c.disjoint_modify(parts, h)
    masks = [m.modified_mask for m in out.modifications]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            assert not np.any(masks[i] & masks[j])
    union = np.zeros(h, dtype=bool)
    total = Fraction(0)
    for mod in out.modifications:
        union |= mod.modified_mask
        total += mod.nu
    assert total == 1
    assert _averages_never_exceed(union, total, h)


def test_disjoint_modify_null_part_collapses():
    out = c.disjoint_modify(
        [c.Residue(2, frozenset({0})), c.Explicit((1, 3, 5))], 1000
    )
    assert out.modifications[1].modified_expr == c.Empty()
    assert out.modifications[1].removed == (1, 3, 5)


def test_disjoint_modify_rejects_overlap():
    with pytest.raises(c.NullModError):
        c.disjoint_modify(
            [c.Residue(2, frozenset({0})), c.Residue(4, frozenset({0}))], 1000
        )


def test_chain_phi_contracts():
    h = 10**4
    chain = [c.Empty(), c.Residue(2, frozenset({0})), c.All()]
    out = c.chain_phi(chain, h)
    mods = out.modifications
    for mod in mods:
        assert _averages_never_exceed(mod.modified_mask, mod.nu, h)
        assert len(mod.removed) + len(mod.added) < 50
        assert np.array_equal(c.indicator(mod.modified_expr, h), mod.modified_mask)
    for a, b in zip(mods, mods[1:]):
        assert not np.any(a.modified_mask & ~b.modified_mask)
        assert np.any(b.modified_mask & ~a.modified_mask)  # strict inclusion


# ---------------------------------------------------------------------------
# chunk boundaries of the member-position excess kernel


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(1, 10**4),
    p=st.integers(0, 10**4),
    kind=st.sampled_from(["random", "periodic", "full"]),
    length=st.integers(_CHUNK - 2, 3 * _CHUNK + 17),
    seed=st.integers(0, 2**32 - 1),
)
@example(q=3, p=1, kind="random", length=3 * _CHUNK + 17, seed=4)
@example(q=2, p=1, kind="periodic", length=2 * _CHUNK, seed=5)
@example(q=9973, p=9972, kind="full", length=3 * _CHUNK + 17, seed=6)
def test_excess_kernel_across_chunks_matches_sequential_reference(q, p, kind, length, seed):
    p = min(p, q)
    rng = np.random.default_rng(seed)
    if kind == "random":
        mask = rng.random(length) < rng.random()
    elif kind == "periodic":
        mask = np.resize(rng.random(int(rng.integers(1, 65))) < 0.5, length)
    else:
        mask = np.ones(length, dtype=bool)
    kept, removed_idx = _null_modify_mask(mask, p, q)
    ref_kept, ref_removed = sequential_trim(mask, p, q)
    assert np.array_equal(kept, ref_kept)
    assert removed_idx.tolist() == ref_removed


@pytest.mark.parametrize("p, q", [(0, 1), (1, 3), (1, 2), (5, 7), (1, 1)])
def test_excess_kernel_members_at_chunk_boundaries(p, q):
    # the members where floor(p*n/q) steps keep the excess at exactly 0, so
    # every extra member is a new record and is removed
    length = 3 * _CHUNK + 17
    n = np.arange(1, length + 1)
    mask = (p * n) // q > (p * (n - 1)) // q
    at = np.array([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 1])
    extra = at[~mask[at - 1]]
    mask[extra - 1] = True
    kept, removed_idx = _null_modify_mask(mask, p, q)
    ref_kept, ref_removed = sequential_trim(mask, p, q)
    assert np.array_equal(kept, ref_kept)
    assert removed_idx.tolist() == ref_removed
    assert set(extra.tolist()) <= {i + 1 for i in ref_removed}


def test_verify_rejects_tampered_masks_across_chunks():
    horizon = 3 * _CHUNK + 17
    extras = (1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 1, 3 * _CHUNK + 17)
    src = c.Union(c.Residue(2, frozenset({0})), c.Explicit(extras))
    res = c.null_modify(src, Fraction(1, 2), horizon)
    assert res.removed == extras  # the evens sit exactly at the bound
    res.verify()
    for r in extras[1:]:
        back = res.kept_mask.copy()
        back[r - 1] = True
        with pytest.raises(c.NullModError, match="overlap"):
            replace(res, kept_mask=back).verify()
        rest = tuple(x for x in res.removed if x != r)
        with pytest.raises(c.NullModError, match="exceeds"):
            replace(res, kept_mask=back, removed=rest).verify()
        with pytest.raises(c.NullModError, match="partition"):
            replace(res, removed=rest).verify()


# ---------------------------------------------------------------------------
# horizons and memory


HUGE = 10**12
DYADIC = [c.Residue(2**j, frozenset({5 % 2**j})) for j in range(1, 8)]


@pytest.mark.parametrize("horizon", [HUGE, MAX_MASK])
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda h: c.null_modify(c.Residue(2, frozenset({1})), Fraction(1, 2), h), c.NullModError),
        (lambda h: c.chain_psi(DYADIC, h), c.NullModError),
        (lambda h: c.chain_phi(DYADIC, h), c.NullModError),
        (lambda h: c.disjoint_modify(c.dyadic_partition(3), h), c.NullModError),
        (lambda h: c.verify_chain(DYADIC, h), c.ChainError),
        (
            lambda h: c.uniformity_check(c.verify_chain(DYADIC, 1024), Fraction(1, 100), h),
            c.ChainError,
        ),
    ],
    ids=["null_modify", "chain_psi", "chain_phi", "disjoint_modify", "verify_chain", "uniformity_check"],
)
def test_chain_layer_rejects_unaffordable_horizon_before_allocating(call, error, horizon):
    tracemalloc.start()
    try:
        with pytest.raises(error, match="mask limit"):
            call(horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


#: Chunked temporaries of the excess kernel: three int64 arrays and one
#: bool array of one chunk are 25 bytes per chunk element; 32 leave slack.
CHUNK_BUDGET = 32 * _CHUNK


def _peak_bytes(fn, *args):
    fn(*args)  # warm: leave one-time allocations out of the peak
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "expr, bound", [("residue 2 {1}", "1/2"), ("union(residue 3 {0}, explicit {1,2,4})", "1/3")]
)
def test_null_modify_memory_is_its_mask_plus_chunks(expr, bound):
    res, peak = _peak_bytes(c.null_modify, c.parse_expr(expr), Fraction(bound), 10**6)
    assert peak <= res.kept_mask.nbytes + CHUNK_BUDGET


def test_chain_phi_memory_is_its_masks_plus_chunks():
    out, peak = _peak_bytes(c.chain_phi, DYADIC, 10**6)
    returned = sum(m.modified_mask.nbytes for m in out.modifications)
    assert returned == 7 * 10**6
    assert peak <= returned + CHUNK_BUDGET


#: paired next to multiples of 3 with two points added, up to 10^5, joined
#: with a set over two generators (no exact rule) that has no point there
_UNSOLVED = (
    "union(union(inter(predicate paired, residue 3 {0}), explicit{2,5}),"
    " shift 100000 inter(predicate paired, blocks geometric 3))"
)


def test_chain_nus_take_the_streamed_estimate_where_the_exact_engine_fails():
    e = c.parse_expr(_UNSOLVED)
    with pytest.raises(c.NotExactlySolvable):
        c.exact_limits(e)
    assert _chain_nus([e], 10**5) == ([Fraction(4167437494792281, 25000000000000000)], True)
    # without the second generator the limit is exact: 0 or 3 mod 6 on
    # paired's generator's runs
    e = c.parse_expr("union(inter(predicate paired, residue 3 {0}), explicit{2,5})")
    assert _chain_nus([e], 10**5) == ([Fraction(1, 6)], False)
    exact = [c.Residue(2, frozenset({0})), c.Dilate(2, c.Predicate("squares"))]
    assert _chain_nus(exact, 10**5) == ([Fraction(1, 2), Fraction(0)], False)


def test_trimming_with_long_denominators_matches_the_big_int_rule():
    # p*n overflows int64 for these bounds; the trimming pass reads the
    # floors off a nearby fraction of denominator at most the mask size
    rng = np.random.default_rng(4242)
    for _ in range(60):
        q = int(rng.integers(2, 10**18))
        p = int(rng.integers(0, q + 1))
        n = int(rng.integers(1, 3000))
        mask = rng.random(n) < rng.random()
        want = sequential_trim(mask.tolist(), p, q)[1]
        assert _removed_points(mask, p, q).tolist() == want


@pytest.mark.parametrize("chain_map", [c.chain_psi, c.chain_phi])
def test_chain_maps_take_an_estimated_density(chain_map):
    e = c.parse_expr(_UNSOLVED)
    out = chain_map([e], 10**5)
    assert out.approximate
    (mod,) = out.modifications
    nu = mod.nu
    assert nu.denominator > 10**15  # the streamed estimate, as a float's decimal
    counts = np.cumsum(mod.modified_mask).tolist()
    assert all(k * nu.denominator <= nu.numerator * n for n, k in enumerate(counts, 1))


@pytest.mark.parametrize("chain_map", [c.chain_psi, c.chain_phi])
def test_chain_maps_take_a_greedy_sets_exact_density(chain_map):
    # greedy 1/3 is periodic from n = 3 on: with two points added its
    # density is still exactly 1/3
    e = c.parse_expr("union(greedy 1/3, explicit{2,5})")
    assert _chain_nus([e], 10**5) == ([Fraction(1, 3)], False)
    out = chain_map([e], 10**5)
    assert not out.approximate
    (mod,) = out.modifications
    assert mod.nu == Fraction(1, 3)
    counts = np.cumsum(mod.modified_mask).tolist()
    assert all(3 * k <= n for n, k in enumerate(counts, 1))


# ---------------------------------------------------------------------------
# phase tables against the dense pass


#: leaves with many pieces or long periods, next to the fragment's residues
TABLE_LEAVES = (
    c.Blocks(c.Geometric(2)),
    c.Blocks(c.Geometric(3)),
    c.Blocks(c.Poly(1)),
    c.Greedy(Fraction(3, 7)),
    c.Greedy(Fraction(1234, 4999)),
)


def _table_tree(rng):
    e = random_fragment(rng, 2)
    if rng.random() < 0.5:
        e = rng.choice((c.Union, c.Inter, c.Diff))(e, rng.choice(TABLE_LEAVES))
    return e


def _edited(mask, rng, dirty):
    """mask with some of its first ``dirty`` entries flipped."""
    out = mask.copy()
    flip = rng.sample(range(dirty), min(dirty, 30))
    out[flip] = ~out[flip]
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(2**16, 2**20),
    bound=st.sampled_from(["upper", "small", "long", "zero", "one"]),
    dirty=st.one_of(st.just(0), st.integers(1, 5000)),
    with_below=st.booleans(),
)
@example(seed=1, horizon=2**20, bound="upper", dirty=0, with_below=False)
@example(seed=2, horizon=2**16, bound="long", dirty=4999, with_below=True)
def test_table_trimming_matches_the_dense_pass(seed, horizon, bound, dirty, with_below):
    rng = random.Random(seed)
    e = _table_tree(rng)
    b = _table_tree(rng) if with_below else None
    tree = c.Diff(e, b) if with_below else e
    t = _table_or_mask(tree, horizon)
    if not isinstance(t, _Table):
        return  # a mask-only tree: the dense pass is the only one
    if bound == "upper":
        try:
            nu = c.exact_limits(tree).upper
        except c.NotExactlySolvable:
            nu = Fraction(rng.randint(0, 100), 100)
    else:
        # a denominator above the horizon takes the Farey path
        q = rng.randint(horizon + 1, 10**18) if bound == "long" else 50
        nu = {"small": Fraction(rng.randint(0, 50), 50), "long": Fraction(rng.randint(0, q), q)}.get(
            bound, Fraction(bound == "one")
        )
    mask = _edited(c.indicator(e, horizon), rng, dirty)
    below = _edited(c.indicator(b, horizon), rng, dirty) if with_below else None
    p, q = nu.numerator, nu.denominator
    want = _removed_points(mask, p, q, below)
    got = _removed_points(mask, p, q, below, t, dirty)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "text",
    [
        # pieces that drift down, with members, between pieces that drift up:
        # the rank steps over the first ones by the table's counts
        "union(residue 3 {0},blocks geometric 2)",
        "union(greedy 2/7,blocks geometric 3)",
        "symdiff(residue 5 {1,2},blocks poly 1)",
        "diff(residue 4 {1,2,3},blocks geometric 2)",
    ],
)
@pytest.mark.parametrize("bound", ["1/3", "1/2", "3/5", "2/3", "123456789/1000000007"])
@pytest.mark.parametrize("dirty", [0, 3000])
def test_table_trimming_steps_over_pieces_with_members(text, bound, dirty):
    horizon = 3 * _CHUNK + 17
    e, nu = c.parse_expr(text), Fraction(bound)
    t = _table_or_mask(e, horizon)
    assert isinstance(t, _Table)
    mask = _edited(c.indicator(e, horizon), random.Random(dirty), dirty)
    want = _removed_points(mask, nu.numerator, nu.denominator)
    got = _removed_points(mask, nu.numerator, nu.denominator, table=t, dirty=dirty)
    assert np.array_equal(got, want)


def test_table_trimming_matches_the_sequential_reference():
    # a table taken below TABLE_BASE: small enough for the Python loop
    rng = random.Random(77)
    for e in (*TABLE_LEAVES, *(_table_tree(rng) for _ in range(20))):
        t = c.exprs._eval(e, 6000, 6000)
        if not isinstance(t, _Table):
            continue
        mask = c.indicator(e, 6000)
        for nu in (Fraction(1, 2), Fraction(3, 7), Fraction(2, 5)):
            want = sequential_trim(mask.tolist(), nu.numerator, nu.denominator)[1]
            assert _removed_points(mask, nu.numerator, nu.denominator, table=t).tolist() == want


def _same_maps(got, want):
    assert (got.horizon, got.approximate) == (want.horizon, want.approximate)
    assert len(got.modifications) == len(want.modifications)
    for g, w in zip(got.modifications, want.modifications):
        assert (g.element, g.modified_expr, g.removed, g.added, g.nu) == (
            w.element,
            w.modified_expr,
            w.removed,
            w.added,
            w.nu,
        )
        assert np.array_equal(g.modified_mask, w.modified_mask)


def _greedy_chain(t, extra):
    g = c.Greedy(Fraction(t))
    return [g, c.Union(g, c.Residue(*extra)), c.All()]


#: chains whose elements have phase tables at these horizons
TABLE_CHAINS = {
    "dyadic": [c.Residue(2**j, frozenset({1234 % 2**j})) for j in (1, 3, 4, 6, 9)],
    "dyadic-prefix": [
        c.Union(c.Residue(8, frozenset({3})), c.Compl(c.Shift(4000, c.All()))),
        c.Union(c.Residue(4, frozenset({3})), c.Compl(c.Shift(5000, c.All()))),
    ],
    "greedy": _greedy_chain("3/7", (5, frozenset({0}))),
    "greedy-long": _greedy_chain("1234/4999", (2, frozenset({1}))),
    "blocks": [c.Empty(), c.Blocks(c.Poly(1)), c.All()],
    "blocks-poly-2": [c.Blocks(c.Poly(2)), c.All()],
}

#: pairwise-disjoint parts
TABLE_PARTS = {
    "dyadic": c.dyadic_partition(4),
    "greedy": [c.Greedy(Fraction(3, 7)), c.Compl(c.Greedy(Fraction(3, 7)))],
    "blocks": [c.Blocks(c.Poly(1)), c.Compl(c.Blocks(c.Poly(1)))],
}


def _dense_only(monkeypatch):
    """No phase tables in the chain layer: every pass scans its masks."""
    monkeypatch.setattr("cesaro.nullmod._table_or_mask", lambda e, h: c.indicator(e, h))


@pytest.mark.parametrize("horizon", [2**16, 3 * _CHUNK + 17, 10**6])
@pytest.mark.parametrize("name", sorted(TABLE_CHAINS))
@pytest.mark.parametrize("chain_map", [c.chain_psi, c.chain_phi], ids=["psi", "phi"])
def test_chain_maps_on_tables_match_the_dense_passes(monkeypatch, chain_map, name, horizon):
    elements = TABLE_CHAINS[name]
    got = chain_map(list(reversed(elements)), horizon)
    _dense_only(monkeypatch)
    _same_maps(got, chain_map(list(reversed(elements)), horizon))


@pytest.mark.parametrize("horizon", [2**16, 10**6])
@pytest.mark.parametrize("name", sorted(TABLE_PARTS))
def test_disjoint_modify_on_tables_matches_the_dense_passes(monkeypatch, name, horizon):
    got = c.disjoint_modify(TABLE_PARTS[name], horizon)
    _dense_only(monkeypatch)
    _same_maps(got, c.disjoint_modify(TABLE_PARTS[name], horizon))


@pytest.mark.parametrize("source", ["residue 6 {1,2,5}", "greedy 17/199", "blocks geometric 2", "blocks poly 1"])
def test_null_modify_on_tables_matches_the_dense_pass(monkeypatch, source):
    e, horizon = c.parse_expr(source), 3 * _CHUNK + 17
    got = c.null_modify(e, c.exact_limits(e).upper, horizon)
    got.verify()
    _dense_only(monkeypatch)
    want = c.null_modify(e, c.exact_limits(e).upper, horizon)
    assert got.removed == want.removed and np.array_equal(got.kept_mask, want.kept_mask)
    assert got.removed == tuple(i + 1 for i in sequential_trim(c.indicator(e, horizon).tolist(), *got.bound.as_integer_ratio())[1])
