"""Finite Boolean algebras, ideals, quotients, monotone-class closure,
and the null-equivalence bridge back to set expressions.

Algebra carriers are small (exhaustive axiom checking is the point), so
elements are plain handles 0..size-1 with functional operations; power
set algebras use bitmasks as labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exprs import CesaroError, Diff, Empty, Inter, SetExpr, SymDiff, Union
from .limits import (
    DEFAULT_HORIZON,
    DEFAULT_TOLERANCE,
    DEFAULT_WINDOW,
    NotExactlySolvable,
    _estimate,
    exact_limits,
)
from .nullmod import disjoint_modify

#: exhaustive triple-law checking is cubic in the carrier
MAX_EXHAUSTIVE_CARRIER = 64


class QuotientError(CesaroError):
    pass


@dataclass(frozen=True)
class FiniteAlgebra:
    """Boolean algebra on handles 0..size-1, its operations given by tables.

    The tuples are the algebra.  ``_tables`` holds its join, meet and
    complement tables as read-only intp arrays, derived from the tuples once
    at construction, for the checks below to read as lookups."""

    labels: tuple  # label per handle, for printing
    joins: tuple[tuple[int, ...], ...]
    meets: tuple[tuple[int, ...], ...]
    compls: tuple[int, ...]
    zero: int
    one: int
    _tables: tuple[np.ndarray, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        tables = tuple(np.array(t, dtype=np.intp) for t in (self.joins, self.meets, self.compls))
        for t in tables:
            t.flags.writeable = False
        object.__setattr__(self, "_tables", tables)

    @property
    def size(self) -> int:
        return len(self.labels)

    def join(self, a: int, b: int) -> int:
        return self.joins[a][b]

    def meet(self, a: int, b: int) -> int:
        return self.meets[a][b]

    def compl(self, a: int) -> int:
        return self.compls[a]

    def sym_add(self, a: int, b: int) -> int:
        return self.join(self.meet(a, self.compl(b)), self.meet(self.compl(a), b))

    def le(self, a: int, b: int) -> bool:
        return self.meet(a, b) == a

    def check_axioms(self, sample_triples: int = 10**4, seed: int = 0) -> None:
        """Identity, complement, commutative, associative and distributive
        laws, as table lookups over all handles, pairs and triples (sampled
        above MAX_EXHAUSTIVE_CARRIER) at once.  The failure raised is the one
        a loop over them in that order, trying the laws below in turn, meets first."""
        n = self.size
        join, meet, c = self._tables
        a = np.arange(n)
        _first_failure(
            (a,),
            ("identity law fails", (join[a, self.zero] != a) | (meet[a, self.one] != a)),
            ("complement join law fails", join[a, c] != self.one),
            ("complement meet law fails", meet[a, c] != self.zero),
        )
        a, b = a[:, None], a
        _first_failure(
            (a, b),
            ("join commutativity fails", join[a, b] != join[b, a]),
            ("meet commutativity fails", meet[a, b] != meet[b, a]),
        )
        if n <= MAX_EXHAUSTIVE_CARRIER:
            a, b, c = a[:, None], b[:, None], b
        else:
            rng = random.Random(seed)
            draws = [rng.randrange(n) for _ in range(3 * sample_triples)]
            a, b, c = np.array(draws, dtype=np.intp).reshape(-1, 3).T
        _first_failure(
            (a, b, c),
            ("distributivity fails", meet[a, join[b, c]] != join[meet[a, b], meet[a, c]]),
            ("dual distributivity fails", join[a, meet[b, c]] != meet[join[a, b], join[a, c]]),
            ("join associativity fails", join[a, join[b, c]] != join[join[a, b], c]),
            ("meet associativity fails", meet[a, meet[b, c]] != meet[meet[a, b], c]),
        )


def _first_failure(at: tuple[np.ndarray, ...], *laws: tuple[str, np.ndarray]) -> None:
    """Raise for the first position, in C order, where a law fails, naming
    the first law failing there and the handles ``at`` holds there."""
    if not any(bad.any() for _, bad in laws):
        return
    fails = np.stack([bad for _, bad in laws])
    hit = np.flatnonzero(fails.any(axis=0))[0]
    name = laws[int(fails.reshape(len(laws), -1)[:, hit].argmax())][0]
    where = ",".join(str(h.flat[hit]) for h in np.broadcast_arrays(*at))
    raise QuotientError(f"{name} at {where}")


def _subset(alg: FiniteAlgebra, handles) -> tuple[np.ndarray, np.ndarray]:
    """The handles as an array, in iteration order, and the carrier's
    membership vector of them; a handle outside the carrier raises."""
    handles = list(handles)
    for h in handles:
        if not 0 <= h < alg.size:
            raise QuotientError(f"handle {h} outside the carrier")
    at = np.array(handles, dtype=np.intp)
    inside = np.zeros(alg.size, dtype=bool)
    inside[at] = True
    return at, inside


def _algebra(labels, joins, meets, compls, zero, one) -> FiniteAlgebra:
    """A FiniteAlgebra from numpy tables, its entries Python ints."""
    tables = (tuple(map(tuple, t.tolist())) for t in (joins, meets))
    return FiniteAlgebra(tuple(labels), *tables, tuple(compls.tolist()), int(zero), int(one))


def build_algebra(n: int) -> FiniteAlgebra:
    """Power-set algebra on {1..n}, n <= 10 (4^n-entry tables); handles are subset bitmasks."""
    if not (0 <= n <= 10):
        raise QuotientError("universe size must lie in 0..10")
    h = np.arange(1 << n)
    alg = _algebra(range(h.size), h[:, None] | h, h[:, None] & h, h[-1] ^ h, 0, h[-1])
    alg.check_axioms(sample_triples=2000)
    return alg


@dataclass(frozen=True)
class Ideal:
    members: frozenset[int]

    def validate(self, alg: FiniteAlgebra) -> None:
        if not self.members:
            raise QuotientError("ideal must be nonempty")
        m, inside = _subset(alg, self.members)
        join, meet, _ = alg._tables
        p = m[:, None]
        _first_failure((p, m), ("ideal not join-closed", ~inside[join[p, m]]))
        _first_failure((p, np.arange(alg.size)), ("ideal not meet-absorbing", ~inside[meet[m]]))


@dataclass(frozen=True)
class QuotientClass:
    representative: int
    members: frozenset[int]


@dataclass(frozen=True)
class QuotientResult:
    algebra: FiniteAlgebra  # carrier handles index the classes
    classes: tuple[QuotientClass, ...]
    class_of: tuple[int, ...]  # original handle -> quotient handle


def build_quotient(alg: FiniteAlgebra, ideal: Ideal) -> QuotientResult:
    """Quotient by an ideal: p ~ q when their symmetric difference lies in
    the ideal.  Induced operations are checked well-defined exhaustively."""
    ideal.validate(alg)
    join, meet, compl = alg._tables
    inside = _subset(alg, ideal.members)[1]
    near = inside[join[meet.take(compl, 1), meet[compl]]]  # p + q lies in the ideal
    # p joins the class of the first representative near it; near need not
    # be an equivalence, as the input's axioms are not checked
    reps, cls, is_rep = [], np.empty(alg.size, dtype=np.intp), np.zeros(alg.size, dtype=bool)
    for p in range(alg.size):
        hits = near[p, is_rep]
        cls[p] = hits.argmax() if hits.any() else len(reps)
        if cls[p] == len(reps):
            reps.append(p)
            is_rep[p] = True
    ix = np.ix_(reps, reps)
    qjoin, qmeet, qcompl = cls[join[ix]], cls[meet[ix]], cls[compl[reps]]
    # well-definedness: the operation of classes is the class of the operation,
    # whatever the representatives; p's complement is checked after its pairs
    bad_compl = cls[compl] != qcompl[cls]
    rows = bad_compl.argmax() + 1 if bad_compl.any() else alg.size
    _first_failure(
        (np.arange(rows)[:, None], np.arange(alg.size)),
        ("join not well-defined", cls[join[:rows]] != qjoin[cls[:rows, None], cls]),
        ("meet not well-defined", cls[meet[:rows]] != qmeet[cls[:rows, None], cls]),
    )
    _first_failure((np.arange(alg.size),), ("complement not well-defined", bad_compl))
    qalg = _algebra(reps, qjoin, qmeet, qcompl, *cls[[alg.zero, alg.one]])
    qalg.check_axioms()
    members = (frozenset(np.flatnonzero(cls == i).tolist()) for i in range(len(reps)))
    return QuotientResult(qalg, tuple(map(QuotientClass, reps, members)), tuple(cls.tolist()))


# ---------------------------------------------------------------------------
# subalgebras and monotone closure


def generate_subalgebra(alg: FiniteAlgebra, generators) -> frozenset[int]:
    """Closure of the generators under join, meet, and complement."""
    join, meet, compl = alg._tables
    inside = _subset(alg, [*generators, alg.zero, alg.one])[1]
    while True:
        s = inside.nonzero()[0]
        inside[compl[s]] = True
        inside[join[s[:, None], s]] = True
        inside[meet[s[:, None], s]] = True
        if np.count_nonzero(inside) == s.size:
            return frozenset(s.tolist())


def is_subalgebra(alg: FiniteAlgebra, subset) -> bool:
    join, meet, compl = alg._tables
    s, inside = _subset(alg, subset)
    a = s[:, None]
    closed = inside[alg.zero] and inside[alg.one] and inside[compl[s]].all()
    return bool(closed and inside[join[a, s]].all() and inside[meet[a, s]].all())


def monotone_closure(alg: FiniteAlgebra, seed) -> frozenset[int]:
    """Least fixpoint of the seed under limits of monotone sequences.

    In a finite algebra every monotone sequence is eventually constant, so
    its limit is the join or meet of a comparable pair, which a subalgebra
    already holds: a subalgebra seed is its own closure.
    """
    s = frozenset(seed)
    if not is_subalgebra(alg, s):
        raise QuotientError("seed is not a subalgebra")
    return s


# ---------------------------------------------------------------------------
# null equivalence on set expressions


@dataclass(frozen=True)
class EquivalenceVerdict:
    value: str  # "Equivalent" | "Distinct" | "Unknown"
    evidence: str
    density: Fraction | float | None
    exact: bool


def null_equivalent(
    a: SetExpr,
    b: SetExpr,
    horizon: int = DEFAULT_HORIZON,
    tolerance: float = DEFAULT_TOLERANCE,
) -> EquivalenceVerdict:
    """Decide whether two sets differ by a null set.

    Equivalent only on exact evidence; a streamed, persistently positive
    symmetric-difference density yields Distinct; otherwise Unknown with
    a horizon note.
    """
    d = SymDiff(a, b)
    try:
        rep = exact_limits(d)
    except NotExactlySolvable:
        rep = None
    if rep is not None:
        if rep.upper == 0:
            return EquivalenceVerdict(
                "Equivalent", "exact symmetric-difference density 0", Fraction(0), True
            )
        return EquivalenceVerdict(
            "Distinct",
            f"exact upper symmetric-difference density {rep.upper}",
            rep.upper,
            True,
        )
    est, subs = _estimate(d, horizon, DEFAULT_WINDOW, tolerance)
    persistent_floor = min(mn for _, mn in subs)
    if persistent_floor > tolerance:
        return EquivalenceVerdict(
            "Distinct",
            f"streamed density stays above {tolerance} in three doubling "
            f"sub-windows up to horizon {horizon}",
            est.upper,
            False,
        )
    return EquivalenceVerdict(
        "Unknown",
        f"streamed density inconclusive at horizon {horizon}",
        est.upper,
        False,
    )


def disjoint_representatives(classes, horizon: int = DEFAULT_HORIZON) -> list[SetExpr]:
    """Pick pairwise-disjoint sets, one per input, each differing from its
    input by a null set, with densities adding to the union's density.

    Inputs must pairwise intersect in null sets (exactly or by streamed
    evidence).  Earlier inputs win overlaps; the cleanup pass then trims
    the parts so no partial average overshoots.
    """
    classes = list(classes)
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            verdict = null_equivalent(Inter(classes[i], classes[j]), Empty(), horizon)
            if verdict.value == "Distinct":
                raise QuotientError(
                    f"classes {i} and {j} intersect in a non-null set: "
                    f"{verdict.evidence}"
                )
    parts: list[SetExpr] = []
    acc: SetExpr | None = None
    for c in classes:
        parts.append(c if acc is None else Diff(c, acc))
        acc = c if acc is None else Union(acc, c)
    result = disjoint_modify(parts, horizon)
    return [m.modified_expr for m in result.modifications]

