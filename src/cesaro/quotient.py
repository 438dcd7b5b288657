"""Finite Boolean algebras, ideals, quotients, monotone-class closure,
and the null-equivalence bridge back to set expressions.

Algebra carriers are small (exhaustive axiom checking is the point), so
elements are plain handles 0..size-1 with functional operations; power
set algebras use bitmasks as labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
    """Boolean algebra on handles 0..size-1, its operations given by tables."""

    labels: tuple  # label per handle, for printing
    joins: tuple[tuple[int, ...], ...]
    meets: tuple[tuple[int, ...], ...]
    compls: tuple[int, ...]
    zero: int
    one: int

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
        join, meet = np.array(self.joins, dtype=np.intp), np.array(self.meets, dtype=np.intp)
        a, c = np.arange(n), np.array(self.compls, dtype=np.intp)
        _first_failure(
            (a,),
            ("identity law", (join[a, self.zero] != a) | (meet[a, self.one] != a)),
            ("complement join law", join[a, c] != self.one),
            ("complement meet law", meet[a, c] != self.zero),
        )
        a, b = a[:, None], a
        _first_failure(
            (a, b),
            ("join commutativity", join[a, b] != join[b, a]),
            ("meet commutativity", meet[a, b] != meet[b, a]),
        )
        if n <= MAX_EXHAUSTIVE_CARRIER:
            a, b, c = a[:, None], b[:, None], b
        else:
            rng = random.Random(seed)
            draws = [rng.randrange(n) for _ in range(3 * sample_triples)]
            a, b, c = np.array(draws, dtype=np.intp).reshape(-1, 3).T
        _first_failure(
            (a, b, c),
            ("distributivity", meet[a, join[b, c]] != join[meet[a, b], meet[a, c]]),
            ("dual distributivity", join[a, meet[b, c]] != meet[join[a, b], join[a, c]]),
            ("join associativity", join[a, join[b, c]] != join[join[a, b], c]),
            ("meet associativity", meet[a, meet[b, c]] != meet[meet[a, b], c]),
        )


def _first_failure(at: tuple[np.ndarray, ...], *laws: tuple[str, np.ndarray]) -> None:
    """Raise for the first position, in C order, where a law fails, naming
    the first law failing there and the handles ``at`` holds there."""
    fails = np.stack([bad for _, bad in laws])
    hit = np.flatnonzero(fails.any(axis=0))
    if hit.size:
        name = laws[int(fails.reshape(len(laws), -1)[:, hit[0]].argmax())][0]
        where = ",".join(str(h.flat[hit[0]]) for h in np.broadcast_arrays(*at))
        raise QuotientError(f"{name} fails at {where}")


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
        for p in self.members:
            if not (0 <= p < alg.size):
                raise QuotientError(f"handle {p} outside the carrier")
        for p in self.members:
            for q in self.members:
                if alg.join(p, q) not in self.members:
                    raise QuotientError(f"ideal not join-closed at {p},{q}")
        for p in self.members:
            for x in range(alg.size):
                if alg.meet(p, x) not in self.members:
                    raise QuotientError(f"ideal not meet-absorbing at {p},{x}")


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
    members = ideal.members
    reps: list[int] = []
    class_of = [-1] * alg.size
    classes: list[set[int]] = []
    for p in range(alg.size):
        for ci, r in enumerate(reps):
            if alg.sym_add(p, r) in members:
                class_of[p] = ci
                classes[ci].add(p)
                break
        else:
            class_of[p] = len(reps)
            reps.append(p)
            classes.append({p})
    # well-definedness: the operation of classes is the class of the
    # operation, whatever the representatives
    for p in range(alg.size):
        for q in range(alg.size):
            if class_of[alg.join(p, q)] != class_of[alg.join(reps[class_of[p]], reps[class_of[q]])]:
                raise QuotientError(f"join not well-defined at {p},{q}")
            if class_of[alg.meet(p, q)] != class_of[alg.meet(reps[class_of[p]], reps[class_of[q]])]:
                raise QuotientError(f"meet not well-defined at {p},{q}")
        if class_of[alg.compl(p)] != class_of[alg.compl(reps[class_of[p]])]:
            raise QuotientError(f"complement not well-defined at {p}")
    cls, at = np.array(class_of), np.array(reps)
    qalg = _algebra(
        reps,
        cls[np.array(alg.joins)[np.ix_(at, at)]],
        cls[np.array(alg.meets)[np.ix_(at, at)]],
        cls[np.array(alg.compls)[at]],
        class_of[alg.zero],
        class_of[alg.one],
    )
    qalg.check_axioms()
    out_classes = tuple(
        QuotientClass(reps[i], frozenset(classes[i])) for i in range(len(reps))
    )
    return QuotientResult(qalg, out_classes, tuple(class_of))


# ---------------------------------------------------------------------------
# subalgebras and monotone closure


def generate_subalgebra(alg: FiniteAlgebra, generators) -> frozenset[int]:
    """Closure of the generators under join, meet, and complement."""
    cur = set(generators) | {alg.zero, alg.one}
    while True:
        new = set()
        for a in cur:
            c = alg.compl(a)
            if c not in cur:
                new.add(c)
            for b in cur:
                for x in (alg.join(a, b), alg.meet(a, b)):
                    if x not in cur:
                        new.add(x)
        if not new:
            return frozenset(cur)
        cur |= new


def is_subalgebra(alg: FiniteAlgebra, subset) -> bool:
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

