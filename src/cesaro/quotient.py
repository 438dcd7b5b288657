"""Finite Boolean algebras, ideals, quotients, monotone-class closure,
and the null-equivalence bridge back to set expressions.

Algebra carriers are small (exhaustive axiom checking is the point), so
elements are plain handles 0..size-1 with functional operations; power
set algebras use bitmasks as labels.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

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
    """Boolean algebra on handles 0..size-1 with table-free operations."""

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
        """Identity, complement, commutative, associative, absorption and
        distributive laws.  Exhaustive for small carriers, sampled above
        MAX_EXHAUSTIVE_CARRIER."""
        n = self.size
        for a in range(n):
            if self.join(a, self.zero) != a or self.meet(a, self.one) != a:
                raise QuotientError(f"identity law fails at {a}")
            if self.join(a, self.compl(a)) != self.one:
                raise QuotientError(f"complement join law fails at {a}")
            if self.meet(a, self.compl(a)) != self.zero:
                raise QuotientError(f"complement meet law fails at {a}")
        for a in range(n):
            for b in range(n):
                if self.join(a, b) != self.join(b, a):
                    raise QuotientError(f"join commutativity fails at {a},{b}")
                if self.meet(a, b) != self.meet(b, a):
                    raise QuotientError(f"meet commutativity fails at {a},{b}")
        if n <= MAX_EXHAUSTIVE_CARRIER:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = random.Random(seed)
            triples = (
                tuple(rng.randrange(n) for _ in range(3))
                for _ in range(sample_triples)
            )
        for a, b, c in triples:
            if self.meet(a, self.join(b, c)) != self.join(
                self.meet(a, b), self.meet(a, c)
            ):
                raise QuotientError(f"distributivity fails at {a},{b},{c}")
            if self.join(a, self.meet(b, c)) != self.meet(
                self.join(a, b), self.join(a, c)
            ):
                raise QuotientError(f"dual distributivity fails at {a},{b},{c}")
            if self.join(a, self.join(b, c)) != self.join(self.join(a, b), c):
                raise QuotientError(f"join associativity fails at {a},{b},{c}")
            if self.meet(a, self.meet(b, c)) != self.meet(self.meet(a, b), c):
                raise QuotientError(f"meet associativity fails at {a},{b},{c}")


def _algebra_from_ops(labels, join, meet, compl, zero, one) -> FiniteAlgebra:
    n = len(labels)
    joins = tuple(tuple(join(a, b) for b in range(n)) for a in range(n))
    meets = tuple(tuple(meet(a, b) for b in range(n)) for a in range(n))
    compls = tuple(compl(a) for a in range(n))
    return FiniteAlgebra(tuple(labels), joins, meets, compls, zero, one)


def build_algebra(n: int) -> FiniteAlgebra:
    """Power-set algebra on {1..n}, n <= 10 (4^n-entry tables); handles are subset bitmasks."""
    if not (0 <= n <= 10):
        raise QuotientError("universe size must lie in 0..10")
    size = 1 << n
    full = size - 1
    alg = _algebra_from_ops(
        labels=tuple(range(size)),
        join=lambda a, b: a | b,
        meet=lambda a, b: a & b,
        compl=lambda a: full & ~a,
        zero=0,
        one=full,
    )
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
    qalg = _algebra_from_ops(
        labels=tuple(reps),
        join=lambda a, b: class_of[alg.join(reps[a], reps[b])],
        meet=lambda a, b: class_of[alg.meet(reps[a], reps[b])],
        compl=lambda a: class_of[alg.compl(reps[a])],
        zero=class_of[alg.zero],
        one=class_of[alg.one],
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

