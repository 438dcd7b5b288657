"""Builders for the named set families.

Greedy target-density sets, the divergent-intersection pair, midpoint
sets, and the dyadic partition.
"""

from __future__ import annotations

from fractions import Fraction

from .exprs import (
    CesaroError,
    Dilate,
    Greedy,
    Midpoint,
    Predicate,
    Residue,
    SetExpr,
    Shift,
    _check_mask,
    _first_outside,
    _table_or_words,
)
from .limits import NotExactlySolvable, Verdict, exact_limits


class ConstructionError(CesaroError):
    pass


def greedy_target(s) -> Greedy:
    """The greedy set with partial averages converging to s.

    Accepts Fraction, int, or a string like '2/7' or '0.125'; the value
    is held as an exact rational so membership is reproducible bit for bit.
    """
    try:
        return Greedy(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConstructionError(str(exc)) from None


def counterexample_pair() -> tuple[SetExpr, SetExpr]:
    """Two sets with density 1/2 whose intersection has no density.

    B is the evens; C picks exactly one of {2k-1, 2k} for every k, steered
    by the geometric block set A so that B ∩ C = 2A diverges.
    """
    return Residue(2, frozenset({0})), Predicate("paired")


def _check_contained(lower: SetExpr, upper: SetExpr, lo, hi, check_horizon: int) -> None:
    """Reject ``lower`` not contained in ``upper`` on the checking prefix,
    naming the least witness, from their sets there (``_table_or_words``)."""
    n = _first_outside(lower, upper, lo, hi, check_horizon)
    if n is not None:
        raise ConstructionError(f"lower is not contained in upper: witness {n}")


def midpoint_set(lower: SetExpr, upper: SetExpr, check_horizon: int = 10**4) -> SetExpr:
    """lower plus every second element of upper \\ lower, starting with the
    first element of the difference.

    For convergent endpoints the density is the average of the endpoint
    densities.  Containment is verified on a checking prefix; divergent
    endpoints (exactly known) are rejected.
    """
    _check_mask(check_horizon)
    sets = [_table_or_words(side, check_horizon) for side in (lower, upper)]
    _check_contained(lower, upper, *sets, check_horizon)
    for side in (lower, upper):
        try:
            rep = exact_limits(side)
        except NotExactlySolvable:
            continue
        if rep.verdict is not Verdict.IN_F:
            raise ConstructionError("midpoint endpoints must have convergent averages")
    return lower if lower == upper else Midpoint(lower, upper)


def dyadic_partition(kmax: int) -> list[SetExpr]:
    """D_k = 2^k times the odd numbers >= 3, for k = 0..kmax.

    Pairwise disjoint (distinct 2-adic valuations), density 1/2^(k+1),
    and every partial average sits below the density.
    """
    if not (0 <= kmax <= 30):
        raise ConstructionError("kmax must lie in 0..30")
    odds_from_3 = Shift(2, Residue(2, frozenset({1})))
    out: list[SetExpr] = []
    for k in range(kmax + 1):
        out.append(odds_from_3 if k == 0 else Dilate(2**k, odds_from_3))
    return out
