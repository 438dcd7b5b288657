"""Command-line front end.

Subcommands: eval, limits, trace, nullmod, chain, quotient, repro.
Exit codes: 0 success/decided, 2 parse or usage error, 3 Unknown verdict,
4 null-modification error, 5 chain error, 6 quotient error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import constructions, quotient as quotient_mod
from .chains import (
    ChainError,
    UniformityCertificate,
    dense_extension,
    maximal_extension,
    skeleton,
    uniformity_check,
    verify_chain,
)
from .constructions import ConstructionError
from .dsl import ParseError, format_expr, parse_expr
from .exprs import (
    Blocks,
    CesaroError,
    Dilate,
    Geometric,
    Inter,
    Poly,
    Predicate,
    Residue,
    Union,
    gap_functions,
    indicator,
    partial_average,
)
from .limits import (
    DEFAULT_HORIZON,
    DEFAULT_TOLERANCE,
    DEFAULT_WINDOW,
    NotExactlySolvable,
    Verdict,
    classify,
    estimate_limits,
    exact_limits,
)
from .nullmod import NullModError, null_modify
from .quotient import Ideal, QuotientError, build_algebra, build_quotient, monotone_closure


class UsageError(Exception):
    """A missing or unreadable input named on the command line."""


def _default_horizon(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get("CESARO_DEFAULT_HORIZON")
    if not raw:
        return DEFAULT_HORIZON
    try:
        horizon = int(raw)
    except ValueError:
        horizon = 0
    if horizon < 1:
        parser.error(f"CESARO_DEFAULT_HORIZON must be a positive integer, got {raw!r}")
    return horizon


def _fmt_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator} = {float(x):.12g}"


def _fraction(text: str) -> Fraction:
    """argparse type of ``--bound`` and ``--epsilon``: p/q or a decimal."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction p/q or a decimal: {text!r}") from None


def _open(path: str, mode: str = "r"):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot open {path}: {exc.strerror}") from None


def _read_chain_file(path: str):
    with _open(path) as fh:
        try:
            lines = [line.strip() for line in fh]
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return [parse_expr(line) for line in lines if line and not line.startswith("#")]


def _read_spec(path: str | None, flag: str, universe: int):
    """The power-set algebra and member masks of a JSON spec file
    {"universe": n, "members": [[...], ...]}; universe defaults to --universe."""
    if path is None:
        raise UsageError(f"{flag} FILE is required")
    with _open(path) as fh:
        try:
            spec = json.load(fh)
            universe = spec.get("universe", universe)
            alg = build_algebra(universe)
            masks = frozenset(_subset_to_mask(s, universe) for s in spec["members"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise UsageError(f"{path}: not a JSON spec of a universe and members: {exc!r}") from None
    return universe, alg, masks


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True))
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> int:
    e = parse_expr(args.expr)
    print(_fmt_rational(partial_average(e, args.N)))
    return 0


def cmd_limits(args) -> int:
    e = parse_expr(args.expr)
    try:
        rep = exact_limits(e)
    except NotExactlySolvable:
        rep = estimate_limits(e, args.horizon, args.window, args.tolerance)
    _emit(rep.as_dict())
    return 3 if rep.verdict is Verdict.UNKNOWN else 0


def cmd_trace(args) -> int:
    if args.horizon < 2:
        raise ParseError("trace horizon must be >= 2", 0)
    e = parse_expr(args.expr)
    mask = indicator(e, args.horizon)
    ns = []
    i = 0
    while True:
        n = int(2 ** (i / 8))
        if n > args.horizon:
            break
        if not ns or n > ns[-1]:
            ns.append(n)
        i += 1
    if ns[-1] != args.horizon:
        ns.append(args.horizon)
    sys.stdout.write("N,nu_N\n")
    count = prev = 0
    for n in ns:
        count += int(np.count_nonzero(mask[prev:n]))
        prev = n
        sys.stdout.write(f"{n},{count / n:.12g}\n")
    return 0


def cmd_nullmod(args) -> int:
    e = parse_expr(args.expr)
    bound = args.bound if args.bound is not None else exact_limits(e).upper
    # open the audit file first, so an unusable path fails before the trim
    with _open(args.audit, "w") if args.audit else contextlib.nullcontext() as fh:
        result = null_modify(e, bound, args.horizon)
        if fh is not None:
            result.export_audit(fh)
    _emit(
        {
            "bound": f"{result.bound.numerator}/{result.bound.denominator}",
            "horizon": result.horizon,
            "removed": list(result.removed),
            "kept_count": int(result.kept_mask.sum()),
            "approximate": result.approximate,
        }
    )
    return 0


def cmd_chain(args) -> int:
    elements = _read_chain_file(args.chainfile)
    if args.action == "certify":
        chain = verify_chain(elements, min(args.horizon, 10**4))
        outcome = uniformity_check(chain, args.epsilon, args.horizon)
        if isinstance(outcome, UniformityCertificate):
            _emit(outcome.as_dict())
            return 0
        _emit(
            {
                "failure": {
                    "element": format_expr(outcome.element),
                    "N": outcome.n,
                    "deviation": outcome.deviation,
                }
            }
        )
        return 5
    if args.action == "verify":
        chain = verify_chain(elements, args.horizon)
    elif args.action == "dense":
        chain = dense_extension(verify_chain(elements, min(args.horizon, 10**4)), args.k)
    elif args.action == "skeleton":
        chain = skeleton(verify_chain(elements, min(args.horizon, 10**4)), args.epsilon)
    else:  # maximal
        chain = maximal_extension(verify_chain(elements, max(args.universe, 2)), args.universe)
    _emit({"elements": [format_expr(e) for e in chain.elements]})
    return 0


def _subset_to_mask(subset, universe: int) -> int:
    mask = 0
    for x in subset:
        if not (1 <= x <= universe):
            raise QuotientError(f"element {x} outside universe 1..{universe}")
        mask |= 1 << (x - 1)
    return mask


def _mask_to_subset(mask: int, universe: int) -> list[int]:
    return [i + 1 for i in range(universe) if mask >> i & 1]


def cmd_quotient(args) -> int:
    if args.action == "closure":
        universe, alg, seed = _read_spec(args.seed, "--seed", args.universe)
        closure = monotone_closure(alg, seed)
        _emit({"closure": sorted(_mask_to_subset(m, universe) for m in closure)})
        return 0
    if args.action == "build":
        universe, alg, members = _read_spec(args.ideal, "--ideal", args.universe)
        result = build_quotient(alg, Ideal(members))
        _emit(
            {
                "carrier_size": result.algebra.size,
                "classes": [
                    sorted(_mask_to_subset(m, universe) for m in cls.members)
                    for cls in result.classes
                ],
            }
        )
        return 0
    # nulleq
    if args.expr_b is None:
        raise UsageError("quotient nulleq takes two expressions")
    verdict = quotient_mod.null_equivalent(
        parse_expr(args.expr_a), parse_expr(args.expr_b), args.horizon
    )
    density = verdict.density
    _emit(
        {
            "verdict": verdict.value,
            "evidence": verdict.evidence,
            "density": None if density is None else float(density),
            "exact": verdict.exact,
        }
    )
    return 3 if verdict.value == "Unknown" else 0


# ---------------------------------------------------------------------------
# repro: the checks tied to displayed values


def _repro_checks():
    evens = Residue(2, frozenset({0}))
    geo = Blocks(Geometric(2))

    def residue_densities():
        return all(
            exact_limits(Residue(m, frozenset({0}))).limit == Fraction(1, m)
            for m in (2, 3, 5, 7, 100)
        )

    def geometric_limits():
        rep = exact_limits(geo)
        return rep.upper == Fraction(2, 3) and rep.lower == Fraction(1, 3)

    def poly_limit():
        return all(
            exact_limits(Blocks(Poly(q))).limit == Fraction(1, 2) for q in (1, 2, 3)
        )

    def counterexample_one_per_pair():
        b, c = constructions.counterexample_pair()
        if exact_limits(b).limit != Fraction(1, 2):
            return False
        arr = indicator(c, 2 * 10**5)
        return bool(np.all(arr[0::2] ^ arr[1::2]))

    def counterexample_doubles():
        b, c = constructions.counterexample_pair()
        inter = indicator(Inter(b, c), 10**5)
        doubles = indicator(Dilate(2, geo), 10**5)
        return bool(np.array_equal(inter, doubles))

    def primes_null():
        return classify(Predicate("primes")).kind == "Null"

    def evens_in_f():
        cls = classify(evens)
        return cls.kind == "InF" and cls.report.limit == Fraction(1, 2)

    def dyadic_partial_averages():
        parts = constructions.dyadic_partition(5)
        for k, d in enumerate(parts):
            if exact_limits(d).limit != Fraction(1, 2 ** (k + 1)):
                return False
            cnt = np.cumsum(indicator(d, 10**5), dtype=np.int64)
            narr = np.arange(1, 10**5 + 1, dtype=np.int64)
            if np.any(cnt * 2 ** (k + 1) > narr):
                return False
        return True

    def nullmod_odds():
        odds = Residue(2, frozenset({1}))
        return null_modify(odds, Fraction(1, 2), 10**5).removed == (1,)

    def uniformity_rejects_divergent():
        chain = verify_chain([geo], 1000)
        try:
            uniformity_check(chain, Fraction(1, 100), 10**4)
        except ChainError:
            return True
        return False

    def null_perturbation_equivalent():
        verdict = quotient_mod.null_equivalent(
            evens, Union(evens, Predicate("pow2"))
        )
        return verdict.value == "Equivalent" and verdict.exact

    def simplest_algebra():
        return build_algebra(1).size == 2

    def poly_gap_bracket():
        e = Blocks(Poly(2))
        ratios = []
        for n in range(3, 9):
            z2n = sum(j**2 for j in range(1, 2 * n + 1))
            pair = gap_functions(e, z2n, 4 * z2n)
            if pair.p is None:
                return False
            ratios.append(pair.p ** (3 / 2) / z2n)
        first = ratios[0]
        return all(first / 4 <= r <= 4 * first for r in ratios)

    return [
        ("residue-densities", residue_densities),
        ("geometric-block-limits", geometric_limits),
        ("poly-block-limit", poly_limit),
        ("counterexample-one-per-pair", counterexample_one_per_pair),
        ("counterexample-intersection-doubles", counterexample_doubles),
        ("primes-null", primes_null),
        ("evens-in-F", evens_in_f),
        ("dyadic-partition", dyadic_partial_averages),
        ("nullmod-odds-removes-1", nullmod_odds),
        ("uniformity-rejects-divergent", uniformity_rejects_divergent),
        ("null-perturbation-equivalent", null_perturbation_equivalent),
        ("two-element-algebra", simplest_algebra),
        ("poly-gap-bracket", poly_gap_bracket),
    ]


def cmd_repro(args) -> int:
    failures = 0
    for name, check in _repro_checks():
        try:
            ok = check()
        except CesaroError:
            ok = False
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += not ok
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cesaro")
    horizon = _default_horizon(top)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="exact partial average at N")
    p.add_argument("expr")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("limits", help="exact or streamed limit report")
    p.add_argument("expr")
    p.add_argument("--horizon", type=int, default=horizon)
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("trace", help="CSV of partial averages, geometric spacing")
    p.add_argument("expr")
    p.add_argument("--horizon", type=int, default=horizon)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("nullmod", help="null modification of a set")
    p.add_argument("expr")
    p.add_argument("--bound", type=_fraction, help="p/q or decimal; default exact upper limit")
    p.add_argument("--horizon", type=int, default=horizon)
    p.add_argument("--audit", default=None, help="write per-step CSV audit here")
    p.set_defaults(func=cmd_nullmod)

    p = sub.add_parser("chain", help="chain verification and extensions")
    p.add_argument("action", choices=["verify", "certify", "dense", "skeleton", "maximal"])
    p.add_argument("chainfile", help="one DSL expression per line")
    p.add_argument("--epsilon", type=_fraction, default="1/1000")
    p.add_argument("--horizon", type=int, default=horizon)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--universe", type=int, default=64)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("quotient", help="finite algebra, closure, null equivalence")
    p.add_argument("action", choices=["closure", "build", "nulleq"])
    p.add_argument("expr_a", nargs="?", default=None)
    p.add_argument("expr_b", nargs="?", default=None)
    p.add_argument("--universe", type=int, default=3)
    p.add_argument("--seed", default=None, help="JSON seed subalgebra file")
    p.add_argument("--ideal", default=None, help="JSON ideal file")
    p.add_argument("--horizon", type=int, default=horizon)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("repro", help="re-run the displayed-value checks")
    p.set_defaults(func=cmd_repro)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NullModError as exc:
        print(f"nullmod error: {exc}", file=sys.stderr)
        return 4
    except (ChainError, ConstructionError) as exc:
        print(f"chain error: {exc}", file=sys.stderr)
        return 5
    except QuotientError as exc:
        print(f"quotient error: {exc}", file=sys.stderr)
        return 6
    except CesaroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
