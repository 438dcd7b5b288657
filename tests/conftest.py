"""Shared test helpers.

`random_fragment` draws random expressions from the exactly solvable
fragment (residue classes, explicit finite sets, Boolean combinations,
dilations, shifts).  Everything it produces is eventually periodic up to
a finite perturbation, so its density can be cross-checked by counting
members over one full period far beyond the perturbed prefix.
"""

from __future__ import annotations

import random
from fractions import Fraction

import cesaro as c

# every modulus below divides 24; dilations multiply by 2 or 3 at most
# three levels deep, so every generated set has period dividing PERIOD
MODULI = (2, 3, 4, 6, 8, 12)
PERIOD = 24 * 2**3 * 3**3  # 5184
# perturbations (explicit sets, shift prefixes) live below ~2000 even
# after dilation; a window starting at 10*PERIOD is clean
WINDOW_START = 10 * PERIOD

_OPS = ("union", "inter", "diff", "symdiff", "compl", "dilate", "shift")


def random_fragment(rng: random.Random, depth: int = 2) -> c.SetExpr:
    if depth == 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.75:
            m = rng.choice(MODULI)
            k = rng.randint(1, m - 1)
            return c.Residue(m, tuple(sorted(rng.sample(range(m), k))))
        if roll < 0.88:
            elems = sorted(rng.sample(range(1, 60), rng.randint(1, 8)))
            return c.Explicit(tuple(elems))
        if roll < 0.96:
            return c.All()
        return c.Empty()
    op = rng.choice(_OPS)
    if op == "compl":
        return c.Compl(random_fragment(rng, depth - 1))
    if op == "dilate":
        return c.Dilate(rng.choice((2, 3)), random_fragment(rng, depth - 1))
    if op == "shift":
        return c.Shift(rng.randint(1, 5), random_fragment(rng, depth - 1))
    a = random_fragment(rng, depth - 1)
    b = random_fragment(rng, depth - 1)
    ctor = {"union": c.Union, "inter": c.Inter, "diff": c.Diff, "symdiff": c.SymDiff}
    return ctor[op](a, b)


def window_density(e: c.SetExpr) -> Fraction:
    """Density by direct count over one full period, far out.  Independent
    of the exact-limit engine (uses only the membership counter)."""
    lo = c.count_upto(e, WINDOW_START)
    hi = c.count_upto(e, WINDOW_START + PERIOD)
    return Fraction(hi - lo, PERIOD)


# ---------------------------------------------------------------------------
# brute-force membership oracle, independent of the library's evaluators


def _brute_blocks(z, N):
    out, pos, k = set(), 0, 1
    while pos < N:
        run = z.run(k)
        if k % 2 == 0:
            out.update(range(pos + 1, min(pos + run, N) + 1))
        pos += run
        k += 1
    return out


def _brute_greedy(target: Fraction, N: int) -> set[int]:
    if N < 1:
        return set()
    out, cnt = {1}, 1
    for m in range(2, N + 1):
        if Fraction(cnt, m - 1) < target:
            out.add(m)
            cnt += 1
    return out


def _brute_predicate(name, N):
    if name == "squares":
        return {i * i for i in range(1, N + 1) if i * i <= N}
    if name == "cubes":
        return {i**3 for i in range(1, N + 1) if i**3 <= N}
    if name == "pow2":
        return {2**k for k in range(1, N.bit_length() + 1) if 2**k <= N}
    if name == "primes":
        return {n for n in range(2, N + 1) if all(n % d for d in range(2, n))}
    if name == "paired":
        a = _brute_blocks(c.Geometric(2), N)
        out = set()
        for n in range(1, N + 1):
            if n % 2 == 0:
                if n // 2 in a:
                    out.add(n)
            elif (n + 1) // 2 not in a:
                out.add(n)
        return out
    raise ValueError(name)


def brute_set(e: c.SetExpr, N: int) -> set[int]:
    if isinstance(e, c.Empty):
        return set()
    if isinstance(e, c.All):
        return set(range(1, N + 1))
    if isinstance(e, c.Explicit):
        return {x for x in e.elements if x <= N}
    if isinstance(e, c.Residue):
        return {n for n in range(1, N + 1) if n % e.modulus in e.residues}
    if isinstance(e, c.Blocks):
        return _brute_blocks(e.z, N)
    if isinstance(e, c.Greedy):
        return _brute_greedy(e.target, N)
    if isinstance(e, c.Predicate):
        return _brute_predicate(e.name, N)
    if isinstance(e, c.Union):
        return brute_set(e.left, N) | brute_set(e.right, N)
    if isinstance(e, c.Inter):
        return brute_set(e.left, N) & brute_set(e.right, N)
    if isinstance(e, c.Diff):
        return brute_set(e.left, N) - brute_set(e.right, N)
    if isinstance(e, c.SymDiff):
        return brute_set(e.left, N) ^ brute_set(e.right, N)
    if isinstance(e, c.Compl):
        return set(range(1, N + 1)) - brute_set(e.inner, N)
    if isinstance(e, c.Dilate):
        return {e.factor * x for x in brute_set(e.inner, N) if e.factor * x <= N}
    if isinstance(e, c.Shift):
        return {x + e.offset for x in brute_set(e.inner, N) if x + e.offset <= N}
    if isinstance(e, c.Midpoint):
        lo = brute_set(e.lower, N)
        gap = sorted(brute_set(e.upper, N) - lo)
        return lo | set(gap[::2])
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# acceptance summary: one line per criterion in the terminal summary

ACCEPTANCE_CRITERIA = {
    "test_criterion_01_residue_densities": (1, "exact residue-class densities, all moduli up to 1000"),
    "test_criterion_02_geometric_blocks": (2, "geometric block limits, exact and streamed at 2^22"),
    "test_criterion_03_counterexample_pair": (3, "intersection of convergent sets that diverges"),
    "test_criterion_04_greedy_targets": (4, "greedy sets hit their targets within 2/N"),
    "test_criterion_05_poly_blocks": (5, "polynomial block density 1/2 and bounded gap ratio"),
    "test_criterion_06_null_modification": (6, "null modification conforms and removes a null part"),
    "test_criterion_07_dyadic_partition": (7, "dyadic partition bounds and union density"),
    "test_criterion_08_family_laws": (8, "algebraic laws of the convergent family"),
    "test_criterion_09_chain_certificates": (9, "uniform convergence certificates and dense extension"),
    "test_criterion_10_quotient": (10, "quotient algebra, monotone closure, disjoint representatives"),
    "test_criterion_11_pseudo_metric": (11, "pseudo-metric triangle inequality and null-difference collapse"),
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in nodeid and getattr(rep, "when", "call") == "call":
                outcomes[nodeid.split("::")[-1]] = key == "passed"
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, (num, desc) in sorted(ACCEPTANCE_CRITERIA.items(), key=lambda t: t[1][0]):
        if name in outcomes:
            status = "PASS" if outcomes[name] else "FAIL"
            terminalreporter.write_line(f"{status} criterion {num}: {desc}")
