"""The three benchmark workloads: input generators, the timed calls into
cesaro, and the correctness checks against the model in ``model.py``.

Each workload is a closed loop with one client: an operation starts only
when the previous one has returned.  Answers are checked in batches (see
``worker.run_loop``), outside the timed calls.  Inputs come from
``random.Random`` seeded with the workload name, the seed and a stream
name, so the same seed gives the same operations in every process.  The
library receives only DSL strings and the objects it builds from them.

Operation kinds and horizons are stratified rather than drawn
independently: each workload cycles through a fixed list of kinds in a
seeded order, and each kind walks its horizon (or modulus) range along a
golden-ratio sequence.  Two seeds then load the same mix with different
parameters, which keeps percentiles comparable across seeds.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import model
from model import render

PHI = (math.sqrt(5) - 1) / 2
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

# Known defects at the time the benchmark was written (ROADMAP items 3 and
# 4).  The timed operations are drawn so that none of them hits one (a
# benchmark must time operations that succeed); each workload instead runs
# a fixed set of cases that do hit them after its timed phase (see
# ``Workload.defect_ops``), checks them against the model like any other
# op and reports every wrong answer.  A failure with one of these tags
# leaves the run correct; any other failure makes it incorrect.
KNOWN_DEFECTS = {
    "streamed-verdict": "streamed verdicts read off finite-horizon averages: NotInF "
    "for a set whose limit exists, Null for a positive upper density (ROADMAP item 4), "
    "Distinct for a null difference whose density at the horizon is above tolerance",
    "midpoint-non-nested": "exact_limits gives (d(lo)+d(hi))/2 for a midpoint "
    "whose operands are not nested (ROADMAP item 3)",
}


@dataclass
class Op:
    id: int
    kind: str
    text: str  # DSL text, or a short description for API-level ops
    trees: list  # model trees of the op's inputs: checks and repetition share
    horizon: int = 0  # elements scanned; for exact queries, the common period
    params: dict = field(default_factory=dict)


class _Sequence:
    """Golden-ratio points in [0, 1): well spread for every prefix, so a
    short run covers the range as a long one does.  The start depends on
    the workload and kind only, so every seed walks the same horizons (or
    moduli) and seeds differ in the expressions drawn at them."""

    def __init__(self, key: str):
        self.x = random.Random(key).random()

    def next(self) -> float:
        self.x = (self.x + PHI) % 1.0
        return self.x


def _log_uniform(u: float, lo: float, hi: float) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def _residue(rng: random.Random, m: int):
    if m == 1:
        return ("all",)
    k = rng.randint(1, min(3, m - 1))
    return ("residue", m, frozenset(rng.sample(range(m), k)))


def _composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """A random composition of total into positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def _null_leaf(rng: random.Random):
    if rng.random() < 0.5:
        return ("explicit", tuple(sorted(rng.sample(range(1, 100), rng.randint(1, 6)))))
    return ("pred", rng.choice(model.NULL_PREDICATES))


class Workload:
    name = ""
    kinds: tuple = ()
    #: ops run back to back before their answers are checked; bounded by
    #: the memory the unchecked answers hold
    batch = 1
    #: peak RSS is read after this many timed ops, so it covers the same
    #: work on every run and does not grow with the number of ops a faster
    #: build fits into the run (memo caches keep what each op adds)
    rss_after_ops = 64

    #: known-defect cases: op kind -> how many of it ``defect_ops`` draws
    defect_kinds: dict = {}
    #: calibrate with the set and Fraction block (see calibrate.py)
    calibrate_sets = False

    def __init__(self, seed: int, stream: str = "main"):
        self.rng = random.Random(f"{self.name}:{seed}:{stream}")
        self.seq = {k: _Sequence(f"{self.name}:{k}:{stream}") for k in set(self.kinds)}
        self.cycle: list[str] = []
        self.count = 0
        self.per_kind = dict.fromkeys(self.kinds, 0)

    def setup(self, cs) -> None:
        """Build whatever the workload reuses across operations."""

    def next_op(self) -> Op:
        if not self.cycle:
            self.cycle = list(self.kinds)
            self.rng.shuffle(self.cycle)
        kind = self.cycle.pop()
        self.count += 1
        i = self.per_kind[kind]
        self.per_kind[kind] += 1
        op = self.make(kind, self.seq[kind].next(), i)
        op.id = self.count
        return op

    def defect_ops(self) -> list[Op]:
        """The known-defect cases, drawn from this instance's stream: run
        after the timed phase, untimed, and checked like any other op."""
        ops = []
        for kind, n in self.defect_kinds.items():
            for i in range(n):
                op = self.make(kind, (i + 0.5) / n, i)
                op.id = len(ops) + 1
                ops.append(op)
        return ops

    def make(self, kind: str, u: float, i: int) -> Op:
        """The i-th op of this kind; u in [0, 1) places it in its range.
        Shapes that set an op's cost follow i, so every seed runs the same
        mix of costs, and the seed draws the rest."""
        raise NotImplementedError

    def prepare(self, op: Op, cs):
        """Untimed: build the library objects the timed call needs."""
        return None

    def run(self, op: Op, args, cs, tr):
        """Timed: the calls into cesaro.  Returns the answer to check."""
        raise NotImplementedError

    def extra(self, op: Op, args, cs, tr) -> None:
        """Traced runs only: extra calls that split the op into layers."""

    def check(self, op: Op, ans) -> list[tuple[str, str]]:
        """(tag, message) per failure; tag is a KNOWN_DEFECTS key or
        'unexpected'."""
        raise NotImplementedError


def _frac(x) -> Fraction:
    return Fraction(x["rational"]) if "rational" in x else Fraction(x["value"])


# ---------------------------------------------------------------------------
# exact-queries


class ExactQueries(Workload):
    """DSL strings across the exactly solvable grammar; each query runs
    parse_expr -> exact_limits -> as_dict -> json.dumps -> format/parse."""

    name = "exact-queries"
    batch = 64
    calibrate_sets = True
    rss_after_ops = 4096  # enough queries to reach the largest lifted sets
    kinds = ("tree",) * 12 + ("top",) * 3 + ("midpoint",) * 3 + ("canon-retry",) * 2
    #: midpoints over operands that are not nested (ROADMAP item 3)
    defect_kinds = {"midpoint-non-nested": 8}
    #: bound on the residue entries the exact engine lifts per query, so the
    #: costliest queries (tens of ms) do not dominate a run's total time
    MAX_LIFTED = 100_000

    def make(self, kind, u, i):
        rng = self.rng
        if kind == "tree":
            node = self._bounded(10 ** (0.5 + 6.5 * u), lambda f, c: self._tree(1 + i % 5, f, c))
        elif kind == "top":
            node = self._top_form()
        elif kind in ("midpoint", "midpoint-non-nested"):
            node = self._bounded(10 ** (0.5 + 3.5 * u), lambda f, c: self._midpoint(kind, f, c))
        else:
            core = self._top_leaf()
            node = rng.choice(
                (
                    ("union", core, ("empty",)),
                    ("union", ("empty",), core),
                    ("inter", core, ("all",)),
                    ("diff", core, ("empty",)),
                    ("symdiff", ("empty",), core),
                    ("union", core, core),
                )
            )
        return Op(0, kind, render(node), [node], model.period(node))

    def _tree(self, depth: int, factors: list[int], allow_compl: bool):
        rng = self.rng
        m = math.prod(factors)
        if depth == 0 or rng.random() < 0.15:
            return _residue(rng, m)
        roll = rng.random()
        if roll < 0.6:
            a = self._tree(depth - 1, factors, allow_compl)
            if rng.random() < 0.25:
                b = _null_leaf(rng)
            else:
                b = self._tree(depth - 1, self._some(factors), allow_compl)
            if rng.random() < 0.5:
                a, b = b, a
            return (rng.choice(model.BOOLEAN), a, b)
        if roll < 0.75 and allow_compl:
            return ("compl", self._tree(depth - 1, factors, allow_compl))
        if roll < 0.88 and factors:
            i = rng.randrange(len(factors))
            rest = factors[:i] + factors[i + 1 :]
            return ("dilate", factors[i], self._tree(depth - 1, rest, allow_compl))
        return ("shift", rng.randint(1, 30), self._tree(depth - 1, factors, allow_compl))

    def _some(self, factors):
        return [p for p in factors if self.rng.random() < 0.5]

    def _midpoint(self, kind, factors, allow_compl):
        rng = self.rng
        while True:
            a = self._tree(rng.randint(1, 2), factors, allow_compl)
            b = self._tree(rng.randint(1, 2), self._some(factors), allow_compl)
            if kind == "midpoint":  # nested by construction: lo ⊆ hi
                return rng.choice((("midpoint", a, ("union", a, b)), ("midpoint", ("inter", a, b), a)))
            # as the DSL accepts it: operands with d(lo \ hi) > 0
            lo, hi = (a, b) if rng.random() < 0.5 else (b, a)
            if model.limits(("diff", lo, hi))[0] > 0:
                return ("midpoint", lo, hi)

    def _bounded(self, target: float, build):
        """A tree over a common modulus near target (a product of small
        primes), redrawn while the exact engine would lift more than
        MAX_LIFTED residue entries for it."""
        rng = self.rng
        factors: list[int] = []
        while True:
            fits = [p for p in SMALL_PRIMES if math.prod(factors) * p <= target]
            if not fits:
                break
            factors.append(rng.choice(fits))
        m = math.prod(factors)
        for _ in range(30):
            node = build(factors, m <= self.MAX_LIFTED)
            if _lifted_size(node)[2] <= self.MAX_LIFTED:
                return node
        return build([], True)

    def _top_leaf(self):
        rng = self.rng
        roll = rng.randrange(4)
        if roll == 0:
            return ("geometric", rng.randint(2, 9))
        if roll == 1:
            return ("poly", rng.randint(1, 5))
        if roll == 2:
            if rng.random() < 0.3:
                digits = rng.randint(1, 4)
                num = rng.randint(0, 10**digits - 1)
                f = Fraction(num, 10**digits)
                text = f"0.{num:0{digits}d}"
            else:
                q = rng.randint(1, 1000)
                f = Fraction(rng.randint(0, q), q)
                text = f"{f.numerator}/{f.denominator}"
            return ("greedy", f.numerator, f.denominator, text)
        return ("pred", rng.choice(model.NULL_PREDICATES + ("paired",)))

    def _top_form(self):
        rng = self.rng
        leaf = self._top_leaf()
        roll = rng.randrange(4)
        if roll == 0:
            return ("compl", leaf)
        if roll == 1:
            return ("dilate", rng.randint(2, 6), leaf)
        if roll == 2:
            return ("shift", rng.randint(1, 50), leaf)
        return leaf

    def run(self, op, args, cs, tr):
        with tr.span("dsl.parse_expr"):
            e = cs.parse_expr(op.text)
        with tr.span("limits.exact_limits", modulus=op.horizon):
            rep = cs.exact_limits(e)
        with tr.span("limits.as_dict"):
            out = json.dumps(rep.as_dict())
        with tr.span("dsl.format_expr"):
            text = cs.format_expr(e)
        with tr.span("dsl.parse_expr"):
            again = cs.parse_expr(text)
        return out, again == e

    def extra(self, op, args, cs, tr):
        e = cs.parse_expr(op.text)
        with tr.span("exprs.canonicalize"):
            cs.canonicalize(e)

    def check(self, op, ans):
        out, round_trip = ans
        d = json.loads(out)
        upper, lower = model.limits(op.trees[0])
        fails = []
        if not round_trip:
            fails.append(("unexpected", "format_expr/parse_expr round trip changed the tree"))
        if d["method"] not in ("exact", "block-formula"):
            fails.append(("unexpected", f"method {d['method']} for an exact query"))
        got = (_frac(d["upper"]), _frac(d["lower"]))
        if got != (upper, lower):
            tag = "midpoint-non-nested" if op.kind == "midpoint-non-nested" else "unexpected"
            fails.append((tag, f"limits {got[0]}, {got[1]}; model {upper}, {lower}"))
        if (d["verdict"] == "InF") != (upper == lower):
            fails.append(("unexpected", f"verdict {d['verdict']} for limits {upper}, {lower}"))
        return fails


def _lifted_size(node):
    """(modulus, density bound, residue entries lifted): a cost model of the
    exact engine, which lifts residue sets onto common moduli as frozensets
    and builds range(modulus) for a complement."""
    k = node[0]
    if k == "residue":
        return node[1], len(node[2]) / node[1], len(node[2])
    if k == "all":
        return 1, 1.0, 1
    if k in model.BOOLEAN or k == "midpoint":
        ma, da, ca = _lifted_size(node[1])
        mb, db, cb = _lifted_size(node[2])
        m = math.lcm(ma, mb)
        if k == "inter":
            d = min(da, db)
        elif k == "diff":
            d = da
        else:
            d = min(1.0, da + db)
        return m, d, ca + cb + (da + db) * m
    if k == "compl":
        m, d, c = _lifted_size(node[1])
        return m, 1.0, c + m
    if k == "dilate":
        m, d, c = _lifted_size(node[2])
        return m * node[1], d / node[1], c
    if k == "shift":
        return _lifted_size(node[2])
    return 1, 0.0, 0  # null leaves


# ---------------------------------------------------------------------------
# streamed-scan


FIXED_STREAMED = (
    # ROADMAP item 4: wrong streamed verdicts at the default horizon
    ("union", ("greedy", 1, 2000, "1/2000"), ("explicit", (1,))),
    ("inter", ("poly", 2), ("residue", 3, frozenset({1, 2}))),
    ("shift", 1, ("union", ("poly", 3), ("pred", "squares"))),
)
FIXED_HORIZON = 10**6
#: the library's default streamed tolerance and trailing window
TOLERANCE = 1e-3
WINDOW = 0.5


def wrong_streamed_verdict(node, mask) -> str | None:
    """The streamed verdict rule of ``classify`` (ROADMAP item 4) applied
    to the model's membership mask; a message if that verdict is wrong for
    the tree's exact limits, else None.  Reads the rule as documented: the
    extremes of the partial averages over the trailing window, and
    NotInF only when the oscillation exceeds the tolerance in three
    consecutive doubling sub-windows."""
    H = mask.size
    upper, lower = model.limits(node)
    counts = np.cumsum(mask, dtype=np.int64)

    def extremes(lo: int, hi: int) -> tuple[float, float]:
        nu = counts[lo:hi] / np.arange(lo + 1, hi + 1, dtype=np.float64)
        return float(nu.max()), float(nu.min())

    hi, lo = extremes(max(1, math.ceil((1 - WINDOW) * H)) - 1, H)
    if hi - lo <= TOLERANCE:
        if (hi + lo) / 2 <= TOLERANCE and upper > 0:
            return f"Null, but the upper density is {upper}"
        return None
    spans = ((H // 2, H), (H // 4, H // 2), (H // 8, H // 4))
    if upper == lower and all(a - b > TOLERANCE for a, b in (extremes(*w) for w in spans)):
        return f"NotInF, but the limit is {upper}"
    return None


class StreamedScan(Workload):
    """Expressions with no exact form at the seed: one oscillating or
    aperiodic leaf combined with residue classes.  Each op runs classify,
    partial_average and one prefix_scan at a horizon from 2^16 to 2^22.

    A timed tree on which the streamed verdict rule is wrong at the op's
    horizon (``wrong_streamed_verdict``) is redrawn, so that no timed op
    fails; those trees are ROADMAP item 4's defect, and ``defect_ops``
    runs a fixed set of them: the three cases ROADMAP item 4 lists, and
    polynomial blocks and primes next to a periodic list block set, whose
    limits exist but whose averages converge too slowly for the rule."""

    name = "streamed-scan"
    batch = 4
    kinds = ("greedy", "geometric", "runlist", "primes", "paired")
    defect_kinds = {"fixed": len(FIXED_STREAMED), "poly": 2, "primes-runlist": 2}
    LOG2_RANGE = (16, 22)
    #: draws of one timed op before the generator gives up
    MAX_DRAWS = 50

    def __init__(self, seed, stream="main"):
        super().__init__(seed, stream)
        # geometric ratios are drawn without replacement so each op's block
        # tables are new to the process, as for a new user query
        self.ratios = list(range(2, 400))
        self.rng.shuffle(self.ratios)
        # greedy targets likewise: a repeated target would find its
        # membership prefix already computed
        self.targets: set[Fraction] = set()

    def _leaf(self, kind):
        rng = self.rng
        if kind == "greedy":
            f = None
            while f is None or f in self.targets:
                q = _log_uniform(rng.random(), 3, 5000)
                f = Fraction(rng.randint(1, q - 1), q)
            self.targets.add(f)
            return ("greedy", f.numerator, f.denominator, f"{f.numerator}/{f.denominator}")
        if kind == "geometric":
            return ("geometric", self.ratios.pop() if self.ratios else rng.randint(2, 400))
        if kind == "poly":
            return ("poly", rng.randint(1, 4))
        if kind == "primes-runlist":
            # primes next to a periodic list block set: the exact engine
            # does not solve it, and the limit exists
            runs = tuple(rng.randint(50, 400) for _ in range(rng.randint(1, 3)))
            partner = ("runlist", rng.randint(0, 50), runs, "cycle")
            return (rng.choice(("union", "symdiff")), ("pred", "primes"), partner)
        if kind == "runlist":
            # four runs summing to 24, the last one 6 when it repeats: the
            # kernel's cost follows the number of runs per element, which
            # this keeps at 1/6 whatever the draw
            tail = rng.choice(("cycle", "repeat-last"))
            runs = _composition(rng, 24, 4) if tail == "cycle" else _composition(rng, 18, 3) + (6,)
            return ("runlist", rng.randint(0, 5), runs, tail)
        if kind == "primes":
            # primes alone are null, and the exact engine solves any Boolean
            # combination of them with residue classes; a geometric block
            # set, which it does not combine with primes, keeps the op
            # streamed
            return (rng.choice(("union", "symdiff")), ("pred", "primes"), ("geometric", rng.randint(2, 9)))
        return ("pred", "paired")

    SHAPES = ("bool", "bool compl", "bool shift", "bool bool", "bool dilate", "bool midpoint")

    def _wrap(self, node, shape: str, i: int):
        """Combine with residue classes; the first level is always a
        Boolean node, so the exact engine has no form for the result.  A
        dilation divides the leaf's length, so its factor follows i."""
        rng = self.rng
        for level in shape.split():
            if level == "bool":
                r = _residue(rng, rng.randint(2, 30))
                a, b = (node, r) if rng.random() < 0.5 else (r, node)
                node = (rng.choice(model.BOOLEAN), a, b)
            elif level == "compl":
                node = ("compl", node)
            elif level == "shift":
                node = ("shift", rng.randint(1, 50), node)
            elif level == "dilate":
                node = ("dilate", 2 + i // len(self.SHAPES) % 3, node)
            else:
                r = _residue(rng, rng.randint(2, 12))
                node = rng.choice((("midpoint", ("inter", node, r), node), ("midpoint", node, ("union", node, r))))
        return node

    def make(self, kind, u, i):
        rng = self.rng
        shape = self.SHAPES[i % len(self.SHAPES)]
        lo, hi = self.LOG2_RANGE
        H = int(round(2 ** (lo + (hi - lo) * u)))
        mask = None
        if kind == "fixed":
            node = FIXED_STREAMED[i % len(FIXED_STREAMED)]
            H = FIXED_HORIZON
        elif kind not in self.kinds:  # a known-defect case: no redraw
            node = self._wrap(self._leaf(kind), shape, i)
        else:
            for _ in range(self.MAX_DRAWS):
                node = self._wrap(self._leaf(kind), shape, i)
                mask = model.brute_mask(node, H)
                if wrong_streamed_verdict(node, mask) is None:
                    break
            else:
                raise RuntimeError(f"no {kind} tree of shape {shape!r} at horizon {H} in {self.MAX_DRAWS} draws")
        frm = rng.randint(1, H // 2)
        to = rng.randint(frm, H)
        return Op(0, kind, render(node), [node], H, {"frm": frm, "to": to, "mask": mask})

    def prepare(self, op, cs):
        return cs.parse_expr(op.text)

    def run(self, op, e, cs, tr):
        H = op.horizon
        with tr.span("limits.classify", n=H):
            cls = cs.classify(e, H)
        tr.note(kind=cls.kind)
        with tr.span("exprs.partial_average", n=H):
            avg = cs.partial_average(e, H)
        frm, to = op.params["frm"], op.params["to"]
        with tr.span("exprs.prefix_scan", n=to - frm + 1):
            scan = cs.prefix_scan(e, frm, to)
        rep = cls.report
        return {
            "kind": cls.kind,
            "approximate": cls.approximate,
            "upper": rep.upper,
            "lower": rep.lower,
            "average": avg,
            "scan": scan.count,
        }

    def extra(self, op, e, cs, tr):
        H = op.horizon
        with tr.span("limits.exact_limits", modulus=model.period(op.trees[0])):
            try:
                cs.exact_limits(e)
                hit = True
            except cs.NotExactlySolvable:
                hit = False
        tr.note(hit=hit)
        with tr.span("limits.estimate_limits", n=H):
            cs.estimate_limits(e, H)
        with tr.span("exprs.indicator", n=H):
            cs.indicator(e, H)
        walk(op.trees[0], min(H, 1 << 20), cs, tr)

    def check(self, op, ans):
        node = op.trees[0]
        H = op.horizon
        upper, lower = model.limits(node)
        mask = op.params.pop("mask", None)
        if mask is None:
            mask = model.brute_mask(node, H)
        fails = []
        count = int(np.count_nonzero(mask))
        if ans["average"] != Fraction(count, H):
            fails.append(("unexpected", f"partial_average {ans['average']}, model {count}/{H}"))
        frm, to = op.params["frm"], op.params["to"]
        want = int(np.count_nonzero(mask[frm - 1 : to]))
        if ans["scan"] != want:
            fails.append(("unexpected", f"prefix_scan [{frm},{to}] {ans['scan']}, model {want}"))
        kind = ans["kind"]
        if not ans["approximate"]:
            if (Fraction(ans["upper"]), Fraction(ans["lower"])) != (upper, lower):
                fails.append(("unexpected", f"exact limits {ans['upper']}, {ans['lower']}; model {upper}, {lower}"))
            return fails
        tol = streamed_tolerance(node, H)
        if not (lower - tol <= ans["lower"] <= ans["upper"] <= upper + tol):
            fails.append(
                (
                    "unexpected",
                    f"estimate [{ans['lower']:.6g}, {ans['upper']:.6g}] outside "
                    f"[{float(lower):.6g}, {float(upper):.6g}] ± {tol:.3g}",
                )
            )
        if kind == "NotInF" and upper == lower:
            fails.append(("streamed-verdict", f"NotInF, but the limit is {upper}"))
        if kind == "Null" and upper > 0:
            fails.append(("streamed-verdict", f"Null, but the upper density is {upper}"))
        return fails


def streamed_tolerance(node, H: int) -> float:
    """How far a streamed estimate over the window (H/2, H] may stray from
    the exact limits: the switching leaf's own excursion at that scale,
    weighted by how much the tree follows it, plus the share of null
    leaves still visible at H/2 and a period-boundary term."""
    n_min = max(1, H // 2)
    scale = n_min
    for sub in model.walk(node):
        if sub[0] == "dilate":
            scale //= sub[1]
    scale = max(scale, 1)
    excursion, runs = 0.0, 1
    for leaf in model.leaves(node):
        k = leaf[0]
        if k == "geometric":
            excursion = max(excursion, 2 * leaf[1] / scale)
            runs = max(runs, int(math.log(scale * leaf[1], leaf[1])) + 2)
        elif k == "poly":
            e = leaf[1]
            r = ((e + 1) * scale) ** (1 / (e + 1))
            excursion = max(excursion, (e + 1) / (2 * r))
            runs = max(runs, int(r) + 2)
        elif leaf == ("pred", "paired"):
            excursion = max(excursion, 4 / scale)
            runs = max(runs, int(math.log2(scale)) + 2)
    null = 0.0
    for leaf in model.leaves(node):
        if leaf == ("pred", "primes"):
            null += 1.3 / math.log(scale)
        elif leaf == ("pred", "squares"):
            null += 1 / math.sqrt(scale)
        elif leaf[0] == "explicit":
            null += len(leaf[1]) / scale
    weight = float(model.switch_weight(node))
    return 1e-3 + weight * excursion + null + 4 * model.period(node) * runs / scale


def walk(node, N: int, cs, tr) -> None:
    """Time indicator on every subtree, children first, each at the length
    its parent asks of it, so a node's self time is its time minus its
    children's (traced runs only)."""
    cs.indicator(cs.parse_expr(render(node)), N)  # warm leaf caches first

    def visit(sub, n: int) -> int:
        m = {"dilate": lambda: n // sub[1], "shift": lambda: max(0, n - sub[1])}.get(sub[0], lambda: n)()
        kids = [visit(c, m) for c in model.children(sub)]
        e = cs.parse_expr(render(sub))
        with tr.span("exprs.walk.node", n=n, children=tuple(kids)) as sid:
            arr = cs.indicator(e, n)
        tr.note(bytes=arr.nbytes)
        return sid

    visit(node, N)


# ---------------------------------------------------------------------------
# nullmod-chains


class NullmodChains(Workload):
    """A small pool of leaves drawn once per seed and reused by every op:
    null modification, chain maps and certificates, chain extensions,
    null equivalence and finite quotients, at horizons 10^5 to 10^6."""

    name = "nullmod-chains"
    kinds = (
        "null_modify",
        "export_audit",
        "verify_chain",
        "uniformity_check",
        "chain_psi",
        "chain_phi",
        "disjoint_modify",
        "dense_extension",
        "skeleton",
        "maximal_extension",
        "null_equivalent_exact",
        "null_equivalent_streamed",
        "quotient",
    )
    #: greedy against greedy plus the primes: their difference is null,
    #: but its density at these horizons is above the tolerance, so the
    #: streamed test answers Distinct (ROADMAP item 4)
    defect_kinds = {"null_equivalent_primes": 2}

    def __init__(self, seed, stream="main"):
        super().__init__(seed, stream)
        # the pool is drawn from its own stream so warm-up and timed
        # processes of one seed share it
        pool = random.Random(f"{self.name}:{seed}:pool")
        bits = pool.getrandbits(12)
        self.dyadic = [("residue", 2**j, frozenset({bits % 2**j})) for j in range(1, 10)]
        self.kmax = pool.randint(3, 6)
        odds = ("shift", 2, ("residue", 2, frozenset({1})))
        self.partition = [odds] + [("dilate", 2**k, odds) for k in range(1, self.kmax + 1)]
        q = pool.randint(3, 200)
        g = Fraction(pool.randint(1, q - 1), q)
        self.greedy = ("greedy", g.numerator, g.denominator, f"{g.numerator}/{g.denominator}")
        self.geometric = ("geometric", pool.randint(2, 6))
        self.masks: dict = {}

    def setup(self, cs):
        parts = cs.dyadic_partition(self.kmax)
        got = [cs.format_expr(p) for p in parts]
        if got != [render(p) for p in self.partition]:
            raise RuntimeError(f"dyadic_partition({self.kmax}) gave {got}")
        self.objects = {render(n): cs.parse_expr(render(n)) for n in self._pool()}
        self.objects.update({render(n): p for n, p in zip(self.partition, parts)})

    def _pool(self):
        return self.dyadic + self.partition + [self.greedy, self.geometric]

    def _mask(self, node, H):
        """Model membership on 1..H, cached per tree (pool trees repeat)."""
        key = render(node)
        if key not in self.masks or self.masks[key].size < H:
            self.masks[key] = model.brute_mask(node, max(H, 10**6))
        return self.masks[key][:H]

    def _chain(self, i: int):
        n = 3 + i % (len(self.dyadic) - 2)
        return sorted(self.rng.sample(self.dyadic, n), key=lambda t: t[1])

    def make(self, kind, u, i):
        rng = self.rng
        H = _log_uniform(u, 10**5, 10**6)
        p: dict = {}
        if kind in ("null_modify", "export_audit"):
            pool = self._pool()
            trees = [pool[i % len(pool)]]
            if kind == "export_audit":
                H = _log_uniform(u, 2 * 10**4, 10**5)
        elif kind in ("verify_chain", "uniformity_check", "chain_psi", "chain_phi"):
            trees = self._chain(i)
            rng.shuffle(trees)
            p["epsilon"] = Fraction(1, rng.choice((50, 100, 200)))
        elif kind == "disjoint_modify":
            trees = rng.sample(self.partition, 2 + i % 3)
        elif kind in ("dense_extension", "skeleton", "maximal_extension"):
            trees = self._chain(i)
            p["k"] = 2 + i % 3
            p["epsilon"] = Fraction(1, rng.choice((3, 5, 8, 16)))
            H = {"dense_extension": 10**4, "skeleton": 0}.get(kind, 100 * (1 + i % 5))
        elif kind == "null_equivalent_exact":
            a = rng.choice(self.dyadic)
            b = rng.choice(
                (
                    ("union", a, ("pred", "pow2")),
                    ("union", a, _null_leaf(rng)),
                    rng.choice(self.dyadic),
                    rng.choice(self.partition),
                )
            )
            trees = [a, b]
            H = 0
        elif kind == "null_equivalent_streamed":
            if i % 3 == 0:
                extra = tuple(sorted(rng.sample(range(1, 100), rng.randint(1, 6))))
                trees = [self.greedy, ("union", self.greedy, ("explicit", extra))]
            elif i % 3 == 1:
                # null sets whose density at H / 8 is below the tolerance
                trees = [self.greedy, ("union", self.greedy, ("pred", rng.choice(("pow2", "cubes"))))]
            else:
                trees = [self.geometric, ("inter", self.geometric, rng.choice(self.dyadic[:3]))]
        elif kind == "null_equivalent_primes":
            kind = "null_equivalent_streamed"
            trees = [self.greedy, ("union", self.greedy, ("pred", "primes"))]
        else:
            n = 1 + i % 5
            p["n"] = n
            p["ideal_top"] = rng.randrange(1 << n)
            trees, H = [], 0
        text = f"{kind}[{';'.join(render(t) for t in trees)}]"
        return Op(0, kind, text, trees, H, p)

    def prepare(self, op, cs):
        objs = []
        for t in op.trees:
            key = render(t)
            if key not in self.objects:
                self.objects[key] = cs.parse_expr(key)
            objs.append(self.objects[key])
        if op.kind in ("uniformity_check", "dense_extension", "skeleton", "maximal_extension"):
            return cs.verify_chain(objs, 1024)
        return objs

    def run(self, op, args, cs, tr):
        H, kind, p = op.horizon, op.kind, op.params
        sets = len(op.trees)
        if kind in ("null_modify", "export_audit"):
            bound = model.limits(op.trees[0])[0]
            with tr.span("nullmod.null_modify", n=H):
                res = cs.null_modify(args[0], bound, H)
            with tr.span("nullmod.verify", n=H):
                res.verify()
            if kind == "null_modify":
                return res
            buf = io.StringIO()
            with tr.span("nullmod.export_audit", n=H):
                res.export_audit(buf)
            return res, buf.getvalue()
        if kind == "verify_chain":
            with tr.span("chains.verify_chain", n=H * sets):
                return cs.verify_chain(args, H)
        if kind == "uniformity_check":
            with tr.span("chains.uniformity_check", n=H * len(args)):
                return cs.uniformity_check(args, p["epsilon"], H)
        if kind in ("chain_psi", "chain_phi", "disjoint_modify"):
            with tr.span(f"nullmod.{kind}", n=H * sets):
                return getattr(cs, kind)(args, H)
        if kind == "dense_extension":
            with tr.span("chains.dense_extension"):
                return cs.dense_extension(args, p["k"], H)
        if kind == "skeleton":
            with tr.span("chains.skeleton"):
                return cs.skeleton(args, p["epsilon"])
        if kind == "maximal_extension":
            with tr.span("chains.maximal_extension", n=H):
                return cs.maximal_extension(args, H)
        if kind == "null_equivalent_exact":
            with tr.span("quotient.null_equivalent.exact"):
                return cs.null_equivalent(args[0], args[1])
        if kind == "null_equivalent_streamed":
            with tr.span("quotient.null_equivalent.streamed", n=H):
                return cs.null_equivalent(args[0], args[1], H)
        n = p["n"]
        with tr.span("quotient.build_algebra"):
            alg = cs.build_algebra(n)
        ideal = cs.Ideal(frozenset(x for x in range(1 << n) if x & ~p["ideal_top"] == 0))
        with tr.span("quotient.build_quotient"):
            quo = cs.build_quotient(alg, ideal)
        return alg.size, len(quo.classes)

    def check(self, op, ans):
        try:
            return getattr(self, "_check_" + op.kind)(op, ans)
        except AssertionError as exc:
            return [("unexpected", str(exc) or op.kind)]

    # -- per-kind checks against model masks ------------------------------

    def _density(self, t) -> Fraction:
        upper, lower = model.limits(t)
        return upper if upper == lower else None

    def _check_null_modify(self, op, res):
        t, H = op.trees[0], op.horizon
        src = self._mask(t, H)
        bound = model.limits(t)[0]
        p, q = bound.numerator, bound.denominator
        removed = np.zeros(H, dtype=bool)
        removed[np.asarray(res.removed, dtype=np.int64) - 1] = True
        assert not np.any(removed & ~src), "removed an element outside the source"
        assert np.array_equal(res.kept_mask, src & ~removed), "kept != source minus removed"
        kept = np.cumsum(res.kept_mask, dtype=np.int64)
        n = np.arange(1, H + 1, dtype=np.int64)
        assert not np.any(kept * q > p * n), "a kept partial average exceeds the bound"
        # the trimming pass keeps a member unless that breaks the bound, so
        # the kept count is C(n) - max(0, max_{j<=n} (C(j) - floor(p j / q)))
        c = np.cumsum(src, dtype=np.int64)
        excess = np.maximum.accumulate(np.maximum(c - (p * n) // q, 0))
        assert np.array_equal(kept, c - excess), "trimming removed more than needed"
        return []

    def _check_export_audit(self, op, ans):
        res, csv = ans
        fails = self._check_null_modify(op, res)
        lines = csv.count("\n")
        assert lines == op.horizon + 1, f"audit has {lines} lines for horizon {op.horizon}"
        assert csv.count(",removed,") == len(res.removed), "audit removed rows != removed"
        last = csv.rstrip("\n").rsplit("\n", 1)[-1].split(",")
        kept = int(np.count_nonzero(res.kept_mask))
        assert abs(float(last[3]) - kept / op.horizon) < 1e-9, "audit final running_nu"
        return fails

    def _check_verify_chain(self, op, chain):
        want = sorted(op.trees, key=lambda t: -t[1])  # dyadic: larger modulus is smaller
        got = [self._fmt(e) for e in chain.elements]
        assert got == [render(t) for t in want], f"chain order {got}"
        return []

    def _fmt(self, e):
        import cesaro

        return cesaro.format_expr(e)

    def _check_uniformity_check(self, op, cert):
        H, eps = op.horizon, op.params["epsilon"]
        chain = sorted(op.trees, key=lambda t: -t[1])
        n = np.arange(1, H + 1, dtype=np.int64)
        last = 0
        for t in chain:
            d = self._density(t)
            c = np.cumsum(self._mask(t, H), dtype=np.int64)
            bad = np.flatnonzero(
                np.abs(c * d.denominator - d.numerator * n) * eps.denominator
                >= eps.numerator * d.denominator * n
            )
            if bad.size:
                last = max(last, int(bad[-1]) + 1)
        if last >= H:
            assert not hasattr(cert, "n_epsilon"), "certificate although the horizon fails"
        else:
            assert cert.n_epsilon == max(1, last), f"N_eps {cert.n_epsilon}, model {max(1, last)}"
        return []

    def _check_psi_like(self, op, result, subset: bool):
        H = op.horizon
        mods = result.modifications
        assert len(mods) == len(op.trees), "one modification per element"
        n = np.arange(1, H + 1, dtype=np.int64)
        for t, m in zip(op.trees, mods):
            src = self._mask(t, H)
            d = self._density(t)
            assert m.nu == d, f"density {m.nu}, model {d}"
            out = m.modified_mask
            if subset:
                assert not np.any(out & ~src), "output is not a subset of its input"
            added = np.zeros(H, dtype=bool)
            if m.added:
                added[np.asarray(m.added, dtype=np.int64) - 1] = True
            removed = np.zeros(H, dtype=bool)
            if m.removed:
                removed[np.asarray(m.removed, dtype=np.int64) - 1] = True
            assert np.array_equal(out, (src | added) & ~removed), "mask != input + added - removed"
            c = np.cumsum(out, dtype=np.int64)
            assert not np.any(c * d.denominator > d.numerator * n), "partial average above density"
        return mods

    def _check_chain_psi(self, op, result):
        mods = self._check_psi_like(op, result, True)
        self._check_nested(op, mods)
        return []

    def _check_chain_phi(self, op, result):
        mods = self._check_psi_like(op, result, False)
        self._check_nested(op, mods)
        return []

    def _check_nested(self, op, mods):
        order = sorted(range(len(op.trees)), key=lambda i: -op.trees[i][1])
        for a, b in zip(order, order[1:]):
            small, big = mods[a].modified_mask, mods[b].modified_mask
            assert not np.any(small & ~big), "outputs lost an inclusion"
            assert not np.array_equal(small, big), "outputs merged two elements"

    def _check_disjoint_modify(self, op, result):
        self._check_psi_like(op, result, True)
        masks = [m.modified_mask for m in result.modifications]
        union = np.zeros(op.horizon, dtype=bool)
        for m in masks:
            assert not np.any(union & m), "outputs intersect"
            union |= m
        return []

    def _check_dense_extension(self, op, chain):
        # replay the documented gap splitting on the exact densities
        k = op.params["k"]
        nus = sorted({self._density(t) for t in op.trees} | {Fraction(0), Fraction(1)})
        for j in range(1, k + 1):
            nus += [(a + b) / 2 for a, b in zip(nus, nus[1:]) if b - a >= Fraction(1, 2**j)]
            nus.sort()
        assert len(chain.elements) == len(nus), f"{len(chain.elements)} elements, model {len(nus)}"
        got = {self._fmt(e) for e in chain.elements}
        assert {render(t) for t in op.trees} <= got, "dense extension dropped an element"
        return []

    def _check_skeleton(self, op, chain):
        eps = op.params["epsilon"]
        ordered = sorted(op.trees, key=lambda t: -t[1])
        nus = [self._density(t) for t in ordered]
        sel, s = [0], 0
        while s < len(nus) - 1:
            t = next((j for j in range(len(nus) - 1, s, -1) if nus[j] - nus[s] < eps), s + 1)
            sel.append(t)
            s = t
        got = [self._fmt(e) for e in chain.elements]
        assert got == [render(ordered[i]) for i in sel], f"skeleton {got}"
        return []

    def _check_maximal_extension(self, op, chain):
        u = op.horizon
        sizes = [0 if e.__class__.__name__ == "Empty" else len(e.elements) for e in chain.elements]
        assert sizes == list(range(u + 1)), "not one element per cardinality"
        sets = [set() if s == 0 else set(e.elements) for s, e in zip(sizes, chain.elements)]
        for a, b in zip(sets, sets[1:]):
            assert a < b, "consecutive elements are not nested"
        for t in op.trees:
            want = set((np.flatnonzero(self._mask(t, u)) + 1).tolist())
            assert want in sets, f"restriction of {render(t)} missing"
        return []

    def _check_null_equivalent_exact(self, op, verdict):
        upper = model.limits(("symdiff", op.trees[0], op.trees[1]))[0]
        want = "Equivalent" if upper == 0 else "Distinct"
        assert verdict.exact, "exact pair decided by streaming"
        assert verdict.value == want, f"{verdict.value}, model {want} (upper density {upper})"
        assert verdict.density == upper, f"density {verdict.density}, model {upper}"
        return []

    def _check_null_equivalent_streamed(self, op, verdict):
        upper = model.limits(("symdiff", op.trees[0], op.trees[1]))[0]
        assert verdict.value != "Equivalent" or upper == 0, "Equivalent for a positive difference"
        if verdict.value == "Distinct" and upper == 0:
            return [("streamed-verdict", f"Distinct, but the difference is null ({verdict.evidence})")]
        return []

    def _check_quotient(self, op, ans):
        size, classes = ans
        n = op.params["n"]
        top = op.params["ideal_top"]
        assert size == 1 << n, f"algebra size {size}"
        assert classes == 1 << (n - bin(top).count("1")), f"{classes} classes"
        return []


WORKLOADS = {w.name: w for w in (ExactQueries, StreamedScan, NullmodChains)}
