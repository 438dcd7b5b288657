"""Self-test of the benchmark: the model against brute-force counting, and
the metric names and units against BENCHMARK.json.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import model
from metrics import END_TO_END, PER_LAYER
from workloads import FIXED_STREAMED, WORKLOADS, streamed_tolerance, wrong_streamed_verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _trees(name: str, n: int, seed: int = 7):
    wl = WORKLOADS[name](seed, "selftest")
    return [t for _ in range(n) for t in wl.next_op().trees]


def _small_exact_trees(n: int):
    """Exact-query trees with small common periods."""
    wl = WORKLOADS["exact-queries"](11, "selftest")
    out = []
    while len(out) < n:
        op = wl.make(wl.kinds[len(out) % len(wl.kinds)], 0.05, len(out))
        if op.horizon <= 400:
            out.append(op.trees[0])
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_brute_mask_matches_plain_membership(name):
    trees = _trees(name, 40) if name != "exact-queries" else _small_exact_trees(40)
    for t in trees:
        n = 80 if any(s[0] == "midpoint" for s in model.walk(t)) else 600
        mask = model.brute_mask(t, n)
        want = [model.member(t, i) for i in range(1, n + 1)]
        assert mask.tolist() == want, model.render(t)


def _without_null_predicates(t):
    if t[0] == "pred" and t[1] in model.NULL_PREDICATES:
        return ("explicit", (1, 4, 9))
    kids = model.children(t)
    if not kids:
        return t
    if t[0] in ("dilate", "shift"):
        return (t[0], t[1], _without_null_predicates(t[2]))
    return (t[0],) + tuple(_without_null_predicates(c) for c in kids)


def test_periodic_limits_match_counting_over_two_periods():
    for t in map(_without_null_predicates, _small_exact_trees(120)):
        if any(s[0] in ("geometric", "poly", "greedy") or s == ("pred", "paired") for s in model.walk(t)):
            continue
        period = model.period(t)
        start = 10**5 // period * period + period  # past every finite exception
        # two periods, so a midpoint's every-second selection pairs up
        mask = model.brute_mask(t, start + 2 * period)
        d = Fraction(int(np.count_nonzero(mask[start:])), 2 * period)
        assert model.limits(t) == (d, d), model.render(t)


def test_greedy_replay_matches_counting():
    for p, q in ((1, 2000), (2, 7), (999, 1000), (1, 3), (0, 1), (1, 1)):
        node = ("greedy", p, q, f"{p}/{q}")
        n = 5 * q + 50
        mask = model.brute_mask(node, n)
        assert mask.tolist() == [bool(b) for b in model.greedy_bits(p, q, n)]
        assert model.limits(node) == (Fraction(p, q), Fraction(p, q))
        # the closed form max(1, ceil(p (N-1) / q)) agrees with the replay
        count = np.cumsum(mask)
        assert all(count[N - 1] == max(1, -(-p * (N - 1) // q)) for N in range(1, n + 1))


KNOWN = {
    "inter(blocks geometric 2,residue 2 {0})": (Fraction(1, 3), Fraction(1, 6)),
    "union(blocks geometric 3,residue 3 {0})": (Fraction(5, 6), Fraction(1, 2)),
    "inter(predicate paired,residue 2 {0})": (Fraction(1, 3), Fraction(1, 6)),
    "union(greedy 1/2000,explicit{1})": (Fraction(1, 2000),) * 2,
    "inter(blocks poly 2,residue 3 {1,2})": (Fraction(1, 3),) * 2,
    "shift 1 union(blocks poly 3,predicate squares)": (Fraction(1, 2),) * 2,
    "midpoint(residue 2 {0},residue 2 {1})": (Fraction(3, 4),) * 2,
}


def test_known_limits():
    trees = {model.render(t): t for t in FIXED_STREAMED}
    trees.update(
        {
            model.render(t): t
            for t in (
                ("inter", ("geometric", 2), ("residue", 2, frozenset({0}))),
                ("union", ("geometric", 3), ("residue", 3, frozenset({0}))),
                ("inter", ("pred", "paired"), ("residue", 2, frozenset({0}))),
                ("midpoint", ("residue", 2, frozenset({0})), ("residue", 2, frozenset({1}))),
            )
        }
    )
    for text, want in KNOWN.items():
        assert model.limits(trees[text]) == want, text


def test_streamed_tolerance_admits_exact_partial_averages():
    """A correct streamed estimate (the true extremes of the partial
    averages over the window) passes the containment check."""
    for t in _trees("streamed-scan", 40, seed=3):
        for H in (1 << 16, 1 << 18):
            upper, lower = model.limits(t)
            nu = np.cumsum(model.brute_mask(t, H)) / np.arange(1, H + 1)
            window = nu[(H + 1) // 2 - 1 :]
            tol = streamed_tolerance(t, H)
            assert lower - tol <= window.min() and window.max() <= upper + tol, (model.render(t), H)


def test_switching_limits_match_long_run_extremes():
    """Upper and lower limits are approached by the partial averages."""
    for t in _trees("streamed-scan", 40, seed=5):
        if not any(s[0] == "geometric" and s[1] <= 5 for s in model.walk(t)):
            continue
        if any(s[0] == "pred" and s[1] in model.NULL_PREDICATES for s in model.walk(t)):
            continue  # the primes' density near 2^15 is far from its limit 0
        upper, lower = model.limits(t)
        H = 1 << 21
        nu = np.cumsum(model.brute_mask(t, H)) / np.arange(1, H + 1)
        seen = nu[H // 64 :]
        assert abs(seen.max() - float(upper)) < 0.02 and abs(seen.min() - float(lower)) < 0.02, model.render(t)


def test_streamed_verdict_rule_finds_the_roadmap_cases():
    """The rule the streamed-scan generator redraws by calls each of
    ROADMAP item 4's three cases wrong at the default horizon."""
    for t in FIXED_STREAMED:
        assert wrong_streamed_verdict(t, model.brute_mask(t, 10**6)), model.render(t)


def test_timed_ops_avoid_known_defects_and_defect_cases_do_not():
    for name, wl_cls in WORKLOADS.items():
        wl = wl_cls(7, "selftest")
        kinds = {wl.next_op().kind for _ in range(3 * len(wl.kinds))}
        assert not kinds & set(wl.defect_kinds), name
        assert wl_cls(7, "defects").defect_ops(), name
    wl = WORKLOADS["streamed-scan"](7, "selftest")
    wl.LOG2_RANGE = (12, 14)
    for _ in range(30):
        op = wl.next_op()
        assert wrong_streamed_verdict(op.trees[0], model.brute_mask(op.trees[0], op.horizon)) is None, op.text


def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == sorted(WORKLOADS, key=list(WORKLOADS).index)


@pytest.mark.parametrize(
    "workload,trace", [("exact-queries", 0), ("streamed-scan", 0), ("nullmod-chains", 0), ("nullmod-chains", 1)]
)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    spec = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    for name in END_TO_END if not trace else ():
        assert result["metrics"][name]["value"] > 0, name
