"""One benchmark process: imports cesaro, builds a workload from its seed,
warms up, runs the timed closed loop, and prints one JSON result line.

    worker.py setup --workload W --seed S          import + inputs, then exit
    worker.py run   --workload W --seed S --seconds T [--trace] [--ops N]
    worker.py probe --seed S                       per-layer probe, traced

Every mode prints ``ready`` as soon as cesaro is imported and the
workload's inputs exist, so the parent can time set-up from outside.
``run`` measures for T seconds, or exactly N operations with ``--ops``;
``--trace`` records spans and runs each workload's extra layer calls.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import model
import tracing
from calibrate import calibration_ns, reference_ns
from metrics import LEAVES, layer_metrics
from workloads import WORKLOADS

WARMUP_SECONDS = 1.5
#: warm-up operations scan at most this many elements, so the warm-up runs
#: the code paths once without filling caches the timed operations use
WARMUP_MAX_HORIZON = 1 << 16
WARMUP_LOG2_RANGE = (12, 16)


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _setup(name: str, seed: int, stream: str = "main"):
    import cesaro as cs

    wl = WORKLOADS[name](seed, stream)
    wl.setup(cs)
    # the first batch is generated during set-up: the inputs known before the loop
    batch = [wl.next_op() for _ in range(wl.batch)]
    return cs, wl, batch


def _leaf_keys(op) -> set[str]:
    return {model.render(leaf) for t in op.trees for leaf in model.leaves(t)}


def _warm_up(name: str, seed: int, cs, seen: set) -> None:
    wl = WORKLOADS[name](seed, "warmup")
    if hasattr(wl, "LOG2_RANGE"):
        wl.LOG2_RANGE = WARMUP_LOG2_RANGE
    wl.setup(cs)
    start = time.perf_counter()
    while time.perf_counter() - start < WARMUP_SECONDS:
        op = wl.next_op()
        if op.horizon > WARMUP_MAX_HORIZON:
            continue
        seen |= _leaf_keys(op)
        wl.check(op, wl.run(op, wl.prepare(op, cs), cs, tracing.NULL))


#: seconds between two calibrations of the machine's speed
CALIBRATE_EVERY = 0.25


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_loop(wl, pending, cs, tr, seconds: float, n_ops: int | None, seen: set) -> dict:
    """Closed loop with one client.  Ops run in batches of ``wl.batch``:
    inputs are built for the whole batch, the ops run back to back, and
    their answers are checked after the batch, so the model's work does
    not evict the engine's working set between two timed calls."""
    times, scales, horizons, failures = [], [], 0, []
    peak_rss = None
    sets = wl.calibrate_sets
    cal_prev, cal_at = calibration_ns(sets), time.perf_counter()
    attempted = failed = unexpected = repeats = 0
    by_tag: dict[str, int] = {}
    start = time.perf_counter()

    def more() -> bool:
        if n_ops is not None:
            return attempted < n_ops
        return time.perf_counter() - start < seconds

    while more():
        prepared = []
        for op in [pending.pop(0) if pending else wl.next_op() for _ in range(wl.batch)]:
            try:
                prepared.append((op, wl.prepare(op, cs), None))
            except Exception as exc:  # counted below like a failing call
                prepared.append((op, None, exc))
        done = []
        for op, args, err in prepared:
            if not more():
                break
            keys = _leaf_keys(op)
            repeats += keys <= seen
            seen |= keys
            attempted += 1
            tr.op = op.id
            ans = None
            if err is None:
                try:
                    with tr.span("op", kind=op.kind):
                        t0 = time.perf_counter_ns()
                        ans = wl.run(op, args, cs, tr)
                        dt = time.perf_counter_ns() - t0
                    times.append(dt)
                    horizons += op.horizon
                except Exception as exc:  # one failing op must not end the run
                    err = exc
            done.append((op, args, ans, err))
            if attempted == wl.rss_after_ops:
                peak_rss = _rss_mb()
        if time.perf_counter() - cal_at >= CALIBRATE_EVERY or not more():
            # ops since the last calibration take the mean of both ends
            cal = calibration_ns(sets)
            factor = reference_ns(sets) / ((cal_prev + cal) / 2)
            scales += [factor] * (len(times) - len(scales))
            cal_prev, cal_at = cal, time.perf_counter()
        for op, args, ans, err in done:
            tr.op = op.id
            try:
                if err is not None:
                    raise err
                if tr.enabled:
                    wl.extra(op, args, cs, tr)
                fails = wl.check(op, ans)
            except Exception as exc:
                fails = [("unexpected", f"raised {type(exc).__name__}: {exc}")]
                traceback.print_exception(exc, file=sys.stderr)
            if not fails:
                continue
            failed += 1
            tags = {t for t, _ in fails}
            unexpected += "unexpected" in tags
            for t in tags:
                by_tag[t] = by_tag.get(t, 0) + 1
            for tag, msg in fails:
                failures.append({"op": op.id, "kind": op.kind, "case": op.text[:300], "tag": tag, "message": msg})
    return {
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "by_tag": by_tag,
        "failures": failures,
        "times_ns": times,
        "scales": scales,
        "horizon_sum": horizons,
        "repeat_leaf_share": repeats / max(1, attempted),
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": peak_rss or _rss_mb(),
        "peak_rss_ops": min(attempted, wl.rss_after_ops),
    }


def run_defects(name: str, seed: int, cs) -> list[dict]:
    """Run the workload's known-defect cases once, untimed and untraced,
    and check each against the model; one entry per case."""
    wl = WORKLOADS[name](seed, "defects")
    wl.setup(cs)
    cases = []
    for op in wl.defect_ops():
        try:
            fails = wl.check(op, wl.run(op, wl.prepare(op, cs), cs, tracing.NULL))
        except Exception as exc:
            fails = [("unexpected", f"raised {type(exc).__name__}: {exc}")]
            traceback.print_exception(exc, file=sys.stderr)
        cases.append(
            {
                "op": op.id,
                "kind": op.kind,
                "case": op.text[:300],
                "horizon": op.horizon,
                "failures": [{"tag": t, "message": m} for t, m in fails],
            }
        )
    return cases


def cmd_run(args) -> dict:
    cs, wl, batch = _setup(args.workload, args.seed)
    _ready()
    seen: set[str] = set()
    _warm_up(args.workload, args.seed, cs, seen)
    tr = tracing.Tracer() if args.trace else tracing.NULL
    out = run_loop(wl, batch, cs, tr, args.seconds, args.ops, seen)
    if args.trace:
        spans = tr.dump()
        out["layers"] = layer_metrics(spans)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(spans, fh)
    if args.ops is None:  # not for the untraced replay of a traced run
        out["defects"] = run_defects(args.workload, args.seed, cs)
    return out


# ---------------------------------------------------------------------------
# per-layer probe


PROBE_N = 1 << 20


def _probe_leaves(seed: int):
    import random

    rng = random.Random(f"probe:{seed}")
    q = rng.randint(3, 5000)
    p = rng.randint(1, q - 1)
    runs = ",".join(str(rng.randint(1, 8)) for _ in range(rng.randint(1, 4)))
    picks = sorted(rng.sample(range(1, PROBE_N), 1000))
    return {
        "residue": f"residue {rng.randint(5, 50)} {{1,3}}",
        "explicit": "explicit{%s}" % ",".join(map(str, picks)),
        "blocks_geometric": f"blocks geometric {rng.randint(2, 400)}",
        "blocks_poly": f"blocks poly {rng.randint(1, 4)}",
        "blocks_list": f"blocks list [{rng.randint(0, 5)};{runs}] cycle",
        "greedy": f"greedy {p}/{q}",
        "primes": "predicate primes",
        "paired": "predicate paired",
        "squares": "predicate squares",
    }


def _probe_kernels(cs, tr, seed: int) -> None:
    import numpy as np

    N = PROBE_N
    leaves = _probe_leaves(seed)
    for leaf in LEAVES:
        e = cs.parse_expr(leaves[leaf])
        with tr.span("exprs.indicator.leaf", leaf=leaf, phase="cold", n=N):
            cs.indicator(e, N)
        for _ in range(3):
            with tr.span("exprs.indicator.leaf", leaf=leaf, phase="warm", n=N):
                cs.indicator(e, N)
            with tr.span("numpy.reference", n=N):
                ~np.zeros(N, dtype=bool)  # allocate and write N booleans once
        for _ in range(5):
            with tr.span("exprs.count_upto", leaf=leaf):
                cs.count_upto(e, N)
        for start in (1 << 10, 1 << 14):
            with tr.span("exprs.gap_functions"):
                cs.gap_functions(e, start, 5 * start + 100)
    buf = io.StringIO()
    for _ in range(50):
        with contextlib.redirect_stdout(buf), tr.span("cli.main.limits"):
            cs.cli.main(["limits", "inter(residue 6 {1,5}, compl(residue 4 {0}))"])


def cmd_probe(args) -> dict:
    """Time each leaf kernel cold and warm in a fresh process, then one
    short cycle of every workload with tracing, so every layer has a
    number whichever workload the traced run was for."""
    import cesaro as cs
    import cesaro.cli  # noqa: F401  (cs.cli.main below)

    _ready()
    tr = tracing.Tracer()
    _probe_kernels(cs, tr, args.seed)
    for name, n_ops in (("exact-queries", 40), ("streamed-scan", 14), ("nullmod-chains", 13)):
        wl = WORKLOADS[name](args.seed, "probe")
        if hasattr(wl, "LOG2_RANGE"):
            wl.LOG2_RANGE = (14, 17)
        wl.setup(cs)
        run_loop(wl, [], cs, tr, 0, n_ops, set())
    return {"layers": layer_metrics(tr.dump())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "probe"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the trace's spans here")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        cs, _, _ = _setup(args.workload, args.seed)
        _ready()
        return 0
    out = cmd_run(args) if args.mode == "run" else cmd_probe(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
