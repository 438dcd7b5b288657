"""cesaro benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload exact-queries --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  Each
run starts fresh child processes (``worker.py``), one workload at a time,
with numpy and BLAS threads pinned to 1.  The load is a closed loop with
one client: the next operation starts when the previous one has returned.

``--trace 0`` prints the end-to-end metrics.  Set-up time is measured from
outside, from process start to the worker's ``ready`` line, in six fresh
interpreters (five set-up-only ones and the timed one), and reported as
their median.  The timed worker warms up first, then loops for
``--seconds``; every answer is checked against the model in ``model.py``,
which does not call cesaro.  Times are reported at a reference machine
speed: each is scaled by a calibration kernel timed next to it (see
``calibrate.py``), because the shared machines drift by up to 1.8x within
a minute; the raw times are printed in the bases and kept in the result.

``--trace 1`` prints the per-layer metrics: a traced worker records spans
around each call into cesaro and makes extra calls that split an
operation into layers; an untraced worker replays the same operations so
the trace overhead is visible; a probe worker times each leaf kernel cold
and warm and gives every layer a number the workload does not reach; and
the CLI is timed in fresh processes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The timed operations are drawn
so that none hits a known defect (see ``workloads.KNOWN_DEFECTS``); after
the timed phase the worker runs the workload's fixed known-defect cases,
untimed and outside ``attempted`` and ``failed``, and every case is listed
with its result.  A wrong answer tagged with a known defect leaves the run
correct; any other failed check, timed or not, makes it incorrect.  The
full result, with the run environment and every failure, goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

from calibrate import scale  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170
CLI_SAMPLES = 5


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def worker(*args: str, timeout: float = CHILD_TIMEOUT) -> tuple[float, dict | None]:
    """Run worker.py; return (seconds from start to its ready line, the
    parsed last line or None for set-up-only workers)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        t1 = time.perf_counter()
        if ready.strip() != "ready":
            raise RuntimeError(f"worker did not start: {ready!r}")
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return t1 - t0, json.loads(lines[-1]) if lines else None


def environment() -> dict:
    import numpy

    # git must not find a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def sh(*cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=10).stdout
        except (OSError, subprocess.SubprocessError):
            return ""

    caches = {}
    for line in sh("lscpu").splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    digest = hashlib.sha256()
    for f in sorted((SRC / "cesaro").glob("*.py")):
        digest.update(f.read_bytes())
    return {
        "git_sha": sh("git", "rev-parse", "HEAD").strip() or None,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("L2 cache"),
        "l3": caches.get("L3 cache"),
        "platform": platform.platform(),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0..1)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def scaled_ns(res: dict) -> list[float]:
    """Op times at the reference machine speed (see calibrate.py)."""
    return [t * f for t, f in zip(res["times_ns"], res["scales"])]


def end_to_end(args) -> tuple[dict, dict, dict]:
    common = ("--workload", args.workload, "--seed", str(args.seed))
    raw_setups, setups = [], []
    for i in range(SETUP_SAMPLES + 1):
        factor = scale()
        if i < SETUP_SAMPLES:
            ready, _ = worker("setup", *common)
        else:
            ready, res = worker("run", *common, "--seconds", str(args.seconds))
        raw_setups.append(ready)
        setups.append(ready * factor)
    times = scaled_ns(res)
    if not times:
        raise RuntimeError("no operation completed")
    total = sum(times)
    raw_total = sum(res["times_ns"])
    n = len(times)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / (total / 1e9),
        "latency_p50_ms": percentile(times, 0.5) / 1e6,
        "latency_p90_ms": percentile(times, 0.9) / 1e6,
        "ns_per_element": total / res["horizon_sum"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    bases = {
        "setup_s": f"median of {len(setups)} fresh interpreters; raw median {statistics.median(raw_setups):.4g} s",
        "ops_per_s": f"{n} ops in {total / 1e9:.3f} s of calls into cesaro; raw {raw_total / 1e9:.3f} s",
        "latency_p50_ms": f"{n} ops",
        "latency_p90_ms": f"{n} ops, {n - int(0.9 * n)} beyond",
        "ns_per_element": f"{res['horizon_sum']} elements",
        "peak_rss_mb": f"ru_maxrss of the timed worker after set-up, warm-up and {res['peak_rss_ops']} ops",
    }
    return values, bases, res


def per_layer(args) -> tuple[dict, dict, dict]:
    common = ("--workload", args.workload, "--seed", str(args.seed))
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
    _, traced = worker("run", *common, "--seconds", str(args.seconds), "--trace", "--spans", str(spans))
    _, replay = worker("run", *common, "--ops", str(traced["attempted"]))
    _, probe = worker("probe", "--seed", str(args.seed))
    layers = dict(probe["layers"])
    layers.update(traced["layers"])  # the workload's own numbers win
    values = {k: v for k, (v, _) in layers.items()}
    bases = {k: b for k, (_, b) in layers.items()}

    values["trace.overhead_ratio"] = sum(scaled_ns(traced)) / sum(scaled_ns(replay))
    bases["trace.overhead_ratio"] = f"{traced['attempted']} ops, traced over untraced"
    values["workload.repeat_leaf_share"] = traced["repeat_leaf_share"]
    bases["workload.repeat_leaf_share"] = f"of {traced['attempted']} ops"
    cases = traced["defects"]
    wrong = [c for c in cases if c["failures"]]
    values["known_defects.wrong_answers"] = len(wrong)
    values["limits.classify.wrong_verdicts"] = sum(
        any(f["tag"] == "streamed-verdict" for f in c["failures"]) for c in wrong
    )
    bases["known_defects.wrong_answers"] = bases["limits.classify.wrong_verdicts"] = (
        f"of {len(cases)} known-defect cases"
    )

    env = child_env()
    imports, starts = [], []
    code = "import time; t = time.perf_counter(); import cesaro.cli; print(time.perf_counter() - t)"
    for _ in range(CLI_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True)
        imports.append(float(out.stdout) * 1e3)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "cesaro.cli", "limits", "inter(residue 6 {1,5}, compl(residue 4 {0}))"],
            cwd=ROOT, env=env, capture_output=True, timeout=60, check=True,
        )
        starts.append((time.perf_counter() - t0) * 1e3)
    values["cli.import_ms"] = statistics.median(imports)
    values["cli.process_start_ms"] = statistics.median(starts)
    bases["cli.import_ms"] = bases["cli.process_start_ms"] = f"median of {CLI_SAMPLES} processes"
    return values, bases, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cesaro" / "__init__.py").is_file():
        print(f"cesaro sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        values, bases, res = per_layer(args)
        spec = PER_LAYER
    else:
        values, bases, res = end_to_end(args)
        spec = END_TO_END
    missing = sorted(set(spec) - set(values))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1

    env = environment()
    cases = res["defects"]
    correct = res["unexpected"] == 0 and not any(
        f["tag"] == "unexpected" for c in cases for f in c["failures"]
    )
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env))
    print(f"repeat_leaf_share {res['repeat_leaf_share']:.4f} of {res['attempted']} ops")
    for name in spec:
        print(f"  {name:52s} {values[name]:14.6g} {spec[name]:6s}  ({bases[name]})")
    print(f"failed {res['failed']} of {res['attempted']} ops; by tag {json.dumps(res['by_tag'])}")
    shown: dict[str, int] = {}
    for f in res["failures"]:
        if shown.get(f["tag"], 0) < 5:
            shown[f["tag"]] = shown.get(f["tag"], 0) + 1
            print(f"  [{f['tag']}] op {f['op']} {f['kind']}: {f['case'][:120]} -- {f['message']}")
    print(f"known-defect cases, untimed: {sum(1 for c in cases if c['failures'])} of {len(cases)} wrong")
    for c in cases:
        verdict = "; ".join(f"[{f['tag']}] {f['message']}" for f in c["failures"]) or "right"
        print(f"  {c['kind']} at {c['horizon']}: {c['case'][:120]} -- {verdict}")
    for tag in sorted({f["tag"] for c in cases for f in c["failures"]} | set(shown)):
        if tag in KNOWN_DEFECTS:
            print(f"  known defect {tag}: {KNOWN_DEFECTS[tag]}")

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "args": vars(args),
        "environment": env,
        "metrics": {k: {"value": values[k], "unit": spec[k], "base": bases[k]} for k in spec},
        "attempted": res["attempted"],
        "failed": res["failed"],
        "unexpected": res["unexpected"],
        "by_tag": res["by_tag"],
        "failures": res["failures"],
        "known_defect_cases": cases,
        "repeat_leaf_share": res["repeat_leaf_share"],
    }
    out.write_text(json.dumps(record, indent=1))
    print(f"full result: {out.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": values[k], "unit": spec[k]} for k in spec},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
