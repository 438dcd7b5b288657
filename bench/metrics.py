"""Metric names and units, and the per-layer metrics derived from spans.

``BENCHMARK.json`` at the repository root lists the same names and units;
``test_bench.py`` checks that the two agree.
"""

from __future__ import annotations

from collections import defaultdict

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ns_per_element": "ns",
    "peak_rss_mb": "MB",
}

LEAVES = (
    "residue",
    "explicit",
    "blocks_geometric",
    "blocks_poly",
    "blocks_list",
    "greedy",
    "primes",
    "paired",
    "squares",
)

PER_LAYER = {
    "dsl.parse_expr.us_per_call": "us",
    "dsl.format_expr.us_per_call": "us",
}
for _leaf in LEAVES:
    PER_LAYER[f"exprs.indicator.{_leaf}.cold_ns_per_element"] = "ns"
    PER_LAYER[f"exprs.indicator.{_leaf}.warm_ns_per_element"] = "ns"
    PER_LAYER[f"exprs.indicator.{_leaf}.x_numpy_pass"] = "ratio"
    PER_LAYER[f"exprs.count_upto.{_leaf}.us_per_call"] = "us"
PER_LAYER.update(
    {
        "exprs.walk.self_ns_per_element": "ns",
        "exprs.walk.temp_bytes_per_element": "bytes",
        "exprs.canonicalize.us_per_call": "us",
        "exprs.prefix_scan.us_per_call": "us",
        "exprs.gap_functions.us_per_call": "us",
        "limits.exact_limits.us_per_call.mod_small": "us",
        "limits.exact_limits.us_per_call.mod_large": "us",
        "limits.exact_limits.hit_ratio": "ratio",
        "limits.estimate_limits.self_ns_per_element": "ns",
        "limits.classify.verdict.InF": "count",
        "limits.classify.verdict.Null": "count",
        "limits.classify.verdict.NotInF": "count",
        "limits.classify.verdict.Unknown": "count",
        "limits.classify.wrong_verdicts": "count",
        "known_defects.wrong_answers": "count",
        "nullmod.null_modify.ns_per_element": "ns",
        "nullmod.verify.ns_per_element": "ns",
        "nullmod.export_audit.ns_per_row": "ns",
        "nullmod.chain_psi.ns_per_element_set": "ns",
        "nullmod.chain_phi.ns_per_element_set": "ns",
        "nullmod.disjoint_modify.ns_per_element_set": "ns",
        "chains.verify_chain.ns_per_element_set": "ns",
        "chains.uniformity_check.ns_per_element_set": "ns",
        "chains.dense_extension.ms_per_call": "ms",
        "chains.maximal_extension.ms_per_call": "ms",
        "quotient.null_equivalent.exact_us_per_call": "us",
        "quotient.null_equivalent.streamed_ns_per_element": "ns",
        "quotient.build_algebra.ms_per_call": "ms",
        "quotient.build_quotient.ms_per_call": "ms",
        "cli.import_ms": "ms",
        "cli.process_start_ms": "ms",
        "cli.main.limits_us_per_call": "us",
        "trace.overhead_ratio": "ratio",
        "workload.repeat_leaf_share": "ratio",
    }
)

#: split of limits.exact_limits.us_per_call by the query's common modulus
MOD_SPLIT = 10**4


def _dur(s) -> int:
    return s["end_ns"] - s["start_ns"]


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metric -> (value, base) from one run's spans.  A metric
    whose spans are absent is left out; the base says what the value was
    averaged over."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    out: dict[str, tuple[float, str]] = {}

    def per_call(metric, name, scale, pred=lambda s: True):
        sel = [s for s in by_name[name] if pred(s)]
        if sel:
            out[metric] = (sum(map(_dur, sel)) / len(sel) / scale, f"{len(sel)} calls")

    def per_element(metric, name, pred=lambda s: True):
        sel = [s for s in by_name[name] if pred(s)]
        n = sum(s["attrs"]["n"] for s in sel)
        if n:
            out[metric] = (sum(map(_dur, sel)) / n, f"{len(sel)} calls, {n} elements")

    per_call("dsl.parse_expr.us_per_call", "dsl.parse_expr", 1e3)
    per_call("dsl.format_expr.us_per_call", "dsl.format_expr", 1e3)
    per_call("exprs.canonicalize.us_per_call", "exprs.canonicalize", 1e3)
    per_call("exprs.prefix_scan.us_per_call", "exprs.prefix_scan", 1e3)
    per_call("exprs.gap_functions.us_per_call", "exprs.gap_functions", 1e3)

    reference = by_name["numpy.reference"]
    ref_ns = sum(map(_dur, reference)) / max(1, sum(s["attrs"]["n"] for s in reference))
    for leaf in LEAVES:
        for phase in ("cold", "warm"):
            per_element(
                f"exprs.indicator.{leaf}.{phase}_ns_per_element",
                "exprs.indicator.leaf",
                lambda s, leaf=leaf, phase=phase: s["attrs"]["leaf"] == leaf
                and s["attrs"]["phase"] == phase,
            )
        warm = out.get(f"exprs.indicator.{leaf}.warm_ns_per_element")
        if warm and reference:
            out[f"exprs.indicator.{leaf}.x_numpy_pass"] = (
                warm[0] / ref_ns,
                f"warm indicator over a reference numpy pass of {ref_ns:.3g} ns/element",
            )
        per_call(
            f"exprs.count_upto.{leaf}.us_per_call",
            "exprs.count_upto",
            1e3,
            lambda s, leaf=leaf: s["attrs"]["leaf"] == leaf,
        )

    walk = by_name["exprs.walk.node"]
    if walk:
        dur = {s["id"]: _dur(s) for s in walk}
        inner = [s for s in walk if s["attrs"]["children"]]
        child_ids = {c for s in walk for c in s["attrs"]["children"]}
        roots = [s for s in walk if s["id"] not in child_ids]
        n_inner = sum(s["attrs"]["n"] for s in inner)
        n_roots = sum(s["attrs"]["n"] for s in roots)
        if n_inner:
            self_ns = sum(dur[s["id"]] - sum(dur[c] for c in s["attrs"]["children"]) for s in inner)
            out["exprs.walk.self_ns_per_element"] = (
                self_ns / n_inner,
                f"{len(inner)} combinator nodes, {n_inner} elements",
            )
        out["exprs.walk.temp_bytes_per_element"] = (
            sum(s["attrs"]["bytes"] for s in inner) / n_roots,
            f"output arrays of {len(inner)} combinator nodes over {len(roots)} trees",
        )

    exact = by_name["limits.exact_limits"]
    per_call(
        "limits.exact_limits.us_per_call.mod_small",
        "limits.exact_limits",
        1e3,
        lambda s: s["attrs"]["modulus"] < MOD_SPLIT,
    )
    per_call(
        "limits.exact_limits.us_per_call.mod_large",
        "limits.exact_limits",
        1e3,
        lambda s: s["attrs"]["modulus"] >= MOD_SPLIT,
    )
    if exact:
        hits = sum(1 for s in exact if s["attrs"].get("hit", "error" not in s["attrs"]))
        out["limits.exact_limits.hit_ratio"] = (hits / len(exact), f"{hits} of {len(exact)}")

    est = by_name["limits.estimate_limits"]
    if est:
        ind = {s["op"]: _dur(s) for s in by_name["exprs.indicator"]}
        n = sum(s["attrs"]["n"] for s in est)
        self_ns = sum(_dur(s) - ind.get(s["op"], 0) for s in est)
        out["limits.estimate_limits.self_ns_per_element"] = (
            self_ns / n,
            f"{len(est)} calls, {n} elements, indicator of the same tree subtracted",
        )

    classify = by_name["limits.classify"]
    if classify:
        base = f"of {len(classify)} classify calls"
        for kind in ("InF", "Null", "NotInF", "Unknown"):
            c = sum(1 for s in classify if s["attrs"].get("kind") == kind)
            out[f"limits.classify.verdict.{kind}"] = (c, base)

    per_element("nullmod.null_modify.ns_per_element", "nullmod.null_modify")
    per_element("nullmod.verify.ns_per_element", "nullmod.verify")
    per_element("nullmod.export_audit.ns_per_row", "nullmod.export_audit")
    for name in ("chain_psi", "chain_phi", "disjoint_modify"):
        per_element(f"nullmod.{name}.ns_per_element_set", f"nullmod.{name}")
    per_element("chains.verify_chain.ns_per_element_set", "chains.verify_chain")
    per_element("chains.uniformity_check.ns_per_element_set", "chains.uniformity_check")
    per_call("chains.dense_extension.ms_per_call", "chains.dense_extension", 1e6)
    per_call("chains.maximal_extension.ms_per_call", "chains.maximal_extension", 1e6)
    per_call("quotient.null_equivalent.exact_us_per_call", "quotient.null_equivalent.exact", 1e3)
    per_element(
        "quotient.null_equivalent.streamed_ns_per_element", "quotient.null_equivalent.streamed"
    )
    per_call("quotient.build_algebra.ms_per_call", "quotient.build_algebra", 1e6)
    per_call("quotient.build_quotient.ms_per_call", "quotient.build_quotient", 1e6)
    per_call("cli.main.limits_us_per_call", "cli.main.limits", 1e3)
    return out
