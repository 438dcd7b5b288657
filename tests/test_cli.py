"""Command-line interface: golden outputs, JSON shapes, exit codes."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import cesaro as c
from cesaro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_golden(capsys):
    code, out, _ = run(capsys, "eval", "residue 2 {0}", "--N", "10")
    assert code == 0
    assert out == "1/2 = 0.5\n"
    code, out, _ = run(capsys, "eval", "residue 3 {0,1}", "--N", "15")
    assert code == 0
    assert out == "2/3 = 0.666666666667\n"


def test_limits_exact_json(capsys):
    code, out, _ = run(capsys, "limits", "blocks geometric 2")
    assert code == 0
    doc = json.loads(out)
    assert doc["upper"] == {"rational": "2/3", "value": pytest.approx(2 / 3)}
    assert doc["verdict"] == "NotInF"
    assert doc["method"] == "block-formula"


def test_limits_streamed_json(capsys):
    # two generators, geometric 2 and paired's, have no joint exact rule
    code, out, _ = run(
        capsys,
        "limits",
        "inter(blocks geometric 2, predicate paired)",
        "--horizon",
        "65536",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "streamed" and doc["horizon"] == 65536
    assert doc["verdict"] == "NotInF"


def test_limits_of_one_generator_and_a_residue_class_json(capsys):
    code, out, _ = run(capsys, "limits", "inter(blocks geometric 2, residue 2 {0})")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "block-formula" and doc["horizon"] is None
    assert (doc["upper"]["rational"], doc["lower"]["rational"]) == ("1/3", "1/6")
    assert doc["verdict"] == "NotInF"


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "eval", "frobnicate", "--N", "5")
    assert code == 2
    assert "parse error" in err and "position" in err


def test_trace_csv(capsys):
    code, out, _ = run(capsys, "trace", "all", "--horizon", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,nu_N"
    assert lines[1] == "1,1"
    assert lines[-1] == "16,1"
    ns = [int(row.split(",")[0]) for row in lines[1:]]
    assert ns == sorted(set(ns))


def _trace_oracle(expr, horizon):
    """The trace CSV from an N-long int64 count array."""
    counts = np.cumsum(c.indicator(c.parse_expr(expr), horizon), dtype=np.int64)
    ns = []
    i = 0
    while True:
        n = int(2 ** (i / 8))
        if n > horizon:
            break
        if not ns or n > ns[-1]:
            ns.append(n)
        i += 1
    if ns[-1] != horizon:
        ns.append(horizon)
    return "N,nu_N\n" + "".join(f"{n},{counts[n - 1] / n:.12g}\n" for n in ns)


@pytest.mark.parametrize(
    "expr, horizon",
    [
        ("blocks geometric 2", 2),
        ("inter(blocks geometric 2, residue 2 {0})", 65536),
        ("union(greedy 2/7, predicate primes)", 100_003),
        ("midpoint(residue 4 {0}, residue 2 {0})", 4097),
    ],
)
def test_trace_csv_matches_count_array(capsys, expr, horizon):
    code, out, _ = run(capsys, "trace", expr, "--horizon", str(horizon))
    assert code == 0
    assert out == _trace_oracle(expr, horizon)


def test_nullmod_json_and_audit(capsys, tmp_path):
    audit = tmp_path / "audit.csv"
    code, out, _ = run(
        capsys,
        "nullmod",
        "residue 2 {1}",
        "--horizon",
        "1000",
        "--audit",
        str(audit),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == "1/2"
    assert doc["removed"] == [1]
    assert doc["kept_count"] == 499
    assert not doc["approximate"]
    rows = audit.read_text().strip().splitlines()
    assert rows[0] == "N,member,kept_or_removed,running_nu"
    assert len(rows) == 1001


def test_nullmod_bad_bound_exit_code(capsys):
    code, _, err = run(capsys, "nullmod", "residue 2 {1}", "--bound", "1/3")
    assert code == 4
    assert "nullmod error" in err


def test_chain_verify_and_certify(capsys, tmp_path):
    chainfile = tmp_path / "chain.txt"
    chainfile.write_text(
        "# a nested residue chain\n"
        "residue 2 {0}\n"
        "residue 8 {0}\n"
        "residue 4 {0}\n"
    )
    code, out, _ = run(capsys, "chain", "verify", str(chainfile), "--horizon", "1000")
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"] == ["residue 8 {0}", "residue 4 {0}", "residue 2 {0}"]

    code, out, _ = run(
        capsys,
        "chain",
        "certify",
        str(chainfile),
        "--epsilon",
        "1/100",
        "--horizon",
        "100000",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon"] == 0.01
    assert doc["N_epsilon"] <= 200


def test_chain_certify_failure_exit_code(capsys, tmp_path):
    chainfile = tmp_path / "chain.txt"
    chainfile.write_text("explicit{%s}\n" % ",".join(str(i) for i in range(1, 400)))
    code, out, _ = run(
        capsys, "chain", "certify", str(chainfile), "--epsilon", "1/10",
        "--horizon", "400",
    )
    assert code == 5
    assert "failure" in json.loads(out)


def test_chain_incomparable_exit_code(capsys, tmp_path):
    chainfile = tmp_path / "chain.txt"
    chainfile.write_text("residue 2 {0}\nresidue 3 {0}\n")
    code, _, err = run(capsys, "chain", "verify", str(chainfile))
    assert code == 5
    assert "chain error" in err


def test_chain_certify_element_without_exact_limit_exit_code(capsys, tmp_path):
    chainfile = tmp_path / "chain.txt"
    chainfile.write_text("union(inter(predicate paired, blocks geometric 3), explicit{2,5})\n")
    code, out, err = run(capsys, "chain", "certify", str(chainfile), "--epsilon", "1/10")
    assert code == 5 and out == ""
    assert err == "chain error: element 0 has no exact limit: Union is not exactly solvable here\n"


def test_chain_certify_greedy_element_exit_code(capsys, tmp_path):
    chainfile = tmp_path / "chain.txt"
    chainfile.write_text("union(greedy 1/3, explicit{2,5})\n")
    code, out, _ = run(capsys, "chain", "certify", str(chainfile), "--epsilon", "1/10")
    assert code == 0
    assert json.loads(out)["N_epsilon"] == 11


def test_quotient_closure(capsys, tmp_path):
    seedfile = tmp_path / "seed.json"
    seedfile.write_text(
        json.dumps({"universe": 3, "members": [[], [1, 2], [3], [1, 2, 3]]})
    )
    code, out, _ = run(capsys, "quotient", "closure", "--seed", str(seedfile))
    assert code == 0
    doc = json.loads(out)
    assert doc["closure"] == [[], [1, 2], [1, 2, 3], [3]]


def test_quotient_build(capsys, tmp_path):
    idealfile = tmp_path / "ideal.json"
    idealfile.write_text(json.dumps({"universe": 3, "members": [[], [1]]}))
    code, out, _ = run(capsys, "quotient", "build", "--ideal", str(idealfile))
    assert code == 0
    doc = json.loads(out)
    assert doc["carrier_size"] == 4


def test_quotient_nulleq(capsys):
    code, out, _ = run(
        capsys,
        "quotient",
        "nulleq",
        "residue 2 {0}",
        "union(residue 2 {0}, predicate pow2)",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Equivalent" and doc["exact"]


def test_repro_prints_pass_lines(capsys):
    code, out, _ = run(capsys, "repro")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert all(line.startswith("PASS ") for line in lines)


def test_default_horizon_env(capsys, monkeypatch):
    monkeypatch.setenv("CESARO_DEFAULT_HORIZON", "4096")
    code, out, _ = run(capsys, "limits", "inter(blocks geometric 2, predicate paired)")
    assert code == 0
    assert json.loads(out)["horizon"] == 4096


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_default_horizon_env_rejects_bad_value(capsys, monkeypatch, raw):
    monkeypatch.setenv("CESARO_DEFAULT_HORIZON", raw)
    with pytest.raises(SystemExit) as exc:
        main(["limits", "residue 2 {0}"])
    assert exc.value.code == 2
    assert "CESARO_DEFAULT_HORIZON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["nullmod", "residue 2 {1}", "--bound", "abc"],
        ["nullmod", "residue 2 {1}", "--bound", "1/0"],
        ["chain", "certify", "chain.txt", "--epsilon", "abc"],
        ["chain", "certify", "chain.txt", "--epsilon", "1/0"],
    ],
)
def test_malformed_fractions_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "not a fraction" in err


def test_nullmod_bound_zero_is_a_bound(capsys):
    # 0 is not the exact upper limit 1/2 of the odd numbers ...
    code, _, err = run(capsys, "nullmod", "residue 2 {1}", "--bound", "0")
    assert code == 4 and "nullmod error" in err
    # ... but it is that of the squares, which it trims away entirely
    code, out, _ = run(capsys, "nullmod", "predicate squares", "--bound", "0", "--horizon", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == "0/1" and doc["kept_count"] == 0
    assert doc["removed"] == [k * k for k in range(1, 11)]


def test_chain_certify_takes_a_decimal_epsilon(capsys, tmp_path):
    chainfile = tmp_path / "chain.txt"
    chainfile.write_text("residue 2 {0}\n")
    code, out, _ = run(
        capsys, "chain", "certify", str(chainfile), "--epsilon", "0.01", "--horizon", "1000"
    )
    assert code == 0
    assert json.loads(out)["epsilon"] == 0.01


def test_trace_beyond_the_mask_limit_is_a_typed_error(capsys):
    tracemalloc.start()
    try:
        code = main(["trace", "union(residue 2 {0}, blocks geometric 2)", "--horizon", str(10**12)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "mask limit" in capsys.readouterr().err
    assert peak < 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "verify", "{tmp}/missing.txt"],
        ["chain", "verify", "{tmp}/latin-1.txt"],
        ["quotient", "closure", "--seed", "{tmp}"],
        ["nullmod", "residue 2 {1}", "--horizon", "1000", "--audit", "{tmp}/no/dir/x.csv"],
        ["quotient", "closure"],
        ["quotient", "build"],
        ["quotient", "nulleq", "residue 2 {0}"],
        ["quotient", "closure", "--seed", "{tmp}/not-json.json"],
        ["quotient", "build", "--ideal", "{tmp}/no-members.json"],
    ],
)
def test_unusable_inputs_are_usage_errors(capsys, tmp_path, argv):
    (tmp_path / "latin-1.txt").write_bytes("explicit{1} # \u00e9\n".encode("latin-1"))
    (tmp_path / "not-json.json").write_text("universe 3, members [[]]\n")
    (tmp_path / "no-members.json").write_text(json.dumps({"universe": 3}))
    code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_nullmod_audit_path_is_checked_before_the_trim(capsys, tmp_path, monkeypatch):
    def trim(*args):
        raise AssertionError("null_modify ran before the audit path was opened")

    monkeypatch.setattr("cesaro.cli.null_modify", trim)
    audit = tmp_path / "no" / "dir" / "x.csv"
    argv = ["nullmod", "residue 2 {1}", "--horizon", "20000000", "--audit", str(audit)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage error: cannot open {audit}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "action, flags, extend",
    [
        ("dense", ["--k", "2"], lambda chain: c.dense_extension(chain, 2)),
        ("skeleton", ["--epsilon", "1/5"], lambda chain: c.skeleton(chain, Fraction(1, 5))),
        ("maximal", ["--universe", "12"], lambda chain: c.maximal_extension(chain, 12)),
    ],
)
def test_chain_extensions_match_the_library(capsys, tmp_path, action, flags, extend):
    lines = ["residue 8 {0}", "residue 2 {0}", "residue 16 {0}", "residue 4 {0}"]
    chainfile = tmp_path / "chain.txt"
    chainfile.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "chain", action, str(chainfile), "--horizon", "1000", *flags)
    assert code == 0
    chain = c.verify_chain([c.parse_expr(t) for t in lines], 12 if action == "maximal" else 1000)
    want = [c.format_expr(e) for e in extend(chain).elements]
    assert json.loads(out)["elements"] == want
    assert len(want) != len(lines)  # each action changes the chain


def test_quotient_error_exit_code(capsys, tmp_path):
    seedfile = tmp_path / "seed.json"
    seedfile.write_text(json.dumps({"universe": 2, "members": [[], [3]]}))
    code, out, err = run(capsys, "quotient", "closure", "--seed", str(seedfile))
    assert code == 6 and out == ""
    assert err == "quotient error: element 3 outside universe 1..2\n"
