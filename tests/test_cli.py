import hashlib
import json
from pathlib import Path

import pytest

from semiinv import cli, conjinv, relations
from semiinv.poly import ZZ, Polynomial
from semiinv.verify import RunConfig


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "elapsed_s"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_emit_f300(capsys):
    code, out, _ = run_cli(capsys, "emit", "f300")
    assert code == 0
    assert out.strip() == (
        "x1_11*x1_22*x1_33 - x1_11*x1_23*x1_32 - x1_12*x1_21*x1_33"
        " + x1_12*x1_23*x1_31 + x1_13*x1_21*x1_32 - x1_13*x1_22*x1_31"
    )


def test_emit_f_aliases_agree(capsys):
    code1, out1, _ = run_cli(capsys, "emit", "f1")
    code2, out2, _ = run_cli(capsys, "emit", "f300")
    assert code1 == code2 == 0
    assert out1 == out2


def test_emit_deterministic(capsys):
    for name in ("A", "nakamoto", "q", "Stilde", "tracegens"):
        _, out1, _ = run_cli(capsys, "emit", name)
        _, out2, _ = run_cli(capsys, "emit", name)
        assert out1 == out2


def test_emit_relation_term_count(capsys):
    code, out, _ = run_cli(capsys, "emit", "A")
    assert code == 0
    assert out.count(" + ") + out.count(" - ") + 1 == 76


def test_emit_json_parses_back(capsys):
    from semiinv import textio

    code, out, _ = run_cli(capsys, "emit", "h", "--format", "json")
    assert code == 0
    from semiinv import generators as gen

    assert textio.from_json(out) == gen.generator_table().h


def test_emit_tracegens_lists_all_eleven(capsys):
    code, out, _ = run_cli(capsys, "emit", "tracegens")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 11
    assert lines[0].startswith("t1 = ")
    assert lines[-1].startswith("r = ")


def test_emissions_and_solve_hwv_match_pinned_digests(capsys):
    """Every emission, in text and in JSON, and the solve-hwv output hash to
    the SHA-256 digests in emission_digests.json, keyed by the command line.
    A change that means to alter an output must update the file with it."""
    pinned = json.loads((Path(__file__).parent / "emission_digests.json").read_text())
    argvs = [("solve-hwv",)]
    for name in cli.emission_names():
        argvs += [("emit", name), ("emit", name, "--format", "json")]
    got = {}
    for argv in argvs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        got[" ".join(argv)] = hashlib.sha256(out.encode()).hexdigest()
    assert got == pinned


def test_reports_match_pinned_digests(capsys):
    """The JSON reports of verify all (3 trials, seed 0) in modular and in
    exact mode and of the exact main-relation slice proof, with every
    elapsed_s removed and the rest dumped with indent 2 and sorted keys, hash
    to the SHA-256 digests in report_digests.json, keyed by the command
    line."""
    pinned = json.loads((Path(__file__).parent / "report_digests.json").read_text())
    got = {}
    for command in pinned:
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0, command
        report = json.dumps(_strip_timing(json.loads(out)), indent=2, sort_keys=True)
        got[command] = hashlib.sha256(report.encode()).hexdigest()
    assert got == pinned


def test_emit_unknown_name_exits_2(capsys):
    code, _, err = run_cli(capsys, "emit", "nosuch")
    assert code == 2
    assert "unknown emission name" in err


def test_verify_s_ab_exact(capsys):
    code, out, _ = run_cli(capsys, "verify", "s-ab", "--mode", "exact")
    assert code == 0
    assert "[PASS]" in out


def test_verify_bad_prime_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "s-ab", "--primes", "9")
    assert code == 2
    assert "not an odd prime" in err


def test_verify_characteristic_three_gate(capsys):
    code, _, err = run_cli(
        capsys, "verify", "nonvanishing", "--primes", "3"
    )
    assert code == 2
    code, out, _ = run_cli(
        capsys, "verify", "nonvanishing", "--primes", "3", "--allow-small-char"
    )
    assert code == 0


@pytest.mark.parametrize("suite", ["theorem1", "all"])
def test_verify_characteristic_three_with_a_denominator_three_exits_2(capsys, suite):
    """Theorem 1's identity has a coefficient with denominator 3, so it has
    no value mod 3: a usage error naming the identity and the prime."""
    code, out, err = run_cli(
        capsys, "verify", suite, "--primes", "3", "--allow-small-char", "--trials", "1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: theorem1: denominator 3 not invertible mod 3\n"


def test_verify_repeated_prime_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "verify", "theorem1", "--primes", "2147483647,2147483647", "--trials", "3"
    )
    assert code == 2
    assert "repeated prime" in err


def test_verify_empty_prime_list_exits_2(capsys):
    """No prime means no evaluation, which must not read as a PASS."""
    code, out, err = run_cli(capsys, "verify", "main-relation", "--primes", ",")
    assert code == 2
    assert out == ""
    assert err == "error: the prime list is empty\n"


def test_verify_main_relation_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "main-relation", "--trials", "4", "--seed", "1",
        "--primes", "2147483647,5",
    )
    assert code == 0
    assert "[PASS] main-relation" in out


def test_json_report_deterministic_modulo_timing(capsys):
    runs = (
        ("main-relation", "--trials", "3", "--primes", "2147483629,7"),
        ("nakamoto", "--seed", "0"),
        ("nakamoto", "--seed", "1"),
    )
    for run in runs:
        args = ("verify", *run, "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        r1 = _strip_timing(json.loads(out1))
        r2 = _strip_timing(json.loads(out2))
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert r1["schema"] == "semiinv-report/1"
        assert r1["passed"] is True


def test_jobs_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "main-relation", "--trials", "2", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_budget_option_is_gone(capsys):
    """Exact expansions run to the end: no term cap, no fallback."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nakamoto", "--mode", "exact", "--budget", "10"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err
    assert "budget" not in RunConfig().to_json()


def test_negative_control_corrupted_relation_via_cli(capsys, monkeypatch):
    mutated = relations.defining_relation() + Polynomial.monomial(
        ZZ, relations.ABSTRACT12, {"q": 1, "h": 1, "f5": 1}, 1
    )
    monkeypatch.setattr(relations, "defining_relation", lambda: mutated)
    code, out, _ = run_cli(
        capsys, "verify", "main-relation", "--trials", "3",
        "--primes", "2147483647",
    )
    assert code == 1
    assert "counterexample" in out


def test_negative_control_corrupted_trace_relation_via_cli(capsys, monkeypatch):
    mutated = conjinv.nakamoto_polynomial() + Polynomial.monomial(
        ZZ, conjinv.TRACE_VARS, {"r": 2}, 3
    )
    monkeypatch.setattr(conjinv, "nakamoto_polynomial", lambda: mutated)
    code, out, _ = run_cli(
        capsys, "verify", "nakamoto", "--trials", "3", "--primes", "2147483647"
    )
    assert code == 1


def test_derive_st_output(capsys):
    code, out, _ = run_cli(capsys, "derive-st")
    assert code == 0
    assert out.startswith("Stilde = ")
    assert "Ttilde = " in out


def test_solve_hwv_output(capsys):
    code, out, _ = run_cli(capsys, "solve-hwv")
    assert code == 0
    assert out == (
        "H correction on [f2*f9, f3*f8, f4*f6, f5^2]:\n"
        "  -1/3 -1/3 2/3 1/12\n"
        "Q correction on [h*f5, f1*f7*f10, f1*f8*f9, f7*f3*f6, f10*f2*f4, "
        "f5*f4*f6, f2*f6*f8, f4*f3*f9]:\n"
        "  -1/2 3/2 -1/2 -1/2 -1/2 -1/2 1/2 1/2\n"
    )
