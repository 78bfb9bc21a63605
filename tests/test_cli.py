import dataclasses
import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from semiinv import cli, conjinv, generators as gen, hwv, relations, suites
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


def test_emitting_the_relation_builds_no_generator_table(cold_builds, capsys):
    """emit A parses and prints the pinned relation; listing the emission
    names reads generators.GENERATOR_NAMES, so the 27-variable table is not
    built."""
    code, out, _ = run_cli(capsys, "emit", "A")
    assert code == 0 and out
    assert gen.generator_table.cache_info().currsize == 0


@pytest.mark.parametrize("name", ["f1", "q"])
def test_emitting_a_generator_builds_neither_H_nor_Q(cold_builds, capsys, name):
    """emit f1 and emit q build the table, whose H and Q are built only on
    their first read, by emit HH or QQ."""
    code, out, _ = run_cli(capsys, "emit", name)
    table = gen.generator_table()
    assert code == 0 and out.strip() == table.by_name(name).text()
    assert "H" not in vars(table) and "Q" not in vars(table)
    code, out, _ = run_cli(capsys, "emit", "QQ")
    assert code == 0 and out.strip() == table.Q.text() and "H" not in vars(table)


def test_emit_json_parses_back(capsys):
    code, out, _ = run_cli(capsys, "emit", "h", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    terms = {tuple(t["e"]): Fraction(t["c"]) for t in obj["terms"]}
    h = gen.generator_table().h
    assert obj["ring"] == "ZZ" and obj["variables"] == list(h.vars.names)
    assert Polynomial.from_terms(ZZ, h.vars, terms) == h


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
    """Characteristic 3 is let through like 5 and 7, with no flag: what it
    allows follows from the identity.  --allow-small-char is an unknown
    option."""
    code, _, err = run_cli(capsys, "verify", "nonvanishing", "--primes", "3")
    assert code == 0 and err == ""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonvanishing", "--primes", "3", "--allow-small-char"])
    assert exc.value.code == 2
    assert "--allow-small-char" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["theorem1", "all"])
def test_verify_characteristic_three_spot_checks_theorem1(capsys, suite):
    """Theorem 1's outer polynomial over the twelve generators has integer
    coefficients, so mod 3 it runs, as main-relation does: a PASS with a
    null bound, the note that 3 does not exceed the degree bound, and the
    note that mod 3 the check cannot see S or T."""
    code, out, err = run_cli(
        capsys, "verify", suite, "--primes", "3", "--trials", "1", "--format", "json"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["passed"]
    (check,) = (c for c in report["checks"] if c["name"] == "theorem1")
    assert check["details"]["log10_failure_bound_per_prime"] == {"3": None}
    assert check["notes"] == [
        "primes 3 do not exceed the degree bound 18: "
        "spot-checks of an identity over ZZ that bound nothing",
        "mod 3 the terms 27*H*S and (27/4)*T vanish: "
        "the check at p = 3 cannot see an error in S or T",
    ]


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


def test_every_verify_option_sets_a_reported_config_field():
    """The report's config is the whole RunConfig, and each verify option but
    the suite and --format sets the field of its name, so a knob cannot live
    in one place only.  jobs is the one field with no option."""
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert list(RunConfig().to_json()) == names
    parser = cli.build_parser()
    options = set(vars(parser.parse_args(["verify", "all"])))
    options -= {"command", "func", "suite", "format"}
    assert options == set(names) - {"jobs"}
    given = {"mode": "exact", "trials": "7", "primes": "5,7", "seed": "3"}
    assert set(given) == options
    default = RunConfig()
    for name, value in given.items():
        cfg = cli._config_from(parser.parse_args(["verify", "all", f"--{name}", value]))
        assert getattr(cfg, name) != getattr(default, name)
        assert dataclasses.replace(cfg, **{name: getattr(default, name)}) == default


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


# the checks that read derive_st, by suite
READ_DERIVE_ST = {
    "hwv": {"quartic and sextic invariants are SL3-invariant"},
    "theorem1": {"theorem1"},
    "special-triples": {
        "weierstrass: quartic invariant = -b^2/27",
        "weierstrass: sextic invariant = -4*a^2/27",
        "skew: quartic and sextic invariants vanish",
    },
    "derive-st": {"derivation: residual is h-linear, q-free; degrees 4 and 6"},
}


@pytest.mark.parametrize("suite", ["derive-st", "hwv", "all"])
def test_a_relation_derive_st_refuses_fails_verify_with_a_report(capsys, monkeypatch, suite):
    """An extra q*h*f5 term leaves a q-dependent residual, so derive_st raises
    PolyError.  verify turns that into a FAIL of each check that reads
    derive_st, with the error as its note; every other check still runs and
    reports, and verify exits 1.  derive_st is lru_cached; its uncached body
    reads the mutated relation."""
    mutated = relations.defining_relation() + Polynomial.monomial(
        ZZ, relations.ABSTRACT12, {"q": 1, "h": 1, "f5": 1}, 1
    )
    monkeypatch.setattr(relations, "defining_relation", lambda: mutated)
    monkeypatch.setattr(relations, "derive_st", relations.derive_st.__wrapped__)
    code, out, _ = run_cli(
        capsys, "verify", suite, "--trials", "3", "--primes", "2147483647", "--format", "json"
    )
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    note = ["PolyError: derivation failed: residual q-dependence"]
    refused = [c for c in report["checks"] if c.get("notes") == note]
    assert all(not c["passed"] and c["mode"] == "exact" for c in refused)
    expected = set().union(*READ_DERIVE_ST.values()) if suite == "all" else READ_DERIVE_ST[suite]
    assert {c["name"] for c in refused} == expected
    if suite == "hwv":
        assert [c["passed"] for c in report["checks"]].count(True) == 4
    assert len(report["checks"]) == {"derive-st": 3, "hwv": 5, "all": 40}[suite]


def test_an_inconsistent_correction_solve_fails_its_checks_with_a_report(capsys, monkeypatch):
    """Without its last product the Q correction basis cannot make q highest
    weight, so the solve raises InconsistentSystem.  The check that reads the
    solve, merged with the certificate of Q, FAILs with that note, the other
    four pass, and verify exits 1 with its report.  solve_q_correction is
    lru_cached; its uncached body reads the shortened table, and the
    generator table stays the full one."""
    gen.generator_table()
    monkeypatch.setattr(gen, "Q_CORRECTIONS", gen.Q_CORRECTIONS[:-1])
    monkeypatch.setattr(hwv, "solve_q_correction", hwv.solve_q_correction.__wrapped__)
    code, out, _ = run_cli(capsys, "verify", "hwv", "--format", "json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    q_checks = ("cubic correction of q solves to the pinned coefficients, and Q is SL3-invariant",)
    for name in q_checks:
        check = checks.pop(name)
        assert not check["passed"]
        assert [note.partition(": ")[0] for note in check["notes"]] == ["InconsistentSystem"]
    assert len(checks) == 4 and all(c["passed"] for c in checks.values())


def test_a_default_verify_all_builds_neither_H_nor_Q(cold_builds, capsys):
    """The correction solves certify H and Q on their own corrected sums, and
    theorem 1 is composed over the twelve generators with abstract_Q and
    abstract_H, so a cold verify all, modular or exact, never reads
    table.H or table.Q."""
    for mode in ("modular", "exact"):
        code, _, _ = run_cli(capsys, "verify", "all", "--mode", mode, "--trials", "3")
        table = gen.generator_table()
        assert code == 0 and "H" not in vars(table) and "Q" not in vars(table)


def test_a_default_verify_all_builds_each_generator_of_a_triple_once(cold_builds, capsys, monkeypatch):
    """Every exact generator polynomial is one determinant_sum of a triple's
    table, and each special triple's table is built once and read by all of
    its checks: a cold default verify all sums no stack twice over equal
    triples."""
    builds = []
    determinant_sum = gen.determinant_sum

    def counting(T, name):
        builds.append((T, name))
        return determinant_sum(T, name)

    monkeypatch.setattr(gen, "determinant_sum", counting)
    code, _, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    assert [name for i, (T, name) in enumerate(builds) if (T, name) in builds[:i]] == []
    built = {name for T, name in builds if T == gen.weierstrass_triple()}
    assert built == {*gen.F_NAMES, "h", "q"}


def test_check_times_cover_a_cold_verify_all(cold_builds):
    """Each check reads and times the builds it is the first to trigger, so
    with cold builds the elapsed_s of the checks add up to nearly all of an
    in-process verify all."""
    t0 = time.perf_counter()
    results = suites.run_suite("all", RunConfig())
    total = time.perf_counter() - t0
    assert all(r.passed for r in results)
    assert sum(r.elapsed_s for r in results) >= 0.85 * total


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
