import json
import math
import multiprocessing
from dataclasses import replace
from fractions import Fraction

import pytest

from semiinv import cli, evalmod, generators as gen, relations as rel, verify as verify_module
from semiinv.evalmod import DEFAULT_PRIMES, Composition, poly_eval_mod, sample_point
from semiinv.poly import QQ, ZZ, Polynomial, PolyError, VariableSet
from semiinv.verify import (
    RunConfig,
    VerifyUsageError,
    run_identity_modular,
)

import oracles

SMALL = RunConfig(trials=8, primes=(2147483647, 2147483629, 5, 7), seed=0)


def test_relation_transcription_lock():
    A = rel.defining_relation()
    assert len(A) == rel.RELATION_TERM_COUNT == 76
    assert rel.relation_digest(A) == rel.RELATION_DIGEST


def test_relation_named_coefficients():
    A = rel.defining_relation()
    assert A.coefficient({"q": 2}) == 1
    assert A.coefficient({"q": 1, "h": 1, "f5": 1}) == -1
    assert A.coefficient({"h": 3}) == -1
    assert A.coefficient({"f1": 2, "f7": 2, "f10": 2}) == 9
    assert A.coefficient({"q": 1, "f1": 1, "f7": 1, "f10": 1}) == 3
    assert A.coefficient({}) == 0


def test_relation_weighted_degree_18():
    A = rel.defining_relation()
    assert A.degrees(rel.RELATION_WEIGHTS) == {(18,)}


def test_relation_at_skew_identity_point():
    """q = h = 1 and all f = 0 (the skew triple with identity parameters)
    reduces the relation to q^2 - h^3 = 0."""
    A = rel.defining_relation()
    point = {name: 0 for name in rel.ABSTRACT12_NAMES}
    point["q"] = 1
    point["h"] = 1
    assert A.evaluate(point) == 0


def test_relation_at_all_zeros():
    A = rel.defining_relation()
    assert A.evaluate({name: 0 for name in rel.ABSTRACT12_NAMES}) == 0


def test_derivation_structure():
    E = (
        rel.abstract_Q().mul(rel.abstract_Q())
        - rel.abstract_H() ** 3
        - rel.defining_relation().to_ring(QQ)
    )
    q_h_degrees = E.degrees({"q": (1, 0), "h": (0, 1)})
    assert {dq for dq, _ in q_h_degrees} == {0}
    assert max(dh for _, dh in q_h_degrees) <= 1


def test_derived_invariants_structure():
    s4, t6 = rel.derive_st()
    assert s4.total_degree() == 4
    assert t6.total_degree() == 6
    assert s4.degrees(gen.F_WEIGHTS) == {(4, 4, 4)}
    assert t6.degrees(gen.F_WEIGHTS) == {(6, 6, 6)}


def test_f_grading_is_keyed_by_name():
    """f10 is the t3^3 coefficient of the pencil, wherever it sits among the
    variables: in the 12-variable ring it comes last, after q and h."""
    f10 = Polynomial.variable(ZZ, rel.ABSTRACT12, "f10")
    assert f10.degrees(gen.F_WEIGHTS) == {(0, 0, 3)}


def test_derived_invariants_on_weierstrass():
    s4, t6 = rel.derive_st()
    w = gen.generators_of(gen.weierstrass_triple())
    a = Polynomial.variable(QQ, gen.WEIERSTRASS_VARS, "a")
    b = Polynomial.variable(QQ, gen.WEIERSTRASS_VARS, "b")
    assert rel.evaluate_f_form_on_triple(s4, w) == b.mul(b) * Fraction(-1, 27)
    assert rel.evaluate_f_form_on_triple(t6, w) == a.mul(a) * Fraction(-4, 27)


def test_derived_invariants_vanish_on_skew():
    s4, t6 = rel.derive_st()
    skew = gen.generators_of(gen.skew_triple())
    assert rel.evaluate_f_form_on_triple(s4, skew).is_zero()
    assert rel.evaluate_f_form_on_triple(t6, skew).is_zero()


def test_main_relation_modular():
    result = rel.verify_main_relation(SMALL)
    assert result.passed
    assert result.details["degree_bound"] == 18
    assert result.details["nonzero_evaluations"] == 0


def test_theorem1_modular():
    result = rel.verify_theorem1(RunConfig(trials=8, primes=(2147483647, 5), seed=1))
    assert result.passed
    assert result.details["degree_bound"] == 18


def _sweep_mutant():
    """The relation plus h^2*f2*f9, of the same weighted degree 18."""
    return rel.defining_relation() + Polynomial.monomial(ZZ, rel.ABSTRACT12, {"h": 2, "f2": 1, "f9": 1})


def test_the_definition_degree_bounds_are_the_expanded_leaves_degrees():
    """Each degree of GENERATOR_DEGREES, read off the determinant table, is
    its leaf's total degree, for each of the twelve generators, so the
    degree bound a modular run reports equals the one read from the
    expanded leaves, 18, for both identities and the mutant."""
    table = gen.generator_table()
    leaves = dict(zip(gen.F_NAMES, table.f), h=table.h, q=table.q)
    assert gen.GENERATOR_DEGREES == {name: leaf.total_degree() for name, leaf in leaves.items()}
    weights = {name: (leaf.total_degree(),) for name, leaf in leaves.items()}
    cfg = RunConfig(trials=1, primes=(2147483647,))
    for outer in (rel.defining_relation(), rel.theorem1_expr(), _sweep_mutant()):
        expanded = max(sum(d) for d in oracles.weighted_degrees(outer, weights))
        assert run_identity_modular("bound", outer, cfg).details["degree_bound"] == expanded == 18


def test_modular_runs_build_no_corrected_leaf_and_read_no_leaf(cold_builds, monkeypatch):
    """After generator_table(), as a benchmark set-up builds it, the modular
    main relation, theorem 1 and the mutant leave h, q, H and Q unbuilt: no
    combine_correction over the 27 coordinates, and no exponents() of a
    polynomial in them, leaf or other."""
    table = gen.generator_table()
    read, corrected = [], []
    exponents, combine = Polynomial.exponents, gen.combine_correction

    def recording_exponents(p):
        read.append(p.vars)
        return exponents(p)

    def recording_combine(base, *args):
        corrected.append(base.vars)
        return combine(base, *args)

    monkeypatch.setattr(Polynomial, "exponents", recording_exponents)
    monkeypatch.setattr(gen, "combine_correction", recording_combine)
    mutant = _sweep_mutant()
    results = [
        rel.verify_main_relation(SMALL),
        rel.verify_theorem1(RunConfig(trials=4, primes=(2147483647,))),
        rel.verify_main_relation(RunConfig(trials=2, primes=(2147483647,)), relation=mutant),
    ]
    assert [r.passed for r in results] == [True, True, False]
    assert [r.details["degree_bound"] for r in results] == [18, 18, 18]
    assert "h" not in vars(table) and "q" not in vars(table)
    assert "H" not in vars(table) and "Q" not in vars(table)
    assert read and corrected  # outer polynomials, abstract_H and abstract_Q
    assert gen.TRIPLE_VARS not in read and gen.TRIPLE_VARS not in corrected


def test_theorem1_weierstrass_arithmetic():
    """At a = b = 1: Q^2 = 1 and H^3 + 27*H*S - 27/4*T = -1 + 1 + 1 = 1."""
    s4, t6 = rel.derive_st()
    point = {"a": 1, "b": 1}
    w_gens = gen.generators_of(gen.weierstrass_triple())
    Q = w_gens.Q.evaluate(point)
    H = w_gens.H.evaluate(point)
    S = rel.evaluate_f_form_on_triple(s4, w_gens).evaluate(point)
    T = rel.evaluate_f_form_on_triple(t6, w_gens).evaluate(point)
    assert Q * Q == 1
    assert H ** 3 + 27 * H * S - Fraction(27, 4) * T == 1


def test_exact_and_modular_agree_on_theorem1_for_weierstrass_family():
    """The 2-parameter specialization of the degree-18 identity is small
    enough to expand exactly; both verdicts agree."""
    s4, t6 = rel.derive_st()
    w_gens = gen.generators_of(gen.weierstrass_triple())
    Q = w_gens.Q
    H = w_gens.H
    S = rel.evaluate_f_form_on_triple(s4, w_gens)
    T = rel.evaluate_f_form_on_triple(t6, w_gens)
    lhs = Q.mul(Q) - H ** 3 - H.mul(S) * 27 + T * Fraction(27, 4)
    assert lhs.is_zero()


def test_special_triple_suite_passes():
    results = rel.special_triple_checks()
    assert all(r.passed for r in results)
    assert len(results) == 9


def test_a_refused_special_triple_build_fails_only_the_checks_that_read_it(monkeypatch):
    """Each special triple's table is built inside the first check that
    reads it: a Weierstrass triple that raises PolyError fails its five
    checks, each with the error as its note, and the four skew checks still
    pass."""
    def refuse():
        raise PolyError("refused")

    monkeypatch.setattr(gen, "weierstrass_triple", refuse)
    results = rel.special_triple_checks()
    assert [r.passed for r in results] == [r.name.startswith("skew") for r in results]
    assert [r.notes for r in results if not r.passed] == [["PolyError: refused"]] * 5


def test_negative_control_mutated_relation():
    """A single-coefficient mutation must be caught with a counterexample."""
    A = rel.defining_relation()
    mutated = A + Polynomial.monomial(ZZ, rel.ABSTRACT12, {"h": 3}, 1)
    result = rel.verify_main_relation(SMALL, relation=mutated)
    assert not result.passed
    assert result.counterexample is not None
    point = result.counterexample["point"]
    prime = result.counterexample["prime"]
    expr = oracles.at_generators(mutated)
    assert oracles.composition_eval_mod(expr, point, prime) == result.counterexample["value"] != 0


@pytest.mark.parametrize("prime", [2147483647, 5, 7])
def test_theorem1_composition_matches_an_independent_evaluation(monkeypatch, prime):
    """The composed outer polynomial of theorem 1, at the generator values of
    a sampled batch as a run evaluates it, takes the value of
    Q^2 - H^3 - 27*H*S + (27/4)*T, with Q, H and f1..f10 evaluated term by
    term by the oracle and S, T evaluated at those f-values.  With derive_st
    returning T + f5^6 in place of T the values differ by (27/4)*f5^6,
    nonzero at some of the points."""
    table = gen.generator_table()
    s4, t6 = rel.derive_st()
    f5 = Polynomial.variable(t6.ring, t6.vars, "f5")
    outer = rel.theorem1_expr()
    monkeypatch.setattr(rel, "derive_st", lambda: (s4, t6 + f5 ** 6))
    wrong = rel.theorem1_expr()
    c = 27 * pow(4, -1, prime)
    expected, expected_wrong = [], []
    for trial in range(6):
        point = sample_point(gen.TRIPLE_NAMES, 5, prime, trial)
        Q, H = (oracles.naive_eval_mod(p, point, prime) for p in (table.Q, table.H))
        fs = {n: oracles.naive_eval_mod(f, point, prime) for n, f in zip(gen.F_NAMES, table.f)}
        S, T = (oracles.naive_eval_mod(p, fs, prime) for p in (s4, t6))
        expected.append((Q * Q - H ** 3 - 27 * H * S + c * T) % prime)
        expected_wrong.append((expected[-1] + c * fs["f5"] ** 6) % prime)
    values = gen.sampled_generator_values(5, prime, range(6))
    assert poly_eval_mod(outer, values, prime).tolist() == expected
    assert poly_eval_mod(wrong, values, prime).tolist() == expected_wrong
    assert any(expected_wrong)


def test_theorem1_reduces_to_the_defining_relation(monkeypatch):
    """Theorem 1's outer polynomial over (q, h, f1..f10), composed with
    abstract_Q and abstract_H, is the defining relation term for term, 76
    terms: theorem 1 holds at the generators because the relation does.
    With derive_st returning T + f5^6 it is off by exactly (27/4)*f5^6."""
    relation = rel.defining_relation().to_ring(QQ)
    got = rel.theorem1_expr()
    assert got.sorted_terms() == relation.sorted_terms()
    assert len(got) == rel.RELATION_TERM_COUNT == 76
    s4, t6 = rel.derive_st()
    f5 = Polynomial.variable(t6.ring, t6.vars, "f5")
    monkeypatch.setattr(rel, "derive_st", lambda: (s4, t6 + f5 ** 6))
    difference = rel.theorem1_expr() - relation
    f5 = Polynomial.variable(QQ, rel.ABSTRACT12, "f5")
    assert difference.sorted_terms() == (f5 ** 6 * Fraction(27, 4)).sorted_terms()


def test_abstract_H_and_Q_at_the_generators_are_the_table_H_and_Q():
    """abstract_H and abstract_Q with the generator polynomials substituted
    for q, h and f1..f10 are table.H and table.Q exactly, so theorem 1's
    outer polynomial over (q, h, f1..f10) at the twelve generators is its
    polynomial in the 27 coordinates."""
    table = gen.generator_table()
    bindings = {name: table.by_name(name) for name in rel.ABSTRACT12_NAMES}
    assert rel.abstract_H().substitute(bindings) == table.H
    assert rel.abstract_Q().substitute(bindings) == table.Q


@pytest.mark.parametrize("verify", [rel.verify_main_relation, rel.verify_theorem1])
def test_modular_runs_evaluate_no_expanded_leaf(monkeypatch, verify):
    """The modular runs of the triple identities take the generators from
    their definitions: poly_eval_mod, under the name evalmod exports and
    the one verify calls, only ever sees the outer polynomial, never a
    27-variable leaf (q has 5748 terms)."""
    sizes = []
    real = evalmod.poly_eval_mod

    def recording(p, point, prime):
        sizes.append(len(p))
        return real(p, point, prime)

    monkeypatch.setattr(evalmod, "poly_eval_mod", recording)
    monkeypatch.setattr(verify_module, "poly_eval_mod", recording)
    assert verify(RunConfig(trials=4, primes=(2147483647, 5), seed=0)).passed
    assert sizes and max(sizes) <= 170


def test_main_relation_fails_when_the_definition_of_q_is_off_by_one(monkeypatch):
    """The modular verdict reads the kernel's values: q + 1 in place of q
    leaves q^2 - q*h*f5 + ... nonzero, and the run must FAIL."""
    real = gen.generator_values_mod

    def shifted(point, prime):
        values = real(point, prime)
        values["q"] = (values["q"] + 1) % prime
        return values

    monkeypatch.setattr(gen, "generator_values_mod", shifted)
    result = rel.verify_main_relation(RunConfig(trials=3, primes=(2147483647,), seed=0))
    assert not result.passed
    assert result.details["nonzero_evaluations"] == 3


@pytest.mark.parametrize("suite", ["main-relation", "theorem1"])
def test_characteristic_three_from_the_definitions(capsys, suite):
    """The determinant definitions hold in characteristic 3, and the
    relation is an outer polynomial with integer coefficients over the
    twelve generators, which both triple identities run: each PASSes there
    with no flag, as a spot-check with a null bound (3 <= 18, the degree
    bound) and the note that says so, and with no other note."""
    argv = ["verify", suite, "--primes", "3", "--trials", "3", "--format", "json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    (check,) = json.loads(out.out)["checks"]
    assert check["passed"] and check["details"]["evaluations"] == 3
    assert check["details"]["log10_failure_bound_per_prime"] == {"3": None}
    assert check["notes"] == [
        "primes 3 do not exceed the degree bound 18: "
        "spot-checks of an identity over ZZ that bound nothing"
    ]


def _mutated_invariants(which):
    """derive_st's pair with S + f5^4 or T + f5^6 in place of S or T, and
    what theorem 1 minus the relation then leaves."""
    s4, t6 = rel.derive_st()
    f5 = Polynomial.variable(t6.ring, t6.vars, "f5")
    f5_12 = Polynomial.variable(QQ, rel.ABSTRACT12, "f5")
    if which == "s4":
        return (s4 + f5 ** 4, t6), rel.abstract_H().mul(f5_12 ** 4) * -27
    return (s4, t6 + f5 ** 6), f5_12 ** 6 * Fraction(27, 4)


@pytest.mark.parametrize("which", ["s4", "t6"])
@pytest.mark.parametrize(
    "options", [["--primes", "3"], ["--primes", "2147483647"], ["--mode", "exact"]], ids=["p3", "p2147483647", "exact"]
)
def test_theorem1_sees_s_and_t_at_every_prime_and_in_exact_mode(capsys, monkeypatch, which, options):
    """derive_st returning S + f5^4, or T + f5^6: theorem 1 minus the
    relation leaves -27*H*f5^4, or (27/4)*f5^6, in Q[q, h, f1..f10].  The
    exact reduction FAILs either, at p = 3, where 27 is 0, as at 2**31 - 1
    and in exact mode, and verify exits 1 with the terms left as the
    note."""
    pair, left = _mutated_invariants(which)
    monkeypatch.setattr(rel, "derive_st", lambda: pair)
    code = cli.main(["verify", "theorem1", "--trials", "20", "--format", "json", *options])
    assert code == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert not check["passed"] and check["mode"] == "exact"
    assert check["notes"] == [f"Q^2 - H^3 - 27*H*S + (27/4)*T minus the defining relation leaves {left.text()}"]
    assert check["details"] == {"remaining_terms": len(left)}
    assert (left.text() == "27/4*f5^6") == (which == "t6")


@pytest.mark.parametrize("mode", ["modular", "exact"])
def test_a_relation_term_that_derive_st_absorbs_fails_theorem1_through_the_triple_run(monkeypatch, mode):
    """The relation plus f1^2*f7^2*f10^2, a term free of q and h: derive_st,
    run uncached on the mutated relation, takes it into T, so theorem 1
    minus that relation leaves 0, and only the run of the relation in the
    27 coordinates can FAIL theorem 1, as it FAILs main-relation."""
    term = Polynomial.monomial(ZZ, rel.ABSTRACT12, {"f1": 2, "f7": 2, "f10": 2})
    mutated = rel.defining_relation() + term
    monkeypatch.setattr(rel, "defining_relation", lambda: mutated)
    monkeypatch.setattr(rel, "derive_st", rel.derive_st.__wrapped__)
    assert (rel.theorem1_expr() - mutated.to_ring(QQ)).is_zero()
    cfg = RunConfig(mode=mode, trials=4, primes=(2147483647,))
    for result in (rel.verify_theorem1(cfg), rel.verify_main_relation(cfg)):
        assert not result.passed and result.mode == mode and result.notes == []
        if mode == "modular":
            assert result.details["nonzero_evaluations"] == 4
        else:
            assert result.details["block_multidegree"] == [6, 6, 6]
            assert result.details["expanded_terms"] > 0


def test_an_outer_name_that_is_no_generator_is_refused():
    """A relation that uses a name outside q, h, f1..f10 has no value at the
    generators: a PolyError that names it, in modular and exact mode, and a
    name the relation's ring has but does not use is no error."""
    names = rel.ABSTRACT12_NAMES + ("g",)
    wider = rel.defining_relation().convert(VariableSet(names))
    g = Polynomial.variable(ZZ, wider.vars, "g")
    cfg = RunConfig(trials=2, primes=(2147483647,))
    assert rel.verify_main_relation(cfg, relation=wider).passed
    for mode in ("modular", "exact"):
        with pytest.raises(PolyError, match="'g'"):
            rel.verify_main_relation(replace(cfg, mode=mode), relation=wider + g ** 18)


# -- exact mode: slice proofs ---------------------------------------------------

EXACT = RunConfig(mode="exact")


@pytest.mark.parametrize("verify", [rel.verify_main_relation, rel.verify_theorem1])
def test_exact_mode_is_a_slice_proof(verify):
    result = verify(EXACT)
    assert result.passed and result.mode == "exact"
    assert result.details["slice"] == rel.TRIPLE_SLICE.text
    assert result.details["slice_variables"] == 12
    assert result.details["certified_leaves"] == 12
    assert result.details["block_multidegree"] == [6, 6, 6]
    assert result.details["expanded_terms"] == 0


def test_restriction_uses_the_leaves_it_is_given():
    """Each restricted leaf is the given leaf restricted, for a passed
    relation and for a composition with a replaced leaf alike, so a slice
    proof reads its restricted leaves only."""
    bindings = rel.TRIPLE_SLICE.bindings
    free = VariableSet(n for n in gen.TRIPLE_NAMES if n not in bindings)
    assert len(free) == 12
    expr = oracles.at_generators(_mutated_relation())
    f5 = expr.leaves["f5"]
    other = Composition(expr.outer, dict(expr.leaves, h=expr.leaves["h"] + f5.mul(f5)))
    for composition in (expr, other):
        restricted = composition.restrict(bindings)
        assert restricted.vars == free
        assert restricted.outer is composition.outer
        for name, leaf in composition.leaves.items():
            assert restricted.leaves[name] == leaf.restrict(bindings)
            assert restricted.leaves[name].vars == free
    assert other.restrict(bindings).leaves["h"] != expr.restrict(bindings).leaves["h"]


def test_exact_mode_catches_a_mutated_relation():
    """h^2*f2*f9 keeps the block multidegree (6, 6, 6), so only the slice
    expansion can see it."""
    mutated = rel.defining_relation() + Polynomial.monomial(
        ZZ, rel.ABSTRACT12, {"h": 2, "f2": 1, "f9": 1}, 1
    )
    result = rel.verify_main_relation(EXACT, relation=mutated)
    assert not result.passed
    assert result.details["certified_leaves"] == 12
    assert result.details["expanded_terms"] == 324


@pytest.mark.parametrize("which", ["s4", "t6"])
def test_exact_mode_catches_a_mutated_invariant(monkeypatch, which):
    """derive_st returning S + f5^4, or T + f5^6, with the other invariant
    as derived: theorem 1 composes the pair it returns, so either FAILs, in
    the exact reduction and before any slice proof."""
    pair, left = _mutated_invariants(which)
    monkeypatch.setattr(rel, "derive_st", lambda: pair)
    result = rel.verify_theorem1(EXACT)
    assert not result.passed and result.mode == "exact"
    assert result.details == {"remaining_terms": len(left)}
    assert result.notes[0].endswith(f"leaves {left.text()}")


def test_exact_mode_gate_names_a_leaf_that_is_not_invariant(monkeypatch):
    """x1_11^2*x2_11^2*x3_11^2 has h's multidegree (2, 2, 2) but is not
    SL3 x SL3-invariant: the gate FAILs and names h before any expansion."""
    table = gen.generator_table()
    x = {n: Polynomial.variable(ZZ, gen.TRIPLE_VARS, n) for n in ("x1_11", "x2_11", "x3_11")}
    wrong = table.h + (x["x1_11"] * x["x2_11"] * x["x3_11"]) ** 2
    assert wrong.degrees(gen.BLOCK_WEIGHTS) == {(2, 2, 2)}
    wrong_table = replace(table)
    vars(wrong_table)["h"] = wrong  # h is built on first read: the wrong one stands in its place
    monkeypatch.setattr(gen, "generator_table", lambda: wrong_table)
    result = rel.verify_main_relation(EXACT)
    assert not result.passed and result.mode == "exact"
    assert result.notes == ["leaf 'h' fails the certificate of " + rel.TRIPLE_SLICE.certificate]
    assert result.details["certified_leaves"] == 11
    assert "expanded_terms" not in result.details


def test_exact_mode_gate_refuses_a_composite_that_is_not_multihomogeneous(monkeypatch):
    """Every leaf is invariant, but an outer term of another block multidegree,
    or a leaf of mixed multidegree, breaks the rescaling to the slice: FAIL
    without expanding."""
    mutated = rel.defining_relation() + Polynomial.variable(ZZ, rel.ABSTRACT12, "h")
    result = rel.verify_main_relation(EXACT, relation=mutated)
    assert not result.passed
    assert result.notes == ["outer terms have 2 block multidegrees: [2, 2, 2], [6, 6, 6]"]
    assert "expanded_terms" not in result.details

    table = gen.generator_table()
    mixed = table.f[0] + table.f[6]  # f300 + f030 is invariant
    monkeypatch.setattr(gen, "generator_table", lambda: replace(table, f=(mixed,) + table.f[1:]))
    result = rel.verify_main_relation(EXACT)
    assert not result.passed
    assert result.details["certified_leaves"] == 12
    assert result.notes == ["leaf 'f1' is not multihomogeneous in the blocks"]


def test_small_primes_report_no_failure_bound():
    """d/p >= 1 for p <= d, so Schwartz-Zippel bounds nothing there."""
    cfg = RunConfig(trials=2, primes=(2147483647, 5, 7, 19), seed=0)
    result = rel.verify_main_relation(cfg)
    assert result.passed
    bounds = result.details["log10_failure_bound_per_prime"]
    assert bounds["5"] is None and bounds["7"] is None
    assert bounds["19"] == round(2 * math.log10(18 / 19), 2) < 0
    assert bounds["2147483647"] == round(2 * math.log10(18 / 2147483647), 2)
    assert result.notes == [
        "primes 5, 7 do not exceed the degree bound 18: "
        "spot-checks of an identity over ZZ that bound nothing"
    ]
    large = rel.verify_main_relation(RunConfig(trials=2, primes=(2147483647,), seed=0))
    assert large.notes == []


def _mutated_relation():
    return rel.defining_relation() + Polynomial.monomial(
        ZZ, rel.ABSTRACT12, {"h": 3}, 1
    )


START_METHODS = [m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()]


@pytest.mark.parametrize("method", START_METHODS)
def test_parallel_run_evaluates_the_expression_it_is_given(monkeypatch, method):
    """Regression: after a genuine run, a run whose relation was replaced must
    evaluate the replacement, whether it is passed or rebuilt by the
    monkeypatched provider, not an expression cached by the first run. The
    start method of worker processes must not matter, because the engine
    runs every trial in this process and starts no worker at all."""

    def no_worker(self):
        raise AssertionError("the modular engine started a worker process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_worker)
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        cfg = RunConfig(trials=3, primes=(2147483647,), seed=0)
        assert rel.verify_main_relation(cfg).passed
        mutated = _mutated_relation()
        passed = rel.verify_main_relation(cfg, relation=mutated)
        monkeypatch.setattr(rel, "defining_relation", lambda: mutated)
        rebuilt = rel.verify_main_relation(cfg)
    finally:
        multiprocessing.set_start_method(previous, force=True)
    assert not rebuilt.passed and not passed.passed
    assert rebuilt.counterexample == passed.counterexample
    ce = passed.counterexample
    fresh = oracles.composition_eval_mod(oracles.at_generators(mutated), ce["point"], ce["prime"])
    assert fresh == ce["value"] != 0


def test_batched_run_matches_a_per_point_loop():
    """The report of a run, which evaluates each prime's 13 trials as one
    batch, equals a reference loop of sample_point and the scalar oracle,
    point by point."""
    cfg = RunConfig(trials=13, primes=(2147483647, 5, 7), seed=4)
    expr = oracles.at_generators(_mutated_relation())
    failures = []
    for prime in cfg.primes:
        for trial in range(cfg.trials):
            point = sample_point(gen.TRIPLE_NAMES, cfg.seed, prime, trial)
            value = oracles.composition_eval_mod(expr, point, prime)
            if value:
                failures.append((prime, trial, value, point))
    assert failures
    result = run_identity_modular("mutated", expr.outer, cfg)
    assert not result.passed
    assert result.details["evaluations"] == 13 * 3
    assert result.details["nonzero_evaluations"] == len(failures)
    prime, trial, value, point = min(failures, key=lambda f: (f[0], f[1]))
    assert result.counterexample == {
        "prime": prime, "trial": trial, "value": value, "point": point,
    }
    assert type(result.counterexample["value"]) is int


def _counted_generator_values(monkeypatch) -> list:
    """Patch gen.generator_values_mod to log each call's prime."""
    real, calls = gen.generator_values_mod, []

    def counted(point, prime):
        calls.append(prime)
        return real(point, prime)

    monkeypatch.setattr(gen, "generator_values_mod", counted)
    return calls


def test_verify_all_computes_each_chunks_generator_values_once(monkeypatch, capsys):
    """main-relation draws 100 points on each of 7 primes, the default five
    and 5 and 7, and theorem1 the same points on the default five: the
    generator values of each (seed, prime, chunk) are computed once, 7 times
    in all, not 12."""
    calls = _counted_generator_values(monkeypatch)
    assert cli.main(["verify", "all", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert sorted(calls) == sorted(DEFAULT_PRIMES + evalmod.SMALL_CHAR_PRIMES)


def test_shared_generator_values_change_no_report(monkeypatch):
    """main-relation then theorem1 on one config of 5 primes x 200 trials
    computes the generator values 5 times, not 10, and both reports equal
    those of a run that clears the memo between the two identities.  A
    mutated relation read from the shared values gives the counterexample,
    prime, trial, value and point, of a run that computes its own."""
    cfg = RunConfig(trials=200, primes=DEFAULT_PRIMES, seed=11)
    calls = _counted_generator_values(monkeypatch)
    shared = [rel.verify_main_relation(cfg), rel.verify_theorem1(cfg)]
    mutant = rel.verify_main_relation(cfg, relation=_mutated_relation())
    assert calls == list(DEFAULT_PRIMES)
    fresh = []
    for run in (rel.verify_main_relation, rel.verify_theorem1):
        gen.sampled_generator_values.cache_clear()
        fresh.append(run(cfg))
    gen.sampled_generator_values.cache_clear()
    fresh_mutant = rel.verify_main_relation(cfg, relation=_mutated_relation())
    assert calls == 4 * list(DEFAULT_PRIMES)
    assert all(r.passed for r in shared) and not mutant.passed
    for a, b in zip(shared + [mutant], fresh + [fresh_mutant]):
        assert a.to_json() | {"elapsed_s": 0} == b.to_json() | {"elapsed_s": 0}
    assert mutant.counterexample == fresh_mutant.counterexample
    assert set(mutant.counterexample) == {"prime", "trial", "value", "point"}


def test_sampled_generator_values_are_read_only_and_keyed_by_every_input():
    """The memo's arrays cannot be written through, and each of seed, prime
    and the range of trials gives its own values, those of the batch point
    sample_point draws for that key."""
    prime = DEFAULT_PRIMES[0]
    values = gen.sampled_generator_values(0, prime, range(0, 4))
    with pytest.raises(ValueError):
        values["q"][0] = 0
    for key in ((1, prime, range(0, 4)), (0, DEFAULT_PRIMES[1], range(0, 4)), (0, prime, range(1, 5))):
        point = sample_point(gen.TRIPLE_NAMES, *key)
        other = gen.sampled_generator_values(*key)
        expected = gen.generator_values_mod(point, key[1])
        assert all((other[name] == expected[name]).all() for name in expected)
        assert any((other[name] != values[name]).any() for name in values)


@pytest.mark.parametrize("trials", [1, 6, 7, 8, 26])
def test_chunked_trials_give_the_result_of_one_batch(monkeypatch, trials):
    """A prime's trials are evaluated TRIAL_CHUNK at a time.  Points are keyed
    by (seed, prime, trial), so chunks of 7 give the verdict, the details and
    the counterexample of one batch; mod 7 the mutant vanishes at some
    points, so the count of nonzero evaluations is compared as well."""
    outer = _mutated_relation()
    cfg = RunConfig(trials=trials, primes=(2147483647, 7), seed=3)
    monkeypatch.setattr("semiinv.verify.TRIAL_CHUNK", trials)
    whole = run_identity_modular("mutated", outer, cfg)
    monkeypatch.setattr("semiinv.verify.TRIAL_CHUNK", 7)
    chunked = run_identity_modular("mutated", outer, cfg)
    assert not chunked.passed
    assert replace(chunked, elapsed_s=0) == replace(whole, elapsed_s=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        pytest.param({"trials": 0}, "trials must be >= 1", id="trials=0"),
        pytest.param({"trials": -3}, "trials must be >= 1", id="trials=-3"),
        pytest.param({"mode": "Exact"}, "unknown mode 'Exact'", id="mode=Exact"),
        pytest.param({"seed": -1}, "seed must fit in 64 bits", id="seed=-1"),
        pytest.param({"seed": 2**64}, "seed must fit in 64 bits", id="seed=2**64"),
        pytest.param({"seed": 1.5}, "seed must be an int, not 1.5", id="seed=1.5"),
        pytest.param({"seed": False}, "seed must be an int, not False", id="seed=False"),
        pytest.param({"trials": True}, "trials must be an int, not True", id="trials=True"),
        pytest.param({"trials": 2.5}, "trials must be an int, not 2.5", id="trials=2.5"),
        pytest.param(
            {"primes": (2147483647.0,)},
            r"primes must be a tuple of ints, not \(2147483647.0,\)",
            id="primes=(float,)",
        ),
        pytest.param(
            {"primes": list(DEFAULT_PRIMES)},
            r"primes must be a tuple of ints, not \[2147483647, .*\]",
            id="primes=list",
        ),
    ],
)
def test_a_bad_config_is_refused_without_validated(kwargs, message):
    """A config that would have skipped validated() could pass a mutated
    relation: with no trials it makes no evaluation, and a bad mode or seed
    would run something other than what was asked.  Only ints reproduce from
    the command line: seed=1.5 used to run and PASS, trials=True ran one
    trial, a float trial count or prime crashed with TypeError, a list of
    the default primes dropped main-relation's spot checks at 5 and 7."""
    with pytest.raises(VerifyUsageError, match=f"^{message}$"):
        rel.verify_main_relation(RunConfig(**kwargs), relation=_mutated_relation())
    with pytest.raises(VerifyUsageError, match=f"^{message}$"):
        replace(SMALL, **kwargs)


def test_repeated_primes_are_refused():
    """Points are keyed by (seed, prime, trial): a repeated prime would count
    the same evaluations twice."""
    with pytest.raises(VerifyUsageError, match="repeated prime"):
        RunConfig(primes=(2147483647, 5, 2147483647)).validated()


def test_an_empty_prime_list_is_refused():
    """With no prime a modular run makes no evaluation, so even a mutated
    relation would pass, validated or not."""
    with pytest.raises(VerifyUsageError, match="prime list is empty"):
        rel.verify_main_relation(RunConfig(primes=()).validated(), relation=_mutated_relation())
    with pytest.raises(VerifyUsageError, match="prime list is empty"):
        rel.verify_main_relation(RunConfig(primes=()), relation=_mutated_relation())
    with pytest.raises(VerifyUsageError, match="prime list is empty"):
        replace(SMALL, primes=())


def test_only_a_non_invertible_denominator_becomes_a_usage_error(monkeypatch):
    """A relation with a coefficient 1/3 has no value mod 3: a usage error
    naming the identity and the prime.  Any other PolyError propagates."""
    cfg = RunConfig(trials=1, primes=(3,))
    h = Polynomial.variable(QQ, rel.ABSTRACT12, "h")
    third = rel.defining_relation().to_ring(QQ) + h ** 3 * Fraction(1, 3)
    with pytest.raises(VerifyUsageError, match="^main-relation: denominator 3 not invertible mod 3$"):
        rel.verify_main_relation(cfg, relation=third)

    def broken(*args):
        raise PolyError("some other failure")

    monkeypatch.setattr(verify_module, "poly_eval_mod", broken)
    with pytest.raises(PolyError, match="some other failure"):
        run_identity_modular("theorem1", rel.theorem1_expr(), replace(cfg, primes=(2147483647,)))


def test_jobs_other_than_one_are_refused():
    assert RunConfig(jobs=1).validated().to_json()["jobs"] == 1
    for jobs in (0, 2):
        with pytest.raises(VerifyUsageError):
            RunConfig(jobs=jobs)
