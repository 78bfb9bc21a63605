import json
from fractions import Fraction

import pytest

from semiinv import textio
from semiinv.poly import QQ, ZZ, Polynomial, PolyError, VariableSet
from semiinv.textio import JSONFormatError, ParseError

VS = VariableSet(("x", "y"))


def test_render_examples():
    x = Polynomial.variable(ZZ, VS, "x")
    y = Polynomial.variable(ZZ, VS, "y")
    assert (2 * x ** 2 * y - 3).text() == "2*x^2*y - 3"
    assert Polynomial.zero(ZZ, VS).text() == "0"
    assert (x - y).text() == "x - y"
    assert (-x).text() == "-x"
    assert Polynomial.constant(ZZ, VS, 1).text() == "1"
    assert (x + 1).text() == "x + 1"
    assert (Polynomial.variable(QQ, VS, "x") * Fraction(1, 3)).text() == "1/3*x"


def test_parse_simple():
    p = textio.parse_text("2*x^2*y - 3", VS, ZZ)
    x = Polynomial.variable(ZZ, VS, "x")
    y = Polynomial.variable(ZZ, VS, "y")
    assert p == 2 * x ** 2 * y - 3
    assert textio.parse_text("0", VS, ZZ).is_zero()
    assert textio.parse_text("-x + x", VS, ZZ).is_zero()


def test_parse_rationals():
    p = textio.parse_text("1/3*x - 2/6", VS, QQ)
    x = Polynomial.variable(QQ, VS, "x")
    assert p == x * Fraction(1, 3) - Fraction(1, 3)


def test_text_roundtrip_random():
    import random

    rng = random.Random(41)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            mono = (rng.randint(0, 4), rng.randint(0, 4))
            terms[mono] = terms.get(mono, 0) + rng.randint(-30, 30)
        p = Polynomial.from_terms(ZZ, VS, terms)
        assert textio.parse_text(p.text(), VS, ZZ) == p


def test_json_roundtrip():
    x = Polynomial.variable(QQ, VS, "x")
    p = x ** 3 * Fraction(-7, 2) + 5
    assert textio.from_json(json.dumps(textio.to_json_obj(p))) == p


def test_json_rejects_a_prime_field_ring_tag():
    """ZZ and QQ are the only coefficient rings."""
    text = '{"ring":"GF(7)","terms":[{"c":"1","e":[1,0]}],"variables":["x","y"]}'
    with pytest.raises(PolyError, match="unknown ring tag"):
        textio.from_json(text)


@pytest.mark.parametrize(
    "text",
    [
        # two terms with one exponent vector: the last must not silently win
        '{"ring":"ZZ","terms":[{"c":"1","e":[1,0]},{"c":"-1","e":[1,0]}],"variables":["x","y"]}',
        '{"ring":"ZZ","variables":["x","y"]}',
        '{"terms":[],"variables":["x","y"]}',
        '[{"c":"1","e":[1,0]}]',
        '"x"',
        '{"ring":"ZZ","terms":[{"c":"one","e":[1,0]}],"variables":["x","y"]}',
        '{"ring":"QQ","terms":[{"c":"1/0","e":[1,0]}],"variables":["x","y"]}',
        '{"ring":"ZZ","terms":[{"c":1,"e":[1,0]}],"variables":["x","y"]}',
        '{"ring":"ZZ","terms":[{"c":"1"}],"variables":["x","y"]}',
        '{"ring":"ZZ","terms":[{"c":"1","e":["1",0]}],"variables":["x","y"]}',
        '{"ring":"ZZ","terms":[{"c":"1","e":[1]}],"variables":["x","y"]}',
        '{"ring":"ZZ","terms":{},"variables":["x","y"]}',
        '{"ring":"ZZ","terms":[],"variables":3}',
        '{"ring":"ZZ",',
        '{"ring":"ZZ","terms":[{"c":"1","e":[1,0,0]}],"variables":["x","y"]}',
        '{"ring":"ZZ","terms":[],"variables":["x","x"]}',
        '{"ring":"ZZ","terms":[],"variables":["x",1]}',
        '{"ring":"ZZ","terms":[{"c":"1","e":[256,0]}],"variables":["x","y"]}',
        '{"ring":"ZZ","terms":[{"c":"1","e":[-1,0]}],"variables":["x","y"]}',
        '{"ring":"ZZ","terms":[{"c":"1/2","e":[1,0]}],"variables":["x","y"]}',
    ],
    ids=[
        "repeated-exponent-vector", "missing-terms", "missing-ring", "not-an-object",
        "a-string", "non-numeric-c", "zero-denominator", "c-not-a-string", "missing-e",
        "string-exponent", "short-exponent-vector", "terms-not-a-list",
        "variables-not-a-list", "not-json", "long-exponent-vector",
        "repeated-variable", "non-string-variable", "exponent-above-255",
        "negative-exponent", "fraction-in-ZZ",
    ],
)
def test_json_rejects_malformed_input(text):
    with pytest.raises(JSONFormatError):
        textio.from_json(text)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        textio.parse_text("x + $", VS, ZZ)
    assert err.value.line == 1
    assert err.value.column == 5

    with pytest.raises(ParseError) as err:
        textio.parse_text("x +\n y * ", VS, ZZ)
    assert err.value.line == 2

    with pytest.raises(ParseError):
        textio.parse_text("x + nosuchvar", VS, ZZ)
    with pytest.raises(ParseError):
        textio.parse_text("", VS, ZZ)
    with pytest.raises(ParseError):
        textio.parse_text("x ^", VS, ZZ)
    # errors of the polynomial layer are reported at the term that caused them
    with pytest.raises(ParseError) as err:
        textio.parse_text("y + x^300", VS, ZZ)
    assert (err.value.line, err.value.column) == (1, 5)
    with pytest.raises(ParseError) as err:
        textio.parse_text("y -\n 1/2*x", VS, ZZ)
    assert (err.value.line, err.value.column) == (2, 2)
    assert textio.parse_text("1/2*x", VS, QQ) == Polynomial.variable(QQ, VS, "x") * Fraction(1, 2)


def test_roundtrip_every_emitted_generator():
    from semiinv import conjinv, generators as gen, relations

    table = gen.generator_table()
    corpus = {}
    corpus.update({name: table.by_name(name) for name in gen.GENERATOR_NAMES})
    s4, t6 = relations.derive_st()
    corpus["Stilde"] = s4
    corpus["Ttilde"] = t6
    s_cubic, t_cubic = gen.cubic_invariants_from_f_forms(s4, t6)
    corpus["S_cubic"] = s_cubic
    corpus["T_cubic"] = t_cubic
    corpus["A"] = relations.defining_relation()
    corpus["nakamoto"] = conjinv.nakamoto_polynomial()
    corpus["phi_h"] = conjinv.phi(table.h)
    corpus["phi_q"] = conjinv.phi(table.q)
    corpus.update(conjinv.trace_generators())
    for name, p in corpus.items():
        text = p.text()
        assert textio.parse_text(text, p.vars, p.ring) == p, name
        assert textio.from_json(json.dumps(textio.to_json_obj(p))) == p, name
