import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semiinv import textio
from semiinv.poly import QQ, ZZ, Polynomial, VariableSet
from semiinv.textio import ParseError

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


@st.composite
def spaced_texts(draw):
    """A polynomial over ZZ or QQ and its text with random spaces and newlines
    drawn between its tokens."""
    ring = draw(st.sampled_from((ZZ, QQ)))
    dens = st.integers(1, 9) if ring == QQ else st.just(1)
    coeffs = st.builds(Fraction, st.integers(-30, 30), dens)
    monos = st.tuples(st.integers(0, 4), st.integers(0, 4))
    p = Polynomial.from_terms(ring, VS, draw(st.dictionaries(monos, coeffs, max_size=5)))
    tokens = re.findall(r"[0-9]+|\w+|\S", p.text())
    gaps = st.sampled_from(("", " ", "\n", " \n  ", "\n\n"))
    text = "".join(tok + draw(gaps) for tok in tokens)
    return p, draw(gaps) + text


@given(spaced_texts())
@settings(max_examples=300)
def test_text_roundtrip_random(case):
    """Parsing is blind to whitespace between tokens."""
    p, text = case
    assert textio.parse_text(text, VS, p.ring) == p
    assert textio.parse_text(p.text(), VS, p.ring) == p


def read_json(text):
    """The polynomial of an emitted JSON document; the package only writes them."""
    obj = json.loads(text)
    terms = {tuple(t["e"]): Fraction(t["c"]) for t in obj["terms"]}
    return Polynomial.from_terms({"ZZ": ZZ, "QQ": QQ}[obj["ring"]], VariableSet(obj["variables"]), terms)


def test_json_roundtrip():
    x = Polynomial.variable(QQ, VS, "x")
    p = x ** 3 * Fraction(-7, 2) + 5
    assert read_json(json.dumps(textio.to_json_obj(p))) == p


def test_parse_error_reports_position():
    cases = [
        ("x + $", 1, 5, "unexpected character '$'"),
        ("x^\u00b2", 1, 3, "unexpected character '\u00b2'"),  # a digit, but not 0-9
        ("x + \u00b2", 1, 5, "unexpected character '\u00b2'"),
        ("x +\n y * ", 2, 5, "expected a factor"),  # a trailing '*'
        ("x *", 1, 4, "expected a factor"),
        ("", 1, 1, "empty input"),
        ("x + nosuchvar", 1, 5, "unknown variable 'nosuchvar'"),
        ("x + 1/", 1, 7, "expected denominator"),
        ("x + 1/0", 1, 5, "zero denominator"),
        ("x ^", 1, 4, "expected exponent"),
        ("x y", 1, 3, "expected '+' or '-' between terms"),
        # errors of the polynomial layer are reported at the term that caused them
        ("y + x^300", 1, 5, "exponent 300 outside"),
        ("x^200*x^100", 1, 1, "exponent 300 outside"),  # a repeated variable multiplies out
        ("x^128*x^128 + y", 1, 1, "exponent 256 outside"),
        ("x^300 + $", 1, 1, "exponent 300 outside"),  # the first error in the text
        ("y + x^300 + 1/2*y", 1, 5, "exponent 300 outside"),
        ("y -\n 1/2*x", 2, 2, "non-integer coefficient -1/2 in ZZ"),
    ]
    for text, line, column, message in cases:
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            textio.parse_text(text, VS, ZZ)
        assert (err.value.line, err.value.column) == (line, column), text
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
        assert read_json(json.dumps(textio.to_json_obj(p))) == p, name
