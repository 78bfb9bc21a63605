"""Canonical text and JSON round-trip formats for polynomials.

Text format (see Polynomial.text): terms in graded-lex descending order,
joined by " + " / " - ", coefficient then variables joined by "*", "^1" and
unit coefficients omitted, rationals printed as num/den in lowest terms.

JSON format: {"ring": ..., "variables": [...], "terms": [{"c": str, "e": [..]}]}
with terms in the same canonical order.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .poly import QQ, ZZ, Polynomial, PolyError, Ring, VariableSet


class ParseError(PolyError):
    """Malformed polynomial text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_TOKEN_CHARS = set("+-*/^")


def _tokenize(text: str):
    """Yield (kind, value, line, col) with kind in {num, name, op}."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("num", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch in _TOKEN_CHARS:
            yield ("op", ch, line, col)
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)


def parse_text(text: str, vars: VariableSet, ring: Ring = ZZ) -> Polynomial:
    """Parse the canonical text format back into a polynomial."""
    tokens = list(_tokenize(text))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        t = tokens[pos]
        pos += 1
        return t

    def fail(message, tok=None):
        if tok is None:
            if tokens:
                last = tokens[-1]
                raise ParseError(message, last[2], last[3] + len(last[1]))
            raise ParseError(message, 1, 1)
        raise ParseError(f"{message} near {tok[1]!r}", tok[2], tok[3])

    def parse_number():
        tok = take()
        num = int(tok[1])
        t = peek()
        if t and t[0] == "op" and t[1] == "/":
            take()
            t2 = peek()
            if not t2 or t2[0] != "num":
                fail("expected denominator after '/'", t2)
            den = int(take()[1])
            if den == 0:
                fail("zero denominator", tok)
            return Fraction(num, den)
        return num

    def parse_term():
        """One product of numeric and variable factors; returns (coeff, {name: exp})."""
        coeff = 1
        exps: dict = {}
        expect_factor = True
        while True:
            t = peek()
            if t is None or (t[0] == "op" and t[1] in "+-"):
                break
            if t[0] == "num":
                coeff = coeff * parse_number()
            elif t[0] == "name":
                take()
                name = t[1]
                if name not in vars:
                    fail(f"unknown variable {name!r}", t)
                e = 1
                nxt = peek()
                if nxt and nxt[0] == "op" and nxt[1] == "^":
                    take()
                    etok = peek()
                    if not etok or etok[0] != "num":
                        fail("expected exponent after '^'", etok or t)
                    e = int(take()[1])
                exps[name] = exps.get(name, 0) + e
            else:
                fail("expected a coefficient or variable", t)
            expect_factor = False
            t = peek()
            if t and t[0] == "op" and t[1] == "*":
                take()
                expect_factor = True
                continue
            break
        if expect_factor:
            fail("expected a factor", peek())
        return coeff, exps

    if not tokens:
        fail("empty input")
    acc = Polynomial.zero(ring, vars)
    sign = 1
    t = peek()
    if t[0] == "op" and t[1] in "+-":
        take()
        sign = -1 if t[1] == "-" else 1
    while True:
        t = peek()
        if t is None:
            fail("expected a term")
        coeff, exps = parse_term()
        try:
            term = Polynomial.monomial(ring, vars, exps, sign * coeff)
        except PolyError as exc:  # an exponent out of range, a fraction in ZZ
            fail(str(exc), t)
        acc = acc + term
        t = peek()
        if t is None:
            break
        if t[0] == "op" and t[1] in "+-":
            take()
            sign = -1 if t[1] == "-" else 1
            continue
        fail("expected '+' or '-' between terms", t)
    return acc


def _ring_tag(ring: Ring) -> str:
    return repr(ring)


class JSONFormatError(PolyError):
    """A JSON document that is not a polynomial in the JSON format."""


def _ring_from_tag(tag: str) -> Ring:
    if tag == "ZZ":
        return ZZ
    if tag == "QQ":
        return QQ
    raise JSONFormatError(f"unknown ring tag {tag!r}")


def to_json_obj(p: Polynomial) -> dict:
    return {
        "ring": _ring_tag(p.ring),
        "variables": list(p.vars.names),
        "terms": [
            {"c": str(c), "e": list(exps)} for exps, c in p.sorted_terms()
        ],
    }


def _json_coefficient(c) -> int | Fraction:
    if isinstance(c, str):
        try:
            return Fraction(c) if "/" in c else int(c)
        except (ValueError, ZeroDivisionError):
            pass
    raise JSONFormatError(f"bad coefficient {c!r}")


def from_json_obj(obj: dict) -> Polynomial:
    """Read the JSON format; raises JSONFormatError on a malformed document,
    including two terms with the same exponent vector, a bad variable list,
    an exponent vector of the wrong length or out of range, and a
    non-integral coefficient in a ZZ document."""
    if not isinstance(obj, dict):
        raise JSONFormatError(f"expected a JSON object, got {type(obj).__name__}")
    missing = [key for key in ("ring", "variables", "terms") if key not in obj]
    if missing:
        raise JSONFormatError(f"missing key {missing[0]!r}")
    ring = _ring_from_tag(obj["ring"])
    if not isinstance(obj["variables"], list) or not isinstance(obj["terms"], list):
        raise JSONFormatError("'variables' and 'terms' must be lists")
    try:
        vars = VariableSet(obj["variables"])
    except PolyError as exc:
        raise JSONFormatError(f"bad variables: {exc}") from None
    terms = {}
    for t in obj["terms"]:
        if not isinstance(t, dict) or set(t) != {"c", "e"}:
            raise JSONFormatError(f"a term must be an object with keys 'c' and 'e': {t!r}")
        e = t["e"]
        if not isinstance(e, list) or any(type(x) is not int for x in e):
            raise JSONFormatError(f"bad exponent vector {e!r}")
        if tuple(e) in terms:
            raise JSONFormatError(f"repeated exponent vector {e}")
        terms[tuple(e)] = _json_coefficient(t["c"])
    try:
        return Polynomial.from_terms(ring, vars, terms)
    except PolyError as exc:
        raise JSONFormatError(str(exc)) from None


def from_json(text: str) -> Polynomial:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JSONFormatError(f"not JSON: {exc}") from None
    return from_json_obj(obj)
