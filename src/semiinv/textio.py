"""Canonical text format for polynomials, read and written; JSON, written only.

Text format (written by Polynomial.text): terms in graded-lex descending
order, joined by " + " / " - ", coefficient then variables joined by "*",
"^1" and unit coefficients omitted, rationals printed as num/den in lowest
terms.  parse_text reads the wider grammar

    text   = [sign] term {sign term}          sign = "+" | "-"
    term   = factor {"*" factor}
    factor = n | n "/" d | x | x "^" e

with n, d, e numerals of the digits 0-9 (d nonzero) and x the name of a
variable (an ASCII letter or "_", then word characters); whitespace, newlines
included, may stand between any two tokens.  Repeated variables multiply out
and like terms add up.

JSON format: {"ring": ..., "variables": [...], "terms": [{"c": str, "e": [..]}]}
with terms in the same canonical order.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import ZZ, Polynomial, PolyError, Ring, VariableSet


class ParseError(PolyError):
    """Malformed polynomial text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# one token per match, whitespace skipped: its kind is the number of the group
_NUM, _NAME, _OP, _OTHER = 1, 2, 3, 4
_TOKEN = re.compile(r"([0-9]+)|([A-Za-z_]\w*)|([-+*/^])|(\S)")


def parse_text(text: str, vars: VariableSet, ring: Ring = ZZ) -> Polynomial:
    """Parse the text format (see the module docstring) into a polynomial."""
    toks = [(m.lastindex, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    toks.append((0, "", len(text.rstrip())))  # the end of input, just after the last token

    terms: dict = {}
    starts = []  # the first token of the first term of each monomial of `terms`

    def fail(message, i):
        # the first error in the text is reported: an exponent out of range in
        # a term before token i, checked only on this path (VariableSet.pack),
        # comes before the error at i
        for mono, first in zip(terms, starts):
            if first >= i:
                break
            try:
                vars.pack(mono)
            except PolyError as exc:
                message, i = str(exc), first
                break
        kind, value, offset = toks[i]
        if kind == _OTHER:
            message = f"unexpected character {value!r}"
        elif kind:
            message = f"{message} near {value!r}"
        line = text.count("\n", 0, offset) + 1
        raise ParseError(message, line, offset - text.rfind("\n", 0, offset))

    if not toks[0][0]:
        fail("empty input", 0)
    i = 0
    while True:
        value = toks[i][1]
        sign = -1 if value == "-" else 1
        if value in ("+", "-"):
            i += 1
        elif i:
            fail("expected '+' or '-' between terms", i)
        first, coeff, vec = i, sign, [0] * len(vars)
        while True:
            kind, value, _ = toks[i]
            if kind == _NUM:
                if toks[i + 1][1] == "/":
                    i += 2
                    if toks[i][0] != _NUM:
                        fail("expected denominator after '/'", i)
                    if not int(toks[i][1]):
                        fail("zero denominator", i - 2)
                    coeff *= Fraction(int(value), int(toks[i][1]))
                else:
                    coeff *= int(value)
            elif kind == _NAME:
                if value not in vars:
                    fail(f"unknown variable {value!r}", i)
                e = 1
                if toks[i + 1][1] == "^":
                    i += 2
                    if toks[i][0] != _NUM:
                        fail("expected exponent after '^'", i)
                    e = int(toks[i][1])
                vec[vars.index(value)] += e
            else:
                fail("expected a factor", i)
            i += 1
            if toks[i][1] != "*":
                break
            i += 1
        mono = tuple(vec)
        if mono not in terms:
            terms[mono] = 0
            starts.append(first)
        try:  # a fraction in ZZ
            terms[mono] += ring.normalize(coeff)
        except PolyError as exc:
            fail(str(exc), first)
        if not toks[i][0]:
            break
    try:  # from_terms checks the exponents
        return Polynomial.from_terms(ring, vars, terms)
    except PolyError as exc:
        fail(str(exc), len(toks) - 1)


def _ring_tag(ring: Ring) -> str:
    return repr(ring)


def to_json_obj(p: Polynomial) -> dict:
    return {
        "ring": _ring_tag(p.ring),
        "variables": list(p.vars.names),
        "terms": [
            {"c": str(c), "e": list(exps)} for exps, c in p.sorted_terms()
        ],
    }
