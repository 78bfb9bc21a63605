"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive and shares no code with the package:
polynomials are dicts mapping exponent tuples to coefficients, determinants
expand recursively along the first row (of plain integer matrices: Fraction
elimination), ranks come from Fraction elimination (over GF(p): elimination
with pow(a, -1, p) inverses), and modular evaluation is a direct
term-by-term sum.  The oracles named *_package, qq_combine_correction,
f_action_matrix, f_span_substitution, polarize, substitute, restrict,
coefficient_of, convert, act_on_triple, act_on_function, block_matrix and
pencil_determinant take
package polynomials and matrices and use only their plain ring operations or
their packed terms, one key at a time; the last two build the paper's
t-graded definitions of the generators, which the package does not.
det_mod, at_generators and composition_eval_mod are the exceptions to the
rule above.  det_mod is not an oracle but the tests' entry to the package's
determinant mod p, evalmod.det_residues, from stacks of integer matrices,
which no production code needs.  at_generators and composition_eval_mod are
the per-point reference for the triple identities: they evaluate the
expanded generator polynomials with evalmod.poly_eval_mod, where a modular
run reads the generator values off the determinant table.
"""

from fractions import Fraction
from functools import reduce
from itertools import permutations

import numpy as np

from semiinv import evalmod, generators as gen
from semiinv.matrix import PolyMatrix
from semiinv.poly import QQ, ZZ, Polynomial, PolyError, VariableMismatch, VariableSet, unify_rings

# the f-ring {f1..f10}, in which the derived invariants S and T live
F_VARS = VariableSet(gen.F_NAMES)
# the bidegree of each entry of a pair (A, B) = (A1, A2) in (A-entries,
# B-entries): x1_ij (1, 0), x2_ij (0, 1)
PAIR_WEIGHTS = {name: gen.BLOCK_WEIGHTS[name][:2] for name in gen.TRIPLE_NAMES[:18]}


def naive_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
        if out[k] == 0:
            del out[k]
    return out


def naive_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def naive_scale(a, c):
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def from_package(p):
    """Convert a package polynomial to the naive representation."""
    return {exps: c for exps, c in p.sorted_terms()}


def leibniz_determinant_package(m):
    """Signed permutation sum over package polynomials; n! terms, no DP."""
    n = m.n
    total = None
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = None
        for i in range(n):
            e = m.rows[i][perm[i]]
            prod = e if prod is None else prod.mul(e)
        term = prod * sign
        total = term if total is None else total + term
    return total


def rowexp_determinant_package(m):
    """Recursive first-row expansion skipping zero entries; independent of
    the package's subset-DP and cheap on sparse block matrices.  A minor
    whose first row is zero is the zero polynomial."""
    n = m.n

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        acc = Polynomial.zero(m.ring, m.vars)
        sign = 1
        for j, e in enumerate(rows[0]):
            if e.terms:
                minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                acc = acc + e.mul(det(minor)) * sign
            sign = -sign
        return acc

    return det([list(r) for r in m.rows])


def polarize(p, pairs):
    """The derivation sum(src * d/d dst) over (src, dst) name pairs, applied
    term by term to the packed keys: each term x^e contributes
    e_dst * x^e * src / dst per pair, so no coefficient leaves the ring.  The
    reference for hwv.derivation_images."""
    if p.maxexp >= 255:
        raise PolyError("polarization exceeds the per-variable exponent bound 255")
    # (byte index of dst, key change moving one unit from dst to src)
    moves = [
        (p.vars.index(dst), (1 << p.vars.shift(src)) - (1 << p.vars.shift(dst)))
        for src, dst in pairs
    ]
    n = len(p.vars)
    out = {}
    for k, c in p.terms.items():
        exps = k.to_bytes(n, "big")
        for i, delta in moves:
            e = exps[i]
            if e:
                out[k + delta] = out.get(k + delta, 0) + c * e
    out = {k: c for k, c in out.items() if c}
    return Polynomial(p.ring, p.vars, out, p.maxexp + 1)


def substitute(p, bindings):
    """The composition p(bindings), term by term: each term's product of
    cached powers of its bindings, in the ring both coefficient sets coerce
    into, Fractions throughout over QQ.  The reference for
    Polynomial.substitute, which takes the same bindings (every variable p
    uses bound, all over one variable set) and checks them."""
    ring = reduce(unify_rings, (v.ring for v in bindings.values()), p.ring)
    target = next(iter(bindings.values())).vars
    one = Polynomial.constant(ring, target, 1)
    powers = {n: [one, v.to_ring(ring)] for n, v in bindings.items()}

    def power(name, e):
        lst = powers[name]
        while len(lst) <= e:
            lst.append(lst[-1].mul(lst[1]))
        return lst[e]

    out = {}
    maxexp = 0
    for k, c in p.terms.items():
        factor = one
        for name, e in zip(p.vars.names, k.to_bytes(len(p.vars), "big")):
            if e:
                q = power(name, e)
                factor = q if factor is one else factor.mul(q)
        maxexp = max(maxexp, factor.maxexp)
        for k2, c2 in factor.terms.items():
            out[k2] = out.get(k2, 0) + c * c2
    return Polynomial(ring, target, {k: c for k, c in out.items() if c}, maxexp)


def _repacked(p, vars, terms):
    """(key, coefficient) pairs of p, re-packed over `vars` one key at a time:
    the byte of each name that `vars` shares moves to its field there, every
    other byte is dropped, and coefficients that meet on one key add up."""
    moves = [(p.vars.shift(n), vars.shift(n)) for n in vars.names if n in p.vars]
    out = {}
    for k, c in terms:
        nk = 0
        for old, new in moves:
            nk |= ((k >> old) & 0xFF) << new
        out[nk] = out.get(nk, 0) + c
    return Polynomial(p.ring, vars, {k: c for k, c in out.items() if c}, p.maxexp)


def _without(p, names):
    return VariableSet(n for n in p.vars.names if n not in names)


def restrict(p, values):
    """p with some variables fixed to ints or Fractions, term by term: each
    coefficient times v**e per fixed variable, in the coefficient's own type,
    after moving a ZZ polynomial to QQ for a non-integral value.  The
    reference for Polynomial.restrict."""
    if p.ring != QQ and any(isinstance(v, Fraction) and v.denominator != 1 for v in values.values()):
        return restrict(p.to_ring(QQ), values)
    fixed = [(p.vars.shift(name), p.ring.normalize(v)) for name, v in values.items()]
    terms = []
    for k, c in p.terms.items():
        for sh, v in fixed:
            c = c * v ** ((k >> sh) & 0xFF)
        if c:
            terms.append((k, c))
    return _repacked(p, _without(p, values), terms)


def coefficient_of(p, exps, subset):
    """The terms of p whose keys carry exactly `exps` in the subset's bytes,
    re-packed without them.  The reference for Polynomial.coefficient_of."""
    subset = tuple(subset)
    if any(name not in subset for name in exps):
        raise VariableMismatch("exponent outside the designated subset")
    mask = 0
    for n in subset:
        mask |= 0xFF << p.vars.shift(n)
    required = 0
    for name, e in exps.items():
        if not 0 <= e <= 255:
            raise PolyError(f"exponent {e} outside [0, 255]")
        required |= e << p.vars.shift(name)
    terms = [(k, c) for k, c in p.terms.items() if k & mask == required]
    return _repacked(p, _without(p, subset), terms)


def convert(p, new_vars):
    """p re-packed over another variable set, refusing a used variable that
    the set lacks.  The reference for Polynomial.convert."""
    for name in p.vars.names:
        sh = p.vars.shift(name)
        if name not in new_vars and any((k >> sh) & 0xFF for k in p.terms):
            raise VariableMismatch(f"variable {name!r} used but absent from target set")
    return _repacked(p, new_vars, p.terms.items())


def block_matrix(blocks):
    """Assemble a square PolyMatrix from a grid of equal-size square blocks;
    None stands for a zero block."""
    proto = next(b for row in blocks for b in row if b is not None)
    zero = Polynomial.zero(proto.ring, proto.vars)
    rows = []
    for brow in blocks:
        for i in range(proto.n):
            row = []
            for b in brow:
                row.extend([zero] * proto.n if b is None else b.rows[i])
            rows.append(row)
    return PolyMatrix(rows)


def pencil_determinant(T):
    """det(t1*A1 + t2*A2 + t3*A3) of a MatrixTriple, over its variables
    extended by t1, t2, t3."""
    t_names = ("t1", "t2", "t3")
    w = T.vars.extend(t_names)
    pencil = None
    for name, m in zip(t_names, T.components()):
        part = PolyMatrix([[e.convert(w) for e in row] for row in m.rows])
        part = part.scale(Polynomial.variable(m.ring, w, name))
        pencil = part if pencil is None else pencil + part
    return pencil.determinant()


def act_on_triple(g, T):
    """The right action T.g for a 3x3 g of ints, Fractions or polynomials
    (over T's variables, or convertible to them): component c is
    sum_r g[r][c] * A_r, entry by entry, with plain ring operations in the
    ring all the entries coerce into."""
    coeffs = [
        [
            e.convert(T.vars) if isinstance(e, Polynomial)
            else Polynomial.constant(ZZ if Fraction(e).denominator == 1 else QQ, T.vars, e)
            for e in row
        ]
        for row in g
    ]
    ring = reduce(unify_rings, (c.ring for row in coeffs for c in row), T.ring)
    coeffs = [[c.to_ring(ring) for c in row] for row in coeffs]
    mats = [PolyMatrix([[e.to_ring(ring) for e in row] for row in m.rows]) for m in T.components()]
    zero = Polynomial.zero(ring, T.vars)

    def entry(c, i, j):
        return reduce(lambda acc, r: acc + coeffs[r][c] * mats[r][i, j], range(3), zero)

    return gen.MatrixTriple(
        *(PolyMatrix([[entry(c, i, j) for j in range(3)] for i in range(3)]) for c in range(3))
    )


def act_on_function(g, F):
    """g.F, the function T -> F(T.g), for a g of ints, Fractions or
    polynomials over the variables of F: the generic triple acted on by g
    (act_on_triple) composed into F term by term (substitute).  The reference
    for generators.act_on_function, which takes integer matrices only, and
    the one route for the diagonal torus with polynomial entries."""
    generic = gen.MatrixTriple(
        *(PolyMatrix([[e.convert(F.vars) for e in row] for row in m.rows])
          for m in gen.generic_triple().components())
    )
    acted = act_on_triple(g, generic)
    bindings = {
        name: m.rows[k // 3][k % 3]
        for names, m in zip(gen.BLOCK_NAMES, acted.components())
        for k, name in enumerate(names)
    }
    return substitute(F, bindings)


def qq_combine_correction(base, factors, table, coeffs=None):
    """base + sum(c * product) over a correction table, accumulated one
    polynomial addition at a time in QQ, every coefficient a Fraction
    throughout; generators.combine_correction clears denominators instead."""
    if coeffs is None:
        coeffs = [c for c, _ in table]
    acc = base.to_ring(QQ)
    for c, (_, keys) in zip(coeffs, table, strict=True):
        prod = reduce(lambda a, b: a.mul(b), [factors[k] for k in keys])
        acc = acc + prod.to_ring(QQ) * c
    return acc


_T3_VARS = VariableSet(gen.T_NAMES)


def _linear_forms(rows, vars: VariableSet) -> list:
    """The linear forms sum_m row[m] * (variable m of vars) over ZZ, one per
    row."""
    units = [tuple(int(i == m) for i in range(len(vars))) for m in range(len(vars))]
    return [Polynomial.from_terms(ZZ, vars, dict(zip(units, row))) for row in rows]


def f_action_matrix(g):
    """10x10 integer matrix M with g.f_n = sum_m M[n][m] f_m for an integer
    matrix g, computed by expanding the substituted pencil monomials as ZZ
    polynomials in the t-variables."""
    lin = _linear_forms(g, _T3_VARS)
    rows = [[0] * 10 for _ in gen.F_INDEX]
    for m_idx, (l, m, n) in enumerate(gen.F_INDEX):
        prod = lin[0] ** l * lin[1] ** m * lin[2] ** n
        for n_idx, (i, j, k) in enumerate(gen.F_INDEX):
            rows[n_idx][m_idx] = prod.coefficient({"t1": i, "t2": j, "t3": k})
    return rows


def f_span_substitution(g):
    """Bindings f_n -> sum_m M[n][m] f_m over ZZ, M = f_action_matrix(g):
    the group substitution by which g acts on polynomials in f1..f10, one
    polynomial addition at a time (hwv decides the same fixedness with the
    derivation it reads off the pencil exponents)."""
    fs = [Polynomial.variable(ZZ, F_VARS, name) for name in gen.F_NAMES]
    zero = Polynomial.zero(ZZ, F_VARS)
    return {
        name: reduce(lambda acc, term: acc + term, (f * c for f, c in zip(fs, row)), zero)
        for name, row in zip(gen.F_NAMES, f_action_matrix(g))
    }


def naive_eval_mod(p, point, prime):
    """Direct term-by-term evaluation of a package polynomial mod prime."""
    total = 0
    for exps, c in p.sorted_terms():
        if isinstance(c, Fraction):
            c = c.numerator * pow(c.denominator, -1, prime)
        v = c % prime
        for name, e in zip(p.vars.names, exps):
            if e:
                v = v * pow(point[name] % prime, e, prime) % prime
        total = (total + v) % prime
    return total


def at_generators(outer):
    """An outer polynomial over (q, h, f1..f10) as an evalmod.Composition
    whose leaves are the generator table's expanded polynomials."""
    table = gen.generator_table()
    return evalmod.Composition(outer, {name: table.by_name(name) for name in ("q", "h") + gen.F_NAMES})


def composition_eval_mod(expr, point, prime):
    """An evalmod.Composition mod p at a point of its leaves' variables (ints,
    or int64 arrays for a batch): each leaf polynomial by poly_eval_mod,
    then the outer polynomial at those values."""
    values = {name: evalmod.poly_eval_mod(leaf, point, prime) for name, leaf in expr.leaves.items()}
    return evalmod.poly_eval_mod(expr.outer, values, prime)


def weighted_degrees(p, weights):
    """The set of rows sum(e * weights[name]) over the terms of a package
    polynomial, one row per term; an unlisted variable weighs 0."""
    width = len(next(iter(weights.values()), ()))
    zero = (0,) * width
    return {
        tuple(
            sum(e * weights.get(name, zero)[i] for name, e in zip(p.vars.names, exps))
            for i in range(width)
        )
        for exps in from_package(p)
    }


def fraction_determinant(rows):
    """Determinant of a plain integer matrix by Gaussian elimination over
    the rationals, with a row swap at a zero pivot; an int."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return int(det)


def det_mod(mats, prime):
    """Determinants mod p of a stack of integer matrices, (..., n, n) -> (...),
    or of count matrices sharing their last n - 3 rows, laid out as
    det_residues takes them, (..., n - 3 + 3*count, n) -> (..., count):
    evalmod.det_residues of the entries reduced by evalmod.residues (ints
    of any size too)."""
    m = np.moveaxis(evalmod.residues(mats, prime), (-2, -1), (0, 1))
    dets = np.moveaxis(evalmod.det_residues(m, prime), 0, -1)
    return dets[..., 0] if len(m) == m.shape[1] else dets


def fraction_rank(vectors):
    """Rank of a family of int or Fraction vectors by Gaussian elimination
    over the rationals, each pivot row scaled to a leading 1."""
    pivots = {}
    for vec in vectors:
        row = [Fraction(v) for v in vec]
        for col, prow in pivots.items():
            if row[col]:
                factor = row[col]
                row = [a - factor * b for a, b in zip(row, prow)]
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is None:
            continue
        pivots[lead] = [c / row[lead] for c in row]
    return len(pivots)


def rank_mod(rows, prime):
    """Rank over GF(p) of a plain integer matrix by Gaussian elimination,
    each pivot row scaled to a leading 1 with pow(a, -1, p)."""
    m = [[v % prime for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, prime)
        m[rank] = [v * inv % prime for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                factor = m[i][col]
                m[i] = [(a - factor * b) % prime for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def mat_mul_int(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def mat_trace_int(a):
    return sum(a[i][i] for i in range(len(a)))


def mat_word_int(*mats):
    """Left-to-right product of plain integer matrices."""
    out = mats[0]
    for m in mats[1:]:
        out = mat_mul_int(out, m)
    return out


def char_coeffs_int(a):
    """(t, s, d) with det(zI + A) = z^3 + t z^2 + s z + d, for a plain 3x3."""
    t = mat_trace_int(a)
    a2 = mat_mul_int(a, a)
    s = Fraction(t * t - mat_trace_int(a2), 2)
    d = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    return t, s, d
