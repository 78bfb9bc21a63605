"""The generating invariants of 3x3 matrix triples and the GL3 action.

The ten cubic generators are the coefficients of det(t1*A1 + t2*A2 + t3*A3);
h and q are the t1 and t1^2 coefficients of 6x6 and 9x9 block determinants
in which only one block carries the grading variable t1 (see h_poly and
q_poly for why one variable suffices).  H and Q are the rational corrections
of h and q that are fixed by the unipotent upper-triangular subgroup (highest
weight vectors of weights (2,2,2) and (3,3,3)).  Everything is built exactly,
as polynomials in the 27 coordinate functions of the generic triple.

Gradings are data next to the names they weigh, for Polynomial.degrees:
BLOCK_WEIGHTS gives the degree in the entries of (A1, A2, A3), and F_WEIGHTS
gives f_n the exponent triple (i, j, k) it is the coefficient of.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Mapping, Sequence

from .matrix import PolyMatrix, block_matrix
from .poly import QQ, ZZ, Polynomial, PolyError, Ring, VariableSet, unify_rings

# Coordinate functions of the generic triple: entry (i,j) of matrix r is x{r}_{ij}.
TRIPLE_NAMES = tuple(
    f"x{r}_{i}{j}" for r in (1, 2, 3) for i in (1, 2, 3) for j in (1, 2, 3)
)
TRIPLE_VARS = VariableSet(TRIPLE_NAMES)
BLOCK_NAMES = tuple(TRIPLE_NAMES[9 * r : 9 * r + 9] for r in range(3))
BLOCK_WEIGHTS = {
    name: tuple(int(b == r) for b in range(3))
    for r, names in enumerate(BLOCK_NAMES)
    for name in names
}

T_NAMES = ("t1", "t2", "t3")

# f-numbering: the ten exponent triples (i, j, k) with i+j+k = 3, in the
# order that defines f1..f10.
F_INDEX = (
    (3, 0, 0),
    (2, 1, 0),
    (2, 0, 1),
    (1, 2, 0),
    (1, 1, 1),
    (1, 0, 2),
    (0, 3, 0),
    (0, 2, 1),
    (0, 1, 2),
    (0, 0, 3),
)
F_NAMES = tuple(f"f{i}" for i in range(1, 11))
F_VARS = VariableSet(F_NAMES)
F_WEIGHTS = dict(zip(F_NAMES, F_INDEX))

# Correction coefficients making H = h + sum(c * f_i * f_j) and
# Q = q + sum(c * prod) highest weight vectors.  A factor key is n for f_n and
# "h" for h.  These two tables are the only place the correction monomials are
# written: H and Q, the bases the corrections are solved in, the abstract
# forms in the 12-variable ring and the printed labels all come from them.
H_CORRECTIONS = (
    (Fraction(-1, 3), (2, 9)),
    (Fraction(-1, 3), (3, 8)),
    (Fraction(2, 3), (4, 6)),
    (Fraction(1, 12), (5, 5)),
)
Q_CORRECTIONS = (
    (Fraction(-1, 2), ("h", 5)),
    (Fraction(3, 2), (1, 7, 10)),
    (Fraction(-1, 2), (1, 8, 9)),
    (Fraction(-1, 2), (7, 3, 6)),
    (Fraction(-1, 2), (10, 2, 4)),
    (Fraction(-1, 2), (5, 4, 6)),
    (Fraction(1, 2), (2, 6, 8)),
    (Fraction(1, 2), (4, 3, 9)),
)


def correction_factors(f: Sequence[Polynomial], h: Polynomial) -> dict:
    """Factor key -> polynomial: n -> f[n - 1] and "h" -> h."""
    return {**dict(enumerate(f, start=1)), "h": h}


def correction_label(keys: Sequence) -> str:
    """A correction monomial as printed: (1, 2, 2) -> "f1*f2^2" and
    ("h", 3) -> "h*f3"."""
    names = [k if k == "h" else f"f{k}" for k in keys]
    return "*".join(
        name if names.count(name) == 1 else f"{name}^{names.count(name)}"
        for name in dict.fromkeys(names)
    )


def correction_products(table, factors: Mapping):
    """Yield the monomials of a correction table, one per entry, multiplied
    out in the ring of the factor polynomials; one at a time, so a combination
    never holds them all."""
    for _, keys in table:
        yield reduce(Polynomial.mul, [factors[k] for k in keys])


def combine_correction(base: Polynomial, factors: Mapping, table, coeffs=None) -> Polynomial:
    """base + sum(c * product) over the entries of a correction table, in QQ.
    coeffs, when given, replaces the table's coefficients (a solved
    correction)."""
    if coeffs is None:
        coeffs = [c for c, _ in table]
    acc = base.to_ring(QQ)
    for c, prod in zip(coeffs, correction_products(table, factors), strict=True):
        acc = acc + prod.to_ring(QQ) * c
    return acc


# the name the benchmark workloads call, with int keys and a table of H's shape
combine_h_correction = combine_correction


@dataclass(frozen=True)
class MatrixTriple:
    """Three 3x3 polynomial matrices over one shared ring and variable set."""

    a1: PolyMatrix
    a2: PolyMatrix
    a3: PolyMatrix

    def __post_init__(self):
        for m in (self.a1, self.a2, self.a3):
            if m.n != 3:
                raise PolyError("triples consist of 3x3 matrices")
            if m.ring != self.a1.ring or m.vars != self.a1.vars:
                raise PolyError("triple components must share ring and variables")

    @property
    def vars(self) -> VariableSet:
        return self.a1.vars

    @property
    def ring(self) -> Ring:
        return self.a1.ring

    def components(self):
        return (self.a1, self.a2, self.a3)


def generic_triple() -> MatrixTriple:
    mats = []
    for r in (1, 2, 3):
        mats.append(
            PolyMatrix.from_names(
                ZZ, TRIPLE_VARS, [[f"x{r}_{i}{j}" for j in (1, 2, 3)] for i in (1, 2, 3)]
            )
        )
    return MatrixTriple(*mats)


SKEW_PARAM_NAMES = ("x1", "y1", "z1", "x2", "y2", "z2", "x3", "y3", "z3")
SKEW_VARS = VariableSet(SKEW_PARAM_NAMES)


def skew_triple() -> MatrixTriple:
    """The generic skew-symmetric triple with parameter columns (x_r, y_r, z_r)."""

    def comp(r):
        x = Polynomial.variable(ZZ, SKEW_VARS, f"x{r}")
        y = Polynomial.variable(ZZ, SKEW_VARS, f"y{r}")
        zz = Polynomial.variable(ZZ, SKEW_VARS, f"z{r}")
        zero = Polynomial.zero(ZZ, SKEW_VARS)
        return PolyMatrix([[zero, -x, -y], [x, zero, -zz], [y, zz, zero]])

    return MatrixTriple(comp(1), comp(2), comp(3))


def skew_parameter_matrix() -> PolyMatrix:
    """Columns are the parameter vectors of the three skew components."""
    return PolyMatrix.from_names(
        ZZ, SKEW_VARS, [["x1", "x2", "x3"], ["y1", "y2", "y3"], ["z1", "z2", "z3"]]
    )


WEIERSTRASS_VARS = VariableSet(("a", "b"))


def weierstrass_triple() -> MatrixTriple:
    """The triple whose determinant pencil is the Weierstrass cubic
    t3^3 + t2^2*t1 - b^2*t1^2*t3 - a^2*t1^3."""
    a = Polynomial.variable(ZZ, WEIERSTRASS_VARS, "a")
    b = Polynomial.variable(ZZ, WEIERSTRASS_VARS, "b")
    zero = Polynomial.zero(ZZ, WEIERSTRASS_VARS)
    one = Polynomial.constant(ZZ, WEIERSTRASS_VARS, 1)
    m1 = PolyMatrix([[one, zero, zero], [zero, a, -b], [b, zero, -a]])
    m2 = PolyMatrix([[zero, zero, zero], [zero, one, zero], [zero, zero, one]])
    m3 = PolyMatrix([[zero, one, zero], [zero, zero, one], [one, zero, zero]])
    return MatrixTriple(m1, m2, m3)


# -- pencil machinery ---------------------------------------------------------


def _pencil_vars(vars: VariableSet) -> VariableSet:
    return vars.extend(T_NAMES)


def _lift(m: PolyMatrix, vars: VariableSet) -> PolyMatrix:
    return m.map_entries(lambda e: e.convert(vars))


def pencil_determinant(T: MatrixTriple) -> Polynomial:
    """det(t1*A1 + t2*A2 + t3*A3) over the triple's variables extended by T_NAMES."""
    w = _pencil_vars(T.vars)
    acc = None
    for t_name, m in zip(T_NAMES, T.components()):
        part = _lift(m, w).scale(Polynomial.variable(m.ring, w, t_name))
        acc = part if acc is None else acc + part
    return acc.determinant()


def f_all(T: MatrixTriple) -> dict:
    """All ten pencil coefficients, keyed by the exponent triple (i, j, k)."""
    det = pencil_determinant(T)
    return {
        (i, j, k): det.coefficient_of({"t1": i, "t2": j, "t3": k}, T_NAMES)
        for (i, j, k) in F_INDEX
    }


def h_poly(T: MatrixTriple) -> Polynomial:
    """Coefficient of t1 in the 6x6 block determinant [[A2, t1*A1], [A1, A3]].

    A Leibniz term takes one entry from each row and each column.  Every
    block row and block column has 3 of them, so if a term takes a entries
    from the A2 block, it takes 3 - a from each A1 block and a from the A3
    block: its t1 exponent 3 - a fixes all four counts.  So the t1 coefficient
    is the sum of the terms with a = 2, which is the coefficient of
    t1^2 t2^2 t3^2 in [[t2*A2, t1*A1], [t1*A1, t3*A3]], the definition of
    h."""
    w = _pencil_vars(T.vars)
    a1 = _lift(T.a1, w)
    m = block_matrix(
        [
            [_lift(T.a2, w), a1.scale(Polynomial.variable(T.ring, w, "t1"))],
            [a1, _lift(T.a3, w)],
        ]
    )
    return m.determinant().coefficient_of({"t1": 1}, T_NAMES)


def q_poly(T: MatrixTriple) -> Polynomial:
    """Coefficient of t1^2 in the 9x9 block determinant
    [[0, t1*A1, A2], [A1, 0, A3], [A2, A3, 0]].

    As in h_poly, every block row and block column has 3 rows or columns.  A
    Leibniz term that takes a entries from the t1*A1 block (block (1, 2)) then
    takes 3 - a from blocks (1, 3), (2, 1) and (3, 2), and a from blocks
    (2, 3) and (3, 1).  So the t1^2 coefficient is the sum of the terms with
    a = 2, which is the coefficient of t1^2 t2 t3^2 t4 t5^2 t6 in
    [[0, t1*A1, t2*A2], [t4*A1, 0, t3*A3], [t5*A2, t6*A3, 0]], the
    definition of q."""
    w = _pencil_vars(T.vars)
    a1 = _lift(T.a1, w)
    a2 = _lift(T.a2, w)
    a3 = _lift(T.a3, w)
    m = block_matrix(
        [
            [None, a1.scale(Polynomial.variable(T.ring, w, "t1")), a2],
            [a1, None, a3],
            [a2, a3, None],
        ]
    )
    return m.determinant().coefficient_of({"t1": 2}, T_NAMES)


@dataclass(frozen=True)
class GeneratorTable:
    """The named invariants of a triple as explicit polynomials."""

    f_by_ijk: dict
    f: tuple  # f1..f10 in the fixed numbering
    h: Polynomial
    q: Polynomial
    H: Polynomial
    Q: Polynomial

    def by_name(self) -> dict:
        out = {}
        for n, ijk in enumerate(F_INDEX, start=1):
            p = self.f[n - 1]
            out[f"f{ijk[0]}{ijk[1]}{ijk[2]}"] = p
            out[f"f{n}"] = p
        out["h"] = self.h
        out["q"] = self.q
        out["HH"] = self.H
        out["QQ"] = self.Q
        return out


def generators_of(T: MatrixTriple) -> GeneratorTable:
    """The named invariants of a triple, H and Q included, in its variables."""
    fs = f_all(T)
    f_list = tuple(fs[ijk] for ijk in F_INDEX)
    h = h_poly(T)
    q = q_poly(T)
    factors = correction_factors(f_list, h)
    return GeneratorTable(
        f_by_ijk=fs,
        f=f_list,
        h=h,
        q=q,
        H=combine_correction(h, factors, H_CORRECTIONS),
        Q=combine_correction(q, factors, Q_CORRECTIONS),
    )


@lru_cache(maxsize=1)
def generator_table() -> GeneratorTable:
    """generators_of the generic triple, built once."""
    return generators_of(generic_triple())


# -- the right GL3 action -----------------------------------------------------


def _entry_poly(e, ring: Ring, vars: VariableSet) -> Polynomial:
    if isinstance(e, Polynomial):
        return e.convert(vars)
    return Polynomial.constant(ring, vars, e)


def act_on_triple(g: Sequence[Sequence], T: MatrixTriple) -> MatrixTriple:
    """Right action: component r of the result is sum_i g[i][r] * A_i."""
    comps = []
    ring = T.ring
    for e_row in g:
        for e in e_row:
            if isinstance(e, Polynomial):
                ring = unify_rings(ring, e.ring)
            elif isinstance(e, Fraction) and e.denominator != 1:
                ring = unify_rings(ring, QQ)
    mats = [m.map_entries(lambda p: p.to_ring(ring)) for m in T.components()]
    vars = T.vars
    for c in range(3):
        acc = None
        for r in range(3):
            coeff = _entry_poly(g[r][c], ring, vars).to_ring(ring)
            if not coeff.terms:
                continue
            part = mats[r].scale(coeff)
            acc = part if acc is None else acc + part
        if acc is None:
            acc = PolyMatrix.zero(ring, vars, 3)
        comps.append(acc)
    return MatrixTriple(*comps)


def act_on_function(g: Sequence[Sequence], F: Polynomial) -> Polynomial:
    """g.F maps a triple T to F(T.g); computed by substituting the entries of
    the generic triple acted on by g.  The result is over the variables of F,
    which polynomial entries of g must share."""
    generic = MatrixTriple(*(_lift(m, F.vars) for m in generic_triple().components()))
    acted = act_on_triple(g, generic)
    bindings = {
        name: m.rows[k // 3][k % 3]
        for names, m in zip(BLOCK_NAMES, acted.components())
        for k, name in enumerate(names)
    }
    return F.substitute(bindings)


def transvection(i: int, j: int) -> list:
    """I + E_ij as a plain scalar matrix."""
    g = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
    g[i - 1][j - 1] = 1
    return g


U12 = transvection(1, 2)
U23 = transvection(2, 3)
U21 = transvection(2, 1)
U32 = transvection(3, 2)
ELEMENTARY_TRANSVECTIONS = {"u12": U12, "u23": U23, "u21": U21, "u32": U32}


# -- the induced linear action on the span of the ten f's ---------------------

_T3_VARS = VariableSet(T_NAMES)


def f_action_matrix(g: Sequence[Sequence]) -> list:
    """10x10 rational matrix M with g.f_n = sum_m M[n][m] f_m, computed by
    expanding the substituted pencil monomials in the t-variables."""
    lin = []
    for r in range(3):
        acc = Polynomial.zero(QQ, _T3_VARS)
        for c in range(3):
            coeff = Fraction(g[r][c])
            if coeff:
                acc = acc + Polynomial.variable(QQ, _T3_VARS, f"t{c+1}") * coeff
        lin.append(acc)
    rows = [{} for _ in F_INDEX]
    for m_idx, (l, m, n) in enumerate(F_INDEX):
        prod = lin[0] ** l * lin[1] ** m * lin[2] ** n
        for n_idx, (i, j, k) in enumerate(F_INDEX):
            c = prod.coefficient({"t1": i, "t2": j, "t3": k})
            if c:
                rows[n_idx][m_idx] = Fraction(c)
    return [[row.get(m_idx, Fraction(0)) for m_idx in range(10)] for row in rows]


def f_span_substitution(g: Sequence[Sequence], ring: Ring = QQ) -> dict:
    """Bindings on the abstract f-ring realizing the action on f-polynomials:
    f_n -> sum_m M[n][m] f_m."""
    mat = f_action_matrix(g)
    out = {}
    for n in range(10):
        acc = Polynomial.zero(ring, F_VARS)
        for m in range(10):
            c = mat[n][m]
            if c:
                acc = acc + Polynomial.variable(ring, F_VARS, F_NAMES[m]) * ring.normalize(c)
        out[F_NAMES[n]] = acc
    return out


# -- classical cubic invariants through the coefficient dictionary ------------

CUBIC_NAMES = ("a", "a2", "a3", "b", "b1", "b3", "c", "c1", "c2", "m")
CUBIC_VARS = VariableSet(CUBIC_NAMES)

# f-variable -> (cubic coefficient, scale): f_n corresponds to scale * coeff.
_CUBIC_OF_F = {
    "f1": ("a", 1),
    "f2": ("a2", 3),
    "f3": ("a3", 3),
    "f4": ("b1", 3),
    "f5": ("m", 6),
    "f6": ("c1", 3),
    "f7": ("b", 1),
    "f8": ("b3", 3),
    "f9": ("c2", 3),
    "f10": ("c", 1),
}


def cubic_invariants_from_f_forms(s4_f: Polynomial, t6_f: Polynomial) -> tuple:
    """Rewrite the two derived f-ring invariants as the classical quartic and
    sextic invariants of a ternary cubic with coefficients
    (a, a2, a3, b, b1, b3, c, c1, c2, m)."""
    bindings = {
        fname: Polynomial.variable(QQ, CUBIC_VARS, cname) * scale
        for fname, (cname, scale) in _CUBIC_OF_F.items()
    }
    return s4_f.to_ring(QQ).substitute(bindings), t6_f.to_ring(QQ).substitute(bindings)
