"""The single defining relation among the twelve generators, and the derived
quartic and sextic f-invariants.

The relation polynomial lives in the abstract 12-variable ring {q, h, f1..f10}
and vanishes identically when the actual generator polynomials are substituted
for the variables.  Subtracting it from Q^2 - H^3 (with Q, H the abstract
highest-weight combinations) leaves an expression linear in h whose two
h-components determine the quartic and sextic invariants exactly; their
normalization is pinned by the values they take on the Weierstrass family.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache

from . import generators as gen
from . import hwv, textio
from .evalmod import Composition
from .poly import QQ, ZZ, Polynomial, PolyError, VariableSet
from .verify import (
    CheckResult,
    RunConfig,
    Slice,
    boolean_check,
    run_identity_exact,
    run_identity_modular,
    run_slice_proof,
)

ABSTRACT12_NAMES = ("q", "h") + gen.F_NAMES
ABSTRACT12 = VariableSet(ABSTRACT12_NAMES)

# weighted degree of the relation: q, h, f each count 9, 6, 3
RELATION_WEIGHTS = {"q": (9,), "h": (6,), **{name: (3,) for name in gen.F_NAMES}}

# The quadratic relation among the generators, transcribed once and locked by
# the digest below; every term has weighted degree 18.
_RELATION_TEXT = """
q^2 - q*h*f5
+ 3*q*f1*f7*f10 - q*f1*f8*f9 - q*f2*f4*f10 + q*f2*f6*f8 + q*f3*f4*f9 - q*f3*f6*f7 - q*f4*f5*f6
- h^3 + h^2*f2*f9 + h^2*f3*f8 - 2*h^2*f4*f6
+ 3*h*f1*f4*f8*f10 - h*f1*f4*f9^2 - 6*h*f1*f5*f7*f10 + h*f1*f5*f8*f9 + 3*h*f1*f6*f7*f9 - h*f1*f6*f8^2
- h*f2^2*f8*f10 + 3*h*f2*f3*f7*f10 - h*f2*f3*f8*f9 + h*f2*f4*f5*f10 + h*f2*f4*f6*f9 - h*f2*f6^2*f7
- h*f3^2*f7*f9 - h*f3*f4^2*f10 + h*f3*f4*f6*f8 + h*f3*f5*f6*f7 - h*f4^2*f6^2 + 9*f1^2*f7^2*f10^2
- 6*f1^2*f7*f8*f9*f10 + f1^2*f7*f9^3 + f1^2*f8^3*f10 - 6*f1*f2*f4*f7*f10^2 + f1*f2*f4*f8*f9*f10
+ 3*f1*f2*f5*f7*f9*f10 - f1*f2*f5*f8^2*f10 + 3*f1*f2*f6*f7*f8*f10 - 2*f1*f2*f6*f7*f9^2
+ 3*f1*f3*f4*f7*f9*f10 - 2*f1*f3*f4*f8^2*f10 + 3*f1*f3*f5*f7*f8*f10 - f1*f3*f5*f7*f9^2 - 6*f1*f3*f6*f7^2*f10
+ f1*f3*f6*f7*f8*f9 + f1*f4^3*f10^2 - f1*f4^2*f5*f9*f10 + f1*f4^2*f6*f8*f10 + f1*f4*f5^2*f8*f10
- 3*f1*f4*f5*f6*f7*f10 + f1*f4*f6^2*f7*f9 - f1*f5^3*f7*f10 + f1*f5^2*f6*f7*f9 - f1*f5*f6^2*f7*f8 + f1*f6^3*f7^2
+ f2^3*f7*f10^2 - 2*f2^2*f3*f7*f9*f10 + f2^2*f3*f8^2*f10 - f2^2*f4*f6*f8*f10 - f2^2*f5*f6*f7*f10 + f2^2*f6^2*f7*f9
- 2*f2*f3^2*f7*f8*f10 + f2*f3^2*f7*f9^2 - f2*f3*f4*f5*f8*f10 + 4*f2*f3*f4*f6*f7*f10 + f2*f3*f5^2*f7*f10
- f2*f3*f5*f6*f7*f9 + f2*f4^2*f5*f6*f10 - f2*f4*f6^3*f7 + f3^3*f7^2*f10 + f3^2*f4^2*f8*f10 - f3^2*f4*f5*f7*f10
- f3^2*f4*f6*f7*f9 - f3*f4^3*f6*f10 + f3*f4*f5*f6^2*f7
"""

RELATION_TERM_COUNT = 76
RELATION_DIGEST = "8ebad63629b778748ac7e4ffa6d05fbe2d2fb1b990876fa8ce0d576b32ccc424"


@lru_cache(maxsize=1)
def defining_relation() -> Polynomial:
    """The relation polynomial over ZZ in the ring {q, h, f1..f10}."""
    return textio.parse_text(_RELATION_TEXT, ABSTRACT12, ZZ)


def relation_digest(p: Polynomial) -> str:
    return hashlib.sha256(p.text().encode()).hexdigest()


# -- abstract highest-weight forms --------------------------------------------


def _var12(name: str) -> Polynomial:
    return Polynomial.variable(QQ, ABSTRACT12, name)


# the correction factors as variables of the 12-variable ring
_FACTORS12 = gen.correction_factors([_var12(n) for n in gen.F_NAMES], _var12("h"))


@lru_cache(maxsize=1)
def abstract_H() -> Polynomial:
    return gen.combine_correction(_var12("h"), _FACTORS12, gen.H_CORRECTIONS)


@lru_cache(maxsize=1)
def abstract_Q() -> Polynomial:
    return gen.combine_correction(_var12("q"), _FACTORS12, gen.Q_CORRECTIONS)


# -- derivation of the quartic and sextic invariants ---------------------------


@lru_cache(maxsize=1)
def derive_st() -> tuple:
    """The two f-ring invariants (degree 4 and degree 6) obtained by splitting
    Q^2 - H^3 - relation by its h-degree; raises PolyError if the structural
    constraints fail, which would indicate a transcription error."""
    relation = defining_relation().to_ring(QQ)
    E = abstract_Q().mul(abstract_Q()) - abstract_H() ** 3 - relation
    q_h_degrees = E.degrees({"q": (1, 0), "h": (0, 1)})
    if any(dq for dq, _ in q_h_degrees):
        raise PolyError("derivation failed: residual q-dependence")
    if any(dh > 1 for _, dh in q_h_degrees):
        raise PolyError("derivation failed: residual h-degree above 1")
    # the coefficients of h^1 and h^0 are polynomials in F_VARS
    s4 = E.coefficient_of({"h": 1}, ("q", "h")) * Fraction(1, 27)
    e0 = E.coefficient_of({}, ("q", "h"))
    c0 = (abstract_H() - _var12("h")).coefficient_of({}, ("q", "h"))
    t6 = (e0 - c0.mul(s4) * 27) * Fraction(-4, 27)
    if s4.total_degree() != 4 or s4.degrees(gen.F_WEIGHTS) != {(4, 4, 4)}:
        raise PolyError("quartic invariant is not multihomogeneous of weight (4,4,4)")
    if t6.total_degree() != 6 or t6.degrees(gen.F_WEIGHTS) != {(6, 6, 6)}:
        raise PolyError("sextic invariant is not multihomogeneous of weight (6,6,6)")
    return s4, t6


def evaluate_f_form_on_triple(p_f: Polynomial, T) -> Polynomial:
    """Compose an f-ring polynomial with the pencil coefficients of a
    concrete triple; exact, in the triple's own variables."""
    fs = gen.f_all(T)
    bindings = {
        f"f{n}": fs[ijk].to_ring(QQ) for n, ijk in enumerate(gen.F_INDEX, start=1)
    }
    return p_f.to_ring(QQ).substitute(bindings)


# -- the two big identities -----------------------------------------------------


def main_relation_expr(relation: Polynomial | None = None) -> Composition:
    """relation(q, h, f1..f10) with the actual generator polynomials bound in."""
    table = gen.generator_table()
    return Composition(
        relation if relation is not None else defining_relation(),
        dict(zip(gen.F_NAMES, table.f), q=table.q, h=table.h),
    )


THEOREM1_VARS = VariableSet(("Q", "H") + gen.F_NAMES)


def theorem1_expr(s4: Polynomial | None = None, t6: Polynomial | None = None) -> Composition:
    """Q^2 - H^3 - 27*H*S + (27/4)*T over the 27 coordinates.  The f-ring
    invariants S and T are composed exactly into one rational outer
    polynomial over (Q, H, f1..f10), whose leaves are the generator
    polynomials; every outer term has weighted degree 18, the degree bound."""
    table = gen.generator_table()
    if s4 is None or t6 is None:
        s4, t6 = derive_st()
    Qv, Hv = (Polynomial.variable(QQ, THEOREM1_VARS, name) for name in ("Q", "H"))
    S, T = (p.to_ring(QQ).convert(THEOREM1_VARS) for p in (s4, t6))
    return Composition(
        Qv.mul(Qv) - Hv ** 3 - Hv.mul(S) * 27 + T * Fraction(27, 4),
        dict(zip(gen.F_NAMES, table.f), Q=table.Q, H=table.H),
    )


# The slice (A1, A2, A3) = (I, diag(x2_11, x2_22, x2_33), A3), in 12 of the 27
# coordinates.  Soundness, for F a polynomial in SL3 x SL3-invariant leaves
# whose outer terms share one block multidegree (d1, d2, d3):
# * F is a composite of invariants, so F(g A h^-1) = F(A) for (g, h) in
#   SL3 x SL3 acting on every component.
# * On the dense set where A1 is invertible and A1^-1 A2 has distinct
#   eigenvalues, some (g, h) moves (A1, A2, A3) to (mu*I, mu*D, C') with
#   mu^3 = det A1 and D diagonal: first g A1 h^-1 = mu*I, then a simultaneous
#   conjugation, which fixes mu*I, diagonalizes the second component.
# * Multihomogeneity gives F(mu*I, mu*D, C') = mu^(d1 + d2) F(I, D, C').
# * So F vanishes on that Zariski-dense set when it vanishes on the slice, and
#   a polynomial that vanishes on a dense set in characteristic 0 is 0.
TRIPLE_SLICE = Slice(
    bindings={
        **{f"x1_{i}{j}": int(i == j) for i in (1, 2, 3) for j in (1, 2, 3)},
        **{f"x2_{i}{j}": 0 for i in (1, 2, 3) for j in (1, 2, 3) if i != j},
    },
    text="x1_ij = delta_ij, x2_ij = 0 for i != j: (A1, A2, A3) = (I, diag(x2_11, x2_22, x2_33), A3)",
    certificate="SL3 x SL3: row and column derivations of E12, E23, E21, E32",
    certify=hwv.sl3_sl3_invariance_certificate,
    weights=gen.BLOCK_WEIGHTS,
)


def _run_triple_identity(name: str, expr: Composition, cfg: RunConfig) -> CheckResult:
    """Exact mode proves the identity on TRIPLE_SLICE (run_slice_proof, gated
    on the leaves' SL3 x SL3 certificates and the composite's block
    multihomogeneity); modular mode evaluates it in all 27 coordinates."""
    if cfg.mode == "exact":
        return run_slice_proof(name, expr, cfg, TRIPLE_SLICE, run_identity_exact)
    return run_identity_modular(name, expr, cfg)


def verify_main_relation(cfg: RunConfig, relation: Polynomial | None = None) -> CheckResult:
    """The defining relation vanishes at the twelve generators: modular in all
    27 coordinates by default, an exact slice proof in exact mode."""
    return _run_triple_identity("main-relation", main_relation_expr(relation), cfg)


def verify_theorem1(cfg: RunConfig) -> CheckResult:
    """Q^2 - H^3 - 27*H*S + (27/4)*T vanishes: modular in all 27 coordinates by
    default, an exact slice proof in exact mode."""
    return _run_triple_identity("theorem1", theorem1_expr(), cfg)


# -- exact special-triple evaluations -------------------------------------------


def special_triple_checks() -> list:
    """The exact evaluation identities on the skew and Weierstrass triples."""
    checks = []
    skew = gen.skew_triple()
    fs = gen.f_all(skew)
    checks.append(
        boolean_check(
            "skew: all ten pencil coefficients vanish identically",
            lambda: all(p.is_zero() for p in fs.values()),
        )
    )
    det_p = gen.skew_parameter_matrix().determinant()
    checks.append(
        boolean_check(
            "skew: h equals det(P)^2 as a 9-variable identity",
            lambda: gen.h_poly(skew) == det_p.mul(det_p),
        )
    )
    checks.append(
        boolean_check(
            "skew: q equals det(P)^3 as a 9-variable identity",
            lambda: gen.q_poly(skew) == det_p.mul(det_p).mul(det_p),
        )
    )

    w = gen.weierstrass_triple()
    pencil = gen.pencil_determinant(w)
    expected = textio.parse_text(
        "t3^3 + t2^2*t1 - b^2*t1^2*t3 - a^2*t1^3", pencil.vars, ZZ
    )
    checks.append(
        boolean_check("weierstrass: pencil determinant", lambda: pencil == expected)
    )
    a_var = Polynomial.variable(QQ, gen.WEIERSTRASS_VARS, "a")
    b_var = Polynomial.variable(QQ, gen.WEIERSTRASS_VARS, "b")
    checks.append(
        boolean_check("weierstrass: H = -b", lambda: gen.generators_of(w).H == -b_var)
    )
    checks.append(
        boolean_check("weierstrass: Q = -a", lambda: gen.generators_of(w).Q == -a_var)
    )
    s4, t6 = derive_st()
    checks.append(
        boolean_check(
            "weierstrass: quartic invariant = -b^2/27",
            lambda: evaluate_f_form_on_triple(s4, w) == b_var.mul(b_var) * Fraction(-1, 27),
        )
    )
    checks.append(
        boolean_check(
            "weierstrass: sextic invariant = -4*a^2/27",
            lambda: evaluate_f_form_on_triple(t6, w) == a_var.mul(a_var) * Fraction(-4, 27),
        )
    )
    checks.append(
        boolean_check(
            "skew: quartic and sextic invariants vanish",
            lambda: evaluate_f_form_on_triple(s4, skew).is_zero()
            and evaluate_f_form_on_triple(t6, skew).is_zero(),
        )
    )
    return checks


def derive_st_checks() -> list:
    """Structural checks that lock the transcriptions together."""
    checks = []
    relation = defining_relation()
    checks.append(
        boolean_check(
            f"relation transcription: {RELATION_TERM_COUNT} terms, pinned digest",
            lambda: len(relation) == RELATION_TERM_COUNT
            and relation_digest(relation) == RELATION_DIGEST,
        )
    )
    checks.append(
        boolean_check(
            "relation: every term has weighted degree 18",
            lambda: relation.degrees(RELATION_WEIGHTS) == {(18,)},
        )
    )

    def structural():
        s4, t6 = derive_st()
        return (
            s4.total_degree() == 4
            and t6.total_degree() == 6
            and s4.degrees(gen.F_WEIGHTS) == {(4, 4, 4)}
            and t6.degrees(gen.F_WEIGHTS) == {(6, 6, 6)}
        )

    checks.append(
        boolean_check(
            "derivation: residual is h-linear, q-free; degrees 4 and 6", structural
        )
    )
    return checks
