"""The single defining relation among the twelve generators, and the derived
quartic and sextic f-invariants.

The relation polynomial lives in the abstract 12-variable ring {q, h, f1..f10}
and vanishes identically when the actual generator polynomials are substituted
for the variables.  Subtracting it from Q^2 - H^3 (with Q, H the abstract
highest-weight combinations) leaves an expression linear in h whose two
h-components determine the quartic and sextic invariants exactly; their
normalization is pinned by the values they take on the Weierstrass family.

Theorem 1, composed over (q, h, f1..f10) with abstract_Q and abstract_H
(theorem1_expr), is the defining relation term for term: verify_theorem1
checks that equality exactly and then runs the relation's own check in the
27 coordinates.  That check takes the relation as an outer polynomial over
(q, h, f1..f10): a modular run evaluates it at the generator values of the
determinant table, so no run evaluates H or Q; only an exact slice proof
binds the generator polynomials to its names, as a Composition.
"""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction
from functools import cache, lru_cache

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
    # the coefficients of h^1 and h^0 are polynomials in f1..f10
    s4 = E.coefficient_of({"h": 1}, ("q", "h")) * Fraction(1, 27)
    e0 = E.coefficient_of({}, ("q", "h"))
    c0 = (abstract_H() - _var12("h")).coefficient_of({}, ("q", "h"))
    t6 = (e0 - c0.mul(s4) * 27) * Fraction(-4, 27)
    if s4.total_degree() != 4 or s4.degrees(gen.F_WEIGHTS) != {(4, 4, 4)}:
        raise PolyError("quartic invariant is not multihomogeneous of weight (4,4,4)")
    if t6.total_degree() != 6 or t6.degrees(gen.F_WEIGHTS) != {(6, 6, 6)}:
        raise PolyError("sextic invariant is not multihomogeneous of weight (6,6,6)")
    return s4, t6


def evaluate_f_form_on_triple(p_f: Polynomial, table: gen.GeneratorTable) -> Polynomial:
    """Compose an f-ring polynomial with the pencil coefficients of a
    triple's generator table; exact, in the triple's own variables
    (substitute unifies the rings: QQ for the derived invariants)."""
    return p_f.substitute(dict(zip(gen.F_NAMES, table.f)))


# -- the two big identities -----------------------------------------------------


def theorem1_expr() -> Polynomial:
    """Q^2 - H^3 - 27*H*S + (27/4)*T as one rational polynomial over (q, h,
    f1..f10): Q and H are abstract_Q and abstract_H, and S and T the pair
    derive_st returns (read through this module's attribute when the
    expression is built, so a substituted derive_st is the one composed).
    With S and T as derived it is defining_relation() term for term;
    verify_theorem1 checks that and writes down why it proves theorem 1."""
    S, T = (p.to_ring(QQ).convert(ABSTRACT12) for p in derive_st())
    H, Q = abstract_H(), abstract_Q()
    return Q.mul(Q) - H ** 3 - H.mul(S) * 27 + T * Fraction(27, 4)


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


def _run_triple_identity(name: str, outer: Polynomial, cfg: RunConfig) -> CheckResult:
    """outer(q, h, f1..f10) vanishes at the twelve generators.  Exact mode
    proves it on TRIPLE_SLICE (run_slice_proof, gated on the leaves' SL3 x
    SL3 certificates and the composite's block multihomogeneity), with the
    generator polynomials of the table as leaves; modular mode evaluates it
    in all 27 coordinates at the generator values of the determinant table
    and builds no generator polynomial."""
    if cfg.mode == "exact":
        table = gen.generator_table()
        leaves = {n: table.by_name(n) for n in outer.vars.names if n in gen.GENERATOR_DEGREES}
        return run_slice_proof(name, Composition(outer, leaves), cfg, TRIPLE_SLICE, run_identity_exact)
    return run_identity_modular(name, outer, cfg)


def verify_main_relation(cfg: RunConfig, relation: Polynomial | None = None) -> CheckResult:
    """The defining relation, or the relation passed, vanishes at the twelve
    generators: modular in all 27 coordinates by default, an exact slice
    proof in exact mode."""
    return _run_triple_identity("main-relation", defining_relation() if relation is None else relation, cfg)


def verify_theorem1(cfg: RunConfig) -> CheckResult:
    """Theorem 1, Q^2 - H^3 - 27*H*S + (27/4)*T = 0, in two steps.  First,
    exactly in Q[q, h, f1..f10], theorem1_expr() equals the defining
    relation; a difference is a FAIL in mode exact whose note gives the terms
    left, and a PolyError while composing it (derive_st refusing the
    relation, say) a FAIL with the error as its note.  Then main-relation's
    run of the relation, under this check's name, gives the verdict.

    Sound: substituting the generators for q, h, f1..f10 is a ring
    homomorphism that maps abstract_Q and abstract_H to table.Q and table.H
    (test_relations locks this), so it maps theorem1_expr() to theorem 1's
    polynomial in the 27 coordinates, which the first step makes the
    relation at the generators.  A wrong S or T leaves -27*H*dS + (27/4)*dT,
    whose h-part is -27*h*dS: nonzero over Q, whatever the primes."""
    t0 = time.perf_counter()
    try:
        left = theorem1_expr() - defining_relation().to_ring(QQ)
    except PolyError as exc:
        return CheckResult("theorem1", False, "exact", time.perf_counter() - t0, notes=[f"PolyError: {exc}"])
    if not left.is_zero():
        note = f"Q^2 - H^3 - 27*H*S + (27/4)*T minus the defining relation leaves {left.text()}"
        return CheckResult("theorem1", False, "exact", time.perf_counter() - t0, {"remaining_terms": len(left)},
                           notes=[note])
    result = _run_triple_identity("theorem1", defining_relation(), cfg)
    result.elapsed_s = time.perf_counter() - t0
    return result


# -- exact special-triple evaluations -------------------------------------------


def special_triple_checks() -> list:
    """The exact evaluation identities on the skew and Weierstrass triples.
    Each triple's generator table is built by the first check that reads it,
    inside that check, so a build that raises fails only the checks that
    read it; the later checks reuse the table."""
    skew = cache(lambda: gen.generators_of(gen.skew_triple()))
    w = cache(lambda: gen.generators_of(gen.weierstrass_triple()))
    det_p = gen.skew_parameter_matrix().determinant()
    a_var = Polynomial.variable(QQ, gen.WEIERSTRASS_VARS, "a")
    b_var = Polynomial.variable(QQ, gen.WEIERSTRASS_VARS, "b")

    def pencil():
        cubic = textio.parse_text(
            "t3^3 + t2^2*t1 - b^2*t1^2*t3 - a^2*t1^3", gen.WEIERSTRASS_VARS.extend(gen.T_NAMES), ZZ
        )
        return w().f == tuple(
            cubic.coefficient_of({"t1": i, "t2": j, "t3": k}, gen.T_NAMES) for (i, j, k) in gen.F_INDEX
        )

    return [
        boolean_check(
            "skew: all ten pencil coefficients vanish identically",
            lambda: all(p.is_zero() for p in skew().f),
        ),
        boolean_check(
            "skew: h equals det(P)^2 as a 9-variable identity",
            lambda: skew().h == det_p.mul(det_p),
        ),
        boolean_check(
            "skew: q equals det(P)^3 as a 9-variable identity",
            lambda: skew().q == det_p.mul(det_p).mul(det_p),
        ),
        boolean_check("weierstrass: pencil determinant", pencil),
        boolean_check("weierstrass: H = -b", lambda: w().H == -b_var),
        boolean_check("weierstrass: Q = -a", lambda: w().Q == -a_var),
        boolean_check(
            "weierstrass: quartic invariant = -b^2/27",
            lambda: evaluate_f_form_on_triple(derive_st()[0], w())
            == b_var.mul(b_var) * Fraction(-1, 27),
        ),
        boolean_check(
            "weierstrass: sextic invariant = -4*a^2/27",
            lambda: evaluate_f_form_on_triple(derive_st()[1], w())
            == a_var.mul(a_var) * Fraction(-4, 27),
        ),
        boolean_check(
            "skew: quartic and sextic invariants vanish",
            lambda: all(evaluate_f_form_on_triple(p, skew()).is_zero() for p in derive_st()),
        ),
    ]


def derive_st_checks() -> list:
    """Structural checks that lock the transcriptions together."""
    return [
        boolean_check(
            f"relation transcription: {RELATION_TERM_COUNT} terms, pinned digest",
            lambda: len(defining_relation()) == RELATION_TERM_COUNT
            and relation_digest(defining_relation()) == RELATION_DIGEST,
        ),
        boolean_check(
            "relation: every term has weighted degree 18",
            lambda: defining_relation().degrees(RELATION_WEIGHTS) == {(18,)},
        ),
        # derive_st raises PolyError unless the residual is h-linear and
        # q-free and S and T have weights (4,4,4) and (6,6,6), so reaching its
        # return is the verdict
        boolean_check(
            "derivation: residual is h-linear, q-free; degrees 4 and 6",
            lambda: bool(derive_st()),
        ),
    ]
