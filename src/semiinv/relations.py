"""The single defining relation among the twelve generators, and the derived
quartic and sextic f-invariants.

The relation polynomial lives in the abstract 12-variable ring {q, h, f1..f10}
and vanishes identically when the actual generator polynomials are substituted
for the variables.  Subtracting it from Q^2 - H^3 (with Q, H the abstract
highest-weight combinations) leaves an expression linear in h whose two
h-components determine the quartic and sextic invariants exactly; their
normalization is pinned by the values they take on the Weierstrass family.

Both triple identities, the relation and theorem 1, are outer polynomials
over (q, h, f1..f10) at one generator Definition; theorem 1's is composed
with abstract_Q and abstract_H, so no run evaluates H or Q.  In modular
mode both read the memo sampled_generator_values, which computes the twelve
generator values of a batch once per (seed, prime, range of trials), every
input they depend on; it holds no outer polynomial and no identity's value.
"""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from . import generators as gen
from . import hwv, textio
from .evalmod import Composition, Definition, sample_point
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
    concrete triple; exact, in the triple's own variables (substitute unifies
    the rings: QQ for the derived invariants)."""
    fs = gen.f_all(T)
    return p_f.substitute({f"f{n}": fs[ijk] for n, ijk in enumerate(gen.F_INDEX, start=1)})


# -- the two big identities -----------------------------------------------------


@lru_cache(maxsize=7)
def sampled_generator_values(seed: int, prime: int, trials: range) -> Mapping:
    """f1..f10, h and q mod p, a read-only map of read-only int64 arrays,
    at the batch point sample_point(TRIPLE_VARS.names, seed, prime, trials),
    computed once per key, which is every input of the values, and shared
    by main-relation and theorem1, which draw the same points.  It holds
    generator values only.  maxsize 7 holds the chunks of verify all's main
    relation at the default protocol (five default primes, 5 and 7): at
    most 7 * 12 * verify.TRIAL_CHUNK int64s.  Above TRIAL_CHUNK trials the
    two identities share no values: main-relation fills 2 or more chunks on
    each of its 7 primes, and theorem1's lookups miss."""
    values = gen.generator_values_mod(sample_point(gen.TRIPLE_VARS.names, seed, prime, trials), prime)
    for array in values.values():
        array.setflags(write=False)
    return MappingProxyType(values)


def generator_definition() -> Definition:
    """f1..f10, h and q, the leaves of both triple identities, by their
    definitions: their values mod p from sampled_generator_values, their
    polynomials read from the table when asked for.  Degree bounds: a
    matrix of GENERATOR_DETERMINANTS has entries of degree <= 1, so n x n
    ones sum to degree <= n (3, 6 and 9 for f, h and q)."""
    degrees = {name: stack.shape[-1] for name, stack in gen.GENERATOR_DETERMINANTS.items()}

    def leaves(names) -> dict:
        table = gen.generator_table()
        return {n: table.by_name(n) for n in names}

    return Definition(gen.TRIPLE_VARS, degrees, sampled_generator_values, leaves)


def main_relation_expr(relation: Polynomial | None = None) -> Composition:
    """relation(q, h, f1..f10) at the twelve generators, by their Definition:
    a modular run reads no generator polynomial."""
    return Composition(defining_relation() if relation is None else relation, generator_definition())


def theorem1_expr() -> Composition:
    """Q^2 - H^3 - 27*H*S + (27/4)*T over the 27 coordinates: one rational
    outer polynomial over (q, h, f1..f10), Q and H being abstract_Q and
    abstract_H and S and T the pair derive_st returns (read through this
    module's attribute when the expression is built, so a substituted
    derive_st is the one composed), at the leaves of main_relation_expr.
    Sound: table.Q and table.H are combine_correction over the same
    correction tables at the generators, so the composite is theorem 1's
    27-variable polynomial (test_relations locks this exactly), and the
    slice proof's SL3 x SL3 gate certifies main-relation's twelve leaves."""
    S, T = (p.to_ring(QQ).convert(ABSTRACT12) for p in derive_st())
    H, Q = abstract_H(), abstract_Q()
    return Composition(Q.mul(Q) - H ** 3 - H.mul(S) * 27 + T * Fraction(27, 4), generator_definition())


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
    multihomogeneity); modular mode evaluates it in all 27 coordinates, with
    the generators taken from their definitions."""
    if cfg.mode == "exact":
        return run_slice_proof(name, expr, cfg, TRIPLE_SLICE, run_identity_exact)
    return run_identity_modular(name, expr, cfg)


def verify_main_relation(cfg: RunConfig, relation: Polynomial | None = None) -> CheckResult:
    """The defining relation vanishes at the twelve generators: modular in all
    27 coordinates by default, an exact slice proof in exact mode."""
    return _run_triple_identity("main-relation", main_relation_expr(relation), cfg)


def verify_theorem1(cfg: RunConfig) -> CheckResult:
    """Q^2 - H^3 - 27*H*S + (27/4)*T vanishes: modular in all 27 coordinates by
    default, an exact slice proof in exact mode.  A PolyError while composing
    it (derive_st refusing the relation, say) is a FAIL with the error as its
    note."""
    t0 = time.perf_counter()
    try:
        expr = theorem1_expr()
    except PolyError as exc:
        return CheckResult(
            "theorem1", False, "exact", time.perf_counter() - t0, notes=[f"PolyError: {exc}"]
        )
    return _run_triple_identity("theorem1", expr, cfg)


# -- exact special-triple evaluations -------------------------------------------


def special_triple_checks() -> list:
    """The exact evaluation identities on the skew and Weierstrass triples."""
    skew, w = gen.skew_triple(), gen.weierstrass_triple()
    det_p = gen.skew_parameter_matrix().determinant()
    a_var = Polynomial.variable(QQ, gen.WEIERSTRASS_VARS, "a")
    b_var = Polynomial.variable(QQ, gen.WEIERSTRASS_VARS, "b")

    def pencil():
        cubic = textio.parse_text(
            "t3^3 + t2^2*t1 - b^2*t1^2*t3 - a^2*t1^3", w.vars.extend(gen.T_NAMES), ZZ
        )
        return gen.f_all(w) == {
            (i, j, k): cubic.coefficient_of({"t1": i, "t2": j, "t3": k}, gen.T_NAMES)
            for (i, j, k) in gen.F_INDEX
        }

    return [
        boolean_check(
            "skew: all ten pencil coefficients vanish identically",
            lambda: all(p.is_zero() for p in gen.f_all(skew).values()),
        ),
        boolean_check(
            "skew: h equals det(P)^2 as a 9-variable identity",
            lambda: gen.h_poly(skew) == det_p.mul(det_p),
        ),
        boolean_check(
            "skew: q equals det(P)^3 as a 9-variable identity",
            lambda: gen.q_poly(skew) == det_p.mul(det_p).mul(det_p),
        ),
        boolean_check("weierstrass: pencil determinant", pencil),
        boolean_check("weierstrass: H = -b", lambda: gen.generators_of(w).H == -b_var),
        boolean_check("weierstrass: Q = -a", lambda: gen.generators_of(w).Q == -a_var),
        boolean_check(
            "weierstrass: quartic invariant = -b^2/27",
            lambda: evaluate_f_form_on_triple(derive_st()[0], w)
            == b_var.mul(b_var) * Fraction(-1, 27),
        ),
        boolean_check(
            "weierstrass: sextic invariant = -4*a^2/27",
            lambda: evaluate_f_form_on_triple(derive_st()[1], w)
            == a_var.mul(a_var) * Fraction(-4, 27),
        ),
        boolean_check(
            "skew: quartic and sextic invariants vanish",
            lambda: all(evaluate_f_form_on_triple(p, skew).is_zero() for p in derive_st()),
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
