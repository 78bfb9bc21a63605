"""Conjugation invariants of pairs of 3x3 matrices via specialization.

Setting the third matrix of a triple to the identity maps the twelve triple
generators onto the eleven classical trace generators of pairs
(t1, s1, d1, t2, s2, d2, z, w1, w2, k, r).  Rewriting the triple relation
through that dictionary reproduces, term for term, the known single defining
relation among the trace generators; both the dictionary and the relation are
verified exactly here.

That the trace relation vanishes on the trace generators is proved exactly on
the 12-variable slice A = diag(x1_11, x1_22, x1_33), B generic, once each
generator has passed a conjugation-invariance certificate (PAIR_SLICE); the
full 18-variable expansion stays in the tests as the oracle.
"""

from __future__ import annotations

import time
from functools import lru_cache

from . import generators as gen
from . import hwv, textio
from .evalmod import Composition
from .matrix import PolyMatrix
from .poly import ZZ, Polynomial, VariableSet
from .verify import (
    CheckResult,
    RunConfig,
    Slice,
    boolean_check,
    run_identity_exact_else_modular,
    run_slice_proof,
)

PAIR_NAMES = gen.TRIPLE_NAMES[:18]
PAIR_VARS = VariableSet(PAIR_NAMES)
# the bidegree of each entry in (A-entries, B-entries): x1_ij (1, 0), x2_ij (0, 1)
PAIR_WEIGHTS = {name: gen.BLOCK_WEIGHTS[name][:2] for name in PAIR_NAMES}

TRACE_NAMES = ("t1", "s1", "d1", "t2", "s2", "d2", "z", "w1", "w2", "k", "r")
TRACE_VARS = VariableSet(TRACE_NAMES)

# bidegrees of the trace generators under PAIR_WEIGHTS
TRACE_BIDEGREES = {
    "t1": (1, 0),
    "s1": (2, 0),
    "d1": (3, 0),
    "t2": (0, 1),
    "s2": (0, 2),
    "d2": (0, 3),
    "z": (1, 1),
    "w1": (2, 1),
    "w2": (1, 2),
    "k": (2, 2),
    "r": (3, 3),
}


def phi(F: Polynomial) -> Polynomial:
    """Specialize the third matrix to the identity, x3_ij -> delta_ij: a
    polynomial in the 27 triple coordinates becomes one in the 18 entries of
    the pair (A1, A2)."""
    return F.restrict({f"x3_{i}{j}": int(i == j) for i in (1, 2, 3) for j in (1, 2, 3)})


def generic_pair() -> tuple:
    a = PolyMatrix.from_names(
        ZZ, PAIR_VARS, [[f"x1_{i}{j}" for j in (1, 2, 3)] for i in (1, 2, 3)]
    )
    b = PolyMatrix.from_names(
        ZZ, PAIR_VARS, [[f"x2_{i}{j}" for j in (1, 2, 3)] for i in (1, 2, 3)]
    )
    return a, b


def char_coefficients(m: PolyMatrix) -> tuple:
    """(t, s, d) with det(z*I + M) = z^3 + t*z^2 + s*z + d.  They are the
    t1^2*t2, t1*t2^2 and t2^3 coefficients of the pencil determinant of the
    triple (I, M, 0), since det(t1*I + t2*M) = t2^3 * det((t1/t2)*I + M)."""
    identity = PolyMatrix.identity(m.ring, m.vars, 3)
    f = gen.f_all(gen.MatrixTriple(identity, m, PolyMatrix.zero(m.ring, m.vars, 3)))
    return f[(2, 1, 0)], f[(1, 2, 0)], f[(0, 3, 0)]


@lru_cache(maxsize=1)
def trace_generators() -> dict:
    """The eleven trace generators as exact polynomials in the 18 entries."""
    a, b = generic_pair()
    t1, s1, d1 = char_coefficients(a)
    t2, s2, d2 = char_coefficients(b)
    ab = a * b
    aab = a * ab
    abb = ab * b
    return {
        "t1": t1,
        "s1": s1,
        "d1": d1,
        "t2": t2,
        "s2": s2,
        "d2": d2,
        "z": ab.trace(),
        "w1": aab.trace(),
        "w2": abb.trace(),
        "k": (aab * b).trace(),
        "r": (b * b * a * a * b * a).trace(),
    }


# -- the specialization dictionary ---------------------------------------------

# images of the twelve triple generators in the abstract trace ring
_PHI_IMAGE_TEXT = {
    "f1": "d1",
    "f2": "w1 - z*t1 + s1*t2",
    "f3": "s1",
    "f4": "w2 - z*t2 + s2*t1",
    "f5": "t1*t2 - z",
    "f6": "t1",
    "f7": "d2",
    "f8": "s2",
    "f9": "t2",
    "f10": "1",
    "h": "-k + w1*t2 - t1^2*s2 + 2*s1*s2",
    "q": "r - s1*s2*z - w1*z*t2 - w2*z*t1 + z^2*t1*t2",
}


@lru_cache(maxsize=1)
def phi_image_forms() -> dict:
    """Abstract trace-ring expressions for the specialized triple generators."""
    return {
        name: textio.parse_text(text, TRACE_VARS, ZZ)
        for name, text in _PHI_IMAGE_TEXT.items()
    }


def phi_image_checks() -> list:
    """Exact verification of all twelve dictionary entries in 18 variables."""
    table = gen.generator_table()
    gens18 = trace_generators()
    forms = phi_image_forms()
    named = {f"f{n}": table.f[n - 1] for n in range(1, 11)}
    named["h"] = table.h
    named["q"] = table.q
    checks = []
    for name in ("f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "h", "q"):
        lhs = phi(named[name])
        rhs = forms[name].substitute({k: gens18[k] for k in TRACE_NAMES})
        checks.append(
            boolean_check(f"phi({name}) matches its trace formula", lambda l=lhs, r=rhs: l == r)
        )
    return checks


def s_of_product_check() -> CheckResult:
    """s(AB) = t(A^2B^2) + t(AB)t(A)t(B) - t(A^2B)t(B) - t(AB^2)t(A) - s(A)s(B),
    exactly in 18 variables."""
    a, b = generic_pair()
    g = trace_generators()
    _, s_ab, _ = char_coefficients(a * b)
    rhs = (
        g["k"]
        + g["z"].mul(g["t1"]).mul(g["t2"])
        - g["w1"].mul(g["t2"])
        - g["w2"].mul(g["t1"])
        - g["s1"].mul(g["s2"])
    )
    return boolean_check("s(AB) trace identity", lambda: s_ab == rhs)


# -- the defining relation among the trace generators ---------------------------

# Transcribed once and locked by the digest below; every term has bidegree
# (6, 6) under the bidegrees of the trace generators.
_TRACE_RELATION_TEXT = """
r^2 - r*k*z + r*k*t1*t2 - r*w1*w2 - r*w1*t1*t2^2 - r*w2*t1^2*t2
+ r*z*t1^2*t2^2 + 3*r*d1*d2 - r*d1*s2*t2 - r*d2*s1*t1 - r*s1*s2*t1*t2
+ k^3 - 2*k^2*w1*t2 - 2*k^2*w2*t1 + k^2*z*t1*t2 - 5*k^2*s1*s2 + k^2*s1*t2^2 + k^2*s2*t1^2
+ k*w1^2*s2 + k*w1^2*t2^2 + k*w1*w2*z + 2*k*w1*w2*t1*t2 - k*w1*z*s2*t1 - k*w1*z*t1*t2^2 - 3*k*w1*d2*s1
+ k*w1*d2*t1^2 + 9*k*w1*s1*s2*t2 - 2*k*w1*s1*t2^3 - 2*k*w1*s2*t1^2*t2 + k*w2^2*s1 + k*w2^2*t1^2 - k*w2*z*s1*t2
- k*w2*z*t1^2*t2 - 3*k*w2*d1*s2 + k*w2*d1*t2^2 + 9*k*w2*s1*s2*t1 - 2*k*w2*s1*t1*t2^2 - 2*k*w2*s2*t1^3 + k*z^2*s1*s2
- 6*k*z*d1*d2 + 4*k*z*d1*s2*t2 - k*z*d1*t2^3 + 4*k*z*d2*s1*t1 - k*z*d2*t1^3 - 8*k*z*s1*s2*t1*t2 + 2*k*z*s1*t1*t2^3
+ 2*k*z*s2*t1^3*t2 + 3*k*d1*d2*t1*t2 - 2*k*d1*s2^2*t1 - 2*k*d2*s1^2*t2 + 8*k*s1^2*s2^2 - 2*k*s1^2*s2*t2^2 - 2*k*s1*s2^2*t1^2
+ w1^3*d2 - w1^3*s2*t2 - w1^2*w2*s2*t1 - 2*w1^2*z*d2*t1 + 2*w1^2*z*s2*t1*t2 + 4*w1^2*d2*s1*t2 - w1^2*d2*t1^2*t2
- w1^2*s1*s2^2 - 4*w1^2*s1*s2*t2^2 + w1^2*s1*t2^4 + w1^2*s2*t1^2*t2^2 - w1*w2^2*s1*t2 + w1*w2*z*s1*t2^2 + w1*w2*z*s2*t1^2
- 6*w1*w2*d1*d2 + 4*w1*w2*d1*s2*t2 - w1*w2*d1*t2^3 + 4*w1*w2*d2*s1*t1 - w1*w2*d2*t1^3 - 8*w1*w2*s1*s2*t1*t2
+ 2*w1*w2*s1*t1*t2^3 + 2*w1*w2*s2*t1^3*t2 + w1*z^2*d2*s1 + w1*z^2*d2*t1^2 - w1*z^2*s1*s2*t2 - w1*z^2*s2*t1^2*t2
+ 6*w1*z*d1*d2*t2 + w1*z*d1*s2^2 - 4*w1*z*d1*s2*t2^2 + w1*z*d1*t2^4 - 8*w1*z*d2*s1*t1*t2 + 2*w1*z*d2*t1^3*t2
+ w1*z*s1*s2^2*t1 + 8*w1*z*s1*s2*t1*t2^2 - 2*w1*z*s1*t1*t2^4 - 2*w1*z*s2*t1^3*t2^2 - 3*w1*d1*d2*s2*t1 - 2*w1*d1*d2*t1*t2^2
+ 2*w1*d1*s2^2*t1*t2 + 4*w1*d2*s1^2*s2 + 2*w1*d2*s1^2*t2^2 - w1*d2*s1*s2*t1^2 - 8*w1*s1^2*s2^2*t2 + 2*w1*s1^2*s2*t2^3
+ 2*w1*s1*s2^2*t1^2*t2 + w2^3*d1 - w2^3*s1*t1 - 2*w2^2*z*d1*t2 + 2*w2^2*z*s1*t1*t2 + 4*w2^2*d1*s2*t1 - w2^2*d1*t1*t2^2
- w2^2*s1^2*s2 - 4*w2^2*s1*s2*t1^2 + w2^2*s1*t1^2*t2^2 + w2^2*s2*t1^4 + w2*z^2*d1*s2 + w2*z^2*d1*t2^2 - w2*z^2*s1*s2*t1
- w2*z^2*s1*t1*t2^2 + 6*w2*z*d1*d2*t1 - 8*w2*z*d1*s2*t1*t2 + 2*w2*z*d1*t1*t2^3 + w2*z*d2*s1^2 - 4*w2*z*d2*s1*t1^2
+ w2*z*d2*t1^4 + w2*z*s1^2*s2*t2 + 8*w2*z*s1*s2*t1^2*t2 - 2*w2*z*s1*t1^2*t2^3 - 2*w2*z*s2*t1^4*t2 - 3*w2*d1*d2*s1*t2
- 2*w2*d1*d2*t1^2*t2 + 4*w2*d1*s1*s2^2 - w2*d1*s1*s2*t2^2 + 2*w2*d1*s2^2*t1^2 + 2*w2*d2*s1^2*t1*t2 - 8*w2*s1^2*s2^2*t1
+ 2*w2*s1^2*s2*t1*t2^2 + 2*w2*s1*s2^2*t1^3 + z^3*d1*d2 - z^3*d1*s2*t2 - z^3*d2*s1*t1 + z^3*s1*s2*t1*t2 - 5*z^2*d1*d2*t1*t2
+ 4*z^2*d1*s2*t1*t2^2 - z^2*d1*t1*t2^4 + 4*z^2*d2*s1*t1^2*t2 - z^2*d2*t1^4*t2 - z^2*s1^2*s2^2 - 4*z^2*s1*s2*t1^2*t2^2 + z^2*s1*t1^2*t2^4
+ z^2*s2*t1^4*t2^2 + 6*z*d1*d2*s1*s2 + z*d1*d2*s1*t2^2 + z*d1*d2*s2*t1^2 + 2*z*d1*d2*t1^2*t2^2 - 4*z*d1*s1*s2^2*t2
+ z*d1*s1*s2*t2^3 - 2*z*d1*s2^2*t1^2*t2 - 4*z*d2*s1^2*s2*t1 - 2*z*d2*s1^2*t1*t2^2 + z*d2*s1*s2*t1^3 + 8*z*s1^2*s2^2*t1*t2
- 2*z*s1^2*s2*t1*t2^3 - 2*z*s1*s2^2*t1^3*t2 + 9*d1^2*d2^2 - 6*d1^2*d2*s2*t2 + d1^2*d2*t2^3 + d1^2*s2^3 - 6*d1*d2^2*s1*t1 + d1*d2^2*t1^3
- 2*d1*d2*s1*s2*t1*t2 + 2*d1*s1*s2^3*t1 + d2^2*s1^3 + 2*d2*s1^3*s2*t2 - 4*s1^3*s2^3 + s1^3*s2^2*t2^2 + s1^2*s2^3*t1^2
"""

TRACE_RELATION_TERM_COUNT = 170
TRACE_RELATION_DIGEST = "72928ba02066c3f81bcf6ddc9c923ad6c0917dab4b6dbe2ceec2821f317fad3e"


@lru_cache(maxsize=1)
def nakamoto_polynomial() -> Polynomial:
    """The single defining relation among the eleven trace generators
    (Nakamoto's relation), over ZZ in the abstract trace ring."""
    return textio.parse_text(_TRACE_RELATION_TEXT, TRACE_VARS, ZZ)


def rewrite_relation_through_phi(relation: Polynomial | None = None) -> Polynomial:
    """The triple relation with the trace-ring images substituted for the
    twelve generator variables (and the last one set to 1)."""
    from .relations import defining_relation

    rel = relation if relation is not None else defining_relation()
    forms = phi_image_forms()
    return rel.substitute({name: forms[name] for name in rel.vars.names})


def nakamoto_structural_check(
    relation: Polynomial | None = None,
    trace_relation: Polynomial | None = None,
) -> CheckResult:
    """Term-for-term equality of the rewritten triple relation with the
    transcribed trace relation; on failure the symmetric difference of the
    term sets is reported."""
    t0 = time.perf_counter()
    nak = trace_relation if trace_relation is not None else nakamoto_polynomial()
    rewritten = rewrite_relation_through_phi(relation)
    ok = rewritten == nak
    details: dict = {"terms": len(nak)}
    if not ok:
        diff = rewritten - nak
        details["symmetric_difference_terms"] = len(diff)
        details["symmetric_difference"] = diff.text()[:2000]
    return CheckResult(
        "trace relation matches the rewritten triple relation",
        ok,
        "exact",
        time.perf_counter() - t0,
        details,
    )


def nakamoto_composed_expr(trace_relation: Polynomial | None = None) -> Composition:
    nak = trace_relation if trace_relation is not None else nakamoto_polynomial()
    return Composition(nak, trace_generators())


# The slice A = diag(x1_11, x1_22, x1_33), B generic, in 12 of the 18 entries.
# Soundness, for F a polynomial in the conjugation-invariant leaves:
# * F is a composite of invariants, so F(gAg^-1, gBg^-1) = F(A, B).
# * A generic A has distinct eigenvalues, so A = g D g^-1 with D diagonal and
#   g in GL3 (scalars act trivially), and F(A, B) = F(D, g^-1 B g).
# * So F vanishes on the Zariski-dense set of such pairs when it vanishes on
#   the slice, and a polynomial that vanishes on a dense set in
#   characteristic 0 is 0.
PAIR_SLICE = Slice(
    bindings={f"x1_{i}{j}": 0 for i in (1, 2, 3) for j in (1, 2, 3) if i != j},
    text="x1_ij = 0 for i != j: A = diag(x1_11, x1_22, x1_33), B generic",
    certificate="conjugation of (A, B): row minus column derivations of E12, E23, E21, E32",
    certify=hwv.conjugation_invariance_certificate,
)


def verify_nakamoto_composed(cfg: RunConfig, trace_relation: Polynomial | None = None) -> CheckResult:
    """The trace relation composed with the actual trace generators vanishes
    in the 18 entry variables.

    Proved on PAIR_SLICE by run_slice_proof: each of the eleven generators
    passes hwv.conjugation_invariance_certificate, or the check FAILs naming
    it; then the composition restricted to the slice is expanded exactly, in
    either mode."""
    return run_slice_proof(
        "trace relation vanishes on the trace generators",
        nakamoto_composed_expr(trace_relation),
        cfg,
        PAIR_SLICE,
        run_identity_exact_else_modular,
    )


# -- the distinguished nonvanishing pair ----------------------------------------


def nonvanishing_pair() -> tuple:
    """(E21 - E32, E12 + E23): nilpotent pair separating r from the rest."""
    a = [[0, 0, 0], [1, 0, 0], [0, -1, 0]]
    b = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    return a, b


def pair_point(a, b) -> dict:
    point = {}
    for i in range(3):
        for j in range(3):
            point[f"x1_{i+1}{j+1}"] = a[i][j]
            point[f"x2_{i+1}{j+1}"] = b[i][j]
    return point


def trace_values_at(a, b) -> dict:
    """Values of the eleven generators at a concrete pair, by exact
    evaluation of the stored polynomials."""
    point = pair_point(a, b)
    return {name: p.evaluate(point) for name, p in trace_generators().items()}


def nonvanishing_pair_checks() -> list:
    a, b = nonvanishing_pair()
    values = trace_values_at(a, b)
    first_nine = TRACE_NAMES[:9]
    checks = [
        boolean_check(
            "first nine trace generators vanish on the distinguished pair",
            lambda: all(values[name] == 0 for name in first_nine),
            values={name: values[name] for name in first_nine},
        ),
        boolean_check(
            "r = -1 on the distinguished pair",
            lambda: values["r"] == -1,
            values={"r": values["r"]},
        ),
    ]
    return checks

