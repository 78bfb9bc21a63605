"""Weight vectors, highest-weight certificates, and highest-weight corrections.

A polynomial in the 27 triple coordinates is a weight vector of weight alpha
iff it is multihomogeneous of multidegree alpha, its one degree vector under
generators.BLOCK_WEIGHTS; multidegree reads it.  Fixedness under the
elementary transvections is certified with Lie-algebra derivations instead of
group substitution, over the coefficient ring of F (ZZ for the generators;
QQ for the corrected H and Q, whose denominators are cleared first).  Both
rings have characteristic 0, which the argument below needs:

* The right action of I + t*E_ij adds t*A_i to A_j, and by Taylor expansion
  F(T.(I + t*E_ij)) = sum_k t^k/k! * D_ij^k F, where D_ij = sum_ab x{i}_ab
  d/dx{j}_ab.  D_ij is nilpotent on polynomials, so this is a polynomial in t.
* If F is fixed by I + E_ij, it is fixed by (I + E_ij)^n = I + n*E_ij for
  every integer n, so F(T.(I + t*E_ij)) - F is a polynomial in t with
  infinitely many roots.  In characteristic 0 it vanishes, and its t-linear
  coefficient D_ij F is 0.  Conversely D_ij F = 0 kills every term of the
  expansion.  So fixedness by I + E_ij is equivalent to D_ij F = 0.
* X -> D_X respects brackets up to sign, so the X with D_X F = 0 form a Lie
  subalgebra.  E12 and E23 generate the strictly upper triangular matrices
  (E13 = [E12, E23]), and E12, E23, E21, E32 generate sl3.  Killed by a
  generating set means killed by every D_ij with i != j, hence fixed by every
  root subgroup I + t*E_ij, and these generate the unipotent upper
  triangulars and SL3 respectively.

The same argument with row and column operations on each A_r certifies
invariance under SL3 x SL3 acting by (g, h).A = g A h^-1, and with the row
minus the column operation on the components of a pair, invariance under
simultaneous conjugation.

The correction coefficients attached to h and q are recomputed here from
scratch by exact elimination on the derivation equations, in the bases of
products that generators.H_CORRECTIONS and Q_CORRECTIONS list, and the test
suite compares them against the coefficients of those tables.  For each
candidate beta the derivation equations hold iff the transvections fix the
corrected polynomial, so the solution set is that of the fixedness equations.  Group
substitution (generators.act_on_function) remains in the verification of the
induced f-span action, and in the tests as an independent oracle (the
diagonal-torus weight cross-check among them).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Sequence

from . import generators as gen
from . import linalg
from .poly import QQ, ZZ, Polynomial

InconsistentSystem = linalg.InconsistentSystem
UnderdeterminedSystem = linalg.UnderdeterminedSystem


def multidegree(F: Polynomial) -> tuple | None:
    """Degree vector in the entries of (A1, A2, A3), the weight under the
    diagonal torus; None when the terms disagree or F is 0.  F's variables
    must include the 27 triple coordinates."""
    degrees = F.degrees(gen.BLOCK_WEIGHTS)
    return degrees.pop() if len(degrees) == 1 else None


# -- Lie-algebra derivations ----------------------------------------------------

# E12, E23, E21, E32 generate sl3 as a Lie algebra; E12, E23 generate the
# strictly upper triangular part, and E13 = [E12, E23].
UPPER_ROOTS = ((1, 2), (2, 3))
SL3_ROOTS = ((1, 2), (2, 3), (2, 1), (3, 2))


def block_derivation(i: int, j: int) -> tuple:
    """(src, dst) pairs of D_ij = sum_ab x{i}_ab d/dx{j}_ab, the t-derivative
    at 0 of F(T.(I + t*E_ij)): the right action adds t*A_i to A_j."""
    return tuple(
        (f"x{i}_{a}{b}", f"x{j}_{a}{b}") for a in (1, 2, 3) for b in (1, 2, 3)
    )


def row_derivation(i: int, j: int, components=(1, 2, 3)) -> tuple:
    """Left E_ij on each of the components: A_r -> (I + t*E_ij) A_r adds
    t * row j to row i."""
    return tuple(
        (f"x{r}_{j}{b}", f"x{r}_{i}{b}") for r in components for b in (1, 2, 3)
    )


def column_derivation(i: int, j: int, components=(1, 2, 3)) -> tuple:
    """Right E_ij on each of the components: A_r -> A_r (I + t*E_ij) adds
    t * column i to column j."""
    return tuple(
        (f"x{r}_{a}{i}", f"x{r}_{a}{j}") for r in components for a in (1, 2, 3)
    )


def _integral(F: Polynomial) -> Polynomial:
    """F over ZZ, denominators cleared: D(c*F) = c*D(F), so a derivation
    kills F iff it kills its integral multiple, and every derivation runs in
    ints.  The fixedness equivalences need characteristic 0, which always
    holds: ZZ and QQ are the only coefficient rings."""
    if F.ring != QQ:
        return F
    den = lcm(*(c.denominator for c in F.terms.values()))
    return Polynomial(
        ZZ, F.vars, {k: (c * den).numerator for k, c in F.terms.items()}, F.maxexp
    )


def _killed_by(F: Polynomial, derivations) -> bool:
    """True iff every derivation, given by its (src, dst) pairs, kills F."""
    F = _integral(F)
    return all(F.polarize(d).is_zero() for d in derivations)


def is_fixed_by_unipotents(F: Polynomial) -> bool:
    """Highest-weight certificate: D12 F = D23 F = 0.

    Then D13 F = 0 too, since D13 = [D12, D23] up to sign, so F is fixed by
    every root subgroup I + t*E_ij with i < j; these generate the unipotent
    upper triangulars.  Together with being a weight vector this makes F a
    highest weight vector."""
    return _killed_by(F, [block_derivation(i, j) for i, j in UPPER_ROOTS])


def sl3_invariance_certificate(F: Polynomial) -> bool:
    """SL3-invariance certificate: D12, D23, D21 and D32 kill F.

    These four generate sl3, so every D_ij (i != j) kills F, F is fixed by
    every root subgroup I + t*E_ij, and the root subgroups generate SL3."""
    return _killed_by(F, [block_derivation(i, j) for i, j in SL3_ROOTS])


def sl3_sl3_invariance_certificate(F: Polynomial) -> bool:
    """Invariance under (g, h).A = g A h^-1 on every component: the row and
    column derivations of E12, E23, E21, E32 all kill F (same argument as
    sl3_invariance_certificate, once for each factor)."""
    derivations = [row_derivation(i, j) for i, j in SL3_ROOTS]
    derivations += [column_derivation(i, j) for i, j in SL3_ROOTS]
    return _killed_by(F, derivations)


def conjugation_invariance_certificate(F: Polynomial, components=(1, 2)) -> bool:
    """Invariance under simultaneous conjugation A_r -> g A_r g^-1 of the
    components: row_derivation(i, j) - column_derivation(i, j) kills F for
    E12, E23, E21, E32.

    The t-derivative at 0 of (I + t*E_ij) A (I + t*E_ij)^-1 = (I + t*E_ij) A
    (I - t*E_ij) is E_ij A - A E_ij, whose derivation on F is the row minus
    the column derivation.  As in sl3_invariance_certificate these four
    generate sl3, so F is fixed by every root subgroup and invariant under
    SL3.  Scalars conjugate trivially and GL3 = scalars * SL3 over an
    algebraically closed field, so F is invariant under GL3 conjugation."""
    F = _integral(F)
    return all(
        F.polarize(row_derivation(i, j, components))
        == F.polarize(column_derivation(i, j, components))
        for i, j in SL3_ROOTS
    )


# -- certificates for polynomials given in the f-variables ---------------------


@lru_cache(maxsize=None)
def _span_action_verified(which: str) -> dict:
    """Exact identities g.f_n = sum_m M[n][m] f_m for one transvection,
    verified by full expansion over the 27 coordinates before the induced
    f-ring substitution is trusted."""
    g = gen.ELEMENTARY_TRANSVECTIONS[which]
    table = gen.generator_table()
    mat = gen.f_action_matrix(g)
    for n in range(10):
        acted = gen.act_on_function(g, table.f[n].to_ring(QQ))
        combo = Polynomial.zero(QQ, gen.TRIPLE_VARS)
        for m in range(10):
            if mat[n][m]:
                combo = combo + table.f[m].to_ring(QQ) * mat[n][m]
        if acted != combo:
            raise linalg.LinAlgError(
                f"span action of {which} failed exact verification"
            )
    return gen.f_span_substitution(g)


def sl3_certificate_for_f_polynomial(p_f: Polynomial) -> bool:
    """SL3-invariance certificate for a polynomial written in the f-variables.

    Because substitution is a ring homomorphism, equality of p_f with its
    image under the (exactly verified) induced span action implies the full
    27-variable fixedness identity, without expanding the composition."""
    p_f = p_f.to_ring(QQ)
    for which in gen.ELEMENTARY_TRANSVECTIONS:
        subst = _span_action_verified(which)
        if p_f.substitute(subst) != p_f:
            return False
    return True


# -- exact recomputation of the correction coefficients -------------------------


def _derivation_rows(base: Polynomial, basis: list, pairs) -> list:
    """Linear equations on the basis coefficients from D(base + sum(beta_i *
    basis_i)) = 0 for one derivation D, one row per monomial."""
    d_base = base.polarize(pairs)
    d_basis = [m.polarize(pairs) for m in basis]
    keys = set(d_base.terms)
    for d in d_basis:
        keys.update(d.terms)
    rows = []
    for key in keys:
        rows.append(
            (
                tuple(d.terms.get(key, 0) for d in d_basis),
                -d_base.terms.get(key, 0),
            )
        )
    return rows


def solve_hwv_correction(base: Polynomial, basis: Sequence[Polynomial]) -> list:
    """Solve for the unique rational coefficients beta with base + sum(beta_i
    * basis_i) fixed by both elementary upper transvections, i.e. killed by
    D12 and D23.  The rows are integer when the inputs are.

    Raises InconsistentSystem when no correction in the span works and
    UnderdeterminedSystem when several do.
    """
    base = base.convert(gen.TRIPLE_VARS)
    basis = [m.convert(gen.TRIPLE_VARS) for m in basis]
    md = multidegree(base)
    if md is None:
        raise linalg.LinAlgError("base is not multihomogeneous")
    for m in basis:
        if multidegree(m) != md:
            raise linalg.LinAlgError("basis element of different multidegree")
    rows = []
    for i, j in UPPER_ROOTS:
        rows.extend(_derivation_rows(base, basis, block_derivation(i, j)))
    if not basis:
        # no unknowns: the system is consistent iff every row is 0 = 0
        for _, rhs in rows:
            if rhs:
                raise InconsistentSystem("base is not fixed and no basis was given")
        return []
    return linalg.solve_unique(rows, len(basis))


def h_correction_basis(table=None) -> list:
    """The products of gen.H_CORRECTIONS over a generator table, in ZZ."""
    table = table or gen.generator_table()
    return list(gen.correction_products(gen.H_CORRECTIONS, gen.correction_factors(table.f, table.h)))


def q_correction_basis(table=None) -> list:
    """The products of gen.Q_CORRECTIONS over a generator table, in ZZ."""
    table = table or gen.generator_table()
    return list(gen.correction_products(gen.Q_CORRECTIONS, gen.correction_factors(table.f, table.h)))


@lru_cache(maxsize=1)
def solve_h_correction() -> list:
    """Coefficients on the products of gen.H_CORRECTIONS making h highest
    weight."""
    table = gen.generator_table()
    return solve_hwv_correction(table.h, h_correction_basis(table))


@lru_cache(maxsize=1)
def solve_q_correction() -> list:
    """Coefficients on the products of gen.Q_CORRECTIONS making q highest
    weight."""
    table = gen.generator_table()
    return solve_hwv_correction(table.q, q_correction_basis(table))
