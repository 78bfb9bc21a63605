from fractions import Fraction
from math import lcm

import pytest

from semiinv import generators as gen, hwv, relations
from semiinv.poly import QQ, ZZ, Polynomial


@pytest.fixture(scope="module")
def table():
    return gen.generator_table()


def _wrong_h(table):
    """H with its first correction coefficient changed from -1/3 to -1/2."""
    wrong = list(gen.H_CORRECTIONS)
    wrong[0] = (Fraction(-1, 2), wrong[0][1])
    f_map = {n + 1: table.f[n] for n in range(10)}
    return gen.combine_h_correction(table.h, f_map, tuple(wrong))


def test_weight_vector_examples(table):
    assert hwv.multidegree(table.f_by_ijk[(2, 1, 0)]) == (2, 1, 0)
    assert hwv.multidegree(table.H) == (2, 2, 2)
    assert hwv.multidegree(table.f_by_ijk[(2, 1, 0)]) != (1, 1, 1)
    assert hwv.multidegree(table.f[0] + table.f[6]) is None
    assert hwv.multidegree(Polynomial.zero(table.H.ring, table.H.vars)) is None


def diagonal_action_weight(F: Polynomial) -> tuple | None:
    """Weight read off from the symbolic diagonal substitution, an
    independent cross-check of the multidegree route: the substituted
    polynomial must equal z1^a1 z2^a2 z3^a3 times the original."""
    zvars = gen.TRIPLE_VARS.extend(("z1", "z2", "z3"))
    ring = F.ring
    zero = Polynomial.zero(ring, zvars)
    diag = [[zero] * 3 for _ in range(3)]
    for i in range(3):
        diag[i][i] = Polynomial.variable(ring, zvars, f"z{i+1}")
    acted = gen.act_on_function(diag, F, vars=zvars)
    alphas = acted.degrees({"z1": (1, 0, 0), "z2": (0, 1, 0), "z3": (0, 0, 1)})
    if len(alphas) != 1:
        return None
    alpha = alphas.pop()
    scale = Polynomial.monomial(
        ring, zvars, {"z1": alpha[0], "z2": alpha[1], "z3": alpha[2]}
    )
    if acted == scale.mul(F.convert(zvars)):
        return alpha
    return None


def test_weight_routes_agree_for_every_generator(table):
    polys = list(table.f) + [table.h, table.q, table.H, table.Q]
    for p in polys:
        assert diagonal_action_weight(p) == hwv.multidegree(p)


def test_fixed_by_unipotents(table):
    assert hwv.is_fixed_by_unipotents(table.H)
    assert hwv.is_fixed_by_unipotents(table.Q)
    assert not hwv.is_fixed_by_unipotents(table.h)
    # the difference u12.h - h is a genuinely nonzero polynomial
    assert gen.act_on_function(gen.U12, table.h) - table.h


def test_solve_h_correction():
    beta = hwv.solve_h_correction()
    assert beta == [
        Fraction(-1, 3),
        Fraction(-1, 3),
        Fraction(2, 3),
        Fraction(1, 12),
    ]


def test_solve_q_correction():
    beta = hwv.solve_q_correction()
    assert beta == [
        Fraction(-1, 2),
        Fraction(3, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
    ]


def test_solved_corrections_match_pinned_tables():
    assert [c for c, _ in gen.H_CORRECTIONS] == hwv.solve_h_correction()
    assert [c for c, _ in gen.Q_CORRECTIONS] == hwv.solve_q_correction()


def test_unfixed_base_with_empty_basis_is_inconsistent(table):
    with pytest.raises(hwv.InconsistentSystem):
        hwv.solve_hwv_correction(table.h, [])
    with pytest.raises(hwv.InconsistentSystem):
        hwv.solve_hwv_correction(table.f_by_ijk[(0, 0, 3)], [])


def test_fixed_base_with_empty_basis_solves_trivially(table):
    # det(A1) is untouched by the upper transvections, so it is already a
    # highest weight vector and the empty correction works
    assert hwv.solve_hwv_correction(table.f_by_ijk[(3, 0, 0)], []) == []


def test_duplicate_basis_is_underdetermined(table):
    basis = hwv.h_correction_basis(table)
    basis = basis[:1] + basis
    with pytest.raises(hwv.UnderdeterminedSystem):
        hwv.solve_hwv_correction(table.h, basis)


def test_h_solution_space_is_zero_dimensional(table):
    """Uniqueness: dropping any one basis element leaves no solution, so the
    four coefficients are forced."""
    basis = hwv.h_correction_basis(table)
    for skip in range(4):
        reduced = [b for i, b in enumerate(basis) if i != skip]
        with pytest.raises(hwv.InconsistentSystem):
            hwv.solve_hwv_correction(table.h, reduced)


def test_mixed_multidegree_basis_rejected(table):
    with pytest.raises(hwv.linalg.LinAlgError):
        hwv.solve_hwv_correction(table.h, [table.q])


def test_sl3_certificates(table):
    assert hwv.sl3_invariance_certificate(table.H)
    assert hwv.sl3_invariance_certificate(table.Q)
    assert not hwv.sl3_invariance_certificate(table.f_by_ijk[(1, 1, 1)].to_ring(QQ))
    assert not hwv.sl3_invariance_certificate(table.h.to_ring(QQ))


def test_sl3_certificates_for_derived_invariants():
    s4, t6 = relations.derive_st()
    assert hwv.sl3_certificate_for_f_polynomial(s4)
    assert hwv.sl3_certificate_for_f_polynomial(t6)
    # a polynomial that is not invariant fails the certificate
    from semiinv.poly import Polynomial

    f1 = Polynomial.variable(QQ, gen.F_VARS, "f1")
    assert not hwv.sl3_certificate_for_f_polynomial(f1)


def test_wrong_correction_coefficient_is_detected(table):
    """Negative control: a single wrong coefficient breaks fixedness."""
    assert not hwv.is_fixed_by_unipotents(_wrong_h(table))


# -- the derivation certificates against group substitution ---------------------

TRANSVECTIONS = {(1, 2): gen.U12, (2, 3): gen.U23, (2, 1): gen.U21, (3, 2): gen.U32}


def _integral(F):
    """F scaled to integer coefficients; fixedness is unchanged and the group
    substitution runs without Fractions."""
    if F.ring == ZZ:
        return F
    den = lcm(*(c.denominator for c in F.terms.values()))
    return Polynomial(ZZ, F.vars, {k: (c * den).numerator for k, c in F.terms.items()})


@pytest.fixture(scope="module")
def oracle_cases(table):
    cases = {f"f{n}": table.f[n - 1] for n in range(1, 11)}
    cases.update(h=table.h, q=table.q, H=table.H, Q=table.Q, H_wrong=_wrong_h(table))
    return cases


@pytest.mark.parametrize("root", sorted(TRANSVECTIONS), ids=lambda r: f"E{r[0]}{r[1]}")
def test_derivation_verdict_matches_group_substitution(oracle_cases, root):
    """D_ij F = 0 exactly when I + E_ij fixes F, on every generator, on H and
    Q and on a wrong-coefficient H."""
    g = TRANSVECTIONS[root]
    verdicts = set()
    for name, F in oracle_cases.items():
        killed = F.polarize(hwv.block_derivation(*root)).is_zero()
        G = _integral(F)
        assert killed == (gen.act_on_function(g, G) == G), name
        verdicts.add(killed)
    assert verdicts == {True, False}


def test_certificates_never_use_group_substitution(table, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("group substitution reached")

    monkeypatch.setattr(gen, "act_on_function", forbidden)
    assert hwv.solve_hwv_correction(table.h, hwv.h_correction_basis(table)) == [
        c for c, _ in gen.H_CORRECTIONS
    ]
    assert hwv.solve_hwv_correction(table.q, hwv.q_correction_basis(table)) == [
        c for c, _ in gen.Q_CORRECTIONS
    ]
    assert hwv.is_fixed_by_unipotents(table.H)
    assert not hwv.is_fixed_by_unipotents(table.h)
    assert hwv.sl3_invariance_certificate(table.Q)
    assert not hwv.sl3_invariance_certificate(table.q)


def test_generators_are_sl3_x_sl3_invariant(table):
    for F in table.f + (table.h, table.q, table.H, table.Q):
        assert hwv.sl3_sl3_invariance_certificate(F)


def test_sl3_x_sl3_negative_control(table):
    bump = Polynomial.monomial(
        ZZ, gen.TRIPLE_VARS, {"x1_11": 3, "x2_22": 3, "x3_33": 3}
    )
    assert hwv.multidegree(table.q + bump) == (3, 3, 3)
    assert not hwv.sl3_sl3_invariance_certificate(table.q + bump)


def test_left_and_right_derivations_match_matrix_multiplication(table):
    """Row and column derivations are the t-derivatives of g A_r and A_r g for
    g = I + t*E_ij, checked against the group substitution on det(A1)*f111."""
    F = table.f[0].mul(table.f[4])
    for (i, j), g in TRANSVECTIONS.items():
        left, right = {}, {}
        for r in (1, 2, 3):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    # (g A)_ab = sum_c g_ac A_cb and (A g)_ab = sum_c A_ac g_cb
                    left[f"x{r}_{a}{b}"] = sum(
                        Polynomial.variable(ZZ, gen.TRIPLE_VARS, f"x{r}_{c}{b}") * g[a - 1][c - 1]
                        for c in (1, 2, 3)
                    )
                    right[f"x{r}_{a}{b}"] = sum(
                        Polynomial.variable(ZZ, gen.TRIPLE_VARS, f"x{r}_{a}{c}") * g[c - 1][b - 1]
                        for c in (1, 2, 3)
                    )
        # det(g) = 1, so both actions fix F and both derivations kill it
        assert F.substitute(left) == F and F.substitute(right) == F
        assert F.polarize(hwv.row_derivation(i, j)).is_zero()
        assert F.polarize(hwv.column_derivation(i, j)).is_zero()
        # on each coordinate the derivation is the t-linear part of the action
        for x in gen.TRIPLE_NAMES:
            var = Polynomial.variable(ZZ, gen.TRIPLE_VARS, x)
            assert var.polarize(hwv.row_derivation(i, j)) == left[x] - var
            assert var.polarize(hwv.column_derivation(i, j)) == right[x] - var


def test_row_normalization_integer_and_rational_paths_agree():
    norm = hwv.linalg._normalize_row
    assert norm((2, -4), 6) == (1, -2, 3)
    assert norm((-2, 4), -6) == (1, -2, 3)
    assert norm((Fraction(1, 2), -1), Fraction(3, 2)) == (1, -2, 3)
    assert norm((0, -3), 0) == (0, 1, 0)
    assert norm((0, 0), 0) is None
