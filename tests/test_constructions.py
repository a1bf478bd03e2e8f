import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from helpers import (heisenberg, is_identity, nilpotent4, random_involution, reference_pair,
                     rnd_frac, shift_strict, sl2_sum, trace)
from homlie2.cohomology import (Representation, check_representation,
                                class_is_trivial, coboundary,
                                trivial_representation)
from homlie2.constructions import (CrossedModule, HomLeftSymmetric,
                                   QuadraticHomLie, SymplecticHomLie,
                                   check_crossed_module, check_left_symmetric,
                                   check_quadratic, check_symplectic,
                                   crossed_to_strict, l3_from_B, leftsym_d_report,
                                   quadratic, skeletal_from_quadratic,
                                   sl2_example, star_from_symplectic,
                                   strict_from_leftsym, strict_from_symplectic,
                                   strict_to_crossed, string_from_semisimple)
from homlie2.errors import PreconditionError
from homlie2.exactlin import Matrix, inverse, rank
from homlie2.hl2 import check_two_term
from homlie2.homlie import HomLieAlgebra, abelian_algebra, killing_form
from homlie2.modelfile import load_model

F = Fraction


# -- quadratic / skeletal / string ---------------------------------------------

def test_quadratic_abelian_identity_form():
    q = QuadraticHomLie(abelian_algebra(2), Matrix.identity(2))
    assert check_quadratic(q).ok


def test_quadratic_sl2_with_killing():
    g = sl2_example()
    report = check_quadratic(QuadraticHomLie(g, killing_form(g)))
    assert report.ok


def test_quadratic_zero_row_fails_nondegeneracy():
    q = QuadraticHomLie(abelian_algebra(2), Matrix(2, 2, [[0, 0], [0, 1]]))
    assert not check_quadratic(q).item("nondegenerate").passed


def symmetric_nondegenerate_compatible(rng, phi, n, tries=400):
    """Random symmetric nondegenerate B with B phi = phi^T B, by rejection."""
    for _ in range(tries):
        vals = [[rnd_frac(rng, -2, 2) for _ in range(n)] for _ in range(n)]
        b = Matrix(n, n, [[vals[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
        if b * phi == phi.transpose() * b and rank(b) == n:
            return b
    return None


def test_two_of_three_engineered():
    rng = random.Random(5)
    hits = 0
    while hits < 20:
        n = rng.randint(2, 3)
        phi = random_involution(rng, n)
        b = symmetric_nondegenerate_compatible(rng, phi, n)
        if b is None:
            continue
        report = check_quadratic(QuadraticHomLie(abelian_algebra(n, phi), b))
        assert report.item("two-of-three").passed
        # phi-symmetric + involutive were engineered; isometry must follow
        assert report.item("isometry").passed
        hits += 1


def test_l3_from_B_abelian_zero():
    q = quadratic(abelian_algebra(2), Matrix.identity(2))
    assert l3_from_B(q).is_zero()


def test_l3_from_B_sl2_value_and_closedness():
    g = sl2_example()
    q = quadratic(g, killing_form(g))
    f = l3_from_B(q)
    assert f.evaluate([g.basis(0), g.basis(1), g.basis(2)]) == (F(8),)
    assert coboundary(f, trivial_representation(g)).is_zero()


def test_l3_from_B_requires_involution():
    g = abelian_algebra(2, Matrix.diagonal([2, F(1, 2)]))
    q = QuadraticHomLie(g, Matrix.identity(2))
    with pytest.raises(PreconditionError):
        l3_from_B(q)


def test_failing_form_law_raises_one_class():
    g = sl2_example()
    K = killing_form(g)
    bad = Matrix(3, 3, [[K[i, j] + (1 if (i, j) == (0, 0) else 0) for j in range(3)]
                        for i in range(3)])
    with pytest.raises(PreconditionError, match="quadratic form fails invariance"):
        quadratic(g, bad)
    with pytest.raises(PreconditionError, match="l3_from_B input fails invariance"):
        l3_from_B(QuadraticHomLie(g, bad))


def test_skeletal_from_quadratic():
    g = sl2_example()
    v = skeletal_from_quadratic(quadratic(g, killing_form(g)))
    assert v.d.is_zero()
    assert check_two_term(v).ok
    q_ab = quadratic(abelian_algebra(2), Matrix.identity(2))
    v_ab = skeletal_from_quadratic(q_ab)
    assert v_ab.is_strict()  # l3 vanishes with the bracket


def test_string_from_semisimple():
    v = string_from_semisimple(sl2_example())
    assert v.l3[0][1][2] == (F(8),)
    assert check_two_term(v).ok
    with pytest.raises(PreconditionError, match="not semisimple"):
        string_from_semisimple(abelian_algebra(2, Matrix.diagonal([-1, -1])))


@pytest.mark.parametrize("make", [lambda: sl2_sum(1), lambda: sl2_sum(2), lambda: sl2_sum(3),
                                  heisenberg, nilpotent4, lambda: abelian_algebra(2)])
def test_killing_form_is_the_trace_of_products_of_ad(make):
    g = make()
    ads = [g.ad(g.basis(i)) for i in range(g.dim)]
    want = Matrix(g.dim, g.dim, [[trace(ads[i] * ads[j]) for j in range(g.dim)]
                                 for i in range(g.dim)])
    assert repr(killing_form(g)) == repr(want)


@pytest.mark.parametrize("c", [1, 2])
def test_string_l3_is_the_killing_form_on_the_bracket(c):
    """l3(e_i, e_j, e_k) = K([e_i, e_j], e_k), all Fractions, 0 on a repeated index."""
    g = sl2_sum(c)
    K, n = killing_form(g), g.dim
    v = string_from_semisimple(g)
    units = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
    for i, j, k in product(range(n), repeat=3):
        want = (reference_pair(K, g.bracket[i][j], units[k]),)
        assert v.l3[i][j][k] == want and type(v.l3[i][j][k][0]) is Fraction
    assert repr(l3_from_B(QuadraticHomLie(g, K)).comps) == repr(tuple(
        v.l3[i][j][k] for i, j, k in combinations(range(n), 3)))


def test_string_class_is_nontrivial():
    g = sl2_example()
    f = l3_from_B(quadratic(g, killing_form(g)))
    assert class_is_trivial(f, trivial_representation(g)) is False


def test_sl2_example_constants():
    g = sl2_example()
    assert g.bracket[0][1] == (F(0), F(0), F(-1))   # [A,B] = -C
    assert g.bracket[2][0] == (F(0), F(-2), F(0))   # [C,A] = -2B
    assert g.bracket[1][2] == (F(-2), F(0), F(0))   # [B,C] = -2A
    assert is_identity(g.phi * g.phi)


def test_skeletal_action_is_a_representation():
    # the module action read off a skeletal structure satisfies both
    # representation conditions; exercised on one with a nonzero action
    cm = load_model("fixtures/crossed_small.json")
    v = crossed_to_strict(cm)
    assert v.is_skeletal()
    base = HomLieAlgebra(v.dim0, v.l2_00, v.phi0)
    rho = tuple(Matrix.from_columns([v.l2_01[i][a] for a in range(v.dim1)], rows=v.dim1)
                for i in range(v.dim0))
    rep = Representation(base, v.dim1, v.phi1, rho)
    assert any(not r.is_zero() for r in rep.rho)
    assert check_representation(rep).ok


# -- crossed modules -----------------------------------------------------------

def test_shift_strict_to_crossed():
    v = shift_strict(sl2_example())
    cm = strict_to_crossed(v)
    assert check_crossed_module(cm).ok
    assert cm.dt.is_zero()
    assert cm.h.is_abelian()  # [m,n] = l2(dm, n) = 0 when d = 0
    assert crossed_to_strict(cm) == v


def test_crossed_fixture_roundtrip():
    cm = load_model("fixtures/crossed_small.json")
    assert check_crossed_module(cm).ok
    v = crossed_to_strict(cm)
    assert check_two_term(v).ok
    back = strict_to_crossed(v)
    assert back == cm


def test_crossed_peiffer_violation_witnessed():
    cm = load_model("fixtures/crossed_small.json")
    h_bracket = [[list(vec) for vec in row] for row in cm.h.bracket]
    h_bracket[0][1][0] += 1
    h_bracket[1][0][0] -= 1
    bad = CrossedModule(HomLieAlgebra(2, h_bracket, cm.h.phi), cm.g, cm.dt, cm.action)
    report = check_crossed_module(bad)
    assert not report.ok
    peiffer = report.item("laws.peiffer")
    assert not peiffer.passed and peiffer.witness is not None


def test_strict_to_crossed_requires_strict():
    v = string_from_semisimple(sl2_example())
    with pytest.raises(PreconditionError):
        strict_to_crossed(v)


# -- hom-left-symmetric ----------------------------------------------------------

def test_zero_product_passes():
    a = HomLeftSymmetric(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], Matrix.identity(2))
    report, derived = check_left_symmetric(a)
    assert report.ok and derived.sub_adjacent.is_abelian()


def test_left_symmetry_violation_witnessed():
    star = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    star[0][1] = [1, 0]  # e0*e1 = e0, all else 0: fails (30) at (1,0,1)
    a = HomLeftSymmetric(2, star, Matrix.identity(2))
    report, derived = check_left_symmetric(a)
    assert derived is None
    item = report.item("left-symmetry")
    assert not item.passed and item.witness is not None


def test_leftsym_fixture_and_strict_construction():
    ls = load_model("fixtures/leftsym_with_d.json")
    report, derived = check_left_symmetric(ls.product)
    assert report.ok and derived is not None
    v = strict_from_leftsym(ls.product, ls.d)
    assert check_two_term(v).ok and v.is_strict()


def test_strict_from_leftsym_zero_d_always_works():
    ls = load_model("fixtures/leftsym_with_d.json")
    v = strict_from_leftsym(ls.product, Matrix.zeros(2, 2))
    assert check_two_term(v).ok


def test_strict_from_leftsym_names_failed_condition():
    star = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    star[0][0] = [0, 1]  # a*a = b
    a = HomLeftSymmetric(2, star, Matrix.identity(2))
    # d(a) = a satisfies the three stated compatibilities but not the pairing
    with pytest.raises(PreconditionError, match="d-star-skew-pairing"):
        strict_from_leftsym(a, Matrix(2, 2, [[1, 0], [0, 0]]))
    # d not commuting with a non-identity twist is named too
    b = HomLeftSymmetric(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                         Matrix.diagonal([1, -1]))
    with pytest.raises(PreconditionError, match="d-phi-commute"):
        strict_from_leftsym(b, Matrix(2, 2, [[0, 1], [0, 0]]))


def test_leftsym_d_report_entries():
    ls = load_model("fixtures/leftsym_with_d.json")
    report = leftsym_d_report(ls.product, ls.d)
    for law in ("d-phi-commute", "d-star-shift", "d-derivation", "d-star-skew-pairing"):
        assert report.item(law).passed


# -- symplectic ------------------------------------------------------------------

def abelian_symplectic():
    g = abelian_algebra(2, Matrix.diagonal([-1, -1]))
    return SymplecticHomLie(g, Matrix(2, 2, [[0, 1], [-1, 0]]))


def test_symplectic_abelian_passes():
    assert check_symplectic(abelian_symplectic()).ok


def test_symplectic_phi_invariance_fails_for_mixed_signs():
    g = abelian_algebra(2, Matrix.diagonal([1, -1]))
    s = SymplecticHomLie(g, Matrix(2, 2, [[0, 1], [-1, 0]]))
    report = check_symplectic(s)
    assert not report.item("form.phi-invariant").passed


def test_symplectic_degenerate_fails():
    g = abelian_algebra(2, Matrix.diagonal([-1, -1]))
    s = SymplecticHomLie(g, Matrix.zeros(2, 2))
    assert not check_symplectic(s).item("form.nondegenerate").passed


def test_symplectic_requires_regular():
    g = abelian_algebra(2, Matrix(2, 2, [[0, 1], [0, 0]]))
    with pytest.raises(PreconditionError):
        check_symplectic(SymplecticHomLie(g, Matrix(2, 2, [[0, 1], [-1, 0]])))


def test_star_abelian_is_zero():
    a = star_from_symplectic(abelian_symplectic())
    assert all(x == 0 for row in a.star for vec in row for x in vec)


def test_star_commutator_is_bracket_nontrivial():
    s = load_model("fixtures/symplectic_nontrivial4.json")
    a = star_from_symplectic(s)
    for i in range(4):
        for j in range(4):
            anti = tuple(p - q for p, q in zip(a.star[i][j], a.star[j][i]))
            assert anti == s.algebra.bracket[i][j]


def test_strict_from_symplectic_abelian_d_value():
    s = abelian_symplectic()
    v = strict_from_symplectic(s)
    assert check_two_term(v).ok
    # d = phi (omega-sharp)^{-1} = -(omega^T)^{-1}
    assert v.d == -(inverse(s.omega.transpose()))


def test_strict_from_symplectic_nontrivial():
    s = load_model("fixtures/symplectic_nontrivial4.json")
    v = strict_from_symplectic(s)
    assert check_two_term(v).ok and v.is_strict()
    assert not HomLieAlgebra(v.dim0, v.l2_00, v.phi0).is_abelian()


def test_strict_from_symplectic_requires_involution():
    # regular but not involutive: phi = 2*Id on an abelian algebra with standard omega
    g = abelian_algebra(2, Matrix.diagonal([2, F(1, 2)]))
    s = SymplecticHomLie(g, Matrix(2, 2, [[0, 1], [-1, 0]]))
    with pytest.raises(PreconditionError):
        strict_from_symplectic(s)


def test_strict_from_leftsym_zero_product_any_commuting_d():
    a = HomLeftSymmetric(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                         Matrix.diagonal([1, -1]))
    d = Matrix.diagonal([2, 3])  # commutes with the diagonal twist
    v = strict_from_leftsym(a, d)
    assert check_two_term(v).ok
    assert all(x == 0 for row in v.l2_00 for vec in row for x in vec)


def test_l3_from_B_closed_on_untwisted_sl2():
    from homlie2.homlie import twisted_algebra
    g = twisted_algebra(sl2_example())  # ordinary sl2, identity twist
    q = quadratic(g, killing_form(g))
    f = l3_from_B(q)
    assert not f.is_zero()
    assert coboundary(f, trivial_representation(g)).is_zero()
