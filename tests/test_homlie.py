import random
from fractions import Fraction

import pytest

from helpers import (heisenberg, is_identity, is_symmetric, random_involution,
                     reference_bilinear_eval)
from homlie2.constructions import sl2_example
from homlie2.errors import InputError, PreconditionError
from homlie2.exactlin import Matrix
from homlie2.homlie import (HomLieAlgebra, HomLieMorphism, abelian_algebra,
                            check_hom_lie, check_hom_lie_morphism,
                            compose_morphisms, hom_lie_algebra, killing_form,
                            twisted_algebra)

F = Fraction


def perturb_bracket(g, i, j, k, delta=1):
    br = [[list(v) for v in row] for row in g.bracket]
    br[i][j][k] = br[i][j][k] + delta
    return HomLieAlgebra(g.dim, br, g.phi)


def test_abelian_passes_with_any_phi():
    phi = Matrix(2, 2, [[5, 7], [-1, F(1, 2)]])
    assert check_hom_lie(abelian_algebra(2, phi)).ok


def test_sl2_passes():
    assert check_hom_lie(sl2_example()).ok


def test_sl2_perturbed_fails_hom_jacobi_with_witness():
    g = perturb_bracket(sl2_example(), 0, 1, 2)
    report = check_hom_lie(g)
    item = report.item("hom-jacobi")
    assert not item.passed
    assert item.witness is not None and len(item.witness) == 3
    assert not report.item("skew").passed
    # direct evaluation of the twisted Jacobi sum at (A,B,C) is nonzero too
    total = (0, 0, 0)
    for (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        term = reference_bilinear_eval(g.bracket, g.phi.column(a), g.bracket[b][c], 3)
        total = tuple(x + y for x, y in zip(total, term))
    assert any(x != 0 for x in total)


def test_shape_mismatch_is_input_error():
    with pytest.raises(InputError):
        HomLieAlgebra(2, [[[0, 0]]], Matrix.identity(2))
    with pytest.raises(InputError):
        HomLieAlgebra(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], Matrix.identity(3))


def test_heisenberg_valid_for_diagonal_twists():
    for a in (1, -1, 2):
        for b in (1, -1, 3):
            assert check_hom_lie(heisenberg(a, b)).ok


def test_killing_form_abelian_is_zero():
    assert killing_form(abelian_algebra(3)).is_zero()


def test_killing_form_sl2_frozen():
    # independent oracle: adjoint matrices of the twisted bracket, built by
    # hand from the relations [A,B]=-C, [C,A]=-2B, [B,C]=-2A, traced with
    # plain integer arithmetic.
    ad = {
        "A": [[0, 0, 0], [0, 0, 2], [0, -1, 0]],
        "B": [[0, 0, -2], [0, 0, 0], [1, 0, 0]],
        "C": [[0, 2, 0], [-2, 0, 0], [0, 0, 0]],
    }

    def mul(p, q):
        return [[sum(p[i][k] * q[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]

    def tr(p):
        return sum(p[i][i] for i in range(3))

    names = ["A", "B", "C"]
    expected = [[tr(mul(ad[x], ad[y])) for y in names] for x in names]
    assert expected == [[-4, 0, 0], [0, -4, 0], [0, 0, -8]]

    B = killing_form(sl2_example())
    assert B == Matrix(3, 3, expected)
    assert is_symmetric(B)


def test_killing_form_invariant_value():
    # B([A,B], C) = B(-C, C) = 8
    g = sl2_example()
    B = killing_form(g)
    ab = g.bracket[0][1]
    value = sum(ab[i] * B[i, 2] for i in range(3))
    assert value == 8


def test_twisted_algebra_abelian_and_identity():
    g = abelian_algebra(2, Matrix.diagonal([-1, -1]))
    assert twisted_algebra(g).is_abelian()
    h = heisenberg(1, 1)  # phi = Id
    assert twisted_algebra(h).bracket == h.bracket


def test_twisted_algebra_sl2():
    g = sl2_example()
    gt = twisted_algebra(g)
    # phi([A,B]) = phi(-C) = C, phi([C,A]) = phi(-2B) = 2A, phi([B,C]) = 2B
    assert gt.bracket[0][1] == (F(0), F(0), F(1))
    assert gt.bracket[2][0] == (F(2), F(0), F(0))
    assert gt.bracket[1][2] == (F(0), F(2), F(0))
    assert is_identity(gt.phi)
    assert check_hom_lie(gt).ok


def test_twisted_algebra_requires_involution():
    g = abelian_algebra(2, Matrix.diagonal([2, 1]))
    with pytest.raises(PreconditionError):
        twisted_algebra(g)


def test_morphism_identity_phi_and_zero():
    g = sl2_example()
    assert check_hom_lie_morphism(HomLieMorphism(g, g, Matrix.identity(3))).ok
    assert check_hom_lie_morphism(HomLieMorphism(g, g, g.phi)).ok
    assert check_hom_lie_morphism(HomLieMorphism(g, g, Matrix.zeros(3, 3))).ok


def test_morphism_composition_passes():
    rng = random.Random(7)
    g = sl2_example()
    m1 = HomLieMorphism(g, g, g.phi)
    m2 = HomLieMorphism(g, g, g.phi)
    comp = compose_morphisms(m1, m2)
    assert is_identity(comp.f)
    assert check_hom_lie_morphism(comp).ok
    # random involution conjugation is generally NOT a morphism; but identity is
    phi = random_involution(rng, 3)
    assert phi * phi == Matrix.identity(3)


def test_bad_morphism_witnessed():
    g = sl2_example()
    bad = HomLieMorphism(g, g, Matrix(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    report = check_hom_lie_morphism(bad)
    assert not report.ok
    assert any(item.witness is not None for item in report.failures())


def test_hom_lie_algebra_promotion_raises():
    from homlie2.errors import CheckFailure
    g = sl2_example()
    bad = perturb_bracket(g, 0, 1, 2)
    with pytest.raises(CheckFailure):
        hom_lie_algebra(bad.dim, bad.bracket, bad.phi)
