import random
from fractions import Fraction

import pytest

from helpers import (identity_complex, is_identity, random_invertible, reference_arrows,
                     shift_strict, transport_two_term)
from homlie2.cohomology import (Representation, check_representation,
                                coboundary, cochain_from_function)
from homlie2.constructions import sl2_example, string_from_semisimple
from homlie2.errors import CheckFailure, InputError
from homlie2.exactlin import Matrix, inverse
from homlie2.hl2 import (HLMorphism, TwoTermHL, check_hl_morphism,
                         check_hom_lie2, check_two_term, compose_hl_morphisms,
                         functor_S, functor_T, identity_hl_morphism,
                         roundtrip_check, two_term_hl)
from homlie2.homlie import abelian_algebra

F = Fraction


def zero_l3(n0, n1):
    return [[[[0] * n1 for _ in range(n0)] for _ in range(n0)] for _ in range(n0)]


def zero_t2(rows, cols, out=None):
    out = cols if out is None else out
    return [[[0] * out for _ in range(cols)] for _ in range(rows)]


def abelian_two_term():
    return TwoTermHL(2, 2, Matrix.zeros(2, 2), zero_t2(2, 2), zero_t2(2, 2),
                     zero_l3(2, 2), Matrix.diagonal([-1, -1]),
                     Matrix(2, 2, [[0, 1], [1, 0]]))


def replace_l3(v, i, j, k, comp, delta=1):
    l3 = [[[list(vec) for vec in row] for row in layer] for layer in v.l3]
    l3[i][j][k][comp] = l3[i][j][k][comp] + delta
    return TwoTermHL(v.dim0, v.dim1, v.d, v.l2_00, v.l2_01, l3, v.phi0, v.phi1)


def test_shift_strict_passes():
    assert check_two_term(shift_strict(sl2_example())).ok


def test_string_passes_and_l3_value():
    v = string_from_semisimple(sl2_example())
    assert check_two_term(v).ok
    assert v.l3[0][1][2] == (F(8),)
    assert v.is_skeletal() and not v.is_strict()


def test_condition_e_reading_regression():
    # 2-dim product a*a = b with d(a) = a satisfies the three differential
    # compatibilities of the left-symmetric construction but fails (e):
    # l2(da, a) = b while l2(a, da) = -b.  Guards the sign convention.
    star = zero_t2(2, 2)
    star[0][0] = [0, 1]
    v = TwoTermHL(2, 2, Matrix(2, 2, [[1, 0], [0, 0]]), zero_t2(2, 2), star,
                  zero_l3(2, 2), Matrix.identity(2), Matrix.identity(2))
    report = check_two_term(v)
    assert not report.item("(e)").passed
    assert report.item("(e)").witness == (0, 0)
    assert report.item("(d)").passed


def test_perturbation_j_and_jacobiator_fail_together():
    v = string_from_semisimple(sl2_example())
    bad = replace_l3(v, 0, 1, 2, 0)
    report = check_two_term(bad)
    assert not report.item("(j)").passed
    assert report.item("(j)").witness is not None
    lrep = check_hom_lie2(functor_T(bad))
    assert not lrep.item("hom-jacobiator").passed
    # and on the valid structure both pass
    good = check_two_term(v)
    assert good.item("(j)").passed
    assert check_hom_lie2(functor_T(v)).item("hom-jacobiator").passed


def test_promotion_raises_on_bad_data():
    v = string_from_semisimple(sl2_example())
    bad = replace_l3(v, 0, 0, 0, 0)  # diagonal entry breaks skewness
    with pytest.raises(CheckFailure):
        two_term_hl(bad.dim0, bad.dim1, bad.d, bad.l2_00, bad.l2_01, bad.l3,
                    bad.phi0, bad.phi1)


# -- morphisms ----------------------------------------------------------------

def test_identity_morphism_passes():
    v = string_from_semisimple(sl2_example())
    assert check_hl_morphism(identity_hl_morphism(v)).ok


def test_twist_endomorphism_passes_and_squares_to_identity():
    v = string_from_semisimple(sl2_example())
    phi_endo = HLMorphism(v, v, v.phi0, Matrix.identity(1), zero_t2(3, 3, 1))
    assert check_hl_morphism(phi_endo).ok
    sq = compose_hl_morphisms(phi_endo, phi_endo)
    assert is_identity(sq.f0) and is_identity(sq.f1)
    assert check_hl_morphism(sq).ok


def test_bad_f2_equivariance_witnessed():
    v = abelian_two_term()  # phi0 = -Id, phi1 = swap
    f2 = zero_t2(2, 2)
    f2[0][1] = [1, 0]
    f2[1][0] = [-1, 0]
    # f2(phi0 x, phi0 y) = f2(x,y) but phi1' f2(x,y) = swap(f2) != f2
    m = HLMorphism(v, v, Matrix.identity(2), Matrix.identity(2), f2)
    report = check_hl_morphism(m)
    assert not report.item("f2-equivariance").passed
    assert report.item("f2-equivariance").witness is not None


def random_abelian_morphism(rng, v):
    """On an abelian structure any phi-commuting triple is a morphism."""
    n0, n1 = v.dim0, v.dim1
    # matrices commuting with phi0 = -Id: anything; with phi1 = swap: symmetric pattern
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    f0 = Matrix(n0, n0, [[rng.randint(-2, 2) for _ in range(n0)] for _ in range(n0)])
    f1 = Matrix(2, 2, [[a, b], [b, a]])
    c = rng.randint(-2, 2)
    f2 = zero_t2(2, 2)
    f2[0][1] = [c, c]
    f2[1][0] = [-c, -c]
    return HLMorphism(v, v, f0, f1, f2)


def test_composition_laws_on_random_morphisms():
    rng = random.Random(99)
    v = abelian_two_term()
    ident = identity_hl_morphism(v)
    for _ in range(25):
        f = random_abelian_morphism(rng, v)
        g = random_abelian_morphism(rng, v)
        h = random_abelian_morphism(rng, v)
        assert check_hl_morphism(f).ok
        fg = compose_hl_morphisms(f, g)
        assert check_hl_morphism(fg).ok
        assert compose_hl_morphisms(compose_hl_morphisms(f, g), h) == \
            compose_hl_morphisms(f, compose_hl_morphisms(g, h))
        assert compose_hl_morphisms(ident, f) == f
        assert compose_hl_morphisms(f, ident) == f


def test_composition_endpoint_mismatch():
    v = abelian_two_term()
    w = shift_strict(sl2_example())
    with pytest.raises(InputError):
        compose_hl_morphisms(identity_hl_morphism(v), identity_hl_morphism(w))


# -- the equivalence ----------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: string_from_semisimple(sl2_example()),
    lambda: shift_strict(sl2_example()),
    abelian_two_term,
])
def test_roundtrip_and_categorical_laws(make):
    v = make()
    assert functor_S(functor_T(v)) == v
    assert check_hom_lie2(functor_T(v)).ok
    assert roundtrip_check(v).ok


def test_T_identities_on_abelian():
    v = abelian_two_term()
    L = functor_T(v)
    # all brackets vanish: J's source and target coincide and its V1-part is 0
    x, y, z = (L.tvs.mor_from_coords((F(1), F(0), F(0), F(0)))[0],) * 3
    j = reference_arrows(L).jac_mor(x, y, z)
    assert j[0] == (F(0), F(0)) and j[1] == (F(0), F(0))


def test_T_jacobiator_value_on_string():
    v = string_from_semisimple(sl2_example())
    L = functor_T(v)
    e = lambda i: tuple(F(1) if t == i else F(0) for t in range(3))
    j = reference_arrows(L).jac_mor(e(0), e(1), e(2))
    assert j[1] == (F(8),)


def test_S_rejects_bracket_leaving_kernel():
    v = abelian_two_term()
    L = functor_T(v)
    bm = [[list(vec) for vec in row] for row in L.bracket_mor]
    bm[0][2][0] = F(1)  # [i(e0), m0] picks up an object part
    from homlie2.hl2 import HomLie2Data
    bad = HomLie2Data(L.tvs, L.bracket_obj, bm, L.Phi0, L.Phi1, L.jac)
    with pytest.raises(InputError, match="bracket does not preserve Ker"):
        functor_S(bad)


def test_S_reads_only_the_kernel_block_of_the_twist():
    """A Phi1 entry from Ker(s) into the objects is refused; one from the
    objects into Ker(s) lies outside the block S restricts to, and is ignored."""
    from homlie2.hl2 import HomLie2Data
    v = abelian_two_term()
    L = functor_T(v)
    n0, nm = v.dim0, v.dim0 + v.dim1
    for (row, col), refused in (((0, n0), True), ((n0, 0), False)):
        data = [list(r) for r in L.Phi1.data]
        data[row][col] += 1
        bad = HomLie2Data(L.tvs, L.bracket_obj, L.bracket_mor, L.Phi0, Matrix(nm, nm, data), L.jac)
        if refused:
            with pytest.raises(InputError, match="twist functor does not preserve Ker"):
                functor_S(bad)
        else:
            assert functor_S(bad) == v


def test_skeletal_l3_is_closed_for_its_action():
    # the code path from a skeletal structure to its degree-3 cocycle
    v = string_from_semisimple(sl2_example())
    g = abelian_algebra(3, v.phi0)  # placeholder shapes; real algebra below
    from homlie2.homlie import HomLieAlgebra
    base = HomLieAlgebra(v.dim0, v.l2_00, v.phi0)
    rho = tuple(Matrix.from_columns([v.l2_01[i][a] for a in range(v.dim1)], rows=v.dim1)
                for i in range(v.dim0))
    rep = Representation(base, v.dim1, v.phi1, rho)
    assert check_representation(rep).ok
    f = cochain_from_function(3, v.dim0, v.dim1,
                              lambda t: v.l3[t[0]][t[1]][t[2]])
    assert coboundary(f, rep).is_zero()


def test_categorical_laws_catch_corrupted_brackets():
    from homlie2.hl2 import HomLie2Data
    v = shift_strict(sl2_example())
    L = functor_T(v)
    # break the interchange/target structure: make [m0, m0-slot] nonzero in V1
    bm = [[list(vec) for vec in row] for row in L.bracket_mor]
    bm[3][3][3] = bm[3][3][3] + 1   # a V1 x V1 bracket component appears
    bad = HomLie2Data(L.tvs, L.bracket_obj, bm, L.Phi0, L.Phi1, L.jac)
    report = check_hom_lie2(bad)
    assert not report.item("bracket-skew").passed
    # break target compatibility only: add an object part to [i(e0), i(e1)]
    bm2 = [[list(vec) for vec in row] for row in L.bracket_mor]
    bm2[0][1][0] = bm2[0][1][0] + 1
    bm2[1][0][0] = bm2[1][0][0] - 1   # keep skewness intact
    bad2 = HomLie2Data(L.tvs, L.bracket_obj, bm2, L.Phi0, L.Phi1, L.jac)
    report2 = check_hom_lie2(bad2)
    assert report2.item("bracket-skew").passed
    assert not report2.ok
    assert not report2.item("bracket-identities").passed


def test_strict_structure_has_identity_jacobiator():
    # a strict structure presents with an identity natural transformation:
    # J's V1-part vanishes and source equals target on every basis triple
    v = shift_strict(sl2_example())
    L = reference_arrows(functor_T(v))
    e = lambda i: tuple(F(1) if t == i else F(0) for t in range(3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                jm = L.jac_mor(e(i), e(j), e(k))
                assert jm[1] == (F(0),) * 3
                assert L.tvs.target(jm) == L.tvs.source(jm)


# -- where the coherence diagram breaks -----------------------------------------

@pytest.mark.parametrize("make, entry, stage", [
    (lambda: string_from_semisimple(sl2_example()), (0, 1, 2, 0), "final"),
    (lambda: identity_complex(sl2_example()), (0, 1, 2, 0), "n2"),
    (lambda: identity_complex(sl2_example()), (2, 0, 1, 0), "n3"),
    (lambda: identity_complex(sl2_example()), (2, 2, 2, 1), "top"),
])
def test_hom_jacobiator_names_the_broken_stage(make, entry, stage):
    v = make()
    good = check_hom_lie2(functor_T(v)).item("hom-jacobiator")
    assert good.passed
    assert good.note == "coherence diagram, both composites compared stagewise"
    item = check_hom_lie2(functor_T(replace_l3(v, *entry))).item("hom-jacobiator")
    assert not item.passed
    assert item.note == f"{good.note}; broke at stage {stage}"


# -- metamorphic: change of basis ---------------------------------------------------

def verdicts(report):
    return [(item.law, item.passed) for item in report.items]


TRANSPORTED = [
    lambda: string_from_semisimple(sl2_example()),
    lambda: shift_strict(sl2_example()),
]


@pytest.mark.parametrize("make", TRANSPORTED)
@pytest.mark.parametrize("seed", [0, 1])
def test_transport_preserves_every_verdict(make, seed):
    """Carried along a random change of basis (p0, p1), every law keeps its
    verdict, and (p0, p1, 0) is a morphism whose inverse composes to the identity."""
    v = make()
    rng = random.Random(seed)
    p0, p1 = random_invertible(rng, v.dim0), random_invertible(rng, v.dim1)
    w, m = transport_two_term(v, p0, p1)
    assert w != v
    assert verdicts(check_two_term(w)) == verdicts(check_two_term(v))
    assert verdicts(check_hom_lie2(functor_T(w))) == verdicts(check_hom_lie2(functor_T(v)))
    assert check_hl_morphism(m).ok
    back = HLMorphism(w, v, inverse(p0), inverse(p1), zero_t2(v.dim0, v.dim0, v.dim1))
    assert check_hl_morphism(back).ok
    assert compose_hl_morphisms(m, back) == identity_hl_morphism(v)


@pytest.mark.parametrize("make", TRANSPORTED)
@pytest.mark.parametrize("entry", [(0, 1, 2, 0), (0, 0, 1, 0), (2, 1, 0, 0)])
def test_l3_perturbations_are_linear(make, entry):
    """Every law is linear in l3 and holds at the transported structure, so a
    perturbation by +1/2 fails each law exactly where +1 does.  The transport
    is integral, so +1/2 runs the mixed int/Fraction path of the kernel."""
    v = make()
    w, _ = transport_two_term(v, random_invertible(random.Random(3), v.dim0),
                              random_invertible(random.Random(4), v.dim1))
    half, one = replace_l3(w, *entry, F(1, 2)), replace_l3(w, *entry, 1)
    assert check_two_term(half).as_dict() == check_two_term(one).as_dict()
    assert not check_two_term(half).ok
    assert check_hom_lie2(functor_T(half)).as_dict() == \
        check_hom_lie2(functor_T(one)).as_dict()
    assert not check_hom_lie2(functor_T(half)).ok
