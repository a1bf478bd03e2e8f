import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (_ref_evaluate, direct_sum, heisenberg, nilpotent4, random_algebra,
                     random_hom_cochain, random_invertible, random_representation,
                     reference_coboundary, reference_dims, reference_hom_basis,
                     reference_rho_at, rnd_frac, sl2_sum, sl_n, transport_algebra, vadd,
                     vneg)
from homlie2.cohomology import (Cochain, Representation, _coboundary, _phi_wedges, _wedge,
                                _wedge_into, adjoint_representation, check_representation,
                                class_is_trivial, coboundary, coboundary_matrix,
                                cochain_from_coords, cochain_from_function,
                                cohomology_dims, cohomology_inclusion_check,
                                degree0_coboundary, dual_representation,
                                hom_cochain_basis,
                                is_hom_cochain, trivial_representation,
                                zero_cochain)
from homlie2 import cohomology
from homlie2.constructions import sl2_example
from homlie2.errors import InputError, PreconditionError
from homlie2.exactlin import Matrix, _ap, det_of, dok, from_dok, sparse_vec
from homlie2.homlie import abelian_algebra, check_hom_lie, twisted_algebra

F = Fraction


def test_trivial_representation_passes():
    for g in (abelian_algebra(2), sl2_example(), heisenberg(-1, 1)):
        assert check_representation(trivial_representation(g)).ok


def test_zero_action_any_twist_passes():
    g = sl2_example()
    r = Representation(g, 2, Matrix(2, 2, [[1, 5], [0, 3]]),
                       tuple(Matrix.zeros(2, 2) for _ in range(3)))
    assert check_representation(r).ok


def test_adjoint_representation_passes():
    for g in (sl2_example(), heisenberg(2, -1)):
        assert check_representation(adjoint_representation(g)).ok


def test_representation_failure_witnessed():
    g = sl2_example()
    r = Representation(g, 3, Matrix.identity(3), tuple(g.ad(g.basis(i)) for i in range(3)))
    report = check_representation(r)  # adjoint needs the twist, Id fails
    assert not report.ok
    assert all(item.witness is not None for item in report.failures())


# -- dual representations ----------------------------------------------------

def test_dual_of_trivial_is_itself():
    r = trivial_representation(sl2_example())
    assert dual_representation(r) == r


def test_dual_exists_for_involutive_adjoint():
    r = adjoint_representation(sl2_example())
    dual = dual_representation(r)
    assert dual is not None
    assert check_representation(dual).ok
    assert dual.A == r.A.transpose()
    assert dual.rho[0] == -(r.rho[0].transpose())


def test_dual_absent_when_pairing_condition_fails():
    # abelian, phi = [[1,1],[0,0]], A = 0: a valid representation whose
    # candidate dual fails A rho([x,y]) = rho(x) rho(phi y) - rho(y) rho(phi x).
    g = abelian_algebra(2, Matrix(2, 2, [[1, 1], [0, 0]]))
    r = Representation(g, 2, Matrix.zeros(2, 2),
                       (Matrix(2, 2, [[0, 1], [0, 0]]), Matrix(2, 2, [[1, 0], [0, 0]])))
    assert check_representation(r).ok
    assert dual_representation(r) is None


def test_dual_absent_when_only_twist_condition_fails():
    # the pairing condition holds here but the dual fails its own
    # twist-compatibility; the full check must gate the result.
    g = abelian_algebra(2, Matrix.diagonal([2, 0]))
    r = Representation(g, 2, Matrix.diagonal([2, 1]),
                       (Matrix(2, 2, [[0, 1], [0, 0]]), Matrix.zeros(2, 2)))
    assert check_representation(r).ok
    a, rho = r.A, r.rho
    phi = g.phi
    for i in range(2):
        for j in range(2):
            lhs = a * reference_rho_at(r, g.bracket[i][j])
            rhs = (rho[i] * reference_rho_at(r, phi.column(j))
                   - rho[j] * reference_rho_at(r, phi.column(i)))
            assert lhs == rhs  # quoted pairing condition holds...
    assert dual_representation(r) is None  # ...yet no dual exists


# -- cochains and the coboundary ---------------------------------------------

def test_cochain_evaluate_signs():
    g = sl2_example()
    f = cochain_from_function(2, 3, 1, lambda t: (F(t[0] + 10 * t[1]),))
    e0, e1 = g.basis(0), g.basis(1)
    assert f.evaluate([e0, e1]) == (F(10),)
    assert f.evaluate([e1, e0]) == (F(-10),)
    assert f.evaluate([e0, e0]) == (F(0),)


def test_coboundary_requires_hom_cochain():
    g = sl2_example()
    rep = trivial_representation(g)
    f = cochain_from_function(1, 3, 1, lambda t: (F(1),))  # not phi-invariant
    assert not is_hom_cochain(f, rep)
    with pytest.raises(PreconditionError):
        coboundary(f, rep)


def test_coboundary_degree_zero_rejected():
    g = sl2_example()
    rep = trivial_representation(g)
    with pytest.raises(InputError):
        coboundary(zero_cochain(0, 3, 1), rep)


def test_degree0_coboundary_convention():
    g = sl2_example()
    rep = adjoint_representation(g)
    fixed = hom_cochain_basis(rep, 0)  # C^0: the phi-fixed vectors
    assert len(fixed) == 1
    for v in fixed:
        assert rep.A.apply(v.comps[0]) == v.comps[0]
        dv = degree0_coboundary(v.comps[0], rep)
        assert dv.degree == 1
    with pytest.raises(PreconditionError):
        degree0_coboundary((F(1), F(0), F(0)), rep)  # not phi-fixed (phi A = -B)


def test_d_squared_zero_randomized_small():
    rng = random.Random(20240811)
    done = 0
    while done < 12:
        g = random_algebra(rng, max_dim=3)
        rep = random_representation(rng, g)
        k = rng.randint(1, 2)
        f = random_hom_cochain(rng, rep, k)
        if f.is_zero():
            continue
        df = coboundary(f, rep)
        assert is_hom_cochain(df, rep)
        assert coboundary(df, rep).is_zero()
        done += 1


# -- cohomology dimensions ---------------------------------------------------

def test_dims_abelian_identity_twist():
    n = 3
    g = abelian_algebra(n)
    rep = trivial_representation(g)
    c, z, b, h = cohomology_dims(rep, 1)
    assert (c, z, b, h) == (n, n, 0, n)


def test_dims_sl2_frozen():
    rep = trivial_representation(sl2_example())
    assert cohomology_dims(rep, 1) == (1, 0, 0, 0)
    assert cohomology_dims(rep, 2) == (1, 1, 1, 0)
    assert cohomology_dims(rep, 3) == (1, 1, 0, 1)


def test_dims_k0_invariants_convention():
    rep = trivial_representation(sl2_example())
    assert cohomology_dims(rep, 0) == (1, 1, 0, 1)


def test_dims_vanishing_hom_space():
    # nilpotent twist can kill the hom-cochain space entirely: dims are 0, no error
    g = abelian_algebra(2, Matrix(2, 2, [[0, 1], [0, 0]]))
    rep = trivial_representation(g)
    c, z, b, h = cohomology_dims(rep, 2)
    assert (c, z, b, h) == (0, 0, 0, 0)


def test_class_triviality():
    g = sl2_example()
    rep = trivial_representation(g)
    assert class_is_trivial(zero_cochain(2, 3, 1), rep)
    # an exact cochain is trivial by construction
    basis1 = hom_cochain_basis(rep, 1)
    assert basis1
    f = coboundary(basis1[0], rep)
    if not f.is_zero():
        assert class_is_trivial(f, rep)
    with pytest.raises(PreconditionError):
        # d of the degree-1 generator is nonzero, so the generator is not closed
        class_is_trivial(basis1[0], rep)


# -- inclusion into the untwisted cohomology ----------------------------------

def test_inclusion_identity_twist_trivial():
    g = heisenberg(1, 1)  # ordinary Lie algebra, phi = Id
    for k in (1, 2, 3):
        assert cohomology_inclusion_check(g, k).ok


def test_inclusion_sl2():
    g = sl2_example()
    for k in (1, 2, 3):
        assert cohomology_inclusion_check(g, k).ok


def test_inclusion_abelian_minus_id():
    g = abelian_algebra(3, Matrix.diagonal([-1, -1, -1]))
    for k in (1, 2, 3):
        assert cohomology_inclusion_check(g, k).ok


def test_inclusion_requires_involution():
    g = abelian_algebra(2, Matrix.diagonal([2, 1]))
    with pytest.raises(PreconditionError):
        cohomology_inclusion_check(g, 2)


def test_trivial_coboundary_matches_hand_formula():
    # with zero action the operator reduces to the bracket sum:
    # k=1: (df)(u1,u2) = -f([u1,u2]); k=2 adds the phi-twisted spectators.
    g = sl2_example()
    rep = trivial_representation(g)
    f1 = hom_cochain_basis(rep, 1)[0]
    df1 = coboundary(f1, rep)
    for i in range(3):
        for j in range(i + 1, 3):
            expected = tuple(-x for x in f1.evaluate([g.bracket[i][j]]))
            assert df1.component((i, j)) == expected
    f2 = hom_cochain_basis(rep, 2)[0]
    df2 = coboundary(f2, rep)
    for t in df2.tuples():
        i, j, k = t
        phi = g.phi
        # (-1)^{i+j} with 1-based positions: (1,2) -> -, (1,3) -> +, (2,3) -> -
        expected = tuple(
            -a + b - c for a, b, c in zip(
                f2.evaluate([g.bracket[i][j], phi.column(k)]),
                f2.evaluate([g.bracket[i][k], phi.column(j)]),
                f2.evaluate([g.bracket[j][k], phi.column(i)])))
        assert df2.component(t) == expected


def test_degree0_trivial_rep_gives_zero_one_cochain():
    g = sl2_example()
    rep = trivial_representation(g)
    dv = degree0_coboundary((F(1),), rep)
    assert dv.is_zero() and dv.degree == 1


def test_symplectic_form_is_closed_as_a_cochain():
    from homlie2.modelfile import load_model
    from pathlib import Path
    s = load_model(Path(__file__).parent.parent / "fixtures" / "symplectic_nontrivial4.json")
    g = s.algebra
    rep = trivial_representation(g)
    f = cochain_from_function(2, 4, 1, lambda t: (s.omega[t[0], t[1]],))
    assert is_hom_cochain(f, rep)
    assert coboundary(f, rep).is_zero()


def test_dims_are_monotone():
    for g in (sl2_example(), heisenberg(-1, 1), abelian_algebra(3, Matrix.diagonal([-1, 1, -1]))):
        for rep in (trivial_representation(g), adjoint_representation(g)):
            for k in (1, 2, 3):
                c, z, b, h = cohomology_dims(rep, k)
                assert b <= z <= c
                assert h == z - b


def test_dims_above_top_degree_are_zero():
    rep = trivial_representation(sl2_example())
    assert cohomology_dims(rep, 4) == (0, 0, 0, 0)
    assert cohomology_dims(rep, 7) == (0, 0, 0, 0)


# -- the coboundary matrix against the per-cochain reference -------------------

def _dims_or_error(fn, rep, k):
    try:
        return fn(rep, k)
    except PreconditionError:
        return PreconditionError


def test_coboundary_matrix_matches_reference_on_random_families():
    rng = random.Random(20261018)
    cases = 0
    for _ in range(16):
        g = random_algebra(rng)
        for rep in (trivial_representation(g), adjoint_representation(g),
                    random_representation(rng, g)):
            for k in range(g.dim + 2):
                basis = hom_cochain_basis(rep, k)
                assert basis == reference_hom_basis(rep, k)
                d = coboundary_matrix(rep, k)
                for b in basis:
                    assert d.apply(b.coords()) == reference_coboundary(b, rep).coords()
                assert (_dims_or_error(cohomology_dims, rep, k)
                        == _dims_or_error(reference_dims, rep, k))
                cases += 1
    assert cases >= 150


def test_coboundary_matrix_degree_zero_shape_and_negative_degree():
    rep = adjoint_representation(sl2_example())
    assert coboundary_matrix(rep, 0).shape() == (9, 3)
    with pytest.raises(InputError):
        coboundary_matrix(rep, -1)


@pytest.mark.parametrize("A,rho", [
    # non-commuting action of an abelian algebra: d_1 d_0 != 0
    (Matrix.identity(2), (Matrix(2, 2, [[0, 1], [0, 0]]), Matrix(2, 2, [[1, 0], [0, 0]]))),
    # rho(u) moves the A-fixed vector off the fixed line: d_0 v is no hom-cochain
    (Matrix.diagonal([1, 2]), (Matrix(2, 2, [[0, 0], [1, 0]]), Matrix.zeros(2, 2))),
])
def test_b1_not_in_z1_is_refused(A, rho):
    # both actions fail the representation laws, and with them B^1 ⊆ Z^1
    r = Representation(abelian_algebra(2), 2, A, rho)
    assert not check_representation(r).ok
    assert _dims_or_error(reference_dims, r, 1) is PreconditionError
    with pytest.raises(PreconditionError):
        cohomology_dims(r, 1)


# -- closed forms: Chevalley-Eilenberg and Whitehead at phi = Id ---------------

@pytest.mark.parametrize("c", [1, 2, 3])
def test_sl2_sum_trivial_poincare_polynomial(c):
    g = twisted_algebra(sl2_sum(c))
    rep = trivial_representation(g)
    # coefficients of (1 + t^3)^c
    expected = [0] * (3 * c + 2)
    for j in range(c + 1):
        expected[3 * j] = comb(c, j)
    assert [cohomology_dims(rep, k)[3] for k in range(3 * c + 2)] == expected


@pytest.mark.parametrize("c", [1, 2])
def test_whitehead_lemmas_adjoint(c):
    rep = adjoint_representation(twisted_algebra(sl2_sum(c)))
    assert cohomology_dims(rep, 1)[3] == 0
    assert cohomology_dims(rep, 2)[3] == 0


@pytest.mark.parametrize("theta, nonzero", [(False, {0, 3, 5, 8}), (True, {0, 3})])
def test_sl3_trivial_cohomology(theta, nonzero):
    """H^k of sl(3), trivial coefficients, k = 0..8: at φ = Id nonzero exactly
    where the primitive degrees 3 and 5 of sl(3) sum to k; under the Yau twist
    by the Chevalley involution θ(X) = −Xᵀ at 0 and 3 only."""
    g = sl_n(3, theta)
    assert check_hom_lie(g).ok and g.is_involutive()
    rep = trivial_representation(g)
    assert {k for k in range(9) if cohomology_dims(rep, k)[3]} == nonzero


def test_sl3_adjoint_cohomology():
    """The adjoint H^k of sl(3) vanishes at every k at φ = Id; θ-twisted, the
    degree-0 convention puts B^1 outside Z^1 and k = 1 is refused."""
    rep = adjoint_representation(sl_n(3))
    assert all(cohomology_dims(rep, k)[3] == 0 for k in range(9))
    with pytest.raises(PreconditionError, match="B\\^1 is not contained in Z\\^1"):
        cohomology_dims(adjoint_representation(sl_n(3, theta=True)), 1)


# -- oracles sharing neither the wedge nor the elimination ----------------------

# Poincaré polynomials at phi = Id, trivial coefficients: the Heisenberg algebra,
# Heisenberg ⊕ a line, and sl(2)
POINCARE = {"heisenberg": (heisenberg, [1, 2, 2, 1]),
            "nilpotent4": (nilpotent4, [1, 3, 4, 3, 1]),
            "sl2": (lambda: twisted_algebra(sl2_example()), [1, 0, 0, 1])}


def poincare(g):
    rep = trivial_representation(g)
    return [cohomology_dims(rep, k)[3] for k in range(g.dim + 2)]


@pytest.mark.parametrize("a, b", [("heisenberg", "nilpotent4"), ("heisenberg", "sl2"),
                                  ("nilpotent4", "sl2"), ("sl2", "heisenberg")])
def test_kunneth_for_direct_sums_at_identity(a, b):
    (make_a, pa), (make_b, pb) = POINCARE[a], POINCARE[b]
    g = direct_sum(make_a(), make_b())
    expected = [sum(pa[i] * pb[k - i] for i in range(len(pa)) if 0 <= k - i < len(pb))
                for k in range(g.dim + 2)]
    assert poincare(g) == expected


@pytest.mark.parametrize("make", [lambda: heisenberg(2, -1), lambda: nilpotent4(-1, 1),
                                  sl2_example, lambda: sl2_sum(2)])
def test_dims_are_invariant_under_change_of_basis(make):
    g = make()
    h = transport_algebra(g, random_invertible(random.Random(g.dim), g.dim))
    assert h != g
    for rep_of in (trivial_representation, adjoint_representation):
        for k in range(g.dim + 2):
            assert cohomology_dims(rep_of(h), k) == cohomology_dims(rep_of(g), k)


def test_euler_characteristic_of_whole_complexes():
    """Σ(−1)^k dim C^k = Σ(−1)^k dim H^k over k = 0..n.  It holds only if each
    degree's dim C^k − dim Z^k, the rank of d_k·C^k, equals the next degree's
    dim B^{k+1}, the rank of `_exact_columns`: two separate paths."""
    rng = random.Random(20261021)
    algebras = [heisenberg(), nilpotent4(), sl2_example(), sl2_sum(2)]
    complexes = 0
    for g in algebras + [random_algebra(rng) for _ in range(15)]:
        for rep in (trivial_representation(g), adjoint_representation(g),
                    random_representation(rng, g), random_representation(rng, g)):
            dims = [cohomology_dims(rep, k) for k in range(g.dim + 1)]
            assert (sum((-1) ** k * c for k, (c, _, _, _) in enumerate(dims))
                    == sum((-1) ** k * h for k, (_, _, _, h) in enumerate(dims))), (g, rep)
            complexes += 1
    assert complexes == 76


entry = st.one_of(st.just(F(0)), st.builds(F, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def vector_lists(draw):
    """k vectors of length n >= k, about half their entries zero."""
    k = draw(st.integers(0, 4))
    n = draw(st.integers(max(k, 1), 6))
    return [tuple(draw(entry) if draw(st.booleans()) else F(0) for _ in range(n))
            for _ in range(k)]


@given(vector_lists())
@settings(max_examples=150, deadline=None)
def test_wedge_is_the_determinant_expansion(vectors):
    """Every k×k minor by `det_of`, and a cochain evaluated by the reference."""
    k, n = len(vectors), len(vectors[0]) if vectors else 1
    minors = {s: det_of([tuple(v[i] for i in s) for v in vectors])
              for s in combinations(range(n), k)}
    assert _wedge([sparse_vec(v) for v in vectors]) == {s: d for s, d in minors.items() if d}
    f = Cochain(k, n, 1, tuple((F(sum(s) + 1, 3),) for s in combinations(range(n), k)))
    assert f.evaluate(vectors) == _ref_evaluate(f, vectors)


def test_evaluate_keeps_its_fraction_reprs_and_its_input_error():
    """On random cochains with int and Fraction components, `evaluate` gives
    the reference's all-Fraction vector, repr for repr.  With one vector a
    coordinate longer than the algebra it raises InputError naming the first
    tuple of the wedge that reaches past the algebra, if there is one."""
    rng = random.Random(21)
    raised = 0
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 3)
        k = rng.randint(0, n)
        f = Cochain(k, n, m, tuple(tuple(rng.choice((0, 1, -2, F(1, 2), F(-3, 4)))
                                         for _ in range(m)) for _ in combinations(range(n), k)))
        vectors = [tuple(rng.choice((0, 0, 1, -1, F(2, 3))) for _ in range(n)) for _ in range(k)]
        assert repr(f.evaluate(vectors)) == repr(_ref_evaluate(f, vectors))
        if not k:
            continue
        p = rng.randrange(k)
        vectors[p] += (rng.choice((1, F(-1, 2))),)
        past = [s for s in _wedge([sparse_vec(v) for v in vectors]) if s[-1] >= n]
        if past:
            with pytest.raises(InputError) as exc:
                f.evaluate(vectors)
            assert str(exc.value) == f"not an increasing {k}-tuple below {n}: {past[0]}"
            raised += 1
        else:
            f.evaluate(vectors)
    assert raised > 100
    with pytest.raises(InputError, match="expected 2 arguments"):
        Cochain(2, 3, 1, ((1,), (2,), (3,))).evaluate([(1, 0, 0)])


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(entry, min_size=n, max_size=n), st.randoms(use_true_random=False))))
@settings(max_examples=150, deadline=None)
def test_spectator_wedges_match_a_direct_wedge(case):
    """Λφ(e_s), memoised per tuple and built from its tail, is `_wedge` of
    φ's columns; the bracket vector wedged into it, sign included, is
    `_wedge` with that vector first.  The tuples come in random order, so
    later ones reuse the memo."""
    data, b, rng = case
    n = len(b)
    phi = Matrix(n, n, data)
    cols = [sparse_vec(phi.column(i)) for i in range(n)]
    v = sparse_vec(b)
    wedge = _phi_wedges(phi)
    tuples = [s for j in range(n + 1) for s in combinations(range(n), j)]
    rng.shuffle(tuples)
    for s in tuples:
        assert wedge(s) == _wedge([cols[i] for i in s])
        assert _wedge_into(v, wedge(s)) == _wedge([v] + [cols[i] for i in s])


def arbitrary_action(rng, g):
    """A module of dimension 1 or 2 with random twist and action, valid or not."""
    m = rng.randint(1, 2)
    def rnd():
        return Matrix(m, m, [[rnd_frac(rng, -2, 2) for _ in range(m)] for _ in range(m)])
    return Representation(g, m, rnd(), tuple(rnd() for _ in range(g.dim)))


def reference_coboundary_matrix(rep, k):
    """d_k column by column: the reference coboundary of each unit cochain."""
    n, m = rep.algebra.dim, rep.module_dim
    units = [Cochain(k, n, m, tuple(tuple(F(int(t * m + a == j)) for a in range(m))
                                   for t in range(comb(n, k))))
             for j in range(comb(n, k) * m)]
    return Matrix.from_columns([reference_coboundary(u, rep).coords() for u in units],
                               rows=comb(n, k + 1) * m)


def test_builders_are_repr_identical_to_the_references():
    rng = random.Random(20261019)
    cases = 0
    for g in [random_algebra(rng) for _ in range(10)] + [sl2_example()]:
        for rep in (trivial_representation(g), adjoint_representation(g),
                    random_representation(rng, g), arbitrary_action(rng, g)):
            for k in range(g.dim + 2):
                assert repr(hom_cochain_basis(rep, k)) == repr(reference_hom_basis(rep, k))
                assert repr(coboundary_matrix(rep, k)) == repr(reference_coboundary_matrix(rep, k))
                cases += 1
    assert cases >= 150


def test_coboundary_matrix_where_spectator_tuples_recur():
    """In sl(2)^2 the spectators of d_k's bracket term recur across (k+1)-tuples
    with pair signs of both parities, which the algebras above of dimension
    at most 4 do not show: d_k against the reference at every degree."""
    rep = trivial_representation(sl2_sum(2))
    for k in range(8):
        assert repr(coboundary_matrix(rep, k)) == repr(reference_coboundary_matrix(rep, k))


def test_coboundaries_apply_the_rows_as_the_dense_matrix_does():
    """`coboundary`, `degree0_coboundary` and the closedness test of
    `class_is_trivial` apply the map of d_k with `_ap`; each answer is that of
    `coboundary_matrix(r, k).apply`, repr for repr (an entry is an int where
    every product is of integral entries)."""
    rng = random.Random(20261020)
    types, cases = set(), 0
    for g in [random_algebra(rng) for _ in range(8)] + [sl2_example(), sl2_sum(2)]:
        for rep in (trivial_representation(g), adjoint_representation(g),
                    random_representation(rng, g), arbitrary_action(rng, g)):
            n, m = g.dim, rep.module_dim
            for k in range(min(n, 4) + 1):
                for f in hom_cochain_basis(rep, k)[:2] + [random_hom_cochain(rng, rep, k)]:
                    want = coboundary_matrix(rep, k).apply(f.coords())
                    got = coboundary(f, rep) if k else degree0_coboundary(f.coords(), rep)
                    assert repr(got) == repr(cochain_from_coords(k + 1, n, m, want))
                    if k and any(want):
                        with pytest.raises(PreconditionError, match="closed cochain"):
                            class_is_trivial(f, rep)
                    elif k:
                        class_is_trivial(f, rep)            # closed, so it answers
                    types |= set(map(type, want))
                    cases += 1
                # any vector, integral Fractions included, against the dense product
                d = coboundary_matrix(rep, k)
                v = tuple(rng.choice((F(0), F(1), F(-2), F(1, 2))) for _ in range(d.cols))
                got = from_dok(_ap(_coboundary(rep, k), ("", dok(v)))[1], (d.rows,))
                assert repr(got) == repr(d.apply(v))
    assert cases >= 200 and types == {int, Fraction}


@pytest.mark.parametrize("k", [2 ** 63 - 1, 10 ** 20])
def test_huge_degrees_have_no_tuples(k, monkeypatch):
    """No k-tuple exists, so nothing is enumerated and no power of phi is taken."""
    def refuse(*args):
        raise AssertionError("phi^(k-1) computed although no (k+1)-tuple exists")
    monkeypatch.setattr(cohomology, "_ap", refuse)   # phi^(k-1) is k-1 products by `_ap`
    rep = adjoint_representation(sl2_example())
    assert cohomology_dims(rep, k) == (0, 0, 0, 0)
    assert hom_cochain_basis(rep, k) == []
    assert coboundary_matrix(rep, k).shape() == (0, 0)
    assert zero_cochain(k, 3, 3).comps == ()


# -- Cochain storage and arithmetic ----------------------------------------------

@pytest.mark.parametrize("comps, where", [
    (((F(3, 2),), (1.5,)), "comps[1][0]: cannot interpret float"),
    (((0,), ("x",)), "comps[1][0]: bad rational literal 'x'"),
    (((True,), (0,)), "comps[0][0]: cannot interpret bool"),
    (((0,), (1, 2)), "comps[1]: expected length 1, got 2"),
    (((0,), (1,), (2,)), "comps: expected length 2, got 3"),
])
def test_cochain_refuses_what_is_not_its_shape_of_rationals(comps, where):
    with pytest.raises(InputError, match="^" + where.replace("[", "\\[")):
        Cochain(1, 2, 1, comps)


def test_cochain_stores_fractions():
    f = Cochain(1, 3, 2, [[1, "1/2"], (0, F(-3)), (F(4, 2), -7)])
    assert all(type(x) is Fraction for c in f.comps for x in c)
    assert f.comps == ((1, F(1, 2)), (0, -3), (2, -7))
    assert type(zero_cochain(2, 3, 2).comps[0][0]) is Fraction


@given(st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_cochain_arithmetic_matches_the_dense_references(seed):
    """`+`, `-` and `scale` against entry-by-entry Fraction sums, repr for repr,
    on random shapes, the empty ones included."""
    rng = random.Random(seed)
    n, m = rng.randint(0, 4), rng.randint(0, 3)
    k = rng.randint(0, n + 1)
    f, g = (Cochain(k, n, m, [[rng.choice((0, 0, 1, -2, F(1, 2), F(-3, 4))) for _ in range(m)]
                              for _ in combinations(range(n), k)]) for _ in range(2))
    c = rng.choice((0, 1, -1, 3, F(2, 3), "-5/4"))
    dense = (lambda comps: Cochain(k, n, m, [tuple(map(Fraction, x)) for x in comps]))
    assert repr(f + g) == repr(dense([vadd(a, b) for a, b in zip(f.comps, g.comps)]))
    assert repr(f - g) == repr(dense([vadd(a, vneg(b)) for a, b in zip(f.comps, g.comps)]))
    assert repr(f.scale(c)) == repr(dense([[F(c) * x for x in a] for a in f.comps]))
    assert (f - f).is_zero() and f.scale(0).is_zero()
    assert f.is_zero() == all(x == 0 for a in f.comps for x in a)
    with pytest.raises(InputError, match="cochain shape mismatch"):
        f + Cochain(k, n, m + 1, [[0] * (m + 1) for _ in combinations(range(n), k)])
