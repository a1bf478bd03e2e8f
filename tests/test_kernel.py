"""Evaluation on dicts of keys against the dense Fraction reference.

`bilinear_eval`, `trilinear_eval` and `Matrix.apply`, each one `_ap` over
`dok`, must return vectors equal (==) to the reference loops in
`tests/helpers.py`, holding only ints and Fractions, never a float, and
`dual_representation` must give what its old pairing gate gave.  `from_dok`
inverts `dok` on nested tuples, and a `Tensor` or a `Matrix` keeps its `dok`
read-only.
Every structure the constructors build must still hold only Fractions.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (random_algebra, random_representation, reference_apply,
                     reference_bilinear_eval, reference_dual_gate,
                     reference_dual_representation, reference_trilinear_eval)
from homlie2.cohomology import Representation, dual_representation
from homlie2.constructions import (l3_from_B, quadratic, sl2_example, strict_to_crossed,
                                   string_from_semisimple)
from homlie2.homlie import abelian_algebra, killing_form
from homlie2.exactlin import F0, F1, Matrix, Tensor, as_tensor, dok, from_dok, rat, sparse_vec
from homlie2.hl2 import (HLMorphism, TwoTermHL, compose_hl_morphisms,
                         functor_S, functor_T, identity_hl_morphism, trilinear_eval)
from homlie2.homlie import bilinear_eval

F = Fraction

# zero, integral and non-integral entries with denominators up to 7
NONZERO = sorted({F(p, q) for p in range(-6, 7) for q in range(1, 8)} - {0})
entries = st.one_of(st.sampled_from(NONZERO), st.just(F(0)))
dims = st.integers(0, 4)


@st.composite
def vectors(draw, n):
    """A dense, unit or zero rational vector of length n."""
    kind = draw(st.sampled_from(("dense", "unit", "zero")))
    if kind == "zero" or n == 0:
        return (F0,) * n
    if kind == "unit":
        i = draw(st.integers(0, n - 1))
        return tuple(F1 if t == i else F0 for t in range(n))
    return tuple(draw(st.lists(entries, min_size=n, max_size=n)))


def nested(draw, shape):
    if len(shape) == 1:
        return draw(st.lists(entries, min_size=shape[0], max_size=shape[0]))
    return [nested(draw, shape[1:]) for _ in range(shape[0])]


def assert_exact(got, want):
    assert got == want
    assert all(type(x) in (int, Fraction) for x in got)


@given(st.data(), dims, dims, dims)
@settings(max_examples=150, deadline=None)
def test_bilinear_matches_reference(data, n0, n1, out):
    x, y = data.draw(vectors(n0)), data.draw(vectors(n1))
    t = as_tensor(nested(data.draw, (n0, n1, out)), (n0, n1, out), "t")
    want = reference_bilinear_eval(t, x, y, out)
    assert_exact(bilinear_eval(t, x, y, out), want)
    # a plain nested tuple is evaluated too, without a kept dok
    assert_exact(bilinear_eval(tuple(t), x, y, out), want)


@given(st.data(), dims, dims)
@settings(max_examples=150, deadline=None)
def test_trilinear_matches_reference(data, n, out):
    x, y, z = (data.draw(vectors(n)) for _ in range(3))
    t = as_tensor(nested(data.draw, (n, n, n, out)), (n, n, n, out), "t")
    assert_exact(trilinear_eval(t, x, y, z, out), reference_trilinear_eval(t, x, y, z, out))


@given(st.data(), dims, dims)
@settings(max_examples=150, deadline=None)
def test_apply_matches_reference(data, rows, cols):
    v = data.draw(vectors(cols))
    m = Matrix(rows, cols, nested(data.draw, (rows, cols)) if rows else [])
    assert_exact(m.apply(v), reference_apply(m, v))


@given(st.data(), st.lists(dims, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_from_dok_inverts_dok(data, shape):
    """Zero dimensions, all-zero leaves and all-zero tensors included."""
    leaf = st.sampled_from(("zero", "drawn"))

    def tensor(dims):
        if len(dims) == 1:
            if data.draw(leaf) == "zero":
                return (F0,) * dims[0]
            return tuple(data.draw(st.lists(entries, min_size=dims[0], max_size=dims[0])))
        return tuple(tensor(dims[1:]) for _ in range(dims[0]))

    t = tensor(shape)
    assert from_dok(dok(t), shape) == t
    assert from_dok(dok(Tensor(t)), shape) == t


def _dual_candidates(rng):
    """Representations whose duals exist, fail the pairing gate, or pass the
    gate and fail twist-compatibility (abelian, one square-zero action)."""
    for _ in range(100):
        g = random_algebra(rng)
        r = random_representation(rng, g)
        yield r
        m = r.module_dim
        rho = [list(map(list, t.data)) for t in r.rho]
        rho[rng.randrange(g.dim)][rng.randrange(m)][rng.randrange(m)] += rng.choice(NONZERO)
        yield Representation(g, m, r.A, tuple(Matrix(m, m, t) for t in rho))
        n = rng.randint(1, 3)
        phi = Matrix(n, n, [[rng.choice(NONZERO + [F0] * 20) for _ in range(n)] for _ in range(n)])
        a = Matrix(2, 2, [[rng.choice(NONZERO + [F0] * 4) for _ in range(2)] for _ in range(2)])
        action = Matrix(2, 2, [[0, rng.choice(NONZERO)], [0, 0]])
        yield Representation(abelian_algebra(n, phi), 2, a,
                             (action,) + tuple(Matrix.zeros(2, 2) for _ in range(n - 1)))


def test_dual_matches_the_gated_reference():
    seen = set()
    for r in _dual_candidates(random.Random(7)):
        want = reference_dual_representation(r)
        assert repr(dual_representation(r)) == repr(want)
        seen.add("exists" if want else "gate" if not reference_dual_gate(r) else "full-check")
    assert seen == {"exists", "gate", "full-check"}


def test_int_inputs_give_int_results():
    m = Matrix(2, 2, [[1, 2], [0, F(1, 2)]])
    assert m.apply((3, 0)) == (3, 0) and all(type(x) is int for x in m.apply((3, 0)))
    assert m.apply((0, 2)) == (4, 1)
    assert type(m.apply((0, 2))[0]) is int


def test_sparse_vec_is_int_where_integral():
    assert sparse_vec((F0, F(3), F(1, 2), 0, -2)) == ((1, 3), (2, F(1, 2)), (4, -2))
    assert type(sparse_vec((F(3),))[0][1]) is int
    assert sparse_vec((F0, F0)) == ()


def test_tensor_behaves_as_its_tuple():
    plain = (((F1, F0), (F0, F0)),)
    t = Tensor(plain)
    assert t == plain and hash(t) == hash(plain) and repr(t) == repr(plain)
    assert dict(t.dok) == {(0, 0, 0): 1} and type(t.dok[0, 0, 0]) is int
    assert t.dok is t.dok
    with pytest.raises(TypeError):
        t.dok[0, 1, 0] = 1


def test_matrix_keeps_its_dok():
    """A Matrix builds its map once, from the coerced data, read-only; whether
    it has been built changes neither equality, hash nor immutability."""
    m = Matrix(2, 3, [["1/2", 3, 0], [0, "-4/2", F(6, 3)]])
    assert dict(dok(m)) == {(0, 0): F(1, 2), (1, 0): 3, (1, 1): -2, (2, 1): 2}
    assert [type(x) for x in dok(m).values()] == [F, int, int, int]
    assert list(dok(m)) == [(0, 0), (1, 0), (1, 1), (2, 1)]   # column by column
    assert dok(m) is dok(m) is m.dok
    with pytest.raises(TypeError):
        dok(m)[0, 1] = 1
    fresh = Matrix(2, 3, [[F(1, 2), 3, 0], [0, -2, 2]])
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    for name in ("data", "_dok", "rows"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(m, name, None)
    assert dict(dok(Matrix.zeros(0, 2))) == {} and dict(dok(Matrix.zeros(2, 0))) == {}


def test_rat_shares_small_integers():
    assert rat(3) is rat("3") is rat("6/2")
    assert rat(0) is F0 and rat(1) is F1
    assert rat(17) == F(17) and rat("-16") is rat(-16)
    assert Matrix(1, 2, [[2, "1/2"]]).data == ((F(2), F(1, 2)),)


# --------------------------------------------------------------------------
# Stored structures stay all-Fraction
# --------------------------------------------------------------------------

def leaves(obj):
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if not isinstance(value, int):   # dimensions
                yield from leaves(value)
    elif isinstance(obj, Matrix):
        for row in obj.data:
            yield from row
    elif isinstance(obj, tuple):
        for x in obj:
            yield from leaves(x)
    else:
        yield obj


def assert_all_fraction(obj):
    found = list(leaves(obj))
    assert found and all(type(x) is Fraction for x in found)


def test_built_structures_hold_only_fractions():
    v = string_from_semisimple(sl2_example())
    assert_all_fraction(v)
    L = functor_T(v)
    assert_all_fraction(L)
    assert_all_fraction(functor_S(L))
    phi_endo = HLMorphism(v, v, v.phi0, Matrix.identity(1),
                          [[[0] for _ in range(3)] for _ in range(3)])
    assert_all_fraction(compose_hl_morphisms(phi_endo, phi_endo))
    assert_all_fraction(compose_hl_morphisms(identity_hl_morphism(v), phi_endo))

    g = sl2_example()
    zero_l3 = [[[[0] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
    shift = functor_S(functor_T(
        TwoTermHL(3, 3, Matrix.zeros(3, 3), g.bracket, g.bracket, zero_l3, g.phi, g.phi)))
    assert_all_fraction(shift)
    assert_all_fraction(strict_to_crossed(shift))
    assert_all_fraction(l3_from_B(quadratic(g, killing_form(g))))
