import operator
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from helpers import (reference_inverse, reference_matmul, reference_rank_and_kernel,
                     reference_rref, reference_solve_linear, sl2_sum)
from homlie2.cohomology import (_hom_system, adjoint_representation, coboundary_matrix,
                                trivial_representation)
from homlie2.errors import InputError
from homlie2.exactlin import (Matrix, _rref, det_of, dok, from_dok, in_span, inverse, rank,
                              rank_and_kernel, rat, solve_linear, vec)

F = Fraction


def test_rank_and_kernel_identity():
    r, ker = rank_and_kernel(Matrix.identity(2))
    assert r == 2 and ker == []


def test_rank_and_kernel_zero():
    r, ker = rank_and_kernel(Matrix.zeros(2, 2))
    assert r == 0 and len(ker) == 2


def test_rank_and_kernel_rank_one():
    # hand Gaussian elimination: [[1,2],[2,4]] -> rank 1, kernel spanned by (2,-1)
    m = Matrix(2, 2, [[1, 2], [2, 4]])
    r, ker = rank_and_kernel(m)
    assert r == 1 and len(ker) == 1
    v = ker[0]
    assert v[0] * F(-1) == v[1] * F(2)  # proportional to (2, -1)
    assert m.apply(v) == (F(0), F(0))


def test_solve_identity():
    b = (F(3), F(-7))
    assert solve_linear(Matrix.identity(2), b) == b


def test_solve_zero_matrix_inconsistent():
    assert solve_linear(Matrix.zeros(2, 2), (F(1), F(0))) is None


def test_solve_back_substitution():
    # [[1,1],[0,1]] x = (3,1)  =>  x = (2,1)
    x = solve_linear(Matrix(2, 2, [[1, 1], [0, 1]]), (F(3), F(1)))
    assert x == (F(2), F(1))


def test_solve_shape_mismatch():
    with pytest.raises(InputError):
        solve_linear(Matrix.identity(2), (F(1),))


def test_in_span_cases():
    assert in_span([], (F(0), F(0)))
    assert not in_span([], (F(1),))
    assert not in_span([(F(1), F(0))], (F(0), F(1)))
    # (5,3) = 4*(1,1) + 1*(1,-1)
    assert in_span([(F(1), F(1)), (F(1), F(-1))], (F(5), F(3)))


def test_in_span_coerces_its_target_with_or_without_vectors():
    """A zero written as literals lies in every span, the empty one too; a bad
    literal is an input error even where there is nothing to span."""
    assert in_span([], ("0", "0")) and in_span([(1, 0)], ("0", "0"))
    assert not in_span([], ("1/2",)) and in_span([(F(1),)], ("1/2",))
    for vectors in ([], [(F(1),)]):
        with pytest.raises(InputError, match="bad rational literal"):
            in_span(vectors, ("x",))


def test_bool_is_not_a_rational():
    for bad in (True, False):
        with pytest.raises(InputError):
            rat(bad)
    with pytest.raises(InputError):
        Matrix(1, 1, [[True]])


def test_rat_keeps_its_values_and_types():
    """The exact-class fast paths for int and Fraction give what the
    isinstance chain gives: an int subclass and a huge int are coerced as ints
    are, small values come out shared, and a Fraction comes back as itself."""
    class Int(int):
        pass

    for x, want, shared in ((Int(5), F(5), True), (Int(100), F(100), False),
                            (10 ** 30, F(10 ** 30), False), (-10 ** 30, F(-10 ** 30), False),
                            ("-12/3", F(-4), True), (3, F(3), True), (-17, F(-17), False)):
        got = rat(x)
        assert got == want and type(got) is F and type(got.numerator) is int
        assert (rat(x) is got) == shared
    q = F(7, 3)
    assert rat(q) is q
    assert vec([Int(2), "1/2", q]) == (F(2), F(1, 2), q) and vec(iter([1])) == (F(1),)
    for bad in (True, 1.5, None):
        with pytest.raises(InputError, match="cannot interpret"):
            rat(bad)


def test_inverse_and_det():
    m = Matrix(2, 2, [[1, 2], [3, 5]])
    assert m * inverse(m) == Matrix.identity(2)
    assert det_of(m.data) == F(-1)
    with pytest.raises(InputError):
        inverse(Matrix(2, 2, [[1, 2], [2, 4]]))


small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m),
                           min_size=n, max_size=n)))


@given(small_matrix)
@settings(max_examples=80, deadline=None)
def test_rank_equals_transpose_rank(rows):
    m = Matrix.from_rows(rows)
    assert rank(m) == rank(m.transpose())


@given(small_matrix)
@settings(max_examples=80, deadline=None)
def test_kernel_vectors_annihilate(rows):
    m = Matrix.from_rows(rows)
    r, ker = rank_and_kernel(m)
    assert r + len(ker) == m.cols
    for v in ker:
        assert all(x == 0 for x in m.apply(v))


@given(small_matrix, st.lists(st.integers(-4, 4), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_solve_substitutes_exactly(rows, xs):
    m = Matrix.from_rows(rows)
    x = tuple(F(v) for v in (xs * m.cols)[:m.cols])
    b = m.apply(x)
    sol = solve_linear(m, b)
    assert sol is not None
    assert m.apply(sol) == b


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_in_span_matches_solve(rows):
    m = Matrix.from_rows(rows)
    cols = m.columns()
    target = m.apply(tuple(F(1) for _ in range(m.cols)))
    assert in_span(cols, target)


# --------------------------------------------------------------------------
# The integer elimination kernel against the Fraction reference and sympy
# --------------------------------------------------------------------------

entries = st.one_of(st.just(F(0)), st.builds(F, st.integers(-6, 6), st.integers(1, 7)))


@st.composite
def rational_matrices(draw, max_rows=8, max_cols=10, square=False):
    """Rational matrices up to max_rows x max_cols, empty shapes included;
    about half the rows after the second are combinations of earlier rows."""
    rows = draw(st.integers(0, max_rows))
    cols = rows if square else draw(st.integers(0, max_cols))
    data = []
    for i in range(rows):
        if i >= 2 and draw(st.booleans()):
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            ca, cb = draw(entries), draw(entries)
            data.append([ca * x + cb * y for x, y in zip(data[a], data[b])])
        else:
            data.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    return Matrix(rows, cols, data)


def inverse_or_none(m):
    try:
        return inverse(m)
    except InputError:
        return None


def assert_matches_reference(m):
    assert repr(rank_and_kernel(m)) == repr(reference_rank_and_kernel(m))
    inside = m.apply(tuple(F(j + 1, 2) for j in range(m.cols)))
    assert repr(solve_linear(m, inside)) == repr(reference_solve_linear(m, inside))
    if m.rows == m.cols:
        assert repr(inverse_or_none(m)) == repr(reference_inverse(m))


@given(rational_matrices(), st.lists(entries, min_size=8, max_size=8))
@settings(max_examples=120, deadline=None)
def test_kernel_matches_reference(m, bs):
    assert_matches_reference(m)
    b = tuple(bs[:m.rows])
    assert repr(solve_linear(m, b)) == repr(reference_solve_linear(m, b))


@given(rational_matrices(square=True))
@settings(max_examples=60, deadline=None)
def test_inverse_matches_reference(m):
    assert repr(inverse_or_none(m)) == repr(reference_inverse(m))


@given(rational_matrices(), st.integers(0, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_product_matches_dense_reference(a, cols, data):
    """The `_ap` product against Σ_t a[i, t]·b[t, j] summed in Fractions."""
    b = Matrix(a.cols, cols, [[data.draw(entries) for _ in range(cols)] for _ in range(a.cols)])
    assert repr(a * b) == repr(reference_matmul(a, b))


def _entries(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


@given(rational_matrices(max_rows=5, max_cols=5), st.integers(0, 4), st.data())
@settings(max_examples=120, deadline=None)
def test_matrix_operators_match_dense_references(a, cols, data):
    """`*`, `+`, `-`, negation and transpose, each a `from_dok` of a `dok`
    expression, against entry-by-entry Fraction arithmetic on random shapes,
    0 rows or 0 columns among them: equal entries, all of them Fractions, and
    a kept `dok` equal to the one built from the rows."""
    b = Matrix(a.rows, a.cols, [[data.draw(entries) for _ in range(a.cols)]
                                for _ in range(a.rows)])
    c = Matrix(a.cols, cols, [[data.draw(entries) for _ in range(cols)] for _ in range(a.cols)])
    pairs = [(a * c, reference_matmul(a, c)),
             (a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(_entries(a), _entries(b))]),
             (a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(_entries(a), _entries(b))]),
             (-a, [[-x for x in r] for r in _entries(a)]),
             (a.transpose(), [[a[i, j] for i in range(a.rows)] for j in range(a.cols)])]
    for got, want in pairs:
        want = want if isinstance(want, Matrix) else Matrix(len(want), got.cols, want)
        assert got.shape() == want.shape() and _entries(got) == _entries(want)
        assert all(type(x) is Fraction for row in got.data for x in row)
        assert repr(got) == repr(want) and got == want and hash(got) == hash(want)
        assert dict(got.dok) == dict(dok(Matrix(got.rows, got.cols, _entries(got))))
    with pytest.raises(InputError, match="shape mismatch"):
        a + Matrix.zeros(a.rows, a.cols + 1)
    with pytest.raises(InputError, match="cannot multiply"):
        a * Matrix.zeros(a.cols + 1, 1)


def test_matrix_from_dok_keeps_its_map_as_dok():
    t = {(0, 1): 2, (2, 0): F(1, 2), (1, 1): F(6, 3), (0, 0): 0}
    m = Matrix.from_dok(t, 2, 3)
    assert _entries(m) == [[0, 0, F(1, 2)], [2, 2, 0]]
    assert all(type(x) is Fraction for row in m.data for x in row)
    assert m.dok is m.dok and dict(m.dok) == {(0, 1): 2, (2, 0): F(1, 2), (1, 1): 2}
    assert type(m.dok[1, 1]) is int
    assert m == Matrix(2, 3, [[0, 0, "1/2"], [2, 2, 0]])
    with pytest.raises(TypeError):
        m.dok[0, 0] = 1
    kept = {(0, 0): 1, (1, 0): -1}
    assert Matrix.from_dok(kept, 2, 1).dok == kept
    for m in (Matrix.identity(3), Matrix.zeros(0, 2), Matrix.diagonal([1, "2/3"])):
        assert dict(m.dok) == dict(dok(Matrix(m.rows, m.cols, _entries(m))))


@given(rational_matrices(max_rows=5, max_cols=5))
@settings(max_examples=80, deadline=None)
def test_from_dok_matches_the_list_built_matrix(m):
    """Rows built straight from a map, with 0 rows or 0 columns among the
    shapes: the same repr, equality, hash, Fraction entries and `dok` as the
    matrix built from lists.  Zero entries and Fraction-typed integers in the
    map change nothing."""
    t = {(j, 0): 0 for j in range(m.cols) if m.rows} | {key: F(x) for key, x in dok(m).items()}
    for built in (Matrix.from_dok(dok(m), m.rows, m.cols), Matrix.from_dok(t, m.rows, m.cols)):
        assert repr(built) == repr(m) and built == m and hash(built) == hash(m)
        assert all(type(x) is Fraction for row in built.data for x in row)
        assert dict(built.dok) == dict(dok(Matrix(m.rows, m.cols, _entries(m))))


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_from_dok_builds_empty_shapes_as_lists_do(shape):
    rows, cols = shape
    m = Matrix.from_dok({}, rows, cols)
    want = Matrix(rows, cols, [[0] * cols for _ in range(rows)])
    assert repr(m) == repr(want) and m == want and m.data == want.data
    assert dict(m.dok) == dict(want.dok) == {}


@pytest.mark.parametrize("other", [3, F(1, 2), "1", None, [[1, 0], [0, 1]]])
@pytest.mark.parametrize("symbol, op", [("+", operator.add), ("-", operator.sub)])
def test_matrix_plus_or_minus_a_non_matrix_is_a_type_error(symbol, op, other):
    m = Matrix.identity(2)
    with pytest.raises(TypeError, match=rf"unsupported operand type\(s\) for \{symbol}: 'Matrix'"):
        op(m, other)
    with pytest.raises(TypeError):
        op(other, m)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_shapes_match_reference(shape):
    m = Matrix.zeros(*shape)
    assert_matches_reference(m)
    b = tuple(F(i % 2) for i in range(m.rows))
    assert repr(solve_linear(m, b)) == repr(reference_solve_linear(m, b))


@pytest.mark.parametrize("c", [1, 2])
def test_cohomology_systems_match_reference(c):
    """The hom-cochain systems and the D_k·C_k products of sl(2)^c."""
    g = sl2_sum(c)
    for r in (trivial_representation(g), adjoint_representation(g)):
        # k = 3 stops at module dim 3: the adjoint sl(2)^2 system there is 120x120
        for k in range(4 if r.module_dim <= 3 else 3):
            size = comb(g.dim, k) * r.module_dim
            hom = Matrix.from_columns(from_dok(_hom_system(r, k), (size, size)), rows=size)
            assert_matches_reference(hom)
            kernel = Matrix.from_columns(rank_and_kernel(hom)[1], rows=hom.cols)
            assert_matches_reference(coboundary_matrix(r, k) * kernel)


def sympy_rref(m):
    dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in m.data],
                      m.shape(), QQ)
    rref, pivots = dm.rref()
    rows = [[F(int(x.numerator), int(x.denominator)) for x in r] for r in rref.to_list()]
    return list(pivots), rows[:len(pivots)]


@given(rational_matrices())
@settings(max_examples=80, deadline=None)
def test_rref_matches_sympy(m):
    pivots, rows = _rref(dok(m), m.cols)
    ours = [[F(row.get(j, 0), row[pc]) for j in range(m.cols)] for row, pc in zip(rows, pivots)]
    assert (pivots, ours) == sympy_rref(m)
    assert rank(m) == len(pivots)


@st.composite
def sparse_maps(draw):
    """(map keyed (column, row), ncols, row keys, total columns): sparse rows,
    some duplicated or scaled from an earlier row, over row keys with gaps
    (zero rows); some rows all ints, some with Fractions; 0-3 columns >= ncols
    ride along."""
    ncols, extra = draw(st.integers(1, 8)), draw(st.integers(0, 3))
    width = ncols + extra
    keys = sorted(draw(st.sets(st.integers(0, 14), max_size=9)))
    rows: dict = {}
    for i in keys:
        if rows and draw(st.integers(0, 3)) == 0:
            c = draw(st.sampled_from((1, -1, 2, F(1, 2))))
            rows[i] = [c * x for x in rows[draw(st.sampled_from(sorted(rows)))]]
        else:
            entry = entries if draw(st.booleans()) else st.integers(-4, 4)
            rows[i] = [draw(entry) if draw(st.integers(0, 2)) == 0 else 0 for _ in range(width)]
    t = {(j, i): (x.numerator if isinstance(x, F) and x.denominator == 1 else x)
         for i, row in rows.items() for j, x in enumerate(row) if x}
    return t, ncols, keys, width


@given(sparse_maps())
@settings(max_examples=200, deadline=None)
def test_rref_matches_reference_on_sparse_maps(case):
    """`_rref` on maps whose elimination fills in new columns, with duplicate
    and zero rows, against Gauss–Jordan on the dense rows: the same pivots and
    the same RREF on the columns < ncols.  The columns >= ncols ride along:
    the rows returned span the input's rows, the rows past the pivots are zero
    below ncols, and a pivot row differs from the reference's only by the span
    of the reference's rows past the pivots."""
    t, ncols, keys, width = case
    dense = [[F(t.get((j, i), 0)) for j in range(width)] for i in range(max(keys, default=-1) + 1)]
    ref = [list(r) for r in dense]
    ref_pivots = reference_rref(ref, ncols)
    pivots, rows = _rref(t, ncols)
    assert pivots == ref_pivots
    assert len(rows) == len({i for _, i in t})
    assert all(type(x) is int and x for row in rows for x in row.values())
    ours = [[F(row.get(j, 0), row[pc]) for j in range(width)] for row, pc in zip(rows, pivots)]
    rest = [[F(row.get(j, 0)) for j in range(width)] for row in rows[len(pivots):]]
    assert [r[:ncols] for r in ours] == [r[:ncols] for r in ref[:len(pivots)]]
    assert all(not any(r[:ncols]) for r in rest)

    def rank_of(vectors):
        return reference_rank_and_kernel(Matrix(len(vectors), width, vectors))[0]

    assert rank_of(ours + rest) == rank_of(dense) == rank_of(dense + ours + rest)
    ref_rest = ref[len(pivots):]
    for mine, theirs in zip(ours, ref):
        diff = [a - b for a, b in zip(mine, theirs)]
        assert rank_of(ref_rest + [diff]) == rank_of(ref_rest)
