"""Every record field is shape-checked one way.

A tensor field goes through `exactlin.as_tensor`: data longer than its
field's shape at any level is refused with an InputError naming the index,
never truncated, and a Tensor gives the outcome its plain nested tuples
give.  A matrix field goes through `exactlin.require_shape`: a nested list
or a Matrix of another shape is an InputError, never an AttributeError.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from homlie2.cohomology import Representation
from homlie2.constructions import (CrossedModule, HomLeftSymmetric, QuadraticHomLie,
                                   SymplecticHomLie, leftsym_d_report)
from homlie2.errors import InputError
from homlie2.exactlin import Matrix, Tensor, from_dok
from homlie2.hl2 import HLMorphism, HomLie2Data, TwoTermHL
from homlie2.homlie import HomLieAlgebra, HomLieMorphism
from homlie2.twovect import TwoVectorSpace, check_linear_functor, from_complex

N0, N1 = 3, 2   # distinct dimensions, so that no field fits another's shape


def _zeros(shape):
    return Tensor.from_dok({}, shape)


def _records():
    """One record of each kind, with every dimension distinct where it may be."""
    g = HomLieAlgebra(N0, _zeros((N0,) * 3), Matrix.identity(N0))
    h = HomLieAlgebra(N1, _zeros((N1,) * 3), Matrix.identity(N1))
    v = TwoTermHL(N0, N1, Matrix.zeros(N0, N1), _zeros((N0,) * 3), _zeros((N0, N1, N1)),
                  _zeros((N0, N0, N0, N1)), Matrix.identity(N0), Matrix.identity(N1))
    w = TwoTermHL(N1, N0, Matrix.zeros(N1, N0), _zeros((N1,) * 3), _zeros((N1, N0, N0)),
                  _zeros((N1, N1, N1, N0)), Matrix.identity(N1), Matrix.identity(N0))
    nm = N0 + N1
    return [
        g,
        HomLieMorphism(g, h, Matrix.zeros(N1, N0)),
        v,
        HLMorphism(v, w, Matrix.zeros(N1, N0), Matrix.zeros(N0, N1), _zeros((N0, N0, N0))),
        HomLie2Data(from_complex(v.d), _zeros((N0,) * 3), _zeros((nm,) * 3),
                    Matrix.identity(N0), Matrix.identity(nm), _zeros((N0, N0, N0, N1))),
        Representation(g, N1, Matrix.identity(N1), (Matrix.zeros(N1, N1),) * N0),
        QuadraticHomLie(g, Matrix.identity(N0)),
        CrossedModule(h, g, Matrix.zeros(N0, N1), (Matrix.zeros(N1, N1),) * N0),
        HomLeftSymmetric(N0, _zeros((N0,) * 3), Matrix.identity(N0)),
        SymplecticHomLie(g, Matrix.identity(N0)),
        TwoVectorSpace(N0, N1, Matrix.zeros(N0, N1)),
    ]


def _fields(kind):
    return [(r, f.name, getattr(r, f.name)) for r in _records() for f in dataclasses.fields(r)
            if isinstance(getattr(r, f.name), kind)]


def _shape(t) -> tuple:
    shape = []
    while isinstance(t, tuple):
        shape.append(len(t))
        t = t[0]
    return tuple(shape)


def _lists(t):
    return [_lists(x) for x in t] if isinstance(t, tuple) else t


TENSOR_FIELDS = [(type(r).__name__, name, r, _shape(t)) for r, name, t in _fields(Tensor)]
MATRIX_FIELDS = [(type(r).__name__, name, r, m) for r, name, m in _fields(Matrix)]


def test_the_tables_cover_every_field():
    assert len(TENSOR_FIELDS) == 9 and len(MATRIX_FIELDS) == 15


@pytest.mark.parametrize("kind, field, record, shape", TENSOR_FIELDS,
                         ids=[f"{k}.{f}" for k, f, _, _ in TENSOR_FIELDS])
def test_over_long_tensor_data_is_refused_at_every_level(kind, field, record, shape):
    for level in range(len(shape)):
        data = _lists(getattr(record, field))
        node = data
        for _ in range(level):
            node = node[-1]
        node.append(node[0])                  # one entry too many at the last index path
        where = "".join(f"[{d - 1}]" for d in shape[:level])
        with pytest.raises(InputError) as exc:
            dataclasses.replace(record, **{field: data})
        assert str(exc.value) == (
            f"{field}{where}: expected length {shape[level]}, got {shape[level] + 1}")
    with pytest.raises(InputError) as exc:
        dataclasses.replace(record, **{field: 0})
    assert str(exc.value) == f"{field}: expected length {shape[0]}, got int"


@pytest.mark.parametrize("kind, field, record, shape", TENSOR_FIELDS,
                         ids=[f"{k}.{f}" for k, f, _, _ in TENSOR_FIELDS])
def test_a_longer_tensor_fails_as_its_nested_tuples_do(kind, field, record, shape):
    rng = random.Random(len(shape))
    for level in range(len(shape)):
        longer = tuple(d + (k == level) for k, d in enumerate(shape))
        t = Tensor.from_dok({(*map(rng.randrange, longer),): Fraction(1, 2)}, longer)
        plain = from_dok({key: Fraction(c) for key, c in t.dok.items()}, longer, Fraction(0))
        messages = []
        for data in (t, plain):
            with pytest.raises(InputError) as exc:
                dataclasses.replace(record, **{field: data})
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith(f"expected length {shape[level]}, got {shape[level] + 1}")


BAD_RATIONALS = [("x", "bad rational literal 'x'"), (1.5, "cannot interpret float as a rational"),
                 (True, "cannot interpret bool True as a rational")]


@pytest.mark.parametrize("kind, field, record, shape", TENSOR_FIELDS,
                         ids=[f"{k}.{f}" for k, f, _, _ in TENSOR_FIELDS])
@pytest.mark.parametrize("bad, says", BAD_RATIONALS, ids=["str", "float", "bool"])
def test_a_bad_rational_in_a_tensor_field_names_its_index(kind, field, record, shape, bad, says):
    data = _lists(getattr(record, field))
    node = data
    for _ in range(len(shape) - 1):
        node = node[-1]
    node[-1] = bad                            # the last entry in row-major order
    with pytest.raises(InputError) as exc:
        dataclasses.replace(record, **{field: data})
    where = "".join(f"[{d - 1}]" for d in shape)
    assert str(exc.value).startswith(f"{field}{where}: {says}")


@pytest.mark.parametrize("bad, says", BAD_RATIONALS, ids=["str", "float", "bool"])
def test_a_bad_rational_in_a_matrix_names_its_index(bad, says):
    with pytest.raises(InputError) as exc:
        Matrix(1, 1, [[bad]])
    assert str(exc.value).startswith(f"matrix[0][0]: {says}")
    with pytest.raises(InputError) as exc:
        Matrix(2, 3, [[0, "1/2", 1], [2, bad, 0]])
    assert str(exc.value).startswith(f"matrix[1][1]: {says}")
    with pytest.raises(InputError) as exc:
        HomLieAlgebra(1, [[[bad]]], Matrix.identity(1))
    assert str(exc.value).startswith(f"bracket[0][0][0]: {says}")


def _misshapen(m: Matrix):
    """(a nested list, one row more, one column more) with what the message says of each."""
    return (([list(r) for r in m.data], "list"),
            (Matrix.zeros(m.rows + 1, m.cols), f"{m.rows + 1}x{m.cols}"),
            (Matrix.zeros(m.rows, m.cols + 1), f"{m.rows}x{m.cols + 1}"))


@pytest.mark.parametrize("kind, field, record, m", MATRIX_FIELDS,
                         ids=[f"{k}.{f}" for k, f, _, _ in MATRIX_FIELDS])
def test_a_misshapen_matrix_field_is_an_input_error(kind, field, record, m):
    for bad, got in _misshapen(m):
        with pytest.raises(InputError) as exc:
            dataclasses.replace(record, **{field: bad})
        assert str(exc.value) == f"{field}: expected a {m.rows}x{m.cols} Matrix, got {got}"


@pytest.mark.parametrize("field", ["rho", "action"])
def test_each_matrix_of_a_tuple_field_is_checked(field):
    record = next(r for r in _records() if hasattr(r, field))
    ms = getattr(record, field)
    for i in range(len(ms)):
        for bad, got in _misshapen(ms[i]):
            with pytest.raises(InputError) as exc:
                dataclasses.replace(record, **{field: ms[:i] + (bad,) + ms[i + 1:]})
            assert str(exc.value) == f"{field}[{i}]: expected a {N1}x{N1} Matrix, got {got}"
    with pytest.raises(InputError, match="one action matrix per basis element"):
        dataclasses.replace(record, **{field: ms[1:]})


def test_the_matrix_arguments_of_the_checks_are_shape_checked():
    a = next(r for r in _records() if isinstance(r, HomLeftSymmetric))
    tvs = TwoVectorSpace(N0, N1, Matrix.zeros(N0, N1))
    id0, id1 = Matrix.identity(N0), Matrix.identity(N1)
    for bad, got in _misshapen(id0):
        with pytest.raises(InputError, match=f"^d: expected a {N0}x{N0} Matrix, got {got}$"):
            leftsym_d_report(a, bad)
        with pytest.raises(InputError, match=f"^A0: expected a {N0}x{N0} Matrix, got {got}$"):
            check_linear_functor((bad, id1), tvs)
    for bad, got in _misshapen(id1):
        with pytest.raises(InputError, match=f"^A1: expected a {N1}x{N1} Matrix, got {got}$"):
            check_linear_functor((id0, bad), tvs)
    assert leftsym_d_report(a, id0).ok and check_linear_functor((id0, id1), tvs)
