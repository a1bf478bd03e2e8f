"""2-vector spaces, and the 2-term DGLA structure on the endomorphisms of a
complex, checked identity by identity on a basis of samples."""

from fractions import Fraction

import pytest

from homlie2.errors import InputError
from homlie2.exactlin import F0, F1, Matrix, rank_and_kernel
from homlie2.reports import CheckReport, LawChecker
from homlie2.twovect import TwoVectorSpace, check_linear_functor, from_complex

F = Fraction


# --------------------------------------------------------------------------
# The endomorphism DGLA End(V): degree-0 functors (A0, A1) with A0∘d = d∘A1,
# degree-1 maps alpha in Hom(V0, V1), delta(alpha) = (d∘alpha, alpha∘d) and
# the graded commutator.  The laws hold for every complex, so these checks
# test the package's linear algebra rather than any input.
# --------------------------------------------------------------------------

def end0_basis(tvs: TwoVectorSpace) -> list[tuple[Matrix, Matrix]]:
    """Basis of the degree-0 endomorphisms {(A0,A1) : A0 d = d A1}."""
    n0, n1 = tvs.dim0, tvs.dim1
    unknowns = n0 * n0 + n1 * n1
    rows = []
    for i in range(n0):
        for j in range(n1):
            row = [F0] * unknowns
            for k in range(n0):
                if tvs.d[k, j] != 0:
                    row[i * n0 + k] += tvs.d[k, j]
            for k in range(n1):
                if tvs.d[i, k] != 0:
                    row[n0 * n0 + k * n1 + j] -= tvs.d[i, k]
            rows.append(row)
    if not rows:
        rows = [[F0] * unknowns]
    _, ker = rank_and_kernel(Matrix(len(rows), unknowns, rows))
    out = []
    for v in ker:
        a0 = Matrix(n0, n0, [[v[i * n0 + j] for j in range(n0)] for i in range(n0)])
        a1 = Matrix(n1, n1, [[v[n0 * n0 + i * n1 + j] for j in range(n1)] for i in range(n1)])
        out.append((a0, a1))
    return out


def end1_basis(tvs: TwoVectorSpace) -> list[Matrix]:
    """Basis of Hom(V0, V1): elementary matrices."""
    out = []
    for i in range(tvs.dim1):
        for j in range(tvs.dim0):
            out.append(Matrix(tvs.dim1, tvs.dim0,
                              [[F1 if (a, b) == (i, j) else F0 for b in range(tvs.dim0)]
                               for a in range(tvs.dim1)]))
    return out


def end_dgla_check(tvs: TwoVectorSpace,
                   functors: list[tuple[Matrix, Matrix]] | None = None,
                   homs: list[Matrix] | None = None) -> CheckReport:
    """Verify the 2-term DGLA structure on End(V) over the given samples.

    Defaults enumerate a basis of End^0_d and of End^1; the identities are
    multilinear, so basis samples are exhaustive.  Supplied degree-0 samples
    must already lie in End^0_d (input error otherwise).
    """
    if functors is None:
        functors = end0_basis(tvs)
    if homs is None:
        homs = end1_basis(tvs)
    for pair in functors:
        if not check_linear_functor(pair, tvs):
            raise InputError("sample is not in End^0_d (A0 d != d A1)")
    for alpha in homs:
        if alpha.shape() != (tvs.dim1, tvs.dim0):
            raise InputError("End^1 sample has wrong shape")
    d = tvs.d

    def delta(alpha: Matrix) -> tuple[Matrix, Matrix]:
        return (d * alpha, alpha * d)

    def brk0(a, b):
        return (a[0] * b[0] - b[0] * a[0], a[1] * b[1] - b[1] * a[1])

    def brk01(a, alpha):
        return a[1] * alpha - alpha * a[0]

    chk = LawChecker("end_dgla")
    chk.scan("delta-into-end0",
             (((i,), check_linear_functor(delta(al), tvs)) for i, al in enumerate(homs)))
    chk.scan("bracket-closes",
             (((i, j), check_linear_functor(brk0(a, b), tvs))
              for i, a in enumerate(functors) for j, b in enumerate(functors)))
    chk.scan("bracket-skew",
             (((i, j), brk0(a, b) == (-(brk0(b, a)[0]), -(brk0(b, a)[1])))
              for i, a in enumerate(functors) for j, b in enumerate(functors)))
    chk.scan("graded-leibniz",
             (((i, j), delta(brk01(a, al)) == brk0(a, delta(al)))
              for i, a in enumerate(functors) for j, al in enumerate(homs)))

    def jacobi0(a, b, c):
        lhs = brk0(brk0(a, b), c)
        rhs = brk0(a, brk0(b, c))
        mid = brk0(b, brk0(a, c))
        return lhs == (rhs[0] - mid[0], rhs[1] - mid[1])

    chk.scan("jacobi-degree0",
             (((i, j, k), jacobi0(a, b, c))
              for i, a in enumerate(functors) for j, b in enumerate(functors)
              for k, c in enumerate(functors)))
    def jacobi_mixed(a, b, al):
        # [A,[B,alpha]] - [B,[A,alpha]] = [[A,B],alpha], with [A,alpha] = A1∘alpha - alpha∘A0
        lhs = a[1] * brk01(b, al) - brk01(b, al) * a[0]
        mid = b[1] * brk01(a, al) - brk01(a, al) * b[0]
        return lhs - mid == brk01(brk0(a, b), al)

    chk.scan("jacobi-mixed",
             (((i, j, k), jacobi_mixed(a, b, al))
              for i, a in enumerate(functors) for j, b in enumerate(functors)
              for k, al in enumerate(homs)))
    return chk.report()


def test_zero_differential_makes_source_equal_target():
    tvs = from_complex(Matrix.zeros(2, 3))
    mor = ((F(1), F(2)), (F(5), F(0), F(-1)))
    assert tvs.source(mor) == tvs.target(mor)


def test_identity_differential_shifts_target():
    tvs = from_complex(Matrix.identity(2))
    mor = ((F(1), F(0)), (F(3), F(4)))
    assert tvs.target(mor) == (F(4), F(4))


def test_compose_requires_matching_endpoints():
    tvs = from_complex(Matrix.identity(2))
    a = ((F(0), F(0)), (F(1), F(0)))
    b = (tvs.target(a), (F(0), F(2)))
    assert tvs.compose(a, b) == ((F(0), F(0)), (F(1), F(2)))
    with pytest.raises(InputError):
        tvs.compose(a, a)


def test_target_and_compose_refuse_parts_of_the_wrong_length():
    """The arrow parts are summed as `dok` maps, which carry no length, so
    both lengths are checked first: a part too long or too short is an
    InputError, never a silently shortened sum."""
    tvs = from_complex(Matrix.identity(2))
    good = ((F(1), F(0)), (F(0), F(1)))
    for bad in (((F(1),), (F(0), F(1))), ((F(1), F(0)), (F(0), F(1), F(1)))):
        with pytest.raises(InputError, match="arrow parts have lengths"):
            tvs.target(bad)
    with pytest.raises(InputError, match="do not compose"):
        tvs.compose(good, (tvs.target(good), (F(0), F(1), F(5))))
    assert tvs.compose(good, (tvs.target(good), (F(0), F(2)))) == ((F(1), F(0)), (F(0), F(3)))


def _two_term_fixture_ds():
    from pathlib import Path
    from homlie2.modelfile import load_model
    fixdir = Path(__file__).parent.parent / "fixtures"
    records = [load_model(path) for path in sorted(fixdir.glob("*.json"))]
    return [r.d for r in records if type(r).__name__ == "TwoTermHL"]


def _assert_category_laws(tvs):
    """Identities are units and vertical composition is associative, on a basis."""
    for p in range(tvs.dim0):
        obj = tuple(F(int(q == p)) for q in range(tvs.dim0))
        unit = tvs.ident(obj)
        assert tvs.source(unit) == obj and tvs.target(unit) == obj
    nm = tvs.dim0 + tvs.dim1
    for mor in (tvs.mor_from_coords(tuple(F(int(q == p)) for q in range(nm))) for p in range(nm)):
        assert tvs.compose(tvs.ident(tvs.source(mor)), mor) == mor
        assert tvs.compose(mor, tvs.ident(tvs.target(mor))) == mor
        for m1 in range(tvs.dim1):
            a_part = tuple(F(int(q == m1)) for q in range(tvs.dim1))
            a = (tvs.target(mor), a_part)
            b = (tvs.target(a), a_part)
            assert tvs.compose(tvs.compose(mor, a), b) == tvs.compose(mor, tvs.compose(a, b))


def test_vertical_composition_associativity_and_units():
    tvs = from_complex(Matrix(2, 2, [[1, 2], [0, 1]]))
    m1 = ((F(1), F(1)), (F(1), F(-1)))
    m2 = (tvs.target(m1), (F(2), F(0)))
    m3 = (tvs.target(m2), (F(0), F(5)))
    lhs = tvs.compose(tvs.compose(m1, m2), m3)
    rhs = tvs.compose(m1, tvs.compose(m2, m3))
    assert lhs == rhs
    assert tvs.compose(tvs.ident(tvs.source(m1)), m1) == m1
    assert tvs.compose(m1, tvs.ident(tvs.target(m1))) == m1
    fixture_ds = _two_term_fixture_ds()
    assert len(fixture_ds) >= 3
    for d in [Matrix.zeros(2, 3), Matrix.identity(3), Matrix(3, 2, [[1, 2], [2, 4], [0, 0]]),
              Matrix(2, 2, [[1, 2], [0, 1]])] + fixture_ds:
        _assert_category_laws(from_complex(d))


def test_check_linear_functor():
    tvs = from_complex(Matrix.identity(2))
    assert check_linear_functor((Matrix.identity(2), Matrix.identity(2)), tvs)
    a0 = Matrix(2, 2, [[1, 1], [0, 1]])
    assert not check_linear_functor((a0, Matrix.identity(2)), tvs)
    # with d = Id membership forces A0 == A1
    assert check_linear_functor((a0, a0), tvs)


def test_string_complex_twist_is_a_functor():
    from homlie2.constructions import sl2_example, string_from_semisimple
    v = string_from_semisimple(sl2_example())
    tvs = from_complex(v.d)
    assert check_linear_functor((v.phi0, v.phi1), tvs)


def test_end0_basis_membership():
    tvs = from_complex(Matrix(2, 3, [[1, 0, 0], [0, 1, 0]]))
    basis = end0_basis(tvs)
    assert basis
    for pair in basis:
        assert check_linear_functor(pair, tvs)


def test_delta_lands_at_zero_when_d_is_zero():
    tvs = from_complex(Matrix.zeros(2, 2))
    for alpha in end1_basis(tvs):
        assert (tvs.d * alpha).is_zero()
        assert (alpha * tvs.d).is_zero()


@pytest.mark.parametrize("d", [
    Matrix.zeros(1, 1),
    Matrix.identity(2),
    Matrix(2, 2, [[1, 1], [0, 0]]),
    Matrix(3, 1, [[0], [1], [0]]),
])
def test_end_dgla_laws(d):
    report = end_dgla_check(from_complex(d))
    assert report.ok, report.table()


def test_end_dgla_rejects_bad_samples():
    tvs = from_complex(Matrix.identity(2))
    bad = (Matrix(2, 2, [[1, 1], [0, 1]]), Matrix.identity(2))
    with pytest.raises(InputError):
        end_dgla_check(tvs, functors=[bad])


def test_every_two_term_fixture_twist_is_a_functor():
    from pathlib import Path
    from homlie2.modelfile import load_model
    fixdir = Path(__file__).parent.parent / "fixtures"
    seen = 0
    for path in sorted(fixdir.glob("*.json")):
        record = load_model(path)
        if type(record).__name__ != "TwoTermHL":
            continue
        tvs = from_complex(record.d)
        assert check_linear_functor((record.phi0, record.phi1), tvs), path
        seen += 1
    assert seen >= 3


def test_identity_pair_brackets_to_zero():
    tvs = from_complex(Matrix.identity(2))
    ident = (Matrix.identity(2), Matrix.identity(2))
    for a0, a1 in end0_basis(tvs):
        lhs = (ident[0] * a0 - a0 * ident[0], ident[1] * a1 - a1 * ident[1])
        assert lhs[0].is_zero() and lhs[1].is_zero()
