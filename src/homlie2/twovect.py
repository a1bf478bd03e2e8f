"""2-vector spaces presented by 2-term complexes.

A 2-term complex d: V1 -> V0 presents a category internal to vector spaces:
objects V0, morphisms V0 ⊕ V1, source s(v,m) = v, target t(v,m) = v + d m,
identities i(v) = (v,0), and vertical composition

    (v, m) . (v + dm, m') = (v, m + m').

Endomorphism functors are pairs (A0, A1) with A0∘d = d∘A1; together with
alpha in Hom(V0,V1), delta(alpha) = (d∘alpha, alpha∘d) and the graded
commutator they form a 2-term differential graded Lie algebra, which
`end_dgla_check` verifies identity by identity on a basis of samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .exactlin import F0, F1, Matrix, Vec, rank_and_kernel, unit_vec, vadd
from .reports import CheckReport, LawChecker

Morphism = tuple  # (Vec over V0, Vec over V1)


@dataclass(frozen=True)
class TwoVectorSpace:
    dim0: int
    dim1: int
    d: Matrix

    def __post_init__(self):
        if self.d.shape() != (self.dim0, self.dim1):
            raise InputError(f"d must be {self.dim0}x{self.dim1}, got {self.d.shape()}")

    def source(self, mor: Morphism) -> Vec:
        return mor[0]

    def target(self, mor: Morphism) -> Vec:
        return vadd(mor[0], self.d.apply(mor[1]))

    def ident(self, obj: Vec) -> Morphism:
        return (tuple(obj), (0,) * self.dim1)

    def compose(self, first: Morphism, second: Morphism) -> Morphism:
        """Vertical composition; the morphisms must abut exactly."""
        if self.target(first) != self.source(second):
            raise InputError("morphisms do not compose: target != source")
        return (first[0], vadd(first[1], second[1]))

    def mor_coords(self, mor: Morphism) -> Vec:
        return tuple(mor[0]) + tuple(mor[1])

    def mor_from_coords(self, coords: Vec) -> Morphism:
        return (tuple(coords[:self.dim0]), tuple(coords[self.dim0:]))

    def mor_basis(self):
        for p in range(self.dim0 + self.dim1):
            yield self.mor_from_coords(unit_vec(self.dim0 + self.dim1, p))


def from_complex(d: Matrix) -> TwoVectorSpace:
    """The 2-vector space of a 2-term complex d: V1 -> V0."""
    return TwoVectorSpace(d.rows, d.cols, d)


def check_linear_functor(pair: tuple[Matrix, Matrix], tvs: TwoVectorSpace) -> bool:
    """(A0, A1) is a linear endofunctor iff A0∘d = d∘A1 (exactly)."""
    a0, a1 = pair
    if a0.shape() != (tvs.dim0, tvs.dim0) or a1.shape() != (tvs.dim1, tvs.dim1):
        raise InputError("functor blocks have wrong shapes")
    return a0 * tvs.d == tvs.d * a1


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
