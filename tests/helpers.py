"""Deterministic generators of valid random structures for the tests.

hypothesis drives the plain linear-algebra properties; the algebraic
structures need constructive sampling (a random tensor is essentially never
a valid bracket), so these helpers build them from families known to close:
abelian algebras with arbitrary twists, two-step nilpotent brackets with
diagonal twists, and the built-in simple example.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, product

from homlie2.cohomology import (Cochain, Representation, adjoint_representation,
                                check_representation, hom_cochain_basis,
                                trivial_representation, zero_cochain)
from homlie2.constructions import (CrossedModule, HomLeftSymmetric, QuadraticHomLie,
                                   SymplecticHomLie, sl2_example)
from homlie2.errors import PreconditionError
from homlie2.exactlin import F0, F1, Matrix, Vec, det_of, inverse, rank, rat
from homlie2.hl2 import HLMorphism, HomLie2Data, TwoTermHL, functor_S, functor_T
from homlie2.homlie import HomLieAlgebra, HomLieMorphism, abelian_algebra
from homlie2.reports import CheckReport, LawChecker, merge_reports


# Dense vector and matrix arithmetic of the references, entry by entry in
# Fractions, so that no reference shares the package's `_ap` product.

def zero_vec(n: int) -> Vec:
    return (F0,) * n


def vadd(a: Vec, b: Vec) -> Vec:
    assert len(a) == len(b), f"vadd: lengths {len(a)} and {len(b)} differ"
    return tuple(x + y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def is_zero_vec(a: Vec) -> bool:
    return not any(a)


def reference_matmul(*ms: Matrix) -> Matrix:
    """The product of the matrices from the left, each entry Σ_t a[i, t]·b[t, j]
    summed in Fractions."""
    a = ms[0]
    for b in ms[1:]:
        assert a.cols == b.rows, f"cannot multiply {a.shape()} by {b.shape()}"
        a = Matrix(a.rows, b.cols, [[sum((a[i, t] * b[t, j] for t in range(a.cols)), F0)
                                     for j in range(b.cols)] for i in range(a.rows)])
    return a


def is_identity(m: Matrix) -> bool:
    """Dense test of m == Id, entry by entry."""
    return m.rows == m.cols and all(m[i, j] == (i == j) for i in range(m.rows)
                                    for j in range(m.cols))


def is_symmetric(m: Matrix) -> bool:
    return m.rows == m.cols and all(m[i, j] == m[j, i] for i in range(m.rows)
                                    for j in range(m.cols))


def trace(m: Matrix) -> Fraction:
    assert m.rows == m.cols, "trace of a non-square matrix"
    return sum((m[i, i] for i in range(m.rows)), F0)


def rnd_frac(rng: random.Random, lo=-3, hi=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2)))


def random_invertible(rng: random.Random, n: int) -> Matrix:
    """Product of integer shear matrices: determinant 1, exactly invertible."""
    m = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        shear = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
        shear[i][j] = Fraction(c)
        m = m * Matrix(n, n, shear)
    return m


def random_involution(rng: random.Random, n: int) -> Matrix:
    s = random_invertible(rng, n)
    d = Matrix.diagonal([rng.choice((1, -1)) for _ in range(n)])
    return s * d * inverse(s)


def heisenberg(a=1, b=1) -> HomLieAlgebra:
    """[e0,e1] = e2 with the diagonal twist diag(a, b, ab)."""
    br = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    br[0][1] = [0, 0, 1]
    br[1][0] = [0, 0, -1]
    return HomLieAlgebra(3, br, Matrix.diagonal([a, b, a * b]))


def nilpotent4(a=1, b=1) -> HomLieAlgebra:
    """[e0,e1] = e2 on dim 4 with twist diag(a, b, ab, 1)."""
    br = [[[0, 0, 0, 0] for _ in range(4)] for _ in range(4)]
    br[0][1] = [0, 0, 1, 0]
    br[1][0] = [0, 0, -1, 0]
    return HomLieAlgebra(4, br, Matrix.diagonal([a, b, a * b, 1]))


def sl2_sum(c: int) -> HomLieAlgebra:
    """The direct sum of c copies of the built-in sl(2), twisted blockwise."""
    g = sl2_example()
    n = 3 * c
    br = [[[0] * n for _ in range(n)] for _ in range(n)]
    phi = [[0] * n for _ in range(n)]
    for b in range(c):
        o = 3 * b
        for i in range(3):
            for j in range(3):
                phi[o + i][o + j] = g.phi[i, j]
                for l in range(3):
                    br[o + i][o + j][o + l] = g.bracket[i][j][l]
    return HomLieAlgebra(n, br, Matrix(n, n, phi))


def _zero_l3(n: int):
    return [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]


def shift_strict(g: HomLieAlgebra) -> TwoTermHL:
    """g -0-> g with l2 the bracket on both components, l3 = 0."""
    return TwoTermHL(g.dim, g.dim, Matrix.zeros(g.dim, g.dim), g.bracket, g.bracket,
                     _zero_l3(g.dim), g.phi, g.phi)


def identity_complex(g: HomLieAlgebra) -> TwoTermHL:
    """g -Id-> g with l2 the bracket on both components, l3 = 0."""
    return TwoTermHL(g.dim, g.dim, Matrix.identity(g.dim), g.bracket, g.bracket,
                     _zero_l3(g.dim), g.phi, g.phi)


def random_algebra(rng: random.Random, max_dim=4) -> HomLieAlgebra:
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randint(1, max_dim)
        return abelian_algebra(n, random_involution(rng, n))
    if kind == 1:
        n = rng.randint(1, max_dim)
        phi = Matrix(n, n, [[rnd_frac(rng, -2, 2) for _ in range(n)] for _ in range(n)])
        return abelian_algebra(n, phi)
    if kind == 2:
        return heisenberg(rng.choice((1, -1, 2)), rng.choice((1, -1)))
    if max_dim >= 4 and rng.random() < 0.5:
        return nilpotent4(rng.choice((1, -1)), rng.choice((1, -1)))
    return sl2_example()


def random_representation(rng: random.Random, g: HomLieAlgebra) -> Representation:
    kind = rng.randrange(3)
    if kind == 0:
        return trivial_representation(g)
    if kind == 1:
        return adjoint_representation(g)
    # zero action with an arbitrary module twist satisfies both conditions
    m = rng.randint(1, 3)
    a = Matrix(m, m, [[rnd_frac(rng, -2, 2) for _ in range(m)] for _ in range(m)])
    return Representation(g, m, a, tuple(Matrix.zeros(m, m) for _ in range(g.dim)))


def random_hom_cochain(rng: random.Random, rep: Representation, k: int):
    basis = hom_cochain_basis(rep, k)
    if not basis:
        return zero_cochain(k, rep.algebra.dim, rep.module_dim)
    out = zero_cochain(k, rep.algebra.dim, rep.module_dim)
    for b in basis:
        out = out + b.scale(rnd_frac(rng))
    return out


# --------------------------------------------------------------------------
# Reference cohomology: the twisted formula evaluated one cochain at a time,
# with its own determinant sums over every basis tuple.
# --------------------------------------------------------------------------

def _ref_evaluate(f: Cochain, vectors) -> tuple:
    out = [Fraction(0)] * f.module_dim
    for s, comp in zip(f.tuples(), f.comps):
        d = det_of([tuple(v[l] for l in s) for v in vectors])
        for a, e in enumerate(comp):
            out[a] += d * e
    return tuple(out)


def reference_is_hom_cochain(f: Cochain, r: Representation) -> bool:
    phi = r.algebra.phi
    return all(reference_apply(r.A, comp) == _ref_evaluate(f, [phi.column(i) for i in t])
               for t, comp in zip(f.tuples(), f.comps))


def reference_coboundary(f: Cochain, r: Representation) -> Cochain:
    """df for a k-hom-cochain f.  The action argument carries phi^{k-1}, with
    the identity at k = 0; the spectators of the bracket slot carry one phi."""
    g = r.algebra
    n, m, k = g.dim, r.module_dim, f.degree
    value = dict(zip(f.tuples(), f.comps))
    phi_cols = [g.phi.column(j) for j in range(n)]
    phi_pow = Matrix.identity(n)
    for _ in range(k - 1):
        phi_pow = reference_matmul(phi_pow, g.phi)
    rho_tw = [reference_rho_at(r, phi_pow.column(i)) for i in range(n)]
    comps = []
    for t in combinations(range(n), k + 1):
        total = [Fraction(0)] * m
        for pos in range(k + 1):
            term = reference_apply(rho_tw[t[pos]], value[t[:pos] + t[pos + 1:]])
            sign = -1 if pos % 2 else 1
            total = [x + sign * y for x, y in zip(total, term)]
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                args = [g.bracket[t[p]][t[q]]] + [phi_cols[t[s]] for s in range(k + 1)
                                                  if s != p and s != q]
                term = _ref_evaluate(f, args)
                sign = -1 if (p + q) % 2 else 1
                total = [x + sign * y for x, y in zip(total, term)]
        comps.append(tuple(total))
    return Cochain(k + 1, n, m, tuple(comps))


def reference_hom_basis(r: Representation, k: int) -> list[Cochain]:
    """Kernel of A∘f − f∘phi^(⊗k) on the skew k-space, k >= 0."""
    n, m = r.algebra.dim, r.module_dim
    tuples = list(combinations(range(n), k))
    size = len(tuples) * m
    if size == 0:
        return []
    phi = r.algebra.phi
    rows = []
    for ti, t in enumerate(tuples):
        dets = [det_of([tuple(phi.column(i)[l] for l in s) for i in t]) for s in tuples]
        for a in range(m):
            row = [Fraction(0)] * size
            for b in range(m):
                row[ti * m + b] += r.A[a, b]
            for si, d in enumerate(dets):
                row[si * m + a] -= d
            rows.append(row)
    _, kernel = reference_rank_and_kernel(Matrix(size, size, rows))
    return [Cochain(k, n, m, tuple(tuple(v[ti * m:ti * m + m]) for ti in range(len(tuples))))
            for v in kernel]


def reference_dims(r: Representation, k: int) -> tuple[int, int, int, int]:
    """(C, Z, B, H) from the per-cochain formula; PreconditionError when a
    generator of B^k is not a closed hom-cochain."""
    cbasis = reference_hom_basis(r, k)
    if not cbasis:
        return (0, 0, 0, 0)
    d_cols = [reference_coboundary(b, r).coords() for b in cbasis]
    dim_z = len(cbasis) - (_reference_rank(d_cols) if d_cols[0] else 0)
    gens = [reference_coboundary(b, r) for b in reference_hom_basis(r, k - 1)] if k else []
    img = [c.coords() for c in gens]
    dim_b = _reference_rank(img) if img and img[0] else 0
    for c in gens:
        if not reference_is_hom_cochain(c, r) or not reference_coboundary(c, r).is_zero():
            raise PreconditionError("B^k is not inside Z^k")
    return (len(cbasis), dim_z, dim_b, dim_z - dim_b)


def _reference_rank(columns) -> int:
    return reference_rank_and_kernel(Matrix.from_columns(columns))[0]


def sl_n(n: int, theta: bool = False) -> HomLieAlgebra:
    """sl(n) in the integer basis E_ij (i != j, row-major), then
    H_i = E_ii − E_{i+1,i+1}, with the commutator as bracket and φ = Id.
    With theta, its Yau twist by the Chevalley involution θ(X) = −Xᵀ:
    bracket θ[x, y] and φ = θ."""
    basis = [{(i, j): 1} for i in range(n) for j in range(n) if i != j]
    off = len(basis)
    basis += [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]

    def coords(x: dict) -> list:
        """x's coordinates: at E_ij its (i, j) entry, at H_i its diagonal's i-th partial sum."""
        return ([x.get(next(iter(b)), 0) for b in basis[:off]]
                + [sum(x.get((l, l), 0) for l in range(i + 1)) for i in range(n - 1)])

    def twist(x: dict) -> dict:
        return {(j, i): -a for (i, j), a in x.items()} if theta else x

    def bracket(x: dict, y: dict) -> dict:
        out: dict = {}
        for (i, j), a in x.items():
            for (k, l), b in y.items():
                if j == k:
                    out[i, l] = out.get((i, l), 0) + a * b
                if l == i:
                    out[k, j] = out.get((k, j), 0) - a * b
        return twist(out)

    br = [[coords(bracket(x, y)) for y in basis] for x in basis]
    return HomLieAlgebra(len(basis), br, Matrix.from_columns([coords(twist(b)) for b in basis]))


def direct_sum(g: HomLieAlgebra, h: HomLieAlgebra) -> HomLieAlgebra:
    """g ⊕ h: the brackets and twists block-diagonal, g's basis first."""
    n = g.dim + h.dim
    br = [[[0] * n for _ in range(n)] for _ in range(n)]
    phi = [[0] * n for _ in range(n)]
    for alg, o in ((g, 0), (h, g.dim)):
        for i in range(alg.dim):
            for j in range(alg.dim):
                phi[o + i][o + j] = alg.phi[i, j]
                for l in range(alg.dim):
                    br[o + i][o + j][o + l] = alg.bracket[i][j][l]
    return HomLieAlgebra(n, br, Matrix(n, n, phi))


def transport_algebra(g: HomLieAlgebra, p: Matrix) -> HomLieAlgebra:
    """g in the basis whose coordinates are p·x: bracket p[q·, q·] and twist
    p·phi·q with q the reference inverse of p, by the reference evaluators."""
    n = g.dim
    q = reference_inverse(p)
    qc = q.columns()
    br = [[reference_apply(p, reference_bilinear_eval(g.bracket, qc[i], qc[j], n))
           for j in range(n)] for i in range(n)]
    phi_cols = [reference_apply(p, reference_apply(g.phi, c)) for c in qc]
    return HomLieAlgebra(n, br, Matrix.from_columns(phi_cols))


# --------------------------------------------------------------------------
# Reference elimination: Gauss–Jordan on Fractions, normalising each pivot
# row as it goes.  The integer kernel in exactlin must agree repr for repr.
# --------------------------------------------------------------------------

def reference_rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce rows in place to reduced row echelon form; return pivot columns."""
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def reference_rank_and_kernel(m: Matrix) -> tuple[int, list[Vec]]:
    rows = [list(r) for r in m.data]
    pivots = reference_rref(rows, m.cols)
    kernel: list[Vec] = []
    for j in range(m.cols):
        if j in pivots:
            continue
        v = [F0] * m.cols
        v[j] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][j]
        kernel.append(tuple(v))
    return len(pivots), kernel


def reference_solve_linear(m: Matrix, b: Vec) -> Vec | None:
    rows = [list(r) + [rat(x)] for r, x in zip(m.data, b)]
    pivots = reference_rref(rows, m.cols)
    for r in range(len(pivots), m.rows):
        if rows[r][m.cols] != 0:
            return None
    x = [F0] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.cols]
    return tuple(x)


def reference_inverse(m: Matrix) -> Matrix | None:
    """The exact inverse, or None when m is singular."""
    n = m.rows
    rows = [list(r) + [F1 if i == j else F0 for j in range(n)] for i, r in enumerate(m.data)]
    if len(reference_rref(rows, n)) != n:
        return None
    return Matrix(n, n, [r[n:] for r in rows])


# --------------------------------------------------------------------------
# Reference tensor evaluation: dense loops over Fractions, every entry
# visited and tested against zero.  The sparse integer kernel in exactlin
# must give equal (==) results.
# --------------------------------------------------------------------------

def reference_bilinear_eval(tensor, x, y, out_dim: int) -> Vec:
    out = [F0] * out_dim
    for i, a in enumerate(x):
        if a == 0:
            continue
        row = tensor[i]
        for j, b in enumerate(y):
            if b == 0:
                continue
            c = a * b
            entry = row[j]
            for k, e in enumerate(entry):
                if e != 0:
                    out[k] += c * e
    return tuple(out)


def reference_trilinear_eval(tensor, x, y, z, out_dim: int) -> Vec:
    out = [F0] * out_dim
    for i, a in enumerate(x):
        if a == 0:
            continue
        ti = tensor[i]
        for j, b in enumerate(y):
            if b == 0:
                continue
            ab = a * b
            tij = ti[j]
            for k, c in enumerate(z):
                if c == 0:
                    continue
                coef = ab * c
                for idx, e in enumerate(tij[k]):
                    if e != 0:
                        out[idx] += coef * e
    return tuple(out)


def reference_apply(m: Matrix, v) -> Vec:
    out = [F0] * m.rows
    for j, c in enumerate(v):
        if not c:
            continue
        for i in range(m.rows):
            a = m.data[i][j]
            if a:
                out[i] += a * c
    return tuple(out)


def transport_two_term(v, p0: Matrix, p1: Matrix):
    """Carry v along the change of basis (p0, p1), using the reference
    evaluators only.  Returns (w, the morphism (p0, p1, f2 = 0) from v to w)."""
    n0, n1 = v.dim0, v.dim1
    q0, q1 = inverse(p0), inverse(p1)
    q0c, q1c = q0.columns(), q1.columns()
    l2_00 = [[reference_apply(p0, reference_bilinear_eval(v.l2_00, q0c[i], q0c[j], n0))
              for j in range(n0)] for i in range(n0)]
    l2_01 = [[reference_apply(p1, reference_bilinear_eval(v.l2_01, q0c[i], q1c[a], n1))
              for a in range(n1)] for i in range(n0)]
    l3 = [[[reference_apply(p1, reference_trilinear_eval(v.l3, q0c[i], q0c[j], q0c[k], n1))
            for k in range(n0)] for j in range(n0)] for i in range(n0)]
    w = TwoTermHL(n0, n1, reference_matmul(p0, v.d, q1), l2_00, l2_01, l3,
                  reference_matmul(p0, v.phi0, q0), reference_matmul(p1, v.phi1, q1))
    zero_f2 = [[[0] * n1 for _ in range(n0)] for _ in range(n0)]
    return w, HLMorphism(v, w, p0, p1, zero_f2)


# --------------------------------------------------------------------------
# Reference representations and forms: dense Fraction loops over every
# entry, and the dual's pairing gate run before its full candidate check.
# `reference_rho_at` feeds the reference coboundary, `pair` must agree by ==,
# and `dual_representation` must return None on exactly the same inputs.
# `reference_act` is the crossed-module action x.m of the per-tuple laws.
# --------------------------------------------------------------------------

def reference_rho_at(r: Representation, x) -> Matrix:
    m = r.module_dim
    out = Matrix.zeros(m, m)
    for i, c in enumerate(x):
        if c != 0:
            c = rat(c)
            out = out + Matrix(m, m, [[c * a for a in row] for row in r.rho[i].data])
    return out


def reference_pair(B: Matrix, x, y) -> Fraction:
    total = F0
    for i, a in enumerate(x):
        if a == 0:
            continue
        row = B.data[i]
        for j, b in enumerate(y):
            if b != 0 and row[j] != 0:
                total += a * row[j] * b
    return total


def reference_act(cm, x, m) -> Vec:
    out = (F0,) * cm.h.dim
    for i, c in enumerate(x):
        if c != 0:
            term = reference_apply(cm.action[i], m)
            out = tuple(a + c * t for a, t in zip(out, term))
    return out


def reference_dual_gate(r: Representation) -> bool:
    """A∘rho([x,y]) = rho(x)∘rho(phi y) − rho(y)∘rho(phi x) on all basis pairs."""
    g, A = r.algebra, r.A
    phi_cols = [g.phi.column(j) for j in range(g.dim)]
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = reference_matmul(A, reference_rho_at(r, g.bracket[i][j]))
            rhs = (reference_matmul(r.rho[i], reference_rho_at(r, phi_cols[j]))
                   - reference_matmul(r.rho[j], reference_rho_at(r, phi_cols[i])))
            if lhs != rhs:
                return False
    return True


def reference_dual_representation(r: Representation) -> Representation | None:
    if not reference_dual_gate(r):
        return None
    candidate = Representation(r.algebra, r.module_dim, r.A.transpose(),
                               tuple(-(m.transpose()) for m in r.rho))
    return candidate if check_representation(candidate).ok else None


# --------------------------------------------------------------------------
# Reference law scans: the per-tuple checks that evaluated every composite
# term again at each basis tuple, through the dense reference evaluators
# above.  The package builds each of these laws once as a residual tensor;
# every check must give the report its reference gives, item for item:
# verdict, first failing tuple, note (for the hom-Jacobiator, the stage
# that broke) and order.
# --------------------------------------------------------------------------

class _Evaluating:
    """A structure together with the per-tuple evaluators its old checks
    called on it; every other attribute is the structure's own."""

    def __init__(self, obj, **evaluators):
        self._obj = obj
        vars(self).update(evaluators)

    def __getattr__(self, name):
        return getattr(self._obj, name)


def _unit(n: int, i: int) -> tuple:
    return tuple(1 if t == i else 0 for t in range(n))


def reference_two_term(v: TwoTermHL) -> _Evaluating:
    """v with l2 on V0xV0, V0xV1 and V1xV0, l3, and the basis of V0."""
    def l2_vm(x, m):
        return reference_bilinear_eval(v.l2_01, x, m, v.dim1)

    return _Evaluating(
        v, l2_vm=l2_vm, l2_mv=lambda m, x: vneg(l2_vm(x, m)),
        l2_vv=lambda x, y: reference_bilinear_eval(v.l2_00, x, y, v.dim0),
        l3_eval=lambda x, y, z: reference_trilinear_eval(v.l3, x, y, z, v.dim1),
        basis0=lambda i: _unit(v.dim0, i))


def reference_arrows(L: HomLie2Data) -> _Evaluating:
    """L with the bracket and twist on objects and on arrows, an arrow being
    a (source, V1-part) pair, and the Jacobiator J_{x,y,z} as an arrow: source
    [[x,y], Phi0 z], V1-part jac(x,y,z)."""
    n0, n1 = L.tvs.dim0, L.tvs.dim1

    def split(coords):
        return (tuple(coords[:n0]), tuple(coords[n0:]))

    def b_obj(x, y):
        return reference_bilinear_eval(L.bracket_obj, x, y, n0)

    def phi_obj(x):
        return reference_apply(L.Phi0, x)

    return _Evaluating(
        L, b_obj=b_obj, phi_obj=phi_obj,
        b_mor=lambda mu, nu: split(reference_bilinear_eval(
            L.bracket_mor, tuple(mu[0]) + tuple(mu[1]), tuple(nu[0]) + tuple(nu[1]), n0 + n1)),
        phi_mor=lambda mu: split(reference_apply(L.Phi1, tuple(mu[0]) + tuple(mu[1]))),
        jac_mor=lambda x, y, z: (b_obj(b_obj(x, y), phi_obj(z)),
                                 reference_trilinear_eval(L.jac, x, y, z, n1)))


def _scan(chk: LawChecker, law: str, ranges, ok, note: str = "") -> bool:
    """The per-tuple scan of `ok` over the product of `ranges`, in lexicographic order."""
    return chk.scan(law, ((t, ok(*t)) for t in product(*ranges)), note=note)


def reference_scan_zero(chk: LawChecker, law: str, dims, residual, note: str = "") -> bool:
    """The product walk `LawChecker.scan_zero` counts instead: every basis tuple
    over `dims` in lexicographic order, looked up in the residual's failing set."""
    failing = {key[:len(dims)] for key in residual}
    return chk.scan(law, ((t, t not in failing) for t in product(*map(range, dims))), note)


def _matrix_eq(chk: LawChecker, law: str, a: Matrix, b: Matrix, note: str = "") -> bool:
    """Dense matrix equality, the first differing entry in row-major order as witness."""
    return _scan(chk, law, (range(a.rows), range(a.cols)), lambda i, j: a[i, j] == b[i, j], note)


def _first_failing(tuples, ok):
    return next((t for t in tuples if not ok(*t)), None)


def reference_check_hom_lie(g: HomLieAlgebra) -> CheckReport:
    """The per-tuple hom-Lie check: every pair and triple evaluated afresh,
    each hom-Jacobi sum accumulated from Fraction zeros."""
    n = g.dim
    chk = LawChecker("hom_lie")
    chk.scan("skew", (((i, j), g.bracket[i][j] == tuple(-x for x in g.bracket[j][i]))
                      for i in range(n) for j in range(n)))
    phi_cols = [g.phi.column(j) for j in range(n)]
    chk.scan("phi-morphism",
             (((i, j), reference_apply(g.phi, g.bracket[i][j]) ==
               reference_bilinear_eval(g.bracket, phi_cols[i], phi_cols[j], n))
              for i in range(n) for j in range(n)))

    def jacobi(i, j, k):
        total = zero_vec(n)
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            term = reference_bilinear_eval(g.bracket, phi_cols[a], g.bracket[b][c], n)
            total = vadd(total, term)
        return is_zero_vec(total)

    chk.scan("hom-jacobi", (((i, j, k), jacobi(i, j, k))
                            for i in range(n) for j in range(n) for k in range(n)))
    return chk.report()


def reference_check_hom_lie_morphism(m: HomLieMorphism) -> CheckReport:
    src, tgt, f = m.source, m.target, m.f
    n = src.dim
    chk = LawChecker("hom_lie_morphism")
    f_cols = [f.column(j) for j in range(n)]
    chk.scan("bracket-preserved",
             (((i, j), reference_apply(f, src.bracket[i][j]) ==
               reference_bilinear_eval(tgt.bracket, f_cols[i], f_cols[j], tgt.dim))
              for i in range(n) for j in range(n)))
    _matrix_eq(chk, "twist-intertwined", reference_matmul(f, src.phi),
               reference_matmul(tgt.phi, f))
    return chk.report()


def reference_check_representation(r: Representation) -> CheckReport:
    g, A = r.algebra, r.A
    n = g.dim
    phi_cols = [g.phi.column(j) for j in range(n)]
    chk = LawChecker("representation")
    chk.scan("twist-compatibility",
             (((i,), reference_matmul(reference_rho_at(r, phi_cols[i]), A) ==
               reference_matmul(A, r.rho[i])) for i in range(n)))
    chk.scan("bracket-action",
             (((i, j),
               reference_matmul(reference_rho_at(r, g.bracket[i][j]), A) ==
               reference_matmul(reference_rho_at(r, phi_cols[i]), r.rho[j]) -
               reference_matmul(reference_rho_at(r, phi_cols[j]), r.rho[i]))
              for i in range(n) for j in range(n)))
    return chk.report()


def reference_check_two_term(v: TwoTermHL) -> CheckReport:
    """The per-tuple two-term check: conditions (a)-(j) and the twist laws."""
    v = reference_two_term(v)
    n0, n1 = v.dim0, v.dim1
    phi0_cols = [v.phi0.column(t) for t in range(n0)]
    phi1_cols = [v.phi1.column(t) for t in range(n1)]
    phi0sq = reference_matmul(v.phi0, v.phi0)
    phi0sq_cols = [phi0sq.column(t) for t in range(n0)]
    chk = LawChecker("two_term_hl")
    chk.scan("(a)", (((i, j), v.l2_00[i][j] == vneg(v.l2_00[j][i]))
                     for i in range(n0) for j in range(n0)))
    chk.add("(b)", True, note="structural: only the V0xV1 component is stored")
    chk.add("(c)", True, note="structural: no V1xV1 component is stored")
    chk.scan("(d)", (((i, a), reference_apply(v.d, v.l2_01[i][a]) ==
                      v.l2_vv(v.basis0(i), v.d.column(a)))
                     for i in range(n0) for a in range(n1)))
    chk.scan("(e)", (((a, b),
                      v.l2_vm(v.d.column(a), _unit(n1, b)) ==
                      vneg(v.l2_vm(v.d.column(b), _unit(n1, a))))
                     for a in range(n1) for b in range(n1)))
    chk.scan("(f)", (((i, j), reference_apply(v.phi0, v.l2_00[i][j]) ==
                      v.l2_vv(phi0_cols[i], phi0_cols[j]))
                     for i in range(n0) for j in range(n0)))
    chk.scan("(g)", (((i, a), reference_apply(v.phi1, v.l2_01[i][a]) ==
                      v.l2_vm(phi0_cols[i], phi1_cols[a]))
                     for i in range(n0) for a in range(n1)))

    def cond_h(i, j, k):
        rhs = v.l2_vv(phi0_cols[i], v.l2_00[j][k])
        rhs = vadd(rhs, v.l2_vv(phi0_cols[j], v.l2_00[k][i]))
        rhs = vadd(rhs, v.l2_vv(phi0_cols[k], v.l2_00[i][j]))
        return reference_apply(v.d, v.l3[i][j][k]) == rhs

    def cond_i(i, j, a):
        lhs = v.l3_eval(v.basis0(i), v.basis0(j), v.d.column(a))
        rhs = v.l2_vm(phi0_cols[i], v.l2_01[j][a])
        rhs = vadd(rhs, v.l2_vm(phi0_cols[j], vneg(v.l2_01[i][a])))
        rhs = vadd(rhs, vneg(v.l2_vm(v.l2_00[i][j], phi1_cols[a])))
        return lhs == rhs

    def cond_j(i, j, k, l):
        lhs, rhs = reference_condition_j_sides(v, i, j, k, l, phi0_cols, phi0sq_cols)
        return lhs == rhs

    def equivariant(i, j, k):
        return v.l3_eval(phi0_cols[i], phi0_cols[j], phi0_cols[k]) == \
            reference_apply(v.phi1, v.l3[i][j][k])

    r0 = range(n0)
    _scan(chk, "(h)", (r0, r0, r0), cond_h)
    _scan(chk, "(i)", (r0, r0, range(n1)), cond_i)
    _scan(chk, "(j)", (r0, r0, r0, r0), cond_j)
    _matrix_eq(chk, "phi-chain", reference_matmul(v.phi0, v.d), reference_matmul(v.d, v.phi1))
    _scan(chk, "l3-equivariance", (r0, r0, r0), equivariant)
    chk.scan("l3-skew",
             (((i, j, k), v.l3[i][j][k] == vneg(v.l3[j][i][k])
               and v.l3[i][j][k] == vneg(v.l3[i][k][j]))
              for i in range(n0) for j in range(n0) for k in range(n0)))
    return chk.report()


def reference_condition_j_sides(v, i, j, k, l, phi0_cols, phi0sq_cols):
    """Both sides of (j) at a basis 4-tuple; v is a `reference_two_term`."""
    pw, px, py, pz = phi0_cols[i], phi0_cols[j], phi0_cols[k], phi0_cols[l]
    ppw, ppx, ppy, ppz = phi0sq_cols[i], phi0sq_cols[j], phi0sq_cols[k], phi0sq_cols[l]
    wx, wy, wz = v.l2_00[i][j], v.l2_00[i][k], v.l2_00[i][l]
    xy, xz, yz = v.l2_00[j][k], v.l2_00[j][l], v.l2_00[k][l]
    lhs = v.l3_eval(wx, py, pz)
    lhs = vadd(lhs, v.l2_mv(v.l3[i][j][l], ppy))
    lhs = vadd(lhs, v.l3_eval(pw, xz, py))
    lhs = vadd(lhs, v.l3_eval(wz, px, py))
    rhs = v.l2_mv(v.l3[i][j][k], ppz)
    rhs = vadd(rhs, v.l3_eval(wy, px, pz))
    rhs = vadd(rhs, v.l3_eval(pw, xy, pz))
    rhs = vadd(rhs, v.l2_vm(ppw, v.l3[j][k][l]))
    rhs = vadd(rhs, v.l2_mv(v.l3[i][k][l], ppx))
    rhs = vadd(rhs, v.l3_eval(pw, yz, px))
    return lhs, rhs


def reference_jacobiator_broken_stage(L, obj_basis, phi0sq, i, j, k, l):
    """Evaluate both composite arrows of the coherence diagram at a basis
    4-tuple and compare them as (source, V1-part) pairs; return the name of
    the first stage that breaks, or None when the diagram commutes.  L is a
    `reference_arrows`."""
    tvs = L.tvs
    B, PHI = L.b_obj, L.phi_obj
    PHI2 = partial(reference_apply, phi0sq)
    dmul = partial(reference_apply, tvs.d)
    w, x, y, z = obj_basis[i], obj_basis[j], obj_basis[k], obj_basis[l]
    wx, wy, wz = B(w, x), B(w, y), B(w, z)
    xy, xz, yz = B(x, y), B(x, z), B(y, z)
    # each value that recurs below is evaluated once for the tuple
    pw, px, py, pz = (PHI(v) for v in (w, x, y, z))
    p2w, p2x, p2y, p2z = (PHI2(v) for v in (w, x, y, z))
    head = B(PHI(wx), B(py, pz))

    def add3(*vs):
        out = vs[0]
        for v_ in vs[1:]:
            out = vadd(out, v_)
        return out

    # ---- left/top composite ------------------------------------------------
    p1 = L.jac_mor(wx, py, pz)
    src = p1[0]
    top = vadd(head, B(B(wx, pz), p2y))
    if vadd(src, dmul(p1[1])) != top:
        return "top"
    n2 = L.b_mor(L.jac_mor(w, x, z), tvs.ident(p2y))
    m_obj = add3(head, B(B(pw, xz), p2y), B(B(wz, px), p2y))
    if vadd(top, dmul(n2[1])) != m_obj:
        return "n2"
    n3a = L.jac_mor(pw, xz, py)
    n3b = L.jac_mor(wz, px, py)
    q_obj = add3(head,
                 B(p2w, B(xz, py)),
                 B(B(pw, py), PHI(xz)),
                 B(PHI(wz), B(px, py)),
                 B(B(wz, py), p2x))
    if add3(m_obj, dmul(n3a[1]), dmul(n3b[1])) != q_obj:
        return "n3"
    lhs_m = add3(p1[1], n2[1], n3a[1], n3b[1])

    # ---- right/bottom composite ---------------------------------------------
    r1 = L.b_mor(L.jac_mor(w, x, y), tvs.ident(p2z))
    if r1[0] != src:
        return "r1-source"
    left_mid = vadd(B(B(pw, xy), p2z), B(B(wy, px), p2z))
    if vadd(src, dmul(r1[1])) != left_mid:
        return "r1"
    r2a = L.jac_mor(pw, xy, pz)
    r2b = L.jac_mor(wy, px, pz)
    p_obj = add3(B(p2w, B(xy, pz)),
                 B(B(pw, pz), PHI(xy)),
                 B(PHI(wy), B(px, pz)),
                 B(B(wy, pz), p2x))
    if add3(left_mid, dmul(r2a[1]), dmul(r2b[1])) != p_obj:
        return "r2"
    r3a = L.b_mor(tvs.ident(p2w), L.jac_mor(x, y, z))
    r3b = L.b_mor(L.jac_mor(w, y, z), tvs.ident(p2x))
    r4 = L.jac_mor(pw, yz, px)
    if add3(p_obj, dmul(r3a[1]), dmul(r3b[1]), dmul(r4[1])) != q_obj:
        return "r3/r4"
    rhs_m = add3(r1[1], r2a[1], r2b[1], r3a[1], r3b[1], r4[1])
    return None if lhs_m == rhs_m else "final"


def _integral_as_int(v):
    """A vector, or a tuple of vectors, with each integral entry as an equal int."""
    if v and isinstance(v[0], tuple):
        return tuple(map(_integral_as_int, v))
    return tuple(x.numerator if x.denominator == 1 else x for x in v)


def reference_check_hom_lie2(L: HomLie2Data) -> CheckReport:
    """The per-tuple categorical check: the arrow laws evaluate both sides at
    each pair or triple of basis arrows, and the hom-Jacobiator both
    composites of its diagram at each basis 4-tuple, stage by stage.  Each
    evaluator is memoised on its arguments, so a value that recurs within a
    tuple or across tuples is evaluated once; its integral entries are kept
    as equal ints, which hash and add faster."""
    L = reference_arrows(L)
    for name in ("b_obj", "phi_obj", "b_mor", "phi_mor", "jac_mor"):
        setattr(L, name, lru_cache(maxsize=None)(
            lambda *args, f=getattr(L, name): _integral_as_int(f(*args))))
    tvs = L.tvs
    n0, n1 = tvs.dim0, tvs.dim1
    nm = n0 + n1
    obj_basis = [_unit(n0, i) for i in range(n0)]
    v1_basis = [_unit(n1, a) for a in range(n1)]
    mor_basis = [tvs.mor_from_coords(_unit(nm, p)) for p in range(nm)]
    phi0sq = reference_matmul(L.Phi0, L.Phi0)

    def target(mor):
        return vadd(mor[0], reference_apply(tvs.d, mor[1]))

    def bracket_skew(p, q):
        return L.bracket_mor[p][q] == vneg(L.bracket_mor[q][p])

    def bracket_source(p, q):
        mu, nu = mor_basis[p], mor_basis[q]
        return tvs.source(L.b_mor(mu, nu)) == L.b_obj(tvs.source(mu), tvs.source(nu))

    def bracket_target(p, q):
        mu, nu = mor_basis[p], mor_basis[q]
        return target(L.b_mor(mu, nu)) == L.b_obj(target(mu), target(nu))

    def bracket_identities(i, j):
        x, y = obj_basis[i], obj_basis[j]
        return L.b_mor(tvs.ident(x), tvs.ident(y)) == tvs.ident(L.b_obj(x, y))

    def interchange(i, a, ap, j, b, bp):
        x, y = obj_basis[i], obj_basis[j]
        m, mp, n, np_ = v1_basis[a], v1_basis[ap], v1_basis[b], v1_basis[bp]
        lhs = L.b_mor((x, vadd(m, mp)), (y, vadd(n, np_)))
        first = L.b_mor((x, m), (y, n))
        second = L.b_mor((target((x, m)), mp), (target((y, n)), np_))
        return lhs == (first[0], vadd(first[1], second[1])) and \
            target(first) == second[0]

    def phi_source(p):
        return tvs.source(L.phi_mor(mor_basis[p])) == L.phi_obj(tvs.source(mor_basis[p]))

    def phi_target(p):
        return target(L.phi_mor(mor_basis[p])) == L.phi_obj(target(mor_basis[p]))

    def phi_identities(i):
        return L.phi_mor(tvs.ident(obj_basis[i])) == tvs.ident(L.phi_obj(obj_basis[i]))

    def phi_bracket(p, q):
        mu, nu = mor_basis[p], mor_basis[q]
        return L.phi_mor(L.b_mor(mu, nu)) == L.b_mor(L.phi_mor(mu), L.phi_mor(nu))

    def jacobiator_skew(i, j, k):
        return L.jac[i][j][k] == vneg(L.jac[j][i][k]) and L.jac[i][j][k] == vneg(L.jac[i][k][j])

    def arrow_valid(i, j, k):
        x, y, z = obj_basis[i], obj_basis[j], obj_basis[k]
        expected = vadd(L.b_obj(L.phi_obj(x), L.b_obj(y, z)),
                        L.b_obj(L.b_obj(x, z), L.phi_obj(y)))
        return target(L.jac_mor(x, y, z)) == expected

    def equivariant(i, j, k):
        x, y, z = obj_basis[i], obj_basis[j], obj_basis[k]
        return L.jac_mor(L.phi_obj(x), L.phi_obj(y), L.phi_obj(z)) == \
            L.phi_mor(L.jac_mor(x, y, z))

    def natural(p, q, r):
        """[[mu,nu], Phi rho] then J at the targets, against J at the sources
        then [Phi mu, [nu,rho]] + [[mu,rho], Phi nu], composed vertically."""
        mu, nu, rho = mor_basis[p], mor_basis[q], mor_basis[r]
        f = L.b_mor(L.b_mor(mu, nu), L.phi_mor(rho))
        g1 = L.b_mor(L.phi_mor(mu), L.b_mor(nu, rho))
        g2 = L.b_mor(L.b_mor(mu, rho), L.phi_mor(nu))
        g = (vadd(g1[0], g2[0]), vadd(g1[1], g2[1]))
        j_t = L.jac_mor(target(mu), target(nu), target(rho))
        j_s = L.jac_mor(tvs.source(mu), tvs.source(nu), tvs.source(rho))
        if target(f) != j_t[0] or target(j_s) != g[0]:
            return False
        return (f[0], vadd(f[1], j_t[1])) == (j_s[0], vadd(j_s[1], g[1]))

    def commutes(i, j, k, l):
        return reference_jacobiator_broken_stage(L, obj_basis, phi0sq, i, j, k, l) is None

    r0, r1, rm = range(n0), range(n1), range(nm)
    chk = LawChecker("hom_lie2")
    _scan(chk, "bracket-skew", (rm, rm), bracket_skew)
    _scan(chk, "bracket-source", (rm, rm), bracket_source)
    _scan(chk, "bracket-target", (rm, rm), bracket_target)
    _scan(chk, "bracket-identities", (r0, r0), bracket_identities)
    _scan(chk, "bracket-interchange", (r0, r1, r1, r0, r1, r1), interchange,
          note="vertical composition is preserved")
    _scan(chk, "phi-source", (rm,), phi_source)
    _scan(chk, "phi-target", (rm,), phi_target)
    _scan(chk, "phi-identities", (r0,), phi_identities)
    _scan(chk, "phi-bracket", (rm, rm), phi_bracket)
    _scan(chk, "jacobiator-skew", (r0, r0, r0), jacobiator_skew)
    _scan(chk, "jacobiator-arrow", (r0, r0, r0), arrow_valid,
          note="J lands where the diagram says")
    _scan(chk, "jacobiator-equivariance", (r0, r0, r0), equivariant)
    _scan(chk, "jacobiator-naturality", (rm, rm, rm), natural)
    first = _first_failing(product(r0, r0, r0, r0), commutes)
    note = "coherence diagram, both composites compared stagewise"
    if first is not None:
        note += "; broke at stage " + reference_jacobiator_broken_stage(
            L, obj_basis, phi0sq, *first)
    chk.add("hom-jacobiator", first is None, first, note=note)
    return chk.report()


def reference_roundtrip_check(obj) -> CheckReport:
    """`roundtrip_check` with the stored bracket compared entry by entry."""
    chk = LawChecker("roundtrip")
    if isinstance(obj, TwoTermHL):
        L = functor_T(obj)
        v = functor_S(L)
        chk.add("beta-identity", v == obj,
                note="extract-after-present returns the same tensors")
    else:
        L = obj
        v = functor_S(L)
    nm = L.tvs.dim0 + L.tvs.dim1
    expected = functor_T(v)
    chk.scan("alpha-bracket",
             (((p, q), L.bracket_mor[p][q] == expected.bracket_mor[p][q])
              for p in range(nm) for q in range(nm)),
             note="stored bracket equals the one induced by its own l2 parts")
    chk.add("alpha-phi", L.Phi1 == expected.Phi1,
            note="twist functor is block-diagonal over (objects, Ker s)")
    return chk.report()


def reference_check_hl_morphism(m: HLMorphism) -> CheckReport:
    """The per-tuple morphism check: every pair and triple evaluated afresh."""
    src, tgt = reference_two_term(m.source), reference_two_term(m.target)
    n0, n1 = src.dim0, src.dim1
    f0_cols = [m.f0.column(i) for i in range(n0)]
    f1_cols = [m.f1.column(a) for a in range(n1)]
    sphi0_cols = [src.phi0.column(i) for i in range(n0)]

    def f2_eval(x, y):
        return reference_bilinear_eval(m.f2, x, y, tgt.dim1)

    chk = LawChecker("hl_morphism")
    for law, a, b, c, d in (("chain-map", m.f0, src.d, tgt.d, m.f1),
                            ("phi0-intertwined", m.f0, src.phi0, tgt.phi0, m.f0),
                            ("phi1-intertwined", m.f1, src.phi1, tgt.phi1, m.f1)):
        _matrix_eq(chk, law, reference_matmul(a, b), reference_matmul(c, d))
    chk.scan("f2-skew", (((i, j), m.f2[i][j] == vneg(m.f2[j][i]))
                         for i in range(n0) for j in range(n0)))
    chk.scan("f2-equivariance",
             (((i, j), f2_eval(sphi0_cols[i], sphi0_cols[j]) ==
               reference_apply(tgt.phi1, m.f2[i][j]))
              for i in range(n0) for j in range(n0)))
    chk.scan("bracket-defect",
             (((i, j),
               reference_apply(tgt.d, m.f2[i][j]) ==
               tuple(p - q for p, q in zip(reference_apply(m.f0, src.l2_00[i][j]),
                                           tgt.l2_vv(f0_cols[i], f0_cols[j]))))
              for i in range(n0) for j in range(n0)))
    chk.scan("action-defect",
             (((i, a),
               f2_eval(src.basis0(i), src.d.column(a)) ==
               tuple(p - q for p, q in zip(reference_apply(m.f1, src.l2_01[i][a]),
                                           tgt.l2_vm(f0_cols[i], f1_cols[a]))))
              for i in range(n0) for a in range(n1)))

    def jac_defect(i, j, k):
        f0phi = [reference_apply(m.f0, sphi0_cols[t]) for t in (i, j, k)]
        lhs = vneg(tgt.l2_vm(f0phi[2], m.f2[i][j]))              # l2'(f2(x,y), f0 phi0 z)
        lhs = vadd(lhs, f2_eval(src.l2_00[i][j], sphi0_cols[k]))
        lhs = vadd(lhs, reference_apply(m.f1, src.l3[i][j][k]))
        rhs = tgt.l3_eval(f0_cols[i], f0_cols[j], f0_cols[k])
        rhs = vadd(rhs, tgt.l2_vm(f0phi[0], m.f2[j][k]))
        rhs = vadd(rhs, vneg(tgt.l2_vm(f0phi[1], m.f2[i][k])))   # l2'(f2(x,z), f0 phi0 y)
        rhs = vadd(rhs, f2_eval(sphi0_cols[i], src.l2_00[j][k]))
        rhs = vadd(rhs, f2_eval(src.l2_00[i][k], sphi0_cols[j]))
        return lhs == rhs

    chk.scan("jacobiator-defect", (((i, j, k), jac_defect(i, j, k))
                                   for i in range(n0) for j in range(n0) for k in range(n0)))
    return chk.report()


def reference_check_crossed_module(cm: CrossedModule) -> CheckReport:
    """The crossed-module report, each law per tuple, the action through `reference_act`."""
    h, g = cm.h, cm.g
    parts = {
        "h": reference_check_hom_lie(h),
        "g": reference_check_hom_lie(g),
        "dt": reference_check_hom_lie_morphism(HomLieMorphism(h, g, cm.dt)),
        "action": reference_check_representation(cm.representation()),
    }
    chk = LawChecker("crossed_module")
    chk.scan("equivariance",
             (((i, a), reference_apply(cm.dt, reference_apply(cm.action[i], h.basis(a))) ==
               reference_bilinear_eval(g.bracket, g.basis(i), cm.dt.column(a), g.dim))
              for i in range(g.dim) for a in range(h.dim)),
             note="dt(x.m) = [x, dt m]")
    chk.scan("peiffer",
             (((a, b), reference_act(cm, cm.dt.column(a), h.basis(b)) == h.bracket[a][b])
              for a in range(h.dim) for b in range(h.dim)),
             note="(dt m).m' = [m, m']")

    def derived(i, a, b):
        lhs = reference_act(cm, g.phi.column(i), h.bracket[a][b])
        rhs = vadd(reference_bilinear_eval(h.bracket, cm.action[i].column(a), h.phi.column(b),
                                           h.dim),
                   reference_bilinear_eval(h.bracket, h.phi.column(a), cm.action[i].column(b),
                                           h.dim))
        return lhs == rhs

    chk.scan("derived-compatibility",
             (((i, a, b), derived(i, a, b))
              for i in range(g.dim) for a in range(h.dim) for b in range(h.dim)),
             note="action of phi_g(x) on [m,n], implied by the other laws")
    return merge_reports("crossed_module", **parts, laws=chk.report())


def reference_product(a: HomLeftSymmetric) -> _Evaluating:
    """a with its product on coordinate vectors and its basis."""
    return _Evaluating(a, star_vec=lambda x, y: reference_bilinear_eval(a.star, x, y, a.dim),
                       basis=lambda i: _unit(a.dim, i))


def reference_check_left_symmetric(a: HomLeftSymmetric) -> CheckReport:
    """The report of `check_left_symmetric`, both laws per tuple."""
    a = reference_product(a)
    n = a.dim
    phi_cols = [a.phi.column(i) for i in range(n)]
    chk = LawChecker("left_symmetric")
    chk.scan("phi-product",
             (((i, j), reference_apply(a.phi, a.star[i][j]) ==
               a.star_vec(phi_cols[i], phi_cols[j]))
              for i in range(n) for j in range(n)))

    def leftsym(i, j, k):
        lhs = vadd(a.star_vec(phi_cols[i], a.star[j][k]),
                   vneg(a.star_vec(a.star[i][j], phi_cols[k])))
        rhs = vadd(a.star_vec(phi_cols[j], a.star[i][k]),
                   vneg(a.star_vec(a.star[j][i], phi_cols[k])))
        return lhs == rhs

    chk.scan("left-symmetry", (((i, j, k), leftsym(i, j, k))
                               for i in range(n) for j in range(n) for k in range(n)))
    return chk.report()


def reference_leftsym_d_report(a: HomLeftSymmetric, d: Matrix) -> CheckReport:
    a = reference_product(a)
    n = a.dim
    chk = LawChecker("leftsym_d")
    _matrix_eq(chk, "d-phi-commute", reference_matmul(d, a.phi), reference_matmul(a.phi, d))
    d_cols = [d.column(i) for i in range(n)]
    chk.scan("d-star-shift",
             (((i, j), a.star_vec(d_cols[i], a.basis(j)) == a.star_vec(a.basis(i), d_cols[j]))
              for i in range(n) for j in range(n)),
             note="(dx)*y = x*(dy)")
    chk.scan("d-derivation",
             (((i, j), reference_apply(d, a.star[i][j]) ==
               vadd(a.star_vec(a.basis(i), d_cols[j]),
                    vneg(a.star_vec(d_cols[j], a.basis(i)))))
              for i in range(n) for j in range(n)),
             note="d(x*y) = x*(dy) - (dy)*x")
    chk.scan("d-star-skew-pairing",
             (((i, j), a.star_vec(d_cols[i], a.basis(j)) ==
               vneg(a.star_vec(d_cols[j], a.basis(i))))
              for i in range(n) for j in range(n)),
             note="(dm)*n = -(dn)*m, required by condition (e)")
    return chk.report()


def reference_check_quadratic(q: QuadraticHomLie) -> CheckReport:
    g, B = q.algebra, q.B
    n = g.dim
    chk = LawChecker("quadratic")
    _matrix_eq(chk, "symmetric", B, B.transpose())
    chk.add("nondegenerate", rank(B) == n)
    chk.scan("invariance",
             (((i, j, k), reference_pair(B, g.bracket[i][j], g.basis(k)) ==
               -reference_pair(B, g.bracket[i][k], g.basis(j)))
              for i in range(n) for j in range(n) for k in range(n)))
    phi_t = g.phi.transpose()
    phi_sym = _matrix_eq(chk, "phi-symmetric", reference_matmul(B, g.phi),
                         reference_matmul(phi_t, B))
    involutive = is_identity(reference_matmul(g.phi, g.phi))
    chk.add("involutive", involutive)
    isometry = _matrix_eq(chk, "isometry", reference_matmul(phi_t, B, g.phi), B)
    count = sum(1 for flag in (phi_sym, involutive, isometry) if flag)
    chk.add("two-of-three", count != 2,
            note="any two of {phi-symmetric, involutive, isometry} force the third")
    return chk.report()


def reference_check_symplectic(s: SymplecticHomLie) -> CheckReport:
    g, omega = s.algebra, s.omega
    n = g.dim
    if not g.is_regular():
        raise PreconditionError("symplectic structures live on regular algebras "
                                "(invertible twist)")
    chk = LawChecker("symplectic")
    _matrix_eq(chk, "skew", omega, -(omega.transpose()))
    chk.add("nondegenerate", rank(omega) == n)
    _matrix_eq(chk, "phi-invariant", reference_matmul(g.phi.transpose(), omega, g.phi), omega,
               note="omega(phi x, phi y) = omega(x, y)")

    def closed(i, j, k):
        total = reference_pair(omega, g.phi.column(i), g.bracket[j][k])
        total += reference_pair(omega, g.phi.column(j), g.bracket[k][i])
        total += reference_pair(omega, g.phi.column(k), g.bracket[i][j])
        return total == 0

    chk.scan("closed", (((i, j, k), closed(i, j, k))
                        for i in range(n) for j in range(n) for k in range(n)),
             note="omega(phi x,[y,z]) + cyclic = 0")
    return merge_reports("symplectic", algebra=reference_check_hom_lie(g), form=chk.report())
