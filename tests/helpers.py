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
from itertools import combinations, product

from homlie2.cohomology import (Cochain, Representation, adjoint_representation,
                                check_representation, hom_cochain_basis,
                                trivial_representation, zero_cochain)
from homlie2.constructions import sl2_example
from homlie2.errors import PreconditionError
from homlie2.exactlin import (F0, F1, Matrix, Vec, det_of, inverse, is_zero_vec, rank,
                              rank_and_kernel, rat, vadd, vneg, zero_vec)
from homlie2.hl2 import HLMorphism, HomLie2Data, TwoTermHL
from homlie2.homlie import HomLieAlgebra, abelian_algebra
from homlie2.reports import CheckReport, LawChecker


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
    return all(r.A.apply(comp) == _ref_evaluate(f, [phi.column(i) for i in t])
               for t, comp in zip(f.tuples(), f.comps))


def reference_coboundary(f: Cochain, r: Representation) -> Cochain:
    """df for a k-hom-cochain f.  The action argument carries phi^{k-1}, with
    the identity at k = 0; the spectators of the bracket slot carry one phi."""
    g = r.algebra
    n, m, k = g.dim, r.module_dim, f.degree
    value = dict(zip(f.tuples(), f.comps))
    phi_cols = [g.phi.column(j) for j in range(n)]
    phi_pow = g.phi.power(max(k - 1, 0))
    rho_tw = [r.rho_at(phi_pow.column(i)) for i in range(n)]
    comps = []
    for t in combinations(range(n), k + 1):
        total = [Fraction(0)] * m
        for pos in range(k + 1):
            term = rho_tw[t[pos]].apply(value[t[:pos] + t[pos + 1:]])
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
    _, kernel = rank_and_kernel(Matrix(size, size, rows))
    return [Cochain(k, n, m, tuple(tuple(v[ti * m:ti * m + m]) for ti in range(len(tuples))))
            for v in kernel]


def reference_dims(r: Representation, k: int) -> tuple[int, int, int, int]:
    """(C, Z, B, H) from the per-cochain formula; PreconditionError when a
    generator of B^k is not a closed hom-cochain."""
    cbasis = reference_hom_basis(r, k)
    if not cbasis:
        return (0, 0, 0, 0)
    d_cols = [reference_coboundary(b, r).coords() for b in cbasis]
    dim_z = len(cbasis) - (rank(Matrix.from_columns(d_cols)) if d_cols[0] else 0)
    gens = [reference_coboundary(b, r) for b in reference_hom_basis(r, k - 1)] if k else []
    img = [c.coords() for c in gens]
    dim_b = rank(Matrix.from_columns(img)) if img and img[0] else 0
    for c in gens:
        if not reference_is_hom_cochain(c, r) or not reference_coboundary(c, r).is_zero():
            raise PreconditionError("B^k is not inside Z^k")
    return (len(cbasis), dim_z, dim_b, dim_z - dim_b)


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
    w = TwoTermHL(n0, n1, p0 * v.d * q1, l2_00, l2_01, l3,
                  p0 * v.phi0 * q0, p1 * v.phi1 * q1)
    zero_f2 = [[[0] * n1 for _ in range(n0)] for _ in range(n0)]
    return w, HLMorphism(v, w, p0, p1, zero_f2)


# --------------------------------------------------------------------------
# Reference representations and forms: dense Fraction loops over every
# entry, and the dual's pairing gate run before its full candidate check.
# `rho_at` must agree repr for repr, `pair` and `act` by ==, and
# `dual_representation` must return None on exactly the same inputs.
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
            lhs = A * reference_rho_at(r, g.bracket[i][j])
            rhs = (r.rho[i] * reference_rho_at(r, phi_cols[j])
                   - r.rho[j] * reference_rho_at(r, phi_cols[i]))
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
# term again at each basis tuple.  `check_hom_lie`, `check_two_term`,
# `check_hom_lie2` and `check_hl_morphism` build these laws once as residual
# tensors; they must report the same first failing tuple and, for the
# hom-Jacobiator, the same stage.
# --------------------------------------------------------------------------

def reference_check_hom_lie(g: HomLieAlgebra) -> CheckReport:
    """The per-tuple hom-Lie check: every pair and triple evaluated afresh,
    each hom-Jacobi sum accumulated from Fraction zeros."""
    n = g.dim
    chk = LawChecker("hom_lie")
    chk.scan("skew", (((i, j), g.bracket[i][j] == tuple(-x for x in g.bracket[j][i]))
                      for i in range(n) for j in range(n)))
    phi_cols = [g.phi.column(j) for j in range(n)]
    chk.scan("phi-morphism",
             (((i, j), g.phi_vec(g.bracket[i][j]) == g.bracket_vec(phi_cols[i], phi_cols[j]))
              for i in range(n) for j in range(n)))

    def jacobi(i, j, k):
        total = zero_vec(n)
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            term = g.bracket_vec(phi_cols[a], g.bracket[b][c])
            total = vadd(total, term)
        return is_zero_vec(total)

    chk.scan("hom-jacobi", (((i, j, k), jacobi(i, j, k))
                            for i in range(n) for j in range(n) for k in range(n)))
    return chk.report()


def _first_failing(tuples, ok):
    return next((t for t in tuples if not ok(*t)), None)


def reference_condition_j_sides(v: TwoTermHL, i, j, k, l, phi0_cols, phi0sq_cols):
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


def reference_two_term_witnesses(v: TwoTermHL) -> dict:
    """{law: first failing tuple or None} for (h), (i), (j) and l3-equivariance."""
    n0, n1 = v.dim0, v.dim1
    phi0_cols = [v.phi0.column(t) for t in range(n0)]
    phi1_cols = [v.phi1.column(t) for t in range(n1)]
    phi0sq = v.phi0 * v.phi0
    phi0sq_cols = [phi0sq.column(t) for t in range(n0)]

    def cond_h(i, j, k):
        rhs = v.l2_vv(phi0_cols[i], v.l2_00[j][k])
        rhs = vadd(rhs, v.l2_vv(phi0_cols[j], v.l2_00[k][i]))
        rhs = vadd(rhs, v.l2_vv(phi0_cols[k], v.l2_00[i][j]))
        return v.d.apply(v.l3[i][j][k]) == rhs

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
        return v.l3_eval(phi0_cols[i], phi0_cols[j], phi0_cols[k]) == v.phi1.apply(v.l3[i][j][k])

    r0 = range(n0)
    return {"(h)": _first_failing(product(r0, r0, r0), cond_h),
            "(i)": _first_failing(product(r0, r0, range(n1)), cond_i),
            "(j)": _first_failing(product(r0, r0, r0, r0), cond_j),
            "l3-equivariance": _first_failing(product(r0, r0, r0), equivariant)}


def reference_jacobiator_broken_stage(L: HomLie2Data, obj_basis, phi0sq, i, j, k, l):
    """Evaluate both composite arrows of the coherence diagram at a basis
    4-tuple and compare them as (source, V1-part) pairs; return the name of
    the first stage that breaks, or None when the diagram commutes."""
    tvs = L.tvs
    B, PHI = L.b_obj, L.phi_obj
    PHI2 = phi0sq.apply
    dmul = tvs.d.apply
    w, x, y, z = obj_basis[i], obj_basis[j], obj_basis[k], obj_basis[l]
    wx, wy, wz = B(w, x), B(w, y), B(w, z)
    xy, xz, yz = B(x, y), B(x, z), B(y, z)

    def add3(*vs):
        out = vs[0]
        for v_ in vs[1:]:
            out = vadd(out, v_)
        return out

    # ---- left/top composite ------------------------------------------------
    p1 = L.jac_mor(wx, PHI(y), PHI(z))
    src = p1[0]
    top = vadd(B(PHI(wx), B(PHI(y), PHI(z))), B(B(wx, PHI(z)), PHI2(y)))
    if vadd(src, dmul(p1[1])) != top:
        return "top"
    n2 = L.b_mor(L.jac_mor(w, x, z), tvs.ident(PHI2(y)))
    m_obj = add3(B(PHI(wx), B(PHI(y), PHI(z))),
                 B(B(PHI(w), xz), PHI2(y)),
                 B(B(wz, PHI(x)), PHI2(y)))
    if vadd(top, dmul(n2[1])) != m_obj:
        return "n2"
    n3a = L.jac_mor(PHI(w), xz, PHI(y))
    n3b = L.jac_mor(wz, PHI(x), PHI(y))
    q_obj = add3(B(PHI(wx), B(PHI(y), PHI(z))),
                 B(PHI2(w), B(xz, PHI(y))),
                 B(B(PHI(w), PHI(y)), PHI(xz)),
                 B(PHI(wz), B(PHI(x), PHI(y))),
                 B(B(wz, PHI(y)), PHI2(x)))
    if add3(m_obj, dmul(n3a[1]), dmul(n3b[1])) != q_obj:
        return "n3"
    lhs_m = add3(p1[1], n2[1], n3a[1], n3b[1])

    # ---- right/bottom composite ---------------------------------------------
    r1 = L.b_mor(L.jac_mor(w, x, y), tvs.ident(PHI2(z)))
    if r1[0] != src:
        return "r1-source"
    left_mid = vadd(B(B(PHI(w), xy), PHI2(z)), B(B(wy, PHI(x)), PHI2(z)))
    if vadd(src, dmul(r1[1])) != left_mid:
        return "r1"
    r2a = L.jac_mor(PHI(w), xy, PHI(z))
    r2b = L.jac_mor(wy, PHI(x), PHI(z))
    p_obj = add3(B(PHI2(w), B(xy, PHI(z))),
                 B(B(PHI(w), PHI(z)), PHI(xy)),
                 B(PHI(wy), B(PHI(x), PHI(z))),
                 B(B(wy, PHI(z)), PHI2(x)))
    if add3(left_mid, dmul(r2a[1]), dmul(r2b[1])) != p_obj:
        return "r2"
    r3a = L.b_mor(tvs.ident(PHI2(w)), L.jac_mor(x, y, z))
    r3b = L.b_mor(L.jac_mor(w, y, z), tvs.ident(PHI2(x)))
    r4 = L.jac_mor(PHI(w), yz, PHI(x))
    if add3(p_obj, dmul(r3a[1]), dmul(r3b[1]), dmul(r4[1])) != q_obj:
        return "r3/r4"
    rhs_m = add3(r1[1], r2a[1], r2b[1], r3a[1], r3b[1], r4[1])
    return None if lhs_m == rhs_m else "final"


def reference_hom_lie2_witnesses(L: HomLie2Data) -> dict:
    """{law: first failing tuple or None}, in the order of the report, for
    every law of `check_hom_lie2` built as a residual, and the broken stage
    of the hom-Jacobiator under "stage" (None when the diagram commutes).
    The arrow laws evaluate both sides at each pair or triple of basis arrows."""
    tvs = L.tvs
    n0, nm = tvs.dim0, tvs.dim0 + tvs.dim1
    obj_basis = [tuple(1 if t == i else 0 for t in range(n0)) for i in range(n0)]
    mor_basis = list(tvs.mor_basis())
    phi0sq = L.Phi0 * L.Phi0

    def bracket_source(p, q):
        mu, nu = mor_basis[p], mor_basis[q]
        return tvs.source(L.b_mor(mu, nu)) == L.b_obj(tvs.source(mu), tvs.source(nu))

    def bracket_target(p, q):
        mu, nu = mor_basis[p], mor_basis[q]
        return tvs.target(L.b_mor(mu, nu)) == L.b_obj(tvs.target(mu), tvs.target(nu))

    def bracket_identities(i, j):
        x, y = obj_basis[i], obj_basis[j]
        return L.b_mor(tvs.ident(x), tvs.ident(y)) == tvs.ident(L.b_obj(x, y))

    def phi_source(p):
        return tvs.source(L.phi_mor(mor_basis[p])) == L.Phi0.apply(tvs.source(mor_basis[p]))

    def phi_target(p):
        return tvs.target(L.phi_mor(mor_basis[p])) == L.Phi0.apply(tvs.target(mor_basis[p]))

    def phi_identities(i):
        return L.phi_mor(tvs.ident(obj_basis[i])) == tvs.ident(L.Phi0.apply(obj_basis[i]))

    def phi_bracket(p, q):
        mu, nu = mor_basis[p], mor_basis[q]
        return L.phi_mor(L.b_mor(mu, nu)) == L.b_mor(L.phi_mor(mu), L.phi_mor(nu))

    def arrow_valid(i, j, k):
        x, y, z = obj_basis[i], obj_basis[j], obj_basis[k]
        expected = vadd(L.b_obj(L.phi_obj(x), L.b_obj(y, z)),
                        L.b_obj(L.b_obj(x, z), L.phi_obj(y)))
        return tvs.target(L.jac_mor(x, y, z)) == expected

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
        j_t = L.jac_mor(tvs.target(mu), tvs.target(nu), tvs.target(rho))
        j_s = L.jac_mor(tvs.source(mu), tvs.source(nu), tvs.source(rho))
        if tvs.target(f) != j_t[0] or tvs.target(j_s) != g[0]:
            return False
        return (f[0], vadd(f[1], j_t[1])) == (j_s[0], vadd(j_s[1], g[1]))

    def commutes(i, j, k, l):
        return reference_jacobiator_broken_stage(L, obj_basis, phi0sq, i, j, k, l) is None

    r0, rm = range(n0), range(nm)
    first = _first_failing(product(r0, r0, r0, r0), commutes)
    return {"bracket-source": _first_failing(product(rm, rm), bracket_source),
            "bracket-target": _first_failing(product(rm, rm), bracket_target),
            "bracket-identities": _first_failing(product(r0, r0), bracket_identities),
            "phi-source": _first_failing(product(rm), phi_source),
            "phi-target": _first_failing(product(rm), phi_target),
            "phi-identities": _first_failing(product(r0), phi_identities),
            "phi-bracket": _first_failing(product(rm, rm), phi_bracket),
            "jacobiator-arrow": _first_failing(product(r0, r0, r0), arrow_valid),
            "jacobiator-equivariance": _first_failing(product(r0, r0, r0), equivariant),
            "jacobiator-naturality": _first_failing(product(rm, rm, rm), natural),
            "hom-jacobiator": first,
            "stage": first and reference_jacobiator_broken_stage(L, obj_basis, phi0sq, *first)}


def reference_check_hl_morphism(m: HLMorphism) -> CheckReport:
    """The per-tuple morphism check: every pair and triple evaluated afresh."""
    src, tgt = m.source, m.target
    n0, n1 = src.dim0, src.dim1
    f0_cols = [m.f0.column(i) for i in range(n0)]
    f1_cols = [m.f1.column(a) for a in range(n1)]
    sphi0_cols = [src.phi0.column(i) for i in range(n0)]
    chk = LawChecker("hl_morphism")
    chk.add_matrix_eq("chain-map", m.f0 * src.d, tgt.d * m.f1)
    chk.add_matrix_eq("phi0-intertwined", m.f0 * src.phi0, tgt.phi0 * m.f0)
    chk.add_matrix_eq("phi1-intertwined", m.f1 * src.phi1, tgt.phi1 * m.f1)
    chk.scan("f2-skew", (((i, j), m.f2[i][j] == vneg(m.f2[j][i]))
                         for i in range(n0) for j in range(n0)))
    chk.scan("f2-equivariance",
             (((i, j), m.f2_eval(sphi0_cols[i], sphi0_cols[j]) == tgt.phi1.apply(m.f2[i][j]))
              for i in range(n0) for j in range(n0)))
    chk.scan("bracket-defect",
             (((i, j),
               tgt.d.apply(m.f2[i][j]) ==
               tuple(p - q for p, q in zip(m.f0.apply(src.l2_00[i][j]),
                                           tgt.l2_vv(f0_cols[i], f0_cols[j]))))
              for i in range(n0) for j in range(n0)))
    chk.scan("action-defect",
             (((i, a),
               m.f2_eval(src.basis0(i), src.d.column(a)) ==
               tuple(p - q for p, q in zip(m.f1.apply(src.l2_01[i][a]),
                                           tgt.l2_vm(f0_cols[i], f1_cols[a]))))
              for i in range(n0) for a in range(n1)))

    def jac_defect(i, j, k):
        f0phi = [m.f0.apply(sphi0_cols[t]) for t in (i, j, k)]
        lhs = vneg(tgt.l2_vm(f0phi[2], m.f2[i][j]))              # l2'(f2(x,y), f0 phi0 z)
        lhs = vadd(lhs, m.f2_eval(src.l2_00[i][j], sphi0_cols[k]))
        lhs = vadd(lhs, m.f1.apply(src.l3[i][j][k]))
        rhs = tgt.l3_eval(f0_cols[i], f0_cols[j], f0_cols[k])
        rhs = vadd(rhs, tgt.l2_vm(f0phi[0], m.f2[j][k]))
        rhs = vadd(rhs, vneg(tgt.l2_vm(f0phi[1], m.f2[i][k])))   # l2'(f2(x,z), f0 phi0 y)
        rhs = vadd(rhs, m.f2_eval(sphi0_cols[i], src.l2_00[j][k]))
        rhs = vadd(rhs, m.f2_eval(src.l2_00[i][k], sphi0_cols[j]))
        return lhs == rhs

    chk.scan("jacobiator-defect", (((i, j, k), jac_defect(i, j, k))
                                   for i in range(n0) for j in range(n0) for k in range(n0)))
    return chk.report()
