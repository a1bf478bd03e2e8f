"""Two-term homotopy hom-Lie structures and their categorical counterparts.

A TwoTermHL packs a 2-term complex d: V1 -> V0 with a bracket l2 (components
V0xV0->V0 and V0xV1->V1; the V1xV1 component is structurally zero), a fully
skew trilinear l3: V0^3 -> V1, and twists phi0, phi1.  `check_two_term`
verifies the ten coherence conditions (a)-(j):

    (a) l2(x,y) = -l2(y,x)
    (b) l2(x,m) = -l2(m,x)                      [structural in this storage]
    (c) l2(m,n) = 0                             [structural in this storage]
    (d) d l2(x,m) = l2(x, dm)
    (e) l2(dm, n) = l2(m, dn)
    (f) phi0 l2(x,y) = l2(phi0 x, phi0 y)
    (g) phi1 l2(x,m) = l2(phi0 x, phi1 m)
    (h) d l3(x,y,z) = l2(phi0 x, l2(y,z)) + l2(phi0 y, l2(z,x)) + l2(phi0 z, l2(x,y))
    (i) l3(x,y,dm) = l2(phi0 x, l2(y,m)) + l2(phi0 y, l2(m,x)) + l2(phi1 m, l2(x,y))
    (j) the coherence of l3 against l2 in four arguments (ten terms, in check_two_term)

plus the chain compatibility phi0∘d = d∘phi1, equivariance of l3, and
skewness of l3.  `functor_T` turns such data into its categorical
presentation (a 2-vector space with a bracket bifunctor, a twist functor,
and a Jacobiator), `functor_S` goes back, and `check_hom_lie2` verifies the
categorical laws directly in the (source, V1-part) model of arrows,
including the hom-Jacobiator coherence diagram, each of whose stages (every
intermediate object against the diagram's stated value) is its own
identity; a failure names the stage that broke.

The laws in three or four basis vectors ((h), (i), (j), l3-equivariance and
the Jacobiator's laws on objects) are built once each as a residual tensor
lhs − rhs by `exactlin.contract`, and scanned over the basis tuples as
lookups.  The other laws run per tuple on the sparse kernel.  Both run on
Python ints where the data is integral; the answers are those of Fraction
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import InputError
from .exactlin import (F0, Matrix, Tensor, Vec, _ap, _sum, dok, is_zero_vec, sparse_form,
                       sparse_vec, unit_vec, vadd, vneg, vec, zero_vec)
from .homlie import Tensor2, as_tensor2, bilinear_eval
from .reports import CheckReport, LawChecker
from .twovect import TwoVectorSpace, from_complex

Tensor3 = Tensor  # Tensor3[i][j][k] -> Vec


def as_tensor3(data, n: int, out_dim: int, field: str) -> Tensor3:
    try:
        t = Tensor(tuple(tuple(vec(data[i][j][k]) for k in range(n)) for j in range(n))
                   for i in range(n))
    except (IndexError, TypeError) as exc:
        raise InputError(f"{field}: expected a {n}^3 tensor of {out_dim}-vectors ({exc})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len(t[i][j][k]) != out_dim:
                    raise InputError(f"{field}[{i}][{j}][{k}] has wrong length")
    return t


def trilinear_eval(tensor: Tensor3, x: Vec, y: Vec, z: Vec, out_dim: int) -> Vec:
    """Evaluate a trilinear tensor on the sparse kernel; ints where integral."""
    out = [0] * out_dim
    ys, zs = sparse_vec(y), sparse_vec(z)
    if not ys or not zs:
        return tuple(out)
    sp = sparse_form(tensor)
    for i, a in enumerate(x):
        if not a:
            continue
        if a.__class__ is not int and a.denominator == 1:
            a = a.numerator
        ti = sp[i]
        for j, b in ys:
            tij = ti[j]
            ab = a * b
            for k, c in zs:
                entry = tij[k]
                if entry:
                    coef = ab * c
                    for idx, e in entry:
                        out[idx] += coef * e
    return tuple(out)


@dataclass(frozen=True)
class TwoTermHL:
    dim0: int
    dim1: int
    d: Matrix
    l2_00: Tensor2
    l2_01: Tensor2
    l3: Tensor3
    phi0: Matrix
    phi1: Matrix

    def __post_init__(self):
        n0, n1 = self.dim0, self.dim1
        if self.d.shape() != (n0, n1):
            raise InputError(f"d must be {n0}x{n1}, got {self.d.shape()}")
        object.__setattr__(self, "l2_00", as_tensor2(self.l2_00, n0, n0, n0, "l2_00"))
        object.__setattr__(self, "l2_01", as_tensor2(self.l2_01, n0, n1, n1, "l2_01"))
        object.__setattr__(self, "l3", as_tensor3(self.l3, n0, n1, "l3"))
        if self.phi0.shape() != (n0, n0):
            raise InputError("phi0 has wrong shape")
        if self.phi1.shape() != (n1, n1):
            raise InputError("phi1 has wrong shape")

    # l2 on mixed arguments; the V1xV1 component is zero by condition (c).
    def l2_vv(self, x: Vec, y: Vec) -> Vec:
        return bilinear_eval(self.l2_00, x, y, self.dim0)

    def l2_vm(self, x: Vec, m: Vec) -> Vec:
        return bilinear_eval(self.l2_01, x, m, self.dim1)

    def l2_mv(self, m: Vec, x: Vec) -> Vec:
        return vneg(self.l2_vm(x, m))

    def l3_eval(self, x: Vec, y: Vec, z: Vec) -> Vec:
        return trilinear_eval(self.l3, x, y, z, self.dim1)

    def basis0(self, i: int) -> Vec:
        return unit_vec(self.dim0, i)

    def basis1(self, a: int) -> Vec:
        return unit_vec(self.dim1, a)

    def is_skeletal(self) -> bool:
        return self.d.is_zero()

    def is_strict(self) -> bool:
        return not dok(self.l3)


def check_two_term(v: TwoTermHL) -> CheckReport:
    """Run conditions (a)-(j) plus the twist compatibilities, with witnesses.

    (h), (i), (j) and l3-equivariance are built once as residual tensors
    by `contract` and scanned as lookups."""
    n0, n1 = v.dim0, v.dim1
    phi0_cols = [v.phi0.column(t) for t in range(n0)]
    phi1_cols = [v.phi1.column(t) for t in range(n1)]
    chk = LawChecker("two_term_hl")
    L2, M2, L3 = dok(v.l2_00), dok(v.l2_01), dok(v.l3)
    D, P0, P1, P00 = dok(v.d), dok(v.phi0), dok(v.phi1), dok(v.phi0 * v.phi0)
    phi = partial(_ap, P0)

    chk.scan("(a)", (((i, j), v.l2_00[i][j] == vneg(v.l2_00[j][i]))
                     for i in range(n0) for j in range(n0)))
    chk.add("(b)", True, note="structural: only the V0xV1 component is stored")
    chk.add("(c)", True, note="structural: no V1xV1 component is stored")
    chk.scan("(d)", (((i, a), v.d.apply(v.l2_01[i][a]) == v.l2_vv(v.basis0(i), v.d.column(a)))
                     for i in range(n0) for a in range(n1)))
    chk.scan("(e)", (((a, b),
                      v.l2_vm(v.d.column(a), v.basis1(b)) ==
                      vneg(v.l2_vm(v.d.column(b), v.basis1(a))))
                     for a in range(n1) for b in range(n1)))
    chk.scan("(f)", (((i, j), v.phi0.apply(v.l2_00[i][j]) == v.l2_vv(phi0_cols[i], phi0_cols[j]))
                     for i in range(n0) for j in range(n0)))
    chk.scan("(g)", (((i, a), v.phi1.apply(v.l2_01[i][a]) == v.l2_vm(phi0_cols[i], phi1_cols[a]))
                     for i in range(n0) for a in range(n1)))
    l3 = ("abc", L3)                                           # l3(a,b,c)
    h = _ap(L2, phi("a"), _ap(L2, "b", "c"))                  # l2(φ0 a, l2(b,c))
    chk.scan_zero("(h)", (n0, n0, n0), _sum(
        (1, _ap(D, l3), "xyz"), (-1, h, "xyz"), (-1, h, "yzx"), (-1, h, "zxy"))[1])
    # (i) at (x, y, m), with the V1 slot c named z
    i2 = _ap(M2, phi("a"), _ap(M2, "b", "c"))                 # l2(φ0 a, l2(b,m))
    chk.scan_zero("(i)", (n0, n0, n1), _sum(
        (1, _ap(L3, "a", "b", _ap(D, "c")), "xyz"), (-1, i2, "xyz"), (1, i2, "yxz"),
        (1, _ap(M2, _ap(L2, "a", "b"), _ap(P1, "c")), "xyz"))[1])
    j1 = _ap(L3, _ap(L2, "a", "b"), phi("c"), phi("d"))        # l3(l2(a,b), φ0 c, φ0 d)
    j2 = _ap(L3, phi("a"), _ap(L2, "b", "c"), phi("d"))        # l3(φ0 a, l2(b,c), φ0 d)
    j3 = _ap(M2, _ap(P00, "a"), _ap(L3, "b", "c", "d"))       # l2(φ0² a, l3(b,c,d))
    chk.scan_zero("(j)", (n0,) * 4, _sum(
        (1, j1, "wxyz"), (1, j2, "wxzy"), (1, j1, "wzxy"),
        (-1, j1, "wyxz"), (-1, j2, "wxyz"), (-1, j2, "wyzx"),
        (-1, j3, "ywxz"), (1, j3, "zwxy"), (-1, j3, "wxyz"), (1, j3, "xwyz"))[1])

    chk.add_matrix_eq("phi-chain", v.phi0 * v.d, v.d * v.phi1)
    chk.scan_zero("l3-equivariance", (n0,) * 3, _sum(
        (1, _ap(L3, phi("a"), phi("b"), phi("c"))), (-1, _ap(P1, l3)))[1])
    chk.scan("l3-skew",
             (((i, j, k), v.l3[i][j][k] == vneg(v.l3[j][i][k])
               and v.l3[i][j][k] == vneg(v.l3[i][k][j]))
              for i in range(n0) for j in range(n0) for k in range(n0)))
    return chk.report()


def two_term_hl(dim0, dim1, d, l2_00, l2_01, l3, phi0, phi1) -> TwoTermHL:
    v = TwoTermHL(dim0, dim1, d, l2_00, l2_01, l3, phi0, phi1)
    check_two_term(v).require("two_term_hl")
    return v


# --------------------------------------------------------------------------
# Morphisms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HLMorphism:
    """(f0, f1, f2) between two-term structures; endpoints are part of the record."""

    source: TwoTermHL
    target: TwoTermHL
    f0: Matrix
    f1: Matrix
    f2: Tensor2  # V0 x V0 -> target V1

    def __post_init__(self):
        if self.f0.shape() != (self.target.dim0, self.source.dim0):
            raise InputError("f0 has wrong shape")
        if self.f1.shape() != (self.target.dim1, self.source.dim1):
            raise InputError("f1 has wrong shape")
        object.__setattr__(self, "f2", as_tensor2(
            self.f2, self.source.dim0, self.source.dim0, self.target.dim1, "f2"))

    def f2_eval(self, x: Vec, y: Vec) -> Vec:
        return bilinear_eval(self.f2, x, y, self.target.dim1)


def identity_hl_morphism(v: TwoTermHL) -> HLMorphism:
    zero = tuple(tuple(zero_vec(v.dim1) for _ in range(v.dim0)) for _ in range(v.dim0))
    return HLMorphism(v, v, Matrix.identity(v.dim0), Matrix.identity(v.dim1), zero)


def check_hl_morphism(m: HLMorphism) -> CheckReport:
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


def compose_hl_morphisms(first: HLMorphism, second: HLMorphism) -> HLMorphism:
    """second ∘ first; (g∘f)_2(x,y) = g2(f0 x, f0 y) + g1(f2(x,y))."""
    if first.target != second.source:
        raise InputError("morphism endpoints do not match")
    n0 = first.source.dim0
    f0_cols = [first.f0.column(i) for i in range(n0)]
    f2 = tuple(tuple(vadd(second.f2_eval(f0_cols[i], f0_cols[j]),
                          second.f1.apply(first.f2[i][j]))
                     for j in range(n0)) for i in range(n0))
    return HLMorphism(first.source, second.target,
                      second.f0 * first.f0, second.f1 * first.f1, f2)


# --------------------------------------------------------------------------
# The categorical presentation and the equivalence functors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HomLie2Data:
    """A 2-vector space with a bracket bifunctor, a twist functor and a Jacobiator.

    Arrows are (source, V1-part) pairs; `bracket_mor` is the bracket on
    arrow coordinates V0⊕V1; `jac[i][j][k]` is the V1-part of J_{e_i,e_j,e_k},
    whose source is derived as [[x,y], Phi0 z].
    """

    tvs: TwoVectorSpace
    bracket_obj: Tensor2
    bracket_mor: Tensor2
    Phi0: Matrix
    Phi1: Matrix
    jac: Tensor3

    def __post_init__(self):
        n0, n1 = self.tvs.dim0, self.tvs.dim1
        nm = n0 + n1
        object.__setattr__(self, "bracket_obj",
                           as_tensor2(self.bracket_obj, n0, n0, n0, "bracket_obj"))
        object.__setattr__(self, "bracket_mor",
                           as_tensor2(self.bracket_mor, nm, nm, nm, "bracket_mor"))
        object.__setattr__(self, "jac", as_tensor3(self.jac, n0, n1, "jac"))
        if self.Phi0.shape() != (n0, n0) or self.Phi1.shape() != (nm, nm):
            raise InputError("twist functor blocks have wrong shapes")

    def b_obj(self, x: Vec, y: Vec) -> Vec:
        return bilinear_eval(self.bracket_obj, x, y, self.tvs.dim0)

    def b_mor(self, mu, nu):
        coords = bilinear_eval(self.bracket_mor, self.tvs.mor_coords(mu),
                               self.tvs.mor_coords(nu), self.tvs.dim0 + self.tvs.dim1)
        return self.tvs.mor_from_coords(coords)

    def phi_obj(self, x: Vec) -> Vec:
        return self.Phi0.apply(x)

    def phi_mor(self, mu):
        return self.tvs.mor_from_coords(self.Phi1.apply(self.tvs.mor_coords(mu)))

    def jac_eval(self, x: Vec, y: Vec, z: Vec) -> Vec:
        return trilinear_eval(self.jac, x, y, z, self.tvs.dim1)

    def jac_mor(self, x: Vec, y: Vec, z: Vec):
        """J_{x,y,z} as an arrow: source [[x,y],Phi0(z)], V1-part jac(x,y,z)."""
        return (self.b_obj(self.b_obj(x, y), self.phi_obj(z)), self.jac_eval(x, y, z))


def _mor_add(a, b):
    return (vadd(a[0], b[0]), vadd(a[1], b[1]))


def functor_T(v: TwoTermHL) -> HomLie2Data:
    """Categorical presentation of a two-term structure.

    Bracket on arrows: [(x,m),(y,n)] = (l2(x,y), l2(x,n) + l2(m,y) + l2(dm,n));
    twist functor (phi0, phi0 ⊕ phi1); Jacobiator V1-part = l3.
    """
    n0, n1 = v.dim0, v.dim1
    nm = n0 + n1

    def bm_entry(p, q):
        out0, out1 = zero_vec(n0), zero_vec(n1)
        if p < n0 and q < n0:
            out0 = v.l2_00[p][q]
        elif p < n0:
            out1 = v.l2_01[p][q - n0]
        elif q < n0:
            out1 = vneg(v.l2_01[q][p - n0])
        else:
            out1 = v.l2_vm(v.d.column(p - n0), v.basis1(q - n0))
        return tuple(out0) + tuple(out1)

    bracket_mor = tuple(tuple(bm_entry(p, q) for q in range(nm)) for p in range(nm))
    phi1_full = Matrix(nm, nm, [
        [(v.phi0[i, j] if (i < n0 and j < n0) else
          v.phi1[i - n0, j - n0] if (i >= n0 and j >= n0) else F0)
         for j in range(nm)] for i in range(nm)])
    return HomLie2Data(from_complex(v.d), v.l2_00, bracket_mor, v.phi0, phi1_full, v.l3)


def functor_S(L: HomLie2Data) -> TwoTermHL:
    """Two-term structure extracted from a categorical presentation.

    V1 = Ker(s), d = t restricted, l2(x,m) = [i(x), m], l3 = the Jacobiator's
    V1-part.  The output is re-validated; a valid input yields a valid output.
    """
    tvs = L.tvs
    n0, n1 = tvs.dim0, tvs.dim1

    def e0(i):
        return unit_vec(n0, i)

    def e1(a):
        return ((0,) * n0, unit_vec(n1, a))

    for i in range(n0):
        for a in range(n1):
            mu = L.b_mor(tvs.ident(e0(i)), e1(a))
            if not is_zero_vec(mu[0]):
                raise InputError("bracket does not preserve Ker(s); cannot extract l2(x,m)")
    l2_01 = tuple(tuple(L.b_mor(tvs.ident(e0(i)), e1(a))[1] for a in range(n1))
                  for i in range(n0))
    # Phi1 must respect the arrow structure for the restriction to make sense.
    for i in range(n0):
        for a in range(n1):
            if L.Phi1[i, n0 + a] != 0:
                raise InputError("twist functor does not preserve Ker(s)")
    phi1 = Matrix(n1, n1, [[L.Phi1[n0 + a, n0 + b] for b in range(n1)] for a in range(n1)])
    out = TwoTermHL(n0, n1, tvs.d, L.bracket_obj, l2_01, L.jac, L.Phi0, phi1)
    check_two_term(out).require("functor_S output")
    return out


# --------------------------------------------------------------------------
# Verifying the categorical laws
# --------------------------------------------------------------------------

def check_hom_lie2(L: HomLie2Data) -> CheckReport:
    tvs = L.tvs
    n0, n1 = tvs.dim0, tvs.dim1
    nm = n0 + n1
    mor_basis = list(tvs.mor_basis())
    obj_basis = [unit_vec(n0, i) for i in range(n0)]
    v1_basis = [unit_vec(n1, a) for a in range(n1)]
    chk = LawChecker("hom_lie2")

    chk.scan("bracket-skew",
             (((p, q), L.bracket_mor[p][q] == vneg(L.bracket_mor[q][p]))
              for p in range(nm) for q in range(nm)))
    chk.scan("bracket-source",
             (((p, q), tvs.source(L.b_mor(mu, nu)) ==
               L.b_obj(tvs.source(mu), tvs.source(nu)))
              for p, mu in enumerate(mor_basis) for q, nu in enumerate(mor_basis)))
    chk.scan("bracket-target",
             (((p, q), tvs.target(L.b_mor(mu, nu)) ==
               L.b_obj(tvs.target(mu), tvs.target(nu)))
              for p, mu in enumerate(mor_basis) for q, nu in enumerate(mor_basis)))
    chk.scan("bracket-identities",
             (((i, j), L.b_mor(tvs.ident(x), tvs.ident(y)) ==
               tvs.ident(L.b_obj(x, y)))
              for i, x in enumerate(obj_basis) for j, y in enumerate(obj_basis)))

    def interchange(i, a, ap, j, b, bp):
        x, y = obj_basis[i], obj_basis[j]
        m, mp, n, np_ = v1_basis[a], v1_basis[ap], v1_basis[b], v1_basis[bp]
        lhs = L.b_mor((x, vadd(m, mp)), (y, vadd(n, np_)))
        first = L.b_mor((x, m), (y, n))
        second = L.b_mor((vadd(x, tvs.d.apply(m)), mp), (vadd(y, tvs.d.apply(n)), np_))
        return lhs == (first[0], vadd(first[1], second[1])) and \
            tvs.target(first) == second[0]

    chk.scan("bracket-interchange",
             (((i, a, ap, j, b, bp), interchange(i, a, ap, j, b, bp))
              for i in range(n0) for a in range(n1) for ap in range(n1)
              for j in range(n0) for b in range(n1) for bp in range(n1)),
             note="vertical composition is preserved")

    chk.scan("phi-source",
             (((p,), tvs.source(L.phi_mor(mu)) == L.Phi0.apply(tvs.source(mu)))
              for p, mu in enumerate(mor_basis)))
    chk.scan("phi-target",
             (((p,), tvs.target(L.phi_mor(mu)) == L.Phi0.apply(tvs.target(mu)))
              for p, mu in enumerate(mor_basis)))
    chk.scan("phi-identities",
             (((i,), L.phi_mor(tvs.ident(x)) == tvs.ident(L.Phi0.apply(x)))
              for i, x in enumerate(obj_basis)))
    chk.scan("phi-bracket",
             (((p, q), L.phi_mor(L.b_mor(mu, nu)) ==
               L.b_mor(L.phi_mor(mu), L.phi_mor(nu)))
              for p, mu in enumerate(mor_basis) for q, nu in enumerate(mor_basis)))

    chk.scan("jacobiator-skew",
             (((i, j, k), L.jac[i][j][k] == vneg(L.jac[j][i][k])
               and L.jac[i][j][k] == vneg(L.jac[i][k][j]))
              for i in range(n0) for j in range(n0) for k in range(n0)))

    arrow, equivariance, stages = _jacobiator_residuals(L)
    chk.scan_zero("jacobiator-arrow", (n0,) * 3, arrow, note="J lands where the diagram says")
    chk.scan_zero("jacobiator-equivariance", (n0,) * 3, equivariance)

    def natural(p, q, r):
        mu, nu, rho = mor_basis[p], mor_basis[q], mor_basis[r]
        f = L.b_mor(L.b_mor(mu, nu), L.phi_mor(rho))
        g = _mor_add(L.b_mor(L.phi_mor(mu), L.b_mor(nu, rho)),
                     L.b_mor(L.b_mor(mu, rho), L.phi_mor(nu)))
        j_t = L.jac_mor(tvs.target(mu), tvs.target(nu), tvs.target(rho))
        j_s = L.jac_mor(tvs.source(mu), tvs.source(nu), tvs.source(rho))
        if tvs.target(f) != j_t[0] or tvs.target(j_s) != g[0]:
            return False
        return (f[0], vadd(f[1], j_t[1])) == (j_s[0], vadd(j_s[1], g[1]))

    chk.scan("jacobiator-naturality", (((p, q, r), natural(p, q, r))
                                       for p in range(nm) for q in range(nm)
                                       for r in range(nm)))

    broken = set().union(*(residual for _, residual in stages))
    note = "coherence diagram, both composites compared stagewise"
    if not chk.scan_zero("hom-jacobiator", (n0,) * 4, broken, note=note):
        first = min(key[:-1] for key in broken)
        stage = next(name for name, res in stages if any(key[:-1] == first for key in res))
        chk.amend_note(f"{note}; broke at stage {stage}")
    return chk.report()


def _jacobiator_residuals(L: HomLie2Data):
    """The residuals of the Jacobiator's laws on objects, from the categorical
    data alone: `jacobiator-arrow` and `jacobiator-equivariance` in x, y, z,
    and each stage of the hom-Jacobiator coherence diagram in w, x, y, z.

    Arrows are in coordinates V0 ⊕ V1.  A stage compares an intermediate
    object with the value the diagram prescribes ('+1' summands are
    identities, with no V1-part): the targets of the left composite's arrows
    (top, n2, n3), the right composite's source and targets (r1-source, r1,
    r2, r3/r4), and at last the two V1-parts (final).
    """
    n0, n1 = L.tvs.dim0, L.tvs.dim1
    B, BM, J, D = dok(L.bracket_obj), dok(L.bracket_mor), dok(L.jac), dok(L.tvs.d)
    P, P2, PM = dok(L.Phi0), dok(L.Phi0 * L.Phi0), dok(L.Phi1)
    obj = {(i, i): 1 for i in range(n0)}       # i: V0 -> arrows, and the source back
    inc1 = {(a, n0 + a): 1 for a in range(n1)}  # V1 -> arrows
    v1 = {(n0 + a, a): 1 for a in range(n1)}    # arrows -> V1-part
    br, phi = partial(_ap, B), partial(_ap, P)

    def jac_arrow(x, y, z):     # J_{x,y,z}, with source [[x,y], Phi0 z]
        src = _ap(obj, br(br(x, y), phi(z)))
        return _sum((1, src), (1, _ap(inc1, _ap(J, x, y, z)), src[0]))

    arrow = _sum((1, br(br("x", "y"), phi("z"))), (1, _ap(D, ("xyz", J))),
                 (-1, br(phi("x"), br("y", "z"))), (-1, br(br("x", "z"), phi("y"))))
    equivariance = _sum((1, jac_arrow(phi("x"), phi("y"), phi("z"))),
                        (-1, _ap(PM, jac_arrow("x", "y", "z"))))

    # the composites of the diagram, each built once in the slots a, b, c, d
    ab, sq_a, sq_d = br("a", "b"), _ap(P2, "a"), _ap(P2, "d")
    o1 = br(br(ab, phi("c")), sq_d)                         # [[[a,b], φc], φ²d]
    o2 = br(phi(ab), br(phi("c"), phi("d")))                # [φ[a,b], [φc, φd]]
    o3 = br(br(phi("a"), br("b", "c")), sq_d)               # [[φa, [b,c]], φ²d]
    o4 = br(sq_a, br(br("b", "c"), phi("d")))               # [φ²a, [[b,c], φd]]
    o5 = br(br(phi("a"), phi("b")), phi(br("c", "d")))      # [[φa, φb], φ[c,d]]
    j1 = _ap(J, ab, phi("c"), phi("d"))                     # J_{[a,b], φc, φd}
    j2 = _ap(J, phi("a"), br("b", "c"), phi("d"))           # J_{φa, [b,c], φd}
    r = _ap(BM, jac_arrow("a", "b", "c"), _ap(obj, sq_d))   # [J_{a,b,c}, i(φ²d)]
    j3 = _ap(v1, r)
    j4 = _ap(v1, _ap(BM, _ap(obj, sq_a), jac_arrow("b", "c", "d")))  # [i(φ²a), J_{b,c,d}]
    dj1, dj2, dj3, dj4 = (_ap(D, j) for j in (j1, j2, j3, j4))

    def neg(terms):
        return [(-sign, e, names) for sign, e, names in terms]

    # left/top composite: J_{[w,x],φy,φz} from [[[w,x],φy],φ²z] to `top`,
    # then [J_{w,x,z}, φ²y] to m_obj, then J_{φw,[x,z],φy} + J_{[w,z],φx,φy} to q_obj
    src = [(1, o1, "wxyz")]
    top = [(1, o2, "wxyz"), (1, o1, "wxzy")]
    m_obj = [(1, o2, "wxyz"), (1, o3, "wxzy"), (1, o1, "wzxy")]
    q_obj = [(1, o2, "wxyz"), (1, o4, "wxzy"), (1, o5, "wyxz"), (1, o2, "wzxy"),
             (1, o1, "wzyx")]
    left_v1 = [(1, j1, "wxyz"), (1, j3, "wxzy"), (1, j2, "wxzy"), (1, j1, "wzxy")]
    # right/bottom composite: [J_{w,x,y}, φ²z] to left_mid, then J_{φw,[x,y],φz} +
    # J_{[w,y],φx,φz} to p_obj, then [φ²w, J_{x,y,z}] + [J_{w,y,z}, φ²x] + J_{φw,[y,z],φx}
    left_mid = [(1, o3, "wxyz"), (1, o1, "wyxz")]
    p_obj = [(1, o4, "wxyz"), (1, o5, "wzxy"), (1, o2, "wyxz"), (1, o1, "wyzx")]
    right_v1 = [(1, j3, "wxyz"), (1, j2, "wxyz"), (1, j1, "wyxz"), (1, j4, "wxyz"),
                (1, j3, "wyzx"), (1, j2, "wyzx")]
    stages = [
        ("top", src + [(1, dj1, "wxyz")] + neg(top)),
        ("n2", top + [(1, dj3, "wxzy")] + neg(m_obj)),
        ("n3", m_obj + [(1, dj2, "wxzy"), (1, dj1, "wzxy")] + neg(q_obj)),
        ("r1-source", [(1, _ap(obj, r), "wxyz")] + neg(src)),
        ("r1", src + [(1, dj3, "wxyz")] + neg(left_mid)),
        ("r2", left_mid + [(1, dj2, "wxyz"), (1, dj1, "wyxz")] + neg(p_obj)),
        ("r3/r4", p_obj + [(1, dj4, "wxyz"), (1, dj3, "wyzx"), (1, dj2, "wyzx")] + neg(q_obj)),
        ("final", left_v1 + neg(right_v1)),
    ]
    return arrow[1], equivariance[1], [(name, _sum(*terms)[1]) for name, terms in stages]


def roundtrip_check(obj) -> CheckReport:
    """Both halves of the equivalence on concrete data.

    For a TwoTermHL v: going to the categorical presentation and back must
    reproduce v bit-exactly, and the comparison functor on the presentation
    (identity on objects, (x, m) -> i(x)+m on arrows) must preserve brackets
    and twists.  For a HomLie2Data only the comparison-functor laws apply.
    """
    chk = LawChecker("roundtrip")
    if isinstance(obj, TwoTermHL):
        L = functor_T(obj)
        v = functor_S(L)
        chk.add("beta-identity", v == obj,
                note="extract-after-present returns the same tensors")
    elif isinstance(obj, HomLie2Data):
        L = obj
        v = functor_S(L)
    else:
        raise InputError("roundtrip_check expects a TwoTermHL or HomLie2Data")
    nm = L.tvs.dim0 + L.tvs.dim1
    expected = functor_T(v)
    chk.scan("alpha-bracket",
             (((p, q), L.bracket_mor[p][q] == expected.bracket_mor[p][q])
              for p in range(nm) for q in range(nm)),
             note="stored bracket equals the one induced by its own l2 parts")
    chk.add("alpha-phi", L.Phi1 == expected.Phi1,
            note="twist functor is block-diagonal over (objects, Ker s)")
    return chk.report()
