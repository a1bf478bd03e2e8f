"""Representations of hom-Lie algebras and their cochain cohomology.

A representation is a family rho(e_i) of module endomorphisms together with
a module twist A satisfying

    (i)  rho(phi(u)) ∘ A = A ∘ rho(u)
    (ii) rho([u,v]) ∘ A  = rho(phi(u)) ∘ rho(v) − rho(phi(v)) ∘ rho(u),

each checked as one residual tensor (see `exactlin`) in the algebra slots
and the module slot.

A k-hom-cochain is a skew k-linear map f into the module intertwining the
twists, A∘f = f∘phi^(⊗k); C^k is the kernel of A⊗1 − Λ^k phi on the full
skew k-space.  The differential d_k is assembled once per degree as a matrix
on that full space (`coboundary_matrix`),

    (df)(u_1..u_{k+1}) = Σ_i (−1)^{i+1} rho(phi^{k−1}(u_i)) f(..û_i..)
                       + Σ_{i<j} (−1)^{i+j} f([u_i,u_j], phi(u_1)..û_i..û_j..phi(u_{k+1})),

and its restriction to hom-cochains is the twisted coboundary, with d∘d = 0
on hom-cochains of degree >= 1.  Every cohomology answer is a rank, kernel
or product of these matrices.  Degree 0 is a convention of this artifact,
not part of the twisted formula (whose spectator power phi^{k−1} is
undefined at k = 0 for singular phi): it is the k = 0 case of the matrix
with the identity in place of phi^{k−1}, so C^0 is the A-fixed subspace and
(dv)(u) = rho(u)v.  It enters B^1 and the k = 1 exactness test, where
B^1 ⊆ Z^1 is verified rather than assumed.  Items touching it say so in
their notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from math import comb

from .errors import InputError, PreconditionError
from .exactlin import (F0, Matrix, Vec, _ap, _sum, det_of, dok, is_zero_vec, rank,
                       rank_and_kernel, solve_linear, vadd, vscale, zero_vec)
from .homlie import HomLieAlgebra
from .reports import CheckReport, LawChecker


@dataclass(frozen=True)
class Representation:
    """Action rho of `algebra` on a module of dimension module_dim, twisted by A."""

    algebra: HomLieAlgebra
    module_dim: int
    A: Matrix
    rho: tuple[Matrix, ...]

    def __post_init__(self):
        m, n = self.module_dim, self.algebra.dim
        object.__setattr__(self, "rho", tuple(self.rho))
        if self.A.shape() != (m, m):
            raise InputError(f"module twist must be {m}x{m}, got {self.A.shape()}")
        if len(self.rho) != n:
            raise InputError(f"need one action matrix per basis element ({n}), got {len(self.rho)}")
        for i, r in enumerate(self.rho):
            if r.shape() != (m, m):
                raise InputError(f"rho[{i}] must be {m}x{m}, got {r.shape()}")

    def rho_at(self, x: Vec) -> Matrix:
        """rho evaluated at a coordinate vector."""
        m = self.module_dim
        out = [[0] * m for _ in range(m)]
        for c, r in zip(x, self.rho):
            if c:
                for row, src in zip(out, r.data):
                    row[:] = [a + c * e if e else a for a, e in zip(row, src)]
        return Matrix(m, m, out)


def check_representation(r: Representation) -> CheckReport:
    """(i) and (ii) in the algebra slots a, b and the module slot m; a
    failure names (i,) or (i, j)."""
    g = r.algebra
    n = g.dim
    rho, phi, A = (partial(_ap, dok(t)) for t in (r.rho, g.phi, r.A))   # rho(x, v) = rho(x)v
    chk = LawChecker("representation")
    chk.scan_zero("twist-compatibility", (n,), _sum(
        (1, rho(phi("a"), A("m"))), (-1, A(rho("a", "m"))))[1])
    chk.scan_zero("bracket-action", (n, n), _sum(
        (1, rho(_ap(dok(g.bracket), "a", "b"), A("m"))),
        (-1, rho(phi("a"), rho("b", "m"))), (1, rho(phi("b"), rho("a", "m"))))[1])
    return chk.report()


def trivial_representation(g: HomLieAlgebra) -> Representation:
    """One-dimensional module, identity twist, zero action."""
    return Representation(g, 1, Matrix.identity(1), tuple(Matrix.zeros(1, 1) for _ in range(g.dim)))


def adjoint_representation(g: HomLieAlgebra) -> Representation:
    """rho(x) = ad_x on g itself, twisted by phi."""
    return Representation(g, g.dim, g.phi, tuple(g.ad(g.basis(i)) for i in range(g.dim)))


def dual_representation(r: Representation) -> Representation | None:
    """The contragredient action rho*(x) = −rho(x)^T with twist A^T, when it exists.

    Returned only if it passes the full representation check, whose
    bracket-action law is the transpose of the pairing condition
    A∘rho([x,y]) = rho(x)∘rho(phi y) − rho(y)∘rho(phi x).
    """
    candidate = Representation(r.algebra, r.module_dim, r.A.transpose(),
                               tuple(-(m.transpose()) for m in r.rho))
    return candidate if check_representation(candidate).ok else None


# --------------------------------------------------------------------------
# Cochains
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Cochain:
    """Skew k-linear map g^k -> module, stored on increasing basis tuples.

    comps[r] is the module value on the r-th k-combination of basis indices
    in lexicographic order; other index tuples follow by skewness.
    """

    degree: int
    alg_dim: int
    module_dim: int
    comps: tuple[Vec, ...]

    def __post_init__(self):
        expected = _n_tuples(self.alg_dim, self.degree)
        object.__setattr__(self, "comps", tuple(tuple(x for x in c) for c in self.comps))
        if len(self.comps) != expected:
            raise InputError(f"cochain needs {expected} components, got {len(self.comps)}")
        for c in self.comps:
            if len(c) != self.module_dim:
                raise InputError("cochain component has wrong module dimension")

    def tuples(self):
        return combinations(range(self.alg_dim), self.degree)

    def component(self, t) -> Vec:
        try:
            return self.comps[_tuple_index(self.alg_dim, self.degree)[tuple(t)]]
        except KeyError:
            raise InputError(f"not an increasing {self.degree}-tuple below "
                             f"{self.alg_dim}: {tuple(t)}") from None

    def evaluate(self, vectors: list[Vec]) -> Vec:
        """Multilinear-skew evaluation at arbitrary coordinate vectors."""
        if len(vectors) != self.degree:
            raise InputError(f"expected {self.degree} arguments")
        out = [F0] * self.module_dim
        for s, d in _minors(vectors):
            for a, e in enumerate(self.component(s)):
                if e != 0:
                    out[a] += d * e
        return tuple(out)

    def coords(self) -> Vec:
        return tuple(x for c in self.comps for x in c)

    def is_zero(self) -> bool:
        return all(is_zero_vec(c) for c in self.comps)

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain(self.degree, self.alg_dim, self.module_dim,
                       tuple(vadd(a, b) for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain(self.degree, self.alg_dim, self.module_dim,
                       tuple(tuple(x - y for x, y in zip(a, b))
                             for a, b in zip(self.comps, other.comps)))

    def scale(self, c) -> "Cochain":
        return Cochain(self.degree, self.alg_dim, self.module_dim,
                       tuple(vscale(c, comp) for comp in self.comps))

    def _compatible(self, other: "Cochain"):
        if (self.degree, self.alg_dim, self.module_dim) != \
                (other.degree, other.alg_dim, other.module_dim):
            raise InputError("cochain shape mismatch")


def _n_tuples(n: int, k: int) -> int:
    return comb(n, k) if k >= 0 else 0


@lru_cache(maxsize=None)
def _tuple_index(n: int, k: int) -> dict:
    """Position of every increasing k-tuple of range(n) in lexicographic order."""
    return {t: i for i, t in enumerate(combinations(range(n), k))}


def _minors(vectors: list[Vec]):
    """(s, det) for each increasing index tuple s where the minor of the k
    vectors on rows s is nonzero.  Only tuples inside the union of the
    vectors' supports are tried; every other minor has a zero row."""
    if any(is_zero_vec(v) for v in vectors):
        return
    support = sorted({i for v in vectors for i, x in enumerate(v) if x != 0})
    for s in combinations(support, len(vectors)):
        d = det_of([tuple(v[i] for i in s) for v in vectors])
        if d != 0:
            yield s, d


def zero_cochain(degree: int, alg_dim: int, module_dim: int) -> Cochain:
    return Cochain(degree, alg_dim, module_dim,
                   tuple(zero_vec(module_dim) for _ in range(_n_tuples(alg_dim, degree))))


def cochain_from_coords(degree: int, alg_dim: int, module_dim: int, flat: Vec) -> Cochain:
    count = _n_tuples(alg_dim, degree)
    if len(flat) != count * module_dim:
        raise InputError("coordinate vector has wrong length for this cochain shape")
    comps = tuple(tuple(flat[r * module_dim + a] for a in range(module_dim)) for r in range(count))
    return Cochain(degree, alg_dim, module_dim, comps)


def cochain_from_function(degree: int, alg_dim: int, module_dim: int, fn) -> Cochain:
    """Build from a callable on increasing index tuples."""
    return Cochain(degree, alg_dim, module_dim,
                   tuple(tuple(fn(t)) for t in combinations(range(alg_dim), degree)))


def _hom_system(r: Representation, k: int) -> Matrix:
    """A⊗1 − Λ^k phi on the full skew k-space; its kernel is C^k_{phi,A}."""
    n, m = r.algebra.dim, r.module_dim
    index = _tuple_index(n, k)
    phi_cols = r.algebra.phi.columns()
    size = len(index) * m
    rows = [[F0] * size for _ in range(size)]
    for ti, t in enumerate(index):
        for a in range(m):
            rows[ti * m + a][ti * m:ti * m + m] = r.A.row(a)
        # f(phi e_{t_1}, .., phi e_{t_k}) = Σ_s det · f(e_s)
        for s, d in _minors([phi_cols[i] for i in t]):
            for a in range(m):
                rows[ti * m + a][index[s] * m + a] -= d
    return Matrix(size, size, rows)


def is_hom_cochain(f: Cochain, r: Representation) -> bool:
    """A∘f = f∘phi^(⊗k) on every increasing basis tuple."""
    if f.alg_dim != r.algebra.dim or f.module_dim != r.module_dim:
        raise InputError("cochain does not match the representation's shapes")
    return is_zero_vec(_hom_system(r, f.degree).apply(f.coords()))


# --------------------------------------------------------------------------
# The coboundary matrix
# --------------------------------------------------------------------------

def coboundary_matrix(r: Representation, k: int) -> Matrix:
    """d_k on the full skew k-space, built once from the bracket, rho and phi.

    Column (s, b) is the b-th module coordinate on the increasing k-tuple s,
    row (t, a) the a-th on the increasing (k+1)-tuple t, both in the layout
    of `Cochain.coords()`.  The action term carries rho(phi^{k−1}(e_i)), with
    the identity in place of phi^{k−1} at k = 0; in the bracket term the
    spectators carry one phi and the bracket slot none.  Restricted to
    hom-cochains this is the twisted coboundary.
    """
    if k < 0:
        raise InputError("negative degree")
    g, m = r.algebra, r.module_dim
    n = g.dim
    cols = _tuple_index(n, k)
    width = len(cols) * m
    phi_cols = g.phi.columns()
    phi_pow = g.phi.power(max(k - 1, 0))
    rho_tw = [r.rho_at(phi_pow.column(i)).data for i in range(n)]
    rows = []
    for t in combinations(range(n), k + 1):
        block = [[F0] * width for _ in range(m)]
        for pos in range(k + 1):
            sign = -1 if pos % 2 else 1
            c0 = cols[t[:pos] + t[pos + 1:]] * m
            for a, rho_row in enumerate(rho_tw[t[pos]]):
                for b, x in enumerate(rho_row):
                    if x != 0:
                        block[a][c0 + b] += sign * x
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                sign = -1 if (p + q) % 2 else 1
                args = [g.bracket[t[p]][t[q]]] + [phi_cols[t[s]] for s in range(k + 1)
                                                  if s != p and s != q]
                for s, d in _minors(args):
                    c0 = cols[s] * m
                    for a in range(m):
                        block[a][c0 + a] += sign * d
        rows += block
    return Matrix(len(rows), width, rows)


def coboundary(f: Cochain, r: Representation) -> Cochain:
    """The twisted coboundary of a k-hom-cochain, k >= 1: D_k applied to f."""
    if f.degree < 1:
        raise InputError("coboundary is defined for degree >= 1 "
                         "(degree 0 follows the A-fixed convention, see cohomology_dims)")
    if not is_hom_cochain(f, r):
        raise PreconditionError("coboundary requires a hom-cochain (A∘f = f∘phi^⊗k)")
    flat = coboundary_matrix(r, f.degree).apply(f.coords())
    return cochain_from_coords(f.degree + 1, f.alg_dim, f.module_dim, flat)


def degree0_coboundary(v: Vec, r: Representation) -> Cochain:
    """(dv)(u) = rho(u)v for an A-fixed module vector v (artifact convention)."""
    if len(v) != r.module_dim:
        raise InputError("module vector has wrong length")
    if r.A.apply(v) != tuple(v):
        raise PreconditionError("degree-0 coboundary requires an A-fixed vector")
    return cochain_from_coords(1, r.algebra.dim, r.module_dim,
                               coboundary_matrix(r, 0).apply(tuple(v)))


# --------------------------------------------------------------------------
# Cohomology spaces
# --------------------------------------------------------------------------

def _kernel_columns(m: Matrix) -> Matrix:
    """The exact kernel basis of m, as the columns of a matrix."""
    return Matrix.from_columns(rank_and_kernel(m)[1], rows=m.cols)


def hom_cochain_basis(r: Representation, k: int) -> list[Cochain]:
    """Basis of C^k_{phi,A}: kernel of the linear system A∘f − f∘phi^⊗k = 0
    inside the space of skew k-tensors.  C^0 is the A-fixed subspace."""
    if k < 0:
        raise InputError("negative degree")
    _, kernel = rank_and_kernel(_hom_system(r, k))
    return [cochain_from_coords(k, r.algebra.dim, r.module_dim, v) for v in kernel]


def _exact_columns(r: Representation, k: int) -> Matrix:
    """Columns D_{k−1}·c spanning B^k in the full skew k-space, for c running
    over the basis of C^{k−1}; B^0 = 0."""
    if k == 0:
        return Matrix.zeros(r.module_dim, 0)
    return coboundary_matrix(r, k - 1) * _kernel_columns(_hom_system(r, k - 1))


def cohomology_dims(r: Representation, k: int) -> tuple[int, int, int, int]:
    """(dim C^k_{phi,A}, dim Z^k, dim B^k, dim H^k), all exact.

    k = 0 returns the invariants-subspace convention: C^0 = A-fixed vectors,
    Z^0 = those also killed by every rho(u), B^0 = 0.
    """
    if k < 0:
        raise InputError("negative degree")
    hom_k = _hom_system(r, k)
    c_k = _kernel_columns(hom_k)
    if c_k.cols == 0:
        return (0, 0, 0, 0)
    d_k = coboundary_matrix(r, k)
    dim_z = c_k.cols - rank(d_k * c_k)
    img = _exact_columns(r, k)
    dim_b = rank(img)
    # B^k ⊆ Z^k: every generator of B is a hom-cochain that d kills
    # (automatic for k >= 2 and a valid representation).
    if not (hom_k * img).is_zero():
        raise PreconditionError("coboundary requires a hom-cochain (A∘f = f∘phi^⊗k)")
    if not (d_k * img).is_zero():
        raise PreconditionError(
            "B^1 is not contained in Z^1 for this representation under the "
            "degree-0 convention; see the package docs")
    return (c_k.cols, dim_z, dim_b, dim_z - dim_b)


def class_is_trivial(f: Cochain, r: Representation) -> bool:
    """True iff the closed hom-cochain f is a coboundary (decided by exact solving)."""
    if not is_hom_cochain(f, r):
        raise PreconditionError("class_is_trivial requires a hom-cochain")
    if f.degree < 1:
        raise InputError("class_is_trivial is for degree >= 1")
    if not is_zero_vec(coboundary_matrix(r, f.degree).apply(f.coords())):
        raise PreconditionError("class_is_trivial requires a closed cochain (df = 0)")
    return _is_exact(f, r)


def _is_exact(f: Cochain, r: Representation) -> bool:
    """Whether f, a closed hom-cochain of degree >= 1 for r, lies in B^k."""
    return f.is_zero() or solve_linear(_exact_columns(r, f.degree), f.coords()) is not None


# --------------------------------------------------------------------------
# Inclusion of twisted cohomology into the ordinary cohomology of g_phi
# --------------------------------------------------------------------------

def _span_intersection(us: list[Vec], ws: list[Vec]) -> list[Vec]:
    """Basis vectors of span(us) ∩ span(ws)."""
    if not us or not ws:
        return []
    cols = [list(u) for u in us] + [[-x for x in w] for w in ws]
    mat = Matrix.from_columns([tuple(c) for c in cols])
    _, ker = rank_and_kernel(mat)
    vectors = []
    for z in ker:
        v = zero_vec(len(us[0]))
        for coef, u in zip(z[:len(us)], us):
            if coef != 0:
                v = vadd(v, vscale(coef, u))
        if not is_zero_vec(v):
            vectors.append(v)
    # prune to an independent set
    out: list[Vec] = []
    for v in vectors:
        if not out or solve_linear(Matrix.from_columns(out), v) is None:
            out.append(v)
    return out


def cohomology_inclusion_check(g: HomLieAlgebra, k: int) -> CheckReport:
    """Verify that H^k of g (trivial coefficients) embeds in H^k of the Lie
    algebra g_phi: closed stays closed, exact stays exact, and nothing new
    becomes exact (injectivity), all by exact linear algebra.
    """
    from .homlie import twisted_algebra
    if not g.is_involutive():
        raise PreconditionError("cohomology_inclusion_check requires an involutive twist")
    if k < 1:
        raise InputError("inclusion check is for degree >= 1")
    r_hom = trivial_representation(g)
    g_tw = twisted_algebra(g)
    r_ord = trivial_representation(g_tw)

    c_hom = _kernel_columns(_hom_system(r_hom, k))
    z_hom = [c_hom.apply(v) for v in rank_and_kernel(coboundary_matrix(r_hom, k) * c_hom)[1]]
    b_hom = [c for c in _exact_columns(r_hom, k).columns() if not is_zero_vec(c)]
    b_ord = [c for c in _exact_columns(r_ord, k).columns() if not is_zero_vec(c)]
    # g_phi has identity twist, so every cochain is a hom-cochain over it
    d_ord = coboundary_matrix(r_ord, k)

    def closed_ord(v):
        return is_zero_vec(d_ord.apply(v))

    def in_span_of(vectors, v):
        if not vectors:
            return is_zero_vec(v)
        return solve_linear(Matrix.from_columns(vectors), v) is not None

    chk = LawChecker("cohomology_inclusion")
    chk.scan("closed-in-twisted",
             (((idx,), closed_ord(v)) for idx, v in enumerate(z_hom)),
             note=f"{len(z_hom)} generator(s) of Z^{k}")
    chk.scan("exact-in-twisted",
             (((idx,), closed_ord(v) and in_span_of(b_ord, v)) for idx, v in enumerate(b_hom)),
             note=f"{len(b_hom)} generator(s) of B^{k}")
    inter = _span_intersection(z_hom, b_ord)
    chk.scan("injective", (((idx,), in_span_of(b_hom, v)) for idx, v in enumerate(inter)),
             note=f"intersection dim {len(inter)}")
    return chk.report()
