"""Representations of hom-Lie algebras and their cochain cohomology.

A representation is a family rho(e_i) of module endomorphisms together with
a module twist A satisfying

    (i)  rho(phi(u)) ∘ A = A ∘ rho(u)
    (ii) rho([u,v]) ∘ A  = rho(phi(u)) ∘ rho(v) − rho(phi(v)) ∘ rho(u),

each checked as one residual tensor (see `exactlin`) in the algebra slots
and the module slot.

A k-hom-cochain is a skew k-linear map f into the module intertwining the
twists, A∘f = f∘phi^(⊗k); C^k is the kernel of A⊗1 − Λ^k phi on the full
skew k-space.  The differential d_k is assembled once per degree on that
full space (`coboundary_matrix`),

    (df)(u_1..u_{k+1}) = Σ_i (−1)^{i+1} rho(phi^{k−1}(u_i)) f(..û_i..)
                       + Σ_{i<j} (−1)^{i+j} f([u_i,u_j], phi(u_1)..û_i..û_j..phi(u_{k+1})),

and its restriction to hom-cochains is the twisted coboundary, with d∘d = 0
on hom-cochains of degree >= 1.  Both systems are `dok` maps keyed (column,
row), ints where integral, each Λ^k entry a wedge of sparse vectors.  Within
one build Λphi(e_s) is computed once per tuple s: d_k wedges [u_i,u_j] into
the spectators' Λ^{k−1}phi, once per (k−1)-tuple.  Every answer is a product
of them by `_ap` and a rank or kernel by `_rref`, with Fractions only where a
public function returns them.  Degree 0 is a
convention of this artifact, not part of the twisted formula (whose
spectator power phi^{k−1} is undefined at k = 0 for singular phi): it is
the k = 0 case of d with the identity in place of phi^{k−1}, so C^0 is the
A-fixed subspace and (dv)(u) = rho(u)v.  It enters B^1 and the k = 1
exactness test, where B^1 ⊆ Z^1 is verified rather than assumed.  Items
touching it say so in their notes.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

from .errors import InputError, PreconditionError
from .exactlin import (Matrix, Tensor, Vec, _ap, _fraction_kernel, _in_span, _ints, _kernel,
                       _rref, _sum, as_tensor, dok, from_dok, rat, require_shape, sparse_vec, vec)
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
        require_shape(self.A, (m, m), "A")
        if len(self.rho) != n:
            raise InputError(f"need one action matrix per basis element ({n}), got {len(self.rho)}")
        for i, r in enumerate(self.rho):
            require_shape(r, (m, m), f"rho[{i}]")


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
    in lexicographic order; other index tuples follow by skewness.  `as_tensor`
    makes comps a Tensor of Fractions; `+`, `-` and `scale` run on its `dok`.
    """

    degree: int
    alg_dim: int
    module_dim: int
    comps: Tensor

    def __post_init__(self):
        shape = (len(_tuple_index(self.alg_dim, self.degree)), self.module_dim)
        object.__setattr__(self, "comps", as_tensor(self.comps, shape, "comps"))

    def tuples(self):
        return iter(_tuple_index(self.alg_dim, self.degree))

    def _position(self, t) -> int:
        try:
            return _tuple_index(self.alg_dim, self.degree)[tuple(t)]
        except KeyError:
            raise InputError(f"not an increasing {self.degree}-tuple below "
                             f"{self.alg_dim}: {tuple(t)}") from None

    def component(self, t) -> Vec:
        return self.comps[self._position(t)]

    def evaluate(self, vectors: list[Vec]) -> Vec:
        """Multilinear-skew evaluation at arbitrary coordinate vectors: the
        components on the tuples of the vectors' wedge applied to it, one `_ap`."""
        if len(vectors) != self.degree:
            raise InputError(f"expected {self.degree} arguments")
        w = {(self._position(s),): d for s, d in _wedge([sparse_vec(v) for v in vectors]).items()}
        f = {(p, a): x for (p,) in w for a, x in sparse_vec(self.comps[p])}
        return vec(from_dok(_ap(f, ("", w))[1], (self.module_dim,)))

    def coords(self) -> Vec:
        return tuple(x for c in self.comps for x in c)

    def is_zero(self) -> bool:
        return not self.comps.dok

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._from_dok(_sum((1, ("r", self.comps.dok)), (1, ("r", other.comps.dok))), other)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._from_dok(_sum((1, ("r", self.comps.dok)), (-1, ("r", other.comps.dok))), other)

    def scale(self, c) -> "Cochain":
        c = rat(c)
        return self._from_dok(("r", {key: c * x for key, x in self.comps.dok.items()}))

    def _from_dok(self, e, other: "Cochain | None" = None) -> "Cochain":
        """The cochain of this shape, and other's, whose comps are the expression e."""
        shape = (self.degree, self.alg_dim, self.module_dim)
        if other is not None and shape != (other.degree, other.alg_dim, other.module_dim):
            raise InputError("cochain shape mismatch")
        return Cochain(*shape, Tensor.from_dok(e[1], (len(self.comps), self.module_dim)))


@lru_cache(maxsize=None)
def _tuple_index(n: int, k: int) -> dict:
    """Position of each increasing k-tuple of range(n), lexicographically; none if k ∉ [0, n]."""
    return {t: i for i, t in enumerate(combinations(range(n), k))} if 0 <= k <= n else {}


def _wedge(vectors) -> dict:
    """v_1∧…∧v_k of sparse vectors ((index, coefficient) pairs) as the nonzero
    {increasing s: minor on the rows s}, wedged in from the right."""
    w = {(): 1}
    for v in reversed(vectors):
        w = _wedge_into(v, w)
    return w


def _wedge_into(v, w: dict) -> dict:
    """v∧w for a sparse vector v and a wedge w keyed as `_wedge` keys it: one
    term per entry of v and term of w, a tuple with a repeat dropped, and
    e_i∧e_s sorted by moving e_i past the indices of s below i."""
    out: dict = {}
    for s, c in w.items():
        for i, x in v:
            if i not in s:
                p = bisect(s, i)
                key = s[:p] + (i,) + s[p:]
                out[key] = out.get(key, 0) + (-c * x if p % 2 else c * x)
    return {s: c for s, c in out.items() if c}


def _phi_wedges(phi: Matrix):
    """s -> Λφ(e_s) = φ(e_{s_1})∧…∧φ(e_{s_j}) for increasing tuples s, keyed as
    `_wedge` keys it.  Each is computed once per function returned, as
    φ(e_{s_1}) ∧ Λφ(e_{s[1:]}); φ's columns are grouped from `dok(phi)`."""
    cols: list = [[] for _ in range(phi.cols)]
    for (j, i), x in dok(phi).items():
        cols[j].append((i, x))
    memo: dict = {(): {(): 1}}

    def wedge(s: tuple) -> dict:
        w = memo.get(s)
        if w is None:
            w = memo[s] = (_wedge_into(cols[s[0]], wedge(s[1:])) if len(s) > 1
                           else {(i,): x for i, x in cols[s[0]]})
        return w
    return wedge


def zero_cochain(degree: int, alg_dim: int, module_dim: int) -> Cochain:
    return Cochain(degree, alg_dim, module_dim,
                   Tensor.from_dok({}, (len(_tuple_index(alg_dim, degree)), module_dim)))


def cochain_from_coords(degree: int, alg_dim: int, module_dim: int, flat: Vec) -> Cochain:
    count = len(_tuple_index(alg_dim, degree))
    if len(flat) != count * module_dim:
        raise InputError("coordinate vector has wrong length for this cochain shape")
    return Cochain(degree, alg_dim, module_dim,
                   [flat[r * module_dim:(r + 1) * module_dim] for r in range(count)])


def cochain_from_function(degree: int, alg_dim: int, module_dim: int, fn) -> Cochain:
    """Build from a callable on increasing index tuples."""
    return Cochain(degree, alg_dim, module_dim,
                   tuple(tuple(fn(t)) for t in _tuple_index(alg_dim, degree)))


def _size(r: Representation, k: int) -> int:
    """The number of coordinates of a k-cochain for r, as `Cochain.coords()` lays them out."""
    return len(_tuple_index(r.algebra.dim, k)) * r.module_dim


def _hom_system(r: Representation, k: int) -> dict:
    """A⊗1 − Λ^k phi on the full skew k-space as a map keyed (column, row),
    as `dok` keys a Matrix; its kernel is C^k_{phi,A}."""
    m, index = r.module_dim, _tuple_index(r.algebra.dim, k)
    wedge, a_map = _phi_wedges(r.algebra.phi), dok(r.A)
    h: dict = {}
    for ti, t in enumerate(index):
        h.update({(ti * m + b, ti * m + a): x for (b, a), x in a_map.items()})
        # f(phi e_{t_1}, .., phi e_{t_k}) = Σ_s (minor on s) · f(e_s)
        for s, d in wedge(t).items():
            for a in range(m):
                key = (index[s] * m + a, ti * m + a)
                h[key] = h.get(key, 0) - d
    return _ints(h)


def is_hom_cochain(f: Cochain, r: Representation) -> bool:
    """A∘f = f∘phi^(⊗k) on every increasing basis tuple."""
    if f.alg_dim != r.algebra.dim or f.module_dim != r.module_dim:
        raise InputError("cochain does not match the representation's shapes")
    return not _ap(_hom_system(r, f.degree), ("", dok(f.coords())))[1]


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
    return Matrix.from_dok(_coboundary(r, k), _size(r, k + 1), _size(r, k))


def _coboundary(r: Representation, k: int) -> dict:
    """`coboundary_matrix(r, k)` as a map keyed (column, row), as `dok` keys a Matrix."""
    if k < 0:
        raise InputError("negative degree")
    g, m = r.algebra, r.module_dim
    cols, index = _tuple_index(g.dim, k), _tuple_index(g.dim, k + 1)
    if not index:
        return {}
    bracket: dict = {}    # [e_i, e_j] as (index, coefficient) pairs
    for (i, j, c), x in dok(g.bracket).items():
        bracket.setdefault((i, j), []).append((c, x))
    power = {(i, i): 1 for i in range(g.dim)}   # phi^{k−1}, the identity at k = 0
    for _ in range(k - 1):
        power = _ap(dok(g.phi), ("j", power))[1]
    rho_tw = [[] for _ in range(g.dim)]   # rho(phi^{k−1} e_i) as (column b, row a, entry)
    for (i, b, a), x in _ap(dok(r.rho), ("i", power), "m")[1].items():
        rho_tw[i].append((b, a, x))
    wedge = _phi_wedges(g.phi)   # the spectators' Λφ, once per (k−1)-tuple
    d: dict = {}
    for ti, t in enumerate(index):
        for pos in range(k + 1):
            c0 = cols[t[:pos] + t[pos + 1:]] * m
            for b, a, x in rho_tw[t[pos]]:
                key = (c0 + b, ti * m + a)
                d[key] = d.get(key, 0) + (-x if pos % 2 else x)
        for p, q in combinations(range(k + 1), 2):
            v = bracket.get((t[p], t[q]))
            if not v:
                continue
            for s, w in _wedge_into(v, wedge(t[:p] + t[p + 1:q] + t[q + 1:])).items():
                for a in range(m):
                    key = (cols[s] * m + a, ti * m + a)
                    d[key] = d.get(key, 0) + (-w if (p + q) % 2 else w)
    return _ints(d)


def _coboundary_of(v: Vec, r: Representation, k: int) -> Cochain:
    """d_k·v, one `_ap`: an entry is an int where every product is of integral
    entries, as `Matrix.apply` gives it."""
    out = _ap(_coboundary(r, k), ("", dok(v)))[1]
    return cochain_from_coords(k + 1, r.algebra.dim, r.module_dim, from_dok(out, (_size(r, k + 1),)))


def coboundary(f: Cochain, r: Representation) -> Cochain:
    """The twisted coboundary of a k-hom-cochain, k >= 1: D_k applied to f."""
    if f.degree < 1:
        raise InputError("coboundary is defined for degree >= 1 "
                         "(degree 0 follows the A-fixed convention, see cohomology_dims)")
    if not is_hom_cochain(f, r):
        raise PreconditionError("coboundary requires a hom-cochain (A∘f = f∘phi^⊗k)")
    return _coboundary_of(f.coords(), r, f.degree)


def degree0_coboundary(v: Vec, r: Representation) -> Cochain:
    """(dv)(u) = rho(u)v for an A-fixed module vector v (artifact convention)."""
    if len(v) != r.module_dim:
        raise InputError("module vector has wrong length")
    if _ap(dok(r.A), ("", dok(v)))[1] != dok(v):
        raise PreconditionError("degree-0 coboundary requires an A-fixed vector")
    return _coboundary_of(v, r, 0)


# --------------------------------------------------------------------------
# Cohomology spaces
# --------------------------------------------------------------------------

def hom_cochain_basis(r: Representation, k: int) -> list[Cochain]:
    """Basis of C^k_{phi,A}: kernel of the linear system A∘f − f∘phi^⊗k = 0
    inside the space of skew k-tensors.  C^0 is the A-fixed subspace."""
    if k < 0:
        raise InputError("negative degree")
    return [cochain_from_coords(k, r.algebra.dim, r.module_dim, v)
            for v in _fraction_kernel(_hom_system(r, k), _size(r, k))[1]]


def _exact_columns(r: Representation, k: int) -> tuple[dict, int]:
    """(D_{k−1}·C, n): the images under d_{k−1} of the n vectors of an int
    basis C of C^{k−1}, as a map keyed (generator, coordinate) whose columns
    span B^k in the full skew k-space; B^0 = 0."""
    if k == 0:
        return {}, 0
    free, c = _kernel(_hom_system(r, k - 1), _size(r, k - 1))
    return _ap(_coboundary(r, k - 1), ("j", c))[1], len(free)


def cohomology_dims(r: Representation, k: int) -> tuple[int, int, int, int]:
    """(dim C^k_{phi,A}, dim Z^k, dim B^k, dim H^k), all exact.

    k = 0 returns the invariants-subspace convention: C^0 = A-fixed vectors,
    Z^0 = those also killed by every rho(u), B^0 = 0.
    """
    if k < 0:
        raise InputError("negative degree")
    hom_k = _hom_system(r, k)
    free, c_k = _kernel(hom_k, _size(r, k))
    if not free:
        return (0, 0, 0, 0)
    d_k = _coboundary(r, k)
    dim_z = len(free) - len(_rref(_ap(d_k, ("j", c_k))[1], len(free))[0])
    img, n = _exact_columns(r, k)
    dim_b = len(_rref(img, n)[0])
    # B^k ⊆ Z^k: every generator of B is a hom-cochain that d kills
    # (automatic for k >= 2 and a valid representation).
    if _ap(hom_k, ("j", img))[1]:
        raise PreconditionError("coboundary requires a hom-cochain (A∘f = f∘phi^⊗k)")
    if _ap(d_k, ("j", img))[1]:
        raise PreconditionError(
            "B^1 is not contained in Z^1 for this representation under the "
            "degree-0 convention; see the package docs")
    return (len(free), dim_z, dim_b, dim_z - dim_b)


def class_is_trivial(f: Cochain, r: Representation) -> bool:
    """True iff the closed hom-cochain f is a coboundary (decided by exact solving)."""
    if not is_hom_cochain(f, r):
        raise PreconditionError("class_is_trivial requires a hom-cochain")
    if f.degree < 1:
        raise InputError("class_is_trivial is for degree >= 1")
    if not _coboundary_of(f.coords(), r, f.degree).is_zero():
        raise PreconditionError("class_is_trivial requires a closed cochain (df = 0)")
    return _is_exact(f, r)


def _is_exact(f: Cochain, r: Representation) -> bool:
    """Whether f, a closed hom-cochain of degree >= 1 for r, lies in B^k."""
    return f.is_zero() or _in_span(*_exact_columns(r, f.degree), dok(f.coords()))


# --------------------------------------------------------------------------
# Inclusion of twisted cohomology into the ordinary cohomology of g_phi
# --------------------------------------------------------------------------

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
    r_ord = trivial_representation(twisted_algebra(g))
    free, c_hom = _kernel(_hom_system(r_hom, k), _size(r_hom, k))
    free, z = _kernel(_ap(_coboundary(r_hom, k), ("j", c_hom))[1], len(free))
    dim_z, z_hom = len(free), _ap(c_hom, ("j", z))[1]   # a basis of Z^k
    b_hom, n_hom = _exact_columns(r_hom, k)
    b_ord, n_ord = _exact_columns(r_ord, k)
    # g_phi has identity twist, so every cochain is a hom-cochain over it
    d_ord = _coboundary(r_ord, k)
    chk = LawChecker("cohomology_inclusion")
    not_closed = {j for j, _ in _ap(d_ord, ("j", z_hom))[1]}
    chk.scan("closed-in-twisted", (((j,), j not in not_closed) for j in range(dim_z)),
             note=f"{dim_z} generator(s) of Z^{k}")
    b_cols = sorted(_columns(b_hom).items())   # the nonzero generators of B^k
    not_closed = {j for j, _ in _ap(d_ord, ("j", b_hom))[1]}
    chk.scan("exact-in-twisted",
             (((idx,), j not in not_closed and _in_span(b_ord, n_ord, v))
              for idx, (j, v) in enumerate(b_cols)),
             note=f"{len(b_cols)} generator(s) of B^{k}")
    # span(z_hom) ∩ span(b_ord) is spanned by the z_hom parts of the kernel of
    # [z_hom | −b_ord]; its basis is those parts at the pivot columns of their RREF
    free, pairs = _kernel({**z_hom, **{(dim_z + j, i): -x for (j, i), x in b_ord.items()}},
                          dim_z + n_ord)
    parts = _ap(z_hom, ("j", {key: x for key, x in pairs.items() if key[1] < dim_z}))[1]
    cols = _columns(parts)
    inter = [cols[l] for l in _rref(parts, len(free))[0]]
    chk.scan("injective", (((idx,), _in_span(b_hom, n_hom, v)) for idx, v in enumerate(inter)),
             note=f"intersection dim {len(inter)}")
    return chk.report()


def _columns(t: dict) -> dict:
    """{column: that column of the map t as a vector keyed (row,)}, nonzero columns only."""
    out: dict = {}
    for (j, i), x in t.items():
        out.setdefault(j, {})[i,] = x
    return out
