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
on hom-cochains of degree >= 1.  Both systems are built as sparse integer
rows, each Λ^k entry a wedge of sparse vectors (`_wedge`), and every
cohomology answer is a rank, kernel or product of them by `exactlin._rref`;
Fractions appear only in what a public function returns.  Degree 0 is a
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
from .exactlin import (F0, Matrix, Vec, _ap, _fraction_kernel, _in_span, _kernel, _rref, _sum,
                       _transpose, dok, is_zero_vec, sparse_vec, vadd, vscale, zero_vec)
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
        expected = len(_tuple_index(self.alg_dim, self.degree))
        object.__setattr__(self, "comps", tuple(tuple(x for x in c) for c in self.comps))
        if len(self.comps) != expected:
            raise InputError(f"cochain needs {expected} components, got {len(self.comps)}")
        for c in self.comps:
            if len(c) != self.module_dim:
                raise InputError("cochain component has wrong module dimension")

    def tuples(self):
        return iter(_tuple_index(self.alg_dim, self.degree))

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
        for s, d in _wedge([sparse_vec(v) for v in vectors]).items():
            for a, e in enumerate(self.component(s)):
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


@lru_cache(maxsize=None)
def _tuple_index(n: int, k: int) -> dict:
    """Position of each increasing k-tuple of range(n), lexicographically; none if k ∉ [0, n]."""
    return {t: i for i, t in enumerate(combinations(range(n), k))} if 0 <= k <= n else {}


def _wedge(vectors) -> dict:
    """v_1∧…∧v_k of sparse vectors ((index, coefficient) pairs) as the nonzero
    {increasing s: minor on the rows s}: one entry from each vector, tuples
    with a repeat dropped, each sorted with its sign; Π|supp v_i| terms."""
    terms = {(): 1}
    for v in vectors:
        out: dict = {}
        for s, c in terms.items():
            for i, x in v:
                if i not in s:
                    p = bisect(s, i)   # e_s∧e_i: e_i moves past len(s) − p indices
                    key = s[:p] + (i,) + s[p:]
                    out[key] = out.get(key, 0) + (-c * x if (len(s) - p) % 2 else c * x)
        terms = out
    return {s: c for s, c in terms.items() if c}


def zero_cochain(degree: int, alg_dim: int, module_dim: int) -> Cochain:
    return Cochain(degree, alg_dim, module_dim,
                   tuple(zero_vec(module_dim) for _ in _tuple_index(alg_dim, degree)))


def cochain_from_coords(degree: int, alg_dim: int, module_dim: int, flat: Vec) -> Cochain:
    count = len(_tuple_index(alg_dim, degree))
    if len(flat) != count * module_dim:
        raise InputError("coordinate vector has wrong length for this cochain shape")
    comps = tuple(tuple(flat[r * module_dim + a] for a in range(module_dim)) for r in range(count))
    return Cochain(degree, alg_dim, module_dim, comps)


def cochain_from_function(degree: int, alg_dim: int, module_dim: int, fn) -> Cochain:
    """Build from a callable on increasing index tuples."""
    return Cochain(degree, alg_dim, module_dim,
                   tuple(tuple(fn(t)) for t in _tuple_index(alg_dim, degree)))


def _hom_system(r: Representation, k: int) -> list[dict]:
    """The sparse rows of A⊗1 − Λ^k phi on the full skew k-space; kernel C^k_{phi,A}."""
    m, index = r.module_dim, _tuple_index(r.algebra.dim, k)
    phi_cols = [sparse_vec(c) for c in r.algebra.phi.columns()]
    a_rows = [sparse_vec(row) for row in r.A.data]
    rows = []
    for ti, t in enumerate(index):
        block = [{ti * m + b: x for b, x in a_row} for a_row in a_rows]
        # f(phi e_{t_1}, .., phi e_{t_k}) = Σ_s (minor on s) · f(e_s)
        for s, d in _wedge([phi_cols[i] for i in t]).items():
            for a, row in enumerate(block):
                row[index[s] * m + a] = row.get(index[s] * m + a, 0) - d
        rows += block
    return rows


def is_hom_cochain(f: Cochain, r: Representation) -> bool:
    """A∘f = f∘phi^(⊗k) on every increasing basis tuple."""
    if f.alg_dim != r.algebra.dim or f.module_dim != r.module_dim:
        raise InputError("cochain does not match the representation's shapes")
    v = f.coords()
    return not any(sum(x * v[j] for j, x in row.items()) for row in _hom_system(r, f.degree))


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
    rows, width = _coboundary_rows(r, k), len(_tuple_index(r.algebra.dim, k)) * r.module_dim
    return Matrix(len(rows), width, [[row.get(j, 0) for j in range(width)] for row in rows])


def _coboundary_rows(r: Representation, k: int) -> list[dict]:
    """The sparse rows of `coboundary_matrix(r, k)`."""
    if k < 0:
        raise InputError("negative degree")
    g, m = r.algebra, r.module_dim
    cols, index = _tuple_index(g.dim, k), _tuple_index(g.dim, k + 1)
    if not index:
        return []
    phi_cols = [sparse_vec(c) for c in g.phi.columns()]
    bracket: dict = {}    # [e_i, e_j] as (index, coefficient) pairs
    for (i, j, c), x in dok(g.bracket).items():
        bracket.setdefault((i, j), []).append((c, x))
    rho_tw = [[] for _ in range(g.dim)]   # rho(phi^{k−1} e_i) as (column b, row a, entry)
    for (i, b, a), x in _ap(dok(r.rho), ("i", dok(g.phi.power(max(k - 1, 0)))), "m")[1].items():
        rho_tw[i].append((b, a, x))
    rows = []
    for t in index:
        block = [{} for _ in range(m)]
        for pos in range(k + 1):
            c0 = cols[t[:pos] + t[pos + 1:]] * m
            for b, a, x in rho_tw[t[pos]]:
                block[a][c0 + b] = block[a].get(c0 + b, 0) + (-x if pos % 2 else x)
        for p, q in combinations(range(k + 1), 2):
            args = [bracket.get((t[p], t[q]), ())]
            args += [phi_cols[t[s]] for s in range(k + 1) if s not in (p, q)]
            for s, d in _wedge(args).items():
                for a, row in enumerate(block):
                    row[cols[s] * m + a] = row.get(cols[s] * m + a, 0) + (-d if (p + q) % 2 else d)
        rows += block
    return rows


def _apply_rows(rows: list[dict], v: Vec) -> Vec:
    """The sparse rows times v, each entry as `Matrix.apply` gives it: an int
    where every product is of integral entries, and the int 0 where the sum is 0."""
    xs = dict(sparse_vec(v))
    return tuple(sum((c.numerator if c.denominator == 1 else c) * xs[j]
                     for j, c in row.items() if c and j in xs) or 0 for row in rows)


def coboundary(f: Cochain, r: Representation) -> Cochain:
    """The twisted coboundary of a k-hom-cochain, k >= 1: D_k applied to f."""
    if f.degree < 1:
        raise InputError("coboundary is defined for degree >= 1 "
                         "(degree 0 follows the A-fixed convention, see cohomology_dims)")
    if not is_hom_cochain(f, r):
        raise PreconditionError("coboundary requires a hom-cochain (A∘f = f∘phi^⊗k)")
    flat = _apply_rows(_coboundary_rows(r, f.degree), f.coords())
    return cochain_from_coords(f.degree + 1, f.alg_dim, f.module_dim, flat)


def degree0_coboundary(v: Vec, r: Representation) -> Cochain:
    """(dv)(u) = rho(u)v for an A-fixed module vector v (artifact convention)."""
    if len(v) != r.module_dim:
        raise InputError("module vector has wrong length")
    if _ap(dok(r.A), ("", dok(v)))[1] != dok(v):
        raise PreconditionError("degree-0 coboundary requires an A-fixed vector")
    return cochain_from_coords(1, r.algebra.dim, r.module_dim,
                               _apply_rows(_coboundary_rows(r, 0), v))


# --------------------------------------------------------------------------
# Cohomology spaces
# --------------------------------------------------------------------------

def _images(columns: dict, vectors: list[dict]) -> list[dict]:
    """M·v for each sparse vector v, M given by {j: sparse column j}."""
    out = []
    for v in vectors:
        acc: dict = {}
        for j, c in v.items():
            for i, x in columns.get(j, {}).items():
                acc[i] = acc.get(i, 0) + c * x
        out.append({i: x for i, x in acc.items() if x})
    return out


def hom_cochain_basis(r: Representation, k: int) -> list[Cochain]:
    """Basis of C^k_{phi,A}: kernel of the linear system A∘f − f∘phi^⊗k = 0
    inside the space of skew k-tensors.  C^0 is the A-fixed subspace."""
    if k < 0:
        raise InputError("negative degree")
    hom = _hom_system(r, k)
    return [cochain_from_coords(k, r.algebra.dim, r.module_dim, v)
            for v in _fraction_kernel(hom, len(hom))[1]]


def _exact_columns(r: Representation, k: int) -> list[dict]:
    """D_{k−1}·c over a kernel basis c of the degree-(k−1) system: sparse int
    vectors spanning B^k in the full skew k-space; B^0 = 0."""
    if k == 0:
        return []
    hom = _hom_system(r, k - 1)
    return _images(_transpose(_coboundary_rows(r, k - 1)), _kernel(hom, len(hom))[1])


def cohomology_dims(r: Representation, k: int) -> tuple[int, int, int, int]:
    """(dim C^k_{phi,A}, dim Z^k, dim B^k, dim H^k), all exact.

    k = 0 returns the invariants-subspace convention: C^0 = A-fixed vectors,
    Z^0 = those also killed by every rho(u), B^0 = 0.
    """
    if k < 0:
        raise InputError("negative degree")
    hom_k = _hom_system(r, k)
    c_k = _kernel(hom_k, len(hom_k))[1]
    if not c_k:
        return (0, 0, 0, 0)
    d_k = _coboundary_rows(r, k)
    d_cols = _transpose(d_k)
    dim_z = len(c_k) - len(_rref(_images(d_cols, c_k), len(d_k))[0])
    img = _exact_columns(r, k)
    dim_b = len(_rref(img, len(hom_k))[0])
    # B^k ⊆ Z^k: every generator of B is a hom-cochain that d kills
    # (automatic for k >= 2 and a valid representation).
    if any(_images(_transpose(hom_k), img)):
        raise PreconditionError("coboundary requires a hom-cochain (A∘f = f∘phi^⊗k)")
    if any(_images(d_cols, img)):
        raise PreconditionError(
            "B^1 is not contained in Z^1 for this representation under the "
            "degree-0 convention; see the package docs")
    return (len(c_k), dim_z, dim_b, dim_z - dim_b)


def class_is_trivial(f: Cochain, r: Representation) -> bool:
    """True iff the closed hom-cochain f is a coboundary (decided by exact solving)."""
    if not is_hom_cochain(f, r):
        raise PreconditionError("class_is_trivial requires a hom-cochain")
    if f.degree < 1:
        raise InputError("class_is_trivial is for degree >= 1")
    if any(_apply_rows(_coboundary_rows(r, f.degree), f.coords())):
        raise PreconditionError("class_is_trivial requires a closed cochain (df = 0)")
    return _is_exact(f, r)


def _is_exact(f: Cochain, r: Representation) -> bool:
    """Whether f, a closed hom-cochain of degree >= 1 for r, lies in B^k."""
    return f.is_zero() or _in_span(_exact_columns(r, f.degree), dict(sparse_vec(f.coords())))


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
    hom = _hom_system(r_hom, k)
    c_hom = _kernel(hom, len(hom))[1]
    dc = _images(_transpose(_coboundary_rows(r_hom, k)), c_hom)
    z_hom = _images(dict(enumerate(c_hom)), _kernel(_transpose(dc).values(), len(c_hom))[1])
    b_hom = [c for c in _exact_columns(r_hom, k) if c]
    b_ord = [c for c in _exact_columns(r_ord, k) if c]
    # g_phi has identity twist, so every cochain is a hom-cochain over it
    d_ord = _transpose(_coboundary_rows(r_ord, k))
    chk = LawChecker("cohomology_inclusion")
    chk.scan("closed-in-twisted",
             (((idx,), not dv) for idx, dv in enumerate(_images(d_ord, z_hom))),
             note=f"{len(z_hom)} generator(s) of Z^{k}")
    chk.scan("exact-in-twisted",
             (((idx,), not dv and _in_span(b_ord, v))
              for idx, (v, dv) in enumerate(zip(b_hom, _images(d_ord, b_hom)))),
             note=f"{len(b_hom)} generator(s) of B^{k}")
    # a basis of span(z_hom) ∩ span(b_ord): the z_hom parts of the kernel of [z_hom | −b_ord]
    pairs = z_hom + [{i: -x for i, x in w.items()} for w in b_ord]
    inter: list[dict] = []
    for z in _kernel(_transpose(pairs).values(), len(pairs))[1]:
        v = _images(dict(enumerate(z_hom)), [{j: c for j, c in z.items() if j < len(z_hom)}])[0]
        if v and not _in_span(inter, v):   # pruned to an independent set
            inter.append(v)
    chk.scan("injective", (((idx,), _in_span(b_hom, v)) for idx, v in enumerate(inter)),
             note=f"intersection dim {len(inter)}")
    return chk.report()
