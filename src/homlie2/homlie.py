"""Hom-Lie algebras over exact rationals.

A hom-Lie algebra is a vector space with a skew bracket [.,.] and an algebra
endomorphism phi satisfying the phi-twisted Jacobi identity

    [phi(u),[v,w]] + [phi(v),[w,u]] + [phi(w),[u,v]] = 0.

Structures are stored by structure constants: bracket[i][j] is the coordinate
vector of [e_i, e_j].  Nothing is assumed about the tensors at construction
time beyond shape; `check_hom_lie` verifies the axioms and reports witnesses.
Each law of an algebra or a morphism is a residual tensor (lhs - rhs) built
once with `exactlin._ap`/`_sum` and scanned as lookups; `ad`, the Killing
form and the twisted algebra are built with them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import InputError, PreconditionError
from .exactlin import (Matrix, Tensor, Vec, _ap, _product, _sum, as_tensor, dok, require_shape,
                       unit_vec)
from .reports import CheckReport, LawChecker

def bilinear_eval(tensor: Tensor, x: Vec, y: Vec, out_dim: int) -> Vec:
    """A structure-constant tensor at coordinate vectors, one `_ap` over `dok`;
    ints where integral.  Kept only as a tracer target of the benchmark: the
    package evaluates with `_ap`."""
    out = _ap(dok(tensor), ("", dok(x)), ("", dok(y)))[1]
    return tuple(out.get((k,), 0) for k in range(out_dim))


@dataclass(frozen=True)
class HomLieAlgebra:
    """dim, structure constants bracket[i][j] = [e_i,e_j], and the twist phi."""

    dim: int
    bracket: Tensor
    phi: Matrix

    def __post_init__(self):
        n = self.dim
        object.__setattr__(self, "bracket", as_tensor(self.bracket, (n, n, n), "bracket"))
        require_shape(self.phi, (n, n), "phi")

    def basis(self, i: int) -> Vec:
        return unit_vec(self.dim, i)

    def ad(self, x: Vec) -> Matrix:
        """Matrix of y -> [x, y] in the algebra's own bracket."""
        return Matrix.from_dok(_ap(dok(self.bracket), ("", dok(x)), "b")[1], self.dim, self.dim)

    def is_involutive(self) -> bool:
        phi = partial(_ap, dok(self.phi))
        return phi(phi("a"))[1] == {(i, i): 1 for i in range(self.dim)}

    def is_regular(self) -> bool:
        from .exactlin import rank
        return rank(self.phi) == self.dim

    def is_abelian(self) -> bool:
        return not dok(self.bracket)


def abelian_algebra(dim: int, phi: Matrix | None = None) -> HomLieAlgebra:
    return HomLieAlgebra(dim, Tensor.from_dok({}, (dim,) * 3),
                         phi if phi is not None else Matrix.identity(dim))


def check_hom_lie(g: HomLieAlgebra) -> CheckReport:
    """Verify skewness, phi multiplicativity, and the twisted Jacobi identity.

    One item per axiom; a failing item carries the first offending basis
    pair/triple in lexicographic order.
    """
    n = g.dim
    chk = LawChecker("hom_lie")
    br, phi = partial(_ap, dok(g.bracket)), partial(_ap, dok(g.phi))
    chk.scan_zero("skew", (n, n), _sum((1, br("a", "b")), (1, br("b", "a")))[1])
    chk.scan_zero("phi-morphism", (n, n),
                  _sum((1, phi(br("a", "b"))), (-1, br(phi("a"), phi("b"))))[1])
    t = br(phi("a"), br("b", "c"))                              # [φa, [b,c]]
    chk.scan_zero("hom-jacobi", (n,) * 3, _sum((1, t, "xyz"), (1, t, "yzx"), (1, t, "zxy"))[1])
    return chk.report()


def hom_lie_algebra(dim: int, bracket, phi: Matrix) -> HomLieAlgebra:
    """Shape-check, axiom-check, and return the algebra (raises CheckFailure on axioms)."""
    g = HomLieAlgebra(dim, bracket, phi)
    check_hom_lie(g).require("hom_lie_algebra")
    return g


@dataclass(frozen=True)
class HomLieMorphism:
    """Linear map f with f[u,v] = [f u, f v] and f∘phi_src = phi_tgt∘f."""

    source: HomLieAlgebra
    target: HomLieAlgebra
    f: Matrix

    def __post_init__(self):
        require_shape(self.f, (self.target.dim, self.source.dim), "f")


def check_hom_lie_morphism(m: HomLieMorphism) -> CheckReport:
    src, tgt, f = m.source, m.target, m.f
    n = src.dim
    chk = LawChecker("hom_lie_morphism")
    fm = partial(_ap, dok(f))
    chk.scan_zero("bracket-preserved", (n, n), _sum(
        (1, fm(_ap(dok(src.bracket), "a", "b"))), (-1, _ap(dok(tgt.bracket), fm("a"), fm("b"))))[1])
    chk.scan_zero("twist-intertwined", (tgt.dim, n), _sum(
        (1, _product(f, src.phi)), (-1, _product(tgt.phi, f)))[1])
    return chk.report()


def compose_morphisms(first: HomLieMorphism, second: HomLieMorphism) -> HomLieMorphism:
    if first.target is not second.source and first.target != second.source:
        raise InputError("morphism endpoints do not match")
    return HomLieMorphism(first.source, second.target, second.f * first.f)


def killing_form(g: HomLieAlgebra) -> Matrix:
    """B(x,y) = tr(ad_x ∘ ad_y), the adjoint taken in g's own bracket: the
    sum over c of the c-th coordinate of [x, [y, e_c]]."""
    br, t = partial(_ap, dok(g.bracket)), {}
    for (a, b, c, e), x in br("a", br("b", "c"))[1].items():
        if c == e:
            t[b, a] = t.get((b, a), 0) + x
    return Matrix.from_dok(t, g.dim, g.dim)


def twisted_algebra(g: HomLieAlgebra) -> HomLieAlgebra:
    """The ordinary Lie algebra with bracket phi([x,y]) carried by an involutive g.

    The result has identity twist, and its ordinary Jacobi identity is
    re-verified on construction.
    """
    if not g.is_involutive():
        raise PreconditionError("twisted_algebra requires an involutive twist (phi^2 = Id)")
    n = g.dim
    new_bracket = Tensor.from_dok(_ap(dok(g.phi), ("ab", dok(g.bracket)))[1], (n, n, n))
    out = HomLieAlgebra(n, new_bracket, Matrix.identity(n))
    check_hom_lie(out).require("twisted_algebra output")
    return out
