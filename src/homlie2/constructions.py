"""Constructive bridges between the structures in this package.

Quadratic twisted algebras give skeletal two-term structures whose l3 is
B([x,y],z); semisimple involutive algebras give the string-type example with
B the Killing form.  Strict two-term structures correspond exactly to
crossed modules.  Hom-left-symmetric products and symplectic structures both
produce strict two-term structures; the symplectic route goes through a
star product solved exactly from omega(x*y, phi z) = -omega(phi y, [x,z]).

Every law checked here (each law of a form, the crossed-module laws, the
product and differential laws) is built once as a residual tensor with
`exactlin._ap`/`_sum`, a form as a map into a line (`exactlin._form`), and
scanned over the basis tuples as lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations

from .cohomology import (Cochain, Representation, _is_exact, check_representation,
                         cochain_from_function, coboundary, dual_representation,
                         trivial_representation)
from .errors import CheckFailure, InputError, PreconditionError
from .exactlin import (Matrix, Tensor, _ap, _form, _product, _sum, as_tensor, dok, inverse, rank,
                       rat, require_shape, sparse_vec)
from .homlie import (HomLieAlgebra, HomLieMorphism, check_hom_lie, check_hom_lie_morphism,
                     killing_form, twisted_algebra)
from .hl2 import TwoTermHL, _skew3, check_two_term
from .reports import CheckReport, LawChecker, merge_reports


# --------------------------------------------------------------------------
# Quadratic structures, l3 from B, skeletal and string examples
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticHomLie:
    """A hom-Lie algebra with a symmetric invariant form compatible with phi."""

    algebra: HomLieAlgebra
    B: Matrix

    def __post_init__(self):
        require_shape(self.B, (self.algebra.dim,) * 2, "B")


def check_quadratic(q: QuadraticHomLie) -> CheckReport:
    """Nondegeneracy, symmetry, invariance, phi-symmetry, and the two-of-three
    relation between phi-symmetry, involutivity, and isometry."""
    g, B = q.algebra, q.B
    n = g.dim
    chk = LawChecker("quadratic")
    form, phi = partial(_ap, _form(B)), partial(_ap, dok(g.phi))
    chk.scan_zero("symmetric", (n, n), _sum((1, form("a", "b")), (-1, form("b", "a")))[1])
    chk.add("nondegenerate", rank(B) == n)
    t = form(_ap(dok(g.bracket), "a", "b"), "c")               # B([a,b], c)
    chk.scan_zero("invariance", (n,) * 3, _sum((1, t), (1, t, "acb"))[1])
    phi_sym = chk.scan_zero("phi-symmetric", (n, n), _sum(
        (1, form("a", phi("b"))), (-1, form(phi("a"), "b")))[1])
    involutive = g.is_involutive()
    chk.add("involutive", involutive)
    isometry = chk.scan_zero("isometry", (n, n), _sum(
        (1, form(phi("a"), phi("b"))), (-1, form("a", "b")))[1])
    count = sum(1 for flag in (phi_sym, involutive, isometry) if flag)
    chk.add("two-of-three", count != 2,
            note="any two of {phi-symmetric, involutive, isometry} force the third")
    return chk.report()


def _require_form(q: QuadraticHomLie, context: str) -> None:
    """Raise PreconditionError unless the form is symmetric, nondegenerate,
    invariant and phi-symmetric."""
    report = check_quadratic(q)
    for law in ("symmetric", "nondegenerate", "invariance", "phi-symmetric"):
        if not report.item(law).passed:
            raise PreconditionError(f"{context} fails {law}", report=report)


def quadratic(algebra: HomLieAlgebra, B: Matrix) -> QuadraticHomLie:
    """Validated constructor: algebra axioms plus the form laws of `_require_form`."""
    check_hom_lie(algebra).require("quadratic algebra part")
    q = QuadraticHomLie(algebra, B)
    _require_form(q, "quadratic form")
    return q


def l3_from_B(q: QuadraticHomLie) -> Cochain:
    """The degree-3 cochain (x,y,z) -> B([x,y],z) of an involutive quadratic algebra.

    Fully skew (forced by invariance), a hom-cochain, and closed for the
    trivial-coefficient coboundary; closedness is re-verified here.
    """
    g = q.algebra
    if not g.is_involutive():
        raise PreconditionError("l3_from_B requires an involutive twist")
    _require_form(q, "l3_from_B input")
    t = _ap(_form(q.B), _ap(dok(g.bracket), "a", "b"), "c")     # B([a,b], c)
    if _skew3(t):
        raise CheckFailure("form is not invariant enough to give a skew l3")
    f = cochain_from_function(3, g.dim, 1, lambda abc: (rat(t[1].get((*abc, 0), 0)),))
    if not coboundary(f, trivial_representation(g)).is_zero():
        raise CheckFailure("l3_from_B output is not closed")
    return f


def skeletal_from_quadratic(q: QuadraticHomLie) -> TwoTermHL:
    """(R -0-> g, l2 = bracket on objects and 0 on the module, l3 = B([x,y],z))."""
    return _skeletal(q.algebra, l3_from_B(q))  # validates involutivity and the form


def _skeletal(g: HomLieAlgebra, f: Cochain) -> TwoTermHL:
    """The skeletal structure whose l3 is the verified closed 3-cochain f."""
    n = g.dim
    # f(e_s[p], e_s[q], e_s[r]) on an increasing s is the sign of (p, q, r) times f on s
    l3 = {(s[p], s[q], s[r], a): -x if ((p > q) + (p > r) + (q > r)) % 2 else x
          for s, c in zip(f.tuples(), f.comps) for a, x in sparse_vec(c)
          for p, q, r in permutations(range(3))}
    out = TwoTermHL(n, 1, Matrix.zeros(n, 1), g.bracket, Tensor.from_dok({}, (n, 1, 1)),
                    Tensor.from_dok(l3, (n, n, n, f.module_dim)), g.phi, Matrix.identity(1))
    check_two_term(out).require("skeletal_from_quadratic output")
    return out


def sl2_example() -> HomLieAlgebra:
    """sl(2) with the twisted bracket [A,B] = -C, [C,A] = -2B, [B,C] = -2A and
    the involution A <-> -B, C -> -C."""
    br = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    br[0][1] = [0, 0, -1]
    br[1][0] = [0, 0, 1]
    br[2][0] = [0, -2, 0]
    br[0][2] = [0, 2, 0]
    br[1][2] = [-2, 0, 0]
    br[2][1] = [2, 0, 0]
    phi = Matrix(3, 3, [[0, -1, 0], [-1, 0, 0], [0, 0, -1]])
    g = HomLieAlgebra(3, br, phi)
    check_hom_lie(g).require("sl2_example")
    return g


def string_from_semisimple(g: HomLieAlgebra) -> TwoTermHL:
    """The string-type skeletal structure of a semisimple involutive algebra.

    Semisimplicity is operationalized as nondegeneracy of the Killing form of
    the untwisted algebra g_phi; the class of the resulting l3 is verified to
    be nontrivial before returning.
    """
    check_hom_lie(g).require("string_from_semisimple input")
    if not g.is_involutive():
        raise PreconditionError("string_from_semisimple requires an involutive twist")
    g_tw = twisted_algebra(g)
    if rank(killing_form(g_tw)) != g.dim:
        raise PreconditionError("not semisimple: Killing form of the untwisted algebra is degenerate")
    f = l3_from_B(QuadraticHomLie(g, killing_form(g)))  # validates the form
    out = _skeletal(g, f)
    # l3_from_B found f a closed hom-cochain, so of `class_is_trivial` only the solve is left
    if _is_exact(f, trivial_representation(g)):
        raise CheckFailure("string l3 class is unexpectedly trivial")
    return out


# --------------------------------------------------------------------------
# Crossed modules <-> strict structures
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossedModule:
    """(h, g, dt, action): dt a morphism h -> g, action a representation of g
    on h's space twisted by phi_h, with equivariance and the Peiffer rule."""

    h: HomLieAlgebra
    g: HomLieAlgebra
    dt: Matrix
    action: tuple[Matrix, ...]  # one matrix per basis element of g

    def __post_init__(self):
        require_shape(self.dt, (self.g.dim, self.h.dim), "dt")
        object.__setattr__(self, "action", tuple(self.action))
        if len(self.action) != self.g.dim:
            raise InputError("need one action matrix per basis element of g")
        for i, m in enumerate(self.action):
            require_shape(m, (self.h.dim,) * 2, f"action[{i}]")

    def representation(self) -> Representation:
        return Representation(self.g, self.h.dim, self.h.phi, self.action)


def check_crossed_module(cm: CrossedModule) -> CheckReport:
    h, g = cm.h, cm.g
    parts = {
        "h": check_hom_lie(h),
        "g": check_hom_lie(g),
        "dt": check_hom_lie_morphism(HomLieMorphism(h, g, cm.dt)),
        "action": check_representation(cm.representation()),
    }
    chk = LawChecker("crossed_module")
    act, dt, br_g, br_h, phi_h = (partial(_ap, dok(t)) for t in (   # act(x, m) = x.m
        cm.action, cm.dt, g.bracket, h.bracket, h.phi))
    chk.scan_zero("equivariance", (g.dim, h.dim), _sum(
        (1, dt(act("a", "b"))), (-1, br_g("a", dt("b"))))[1], note="dt(x.m) = [x, dt m]")
    chk.scan_zero("peiffer", (h.dim, h.dim), _sum(
        (1, act(dt("a"), "b")), (-1, br_h("a", "b")))[1], note="(dt m).m' = [m, m']")
    chk.scan_zero("derived-compatibility", (g.dim, h.dim, h.dim), _sum(
        (1, act(_ap(dok(g.phi), "a"), br_h("b", "c"))),
        (-1, br_h(act("a", "b"), phi_h("c"))), (-1, br_h(phi_h("b"), act("a", "c"))))[1],
        note="action of phi_g(x) on [m,n], implied by the other laws")
    return merge_reports("crossed_module", **parts, laws=chk.report())


def strict_to_crossed(v: TwoTermHL) -> CrossedModule:
    """g = V0 with l2, h = V1 with [m,n] = l2(dm,n), dt = d, action = l2(x,.)."""
    if not v.is_strict():
        raise PreconditionError("strict_to_crossed requires l3 = 0")
    check_two_term(v).require("strict_to_crossed input")
    n0, n1 = v.dim0, v.dim1
    g = HomLieAlgebra(n0, v.l2_00, v.phi0)
    h_bracket = Tensor.from_dok(_ap(dok(v.l2_01), _ap(dok(v.d), "a"), "b")[1], (n1,) * 3)
    h = HomLieAlgebra(n1, h_bracket, v.phi1)
    action = tuple(Matrix.from_columns(row, rows=n1) for row in v.l2_01)
    cm = CrossedModule(h, g, v.d, action)
    check_crossed_module(cm).require("strict_to_crossed output")
    return cm


def crossed_to_strict(cm: CrossedModule) -> TwoTermHL:
    """V0 = g, V1 = h, d = dt, l2(x,m) = x.m, l3 = 0."""
    check_crossed_module(cm).require("crossed_to_strict input")
    n0, n1 = cm.g.dim, cm.h.dim
    out = TwoTermHL(n0, n1, cm.dt, cm.g.bracket, Tensor.from_dok(dok(cm.action), (n0, n1, n1)),
                    Tensor.from_dok({}, (n0, n0, n0, n1)), cm.g.phi, cm.h.phi)
    check_two_term(out).require("crossed_to_strict output")
    return out


# --------------------------------------------------------------------------
# Hom-left-symmetric products
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HomLeftSymmetric:
    """A product x*y whose phi-twisted associator is symmetric in x and y."""

    dim: int
    star: Tensor
    phi: Matrix

    def __post_init__(self):
        n = self.dim
        object.__setattr__(self, "star", as_tensor(self.star, (n, n, n), "star"))
        require_shape(self.phi, (n, n), "phi")


@dataclass(frozen=True)
class LeftSymmetricDerived:
    """What a valid product yields: the commutator algebra, the left-multiplication
    representation, and (for involutive phi) its dual."""

    sub_adjacent: HomLieAlgebra
    left_regular: Representation
    dual: Representation | None


def check_left_symmetric(a: HomLeftSymmetric) -> tuple[CheckReport, LeftSymmetricDerived | None]:
    n = a.dim
    star, phi = partial(_ap, dok(a.star)), partial(_ap, dok(a.phi))
    chk = LawChecker("left_symmetric")
    chk.scan_zero("phi-product", (n, n), _sum(
        (1, phi(star("a", "b"))), (-1, star(phi("a"), phi("b"))))[1])
    assoc = _sum((1, star(phi("a"), star("b", "c"))),          # (φa)*(b*c) - (a*b)*(φc)
                 (-1, star(star("a", "b"), phi("c"))))
    chk.scan_zero("left-symmetry", (n,) * 3, _sum((1, assoc), (-1, assoc, "bac"))[1])
    report = chk.report()
    if not report.ok:
        return report, None

    s = ("ab", dok(a.star))
    sub = HomLieAlgebra(n, Tensor.from_dok(_sum((1, s), (-1, s, "ba"))[1], (n, n, n)), a.phi)
    check_hom_lie(sub).require("sub-adjacent algebra")
    rho = tuple(Matrix.from_columns(row, rows=n) for row in a.star)
    rep = Representation(sub, n, a.phi, rho)
    check_representation(rep).require("left-regular representation")
    dual = dual_representation(rep) if sub.is_involutive() else None
    if sub.is_involutive() and dual is None:
        raise CheckFailure("dual of the left-regular representation is missing "
                           "despite an involutive twist")
    return report, LeftSymmetricDerived(sub, rep, dual)


def leftsym_d_report(a: HomLeftSymmetric, d: Matrix) -> CheckReport:
    """Compatibility of a candidate differential with the product."""
    n = a.dim
    require_shape(d, (n, n), "d")
    chk = LawChecker("leftsym_d")
    chk.scan_zero("d-phi-commute", (n, n), _sum(
        (1, _product(d, a.phi)), (-1, _product(a.phi, d)))[1])
    star, dm = partial(_ap, dok(a.star)), partial(_ap, dok(d))
    shift = star(dm("a"), "b")                                   # (da)*b
    chk.scan_zero("d-star-shift", (n, n), _sum((1, shift), (-1, star("a", dm("b"))))[1],
                  note="(dx)*y = x*(dy)")
    chk.scan_zero("d-derivation", (n, n), _sum(
        (1, dm(star("a", "b"))), (-1, star("a", dm("b"))), (1, star(dm("b"), "a")))[1],
        note="d(x*y) = x*(dy) - (dy)*x")
    chk.scan_zero("d-star-skew-pairing", (n, n), _sum((1, shift), (1, shift, "ba"))[1],
                  note="(dm)*n = -(dn)*m, required by condition (e)")
    return chk.report()


def strict_from_leftsym(a: HomLeftSymmetric, d: Matrix) -> TwoTermHL:
    """Strict two-term structure on V -> V from a product and a compatible d.

    d must commute with phi, satisfy (dx)*y = x*(dy) and
    d(x*y) = x*(dy) - (dy)*x, and pair skewly with the product in the sense
    (dm)*n = -(dn)*m; the last condition is what l2(dm,n) = l2(m,dn)
    actually needs and is validated alongside the other three.
    """
    n = a.dim
    report, derived = check_left_symmetric(a)
    if derived is None:
        raise PreconditionError("strict_from_leftsym input fails the product laws",
                                report=report)
    d_report = leftsym_d_report(a, d)
    if not d_report.ok:
        failed = ", ".join(item.law for item in d_report.failures())
        raise PreconditionError(f"d is not compatible with the product: {failed}",
                                report=d_report)
    out = TwoTermHL(n, n, d, derived.sub_adjacent.bracket, a.star, Tensor.from_dok({}, (n,) * 4),
                    a.phi, a.phi)
    check_two_term(out).require("strict_from_leftsym output")
    return out


# --------------------------------------------------------------------------
# Symplectic structures
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SymplecticHomLie:
    """A regular hom-Lie algebra with a nondegenerate closed phi-invariant 2-form."""

    algebra: HomLieAlgebra
    omega: Matrix

    def __post_init__(self):
        require_shape(self.omega, (self.algebra.dim,) * 2, "omega")

    def sharp(self) -> Matrix:
        """Matrix of x -> omega(x, .) in the dual basis."""
        return self.omega.transpose()


def check_symplectic(s: SymplecticHomLie) -> CheckReport:
    g, omega = s.algebra, s.omega
    n = g.dim
    if not g.is_regular():
        raise PreconditionError("symplectic structures live on regular algebras "
                                "(invertible twist)")
    chk = LawChecker("symplectic")
    form, phi = partial(_ap, _form(omega)), partial(_ap, dok(g.phi))
    chk.scan_zero("skew", (n, n), _sum((1, form("a", "b")), (1, form("b", "a")))[1])
    chk.add("nondegenerate", rank(omega) == n)
    chk.scan_zero("phi-invariant", (n, n), _sum(
        (1, form(phi("a"), phi("b"))), (-1, form("a", "b")))[1],
        note="omega(phi x, phi y) = omega(x, y)")
    t = form(phi("a"), _ap(dok(g.bracket), "b", "c"))
    chk.scan_zero("closed", (n,) * 3, _sum((1, t, "xyz"), (1, t, "yzx"), (1, t, "zxy"))[1],
                  note="omega(phi x,[y,z]) + cyclic = 0")
    return merge_reports("symplectic", algebra=check_hom_lie(g), form=chk.report())


def star_from_symplectic(s: SymplecticHomLie) -> HomLeftSymmetric:
    """Solve omega(x*y, phi z) = -omega(phi y, [x,z]) exactly for the product.

    omega and phi are invertible, so each x*y is the unique solution of an
    n x n system; the result is validated as a hom-left-symmetric product and
    its commutator is checked to reproduce the bracket.
    """
    return _solve_star(s)[0]


def _solve_star(s: SymplecticHomLie) -> tuple[HomLeftSymmetric, LeftSymmetricDerived]:
    """`star_from_symplectic`, with what the product's check derived."""
    report = check_symplectic(s)
    if not report.ok:
        raise PreconditionError("star_from_symplectic input is not symplectic",
                                report=report)
    g, omega = s.algebra, s.omega
    n = g.dim
    # x*y = ((Omega Phi)^T)^{-1} r with r_z = -omega(phi y, [x, e_z]); omega and phi are invertible
    r = _ap(_form(omega), _ap(dok(g.phi), "b"), _ap(dok(g.bracket), "a", "c"))[1]
    star = _ap(dok(inverse((omega * g.phi).transpose())),
               ("ab", {(i, j, z): -x for (i, j, z, _), x in r.items()}))[1]
    a = HomLeftSymmetric(n, Tensor.from_dok(star, (n, n, n)), g.phi)
    ls_report, derived = check_left_symmetric(a)
    if derived is None:
        raise CheckFailure("solved star product fails the left-symmetric laws",
                           report=ls_report)
    if derived.sub_adjacent.bracket != g.bracket:
        raise CheckFailure("star product commutator does not reproduce the bracket")
    return a, derived


def strict_from_symplectic(s: SymplecticHomLie) -> TwoTermHL:
    """Strict two-term structure on g* -> g from an involutive symplectic algebra.

    d = phi ∘ (omega-sharp)^{-1}, l2(x, xi) the dual of left multiplication,
    phi1 = phi transpose.  The identities the construction rests on (d
    against phi*, d against l2 in each slot) are the phi-chain, (d) and (e)
    laws of the two-term check that validates the output.
    """
    g = s.algebra
    if not g.is_involutive():
        raise PreconditionError("strict_from_symplectic requires an involutive twist")
    # phi is involutive, so the product's check also validated its dual action
    dual = _solve_star(s)[1].dual
    n = g.dim
    d = g.phi * inverse(s.sharp())
    out = TwoTermHL(n, n, d, g.bracket, Tensor.from_dok(dok(dual.rho), (n,) * 3),
                    Tensor.from_dok({}, (n,) * 4), g.phi, g.phi.transpose())
    check_two_term(out).require("strict_from_symplectic output")
    return out
