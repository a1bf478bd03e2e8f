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

Every multilinear law here but `bracket-interchange` is built once as a
residual tensor lhs − rhs with `exactlin._ap`/`_sum` (a law with two
equalities, such as l3-skew, as the union of two) and scanned over the
basis tuples as lookups.  The residual of `bracket-interchange` is a sum of
terms in one left and one right of its six indices, so it is decided, and
its first failing tuple found, among the tuples with at most two indices
off 0 (`_interchange_witness`).  `functor_T` and `compose_hl_morphisms`
build their structure constants with `_ap`/`_sum` too.  All of it runs on
Python ints where the data is integral; the answers are those of Fraction
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, product

from .errors import InputError
from .exactlin import Matrix, Tensor, Vec, _ap, _product, _sum, as_tensor, dok, require_shape
from .reports import CheckReport, LawChecker
from .twovect import TwoVectorSpace, from_complex


def trilinear_eval(tensor: Tensor, x: Vec, y: Vec, z: Vec, out_dim: int) -> Vec:
    """A trilinear tensor at coordinate vectors, one `_ap` over `dok`; ints
    where integral.  Kept only as a tracer target of the benchmark: the
    package evaluates with `_ap`."""
    out = _ap(dok(tensor), ("", dok(x)), ("", dok(y)), ("", dok(z)))[1]
    return tuple(out.get((k,), 0) for k in range(out_dim))


@dataclass(frozen=True)
class TwoTermHL:
    dim0: int
    dim1: int
    d: Matrix
    l2_00: Tensor
    l2_01: Tensor
    l3: Tensor
    phi0: Matrix
    phi1: Matrix

    def __post_init__(self):
        n0, n1 = self.dim0, self.dim1
        require_shape(self.d, (n0, n1), "d")
        object.__setattr__(self, "l2_00", as_tensor(self.l2_00, (n0, n0, n0), "l2_00"))
        object.__setattr__(self, "l2_01", as_tensor(self.l2_01, (n0, n1, n1), "l2_01"))
        object.__setattr__(self, "l3", as_tensor(self.l3, (n0, n0, n0, n1), "l3"))
        require_shape(self.phi0, (n0, n0), "phi0")
        require_shape(self.phi1, (n1, n1), "phi1")

    def is_skeletal(self) -> bool:
        return self.d.is_zero()

    def is_strict(self) -> bool:
        return not dok(self.l3)


def check_two_term(v: TwoTermHL) -> CheckReport:
    """Run conditions (a)-(j) plus the twist compatibilities, with witnesses.

    Every law but the structural (b) and (c) is built once as a residual
    tensor and scanned as lookups."""
    n0, n1 = v.dim0, v.dim1
    chk = LawChecker("two_term_hl")
    L2, M2, L3 = dok(v.l2_00), dok(v.l2_01), dok(v.l3)
    D, P0, P1 = dok(v.d), dok(v.phi0), dok(v.phi1)
    phi, d = partial(_ap, P0), partial(_ap, D)
    l2, act = ("ab", L2), ("ab", M2)                           # l2(a,b), l2(a,m) with m named b

    chk.scan_zero("(a)", (n0, n0), _sum((1, l2), (1, l2, "ba"))[1])
    chk.add("(b)", True, note="structural: only the V0xV1 component is stored")
    chk.add("(c)", True, note="structural: no V1xV1 component is stored")
    chk.scan_zero("(d)", (n0, n1), _sum((1, d(act)), (-1, _ap(L2, "a", d("b"))))[1])
    e = _ap(M2, d("a"), "b")                                   # l2(da, b)
    chk.scan_zero("(e)", (n1, n1), _sum((1, e), (1, e, "ba"))[1])
    chk.scan_zero("(f)", (n0, n0), _sum((1, phi(l2)), (-1, _ap(L2, phi("a"), phi("b"))))[1])
    chk.scan_zero("(g)", (n0, n1), _sum(
        (1, _ap(P1, act)), (-1, _ap(M2, phi("a"), _ap(P1, "b"))))[1])
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
    j3 = _ap(M2, phi(phi("a")), _ap(L3, "b", "c", "d"))       # l2(φ0² a, l3(b,c,d))
    chk.scan_zero("(j)", (n0,) * 4, _sum(
        (1, j1, "wxyz"), (1, j2, "wxzy"), (1, j1, "wzxy"),
        (-1, j1, "wyxz"), (-1, j2, "wxyz"), (-1, j2, "wyzx"),
        (-1, j3, "ywxz"), (1, j3, "zwxy"), (-1, j3, "wxyz"), (1, j3, "xwyz"))[1])

    chk.scan_zero("phi-chain", (n0, n1), _sum(
        (1, _product(v.phi0, v.d)), (-1, _product(v.d, v.phi1)))[1])
    chk.scan_zero("l3-equivariance", (n0,) * 3, _sum(
        (1, _ap(L3, phi("a"), phi("b"), phi("c"))), (-1, _ap(P1, l3)))[1])
    chk.scan_zero("l3-skew", (n0,) * 3, _skew3(l3))
    return chk.report()


def _skew3(t) -> set:
    """The keys where t(a,b,c) does not change sign under a <-> b or b <-> c."""
    return set().union(*(_sum((1, t), (1, t, swap))[1] for swap in ("bac", "acb")))


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
    f2: Tensor  # V0 x V0 -> target V1

    def __post_init__(self):
        n0 = self.source.dim0
        require_shape(self.f0, (self.target.dim0, n0), "f0")
        require_shape(self.f1, (self.target.dim1, self.source.dim1), "f1")
        object.__setattr__(self, "f2", as_tensor(self.f2, (n0, n0, self.target.dim1), "f2"))


def identity_hl_morphism(v: TwoTermHL) -> HLMorphism:
    return HLMorphism(v, v, Matrix.identity(v.dim0), Matrix.identity(v.dim1),
                      Tensor.from_dok({}, (v.dim0, v.dim0, v.dim1)))


def check_hl_morphism(m: HLMorphism) -> CheckReport:
    """The chain and twist laws of (f0, f1), and f2's skewness and its four
    laws with l2 and l3, each as a residual tensor."""
    src, tgt = m.source, m.target
    n0, n1 = src.dim0, src.dim1
    chk = LawChecker("hl_morphism")
    f0, f1, f2, phi, l2, act, l2t, act_t = (partial(_ap, dok(t)) for t in (
        m.f0, m.f1, m.f2, src.phi0, src.l2_00, src.l2_01, tgt.l2_00, tgt.l2_01))
    t0, t1 = tgt.dim0, tgt.dim1
    chk.scan_zero("chain-map", (t0, n1), _sum(
        (1, _product(m.f0, src.d)), (-1, _product(tgt.d, m.f1)))[1])
    chk.scan_zero("phi0-intertwined", (t0, n0), _sum(
        (1, _product(m.f0, src.phi0)), (-1, _product(tgt.phi0, m.f0)))[1])
    chk.scan_zero("phi1-intertwined", (t1, n1), _sum(
        (1, _product(m.f1, src.phi1)), (-1, _product(tgt.phi1, m.f1)))[1])
    chk.scan_zero("f2-skew", (n0, n0), _sum((1, f2("a", "b")), (1, f2("b", "a")))[1])
    chk.scan_zero("f2-equivariance", (n0, n0), _sum(
        (1, f2(phi("a"), phi("b"))), (-1, _ap(dok(tgt.phi1), f2("a", "b"))))[1])
    chk.scan_zero("bracket-defect", (n0, n0), _sum(
        (1, _ap(dok(tgt.d), f2("a", "b"))), (-1, f0(l2("a", "b"))),
        (1, l2t(f0("a"), f0("b"))))[1])
    chk.scan_zero("action-defect", (n0, n1), _sum(
        (1, f2("a", _ap(dok(src.d), "b"))), (-1, f1(act("a", "b"))),
        (1, act_t(f0("a"), f1("b"))))[1])
    t = act_t(f0(phi("a")), f2("b", "c"))                      # l2'(f0 φ0 a, f2(b,c))
    chk.scan_zero("jacobiator-defect", (n0,) * 3, _sum(
        (-1, t, "cab"), (1, f2(l2("a", "b"), phi("c"))), (1, f1(("abc", dok(src.l3)))),
        (-1, _ap(dok(tgt.l3), f0("a"), f0("b"), f0("c"))), (-1, t), (1, t, "bac"),
        (-1, f2(phi("a"), l2("b", "c"))), (-1, f2(l2("a", "c"), phi("b"))))[1])
    return chk.report()


def compose_hl_morphisms(first: HLMorphism, second: HLMorphism) -> HLMorphism:
    """second ∘ first; (g∘f)_2(x,y) = g2(f0 x, f0 y) + g1(f2(x,y))."""
    if first.target != second.source:
        raise InputError("morphism endpoints do not match")
    n0, f0 = first.source.dim0, partial(_ap, dok(first.f0))
    f2 = _sum((1, _ap(dok(second.f2), f0("a"), f0("b"))),
              (1, _ap(dok(second.f1), ("ab", dok(first.f2)))))[1]
    return HLMorphism(first.source, second.target, second.f0 * first.f0, second.f1 * first.f1,
                      Tensor.from_dok(f2, (n0, n0, second.target.dim1)))


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
    bracket_obj: Tensor
    bracket_mor: Tensor
    Phi0: Matrix
    Phi1: Matrix
    jac: Tensor

    def __post_init__(self):
        n0, n1 = self.tvs.dim0, self.tvs.dim1
        nm = n0 + n1
        for name, shape in (("bracket_obj", (n0,) * 3), ("bracket_mor", (nm,) * 3),
                            ("jac", (n0, n0, n0, n1))):
            object.__setattr__(self, name, as_tensor(getattr(self, name), shape, name))
        require_shape(self.Phi0, (n0, n0), "Phi0")
        require_shape(self.Phi1, (nm, nm), "Phi1")


def functor_T(v: TwoTermHL) -> HomLie2Data:
    """Categorical presentation of a two-term structure.

    Bracket on arrows: [(x,m),(y,n)] = (l2(x,y), l2(x,n) + l2(m,y) + l2(dm,n));
    twist functor (phi0, phi0 ⊕ phi1); Jacobiator V1-part = l3.
    """
    n0, n1 = v.dim0, v.dim1
    nm = n0 + n1
    # the blocks (x, y), (x, m), (m, x) and (m, n), with m, n and the V1 outputs shifted by n0
    M2 = dok(v.l2_01)
    bm = {**dok(v.l2_00), **{(i, n0 + a, n0 + k): c for (i, a, k), c in M2.items()},
          **{(n0 + a, i, n0 + k): -c for (i, a, k), c in M2.items()},
          **{(n0 + a, n0 + b, n0 + k): c
             for (a, b, k), c in _ap(M2, _ap(dok(v.d), "a"), "b")[1].items()}}
    bracket_mor = Tensor.from_dok(bm, (nm, nm, nm))
    phi1_full = Matrix.from_dok({**dok(v.phi0), **{
        (n0 + j, n0 + i): c for (j, i), c in dok(v.phi1).items()}}, nm, nm)
    return HomLie2Data(from_complex(v.d), v.l2_00, bracket_mor, v.phi0, phi1_full, v.l3)


def functor_S(L: HomLie2Data) -> TwoTermHL:
    """Two-term structure extracted from a categorical presentation.

    V1 = Ker(s), d = t restricted, l2(x,m) = [i(x), m], l3 = the Jacobiator's
    V1-part.  The output is re-validated; a valid input yields a valid output.
    """
    tvs = L.tvs
    n0, n1 = tvs.dim0, tvs.dim1
    # [i(e_i), e_a] in arrow coordinates is bracket_mor at the keys (i, n0 + a, k)
    mixed = {key: c for key, c in dok(L.bracket_mor).items() if key[0] < n0 <= key[1]}
    if any(k < n0 for _, _, k in mixed):
        raise InputError("bracket does not preserve Ker(s); cannot extract l2(x,m)")
    l2_01 = Tensor.from_dok({(i, a - n0, k - n0): c for (i, a, k), c in mixed.items()},
                            (n0, n1, n1))
    PM = dok(L.Phi1)            # keyed (column, row); Phi1 must preserve Ker(s) to restrict
    if any(i < n0 <= j for j, i in PM):
        raise InputError("twist functor does not preserve Ker(s)")
    phi1 = Matrix.from_dok({(j - n0, i - n0): c for (j, i), c in PM.items() if j >= n0}, n1, n1)
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
    laws, stages = _hom_lie2_residuals(L)
    chk = LawChecker("hom_lie2")

    chk.scan_zero("bracket-skew", (nm, nm), laws["bracket-skew"])
    chk.scan_zero("bracket-source", (nm, nm), laws["bracket-source"])
    chk.scan_zero("bracket-target", (nm, nm), laws["bracket-target"])
    chk.scan_zero("bracket-identities", (n0, n0), laws["bracket-identities"])

    witness = _interchange_witness(L)
    chk.scan_zero("bracket-interchange", (n0, n1, n1, n0, n1, n1),
                  {witness: 1} if witness else {}, note="vertical composition is preserved")

    chk.scan_zero("phi-source", (nm,), laws["phi-source"])
    chk.scan_zero("phi-target", (nm,), laws["phi-target"])
    chk.scan_zero("phi-identities", (n0,), laws["phi-identities"])
    chk.scan_zero("phi-bracket", (nm, nm), laws["phi-bracket"])

    chk.scan_zero("jacobiator-skew", (n0,) * 3, laws["jacobiator-skew"])
    chk.scan_zero("jacobiator-arrow", (n0,) * 3, laws["jacobiator-arrow"],
                  note="J lands where the diagram says")
    chk.scan_zero("jacobiator-equivariance", (n0,) * 3, laws["jacobiator-equivariance"])
    chk.scan_zero("jacobiator-naturality", (nm,) * 3, laws["jacobiator-naturality"])

    broken = set().union(*(residual for _, residual in stages))
    note = "coherence diagram, both composites compared stagewise"
    if not chk.scan_zero("hom-jacobiator", (n0,) * 4, broken, note=note):
        first = min(key[:-1] for key in broken)
        stage = next(name for name, res in stages if any(key[:-1] == first for key in res))
        chk.amend_note(f"{note}; broke at stage {stage}")
    return chk.report()


def _interchange_witness(L: HomLie2Data):
    """The least tuple (i, a, a', j, b, b') at which `bracket-interchange` fails, or None.

    For x, y = e_i, e_j in V0 and m, m', n, n' = e_a, e_a', e_b, e_b' in V1,
    lhs = [(x, m + m'), (y, n + n')] must compose first = [(x, m), (y, n)] with
    second = [(x + dm, m'), (y + dn, n')].  The residual (V0-part of lhs − first,
    V1-part of lhs − first − second, t(first) − s(second)) is bilinear, a sum of
    terms in one left and one right slot, so it has no anchored component in
    three slots: it vanishes iff it does where at most two slots are off 0, and
    its least failing tuple is one of those (zeroing a slot makes a tuple smaller).
    """
    n0, n1, D = L.tvs.dim0, L.tvs.dim1, dok(L.tvs.d)
    nm, dims = n0 + n1, (n0, n1, n1, n0, n1, n1)
    if not n0 or not n1:
        return None
    # what the basis vector of a slot feeds into lhs, first and second, as an arrow:
    # the object x (o), the V1-part m (m), the object dm (d), or nothing (-)
    arrows = {"o": {(i, i): 1 for i in range(n0)}, "m": {(a, n0 + a): 1 for a in range(n1)},
              "d": D, "-": {}}
    feeds = ("ooo", "mmd", "m-m")
    # the bracket in lhs, first and second, into the residual's V0 ⊕ V1, then nm + V0
    ident = {(r, r): 1 for r in range(nm)}
    t_first = {**{k: -1 for k in ident}, **{(i, nm + i): 1 for i in range(n0)},
               **{(n0 + a, nm + i): c for (a, i), c in D.items()}}
    outs = (ident, t_first, {(r, r if r >= n0 else nm + r): -1 for r in range(nm)})
    bm = ("ab", dok(L.bracket_mor))
    brackets = [partial(_ap, _ap(out, bm)[1]) for out in outs]

    @cache
    def image(k, x, y):         # bracket k of (lhs, first, second) on the arrows x and y
        return brackets[k](("a", arrows[x]), ("b", arrows[y]))

    terms: dict = {}            # (left slot, right slot) -> {(their indices): [(out, c)]}
    for s, u in product(range(3), repeat=2):
        for (p, q, r), c in _sum(*((1, image(k, x, y)) for k, (x, y)
                                   in enumerate(zip(feeds[s], feeds[u]))))[1].items():
            terms.setdefault((s, 3 + u), {}).setdefault((p, q), []).append((r, c))

    def fails(t) -> bool:
        acc: dict = {}
        for (s, u), table in terms.items():
            for r, c in table.get((t[s], t[u]), ()):
                acc[r] = acc.get(r, 0) + c
        return any(acc.values())

    anchored = {tuple(x if k == p else y if k == q else 0 for k in range(6))
                for p, q in combinations(range(6), 2)
                for x in range(dims[p]) for y in range(dims[q])}
    return next((t for t in sorted(anchored) if fails(t)), None)


def _hom_lie2_residuals(L: HomLie2Data):
    """The residuals (lhs − rhs) of the categorical laws, from the categorical
    data alone: {law: residual} for the laws on arrows and identities and
    the Jacobiator's laws, and each stage of the hom-Jacobiator coherence
    diagram in w, x, y, z.  Arrows are in coordinates V0 ⊕ V1.

    A stage compares an intermediate object with the value the diagram
    prescribes ('+1' summands are identities, with no V1-part): the targets
    of the left composite's arrows (top, n2, n3), the right composite's
    source and targets (r1-source, r1, r2, r3/r4), and at last the two
    V1-parts (final).
    """
    n0, n1 = L.tvs.dim0, L.tvs.dim1
    B, BM, J, D = dok(L.bracket_obj), dok(L.bracket_mor), dok(L.jac), dok(L.tvs.d)
    P, PM = dok(L.Phi0), dok(L.Phi1)
    # the arrow maps: i(x) = (x, 0) from V0, which read backwards is the
    # source; the target (x, m) -> x + dm; the inclusion of V1 and the V1-part
    ident = {(i, i): 1 for i in range(n0)}
    target = {**ident, **{(n0 + a, i): c for (a, i), c in D.items()}}
    inc1 = {(a, n0 + a): 1 for a in range(n1)}
    v1 = {(n0 + a, a): 1 for a in range(n1)}
    br, bm, phi, pm = (partial(_ap, t) for t in (B, BM, P, PM))
    obj = src = partial(_ap, ident)
    tgt = partial(_ap, target)

    def jac_arrow(x, y, z):     # J_{x,y,z}, with source [[x,y], Phi0 z]
        return _sum((1, obj(br(br(x, y), phi(z)))), (1, _ap(inc1, _ap(J, x, y, z))))

    def residual(*terms):
        return _sum(*terms)[1]

    # naturality: f = [[a,b], Φc] then J at the targets equals J at the sources
    # then g = [Φa, [b,c]] + [[a,c], Φb]; both pairs compose, with equal results
    f = bm(bm("a", "b"), pm("c"))
    g = _sum((1, bm(pm("a"), bm("b", "c"))), (1, bm(bm("a", "c"), pm("b"))))
    ta, tb, tc = tgt("a"), tgt("b"), tgt("c")
    j_s = jac_arrow(src("a"), src("b"), src("c"))
    laws = {
        "bracket-skew": residual((1, bm("a", "b")), (1, bm("b", "a"))),
        "bracket-source": residual((1, src(bm("a", "b"))), (-1, br(src("a"), src("b")))),
        "bracket-target": residual((1, tgt(bm("a", "b"))), (-1, br(tgt("a"), tgt("b")))),
        "bracket-identities": residual((1, bm(obj("a"), obj("b"))), (-1, obj(br("a", "b")))),
        "phi-source": residual((1, src(pm("a"))), (-1, phi(src("a")))),
        "phi-target": residual((1, tgt(pm("a"))), (-1, phi(tgt("a")))),
        "phi-identities": residual((1, pm(obj("a"))), (-1, obj(phi("a")))),
        "phi-bracket": residual((1, pm(bm("a", "b"))), (-1, bm(pm("a"), pm("b")))),
        "jacobiator-skew": _skew3(("abc", J)),
        "jacobiator-arrow": residual(
            (1, br(br("x", "y"), phi("z"))), (1, _ap(D, ("xyz", J))),
            (-1, br(phi("x"), br("y", "z"))), (-1, br(br("x", "z"), phi("y")))),
        "jacobiator-equivariance": residual((1, jac_arrow(phi("x"), phi("y"), phi("z"))),
                                            (-1, pm(jac_arrow("x", "y", "z")))),
        "jacobiator-naturality": set().union(
            residual((1, tgt(f)), (-1, br(br(ta, tb), phi(tc)))),
            residual((1, tgt(j_s)), (-1, src(g))),
            residual((1, f), (1, _ap(inc1, _ap(J, ta, tb, tc))), (-1, j_s),
                     (-1, _ap(inc1, _ap(v1, g))))),
    }

    # the composites of the diagram, each built once in the slots a, b, c, d
    ab, sq_a, sq_d = br("a", "b"), phi(phi("a")), phi(phi("d"))
    o1 = br(br(ab, phi("c")), sq_d)                         # [[[a,b], φc], φ²d]
    o2 = br(phi(ab), br(phi("c"), phi("d")))                # [φ[a,b], [φc, φd]]
    o3 = br(br(phi("a"), br("b", "c")), sq_d)               # [[φa, [b,c]], φ²d]
    o4 = br(sq_a, br(br("b", "c"), phi("d")))               # [φ²a, [[b,c], φd]]
    o5 = br(br(phi("a"), phi("b")), phi(br("c", "d")))      # [[φa, φb], φ[c,d]]
    j1 = _ap(J, ab, phi("c"), phi("d"))                     # J_{[a,b], φc, φd}
    j2 = _ap(J, phi("a"), br("b", "c"), phi("d"))           # J_{φa, [b,c], φd}
    r = bm(jac_arrow("a", "b", "c"), obj(sq_d))             # [J_{a,b,c}, i(φ²d)]
    j3 = _ap(v1, r)
    j4 = _ap(v1, bm(obj(sq_a), jac_arrow("b", "c", "d")))   # [i(φ²a), J_{b,c,d}]
    dj1, dj2, dj3, dj4 = (_ap(D, j) for j in (j1, j2, j3, j4))

    def neg(terms):
        return [(-sign, e, names) for sign, e, names in terms]

    # left/top composite: J_{[w,x],φy,φz} from [[[w,x],φy],φ²z] to `top`,
    # then [J_{w,x,z}, φ²y] to m_obj, then J_{φw,[x,z],φy} + J_{[w,z],φx,φy} to q_obj
    start = [(1, o1, "wxyz")]
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
        ("top", start + [(1, dj1, "wxyz")] + neg(top)),
        ("n2", top + [(1, dj3, "wxzy")] + neg(m_obj)),
        ("n3", m_obj + [(1, dj2, "wxzy"), (1, dj1, "wzxy")] + neg(q_obj)),
        ("r1-source", [(1, src(r), "wxyz")] + neg(start)),
        ("r1", start + [(1, dj3, "wxyz")] + neg(left_mid)),
        ("r2", left_mid + [(1, dj2, "wxyz"), (1, dj1, "wyxz")] + neg(p_obj)),
        ("r3/r4", p_obj + [(1, dj4, "wxyz"), (1, dj3, "wyzx"), (1, dj2, "wyzx")] + neg(q_obj)),
        ("final", left_v1 + neg(right_v1)),
    ]
    return laws, [(name, residual(*terms)) for name, terms in stages]


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
    chk.scan_zero("alpha-bracket", (nm, nm), _sum(
        (1, ("ab", dok(L.bracket_mor))), (-1, ("ab", dok(expected.bracket_mor))))[1],
        note="stored bracket equals the one induced by its own l2 parts")
    chk.add("alpha-phi", L.Phi1 == expected.Phi1,
            note="twist functor is block-diagonal over (objects, Ker s)")
    return chk.report()
