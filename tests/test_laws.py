"""The laws built as residual tensors against their per-tuple references.

`_ap` and `_sum` must equal a dense Fraction einsum, store no zero and hold
only ints on integral data.  On perturbed structures, `check_hom_lie`,
`check_two_term`, `check_hom_lie2`, `roundtrip_check` and
`check_hl_morphism` must give the reports of the per-tuple scans in
`tests/helpers.py`, item for item: verdict, first failing basis tuple, note
(with the broken hom-Jacobiator stage) and order.  The other checks are
compared in `tests/test_residual_laws.py`.
"""

import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (heisenberg, identity_complex, nilpotent4, random_invertible,
                     reference_check_hl_morphism, reference_check_hom_lie,
                     reference_check_hom_lie2, reference_check_two_term,
                     reference_apply, reference_bilinear_eval, reference_roundtrip_check,
                     shift_strict, sl2_sum, transport_two_term)
from homlie2.constructions import sl2_example, string_from_semisimple
from homlie2.exactlin import Matrix, _ap, _sum, inverse
from homlie2.hl2 import (HLMorphism, HomLie2Data, TwoTermHL, check_hl_morphism, check_hom_lie2,
                         check_two_term, functor_T, identity_hl_morphism, roundtrip_check)
from homlie2.reports import CheckReport
from homlie2.homlie import HomLieAlgebra, abelian_algebra, check_hom_lie

F = Fraction

NONZERO = sorted({F(p, q) for p in range(-6, 7) for q in range(1, 8)} - {0})
entries = st.one_of(st.sampled_from(NONZERO), st.just(F(0)))
units = st.sampled_from((F(0), F(1), F(-1)))  # sums of products cancel often


def reference_contract(out, dims, terms):
    """Every assignment of each term's slots, multiplied out densely."""
    result = {}
    for coef, factors in terms:
        slots = sorted({s for names, _ in factors for s in names})
        for values in product(*(range(dims[s]) for s in slots)):
            at = dict(zip(slots, values))
            value = F(coef)
            for names, dense in factors:
                value *= dense[tuple(at[s] for s in names)]
            key = tuple(at[s] for s in out)
            result[key] = result.get(key, F(0)) + value
    return {key: v for key, v in result.items() if v}


@st.composite
def applications(draw, letters: str, dims: dict, values, out_name=None, depth=0):
    """`_ap` of a random tensor to `letters`, split among its inputs: each
    input a letter or a nested application (of no letters, a constant).
    Returns (expression, the factors of its dense reference term, the name of
    its output slot); `dims` gains the size of every slot named inside, and
    the entries are drawn from `values`."""
    k = len(letters) if depth == 2 else draw(st.integers(1 if letters else 0, 3))
    owner = list(range(k)) if depth == 2 else [draw(st.integers(0, k - 1)) for _ in letters]
    args, names, factors = [], [], []
    for p in range(k):
        mine = "".join(s for s, o in zip(letters, owner) if o == p)
        if len(mine) == 1 and (depth == 2 or draw(st.booleans())):
            args.append(mine)
            names.append(mine)
        else:
            expr, sub, name = draw(applications(mine, dims, values, depth=depth + 1))
            args.append(expr)
            names.append(name)
            factors += sub
    if out_name is None:
        out_name = f"_{len(dims)}"
    dims.setdefault(out_name, draw(st.integers(0, 3)))
    shape = [dims[n] for n in names] + [dims[out_name]]
    dense = {key: draw(values) for key in product(*map(range, shape))}
    sparse = {key: (v.numerator if v.denominator == 1 else v) for key, v in dense.items() if v}
    return _ap(sparse, *args), [((*names, out_name), dense)] + factors, out_name


def assert_kernel_result(got: dict, want: dict, coefficients_and_factors):
    """got equals the dense reference, stores no zero, and holds only ints on integral data."""
    assert got == want
    assert all(v and type(v) in (int, Fraction) for v in got.values())
    if all(F(c).denominator == 1 and all(v.denominator == 1 for v in dense.values())
           for c, factors in coefficients_and_factors for _, dense in factors):
        assert all(type(v) is int for v in got.values())


def slot_letters(data) -> tuple[str, dict, st.SearchStrategy]:
    """Letters in random order, the dimensions of all four, and the entries' values."""
    letters = "".join(data.draw(st.permutations("abcd"))[:data.draw(st.integers(0, 4))])
    dims = {s: data.draw(st.integers(0, 3)) for s in "abcd"}
    return letters, dims, data.draw(st.sampled_from((entries, units)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_ap_matches_dense_reference(data):
    letters, dims, values = slot_letters(data)
    (slots, got), factors, out = data.draw(applications(letters, dims, values))
    assert slots == "".join(sorted(letters))
    want = reference_contract((*slots, out), dims, [(1, factors)])
    assert_kernel_result(got, want, [(1, factors)])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sum_matches_dense_reference(data):
    """Signed terms over the same letters, some renamed, keyed by the sorted letters."""
    letters, dims, values = slot_letters(data)
    slots = "".join(sorted(letters))
    dims["_out"] = data.draw(st.integers(0, 3))
    terms, dense_terms = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        expr, factors, _ = data.draw(applications(letters, dims, values, "_out"))
        coef = data.draw(st.sampled_from((1, -1, 2, F(-2, 3))))
        rename = {}
        if data.draw(st.booleans()):  # swap letters of equal dimension
            for d in set(map(dims.get, slots)):
                same = [s for s in slots if dims[s] == d]
                rename.update(zip(same, data.draw(st.permutations(same))))
            terms.append((coef, expr, "".join(map(rename.get, slots))))
        else:
            terms.append((coef, expr))
        dense_terms.append((coef, [(tuple(rename.get(s, s) for s in fnames), dense)
                                   for fnames, dense in factors]))
    got_slots, got = _sum(*terms)
    assert got_slots == slots
    assert_kernel_result(got, reference_contract((*slots, "_out"), dims, dense_terms),
                         dense_terms)


def test_kernel_keys_by_sorted_slots_and_drops_cancelled_entries():
    e = ("ab", {(0, 1, 0): 1, (1, 0, 0): F(1, 2)})           # e(a, b)
    assert _sum((1, e, "ba")) == ("ab", {(1, 0, 0): 1, (0, 1, 0): F(1, 2)})
    assert _sum((-1, e, "ba"), (1, e)) == ("ab", {(1, 0, 0): F(-1, 2), (0, 1, 0): F(1, 2)})
    assert _sum((1, e), (-1, e)) == ("ab", {})
    with pytest.raises(ValueError):
        _sum((1, e), (1, e, "bc"))
    m = {(0, 0): 1, (1, 0): 2, (1, 1): F(1, 2)}             # v -> M·v, keyed (column, row)
    assert _ap(m, ("", {(0,): 3, (1,): -4})) == ("", {(0,): -5, (1,): -2})
    assert _ap(m, "b") == ("b", m)
    assert _ap(m, ("", {(0,): 2, (1,): -1})) == ("", {(1,): F(-1, 2)})   # 2 - 2 = 0 is dropped
    t = {(0, 0, 0): 1, (0, 1, 0): 1}                        # t(e0, e0) = t(e0, e1) = e0
    assert _ap(t, "b", ("a", {(0, 0): 1, (1, 1): 2})) == ("ab", {(0, 0, 0): 1, (1, 0, 0): 2})
    assert _ap(t, "b", ("a", {(0, 0): 1, (0, 1): -1})) == ("ab", {})


# -- the contracted laws against the per-tuple scans --------------------------------

BASES = {
    "string": lambda: string_from_semisimple(sl2_example()),
    "string^2": lambda: string_from_semisimple(sl2_sum(2)),
    "shift": lambda: shift_strict(sl2_example()),
    "shift, new basis": lambda: transport_two_term(
        shift_strict(sl2_example()), random_invertible(random.Random(5), 3),
        random_invertible(random.Random(6), 3))[0],
}
FIELDS = ("l2_00", "l2_01", "l3", "phi0", "phi1", "d")
CATEGORICAL_FIELDS = ("bracket_obj", "bracket_mor", "jac", "Phi0", "Phi1")
DELTAS = (1, F(1, 2), F(-2, 3))


def perturbed(x, field: str, position: int, delta):
    """x with `delta` added to the entry at `position` of its flattened field."""
    def flat(t):
        return [c for row in t for c in flat(row)] if isinstance(t, tuple) else [t]

    def rebuild(entries, t):
        return [rebuild(entries, row) for row in t] if isinstance(t, tuple) else entries.pop(0)

    value = getattr(x, field)
    data = value.data if isinstance(value, Matrix) else value
    entries = flat(data)
    entries[position % len(entries)] += delta
    new = rebuild(entries, data)
    return dataclasses.replace(
        x, **{field: Matrix(value.rows, value.cols, new) if isinstance(value, Matrix) else new})


def outcome(check, *args):
    """The report of a check, or the class and message of what it raised."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - the reference must raise the same
        return type(exc), str(exc)


def failed_laws(*outcomes) -> set:
    """The laws failed in those outcomes that are reports."""
    return {item.law for report in outcomes if isinstance(report, CheckReport)
            for item in report.failures()}


def assert_two_term_agrees(v: TwoTermHL) -> tuple:
    """check_two_term and roundtrip_check against their per-tuple references;
    return both outcomes."""
    report = check_two_term(v)
    assert report == reference_check_two_term(v)
    roundtrip = outcome(roundtrip_check, v)
    assert roundtrip == outcome(reference_roundtrip_check, v)
    return report, roundtrip


def assert_hom_lie2_agrees(L: HomLie2Data) -> tuple:
    """check_hom_lie2 and roundtrip_check against their per-tuple references,
    item for item and in order, the broken stage included; return both outcomes."""
    report = check_hom_lie2(L)
    assert report == reference_check_hom_lie2(L)
    roundtrip = outcome(roundtrip_check, L)
    assert roundtrip == outcome(reference_roundtrip_check, L)
    return report, roundtrip


def broken_stage(report):
    return report.item("hom-jacobiator").note.partition("; broke at stage ")[2] or None


@given(st.sampled_from(sorted(BASES)), st.sampled_from(FIELDS), st.integers(0, 10 ** 6),
       st.sampled_from(DELTAS))
@settings(max_examples=40, deadline=None)
def test_contracted_laws_match_the_per_tuple_scans(base, field, position, delta):
    v = perturbed(BASES[base](), field, position, delta)
    assert_two_term_agrees(v)
    assert_hom_lie2_agrees(functor_T(v))


@given(st.sampled_from(sorted(BASES)), st.sampled_from(CATEGORICAL_FIELDS),
       st.integers(0, 10 ** 6), st.sampled_from(DELTAS))
@settings(max_examples=30, deadline=None)
def test_categorical_laws_match_the_per_tuple_scans(base, field, position, delta):
    assert_hom_lie2_agrees(perturbed(functor_T(BASES[base]()), field, position, delta))


def test_perturbation_grid_reaches_every_law():
    """Seeded perturbations of the n0 = 3 bases, and of their categorical
    data, agree with the references, and every contracted law fails in some."""
    rng = random.Random(1)
    bases = [make() for name, make in sorted(BASES.items()) if name != "string^2"]
    failed = set()
    for k in range(100):
        base, delta = rng.choice(bases), rng.choice(DELTAS)
        if k % 2:
            L = perturbed(functor_T(base), rng.choice(CATEGORICAL_FIELDS),
                          rng.randrange(10 ** 6), delta)
        else:
            v = perturbed(base, rng.choice(FIELDS), rng.randrange(10 ** 6), delta)
            failed |= failed_laws(*assert_two_term_agrees(v))
            L = functor_T(v)
        failed |= failed_laws(*assert_hom_lie2_agrees(L))
    assert failed == {"(a)", "(d)", "(e)", "(f)", "(g)", "(h)", "(i)", "(j)", "phi-chain",
                      "l3-equivariance", "l3-skew", "bracket-skew", "bracket-source",
                      "bracket-target", "bracket-identities", "bracket-interchange",
                      "phi-source", "phi-target", "phi-identities", "phi-bracket",
                      "jacobiator-skew", "jacobiator-arrow", "jacobiator-equivariance",
                      "jacobiator-naturality", "hom-jacobiator", "alpha-bracket", "alpha-phi"}


@pytest.mark.parametrize("field, position, stage", [
    ("jac", 33, "top"), ("jac", 1, "n2"), ("jac", 36, "n3"), ("bracket_mor", 0, "r1-source"),
    ("jac", 0, "r1"), ("jac", 51, "r2"), ("jac", 18, "r3/r4"),
])
def test_each_stage_breaks_first_where_the_reference_says(field, position, stage):
    """Entries of the categorical data of g -Id-> g (sl(2)) raised by 1; with
    the string's `final` in tests/test_hl2.py, every stage breaks first somewhere."""
    L = perturbed(functor_T(identity_complex(sl2_example())), field, position, 1)
    assert broken_stage(assert_hom_lie2_agrees(L)[0]) == stage


# -- bracket-interchange: decided where at most two indices are off 0 -----------------

INTERCHANGE_VALUES = (0, 0, 0, 1, -1, 2, F(1, 2))


def interchange_candidate(rng: random.Random) -> HomLie2Data:
    """functor_T of a random two-term structure with n0, n1 in 0..3, then maybe
    one entry of d or of the arrow bracket changed at the last V0 or V1
    index, so that a first failure lies late, such as (2, 0, 0, 2, 0, 0).
    Its d is 0, or c·Id with l2 on V0 x V1 that on V0 x V0 made skew (both
    pass bracket-interchange), or random."""
    def draw(*shape):
        if not shape:
            return rng.choice(INTERCHANGE_VALUES)
        return [draw(*shape[1:]) for _ in range(shape[0])]

    kind, n0 = rng.choice(("zero d", "scalar d", "random d")), rng.choice((0, 1, 2, 3, 3, 3))
    n1 = n0 if kind == "scalar d" else rng.choice((0, 1, 2, 3, 3, 3))
    l2, act, d = draw(n0, n0, n0), draw(n0, n1, n1), Matrix(n0, n1, draw(n0, n1))
    if kind == "zero d":
        d = Matrix.zeros(n0, n1)
    elif kind == "scalar d":
        for i, j in product(range(n0), repeat=2):
            l2[i][j] = [-x for x in l2[j][i]] if j < i else l2[i][j] if j > i else [0] * n0
        d, act = Matrix.diagonal([rng.choice((1, -1, 2, F(1, 2)))] * n0), l2
    v = TwoTermHL(n0, n1, d, l2, act, draw(n0, n0, n0, n1), Matrix(n0, n0, draw(n0, n0)),
                  Matrix(n1, n1, draw(n1, n1)))
    late = [p for p in (n0 - 1, n0 + n1 - 1) if p >= 0]
    change = rng.choice(("none", "d", "bracket_mor", "bracket_mor"))
    if change == "d" and n0 and n1:
        rows = [list(row) for row in v.d.data]
        rows[rng.randrange(n0)][n1 - 1] += rng.choice((1, -1))
        v = dataclasses.replace(v, d=Matrix(n0, n1, rows))
    L = functor_T(v)
    if change == "bracket_mor" and late:
        bm = [[list(mu) for mu in row] for row in L.bracket_mor]
        bm[rng.choice(late)][rng.choice(late)][rng.randrange(n0 + n1)] += rng.choice((1, -1))
        L = dataclasses.replace(L, bracket_mor=bm)
    return L


@given(st.integers(0, 2 ** 32))
@settings(max_examples=50, deadline=None)
def test_interchange_matches_the_per_tuple_scan(seed):
    """The whole report of check_hom_lie2 equals its per-tuple reference's."""
    L = interchange_candidate(random.Random(seed))
    assert check_hom_lie2(L) == reference_check_hom_lie2(L)


def test_interchange_grid_fails_late_and_through_d():
    """Seeded candidates agree with the reference.  Interchange passes in
    some; it fails in some at i = 2, and in some with d != 0 at an index 2.
    A first failure is never off 0 in more than two slots."""
    rng = random.Random(13)
    witnesses, late_with_d = [], False
    for _ in range(50):
        L = interchange_candidate(rng)
        item = check_hom_lie2(L).item("bracket-interchange")
        assert item == reference_check_hom_lie2(L).item("bracket-interchange")
        witnesses.append(item.witness)
        late_with_d |= not item.passed and 2 in item.witness and not L.tvs.d.is_zero()
    assert None in witnesses and late_with_d
    assert any(w and w[0] == 2 for w in witnesses)
    assert all(w is None or w.count(0) >= 4 for w in witnesses)


@pytest.mark.parametrize("n0, n1", [(3, 0), (0, 3), (0, 0), (2, 0)])
def test_interchange_on_empty_ranges(n0, n1):
    """With no V0 or no V1 basis vector the law has no case and passes."""
    rng = random.Random(n0 * 4 + n1)
    l2 = [[[rng.choice((0, 1, -1)) for _ in range(n0)] for _ in range(n0)] for _ in range(n0)]
    v = TwoTermHL(n0, n1, Matrix.zeros(n0, n1), l2, [[[0] * n1] * n1] * n0,
                  [[[[0] * n1] * n0] * n0] * n0, Matrix.identity(n0), Matrix.identity(n1))
    L = functor_T(v)
    report = check_hom_lie2(L)
    assert report.item("bracket-interchange").passed
    assert report == reference_check_hom_lie2(L)


# -- check_hl_morphism against the per-tuple reference --------------------------------

def base_morphism(base: str, dense: bool) -> HLMorphism:
    """The identity of a base structure, or a dense change of basis out of it."""
    v = BASES[base]()
    if not dense:
        return identity_hl_morphism(v)
    rng = random.Random(len(base))
    return transport_two_term(v, new_basis(rng, v.dim0), new_basis(rng, v.dim1))[1]


@given(st.sampled_from(sorted(BASES)), st.booleans(), st.sampled_from(("f0", "f1", "f2")),
       st.integers(0, 10 ** 6), st.sampled_from(DELTAS))
@settings(max_examples=40, deadline=None)
def test_morphism_laws_match_the_per_tuple_reference(base, dense, field, position, delta):
    m = perturbed(base_morphism(base, dense), field, position, delta)
    assert check_hl_morphism(m) == reference_check_hl_morphism(m)


def test_morphism_grid_passes_and_fails_every_law():
    """The unperturbed morphisms pass; seeded perturbations of f0, f1 and f2
    agree with the reference and make every residual law fail somewhere."""
    rng = random.Random(4)
    morphisms = [base_morphism(base, dense) for base in sorted(BASES) if base != "string^2"
                 for dense in (False, True)]
    assert all(check_hl_morphism(m).ok for m in morphisms)
    failed = set()
    for _ in range(120):
        m = perturbed(rng.choice(morphisms), rng.choice(("f0", "f1", "f2")),
                      rng.randrange(10 ** 6), rng.choice(DELTAS))
        report = check_hl_morphism(m)
        assert report == reference_check_hl_morphism(m)
        failed |= {item.law for item in report.failures()}
    assert {"phi0-intertwined", "phi1-intertwined", "f2-skew", "f2-equivariance",
            "bracket-defect", "action-defect", "jacobiator-defect"} <= failed


def test_chain_map_fails_at_its_first_entry_in_row_major_order():
    """Every base has d = 0, so the grid never breaks f0∘d = d'∘f1.  On
    g -Id-> g, f1 changed at (2, 0) and at (1, 2) breaks it first at (1, 2)."""
    m = identity_hl_morphism(identity_complex(sl2_example()))
    rows = [list(row) for row in m.f1.data]
    rows[2][0] += 1
    rows[1][2] += F(1, 2)
    m = dataclasses.replace(m, f1=Matrix(3, 3, rows))
    report = check_hl_morphism(m)
    assert report == reference_check_hl_morphism(m)
    assert report.item("chain-map").witness == (1, 2)


# -- check_hom_lie against the per-tuple reference ---------------------------------

VALID_ALGEBRAS = (
    lambda: abelian_algebra(0), lambda: abelian_algebra(1, Matrix.diagonal([F(-2, 3)])),
    lambda: abelian_algebra(2, Matrix(2, 2, [[0, 1], [1, 0]])), heisenberg,
    lambda: heisenberg(2, -1), nilpotent4, lambda: nilpotent4(-1, 1), sl2_example,
)
SCALES = (1, -1, 2, F(1, 3), F(-3, 2))


def transport_algebra(g: HomLieAlgebra, p: Matrix) -> HomLieAlgebra:
    """g in the basis given by the columns of p."""
    q, cols = inverse(p), p.columns()
    bracket = [[reference_apply(q, reference_bilinear_eval(g.bracket, cols[i], cols[j], g.dim))
                for j in range(g.dim)] for i in range(g.dim)]
    return HomLieAlgebra(g.dim, bracket, q * g.phi * p)


def new_basis(rng: random.Random, n: int) -> Matrix:
    """An invertible matrix with non-integral entries in general."""
    return random_invertible(rng, n) * Matrix.diagonal([rng.choice(SCALES) for _ in range(n)])


@st.composite
def hom_lie_candidates(draw):
    """A random bracket and twist of dim 0..4 (skew or not), or a valid
    algebra in a random basis; then, maybe, one entry changed."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 4))
        bracket = [[[draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        if draw(st.booleans()):
            for i in range(n):
                bracket[i][i] = [F(0)] * n
                for j in range(i):
                    bracket[i][j] = [-x for x in bracket[j][i]]
        g = HomLieAlgebra(n, bracket, Matrix(n, n, [[draw(entries) for _ in range(n)]
                                                     for _ in range(n)]))
    else:
        g = draw(st.sampled_from(VALID_ALGEBRAS))()
        if g.dim:
            g = transport_algebra(g, new_basis(random.Random(draw(st.integers(0, 10 ** 6))), g.dim))
    if g.dim and draw(st.booleans()):
        g = perturbed(g, draw(st.sampled_from(("bracket", "phi"))), draw(st.integers(0, 10 ** 6)),
                      draw(st.sampled_from(NONZERO)))
    return g


@given(hom_lie_candidates())
@settings(max_examples=300, deadline=None)
def test_check_hom_lie_matches_the_per_tuple_reference(g):
    assert check_hom_lie(g) == reference_check_hom_lie(g)


def test_hom_lie_grid_passes_and_fails_every_law():
    """Valid algebras in new bases pass; seeded single-entry changes agree
    with the reference and make every law fail somewhere."""
    rng = random.Random(3)
    failed = set()
    for k in range(120):
        g = VALID_ALGEBRAS[k % len(VALID_ALGEBRAS)]()
        if g.dim:
            g = transport_algebra(g, new_basis(rng, g.dim))
        assert check_hom_lie(g).ok
        if g.dim:
            g = perturbed(g, rng.choice(("bracket", "phi")), rng.randrange(10 ** 6),
                          rng.choice(NONZERO))
        report = check_hom_lie(g)
        assert report == reference_check_hom_lie(g)
        failed |= {item.law for item in report.failures()}
    assert failed == {"skew", "phi-morphism", "hom-jacobi"}
