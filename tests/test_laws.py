"""The laws built by contraction against their per-tuple references.

`contract` must equal a dense Fraction einsum, store no zero and hold only
ints and Fractions.  On perturbed structures, the residual-tensor laws of
`check_hom_lie`, `check_two_term` and `check_hom_lie2` must report the
verdict, the first failing basis tuple and the broken hom-Jacobiator stage
that the per-tuple scans in `tests/helpers.py` find.
"""

import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (heisenberg, identity_complex, nilpotent4, random_invertible,
                     reference_check_hom_lie, reference_hom_lie2_witnesses,
                     reference_two_term_witnesses, shift_strict, sl2_sum, transport_two_term)
from homlie2.constructions import sl2_example, string_from_semisimple
from homlie2.exactlin import Matrix, contract, inverse
from homlie2.hl2 import HomLie2Data, TwoTermHL, check_hom_lie2, check_two_term, functor_T
from homlie2.homlie import HomLieAlgebra, abelian_algebra, check_hom_lie

F = Fraction

NONZERO = sorted({F(p, q) for p in range(-6, 7) for q in range(1, 8)} - {0})
entries = st.one_of(st.sampled_from(NONZERO), st.just(F(0)))


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
def contractions(draw):
    letters = "abcd"[:draw(st.integers(1, 4))]
    dims = {s: draw(st.integers(0, 3)) for s in letters}
    out = "".join(draw(st.permutations(letters))[:draw(st.integers(0, len(letters)))])
    dense_terms, sparse_terms = [], []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for k in range(draw(st.integers(1, 3))):
            names = list(draw(st.permutations(letters)))[:draw(st.integers(1, len(letters)))]
            if k == 0:  # the first factor carries every output slot
                names += [s for s in out if s not in names]
            dense = {key: draw(entries) for key in product(*(range(dims[s]) for s in names))}
            factors.append(("".join(names), dense))
        coef = draw(st.sampled_from((1, -1, 2, F(-2, 3))))
        dense_terms.append((coef, factors))
        sparse_terms.append((coef, [(names, {key: (v.numerator if v.denominator == 1 else v)
                                             for key, v in dense.items() if v})
                                    for names, dense in factors]))
    return out, dims, dense_terms, sparse_terms


@given(contractions())
@settings(max_examples=300, deadline=None)
def test_contract_matches_dense_reference(case):
    out, dims, dense_terms, sparse_terms = case
    got = contract(out, *sparse_terms)
    assert got == reference_contract(out, dims, dense_terms)
    assert all(v and type(v) in (int, Fraction) for v in got.values())
    if all(F(c).denominator == 1 and all(v.denominator == 1 for _, t in fs for v in t.values())
           for c, fs in dense_terms):
        assert all(type(v) is int for v in got.values())


def test_contract_joins_shared_slots_and_sums_the_rest():
    m = {(0, 0): 1, (0, 1): 2, (1, 1): F(1, 2)}    # m[i, j]
    v = {(0,): 3, (1,): -4}
    assert contract("i", (1, [("ij", m), ("j", v)])) == {(0,): -5, (1,): -2}
    assert contract("ji", (1, [("ij", m)]), (-1, [("ji", m)])) == \
        {(1, 0): 2, (0, 1): -2}
    assert contract("", (2, [("ij", m)])) == {(): 7}
    assert contract("i", (1, [("i", v)]), (-1, [("i", v)])) == {}


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


def witness(report, law):
    item = report.item(law)
    return None if item.passed else item.witness


def assert_two_term_agrees(v: TwoTermHL) -> dict:
    """Compare check_two_term with the per-tuple scans; return the references."""
    want = reference_two_term_witnesses(v)
    report = check_two_term(v)
    for law, w in want.items():
        assert witness(report, law) == w, law
    return want


def assert_hom_lie2_agrees(L: HomLie2Data) -> dict:
    """Compare check_hom_lie2 with the per-tuple scans, the broken stage included."""
    want = reference_hom_lie2_witnesses(L)
    report = check_hom_lie2(L)
    for law in ("jacobiator-arrow", "jacobiator-equivariance", "hom-jacobiator"):
        assert witness(report, law) == want[law], law
    note = report.item("hom-jacobiator").note
    assert (note.partition("; broke at stage ")[2] or None) == want["stage"]
    return want


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
            failed |= {law for law, w in assert_two_term_agrees(v).items() if w is not None}
            L = functor_T(v)
        want = assert_hom_lie2_agrees(L)
        failed |= {law for law, w in want.items() if w is not None and law != "stage"}
    assert failed == {"(h)", "(i)", "(j)", "l3-equivariance", "jacobiator-arrow",
                      "jacobiator-equivariance", "hom-jacobiator"}


@pytest.mark.parametrize("field, position, stage", [
    ("jac", 33, "top"), ("jac", 1, "n2"), ("jac", 36, "n3"), ("bracket_mor", 0, "r1-source"),
    ("jac", 0, "r1"), ("jac", 51, "r2"), ("jac", 18, "r3/r4"),
])
def test_each_stage_breaks_first_where_the_reference_says(field, position, stage):
    """Entries of the categorical data of g -Id-> g (sl(2)) raised by 1; with
    the string's `final` in tests/test_hl2.py, every stage breaks first somewhere."""
    L = perturbed(functor_T(identity_complex(sl2_example())), field, position, 1)
    assert assert_hom_lie2_agrees(L)["stage"] == stage


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
    bracket = [[q.apply(g.bracket_vec(cols[i], cols[j])) for j in range(g.dim)]
               for i in range(g.dim)]
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
