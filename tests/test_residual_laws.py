"""The laws of morphisms, representations, crossed modules, products and
forms, built as residual tensors, against their per-tuple references.

On valid structures and on perturbed ones, each check must give the report
of its per-tuple reference in `tests/helpers.py`, item for item: verdict,
first failing basis tuple, note and order (or raise what it raises).  On
random integral candidates, `check_crossed_module` and `check_left_symmetric`
must give the items of the plain-int checkers in `bench/oracles.py`, which
share no code with the package.  The last test requires that none of these
checks evaluates its laws tuple by tuple.
"""

import dataclasses
import random
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (heisenberg, identity_complex, random_algebra, random_representation,
                     reference_check_crossed_module, reference_check_hom_lie_morphism,
                     reference_check_left_symmetric, reference_check_quadratic,
                     reference_check_representation, reference_check_symplectic,
                     reference_leftsym_d_report, shift_strict, sl2_sum)
from homlie2.cohomology import adjoint_representation, check_representation
from homlie2.constructions import (CrossedModule, HomLeftSymmetric, QuadraticHomLie,
                                   check_crossed_module, check_left_symmetric, check_quadratic,
                                   check_symplectic, crossed_to_strict, leftsym_d_report,
                                   sl2_example, star_from_symplectic, strict_from_leftsym,
                                   strict_from_symplectic, strict_to_crossed,
                                   string_from_semisimple)
from homlie2.exactlin import Matrix
from homlie2.hl2 import (check_hl_morphism, check_hom_lie2, check_two_term,
                         compose_hl_morphisms, functor_S, functor_T, identity_hl_morphism)
from homlie2.homlie import (HomLieAlgebra, HomLieMorphism, check_hom_lie_morphism, killing_form,
                            twisted_algebra)
from homlie2.modelfile import load_model
from homlie2.reports import CheckReport
from test_api import load_bench_module
from test_laws import (DELTAS, VALID_ALGEBRAS, failed_laws, new_basis, outcome, perturbed,
                       transport_algebra)

FIX = Path(__file__).parent.parent / "fixtures"
AFF = HomLeftSymmetric(2, [[[0, 0], [0, 1]], [[0, 0], [0, 0]]], Matrix.diagonal([1, -1]))


def changed(rng: random.Random, m: Matrix, deltas=DELTAS) -> Matrix:
    """m with one entry changed."""
    rows = [list(row) for row in m.data]
    k = rng.randrange(m.rows * m.cols)
    rows[k // m.cols][k % m.cols] += rng.choice(deltas)
    return Matrix(m.rows, m.cols, rows)


def bump(rng: random.Random, x, field: str, deltas=DELTAS):
    """x with one entry of `field` (a tensor, a matrix, or a tuple of matrices) changed."""
    value = getattr(x, field)
    if isinstance(value, tuple) and isinstance(value[0], Matrix):
        k = rng.randrange(len(value))
        value = value[:k] + (changed(rng, value[k], deltas),) + value[k + 1:]
    elif isinstance(value, Matrix):
        value = changed(rng, value, deltas)
    else:
        return perturbed(x, field, rng.randrange(10 ** 6), rng.choice(deltas))
    return dataclasses.replace(x, **{field: value})


def bump_algebra(rng: random.Random, g, deltas=DELTAS):
    return bump(rng, g, rng.choice(("bracket", "phi")), deltas)


# -- candidates: a valid structure, or one with a single entry changed ----------------

def morphism_candidate(rng: random.Random, perturb: bool):
    """f = p from g in the basis p to g; then f, or the source or target algebra, changed."""
    g = rng.choice(VALID_ALGEBRAS[1:])()
    p = new_basis(rng, g.dim)
    m = HomLieMorphism(transport_algebra(g, p), g, p)
    if perturb:
        field = rng.choice(("f", "source", "target"))
        m = bump(rng, m, "f") if field == "f" else \
            dataclasses.replace(m, **{field: bump_algebra(rng, getattr(m, field))})
    return (m,)


def representation_candidate(rng: random.Random, perturb: bool):
    r = random_representation(rng, random_algebra(rng))
    if perturb:
        field = rng.choice(("A", "rho", "algebra"))
        r = dataclasses.replace(r, algebra=bump_algebra(rng, r.algebra)) if field == "algebra" \
            else bump(rng, r, field)
    return (r,)


@cache
def crossed_bases() -> tuple:
    return tuple(strict_to_crossed(v) for v in (
        shift_strict(sl2_example()), identity_complex(sl2_example()),
        shift_strict(heisenberg()), identity_complex(heisenberg(2, -1))))


def crossed_candidate(rng: random.Random, perturb: bool):
    cm = rng.choice(crossed_bases())
    if perturb:
        field = rng.choice(("dt", "action", "h", "g"))
        cm = dataclasses.replace(cm, **{field: bump_algebra(rng, getattr(cm, field))}) \
            if field in ("h", "g") else bump(rng, cm, field)
    return (cm,)


@cache
def product_bases() -> tuple:
    fixture = load_model(FIX / "leftsym_with_d.json")
    star4 = star_from_symplectic(load_model(FIX / "symplectic_nontrivial4.json"))
    return ((fixture.product, fixture.d), (AFF, Matrix.zeros(2, 2)),
            (star4, Matrix.zeros(4, 4)))


def product_candidate(rng: random.Random, perturb: bool):
    a = rng.choice(product_bases())[0]
    return (bump(rng, a, rng.choice(("star", "phi"))) if perturb else a,)


def differential_candidate(rng: random.Random, perturb: bool):
    """A product with a compatible d; then d, or the product, changed."""
    a, d = rng.choice(product_bases())
    if perturb:
        if rng.random() < 0.75:
            d = changed(rng, d)
        else:
            a = bump(rng, a, rng.choice(("star", "phi")))
    return a, d


def quadratic_candidate(rng: random.Random, perturb: bool):
    g = rng.choice((sl2_example(), sl2_sum(2)))
    q = QuadraticHomLie(g, killing_form(g))
    if perturb:
        q = bump(rng, q, "B") if rng.random() < 0.6 else \
            dataclasses.replace(q, algebra=bump(rng, g, "bracket"))
    return (q,)


def symplectic_candidate(rng: random.Random, perturb: bool):
    s = load_model(FIX / rng.choice(("symplectic_abelian2.json", "symplectic_nontrivial4.json")))
    if perturb:
        s = bump(rng, s, "omega") if rng.random() < 0.5 else \
            dataclasses.replace(s, algebra=bump_algebra(rng, s.algebra))
    return (s,)


def left_symmetric_report(a):
    report, derived = check_left_symmetric(a)
    assert (derived is None) == (not report.ok)
    return report


# name: (check, reference, candidate, the laws that must fail somewhere in the grid)
CASES = {
    "hom_lie_morphism": (check_hom_lie_morphism, reference_check_hom_lie_morphism,
                         morphism_candidate, {"bracket-preserved", "twist-intertwined"}),
    "representation": (check_representation, reference_check_representation,
                       representation_candidate, {"twist-compatibility", "bracket-action"}),
    "crossed_module": (check_crossed_module, reference_check_crossed_module, crossed_candidate,
                       {"laws.equivariance", "laws.peiffer", "laws.derived-compatibility",
                        "dt.twist-intertwined"}),
    "left_symmetric": (left_symmetric_report, reference_check_left_symmetric,
                       product_candidate, {"phi-product", "left-symmetry"}),
    "leftsym_d": (leftsym_d_report, reference_leftsym_d_report, differential_candidate,
                  {"d-phi-commute", "d-star-shift", "d-derivation", "d-star-skew-pairing"}),
    "quadratic": (check_quadratic, reference_check_quadratic, quadratic_candidate,
                  {"symmetric", "invariance", "phi-symmetric", "isometry"}),
    "symplectic": (check_symplectic, reference_check_symplectic, symplectic_candidate,
                   {"form.skew", "form.phi-invariant", "form.closed"}),
}


def assert_agrees(name: str, args) -> set:
    """The check's outcome equals its reference's; return the laws it failed."""
    check, reference, _, _ = CASES[name]
    got = outcome(check, *args)
    assert got == outcome(reference, *args)
    return failed_laws(got)


@pytest.mark.parametrize("name", sorted(CASES))
@given(seed=st.integers(0, 2 ** 32), perturb=st.booleans())
@settings(max_examples=40, deadline=None)
def test_residual_laws_match_the_per_tuple_reference(name, seed, perturb):
    assert_agrees(name, CASES[name][2](random.Random(seed), perturb))


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_passes_valid_structures_and_fails_every_law(name):
    """Seeded valid candidates pass; seeded single-entry changes agree with
    the reference and make every law built as a residual fail somewhere."""
    check, _, candidate, laws = CASES[name]
    rng = random.Random(name)
    for _ in range(10):
        assert check(*candidate(rng, False)).ok
    failed = set()
    for _ in range(80):
        failed |= assert_agrees(name, candidate(rng, True))
    assert laws <= failed


# -- the plain-int checkers of the benchmark ------------------------------------------

def ints(t):
    """A tensor, matrix or tuple of matrices as nested lists of ints."""
    if isinstance(t, Matrix):
        t = t.data
    return [ints(x) for x in t] if isinstance(t, tuple) else int(t)


def integral_crossed(rng: random.Random) -> CrossedModule:
    """An integral crossed module of sl(2) or the Heisenberg algebra, with at
    most one integer entry changed, or a small random integral candidate."""
    if rng.random() < 0.6:
        cm = rng.choice(crossed_bases()[:3])
        if rng.random() < 0.2:
            return cm
        field, deltas = rng.choice(("dt", "action", "h", "g")), (1, -1, 2)
        if field in ("h", "g"):
            return dataclasses.replace(cm, **{field: bump_algebra(rng, getattr(cm, field),
                                                                  deltas)})
        return bump(rng, cm, field, deltas)
    nh, ng = rng.randint(1, 3), rng.randint(1, 3)
    vals = (0, 0, 1, -1)

    def algebra(n):
        br = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                br[i][j] = [rng.choice(vals) for _ in range(n)]
                br[j][i] = [-x for x in br[i][j]]
        return HomLieAlgebra(n, br, Matrix(n, n, [[rng.choice(vals) if i != j else
                                                   rng.choice((1, -1)) for j in range(n)]
                                                  for i in range(n)]))

    return CrossedModule(algebra(nh), algebra(ng),
                         Matrix(ng, nh, [[rng.choice(vals) for _ in range(nh)]
                                         for _ in range(ng)]),
                         tuple(Matrix(nh, nh, [[rng.choice(vals) for _ in range(nh)]
                                               for _ in range(nh)]) for _ in range(ng)))


def items(report: CheckReport) -> list:
    return [(it.law, it.passed, it.witness) for it in report.items]


def test_check_crossed_module_matches_the_benchmark_oracle():
    oracles = load_bench_module("oracles")
    rng = random.Random(11)
    verdicts = set()
    for _ in range(150):
        cm = integral_crossed(rng)
        got = items(check_crossed_module(cm))
        assert got == oracles.crossed_module_items(
            ints(cm.h.bracket), ints(cm.h.phi), ints(cm.g.bracket), ints(cm.g.phi),
            ints(cm.dt), ints(cm.action))
        verdicts |= {(law, ok) for law, ok, _ in got if law.startswith("laws.")}
    assert len(verdicts) == 6  # each of the three laws passes and fails somewhere


def test_check_left_symmetric_matches_the_benchmark_oracle():
    oracles = load_bench_module("oracles")
    rng = random.Random(12)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        star = [[[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(n)]
                for _ in range(n)]
        phi = [[rng.choice((0, 0, 1, -1)) if i != j else rng.choice((1, -1, 2))
                for j in range(n)] for i in range(n)]
        if rng.random() < 0.3:  # the affine product, maybe with one entry changed
            star, phi = ints(AFF.star), ints(AFF.phi)
            if rng.random() < 0.5:
                star[rng.randrange(2)][rng.randrange(2)][rng.randrange(2)] += 1
        got = items(left_symmetric_report(HomLeftSymmetric(len(phi), star,
                                                           Matrix(len(phi), len(phi), phi))))
        assert got == oracles.left_symmetric_items(star, phi)
        verdicts |= {(law, ok) for law, ok, _ in got}
    assert len(verdicts) == 4


# -- no law is evaluated tuple by tuple, no construction vector by vector ----------------

def count_evaluations(monkeypatch) -> list:
    """Wrap the per-tuple evaluators; the list grows by one name per call.
    Functions are wrapped at every binding in a homlie2 module."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module_name, attr in (("homlie", "bilinear_eval"), ("hl2", "trilinear_eval")):
        original = getattr(sys.modules[f"homlie2.{module_name}"], attr)
        for key, module in list(sys.modules.items()):
            if module is not None and key.startswith("homlie2"):
                for name, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, name, counting(attr, original))
    monkeypatch.setattr(Matrix, "apply", counting("apply", vars(Matrix)["apply"]))
    return calls


def two_term_pair():
    v = string_from_semisimple(sl2_example())
    return (v,), (perturbed(v, "l2_00", 5, 1),)


def hl_morphism_pair():
    m = identity_hl_morphism(shift_strict(sl2_example()))
    return (m,), (perturbed(m, "f2", 7, 1),)


def hom_lie2_pair():
    L = functor_T(shift_strict(sl2_example()))
    return (L,), (perturbed(L, "bracket_mor", 40, 1),)


def from_candidates(name):
    """A valid candidate, and the first of 100 perturbed ones that fails a law."""
    def pair():
        check, _, candidate, _ = CASES[name]
        rng = random.Random(name)
        perturbed_ones = (candidate(rng, True) for _ in range(100))
        failing = next(args for args in perturbed_ones
                       if isinstance(outcome(check, *args), CheckReport) and not check(*args).ok)
        return candidate(rng, False), failing
    return pair


STRUCTURAL = {"two_term": (check_two_term, two_term_pair),
              "hl_morphism": (check_hl_morphism, hl_morphism_pair),
              "hom_lie2": (check_hom_lie2, hom_lie2_pair),
              **{name: (CASES[name][0], from_candidates(name)) for name in CASES}}


@pytest.mark.parametrize("name", sorted(STRUCTURAL))
def test_no_check_evaluates_its_laws_tuple_by_tuple(name, monkeypatch):
    """On a passing and on a failing input, no check calls `bilinear_eval`,
    `trilinear_eval` or `Matrix.apply` (`Representation.rho_at` is gone)."""
    check, pair = STRUCTURAL[name]
    passing, failing = pair()
    calls = count_evaluations(monkeypatch)
    assert check(*passing).ok
    assert not check(*failing).ok
    assert calls == []


def two_terms(fix):
    return [fix["sl2_string"], fix["sl2_strict_shift"], fix["abelian2_two_term"]]


# each construction of the package, run on its fixtures
CONSTRUCTIONS = {
    "functor_T": lambda fix: [functor_T(v) for v in two_terms(fix)],
    "functor_S": lambda fix: [functor_S(functor_T(v)) for v in two_terms(fix)],
    "strict_to_crossed": lambda fix: strict_to_crossed(fix["sl2_strict_shift"]),
    "crossed_to_strict": lambda fix: [crossed_to_strict(fix["crossed_small"]),
                                      crossed_to_strict(strict_to_crossed(fix["sl2_strict_shift"]))],
    "compose_hl_morphisms": lambda fix: compose_hl_morphisms(fix["hl_morphism_phi_string"],
                                                             fix["hl_morphism_phi_string"]),
    "twisted_algebra": lambda fix: twisted_algebra(fix["sl2"]),
    "adjoint_representation": lambda fix: adjoint_representation(fix["sl2"]),
    "string_from_semisimple": lambda fix: string_from_semisimple(fix["sl2"]),
    "strict_from_leftsym": lambda fix: strict_from_leftsym(fix["leftsym_with_d"].product,
                                                           fix["leftsym_with_d"].d),
    "strict_from_symplectic": lambda fix: [strict_from_symplectic(fix["symplectic_abelian2"]),
                                           strict_from_symplectic(fix["symplectic_nontrivial4"])],
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_no_construction_evaluates_vector_by_vector(name, monkeypatch):
    """No construction calls `bilinear_eval`, `trilinear_eval` or `Matrix.apply`:
    each builds its structure constants with `_ap`/`_sum`."""
    fix = {path.stem: load_model(path) for path in FIX.glob("*.json")}
    calls = count_evaluations(monkeypatch)
    assert CONSTRUCTIONS[name](fix)
    assert calls == []
