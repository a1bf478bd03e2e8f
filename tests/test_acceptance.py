"""Acceptance suite: one test per release criterion, exact arithmetic only.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every expected value here is either trivially forced, verified
by an in-test independent oracle, or frozen from a hand computation noted
next to the assertion.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from helpers import (is_identity, random_algebra, random_hom_cochain, random_involution,
                     random_representation, reference_apply, reference_bilinear_eval,
                     rnd_frac)
from homlie2.cli import main as cli_main
from homlie2.cohomology import (class_is_trivial, coboundary, cohomology_dims,
                                cohomology_inclusion_check, is_hom_cochain,
                                trivial_representation)
from homlie2.constructions import (check_crossed_module, check_left_symmetric,
                                   check_symplectic, crossed_to_strict,
                                   l3_from_B, quadratic, star_from_symplectic,
                                   strict_from_leftsym, strict_from_symplectic,
                                   strict_to_crossed, string_from_semisimple,
                                   sl2_example)
from homlie2.exactlin import Matrix, inverse, rank
from homlie2.hl2 import (HLMorphism, TwoTermHL, check_hl_morphism,
                         check_hom_lie2, check_two_term, compose_hl_morphisms,
                         functor_S, functor_T, identity_hl_morphism,
                         roundtrip_check)
from homlie2.homlie import abelian_algebra, killing_form
from homlie2.modelfile import load_model

F = Fraction
FIX = Path(__file__).parent.parent / "fixtures"


def ok(line):
    print(f"ACCEPTANCE {line}: PASS")


# -- 1 -------------------------------------------------------------------------

def test_criterion_01_sl2_regression(tmp_path):
    start = time.monotonic()
    out = tmp_path / "sl2.json"
    assert cli_main(["builtin", "sl2", "--out", str(out)]) == 0
    assert cli_main(["check", str(out)]) == 0
    g = load_model(out)
    assert g.bracket[0][1] == (F(0), F(0), F(-1))    # [A,B] = -C
    assert g.bracket[2][0] == (F(0), F(-2), F(0))    # [C,A] = -2B
    assert g.bracket[1][2] == (F(-2), F(0), F(0))    # [B,C] = -2A
    assert is_identity(g.phi * g.phi)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok("01 sl2-regression")


# -- 2 -------------------------------------------------------------------------

def test_criterion_02_string_value_with_trace_oracle():
    # Independent oracle: 3x3 adjoint matrices of the twisted bracket written
    # out by hand from [A,B]=-C, [C,A]=-2B, [B,C]=-2A, multiplied and traced
    # with plain integers.  B([A,B],C) = B(-C,C) = -tr(ad_C^2).
    ad_c = [[0, 2, 0], [-2, 0, 0], [0, 0, 0]]
    ad_c_sq = [[sum(ad_c[i][k] * ad_c[k][j] for k in range(3)) for j in range(3)]
               for i in range(3)]
    trace = sum(ad_c_sq[i][i] for i in range(3))
    assert trace == -8
    oracle_value = -trace
    assert oracle_value == 8

    g = sl2_example()
    f = l3_from_B(quadratic(g, killing_form(g)))
    value = f.evaluate([g.basis(0), g.basis(1), g.basis(2)])
    assert value == (F(oracle_value),)
    ok("02 string-value-8")


# -- 3 -------------------------------------------------------------------------

def _every_entry_perturbations(v: TwoTermHL):
    def lol(t):  # tensors to nested lists
        return json.loads(json.dumps(t, default=str))

    fields = {
        "d": [[str(x) for x in row] for row in v.d.data],
        "phi0": [[str(x) for x in row] for row in v.phi0.data],
        "phi1": [[str(x) for x in row] for row in v.phi1.data],
        "l2_00": [[[str(x) for x in vec] for vec in row] for row in v.l2_00],
        "l2_01": [[[str(x) for x in vec] for vec in row] for row in v.l2_01],
        "l3": [[[[str(x) for x in vec] for vec in row] for row in layer] for layer in v.l3],
    }

    def walk(node, path):
        if isinstance(node, list):
            for i, child in enumerate(node):
                yield from walk(child, path + (i,))
        else:
            yield path

    for name, data in fields.items():
        for path in walk(data, ()):
            bumped = json.loads(json.dumps(data))
            node = bumped
            for p in path[:-1]:
                node = node[p]
            node[path[-1]] = str(Fraction(node[path[-1]]) + 1)
            kwargs = {
                "d": v.d, "phi0": v.phi0, "phi1": v.phi1,
                "l2_00": v.l2_00, "l2_01": v.l2_01, "l3": v.l3,
            }
            if name in ("d", "phi0", "phi1"):
                m = kwargs[name]
                kwargs[name] = Matrix(m.rows, m.cols, bumped)
            else:
                kwargs[name] = bumped
            yield name, path, TwoTermHL(v.dim0, v.dim1, kwargs["d"], kwargs["l2_00"],
                                        kwargs["l2_01"], kwargs["l3"],
                                        kwargs["phi0"], kwargs["phi1"])


def test_criterion_03_conditions_and_single_perturbations():
    string = load_model(FIX / "sl2_string.json")
    assert string == string_from_semisimple(sl2_example())  # fixture matches a fresh build
    strict = load_model(FIX / "sl2_strict_shift.json")
    for v in (string, strict):
        report = check_two_term(v)
        assert report.ok
        for law in "abcdefghij":
            assert report.item(f"({law})").passed
    total = 0
    for v in (string, strict):
        for name, path, bad in _every_entry_perturbations(v):
            report = check_two_term(bad)
            failures = report.failures()
            assert failures, f"perturbing {name}{list(path)} went unnoticed"
            assert any(item.witness is not None for item in failures), \
                f"no witness for {name}{list(path)}"
            total += 1
    assert total > 200
    ok(f"03 conditions-a-j-with-{total}-perturbations")


# -- 4 -------------------------------------------------------------------------

def test_criterion_04_d_squared_zero_randomized():
    start = time.monotonic()
    rng = random.Random(0xD5)
    done = 0
    while done < 50:
        g = random_algebra(rng, max_dim=4)
        rep = random_representation(rng, g)
        assert rep.module_dim <= 4 and g.dim <= 4
        k = rng.randint(1, 2)
        f = random_hom_cochain(rng, rep, k)
        if f.is_zero():
            continue  # vacuous for d∘d; draw a structure with cochains to act on
        assert is_hom_cochain(f, rep)
        df = coboundary(f, rep)
        assert coboundary(df, rep).is_zero()
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    ok(f"04 d-squared-zero-{done}-nonzero-triples-{elapsed:.2f}s")


# -- 5 -------------------------------------------------------------------------

def test_criterion_05_cocycle_nontriviality():
    g = sl2_example()
    rep = trivial_representation(g)
    f = l3_from_B(quadratic(g, killing_form(g)))
    assert class_is_trivial(f, rep) is False
    c, z, b, h = cohomology_dims(rep, 3)
    assert b == 0 and z == 1
    assert h >= 1
    ok("05 cocycle-nontrivial")


# -- 6 -------------------------------------------------------------------------

def test_criterion_06_cohomology_inclusion():
    g = sl2_example()
    for k in (2, 3):
        report = cohomology_inclusion_check(g, k)
        assert report.ok, report.table()
    ab = abelian_algebra(3, Matrix.diagonal([-1, -1, -1]))
    for k in (1, 2, 3):
        report = cohomology_inclusion_check(ab, k)
        assert report.ok, report.table()
    ok("06 cohomology-inclusion")


# -- 7 -------------------------------------------------------------------------

def _equivalence_fixtures():
    yield "string", load_model(FIX / "sl2_string.json")
    yield "strict-shift", load_model(FIX / "sl2_strict_shift.json")
    yield "abelian", load_model(FIX / "abelian2_two_term.json")
    s4 = load_model(FIX / "symplectic_nontrivial4.json")
    yield "symplectic-output", strict_from_symplectic(s4)


def test_criterion_07_equivalence_roundtrips():
    for name, v in _equivalence_fixtures():
        L = functor_T(v)
        assert functor_S(L) == v, name
        report = roundtrip_check(v)
        assert report.ok, f"{name}: {report.table()}"
        assert report.item("beta-identity").passed
        assert report.item("alpha-bracket").passed
        assert check_hom_lie2(L).ok, name
    ok("07 equivalence-roundtrips")


# -- 8 -------------------------------------------------------------------------

def test_criterion_08_crossed_module_correspondence():
    strict_fixtures = [
        load_model(FIX / "sl2_strict_shift.json"),
        load_model(FIX / "abelian2_two_term.json"),
        strict_from_symplectic(load_model(FIX / "symplectic_abelian2.json")),
        strict_from_symplectic(load_model(FIX / "symplectic_nontrivial4.json")),
    ]
    ls = load_model(FIX / "leftsym_with_d.json")
    strict_fixtures.append(strict_from_leftsym(ls.product, ls.d))
    for v in strict_fixtures:
        cm = strict_to_crossed(v)
        assert check_crossed_module(cm).ok
        back = crossed_to_strict(cm)
        assert back == v
    cm0 = load_model(FIX / "crossed_small.json")
    assert check_crossed_module(cm0).ok
    v0 = crossed_to_strict(cm0)
    assert check_two_term(v0).ok
    assert strict_to_crossed(v0) == cm0
    ok("08 crossed-module-correspondence")


# -- 9 -------------------------------------------------------------------------

def _verify_symplectic_chain(s):
    a = star_from_symplectic(s)
    report, derived = check_left_symmetric(a)
    assert report.item("phi-product").passed
    assert report.item("left-symmetry").passed
    for i in range(a.dim):
        for j in range(a.dim):
            anti = tuple(p - q for p, q in zip(a.star[i][j], a.star[j][i]))
            assert anti == s.algebra.bracket[i][j]
    v = strict_from_symplectic(s)
    report = check_two_term(v)
    for law in "abcdefghij":
        assert report.item(f"({law})").passed
    # the three differential compatibilities, re-verified here directly
    g = s.algebra
    d = g.phi * inverse(s.omega.transpose())
    assert d == v.d
    assert d * v.phi1 == g.phi * d                       # d against phi*
    n = g.dim
    for i in range(n):
        for b in range(n):
            lhs = reference_apply(d, v.l2_01[i][b])                            # d l2(x, xi)
            rhs = reference_bilinear_eval(g.bracket, g.basis(i), d.column(b), n)  # l2(x, d xi)
            assert lhs == rhs
    for p in range(n):
        for q in range(n):
            lhs = reference_bilinear_eval(v.l2_01, d.column(p), g.basis(q), n)  # l2(d xi, eta)
            rhs = reference_bilinear_eval(v.l2_01, d.column(q), g.basis(p), n)
            assert lhs == tuple(-x for x in rhs)


def test_criterion_09_symplectic_chain():
    for name in ("symplectic_abelian2.json", "symplectic_nontrivial4.json"):
        s = load_model(FIX / name)
        assert check_symplectic(s).ok
        _verify_symplectic_chain(s)
    ok("09 symplectic-chain")


# -- 10 ------------------------------------------------------------------------

def _random_symmetric(rng, n):
    vals = [[rnd_frac(rng, -2, 2) for _ in range(n)] for _ in range(n)]
    return Matrix(n, n, [[vals[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


def _random_phi(rng, n, involutive):
    if involutive:
        return random_involution(rng, n)
    return Matrix(n, n, [[rnd_frac(rng, -2, 2) for _ in range(n)] for _ in range(n)])


def test_criterion_10_property_suite():
    rng = random.Random(0xB0)
    datasets = 0
    while datasets < 110:
        n = rng.randint(2, 3)
        mode = rng.randrange(3)
        phi = _random_phi(rng, n, involutive=(mode != 2))
        if mode == 0:
            # engineered phi-symmetric pair: all three must then hold
            b = None
            for _ in range(200):
                cand = _random_symmetric(rng, n)
                if cand * phi == phi.transpose() * cand and rank(cand) == n:
                    b = cand
                    break
            if b is None:
                continue
        else:
            b = _random_symmetric(rng, n)
            if rank(b) != n:
                continue
        phi_sym = b * phi == phi.transpose() * b
        involutive = is_identity(phi * phi)
        isometry = phi.transpose() * b * phi == b
        count = sum((phi_sym, involutive, isometry))
        assert count != 2, (phi.data, b.data)
        datasets += 1
    assert datasets >= 100

    # composition laws on random valid morphism triples
    v = load_model(FIX / "abelian2_two_term.json")
    ident = identity_hl_morphism(v)

    def random_endo():
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        c = rng.randint(-2, 2)
        f0 = Matrix(2, 2, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        f1 = Matrix(2, 2, [[a, b], [b, a]])
        f2 = [[[0, 0], [c, c]], [[-c, -c], [0, 0]]]
        return HLMorphism(v, v, f0, f1, f2)

    triples = 0
    while triples < 30:
        f, g_, h = random_endo(), random_endo(), random_endo()
        for m in (f, g_, h):
            assert check_hl_morphism(m).ok
        assert compose_hl_morphisms(compose_hl_morphisms(f, g_), h) == \
            compose_hl_morphisms(f, compose_hl_morphisms(g_, h))
        assert compose_hl_morphisms(ident, f) == f
        assert compose_hl_morphisms(f, ident) == f
        assert check_hl_morphism(compose_hl_morphisms(f, g_)).ok
        triples += 1
    ok(f"10 property-suite-{datasets}-datasets-{triples}-triples")
