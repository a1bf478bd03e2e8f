"""The three workloads: inputs made from a seed, the operations timed on
them, and how each answer is checked.

A workload is built by `BUILDERS[name](hl, seed, workdir)`, where `hl` is the
freshly imported `homlie2` package.  Building constructs every input with
the package's own constructors and writes the model files its CLI commands
read; the benchmark times it as set-up.  The result is a `Plan`:

* `ops`: in-process calls, each returning a small summary of its answer
  (dimensions, or the (law, passed, witness) items of a report);
* `cli`: argument lists for `python -m homlie2.cli`;
* `families`: names of cohomology operations at consecutive degrees, for
  the check C^k - Z^k = B^{k+1}.

Every answer is checked after the timed rounds against `oracles`, which
does not import the package, or against a property the method must have.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Any, Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# sl(2) in the package's twisted presentation: [A,B] = -C, [C,A] = -2B,
# [B,C] = -2A, and the involution A -> -B, B -> -A, C -> -C.
SL2_BRACKET = [[[0, 0, 0], [0, 0, -1], [0, 2, 0]],
               [[0, 0, 1], [0, 0, 0], [-2, 0, 0]],
               [[0, -2, 0], [2, 0, 0], [0, 0, 0]]]
SL2_PHI = [[0, -1, 0], [-1, 0, 0], [0, 0, -1]]

# The affine algebra [e0, e1] = e1 as a left-symmetric product e0*e1 = e1,
# twisted by diag(1, -1).
AFF_STAR = [[[0, 0], [0, 1]], [[0, 0], [0, 0]]]
AFF_PHI = [[1, 0], [0, -1]]


@dataclass
class Op:
    name: str
    fn: Callable[[], Any]
    verify: Callable[[Any], str | None]
    top: bool = False


@dataclass
class Cli:
    argv: list[str]
    verify: Callable[[int, str], str | None]


@dataclass
class Plan:
    ops: list[Op] = field(default_factory=list)
    cli: list[Cli] = field(default_factory=list)
    families: list[list[str]] = field(default_factory=list)
    warmup: Callable[[], Any] | None = None


# --------------------------------------------------------------------------
# Generated structures, as plain int lists
# --------------------------------------------------------------------------

def zeros(*shape):
    if len(shape) == 1:
        return [0] * shape[0]
    return [zeros(*shape[1:]) for _ in range(shape[0])]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def sl2_sum(c):
    """sl(2)^c with the involution applied blockwise."""
    n = 3 * c
    br, phi = zeros(n, n, n), zeros(n, n)
    for b in range(c):
        o = 3 * b
        for i in range(3):
            for j in range(3):
                phi[o + i][o + j] = SL2_PHI[i][j]
                for k in range(3):
                    br[o + i][o + j][o + k] = SL2_BRACKET[i][j][k]
    return br, phi


def signed_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(n)]


def perm_matrix(perm, signs):
    n = len(perm)
    p = zeros(n, n)
    for i in range(n):
        p[perm[i]][i] = signs[i]
    return p


def transport(br, phi, perm, signs):
    """The algebra carried along e_i -> signs[i] e_perm[i]."""
    n = len(phi)
    nb, nphi = zeros(n, n, n), zeros(n, n)
    for i in range(n):
        for j in range(n):
            nphi[perm[i]][perm[j]] = signs[i] * signs[j] * phi[i][j]
            for k in range(n):
                nb[perm[i]][perm[j]][perm[k]] = signs[i] * signs[j] * signs[k] * br[i][j][k]
    return nb, nphi


def adjoint(br):
    n = len(br)
    return [[[br[i][b][a] for b in range(n)] for a in range(n)] for i in range(n)]


def heisenberg(a, b):
    br = zeros(3, 3, 3)
    br[0][1] = [0, 0, 1]
    br[1][0] = [0, 0, -1]
    return br, [[a, 0, 0], [0, b, 0], [0, 0, a * b]]


def nilpotent4(a, b):
    br = zeros(4, 4, 4)
    br[0][1] = [0, 0, 1, 0]
    br[1][0] = [0, 0, -1, 0]
    return br, [[a, 0, 0, 0], [0, b, 0, 0], [0, 0, a * b, 0], [0, 0, 0, 1]]


# --------------------------------------------------------------------------
# Package-side helpers
# --------------------------------------------------------------------------

def alg(hl, br, phi):
    n = len(phi)
    return hl.HomLieAlgebra(n, br, hl.Matrix(n, n, phi))


def items(report):
    return tuple((it.law, it.passed, it.witness) for it in report.items)


def dims_of(hl, rep, k):
    return tuple(hl.cohomology_dims(rep, k))


def all_pass(answer):
    failed = [law for law, ok, _ in answer if not ok]
    return f"laws failed: {failed}" if failed else None


def equals(expected_fn):
    def verify(answer):
        expected = expected_fn()
        return None if answer == expected else f"got {answer}, expected {expected}"
    return verify


def frac_tensor(x):
    if isinstance(x, list):
        return [frac_tensor(y) for y in x]
    return Fraction(x)


def cli_json(rc, out, want_ok=True):
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return None, f"unreadable output: {exc}"
    if want_ok and not doc.get("ok", False):
        return doc, "report not ok"
    return doc, None


def read_model(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def string_structure_ok(doc, br, phi):
    """A two_term_hl document equals the string structure the Killing form predicts."""
    n = len(phi)
    want = {"dim0": n, "dim1": 1, "d": zeros(n, 1), "l2_00": br,
            "l2_01": zeros(n, 1, 1), "l3": [[[[x] for x in r] for r in m]
                                            for m in oracles.string_l3(br)],
            "phi0": phi, "phi1": [[1]]}
    for key, value in want.items():
        got = doc[key] if key in ("dim0", "dim1") else frac_tensor(doc[key])
        if got != value:
            return f"{key} differs from the Killing-form prediction"
    return None


def string_record_ok(v, br, phi):
    doc = {"dim0": v.dim0, "dim1": v.dim1, "d": [list(r) for r in v.d.data],
           "l2_00": [[list(x) for x in r] for r in v.l2_00],
           "l2_01": [[list(x) for x in r] for r in v.l2_01],
           "l3": [[[list(x) for x in r] for r in m] for m in v.l3],
           "phi0": [list(r) for r in v.phi0.data], "phi1": [list(r) for r in v.phi1.data]}
    return string_structure_ok(doc, br, phi)


def two_term_record(hl, br, phi, l3):
    """TwoTermHL (R -0-> g) with l2 = bracket and the given l3 (values in R)."""
    n = len(phi)
    return hl.TwoTermHL(n, 1, hl.Matrix.zeros(n, 1), br, zeros(n, 1, 1),
                        [[[[x] for x in r] for r in m] for m in l3],
                        hl.Matrix(n, n, phi), hl.Matrix.identity(1))


def strict_shift(hl, br, phi, l2_00=None):
    """The strict structure g -> 0 -> g, optionally with another l2_00."""
    n = len(phi)
    return hl.TwoTermHL(n, n, hl.Matrix.zeros(n, n), br if l2_00 is None else l2_00, br,
                        zeros(n, n, n, n), hl.Matrix(n, n, phi), hl.Matrix(n, n, phi))


def transport_morphism(hl, br, phi, perm, signs):
    """The strict isomorphism (P, 1, 0) from the string structure of g to
    that of its transport P.g, both built from oracle tensors."""
    n = len(phi)
    tb, tphi = transport(br, phi, perm, signs)
    src = two_term_record(hl, br, phi, oracles.string_l3(br))
    tgt = two_term_record(hl, tb, tphi, oracles.string_l3(tb))
    return hl.HLMorphism(src, tgt, hl.Matrix(n, n, perm_matrix(perm, signs)),
                         hl.Matrix.identity(1), zeros(n, n, 1))


def lazy(fn, *args):
    """An oracle answer computed on first use, after the timed rounds."""
    return cache(lambda: fn(*args))


def twisted_dims_fn(br, phi, rho, A, k):
    return lazy(oracles.twisted_dims, len(phi), br, phi, rho, A, k)


def crossed_shift_items(br, phi):
    """Oracle items of the crossed module of the strict shift g -> 0 -> g."""
    n = len(phi)
    return oracles.crossed_module_items(zeros(n, n, n), phi, br, phi, zeros(n, n), adjoint(br))


# --------------------------------------------------------------------------
# cohomology
# --------------------------------------------------------------------------

def build_cohomology(hl, seed, work):
    """sl(2)^c ladder (c = 1, 2, 3), its untwisted companion, Heisenberg and
    nilpotent families, one inclusion check, and a coda at c = 1 that
    reaches the string class and the two-term layers once."""
    rng = random.Random(seed)
    plan = Plan()
    ladders = {1: ((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3)),
               2: ((2, 3, 4), (2, 3, 4), (1, 2), ()),
               3: ((1, 2), (2,), (1,), (1,))}
    raw = {}
    for c, (tw_k, id_k, adj_k, adjid_k) in ladders.items():
        br, phi = transport(*sl2_sum(c), *signed_perm(rng, 3 * c))
        raw[c] = (br, phi)
        g = alg(hl, br, phi)
        gid = hl.twisted_algebra(g)
        triv, triv_id = hl.trivial_representation(g), hl.trivial_representation(gid)
        adj, adj_id = hl.adjoint_representation(g), hl.adjoint_representation(gid)
        top = c == 3
        tw_table = oracles.sl2_sum_trivial_dims(c, True, 5)
        id_table = oracles.sl2_sum_trivial_dims(c, False, 5)
        adjid_table = oracles.sl2_sum_adjoint_id_dims(c, 5)
        for fam, ks, rep, expect in (
                ("trivial", tw_k, triv, lambda k, t=tw_table: (lambda: t[k])),
                ("trivial-id", id_k, triv_id, lambda k, t=id_table: (lambda: t[k])),
                ("adjoint", adj_k, adj,
                 lambda k: twisted_dims_fn(br, phi, adjoint(br), phi, k)),
                ("adjoint-id", adjid_k, adj_id, lambda k, t=adjid_table: (lambda: t[k]))):
            names = []
            for k in ks:
                name = f"sl2^{c}.{fam}.H{k}"
                verify = equals(expect(k))
                if fam == "adjoint":
                    verify = _with_cochain_count(verify, c, k)
                plan.ops.append(Op(name, (lambda r=rep, k=k: dims_of(hl, r, k)), verify, top))
                names.append(name)
            plan.families.append(names)

    a, b = rng.choice(((2, 1), (1, 2), (2, -1), (-2, 1), (3, 1), (2, 3)))
    for label, (br, phi) in (("heisenberg", heisenberg(a, b)), ("nilpotent4", nilpotent4(b, a))):
        g = alg(hl, br, phi)
        n = len(phi)
        for fam, rep, rho, A, ks in (
                ("trivial", hl.trivial_representation(g), [zeros(1, 1)] * n, [[1]], (1, 2, 3)),
                ("adjoint", hl.adjoint_representation(g), adjoint(br), phi, (1, 2))):
            names = []
            for k in ks:
                name = f"{label}({a},{b}).{fam}.H{k}"
                plan.ops.append(Op(name, (lambda r=rep, k=k: dims_of(hl, r, k)),
                                   equals(twisted_dims_fn(br, phi, rho, A, k))))
                names.append(name)
            plan.families.append(names)

    g2 = alg(hl, *raw[2])
    plan.ops.append(Op("sl2^2.inclusion.H3",
                       lambda: items(hl.cohomology_inclusion_check(g2, 3)), all_pass))

    # coda at c = 1: the string class, its categorical form, the crossed
    # module of the strict shift and a left-symmetric product, each with
    # the cohomology it carries
    br1, phi1 = raw[1]
    g1 = alg(hl, br1, phi1)
    plan.ops.append(Op("sl2^1.string", lambda: hl.string_from_semisimple(g1),
                       lambda v: string_record_ok(v, br1, phi1)))
    s1 = two_term_record(hl, br1, phi1, oracles.string_l3(br1))
    plan.ops.append(Op("sl2^1.string.hom_lie2",
                       lambda: items(hl.check_hom_lie2(hl.functor_T(s1))), all_pass))
    plan.ops.append(Op("sl2^1.string.roundtrip", lambda: items(hl.roundtrip_check(s1)),
                       all_pass))
    twist = hl.HLMorphism(s1, s1, hl.Matrix(3, 3, phi1), hl.Matrix.identity(1),
                          zeros(3, 3, 1))
    plan.ops.append(Op("sl2^1.string.twist-endomorphism",
                       lambda: items(hl.check_hl_morphism(twist)), all_pass))
    shift1 = strict_shift(hl, br1, phi1)
    crossed_expect = lazy(crossed_shift_items, br1, phi1)

    def crossed_cohomology():
        cm = hl.strict_to_crossed(shift1)
        return (items(hl.check_crossed_module(cm)),
                tuple(dims_of(hl, cm.representation(), k) for k in (1, 2)))

    adj1 = [twisted_dims_fn(br1, phi1, adjoint(br1), phi1, k) for k in (1, 2)]

    def verify_crossed(answer):
        got_items, got_dims = answer
        if list(got_items) != crossed_expect():
            return "crossed module report differs from the plain-int checker"
        want = tuple(f() for f in adj1)
        return None if got_dims == want else f"action cohomology {got_dims}, expected {want}"

    plan.ops.append(Op("sl2^1.shift.crossed.H1-2", crossed_cohomology, verify_crossed))
    aff = hl.HomLeftSymmetric(2, AFF_STAR, hl.Matrix(2, 2, AFF_PHI))
    aff_bracket = [[[AFF_STAR[i][j][k] - AFF_STAR[j][i][k] for k in range(2)]
                    for j in range(2)] for i in range(2)]
    aff_rho = [[[AFF_STAR[i][b][a] for b in range(2)] for a in range(2)] for i in range(2)]
    aff_expect = [twisted_dims_fn(aff_bracket, AFF_PHI, aff_rho, AFF_PHI, k) for k in (1, 2)]

    def leftsym_cohomology():
        report, derived = hl.check_left_symmetric(aff)
        return (items(report),
                tuple(dims_of(hl, derived.left_regular, k) for k in (1, 2)))

    def verify_leftsym(answer):
        got_items, got_dims = answer
        if list(got_items) != oracles.left_symmetric_items(AFF_STAR, AFF_PHI):
            return "left-symmetric report differs from the plain-int checker"
        want = tuple(f() for f in aff_expect)
        return None if got_dims == want else f"left-regular cohomology {got_dims}, expected {want}"

    plan.ops.append(Op("aff.leftsym.H1-2", leftsym_cohomology, verify_leftsym))

    # CLI: trivial and adjoint coefficients from model files, and the string class
    files = {}
    for c in (1, 2):
        files[c] = work / f"sl2_{c}.json"
        hl.save_model(alg(hl, *raw[c]), files[c])
    adj_file = work / "sl2_1_adjoint.json"
    hl.save_model(hl.adjoint_representation(g1), adj_file)
    tw2 = oracles.sl2_sum_trivial_dims(2, True, 5)

    def cli_dims(expect_fn):
        def verify(rc, out):
            doc, err = cli_json(rc, out, want_ok=False)
            if err:
                return err
            got = tuple(doc["dims"][key] for key in "CZBH")
            want = tuple(expect_fn())
            return None if got == want else f"got {got}, expected {want}"
        return verify

    plan.cli.append(Cli(["cohomology", str(files[2]), "--k", "3", "--json"],
                        cli_dims(lambda: tw2[3])))
    plan.cli.append(Cli(["cohomology", str(files[1]), "--rep", str(adj_file), "--k", "2",
                         "--json"], cli_dims(adj1[1])))
    out_string = work / "out_string.json"

    def verify_string(rc, out):
        _, err = cli_json(rc, out)
        return err or string_structure_ok(read_model(out_string), br1, phi1)

    plan.cli.append(Cli(["construct", "string", str(files[1]), "--out", str(out_string),
                         "--json"], verify_string))
    plan.warmup = lambda: hl.cohomology_dims(hl.trivial_representation(g1), 2)
    return plan


def _with_cochain_count(verify, c, k):
    def wrapped(answer):
        want = oracles.sl2_sum_adjoint_twisted_cochains(c, k)
        if answer[0] != want:
            return f"dim C^{k} = {answer[0]}, the eigenvalue count gives {want}"
        return verify(answer)
    return wrapped


# --------------------------------------------------------------------------
# two-term
# --------------------------------------------------------------------------

def build_two_term(hl, seed, work):
    """String structures of sl(2)^c (c = 1, 2; c = 2 is the top rung) and the
    strict shift g -> 0 -> g of sl(2), through every two-term checker."""
    rng = random.Random(seed)
    plan = Plan()
    raw = {}
    for c in (1, 2):
        n = 3 * c
        br, phi = transport(*sl2_sum(c), *signed_perm(rng, n))
        raw[c] = (br, phi)
        g = alg(hl, br, phi)
        top = c == 2
        s = two_term_record(hl, br, phi, oracles.string_l3(br))
        plan.ops += [
            Op(f"sl2^{c}.string", (lambda g=g: hl.string_from_semisimple(g)),
               (lambda v, br=br, phi=phi: string_record_ok(v, br, phi)), top),
            Op(f"sl2^{c}.string.two_term", (lambda s=s: items(hl.check_two_term(s))),
               all_pass, top),
            Op(f"sl2^{c}.string.hom_lie2",
               (lambda s=s: items(hl.check_hom_lie2(hl.functor_T(s)))), all_pass, top),
            Op(f"sl2^{c}.string.roundtrip", (lambda s=s: items(hl.roundtrip_check(s))),
               all_pass, top),
        ]
        morph = transport_morphism(hl, br, phi, *signed_perm(rng, n))
        plan.ops.append(Op(f"sl2^{c}.string.transport",
                           (lambda m=morph: items(hl.check_hl_morphism(m))), all_pass, top))

    br1, phi1 = raw[1]
    shift = strict_shift(hl, br1, phi1)
    plan.ops += [
        Op("sl2^1.shift.two_term", lambda: items(hl.check_two_term(shift)), all_pass),
        Op("sl2^1.shift.hom_lie2", lambda: items(hl.check_hom_lie2(hl.functor_T(shift))),
           all_pass),
        Op("sl2^1.shift.roundtrip", lambda: items(hl.roundtrip_check(shift)), all_pass),
    ]
    crossed_expect = lazy(crossed_shift_items, br1, phi1)

    def crossed_roundtrip():
        cm = hl.strict_to_crossed(shift)
        back = hl.crossed_to_strict(cm)
        return items(hl.check_crossed_module(cm)), back == shift

    def verify_crossed(answer):
        got_items, same = answer
        if list(got_items) != crossed_expect():
            return "crossed module report differs from the plain-int checker"
        return None if same else "strict -> crossed -> strict changed the structure"

    plan.ops.append(Op("sl2^1.shift.crossed-roundtrip", crossed_roundtrip, verify_crossed))

    # CLI: construct string, roundtrip a string file, check a morphism file,
    # and build the strict structure of a left-symmetric product
    alg_file, string_file = work / "sl2_1.json", work / "sl2_1_string.json"
    morph_file, leftsym_file = work / "transport_1.json", work / "aff_leftsym.json"
    hl.save_model(alg(hl, br1, phi1), alg_file)
    hl.save_model(two_term_record(hl, br1, phi1, oracles.string_l3(br1)), string_file)
    hl.save_model(transport_morphism(hl, br1, phi1, *signed_perm(rng, 3)), morph_file)
    d_aff = zeros(2, 2)   # the only differential this product admits
    hl.save_model(hl.LeftSymmetricFile(
        hl.HomLeftSymmetric(2, AFF_STAR, hl.Matrix(2, 2, AFF_PHI)), hl.Matrix(2, 2, d_aff)),
        leftsym_file)
    out_string, out_strict = work / "out_string.json", work / "out_leftsym_strict.json"

    def verify_construct_string(rc, out):
        _, err = cli_json(rc, out)
        return err or string_structure_ok(read_model(out_string), br1, phi1)

    def verify_strict(rc, out):
        _, err = cli_json(rc, out)
        return err or leftsym_strict_ok(read_model(out_strict), AFF_STAR, AFF_PHI, d_aff)

    plan.cli += [
        Cli(["construct", "string", str(alg_file), "--out", str(out_string), "--json"],
            verify_construct_string),
        Cli(["roundtrip", str(string_file), "--json"], lambda rc, out: cli_json(rc, out)[1]),
        Cli(["check", str(morph_file), "--json"], lambda rc, out: cli_json(rc, out)[1]),
        Cli(["construct", "strict-from-leftsym", str(leftsym_file), "--out", str(out_strict),
             "--json"], verify_strict),
    ]
    s1 = two_term_record(hl, br1, phi1, oracles.string_l3(br1))
    plan.warmup = lambda: hl.check_two_term(s1)
    return plan


def leftsym_strict_ok(doc, star, phi, d):
    """strict-from-leftsym: V -> V, l2_00 the commutator, l2_01 the product, l3 = 0."""
    n = len(phi)
    want = {"d": d, "l2_00": [[[star[i][j][k] - star[j][i][k] for k in range(n)]
                               for j in range(n)] for i in range(n)],
            "l2_01": star, "l3": zeros(n, n, n, n), "phi0": phi, "phi1": phi}
    for key, value in want.items():
        if frac_tensor(doc[key]) != value:
            return f"{key} differs from the product's formula"
    return None


# --------------------------------------------------------------------------
# search
# --------------------------------------------------------------------------

N_HOM_LIE = 1200
N_CROSSED = 240
N_LEFTSYM = 800


def random_hom_lie(rng, idx):
    """A small bracket and twist, most of them failing some law.  The
    dimension, the number of relations and the kind of twist cycle with
    idx, so every seed gets the same mix; the seed draws the entries."""
    n = (2, 3, 3, 4, 4)[idx % 5]
    br = zeros(n, n, n)
    for _ in range(idx % 4):
        i, j = rng.sample(range(n), 2)
        v = [rng.choice((0, 0, 1, -1, 2)) for _ in range(n)]
        br[i][j] = v
        br[j][i] = [-x for x in v] if rng.random() < 0.9 else list(v)
    kind = (idx // 5) % 3
    if kind == 0:
        phi = [[rng.choice((1, -1, 2)) if i == j else 0 for j in range(n)] for i in range(n)]
    elif kind == 1:
        perm, signs = signed_perm(rng, n)
        phi = perm_matrix(perm, signs)
    else:
        phi = [[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(n)]
    return br, phi


def random_crossed(rng):
    """A candidate in the style of the fixture grid: 1-dim g, 2-dim h."""
    vals = (0, 1, -1)
    lam = rng.choice((1, -1, 2))
    beta, gamma = rng.choice(vals), rng.choice(vals)
    h_br = [[[0, 0], [beta, gamma]], [[-beta, -gamma], [0, 0]]]
    h_phi = [[rng.choice(vals) for _ in range(2)] for _ in range(2)]
    dt = [[rng.choice(vals) for _ in range(2)]]
    action = [[[rng.choice(vals) for _ in range(2)] for _ in range(2)]]
    return h_br, h_phi, [[[0]]], [[lam]], dt, action


def random_leftsym(rng, idx):
    vals = (0, 0, 1, -1)
    star = [[[rng.choice(vals) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    phi = (identity(2), [[1, 0], [0, -1]], [[-1, 0], [0, -1]], [[0, 1], [1, 0]])[idx % 4]
    return star, phi


def perturb_prediction(kind, pos):
    """The first failing tuple of (a) or l3-skew after adding 1 to entry pos
    of a skew tensor: the lexicographically least tuple whose test reads it."""
    i, j, k = pos
    if kind == "l2":
        return ("(a)", (min(i, j), max(i, j)))
    return ("l3-skew", min((i, j, k), (j, i, k), (i, k, j)))


def build_search(hl, seed, work):
    """Thousands of tiny candidates through the law checkers, perturbed
    two-term structures, and the CLI on every fixture and construction."""
    rng = random.Random(seed)
    plan = Plan()
    for idx in range(N_HOM_LIE):
        br, phi = random_hom_lie(rng, idx)
        g = alg(hl, br, phi)
        expect = lazy(oracles.hom_lie_items, br, phi)
        plan.ops.append(Op(f"hom_lie#{idx}", (lambda g=g: items(hl.check_hom_lie(g))),
                           (lambda a, e=expect: _items_match(a, e()))))
    for idx in range(N_CROSSED):
        h_br, h_phi, g_br, g_phi, dt, action = random_crossed(rng)
        cm = hl.CrossedModule(alg(hl, h_br, h_phi), alg(hl, g_br, g_phi), hl.Matrix(1, 2, dt),
                              tuple(hl.Matrix(2, 2, a) for a in action))
        expect = lazy(oracles.crossed_module_items, h_br, h_phi, g_br, g_phi, dt, action)
        plan.ops.append(Op(f"crossed#{idx}", (lambda cm=cm: items(hl.check_crossed_module(cm))),
                           (lambda a, e=expect: _items_match(a, e()))))
    for idx in range(N_LEFTSYM):
        star, phi = random_leftsym(rng, idx)
        product = hl.HomLeftSymmetric(2, star, hl.Matrix(2, 2, phi))
        expect = lazy(oracles.left_symmetric_items, star, phi)

        def run(p=product):
            report, derived = hl.check_left_symmetric(p)
            return items(report), derived is not None

        def verify(answer, e=expect):
            got, has_derived = answer
            if has_derived != all(ok for _, ok, _ in e()):
                return "derived structures present on a failing product, or missing"
            return _items_match(got, e())

        plan.ops.append(Op(f"leftsym#{idx}", run, verify))

    # valid two-term bases and single-entry perturbations of them
    br1, phi1 = transport(*sl2_sum(1), *signed_perm(rng, 3))
    bases = {"string": two_term_record(hl, br1, phi1, oracles.string_l3(br1)),
             "shift": strict_shift(hl, br1, phi1)}
    # the two-term structures are the largest inputs here: the top rung
    for name, v in bases.items():
        plan.ops.append(Op(f"{name}.valid", (lambda v=v: items(hl.check_two_term(v))),
                           all_pass, top=True))
    # every entry of l2 (string and shift) and of l3 (string) in turn, so
    # the seed moves only the basis the structures are written in
    positions = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    string_l3 = oracles.string_l3(br1)
    for name, kind in (("string", "l2"), ("string", "l3"), ("shift", "l2")):
        for pos in positions:
            i, j, k = pos
            br, l3 = [[list(v) for v in row] for row in br1], [[list(r) for r in m]
                                                               for m in string_l3]
            (br if kind == "l2" else l3)[i][j][k] += 1
            v = (two_term_record(hl, br, phi1, l3) if name == "string"
                 else strict_shift(hl, br1, phi1, l2_00=br))
            law, witness = perturb_prediction(kind, pos)
            label = f"{name}.{kind}+1@{i}{j}{k}"
            plan.ops.append(Op(label, (lambda v=v: items(hl.check_two_term(v))),
                               (lambda a, law=law, w=witness: _predicted_failure(a, law, w)),
                               top=True))
            if name == "string" and pos == (0, 1, 2):
                cat_law = {"(a)": "bracket-skew", "l3-skew": "jacobiator-skew"}[law]
                plan.ops.append(Op(label + ".hom_lie2",
                                   (lambda v=v: items(hl.check_hom_lie2(hl.functor_T(v)))),
                                   (lambda a, law=cat_law, w=witness:
                                    _predicted_failure(a, law, w)), top=True))

    # CLI: every fixture, every construction, every two-term roundtrip
    quad_file = work / "sl2_killing.json"
    g_sl2 = alg(hl, SL2_BRACKET, SL2_PHI)
    hl.save_model(hl.QuadraticHomLie(g_sl2, hl.Matrix(3, 3, oracles.killing_int(SL2_BRACKET))),
                  quad_file)
    ok_only = (lambda rc, out: cli_json(rc, out)[1])
    for fixture in sorted(FIXTURES.glob("*.json")):
        plan.cli.append(Cli(["check", str(fixture), "--json"], ok_only))
    for fixture in ("abelian2_two_term", "sl2_string", "sl2_strict_shift"):
        plan.cli.append(Cli(["roundtrip", str(FIXTURES / f"{fixture}.json"), "--json"], ok_only))
    constructs = (
        ("string", FIXTURES / "sl2.json",
         lambda doc, _: string_structure_ok(doc, SL2_BRACKET, SL2_PHI)),
        ("skeletal", quad_file, lambda doc, _: string_structure_ok(doc, SL2_BRACKET, SL2_PHI)),
        ("strict-from-crossed", FIXTURES / "crossed_small.json", _strict_from_crossed_ok),
        ("crossed-from-strict", FIXTURES / "sl2_strict_shift.json", _crossed_from_strict_ok),
        ("strict-from-symplectic", FIXTURES / "symplectic_nontrivial4.json",
         _strict_from_symplectic_ok),
        ("strict-from-leftsym", FIXTURES / "leftsym_with_d.json", _strict_from_leftsym_file_ok),
    )
    for kind, src, check in constructs:
        out = work / f"out_{kind}.json"

        def verify(rc, text, out=out, src=src, check=check):
            _, err = cli_json(rc, text)
            return err or check(read_model(out), read_model(src))

        plan.cli.append(Cli(["construct", kind, str(src), "--out", str(out), "--json"], verify))
    plan.warmup = lambda: hl.check_hom_lie(g_sl2)
    return plan


def _items_match(answer, expect):
    if list(answer) == list(expect):
        return None
    for got, want in zip(answer, expect):
        if got != want:
            return f"{got} != plain-int {want}"
    return f"{len(answer)} items, plain-int checker has {len(expect)}"


def _predicted_failure(answer, law, witness):
    for name, ok, w in answer:
        if name == law:
            if ok or w != witness:
                return f"{law}: passed={ok} witness={w}, predicted failure at {witness}"
            return None
    return f"no item {law}"


def _strict_from_crossed_ok(doc, src):
    g, h = src["g"], src["h"]
    n0, n1 = g["dim"], h["dim"]
    action = frac_tensor(src["action"])
    want = {"d": frac_tensor(src["dt"]), "l2_00": frac_tensor(g["bracket"]),
            "l2_01": [[[action[i][b][a] for b in range(n1)] for a in range(n1)]
                      for i in range(n0)],
            "l3": zeros(n0, n0, n0, n1), "phi0": frac_tensor(g["phi"]),
            "phi1": frac_tensor(h["phi"])}
    for key, value in want.items():
        if frac_tensor(doc[key]) != value:
            return f"{key} differs from the crossed module's data"
    return None


def _crossed_from_strict_ok(doc, src):
    """h = V1 with [m,n] = l2(dm,n), g = V0, dt = d, action = l2(x,.); the
    output must also pass the plain checker."""
    n0, n1 = src["dim0"], src["dim1"]
    d, l2_01 = frac_tensor(src["d"]), frac_tensor(src["l2_01"])
    want = {"h.bracket": [[[sum(d[i][a] * l2_01[i][b][c] for i in range(n0))
                            for c in range(n1)] for b in range(n1)] for a in range(n1)],
            "h.phi": frac_tensor(src["phi1"]), "g.bracket": frac_tensor(src["l2_00"]),
            "g.phi": frac_tensor(src["phi0"]), "dt": d,
            "action": [[[l2_01[i][b][a] for b in range(n1)] for a in range(n1)]
                       for i in range(n0)]}
    got = {"h.bracket": doc["h"]["bracket"], "h.phi": doc["h"]["phi"],
           "g.bracket": doc["g"]["bracket"], "g.phi": doc["g"]["phi"],
           "dt": doc["dt"], "action": doc["action"]}
    got = {key: frac_tensor(value) for key, value in got.items()}
    for key, value in want.items():
        if got[key] != value:
            return f"{key} differs from the strict structure's data"
    report = oracles.crossed_module_items(got["h.bracket"], got["h.phi"], got["g.bracket"],
                                          got["g.phi"], got["dt"], got["action"])
    failed = [law for law, ok, _ in report if not ok]
    return f"plain-int checker rejects the output: {failed}" if failed else None


def _strict_from_symplectic_ok(doc, src):
    """d = phi (omega^T)^{-1}, i.e. d omega^T = phi; phi1 = phi^T; l3 = 0."""
    phi = frac_tensor(src["algebra"]["phi"])
    omega = frac_tensor(src["omega"])
    n = len(phi)
    d = frac_tensor(doc["d"])
    prod = [[sum(d[i][t] * omega[j][t] for t in range(n)) for j in range(n)] for i in range(n)]
    if prod != phi:
        return "d is not phi composed with the inverse of omega-sharp"
    if frac_tensor(doc["phi1"]) != [[phi[j][i] for j in range(n)] for i in range(n)]:
        return "phi1 is not the transpose of phi"
    if frac_tensor(doc["l2_00"]) != frac_tensor(src["algebra"]["bracket"]):
        return "l2_00 is not the bracket"
    if frac_tensor(doc["l3"]) != zeros(n, n, n, n):
        return "l3 is not zero"
    return None


def _strict_from_leftsym_file_ok(doc, src):
    return leftsym_strict_ok(doc, frac_tensor(src["star"]), frac_tensor(src["phi"]),
                             frac_tensor(src["d"]))


BUILDERS = {"cohomology": build_cohomology, "two-term": build_two_term, "search": build_search}
