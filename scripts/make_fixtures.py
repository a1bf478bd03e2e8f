#!/usr/bin/env python3
"""Regenerate everything under fixtures/.

The nontrivial examples (a 4-dim involutive symplectic algebra, a crossed
module on a 2-dim module, a left-symmetric product with a nonzero compatible
differential) come from exhaustive grid searches over small rational entries;
iteration order is fixed, the lexicographically first witness wins, so the
output is deterministic.  Run from the repository root:

    python3 scripts/make_fixtures.py [OUTDIR]

OUTDIR defaults to fixtures/.  Regenerating into a scratch directory and
diffing it against fixtures/ checks that no answer changed:

    out=$(mktemp -d) && python3 scripts/make_fixtures.py "$out" && diff -r "$out" fixtures
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from homlie2.cohomology import adjoint_representation, check_representation
from homlie2.constructions import (CrossedModule, HomLeftSymmetric,
                                   SymplecticHomLie, check_crossed_module,
                                   check_left_symmetric, check_symplectic,
                                   sl2_example, strict_from_leftsym,
                                   strict_from_symplectic, string_from_semisimple)
from homlie2.errors import HomLieError
from homlie2.exactlin import Matrix, _ap, dok, rank, rank_and_kernel
from homlie2.hl2 import TwoTermHL, check_two_term
from homlie2.homlie import HomLieAlgebra, abelian_algebra, check_hom_lie
from homlie2.modelfile import LeftSymmetricFile, save_model
from homlie2.reports import CheckReport

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def zero3(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def find_symplectic4() -> SymplecticHomLie:
    """First nonabelian involutive 4-dim algebra with an exact symplectic form.

    Brackets scanned: single relation [e_a, e_b] = e_c; twists: diagonal ±1.
    The form is solved linearly from invariance + closedness, then the kernel
    is scanned for a nondegenerate combination.
    """
    n = 4
    pair_index = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def omega_from(unknowns):
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), v in zip(pair_index, unknowns):
            m[i][j] = v
            m[j][i] = -v
        return Matrix(n, n, m)

    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                if c in (a, b):
                    continue
                bracket = zero3(n)
                bracket[a][b][c] = 1
                bracket[b][a][c] = -1
                for signs in product((1, -1), repeat=n):
                    if all(s == 1 for s in signs) or all(s == -1 for s in signs):
                        continue  # demand a twist that acts nontrivially
                    phi = Matrix.diagonal(signs)
                    g = HomLieAlgebra(n, bracket, phi)
                    if not check_hom_lie(g).ok or not g.is_involutive():
                        continue
                    # linear constraints on the 6 independent omega entries
                    rows = []
                    for (i, j) in pair_index:  # invariance omega(phi x, phi y) = omega(x, y)
                        row = [Fraction(0)] * len(pair_index)
                        row[pair_index.index((i, j))] = Fraction(signs[i] * signs[j] - 1)
                        rows.append(row)
                    for t in range(n):  # closedness on triples containing the relation
                        for u in range(t + 1, n):
                            for v in range(u + 1, n):
                                row = [Fraction(0)] * len(pair_index)
                                for (x, y, z) in ((t, u, v), (u, v, t), (v, t, u)):
                                    br = g.bracket[y][z]
                                    for w in range(n):
                                        if br[w] == 0:
                                            continue
                                        i, j = min(x, w), max(x, w)
                                        if i == j:
                                            continue
                                        sign = 1 if x < w else -1
                                        row[pair_index.index((i, j))] += signs[x] * sign * br[w]
                                rows.append(row)
                    _, ker = rank_and_kernel(Matrix(len(rows), len(pair_index), rows))
                    if not ker:
                        continue
                    for coefs in product((0, 1, -1, 2), repeat=len(ker)):
                        if all(cf == 0 for cf in coefs):
                            continue
                        unknowns = [sum((Fraction(cf) * kv[t] for cf, kv in zip(coefs, ker)),
                                        Fraction(0)) for t in range(len(pair_index))]
                        omega = omega_from(unknowns)
                        if rank(omega) != n:
                            continue
                        s = SymplecticHomLie(g, omega)
                        if not check_symplectic(s).ok:
                            continue
                        strict_from_symplectic(s)  # must succeed end to end
                        return s
    raise SystemExit("no symplectic example found in the grid")


def find_crossed_module() -> CrossedModule:
    """First crossed module with 1-dim base, 2-dim module, an invertible
    module twist, and a nonzero action or connecting map."""
    vals = (0, 1, -1)
    for lam in (1, -1, 2):
        g = abelian_algebra(1, Matrix(1, 1, [[lam]]))
        for beta, gamma in product(vals, repeat=2):
            h_bracket = [[[0, 0], [beta, gamma]], [[-beta, -gamma], [0, 0]]]
            for phi_h_entries in product(vals, repeat=4):
                phi_h = Matrix(2, 2, [phi_h_entries[:2], phi_h_entries[2:]])
                if rank(phi_h) != 2:
                    continue
                h = HomLieAlgebra(2, h_bracket, phi_h)
                if not check_hom_lie(h).ok:
                    continue
                for dt_entries in product(vals, repeat=2):
                    dt = Matrix(1, 2, [dt_entries])
                    for rho_entries in product(vals, repeat=4):
                        rho = Matrix(2, 2, [rho_entries[:2], rho_entries[2:]])
                        if rho.is_zero() and dt.is_zero():
                            continue
                        cm = CrossedModule(h, g, dt, (rho,))
                        if check_crossed_module(cm).ok:
                            return cm
    raise SystemExit("no crossed module found in the grid")


def find_leftsym_with_d() -> LeftSymmetricFile:
    """First left-symmetric product with a nonzero compatible differential.

    Scans 2-dim products with entries in {0,1,-1} against a small menu of
    twists, then differentials with entries in {0,1,-1}; all of the
    differential compatibilities must hold and the strict construction must
    validate.  Candidates where the differential actually interacts with the
    product (some (d m)*n or product-of-image nonzero) are preferred; a
    nonabelian commutator would rank highest if the grid contained one.
    """
    from homlie2.constructions import leftsym_d_report

    vals = (0, 1, -1)
    phis = [Matrix.identity(2), Matrix.diagonal([1, -1]), Matrix.diagonal([-1, -1]),
            Matrix(2, 2, [[0, 1], [1, 0]])]
    best: tuple[int, LeftSymmetricFile] | None = None
    for star_entries in product(vals, repeat=8):
        if all(v == 0 for v in star_entries):
            continue
        star = [[[star_entries[0], star_entries[1]], [star_entries[2], star_entries[3]]],
                [[star_entries[4], star_entries[5]], [star_entries[6], star_entries[7]]]]
        for phi in phis:
            a = HomLeftSymmetric(2, star, phi)
            report, derived = check_left_symmetric(a)
            if derived is None:
                continue
            for d_entries in product(vals, repeat=4):
                if all(v == 0 for v in d_entries):
                    continue
                d = Matrix(2, 2, [d_entries[:2], d_entries[2:]])
                if not leftsym_d_report(a, d).ok:
                    continue
                try:
                    strict_from_leftsym(a, d)
                except HomLieError:
                    continue
                nonabelian = not derived.sub_adjacent.is_abelian()
                interacts = bool(_ap(dok(a.star), _ap(dok(d), "a"), "b")[1])   # (dm)*n != 0
                tier = 2 if nonabelian else (1 if interacts else 0)
                cand = (tier, LeftSymmetricFile(a, d))
                if best is None or tier > best[0]:
                    best = cand
                if tier == 2:
                    return best[1]
    if best is None:
        raise SystemExit("no left-symmetric pair found in the grid")
    return best[1]


def require(report: CheckReport, what: str):
    if not report.ok:
        raise SystemExit(f"{what} failed validation:\n{report.table()}")


def main(outdir: Path = FIXDIR):
    outdir.mkdir(parents=True, exist_ok=True)
    g = sl2_example()
    save_model(g, outdir / "sl2.json")

    v_string = string_from_semisimple(g)
    save_model(v_string, outdir / "sl2_string.json")

    z3 = zero3(3)
    l3 = [[[[0] for _ in range(3)] for _ in range(3)] for _ in range(3)]
    v_strict = TwoTermHL(3, 3, Matrix.zeros(3, 3), g.bracket, g.bracket,
                         [[[[0, 0, 0] for _ in range(3)] for _ in range(3)] for _ in range(3)],
                         g.phi, g.phi)
    require(check_two_term(v_strict), "shift strict example")
    save_model(v_strict, outdir / "sl2_strict_shift.json")

    v_abelian = TwoTermHL(2, 2, Matrix.zeros(2, 2),
                          [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                          [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                          [[[[0, 0] for _ in range(2)] for _ in range(2)] for _ in range(2)],
                          Matrix.diagonal([-1, -1]), Matrix(2, 2, [[0, 1], [1, 0]]))
    require(check_two_term(v_abelian), "abelian two-term example")
    save_model(v_abelian, outdir / "abelian2_two_term.json")

    g_ab = abelian_algebra(2, Matrix.diagonal([-1, -1]))
    s_ab = SymplecticHomLie(g_ab, Matrix(2, 2, [[0, 1], [-1, 0]]))
    require(check_symplectic(s_ab), "abelian symplectic example")
    save_model(s_ab, outdir / "symplectic_abelian2.json")

    rep_adj = adjoint_representation(g)
    require(check_representation(rep_adj), "adjoint representation")
    save_model(rep_adj, outdir / "sl2_adjoint_rep.json")

    from homlie2.hl2 import HLMorphism, check_hl_morphism
    phi_endo = HLMorphism(v_string, v_string, g.phi, Matrix.identity(1),
                          [[[0] for _ in range(3)] for _ in range(3)])
    require(check_hl_morphism(phi_endo), "twist endomorphism of the string example")
    save_model(phi_endo, outdir / "hl_morphism_phi_string.json")

    print("searching for the 4-dim symplectic example ...")
    s4 = find_symplectic4()
    save_model(s4, outdir / "symplectic_nontrivial4.json")
    print("  bracket relation:", [(i, j, k, str(x)) for i in range(4) for j in range(4)
                                  for k, x in enumerate(s4.algebra.bracket[i][j]) if x != 0][:2],
          "phi diag:", [str(s4.algebra.phi[i, i]) for i in range(4)])

    print("searching for the small crossed module ...")
    cm = find_crossed_module()
    save_model(cm, outdir / "crossed_small.json")

    print("searching for the left-symmetric pair ...")
    ls = find_leftsym_with_d()
    save_model(ls, outdir / "leftsym_with_d.json")

    print("fixtures written to", outdir)


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else FIXDIR)
