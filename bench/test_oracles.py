"""Tests of the benchmark's oracles, on the smallest rung.

    python3 -m pytest bench/test_oracles.py -q

The oracles must be right on their own, so most tests pit one oracle
against another (closed form against sympy rank) or against a value from
the literature.  The last tests compare them with the package on inputs
small enough to read by hand.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import workloads as wl  # noqa: E402


def test_poincare_polynomial_of_sl2_sums():
    assert oracles.poincare_sl2(1) == [1, 0, 0, 1]
    assert oracles.poincare_sl2(3) == [1, 0, 0, 3, 0, 0, 3, 0, 0, 1]


def test_invariant_cochains_of_an_involution():
    # one +1 and two -1 eigenvalues per block; n = 9, k = 3 gives 46
    assert oracles.invariant_count(3, 6, 3) == 46
    assert [oracles.invariant_count(1, 2, k) for k in range(4)] == [1, 1, 1, 1]


def test_dimension_table_obeys_the_degree_shift():
    table = oracles.sl2_sum_trivial_dims(2, False, 6)
    for (c, z, _, _), (_, _, b_next, _) in zip(table, table[1:]):
        assert c - z == b_next
    assert table[3] == (20, 11, 9, 2)


def companion(br):
    """g_phi of sl(2): bracket phi([x,y]) with the built-in involution."""
    return [[[sum(wl.SL2_PHI[a][t] * br[i][j][t] for t in range(3)) for a in range(3)]
             for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("involution", [False, True])
def test_trivial_closed_form_matches_sympy_rank(involution):
    br, phi = wl.sl2_sum(1)
    if not involution:
        br, phi = companion(br), wl.identity(3)
    table = oracles.sl2_sum_trivial_dims(1, involution, 3)
    for k in (1, 2, 3):
        got = oracles.twisted_dims(3, br, phi, [[[0]]] * 3, [[1]], k)
        assert got == table[k]


def test_adjoint_at_identity_has_no_cohomology():
    br = companion(wl.SL2_BRACKET)
    table = oracles.sl2_sum_adjoint_id_dims(1, 3)
    for k in (1, 2, 3):
        assert oracles.twisted_dims(3, br, wl.identity(3), wl.adjoint(br), wl.identity(3), k) \
            == table[k]


def test_twisted_adjoint_cochain_count_matches_sympy_kernel():
    br, phi = wl.sl2_sum(1)
    for k in (1, 2, 3):
        dims = oracles.twisted_dims(3, br, phi, wl.adjoint(br), phi, k)
        assert dims[0] == oracles.sl2_sum_adjoint_twisted_cochains(1, k)


def test_heisenberg_ranks_obey_the_degree_shift():
    br, phi = wl.heisenberg(2, 1)
    dims = [oracles.twisted_dims(3, br, phi, [[[0]]] * 3, [[1]], k) for k in (1, 2, 3)]
    for (c, z, _, _), (_, _, b_next, _) in zip(dims, dims[1:]):
        assert c - z == b_next


def test_killing_form_predicts_the_string_l3():
    l3 = oracles.string_l3(wl.SL2_BRACKET)
    assert l3[0][1][2] == 8
    two = oracles.string_l3(wl.sl2_sum(2)[0])
    assert two[0][1][2] == two[3][4][5] == 8
    assert all(two[i][j][k] == 0 for i in range(3) for j in range(3) for k in range(3, 6))


def test_transport_keeps_the_killing_prediction_natural():
    br, phi = wl.sl2_sum(1)
    perm, signs = [2, 0, 1], [1, -1, 1]
    tb, _ = wl.transport(br, phi, perm, signs)
    l3, tl3 = oracles.string_l3(br), oracles.string_l3(tb)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert tl3[perm[i]][perm[j]][perm[k]] == \
                    signs[i] * signs[j] * signs[k] * l3[i][j][k]


def test_hom_lie_checker_witnesses():
    assert all(ok for _, ok, _ in oracles.hom_lie_items(wl.SL2_BRACKET, wl.SL2_PHI))
    br = [[list(v) for v in row] for row in wl.SL2_BRACKET]
    br[2][1][0] += 1
    law, ok, witness = oracles.hom_lie_items(br, wl.SL2_PHI)[0]
    assert (law, ok, witness) == ("skew", False, (1, 2))


def test_crossed_module_checker_accepts_the_strict_shift():
    br, phi = wl.sl2_sum(1)
    items = wl.crossed_shift_items(br, phi)
    assert [law for law, _, _ in items][-3:] == [
        "laws.equivariance", "laws.peiffer", "laws.derived-compatibility"]
    assert all(ok for _, ok, _ in items)


def test_left_symmetric_checker_accepts_the_affine_product():
    assert all(ok for _, ok, _ in oracles.left_symmetric_items(wl.AFF_STAR, wl.AFF_PHI))
    star = [[list(v) for v in row] for row in wl.AFF_STAR]
    star[1][0][1] = 1
    assert not all(ok for _, ok, _ in oracles.left_symmetric_items(star, wl.AFF_PHI))


def test_case_formulas():
    assert oracles.two_term_cases(3, 1)["(j)"] == 81
    assert oracles.hom_lie2_cases(3, 3)["bracket-interchange"] == 729
    assert oracles.hom_lie2_cases(9, 9)["bracket-interchange"] == 531441


def test_perturbation_prediction():
    assert wl.perturb_prediction("l2", (2, 1, 0)) == ("(a)", (1, 2))
    assert wl.perturb_prediction("l3", (2, 0, 1)) == ("l3-skew", (0, 2, 1))


# -- the package on the smallest rung, against the oracles --------------------

hl = pytest.importorskip("homlie2")


def test_package_sl2_matches_the_benchmark_constants():
    g = hl.sl2_example()
    assert [[list(v) for v in row] for row in g.bracket] == wl.SL2_BRACKET
    assert [list(r) for r in g.phi.data] == wl.SL2_PHI


def test_package_cohomology_on_the_smallest_rung():
    br, phi = wl.sl2_sum(1)
    g = wl.alg(hl, br, phi)
    table = oracles.sl2_sum_trivial_dims(1, True, 3)
    for k in (1, 2, 3):
        assert wl.dims_of(hl, hl.trivial_representation(g), k) == table[k]
        assert wl.dims_of(hl, hl.adjoint_representation(g), k) == \
            oracles.twisted_dims(3, br, phi, wl.adjoint(br), phi, k)


def test_package_string_structure_on_the_smallest_rung():
    br, phi = wl.sl2_sum(1)
    v = hl.string_from_semisimple(wl.alg(hl, br, phi))
    assert wl.string_record_ok(v, br, phi) is None


def test_package_hom_lie_reports_match_the_plain_int_checker():
    rng = random.Random(0)
    for idx in range(40):
        br, phi = wl.random_hom_lie(rng, idx)
        assert wl.items(hl.check_hom_lie(wl.alg(hl, br, phi))) == \
            tuple(oracles.hom_lie_items(br, phi))
