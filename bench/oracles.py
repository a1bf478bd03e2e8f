"""Answers the benchmark checks the package against, computed without it.

Nothing here imports homlie2.  Structures come in as plain nested lists of
ints (or Fractions), exactly as the benchmark generated them, and every
answer is derived either from a closed form or from arithmetic written out
here from the definitions:

* Chevalley-Eilenberg dimensions of sl(2)^c: the Poincare polynomial
  (1+t^3)^c at phi = Id (Trans. AMS 63, 1948), H^k = 0 with adjoint
  coefficients at phi = Id (Whitehead), and the eigenvalue count of
  phi-invariant cochains for an involution.  The relation
  C^k - Z^k = B^{k+1} turns C and H into the full (C, Z, B, H) table.
* A sympy QQ rank of the twisted coboundary, assembled from structure
  constants, for the cases no closed form pins.
* An integer Killing form, which predicts the string structure's l3.
* Plain-int checkers for the hom-Lie, crossed-module and left-symmetric
  laws that return the lexicographically first failing tuple per law.
* Case counts of every law scan, from the dimensions alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb

# --------------------------------------------------------------------------
# Closed forms for cohomology dimensions
# --------------------------------------------------------------------------


def poincare_sl2(c: int) -> list[int]:
    """Coefficients of (1+t^3)^c, the Betti numbers of sl(2)^c."""
    out = [0] * (3 * c + 1)
    for j in range(c + 1):
        out[3 * j] = comb(c, j)
    return out


def invariant_count(p: int, q: int, k: int, parity: int = 0) -> int:
    """Dimension of the (+1 if parity = 0, else -1) eigenspace of an
    involution with p eigenvalues +1 and q eigenvalues -1 on the k-th
    exterior power: sum over j of the given parity of C(q,j)*C(p,k-j)."""
    return sum(comb(q, j) * comb(p, k - j) for j in range(parity, k + 1, 2))


def dims_from_c_and_h(c_dims: list[int], h_dims: list[int]) -> list[tuple[int, int, int, int]]:
    """(C, Z, B, H) for k = 0..len-1 from C^k and H^k, using B^0 = 0,
    Z^k = B^k + H^k and B^{k+1} = C^k - Z^k."""
    out = []
    b = 0
    for ck, hk in zip(c_dims, h_dims):
        z = b + hk
        out.append((ck, z, b, hk))
        b = ck - z
    return out


def sl2_sum_trivial_dims(c: int, involution: bool, kmax: int) -> list[tuple[int, int, int, int]]:
    """Trivial coefficients on sl(2)^c, k = 0..kmax.

    At phi = Id the complex is Chevalley-Eilenberg.  For the blockwise
    involution (one +1 and two -1 eigenvalues per block, determinant 1 on
    each block) the twisted complex is the phi-invariant subcomplex of the
    complex of g_phi, and phi acts trivially on its cohomology, so H is
    again (1+t^3)^c while C counts invariant forms.
    """
    n = 3 * c
    betti = poincare_sl2(c) + [0] * (kmax + 1)
    if involution:
        c_dims = [invariant_count(c, 2 * c, k) for k in range(kmax + 1)]
    else:
        c_dims = [comb(n, k) for k in range(kmax + 1)]
    return dims_from_c_and_h(c_dims, betti[:kmax + 1])


def sl2_sum_adjoint_id_dims(c: int, kmax: int) -> list[tuple[int, int, int, int]]:
    """Adjoint coefficients on sl(2)^c at phi = Id: H^k = 0, C^k = n*C(n,k)."""
    n = 3 * c
    return dims_from_c_and_h([n * comb(n, k) for k in range(kmax + 1)], [0] * (kmax + 1))


def sl2_sum_adjoint_twisted_cochains(c: int, k: int) -> int:
    """dim C^k with adjoint coefficients under the blockwise involution:
    A = phi, so invariant forms pair with the +1 part of g and
    anti-invariant forms with the -1 part."""
    p, q = c, 2 * c
    return invariant_count(p, q, k, 0) * p + invariant_count(p, q, k, 1) * q


# --------------------------------------------------------------------------
# Exact rank of the twisted coboundary (sympy)
# --------------------------------------------------------------------------


def _det(rows) -> Fraction:
    k = len(rows)
    total = Fraction(0)
    for perm in permutations(range(k)):
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
            if not term:
                break
        if term:
            inv = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
            total += -term if inv % 2 else term
    return total


def _matpow(m, e):
    n = len(m)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = [[sum(out[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return out


def _column(m, j):
    return [m[i][j] for i in range(len(m))]


def _dm(rows, ncols):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    fr = [[QQ(Fraction(x).numerator, Fraction(x).denominator) for x in r] for r in rows]
    return DomainMatrix(fr, (len(fr), ncols), QQ)


def _cochain_rows(n, phi, A, k):
    """Rows of the system A f = f o phi^k on k-cochains, in coordinates
    (increasing k-tuple, module index); its kernel is C^k."""
    m = len(A)
    tuples = list(combinations(range(n), k))
    size = len(tuples) * m
    rows = []
    for ti, t in enumerate(tuples):
        dets = [_det([[phi[l][i] for l in s] for i in t]) for s in tuples]
        for a in range(m):
            row = [Fraction(0)] * size
            for b in range(m):
                row[ti * m + b] += A[a][b]
            for si, dv in enumerate(dets):
                row[si * m + a] -= dv
            rows.append(row)
    return rows, size


def _coboundary_rows(n, bracket, phi, rho, k):
    """Matrix of the twisted coboundary from k-cochains to (k+1)-cochains,
    written out from its defining formula on basis tuples."""
    m = len(rho[0])
    src = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(src)}
    phik = _matpow(phi, k - 1)
    rho_tw = []
    for i in range(n):
        col = _column(phik, i)
        rho_tw.append([[sum(col[t] * rho[t][a][b] for t in range(n)) for b in range(m)]
                       for a in range(m)])
    rows = []
    for t in combinations(range(n), k + 1):
        block = [[Fraction(0)] * (len(src) * m) for _ in range(m)]
        for pos in range(k + 1):
            rest = t[:pos] + t[pos + 1:]
            sign = -1 if pos % 2 else 1
            si = index[rest]
            r = rho_tw[t[pos]]
            for a in range(m):
                for b in range(m):
                    if r[a][b]:
                        block[a][si * m + b] += sign * r[a][b]
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                br = bracket[t[p]][t[q]]
                if not any(br):
                    continue
                args = [br] + [_column(phi, t[s]) for s in range(k + 1) if s not in (p, q)]
                sign = -1 if (p + q) % 2 else 1
                for s in src:
                    dv = _det([[v[l] for l in s] for v in args])
                    if dv:
                        for a in range(m):
                            block[a][index[s] * m + a] += sign * dv
        rows.extend(block)
    return rows, len(src) * m


def _rank(rows, ncols) -> int:
    return _dm(rows, ncols).rank() if rows and ncols else 0


def _cocycle_dims(n, bracket, phi, rho, A, k) -> tuple[int, int]:
    """(dim C^k, dim Z^k): kernels of the hom-cochain system alone and
    stacked with the coboundary.  Degree 0 is the A-fixed subspace, and its
    cocycles are the fixed vectors that every rho(e_i) kills."""
    m = len(A)
    if k == 0:
        fixed = [[Fraction(A[a][b] - int(a == b)) for b in range(m)] for a in range(m)]
        killed = fixed + [list(row) for r in rho for row in r]
        return m - _rank(fixed, m), m - _rank(killed, m)
    rows, size = _cochain_rows(n, phi, A, k)
    dim_c = size - _rank(rows, size)
    d_rows, _ = _coboundary_rows(n, bracket, phi, rho, k)
    return dim_c, size - _rank(rows + d_rows, size)


def twisted_dims(n, bracket, phi, rho, A, k) -> tuple[int, int, int, int]:
    """(dim C^k, Z^k, B^k, H^k) of the twisted complex, k >= 1, by sympy ranks.

    B^k is the image of d on C^{k-1}, of dimension C^{k-1} - Z^{k-1}.
    """
    dim_c, dim_z = _cocycle_dims(n, bracket, phi, rho, A, k)
    prev_c, prev_z = _cocycle_dims(n, bracket, phi, rho, A, k - 1)
    dim_b = prev_c - prev_z
    return (dim_c, dim_z, dim_b, dim_z - dim_b)


# --------------------------------------------------------------------------
# Killing form and the string structure
# --------------------------------------------------------------------------


def killing_int(bracket) -> list[list[int]]:
    """B(e_i, e_j) = tr(ad_i ad_j), with (ad_i)[a][b] = bracket[i][b][a]."""
    n = len(bracket)
    return [[sum(bracket[i][b][a] * bracket[j][a][b] for a in range(n) for b in range(n))
             for j in range(n)] for i in range(n)]


def string_l3(bracket) -> list[list[list[int]]]:
    """l3(e_i, e_j, e_k) = B([e_i, e_j], e_k) for the Killing form B."""
    n = len(bracket)
    kil = killing_int(bracket)
    return [[[sum(bracket[i][j][a] * kil[a][k] for a in range(n)) for k in range(n)]
             for j in range(n)] for i in range(n)]


# --------------------------------------------------------------------------
# Plain-int law checkers: (law, passed, first failing tuple) per law
# --------------------------------------------------------------------------


def _br(bracket, x, y):
    n = len(x)
    out = [0] * len(bracket[0][0])
    for i in range(n):
        if x[i]:
            for j in range(n):
                if y[j]:
                    c = x[i] * y[j]
                    for k, e in enumerate(bracket[i][j]):
                        out[k] += c * e
    return out


def _apply(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def _matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _first(law, tuples, pred):
    for t in tuples:
        if not pred(*t):
            return (law, False, t)
    return (law, True, None)


def _matrix_eq(law, a, b):
    for i in range(len(a)):
        for j in range(len(a[0])):
            if a[i][j] != b[i][j]:
                return (law, False, (i, j))
    return (law, True, None)


def _unit(n, i):
    return [int(t == i) for t in range(n)]


def _pairs(n, m=None):
    return [(i, j) for i in range(n) for j in range(n if m is None else m)]


def _triples(n, m=None, l=None):
    return [(i, j, k) for i in range(n) for j in range(n if m is None else m)
            for k in range(n if l is None else l)]


def hom_lie_items(bracket, phi) -> list[tuple]:
    """skew, phi-morphism and hom-jacobi, in the package's scan order."""
    n = len(phi)
    cols = [_column(phi, j) for j in range(n)]

    def jacobi(i, j, k):
        total = [0] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for t, x in enumerate(_br(bracket, cols[a], bracket[b][c])):
                total[t] += x
        return not any(total)

    return [
        _first("skew", _pairs(n),
               lambda i, j: list(bracket[i][j]) == [-x for x in bracket[j][i]]),
        _first("phi-morphism", _pairs(n),
               lambda i, j: _apply(phi, bracket[i][j]) == _br(bracket, cols[i], cols[j])),
        _first("hom-jacobi", _triples(n), jacobi),
    ]


def crossed_module_items(h_br, h_phi, g_br, g_phi, dt, action) -> list[tuple]:
    """Every item of the package's crossed-module report, section-prefixed."""
    nh, ng = len(h_phi), len(g_phi)
    items = [("h." + law, ok, w) for law, ok, w in hom_lie_items(h_br, h_phi)]
    items += [("g." + law, ok, w) for law, ok, w in hom_lie_items(g_br, g_phi)]
    dt_cols = [_column(dt, a) for a in range(nh)]
    gcols = [_column(g_phi, j) for j in range(ng)]
    hcols = [_column(h_phi, a) for a in range(nh)]

    def rho_at(x):
        return [[sum(x[i] * action[i][a][b] for i in range(ng)) for b in range(nh)]
                for a in range(nh)]

    def bracket_action(i, j):
        lhs = _matmul(rho_at(g_br[i][j]), h_phi)
        r1 = _matmul(rho_at(gcols[i]), action[j])
        r2 = _matmul(rho_at(gcols[j]), action[i])
        return lhs == [[x - y for x, y in zip(r, s)] for r, s in zip(r1, r2)]

    def act(x, m):
        out = [0] * nh
        for i in range(ng):
            if x[i]:
                for t, v in enumerate(_apply(action[i], m)):
                    out[t] += x[i] * v
        return out

    def derived(i, a, b):
        lhs = act(gcols[i], h_br[a][b])
        r1 = _br(h_br, _apply(action[i], _unit(nh, a)), hcols[b])
        r2 = _br(h_br, hcols[a], _apply(action[i], _unit(nh, b)))
        return lhs == [x + y for x, y in zip(r1, r2)]

    items += [
        _first("dt.bracket-preserved", _pairs(nh),
               lambda i, j: _apply(dt, h_br[i][j]) == _br(g_br, dt_cols[i], dt_cols[j])),
        _matrix_eq("dt.twist-intertwined", _matmul(dt, h_phi), _matmul(g_phi, dt)),
        _first("action.twist-compatibility", [(i,) for i in range(ng)],
               lambda i: _matmul(rho_at(gcols[i]), h_phi) == _matmul(h_phi, action[i])),
        _first("action.bracket-action", _pairs(ng), bracket_action),
        _first("laws.equivariance", _pairs(ng, nh),
               lambda i, a: _apply(dt, _apply(action[i], _unit(nh, a))) ==
               _br(g_br, _unit(ng, i), dt_cols[a])),
        _first("laws.peiffer", _pairs(nh),
               lambda a, b: act(dt_cols[a], _unit(nh, b)) == list(h_br[a][b])),
        _first("laws.derived-compatibility", _triples(ng, nh, nh), derived),
    ]
    return items


def left_symmetric_items(star, phi) -> list[tuple]:
    """phi-product and left-symmetry, in the package's scan order."""
    n = len(phi)
    cols = [_column(phi, j) for j in range(n)]

    def assoc(i, j, k):
        """(phi x)*(y*z) - (x*y)*(phi z) on basis vectors."""
        return [a - b for a, b in zip(_br(star, cols[i], star[j][k]),
                                      _br(star, star[i][j], cols[k]))]

    def leftsym(i, j, k):
        return assoc(i, j, k) == assoc(j, i, k)

    return [
        _first("phi-product", _pairs(n),
               lambda i, j: _apply(phi, star[i][j]) == _br(star, cols[i], cols[j])),
        _first("left-symmetry", _triples(n), leftsym),
    ]


# --------------------------------------------------------------------------
# Scan case counts from dimensions
# --------------------------------------------------------------------------


def two_term_cases(n0: int, n1: int) -> dict[str, int]:
    return {"(a)": n0 ** 2, "(d)": n0 * n1, "(e)": n1 ** 2, "(f)": n0 ** 2,
            "(g)": n0 * n1, "(h)": n0 ** 3, "(i)": n0 ** 2 * n1, "(j)": n0 ** 4,
            "l3-equivariance": n0 ** 3, "l3-skew": n0 ** 3}


def hom_lie2_cases(n0: int, n1: int) -> dict[str, int]:
    nm = n0 + n1
    return {"bracket-skew": nm ** 2, "bracket-source": nm ** 2, "bracket-target": nm ** 2,
            "bracket-identities": n0 ** 2, "bracket-interchange": n0 ** 2 * n1 ** 4,
            "phi-source": nm, "phi-target": nm, "phi-identities": n0, "phi-bracket": nm ** 2,
            "jacobiator-skew": n0 ** 3, "jacobiator-arrow": n0 ** 3,
            "jacobiator-equivariance": n0 ** 3, "jacobiator-naturality": nm ** 3,
            "hom-jacobiator": n0 ** 4}


def hom_lie_cases(n: int) -> dict[str, int]:
    return {"skew": n ** 2, "phi-morphism": n ** 2, "hom-jacobi": n ** 3}
