"""Exact rational linear algebra.

Every axiom check in this package reduces to an identity between rational
tensors, every cohomology space to a kernel, and every triviality question
to exact solvability.  Immutable dense `Matrix`es over ``fractions.Fraction``
are the API; beneath them a sparse matrix is one form, the `dok` map keyed
(column, row), multiplied only by `_ap`: a Matrix's `*`, `+`, `-`, negation
and transpose are built by `Matrix.from_dok` from `dok` expressions, and no
check multiplies matrices.  One elimination, `_rref`, answers rank, kernels
(as maps), solutions, inverses and span membership: it scales each row of
the map that holds a Fraction to ints over its own nonzeros and eliminates
fraction-free with content division, finding the rows nonzero in a column
through an index kept current as rows change; Fractions are built only
where a public function returns them.

Multilinear maps are evaluated one way, on dicts of keys.  `dok` gives a
tensor (nested tuples of structure constants), a `Matrix` or a tuple of
matrices as {(input indices..., output index): nonzero coefficient}, the
coefficient an int where integral; a `Tensor` or a `Matrix` keeps its `dok`,
read-only, and `from_dok` turns a dict back into nested tuples, as
`Tensor.from_dok` and `Matrix.from_dok` do into a record that keeps it.
`_ap` substitutes expressions into a map's inputs one slot at a time and
`_sum` adds signed terms with renamed slots: the residual tensors
(lhs − rhs) of the laws and every construction's structure constants are
built with them.  `_form` reads a Matrix as the bilinear form x^T M y, and
`_product` a product A·B as an expression over it, so an equality of matrix
products is a residual like any other law.  Int–Fraction arithmetic is
exact and ``3 == Fraction(3)`` with equal hashes, so every comparison gives
the answer Fraction arithmetic would.  Stored structures stay all-Fraction:
`as_tensor` coerces a record's tensor, a Matrix's rows and a Cochain's
components, refusing data of another length at any level, and names the
index of a misshapen level or a bad rational; `require_shape` checks a
Matrix field's shape.  There is no floating point and no rounding anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import permutations, repeat
from math import gcd, lcm, prod
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Sequence

from .errors import InputError

# rat() hands out these shared Fractions for small integers; a Fraction is
# immutable, so a model's many small entries need not each be a new object.
_SMALL = {i: Fraction(i) for i in range(-16, 17)}
F0 = _SMALL[0]
F1 = _SMALL[1]

Vec = tuple  # tuple of Fraction (evaluated vectors may hold ints where integral)


def rat(x) -> Fraction:
    """Coerce an int, string ("p/q" or "p") or Fraction to a Fraction."""
    # exact-class tests first: Fraction's metaclass is ABCMeta, whose
    # isinstance check is slow, and a model's entries are nearly all ints
    cls = x.__class__
    if cls is int:
        f = _SMALL.get(x)
        return Fraction(x) if f is None else f
    if cls is Fraction:
        return x
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError(f"cannot interpret bool {x!r} as a rational")
    if isinstance(x, int):
        f = _SMALL.get(x)
        return Fraction(x) if f is None else f
    if isinstance(x, str):
        try:
            f = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {x!r}: {exc}") from None
        return _SMALL.get(f, f)
    raise InputError(f"cannot interpret {type(x).__name__} as a rational")


def vec(xs: Iterable) -> Vec:
    return tuple(map(rat, xs))


def unit_vec(n: int, i: int) -> Vec:
    """The i-th standard basis vector of length n, with int entries."""
    return tuple(1 if j == i else 0 for j in range(n))


# --------------------------------------------------------------------------
# Multilinear maps as dicts of keys
# --------------------------------------------------------------------------

def sparse_vec(v) -> tuple:
    """(index, coefficient) for each nonzero entry of v, the coefficient an
    int where the entry is integral.  An all-zero v gives the shared ()."""
    return tuple([(k, x) if x.__class__ is int else
                  (k, x.numerator if x.denominator == 1 else x)
                  for k, x in enumerate(v) if x])


class Tensor(tuple):
    """Structure constants as nested tuples with coordinate vectors at the
    leaves (T[i][j] or T[i][j][k] is a Vec).  Equality, hash and repr are
    those of the plain tuple.  `dok` is its dict-of-keys form (see `dok`),
    read-only: kept from `from_dok`, else built on first use."""

    @cached_property
    def dok(self) -> MappingProxyType:
        return MappingProxyType(_dok(self))

    @classmethod
    def from_dok(cls, t: dict, shape) -> "Tensor":
        """`from_dok(t, shape)` with Fraction leaves; t, as `_ints` gives it, is its `dok`."""
        out = cls(from_dok({key: rat(x) for key, x in t.items()}, shape, F0))
        out.__dict__["dok"] = MappingProxyType(_ints(t))
        return out


def as_tensor(data, shape, field: str) -> Tensor:
    """Nested lists or tuples of exactly `shape` (input dimensions..., output
    dimension) as a stored Tensor of `rat` entries.  A Tensor is built uniform,
    so one path shows its shape; one of this shape is kept, with its `dok`.
    Other data is walked level by level; an index path, to a misshapen level
    or to an entry `rat` refuses, is built only to raise."""
    if isinstance(data, Tensor) and _fits(data, shape):
        return data
    layer, seq = [data], (list, tuple)
    for level, d in enumerate(shape):
        if level:
            layer = [y for x in layer for y in x]
        for x in layer:
            if not isinstance(x, seq) or len(x) != d:
                where = field + _path(next(k for k, y in enumerate(layer) if y is x), shape[:level])
                got = len(x) if isinstance(x, seq) else type(x).__name__
                raise InputError(f"{where}: expected length {d}, got {got}")
    try:
        layer = [tuple(map(rat, x)) for x in layer]
    except InputError:
        for k, y in enumerate(y for x in layer for y in x):
            try:
                rat(y)
            except InputError as exc:
                raise InputError(f"{field}{_path(k, shape)}: {exc}") from None
    for level in reversed(range(len(shape) - 1)):
        d = shape[level]
        layer = list(zip(*[iter(layer)] * d)) if d else [()] * prod(shape[:level])
    return Tensor(layer[0])


def _fits(t, shape) -> bool:
    """Whether the first path through t has these lengths and ends in a Fraction."""
    for d in shape:
        if not isinstance(t, tuple) or len(t) != d:
            return False
        if not d:
            return True
        t = t[0]
    return t.__class__ is Fraction


def _path(k: int, dims) -> str:
    """The index path, "[i][j]...", of entry k of a row-major walk over dims."""
    return _path(k // dims[-1], dims[:-1]) + f"[{k % dims[-1]}]" if dims else ""


def require_shape(m, shape, field: str) -> None:
    """Raise InputError unless m is a Matrix of this (rows, cols) shape."""
    if not isinstance(m, Matrix) or (m.rows, m.cols) != shape:
        got = f"{m.rows}x{m.cols}" if isinstance(m, Matrix) else type(m).__name__
        raise InputError(f"{field}: expected a {shape[0]}x{shape[1]} Matrix, got {got}")


def dok(t) -> dict:
    """The dict-of-keys form of a multilinear map: (input indices..., output
    index) -> nonzero coefficient, int where integral.  A tensor T[i][j]
    gives keys (i, j, k), a vector v keys (k,); a Matrix, as the map
    v -> M·v, (column, row); a tuple of matrices M_i, as the map
    (x, v) -> Σ x_i M_i·v, (i, column, row).  A Tensor's or a Matrix's is
    its kept `dok`."""
    if isinstance(t, (Tensor, Matrix)):
        return t.dok
    if t and isinstance(t[0], Matrix):
        return {(i, *key): c for i, m in enumerate(t) for key, c in dok(m).items()}
    return _dok(t)


def _dok(t) -> dict:
    if not t or not isinstance(t[0], tuple):      # a leaf: a coordinate vector
        return {(k,): c for k, c in sparse_vec(t)}
    return {(i, *key): c for i, sub in enumerate(t) for key, c in _dok(sub).items()}


def from_dok(t, shape, zero=0) -> tuple:
    """The nested tuples of the given shape (input dimensions..., output
    dimension) holding t's coefficients, `zero` where t has no key: the
    inverse of `dok` on nested tuples.  The leaves no key ends in are one
    shared tuple of zeros."""
    *dims, out = shape
    leaves: dict = defaultdict(dict)
    for key, c in t.items():
        leaves[key[:-1]][key[-1]] = c
    empty, zeros = (zero,) * out, repeat(zero)
    def nest(prefix, dims):
        if not dims:
            return tuple(map(leaves[prefix].get, range(out), zeros)) if prefix in leaves else empty
        return tuple(nest((*prefix, i), dims[1:]) for i in range(dims[0]))
    return nest((), dims)


# The residual tensors (lhs − rhs) of the laws are built from expressions:
# (slot letters in sorted order, dok tensor keyed by one index per slot, then
# the output index).  A composite such as l3(l2(a,b), φ0 c, φ0 d) is built
# once in the slots a, b, c, d; each term of a law renames its slots.

def _ap(t: dict, *xs):
    """The multilinear map t (see `dok`) applied to its arguments, each a
    slot letter or an expression whose output feeds that input.  The
    arguments name distinct slots; each expression is substituted into its
    input in turn, from the left, and the result is keyed as `_sum` keys it."""
    slots = ""
    for x in xs:
        if isinstance(x, str):
            slots += x
            continue
        xslots, e = x
        by_out: dict = {}
        for key, c in e.items():
            by_out.setdefault(key[-1], []).append((key[:-1], c))
        p = len(slots)
        acc: dict = {}
        for key, u in t.items():
            head, tail = key[:p], key[p + 1:]
            for sub, c in by_out.get(key[p], ()):
                k = head + sub + tail
                acc[k] = acc.get(k, 0) + u * c
        t, slots = acc, slots + xslots
    if slots == "".join(sorted(slots)):
        return slots, {k: v for k, v in t.items() if v}
    return _sum((1, (slots, t)))


def _sum(*terms):
    """Σ sign · expr over terms (sign, expr) or (sign, expr, names), where
    `names` renames expr's slots.  Every term names the same slots, and the
    result is keyed by them in sorted order; it holds no zero."""
    args, acc = None, {}
    for sign, (slots, t), *rename in terms:
        names = rename[0] if rename else slots
        if args is None:
            args = "".join(sorted(names))
        elif sorted(names) != list(args):
            raise ValueError(f"_sum: slots {names!r} and {args!r} differ")
        pick = None if names == args else itemgetter(*map(names.index, args), len(names))
        for key, v in t.items():
            key = pick(key) if pick else key
            acc[key] = acc.get(key, 0) + sign * v
    return args, {key: v for key, v in acc.items() if v}


def _form(m: "Matrix") -> dict:
    """The bilinear form (x, y) -> x^T M y as a map into a line, keyed
    (row, column, 0): a law between matrices is a residual in these slots,
    and its least failing key is the first differing entry in row-major order."""
    return {(i, j, 0): c for (j, i), c in dok(m).items()}


def _product(a: "Matrix", b: "Matrix"):
    """A·B as an expression in the slots a (row) and b (column), keyed as `_form` keys."""
    return _ap(_form(a), "a", _ap(dok(b), "b"))


class Matrix:
    """Immutable dense matrix of Fractions, stored as row tuples.  Equality,
    hash and repr are those of the shape and the rows; `dok` is the map
    v -> M·v keyed (column, row), read-only: kept from `from_dok`, else built
    on first use.  Every operator is built by `from_dok` from a `dok` expression."""

    __slots__ = ("rows", "cols", "data", "_dok")

    def __init__(self, rows: int, cols: int, data):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(as_tensor(data, (rows, cols), "matrix")))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dok(cls, t: dict, rows: int, cols: int) -> "Matrix":
        """The rows x cols Matrix of the map t keyed (column, row), as `dok`
        keys one, with Fraction entries; t, as `_ints` gives it, is its `dok`."""
        m = cls.__new__(cls)
        data = from_dok({(i, j): rat(x) for (j, i), x in t.items()}, (rows, cols), F0)
        for name, value in (("rows", rows), ("cols", cols), ("data", data),
                            ("_dok", MappingProxyType(_ints(t)))):
            object.__setattr__(m, name, value)
        return m

    @classmethod
    def from_rows(cls, data) -> "Matrix":
        data = [list(row) for row in data]
        if not data:
            raise InputError("matrix needs at least one row; use zeros() for empty shapes")
        return cls(len(data), len(data[0]), data)

    @classmethod
    def from_columns(cls, columns: Sequence[Vec], rows: int | None = None) -> "Matrix":
        if not columns and rows is None:
            raise InputError("from_columns with no columns needs an explicit row count")
        n = len(columns[0]) if columns else rows
        if any(len(c) != n for c in columns):
            raise InputError("columns have differing lengths")
        return cls(n, len(columns), [[c[i] for c in columns] for i in range(n)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_dok({(i, i): 1 for i in range(n)}, n, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls.from_dok({}, rows, cols)

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = vec(entries)
        return cls.from_dok({(i, i): x for i, x in enumerate(entries)}, len(entries), len(entries))

    @property
    def dok(self) -> MappingProxyType:
        try:
            return self._dok
        except AttributeError:
            t = MappingProxyType({(j, i): c for (i, j), c in _dok(self.data).items()})
            object.__setattr__(self, "_dok", t)
            return t

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.cols)]

    # -- algebra -----------------------------------------------------------

    def apply(self, v: Vec) -> Vec:
        """M·v, one `_ap` over `dok`; an entry is an int where every product is
        of integral entries.  Kept only as a tracer target of the benchmark:
        the package evaluates with `_ap`."""
        if len(v) != self.cols:
            raise InputError(f"vector length {len(v)} != cols {self.cols}")
        out = _ap(dok(self), ("", dok(v)))[1]
        return tuple(out.get((i,), 0) for i in range(self.rows))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.shape()} by {other.shape()}")
        return Matrix.from_dok(_ap(dok(self), ("j", dok(other)))[1], self.rows, other.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape() != other.shape():
            raise InputError(f"shape mismatch: {self.shape()} vs {other.shape()}")
        return Matrix.from_dok(_sum((1, ("j", dok(self))), (1, ("j", dok(other))))[1],
                               self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other if isinstance(other, Matrix) else NotImplemented

    def __neg__(self) -> "Matrix":
        return Matrix.from_dok({key: -x for key, x in dok(self).items()}, self.rows, self.cols)

    def transpose(self) -> "Matrix":
        return Matrix.from_dok({(i, j): x for (j, i), x in dok(self).items()}, self.cols, self.rows)

    # -- predicates ----------------------------------------------------------

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not dok(self)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.shape() == other.shape()
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _ints(t: dict) -> dict:
    """t without its zero entries, each entry an int where integral."""
    return {key: x.numerator if x.denominator == 1 else x for key, x in t.items() if x}


def _rref(t: dict, ncols: int) -> tuple[list[int], list[dict]]:
    """Gauss–Jordan on the rows of t, a map keyed (column, row) as `dok` keys a
    Matrix, with no zero entry: each row is scaled to ints (rows already all
    ints as they are), eliminated fraction-free and divided by its content.
    Each pivot column in turn takes the unused row with the fewest nonzeros,
    then the least row key (Markowitz); an index of the rows nonzero in each
    column, kept current as rows change, finds the candidates.  Columns
    >= ncols ride along.  Returns (pivot columns, int rows {column: value}),
    pivot rows first: row r of the unique RREF is int row r over its pivot
    entry."""
    irows: dict = defaultdict(dict)
    held: dict = defaultdict(set)   # column -> the rows nonzero there
    scale = set()                   # the rows holding a Fraction
    for (j, i), x in t.items():
        irows[i][j] = x
        held[j].add(i)
        if x.__class__ is not int:
            scale.add(i)
    for i in scale:
        row = irows[i]
        d = lcm(*(x.denominator for x in row.values()))
        irows[i] = {j: x.numerator * (d // x.denominator) for j, x in row.items()}
    free, pivots, order = set(irows), [], []
    for c in sorted(j for j in held if j < ncols):
        p = min((i for i in held[c] if i in free), key=lambda i: (len(irows[i]), i), default=None)
        if p is None:
            continue
        prow = irows[p]
        for i in [i for i in held[c] if i != p]:
            row = irows[i]
            g = gcd(prow[c], row[c])
            a, b = prow[c] // g, row[c] // g
            new = {j: a * x for j, x in row.items()}
            for j, y in prow.items():
                x = new.get(j, 0) - b * y
                if x:
                    if j not in new:
                        held[j].add(i)
                    new[j] = x
                else:          # b·y != 0, so j was in the row
                    del new[j]
                    held[j].discard(i)
            g = gcd(*new.values())
            irows[i] = {j: x // g for j, x in new.items()} if g > 1 else new
        free.discard(p)
        pivots.append(c)
        order.append(p)
        if not free:
            break
    return pivots, [irows[i] for i in order] + [irows[i] for i in sorted(free)]


def _kernel(t: dict, ncols: int) -> tuple[list[int], dict]:
    """(free columns, kernel basis) of the map t (see `_rref`).  Column l of the
    basis map is the int vector of the l-th free column j: zero at the other
    free columns, s > 0 at j, and over s the vector `rank_and_kernel` returns."""
    pivots, irows = _rref(t, ncols)
    above: dict = {}   # column j -> (pivot column, entry at j, pivot entry) per row
    for pc, row in zip(pivots, irows):
        for j, x in row.items():
            above.setdefault(j, []).append((pc, x, row[pc]))
    free, kernel = sorted(set(range(ncols)) - set(pivots)), {}
    for l, j in enumerate(free):
        s = kernel[l, j] = lcm(*(pv for _, _, pv in above.get(j, ())))
        for pc, x, pv in above.get(j, ()):
            kernel[l, pc] = -x * (s // pv)
    return free, kernel


def _fraction_kernel(t: dict, ncols: int) -> tuple[int, list[Vec]]:
    """Rank and the normalised Fraction kernel basis of the map t."""
    free, kernel = _kernel(t, ncols)
    out = [[F0] * ncols for _ in free]
    for (l, i), x in kernel.items():
        out[l][i] = Fraction(x, kernel[l, free[l]])
    return ncols - len(free), list(map(tuple, out))


def _in_span(t: dict, n: int, v: dict) -> bool:
    """Whether v, a vector keyed (index,) as `dok` keys one, is a rational
    combination of the columns 0..n−1 of the map t; v joins t as column n."""
    pivots, rows = _rref({**t, **{(n, *key): x for key, x in v.items()}}, n)
    return not any(n in row for row in rows[len(pivots):])


def rank_and_kernel(m: Matrix) -> tuple[int, list[Vec]]:
    """Rank of m and a basis of its right kernel (exact).

    rank + len(kernel) == m.cols, every kernel vector v satisfies m·v = 0,
    and the kernel vectors are linearly independent by construction (each
    has a 1 in a distinct free column).
    """
    return _fraction_kernel(dok(m), m.cols)


def rank(m: Matrix) -> int:
    return rank_and_kernel(m)[0]


def solve_linear(m: Matrix, b: Vec) -> Vec | None:
    """One exact solution x of m·x = b, or None iff b is outside the column space.

    Free variables are set to zero, so the result is deterministic.
    """
    if len(b) != m.rows:
        raise InputError(f"rhs length {len(b)} != rows {m.rows}")
    pivots, rows = _rref({**dok(m), **{(m.cols, i): x for i, x in sparse_vec(vec(b))}}, m.cols)
    if any(m.cols in row for row in rows[len(pivots):]):
        return None
    sol = dict(zip(pivots, rows))
    return tuple(Fraction(sol[c].get(m.cols, 0), sol[c][c]) if c in sol else F0
                 for c in range(m.cols))


def in_span(vectors: Sequence[Vec], target: Vec) -> bool:
    """True iff target is a rational linear combination of the given vectors."""
    target = vec(target)
    if any(len(v) != len(target) for v in vectors):
        raise InputError("in_span: vectors must all have the same length")
    t = {(j, i): x for j, v in enumerate(vectors) for i, x in sparse_vec(vec(v))}
    return _in_span(t, len(vectors), dok(target))


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises InputError when m is singular."""
    if m.rows != m.cols:
        raise InputError("inverse of a non-square matrix")
    n = m.rows
    pivots, rows = _rref({**dok(m), **{(n + i, i): 1 for i in range(n)}}, n)
    if len(pivots) != n:
        raise InputError("matrix is singular")
    return Matrix(n, n, [[Fraction(r.get(n + j, 0), r[i]) for j in range(n)]
                         for i, r in enumerate(rows)])


def det_of(rows: Sequence[Vec]) -> Fraction:
    """Determinant of a small square array given as row vectors (permutation
    expansion).  Kept only as a tracer target of the benchmark: no module of
    the package calls it."""
    k = len(rows)
    if k == 0:
        return F1
    if any(len(r) != k for r in rows):
        raise InputError("det_of needs a square array")
    total = F0
    for perm in permutations(range(k)):
        term = F1
        for i, j in enumerate(perm):
            a = rows[i][j]
            if a == 0:
                term = F0
                break
            term *= a
        if term == 0:
            continue
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        total += -term if inversions % 2 else term
    return total
