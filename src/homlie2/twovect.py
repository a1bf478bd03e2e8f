"""2-vector spaces presented by 2-term complexes.

A 2-term complex d: V1 -> V0 presents a category internal to vector spaces:
objects V0, morphisms V0 ⊕ V1, source s(v,m) = v, target t(v,m) = v + d m,
identities i(v) = (v,0), and vertical composition

    (v, m) . (v + dm, m') = (v, m + m').

A linear endofunctor is a pair (A0, A1) with A0∘d = d∘A1
(`check_linear_functor`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .exactlin import Matrix, Vec, _ap, _product, _sum, dok, from_dok, require_shape

Morphism = tuple  # (Vec over V0, Vec over V1)


@dataclass(frozen=True)
class TwoVectorSpace:
    dim0: int
    dim1: int
    d: Matrix

    def __post_init__(self):
        require_shape(self.d, (self.dim0, self.dim1), "d")

    def source(self, mor: Morphism) -> Vec:
        return mor[0]

    def target(self, mor: Morphism) -> Vec:
        """v + d m for the arrow (v, m), one `_sum` of `dok` expressions."""
        if (len(mor[0]), len(mor[1])) != (self.dim0, self.dim1):
            raise InputError(f"arrow parts have lengths {len(mor[0])} and {len(mor[1])}, "
                             f"expected {self.dim0} and {self.dim1}")
        return from_dok(_sum((1, ("", dok(mor[0]))), (1, _ap(dok(self.d), ("", dok(mor[1])))))[1],
                        (self.dim0,))

    def ident(self, obj: Vec) -> Morphism:
        return (tuple(obj), (0,) * self.dim1)

    def compose(self, first: Morphism, second: Morphism) -> Morphism:
        """Vertical composition; the morphisms must abut exactly."""
        if len(second[1]) != self.dim1 or self.target(first) != self.source(second):
            raise InputError("morphisms do not compose: target != source, or a V1-part's length")
        return (first[0], from_dok(_sum((1, ("", dok(first[1]))), (1, ("", dok(second[1]))))[1],
                                   (self.dim1,)))

    def mor_from_coords(self, coords: Vec) -> Morphism:
        return (tuple(coords[:self.dim0]), tuple(coords[self.dim0:]))


def from_complex(d: Matrix) -> TwoVectorSpace:
    """The 2-vector space of a 2-term complex d: V1 -> V0."""
    return TwoVectorSpace(d.rows, d.cols, d)


def check_linear_functor(pair: tuple[Matrix, Matrix], tvs: TwoVectorSpace) -> bool:
    """(A0, A1) is a linear endofunctor iff A0∘d = d∘A1 (exactly)."""
    a0, a1 = pair
    require_shape(a0, (tvs.dim0,) * 2, "A0")
    require_shape(a1, (tvs.dim1,) * 2, "A1")
    return not _sum((1, _product(a0, tvs.d)), (-1, _product(tvs.d, a1)))[1]
