"""Records keep the tensors they are given, and `scan_zero` counts its cases.

`Tensor.from_dok(t, shape)` must store what `as_tensor` stores for
`from_dok(t, shape)`, with t, normalised as `dok` normalises, as its kept
`dok`.  A record handed a Tensor of its shape keeps that object and its
`dok`; one of another shape raises the InputError nested tuples raise.
Only the coercion and `Tensor.from_dok` build a Tensor in src/homlie2.
`LawChecker.scan_zero` must give the verdict, the witness and the number of
consumed (witness, ok) pairs of the product walk it replaced
(`helpers.reference_scan_zero`).
"""

import ast
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_scan_zero, shift_strict, sl2_sum
from homlie2.constructions import HomLeftSymmetric, string_from_semisimple
from homlie2.errors import InputError
from homlie2.exactlin import Matrix, Tensor, _dok, as_tensor, from_dok
from homlie2.hl2 import HLMorphism, HomLie2Data, TwoTermHL, functor_S, functor_T
from homlie2.homlie import HomLieAlgebra
from homlie2.reports import LawChecker
from homlie2.twovect import from_complex

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src" / "homlie2"

# non-integral and integral Fractions, ints, and explicit zeros of both kinds
COEFFS = [F(1, 2), F(-7, 3), F(3), F(-1), 2, -5, 1, 0, F(0)]


def random_map(rng: random.Random, shape, density=0.3) -> dict:
    return {key: rng.choice(COEFFS) for key in product(*map(range, shape))
            if rng.random() < density}


def typed(t) -> list:
    """t's items with each coefficient's class, so that 3 and Fraction(3) differ."""
    return sorted((key, type(c).__name__, c) for key, c in t.items())


@given(st.integers(0, 10 ** 6), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_tensor_from_dok_stores_what_the_coercion_of_from_dok_stores(seed, n0, n1, out, three):
    rng = random.Random(seed)
    shape = (n0, n0, n0, out) if three else (n0, n1, out)
    m = random_map(rng, shape, density=rng.choice((0, 0.3, 1)))
    t = Tensor.from_dok(m, shape)
    want = as_tensor(from_dok(m, shape), shape, "t")
    assert type(t) is Tensor and repr(t) == repr(want)
    assert typed(t.dok) == typed(_dok(want)) == typed(_dok(t))
    assert all(type(x) is Fraction for x in _leaf_entries(t, len(shape) - 2))
    with pytest.raises(TypeError):
        t.dok[next(iter(product(*map(range, shape))), ())] = 1


def _leaf_entries(t, depth):
    for _ in range(depth):
        t = [y for x in t for y in x]
    return [x for leaf in t for x in leaf]


def _tensor(rng, shape):
    return Tensor.from_dok(random_map(rng, shape), shape)


def test_records_keep_a_tensor_of_their_shape_with_its_dok():
    rng = random.Random(5)
    n0, n1 = 3, 2
    phi0, phi1 = Matrix.identity(n0), Matrix.identity(n1)
    kept = []

    def handed(t):
        kept.append((t, t.dok))
        return t

    g = HomLieAlgebra(n0, handed(_tensor(rng, (n0, n0, n0))), phi0)
    v = TwoTermHL(n0, n1, Matrix.zeros(n0, n1), handed(_tensor(rng, (n0, n0, n0))),
                  handed(_tensor(rng, (n0, n1, n1))), handed(_tensor(rng, (n0, n0, n0, n1))),
                  phi0, phi1)
    m = HLMorphism(v, v, phi0, phi1, handed(_tensor(rng, (n0, n0, n1))))
    nm = n0 + n1
    L = HomLie2Data(from_complex(v.d), handed(_tensor(rng, (n0, n0, n0))),
                    handed(_tensor(rng, (nm, nm, nm))), phi0, Matrix.identity(nm),
                    handed(_tensor(rng, (n0, n0, n0, n1))))
    a = HomLeftSymmetric(n0, handed(_tensor(rng, (n0, n0, n0))), phi0)
    stored = [g.bracket, v.l2_00, v.l2_01, v.l3, m.f2, L.bracket_obj, L.bracket_mor, L.jac,
              a.star]
    assert len(stored) == len(kept)
    for s, (t, d) in zip(stored, kept):
        assert s is t and vars(s)["dok"] is d


def test_the_functors_pass_their_tensors_on():
    for v in (string_from_semisimple(sl2_sum(2)), shift_strict(sl2_sum(2))):
        L = functor_T(v)
        assert L.bracket_obj is v.l2_00 and L.jac is v.l3
        assert "dok" in vars(L.bracket_mor)
        w = functor_S(L)
        assert w == v and w.l2_00 is v.l2_00 and w.l3 is v.l3
        # a coerced tensor, whose dok is not built yet, is kept too
        g = HomLieAlgebra(v.dim0, v.l2_00, v.phi0)
        assert g.bracket is v.l2_00


WRONG = [  # (stored shape, the shape a field asks for)
    ((2, 2, 3), (2, 2, 2)), ((2, 2, 1), (2, 2, 2)), ((1, 2, 2), (2, 2, 2)),
    ((2, 1, 2), (2, 2, 2)), ((2, 2, 2, 2), (2, 2, 2)), ((3, 3, 3), (2, 2, 2)),
    ((2, 2, 2), (2, 2, 2, 1)), ((2, 2, 1, 1), (2, 2, 2, 1)), ((2, 2, 2, 2), (2, 2, 2, 1)),
    ((0, 2, 2), (2, 2, 2)), ((2, 2, 2, 1, 1), (2, 2, 2, 1)),
    ((3, 3, 2), (2, 2, 2)), ((2, 3, 2), (2, 2, 2)),
]


def _outcome(data, want):
    try:
        return repr(as_tensor(data, want, "f"))
    except InputError as exc:
        return f"InputError: {exc}"


@pytest.mark.parametrize("have, want", WRONG)
def test_a_tensor_of_another_shape_is_coerced_as_nested_tuples_are(have, want):
    """The InputError of the nested tuples, exactly; a larger tensor is refused, not truncated."""
    t = _tensor(random.Random(len(have)), have)
    plain = from_dok({key: F(c) for key, c in t.dok.items()}, have, F(0))  # nested tuples
    assert plain == t and type(plain) is tuple
    assert _outcome(t, want) == _outcome(plain, want)
    assert _outcome(t, want).startswith("InputError")
    if len(want) == 3:
        with pytest.raises(InputError):
            HomLieAlgebra(2, t, Matrix.identity(2))
    else:
        with pytest.raises(InputError):
            TwoTermHL(2, 1, Matrix.zeros(2, 1), Tensor.from_dok({}, (2, 2, 2)),
                      Tensor.from_dok({}, (2, 1, 1)), t, Matrix.identity(2), Matrix.identity(1))


def _tensor_builders():
    """(module, enclosing function) of every call in src/homlie2 that builds a
    Tensor: a call of Tensor or a name bound to it, or of `cls` inside Tensor."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {"Tensor"} | {target.id for node in ast.walk(tree)
                              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                              and node.value.id == "Tensor"
                              for target in node.targets if isinstance(target, ast.Name)}
        stack = [(tree, "<module>", False)]
        while stack:
            node, where, in_tensor = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    stack.append((child, child.name, child.name == "Tensor"))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    name = getattr(child, "name", "<lambda>")
                    stack.append((child, f"{where}.{name}" if in_tensor else name, in_tensor))
                else:
                    if isinstance(child, ast.Call):
                        f = child.func
                        called = f.id if isinstance(f, ast.Name) else \
                            f.attr if isinstance(f, ast.Attribute) else None
                        if called in names or (in_tensor and called == "cls"):
                            yield path.name, where
                    stack.append((child, where, in_tensor))


def test_only_the_coercions_build_a_tensor():
    assert set(_tensor_builders()) == {("exactlin.py", "as_tensor"),
                                       ("exactlin.py", "Tensor.from_dok")}


def _counted(law, dims, residual, scan_zero) -> tuple:
    """(report item, pairs consumed) of one scan, counted by wrapping `scan`."""
    chk, consumed = LawChecker("t"), [0]
    scan = chk.scan

    def counting(law, pairs, note=""):
        def counted():
            for pair in pairs:
                consumed[0] += 1
                yield pair
        return scan(law, counted(), note)

    chk.scan = counting
    passed = scan_zero(chk, law, dims, residual, note="n")
    item = chk.report().items[0]
    assert passed is item.passed
    return item, consumed[0]


@given(st.integers(0, 10 ** 6), st.lists(st.integers(0, 4), min_size=1, max_size=5),
       st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_scan_zero_counts_what_the_product_walk_consumed(seed, dims, extra):
    """Random dims, a 0 among them now and then, and random failing sets, each
    key the tuple, `extra` further slots and an output index."""
    rng = random.Random(seed)
    tuples = list(product(*map(range, dims)))
    failing = rng.sample(tuples, min(len(tuples), rng.choice((0, 1, 2, 5))))
    residual = {(*t, *(rng.randrange(3) for _ in range(extra + 1))): rng.choice((1, F(1, 2)))
                for t in failing}
    got = _counted("law", tuple(dims), residual, LawChecker.scan_zero)
    want = _counted("law", tuple(dims), residual, reference_scan_zero)
    assert got == want
    assert type(got[0].witness) is type(want[0].witness)
    if 0 in dims:
        assert got == _counted("law", tuple(dims), {}, reference_scan_zero)
        assert got[0].passed and got[1] == 0
