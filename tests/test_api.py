"""The package namespace, and what the benchmark's tracer relies on.

`bench/tracer.py` wraps the functions and methods in its TARGETS by name,
and on passing inputs requires every law scan to consume the number of
cases `bench/oracles.py` derives from the dimensions.  A deletion, a rename
or a changed scan must fail these tests, not the traced run.
"""

import ast
import importlib
import importlib.util
import random
import sys
from pathlib import Path
from types import ModuleType

import pytest

import homlie2
from helpers import shift_strict, sl2_sum
from homlie2.constructions import sl2_example, string_from_semisimple
from homlie2.exactlin import Matrix, Tensor
from homlie2.hl2 import check_hom_lie2, check_two_term, functor_T
from homlie2.homlie import HomLieAlgebra, check_hom_lie
from homlie2.reports import LawChecker

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(homlie2.__file__).resolve().parent


def test_all_names_resolve_and_are_not_modules():
    assert len(homlie2.__all__) == len(set(homlie2.__all__)) > 0
    for name in homlie2.__all__:
        assert not isinstance(getattr(homlie2, name), ModuleType), name
    namespace = {}
    exec("from homlie2 import *", namespace)
    assert not any(isinstance(v, ModuleType) for v in namespace.values())


def test_removed_names_are_gone():
    for name in ("end0_basis", "end1_basis", "end_dgla_check"):
        assert name not in homlie2.__all__
        assert not hasattr(homlie2, name) and not hasattr(homlie2.twovect, name)
    assert not hasattr(Matrix, "scale") and not hasattr(Matrix, "is_skew")
    assert not hasattr(Matrix, "row") and not hasattr(homlie2.TwoVectorSpace, "mor_coords")
    for name in ("_apply_rows", "_images", "_coboundary_rows"):
        assert not hasattr(homlie2.cohomology, name), name
    assert not hasattr(homlie2.exactlin, "_transpose")
    assert not hasattr(Matrix, "power") and not hasattr(LawChecker, "add_matrix_eq")
    for name in ("is_identity", "is_symmetric", "trace"):
        assert not hasattr(Matrix, name), name
    for module, name in ((homlie2.homlie, "as_tensor2"), (homlie2.hl2, "as_tensor3"),
                         (homlie2.homlie, "Tensor2"), (homlie2.hl2, "Tensor3")):
        assert not hasattr(module, name), name
    assert not hasattr(Tensor, "has_shape")
    for name in ("vadd", "vneg", "vscale", "is_zero_vec", "zero_vec"):
        assert not hasattr(homlie2.exactlin, name), name


def test_per_tuple_evaluators_of_the_old_law_scans_are_gone():
    for cls, names in (
            (homlie2.TwoTermHL, ("l2_vv", "l2_mv", "l3_eval", "basis0")),
            (homlie2.HomLie2Data, ("b_obj", "b_mor", "phi_obj", "phi_mor", "jac_eval", "jac_mor")),
            (homlie2.TwoVectorSpace, ("mor_basis",)),
            (homlie2.CrossedModule, ("act",)),
            (homlie2.HomLeftSymmetric, ("star_vec", "basis")),
            (homlie2.Representation, ("rho_at",)),
            (homlie2.HomLieAlgebra, ("bracket_vec", "phi_vec")),
            (homlie2.TwoTermHL, ("l2_vm", "basis1")),
            (homlie2.HLMorphism, ("f2_eval",)),
            (homlie2.QuadraticHomLie, ("pair",)),
            (homlie2.SymplecticHomLie, ("pair",)),
            (Tensor, ("sparse",)),
            (Matrix, ("_sparse_cols",)),
            (homlie2.exactlin, ("sparse_form", "_sparse")),
            (homlie2.constructions, ("_pair",))):
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"


def test_only_the_defining_module_names_a_tracer_only_function():
    """`bilinear_eval`, `trilinear_eval` and `det_of` stay only as targets of
    `bench/tracer.py`; no other module of src/homlie2 may name them."""
    defining = {"bilinear_eval": "homlie.py", "trilinear_eval": "hl2.py", "det_of": "exactlin.py"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        for name, home in defining.items():
            assert path.name == home or name not in names, f"{path.name} names {name}"


def test_no_module_imports_a_name_it_never_uses():
    """Deleted code leaves its imports behind, and no linter runs on this
    package, so each module of src/homlie2 but the re-exporting __init__
    must use every name it imports."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"


def load_bench_module(name: str) -> ModuleType:
    """Import bench/<name>.py without writing anything under bench/."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    saved_modules = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for key in set(sys.modules) - saved_modules:  # the bench's own modules
            if str(BENCH) in str(getattr(sys.modules[key], "__file__", None)):
                del sys.modules[key]
    return module


def test_every_tracer_target_resolves():
    tracer = load_bench_module("tracer")
    assert tracer.TARGETS
    for modname, attr, _layer, _keep in tracer.TARGETS:
        module = importlib.import_module(f"homlie2.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{modname}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
    assert "scan" in vars(LawChecker)


def count_scanned_cases(monkeypatch) -> dict:
    """Patch LawChecker.scan to record {(subject, law): pairs consumed}."""
    counts = {}
    scan = LawChecker.scan

    def counting(checker, law, pairs, note=""):
        consumed = 0

        def counted():
            nonlocal consumed
            for pair in pairs:
                consumed += 1
                yield pair

        passed = scan(checker, law, counted(), note)
        counts[(checker.subject, law)] = consumed
        return passed

    monkeypatch.setattr(LawChecker, "scan", counting)
    return counts


@pytest.mark.parametrize("make", [
    lambda: string_from_semisimple(sl2_sum(1)),
    lambda: string_from_semisimple(sl2_sum(2)),
    lambda: shift_strict(sl2_example()),
    lambda: shift_strict(sl2_sum(2)),      # 46,656 bracket-interchange cases
])
def test_scans_consume_the_benchmark_case_counts(make, monkeypatch):
    oracles = load_bench_module("oracles")
    v = make()
    counts = count_scanned_cases(monkeypatch)
    assert check_two_term(v).ok and check_hom_lie2(functor_T(v)).ok
    two_term = {**oracles.two_term_cases(v.dim0, v.dim1), "phi-chain": v.dim0 * v.dim1}
    for subject, expected in (("two_term_hl", two_term),
                              ("hom_lie2", oracles.hom_lie2_cases(v.dim0, v.dim1))):
        assert {law: n for (s, law), n in counts.items() if s == subject} == expected


@pytest.mark.parametrize("c", [1, 2])
def test_check_hom_lie_consumes_the_benchmark_case_counts(c, monkeypatch):
    oracles = load_bench_module("oracles")
    g = sl2_sum(c)
    counts = count_scanned_cases(monkeypatch)
    assert check_hom_lie(g).ok
    assert {law: n for (s, law), n in counts.items() if s == "hom_lie"} == \
        oracles.hom_lie_cases(g.dim)


def integral_candidate(rng: random.Random) -> tuple[list, list]:
    """A small int bracket and twist: sparse random relations, mostly skew,
    or sl(2)^1 / sl(2)^2 with one entry changed."""
    if rng.random() < 0.25:
        g = sl2_sum(rng.choice((1, 2)))
        n = g.dim
        br = [[[int(x) for x in v] for v in row] for row in g.bracket]
        phi = [[int(x) for x in row] for row in g.phi.data]
        if rng.random() < 0.5:
            br[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1, 2))
        else:
            phi[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1))
        return br, phi
    n = rng.randint(1, 4)
    br = [[[0] * n for _ in range(n)] for _ in range(n)]
    for _ in range(rng.randrange(4)):
        i, j = rng.randrange(n), rng.randrange(n)
        v = [rng.choice((0, 0, 1, -1, 2)) for _ in range(n)]
        br[i][j] = v
        br[j][i] = [-x for x in v] if rng.random() < 0.9 else list(v)
    if rng.random() < 0.5:
        phi = [[rng.choice((1, -1, 2)) if i == j else 0 for j in range(n)] for i in range(n)]
    else:
        phi = [[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(n)]
    return br, phi


def test_check_hom_lie_matches_the_benchmark_oracle():
    """`bench/oracles.py` checks the hom-Lie laws with its own plain-int code."""
    oracles = load_bench_module("oracles")
    rng = random.Random(8)
    verdicts = set()
    for _ in range(400):
        br, phi = integral_candidate(rng)
        n = len(phi)
        report = check_hom_lie(HomLieAlgebra(n, br, Matrix(n, n, phi)))
        got = [(it.law, it.passed, it.witness) for it in report.items]
        assert got == oracles.hom_lie_items(br, phi), (br, phi)
        verdicts |= {(law, ok) for law, ok, _ in got}
    assert len(verdicts) == 6  # every law both passes and fails somewhere
