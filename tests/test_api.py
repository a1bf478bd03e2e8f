"""The package namespace, and the names the benchmark's tracer patches.

`bench/tracer.py` wraps the functions and methods in its TARGETS by name;
a deletion or rename here must fail these tests, not the traced run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

import homlie2
from homlie2.exactlin import Matrix
from homlie2.reports import LawChecker

BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def load_tracer_module() -> ModuleType:
    """Import bench/tracer.py without writing anything under bench/."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    saved_modules = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
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
    tracer = load_tracer_module()
    assert tracer.TARGETS
    for modname, attr, _layer, _keep in tracer.TARGETS:
        module = importlib.import_module(f"homlie2.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{modname}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
    assert "scan" in vars(LawChecker)
