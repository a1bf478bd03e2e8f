"""Each construction and round trip validates each piece of data once.

The counts wrap a check in every `homlie2` module that binds it, so calls
through `from .x import check` copies are counted too.
"""

import sys
from pathlib import Path

from homlie2.cohomology import class_is_trivial, trivial_representation
from homlie2.constructions import (QuadraticHomLie, l3_from_B, sl2_example,
                                   strict_from_symplectic, string_from_semisimple)
from helpers import sl2_sum
from homlie2.homlie import killing_form
from homlie2.hl2 import roundtrip_check
from homlie2.modelfile import load_model

FIX = Path(__file__).parent.parent / "fixtures"


def count_calls(monkeypatch, module_name: str, name: str) -> list:
    """Wrap homlie2.<module_name>.<name> at every binding; the list grows by one per call."""
    original = getattr(sys.modules[f"homlie2.{module_name}"], name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if module is not None and (key == "homlie2" or key.startswith("homlie2.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_roundtrip_checks_the_extracted_structure_once(monkeypatch):
    v = string_from_semisimple(sl2_example())
    calls = count_calls(monkeypatch, "hl2", "check_two_term")
    assert roundtrip_check(v).ok
    assert len(calls) == 1


def test_string_checks_the_algebra_and_form_once(monkeypatch):
    g = sl2_example()
    hom_lie = count_calls(monkeypatch, "homlie", "check_hom_lie")
    quadratic = count_calls(monkeypatch, "constructions", "check_quadratic")
    string_from_semisimple(g)
    assert len(hom_lie) == 2  # g, and its untwisted algebra g_phi
    assert hom_lie[0][0] is g and hom_lie[1][0] is not g
    assert len(quadratic) == 1


def test_strict_from_symplectic_checks_the_product_once(monkeypatch):
    s = load_model(FIX / "symplectic_nontrivial4.json")
    calls = count_calls(monkeypatch, "constructions", "check_left_symmetric")
    strict_from_symplectic(s)
    assert len(calls) == 1


def test_class_is_trivial_tests_the_hom_cochain_condition_once(monkeypatch):
    g = sl2_example()
    f = l3_from_B(QuadraticHomLie(g, killing_form(g)))
    calls = count_calls(monkeypatch, "cohomology", "is_hom_cochain")
    assert not class_is_trivial(f, trivial_representation(g))
    assert len(calls) == 1
    string_from_semisimple(g)
    assert len(calls) == 2  # and once in the string, in l3_from_B's coboundary


def test_string_builds_the_degree_3_system_and_coboundary_once(monkeypatch):
    """l3_from_B's closedness test and the exactness solve share one
    representation, so the degree-3 hom-cochain system and d_3 are built once.
    `_coboundary` builds d_k, for `coboundary_matrix` too."""
    system = count_calls(monkeypatch, "cohomology", "_hom_system")
    d = count_calls(monkeypatch, "cohomology", "_coboundary")
    string_from_semisimple(sl2_sum(3))
    assert [args[1] for args in system].count(3) == 1
    assert [args[1] for args in d].count(3) == 1
