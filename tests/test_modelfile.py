import json
from fractions import Fraction
from pathlib import Path

import pytest

from homlie2.modelfile import (ModelError, load_model, parse_model,
                               serialize_model)


def all_fixture_paths():
    return sorted((Path(__file__).parent.parent / "fixtures").glob("*.json"))


@pytest.mark.parametrize("path", all_fixture_paths(), ids=lambda p: p.name)
def test_roundtrip_bit_exact(path):
    record = load_model(path)
    text = serialize_model(record)
    again = parse_model(text)
    assert again == record
    assert serialize_model(again) == text
    # committed fixtures are in canonical form already
    assert path.read_text(encoding="utf-8") == text


def test_all_kinds_covered_by_fixtures():
    kinds = set()
    for path in all_fixture_paths():
        kinds.add(type(load_model(path)).__name__)
    assert {"HomLieAlgebra", "TwoTermHL", "Representation", "CrossedModule",
            "LeftSymmetricFile", "SymplecticHomLie", "HLMorphism"} <= kinds


def test_zero_denominator_rejected():
    text = Path(all_fixture_paths()[0]).read_text()
    sl2 = (Path(__file__).parent.parent / "fixtures" / "sl2.json").read_text()
    bad = sl2.replace('"-1"', '"1/0"', 1)
    with pytest.raises(ModelError, match="bad rational"):
        parse_model(bad)


@pytest.mark.parametrize("literal", [
    "1.5", "1e3", "1E3", "1_000", " 7 ", "7\n", "+3", "1/-2", "1/2/3", "0x10", "", "-", "/2",
    "\u0663", "inf", "nan",
])
def test_only_integers_and_p_over_q_are_rationals(literal):
    sl2 = (Path(__file__).parent.parent / "fixtures" / "sl2.json").read_text()
    bad = sl2.replace('"-1"', json.dumps(literal), 1)
    with pytest.raises(ModelError, match=r"\$\.bracket\[0\]\[1\]\[2\]: bad rational"):
        parse_model(bad)


@pytest.mark.parametrize("literal, value", [("-0", 0), ("007", 7), ("6/4", Fraction(3, 2)),
                                            ("-12/3", -4)])
def test_documented_rational_forms_are_accepted(literal, value):
    sl2 = (Path(__file__).parent.parent / "fixtures" / "sl2.json").read_text()
    g = parse_model(sl2.replace('"-1"', json.dumps(literal), 1))
    assert g.bracket[0][1][2] == value


def test_syntax_error_reports_line_and_column():
    with pytest.raises(ModelError, match=r"line \d+, column \d+"):
        parse_model('{"kind": "hom_lie",')


def test_unknown_field_rejected():
    sl2 = (Path(__file__).parent.parent / "fixtures" / "sl2.json").read_text()
    bad = sl2.replace('"dim": 3', '"dim": 3, "extra": 1', 1)
    with pytest.raises(ModelError, match="unknown field"):
        parse_model(bad)


def test_missing_field_rejected():
    with pytest.raises(ModelError, match="missing field"):
        parse_model('{"kind": "hom_lie", "dim": 1, "bracket": [[["0"]]]}')


def test_unknown_kind_rejected():
    with pytest.raises(ModelError, match="expected one of"):
        parse_model('{"kind": "mystery"}')


def test_shape_error_names_field():
    with pytest.raises(ModelError, match=r"\$\.phi"):
        parse_model('{"kind": "hom_lie", "dim": 1, "bracket": [[["0"]]], "phi": [["1", "0"]]}')


def test_integers_accepted_but_serialized_as_strings():
    doc = '{"kind": "hom_lie", "dim": 1, "bracket": [[[0]]], "phi": [[1]]}'
    record = parse_model(doc)
    out = serialize_model(record)
    assert '"1"' in out
    assert parse_model(out) == record
