import contextlib
import copy
import io
import json
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie2.cli import main
from homlie2.constructions import QuadraticHomLie, sl2_example
from homlie2.errors import InputError
from homlie2.exactlin import Matrix
from homlie2.homlie import killing_form
from homlie2.modelfile import (FILE_KIND, KINDS, SCHEMAS, LeftSymmetricFile,
                               ModelError, load_model, parse_model,
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


# --------------------------------------------------------------------------
# One schema table for parse and serialize
# --------------------------------------------------------------------------

FIXTURE_DOCS = {path.name: json.loads(path.read_text(encoding="utf-8"))
                for path in all_fixture_paths()}


@pytest.mark.parametrize("name", sorted(FIXTURE_DOCS))
def test_a_files_fields_are_its_records_fields_in_order(name):
    """A document lists "kind" and then its record's dataclass fields, in
    order, nested records too; only a left_symmetric file adds `d`."""
    def check(doc):
        cls = SCHEMAS[doc["kind"]][0]
        names = ["kind", *(f.name for f in fields(cls))]
        assert list(doc)[:len(names)] == names
        assert list(doc)[len(names):] == (["d"] if doc["kind"] == "left_symmetric" else [])
        for value in doc.values():
            if isinstance(value, dict):
                check(value)
    check(FIXTURE_DOCS[name])


def test_the_table_names_every_field_that_is_not_a_dimension():
    """A field SCHEMAS leaves out is an int; one it gives a kind holds that
    kind's record; every other is an array with a shape."""
    for cls, spec in SCHEMAS.values():
        hints = get_type_hints(cls)
        assert set(spec) <= {f.name for f in fields(cls)}
        for f in fields(cls):
            what = spec.get(f.name)
            if what is None:
                assert hints[f.name] is int, (cls, f.name)
            elif isinstance(what, str):
                assert hints[f.name] is SCHEMAS[what][0], (cls, f.name)
            else:
                assert callable(what) and hints[f.name] is not int, (cls, f.name)


def test_kinds_and_file_kinds_come_from_the_table():
    assert KINDS == tuple(SCHEMAS)
    assert {FILE_KIND[cls] for cls, _ in SCHEMAS.values()} == set(KINDS)
    assert FILE_KIND[LeftSymmetricFile] == "left_symmetric"


def test_quadratic_file_round_trips():
    """The one kind with no committed fixture."""
    g = sl2_example()
    q = QuadraticHomLie(g, killing_form(g))
    text = serialize_model(q)
    assert list(json.loads(text)) == ["kind", "algebra", "B"]
    assert parse_model(text) == q and serialize_model(parse_model(text)) == text


def test_a_bare_left_symmetric_product_is_written_without_d():
    record = parse_model(json.dumps(FIXTURE_DOCS["leftsym_with_d.json"]))
    text = serialize_model(record.product)
    assert "\"d\"" not in text
    assert parse_model(text) == LeftSymmetricFile(record.product, None)


def test_other_objects_cannot_be_serialized():
    with pytest.raises(InputError, match="cannot serialize Matrix"):
        serialize_model(Matrix.identity(1))


def _fault(name, edit):
    doc = copy.deepcopy(FIXTURE_DOCS[name])
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("name, edit, message", [
    ("hl_morphism_phi_string.json", lambda d: d["source"]["l3"].pop(),
     r"^\$\.source\.l3: expected length 3, got 2$"),
    ("sl2_adjoint_rep.json", lambda d: d["rho"].pop(), r"^\$\.rho: expected length 3, got 2$"),
    ("sl2_adjoint_rep.json", lambda d: d["rho"][2][1].append("0"),
     r"^\$\.rho\[2\]\[1\]: expected length 3, got 4$"),
    ("crossed_small.json", lambda d: d["action"].append(d["action"][0]),
     r"^\$\.action: expected length 1, got 2$"),
    ("leftsym_with_d.json", lambda d: d["d"].pop(), r"^\$\.d: expected length 2, got 1$"),
    ("leftsym_with_d.json", lambda d: d.update(d=7), r"^\$\.d: expected a list$"),
    ("sl2_adjoint_rep.json", lambda d: d["algebra"].update(kind="two_term_hl"),
     r"^\$\.algebra\.kind: expected 'hom_lie'$"),
    ("hl_morphism_phi_string.json", lambda d: d["target"].update(kind=[]),
     r"^\$\.target\.kind: expected 'two_term_hl'$"),
    ("crossed_small.json", lambda d: d.update(g=[]), r"^\$\.g: expected an object$"),
    ("hl_morphism_phi_string.json", lambda d: d["source"].pop("phi1"),
     r"^\$\.source: missing field\(s\) phi1$"),
    ("sl2_adjoint_rep.json", lambda d: d["algebra"].update(d=1),
     r"^\$\.algebra: unknown field\(s\) d$"),
    ("sl2_adjoint_rep.json", lambda d: d.update(module_dim=-1),
     r"^\$\.module_dim: expected a nonnegative integer$"),
    ("sl2.json", lambda d: d.update(dim=True), r"^\$\.dim: expected a nonnegative integer$"),
    ("symplectic_abelian2.json", lambda d: d["omega"][1].__setitem__(0, "1.5"),
     r"^\$\.omega\[1\]\[0\]: bad rational '1\.5'"),
    ("sl2.json", lambda d: d.update(kind={}), r"^\$\.kind: expected one of hom_lie, "),
])
def test_each_fault_names_its_json_path(name, edit, message):
    with pytest.raises(ModelError, match=message):
        parse_model(_fault(name, edit))


@pytest.mark.parametrize("field, path", [("dim0", r"\$\.d"), ("dim1", r"\$\.d\[0\]")])
def test_a_wrong_two_term_dimension_names_the_first_array_in_field_order(field, path):
    """Arrays are read in field order, so `d` is read before `l3`."""
    text = _fault("sl2_string.json", lambda d: d.update({field: d[field] + 1}))
    with pytest.raises(ModelError, match=rf"^{path}: expected length"):
        parse_model(text)


# --------------------------------------------------------------------------
# Fuzzing: a mutated fixture parses or raises ModelError, and `check` exits 0, 1 or 2
# --------------------------------------------------------------------------

BAD_VALUES = [7, -1, 0, "x", "1.5", 1.5, True, None, [], {}, [[]], ["0"]]


def _places(x, path=()):
    """The path of every value below x: object keys and list indices."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _places(value, path + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(FIXTURE_DOCS[draw(st.sampled_from(sorted(FIXTURE_DOCS)))])
    *where, key = draw(st.sampled_from(list(_places(doc))))
    parent = doc
    for k in where:
        parent = parent[k]
    value = parent[key]
    kinds = ["retype"] + ["delete"] * isinstance(key, str) + ["extra"] * isinstance(value, dict) \
        + ["shorten"] * bool(isinstance(value, list) and value) + ["lengthen"] * isinstance(value, list)
    kind = draw(st.sampled_from(kinds))
    if kind == "retype":
        parent[key] = draw(st.sampled_from(BAD_VALUES))
    elif kind == "delete":
        del parent[key]
    elif kind == "extra":
        value["extra"] = 1
    elif kind == "shorten":
        value.pop(draw(st.integers(0, len(value) - 1)))
    else:
        value.insert(draw(st.integers(0, len(value))),
                     copy.deepcopy(value[0]) if value else draw(st.sampled_from(BAD_VALUES)))
    return json.dumps(doc)


@given(mutated_documents())
@settings(max_examples=150, deadline=None)
def test_a_mutated_fixture_parses_or_raises_a_model_error(text):
    try:
        parse_model(text)
    except ModelError:
        pass


@given(mutated_documents())
@settings(max_examples=40, deadline=None)
def test_check_on_a_mutated_fixture_exits_0_1_or_2(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_text(text, encoding="utf-8")
    try:
        parse_model(text)
        parsed = True
    except ModelError:
        parsed = False
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (0, 1) if parsed else code == 2 and err.getvalue().startswith("input error: $")
