"""Strict-schema JSON files for every structure record.

One document per structure, tagged by "kind".  Rational entries are written
as canonical strings ("8", "-5/3"); integers are accepted on input.  Tensors
are nested row-major lists with their dimensions spelled out next to them.
Unknown fields are rejected, missing fields are reported by name, and JSON
syntax errors come back with line and column.  parse ∘ serialize is the
identity on records, bit-exactly.

A file's fields are its record's dataclass fields, in order: a dimension
(an int), a nested record (a document of the kind `SCHEMAS` names), or an
array whose shape `SCHEMAS` works out from the dimensions and nested
records.  Parsing reads the dimensions and nested records first, then each
array in field order.  A `left_symmetric` file may add a last field `d`,
the differential of the strict construction, and parses to a
`LeftSymmetricFile`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from .cohomology import Representation
from .constructions import (CrossedModule, HomLeftSymmetric, QuadraticHomLie,
                            SymplecticHomLie)
from .errors import InputError
from .exactlin import Matrix
from .hl2 import HLMorphism, TwoTermHL
from .homlie import HomLieAlgebra


class ModelError(InputError):
    """Malformed model file: syntax, schema, shape, or literal errors."""


@dataclass(frozen=True)
class LeftSymmetricFile:
    """A left-symmetric product plus the optional differential used by the
    strict construction."""

    product: HomLeftSymmetric
    d: Matrix | None


# kind: (record class, {field: the kind of a nested record, or an array's
# shape from the record's earlier fields r}); a field not named is a
# dimension.  A shape of two levels is a Matrix; a list of shapes is a tuple
# of matrices, one per entry.
SCHEMAS = {
    "hom_lie": (HomLieAlgebra, {"bracket": lambda r: (r.dim,) * 3, "phi": lambda r: (r.dim,) * 2}),
    "representation": (Representation, {"algebra": "hom_lie", "A": lambda r: (r.module_dim,) * 2,
                                         "rho": lambda r: [(r.module_dim,) * 2] * r.algebra.dim}),
    "two_term_hl": (TwoTermHL, {"d": lambda r: (r.dim0, r.dim1),
                                "l2_00": lambda r: (r.dim0,) * 3,
                                "l2_01": lambda r: (r.dim0, r.dim1, r.dim1),
                                "l3": lambda r: (r.dim0,) * 3 + (r.dim1,),
                                "phi0": lambda r: (r.dim0,) * 2, "phi1": lambda r: (r.dim1,) * 2}),
    "quadratic": (QuadraticHomLie, {"algebra": "hom_lie", "B": lambda r: (r.algebra.dim,) * 2}),
    "crossed_module": (CrossedModule, {"h": "hom_lie", "g": "hom_lie",
                                       "dt": lambda r: (r.g.dim, r.h.dim),
                                       "action": lambda r: [(r.h.dim,) * 2] * r.g.dim}),
    "left_symmetric": (HomLeftSymmetric, {"star": lambda r: (r.dim,) * 3,
                                          "phi": lambda r: (r.dim,) * 2}),
    "symplectic": (SymplecticHomLie, {"algebra": "hom_lie",
                                      "omega": lambda r: (r.algebra.dim,) * 2}),
    "hl_morphism": (HLMorphism, {"source": "two_term_hl", "target": "two_term_hl",
                                 "f0": lambda r: (r.target.dim0, r.source.dim0),
                                 "f1": lambda r: (r.target.dim1, r.source.dim1),
                                 "f2": lambda r: (r.source.dim0, r.source.dim0, r.target.dim1)}),
}
KINDS = tuple(SCHEMAS)
# the kind of file each record class is written as
FILE_KIND = {cls: kind for kind, (cls, _) in SCHEMAS.items()} | {LeftSymmetricFile: "left_symmetric"}
# kind: (field, what SCHEMAS says of it) for each of the record's fields, in order
_FIELDS = {kind: [(f.name, spec.get(f.name)) for f in fields(cls)]
           for kind, (cls, spec) in SCHEMAS.items()}
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # the only rational strings accepted


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

def _rational(x, path: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ModelError(f"{path}: expected a rational string or integer, got {type(x).__name__}")
    if isinstance(x, str) and not _RATIONAL.fullmatch(x):
        raise ModelError(f"{path}: bad rational {x!r} (expected an integer or \"p/q\")")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"{path}: bad rational {x!r} ({exc})") from None


def _list(x, length, path) -> list:
    if not isinstance(x, list):
        raise ModelError(f"{path}: expected a list")
    if len(x) != length:
        raise ModelError(f"{path}: expected length {length}, got {len(x)}")
    return x


def _nested(x, shape, path) -> tuple:
    """Nested lists of exactly `shape`, rationals innermost, as nested tuples."""
    xs, rest = _list(x, shape[0], path), shape[1:]
    if not rest:
        return tuple(_rational(e, f"{path}[{i}]") for i, e in enumerate(xs))
    return tuple(_nested(e, rest, f"{path}[{i}]") for i, e in enumerate(xs))


def _array(x, shape, path):
    """x read against `shape`: a Matrix for two levels, a tuple of arrays for
    a list of shapes, else nested tuples."""
    if isinstance(shape, list):
        return tuple(_array(e, s, f"{path}[{i}]")
                     for i, (e, s) in enumerate(zip(_list(x, len(shape), path), shape)))
    t = _nested(x, shape, path)
    return Matrix(*shape, t) if len(shape) == 2 else t


def _object(x, path) -> dict:
    if not isinstance(x, dict):
        raise ModelError(f"{path}: expected an object")
    return x


def _record(obj: dict, kind: str, path: str, optional: tuple = ()):
    """The record of this kind in obj: its dimensions and nested records
    first, then each array against the shape they give it."""
    schema = _FIELDS[kind]
    names = ["kind", *(name for name, _ in schema)]
    missing = [k for k in names if k not in obj]
    if missing:
        raise ModelError(f"{path}: missing field(s) {', '.join(missing)}")
    unknown = sorted(k for k in obj if k not in names and k not in optional)
    if unknown:
        raise ModelError(f"{path}: unknown field(s) {', '.join(unknown)}")
    if obj["kind"] != kind:
        raise ModelError(f"{path}.kind: expected {kind!r}")
    values = {}
    for name, what in schema:
        value, where = obj[name], f"{path}.{name}"
        if isinstance(what, str):
            values[name] = _record(_object(value, where), what, where)
        elif what is None:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ModelError(f"{where}: expected a nonnegative integer")
            values[name] = value
    earlier = SimpleNamespace(**values)
    for name, what in schema:
        if callable(what):
            values[name] = _array(obj[name], what(earlier), f"{path}.{name}")
    return SCHEMAS[kind][0](**values)


def parse_model(text: str):
    """Parse a model document (text) into its structure record.

    No axiom validation happens here; run the `check` command or the
    check_* functions for that.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:   # an over-long integer, too deep a nesting
        raise ModelError(f"unreadable JSON: {exc}") from None
    obj = _object(doc, "$")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ModelError(f"$.kind: expected one of {', '.join(KINDS)}, got {kind!r}")
    if kind != "left_symmetric":
        return _record(obj, kind, "$")
    product = _record(obj, kind, "$", optional=("d",))
    d = _array(obj["d"], (product.dim,) * 2, "$.d") if "d" in obj else None
    return LeftSymmetricFile(product, d)


def load_model(path):
    return parse_model(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def _s(x):
    """A Fraction as its canonical string, a dimension as itself, a nested
    record as its document; a vector, matrix or tensor as nested lists of them."""
    if isinstance(x, Matrix):
        x = x.data
    if isinstance(x, tuple):
        return [_s(e) for e in x]
    return x if isinstance(x, int) else str(x) if isinstance(x, Fraction) else model_document(x)


def model_document(record) -> dict:
    """The document of a record: its kind, then each of its fields."""
    extra = {}
    if isinstance(record, LeftSymmetricFile):
        record, extra = record.product, {} if record.d is None else {"d": _s(record.d)}
    kind = FILE_KIND.get(type(record))
    if kind is None:
        raise InputError(f"cannot serialize {type(record).__name__}")
    return {"kind": kind, **{f.name: _s(getattr(record, f.name)) for f in fields(record)}, **extra}


def _format(value, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        body = ",\n".join(f'{pad}  "{k}": {_format(v, indent + 2)}' for k, v in value.items())
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, list):
        if all(not isinstance(x, (list, dict)) for x in value):
            return "[" + ", ".join(json.dumps(x) for x in value) + "]"
        body = ",\n".join(f"{pad}  {_format(x, indent + 2)}" for x in value)
        return "[\n" + body + "\n" + pad + "]"
    return json.dumps(value)


def serialize_model(record) -> str:
    """Canonical text: innermost numeric rows stay on one line so tensors
    read like the structure-constant tables they encode."""
    return _format(model_document(record), 0) + "\n"


def save_model(record, path) -> None:
    Path(path).write_text(serialize_model(record), encoding="utf-8")
