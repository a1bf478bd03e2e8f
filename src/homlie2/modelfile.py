"""Strict-schema JSON files for every structure record.

One document per structure, tagged by "kind".  Rational entries are written
as canonical strings ("8", "-5/3"); integers are accepted on input.  Tensors
are nested row-major lists with their dimensions spelled out next to them.
Unknown fields are rejected, missing fields are reported by name, and JSON
syntax errors come back with line and column.  parse ∘ serialize is the
identity on records, bit-exactly.

Schemas (field order is also the serialization order):

  hom_lie        dim, bracket[n][n][n], phi[n][n]
  representation algebra (hom_lie), module_dim, A[m][m], rho: n matrices m x m
  two_term_hl    dim0, dim1, d[dim0][dim1], l2_00, l2_01, l3, phi0, phi1
  quadratic      algebra (hom_lie), B[n][n]
  crossed_module h (hom_lie), g (hom_lie), dt[g.dim][h.dim], action: g.dim matrices h.dim x h.dim
  left_symmetric dim, star[n][n][n], phi[n][n], optional d[n][n]
  symplectic     algebra (hom_lie), omega[n][n]
  hl_morphism    source (two_term_hl), target (two_term_hl), f0, f1, f2
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

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


KINDS = ("hom_lie", "representation", "two_term_hl", "quadratic",
         "crossed_module", "left_symmetric", "symplectic", "hl_morphism")
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


def _nat(obj, key, path) -> int:
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ModelError(f"{path}.{key}: expected a nonnegative integer")
    return v


def _list(x, length, path) -> list:
    if not isinstance(x, list):
        raise ModelError(f"{path}: expected a list")
    if length is not None and len(x) != length:
        raise ModelError(f"{path}: expected length {length}, got {len(x)}")
    return x


def _nested(x, shape, path) -> tuple:
    """Nested lists of exactly `shape`, rationals innermost, as nested tuples."""
    xs, rest = _list(x, shape[0], path), shape[1:]
    if not rest:
        return tuple(_rational(e, f"{path}[{i}]") for i, e in enumerate(xs))
    return tuple(_nested(e, rest, f"{path}[{i}]") for i, e in enumerate(xs))


def _matrix(x, rows, cols, path) -> Matrix:
    return Matrix(rows, cols, _nested(x, (rows, cols), path))


def _object(x, path) -> dict:
    if not isinstance(x, dict):
        raise ModelError(f"{path}: expected an object")
    return x


def _keys(obj: dict, required: tuple, optional: tuple, path: str):
    missing = [k for k in required if k not in obj]
    if missing:
        raise ModelError(f"{path}: missing field(s) {', '.join(missing)}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise ModelError(f"{path}: unknown field(s) {', '.join(sorted(unknown))}")


def _parse_hom_lie(obj: dict, path: str) -> HomLieAlgebra:
    _keys(obj, ("kind", "dim", "bracket", "phi"), (), path)
    if obj["kind"] != "hom_lie":
        raise ModelError(f"{path}.kind: expected 'hom_lie'")
    n = _nat(obj, "dim", path)
    return HomLieAlgebra(n, _nested(obj["bracket"], (n, n, n), f"{path}.bracket"),
                         _matrix(obj["phi"], n, n, f"{path}.phi"))


def _parse_two_term(obj: dict, path: str) -> TwoTermHL:
    _keys(obj, ("kind", "dim0", "dim1", "d", "l2_00", "l2_01", "l3", "phi0", "phi1"), (), path)
    if obj["kind"] != "two_term_hl":
        raise ModelError(f"{path}.kind: expected 'two_term_hl'")
    n0, n1 = _nat(obj, "dim0", path), _nat(obj, "dim1", path)
    l3 = _nested(obj["l3"], (n0, n0, n0, n1), f"{path}.l3")
    return TwoTermHL(n0, n1, _matrix(obj["d"], n0, n1, f"{path}.d"),
                     _nested(obj["l2_00"], (n0, n0, n0), f"{path}.l2_00"),
                     _nested(obj["l2_01"], (n0, n1, n1), f"{path}.l2_01"),
                     l3,
                     _matrix(obj["phi0"], n0, n0, f"{path}.phi0"),
                     _matrix(obj["phi1"], n1, n1, f"{path}.phi1"))


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

    if kind == "hom_lie":
        return _parse_hom_lie(obj, "$")

    if kind == "representation":
        _keys(obj, ("kind", "algebra", "module_dim", "A", "rho"), (), "$")
        g = _parse_hom_lie(_object(obj["algebra"], "$.algebra"), "$.algebra")
        m = _nat(obj, "module_dim", "$")
        rho = tuple(_matrix(r, m, m, f"$.rho[{i}]")
                    for i, r in enumerate(_list(obj["rho"], g.dim, "$.rho")))
        return Representation(g, m, _matrix(obj["A"], m, m, "$.A"), rho)

    if kind == "two_term_hl":
        return _parse_two_term(obj, "$")

    if kind == "quadratic":
        _keys(obj, ("kind", "algebra", "B"), (), "$")
        g = _parse_hom_lie(_object(obj["algebra"], "$.algebra"), "$.algebra")
        return QuadraticHomLie(g, _matrix(obj["B"], g.dim, g.dim, "$.B"))

    if kind == "crossed_module":
        _keys(obj, ("kind", "h", "g", "dt", "action"), (), "$")
        h = _parse_hom_lie(_object(obj["h"], "$.h"), "$.h")
        g = _parse_hom_lie(_object(obj["g"], "$.g"), "$.g")
        action = tuple(_matrix(r, h.dim, h.dim, f"$.action[{i}]")
                       for i, r in enumerate(_list(obj["action"], g.dim, "$.action")))
        return CrossedModule(h, g, _matrix(obj["dt"], g.dim, h.dim, "$.dt"), action)

    if kind == "left_symmetric":
        _keys(obj, ("kind", "dim", "star", "phi"), ("d",), "$")
        n = _nat(obj, "dim", "$")
        product = HomLeftSymmetric(n, _nested(obj["star"], (n, n, n), "$.star"),
                                   _matrix(obj["phi"], n, n, "$.phi"))
        d = _matrix(obj["d"], n, n, "$.d") if "d" in obj else None
        return LeftSymmetricFile(product, d)

    if kind == "symplectic":
        _keys(obj, ("kind", "algebra", "omega"), (), "$")
        g = _parse_hom_lie(_object(obj["algebra"], "$.algebra"), "$.algebra")
        return SymplecticHomLie(g, _matrix(obj["omega"], g.dim, g.dim, "$.omega"))

    # hl_morphism
    _keys(obj, ("kind", "source", "target", "f0", "f1", "f2"), (), "$")
    src = _parse_two_term(_object(obj["source"], "$.source"), "$.source")
    tgt = _parse_two_term(_object(obj["target"], "$.target"), "$.target")
    f2 = _nested(obj["f2"], (src.dim0, src.dim0, tgt.dim1), "$.f2")
    return HLMorphism(src, tgt,
                      _matrix(obj["f0"], tgt.dim0, src.dim0, "$.f0"),
                      _matrix(obj["f1"], tgt.dim1, src.dim1, "$.f1"), f2)


def load_model(path):
    return parse_model(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def _s(x):
    """A Fraction as its canonical string; a vector, matrix or tensor as nested lists of them."""
    if isinstance(x, Matrix):
        x = x.data
    return [_s(e) for e in x] if isinstance(x, tuple) else str(x)


def _doc_hom_lie(g: HomLieAlgebra) -> dict:
    return {"kind": "hom_lie", "dim": g.dim, "bracket": _s(g.bracket), "phi": _s(g.phi)}


def _doc_two_term(v: TwoTermHL) -> dict:
    return {"kind": "two_term_hl", "dim0": v.dim0, "dim1": v.dim1,
            "d": _s(v.d), "l2_00": _s(v.l2_00), "l2_01": _s(v.l2_01),
            "l3": _s(v.l3), "phi0": _s(v.phi0), "phi1": _s(v.phi1)}


def model_document(record) -> dict:
    if isinstance(record, HomLieAlgebra):
        return _doc_hom_lie(record)
    if isinstance(record, Representation):
        return {"kind": "representation", "algebra": _doc_hom_lie(record.algebra),
                "module_dim": record.module_dim, "A": _s(record.A), "rho": _s(record.rho)}
    if isinstance(record, TwoTermHL):
        return _doc_two_term(record)
    if isinstance(record, QuadraticHomLie):
        return {"kind": "quadratic", "algebra": _doc_hom_lie(record.algebra), "B": _s(record.B)}
    if isinstance(record, CrossedModule):
        return {"kind": "crossed_module", "h": _doc_hom_lie(record.h),
                "g": _doc_hom_lie(record.g), "dt": _s(record.dt), "action": _s(record.action)}
    if isinstance(record, LeftSymmetricFile):
        doc = {"kind": "left_symmetric", "dim": record.product.dim,
               "star": _s(record.product.star), "phi": _s(record.product.phi)}
        if record.d is not None:
            doc["d"] = _s(record.d)
        return doc
    if isinstance(record, HomLeftSymmetric):
        return model_document(LeftSymmetricFile(record, None))
    if isinstance(record, SymplecticHomLie):
        return {"kind": "symplectic", "algebra": _doc_hom_lie(record.algebra),
                "omega": _s(record.omega)}
    if isinstance(record, HLMorphism):
        return {"kind": "hl_morphism", "source": _doc_two_term(record.source),
                "target": _doc_two_term(record.target), "f0": _s(record.f0),
                "f1": _s(record.f1), "f2": _s(record.f2)}
    raise InputError(f"cannot serialize {type(record).__name__}")


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
