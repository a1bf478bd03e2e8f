"""Command-line driver.

Subcommands:

  check FILE                 validate every axiom of the structure in FILE
  cohomology FILE --rep trivial|REPFILE --k N
                             cochain/cocycle/coboundary/cohomology dimensions
  construct KIND IN --out F  run a construction and write the result
  roundtrip FILE             present-and-extract identity on a two_term_hl file
  builtin sl2 --out F        write the built-in sl(2) example

Exit codes: 0 all checks passed, 1 some axiom or precondition failed (a
report is still printed), 2 malformed input or usage, 141 (128 + SIGPIPE)
stdout closed by its reader, as by `| head`.  --json switches the report
from a table to a machine-readable document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cohomology import (Representation, check_representation, cohomology_dims,
                         trivial_representation)
from .constructions import (CrossedModule, QuadraticHomLie, SymplecticHomLie,
                            check_crossed_module, check_left_symmetric,
                            check_quadratic, check_symplectic, crossed_to_strict,
                            leftsym_d_report, skeletal_from_quadratic,
                            sl2_example, strict_from_leftsym,
                            strict_from_symplectic, strict_to_crossed,
                            string_from_semisimple)
from .errors import CheckFailure, InputError, PreconditionError
from .hl2 import (HLMorphism, TwoTermHL, check_hl_morphism, check_two_term,
                  roundtrip_check)
from .homlie import HomLieAlgebra, check_hom_lie
from .modelfile import (LeftSymmetricFile, ModelError, load_model, save_model,
                        serialize_model)
from .reports import CheckReport, merge_reports

def _emit(report: CheckReport, as_json: bool, extra: dict | None = None) -> None:
    if as_json:
        doc = report.as_dict()
        if extra:
            doc.update(extra)
        print(json.dumps(doc, indent=2))
    else:
        if extra:
            for key, value in extra.items():
                print(f"{key}: {value}")
        print(report.table())


def _report_for(record) -> CheckReport:
    if isinstance(record, HomLieAlgebra):
        return check_hom_lie(record)
    if isinstance(record, Representation):
        return merge_reports("representation",
                             algebra=check_hom_lie(record.algebra),
                             action=check_representation(record))
    if isinstance(record, TwoTermHL):
        return check_two_term(record)
    if isinstance(record, QuadraticHomLie):
        return merge_reports("quadratic",
                             algebra=check_hom_lie(record.algebra),
                             form=check_quadratic(record))
    if isinstance(record, CrossedModule):
        return check_crossed_module(record)
    if isinstance(record, LeftSymmetricFile):
        product_report, _ = check_left_symmetric(record.product)
        if record.d is None:
            return merge_reports("left_symmetric", product=product_report)
        return merge_reports("left_symmetric", product=product_report,
                             differential=leftsym_d_report(record.product, record.d))
    if isinstance(record, SymplecticHomLie):
        return check_symplectic(record)
    if isinstance(record, HLMorphism):
        return merge_reports("hl_morphism",
                             source=check_two_term(record.source),
                             target=check_two_term(record.target),
                             morphism=check_hl_morphism(record))
    raise InputError(f"no checks defined for {type(record).__name__}")


def _cmd_check(args) -> int:
    report = _report_for(load_model(args.file))
    _emit(report, args.json)
    return 0 if report.ok else 1


def _cmd_cohomology(args) -> int:
    record = load_model(args.file)
    if not isinstance(record, HomLieAlgebra):
        raise InputError("cohomology expects a hom_lie file")
    alg_report = check_hom_lie(record)
    if not alg_report.ok:
        _emit(alg_report, args.json)
        return 1
    if args.rep == "trivial":
        rep = trivial_representation(record)
    else:
        rep = load_model(args.rep)
        if not isinstance(rep, Representation):
            raise InputError("--rep expects 'trivial' or a representation file")
        if rep.algebra != record:
            raise InputError("representation file is over a different algebra")
        rep_report = check_representation(rep)
        if not rep_report.ok:
            _emit(rep_report, args.json)
            return 1
    c, z, b, h = cohomology_dims(rep, args.k)
    dims = {"C": c, "Z": z, "B": b, "H": h}
    if args.json:
        print(json.dumps({"k": args.k, "dims": dims}, indent=2))
    else:
        print(f"k={args.k}  dim C={c}  dim Z={z}  dim B={b}  dim H={h}")
    return 0


def _strict_from_leftsym_file(record: LeftSymmetricFile) -> TwoTermHL:
    if record.d is None:
        raise InputError("left_symmetric file needs a 'd' matrix for this construction")
    return strict_from_leftsym(record.product, record.d)


# construct KIND: the record its input file must hold, that file's kind, the construction
CONSTRUCTIONS = {
    "string": (HomLieAlgebra, "hom_lie", string_from_semisimple),
    "skeletal": (QuadraticHomLie, "quadratic", skeletal_from_quadratic),
    "strict-from-crossed": (CrossedModule, "crossed_module", crossed_to_strict),
    "crossed-from-strict": (TwoTermHL, "two_term_hl", strict_to_crossed),
    "strict-from-symplectic": (SymplecticHomLie, "symplectic", strict_from_symplectic),
    "strict-from-leftsym": (LeftSymmetricFile, "left_symmetric", _strict_from_leftsym_file),
}


def _cmd_construct(args) -> int:
    record = load_model(args.input)
    record_type, file_kind, construct = CONSTRUCTIONS[args.kind]
    if not isinstance(record, record_type):
        raise InputError(f"construct {args.kind} expects a {file_kind} file")
    out = construct(record)
    save_model(out, args.out)
    report = _report_for(out)
    _emit(report, args.json, extra={"written": args.out})
    return 0 if report.ok else 1


def _cmd_roundtrip(args) -> int:
    record = load_model(args.file)
    if not isinstance(record, TwoTermHL):
        raise InputError("roundtrip expects a two_term_hl file")
    report = merge_reports("roundtrip",
                           structure=check_two_term(record),
                           equivalence=roundtrip_check(record))
    _emit(report, args.json)
    return 0 if report.ok else 1


def _cmd_builtin(args) -> int:
    if args.name != "sl2":
        raise InputError(f"unknown builtin {args.name!r}; available: sl2")
    g = sl2_example()
    report = check_hom_lie(g)
    if args.out:
        save_model(g, args.out)
        _emit(report, args.json, extra={"written": args.out})
    else:
        print(serialize_model(g), end="")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlie2",
        description="exact checks, cohomology, and constructions for twisted "
                    "Lie-type structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate every axiom of a structure file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("cohomology", help="cohomology dimensions of an algebra file")
    p.add_argument("file")
    p.add_argument("--rep", default="trivial",
                   help="'trivial' or a representation file (default: trivial)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("construct", help="run a construction and write its output")
    p.add_argument("kind", choices=tuple(CONSTRUCTIONS))
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("roundtrip", help="present-and-extract identity on a two_term_hl file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_roundtrip)

    p = sub.add_parser("builtin", help="write a built-in example")
    p.add_argument("name")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_builtin)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other exits
        return 2 if exc.code not in (0,) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone; point stdout at devnull so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ModelError, InputError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, CheckFailure) as exc:
        what = "precondition" if isinstance(exc, PreconditionError) else "check"
        print(f"{what} failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(exc.report.table(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
