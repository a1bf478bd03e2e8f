import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homlie2.cli import main
from homlie2.modelfile import load_model, save_model

FIX = Path(__file__).parent.parent / "fixtures"


def run(*argv):
    return main(list(argv))


def test_builtin_then_check(tmp_path, capsys):
    out = tmp_path / "sl2.json"
    assert run("builtin", "sl2", "--out", str(out)) == 0
    assert run("check", str(out)) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "hom-jacobi" in text


def test_builtin_unknown_name():
    assert run("builtin", "nope", "--out", "/tmp/x.json") == 2


def test_check_every_fixture_kind():
    for path in sorted(FIX.glob("*.json")):
        assert run("check", str(path)) == 0, path


def test_check_failure_exit_code_and_report(tmp_path, capsys):
    g = load_model(FIX / "sl2.json")
    bracket = [[list(v) for v in row] for row in g.bracket]
    bracket[0][1][2] += 1
    from homlie2.homlie import HomLieAlgebra
    bad = HomLieAlgebra(3, bracket, g.phi)
    path = tmp_path / "bad.json"
    save_model(bad, path)
    assert run("check", str(path)) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_json_output(tmp_path, capsys):
    assert run("check", str(FIX / "sl2.json"), "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert {"law", "passed"} <= set(doc["items"][0])


def test_cohomology_dims(capsys):
    assert run("cohomology", str(FIX / "sl2.json"), "--k", "3") == 0
    out = capsys.readouterr().out
    assert "dim C=1" in out and "dim Z=1" in out and "dim B=0" in out and "dim H=1" in out


@pytest.mark.parametrize("k", [str(2 ** 63 - 1), str(10 ** 20)])
def test_cohomology_at_a_huge_degree_is_zero(k, capsys):
    assert run("cohomology", str(FIX / "sl2.json"), "--k", k) == 0
    assert f"k={k}  dim C=0  dim Z=0  dim B=0  dim H=0" in capsys.readouterr().out


def test_cohomology_with_rep_file(capsys):
    assert run("cohomology", str(FIX / "sl2.json"), "--rep",
               str(FIX / "sl2_adjoint_rep.json"), "--k", "1") == 0
    assert "dim C" in capsys.readouterr().out


def test_cohomology_rep_algebra_mismatch(tmp_path):
    from homlie2.homlie import abelian_algebra
    other = tmp_path / "ab.json"
    save_model(abelian_algebra(2), other)
    assert run("cohomology", str(other), "--rep",
               str(FIX / "sl2_adjoint_rep.json"), "--k", "1") == 2


@pytest.mark.parametrize("kind,fixture", [
    ("string", "sl2.json"),
    ("crossed-from-strict", "sl2_strict_shift.json"),
    ("strict-from-symplectic", "symplectic_nontrivial4.json"),
    ("strict-from-leftsym", "leftsym_with_d.json"),
    ("strict-from-crossed", "crossed_small.json"),
])
def test_construct_then_check(tmp_path, kind, fixture):
    out = tmp_path / "out.json"
    assert run("construct", kind, str(FIX / fixture), "--out", str(out)) == 0
    assert run("check", str(out)) == 0


@pytest.mark.parametrize("kind, kind_of_file", [
    ("string", "hom_lie"), ("skeletal", "quadratic"), ("strict-from-crossed", "crossed_module"),
    ("crossed-from-strict", "two_term_hl"), ("strict-from-symplectic", "symplectic"),
    ("strict-from-leftsym", "left_symmetric"),
])
def test_construct_names_the_kind_of_file_it_expects(kind, kind_of_file, tmp_path, capsys):
    wrong = "sl2_adjoint_rep.json"    # a representation: no construction takes one
    assert run("construct", kind, str(FIX / wrong), "--out", str(tmp_path / "o.json")) == 2
    assert capsys.readouterr().err == f"input error: construct {kind} expects a {kind_of_file} file\n"


def test_construct_skeletal_from_quadratic(tmp_path):
    from homlie2.constructions import QuadraticHomLie, sl2_example
    from homlie2.homlie import killing_form
    g = sl2_example()
    qpath = tmp_path / "quad.json"
    save_model(QuadraticHomLie(g, killing_form(g)), qpath)
    out = tmp_path / "skeletal.json"
    assert run("construct", "skeletal", str(qpath), "--out", str(out)) == 0
    v = load_model(out)
    assert v.d.is_zero()


def test_construct_string_report_shows_conditions(tmp_path, capsys):
    out = tmp_path / "string.json"
    assert run("construct", "string", str(FIX / "sl2.json"), "--out", str(out)) == 0
    text = capsys.readouterr().out
    for law in "abcdefghij":
        assert f"({law})" in text


def test_construct_rejects_nonsemisimple(tmp_path):
    from homlie2.exactlin import Matrix
    from homlie2.homlie import abelian_algebra
    path = tmp_path / "ab.json"
    save_model(abelian_algebra(2, Matrix.diagonal([-1, -1])), path)
    assert run("construct", "string", str(path), "--out", str(tmp_path / "o.json")) == 1


def test_construct_leftsym_needs_d(tmp_path):
    ls = load_model(FIX / "leftsym_with_d.json")
    from homlie2.modelfile import LeftSymmetricFile
    path = tmp_path / "nod.json"
    save_model(LeftSymmetricFile(ls.product, None), path)
    assert run("construct", "strict-from-leftsym", str(path),
               "--out", str(tmp_path / "o.json")) == 2


def test_roundtrip_command(capsys):
    assert run("roundtrip", str(FIX / "sl2_string.json")) == 0
    assert "beta-identity" in capsys.readouterr().out


def test_roundtrip_wrong_kind():
    assert run("roundtrip", str(FIX / "sl2.json")) == 2


@pytest.mark.parametrize("argv", [("check", "sl2_string.json", "--json"),
                                  ("check", "sl2.json"), ("builtin", "sl2")])
def test_a_closed_stdout_pipe_exits_141_quietly(argv):
    """stdout is a pipe whose read end is closed before the run: the first
    write fails with EPIPE, which is not an input error."""
    argv = [FIX / a if a.endswith(".json") else a for a in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "homlie2.cli", *map(str, argv)],
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(FIX.parent / "src")})
    finally:
        os.close(write)
    assert proc.returncode == 141 and proc.stderr == ""


def test_missing_file_is_input_error():
    assert run("check", "/nonexistent/file.json") == 2


def test_directory_is_input_error(tmp_path, capsys):
    assert run("check", str(tmp_path)) == 2
    assert "input error" in capsys.readouterr().err


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe{\x00}\x00")
    assert run("check", str(p)) == 2
    assert "input error" in capsys.readouterr().err


def test_out_to_directory_is_input_error(tmp_path):
    assert run("builtin", "sl2", "--out", str(tmp_path)) == 2


def test_bad_json_is_input_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{", encoding="utf-8")
    assert run("check", str(p)) == 2


def test_overlong_integer_literal_is_input_error(tmp_path, capsys):
    """json refuses an integer literal longer than the interpreter's limit on
    integer string conversion with a plain ValueError."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no limit on integer string conversion")
    p = tmp_path / "long.json"
    p.write_text((FIX / "sl2.json").read_text().replace('"-1"', "1" * (limit + 1), 1))
    assert run("check", str(p)) == 2
    assert "input error: unreadable JSON" in capsys.readouterr().err


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    """json gives up on 100,000 nested lists with a RecursionError."""
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    assert run("check", str(p)) == 2
    assert "input error: unreadable JSON" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["1.5", "1e9999999"])
def test_rational_outside_the_documented_forms_is_input_error(literal, tmp_path, capsys,
                                                              monkeypatch):
    """Only integers and "p/q" are rationals.  The literal is refused before
    Fraction() sees it, so an exponent literal is never expanded."""
    from homlie2 import modelfile
    real = modelfile.Fraction

    def guarded(x, *rest):
        assert x != literal, f"Fraction({x!r}) was called"
        return real(x, *rest)

    monkeypatch.setattr(modelfile, "Fraction", guarded)
    p = tmp_path / "bad.json"
    p.write_text((FIX / "sl2.json").read_text().replace('"-1"', f'"{literal}"', 1))
    assert run("check", str(p)) == 2
    err = capsys.readouterr().err
    assert "input error" in err and f"$.bracket[0][1][2]: bad rational '{literal}'" in err


def test_unknown_subcommand_usage_error():
    assert run("frobnicate") == 2


def test_exit_code_matches_report_failures(tmp_path, capsys):
    # exit 1 iff the emitted report contains a failing item
    v = load_model(FIX / "sl2_string.json")
    l3 = [[[list(x) for x in row] for row in layer] for layer in v.l3]
    l3[0][1][2][0] += 1
    from homlie2.hl2 import TwoTermHL
    bad = TwoTermHL(v.dim0, v.dim1, v.d, v.l2_00, v.l2_01, l3, v.phi0, v.phi1)
    path = tmp_path / "bad.json"
    save_model(bad, path)
    code = run("check", str(path), "--json")
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert any(not item["passed"] for item in doc["items"])
