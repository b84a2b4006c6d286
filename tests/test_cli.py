"""Tests for the command-line interface: formats, exit codes, report
lines, and byte stability."""

import re

import pytest

from artifact.cli import main
from artifact.regular import BottomUpAutomaton


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run / enumerate

def test_run_deterministic(capsys):
    code, out, _ = run_cli(capsys, "run", "--transducer", "mexp",
                           "--input", "e")
    assert code == 0 and out == "sigma(e,e)\n"


def test_run_undefined_exits_1(capsys):
    code, out, _ = run_cli(capsys, "run", "--transducer", "loop",
                           "--input", "e")
    assert code == 1 and out == "UNDEFINED\n"


def test_enumerate_case_line(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--transducer",
                           "leafchooser", "--input", "e",
                           "--max-size", "3")
    assert code == 0 and out == "CASE e -> {a, b}\n"


def test_enumerate_requires_max_size(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--transducer",
                           "leafchooser", "--input", "e")
    assert code == 2 and "max-size" in err


def test_output_byte_stable(capsys):
    args = ("enumerate", "--transducer", "random:local:3:n", "--input",
            "sigma(e,e)", "--max-size", "4")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second and first[0] == 0


# ---------------------------------------------------------------------------
# fixtures and files

def test_fixtures_list(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    names = out.split()
    assert code == 0 and "mexp" in names and names == sorted(names)


def test_transducer_file_roundtrip(capsys, tmp_path):
    path = str(tmp_path / "m.ttt")
    code, out, _ = run_cli(capsys, "fixtures", "--name", "mexp",
                           "--out", path)
    assert code == 0 and out.startswith("WROTE")
    code, out, _ = run_cli(capsys, "verify", "--left", "mexp",
                           "--right", path, "--max-size", "5")
    assert code == 0 and out == "EQUIVALENT (4 cases)\n"


def test_transducer_roundtrip_with_tests(capsys, tmp_path):
    path = str(tmp_path / "q.ttt")
    code, _, _ = run_cli(capsys, "fixtures", "--name", "query",
                         "--out", path)
    assert code == 0
    assert (tmp_path / "q.t0.aut").exists()
    code, out, _ = run_cli(capsys, "verify", "--left", "query",
                           "--right", path, "--max-size", "6")
    assert code == 0 and "EQUIVALENT" in out


def test_unknown_reference_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--transducer", "nosuch",
                           "--input", "e")
    assert code == 2 and "nosuch" in err


def test_bad_tree_is_format_error(capsys):
    code, _, err = run_cli(capsys, "run", "--transducer", "mexp",
                           "--input", "sigma(e)")
    assert code == 2 and "format error" in err


def test_deep_input_ends_with_an_exit_code(capsys):
    text = "sigma(e," * 1200 + "e" + ")" * 1200
    code, out, err = run_cli(capsys, "run", "--transducer", "identity",
                             "--input", text)
    assert code in (0, 3)
    if code == 3:
        assert err.startswith("resource limit:")
        assert "recursion limit" in err


# ---------------------------------------------------------------------------
# constructions and verify

def test_verify_differ_exits_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--left", "mexp",
                           "--right", "identity", "--max-size", "3")
    assert code == 1 and out.startswith("DIFFER CASE ")


def test_compose_report_and_verify(capsys):
    code, out, _ = run_cli(capsys, "compose", "--first", "identity",
                           "--second", "leftproj", "--max-size", "4")
    assert code == 0 and out.splitlines()[0] == "CASE e -> {e}"
    code, out, _ = run_cli(capsys, "verify", "--left",
                           "compose:identity,leftproj", "--right",
                           "leftproj", "--max-size", "5")
    assert code == 0 and out == "EQUIVALENT (4 cases)\n"


def test_split_roundtrip(capsys, tmp_path):
    first = str(tmp_path / "n.ttt")
    second = str(tmp_path / "m.ttt")
    code, _, _ = run_cli(capsys, "split", "--transducer", "query",
                         "--out-first", first, "--out-second", second)
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--left",
                           "compose:split1:query,split2:query",
                           "--right", "query", "--max-size", "5")
    assert code == 0 and "EQUIVALENT" in out


def test_lookahead_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--left",
                           "lookahead:random:topdown:0", "--right",
                           "random:topdown:0", "--max-size", "4",
                           "--max-output", "6")
    assert code == 0 and "EQUIVALENT" in out


def test_lookahead_out_verifies_against_its_source(capsys, tmp_path):
    path = str(tmp_path / "la.ttt")
    code, out, _ = run_cli(capsys, "lookahead", "--transducer",
                           "random:topdown:0", "--out", path)
    assert code == 0 and out.startswith("WROTE")
    assert (tmp_path / "la.t0.aut").exists()
    code, out, _ = run_cli(capsys, "verify", "--left", path, "--right",
                           "random:topdown:0", "--max-size", "4",
                           "--max-output", "6")
    assert code == 0 and "EQUIVALENT" in out


def test_uniformize_report(capsys):
    code, out, _ = run_cli(capsys, "uniformize", "--transducer",
                           "leafchooser", "--max-size", "1")
    assert code == 0 and out in ("CASE e -> {a}\n", "CASE e -> {b}\n")


def test_uniformize_oracle_guards_not_writable(capsys, tmp_path):
    code, _, err = run_cli(capsys, "uniformize", "--transducer",
                           "leafchooser", "--out",
                           str(tmp_path / "u.ttt"))
    assert code == 3 and "text form" in err


def test_factorize_report(capsys):
    # (rules, input symbols) per stage: the split of the tests (query
    # only), the leaves pruner, the hatting, the monadic pruner and the
    # remainder, which reads each gamma symbol only where the pruner can
    # place it; the phases build only the gamma symbols some input
    # realizes, and the monadic phase reads only the leaves pruner's
    # outputs
    for name, stages in [
            ("query", [(12, 2), (60, 4), (228, 60), (568, 84),
                       (3752, 520)]),
            ("mexp", [(15, 2), (57, 15), (148, 21), (347, 136)])]:
        code, out, _ = run_cli(capsys, "factorize", "--transducer", name)
        lines = out.splitlines()
        assert code == 0
        assert lines[:2] == ["CONSTANT 2", "STAGES %d" % len(stages)]
        got = [re.fullmatch(
            r"STAGE (\d+) states=\d+ rules=(\d+) symbols=(\d+)", line).groups()
            for line in lines[2:]]
        assert got == [(str(i), str(r), str(n))
                       for i, (r, n) in enumerate(stages)]


def test_optimize_pipeline(capsys, tmp_path):
    pipe = tmp_path / "p.pipe"
    pipe.write_text("constant: 1\nstage: identity\nstage: mexp\n")
    code, out, _ = run_cli(capsys, "optimize", "--pipeline", str(pipe))
    assert code == 0 and out.splitlines()[0] == "CONSTANT 2"


# ---------------------------------------------------------------------------
# domain / inverse image / membership / classification

def test_domain_accept_reject(capsys):
    code, out, _ = run_cli(capsys, "domain", "--transducer", "mexp",
                           "--input", "sigma(e,e)")
    assert code == 0 and out == "ACCEPT\n"
    code, out, _ = run_cli(capsys, "domain", "--transducer", "loop",
                           "--input", "e")
    assert code == 1 and out == "REJECT\n"


def test_domain_export(capsys, tmp_path):
    path = tmp_path / "dom.aut"
    code, _, _ = run_cli(capsys, "domain", "--transducer", "leftproj",
                         "--out", str(path))
    assert code == 0
    aut = BottomUpAutomaton.parse(path.read_text())
    assert aut.accepts(__import__("artifact.core", fromlist=["leaf"])
                       .leaf("e"))


def test_inverse_image_export(capsys, tmp_path):
    path = tmp_path / "inv.aut"
    code, out, _ = run_cli(capsys, "inverse-image", "--transducer",
                           "leftproj", "--language", "all:sigmae",
                           "--out", str(path))
    assert code == 0 and out.startswith("WROTE")
    BottomUpAutomaton.parse(path.read_text())


def test_member_exit_codes(capsys, tmp_path):
    pipe = tmp_path / "p.pipe"
    pipe.write_text("constant: 1\nstage: identity\nstage: mexp\n")
    code, out, _ = run_cli(capsys, "member", "--pipeline", str(pipe),
                           "--input", "e", "--output", "sigma(e,e)")
    assert code == 0 and out == "MEMBER\n"
    code, out, _ = run_cli(capsys, "member", "--pipeline", "mexp",
                           "--input", "e", "--output", "e")
    assert code == 1 and out == "NOT A MEMBER\n"


def test_classify_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--transducer", "mexp")
    assert code == 0
    assert "deterministic: yes" in out and "top_down: no" in out


def test_check_single_use(capsys):
    code, out, _ = run_cli(capsys, "check-single-use", "--transducer",
                           "flatsim", "--max-size", "5")
    assert code == 0 and out.startswith("SINGLE-USE")
    code, out, _ = run_cli(capsys, "check-single-use", "--transducer",
                           "mexp", "--max-size", "5")
    assert code == 1 and out.startswith("NOT SINGLE-USE")


# ---------------------------------------------------------------------------
# forests

def test_forest_encode_decode_flatten(capsys):
    code, out, _ = run_cli(capsys, "forest", "encode", "--input",
                           "a[]b[]")
    assert code == 0 and out == "a(e,b(e,e))\n"
    code, out, _ = run_cli(capsys, "forest", "decode", "--input",
                           "a(e,b(e,e))", "--symbols", "a,b")
    assert code == 0 and out == "a[]b[]\n"
    code, out, _ = run_cli(capsys, "forest", "flatten", "--input",
                           "@(a(e),@(b(e),e))", "--symbols", "a,b")
    assert code == 0 and out == "a[]b[]\n"


def test_forest_run_exponential(capsys):
    code, out, _ = run_cli(capsys, "forest", "run", "--transducer",
                           "atexp", "--mode", "flat", "--input",
                           "sigma[]")
    assert code == 0
    assert out == "CASE sigma[] -> {%s}\n" % ("delta[]" * 4)


def test_forest_run_identity_dec(capsys):
    code, out, _ = run_cli(capsys, "forest", "run", "--transducer",
                           "identity", "--mode", "dec", "--input",
                           "sigma[sigma[]]")
    assert code == 0 and out == "CASE sigma[sigma[]] -> {sigma[sigma[]]}\n"
