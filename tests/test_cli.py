"""Command-line surface: JSON payloads, determinism, exit codes."""

import json
import subprocess
import sys
import time

import pytest

from nilgeom.cli import main
from nilgeom.weil import algebra_from_json, algebra_isomorphism, laplace_algebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


POLAR_DOC = {"n": 2, "G": [["1", "0"], ["0", "x1^2"]]}


@pytest.fixture
def polar_file(tmp_path):
    path = tmp_path / "polar.json"
    path.write_text(json.dumps(POLAR_DOC))
    return str(path)


# -- algebra ----------------------------------------------------------------------

def test_algebra_dl(capsys):
    doc = run_json(capsys, "algebra", "dl", "--n", "3")
    assert doc["dimension"] == 5
    assert doc["basis"][0] == [0, 0, 0]


def test_algebra_dk(capsys):
    doc = run_json(capsys, "algebra", "dk", "--n", "2", "--k", "2")
    assert doc["dimension"] == 6


def test_algebra_quotient_matches_dl(capsys):
    quotient = run_json(
        capsys,
        "algebra", "quotient", "--n", "2", "--bound", "2",
        "--rel", "x1^2 - x2^2", "--rel", "x1*x2",
    )
    direct = run_json(capsys, "algebra", "dl", "--n", "2")
    quotient.pop("dimension")
    direct.pop("dimension")
    assert quotient == direct


def test_algebra_json_round_trips(capsys):
    doc = run_json(capsys, "algebra", "dl", "--n", "2")
    doc.pop("dimension")
    assert algebra_from_json(doc) == laplace_algebra(2)


# -- laplacian ----------------------------------------------------------------------

def test_laplacian_flat(capsys):
    doc = run_json(capsys, "laplacian", "--fn", "x1^2+x2^2", "--point", "0,0")
    assert doc["value"] == "4"
    assert doc["mode"] == "exact"


def test_laplacian_harmonic_cubic(capsys):
    doc = run_json(capsys, "laplacian", "--fn", "x1^3 - 3*x1*x2^2", "--point", "1,1")
    assert doc["value"] == "0"


def test_laplacian_polar_metric(capsys, polar_file):
    doc = run_json(capsys, "laplacian", "--metric", polar_file, "--fn", "x1^2", "--point", "1,0")
    assert doc["value"] == "4"
    doc = run_json(
        capsys, "--mode", "float", "laplacian", "--metric", polar_file,
        "--fn", "x1^2", "--point", "3/2,0",
    )
    assert float(doc["value"]) == pytest.approx(4.0)
    assert doc["epsilon"] == 1e-9


def test_laplacian_indefinite_metric_both_modes(capsys, tmp_path):
    # the Laplacian takes no square root, so float mode accepts [[0,1],[1,0]] too
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps({"n": 2, "G": [["0", "1"], ["1", "0"]]}))
    argv = ["laplacian", "--metric", str(path), "--fn", "x1*x2", "--point", "0,0"]
    assert run_json(capsys, *argv)["value"] == "2"
    assert run_json(capsys, "--mode", "float", *argv)["value"] == "2"


# -- checks -----------------------------------------------------------------------------

def test_check_cr(capsys):
    doc = run_json(capsys, "check", "cr", "--map", "x1^2-x2^2, 2*x1*x2", "--point", "1,0")
    assert doc["holomorphic"] is True
    assert doc["derivative"] == ["2", "0"]


def test_check_conformal_false_payload(capsys):
    doc = run_json(capsys, "check", "conformal", "--map", "x1, 2*x2", "--point", "0,0")
    assert doc["conformal"] is False
    assert doc["factor"] is None


def test_check_harmonic(capsys):
    doc = run_json(capsys, "check", "harmonic", "--fn", "x1*x2", "--point", "3,5")
    assert doc["harmonic"] is True
    assert doc["affine_preserving"] is True
    doc = run_json(capsys, "check", "harmonic", "--fn", "x1^2", "--point", "0,0")
    assert doc["harmonic"] is False
    assert doc["laplacian"] == "2"


def test_check_harmonic_float_uses_epsilon(capsys):
    # the Laplacian is 2 - 9/5 = 0.2: harmonic within --epsilon 0.5, not within 0.1,
    # as is_harmonic_at decides
    argv = ["check", "harmonic", "--fn", "x1^2 - 9/10*x2^2", "--point", "0.5,0.25"]
    doc = run_json(capsys, "--mode", "float", "--epsilon", "0.5", *argv)
    assert doc["harmonic"] is True
    assert float(doc["laplacian"]) == pytest.approx(0.2)
    assert run_json(capsys, "--mode", "float", "--epsilon", "0.1", *argv)["harmonic"] is False


def test_check_harmonic_float_epsilon_zero(capsys):
    # the value and the Q coordinate come from one jet, so no rounding
    # residue of f(x) stands in the way of eps = 0
    doc = run_json(capsys, "--mode", "float", "--epsilon", "0", "check", "harmonic",
                   "--fn", "x1^3-3*x1*x2^2", "--point", "0.3,0.7")
    assert doc["harmonic"] is True and doc["affine_preserving"] is True


def test_float_zeros_print_without_sign(capsys):
    # both zeros come out of float arithmetic as -0.0
    code, out, _ = run(capsys, "--mode", "float", "laplacian", "--fn", "-x1", "--point", "1,1")
    assert code == 0 and '"value": "0"' in out and '"-0"' not in out
    code, out, _ = run(capsys, "--mode", "float", "check", "cr", "--map", "-x2, x1", "--point", "1,1")
    assert code == 0 and '"-0"' not in out
    assert json.loads(out)["derivative"] == ["0", "1"]


def test_check_harmonic_curved_exact_reports_affine(capsys, polar_file):
    # at (2, 0) the polar metric is diag(1, 4): no exact normal chart exists,
    # but the affine test runs at the weighted universal point the Laplacian
    # uses, so it is reported (it used to be null here)
    doc = run_json(
        capsys, "check", "harmonic", "--metric", polar_file, "--fn", "x2", "--point", "2,0"
    )
    assert doc["harmonic"] is True
    assert doc["affine_preserving"] is True


def test_check_l_neighbor(capsys):
    doc = run_json(capsys, "check", "l-neighbor", "--point", "0,0", "--z", "d1, d2")
    assert doc["l_neighbor"] is False  # generic second-order pair
    doc = run_json(
        capsys, "check", "l-neighbor", "--point", "0,0", "--z", "d1, d2",
        "--ambient-order", "1",
    )
    assert doc["l_neighbor"] is True  # first-order neighbors always qualify


def test_check_preserves_l(capsys):
    doc = run_json(capsys, "check", "preserves-l", "--map", "x1^2-x2^2, 2*x1*x2", "--point", "1,0")
    assert doc["preserves_l"] is True
    doc = run_json(capsys, "check", "preserves-l", "--map", "x1 + x2, x2", "--point", "0,0")
    assert doc["preserves_l"] is False


# -- coalgebra ----------------------------------------------------------------------------

def test_coalgebra_laplace(capsys):
    doc = run_json(capsys, "coalgebra", "--dist", "d1^2+d2^2", "--n", "2")
    assert doc["dimension"] == 4
    assert doc["basis"] == ["1", "d1", "d2", "d1^2 + d2^2"]
    dual = algebra_from_json(doc["dual_algebra"])
    assert algebra_isomorphism(dual, laplace_algebra(2)) is not None


def test_coalgebra_dirac(capsys):
    doc = run_json(capsys, "coalgebra", "--dist", "1", "--n", "1")
    assert doc["dimension"] == 1


def test_coalgebra_single_derivative(capsys):
    doc = run_json(capsys, "coalgebra", "--dist", "d1", "--n", "1")
    assert doc["dimension"] == 2
    assert doc["dual_algebra"]["basis"] == [[0], [1]]


def test_coalgebra_high_power(capsys):
    doc = run_json(capsys, "coalgebra", "--dist", "d1^40", "--n", "1")
    assert doc["dimension"] == 41
    assert doc["dual_algebra"]["basis"] == [[k] for k in range(41)]


# -- hygiene -----------------------------------------------------------------------------

def test_identical_runs_are_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["coalgebra", "--dist", "d1^2+d2^2+d3^2", "--n", "3"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "laplacian", "--fn", "x1 +", "--point", "0,0")
    assert code == 2
    assert "error" in err


def test_bad_point_exits_2(capsys):
    code, _, _ = run(capsys, "laplacian", "--fn", "x1", "--point", "0,zebra")
    assert code == 2


def test_exact_mode_rejects_primitives_exits_2(capsys):
    code, _, _ = run(capsys, "laplacian", "--fn", "sin(x1)", "--point", "0,0")
    assert code == 2


def test_singular_metric_exits_3(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"n": 2, "G": [["x1", "0"], ["0", "x1"]]}))
    code, _, err = run(capsys, "laplacian", "--metric", str(path), "--fn", "x1^2", "--point", "0,0")
    assert code == 3
    assert "singular" in err


@pytest.mark.parametrize(("mode", "where"), [("exact", "(0, 1/2)"), ("float", "(0, 0.5)")])
def test_singular_metric_names_the_point_in_numbers(tmp_path, capsys, mode, where):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"n": 2, "G": [["x1", "0"], ["0", "x1"]]}))
    code, out, err = run(capsys, "--mode", mode, "laplacian", "--metric", str(path), "--fn", "x1^2", "--point", "0,1/2")
    assert (code, out) == (3, "")
    assert err == f"error: metric is singular at {where}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "conformal", "--point", "0,0"], "check conformal needs --map"),
        (["algebra", "dl"], "algebra dl needs --n"),
        (["algebra", "quotient", "--n", "2"], "algebra quotient needs --n and --bound"),
        (["laplacian", "--metric", "{polar}", "--fn", "x1", "--point", "1,2,3"],
         "point dimension does not match the metric"),
        (["check", "harmonic", "--metric", "{polar}", "--fn", "x1^2", "--point", "1"],
         "point dimension does not match the metric"),
        (["check", "l-neighbor", "--metric", "{polar}", "--z", "d1,d2,d3", "--point", "1,2,3"],
         "point dimension does not match the metric"),
        (["check", "harmonic", "--point", "0,0"], "check harmonic needs --fn"),
        (["check", "l-neighbor", "--point", "0,0"], "check l-neighbor needs --z"),
        (["check", "l-neighbor", "--point", "0,0", "--z", "1+d1,d2"],
         "neighbor coordinates must be nilpotent (no constant term)"),
        (["check", "l-neighbor", "--point", "0,0", "--z", "d1"], "need one coordinate expression per dimension"),
        (["coalgebra", "--dist", "d1-d1", "--n", "1"], "the zero distribution generates nothing"),
        (["check", "cr", "--map", "x1^2-x2^2,2*x1*x2", "--point", "1,2,3"], "base point has 3 coordinates for 2 offsets"),
        (["algebra", "dk", "--n", "1000", "--k", "0"], "1000 generators are more than MAX_DIMENSION - 1 = 499"),
        (["algebra", "quotient", "--n", "1000", "--bound", "0"], "1000 generators are more than MAX_DIMENSION - 1 = 499"),
        (["check", "harmonic", "--point", "1e4400,1"], "check harmonic needs --fn"),
        (["check", "conformal", "--point", "1e4400,1"], "check conformal needs --map"),
    ],
    ids=["conformal-no-map", "dl-no-n", "quotient-no-bound", "point-beyond-metric", "harmonic-point-below-metric",
         "l-neighbor-point-beyond-metric", "harmonic-no-fn",
         "l-neighbor-no-z", "l-neighbor-constant-term", "l-neighbor-too-few", "zero-distribution",
         "cr-point-beyond-plane", "dk-1000-generators", "quotient-1000-generators",
         "harmonic-no-fn-unprintable-point", "conformal-no-map-unprintable-point"],
)
def test_missing_map_exits_2(capsys, polar_file, argv, message):
    code, out, err = run(capsys, *(a.replace("{polar}", polar_file) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["laplacian", "--fn", "1/x1", "--point", "0"],
        ["--mode", "float", "laplacian", "--fn", "log(x1-1)", "--point", "0"],
        ["--mode", "float", "laplacian", "--fn", "sqrt(x1)", "--point", "0"],
    ],
)
def test_pole_or_domain_error_at_the_point_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "fn",
    ["+".join(["x1"] * 3000), "(" * 1200 + "x1" + ")" * 1200, "-" * 3000 + "x1"],
    ids=["3000-term-sum", "1200-parentheses", "3000-minus-signs"],
)
def test_too_deep_expression_exits_2(capsys, fn):
    code, out, err = run(capsys, "laplacian", "--fn=" + fn, "--point", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["algebra", "dk", "--n", "12", "--k", "6"], ["coalgebra", "--dist", "d1^6", "--n", "30"],
     # the universal point needs laplace_algebra(n), of dimension n + 2; no flat metric is built
     ["laplacian", "--fn", "x1^2", "--point", ",".join(["0"] * 499)],
     ["laplacian", "--fn", "x1^2", "--point", ",".join(["0"] * 2000)],
     ["check", "harmonic", "--fn", "x1^2", "--point", ",".join(["0"] * 499)]],
    ids=["dk-dimension-18564", "coalgebra-1947792-monomials", "laplacian-499-coordinates",
         "laplacian-2000-coordinates", "harmonic-499-coordinates"],
)
def test_oversized_algebra_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_asymmetric_metric_exits_2(capsys, tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({"n": 2, "G": [["1", "0"], ["1", "1"]]}))
    code, out, err = run(capsys, "laplacian", "--metric", str(path), "--fn", "x1^2", "--point", "0,0")
    assert code == 2
    assert out == ""
    assert "not symmetric" in err and "(1, 2)" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("[" * 100000, "metric file"),
        ('{"n": 1e400, "G": [["1"]]}', "metric file"),
        ("[1, 2]", "metric file"),
        ("5", "metric file"),
        ('{"n": 1, "G": ["1"]}', "metric rows must be lists of expression strings"),
        ('{"n": 2, "G": 5}', "metric rows must be lists of expression strings"),
    ],
    ids=["100000-open-brackets", "infinite-n", "list", "number", "string-row", "numeric-G"],
)
def test_hostile_metric_json_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "metric.json"
    path.write_text(text)
    code, out, err = run(capsys, "laplacian", "--metric", str(path), "--fn", "x1^2", "--point", "0")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", [("laplacian",), ("check", "harmonic")])
def test_float_point_beyond_the_float_range_exits_2(capsys, command):
    code, out, err = run(capsys, "--mode", "float", *command, "--fn", "x1^2", "--point", "1e400,0")
    assert (code, out) == (2, "")
    assert err == "error: point '1e400,0' lies outside the float range\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["laplacian", "--fn", "x1*1e400", "--point", "1,0"], "an expression constant"),
        (["laplacian", "--fn", "x1+10^400", "--point", "1,0"], "an expression constant"),
        (["check", "l-neighbor", "--z", "d1*10^400,d2", "--point", "1,0"], "an exact coordinate"),
        (["check", "conformal", "--map", "x1*10^400,x2", "--point", "1,0"], "an expression constant"),
    ],
    ids=["fn-1e400", "fn-10^400", "z-10^400", "map-10^400"],
)
def test_float_constant_beyond_the_float_range_exits_2(capsys, argv, message):
    code, out, err = run(capsys, "--mode", "float", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message} lies outside the float range\n"


@pytest.mark.parametrize("point", ["1,0", "2,0"])
@pytest.mark.parametrize("rows", [POLAR_DOC["G"], [["1+x2^2", "x1"], ["x1", "2+x1*x2"]]], ids=["polar", "curved"])
def test_exact_z_beyond_the_float_range_exits_2_on_a_curved_metric(capsys, tmp_path, rows, point):
    # refused before the transport, where it would meet the float correction
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"n": 2, "G": rows}))
    code, out, err = run(capsys, "--mode", "float", "check", "l-neighbor", "--metric", str(path),
                         "--point", point, "--z", "d1*10^400,d2")
    assert (code, out) == (2, "")
    assert err == "error: an exact coordinate lies outside the float range\n"


def test_float_overflow_inside_the_arithmetic_still_exits_3(capsys):
    code, out, err = run(capsys, "--mode", "float", "laplacian", "--fn", "exp(1000*x1)", "--point", "1,0")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exits_2(capsys, tmp_path, where):
    target = tmp_path / "no" / "out.json" if where == "missing-directory" else tmp_path
    code, out, err = run(capsys, "laplacian", "--fn", "x1^2", "--point", "0", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_huge_exponent_literal_exits_2(capsys):
    code, out, err = run(capsys, "laplacian", "--fn", "x1^99999999999", "--point", "2")
    assert code == 2
    assert out == ""
    assert "MAX_EXPONENT" in err and err.count("\n") == 1


@pytest.mark.parametrize("eps", ["nan", "inf", "-1e-9"])
def test_epsilon_must_be_finite_and_nonnegative(capsys, eps):
    with pytest.raises(SystemExit) as exc:
        main(["--mode", "float", f"--epsilon={eps}", "laplacian", "--fn", "x1^2", "--point", "1"])
    assert exc.value.code == 2
    assert "epsilon must be finite and >= 0" in capsys.readouterr().err


def test_conformal_check_of_non_square_map_exits_2(capsys):
    code, out, err = run(capsys, "check", "conformal", "--map", "x1", "--point", "1,2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_import_leaves_dataclasses_out():
    code = "import sys, nilgeom.cli; print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "fn", ["((x1^1000)^1000)^1000", "(x1^1000)^1000", "(7^1000)^1000"],
    ids=["three-levels", "two-levels", "constant-folded"],
)
def test_nested_exponents_exit_2_at_once(capsys, fn):
    start = time.perf_counter()
    code, out, err = run(capsys, "laplacian", "--fn", fn, "--point", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "error: nested exponents multiply to 1000000 > MAX_EXPONENT = 1000\n"


def test_nested_exponent_boundary(capsys):
    assert run_json(capsys, "laplacian", "--fn", "(x1^10)^100", "--point", "1")["value"] == "999000"
    code, _, err = run(capsys, "laplacian", "--fn", "(x1^10)^101", "--point", "1")
    assert code == 2
    assert "1010 > MAX_EXPONENT" in err


HYPERBOLIC_DOC = {"n": 2, "G": [["0", "1"], ["1", "0"]]}


def test_l_neighbor_answers_where_g_is_not_the_identity(capsys, polar_file, tmp_path):
    # exact normalization used to need G(x) = I (polar at 2,0 has diag(1, 4))
    # and float normalization a positive definite G(x); neither is needed now
    doc = run_json(capsys, "check", "l-neighbor", "--metric", polar_file, "--point", "2,0", "--z", "d1^2,d1*d2")
    assert doc["l_neighbor"] is True
    doc = run_json(capsys, "check", "l-neighbor", "--metric", polar_file, "--point", "2,0", "--z", "d1,d2")
    assert doc["l_neighbor"] is False
    path = tmp_path / "hyperbolic.json"
    path.write_text(json.dumps(HYPERBOLIC_DOC))
    for z, want in (("d1^2,d1*d2", True), ("d1,d2", False)):
        doc = run_json(capsys, "--mode", "float", "check", "l-neighbor", "--metric", str(path), "--point", "0,0",
                       "--z", z)
        assert doc["l_neighbor"] is want


# -- values that start with '-' ----------------------------------------------------------

def test_negative_point_parses(capsys):
    doc = run_json(capsys, "laplacian", "--fn", "x1^3", "--point", "-1,0")
    assert doc["value"] == "-6"
    assert doc["point"] == ["-1", "0"]
    assert run_json(capsys, "laplacian", "--fn", "x1^3", "--point=-1,0") == doc


def test_negative_fn_parses(capsys):
    doc = run_json(capsys, "laplacian", "--fn", "-x1^2", "--point", "1,0")
    assert doc["value"] == "-2"
    assert doc["function"] == "-x1^2"
    assert run_json(capsys, "check", "harmonic", "--fn", "-x1*x2", "--point", "-3,5")["harmonic"] is True


def test_negative_map_parses(capsys):
    doc = run_json(capsys, "check", "conformal", "--map", "-x1, x2", "--point", "-1,2")
    assert doc["conformal"] is True
    assert doc["factor"] == "1"
    doc = run_json(capsys, "check", "cr", "--map", "-x1^2+x2^2, -2*x1*x2", "--point", "1,0")
    assert doc["holomorphic"] is True
    assert doc["derivative"] == ["-2", "0"]


def test_negative_z_parses(capsys):
    argv = ["check", "l-neighbor", "--point", "-1,0", "--z", "-d1, d2"]
    assert run_json(capsys, *argv)["l_neighbor"] is False
    assert run_json(capsys, *argv, "--ambient-order", "1")["l_neighbor"] is True


def test_negative_relations_parse(capsys):
    argv = ["algebra", "quotient", "--n", "2", "--bound", "2"]
    negated = run_json(capsys, *argv, "--rel", "-x1^2+x2^2", "--rel", "-x1*x2")
    assert negated == run_json(capsys, *argv, "--rel", "x1^2-x2^2", "--rel", "x1*x2")


def test_negative_distribution_parses(capsys):
    doc = run_json(capsys, "coalgebra", "--dist", "-d1^2-d2^2", "--n", "2")
    assert doc["distribution"] == "-d1^2 - d2^2"
    assert doc["basis"] == ["1", "d1", "d2", "d1^2 + d2^2"]


def test_options_are_still_read_as_options(capsys):
    # a missing value is still reported, and -h is still help
    with pytest.raises(SystemExit) as exc:
        main(["laplacian", "--fn", "--point", "1"])
    assert exc.value.code == 2
    assert "argument --fn: expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["laplacian", "-h"])
    assert exc.value.code == 0
    assert "--point POINT" in capsys.readouterr().out
