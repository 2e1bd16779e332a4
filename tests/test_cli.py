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


def test_missing_map_exits_2(capsys):
    code, _, _ = run(capsys, "check", "conformal", "--point", "0,0")
    assert code == 2


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
    [["algebra", "dk", "--n", "12", "--k", "6"], ["coalgebra", "--dist", "d1^6", "--n", "30"]],
    ids=["dk-dimension-18564", "coalgebra-1947792-monomials"],
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
