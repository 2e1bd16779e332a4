"""The exit-code contract under hostile input: every command line ends in
exit 0, 2 or 3 within seconds, with no traceback and at most one line on
stderr (argparse's usage block on exit 2 aside).

``cli.main`` runs in-process on argument lists drawn from subcommands,
option values that start with '-', expressions past ``MAX_DEPTH`` and
``MAX_EXPONENT``, hostile metric JSON, and every kind of ``--epsilon``.
Algebra sizes are small or over ``MAX_DIMENSION``, which is refused at
once; point literals have at most 41 digits, since the cost of an exact
power grows with the digits of its base.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilgeom.cli import main

FLAT2 = [["1", "0"], ["0", "1"]]

METRIC_DOCS = {
    "flat.json": {"n": 2, "G": FLAT2},
    "polar.json": {"n": 2, "G": [["1", "0"], ["0", "x1^2"]]},
    "sphere.json": {"n": 2, "G": [["1", "0"], ["0", "sin(x1)^2"]]},
    "indefinite.json": {"n": 2, "G": [["1", "0"], ["0", "-1"]]},
    "curved.json": {"n": 2, "G": [["4 + x2", "1"], ["1", "1 + x1^2"]]},
    "singular.json": {"n": 2, "G": [["0", "0"], ["0", "0"]]},
    "three.json": {"n": 3, "G": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    "ragged.json": {"n": 2, "G": [["1", "0"], ["0"]]},
    "wide.json": {"n": 2, "G": [["1", "0", "0"], ["0", "1", "0"]]},
    "asymmetric.json": {"n": 2, "G": [["1", "x1"], ["0", "1"]]},
    "numbers.json": {"n": 2, "G": [[1, 0], [0, 1]]},
    "nulls.json": {"n": 2, "G": [[None, "0"], ["0", "1"]]},
    "nested.json": {"n": 2, "G": [["1", ["0"]], [["0"], "1"]]},
    "rows-not-lists.json": {"n": 2, "G": [1, 2]},
    "string-rows.json": {"n": 2, "G": ["10", "01"]},
    "g-string.json": {"n": 2, "G": "ab"},
    "g-number.json": {"n": 2, "G": 5},
    "no-n.json": {"G": FLAT2},
    "no-g.json": {"n": 2},
    "empty.json": {},
    "wrong-n.json": {"n": 3, "G": FLAT2},
    "n-string.json": {"n": "two", "G": FLAT2},
    "n-null.json": {"n": None, "G": FLAT2},
    "n-zero.json": {"n": 0, "G": []},
    "beyond-n.json": {"n": 2, "G": [["x3", "0"], ["0", "1"]]},
    "deep-entry.json": {"n": 1, "G": [["(" * 120 + "x1" + ")" * 120]]},
}

GOOD_METRICS = ["flat.json", "polar.json", "sphere.json", "indefinite.json", "curved.json", "singular.json"]

METRIC_TEXTS = {
    "list.json": "[1, 2]",
    "number.json": "5",
    "null.json": "null",
    "truncated.json": '{"n": 2, "G": [',
    "n-infinite.json": '{"n": 1e400, "G": [["1"]]}',
    "n-nan.json": '{"n": NaN, "G": [["1"]]}',
    "deep-array.json": "[" * 100000,
}

DEEP = "(" * 101 + "x1" + ")" * 101

# per slot of a command line: values that should run, and hostile ones
GOOD = {
    "fn": ["x1^2+x2^2", "x1*x2", "-x1^2", "-1/(1+x1^2)", "x1^3-3*x1*x2^2", "exp(x1)*sin(x2)", "x1^1000",
           "1/x1", "sqrt(x1)", "log(x1)"],
    "rel": ["x1^2-x2^2", "x1*x2", "-x1^3", "x2^2 - x1"],
    "map": ["x1, x2", "x1^2-x2^2, 2*x1*x2", "-x2, x1", "x1, 2*x2", "exp(x1)*cos(x2), exp(x1)*sin(x2)",
            "x1^2, x2", "0, 0"],
    "z": ["d1, d2", "-d1, d2", "d1^2, d2", "d1*d2, -d2", "d1 - d2^2, d2"],
    "dist": ["d1^2+d2^2", "-d1", "d1^6", "d1^2*d2 - 3*d2", "d1/2", "3"],
    "point": ["0,0", "1,0", "-1,0", "0.9,0.4", "1/3,2/7", "-7/3,1/2"],
    "n": ["1", "2", "3"],
    "k": ["0", "1", "2", "3"],
    "order": ["0", "1", "2", "3"],
    "flag": [[], ["--mode", "exact"], ["--mode", "float"], ["--epsilon", "0"], ["--epsilon", "1e-12"]],
}
EXPRESSIONS = ["x1^1001", "(x1^40)^40", "7^1001", DEEP, "-" * 101 + "x1", "", "x1 +", "x0", "x9", "y1",
               "x1^-1", "x1^0.5", "1/0", "x1^2, x2", "-", "exp(d1)", "x1, x2, x1*x2", "1+d1, d2"]
BAD = {
    "fn": EXPRESSIONS, "rel": EXPRESSIONS, "map": EXPRESSIONS, "z": EXPRESSIONS,
    "dist": EXPRESSIONS + ["0", "d1^1001", "d1/d2"],
    "point": ["1e40,0", "1", "0,0,0", "1/0,1", "abc", "", ",", "-", "nan,0", "--1"],
    "n": ["0", "-1", "x", "600", "100000"],
    "k": ["-1", "x", "600", "100000"],
    "order": ["-1", "600"],
    "flag": [["--mode", "-x"], ["--epsilon", "nan"], ["--epsilon", "inf"], ["--epsilon", "-1"],
             ["--epsilon=-1"]],
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Metric files by name, a directory, a missing file, and output paths."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in METRIC_DOCS.items():
        (root / name).write_text(json.dumps(doc))
    for name, text in METRIC_TEXTS.items():
        (root / name).write_text(text)
    (root / "binary.json").write_bytes(b"\xff\xfe{")
    good = [str(root / name) for name in GOOD_METRICS]
    bad = [str(root / name) for name in [*METRIC_DOCS, *METRIC_TEXTS, "binary.json"] if name not in GOOD_METRICS]
    bad += [str(root), str(root / "missing.json")]
    outputs = [str(root / "out.json"), str(root / "no" / "such" / "out.json"), str(root)]
    return (bad, good), outputs


@st.composite
def command_lines(draw, paths):
    """One hostile slot per command line (or none), so that the others
    reach the code behind the parser."""
    metrics, outputs = paths
    bad_metrics, good_metrics = metrics
    hostile = draw(st.sampled_from([None, "missing", "metric", "output", *BAD]))

    def pick(slot):
        return draw(st.sampled_from((BAD if slot == hostile else GOOD)[slot]))

    def option(flag, slot, required=False):
        if (required and hostile != "missing") or draw(st.booleans()):
            return [flag, pick(slot)]
        return []

    def metric(flag):
        pool = bad_metrics if hostile == "metric" else good_metrics
        return [flag, draw(st.sampled_from(pool))] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["algebra", "laplacian", "check", "coalgebra"]))
    if command == "algebra":
        argv = ["algebra", draw(st.sampled_from(["dk", "dl", "quotient"]))]
        argv += option("--n", "n", True) + option("--k", "k", True) + option("--bound", "k", True)
        argv += [a for _ in range(draw(st.integers(0, 2))) for a in ("--rel", pick("rel"))]
    elif command == "laplacian":
        argv = ["laplacian"] + option("--fn", "fn", True) + option("--point", "point", True) + metric("--metric")
    elif command == "check":
        kind = draw(st.sampled_from(["conformal", "harmonic", "cr", "l-neighbor", "preserves-l"]))
        argv = ["check", kind] + option("--point", "point", True)
        argv += option("--map", "map", kind in ("conformal", "cr", "preserves-l"))
        argv += option("--fn", "fn", kind == "harmonic") + option("--z", "z", kind == "l-neighbor")
        argv += metric("--metric") + metric("--dst-metric") + option("--ambient-order", "order")
    else:
        argv = ["coalgebra"] + option("--dist", "dist", True) + option("--n", "n", True)
    before, after = pick("flag"), pick("flag")
    if hostile == "output":
        after = after + ["--output", draw(st.sampled_from(outputs))]
    return before + argv + after


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exits
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_command_line_keeps_the_exit_code_contract(paths, data):
    argv = data.draw(command_lines(paths), label="argv")
    start = time.perf_counter()
    code, out, err = _run(argv)  # an escaping exception fails the test with its traceback
    assert time.perf_counter() - start < 5.0
    assert code in (0, 2, 3)
    assert "Traceback" not in out + err
    if code == 0:
        assert err == ""
    elif code == 2 and err.startswith("usage: "):
        assert err.count("\n") >= 2 and "error: " in err.splitlines()[-1]
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
