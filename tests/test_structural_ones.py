"""Structural zeros and ones against the routines they replaced.

``weil._ONE`` is the one ``Fraction(1)`` that generators, basis elements
and an exact chart frame (``_linalg.congruence``) write.  A product takes
the other factor of it as it is, a scalar product the scalar; a scalar
added to an exact zero unit coordinate becomes it; the chart's G(x)^-1
(``geometry._inverse``) skips factors and divisors 1 and a first 0 + t;
an exact ``congruence`` skips zero source entries.  Each routine is
compared with its oracle in ``conftest`` in both modes: exact results have
equal values and equal coordinate types, float results equal bits, signed
zeros included, so no skip is visible in a result.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilgeom import _linalg, geometry, weil
from nilgeom.cli import main
from nilgeom.expr import FunctionModel, parse_function
from nilgeom.geometry import MetricField, conformal_check, geodesic_chart
from nilgeom.scalars import EXACT, FLOAT
from nilgeom.weil import WeilElement, _isotropy_algebra, laplace_algebra, quotient_algebra, truncated_algebra
from conftest import (
    congruence_dense,
    conformal_check_by_ratio,
    ginv_by_columns,
    product_without_one_test,
    shift_by_addition,
)

F = Fraction
PROPERTY = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
X1, X2 = weil.Polynomial.variable(2, 0), weil.Polynomial.variable(2, 1)
ALGEBRAS = (
    truncated_algebra(2, 2),
    laplace_algebra(3),
    truncated_algebra(1, 3),
    quotient_algebra(2, 2, [X2 - X1 * 2]),  # int table constants
    _isotropy_algebra((F(1), F(2), F(-1, 3))),  # Fraction table constants
    _isotropy_algebra((1.0, 2.5, -0.75)),  # float table constants
)

# the structural objects, equal values that are other objects, and values
# whose products underflow to a zero of either sign
exact_coords = st.one_of(
    st.sampled_from([weil._ONE, weil._ZERO, F(1), F(0), F(-1)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
float_coords = st.one_of(
    st.sampled_from([1.0, -1.0, 0.0, -0.0, 1e-200, -1e-200, 5e-324]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
scalars = st.one_of(
    st.sampled_from([0, 1, 2, -1, True, weil._ONE, F(1), F(0), 1.0, -0.0, 0.0]),
    st.integers(-9, 9),
    exact_coords,
    float_coords,
)


@st.composite
def elements(draw, algebra):
    """An exact, a float or a mixed element of ``algebra``, mostly zeros."""
    kind = draw(st.sampled_from(("exact", "float", "mixed")))
    coord = {"exact": exact_coords, "float": float_coords,
             "mixed": st.one_of(exact_coords, float_coords)}[kind]
    return algebra.element([draw(st.one_of(st.just(weil._ZERO), coord)) for _ in range(algebra.dimension)])


def _bits(v):
    """A scalar by its type and value, a float by its bits."""
    return type(v).__name__, v.hex() if isinstance(v, float) else v


def _same(got, want):
    assert [_bits(c) for c in got.coords] == [_bits(c) for c in want.coords], (got.coords, want.coords)


element_pairs = st.sampled_from(ALGEBRAS).flatmap(lambda a: st.tuples(elements(a), elements(a)))


@PROPERTY
@given(element_pairs)
def test_products_equal_the_product_without_the_one_test(pair):
    x, y = pair
    _same(x * y, product_without_one_test(x, y))
    _same(y * x, product_without_one_test(y, x))


@PROPERTY
@given(st.sampled_from(ALGEBRAS).flatmap(elements), scalars)
def test_scalar_products_and_shifts_equal_the_old_routines(w, s):
    for got in (w * s, s * w):
        _same(got, product_without_one_test(w, s))
    for got in (w + s, s + w):
        _same(got, shift_by_addition(w, s))


@pytest.mark.parametrize("unit", [weil._ZERO, F(0), 0.0, -0.0, weil._ONE, 1.0])
@pytest.mark.parametrize("s", [F(1, 2), 0.5, -0.25, 3, True, weil._ONE, -0.0])
def test_shifts_of_every_zero_unit_equal_the_addition(unit, s):
    # only an exact zero takes the scalar as it is; 0.0 + F(1, 2) is a float
    w = laplace_algebra(2).element([unit, weil._ONE, F(0), 2.5])
    _same(w + s, shift_by_addition(w, s))
    _same(s + w, shift_by_addition(w, s))


def test_structural_ones_are_the_shared_one():
    algebra = laplace_algebra(3)
    for w in algebra.generators() + [algebra.basis_element(i) for i in range(algebra.dimension)]:
        assert [c for c in w.coords if c] == [weil._ONE] and any(c is weil._ONE for c in w.coords)
    c, _ = _linalg.congruence([[F(2), F(0)], [F(0), F(3)]])
    assert c[0][0] is weil._ONE and c[1][1] is weil._ONE
    z1 = algebra.generators()[0]
    # an int scalar never becomes a coordinate; a Fraction or float one is taken as it is
    assert [type(v) for v in (z1 * 3).coords if v] == [Fraction]
    half = F(1, 2)
    assert (z1 * half).coords[1] is half and (z1 + half).coords[0] is half
    assert type((z1 + 3).coords[0]) is Fraction


# -- G(x)^-1 from the frame ------------------------------------------------------------

@st.composite
def frames(draw):
    """A frame (C, d) of one mode: C with zeros and ones among its entries,
    d with no zero."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        entry = st.one_of(st.sampled_from([weil._ONE, F(0), F(1), F(-1)]),
                          st.fractions(min_value=-4, max_value=4, max_denominator=5))
    else:
        entry = st.one_of(st.sampled_from([1.0, 0.0, -0.0, -1.0, 1e-200]),
                          st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    c = [[draw(entry) for _ in range(n)] for _ in range(n)]
    d = [draw(entry.filter(bool)) for _ in range(n)]
    return c, d


@PROPERTY
@given(frames())
def test_ginv_equals_the_unskipped_loop(frame):
    got, want = geometry._inverse(*frame), ginv_by_columns(*frame)
    assert [[_bits(v) for v in row] for row in got] == [[_bits(v) for v in row] for row in want]


# -- the congruence ------------------------------------------------------------------------

@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        entry = st.one_of(st.sampled_from([F(0), F(1), F(-1)]),
                          st.fractions(min_value=-4, max_value=4, max_denominator=5))
    else:
        entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                          st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(entry)
    return a


def _congruence_or_error(routine, a):
    try:
        c, d = routine(a)
    except ZeroDivisionError:
        return "singular"
    return [[_bits(v) for v in row] for row in c], [_bits(v) for v in d]


@PROPERTY
@given(symmetric_matrices())
def test_congruence_equals_the_dense_column_additions(a):
    assert _congruence_or_error(_linalg.congruence, a) == _congruence_or_error(congruence_dense, a)


# -- the chart and the detectors -----------------------------------------------------------

def test_a_metric_of_constants_builds_no_weil_point():
    metric = MetricField.from_strings([["2", "1"], ["1", "3"]])
    with mock.patch.object(weil.WeilAlgebra, "generators", side_effect=AssertionError):
        chart = geodesic_chart(metric, (F(1, 2), F(1, 3)))
    assert chart._contract({}) == (0, 0)


@pytest.mark.parametrize("text, src, dst", [
    ("x1^2-x2^2, 2*x1*x2", [["1+x2^2", "x1"], ["x1", "2+x1*x2"]], [["1", "0"], ["0", "1+x1^2"]]),
    ("x1, x2", [["1+x2^2", "x1"], ["x1", "2+x1*x2"]], [["1+x2^2", "x1"], ["x1", "2+x1*x2"]]),
    ("2*x1, 2*x2/(1+x1)", [["4", "0"], ["0", "1"]], [["1", "0"], ["0", "x2^2/x1^2"]]),
])
def test_exact_conformal_check_reads_f_at_x_off_the_jets(text, src, dst):
    fmap = parse_function(text, n=2)
    src, dst = MetricField.from_strings(src), MetricField.from_strings(dst)
    x = (F(1, 2), F(1, 3))
    with mock.patch.object(FunctionModel, "evaluate", side_effect=AssertionError):
        report = conformal_check(fmap, src, dst, x)
    assert report == conformal_check_by_ratio(fmap, src, dst, x)
    with mock.patch.object(FunctionModel, "evaluate", autospec=True,
                           side_effect=FunctionModel.evaluate) as evaluate:
        conformal_check(fmap, src, dst, tuple(map(float, x)), mode=FLOAT)
    assert evaluate.call_count == 1


def test_mirrored_equal_strings_are_one_expression_and_never_printed():
    n = 40
    rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    rows[0][1] = rows[1][0] = "x1*x2"
    with mock.patch.object(geometry, "format_expr", side_effect=AssertionError):
        metric = MetricField.from_strings(rows)
    assert metric.entry(0, 1) is metric.entry(1, 0) and metric.entry(2, 3) is metric.entry(0, 5)
    rows[1][0] = "x2*x1"  # prints otherwise: refused, as before
    with pytest.raises(ValueError, match="not symmetric"):
        MetricField.from_strings(rows)


# -- the CLI refuses point literals whose exact result could not be printed ----------------

def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    ["laplacian", "--fn", "x1^1000", "--point", "1e1000,0"],
    ["laplacian", "--fn", "x1^1000", "--point", "1e5,0"],
    ["laplacian", "--fn", "x1*x2", "--point", "1e4400,1"],
    ["check", "harmonic", "--fn", "x1^600*x2", "--point", "1/3,1e20"],
    ["check", "cr", "--map", "x1^900, x2", "--point", "1e20,0"],
    ["check", "preserves-l", "--map", "x1^900, x2", "--point", "1e20,0"],
    ["check", "conformal", "--map", "x1^300, x2", "--point", "1e20,1"],
])
def test_oversized_exact_points_exit_2_before_any_jet(argv, capsys):
    with mock.patch("nilgeom.expr._jet", side_effect=AssertionError):
        code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: point literals of ") and err.count("\n") == 1 and "-digit limit" in err


def test_the_point_bound_counts_the_target_metric_at_f_x(tmp_path, capsys):
    path = tmp_path / "dst.json"
    path.write_text('{"n": 2, "G": [["1+x1^40", "0"], ["0", "1"]]}')
    argv = ["check", "conformal", "--map", "x1^30, x2", "--point", "1e20,1", "--dst-metric", str(path)]
    assert _run(argv, capsys)[0] == 2  # 67 bits x 30 passes, x 30 x 40 does not
    assert _run(argv[:-2], capsys)[0] == 0


def test_points_under_the_bound_and_float_points_still_run(capsys):
    code, out, _ = _run(["laplacian", "--fn", "x1^1000", "--point", "1e4,0"], capsys)
    assert code == 0 and '"value": "999000' in out
    assert _run(["--mode", "float", "laplacian", "--fn", "x1^2", "--point", "1e300,0"], capsys)[0] == 0
    assert _run(["laplacian", "--fn", "x1^2", "--point", "0," * 497 + "0"], capsys)[0] == 0
