"""Jets by nilpotent arithmetic, checked against symbolic derivatives.

``jet_eval`` evaluates an expression with Weil-algebra arithmetic; the
reference in conftest builds every partial derivative with ``diff`` and
sums the truncated Taylor series.  Exact jets must agree coordinate for
coordinate, float jets to 1e-9 relative to the jet's size.  ``evaluate``
runs the same interpreter at a real point and must agree bit for bit with
the recursive tree evaluator in conftest.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilgeom.expr import (
    PRIMITIVES,
    Add,
    Call,
    Const,
    Div,
    Mul,
    Pow,
    Sub,
    Var,
    evaluate,
    jet_eval,
    parse_expr,
    taylor_coefficients,
)
from nilgeom.weil import laplace_algebra, tensor_algebra, truncated_algebra
from conftest import evaluate_by_tree, jet_eval_by_diff, taylor_coefficients_by_diff

F = Fraction
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _tensor():
    c, embed_l, embed_t = tensor_algebra(laplace_algebra(2), truncated_algebra(1, 1))
    z1, z2 = laplace_algebra(2).generators()
    (e,) = truncated_algebra(1, 1).generators()
    return c, [embed_l(z1), embed_l(z2), embed_t(e)]


def _generators(algebra):
    return algebra, algebra.generators()


ALGEBRAS = [
    _generators(truncated_algebra(1, 3)),
    _generators(truncated_algebra(2, 2)),
    _generators(truncated_algebra(2, 3)),
    _generators(truncated_algebra(3, 1)),
    _generators(laplace_algebra(2)),
    _generators(laplace_algebra(3)),
    _tensor(),
]

small_fraction = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


def rational_exprs(n_vars):
    leaves = st.one_of(
        small_fraction.map(Const),
        st.integers(0, n_vars - 1).map(Var),
    )

    def extend(children):
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, children),
            st.builds(Pow, children, st.integers(0, 3)),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def analytic_exprs(n_vars):
    """Float-mode trees: log and sqrt only see arguments >= 1."""
    leaves = st.one_of(
        small_fraction.map(Const),
        st.integers(0, n_vars - 1).map(Var),
    )

    def extend(children):
        positive = children.map(lambda e: Add(Const(F(1)), Pow(e, 2)))
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Mul, children, children),
            st.builds(Call, st.sampled_from(("exp", "sin", "cos")), children),
            st.builds(Call, st.sampled_from(("log", "sqrt")), positive),
            st.builds(Div, children, positive),
        )

    return st.recursive(leaves, extend, max_leaves=5)


@st.composite
def exact_case(draw, exprs=rational_exprs):
    algebra, offsets = draw(st.sampled_from(ALGEBRAS))
    n = len(offsets)
    base = tuple(draw(small_fraction) for _ in range(n))
    return draw(exprs(n)), base, algebra, offsets


@st.composite
def float_case(draw):
    """A primitive at the root, over a random tree that uses a variable."""
    algebra, offsets = draw(st.sampled_from(ALGEBRAS))
    n = len(offsets)
    base = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(n))
    inner = Add(draw(analytic_exprs(n)), Var(draw(st.integers(0, n - 1))))
    name = draw(st.sampled_from(PRIMITIVES))
    if name in ("log", "sqrt"):
        inner = Add(Const(F(1)), Pow(inner, 2))
    return Call(name, inner), base, algebra, offsets


def _pole(e, base, mode="exact"):
    try:
        evaluate(e, base, mode)
    except ZeroDivisionError:
        return True
    return False


@PROPERTY
@given(exact_case())
def test_exact_jet_equals_diff_oracle(case):
    e, base, _, offsets = case
    if _pole(e, base):
        with pytest.raises(ZeroDivisionError):
            jet_eval(e, base, offsets)
        return
    got = jet_eval(e, base, offsets)
    assert got == jet_eval_by_diff(e, base, offsets)
    assert not any(isinstance(c, float) for c in got.coords)
    assert all(isinstance(c, Fraction) for c in got.coords)


@PROPERTY
@given(exact_case(), st.integers(0, 3))
def test_taylor_coefficients_equal_diff_oracle(case, order):
    e, base, _, _ = case
    if _pole(e, base):
        with pytest.raises(ZeroDivisionError):
            taylor_coefficients(e, base, order)
        return
    assert taylor_coefficients(e, base, order) == taylor_coefficients_by_diff(e, base, order)


@PROPERTY
@given(exact_case(), rational_exprs(3))
def test_jet_is_multiplicative(case, g):
    f, base, _, offsets = case
    g = _restrict(g, len(offsets))
    if _pole(f, base) or _pole(g, base):
        return
    assert jet_eval(Mul(f, g), base, offsets) == jet_eval(f, base, offsets) * jet_eval(g, base, offsets)


def _restrict(e, n):
    """Rename variables beyond the first n onto x1, so e fits the point."""
    if isinstance(e, Var):
        return Var(e.index % n)
    if isinstance(e, Const):
        return e
    if isinstance(e, Pow):
        return Pow(_restrict(e.base, n), e.exponent)
    return type(e)(_restrict(e.left, n), _restrict(e.right, n))


def _assert_float_jets_agree(e, base, offsets):
    want = jet_eval_by_diff(e, base, offsets, "float")
    got = jet_eval(e, base, offsets, "float")
    scale = max([1.0] + [abs(c) for c in want.coords])
    for a, b in zip(got.coords, want.coords):
        assert isinstance(a, float)
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9 * scale)


@settings(PROPERTY, max_examples=100)
@given(float_case())
def test_float_jet_of_primitives_matches_diff_oracle(case):
    e, base, _, offsets = case
    try:
        evaluate(e, base, "float")
    except OverflowError:
        return
    _assert_float_jets_agree(e, base, offsets)


@pytest.mark.parametrize("name", PRIMITIVES)
@pytest.mark.parametrize("algebra, offsets", ALGEBRAS, ids=lambda a: repr(a) if hasattr(a, "basis") else "")
def test_each_primitive_in_each_algebra_matches_diff_oracle(name, algebra, offsets):
    n = len(offsets)
    arg = f"1/2 + x1 - x{n}^2/3" if name in ("exp", "sin", "cos") else f"3/2 + x1 + x{n}^2"
    base = (0.3, -0.2, 0.5)[:n]
    _assert_float_jets_agree(parse_expr(f"{name}({arg})", n=n), base, offsets)


@pytest.mark.parametrize(
    "text, base, order, error",
    [
        ("1/x1", (F(0),), 2, ZeroDivisionError),
        ("log(x1 - 1)", (0.0,), 2, ArithmeticError),
        ("sqrt(x1)", (-1.0,), 2, ArithmeticError),
        ("sqrt(x1)", (0.0,), 1, ZeroDivisionError),
    ],
)
def test_jet_error_mapping(text, base, order, error):
    mode = "float" if isinstance(base[0], float) else "exact"
    with pytest.raises(error):
        jet_eval(parse_expr(text), base, truncated_algebra(1, order).generators(), mode)


def test_sqrt_at_zero_in_order_zero_is_plain_evaluation():
    (z,) = truncated_algebra(1, 0).generators()
    assert jet_eval(parse_expr("sqrt(x1)"), (0.0,), [z], "float").coords == (0.0,)


def _outcome(fn, *args):
    """The repr of fn's value (bitwise for floats), or the type it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc)


@st.composite
def evaluation_case(draw):
    """A tree with or without primitives, a point that may miss one of its
    variables, and a mode; float coordinates only in float mode."""
    n = draw(st.integers(1, 3))
    e = draw(draw(st.sampled_from((rational_exprs, analytic_exprs)))(n))
    mode = draw(st.sampled_from(("exact", "float")))
    coordinate = st.one_of(small_fraction, st.floats(-2.0, 2.0)) if mode == "float" else small_fraction
    point = tuple(draw(coordinate) for _ in range(draw(st.integers(1, n))))
    return e, point, mode


@settings(PROPERTY, max_examples=200)
@given(evaluation_case())
def test_evaluate_equals_the_tree_oracle(case):
    e, point, mode = case
    assert _outcome(evaluate, e, point, mode) == _outcome(evaluate_by_tree, e, point, mode)


@PROPERTY
@given(exact_case())
def test_exact_value_is_the_unit_coordinate_of_the_jet(case):
    e, base, _, offsets = case
    assert _outcome(evaluate, e, base) == _outcome(lambda: jet_eval(e, base, offsets).coords[0])


def test_constant_quotient_divides_alike_in_the_jet_and_the_value():
    # a quotient of two constant subtrees is one float division in both;
    # 3 * (1/exp(2)) differs from 3/exp(2) in the last bit
    e = parse_expr("x1 + 3/exp(2)")
    jet = jet_eval(e, (0.5,), truncated_algebra(1, 2).generators(), "float")
    assert repr(jet.coords[0]) == repr(evaluate(e, (0.5,), "float"))
