"""Expression ASTs: grammar, derivatives, Taylor data, jet evaluation."""

import random
from fractions import Fraction

import pytest

from nilgeom.expr import (
    Const,
    FunctionModel,
    Pow,
    Var,
    evaluate,
    expr_to_polynomial,
    format_expr,
    jet_eval,
    parse_expr,
    parse_function,
    polynomial_to_expr,
    taylor_coefficients,
)
from nilgeom.weil import Polynomial, laplace_algebra, truncated_algebra
from conftest import compose, diff, random_poly_expr, random_point

F = Fraction


# -- grammar ------------------------------------------------------------------

CASES = [
    "x1^2 - x2^2",
    "2*x1*x2",
    "1/(1 - x1)",
    "3/4*x1 + 1/2",
    "-x1^3 + x2/5",
    "(x1 + x2)^2/2",
    "exp(x1)*cos(x2) - sin(x1*x2)",
    "sqrt(x1 + 4)",
]


@pytest.mark.parametrize("text", CASES)
def test_parse_print_round_trip(text):
    e = parse_expr(text)
    printed = format_expr(e)
    again = parse_expr(printed)
    assert format_expr(again) == printed  # printer is a fixed point
    pts = [(0.3, 0.7), (1.5, -0.25), (0.0, 2.0)]
    for p in pts:
        assert evaluate(e, p, mode="float") == pytest.approx(evaluate(again, p, mode="float"))


@pytest.mark.parametrize(
    "text",
    ["x0", "y1 + 2", "x1 +", "exp()", "x1^x2", "x1^(1/2)", "(x1", "x1**2", "2..5"],
)
def test_parse_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_expr(text)


def test_parse_depth_limit():
    from nilgeom.expr import MAX_DEPTH

    at_limit = "(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1)
    assert evaluate(parse_expr(at_limit), (F(3),)) == 3
    with pytest.raises(ValueError, match="deeper"):
        parse_expr("(" + at_limit + ")")
    chain = "+".join(["x1"] * MAX_DEPTH)  # MAX_DEPTH - 1 additions over depth-1 leaves
    assert evaluate(parse_expr(chain), (F(1),)) == MAX_DEPTH
    with pytest.raises(ValueError, match="deeper"):
        parse_expr(chain + "+x1")


def test_parse_exponent_limit():
    from nilgeom.expr import MAX_EXPONENT

    assert evaluate(parse_expr(f"x1^{MAX_EXPONENT}"), (F(2),)) == 2 ** MAX_EXPONENT
    assert evaluate(parse_expr(f"2^{MAX_EXPONENT}"), ()) == 2 ** MAX_EXPONENT
    for text in (f"x1^{MAX_EXPONENT + 1}", f"3^{MAX_EXPONENT + 1}", "x1^99999999999", "x1^2^9999"):
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            parse_expr(text)


def test_parse_respects_declared_dimension():
    parse_expr("x2", n=2)
    with pytest.raises(ValueError):
        parse_expr("x3", n=2)


def test_parse_function_infers_arity():
    f = parse_function("x1^2 - x2^2, 2*x1*x2")
    assert (f.n_in, f.n_out) == (2, 2)
    g = parse_function("x1 + 1")
    assert (g.n_in, g.n_out) == (1, 1)


def test_distribution_prefix():
    e = parse_expr("d1^2 + d2^2", prefix="d")
    assert evaluate(e, (F(1), F(2))) == 5


# -- differentiation: the symbolic oracle in conftest ----------------------------

def test_diff_basics():
    e = parse_expr("x1^2")
    assert evaluate(diff(e, 0), (F(3),)) == 6
    e = parse_expr("x1*x2")
    assert evaluate(diff(e, 1), (F(5), F(0))) == 5
    assert evaluate(diff(e, 0), (F(0), F(7))) == 7


@pytest.mark.parametrize("base", [Var(0), Const(F(0))])
def test_diff_of_zeroth_power_is_zero(base):
    # the parser and pow_ fold x^0 away; only hand-built nodes reach diff
    d = diff(Pow(base, 0), 0)
    assert isinstance(d, Const) and d.value == 0


def test_diff_primitives_float():
    x = (0.37,)
    assert evaluate(diff(parse_expr("exp(x1)"), 0), x, "float") == pytest.approx(
        evaluate(parse_expr("exp(x1)"), x, "float")
    )
    assert evaluate(diff(parse_expr("log(x1)"), 0), (2.0,), "float") == pytest.approx(0.5)
    assert evaluate(diff(parse_expr("sin(x1)"), 0), x, "float") == pytest.approx(
        evaluate(parse_expr("cos(x1)"), x, "float")
    )
    assert evaluate(diff(parse_expr("sqrt(x1)"), 0), (4.0,), "float") == pytest.approx(0.25)


def test_diff_matches_taylor_linear_coefficient():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 3)
        e = random_poly_expr(rng, n, 3)
        b = random_point(rng, n)
        coeffs = taylor_coefficients(e, b, 1)
        for i in range(n):
            key = tuple(1 if j == i else 0 for j in range(n))
            assert coeffs.get(key, F(0)) == evaluate(diff(e, i), b)


# -- taylor ----------------------------------------------------------------------

def test_taylor_square_shifted_base():
    coeffs = taylor_coefficients(parse_expr("x1^2"), (F(1),), 2)
    assert coeffs == {(0,): F(1), (1,): F(2), (2,): F(1)}


def test_taylor_saddle():
    coeffs = taylor_coefficients(parse_expr("x1^2 - x2^2"), (F(0), F(0)), 2)
    assert coeffs == {(2, 0): F(1), (0, 2): F(-1)}


def test_taylor_geometric_series():
    # oracle: 1/(1-x) has all-ones coefficients at 0
    coeffs = taylor_coefficients(parse_expr("1/(1 - x1)"), (F(0),), 4)
    assert coeffs == {(k,): F(1) for k in range(5)}


def test_taylor_pole_at_base_rejected():
    with pytest.raises(ZeroDivisionError):
        taylor_coefficients(parse_expr("1/x1"), (F(0),), 2)


def test_exact_mode_rejects_primitives():
    with pytest.raises(ValueError):
        evaluate(parse_expr("exp(x1)"), (F(0),))
    with pytest.raises(ValueError):
        taylor_coefficients(parse_expr("sin(x1)"), (F(0),), 2)


def test_primitive_domain_error():
    with pytest.raises(ArithmeticError):
        evaluate(parse_expr("log(x1)"), (-1.0,), "float")
    with pytest.raises(ArithmeticError):
        evaluate(parse_expr("sqrt(x1)"), (-4.0,), "float")


# -- jet evaluation -----------------------------------------------------------------

def test_jet_square_at_zero():
    a = truncated_algebra(1, 2)
    z = a.generators()[0]
    assert jet_eval(parse_expr("x1^2"), (F(0),), [z]) == z * z


def test_jet_product_dies_on_laplace_point():
    z = laplace_algebra(2).generators()
    assert jet_eval(parse_expr("x1*x2"), (F(0), F(0)), z).is_zero()


def test_jet_exp_series():
    a = truncated_algebra(1, 2)
    z = a.generators()[0]
    got = jet_eval(parse_expr("exp(x1)"), (0.0,), [z], mode="float")
    assert got.coords[0] == pytest.approx(1.0)
    assert got.coords[1] == pytest.approx(1.0)
    assert got.coords[2] == pytest.approx(0.5)


def test_jet_is_ring_homomorphism():
    rng = random.Random(23)
    a = truncated_algebra(2, 2)
    for _ in range(20):
        f = random_poly_expr(rng, 2, 3)
        g = random_poly_expr(rng, 2, 3)
        base = random_point(rng, 2)
        offsets = [
            a.element([F(0)] + [F(rng.randint(-2, 2)) for _ in range(a.dimension - 1)])
            for _ in range(2)
        ]
        jf = jet_eval(f, base, offsets)
        jg = jet_eval(g, base, offsets)
        assert jet_eval(f * g, base, offsets) == jf * jg
        assert jet_eval(f + g, base, offsets) == jf + jg


def test_jet_with_zero_offsets_is_plain_evaluation():
    rng = random.Random(5)
    a = laplace_algebra(3)
    zeros = [a.zero()] * 3
    for _ in range(10):
        f = random_poly_expr(rng, 3, 3)
        base = random_point(rng, 3)
        assert jet_eval(f, base, zeros) == a.scalar(evaluate(f, base))


def test_jet_chain_rule():
    rng = random.Random(31)
    a = truncated_algebra(2, 2)
    for _ in range(10):
        outer = random_poly_expr(rng, 2, 2)
        inner = [random_poly_expr(rng, 2, 2) for _ in range(2)]
        base = random_point(rng, 2)
        offsets = [
            a.element([F(0)] + [F(rng.randint(-2, 2)) for _ in range(a.dimension - 1)])
            for _ in range(2)
        ]
        composed = compose(outer, inner)
        mid_base = tuple(evaluate(c, base) for c in inner)
        mid_offsets = [jet_eval(c, base, offsets) - evaluate(c, base) for c in inner]
        lhs = jet_eval(composed, base, offsets)
        rhs = jet_eval(outer, mid_base, mid_offsets)
        assert lhs == rhs


def test_jet_rejects_mixed_and_unit():
    a = truncated_algebra(1, 2)
    b = laplace_algebra(2)
    with pytest.raises(ValueError):
        jet_eval(parse_expr("x1 + x2"), (F(0), F(0)), [a.generators()[0], b.generators()[0]])
    with pytest.raises(ValueError):
        jet_eval(parse_expr("x1"), (F(0),), [a.one()])


def test_jet_refuses_a_base_and_offsets_of_different_lengths():
    # zip dropped the coordinates past the shorter of the two
    gens = laplace_algebra(2).generators()
    for base in ((F(1), F(2), F(3)), (F(1),)):
        with pytest.raises(ValueError, match=f"^base point has {len(base)} coordinates for 2 offsets$"):
            jet_eval(parse_expr("x1"), base, gens)
    with pytest.raises(ValueError, match="^base point has 3 coordinates for 2 offsets$"):
        parse_function("x1^2 - x2^2, 2*x1*x2").jacobian((F(1), F(2), F(3)))


# -- function models ------------------------------------------------------------------

def test_function_model_validates_arity():
    with pytest.raises(ValueError):
        FunctionModel(1, 1, (Var(1),))
    with pytest.raises(ValueError):
        FunctionModel(2, 2, (Var(0),))


def test_function_model_is_an_immutable_value():
    f = parse_function("x1^2, x1*x2")
    g = parse_function("x1^2, x1*x2")
    same = FunctionModel(f.n_in, n_out=f.n_out, components=f.components)
    assert same == f and hash(same) == hash(f)
    assert f != g  # expressions compare by identity, as before
    assert repr(f).startswith("FunctionModel(n_in=2, n_out=2, components=(")
    with pytest.raises(AttributeError):
        f.n_in = 3
    with pytest.raises(TypeError):
        FunctionModel(2, 2)


def test_jacobian():
    f = parse_function("x1^2 - x2^2, 2*x1*x2")
    assert f.jacobian((F(1), F(0))) == [[2, 0], [0, 2]]


def test_polynomial_bridge_round_trip():
    rng = random.Random(41)
    for _ in range(10):
        e = random_poly_expr(rng, 2, 3)
        p = expr_to_polynomial(e, 2)
        back = polynomial_to_expr(p)
        pt = random_point(rng, 2)
        assert evaluate(back, pt) == evaluate(e, pt)


def test_polynomial_bridge_rejects_primitives():
    with pytest.raises(ValueError):
        expr_to_polynomial(parse_expr("exp(x1)"), 1)
    with pytest.raises(ValueError):
        expr_to_polynomial(parse_expr("1/(1 - x1)"), 1)


def test_polynomial_bridge_divides_by_constants_only():
    assert expr_to_polynomial(parse_expr("x1^2/2"), 1) == Polynomial(1, {(2,): F(1, 2)})
    with pytest.raises(ZeroDivisionError):
        expr_to_polynomial(parse_expr("x1/(x2-x2)"), 2)
