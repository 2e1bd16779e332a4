"""Where float-mode Weil elements leave the library.

Inside, one arithmetic serves both modes, so a float-mode element may hold
exact zeros or keep a Fraction that only an exact operand touched.  Every
float-mode function that returns Weil elements converts them on the way
out: each coordinate is a float.  No exact-mode result holds a float.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilgeom.expr import jet_eval
from nilgeom.geometry import (
    MetricField,
    TangentVector,
    affine_combination,
    g_eval,
    gbar_eval,
    geodesic_chart,
    geodesic_prolong,
    laplace_point,
    laplace_taylor,
    make_point,
    mirror,
    orthogonal_projection,
    parallelogram,
    scalar_component,
)
from nilgeom.scalars import EXACT, FLOAT, format_scalar
from nilgeom.weil import tensor_algebra, truncated_algebra
from conftest import random_metric, random_point, random_poly_expr

F = Fraction
PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _offset(rng, algebra, mode):
    """A nilpotent element with sparse coordinates; in float mode exact and
    float coordinates are mixed, as a caller may pass them."""
    coords = [F(0)]
    for _ in range(algebra.dimension - 1):
        c = rng.choice((F(0), F(0), F(rng.randint(-3, 3), rng.randint(1, 3))))
        if mode == FLOAT and rng.random() < 0.4:
            c = float(c)
        coords.append(c)
    return algebra.element(coords)


def _results(seed, mode):
    """Every Weil-element result of the chart and square-distance layer, by
    function name, on a random curved or flat metric."""
    rng = random.Random(seed)
    n = rng.choice((1, 2, 3))
    x = random_point(rng, n)
    metric = random_metric(rng, n, x) if rng.random() < 0.7 else MetricField.standard_flat(n)
    if mode == FLOAT:
        x = tuple(map(float, x))
    scalar = float if mode == FLOAT else F
    second, third = truncated_algebra(n, 2), truncated_algebra(n, 3)
    z = make_point(x, [_offset(rng, second, mode) for _ in range(n)])
    z3 = [_offset(rng, third, mode) for _ in range(n)]
    y3 = [_offset(rng, third, mode) for _ in range(n)]
    first = truncated_algebra(n, 1)
    _, left, right = tensor_algebra(first, first)
    ya = make_point(x, [left(g) * scalar(rng.randint(1, 3)) for g in first.generators()])
    yb = make_point(x, [right(g) for g in first.generators()])
    u = (scalar(1),) + tuple(scalar(rng.randint(-2, 2)) for _ in range(n - 1))
    t = TangentVector(x, u)
    delta = truncated_algebra(1, 2).generators()[0] * scalar(rng.randint(1, 3))
    f = random_poly_expr(rng, n, 3)
    out = {
        "jet_eval": jet_eval(f, x, z3, mode),
        "g_eval": g_eval(metric, x, z3, mode=mode),
        "g_eval at y": g_eval(metric, x, z3, y=y3, mode=mode),
        "gbar_eval": gbar_eval(metric, x, z3, mode=mode),
        "gbar_eval at y": gbar_eval(metric, x, z3, y=y3, mode=mode),
        "laplace_taylor": laplace_taylor(MetricField.standard_flat(n), f, x, z3, mode=mode),
    }
    charts = [geodesic_chart(metric, x, mode=mode)]
    for k, chart in enumerate(charts):
        zeta = chart.to_chart(z)
        out.update({
            f"to_chart {k}": zeta,
            f"from_chart {k}": chart.from_chart(zeta),
            f"mirror {k}": mirror(chart, z),
            f"affine_combination {k}": affine_combination(chart, scalar(rng.randint(-2, 2)), z),
            f"parallelogram {k}": parallelogram(chart, ya, yb),
            f"geodesic_prolong {k}": geodesic_prolong(chart, t, delta),
            f"scalar_component {k}": scalar_component(chart, z, t),
            f"orthogonal_projection {k}": orthogonal_projection(chart, z, t),
            f"laplace_point {k}": laplace_point(chart),
        })
    return out


def _coordinates(result):
    elements = result if isinstance(result, tuple) else (result,)
    return [c for w in elements for c in w.coords]


@PROPERTY
@given(st.integers(0, 10**6))
def test_float_mode_results_hold_only_floats(seed):
    for name, result in _results(seed, FLOAT).items():
        assert all(isinstance(c, float) for c in _coordinates(result)), (name, result)


@PROPERTY
@given(st.integers(0, 10**6))
def test_exact_mode_results_hold_no_float(seed):
    for name, result in _results(seed, EXACT).items():
        assert not any(isinstance(c, float) for c in _coordinates(result)), (name, result)


def test_a_float_zero_prints_without_sign():
    assert format_scalar(-0.0) == "0"
    assert format_scalar(0.0) == "0"
    assert format_scalar(-0.5) == "-0.5"
    assert format_scalar(F(-1, 3)) == "-1/3"
