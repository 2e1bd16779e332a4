"""Metrics, charts, projections, the Laplacian, and the detector family."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilgeom.expr import (
    Const,
    Var,
    format_expr,
    jet_eval,
    parse_expr,
    parse_function,
    polynomial_to_expr,
)
from nilgeom import geometry
from nilgeom.geometry import (
    GeometryError,
    MetricField,
    TangentVector,
    affine_combination,
    almost_complex_apply,
    christoffel,
    conformal_check,
    cr_check,
    g_eval,
    gbar_eval,
    geodesic_chart,
    geodesic_prolong,
    inner_product,
    is_harmonic_at,
    is_laplace_neighbor,
    laplace_point,
    laplace_taylor,
    laplacian,
    make_point,
    mirror,
    orthogonal_projection,
    parallelogram,
    point_offsets,
    preserves_affine_combinations,
    preserves_laplace_neighbors,
    scalar_component,
)
from nilgeom.weil import Polynomial, laplace_algebra, satisfies_laplace_relations, tensor_algebra, truncated_algebra
from conftest import (
    compose,
    conformal_check_by_mat_mul,
    conformal_check_by_ratio,
    diff,
    forward_model,
    inverse_model,
    laplacian_by_trace,
    random_metric,
    random_point,
    random_poly_expr,
    second_partials_sum,
)

F = Fraction
FLAT2 = MetricField.standard_flat(2)
FLAT3 = MetricField.standard_flat(3)
POLAR = MetricField.from_strings([["1", "0"], ["0", "x1^2"]])
ORIGIN2 = (F(0), F(0))


def geodesic_at_origin_metric():
    """Quadratic perturbation of the identity: geodesic at 0 by construction."""
    x1, x2 = Var(0), Var(1)
    return MetricField(2, [
        [Const(F(1)) + x1 * x1, x1 * x2],
        [x1 * x2, Const(F(1)) + Const(F(2)) * x2 * x2],
    ])


# -- square distance -------------------------------------------------------------

def test_g_flat_at_isotropic_point_is_n_times_square_class():
    for n in (2, 3, 4):
        alg = laplace_algebra(n)
        val = g_eval(MetricField.standard_flat(n), (F(0),) * n, alg.generators())
        expected = alg.basis_element(alg.dimension - 1) * n
        assert val == expected


def test_g_at_zero_offset_vanishes():
    alg = truncated_algebra(2, 2)
    assert g_eval(POLAR, (F(1), F(0)), (alg.zero(), alg.zero())).is_zero()


def test_g_polar_at_unit_point():
    alg = truncated_algebra(2, 2)
    z1, z2 = alg.generators()
    assert g_eval(POLAR, (F(1), F(0)), (z1, z2)) == z1 * z1 + z2 * z2


def test_g_requires_second_order_ambient():
    alg = truncated_algebra(2, 1)
    with pytest.raises(GeometryError):
        g_eval(FLAT2, ORIGIN2, alg.generators())


def test_g_checks_invertibility():
    singular = MetricField.from_strings([["x1", "0"], ["0", "x1"]])
    alg = truncated_algebra(2, 2)
    with pytest.raises(GeometryError):
        g_eval(singular, ORIGIN2, alg.generators())


def test_first_order_pair_identity_random_metrics():
    # g(x, x + y2 - y1) agrees with g(y1, y2) for first-order pairs
    rng = random.Random(101)
    for n in (2, 3):
        first = truncated_algebra(n, 1)
        ambient, left, right = tensor_algebra(first, first)
        y1 = [left(g) for g in first.generators()]
        y2 = [right(g) for g in first.generators()]
        for _ in range(5):
            x = random_point(rng, n)
            metric = random_metric(rng, n, x)
            lhs = g_eval(metric, x, [b - a for a, b in zip(y1, y2)])
            rhs = g_eval(metric, x, y2, y=y1)
            assert lhs == rhs


# -- the symmetric third-order extension -------------------------------------------

def test_gbar_flat_has_no_correction():
    alg = truncated_algebra(2, 3)
    z = alg.generators()
    assert gbar_eval(FLAT2, ORIGIN2, z) == g_eval(FLAT2, ORIGIN2, z)


def test_gbar_requires_third_order_ambient():
    alg = truncated_algebra(2, 2)
    with pytest.raises(GeometryError):
        gbar_eval(FLAT2, ORIGIN2, alg.generators())


def test_gbar_refuses_a_pair_that_is_not_third_order():
    # the generators of a bound-4 algebra have nonzero fourfold products
    with pytest.raises(GeometryError, match="order-3 neighbor"):
        gbar_eval(FLAT2, ORIGIN2, truncated_algebra(2, 4).generators())


def test_gbar_first_to_second_order_in_geodesic_coordinates():
    # with the metric geodesic at the base, gbar(y, z) collapses to the
    # constant-matrix square distance (z-y)^T G(0) (z-y)
    metric = geodesic_at_origin_metric()
    ambient, left, right = tensor_algebra(truncated_algebra(2, 1), truncated_algebra(2, 2))
    y = [left(g) for g in truncated_algebra(2, 1).generators()]
    z = [right(g) for g in truncated_algebra(2, 2).generators()]
    got = gbar_eval(metric, ORIGIN2, z, y=y)
    g0 = metric.matrix_at(ORIGIN2)
    d = [b - a for a, b in zip(y, z)]
    want = ambient.zero()
    for i in range(2):
        for j in range(2):
            want = want + d[i] * g0[i][j] * d[j]
    assert got == want


def test_gbar_symmetry_random_metrics():
    rng = random.Random(103)
    for n in (2, 3):
        alg = truncated_algebra(n, 3)
        z = alg.generators()
        zeros = [alg.zero()] * n
        for _ in range(6):
            x = random_point(rng, n)
            metric = random_metric(rng, n, x)
            assert gbar_eval(metric, x, z) == gbar_eval(metric, x, zeros, y=z)


# -- Christoffel symbols --------------------------------------------------------------

def test_christoffel_flat_vanishes():
    gamma = christoffel(FLAT3, (F(1), F(2), F(3)))
    assert all(gamma[i][j][k] == 0 for i in range(3) for j in range(3) for k in range(3))


def test_christoffel_polar_hand_values():
    gamma = christoffel(POLAR, (F(1), F(0)))
    assert gamma[0][1][1] == -1
    assert gamma[1][0][1] == 1
    assert gamma[1][1][0] == 1
    others = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    assert all(gamma[i][j][k] == 0 for i, j, k in others)


def test_christoffel_lower_symmetry_random():
    rng = random.Random(107)
    x = random_point(rng, 3)
    metric = random_metric(rng, 3, x)
    gamma = christoffel(metric, x)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert gamma[i][j][k] == gamma[i][k][j]


def test_christoffel_singular_metric():
    singular = MetricField.from_strings([["x1", "0"], ["0", "1"]])
    with pytest.raises(GeometryError):
        christoffel(singular, ORIGIN2)


def test_metric_rows_must_be_lists_of_strings():
    # ["10", "01"] would read as the identity, one character per entry
    for rows in (["10", "01"], "ab", [["1", 0], ["0", "1"]], [{"1": 0}, {"0": 1}]):
        with pytest.raises(TypeError, match="metric rows must be lists of expression strings"):
            MetricField.from_strings(rows)
    assert MetricField.from_strings((("1", "0"), ("0", "1"))).is_standard_flat()


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_each_metric_reading_builds_one_chart(monkeypatch, mode):
    # christoffel, the Laplacian and the detectors all read the metric at x
    # through geodesic_chart, once per call
    metric = MetricField.from_strings([["4 + x2", "1"], ["1", "1 + x1^2"]])
    x = (F(1, 3), F(2, 7)) if mode == "exact" else (1 / 3, 2 / 7)
    f = parse_expr("x1^2*x2")
    z = make_point(x, truncated_algebra(2, 2).generators())
    built = []
    monkeypatch.setattr(geometry, "geodesic_chart", lambda *a, **k: built.append(a) or geometry.GeodesicChart(*a, **k))
    calls = {
        "christoffel": lambda: christoffel(metric, x, mode),
        "laplacian": lambda: laplacian(metric, f, x, mode=mode),
        "preserves_affine_combinations": lambda: preserves_affine_combinations(metric, f, x, mode=mode),
        "is_laplace_neighbor": lambda: is_laplace_neighbor(metric, x, z, mode=mode),
    }
    for name, call in calls.items():
        built.clear()
        call()
        assert len(built) == 1, name


# -- geodesic charts ----------------------------------------------------------------------

def test_flat_chart_is_translation():
    x = (F(3), F(-2))
    chart = geodesic_chart(FLAT2, x)
    alg = truncated_algebra(2, 2)
    gens = alg.generators()
    assert chart.push_offsets(gens) == tuple(gens)
    point = chart.from_chart(gens)
    assert [p.coords[0] for p in point] == list(x)


def _pullback_entries(metric, chart):
    fwd = forward_model(chart)
    n = metric.n
    jac = [[diff(fwd.components[k], j) for j in range(n)] for k in range(n)]
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            e = Const(F(0))
            for k in range(n):
                for l in range(n):
                    e = e + jac[k][i] * compose(metric.entry(k, l), fwd.components) * jac[l][j]
            row.append(e)
        entries.append(row)
    return entries


def test_polar_chart_kills_first_metric_derivatives():
    chart = geodesic_chart(POLAR, (F(1), F(0)))
    entries = _pullback_entries(POLAR, chart)
    gens = truncated_algebra(2, 1).generators()
    for i in range(2):
        for j in range(2):
            val = jet_eval(entries[i][j], ORIGIN2, gens)
            assert val.nilpotent_part().is_zero()  # constant on first-order points
    assert chart.G0 == [[1, 0], [0, 1]]


def test_random_metric_chart_kills_first_metric_derivatives():
    rng = random.Random(109)
    x = random_point(rng, 2)
    metric = random_metric(rng, 2, x)
    chart = geodesic_chart(metric, x)
    entries = _pullback_entries(metric, chart)
    gens = truncated_algebra(2, 1).generators()
    for i in range(2):
        for j in range(2):
            assert jet_eval(entries[i][j], ORIGIN2, gens).nilpotent_part().is_zero()


def test_chart_models_invert_on_second_order_points():
    chart = geodesic_chart(POLAR, (F(1), F(0)))
    fwd = forward_model(chart)
    inv = inverse_model(chart)
    gens = truncated_algebra(2, 2).generators()
    round_trip = [compose(c, fwd.components) for c in inv.components]
    for i, comp in enumerate(round_trip):
        assert jet_eval(comp, ORIGIN2, gens) == gens[i]


def test_chart_transport_round_trip():
    chart = geodesic_chart(POLAR, (F(1), F(0)))
    gens = truncated_algebra(2, 2).generators()
    point = chart.from_chart(gens)
    assert chart.to_chart(point) == tuple(gens)


# -- mirror, affine combinations, parallelogram ---------------------------------------------

def test_mirror_is_negation_in_flat_chart():
    chart = geodesic_chart(FLAT2, ORIGIN2)
    z = make_point(ORIGIN2, truncated_algebra(2, 2).generators())
    flipped = mirror(chart, z)
    assert point_offsets(flipped, ORIGIN2) == tuple(-w for w in point_offsets(z, ORIGIN2))


def test_mirror_is_involution_on_curved_chart():
    chart = geodesic_chart(POLAR, (F(1), F(0)))
    z = chart.from_chart(truncated_algebra(2, 2).generators())
    assert mirror(chart, mirror(chart, z)) == z


def test_mirror_of_first_order_point_is_coordinate_reflection():
    # on first-order neighbors the chart quadratic terms die, so the mirror
    # is 2x - z in any chart, curved or not
    x = (F(1), F(0))
    chart = geodesic_chart(POLAR, x)
    z = make_point(x, truncated_algebra(2, 1).generators())
    flipped = mirror(chart, z)
    for p, q, b in zip(flipped, z, x):
        assert p == -q + 2 * b


def test_affine_combination_endpoints():
    chart = geodesic_chart(POLAR, (F(1), F(0)))
    z = chart.from_chart(truncated_algebra(2, 2).generators())
    at_base = affine_combination(chart, 1, z)
    assert all(w.is_zero() for w in point_offsets(at_base, chart.base))
    assert affine_combination(chart, 0, z) == z
    assert affine_combination(chart, 2, z) == mirror(chart, z)


def test_affine_combination_preserves_isotropy():
    chart = geodesic_chart(FLAT2, ORIGIN2)
    z = laplace_point(chart)
    for t in (F(1, 3), F(-2), F(3)):
        combo = affine_combination(chart, t, z)
        assert is_laplace_neighbor(FLAT2, ORIGIN2, combo)


def test_parallelogram_laws():
    x = (F(1), F(0))
    chart = geodesic_chart(POLAR, x)
    first = truncated_algebra(2, 1)
    ambient, left, right = tensor_algebra(first, first)
    y = make_point(x, [left(g) for g in first.generators()])
    z = make_point(x, [right(g) for g in first.generators()])
    lam = parallelogram(chart, y, z)
    assert lam == parallelogram(chart, z, y)
    degenerate = make_point(x, [w.algebra.zero() for w in point_offsets(y, x)])
    assert parallelogram(chart, y, degenerate) == y


def test_parallelogram_flat_is_coordinate_sum():
    chart = geodesic_chart(FLAT2, ORIGIN2)
    one_d = truncated_algebra(1, 1)
    ambient, left, right = tensor_algebra(one_d, one_d)
    d = left(one_d.generators()[0])
    d2 = right(one_d.generators()[0])
    y = make_point(ORIGIN2, (d, ambient.zero()))
    z = make_point(ORIGIN2, (ambient.zero(), d2))
    assert point_offsets(parallelogram(chart, y, z), ORIGIN2) == (d, d2)


def test_parallelogram_rejects_second_order_input():
    chart = geodesic_chart(FLAT2, ORIGIN2)
    z = make_point(ORIGIN2, truncated_algebra(2, 2).generators())
    with pytest.raises(GeometryError):
        parallelogram(chart, z, z)


# -- geodesic prolongation and the tangent inner product --------------------------------------

def test_prolongation_restricted_to_square_zero_is_the_tangent():
    x = (F(1), F(0))
    chart = geodesic_chart(POLAR, x)
    t = TangentVector(x, (F(2), F(3)))
    d = truncated_algebra(1, 1).generators()[0]
    point = geodesic_prolong(chart, t, d)
    assert point_offsets(point, x) == (d * 2, d * 3)


def test_prolongation_flat_along_axis():
    chart = geodesic_chart(FLAT2, ORIGIN2)
    t = TangentVector(ORIGIN2, (F(1), F(0)))
    delta = truncated_algebra(1, 2).generators()[0]
    point = geodesic_prolong(chart, t, delta)
    assert point_offsets(point, ORIGIN2) == (delta, delta.algebra.zero())


def test_prolongation_square_distance_identity():
    # gbar(t(d), prolong(delta)) = (delta^2 - 2 d delta) <t, t>
    for metric, x in [(POLAR, (F(1), F(0))), (geodesic_at_origin_metric(), ORIGIN2)]:
        chart = geodesic_chart(metric, x)
        ambient, e_d, e_delta = tensor_algebra(truncated_algebra(1, 1), truncated_algebra(1, 2))
        d = e_d(truncated_algebra(1, 1).generators()[0])
        delta = e_delta(truncated_algebra(1, 2).generators()[0])
        t = TangentVector(x, (F(2), F(3)))
        td = tuple(d * c for c in t.u)
        prolonged = point_offsets(geodesic_prolong(chart, t, delta), x)
        got = gbar_eval(metric, x, prolonged, y=td)
        norm = inner_product(metric, t, t)
        want = (delta * delta - d * delta * 2) * norm
        assert got == want


def test_prolongation_rejects_fourth_order_parameter():
    chart = geodesic_chart(FLAT2, ORIGIN2)
    t = TangentVector(ORIGIN2, (F(1), F(0)))
    bad = truncated_algebra(1, 3).generators()[0]
    with pytest.raises(GeometryError):
        geodesic_prolong(chart, t, bad)


def test_inner_product_flat():
    e1 = TangentVector(ORIGIN2, (F(1), F(0)))
    e2 = TangentVector(ORIGIN2, (F(0), F(1)))
    assert inner_product(FLAT2, e1, e1) == 1
    assert inner_product(FLAT2, e1, e2) == 0


def test_a_point_beyond_the_metric_is_refused():
    # G(2, 0, 7) was read as G(2, 0), and <e1, e1> came out as 1
    e1 = TangentVector((F(2), F(0), F(7)), (F(1), F(0), F(0)))
    for call in (lambda: inner_product(POLAR, e1, e1), lambda: POLAR.matrix_at((F(2),))):
        with pytest.raises(ValueError, match="^point dimension does not match the metric$"):
            call()
    plane = parse_function("x1^2 - x2^2, 2*x1*x2")
    with pytest.raises(ValueError, match="^base point has 3 coordinates for 2 offsets$"):
        cr_check(plane, (F(1), F(2), F(3)))
    with pytest.raises(ValueError, match="^base point has 3 coordinates for 2 offsets$"):
        laplace_taylor(FLAT2, parse_expr("x1*x2"), (F(1), F(2), F(3)), laplace_algebra(2).generators())


def test_inner_product_defining_identity_random_metrics():
    # d1 d2 <t, s> = -1/2 g(t(d1), s(d2)) for independent square-zero scalars
    rng = random.Random(113)
    one_d = truncated_algebra(1, 1)
    ambient, e1, e2 = tensor_algebra(one_d, one_d)
    d1 = e1(one_d.generators()[0])
    d2 = e2(one_d.generators()[0])
    for _ in range(10):
        n = rng.choice((2, 3))
        x = random_point(rng, n)
        metric = random_metric(rng, n, x)
        u = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        v = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        t_off = tuple(d1 * c for c in u)
        s_off = tuple(d2 * c for c in v)
        ip = inner_product(metric, TangentVector(x, u), TangentVector(x, v))
        lhs = d1 * d2 * ip
        rhs = g_eval(metric, x, s_off, y=t_off) * F(-1, 2)
        assert lhs == rhs


# -- scalar component and orthogonal projection ------------------------------------------------

def test_scalar_component_at_base_is_zero():
    chart = geodesic_chart(POLAR, (F(1), F(0)))
    alg = truncated_algebra(2, 2)
    z = make_point(chart.base, (alg.zero(), alg.zero()))
    t = TangentVector(chart.base, (F(1), F(1)))
    assert scalar_component(chart, z, t).is_zero()


def test_scalar_component_recovers_prolongation_parameter():
    chart = geodesic_chart(POLAR, (F(1), F(0)))
    t = TangentVector(chart.base, (F(2), F(-1)))
    delta = truncated_algebra(1, 2).generators()[0]
    z = geodesic_prolong(chart, t, delta)
    assert scalar_component(chart, z, t) == delta
    assert orthogonal_projection(chart, z, t) == z


def test_scalar_component_flat_axis():
    chart = geodesic_chart(FLAT3, (F(0),) * 3)
    gens = truncated_algebra(3, 2).generators()
    z = make_point(chart.base, gens)
    t = TangentVector(chart.base, (F(1), F(0), F(0)))
    assert scalar_component(chart, z, t) == gens[0]
    proj = point_offsets(orthogonal_projection(chart, z, t), chart.base)
    assert proj == (gens[0], gens[0].algebra.zero(), gens[0].algebra.zero())


def test_projection_onto_diagonal_averages():
    chart = geodesic_chart(FLAT2, ORIGIN2)
    gens = truncated_algebra(2, 2).generators()
    z = make_point(ORIGIN2, gens)
    t = TangentVector(ORIGIN2, (F(1), F(1)))
    proj = point_offsets(orthogonal_projection(chart, z, t), ORIGIN2)
    avg = (gens[0] + gens[1]) * F(1, 2)
    assert proj == (avg, avg)


def test_improper_tangent_rejected():
    chart = geodesic_chart(FLAT2, ORIGIN2)
    z = make_point(ORIGIN2, truncated_algebra(2, 2).generators())
    with pytest.raises(GeometryError):
        scalar_component(chart, z, TangentVector(ORIGIN2, (F(0), F(0))))


# -- isotropic neighbors -----------------------------------------------------------------------

def test_laplace_point_flat_is_generic_generator_tuple():
    chart = geodesic_chart(FLAT2, ORIGIN2)
    z = laplace_point(chart)
    offsets = point_offsets(z, ORIGIN2)
    assert offsets == tuple(laplace_algebra(2).generators())
    assert satisfies_laplace_relations(offsets)
    val = g_eval(FLAT2, ORIGIN2, offsets)
    assert val == offsets[0].algebra.basis_element(3) * 2


def test_plain_chart_of_a_stretched_metric_carries_the_weighted_point():
    # the plain chart of a non-identity G(x) carries the weighted point
    stretched = MetricField.from_strings([["4", "0"], ["0", "1"]])
    chart = geodesic_chart(stretched, ORIGIN2)
    z = laplace_point(chart)
    assert is_laplace_neighbor(stretched, ORIGIN2, z)
    assert is_laplace_neighbor(stretched, (0.0, 0.0), z, mode="float")


def test_first_order_points_are_isotropic_neighbors():
    z = make_point(ORIGIN2, truncated_algebra(2, 1).generators())
    assert is_laplace_neighbor(FLAT2, ORIGIN2, z)


def test_generic_second_order_point_is_not_isotropic():
    z = make_point(ORIGIN2, truncated_algebra(2, 2).generators())
    assert not is_laplace_neighbor(FLAT2, ORIGIN2, z)


def test_flat_isotropy_symmetric_under_reflection():
    gens = truncated_algebra(3, 2).generators()
    candidates = [
        make_point((F(0),) * 3, gens),
        laplace_point(geodesic_chart(FLAT3, (F(0),) * 3)),
    ]
    for z in candidates:
        reflected = make_point(
            (F(0),) * 3, tuple(-w for w in point_offsets(z, (F(0),) * 3))
        )
        assert is_laplace_neighbor(FLAT3, (F(0),) * 3, z) == is_laplace_neighbor(
            FLAT3, (F(0),) * 3, reflected
        )


def test_isotropic_neighbor_on_curved_chart():
    chart = geodesic_chart(POLAR, (F(1), F(0)))
    z = laplace_point(chart)
    assert is_laplace_neighbor(POLAR, (F(1), F(0)), z)
    generic = chart.from_chart(truncated_algebra(2, 2).generators())
    assert not is_laplace_neighbor(POLAR, (F(1), F(0)), generic)


# -- the Laplacian -----------------------------------------------------------------------------

def test_laplacian_flat_examples():
    assert laplacian(FLAT2, parse_expr("x1^2 + x2^2"), ORIGIN2) == 4
    assert laplacian(FLAT2, parse_expr("x1^2 - x2^2"), ORIGIN2) == 0
    assert laplacian(FLAT2, parse_expr("x1^3 - 3*x1*x2^2"), (F(1), F(1))) == 0
    assert laplacian(FLAT2, parse_expr("x1*x2"), (F(3), F(5))) == 0


def test_laplacian_flat_matches_second_partials():
    rng = random.Random(127)
    for _ in range(10):
        n = rng.randint(1, 4)
        metric = MetricField.standard_flat(n)
        f = random_poly_expr(rng, n, 4)
        for _ in range(3):
            x = random_point(rng, n)
            assert laplacian(metric, f, x) == second_partials_sum(f, x)


def test_laplacian_polar_exact_and_float():
    f = parse_expr("x1^2")
    assert laplacian(POLAR, f, (F(1), F(0))) == 4  # G(x) = I
    assert laplacian(POLAR, f, (F(2), F(0))) == 4  # G(x) = diag(1, 4)
    assert laplacian(POLAR, f, (2.0, 0.0), mode="float") == pytest.approx(4.0)


def test_laplacian_routes_agree_on_curved_metric_with_unit_base():
    # G = diag(1, 1 + x1^2) equals the identity along x1 = 0, so the mirror
    # average runs in a plain normal chart on a genuinely curved metric and
    # must match both the trace oracle and the divergence-form hand value
    metric = MetricField.from_strings([["1", "0"], ["0", "1 + x1^2"]])
    x = (F(0), F(5))
    f = parse_expr("x1^2*x2^2")
    mirror_value = laplacian(metric, f, x)
    assert mirror_value == 50
    trace_value = laplacian_by_trace(metric, f, x)
    assert trace_value == mirror_value
    float_value = laplacian(metric, f, (0.0, 5.0), mode="float")
    assert float_value == pytest.approx(50.0, abs=1e-9)


def test_mirror_average_with_exact_normalizer_matches_trace_route():
    # anisotropic curved metric; G(x) = diag(4, 1) at the base, so the exact
    # mirror average runs over the weighted point of the plain chart
    metric = MetricField.from_strings([["4", "0"], ["0", "1 + x1^2"]])
    x = (F(0), F(3))
    f = parse_expr("x1^2*x2^2")
    chart = geodesic_chart(metric, x)
    z = laplace_point(chart)
    f_plus = jet_eval(f, x, point_offsets(z, x))
    f_minus = jet_eval(f, x, point_offsets(mirror(chart, z), x))
    from nilgeom.expr import evaluate

    combined = f_plus + f_minus - evaluate(f, x) * 2
    assert combined.coords[:3] == (0, 0, 0)
    g_val = g_eval(metric, x, point_offsets(z, x))
    assert g_val.coords[:3] == (0, 0, 0)
    mirror_value = 2 * combined.coords[3] / g_val.coords[3]
    trace_value = laplacian_by_trace(metric, f, x)
    assert mirror_value == trace_value == laplacian(metric, f, x) == F(9, 2)
    assert laplacian(metric, f, (0.0, 3.0), mode="float") == pytest.approx(4.5)


def test_point_offsets_rejects_far_points():
    alg = truncated_algebra(2, 2)
    z = make_point((F(1), F(0)), alg.generators())
    with pytest.raises(GeometryError):
        point_offsets(z, ORIGIN2)


def test_laplacian_float_on_sphere_chart_metric():
    sphere = MetricField.from_strings([["1", "0"], ["0", "sin(x1)^2"]])
    # divergence form: f = x1^2 gives 2 + 2 x1 cot(x1)
    import math

    x = (0.9, 0.4)
    got = laplacian(sphere, parse_expr("x1^2"), x, mode="float")
    want = 2.0 + 2.0 * x[0] * math.cos(x[0]) / math.sin(x[0])
    assert got == pytest.approx(want, abs=1e-9)


# -- Taylor reconstruction at isotropic points --------------------------------------------------

def test_taylor_reconstruction_square():
    alg = laplace_algebra(2)
    z = alg.generators()
    f = parse_expr("x1^2")
    got = laplace_taylor(FLAT2, f, ORIGIN2, z)
    assert got == jet_eval(f, ORIGIN2, z)
    assert got == alg.basis_element(3)  # the bare square class


def test_taylor_reconstruction_affine_has_no_square_term():
    alg = laplace_algebra(2)
    z = alg.generators()
    f = parse_expr("3*x1 - 2*x2 + 7")
    got = laplace_taylor(FLAT2, f, ORIGIN2, z)
    assert got == jet_eval(f, ORIGIN2, z)
    assert got.coords[3] == 0


def test_taylor_reconstruction_random_cubics():
    rng = random.Random(131)
    for _ in range(10):
        n = rng.choice((2, 3))
        metric = MetricField.standard_flat(n)
        alg = laplace_algebra(n)
        z = alg.generators()
        f = random_poly_expr(rng, n, 3)
        x = random_point(rng, n)
        assert laplace_taylor(metric, f, x, z) == jet_eval(f, x, z)


def test_taylor_reconstruction_rejects_curved_metric():
    with pytest.raises(GeometryError):
        laplace_taylor(POLAR, parse_expr("x1^2"), (F(1), F(0)), laplace_algebra(2).generators())


def test_taylor_reconstruction_fails_off_isotropic_locus():
    z = truncated_algebra(2, 2).generators()
    f = parse_expr("x1*x2")
    assert laplace_taylor(FLAT2, f, ORIGIN2, z) != jet_eval(f, ORIGIN2, z)


# -- harmonicity --------------------------------------------------------------------------------

def test_harmonic_detector_flat():
    assert is_harmonic_at(FLAT2, parse_expr("x1*x2"), (F(3), F(5)))
    assert not is_harmonic_at(FLAT2, parse_expr("x1^2"), ORIGIN2)
    for x in [(F(0), F(0)), (F(1), F(2)), (F(-3), F(1, 2))]:
        assert is_harmonic_at(FLAT2, parse_expr("x1^3 - 3*x1*x2^2"), x)


def test_affine_preservation_matches_harmonicity():
    harmonic = ["x1*x2", "x1^2 - x2^2", "x1^3 - 3*x1*x2^2"]
    not_harmonic = ["x1^2", "x1^2 + x2^2"]
    for text in harmonic:
        assert preserves_affine_combinations(FLAT2, parse_expr(text), (F(1), F(2)))
    for text in not_harmonic:
        assert not preserves_affine_combinations(FLAT2, parse_expr(text), (F(1), F(2)))


# -- conformal maps -----------------------------------------------------------------------------

def test_identity_is_an_isometry():
    report = conformal_check(parse_function("x1, x2"), FLAT2, FLAT2, ORIGIN2)
    assert report.conformal and report.isometry and report.factor == 1


def test_complex_square_is_conformal_with_factor_four():
    report = conformal_check(parse_function("x1^2 - x2^2, 2*x1*x2"), FLAT2, FLAT2, (F(1), F(0)))
    assert report.conformal and report.factor == 4 and not report.isometry


def test_anisotropic_scaling_is_not_conformal():
    report = conformal_check(parse_function("x1, 2*x2"), FLAT2, FLAT2, (F(1), F(1)))
    assert not report.conformal and report.factor is None


def test_reports_are_immutable_values_with_defaults():
    from nilgeom.geometry import ConformalReport, CRReport

    report = conformal_check(parse_function("x1^2 - x2^2, 2*x1*x2"), MetricField.standard_flat(2),
                             MetricField.standard_flat(2), (F(1), F(2)))
    assert report == ConformalReport(True, F(20))
    assert hash(report) == hash(ConformalReport(True, factor=F(20), isometry=False))
    assert report != ConformalReport(True, F(20), mode="float")
    assert repr(report) == "ConformalReport(conformal=True, factor=Fraction(20, 1), isometry=False, mode='exact', eps=None)"
    assert CRReport(False) == CRReport(False, None, False, False, False, "exact", None)
    assert len({TangentVector((F(0),), (F(1),)), TangentVector((F(0),), (F(1),))}) == 1
    with pytest.raises(AttributeError):
        report.conformal = False
    with pytest.raises(TypeError):
        ConformalReport(True, bogus=1)
    with pytest.raises(ValueError):
        TangentVector((F(0),), (F(1), F(2)))


def test_conformal_float_mode():
    report = conformal_check(
        parse_function("x1^2 - x2^2, 2*x1*x2"), FLAT2, FLAT2, (0.5, 0.25), mode="float"
    )
    assert report.conformal
    assert report.factor == pytest.approx(4 * (0.5 ** 2 + 0.25 ** 2))


def test_conformal_rejects_singular_jacobian():
    with pytest.raises(GeometryError):
        conformal_check(parse_function("x1^2 - x2^2, 2*x1*x2"), FLAT2, FLAT2, ORIGIN2)


def test_conformal_on_first_order_pairs():
    # h(f(y1), f(y2)) = k g(y1, y2) for a conformal map on first-order pairs
    x = (F(1), F(0))
    f = parse_function("x1^2 - x2^2, 2*x1*x2")
    report = conformal_check(f, FLAT2, FLAT2, x)
    first = truncated_algebra(2, 1)
    ambient, left, right = tensor_algebra(first, first)
    y1 = [left(g) for g in first.generators()]
    y2 = [right(g) for g in first.generators()]
    fx = f.evaluate(x)
    w1 = [a - b for a, b in zip(f.jet(x, y1), fx)]
    w2 = [a - b for a, b in zip(f.jet(x, y2), fx)]
    lhs = g_eval(FLAT2, fx, w2, y=w1)
    rhs = g_eval(FLAT2, x, y2, y=y1) * report.factor
    assert lhs == rhs


def _complex_power_parts(k):
    """Real and imaginary parts of (x1 + i x2)^k as polynomials."""
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    re, im = Polynomial.constant(2, 1), Polynomial.constant(2, 0)
    for _ in range(k):
        re, im = re * x1 - im * x2, re * x2 + im * x1
    return re, im


@st.composite
def conformal_cases(draw):
    """A plane map, source and target metrics and a point, all seeded: a
    (anti)holomorphic polynomial on the flat plane, conformal wherever its
    derivative is nonzero; the identity into c times a curved metric,
    conformal with factor c when c > 0; or a random quadratic map between a
    curved metric and the flat or polar plane, rarely conformal."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    x = random_point(rng, 2)
    kind = draw(st.sampled_from(("holomorphic", "antiholomorphic", "scaled", "random")))
    if kind == "scaled":
        metric = random_metric(rng, 2, x)
        c = Const(F(rng.choice((-2, -1, 1, 2, 3)), rng.randint(1, 3)))
        scaled = MetricField(2, [[c * metric.entry(i, j) for j in range(2)] for i in range(2)])
        return parse_function("x1, x2", n=2), metric, scaled, x
    if kind == "random":
        texts = [format_expr(random_poly_expr(rng, 2, 2, 3)) for _ in range(2)]
        return parse_function(", ".join(texts), n=2), random_metric(rng, 2, x), rng.choice((FLAT2, POLAR)), x
    u, v = Polynomial.constant(2, 0), Polynomial.constant(2, 0)
    for k in range(rng.randint(1, 3) + 1):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        re, im = _complex_power_parts(k)
        u, v = u + re * a - im * b, v + re * b + im * a
    if kind == "antiholomorphic":
        v = -v
    texts = [format_expr(polynomial_to_expr(p)) for p in (u, v)]
    return parse_function(", ".join(texts), n=2), FLAT2, FLAT2, x


def _outcome(check, *args):
    try:
        return check(*args)
    except GeometryError as exc:
        return str(exc)


@given(conformal_cases())
@settings(max_examples=120, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
def test_exact_conformal_check_equals_the_first_ratio_route(case):
    got = _outcome(conformal_check, *case)
    assert got == _outcome(conformal_check_by_ratio, *case)
    if not isinstance(got, str) and got.conformal:
        assert isinstance(got.factor, Fraction)


def _report_bits(report):
    """A report with a float factor as its hex digits, so that == compares bits."""
    if isinstance(report, str) or not isinstance(report.factor, float):
        return report
    return (report.conformal, report.factor.hex(), report.isometry, report.mode, report.eps)


@given(conformal_cases(), st.sampled_from(("exact", "float")))
@settings(max_examples=120, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
def test_conformal_check_equals_the_mat_mul_route(case, mode):
    # the pullback skips zero entries and takes an entry 1 as the other
    # factor: the same verdict and factor, in float mode the same bits
    f, src, dst, x = case
    if mode == "float":
        x = tuple(map(float, x))
    got = _outcome(conformal_check, f, src, dst, x, mode)
    assert _report_bits(got) == _report_bits(_outcome(conformal_check_by_mat_mul, f, src, dst, x, mode))
    if mode == "exact" and not isinstance(got, str) and got.conformal:
        assert isinstance(got.factor, Fraction)


@pytest.mark.parametrize("text", ["1e200*x1, 1e200*x2", "1e200*x1^2, x2", "x1*1e-200, x2*1e-200",
                                  "x1*1e-170, 1e200*x2"])
def test_float_conformal_check_past_the_float_range_equals_the_mat_mul_route(text):
    # products that overflow to inf or underflow to 0 leave the verdict as the dense route gives it
    def outcome(check, *args):
        try:
            return _report_bits(check(*args))
        except ArithmeticError as exc:
            return type(exc), str(exc)

    f = parse_function(text, n=2)
    for dst in (FLAT2, POLAR):
        for x in ((0.5, 0.25), (1.0, 0.0)):
            got = outcome(conformal_check, f, FLAT2, dst, x, "float")
            assert got == outcome(conformal_check_by_mat_mul, f, FLAT2, dst, x, "float")


def test_isotropy_preservation_examples():
    rotation = parse_function("3/5*x1 - 4/5*x2, 4/5*x1 + 3/5*x2")
    assert preserves_laplace_neighbors(rotation, (F(2), F(1)))
    square = parse_function("x1^2 - x2^2, 2*x1*x2")
    assert preserves_laplace_neighbors(square, (F(1), F(0)))
    shear = parse_function("x1 + x2, x2")
    assert not preserves_laplace_neighbors(shear, ORIGIN2)


def test_conformal_iff_isotropy_preserving_small_corpus():
    maps = [
        parse_function("x1^2 - x2^2, 2*x1*x2"),
        parse_function("x1 + x2, x2"),
        parse_function("x1, 2*x2"),
        parse_function("2*x1 + x2, -x2 + 2*x1"),
        parse_function("x1 - x2, x1 + x2"),
    ]
    points = [(F(1), F(0)), (F(1), F(2))]
    for fmap in maps:
        for x in points:
            try:
                conf = conformal_check(fmap, FLAT2, FLAT2, x).conformal
            except GeometryError:
                continue
            assert conf == preserves_laplace_neighbors(fmap, x)


# -- the plane: Cauchy-Riemann and the almost-complex structure ---------------------------------

def test_cr_square_map():
    report = cr_check(parse_function("x1^2 - x2^2, 2*x1*x2"), (F(1), F(0)))
    assert report.holomorphic and report.derivative == (2, 0)


def test_cr_cube_map_derivative():
    # derivative of the complex cube at 1 + i is 3 (1+i)^2 = 6i
    cube = parse_function("x1^3 - 3*x1*x2^2, 3*x1^2*x2 - x2^3")
    report = cr_check(cube, (F(1), F(1)))
    assert report.holomorphic and report.derivative == (0, 6)


def test_cr_conjugation_fails():
    report = cr_check(parse_function("x1, -x2"), (F(1), F(0)))
    assert not report.holomorphic
    assert not report.cr_equations
    assert not report.orientation_preserving


def test_cr_fails_generic_point_for_non_holomorphic_map():
    report = cr_check(parse_function("x1^2, x2"), (F(1), F(1)))
    assert not report.cr_equations
    assert not report.holomorphic


def test_equivalence_chain_small_corpus():
    # isotropy preservation, conformality, CR equations and commutation with
    # the quarter-turn agree at orientation-preserving regular points
    maps = [
        parse_function("x1^2 - x2^2, 2*x1*x2"),
        parse_function("x1 + x2, x2"),
        parse_function("x1, 2*x2"),
        parse_function("x1^2, x2"),
        parse_function("x1 + 3, x2 - 2"),
    ]
    points = [(F(1), F(0)), (F(2), F(1))]
    for fmap in maps:
        for x in points:
            jac = fmap.jacobian(x)
            from nilgeom._linalg import det

            if det(jac) <= 0:
                continue
            cond1 = preserves_laplace_neighbors(fmap, x)
            cond2 = conformal_check(fmap, FLAT2, FLAT2, x).conformal
            cond3 = cr_check(fmap, x).cr_equations
            commutes = (
                jac[0][1] == -jac[1][0] and jac[0][0] == jac[1][1]
            )  # J I = I J written out
            assert cond1 == cond2 == cond3 == commutes


def test_square_zero_complex_numbers_are_isotropic_pairs():
    # (z1 + i z2)^2 = 0 expanded over the ambient algebra is exactly the
    # isotropy relation pair in the plane
    cases = [
        laplace_algebra(2).generators(),
        truncated_algebra(2, 2).generators(),
    ]
    lap = laplace_algebra(2)
    z1, z2 = lap.generators()
    cases.append((z1 + lap.basis_element(3), z2))
    for z in cases:
        real = z[0] * z[0] - z[1] * z[1]
        imag = z[0] * z[1]
        complex_square_zero = real.is_zero() and imag.is_zero()
        assert complex_square_zero == satisfies_laplace_relations(z)


def test_almost_complex_structure():
    x = (F(2), F(3))
    alg = truncated_algebra(2, 1)
    z = make_point(x, alg.generators())
    fixed = almost_complex_apply(x, make_point(x, (alg.zero(), alg.zero())))
    assert all(p == b for p, b in zip(fixed, x))
    twice = almost_complex_apply(x, almost_complex_apply(x, z))
    for p, q, b in zip(twice, z, x):
        assert p == -q + 2 * b  # the mirror image
    d = truncated_algebra(1, 1).generators()[0]
    rotated = almost_complex_apply(ORIGIN2, make_point(ORIGIN2, (d, d.algebra.zero())))
    assert point_offsets(rotated, ORIGIN2) == (d.algebra.zero(), d)


# -- intrinsic affine combinations: the critical-point definition ------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_affine_combination_is_critical_point_flat(n):
    # t gbar(x, y) + (1-t) gbar(z, y) must not vary along first-order moves
    # away from y0 = affine_combination(t, z); flat case, exact
    metric = MetricField.standard_flat(n)
    x = tuple(F(0) for _ in range(n))
    chart = geodesic_chart(metric, x)
    second = truncated_algebra(n, 2)
    first = truncated_algebra(n, 1)
    ambient, embed_z, embed_v = tensor_algebra(second, first)
    z = [embed_z(g) for g in second.generators()]
    v = [embed_v(g) for g in first.generators()]
    zeros = [ambient.zero()] * n
    for t in (F(2), F(1, 2), F(-1)):
        y0 = point_offsets(affine_combination(chart, t, make_point(x, z)), x)
        moved = tuple(a + b for a, b in zip(y0, v))

        def objective(y):
            return gbar_eval(metric, x, y) * t + gbar_eval(metric, x, y, y=z) * (1 - t)

        assert objective(moved) == objective(y0)  # the v-dependence cancels exactly


# -- sizes checked before the work ---------------------------------------------------------

def test_metrics_and_isotropy_algebras_refuse_more_than_the_cap_before_building():
    from nilgeom.weil import MAX_DIMENSION, _check_laplace_dimension, _isotropy_algebra

    n = MAX_DIMENSION - 1
    message = f"^laplace_algebra\\({n}\\) has dimension {n + 2} > MAX_DIMENSION = {MAX_DIMENSION}$"
    rows = [["not parsed"]] * n  # refused before any entry is parsed
    for build in (lambda: MetricField.standard_flat(n), lambda: MetricField.from_strings(rows),
                  lambda: MetricField(n, []), lambda: _isotropy_algebra((1,) * n),
                  lambda: _isotropy_algebra((1, 2) + (1,) * (n - 2))):
        with pytest.raises(ValueError, match=message):
            build()
    with pytest.raises(ValueError, match="MAX_DIMENSION"):
        MetricField.standard_flat(10**9)  # would hold 10^18 entries
    _check_laplace_dimension(MAX_DIMENSION - 2)  # 498 coordinates pass


@pytest.mark.parametrize("size", [1, 3], ids=["short", "long"])
def test_a_neighbor_of_another_length_than_its_base_is_refused(size):
    # a third coordinate was dropped (is_laplace_neighbor said True, g_eval ignored Z3), and one was read as two
    gens = truncated_algebra(3, 3).generators()  # order 3, as gbar_eval needs
    z, right = tuple(gens[:size]), tuple(gens[:2])
    chart = geodesic_chart(POLAR, (F(2), F(0)))
    base = chart.base
    calls = {
        "base": [lambda: is_laplace_neighbor(FLAT2, ORIGIN2, z), lambda: is_laplace_neighbor(POLAR, base, z),
                 lambda: is_laplace_neighbor(FLAT2, (0.0, 0.0), z, mode="float"), lambda: chart.to_chart(z),
                 lambda: mirror(chart, z), lambda: point_offsets(z, ORIGIN2), lambda: make_point(ORIGIN2, z)],
        "metric": [lambda: chart.from_chart(z), lambda: g_eval(POLAR, base, z), lambda: g_eval(POLAR, base, right, z),
                   lambda: gbar_eval(POLAR, base, z), lambda: gbar_eval(POLAR, base, right, z),
                   lambda: laplace_taylor(FLAT2, parse_expr("x1*x2"), ORIGIN2, z)],
    }
    for against, refused in calls.items():
        for call in refused:
            with pytest.raises(ValueError, match=f"^point dimension does not match the {against}$"):
                call()
    assert is_laplace_neighbor(FLAT2, ORIGIN2, truncated_algebra(3, 2).generators()[:2]) is False
    assert g_eval(POLAR, base, right, right).is_zero() and gbar_eval(POLAR, base, right, right).is_zero()


@pytest.mark.parametrize("point", [(F(1),), (F(1), F(2), F(3))], ids=["short", "long"])
def test_a_point_of_another_dimension_than_the_metric_is_refused(point):
    for metric in (POLAR, FLAT2):
        for detector in (laplacian, is_harmonic_at, preserves_affine_combinations):
            with pytest.raises(ValueError, match="^point dimension does not match the metric$"):
                detector(metric, parse_expr("x1^2", n=len(point)), point)
        with pytest.raises(ValueError, match="^point dimension does not match the metric$"):
            geodesic_chart(metric, point)
