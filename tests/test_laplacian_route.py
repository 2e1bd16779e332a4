"""One Laplacian route for every nondegenerate metric.

``_linalg.congruence`` diagonalizes G(x) exactly with no square root, and
``laplacian`` averages over the universal point of the matching weighted
isotropy algebra in both modes.  The references in conftest are the trace
form trace(G^-1 Hess(f o chart)) and the full n^4 Christoffel loop.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nilgeom import _linalg
from nilgeom.expr import Const, Var, jet_eval, parse_expr, polynomial_to_expr
from nilgeom.geometry import (
    AFFINE_SCALES,
    GeodesicChart,
    GeometryError,
    MetricField,
    christoffel,
    geodesic_chart,
    is_laplace_neighbor,
    laplacian,
    make_point,
    preserves_affine_combinations,
)
from nilgeom.scalars import DEFAULT_EPS, EXACT, FLOAT
from nilgeom.weil import Polynomial, all_monomials, laplace_algebra, truncated_algebra
from conftest import (
    _universal_point,
    christoffel_by_loop,
    half_gamma_all_terms,
    laplacian_by_mirror_average,
    laplacian_by_trace,
    push_offsets_all_terms,
    random_metric,
    random_point,
    random_poly_expr,
)

F = Fraction
PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
HYPERBOLIC = MetricField.from_strings([["0", "1"], ["1", "0"]])


def _assert_congruence(a):
    c, d = _linalg.congruence(a)
    n = len(a)
    assert _linalg.det(c) != 0
    assert all(v != 0 for v in d)
    assert _linalg.mat_mul(_linalg.transpose(c), _linalg.mat_mul(a, c)) == [
        [d[i] if i == j else 0 for j in range(n)] for i in range(n)
    ]
    return c, d


@st.composite
def symmetric_matrices(draw, sizes=(1, 4), entries=st.integers(-3, 3)):
    """Symmetric nonsingular rational matrices; zero diagonals are common."""
    n = draw(st.integers(*sizes))
    m = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        m[i][j] = m[j][i] = F(draw(entries), draw(st.sampled_from((1, 1, 2, 3))))
    assume(_linalg.det(m) != 0)
    return m


@given(symmetric_matrices())
@PROPERTY
def test_congruence_diagonalizes_exactly(a):
    _assert_congruence(a)


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, 0]],  # zero diagonal: column 2 is added to column 1
    [[0, 1], [1, -2]],  # adding column 2 would cancel (2*1 - 2); it is subtracted
    [[1, 1, 0], [1, 1, 1], [0, 1, 0]],  # nonzero first pivot, zero second one
    [[0, 1, 1], [1, 0, 2], [1, 2, 0]],  # every diagonal zero
    [[4, 2], [2, 5]],
])
def test_congruence_fixed_cases(rows):
    _assert_congruence([[F(v) for v in row] for row in rows])


def test_congruence_pivot_after_first_step():
    # after eliminating the first column the (2, 2) entry is 1 - 1 = 0
    c, d = _assert_congruence([[F(1), F(1), F(0)], [F(1), F(1), F(1)], [F(0), F(1), F(0)]])
    assert d[1] == 2  # 2 * m_23, with m_33 = 0


def test_congruence_float_and_singular():
    c, d = _linalg.congruence([[0.0, 1.0], [1.0, 0.0]])
    assert d == [2.0, -0.5]
    assert all(isinstance(v, float) for row in c for v in row)
    with pytest.raises(ZeroDivisionError):
        _linalg.congruence([[F(1), F(2)], [F(2), F(4)]])


# -- the Laplacian against the trace oracle ---------------------------------------------

@st.composite
def curved_metrics(draw):
    """A polynomial metric with G(x) = S at the dyadic point x, for a random
    symmetric nonsingular S (indefinite ones included), plus linear and
    quadratic terms vanishing at x so that the metric is curved there."""
    s = draw(symmetric_matrices(sizes=(2, 4), entries=st.integers(-2, 2)))
    n = len(s)
    x = tuple(F(draw(st.integers(-4, 4)), 2) for _ in range(n))
    vanishing = [Var(k) - Const(x[k]) for k in range(n)]
    entries = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        e = Const(s[i][j])
        for k, l in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-1, n - 1)), max_size=2)):
            term = Const(F(draw(st.integers(1, 2)) * draw(st.sampled_from((-1, 1))))) * vanishing[k]
            e = e + (term * vanishing[l] if l >= 0 else term)
        entries[i][j] = entries[j][i] = e
    return MetricField(n, entries), x


def _polynomial(draw, n, degree=3):
    monos = all_monomials(n, degree)[1:]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    return polynomial_to_expr(Polynomial(n, {m: draw(st.integers(1, 4)) for m in chosen}))


@st.composite
def curved_problems(draw):
    metric, x = draw(curved_metrics())
    return metric, x, _polynomial(draw, metric.n)


@given(curved_problems())
@PROPERTY
def test_laplacian_equals_trace_oracle(problem):
    metric, x, f = problem
    exact = laplacian(metric, f, x)
    assert isinstance(exact, Fraction)
    assert exact == laplacian_by_trace(metric, f, x)
    approx = laplacian(metric, f, tuple(float(c) for c in x), mode="float")
    assert abs(approx - float(exact)) <= 1e-9 * max(1.0, abs(float(exact)))


@given(curved_problems())
@PROPERTY
def test_christoffel_equals_full_loop(problem):
    metric, x, _ = problem
    assert christoffel(metric, x) == christoffel_by_loop(metric, x)


def test_christoffel_flat_is_zero_and_matches_loop():
    flat = MetricField.standard_flat(8)
    x = tuple(F(k, 3) for k in range(8))
    gamma = christoffel(flat, x)
    assert gamma == christoffel_by_loop(flat, x)
    assert all(isinstance(v, Fraction) and v == 0 for plane in gamma for row in plane for v in row)


# -- one form of the Christoffel symbols: first kind, read off the partials -------------

@st.composite
def chart_problems(draw):
    """A ``curved_metrics`` metric (indefinite ones included) or a
    ``random_metric`` one (G = I at its base), at a point where it is
    nonsingular."""
    if draw(st.booleans()):
        return draw(curved_metrics())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.choice((1, 2, 3, 4))
    base = random_point(rng, n)
    metric = random_metric(rng, n, base)
    x = tuple(c + F(rng.randint(-2, 2), 5) for c in base)
    try:
        metric.matrix_at(x)
    except GeometryError:  # singular away from the base
        assume(False)
    return metric, x


@given(chart_problems())
@PROPERTY
def test_first_kind_transport_equals_the_second_kind_route(problem):
    metric, x = problem
    n = metric.n
    chart = geodesic_chart(metric, x)
    assert christoffel(metric, x) == chart.gamma == christoffel_by_loop(metric, x)
    gens = truncated_algebra(n, 2).generators()
    zeta = [gens[i] * F(i + 1, 2) + gens[(i + 1) % n] * gens[i] for i in range(n)]
    pushed = chart.push_offsets(zeta)
    assert pushed == push_offsets_all_terms(chart, zeta)
    want = tuple(a + c for a, c in zip(pushed, half_gamma_all_terms(chart, pushed)))
    assert chart.pull_offsets(pushed) == want
    assert chart.to_chart(make_point(chart.base, pushed)) == want
    assert all(c != 0 for terms in chart._lowered for _, _, c in terms)


@pytest.mark.parametrize("rows", [[["2", "1/3"], ["1/3", "5"]], [["0", "1"], ["1", "0"]], [["1"]]])
def test_constant_metric_lists_no_terms_and_no_pairs(rows):
    metric = MetricField.from_strings(rows)
    n = metric.n
    zeta = truncated_algebra(n, 2).generators()
    for mode, x in ((EXACT, (F(1, 2),) * n), (FLOAT, (0.5,) * n)):
        chart = geodesic_chart(metric, x, mode)
        assert chart._lowered == [[]] * n and chart._pairs == []
        assert chart.push_offsets(zeta) == tuple(zeta) == chart.pull_offsets(zeta)


def test_cancelling_contributions_list_no_zero_coefficient():
    # G_12 = 3 x2: d_2 G_12 enters Gamma_2,12 twice, with opposite signs,
    # and leaves only Gamma_1,22 = 3
    metric = MetricField.from_strings([["1", "3*x2"], ["3*x2", "1"]])
    for mode, x, c in ((EXACT, (F(1, 2), F(0)), F(3, 2)), (FLOAT, (0.5, 0.0), 1.5)):
        chart = geodesic_chart(metric, x, mode)
        assert chart._lowered == [[(1, 1, c)], []] and chart._pairs == [(1, 1)]
    assert christoffel(metric, (F(1, 2), F(0))) == christoffel_by_loop(metric, (F(1, 2), F(0)))


def test_laplacian_and_detectors_never_build_the_second_kind_symbols(monkeypatch):
    reads = []
    gamma = GeodesicChart.gamma
    monkeypatch.setattr(GeodesicChart, "gamma", property(lambda chart: reads.append(chart) or gamma.fget(chart)))
    curved = MetricField.from_strings([["1+x2^2", "x1"], ["x1", "2+x1*x2"]])
    f = parse_expr("x1^2*x2 + x2^3")
    for metric in (curved, HYPERBOLIC, MetricField.from_strings([["x2", "1+x1"], ["1+x1", "x2"]])):
        for mode, x in ((EXACT, (F(1, 2), F(1, 3))), (FLOAT, (0.5, 0.25))):
            laplacian(metric, f, x, mode=mode)
            preserves_affine_combinations(metric, f, x, mode=mode)
            z = make_point(x, laplace_algebra(2).generators())
            is_laplace_neighbor(metric, x, z, mode=mode)
    assert reads == []
    christoffel(curved, (F(1, 2), F(1, 3)))
    assert len(reads) == 1


def test_hyperbolic_metric_both_modes():
    # zero diagonal: the congruence needs its column pivot; the Laplacian of
    # [[0, 1], [1, 0]] is the wave operator 2 d1 d2
    f = parse_expr("x1*x2")
    assert laplacian(HYPERBOLIC, f, (F(0), F(0))) == 2
    value = laplacian(HYPERBOLIC, f, (0.0, 0.0), mode="float")
    assert isinstance(value, float) and value == pytest.approx(2.0, abs=1e-12)
    assert laplacian(HYPERBOLIC, parse_expr("x1^2 - x2^2"), (F(1), F(2))) == 0
    assert preserves_affine_combinations(HYPERBOLIC, parse_expr("x1^2 + x2^2"), (F(0), F(0)))
    assert not preserves_affine_combinations(HYPERBOLIC, f, (F(0), F(0)))


def test_float_tiny_pivot_keeps_precision():
    # G(x) = [[1e-15, 1], [1, 5/4]] is well conditioned, but pivoting on its
    # 1e-15 corner would put 1e15 into the congruence; float mode adds a
    # column first when a pivot is below half of its column
    metric = MetricField.from_strings([["1/1000000000000000", "1"], ["1", "1 + x1^2"]])
    f = parse_expr("x1^2*x2 + x2^3 + x1*x2")
    exact = laplacian(metric, f, (F(1, 2), F(1, 4)))
    assert laplacian(metric, f, (0.5, 0.25), mode="float") == pytest.approx(float(exact), rel=1e-12)
    c, d = _linalg.congruence([[1e-15, 1.0], [1.0, 1.25]])
    assert max(abs(v) for row in c for v in row) < 10


# -- one jet: the mirror image is the automorphism Z -> -Z --------------------------------

def _assert_one_jet_equals_mirror_average(metric, f, x, mode):
    # the oracle's z' is z with its Z coordinates negated, which is exact, and
    # rounding is sign-symmetric, so the float values agree bit for bit, the
    # sign of a zero included
    if mode == FLOAT:
        x = tuple(map(float, x))
    try:
        want = laplacian_by_mirror_average(metric, f, x, mode=mode)
    except GeometryError:
        assume(False)
    got = laplacian(metric, f, x, mode=mode)
    if mode == FLOAT:
        assert got.hex() == want.hex()
    else:
        assert isinstance(got, Fraction) and got == want


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from((EXACT, FLOAT)))
@PROPERTY
def test_one_jet_equals_the_mirror_average(seed, n, mode):
    rng = random.Random(seed)
    x = random_point(rng, n)
    metric = random_metric(rng, n, x)
    f = random_poly_expr(rng, n, 3)
    if mode == FLOAT:
        f = f + parse_expr(f"sin(x1)*exp(x{n}/3) + sqrt(2 + x1^2) + 1/(3 + x{n}^2)", n=n)
    _assert_one_jet_equals_mirror_average(metric, f, x, mode)


@given(curved_problems(), st.sampled_from((EXACT, FLOAT)))
@PROPERTY
def test_one_jet_equals_the_mirror_average_at_weighted_points(problem, mode):
    # G(x) != I, indefinite ones included: the universal point lives in a
    # weighted isotropy algebra
    metric, x, f = problem
    _assert_one_jet_equals_mirror_average(metric, f, x, mode)


def test_float_eps_zero_answers_where_the_residue_check_failed():
    # f(x) from evaluate and the unit coordinate of the jet differ in the last
    # bit here, which made the mirror-average residue check fail at eps = 0
    flat = MetricField.standard_flat(2)
    f = parse_expr("x1^3-3*x1*x2^2")
    x = (0.3, 0.7)
    with pytest.raises(GeometryError, match="non-isotropic residue"):
        laplacian_by_mirror_average(flat, f, x, mode=FLOAT, eps=0.0)
    assert laplacian(flat, f, x, mode=FLOAT) == 0
    assert preserves_affine_combinations(flat, f, x, mode=FLOAT, eps=0.0) is True


# -- the affine detector at the weighted universal point ----------------------------------

PROBES = ("x1^2", "x2^2", "x1*x2", "x1^2 + x2^2 + x1*x2")


@given(curved_problems())
@PROPERTY
def test_affine_detector_equals_vanishing_laplacian(problem):
    metric, x, f = problem
    lap = laplacian(metric, f, x)
    assert preserves_affine_combinations(metric, f, x) is (lap == 0)
    # f minus a multiple of a probe with nonzero Laplacian is harmonic at x
    for text in PROBES:
        h = parse_expr(text, n=metric.n)
        lap_h = laplacian(metric, h, x)
        if lap_h != 0:
            break
    assert lap_h != 0
    harmonic = f - Const(lap / lap_h) * h
    assert laplacian(metric, harmonic, x) == 0
    assert preserves_affine_combinations(metric, harmonic, x) is True


def test_float_affine_detector_ignores_the_scale_of_g11():
    # the residue's Q coordinate carries d_1 = G_11; read per unit of it, the
    # float tolerance decides as it does for the Laplacian
    tiny = MetricField.from_strings([["1/1000000000000", "0"], ["0", "1"]])
    f = parse_expr("x2^2")
    assert laplacian(tiny, f, (0.0, 0.0), mode="float") == pytest.approx(2.0)
    assert preserves_affine_combinations(tiny, f, (0.0, 0.0), mode="float") is False
    # G_11 = 1e12 with a harmonic f whose terms are of size 1e12: the float
    # rounding must not be multiplied by d_1
    big = MetricField.from_strings([["1000000000000", "0"], ["0", "1"]])
    h = parse_expr("-3000000000000/7*x1^2 + 3/7*x2^2 + 17/6*x1*x2")
    assert laplacian(big, h, (F(0), F(0))) == 0
    assert preserves_affine_combinations(big, h, (0.0, 0.0), mode="float") is True



# -- the universal point in closed form: push(s C Z) = s C Z - s^2 d_1 b Q ----------------

CLOSED_FORM_SCALES = (1, *(1 - s for s in AFFINE_SCALES))


@st.composite
def transport_problems(draw):
    metric, x = draw(chart_problems())
    return metric, x, _polynomial(draw, metric.n)


@given(transport_problems(), st.sampled_from((EXACT, FLOAT)))
@PROPERTY
def test_closed_form_offsets_equal_the_weil_route(problem, mode):
    # exact mode: equal Fractions; float mode: equal bits, so the float
    # Laplacian is the one the Weil route gives, no farther from the exact one
    metric, x, f = problem
    if mode == FLOAT:
        x = tuple(map(float, x))
    try:
        chart, gens, d1 = _universal_point(metric, x, mode, DEFAULT_EPS)
    except GeometryError:
        assume(False)
    got = chart.laplace_offsets(CLOSED_FORM_SCALES)
    want = [chart.push_offsets([g * s for g in gens]) for s in CLOSED_FORM_SCALES]
    if mode == EXACT:
        assert got == want
        assert all(isinstance(c, Fraction) for offsets in got for w in offsets for c in w.coords)
        return
    for got_offsets, want_offsets in zip(got, want):
        for a, b in zip(got_offsets, want_offsets):
            assert [float(c).hex() for c in a.coords] == [float(c).hex() for c in b.coords]
    weil = 2 * jet_eval(f, chart.base, want[0], FLOAT).coords[metric.n + 1] / d1
    assert laplacian(metric, f, x, mode=FLOAT).hex() == weil.hex()


def test_isotropy_weights_are_in_the_mode_s_scalars():
    # float mode multiplies float weights, not Fractions with 2^52 denominators
    metric = MetricField.from_strings([["1+x2^2", "x1"], ["x1", "2+x1*x2"]])
    for mode, x, kind in ((FLOAT, (0.5, 0.3), float), (EXACT, (F(1, 2), F(1, 3)), (int, Fraction))):
        (offsets,) = geodesic_chart(metric, x, mode).laplace_offsets()
        ((q, weight),) = offsets[0].algebra._table[2][2]
        assert q == 3 and isinstance(weight, kind) and weight != 1


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@PROPERTY
def test_q_coordinate_is_the_classical_formula(seed, n):
    # 2 q / d_1 = G^ij d_ij f - Gamma-bar^k d_k f, Gamma-bar^k = G^ij Gamma^k_ij
    rng = random.Random(seed)
    base = random_point(rng, n)
    metric = random_metric(rng, n, base)
    x = tuple(c + F(rng.randint(-2, 2), 5) for c in base)
    f = random_poly_expr(rng, n, 3)
    try:
        chart = geodesic_chart(metric, x)
    except GeometryError:
        assume(False)
    (offsets,) = chart.laplace_offsets()
    q = jet_eval(f, chart.base, offsets).coords[n + 1]
    algebra = truncated_algebra(n, 2)
    jet = dict(zip(algebra.basis, jet_eval(f, x, algebra.generators()).coords))
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    partial = [jet[u] for u in unit]
    hessian = [[jet[tuple(a + b for a, b in zip(unit[i], unit[j]))] * (2 if i == j else 1) for j in range(n)]
               for i in range(n)]
    ginv, gamma = chart.ginv, chart.gamma
    pairs = list(itertools.product(range(n), repeat=2))
    gamma_bar = [sum(ginv[i][j] * gamma[k][i][j] for i, j in pairs) for k in range(n)]
    classical = sum(ginv[i][j] * hessian[i][j] for i, j in pairs) - sum(g * p for g, p in zip(gamma_bar, partial))
    assert 2 * q / chart.frame[1][0] == classical


@pytest.mark.parametrize("rows, f", [
    ([["2", "1"], ["1", "3"]], "x1 - 2*x2"),  # no Christoffel terms: b = 0
    ([["1 + x2", "0"], ["0", "1"]], "x1"),  # b_1 = 0, b_2 != 0
])
def test_float_laplacian_of_a_harmonic_linear_function_is_a_positive_zero(rows, f):
    # a zero Q coordinate of an offset is +0.0, never the -0.0 of -(d_1 * 0.0)
    metric = MetricField.from_strings(rows)
    value = laplacian(metric, parse_expr(f), (0.5, 0.25), mode=FLOAT)
    assert value.hex() == "0x0.0p+0"
