"""Isotropic neighbors on every nondegenerate metric, from one metric record.

A neighbor z of x is isotropic exactly when its plain-chart coordinates
satisfy zeta_i zeta_j = lam (G(x)^-1)_ij for one lam; no square root is
needed, so exact mode answers wherever the Laplacian does.  The library
tests it on the diagonal of the chart's congruence frame.  The references
in conftest are that test on the general G(x)^-1, the float normal-chart
route (orthonormal chart, dense solves) and the extended square distance
from symbolic partials.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilgeom import _linalg, geometry
from nilgeom.expr import Const, Var, parse_expr
from nilgeom.geometry import (
    MetricField,
    gbar_eval,
    geodesic_chart,
    is_laplace_neighbor,
    laplace_point,
    laplacian,
)
from nilgeom.scalars import DEFAULT_EPS
from nilgeom.weil import Polynomial, _isotropy_algebra, all_monomials, tensor_algebra, truncated_algebra
from conftest import (
    gbar_eval_by_diff,
    gbar_eval_by_tensor,
    is_laplace_neighbor_by_ginv,
    is_laplace_neighbor_by_normal_chart,
    laplacian_by_trace,
    random_metric,
    random_point,
)
from test_laplacian_route import PROPERTY, curved_metrics

F = Fraction


def _metric_through(s, x, draw):
    """Polynomial metric with G(x) = S plus linear and quadratic terms that
    vanish at x, so that it is curved there."""
    n = len(s)
    vanishing = [Var(k) - Const(x[k]) for k in range(n)]
    entries = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        e = Const(s[i][j])
        for k, l in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-1, n - 1)), max_size=2)):
            term = Const(F(draw(st.integers(1, 2)) * draw(st.sampled_from((-1, 1))))) * vanishing[k]
            e = e + (term * vanishing[l] if l >= 0 else term)
        entries[i][j] = entries[j][i] = e
    return MetricField(n, entries)


@st.composite
def definite_metrics(draw):
    """Curved metrics with G(x) = L^T L + I, positive definite."""
    n = draw(st.integers(2, 3))
    lower = [[F(draw(st.integers(-2, 2))) for _ in range(n)] for _ in range(n)]
    s = _linalg.mat_mul(_linalg.transpose(lower), lower)
    for i in range(n):
        s[i][i] += 1
    x = tuple(F(draw(st.integers(-4, 4)), 2) for _ in range(n))
    return _metric_through(s, x, draw), x


def _reflection(d, v):
    """I - 2 v v^T D / (v^T D v): an isometry of diag(d), rational."""
    n = len(d)
    norm = sum(d[i] * v[i] * v[i] for i in range(n))
    return [[int(i == j) - 2 * v[i] * v[j] * d[j] / norm for j in range(n)] for i in range(n)]


@st.composite
def isometries(draw, d):
    """A product of two reflections of diag(d): a rotation R with
    R D^-1 R^T = D^-1, drawn over the rationals."""
    n = len(d)
    rotation = _linalg.identity(n)
    for _ in range(2):
        v = [F(draw(st.integers(-2, 2))) for _ in range(n)]
        if sum(d[i] * v[i] * v[i] for i in range(n)) != 0:
            rotation = _linalg.mat_mul(rotation, _reflection(d, v))
    return rotation


@st.composite
def neighbor_cases(draw, metrics):
    """A metric, a base point and four neighbors built from the universal
    isotropic point zeta = C Z of the plain chart: zeta itself, t zeta,
    C R Z for an isometry R of diag(d), and a shear of that rotated point.
    Only the shear is not isotropic."""
    metric, x = draw(metrics)
    chart = geodesic_chart(metric, x)
    c, d = chart.frame
    gens = _isotropy_algebra([d[0] / v for v in d]).generators()
    zero = gens[0].algebra.zero()

    def apply(m, v):
        return tuple(sum((mij * vj for mij, vj in zip(row, v)), start=zero) for row in m)

    z = chart.to_chart(laplace_point(chart))
    assert z == apply(c, gens)
    t = F(draw(st.integers(1, 5)) * draw(st.sampled_from((-1, 1))), draw(st.integers(1, 3)))
    rotated = apply(c, apply(draw(isometries(d)), gens))
    k, j = draw(st.sampled_from([(k, j) for k in range(metric.n) for j in range(metric.n) if k != j]))
    shift = F(draw(st.integers(1, 4)) * draw(st.sampled_from((-1, 1))), 4)
    sheared = tuple(w + rotated[j] * shift if i == k else w for i, w in enumerate(rotated))
    coords = [(z, True), (tuple(w * t for w in z), True), (rotated, True), (sheared, False)]
    return metric, x, [(chart.from_chart(w), want) for w, want in coords]


def _float_point(point):
    return tuple(p.algebra.element(tuple(float(v) for v in p.coords)) for p in point)


@given(neighbor_cases(curved_metrics()))
@PROPERTY
def test_universal_point_rotations_and_scalings_are_isotropic(case):
    metric, x, points = case
    xf = tuple(float(v) for v in x)
    for z, want in points:
        assert is_laplace_neighbor(metric, x, z) is want
        assert is_laplace_neighbor(metric, xf, _float_point(z), mode="float") is want


GINV_CASES = Counter()


@given(neighbor_cases(curved_metrics()), st.data())
@PROPERTY
def test_verdicts_match_the_general_inverse_metric_oracle(case, data):
    # the diagonal test in the congruence frame and zeta zeta^T = lam G(x)^-1 itself: one verdict in both
    # modes, at eps = 0 (float equality, where a changed bit would show) too; plus generic second-order points
    metric, x, points = case
    chart, ambient = geodesic_chart(metric, x), truncated_algebra(metric.n, 2)
    for _ in range(2):
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=ambient.dimension - 1, max_size=ambient.dimension - 1))
        zeta = ambient.element([F(0)] + [F(c) for c in coeffs])
        points.append((chart.from_chart([zeta * (i + 1) + g for i, g in enumerate(ambient.generators())]), None))
    xf = tuple(float(v) for v in x)
    for z, want in points:
        got = is_laplace_neighbor(metric, x, z)
        assert got is is_laplace_neighbor_by_ginv(metric, x, z) and want in (None, got)
        zf = _float_point(z)
        for eps in (DEFAULT_EPS, 0.0):
            assert (is_laplace_neighbor(metric, xf, zf, mode="float", eps=eps)
                    is is_laplace_neighbor_by_ginv(metric, xf, zf, mode="float", eps=eps))
        GINV_CASES[got] += 1


def test_ginv_corpus_is_mixed():
    # runs after the property above (file order): both verdicts well represented
    if not GINV_CASES:
        test_verdicts_match_the_general_inverse_metric_oracle()
    assert GINV_CASES[True] >= 50 and GINV_CASES[False] >= 50


ORACLE_CASES = Counter()


@given(neighbor_cases(definite_metrics()))
@settings(PROPERTY, max_examples=60)
def test_float_verdict_matches_normal_chart_oracle(case):
    metric, x, points = case
    xf = tuple(float(v) for v in x)
    for z, want in points:
        zf = _float_point(z)
        got = is_laplace_neighbor(metric, xf, zf, mode="float")
        assert got is want
        assert is_laplace_neighbor_by_normal_chart(metric, xf, zf) is got
        ORACLE_CASES[got] += 1


def test_oracle_corpus_is_large_and_mixed():
    # runs after the property above (file order): at least 200 positive
    # definite cases, both verdicts well represented
    if not ORACLE_CASES:
        test_float_verdict_matches_normal_chart_oracle()
    assert sum(ORACLE_CASES.values()) >= 200
    assert ORACLE_CASES[True] >= 50 and ORACLE_CASES[False] >= 50


@pytest.mark.parametrize("corner", ["1/1000000000000", "1000000000000"])
def test_float_isotropy_reads_residue_per_unit_of_lambda(corner):
    # G = diag(1e-12, 1) puts lam near 1e-12, where a stretch of one axis
    # would hide under eps; diag(1e12, 1) puts it near 1e12, where rounding
    # alone would exceed eps
    metric = MetricField.from_strings([[corner, "0"], ["0", "1 + x1^2"]])
    charts = {"exact": geodesic_chart(metric, (F(0), F(0))), "float": geodesic_chart(metric, (0.0, 0.0), mode="float")}
    for mode, chart in charts.items():
        c, d = chart.frame
        rotation = _reflection(d, [1, 1]) if mode == "exact" else _reflection(d, [1.0, 1.0])
        zeta = chart.to_chart(laplace_point(chart))
        for scale in (1, F(1, 3000), F(1000, 3)):
            t = scale if mode == "exact" else float(scale)
            isotropic = [tuple(w * t for w in zeta), tuple(w * t for w in _rotate(rotation, zeta))]
            for z in isotropic:
                assert is_laplace_neighbor(metric, chart.base, chart.from_chart(z), mode=mode)
                for k in range(2):
                    stretched = tuple(w * F(3, 2) if i == k else w for i, w in enumerate(z))
                    assert not is_laplace_neighbor(metric, chart.base, chart.from_chart(stretched), mode=mode)


def _rotate(m, v):
    return tuple(sum(mij * vj for mij, vj in zip(row, v)) for row in m)


def test_indefinite_metric_has_exact_and_float_answers():
    hyperbolic = MetricField.from_strings([["0", "1"], ["1", "x1^2"]])
    for x in ((F(0), F(0)), (F(1), F(2))):
        chart = geodesic_chart(hyperbolic, x)
        z = laplace_point(chart)
        assert is_laplace_neighbor(hyperbolic, x, z)
        xf = tuple(float(v) for v in x)
        assert is_laplace_neighbor(hyperbolic, xf, _float_point(z), mode="float")
        generic = chart.from_chart(truncated_algebra(2, 2).generators())
        assert not is_laplace_neighbor(hyperbolic, x, generic)
        assert not is_laplace_neighbor(hyperbolic, xf, _float_point(generic), mode="float")


def test_one_laplacian_call_reads_the_metric_once(monkeypatch):
    metric = MetricField.from_strings([["4 + x2", "1"], ["1", "1 + x1^2"]])
    x = (F(1, 3), F(2, 7))
    f = parse_expr("x1^2*x2 + x2^3")
    want = laplacian_by_trace(metric, f, x)
    entries = {id(metric.entry(i, j)) for i in range(2) for j in range(i, 2)}
    reads, calls = Counter(), Counter()

    def counted(module, name, on_entries=False):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if on_entries and id(args[0]) in entries:
                reads[id(args[0])] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(geometry, "jet_eval", on_entries=True)
    counted(geometry, "_jet", on_entries=True)  # constant entries are read by the evaluator itself
    counted(_linalg, "det")
    counted(_linalg, "congruence")
    assert laplacian(metric, f, x) == want
    assert reads == Counter({e: 1 for e in entries})
    assert calls["det"] == 0 and calls["congruence"] == 1


@st.composite
def third_order_pairs(draw):
    """A curved metric and nilpotent y, z in truncated_algebra(n, 3)."""
    metric, x = draw(curved_metrics())
    n = metric.n
    ambient = truncated_algebra(n, 3)
    monos = all_monomials(n, 3)[1:]

    def nilpotent():
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        return ambient.from_polynomial(Polynomial(n, {m: draw(st.integers(-2, 2)) for m in chosen}))

    y = tuple(nilpotent() for _ in range(n))
    z = tuple(nilpotent() for _ in range(n))
    return metric, x, y, z


@given(third_order_pairs())
@settings(PROPERTY, max_examples=25)
def test_gbar_from_one_jet_equals_symbolic_partials(case):
    metric, x, y, z = case
    assert gbar_eval(metric, x, z, y=y) == gbar_eval_by_diff(metric, x, z, y=y)
    assert gbar_eval(metric, x, z) == gbar_eval_by_diff(metric, x, z)


@st.composite
def tensor_pairs(draw):
    """A seeded ``random_metric`` and a third-order pair: y from the order-a
    factor and z from both factors of the bound-3 tensor product of
    truncated algebras of orders (a, b) = (1, 2) or (2, 1); y may be
    omitted (the base)."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(1, 3))
    x = random_point(rng, n)
    metric = random_metric(rng, n, x)
    a, b = (truncated_algebra(n, k) for k in draw(st.sampled_from(((1, 2), (2, 1)))))
    _, left, right = tensor_algebra(a, b)

    def nilpotent(algebra):
        return algebra.element([F(0)] + [F(rng.randint(-2, 2)) * (rng.random() < 0.6) for _ in algebra.basis[1:]])

    y = tuple(left(nilpotent(a)) for _ in range(n)) if draw(st.booleans()) else None
    z = tuple(right(nilpotent(b)) + left(nilpotent(a)) for _ in range(n))
    return metric, x, z, y


@given(tensor_pairs())
@settings(PROPERTY, max_examples=25)
def test_gbar_as_symmetrised_g_equals_the_tensor_and_diff_routes(case):
    metric, x, z, y = case
    got = gbar_eval(metric, x, z, y=y)
    assert got == gbar_eval_by_tensor(metric, x, z, y=y)
    assert got == gbar_eval_by_diff(metric, x, z, y=y)
