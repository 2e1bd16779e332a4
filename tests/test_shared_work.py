"""Work a Laplacian or a detector no longer repeats.

Algebras that depend only on their arguments are built once and shared
(``truncated_algebra``, ``laplace_algebra``), constant metric entries get no
jet, the chart correction forms each symmetric product once, and the
plane-map detectors read everything off one jet at the universal isotropic
point.  Each shortcut must equal the route it replaces, kept in ``conftest``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilgeom import expr, geometry, weil
from nilgeom.expr import Call, FunctionModel, Var, parse_expr
from nilgeom.geometry import (
    MetricField,
    christoffel,
    cr_check,
    geodesic_chart,
    laplacian,
    preserves_laplace_neighbors,
)
from nilgeom.scalars import EXACT, FLOAT
from nilgeom.weil import MAX_DIMENSION, _isotropy_algebra, laplace_algebra, truncated_algebra
from conftest import (
    christoffel_by_loop,
    cr_check_by_laplacians,
    preserves_laplace_neighbors_by_jacobian,
    push_offsets_all_terms,
    random_metric,
    random_point,
    random_poly_expr,
)

F = Fraction
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
seeds = st.integers(0, 2**32 - 1)


# -- shape-keyed algebras ---------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_second_flat_laplacian_builds_no_algebra_and_jets_only_f(n, monkeypatch):
    flat = MetricField.standard_flat(n)
    f = parse_expr("+".join(f"x{i + 1}^3" for i in range(n)) + "-x1*x2" * (n > 1), n=n)
    laplacian(flat, f, tuple(F(i, 3) for i in range(n)))
    built, jetted = [], []
    init, jet_eval = weil.WeilAlgebra.__init__, geometry.jet_eval

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def recording_jet_eval(e, *args, **kwargs):
        jetted.append(e)
        return jet_eval(e, *args, **kwargs)

    monkeypatch.setattr(weil.WeilAlgebra, "__init__", counting_init)
    monkeypatch.setattr(geometry, "jet_eval", recording_jet_eval)
    x = tuple(F(1 - i, 2) for i in range(n))
    assert laplacian(flat, f, x) == sum(6 * c for c in x)
    assert built == []
    assert len(jetted) == 1 and jetted[0] is f  # one jet: the mirror image is Z -> -Z


def test_algebra_caches_are_bounded():
    for builder, make, args in (
        (weil._truncated, truncated_algebra, [(1, k) for k in range(weil._CACHE_SIZE + 4)]),
        (weil._laplace, laplace_algebra, [(n,) for n in range(1, weil._CACHE_SIZE + 5)]),
    ):
        builder.cache_clear()
        algebras = [make(*a) for a in args]
        info = builder.cache_info()
        assert info.maxsize == weil._CACHE_SIZE and info.currsize == weil._CACHE_SIZE
        assert make(*args[-1]) is algebras[-1]  # recent arguments share the algebra
        first = make(*args[0])  # the oldest was dropped: rebuilt equal
        assert first is not algebras[0] and first == algebras[0]


@pytest.mark.parametrize("call, message", [
    (lambda: truncated_algebra(2, 40), f"2 generators up to degree 40 give more than MAX_DIMENSION = {MAX_DIMENSION} monomials"),
    (lambda: truncated_algebra(MAX_DIMENSION, 1), f"{MAX_DIMENSION} generators up to degree 1 give more than MAX_DIMENSION = {MAX_DIMENSION} monomials"),
    (lambda: truncated_algebra(0, 2), "need at least one generator"),
    (lambda: truncated_algebra(2, -1), "truncation order must be >= 0"),
    (lambda: laplace_algebra(0), "need at least one generator"),
    (lambda: laplace_algebra(MAX_DIMENSION - 1), f"laplace_algebra({MAX_DIMENSION - 1}) has dimension {MAX_DIMENSION + 1} > MAX_DIMENSION = {MAX_DIMENSION}"),
])
def test_rejected_arguments_raise_as_before_and_are_not_cached(call, message):
    before = (weil._truncated.cache_info(), weil._laplace.cache_info())
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
    assert (weil._truncated.cache_info(), weil._laplace.cache_info()) == before


def test_unit_weights_share_the_laplace_algebra_and_others_are_built():
    assert _isotropy_algebra((F(1),) * 3) is laplace_algebra(3)
    assert _isotropy_algebra((1.0, 1.0)) is laplace_algebra(2)
    weighted = _isotropy_algebra((F(1), F(2), F(1, 3)))
    again = _isotropy_algebra((F(1), F(2), F(1, 3)))
    assert weighted is not again and weighted == again and weighted != laplace_algebra(3)


# -- constant metric entries -------------------------------------------------------------

def test_constant_entries_take_no_jet(monkeypatch):
    jetted = []
    jet_eval = geometry.jet_eval
    monkeypatch.setattr(geometry, "jet_eval", lambda e, *a, **k: jetted.append(e) or jet_eval(e, *a, **k))
    constant = MetricField.from_strings([["2", "1/3"], ["1/3", "5"]])
    for mode, x in ((EXACT, (F(1, 2), F(1))), (FLOAT, (0.5, 1.0))):
        gamma = christoffel(constant, x, mode)
        zero = 0.0 if mode == FLOAT else F(0)
        assert all(type(v) is type(zero) and v == 0 for plane in gamma for row in plane for v in row)
    assert jetted == []
    mixed = MetricField.from_strings([["1+x2^2", "1/3"], ["1/3", "5"]])
    assert christoffel(mixed, (F(1, 2), F(1))) == christoffel_by_loop(mixed, (F(1, 2), F(1)))
    assert len(jetted) == 1 and jetted[0] is mixed.entry(0, 0)


# -- the chart correction, each symmetric pair once ------------------------------------

@PROPERTY
@given(seeds)
def test_paired_christoffel_terms_equal_all_terms(seed):
    """Exactly in exact mode; in float mode the sum is grouped differently,
    so it may differ from the all-terms sum in the last bits."""
    rng = random.Random(seed)
    n = rng.choice((1, 2, 3))
    base = random_point(rng, n)
    metric = random_metric(rng, n, base)  # G = I at base; curved away from it
    x = tuple(c + F(rng.randint(-2, 2), 5) for c in base)
    algebra = truncated_algebra(n, 2)
    gens = algebra.generators()
    zeta = [gens[i] * F(rng.randint(1, 4), 2) + gens[rng.randrange(n)] * gens[i] for i in range(n)]
    chart = geodesic_chart(metric, x)
    assert chart.push_offsets(zeta) == push_offsets_all_terms(chart, zeta)
    fchart = geodesic_chart(metric, tuple(map(float, x)), mode=FLOAT)
    for got, want in zip(fchart.push_offsets(zeta), push_offsets_all_terms(fchart, zeta)):
        for a, b in zip(got.coords, want.coords):
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b))


# -- one jet per plane-map detector ---------------------------------------------------

def _outcome(detector, f, x, mode):
    try:
        return detector(f, x, mode=mode)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _holomorphic_polynomial(rng):
    """Real and imaginary parts of a z^2 + b z + c, or of its conjugate."""
    a, b, c = (complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3))
    x, y = Var(0), Var(1)
    re = x * x - y * y
    im = x * y * 2
    u = re * int(a.real) - im * int(a.imag) + x * int(b.real) - y * int(b.imag) + int(c.real)
    v = re * int(a.imag) + im * int(a.real) + x * int(b.imag) + y * int(b.real) + int(c.imag)
    return (u, v * -1) if rng.random() < 0.3 else (u, v)


def _primitive_map(rng):
    """exp, sin and cos of linear polynomials, holomorphic or not."""
    x, y = Var(0), Var(1)
    if rng.random() < 0.4:
        s = rng.choice((1, -1))
        return Call("exp", x) * Call("cos", y), Call("exp", x) * Call("sin", y) * s
    p, q = random_poly_expr(rng, 2, 1, terms=2), random_poly_expr(rng, 2, 1, terms=2)
    return Call(rng.choice(("exp", "sin", "cos")), p) + q, Call(rng.choice(("sin", "cos")), q) * p


def _plane_map(rng):
    kind = rng.choice(("random", "holomorphic", "primitive"))
    if kind == "random":
        return FunctionModel(2, 2, (random_poly_expr(rng, 2, 3), random_poly_expr(rng, 2, 3)))
    if kind == "holomorphic":
        return FunctionModel(2, 2, _holomorphic_polynomial(rng))
    return FunctionModel(2, 2, _primitive_map(rng))


@PROPERTY
@given(seeds)
def test_one_jet_detectors_equal_the_separate_jets(seed):
    rng = random.Random(seed)
    f = _plane_map(rng)
    x = random_point(rng, 2)
    xf = tuple(float(c) + rng.uniform(-0.1, 0.1) for c in x)
    for mode, point in ((EXACT, x), (FLOAT, x), (FLOAT, xf)):
        assert _outcome(cr_check, f, point, mode) == _outcome(cr_check_by_laplacians, f, point, mode)
        assert _outcome(preserves_laplace_neighbors, f, point, mode) == _outcome(
            preserves_laplace_neighbors_by_jacobian, f, point, mode)


@PROPERTY
@given(seeds)
def test_isotropy_preservation_in_three_dimensions_equals_the_separate_jets(seed):
    rng = random.Random(seed)
    f = FunctionModel(3, 3, tuple(random_poly_expr(rng, 3, 2) for _ in range(3)))
    x = random_point(rng, 3)
    for mode in (EXACT, FLOAT):
        assert _outcome(preserves_laplace_neighbors, f, x, mode) == _outcome(
            preserves_laplace_neighbors_by_jacobian, f, x, mode)


def test_holomorphic_maps_report_their_derivative_from_one_jet(monkeypatch):
    square = FunctionModel(2, 2, (parse_expr("x1^2-x2^2"), parse_expr("2*x1*x2")))
    oracle = cr_check_by_laplacians(square, (F(1, 2), F(1, 4)))
    jetted = []
    jet_eval = expr.jet_eval
    monkeypatch.setattr(expr, "jet_eval", lambda e, *a, **k: jetted.append(e) or jet_eval(e, *a, **k))
    report = cr_check(square, (F(1, 2), F(1, 4)))
    assert report.holomorphic and report.harmonic_components and report.derivative == (1, F(1, 2))
    assert report == oracle
    fr = cr_check(square, (0.5, 0.25), mode=FLOAT)
    assert fr.harmonic_components and fr.derivative == (1.0, 0.5)
    assert preserves_laplace_neighbors(square, (0.5, 0.25), mode=FLOAT)
    assert len(jetted) == 3 * 2  # one jet per component and call
