"""Work a Laplacian or a detector no longer repeats.

Algebras that depend only on their arguments are built once and shared
(``truncated_algebra``, ``laplace_algebra``), and so are their generators;
constant metric entries get no jet, the chart correction forms each
symmetric pair product once per transport, G(x)^-1 is summed over the
nonzero entries of C only, order checks multiply each multiset of factors
once, and the plane-map detectors read everything off one jet at the
universal isotropic point.  Each shortcut must equal the route it replaces,
kept in ``conftest``.
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
from nilgeom.geometry import GeometryError, _check_order
from nilgeom.scalars import DEFAULT_EPS, EXACT, FLOAT
from nilgeom.weil import (
    MAX_DIMENSION,
    Polynomial,
    WeilElement,
    _isotropy_algebra,
    algebra_from_json,
    algebra_to_json,
    laplace_algebra,
    quotient_algebra,
    truncated_algebra,
)
from conftest import (
    check_order_all_sequences,
    christoffel_by_loop,
    cr_check_by_laplacians,
    generators_from_normal_forms,
    ginv_by_rows,
    half_gamma_all_terms,
    half_gamma_per_term,
    invert,
    preserves_laplace_neighbors_by_jacobian,
    push_offsets_all_terms,
    push_offsets_per_term,
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
    evaluator = geometry._jet

    def recording_evaluator(e, point, mode):  # a jet is an evaluation at Weil elements
        if any(isinstance(p, weil.WeilElement) for p in point):
            jetted.append(e)
        return evaluator(e, point, mode)

    monkeypatch.setattr(geometry, "_jet", recording_evaluator)
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


# -- each pair product once per transport ----------------------------------------------

def _bits(w):
    """Coordinates with floats as their hex strings: equality is bitwise."""
    return tuple(c.hex() if isinstance(c, float) else c for c in w.coords)


def test_transport_forms_each_pair_product_once(monkeypatch):
    # the diagonal's linear terms keep more first-kind terms than pairs: the
    # off-diagonal partials alone leave one term per pair, the rest cancel
    curved = MetricField.from_strings(
        [["1+x1^2+x2", "x3", "x2"], ["x3", "1+x2^2+x3", "x1"], ["x2", "x1", "1+x3^2+x1"]]
    )
    x = (F(1, 2), F(1, 3), F(1, 5))
    zeta = truncated_algebra(3, 2).generators()
    for mode in (EXACT, FLOAT):
        chart = geodesic_chart(curved, x, mode)
        assert all(any(g != 0 for row in plane for g in row) for plane in chart.gamma)
        assert sum(len(terms) for terms in chart._lowered) > 6  # more symbols than pairs
        want = push_offsets_per_term(chart, zeta)
        if mode == EXACT:
            assert want == push_offsets_all_terms(chart, zeta)  # the second-kind route
        products = []
        mul = WeilElement.__mul__

        def counting_mul(self, other):
            if isinstance(other, WeilElement):
                products.append(other)
            return mul(self, other)

        monkeypatch.setattr(WeilElement, "__mul__", counting_mul)
        got = chart.push_offsets(zeta)
        monkeypatch.setattr(WeilElement, "__mul__", mul)
        assert len(products) <= 3 * 4 // 2
        assert [_bits(w) for w in got] == [_bits(w) for w in want]


@PROPERTY
@given(seeds)
def test_shared_pair_products_equal_the_per_term_products_bitwise(seed):
    rng = random.Random(seed)
    n = rng.choice((1, 2, 3))
    base = random_point(rng, n)
    metric = random_metric(rng, n, base)
    x = tuple(c + F(rng.randint(-2, 2), 5) for c in base)
    gens = truncated_algebra(n, 2).generators()
    zeta = [gens[i] * F(rng.randint(1, 4), 2) + gens[rng.randrange(n)] * gens[i] for i in range(n)]
    for mode, point in ((EXACT, x), (FLOAT, tuple(map(float, x)))):
        chart = geodesic_chart(metric, point, mode)
        pulled = [a + c for a, c in zip(zeta, half_gamma_per_term(chart, zeta))]
        if mode == EXACT:  # the second-kind route
            assert push_offsets_per_term(chart, zeta) == push_offsets_all_terms(chart, zeta)
            assert pulled == [a + c for a, c in zip(zeta, half_gamma_all_terms(chart, zeta))]
        for got, want in ((chart.push_offsets(zeta), push_offsets_per_term(chart, zeta)),
                          (chart.pull_offsets(zeta), pulled)):
            assert [_bits(w) for w in got] == [_bits(w) for w in want]


# -- G(x)^-1 by the nonzero entries of C, column by column ------------------------------

INDEFINITE = [
    [["0", "1"], ["1", "0"]],
    [["x2", "1+x1"], ["1+x1", "x2"]],
    [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
    [["x1", "1", "x3"], ["1", "0", "2"], ["x3", "2", "1+x2^2"]],
    [["0", "2", "1", "0"], ["2", "0", "0", "1"], ["1", "0", "0", "3"], ["0", "1", "3", "0"]],
]


def _assert_ginv_matches_the_rows(metric, x):
    chart = geodesic_chart(metric, x)
    assert chart.ginv == ginv_by_rows(*chart.frame) == invert(chart.G0)
    fchart = geodesic_chart(metric, tuple(map(float, x)), FLOAT)
    want = ginv_by_rows(*fchart.frame)
    assert [[v.hex() for v in row] for row in fchart.ginv] == [[v.hex() for v in row] for row in want]


@pytest.mark.parametrize("rows", INDEFINITE, ids=lambda rows: f"n{len(rows)}-" + rows[0][0])
def test_ginv_of_indefinite_metrics_equals_the_rows(rows):
    metric = MetricField.from_strings(rows)
    x = tuple(F(0) for _ in rows)
    c, _ = geodesic_chart(metric, x).frame
    assert any(c[i][k] for k in range(len(rows)) for i in range(len(rows)) if i != k)  # pivots off the diagonal
    _assert_ginv_matches_the_rows(metric, x)
    _assert_ginv_matches_the_rows(metric, tuple(F(k + 1, 7) for k in range(len(rows))))


@PROPERTY
@given(seeds)
def test_ginv_of_random_metrics_equals_the_rows(seed):
    rng = random.Random(seed)
    n = rng.choice((1, 2, 3, 4))
    base = random_point(rng, n)
    metric = random_metric(rng, n, base)
    x = tuple(c + F(rng.randint(-3, 3), 4) for c in base)
    try:
        geodesic_chart(metric, x)
    except GeometryError:  # singular away from the base
        return
    _assert_ginv_matches_the_rows(metric, x)


# -- generators built once, handed out in fresh lists -----------------------------------

@pytest.mark.parametrize("algebra", [truncated_algebra(1, 1), truncated_algebra(3, 2), laplace_algebra(4),
                                     _isotropy_algebra((F(1), F(2), F(-1, 3)))], ids=repr)
def test_generators_are_equal_elements_in_a_fresh_list(algebra):
    first = algebra.generators()
    first.append(None)
    first[0] = None
    again = algebra.generators()
    assert again is not first and again == generators_from_normal_forms(algebra)
    assert algebra.generators() is not again


def test_generators_missing_from_json_raise_on_every_call():
    q = quotient_algebra(2, 2, [Polynomial(2, {(1, 0): 1, (0, 1): -1})])
    back = algebra_from_json(algebra_to_json(q))
    for _ in range(3):
        with pytest.raises(ValueError, match="does not record the class of generator Z2"):
            back.generators()


# -- order checks over multisets of factors ---------------------------------------------

def _order_verdict(offsets, order, eps):
    try:
        _check_order(offsets, order, eps)
    except GeometryError as exc:
        assert str(exc) == f"point is not an order-{order} neighbor of the base"
        return False
    return True


@PROPERTY
@given(seeds)
def test_order_check_over_multisets_equals_every_sequence(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    algebra = rng.choice((truncated_algebra(n, rng.randint(1, 3)), laplace_algebra(n)))
    lowest = rng.randint(1, algebra.degree_bound)  # a higher lowest degree makes neighbors likelier
    support = [i for i, m in enumerate(algebra.basis) if sum(m) >= lowest] or [len(algebra.basis) - 1]
    order = rng.randint(1, 2)
    offsets = []
    for _ in range(n):
        coords = [F(0)] * algebra.dimension
        for i in rng.sample(support, rng.randint(0, len(support))):
            coords[i] = F(rng.randint(-3, 3), rng.randint(1, 3))
        offsets.append(algebra.element(coords))
    floats = [WeilElement(algebra, [float(c) * rng.choice((1.0, 1e-6)) for c in w.coords]) for w in offsets]
    for elems, eps in ((offsets, None), (floats, DEFAULT_EPS), (floats, 0.0)):
        assert _order_verdict(elems, order, eps) == check_order_all_sequences(elems, order, eps)


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
