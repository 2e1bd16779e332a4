"""Short paths of Weil arithmetic against the coordinate-by-coordinate oracles.

Scalar operands, exact or float, touch one coordinate or only the nonzero
ones, and ``_apply`` skips zero matrix entries; every form must equal the
dense computation in ``conftest``, hash like it and keep exact coordinates
exact.  Where a float is involved, an untouched coordinate keeps its exact
type and a float zero may have either sign, so both sides are compared as
float mode returns them: every coordinate a float (``weil._in_mode``).
"""

import pickle
import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilgeom import _linalg
from nilgeom.expr import Var, format_expr
from nilgeom.geometry import MetricField, _apply, geodesic_chart, make_point, point_offsets
from nilgeom.scalars import FLOAT
from nilgeom.weil import _in_mode, laplace_algebra, tensor_algebra, truncated_algebra
from conftest import (
    add_scalar_dense,
    apply_dense,
    half_gamma_all_terms,
    half_gamma_dense_first_kind,
    mul_scalar_dense,
    nilpotent_part_dense,
    random_metric,
    random_point,
    rsub_scalar_dense,
    sub_scalar_dense,
)

F = Fraction
PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
ALGEBRAS = (truncated_algebra(2, 2), laplace_algebra(3), truncated_algebra(1, 3))

fractions = st.one_of(
    st.sampled_from([F(0), F(1), F(-1)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
scalars = st.one_of(
    st.sampled_from([0, 1, -1, F(0), F(1), F(-1), 0.0, 1.0, -1.0, -0.0]),
    st.integers(-9, 9),
    fractions,
    floats,
)


@st.composite
def elements(draw):
    """An exact, a float or a mixed element (float mode mixes the two)."""
    algebra = draw(st.sampled_from(ALGEBRAS))
    kind = draw(st.sampled_from(("exact", "float", "mixed")))
    coord = {"exact": fractions, "float": floats, "mixed": st.one_of(fractions, floats)}[kind]
    # sparse as jets are: most coordinates zero
    coords = [draw(st.one_of(st.just(F(0)), coord)) for _ in range(algebra.dimension)]
    return algebra.element(coords)


UNIT_VALUES = (0, 1, -1, 3, F(1, 2), F(-3, 4))


def _forms(v):
    """The value v as a Fraction, a float and (when whole) an int, and as
    an exact and a float element with zero nilpotent part in each algebra."""
    out = [F(v), float(v)] + ([int(v)] if F(v).denominator == 1 else [])
    for algebra in ALGEBRAS:
        out += [algebra.scalar(F(v)), algebra.element([float(v)] + [0.0] * (algebra.dimension - 1))]
    return out


operands = st.one_of(elements(), scalars, st.sampled_from(UNIT_VALUES).map(_forms).flatmap(st.sampled_from))


@st.composite
def operand_pairs(draw):
    """Two scalars or elements; half the time two forms of one value."""
    if draw(st.booleans()):
        forms = _forms(draw(st.sampled_from(UNIT_VALUES)))
        return draw(st.sampled_from(forms)), draw(st.sampled_from(forms))
    return draw(operands), draw(operands)


@PROPERTY
@given(operand_pairs())
def test_equal_operands_hash_equal(pair):
    a, b = pair
    if a == b:
        assert hash(a) == hash(b), (a, b)
    assert len({a, b}) == (1 if a == b else 2)


def _is_exact(value):
    return not isinstance(value, float)


def _holds_float(w):
    return any(isinstance(c, float) for c in w.coords)


def _same(got, want):
    if _holds_float(got) or _holds_float(want):
        got, want = _in_mode(got, FLOAT), _in_mode(want, FLOAT)
    assert got == want
    assert hash(got) == hash(want)


@PROPERTY
@given(elements(), scalars)
def test_scalar_operations_equal_the_dense_oracle(w, s):
    forms = [
        (w + s, add_scalar_dense(w, s)),
        (s + w, add_scalar_dense(w, s)),
        (w - s, sub_scalar_dense(w, s)),
        (s - w, rsub_scalar_dense(s, w)),
        (w * s, mul_scalar_dense(w, s)),
        (s * w, mul_scalar_dense(w, s)),
    ]
    for got, want in forms:
        _same(got, want)
        if all(map(_is_exact, w.coords)) and _is_exact(s):
            assert all(map(_is_exact, got.coords)), (w, s, got)
    _same(w.nilpotent_part(), nilpotent_part_dense(w))


@PROPERTY
@given(elements())
def test_neutral_exact_scalars_return_the_element_itself(w):
    for same in (w + 0, 0 + w, w + F(0), w - 0, w * 1, 1 * w, w * F(1), w + 0.0, w * 1.0):
        assert same is w


@PROPERTY
@given(elements())
def test_nilpotent_part_keeps_exact_coordinates_exact(w):
    u = w.nilpotent_part()
    assert u.is_nilpotent()
    if all(map(_is_exact, w.coords)):
        assert u.coords[0] == 0 and isinstance(u.coords[0], Fraction)


def _same_vectors(got, want, exact=True):
    """``_same`` componentwise; unless ``exact`` is false (a float matrix),
    the coordinate types agree wherever neither side holds a float."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        _same(a, b)
        if exact and not (_holds_float(a) or _holds_float(b)):
            assert [type(c) for c in a.coords] == [type(c) for c in b.coords], (a.coords, b.coords)


def _sparse_matrix(rng, rows, cols, entry):
    return [[rng.choice((0, 0, 0, 1, 1, entry(rng))) for _ in range(cols)] for _ in range(rows)]


def test_apply_equals_the_dense_sum():
    rng = random.Random(8)
    exact = lambda r: Fraction(r.randint(-4, 4), r.randint(1, 3))
    for trial in range(60):
        n = rng.randint(1, 4)
        algebra = ALGEBRAS[trial % len(ALGEBRAS)]
        exact_v = [algebra.element([Fraction(rng.randint(-2, 2)) for _ in range(algebra.dimension)]) for _ in range(n)]
        float_v = [algebra.element([rng.choice((rng.uniform(-2, 2), 0.0, -0.0)) for _ in range(algebra.dimension)])
                   for _ in range(n)]
        # float mode mixes them: exact offsets beside float ones
        vectors = [exact_v, float_v, exact_v[:-1] + float_v[-1:]]
        for m in (
            _sparse_matrix(rng, n, n, exact),
            [[float(x) for x in row] for row in _sparse_matrix(rng, n, n, exact)],
            [[0] * n for _ in range(n)],
        ):
            for v in vectors:
                got, want = _apply(m, v), apply_dense(m, v)
                exact_m = all(_is_exact(x) for row in m for x in row)
                _same_vectors(got, want, exact_m)
                if exact_m and all(_is_exact(c) for w in v for c in w.coords):
                    assert all(_is_exact(c) for w in got for c in w.coords)
            exprs = [Var(i) for i in range(n)]
            assert [format_expr(e) for e in _apply(m, exprs)] == [format_expr(e) for e in apply_dense(m, exprs)]


def _push_dense(chart, zeta, half_gamma):
    az = apply_dense(_linalg.identity(chart.n), zeta)
    return tuple(a - c for a, c in zip(az, half_gamma(chart, az)))


def _pull_dense(chart, w, half_gamma):
    return apply_dense(_linalg.identity(chart.n), [a + c for a, c in zip(w, half_gamma(chart, w))])


def test_chart_transport_equals_the_dense_route():
    """Transport through the sparse matrix product and the nonzero
    first-kind terms equals the dense first-kind sums times the dense
    G(x)^-1, in both modes, and in exact mode the correction read off the
    full second-kind Christoffel array."""
    rng = random.Random(21)
    for n in (1, 2, 3):
        algebra = truncated_algebra(n, 2)
        gens = algebra.generators()
        zeta = [gens[i] * F(i + 1, 2) + gens[(i + 1) % n] * gens[i] for i in range(n)]
        x = random_point(rng, n)
        shifted = [[f"{i + 2}" if i == j else "1/5" for j in range(n)] for i in range(n)]
        # only the last plane of Gamma is nonzero, since x_n != 0 there
        last = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        last[-1][-1] = f"1+x{n}^2"
        cases = [
            (MetricField.standard_flat(n), x),
            (random_metric(rng, n, x), x),
            (MetricField.from_strings(shifted), x),
            (MetricField.from_strings(last), (F(1, 2),) * (n - 1) + (F(2, 3),)),
        ]
        for metric, x in cases:
            charts = [geodesic_chart(metric, x), geodesic_chart(metric, tuple(map(float, x)), mode="float")]
            for chart in charts:
                exact = chart.mode == "exact"
                eps = None if exact else chart.eps
                w = chart.push_offsets(zeta)
                # exact offsets, alone and beside a float one, as a caller may pass them;
                # a float chart returns float coordinates.  The second-kind route groups
                # the sums otherwise, so it is compared where every value is exact
                mixed = tuple(zeta[:-1]) + (zeta[-1] * 0.5,)
                routes = [(half_gamma_dense_first_kind, (w, zeta, mixed))]
                if exact:
                    routes.append((half_gamma_all_terms, (w, zeta)))
                for half_gamma, pulled in routes:
                    _same_vectors(chart.push_offsets(zeta), _push_dense(chart, zeta, half_gamma), exact)
                    _same_vectors(chart.pull_offsets(w), _pull_dense(chart, w, half_gamma), exact)
                    for offsets in pulled:
                        point = make_point(chart.base, offsets)
                        got = chart.to_chart(point)
                        _same_vectors(got, _pull_dense(chart, point_offsets(point, chart.base, eps), half_gamma), exact)
                        assert exact or all(isinstance(c, float) for v in got for c in v.coords)


def test_laplace_relations_survive_pickling():
    a = laplace_algebra(3)
    b = pickle.loads(pickle.dumps(a))
    assert b == a and b.relations == a.relations
    # and tensoring, which reads the relations, still works on the copy
    assert tensor_algebra(b, truncated_algebra(1, 1))[0].dimension == 2 * a.dimension


def test_exact_scalar_arithmetic_on_generators_stays_sparse():
    z = laplace_algebra(4).generators()
    w = (z[1] + 3) * F(2, 5) - 1
    assert w.coords == (F(1, 5), 0, F(2, 5), 0, 0, 0)
    assert all(isinstance(c, Fraction) for c in w.coords)
