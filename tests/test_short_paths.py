"""Short paths of Weil arithmetic against the coordinate-by-coordinate oracles.

Scalar operands, exact or float, touch one coordinate or only the nonzero
ones, sums of two elements skip zero coordinates, and ``_apply`` skips zero
matrix entries; every form must equal the dense computation in
``conftest``, hash like it and keep exact coordinates exact.  Tables skip
the products past the degree bound and must equal the all-pairs ones.  Where a float is involved, an untouched coordinate keeps its exact
type and a float zero may have either sign, so both sides are compared as
float mode returns them: every coordinate a float (``weil._in_mode``).
"""

import pickle
import random
from fractions import Fraction
from unittest import mock

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilgeom import _linalg, geometry, weil
from nilgeom.expr import Const, Var, format_expr, variables
from nilgeom.geometry import MetricField, _apply, geodesic_chart, make_point, point_offsets
from nilgeom.scalars import FLOAT
from nilgeom.weil import (
    Polynomial,
    _in_mode,
    all_monomials,
    laplace_algebra,
    quotient_algebra,
    tensor_algebra,
    truncated_algebra,
)
from conftest import (
    add_dense,
    add_scalar_dense,
    apply_dense,
    half_gamma_all_terms,
    half_gamma_dense_first_kind,
    mul_scalar_dense,
    neg_dense,
    nilpotent_part_dense,
    pivot_row_by_magnitude,
    presentation_all_pairs,
    random_metric,
    random_point,
    rsub_scalar_dense,
    sub_dense,
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
def elements(draw, algebra=None):
    """An exact, a float or a mixed element (float mode mixes the two), in
    ``algebra`` or one drawn from ``ALGEBRAS``."""
    algebra = algebra or draw(st.sampled_from(ALGEBRAS))
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


element_pairs = st.sampled_from(ALGEBRAS).flatmap(lambda a: st.tuples(elements(a), elements(a)))


@PROPERTY
@given(element_pairs)
def test_sums_of_elements_equal_the_dense_oracle(pair):
    """Sums, differences and negation skip zero coordinates; the dense
    oracle adds every pair.  Exact results are equal, coordinate types
    included.  Where a float is involved a skipped coordinate keeps its
    type and its sign: -0.0 + 0.0 stays -0.0 where the oracle gives 0.0, and
    0.0 + 1/2 stays 1/2.  So float results are compared as float mode returns
    them (``_in_mode``), where they are equal and only the sign of a zero may
    differ; ``format_scalar`` prints a zero of either sign as 0."""
    x, y = pair
    exact = not (_holds_float(x) or _holds_float(y))
    for got, want in ((x + y, add_dense(x, y)), (y + x, add_dense(y, x)), (x - y, sub_dense(x, y)),
                      (y - x, sub_dense(y, x)), (-x, neg_dense(x)), (-y, neg_dense(y))):
        _same(got, want)
        if exact:
            assert not _holds_float(got), (x, y, got)
            assert [type(c) for c in got.coords] == [type(c) for c in want.coords], (got.coords, want.coords)


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


def _same_presentation(got, want):
    assert (got.n, got.degree_bound, got.basis) == (want.n, want.degree_bound, want.basis)
    assert got._table == want._table and got._classes == want._classes


def test_tables_skip_only_the_products_past_the_bound():
    """``_presentation`` writes 0 for a pair whose degrees add up past the
    bound without multiplying it; every pair multiplied gives the same table."""
    rng = random.Random(26)
    for n, bound in [(n, k) for n in (1, 2, 3) for k in range(5)] + [(4, 2), (1, 9)]:
        want = presentation_all_pairs(n, bound, all_monomials(n, bound), {}, ())
        weil._truncated.cache_clear()  # built here, not read from the cache
        _same_presentation(truncated_algebra(n, bound), want)
        nonunit = all_monomials(n, bound)[1:]
        for _ in range(3):
            relations = [Polynomial(n, {m: F(rng.randint(-3, 3)) for m in rng.sample(nonunit, min(2, len(nonunit)))})
                         for _ in range(rng.randint(1, 3))]
            got = quotient_algebra(n, bound, relations)
            with mock.patch.object(weil, "_presentation", presentation_all_pairs):
                _same_presentation(got, quotient_algebra(n, bound, relations))


def test_mirrored_entries_that_are_distinct_objects_are_still_compared():
    refused = [[Const(F(1)), Const(F(2))], [Const(F(3)), Const(F(1))]]
    with pytest.raises(ValueError, match=r"^metric is not symmetric: entries \(1, 2\) and \(2, 1\) differ$"):
        MetricField(2, refused)
    # distinct objects of one value pass, as the one object the flat metric shares does
    assert MetricField(2, [[Const(F(1)), Const(F(2))], [Const(F(2)), Const(F(1))]]).entry(1, 0).value == 2
    flat = MetricField.standard_flat(3)
    assert flat.entry(0, 1) is flat.entry(1, 2) and flat.is_standard_flat()


def test_a_shared_metric_entry_is_walked_once_and_still_checked():
    counted = []

    def walk(e):
        counted.append(e)
        return variables(e)

    with mock.patch.object(geometry, "variables", walk):
        flat = MetricField.standard_flat(6)
        assert len(counted) == 2 and flat.is_standard_flat()  # one Const(1), one Const(0)
        x2 = Var(1)
        metric = MetricField(2, [[x2, x2], [x2, Const(F(1))]])
        assert [metric._variables[k] for k in ((0, 0), (0, 1), (1, 1))] == [{1}, {1}, set()]
    beyond = Var(2)
    with pytest.raises(ValueError, match=r"^metric entry uses x3 beyond dimension 2$"):
        MetricField(2, [[Const(F(1)), beyond], [beyond, Const(F(1))]])


column_entries = st.one_of(st.just(F(0)), fractions), st.one_of(st.sampled_from([0.0, -0.0]), floats)


@PROPERTY
@given(st.sampled_from(column_entries).flatmap(lambda entry: st.lists(entry, max_size=6)), st.integers(0, 6))
def test_the_pivot_search_equals_the_magnitude_scan(column, start):
    """An exact pivot is the first nonzero entry, found without forming
    |a|; a float one is the first of largest magnitude."""
    rows = [[a] for a in column]
    exact = not any(isinstance(a, float) for a in column)
    assert _linalg._pivot_row(rows, 0, start, exact) == pivot_row_by_magnitude(rows, 0, start, exact)
