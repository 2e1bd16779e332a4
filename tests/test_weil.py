"""Weil algebra construction, ring laws, relation checks, serialization."""

import itertools
import json
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilgeom import weil
from nilgeom.expr import expr_to_polynomial, jet_eval, parse_expr
from nilgeom.geometry import MetricField, gbar_eval
from nilgeom.scalars import format_scalar
from nilgeom.weil import (
    MAX_DIMENSION,
    Polynomial,
    WeilAlgebra,
    _check_dimension,
    _reduce_rows,
    _isotropy_algebra,
    algebra_from_json,
    algebra_isomorphism,
    algebra_to_json,
    all_monomials,
    laplace_algebra,
    mono_key,
    quotient_algebra,
    satisfies_laplace_relations,
    tensor_algebra,
    truncated_algebra,
)
from nilgeom.coalgebra import Distribution, dual_algebra, subcoalgebra_generated
from conftest import (
    all_monomials_by_sorting,
    check_table_by_square,
    is_weil_document_by_brute_force,
    product_by_fraction_loop,
    quotient_algebra_by_expansion,
    random_point,
    reduce_rows_by_mono_key,
    random_polynomial,
    tensor_algebra_by_quotient,
)


def dl_relations(n):
    sq = lambda i: tuple(2 if j == i else 0 for j in range(n))
    cross = lambda i, k: tuple(1 if j in (i, k) else 0 for j in range(n))
    rels = [Polynomial(n, {sq(0): 1, sq(i): -1}) for i in range(1, n)]
    rels += [Polynomial(n, {cross(i, k): 1}) for i in range(n) for k in range(i + 1, n)]
    return rels


# -- dimensions ---------------------------------------------------------------

def test_truncated_dimensions():
    assert truncated_algebra(1, 2).dimension == 3
    assert truncated_algebra(2, 1).dimension == 3
    assert truncated_algebra(3, 2).dimension == 10
    for n, k in [(1, 0), (2, 3), (4, 2)]:
        assert truncated_algebra(n, k).dimension == math.comb(n + k, k)


def test_truncated_basis_order():
    a = truncated_algebra(2, 2)
    assert a.basis == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@pytest.mark.parametrize("n", range(1, 7))
def test_laplace_dimension(n):
    assert laplace_algebra(n).dimension == n + 2


def test_laplace_n1_is_order2_truncation():
    assert laplace_algebra(1) == truncated_algebra(1, 2)


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        truncated_algebra(0, 2)
    with pytest.raises(ValueError):
        truncated_algebra(2, -1)
    with pytest.raises(ValueError):
        laplace_algebra(0)


def test_dimension_cap_at_the_boundary():
    _check_dimension(1, MAX_DIMENSION - 1)  # C(MAX, MAX - 1) = MAX monomials
    _check_dimension(MAX_DIMENSION - 1, 1)
    for n, k in ((1, MAX_DIMENSION), (MAX_DIMENSION, 1), (12, 6), (10**9, 10**9)):
        with pytest.raises(ValueError, match="MAX_DIMENSION"):
            _check_dimension(n, k)


def test_monomials_are_enumerated_in_basis_order():
    at_the_cap = [(MAX_DIMENSION - 2, 1), (1, MAX_DIMENSION - 2)]
    for n, max_degree in [(n, k) for n in range(1, 7) for k in range(7)] + at_the_cap:
        assert all_monomials(n, max_degree) == all_monomials_by_sorting(n, max_degree)


def test_degree_zero_refuses_as_many_generators_as_degree_one():
    # C(n, 0) = 1 for every n; the generators themselves are capped where degree 1 is
    assert truncated_algebra(MAX_DIMENSION - 1, 0).dimension == 1
    assert quotient_algebra(MAX_DIMENSION - 1, 0, []).basis == ((0,) * (MAX_DIMENSION - 1),)
    message = f"{MAX_DIMENSION} generators are more than MAX_DIMENSION - 1 = {MAX_DIMENSION - 1}"
    for call in (lambda: truncated_algebra(MAX_DIMENSION, 0), lambda: quotient_algebra(MAX_DIMENSION, 0, []),
                 lambda: subcoalgebra_generated(Distribution(MAX_DIMENSION, {(0,) * MAX_DIMENSION: 1}))):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_constructors_refuse_oversized_algebras():
    with pytest.raises(ValueError, match="MAX_DIMENSION"):
        truncated_algebra(12, 6)
    with pytest.raises(ValueError, match="MAX_DIMENSION"):
        quotient_algebra(30, 6, [])
    with pytest.raises(ValueError, match="MAX_DIMENSION"):
        laplace_algebra(MAX_DIMENSION - 1)


# -- the hand-written table against the generic quotient ----------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_quotient_reproduces_laplace_table(n):
    generic = quotient_algebra(n, 2, dl_relations(n))
    hand = laplace_algebra(n)
    assert generic.basis == hand.basis
    assert generic == hand


@pytest.mark.parametrize("n", range(1, 7))
def test_direct_isotropy_tables_match_the_quotient(n):
    """laplace_algebra and the weighted _isotropy_algebra write their tables
    directly; the generic quotient by their relations gives the same basis,
    table and JSON, and the plain relations are those of dl_relations."""
    weights = [Fraction(1)] + [Fraction(k + 2, 3) for k in range(n - 1)]
    for hand in (laplace_algebra(n), _isotropy_algebra(weights)):
        generic = quotient_algebra(n, 2, hand.relations)
        assert generic.basis == hand.basis
        assert generic._table == hand._table
        assert json.dumps(algebra_to_json(generic)) == json.dumps(algebra_to_json(hand))
    assert laplace_algebra(n).relations == tuple(dl_relations(n))


def test_lazy_relations_are_built_on_each_read_and_not_kept():
    # a cached laplace_algebra(n) must not come to hold its n^2 polynomials
    a = laplace_algebra(3)
    first, second = a.relations, a.relations
    assert first == second == tuple(dl_relations(3))
    assert first is not second
    assert callable(a._relations)


def test_tables_are_checked_only_when_deserialized(monkeypatch):
    checked = []
    monkeypatch.setattr(WeilAlgebra, "_check_table", lambda self: checked.append("_check_table"))
    a = quotient_algebra(2, 3, [Polynomial(2, {(2, 0): 1, (0, 2): -1})])
    tensor_algebra(a, _isotropy_algebra([Fraction(1), Fraction(2)]))
    truncated_algebra(3, 4)
    assert checked == []
    algebra_from_json(algebra_to_json(a))
    assert checked == ["_check_table"]


def test_laplace_algebra_at_the_cap_builds_in_seconds():
    start = time.perf_counter()
    a = laplace_algebra(MAX_DIMENSION - 2)
    assert time.perf_counter() - start < 5
    assert a.dimension == MAX_DIMENSION
    z = a.generators()
    assert z[0] * z[0] == z[-1] * z[-1] != a.zero()
    assert (z[0] * z[-1]).is_zero()


def test_quotient_with_no_relations_is_truncation():
    assert quotient_algebra(1, 2, []) == truncated_algebra(1, 2)


def test_quotient_killing_a_generator():
    q = quotient_algebra(2, 2, [Polynomial.variable(2, 0)])
    assert q.dimension == 3
    assert q.basis == ((0, 0), (0, 1), (0, 2))
    z1, z2 = q.generators()
    assert z1.is_zero()
    assert not (z2 * z2).is_zero()


def test_quotient_rejects_constant_terms():
    with pytest.raises(ValueError):
        quotient_algebra(1, 2, [Polynomial(1, {(0,): 1, (1,): 1})])


def test_idempotent_relation_collapses_to_scalars():
    # Z^2 = Z cascades against the truncation (Z^3 = Z^2 = Z = 0), so the
    # quotient degenerates to the base field instead of growing a unipotent
    q = quotient_algebra(1, 3, [Polynomial(1, {(2,): 1, (1,): -1})])
    assert q.dimension == 1
    assert q.generators()[0].is_zero()


# -- the quotient's closure against the expansion by every monomial -------------

def _assert_quotient_matches_expansion(n, bound, relations):
    closed = quotient_algebra(n, bound, relations)
    expanded = quotient_algebra_by_expansion(n, bound, relations)
    assert algebra_to_json(closed) == algebra_to_json(expanded)
    assert [g.coords for g in closed.generators()] == [g.coords for g in expanded.generators()]


@st.composite
def quotient_inputs(draw):
    """n = 1..3, a bound 0..5 and 0..4 relations with zero constant term; a
    relation may be zero or hold terms up to two degrees past the bound."""
    n = draw(st.integers(1, 3))
    bound = draw(st.integers(0, 5))
    monos = all_monomials(n, bound + 2)[1:]
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    terms = st.dictionaries(st.sampled_from(monos), coeffs, max_size=4)
    return n, bound, draw(st.lists(terms.map(lambda t: Polynomial(n, t)), max_size=4))


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(quotient_inputs())
def test_quotient_closure_matches_the_expansion(inputs):
    _assert_quotient_matches_expansion(*inputs)


def _forty_relations():
    """40 seeded relations in two variables, each of three terms of degree
    4 to 32, so some terms lie past a bound of 30."""
    rng = random.Random(2)
    monos = [m for m in all_monomials(2, 32) if sum(m) >= 4]
    return [Polynomial(2, {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in rng.sample(monos, 3)}) for _ in range(40)]


@pytest.mark.parametrize("n, bound, relations", [
    (2, 30, _forty_relations()),
    (2, 30, [Polynomial(2, {(2, 0): 1, (0, 2): -1}), Polynomial(2, {(1, 1): 1})]),
], ids=["forty-relations", "laplace-relations-to-degree-30"])
def test_quotient_closure_matches_the_expansion_on_named_cases(n, bound, relations):
    _assert_quotient_matches_expansion(n, bound, relations)


# -- laplace relations in the table --------------------------------------------

def test_laplace_products():
    a = laplace_algebra(3)
    z = a.generators()
    q = a.basis_element(a.dimension - 1)
    assert (z[0] * z[1]).is_zero()
    assert z[1] * z[1] == q
    assert (z[0] * q).is_zero()
    assert (q * q).is_zero()


def test_laplace_sum_square():
    a = laplace_algebra(2)
    z1, z2 = a.generators()
    q = a.basis_element(3)
    assert (z1 + z2) ** 2 == q * 2


def test_triple_products_vanish():
    for n in (2, 3, 4):
        a = laplace_algebra(n)
        degree_one_up = [a.basis_element(i) for i in range(1, a.dimension)]
        for x, y, z in itertools.product(degree_one_up, repeat=3):
            assert (x * y * z).is_zero()


def test_unique_coordinates():
    a = laplace_algebra(3)
    coords = (Fraction(7), Fraction(1), Fraction(-2), Fraction(3), Fraction(5))
    elem = a.scalar(7)
    for i, c in enumerate(coords[1:], start=1):
        elem = elem + a.basis_element(i) * c
    assert elem.coords == coords


# -- ring laws ------------------------------------------------------------------

SMALL_ALGEBRAS = [
    truncated_algebra(1, 2),
    truncated_algebra(2, 2),
    laplace_algebra(3),
    quotient_algebra(2, 2, dl_relations(2)),
]


@pytest.mark.parametrize("algebra", SMALL_ALGEBRAS)
def test_ring_laws_exhaustive(algebra):
    assert algebra.dimension <= 20
    elems = [algebra.basis_element(i) for i in range(algebra.dimension)]
    one = algebra.one()
    for x in elems:
        assert x * one == x
    for x, y, z in itertools.product(elems, repeat=3):
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_ring_laws_randomized_large():
    algebra = truncated_algebra(4, 3)  # dimension 35
    rng = random.Random(7)

    def rand_elem():
        return algebra.element([Fraction(rng.randint(-3, 3)) for _ in range(algebra.dimension)])

    for _ in range(25):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * algebra.one() == x


def test_element_ops_examples():
    a = truncated_algebra(1, 2)
    z = a.generators()[0]
    assert (z + z * z) * z == z * z  # cube truncates
    rng = random.Random(1)
    x = a.element([Fraction(rng.randint(-5, 5)) for _ in range(3)])
    assert x * a.one() == x
    assert x - x == a.zero()
    assert (-x) + x == a.zero()


def test_mixed_algebra_operands_rejected():
    a = truncated_algebra(2, 2)
    b = laplace_algebra(2)
    with pytest.raises(ValueError):
        a.generators()[0] + b.generators()[0]
    with pytest.raises(ValueError):
        a.generators()[0] * b.generators()[1]


# -- relation predicate -----------------------------------------------------------

def test_generic_point_satisfies_relations():
    for n in (1, 2, 3, 4):
        assert satisfies_laplace_relations(laplace_algebra(n).generators())


def test_unconstrained_second_order_pair_fails():
    z = truncated_algebra(2, 2).generators()
    assert not satisfies_laplace_relations(z)


def test_first_order_multiples_are_laplace_points():
    # components d*u_i for one square-zero d: all products vanish
    d = truncated_algebra(1, 1).generators()[0]
    z = (d * 2, d * 3, d * -1)
    assert satisfies_laplace_relations(z)


def test_cube_condition_in_dimension_one():
    a = truncated_algebra(1, 3)
    z = a.generators()[0]
    assert not satisfies_laplace_relations([z])  # z^3 survives at order 3
    assert satisfies_laplace_relations([laplace_algebra(1).generators()[0]])


def test_relation_predicate_rejects_non_nilpotent():
    a = laplace_algebra(2)
    with pytest.raises(ValueError):
        satisfies_laplace_relations([a.one(), a.generators()[0]])


# -- tensor products ----------------------------------------------------------------

def test_tensor_dimensions_and_bound():
    a = truncated_algebra(1, 1)
    b = truncated_algebra(1, 2)
    c, ea, eb = tensor_algebra(a, b)
    assert c.dimension == a.dimension * b.dimension
    assert c.degree_bound == a.degree_bound + b.degree_bound
    d = ea(a.generators()[0])
    delta = eb(b.generators()[0])
    assert (d * d).is_zero()
    assert (delta ** 3).is_zero()
    assert not (d * delta * delta).is_zero()


def test_tensor_embeddings_are_ring_maps():
    rng = random.Random(3)
    a = laplace_algebra(2)
    b = truncated_algebra(1, 1)
    c, ea, eb = tensor_algebra(a, b)
    for _ in range(10):
        x = a.element([Fraction(rng.randint(-2, 2)) for _ in range(a.dimension)])
        y = a.element([Fraction(rng.randint(-2, 2)) for _ in range(a.dimension)])
        assert ea(x * y) == ea(x) * ea(y)
        assert ea(x + y) == ea(x) + ea(y)
    assert ea(a.one()) == c.one() == eb(b.one())


X1 = Polynomial.variable(2, 0)
X2 = Polynomial.variable(2, 1)
DL2_BY_QUOTIENT = quotient_algebra(2, 3, [X1 * X1 - X2 * X2, X1 * X2])
# the pairs the library and the benchmark tensor, and quotients whose
# generator is a normal form (x2 = x1) or killed by the degree bound
TENSOR_PAIRS = [
    (truncated_algebra(1, 1), truncated_algebra(1, 2)),
    (truncated_algebra(1, 1), truncated_algebra(1, 1)),
    (truncated_algebra(2, 1), truncated_algebra(2, 1)),
    (truncated_algebra(3, 1), truncated_algebra(3, 1)),
    (truncated_algebra(2, 1), truncated_algebra(2, 2)),
    (truncated_algebra(3, 2), truncated_algebra(3, 1)),
    (truncated_algebra(2, 3), truncated_algebra(1, 1)),
    (truncated_algebra(3, 3), truncated_algebra(1, 1)),
    (laplace_algebra(2), truncated_algebra(1, 1)),
    (laplace_algebra(3), truncated_algebra(1, 1)),
    (DL2_BY_QUOTIENT, truncated_algebra(1, 1)),
    (truncated_algebra(1, 2), quotient_algebra(2, 2, [X1 - X2])),
    (truncated_algebra(2, 0), truncated_algebra(1, 1)),
]


def _printed(w):
    return [(type(c), format_scalar(c)) for c in w.coords]


@pytest.mark.parametrize("a, b", TENSOR_PAIRS)
def test_tensor_of_tables_equals_the_quotient_route(a, b):
    c, ea, eb = tensor_algebra(a, b)
    oc, oa, ob = tensor_algebra_by_quotient(a, b)
    assert json.dumps(algebra_to_json(c)) == json.dumps(algebra_to_json(oc))
    assert [_printed(g) for g in c.generators()] == [_printed(g) for g in oc.generators()]
    rng = random.Random(12)
    for factor, embed, oracle in ((a, ea, oa), (b, eb, ob)):
        for _ in range(5):
            coords = [rng.choice((Fraction(0), Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.uniform(-2, 2)))
                      for _ in range(factor.dimension)]
            x = factor.element(coords)
            assert _printed(embed(x)) == _printed(oracle(x))


def test_nested_tensor_products_equal_the_quotient_route():
    a, b, line = truncated_algebra(1, 1), truncated_algebra(1, 2), truncated_algebra(1, 1)
    c = tensor_algebra(tensor_algebra(a, b)[0], line)[0]
    oc = tensor_algebra_by_quotient(tensor_algebra_by_quotient(a, b)[0], line)[0]
    assert json.dumps(algebra_to_json(c)) == json.dumps(algebra_to_json(oc))


@pytest.mark.parametrize("algebra", [laplace_algebra(2), DL2_BY_QUOTIENT])
def test_tensor_of_deserialized_factors(algebra):
    # JSON keeps no relations; the product is read off the tables
    back = algebra_from_json(json.loads(json.dumps(algebra_to_json(algebra))))
    line = truncated_algebra(1, 1)
    c, embed, embed_line = tensor_algebra(back, line)
    oc, oracle, oracle_line = tensor_algebra_by_quotient(algebra, line)
    assert json.dumps(algebra_to_json(c)) == json.dumps(algebra_to_json(oc))
    assert [g.coords for g in c.generators()] == [g.coords for g in oc.generators()]
    for x, y in zip(back.generators(), algebra.generators()):
        assert embed(x) * embed_line(line.generators()[0]) == oracle(y) * oracle_line(line.generators()[0])
    if algebra.degree_bound >= 3:  # gbar_eval needs an ambient algebra of order >= 3
        polar = MetricField.from_strings([["1", "0"], ["0", "x1^2"]])
        base = (Fraction(1), Fraction(0))
        assert gbar_eval(polar, base, back.generators()) == gbar_eval(polar, base, algebra.generators())


def test_gbar_eval_on_a_deserialized_ambient_without_generator_classes():
    # JSON keeps no normal forms, so the loaded algebra cannot name the class of Z2 (= Z1 here);
    # gbar_eval needs only its basis and table
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    algebra = quotient_algebra(2, 3, [x1 - x2])
    back = algebra_from_json(json.loads(json.dumps(algebra_to_json(algebra))))
    flat = MetricField.standard_flat(2)
    b1 = back.basis_element(1)
    assert repr(gbar_eval(flat, (0, 0), (b1, b1))) == "2*Z1^2"
    polar = MetricField.from_strings([["1", "0"], ["0", "x1^2"]])
    for metric, base in ((flat, (0, 0)), (polar, (Fraction(1), Fraction(1, 2)))):
        for z, y in (((1, 2), None), ((1, 3), (2, 1)), ((3, 1), (1, 1))):
            got = gbar_eval(metric, base, [back.basis_element(i) for i in z],
                            y and [back.basis_element(i) for i in y])
            want = gbar_eval(metric, base, [algebra.basis_element(i) for i in z],
                             y and [algebra.basis_element(i) for i in y])
            assert got == want


def test_tensor_refuses_more_than_max_dimension():
    with pytest.raises(ValueError, match="MAX_DIMENSION"):
        tensor_algebra(truncated_algebra(1, 24), truncated_algebra(1, 20))


# -- serialization ---------------------------------------------------------------------

@pytest.mark.parametrize("algebra", [
    laplace_algebra(2), truncated_algebra(2, 2), laplace_algebra(4),
    # one of each library kind: truncated, Laplace, weighted, quotient, tensor, dual
    truncated_algebra(2, 3),
    laplace_algebra(3),
    _isotropy_algebra((Fraction(1), Fraction(-3), Fraction(5, 2))),
    quotient_algebra(2, 3, [X1 * X1 * 2 - X1 * X2 * 3, X2 * X2 * X2]),
    tensor_algebra(laplace_algebra(2), truncated_algebra(1, 2))[0],
    dual_algebra(subcoalgebra_generated(Distribution(2, {(2, 1): 1, (0, 2): 3}))),
])
def test_json_round_trip(algebra):
    doc = json.loads(json.dumps(algebra_to_json(algebra)))
    back = algebra_from_json(doc)
    assert back == algebra
    x = back.generators()
    y = algebra.generators()
    assert [e.coords for e in x] == [e.coords for e in y]


def test_json_round_trip_without_generator_classes():
    # basis 1, Z1, Z1^2: the class of Z2 is a normal form, which JSON drops
    q = quotient_algebra(2, 2, [Polynomial(2, {(1, 0): 1, (0, 1): -1})])
    back = algebra_from_json(json.loads(json.dumps(algebra_to_json(q))))
    assert back == q
    with pytest.raises(ValueError, match="does not record the class of generator Z2"):
        back.generators()
    # a tensor factor without the class of Z2 gives a product without it
    product, _, _ = tensor_algebra(back, truncated_algebra(1, 1))
    assert product == tensor_algebra(q, truncated_algebra(1, 1))[0]
    with pytest.raises(ValueError, match="does not record the class of generator Z2"):
        product.generators()


def test_json_refuses_a_basis_or_table_of_the_wrong_size_before_reading_entries(monkeypatch):
    # a hand-written k[a]/(a^600): 600 monomials, one more than MAX_DIMENSION allows
    dim = MAX_DIMENSION + 100
    entries = [[["1", k]] for k in range(dim)]
    table = [[entries[i + j] if i + j < dim else [] for j in range(dim)] for i in range(dim)]
    doc = {"n": 1, "degree_bound": dim - 1, "basis": [[k] for k in range(dim)], "table": table}
    read = []
    monkeypatch.setattr(weil, "_entry", lambda terms: read.append(terms))
    with pytest.raises(ValueError, match=f"^serialized basis has {dim} monomials > MAX_DIMENSION = {MAX_DIMENSION}$"):
        algebra_from_json(doc)
    short = {"n": 1, "degree_bound": 2, "basis": [[0], [1], [2]], "table": [[[["1", 0]]] * 3] * 2}
    long = {**short, "table": [[[["1", 0]]] * 3] * 3 + [[]]}
    ragged = {**short, "table": [[[["1", 0]]] * 3, [[["1", 0]]] * 3, [[["1", 0]]] * 2]}
    for bad in (short, long, ragged):
        with pytest.raises(ValueError, match="^multiplication table has wrong shape$"):
            algebra_from_json(bad)
    assert read == []


def test_json_schema_shape():
    doc = algebra_to_json(laplace_algebra(2))
    assert set(doc) == {"n", "degree_bound", "basis", "table"}
    assert doc["basis"][0] == [0, 0]
    # rational structure constants serialize as strings
    flat = [pair for row in doc["table"] for entry in row for pair in entry]
    assert all(isinstance(c, str) and isinstance(k, int) for c, k in flat)


def _doc_with_entry(i, j, entry):
    doc = json.loads(json.dumps(algebra_to_json(truncated_algebra(1, 1))))
    doc["table"][i][j] = entry
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _doc_with_entry(1, 1, [["1", 7]]),  # basis index 7 in a 2-dimensional algebra
        _doc_with_entry(1, 1, [["1", 1]]),  # Z*Z = Z: not nilpotent
        _doc_with_entry(0, 1, [["2", 1]]),  # unit row does not fix Z
        _doc_with_entry(1, 0, [["1", 1], ["1", 0]]),  # not symmetric
        {**algebra_to_json(truncated_algebra(1, 1)), "table": [[[["1", 0]], [["1", 1]]]]},  # 1 x 2 table
    ],
)
def test_json_rejects_malformed_tables(doc):
    with pytest.raises(ValueError):
        algebra_from_json(doc)


def test_json_rejects_a_non_associative_table():
    # basis 1, a, b, c with a*a = b, a*b = c, b*b = c, a*c = 0: (a*a)*b = c but a*(a*b) = 0
    one = lambda k: [["1", k]]
    table = [
        [one(0), one(1), one(2), one(3)],
        [one(1), one(2), one(3), []],
        [one(2), one(3), one(3), []],
        [one(3), [], [], []],
    ]
    doc = {"n": 1, "degree_bound": 3, "basis": [[0], [1], [2], [3]], "table": table}
    with pytest.raises(ValueError, match=r"^multiplication table is not associative on basis triple \(1, 1, 2\)$"):
        algebra_from_json(doc)
    # basis 1, a, b, d, c with a*a = 0, b*b = d, b*d = d*d = c, labelled
    # 1, Z1, Z2, Z2^2, Z2^3: a and b are the generators the labels name, so
    # Light's test runs on both, and (b*b)*d = c while b*(b*d) = 0
    other = [
        [one(0), one(1), one(2), one(3), one(4)],
        [one(1), [], [], [], []],
        [one(2), [], one(3), one(4), []],
        [one(3), [], one(4), one(4), []],
        [one(4), [], [], [], []],
    ]
    with pytest.raises(ValueError, match=r"not associative on basis triple \(2, 2, 3\)$"):
        algebra_from_json({"n": 2, "degree_bound": 4, "basis": [[0, 0], [1, 0], [0, 1], [0, 2], [0, 3]],
                           "table": other})
    # the first basis with b*b = 0 is the truncated algebra k[a]/(a^4)
    table[2][2] = []
    assert algebra_from_json(doc) == truncated_algebra(1, 3)


def test_a_bound_below_the_table_is_refused():
    # 1/(1 + x1) at 0 + Z1 gave 1 - Z1 under the stated bound 1; the truth is 1 - Z1 + Z1^2
    doc = {**algebra_to_json(truncated_algebra(1, 2)), "degree_bound": 1}
    with pytest.raises(ValueError, match="^a product of 2 nonunit basis elements is not 0: degree bound 1 is too small$"):
        algebra_from_json(doc)
    for algebra in (truncated_algebra(1, 4), truncated_algebra(2, 3), truncated_algebra(3, 2), laplace_algebra(3)):
        doc = algebra_to_json(algebra)
        with pytest.raises(ValueError, match="degree bound .* is too small$"):
            algebra_from_json({**doc, "degree_bound": algebra.degree_bound - 1})
        # a larger bound claims nothing false
        assert algebra_from_json({**doc, "degree_bound": algebra.degree_bound + 3}).basis == algebra.basis
    # Z^2 is idempotent in k[Z]/(Z^3 - Z^2): no bound is honest, however large
    one = lambda k: [["1", k]]
    table = [[one(0), one(1), one(2)], [one(1), one(2), one(2)], [one(2), one(2), one(2)]]
    with pytest.raises(ValueError, match="^the nonunit basis elements are not nilpotent; not a Weil algebra$"):
        algebra_from_json({"n": 1, "degree_bound": 10**9, "basis": [[0], [1], [2]], "table": table})


def test_a_negative_bound_is_refused_before_the_table_is_read():
    # a one-element basis has no product to contradict it; the constructors refuse it all the same
    doc = {"n": 1, "degree_bound": -5, "basis": [[0]], "table": [[[["1", 0]]]]}
    for bad in (doc, {**doc, "basis": "not read", "table": "not read"}, {**doc, "degree_bound": -1}):
        with pytest.raises(ValueError, match="^degree bound must be >= 0$"):
            algebra_from_json(bad)
    assert algebra_from_json({**doc, "degree_bound": 0}) == truncated_algebra(1, 0)


def test_a_relabelled_document_at_the_cap_is_refused_in_seconds():
    # the labels of Z and Z^2 swapped: b_1, labelled Z^2, is not b_2 b_2 = Z^4
    algebra = truncated_algebra(1, MAX_DIMENSION - 2)
    doc = json.loads(json.dumps(algebra_to_json(algebra)))
    doc["basis"][1], doc["basis"][2] = doc["basis"][2], doc["basis"][1]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^basis label \[2\] is not the product it names$"):
        algebra_from_json(doc)
    assert time.perf_counter() - start < 5


def test_labels_must_name_their_products():
    # Z1 and Z1^2 swapped in k[Z]/(Z^4): the generator read off the labels was Z^2, and the jet of x1^2 there 0
    doc = json.loads(json.dumps(algebra_to_json(truncated_algebra(1, 3))))
    doc["basis"][1], doc["basis"][2] = [2], [1]
    with pytest.raises(ValueError, match=r"^basis label \[2\] is not the product it names$"):
        algebra_from_json(doc)
    # k[Z]/(Z^2) with Z labelled Z^2: no label names the generator of that product
    square = {**algebra_to_json(truncated_algebra(1, 1)), "basis": [[0], [2]]}
    with pytest.raises(ValueError, match=r"^basis label \[2\] is not the product it names$"):
        algebra_from_json(square)
    negative = {**algebra_to_json(truncated_algebra(2, 1)), "basis": [[0, 0], [2, -1], [0, 1]]}
    with pytest.raises(ValueError, match=r"^basis label \[2, -1\] has a negative exponent$"):
        algebra_from_json(negative)
    # the labels are checked before the table's own tests: this bound is too small too, but the labels are read first
    with pytest.raises(ValueError, match=r"^basis label \[2\] is not the product it names$"):
        algebra_from_json({**doc, "degree_bound": 2})


def _with(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` (keys and indices) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("path, value, message", [
    (("basis", 1, 0), 1.7, "serialized exponent is float, not int"),
    (("basis", 1, 0), True, "serialized exponent is bool, not int"),
    (("degree_bound",), 2.9, "serialized degree_bound is float, not int"),
    (("degree_bound",), "2", "serialized degree_bound is str, not int"),
    (("n",), True, "serialized n is bool, not int"),
    (("n",), 1.0, "serialized n is float, not int"),
    (("table", 1, 1, 0, 1), 1.5, "serialized basis index is float, not int"),
    (("table", 1, 1, 0, 1), "2", "serialized basis index is str, not int"),
    (("table", 1, 1, 0, 0), 1, "serialized constant is int, not str"),
    (("table", 0, 0, 0, 0), None, "serialized constant is NoneType, not str"),
])
def test_json_numbers_are_integers_and_constants_strings(path, value, message):
    # each field once loaded truncated (1.7 as 1, "2" as 2, true as 1), and a numeric constant raised AttributeError
    doc = algebra_to_json(truncated_algebra(1, 2))
    assert algebra_from_json(doc) == truncated_algebra(1, 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        algebra_from_json(_with(doc, path, value))


LIBRARY_KINDS = ("truncated", "Laplace", "weighted", "quotient", "tensor", "dual")


def _library_algebra(kind, rng):
    """A random algebra of one library constructor, at most 100-dimensional."""
    n = rng.choice((1, 2, 3))
    if kind == "truncated":
        return truncated_algebra(n, rng.randint(0, {1: 6, 2: 3, 3: 2}[n]))
    if kind == "Laplace":
        return laplace_algebra(rng.randint(1, 5))
    if kind == "weighted":
        weights = (Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3)) for _ in range(n))
        return _isotropy_algebra((Fraction(1), *weights))
    if kind == "quotient":
        return _documents(rng)[0]
    if kind == "tensor":
        factors = (_library_algebra(rng.choice(("truncated", "Laplace", "quotient")), rng) for _ in "ab")
        return tensor_algebra(*factors)[0]
    monos = rng.sample(all_monomials(n, 3), rng.randint(1, 3))
    return dual_algebra(subcoalgebra_generated(Distribution(n, {m: rng.choice((-2, 1, 3)) for m in monos})))


@settings(max_examples=120, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(LIBRARY_KINDS), st.integers(0, 2**32 - 1))
def test_library_algebras_round_trip_with_labels_that_name_their_products(kind, seed):
    algebra = _library_algebra(kind, random.Random(seed))
    back = algebra_from_json(json.loads(json.dumps(algebra_to_json(algebra))))
    assert back.basis == algebra.basis and back._table == algebra._table
    # a generator within the bound whose class is no basis monomial: JSON does not name that class
    if algebra.degree_bound and any(sum(m) == 1 and m not in algebra.basis for m in all_monomials(algebra.n, 1)):
        with pytest.raises(ValueError, match="does not record the class of generator"):
            back.generators()
        loaded = [algebra]
    else:
        assert [g.coords for g in back.generators()] == [g.coords for g in algebra.generators()]
        loaded = [algebra, back]
    for a in loaded:
        for i, m in enumerate(a.basis):
            assert a.from_polynomial(Polynomial(a.n, {m: 1})) == a.basis_element(i)


def _accepts(doc):
    try:
        algebra_from_json(doc)
    except ValueError:
        return False
    return True


def _documents(rng, algebra=None):
    """An algebra, by default a random quotient algebra on up to 10
    monomials, and (kind, document) pairs: its own document, a lowered
    bound, one table entry and its mirror replaced (a written zero constant
    included), two nonunit basis labels swapped, with and without a lowered
    bound, and a nonunit label with a negative exponent.  A bound of 0 is
    "lowered" to 0."""
    if algebra is None:
        n = rng.choice((1, 2, 3))
        bound = rng.randint(1, {1: 5, 2: 3, 3: 2}[n])
        relations = []
        for _ in range(rng.randint(0, 3)):
            p = random_polynomial(rng, n, bound, rng.randint(1, 3))
            relations.append(Polynomial(n, {m: c for m, c in p.terms.items() if sum(m)}))
        algebra = quotient_algebra(n, bound, relations)
    n, bound = algebra.n, max(algebra.degree_bound, 1)
    doc, dim = json.loads(json.dumps(algebra_to_json(algebra))), algebra.dimension
    documents = [("own", doc), ("lowered", {**doc, "degree_bound": rng.randint(0, bound - 1)})]
    if dim > 1:
        i, j = sorted(rng.randint(1, dim - 1) for _ in "ij")
        table = json.loads(json.dumps(doc["table"]))
        terms = {rng.randint(0, dim - 1): rng.choice((-2, -1, 0, 1, 2)) for _ in range(rng.randint(0, 2))}
        table[i][j] = table[j][i] = [[str(c), k] for k, c in sorted(terms.items())]
        documents.append(("mutated", {**doc, "table": table}))
    if dim > 2:
        relabelled = json.loads(json.dumps(doc))
        i, j = rng.sample(range(1, dim), 2)
        relabelled["basis"][i], relabelled["basis"][j] = doc["basis"][j], doc["basis"][i]
        documents += [("relabelled", relabelled),
                      ("relabelled, lowered", {**relabelled, "degree_bound": rng.randint(0, bound - 1)})]
    if dim > 1:
        negative = json.loads(json.dumps(doc))
        label = negative["basis"][rng.randint(1, dim - 1)]
        g = rng.randrange(n)
        label[g] = -label[g] - 1
        documents.append(("negative", negative))
    return algebra, documents


DOCUMENTS = settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


@DOCUMENTS
@given(st.integers(0, 2**32 - 1))
def test_json_accepts_exactly_the_documents_of_weil_algebras(seed):
    _, documents = _documents(random.Random(seed))
    assert _accepts(documents[0][1])
    for kind, doc in documents:
        assert _accepts(doc) == is_weil_document_by_brute_force(doc), kind


def _accepts_by_square(doc):
    with mock.patch.object(WeilAlgebra, "_check_table", check_table_by_square):
        return _accepts(doc)


@settings(DOCUMENTS, max_examples=60)
@given(st.sampled_from(LIBRARY_KINDS), st.integers(0, 2**32 - 1))
def test_json_accepts_what_the_generators_from_the_square_accept(kind, seed):
    # S read off the labels, as the loader does, or off N^2 in the old check order: one verdict
    rng = random.Random(seed)
    for algebra in (None, _library_algebra(kind, rng)):
        for name, doc in _documents(rng, algebra)[1]:
            assert _accepts(doc) == _accepts_by_square(doc), (kind, name)


@DOCUMENTS
@given(st.integers(0, 2**32 - 1))
def test_jets_agree_on_each_loaded_algebra_and_its_original(seed):
    # a lowered bound or swapped labels keep the table, so an accepted document gives the same jets
    rng = random.Random(seed)
    algebra, documents = _documents(rng)
    n, dim = algebra.n, algebra.dimension
    p, q, r = (random_polynomial(rng, n, 3, 3).to_string() for _ in "pqr")
    e = parse_expr(f"({p})/(1 + ({q})^2) + 1/(3 + ({r})^2)^2", n=n)
    base = random_point(rng, n)
    offsets = [(0, *(Fraction(rng.randint(-2, 2)) for _ in range(dim - 1))) for _ in range(n)]
    want = jet_eval(e, base, [algebra.element(c) for c in offsets]).coords
    for kind, doc in documents:
        if kind != "mutated" and _accepts(doc):
            back = algebra_from_json(doc)
            assert jet_eval(e, base, [back.element(c) for c in offsets]).coords == want, kind


def test_equal_elements_of_separate_algebras_hash_equal():
    # the constructor returns one shared algebra, so the second is a separately built copy
    a = laplace_algebra(3).generators()[0]
    b = algebra_from_json(algebra_to_json(laplace_algebra(3))).generators()[0]
    assert a.algebra is not b.algebra
    assert a == b
    assert len({a, b}) == 1


# -- explicit table isomorphism ------------------------------------------------------------

def test_isomorphism_found_and_refused():
    a = laplace_algebra(2)
    q = quotient_algebra(2, 2, dl_relations(2))
    assert algebra_isomorphism(q, a) is not None
    assert algebra_isomorphism(a, truncated_algebra(2, 1)) is None  # dims differ
    # same n and dimension but different multiplication: here the generator
    # squares vanish while the cross product survives
    other = quotient_algebra(2, 2, [Polynomial(2, {(2, 0): 1}), Polynomial(2, {(0, 2): 1})])
    assert other.dimension == a.dimension
    assert algebra_isomorphism(other, a) is None
    # same dimension, different generator counts
    assert algebra_isomorphism(truncated_algebra(1, 2), truncated_algebra(2, 1)) is None
    # the basis monomials 1, Z1, Z2, Z1^2 are a basis of both, but Z2^2 is Z1^2
    # in the source and 0 in the target
    square_free = quotient_algebra(2, 2, [Polynomial(2, {(1, 1): 1}), Polynomial(2, {(0, 2): 1})])
    assert square_free.basis == a.basis
    assert algebra_isomorphism(a, square_free) is None


def test_a_zero_relation_is_skipped():
    zero = expr_to_polynomial(parse_expr("x1-x1"), 1)
    assert zero.is_zero()
    assert quotient_algebra(1, 3, [zero]) == truncated_algebra(1, 3)


def test_one_back_substitution_pass_leaves_no_pivot_in_any_tail():
    # every tail monomial is smaller than its lead, and the pivot rows of
    # smaller leads are reduced first, so one pass reaches the reduced form
    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        monos = all_monomials(n, rng.choice((2, 3, 4)))
        rows = [
            {m: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for m in rng.sample(monos, rng.randint(1, min(5, len(monos))))}
            for _ in range(rng.randint(1, 8))
        ]
        pivots = _reduce_rows([{m: c for m, c in row.items() if c} for row in rows], {m: i for i, m in enumerate(monos)})
        for lead, row in pivots.items():
            assert row[lead] == 1 and max(row, key=mono_key) == lead
            assert not any(m in pivots for m in row if m != lead)


def _typed_rows(pivots):
    """Pivot rows with each coefficient next to its type, in insertion order of the leads."""
    return [(lead, {m: (type(c), c) for m, c in row.items()}) for lead, row in pivots.items()]


@st.composite
def reduction_inputs(draw):
    """Rows of Fractions (1 and -1 among them, so unit leads occur) over the
    monomials of degree <= 4 in n = 1..3 variables, and a closing map: none,
    the derivatives d/dx_i with their exponent factors, or multiplication
    by each generator with terms past degree 4 dropped."""
    n = draw(st.integers(1, 3))
    monos = all_monomials(n, 4)
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    rows = draw(st.lists(st.dictionaries(st.sampled_from(monos), coeffs, max_size=5), max_size=6))

    def derivatives(row):
        return [{m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in row.items() if m[i]} for i in range(n)]

    def times_generators(row):
        return [{m[:i] + (m[i] + 1,) + m[i + 1:]: c for m, c in row.items() if sum(m) < 4} for i in range(n)]

    close = draw(st.sampled_from((None, derivatives, times_generators)))
    return monos, rows, close


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(reduction_inputs())
def test_ranked_reduction_matches_the_reduction_by_mono_key(inputs):
    # the same pivots, in the same order, each coefficient of the same type
    monos, rows, close = inputs
    ranked = _reduce_rows(rows, {m: i for i, m in enumerate(monos)}, close)
    assert _typed_rows(ranked) == _typed_rows(reduce_rows_by_mono_key(rows, close))
    # any values that order as mono_key does serve as the rank
    assert _typed_rows(_reduce_rows(rows, {m: mono_key(m) for m in monos}, close)) == _typed_rows(ranked)


def test_a_unit_lead_is_not_divided():
    row = {(2,): Fraction(1), (1,): Fraction(3, 2)}
    pivots = _reduce_rows([row], {m: i for i, m in enumerate(all_monomials(1, 2))})
    assert pivots[(2,)] == row and pivots[(2,)][(1,)] is row[(1,)]


# -- structure constants in the product's own scalars ---------------------------------------

F = Fraction
# a relation whose lead is a generator (x2 = 2 x1) and one with non-integral constants
INT_QUOTIENT = quotient_algebra(2, 2, [X2 - X1 * 2])
FRACTION_QUOTIENT = quotient_algebra(2, 3, [X1 * X1 * 2 - X1 * X2 * 3, X2 * X2 * X2])
PRODUCT_ALGEBRAS = [
    truncated_algebra(1, 3),
    truncated_algebra(2, 2),
    truncated_algebra(3, 2),
    laplace_algebra(3),
    _isotropy_algebra((F(1), F(2), F(-1, 3))),  # exact weights, indefinite
    _isotropy_algebra((1.0, 2.5, -0.75, 1.0)),  # float weights of a float-mode chart, indefinite
    _isotropy_algebra((1.0, 1 / 3)),
    INT_QUOTIENT,
    FRACTION_QUOTIENT,
    tensor_algebra(laplace_algebra(2), truncated_algebra(1, 1))[0],
    tensor_algebra(_isotropy_algebra((1.0, -2.5)), truncated_algebra(1, 1))[0],
    tensor_algebra(FRACTION_QUOTIENT, truncated_algebra(1, 1))[0],
    algebra_from_json(algebra_to_json(FRACTION_QUOTIENT)),
    algebra_from_json(algebra_to_json(_isotropy_algebra((F(1), F(-3), F(5, 2))))),
]
EXACT_COORD = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=7),
                        st.integers(-3, 3))  # an int, as a caller may pass one to ``element``
FLOAT_COORD = st.one_of(
    st.just(F(0)),  # an exact zero, as float-mode elements may hold
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300)),
    st.floats(min_value=-10, max_value=10),
)


def _coordinates(algebra, kind):
    """Coordinate vectors: all exact, all float, or mixed (a float unit
    coordinate with an exact nilpotent part, as float ``jet_eval`` makes
    them)."""
    nilpotent = FLOAT_COORD if kind == "float" else EXACT_COORD
    unit = EXACT_COORD if kind == "exact" else FLOAT_COORD
    return st.tuples(unit, st.lists(nilpotent, min_size=algebra.dimension - 1, max_size=algebra.dimension - 1))


def _has_float_constants(algebra):
    return any(isinstance(c, float) for row in algebra._table for entry in row for _, c in entry)


def _typed(w):
    return [(type(c), c.hex() if isinstance(c, float) else c) for c in w.coords]


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(PRODUCT_ALGEBRAS), st.sampled_from(("exact", "float", "mixed")), st.data())
def test_product_equals_the_fraction_loop(algebra, kind, data):
    # the same types and values as Fraction(0) + ab * c, float bits and zero signs included
    x, y = (algebra.element((u, *rest)) for u, rest in (data.draw(_coordinates(algebra, kind)) for _ in "xy"))
    for a, b in ((x, y), (y, x), (x, x)):
        got, want = a * b, product_by_fraction_loop(a, b)
        assert _typed(got) == _typed(want)
        if kind == "exact" and not _has_float_constants(algebra):
            assert all(type(c) is Fraction for c in got.coords)


@pytest.mark.parametrize("algebra", [
    truncated_algebra(2, 3),
    laplace_algebra(3),
    _isotropy_algebra((F(1), F(2), F(-3))),
    INT_QUOTIENT,
    FRACTION_QUOTIENT,
    tensor_algebra(INT_QUOTIENT, truncated_algebra(1, 1))[0],
    algebra_from_json(algebra_to_json(INT_QUOTIENT)),
], ids=repr)
def test_exact_elements_hold_only_fractions(algebra):
    # int table constants must not reach an element: p / 2 of an int is a float
    try:
        gens = algebra.generators()
    except ValueError:  # a deserialized algebra records no generator classes
        gens = []
    basis = [algebra.basis_element(i) for i in range(algebra.dimension)]
    scalars = [algebra.scalar(3), algebra.scalar(F(1, 2)), algebra.one(), algebra.zero()]
    products = [x * y for x in gens + basis for y in gens + basis] + [x * 2 for x in gens + basis]
    for w in gens + basis + scalars + products:
        assert all(type(c) is Fraction for c in w.coords), w
    if gens:
        z1, zn = Polynomial.variable(algebra.n, 0), Polynomial.variable(algebra.n, algebra.n - 1)
        assert all(type(c) is Fraction for c in algebra.from_polynomial(z1 * z1 * 3 - zn).coords)


def test_constants_are_ints_and_unit_entries_are_shared():
    algebras = [truncated_algebra(2, 4), laplace_algebra(5), INT_QUOTIENT, _isotropy_algebra((1.0, 2.0, 1.0)),
                algebra_from_json(algebra_to_json(truncated_algebra(1, 3)))]
    for algebra in algebras:
        for row in algebra._table:
            for entry in row:
                assert all(type(c) is not Fraction or c.denominator != 1 for _, c in entry)
                if len(entry) == 1 and entry[0][1] == 1:
                    assert entry is weil._UNITS[entry[0][0]]
    assert _isotropy_algebra((1.0, 2.0, 1.0))._table[2][2] == ((4, 2.0),)
    assert type(_isotropy_algebra((1.0, 2.0, 1.0))._table[2][2][0][1]) is float
