"""Distributions at the origin: action, comultiplication, duals."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilgeom.coalgebra import (
    Distribution,
    Subcoalgebra,
    comultiply,
    coordinate_derivative,
    dirac,
    dual_algebra,
    laplace_distribution,
    leibniz_expand,
    subcoalgebra_generated,
)
from nilgeom.weil import (
    Polynomial,
    algebra_isomorphism,
    algebra_to_json,
    all_monomials,
    laplace_algebra,
    quotient_algebra,
    truncated_algebra,
)
from conftest import (
    dual_algebra_by_nullspace,
    dual_algebra_by_scan,
    dual_relations_by_scan,
    random_polynomial,
    subcoalgebra_by_mono_key,
    subcoalgebra_by_solve,
)

F = Fraction
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


NAMED_SYMBOLS = [Distribution(1, {(k,): 1}) for k in range(1, 10)] + [
    laplace_distribution(n) for n in range(1, 6)
]


@st.composite
def symbols(draw):
    """Nonzero distributions with n = 1..3 variables and degree <= 3."""
    n = draw(st.integers(1, 3))
    monos = draw(st.lists(st.sampled_from(all_monomials(n, 3)), min_size=1, max_size=4, unique=True))
    coeffs = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    return Distribution(n, {m: draw(coeffs) for m in monos})


# -- action on polynomials ------------------------------------------------------

def test_laplace_action_examples():
    lap = laplace_distribution(2)
    assert lap.apply(Polynomial(2, {(2, 0): 1})) == 2
    assert lap.apply(Polynomial(2, {(1, 1): 1})) == 0
    assert lap.apply(Polynomial(2, {(0, 2): 3, (1, 0): 9})) == 6


def test_dirac_action_evaluates_at_origin():
    f = Polynomial(2, {(0, 0): 7, (1, 0): 3, (2, 1): -5})
    assert dirac(2).apply(f) == 7


def test_derivative_action():
    f = Polynomial(2, {(1, 0): 4, (1, 1): 2})
    assert coordinate_derivative(2, 0).apply(f) == 4
    assert coordinate_derivative(2, 1).apply(f) == 0


def test_higher_order_pairing_uses_factorials():
    d = Distribution(1, {(3,): 1})
    assert d.apply(Polynomial(1, {(3,): 1})) == 6  # 3! * coefficient


# -- distributions as polynomials in derivative symbols -----------------------------

def test_distribution_arithmetic_stays_distribution():
    d1, d2 = coordinate_derivative(2, 0), coordinate_derivative(2, 1)
    for value in (d1 + d2, d1 - d2, -d1, d1 * 3, 3 * d1, d1 * F(1, 2), d1 ** 2, d1 ** 0, d1 * d2):
        assert type(value) is Distribution
    assert d1 * d2 == Distribution(2, {(1, 1): 1})
    assert (d1 + d2) ** 2 == Distribution(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_product_of_symbols_composes_the_operators():
    d1, d2 = coordinate_derivative(2, 0), coordinate_derivative(2, 1)
    x1x2 = Polynomial(2, {(1, 1): 1})
    assert (d1 * d2).apply(x1x2) == 1
    assert (d1 * d1).apply(x1x2) == 0
    assert laplace_distribution(2) == d1 ** 2 + d2 ** 2


def test_distribution_is_never_a_polynomial():
    terms = {(2, 1): 3, (0, 0): -1}
    d, p = Distribution(2, terms), Polynomial(2, terms)
    assert d != p and p != d
    assert d == Distribution(2, dict(terms)) and hash(d) == hash(Distribution(2, dict(terms)))
    assert len({d, Distribution(2, dict(terms))}) == 1
    assert Distribution.from_polynomial(p) == d and d.symbol() == p
    assert d.counit() == -1
    for left, right in ((d, p), (p, d)):
        with pytest.raises(TypeError, match="cannot combine"):
            left + right
        with pytest.raises(TypeError, match="cannot combine"):
            left * right


def test_distribution_rejects_wrong_arity_and_inexact_coefficients():
    with pytest.raises(ValueError, match="wrong arity"):
        Distribution(2, {(1,): 1})
    with pytest.raises(ValueError, match="non-integral float"):
        Distribution(1, {(1,): 0.5})
    assert Distribution(1, {(1,): 2.0}) == Distribution(1, {(1,): 2})


# -- comultiplication --------------------------------------------------------------

def test_comultiplication_of_laplace_distribution():
    n = 2
    got = comultiply(laplace_distribution(n))
    unit = (0, 0)
    expected = {}
    for i in range(n):
        sq = tuple(2 if j == i else 0 for j in range(n))
        e = tuple(1 if j == i else 0 for j in range(n))
        expected[(sq, unit)] = F(1)
        expected[(unit, sq)] = F(1)
        expected[(e, e)] = F(2)
    assert got == expected


def test_comultiplication_of_first_derivative():
    got = comultiply(coordinate_derivative(2, 0))
    assert got == {((1, 0), (0, 0)): F(1), ((0, 0), (1, 0)): F(1)}


def test_comultiplication_of_dirac_is_grouplike():
    assert comultiply(dirac(3)) == {((0, 0, 0), (0, 0, 0)): F(1)}


def test_leibniz_soundness_random_pairs():
    rng = random.Random(201)
    sub = subcoalgebra_generated(laplace_distribution(2))
    for _ in range(30):
        f = random_polynomial(rng, 2, 4)
        g = random_polynomial(rng, 2, 4)
        for b in sub.basis:
            assert b.apply(f * g) == leibniz_expand(b, f, g)


def test_leibniz_soundness_higher_symbol():
    rng = random.Random(202)
    d = Distribution(2, {(2, 1): 3, (0, 2): -1, (1, 0): 2})
    for _ in range(15):
        f = random_polynomial(rng, 2, 4)
        g = random_polynomial(rng, 2, 4)
        assert d.apply(f * g) == leibniz_expand(d, f, g)


# -- generated subcoalgebras -----------------------------------------------------------

def test_laplace_subcoalgebra_basis():
    sub = subcoalgebra_generated(laplace_distribution(2))
    assert sub.dimension == 4
    symbols = [b.to_string() for b in sub.basis]
    assert symbols == ["1", "d1", "d2", "d1^2 + d2^2"]


@pytest.mark.parametrize("n", range(1, 6))
def test_laplace_subcoalgebra_dimension(n):
    assert subcoalgebra_generated(laplace_distribution(n)).dimension == n + 2


def test_dirac_generates_a_line():
    assert subcoalgebra_generated(dirac(2)).dimension == 1


def test_single_derivative_generates_a_plane():
    sub = subcoalgebra_generated(coordinate_derivative(1, 0))
    assert sub.dimension == 2
    assert [b.to_string() for b in sub.basis] == ["1", "d1"]


def test_comult_table_of_laplace_generator():
    sub = subcoalgebra_generated(laplace_distribution(2))
    # basis order: dirac, d1, d2, laplacian
    row = sub.comult[3]
    assert row == {(3, 0): F(1), (0, 3): F(1), (1, 1): F(2), (2, 2): F(2)}


def _assert_counital(sub):
    # contracting one tensor leg with the counit must give the element back
    for idx, b in enumerate(sub.basis):
        left = {}
        right = {}
        for (i, j), c in sub.comult[idx].items():
            for m, cc in sub.basis[j].terms.items():
                left[m] = left.get(m, F(0)) + c * sub.basis[i].counit() * cc
            for m, cc in sub.basis[i].terms.items():
                right[m] = right.get(m, F(0)) + c * sub.basis[j].counit() * cc
        assert Distribution(sub.n, left) == b
        assert Distribution(sub.n, right) == b


def _assert_coassociative(sub):
    for idx in range(sub.dimension):
        lhs = {}
        for (i, j), c in sub.comult[idx].items():
            for (a, b), cc in sub.comult[i].items():
                key = (a, b, j)
                lhs[key] = lhs.get(key, F(0)) + c * cc
        rhs = {}
        for (i, j), c in sub.comult[idx].items():
            for (a, b), cc in sub.comult[j].items():
                key = (i, a, b)
                rhs[key] = rhs.get(key, F(0)) + c * cc
        lhs = {k: v for k, v in lhs.items() if v != 0}
        rhs = {k: v for k, v in rhs.items() if v != 0}
        assert lhs == rhs


def test_counit_compatibility():
    for dist in (laplace_distribution(2), Distribution(2, {(2, 1): 1, (1, 0): 4})):
        _assert_counital(subcoalgebra_generated(dist))


def test_coassociativity_on_generated_basis():
    for dist in (laplace_distribution(2), laplace_distribution(3), Distribution(2, {(2, 2): 1})):
        _assert_coassociative(subcoalgebra_generated(dist))


@PROPERTY
@given(symbols())
def test_random_tables_are_counital_and_coassociative(dist):
    sub = subcoalgebra_generated(dist)
    _assert_counital(sub)
    _assert_coassociative(sub)


@PROPERTY
@given(symbols())
def test_lookups_match_dense_oracles(dist):
    _assert_matches_oracles(dist)


@pytest.mark.parametrize("dist", NAMED_SYMBOLS, ids=repr)
def test_lookups_match_dense_oracles_on_named_symbols(dist):
    _assert_matches_oracles(dist)


def _assert_matches_oracles(dist):
    sub = subcoalgebra_generated(dist)
    ref = subcoalgebra_by_solve(dist)
    assert sub == ref
    assert algebra_to_json(dual_algebra(sub)) == algebra_to_json(dual_algebra_by_nullspace(ref))


# -- dual algebras ----------------------------------------------------------------------

def test_dual_of_dirac_is_scalars():
    assert dual_algebra(subcoalgebra_generated(dirac(1))).dimension == 1


def test_dual_of_single_derivative_is_dual_numbers():
    algebra = dual_algebra(subcoalgebra_generated(coordinate_derivative(1, 0)))
    assert algebra.dimension == 2
    z = algebra.generators()[0]
    assert not z.is_zero()
    assert (z * z).is_zero()
    assert algebra_isomorphism(algebra, truncated_algebra(1, 1)) is not None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dual_of_laplace_subcoalgebra_is_laplace_algebra(n):
    sub = subcoalgebra_generated(laplace_distribution(n))
    dual = dual_algebra(sub)
    assert dual.dimension == n + 2
    assert algebra_isomorphism(dual, laplace_algebra(n)) is not None


def test_dual_dimension_matches_subcoalgebra_corpus():
    corpus = [
        laplace_distribution(2),
        Distribution(1, {(3,): 1}),
        Distribution(2, {(2, 1): 1}),
        Distribution(2, {(1, 1): 1, (1, 0): 1}),
    ]
    for dist in corpus:
        sub = subcoalgebra_generated(dist)
        assert dual_algebra(sub).dimension == sub.dimension


def test_dual_of_zero_subcoalgebra_is_rejected():
    sub = subcoalgebra_generated(Distribution(2))
    assert sub.dimension == 0
    with pytest.raises(ValueError, match="zero subcoalgebra"):
        dual_algebra(sub)


# -- the dual straight from the annihilator span, against the ideal it generates ----------

def _assert_matches_quotient(sub):
    dual = dual_algebra(sub)
    ref = quotient_algebra(sub.n, dual.degree_bound, dual.relations)
    assert algebra_to_json(dual) == algebra_to_json(ref)
    assert [g.coords for g in dual.generators()] == [g.coords for g in ref.generators()]


@PROPERTY
@given(symbols())
def test_dual_matches_quotient_of_generated_ideal(dist):
    _assert_matches_quotient(subcoalgebra_generated(dist))


@pytest.mark.parametrize("dist", NAMED_SYMBOLS, ids=repr)
def test_dual_matches_quotient_of_generated_ideal_on_named_symbols(dist):
    _assert_matches_quotient(subcoalgebra_generated(dist))


@pytest.mark.parametrize("n", [1, 2])
def test_dual_rejects_basis_not_closed_under_comultiplication(n):
    # psi(dn^2) has the term 2 dn (x) dn, and dn is not in the span; the
    # derivative d/d(dn) of dn^2 is 2 dn, which closing the span adds
    square = tuple(2 if i == n - 1 else 0 for i in range(n))
    sub = Subcoalgebra(n, (dirac(n), Distribution(n, {square: 1})), ({}, {}))
    with pytest.raises(ValueError, match=f"not closed under comultiplication: its derivatives span d{n}, "):
        dual_algebra(sub)


def test_dual_rejects_linearly_dependent_basis():
    sub = Subcoalgebra(1, (dirac(1), coordinate_derivative(1, 0), dirac(1) * 2), ({}, {}, {}))
    with pytest.raises(ValueError, match="spans 2 dimensions, not 3: it is linearly dependent"):
        dual_algebra(sub)


def test_dual_rejects_basis_without_counit():
    # d1^2 lacks the counit, and 1 + d1 pairs to 1 with 1 but lacks its
    # derivative 1: both spans miss the counit because they are not closed,
    # as a nonzero closed span holds it (apply d^alpha, alpha a top term)
    for symbol in ({(2,): 1}, {(0,): 1, (1,): 1}):
        sub = Subcoalgebra(1, (Distribution(1, symbol),), ({},))
        with pytest.raises(ValueError, match="not closed under comultiplication: its derivatives span 1, "):
            dual_algebra(sub)


def test_pipeline_refuses_too_many_monomials():
    from nilgeom.weil import MAX_DIMENSION

    with pytest.raises(ValueError, match="MAX_DIMENSION"):
        subcoalgebra_generated(Distribution(30, {(6,) + (0,) * 29: 1}))
    # a basis holding d1^(MAX_DIMENSION - 1) takes the bound MAX_DIMENSION: MAX_DIMENSION + 1 monomials
    sub = Subcoalgebra(1, (dirac(1), Distribution(1, {(MAX_DIMENSION - 1,): 1})), ({}, {}))
    with pytest.raises(ValueError, match="MAX_DIMENSION"):
        dual_algebra(sub)


# -- the pipeline against the reductions that re-key every step and scan for relations --------

def _typed_terms(terms):
    return {m: (type(c), c) for m, c in terms.items()}


def _assert_matches_the_scanning_path(dist):
    sub = subcoalgebra_generated(dist)
    ref = subcoalgebra_by_mono_key(dist)
    assert [_typed_terms(b.terms) for b in sub.basis] == [_typed_terms(b.terms) for b in ref.basis]
    assert [_typed_terms(row) for row in sub.comult] == [_typed_terms(row) for row in ref.comult]
    dual, scanned = dual_algebra(sub), dual_algebra_by_scan(ref)
    typed_table = [[[(k, type(c), c) for k, c in entry] for entry in row] for row in dual._table]
    assert typed_table == [[[(k, type(c), c) for k, c in entry] for entry in row] for row in scanned._table]
    assert dual.basis == scanned.basis and dual.degree_bound == scanned.degree_bound
    # relations are built on each read, equal every time and to the eager scan
    relations = dual.relations
    assert dual.relations == relations
    assert [_typed_terms(r.terms) for r in relations] == [_typed_terms(r.terms) for r in dual_relations_by_scan(sub)]
    assert all(b.apply(r) == 0 for b in sub.basis for r in relations)


@PROPERTY
@given(symbols())
def test_pipeline_matches_the_scanning_path(dist):
    _assert_matches_the_scanning_path(dist)


@pytest.mark.parametrize("dist", NAMED_SYMBOLS, ids=repr)
def test_pipeline_matches_the_scanning_path_on_named_symbols(dist):
    _assert_matches_the_scanning_path(dist)
