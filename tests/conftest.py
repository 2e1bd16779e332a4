"""Shared corpus builders for the test suite.

Random objects are always drawn from seeded generators so failures
reproduce; metrics are built to be invertible at their base point by
construction (identity plus terms vanishing there).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from nilgeom.expr import Const, Expr, Var, diff, evaluate, polynomial_to_expr
from nilgeom.geometry import MetricField
from nilgeom.weil import Polynomial, all_monomials


def random_polynomial(rng: random.Random, n: int, degree: int, terms: int = 5) -> Polynomial:
    monos = all_monomials(n, degree)
    chosen = rng.sample(monos, min(terms, len(monos)))
    poly = Polynomial(n, {m: Fraction(rng.randint(-4, 4)) for m in chosen})
    if poly.is_zero():
        poly = Polynomial(n, {monos[-1]: Fraction(1)})
    return poly


def random_poly_expr(rng: random.Random, n: int, degree: int, terms: int = 5) -> Expr:
    return polynomial_to_expr(random_polynomial(rng, n, degree, terms))


def random_point(rng: random.Random, n: int) -> tuple:
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))


def random_metric(rng: random.Random, n: int, base) -> MetricField:
    """Symmetric polynomial metric, equal to the identity at ``base`` so it is
    guaranteed invertible there."""
    entries = [[None] * n for _ in range(n)]
    vanishing = [Var(k) - Const(base[k]) for k in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = Const(Fraction(1 if i == j else 0))
            for _ in range(rng.randint(1, 2)):
                factor = vanishing[rng.randrange(n)]
                term = Const(Fraction(rng.randint(-2, 2))) * factor
                if rng.random() < 0.5:
                    term = term * vanishing[rng.randrange(n)]
                e = e + term
            entries[i][j] = e
            entries[j][i] = e
    return MetricField(n, entries)


def second_partials_sum(expr, x):
    """Independent flat-Laplacian oracle: sum of pure second partials."""
    return sum(evaluate(diff(diff(expr, i), i), x) for i in range(len(x)))


# -- jets through symbolic derivatives: the reference for nilpotent arithmetic --

def taylor_coefficients_by_diff(e, base, order, mode="exact"):
    """Taylor coefficients at ``base`` up to total degree ``order``, each a
    symbolic partial derivative evaluated at the base over its factorial."""
    n = len(base)
    derivs = {(0,) * n: e}
    coeffs = {}
    for alpha in all_monomials(n, order):
        if alpha not in derivs:
            i = next(k for k, a in enumerate(alpha) if a > 0)
            parent = tuple(a - (1 if k == i else 0) for k, a in enumerate(alpha))
            derivs[alpha] = diff(derivs[parent], i)
        value = evaluate(derivs[alpha], base, mode)
        fact = 1
        for a in alpha:
            fact *= math.factorial(a)
        value = value / fact
        if value != 0:
            coeffs[alpha] = value
    return coeffs


def jet_eval_by_diff(e, base, offsets, mode="exact"):
    """The Taylor sum of ``taylor_coefficients_by_diff`` up to the algebra's
    degree bound, evaluated on the offsets."""
    offsets = list(offsets)
    algebra = offsets[0].algebra
    coeffs = taylor_coefficients_by_diff(e, base, algebra.degree_bound, mode)
    result = algebra.zero()
    for alpha, c in coeffs.items():
        term = algebra.scalar(c)
        for z, a in zip(offsets, alpha):
            for _ in range(a):
                term = term * z
        result = result + term
    return result
