"""Shared corpus builders for the test suite.

Random objects are always drawn from seeded generators so failures
reproduce; metrics are built to be invertible at their base point by
construction (identity plus terms vanishing there).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from nilgeom import _linalg
from nilgeom.coalgebra import Distribution, Subcoalgebra, _factorial, comultiply, divided_derivatives
from nilgeom.expr import Const, Expr, Var, compose, diff, evaluate, jet_eval, polynomial_to_expr, taylor_coefficients
from nilgeom.geometry import MetricField, _check_order, geodesic_chart
from nilgeom.scalars import DEFAULT_EPS, EXACT, FLOAT
from nilgeom.weil import truncated_algebra
from nilgeom.weil import Polynomial, _reduce_rows, all_monomials, mono_key, quotient_algebra, satisfies_laplace_relations


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


# -- coalgebra by dense solves: the reference for the echelon lookups --

def nullspace(a):
    """Basis of the exact kernel of a rectangular matrix (list of vectors)."""
    rows, cols = len(a), len(a[0]) if a else 0
    m = [[Fraction(x) for x in row] for row in a]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((rr for rr in range(r, rows) if m[rr][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for rr in range(rows):
            if rr != r and m[rr][c] != 0:
                factor = m[rr][c]
                m[rr] = [x - factor * y for x, y in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def solve_general(a, b):
    """Solve a @ x = b for a rectangular exact system.

    Returns one solution vector, or None if inconsistent.  Gauss-Jordan on
    the augmented matrix; free variables are set to zero.
    """
    rows, cols = len(a), len(a[0]) if a else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for rr in range(r, rows):
            if aug[rr][c] != 0:
                piv = rr
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for rr in range(rows):
            if rr != r and aug[rr][c] != 0:
                factor = aug[rr][c]
                aug[rr] = [x - factor * y for x, y in zip(aug[rr], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for rr in range(r, rows):
        if aug[rr][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][cols]
    return x


def subcoalgebra_by_solve(d):
    """``subcoalgebra_generated`` with each comultiplication row found by
    solving the dense system sum c_ij b_i(mu) b_j(nu) = comultiply(b)(mu, nu)."""
    pivots = _reduce_rows([dict(dd.terms) for dd in divided_derivatives(d)])
    basis = [Distribution(d.n, pivots[lead]) for lead in sorted(pivots, key=mono_key)]
    support = sorted({m for b in basis for m in b.terms}, key=mono_key)
    pairs = [(mu, nu) for mu in support for nu in support]
    columns = [(i, j) for i in range(len(basis)) for j in range(len(basis))]
    matrix = [
        [basis[i].terms.get(mu, Fraction(0)) * basis[j].terms.get(nu, Fraction(0)) for (i, j) in columns]
        for (mu, nu) in pairs
    ]
    comult_rows = []
    for b in basis:
        tensor = comultiply(b)
        if not set(tensor) <= set(pairs):
            raise AssertionError("comultiplication escaped the generated span")
        solution = solve_general(matrix, [tensor.get(key, Fraction(0)) for key in pairs])
        if solution is None:
            raise AssertionError("comultiplication escaped the generated span")
        comult_rows.append({ij: c for ij, c in zip(columns, solution) if c != 0})
    return Subcoalgebra(d.n, tuple(basis), tuple(comult_rows))


def dual_algebra_by_nullspace(c, degree_bound=None):
    """``dual_algebra`` with the annihilator taken as the dense kernel of the
    pairing matrix b_k(m) * m!."""
    if degree_bound is None:
        degree_bound = max((b.degree() for b in c.basis), default=0) + 1
    monos = all_monomials(c.n, degree_bound)
    matrix = [[b.terms.get(m, Fraction(0)) * _factorial(m) for m in monos] for b in c.basis]
    relations = [
        Polynomial(c.n, {monos[i]: v[i] for i in range(len(monos)) if v[i] != 0})
        for v in nullspace(matrix)
    ]
    return quotient_algebra(c.n, degree_bound, relations)


# -- dense solves, the Laplacian as a trace, and Christoffel symbols by the full loop --

def solve(a, b):
    """Solve a @ x = b for square a by Gauss-Jordan; b is a vector.  Raises
    on singular a."""
    n = len(a)
    exact = not any(isinstance(x, float) for row in a for x in row)
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = _linalg._pivot_row(aug, col, col, exact)
        if piv is None or aug[piv][col] == 0:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def invert(a):
    n = len(a)
    cols = [solve(a, [Fraction(1) if i == j else Fraction(0) for i in range(n)]) for j in range(n)]
    return _linalg.transpose(cols)


def laplacian_by_trace(metric, f, x, mode=EXACT):
    """trace(G(x)^-1 Hess(f o chart)) in the unnormalized geodesic chart at x:
    the Hessian is read off the Taylor coefficients of f composed with the
    chart's forward model.  ``f`` is an expression."""
    chart = geodesic_chart(metric, x, mode=mode)
    n = metric.n
    pushed = compose(f, chart.forward_model().components)
    zero = tuple(Fraction(0) if mode == EXACT else 0.0 for _ in range(n))
    coeffs = taylor_coefficients(pushed, zero, 2, mode)
    ginv = invert(chart.G0)
    total = 0
    for j in range(n):
        for k in range(j, n):
            key = tuple((2 if i == j else 0) if j == k else (1 if i in (j, k) else 0) for i in range(n))
            c = coeffs.get(key, 0)
            if c == 0:
                continue
            hess = c * (2 if j == k else 1)
            weight = ginv[j][k] if j == k else 2 * ginv[j][k]
            total = total + weight * hess
    return total


def christoffel_by_loop(metric, x, mode=EXACT):
    """Gamma^i_{jk} = 1/2 sum_l G^il (d_k G_lj + d_j G_lk - d_l G_jk), every
    (i, j, k, l) term added, zero or not."""
    n = metric.n
    ginv = invert(metric.matrix_at(x, mode))
    jets = jet_matrix(metric, x, truncated_algebra(n, 1).generators(), mode)
    dg = [[jets[l][k].coords[1:] for k in range(n)] for l in range(n)]
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = 0
                for l in range(n):
                    s = s + ginv[i][l] * (dg[l][k][j] + dg[l][j][k] - dg[j][k][l])
                gamma[i][j][k] = s * Fraction(1, 2)
    return gamma


# -- metric derivatives by symbolic diff, isotropy in a float normal chart --

def jet_matrix(metric, base, offsets, mode=EXACT):
    """Every entry of G, both triangles, evaluated at base + offsets."""
    n = metric.n
    return [[jet_eval(metric.entry(i, j), base, offsets, mode) for j in range(n)] for i in range(n)]


def gbar_eval_by_diff(metric, base, z, y=None, mode=EXACT):
    """``gbar_eval`` with D_{z-y}G(p) summed from symbolic partials
    d_k G evaluated as jets at y."""
    z = tuple(z)
    algebra = z[0].algebra
    y = tuple(y) if y is not None else tuple(algebra.zero() for _ in z)
    d = tuple(zz - yy for zz, yy in zip(z, y))
    gm = jet_matrix(metric, base, y, mode)
    n = metric.n
    total = algebra.zero()
    for i in range(n):
        for j in range(n):
            correction = algebra.zero()
            for k in range(n):
                correction = correction + jet_eval(diff(metric.entry(i, j), k), base, y, mode) * d[k]
            total = total + d[i] * (gm[i][j] + correction * Fraction(1, 2)) * d[j]
    return total


def is_laplace_neighbor_by_normal_chart(metric, x, z, eps=DEFAULT_EPS):
    """Float isotropy test in an orthonormal chart: coordinates A^-1 zeta,
    A^T G(x) A = I and A^-1 by dense solves, must satisfy the plain Laplace
    relations with absolute tolerance ``eps``.  Needs G(x) positive definite."""
    x = tuple(float(c) for c in x)
    normal = geodesic_chart(metric, x, normalize=True, mode=FLOAT, eps=eps)
    zeta = geodesic_chart(metric, x, mode=FLOAT, eps=eps).to_chart(z)
    a_inv = invert(normal.A)
    zero = zeta[0].algebra.zero()
    eta = [sum((w * a for a, w in zip(row, zeta)), start=zero) for row in a_inv]
    _check_order(eta, 2, eps)
    return satisfies_laplace_relations(eta, eps)
