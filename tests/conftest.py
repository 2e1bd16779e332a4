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
from nilgeom.coalgebra import Distribution, Subcoalgebra, _factorial, comultiply
from nilgeom.expr import (
    Add,
    Call,
    Const,
    Div,
    Expr,
    FunctionModel,
    Mul,
    Pow,
    Sub,
    Var,
    _math,
    add,
    div,
    jet_eval,
    mul,
    polynomial_to_expr,
    pow_,
    sub,
    taylor_coefficients,
)
from nilgeom.geometry import (
    AFFINE_SCALES,
    ConformalReport,
    CRReport,
    GeometryError,
    MetricField,
    _apply,
    _square,
    geodesic_chart,
    is_harmonic_at,
)
from nilgeom.scalars import DEFAULT_EPS, EXACT, FLOAT, scalars_equal, to_scalar
from nilgeom.weil import _in_mode, _isotropy_algebra, laplace_algebra, tensor_algebra, truncated_algebra
from nilgeom.weil import Polynomial, WeilAlgebra, WeilElement, _reduce_rows, all_monomials, mono_key, quotient_algebra, satisfies_laplace_relations
from nilgeom.weil import _entry, _unit, mono_degree, mono_mul


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
    return sum(evaluate_by_tree(diff(diff(expr, i), i), x) for i in range(len(x)))


# -- scalar operations coordinate by coordinate: the reference for the short paths --

def add_scalar_dense(w, s):
    """w + s: s made a full scalar element, then every coordinate added."""
    return WeilElement(w.algebra, tuple(a + b for a, b in zip(w.coords, w.algebra.scalar(s).coords)))


def sub_scalar_dense(w, s):
    return WeilElement(w.algebra, tuple(a - b for a, b in zip(w.coords, w.algebra.scalar(s).coords)))


def rsub_scalar_dense(s, w):
    """s - w as (-w) + s, every coordinate added."""
    return add_scalar_dense(WeilElement(w.algebra, tuple(-a for a in w.coords)), s)


def mul_scalar_dense(w, s):
    return WeilElement(w.algebra, tuple(a * s for a in w.coords))


def nilpotent_part_dense(w):
    return sub_scalar_dense(w, w.coords[0])


def apply_dense(m, v):
    """The matrix m times the vector v, every entry multiplied and summed."""
    return tuple(sum(mij * vj for mij, vj in zip(row, v)) for row in m)


# -- sums of two elements coordinate by coordinate: the reference for the zero-skipping sums --

def add_dense(x, y):
    """x + y with every coordinate pair added, zeros included."""
    return WeilElement(x.algebra, tuple(a + b for a, b in zip(x.coords, y.coords)))


def sub_dense(x, y):
    return WeilElement(x.algebra, tuple(a - b for a, b in zip(x.coords, y.coords)))


def neg_dense(x):
    return WeilElement(x.algebra, tuple(-a for a in x.coords))


# -- the presentation of every pair: the reference for the one that skips pairs past the bound --

def presentation_all_pairs(n, degree_bound, monos, pivots, relations):
    """``_presentation`` with every pair of basis monomials multiplied and
    its product looked up among the normal forms, past the bound or not."""
    basis = [m for m in monos if m not in pivots]
    index = {m: i for i, m in enumerate(basis)}
    nf = {m: _unit(i) for m, i in index.items()}
    for lead, row in pivots.items():
        nf[lead] = _entry(sorted((index[m], -c) for m, c in row.items() if m != lead))
    dim = len(basis)
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            table[i][j] = table[j][i] = nf.get(mono_mul(basis[i], basis[j]), ())
    classes = {m.index(1): entry for m, entry in nf.items() if sum(m) == 1}
    return WeilAlgebra(n, degree_bound, basis, table, [classes.get(g, ()) for g in range(n)], relations)


# -- tensor products by elimination: the reference for the product of tables --

def tensor_algebra_by_quotient(a, b):
    """``tensor_algebra`` as a quotient: the factors' relations and degree
    truncations, in disjoint variables, row-reduced by ``quotient_algebra``;
    the embeddings send each basis monomial through ``from_polynomial``.
    Needs factors that record their relations (not deserialized ones)."""
    n = a.n + b.n

    def shift(m, offset):
        return (0,) * offset + tuple(m) + (0,) * (n - offset - len(m))

    relations = []
    for factor, offset in ((a, 0), (b, a.n)):
        relations += [Polynomial(n, {shift(m, offset): c for m, c in r.terms.items()}) for r in factor.relations]
        top = factor.degree_bound + 1
        relations += [Polynomial(n, {shift(m, offset): 1}) for m in all_monomials(factor.n, top) if sum(m) == top]
    c = quotient_algebra(n, a.degree_bound + b.degree_bound, relations)
    assert c.dimension == a.dimension * b.dimension, "tensor construction lost dimensions"

    def embedding(factor, offset):
        def embed(elem):
            out = c.zero()
            for m, coeff in zip(factor.basis, elem.coords):
                if coeff != 0:
                    out = out + c.from_polynomial(Polynomial(n, {shift(m, offset): 1})) * coeff
            return out

        return embed

    return c, embedding(a, 0), embedding(b, a.n)


# -- exact row reduction by re-keying every step --

def monomial_rank(n, degree):
    """The ``rank`` argument of ``_reduce_rows`` for every monomial of degree
    <= degree: its position in ``all_monomials``."""
    return {m: i for i, m in enumerate(all_monomials(n, degree))}


def reduce_rows_by_mono_key(rows, close=None):
    """``_reduce_rows`` without a rank: each step takes
    ``max(row, key=mono_key)`` over the whole row, and every new pivot row
    is divided by its lead coefficient, 1 or not."""
    pivots = {}
    queue = list(rows)
    for given in queue:
        row = dict(given)
        while row:
            lead = max(row, key=mono_key)
            if lead in pivots:
                factor = row[lead]
                for m, c in pivots[lead].items():
                    row[m] = row.get(m, Fraction(0)) - factor * c
                    if row[m] == 0:
                        del row[m]
            else:
                inv = row[lead]
                row = {m: c / inv for m, c in row.items()}
                pivots[lead] = row
                if close is not None:
                    queue.extend(close(given))
                break
    for lead in sorted(pivots, key=mono_key):
        row = pivots[lead]
        for m in list(row):
            if m != lead and m in pivots:
                factor = row.pop(m)
                for mm, cc in pivots[m].items():
                    if mm != m:
                        row[mm] = row.get(mm, Fraction(0)) + (-factor) * cc
                        if row[mm] == 0:
                            del row[mm]
    return pivots


# -- quotients by expanding every relation against every monomial --

def quotient_algebra_by_expansion(n, degree_bound, relations):
    """``quotient_algebra`` with the ideal's part up to the bound spanned
    outright: every relation times every monomial of degree <= bound - 1,
    terms past the bound dropped, then one row reduction with no closure."""
    relations = [r if isinstance(r, Polynomial) else Polynomial(n, r) for r in relations]
    rows = []
    for r in relations:
        if r.is_zero():
            continue
        for m in all_monomials(n, max(degree_bound - 1, 0)):
            truncated = {
                mono_mul(m, mm): c
                for mm, c in r.terms.items()
                if mono_degree(mono_mul(m, mm)) <= degree_bound
            }
            if truncated:
                rows.append(truncated)
    rank = monomial_rank(n, degree_bound)
    return presentation_all_pairs(n, degree_bound, rank, _reduce_rows(rows, rank), relations)


def all_monomials_by_sorting(n, max_degree):
    """``all_monomials`` as the unit and its products with generators,
    max_degree times over, collected in a set and sorted by ``mono_key``."""
    found = {(0,) * n}
    layer = set(found)
    for _ in range(max_degree):
        layer = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in layer for i in range(n)}
        found |= layer
    return sorted(found, key=mono_key)


# -- a recursive interpreter and symbolic calculus on expression trees --

def evaluate_by_tree(e, point, mode=EXACT):
    """``evaluate`` as its own recursion over the tree, every node a scalar
    operation: the reference for the one interpreter behind ``evaluate`` and
    ``jet_eval``."""
    if isinstance(e, Const):
        return float(e.value) if mode == FLOAT else e.value
    if isinstance(e, Var):
        if e.index >= len(point):
            raise ValueError(f"expression uses x{e.index + 1} but the point has {len(point)} coordinates")
        v = point[e.index]
        return float(v) if mode == FLOAT else to_scalar(v)
    if isinstance(e, Add):
        return evaluate_by_tree(e.left, point, mode) + evaluate_by_tree(e.right, point, mode)
    if isinstance(e, Sub):
        return evaluate_by_tree(e.left, point, mode) - evaluate_by_tree(e.right, point, mode)
    if isinstance(e, Mul):
        return evaluate_by_tree(e.left, point, mode) * evaluate_by_tree(e.right, point, mode)
    if isinstance(e, Div):
        num = evaluate_by_tree(e.left, point, mode)
        den = evaluate_by_tree(e.right, point, mode)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return num / den
    if isinstance(e, Pow):
        return evaluate_by_tree(e.base, point, mode) ** e.exponent
    if isinstance(e, Call):
        if mode == EXACT:
            raise ValueError(f"primitive {e.name!r} requires float mode")
        return _math(e.name, evaluate_by_tree(e.arg, point, mode))
    raise TypeError(f"cannot evaluate {e!r}")


def diff(e, i):
    """Symbolic partial derivative with respect to variable ``i`` (0-based)."""
    if isinstance(e, Const):
        return Const(Fraction(0))
    if isinstance(e, Var):
        return Const(Fraction(1) if e.index == i else Fraction(0))
    if isinstance(e, Add):
        return add(diff(e.left, i), diff(e.right, i))
    if isinstance(e, Sub):
        return sub(diff(e.left, i), diff(e.right, i))
    if isinstance(e, Mul):
        return add(mul(diff(e.left, i), e.right), mul(e.left, diff(e.right, i)))
    if isinstance(e, Div):
        num = sub(mul(diff(e.left, i), e.right), mul(e.left, diff(e.right, i)))
        return div(num, pow_(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(Fraction(0))
        return mul(mul(Const(e.exponent), pow_(e.base, e.exponent - 1)), diff(e.base, i))
    if isinstance(e, Call):
        inner = diff(e.arg, i)
        if e.name == "exp":
            outer = Call("exp", e.arg)
        elif e.name == "log":
            return div(inner, e.arg)
        elif e.name == "sin":
            outer = Call("cos", e.arg)
        elif e.name == "cos":
            outer = mul(Const(Fraction(-1)), Call("sin", e.arg))
        elif e.name == "sqrt":
            return div(inner, mul(Const(2), Call("sqrt", e.arg)))
        return mul(outer, inner)
    raise TypeError(f"cannot differentiate {e!r}")


def compose(e, replacements):
    """Substitute expressions for variables (index i -> replacements[i])."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        if e.index >= len(replacements):
            raise ValueError("composition does not cover all variables")
        return replacements[e.index]
    if isinstance(e, Add):
        return add(compose(e.left, replacements), compose(e.right, replacements))
    if isinstance(e, Sub):
        return sub(compose(e.left, replacements), compose(e.right, replacements))
    if isinstance(e, Mul):
        return mul(compose(e.left, replacements), compose(e.right, replacements))
    if isinstance(e, Div):
        return div(compose(e.left, replacements), compose(e.right, replacements))
    if isinstance(e, Pow):
        return pow_(compose(e.base, replacements), e.exponent)
    return Call(e.name, compose(e.arg, replacements))


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
        value = evaluate_by_tree(derivs[alpha], base, mode)
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


def divided_derivatives_by_monomials(d):
    """The divided (Hasse) derivatives of a symbol, by visiting every
    monomial beta up to the symbol's degree and summing
    C(alpha, beta) c_alpha d^(alpha-beta) over the terms alpha >= beta;
    zero derivatives are dropped."""
    out = []
    for beta in all_monomials(d.n, d.degree()):
        terms = {}
        for alpha, c in d.terms.items():
            if all(a >= b for a, b in zip(alpha, beta)):
                gamma = tuple(a - b for a, b in zip(alpha, beta))
                weight = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
                terms[gamma] = terms.get(gamma, Fraction(0)) + c * weight
        dd = Distribution(d.n, terms)
        if not dd.is_zero():
            out.append(dd)
    return out


def subcoalgebra_by_solve(d):
    """``subcoalgebra_generated`` with each comultiplication row found by
    solving the dense system sum c_ij b_i(mu) b_j(nu) = comultiply(b)(mu, nu)."""
    pivots = _reduce_rows([dict(dd.terms) for dd in divided_derivatives_by_monomials(d)], monomial_rank(d.n, d.degree()))
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


def subcoalgebra_by_mono_key(d):
    """``subcoalgebra_generated`` without ranks: the closure by
    ``reduce_rows_by_mono_key``, every derivative multiplied by its
    exponent, and each table row filtered out of all of ``comultiply``."""
    def partials(terms):
        return [{m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in terms.items() if m[i]} for i in range(d.n)]

    pivots = reduce_rows_by_mono_key([d.terms], partials)
    leads = sorted(pivots, key=mono_key)
    basis = [Distribution(d.n, pivots[lead]) for lead in leads]
    index = {lead: i for i, lead in enumerate(leads)}
    comult = tuple(
        dict(sorted(((index[mu], index[nu]), c) for (mu, nu), c in comultiply(b).items() if mu in index and nu in index))
        for b in basis
    )
    return Subcoalgebra(d.n, tuple(basis), comult)


def dual_relations_by_scan(c):
    """The relations ``dual_algebra`` records, built eagerly:
    for each monomial up to the bound that leads no basis element, in
    basis order, scan every pivot row for its coefficient."""
    degree_bound = max(b.degree() for b in c.basis) + 1
    pivots = reduce_rows_by_mono_key([b.terms for b in c.basis])
    relations = []
    for m in all_monomials(c.n, degree_bound):
        if m in pivots:
            continue
        weight = _factorial(m)
        terms = {m: Fraction(1)}
        for lead, row in pivots.items():
            coeff = row.get(m)
            if coeff:
                terms[lead] = -coeff * weight / _factorial(lead)
        relations.append(Polynomial(c.n, terms))
    return relations


def dual_algebra_by_scan(c):
    """``dual_algebra`` of a closed subcoalgebra from the relations of
    ``dual_relations_by_scan``, reduced by ``reduce_rows_by_mono_key``."""
    relations = dual_relations_by_scan(c)
    degree_bound = max(b.degree() for b in c.basis) + 1
    kernel = reduce_rows_by_mono_key([r.terms for r in relations])
    return presentation_all_pairs(c.n, degree_bound, all_monomials(c.n, degree_bound), kernel, relations)


def dual_algebra_by_nullspace(c):
    """``dual_algebra`` with the annihilator taken as the dense kernel of the
    pairing matrix b_k(m) * m!."""
    degree_bound = max((b.degree() for b in c.basis), default=0) + 1
    monos = all_monomials(c.n, degree_bound)
    matrix = [[b.terms.get(m, Fraction(0)) * _factorial(m) for m in monos] for b in c.basis]
    relations = [
        Polynomial(c.n, {monos[i]: v[i] for i in range(len(monos)) if v[i] != 0})
        for v in nullspace(matrix)
    ]
    return quotient_algebra(c.n, degree_bound, relations)


# -- dense solves, the Laplacian as a trace, and Christoffel symbols by the full loop --

def pivot_row_by_magnitude(rows, col, start, exact):
    """``_linalg._pivot_row`` as every magnitude is compared: the first row
    with |a| > 0 when exact, else the first of largest |a|."""
    best, best_mag = None, 0
    for r in range(start, len(rows)):
        mag = abs(rows[r][col])
        if mag > 0 and (exact or mag > best_mag):
            best, best_mag = r, mag
            if exact:
                break
    return best


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
    """trace(G(x)^-1 Hess(f o chart)) in the geodesic chart at x:
    the Hessian is read off the Taylor coefficients of f composed with the
    chart's forward model.  ``f`` is an expression."""
    chart = geodesic_chart(metric, x, mode=mode)
    n = metric.n
    pushed = compose(f, forward_model(chart).components)
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


# -- chart maps as expressions, and the Laplacian from two jets --

def forward_model(chart):
    """The chart's forward map as expressions in the chart coordinates."""
    offsets = chart.push_offsets([Var(i) for i in range(chart.n)])
    return FunctionModel(chart.n, chart.n, tuple(Const(b) + w for b, w in zip(chart.base, offsets)))


def inverse_model(chart):
    """The chart's inverse map as expressions in the manifold coordinates."""
    offsets = [Var(i) - Const(b) for i, b in enumerate(chart.base)]
    return FunctionModel(chart.n, chart.n, chart.pull_offsets(offsets))


def _weighted_point(c, d):
    """Chart coordinates C Z of the universal isotropic point of diag(d),
    by Weil products: the route ``GeodesicChart.laplace_offsets`` replaced.
    Its algebra has exact weights d_1/d_i, also in float mode."""
    return _apply(c, _isotropy_algebra([Fraction(d[0]) / Fraction(v) for v in d]).generators())


def _universal_point(metric, x, mode, eps):
    """The plain geodesic chart at x, the chart coordinates of its universal
    isotropic point (see ``laplace_point``) and d_1, for any mode and any
    nondegenerate (also indefinite) G."""
    chart = geodesic_chart(metric, x, mode=mode, eps=eps)
    return chart, _weighted_point(*chart.frame), chart.frame[1][0]


def scaled_laplace_offsets(chart, t):
    """push(t C Z), the universal isotropic point scaled by t, by
    ``push_offsets`` on the Weil-route chart coordinates t C Z
    (``_weighted_point``), its coordinates in the chart's mode: the scaled
    points that ``GeodesicChart.laplace_offsets`` built in closed form
    before the affine detector read them off one jet."""
    zeta = [g * t for g in _weighted_point(*chart.frame)]
    return tuple(_in_mode(w, chart.mode) for w in chart.push_offsets(zeta))


def laplacian_by_mirror_average(metric, f, x, mode=EXACT, eps=DEFAULT_EPS):
    """``laplacian`` as the paper defines it: f at the universal isotropic
    point z and at its mirror image z', f(x) evaluated on its own, and
    f(z) + f(z') - 2 f(x) checked to have nothing but a Q coordinate, which
    over d_1 is the result.  z and z' are push(C Z) and push(-C Z), both by
    ``scaled_laplace_offsets``."""
    chart = geodesic_chart(metric, x, mode=mode, eps=eps)
    x, d1 = chart.base, chart.frame[1][0]
    n = metric.n
    z, z_mirror = (scaled_laplace_offsets(chart, t) for t in (1, -1))
    f_z = jet_eval(f, x, z, mode)
    f_mirror = jet_eval(f, x, z_mirror, mode)
    combined = f_z + f_mirror - evaluate_by_tree(f, x, mode) * 2
    tol = eps if mode == FLOAT else None
    for c in combined.coords[: n + 1]:
        if not scalars_equal(c, 0, tol):
            raise GeometryError("mirror average has a non-isotropic residue; chart is not geodesic")
    return combined.coords[n + 1] / d1


def preserves_affine_combinations_by_four_jets(metric, f, x, mode=EXACT, eps=DEFAULT_EPS):
    """``preserves_affine_combinations`` with a jet of f at each point: at
    z = push(C Z) and at each s*x + (1-s)*z = push((1-s) C Z), s in
    ``AFFINE_SCALES``, all four built by ``scaled_laplace_offsets``."""
    chart = geodesic_chart(metric, x, mode=mode)
    x, d1 = chart.base, chart.frame[1][0]
    tol = eps if mode == FLOAT else None
    f_z = jet_eval(f, x, scaled_laplace_offsets(chart, 1), mode)
    f_x = f_z.coords[0]
    for s in AFFINE_SCALES:
        s = to_scalar(s, mode)
        lhs = jet_eval(f, x, scaled_laplace_offsets(chart, 1 - s), mode)
        *low, q = (lhs - f_z * (1 - s) - f_x * s).coords
        if not all(scalars_equal(c, 0, tol) for c in (*low, q / d1)):
            return False
    return True


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


def gbar_eval_by_tensor(metric, base, z, y=None, mode=EXACT):
    """``gbar_eval`` from one jet of G at y + e (z-y), in the ambient algebra
    tensored with a square-zero e: G(p) + e D_{z-y}G(p), p = base + y.  The
    sum is formed there and its e-part is halved on the way back to the
    ambient algebra.  Checks only the ambient order, not the pair's."""
    z = tuple(z)
    algebra = z[0].algebra
    if algebra.degree_bound < 3:
        raise GeometryError("extended square distance needs an ambient algebra of order >= 3")
    y = tuple(y) if y is not None else tuple(algebra.zero() for _ in z)
    d = tuple(zz - yy for zz, yy in zip(z, y))
    line = truncated_algebra(1, 1)
    pair, embed, embed_e = tensor_algebra(algebra, line)
    e = embed_e(line.generators()[0])
    dd = [embed(w) for w in d]
    offsets = [embed(w) + v * e for w, v in zip(y, dd)]
    total = _square(dd, {ij: jet_eval(g, base, offsets, mode) for ij, g in metric._upper.items()})
    index = {m: i for i, m in enumerate(algebra.basis)}  # each product monomial is m e^0 or m e^1
    back = [algebra.basis_element(index[m[:-1]]) * (Fraction(1, 2) if m[-1] else 1) for m in pair.basis]
    return _in_mode(sum((v * c for v, c in zip(back, total.coords) if c != 0), start=algebra.zero()), mode)


def is_laplace_neighbor_by_normal_chart(metric, x, z, eps=DEFAULT_EPS):
    """Float isotropy test in an orthonormal chart: coordinates A^-1 zeta,
    A = C diag(d)^-1/2 from the congruence C^T G(x) C = diag(d), so that
    A^T G(x) A = I, and A^-1 by dense solves, must satisfy the plain Laplace
    relations with absolute tolerance ``eps``.  Needs G(x) positive definite."""
    x = tuple(float(c) for c in x)
    chart = geodesic_chart(metric, x, mode=FLOAT, eps=eps)
    c, d = _linalg.congruence(chart.G0)
    assert all(v > 0 for v in d), "the normal chart needs a positive definite G(x)"
    zeta = chart.to_chart(z)
    a_inv = invert([[v / math.sqrt(dj) for v, dj in zip(row, d)] for row in c])
    zero = zeta[0].algebra.zero()
    eta = [sum((w * a for a, w in zip(row, zeta)), start=zero) for row in a_inv]
    check_order_by_multisets(eta, 2, eps)
    return satisfies_laplace_relations(eta, eps)


def conformal_check_by_mat_mul(f, g_src, g_dst, x, mode=EXACT, eps=DEFAULT_EPS):
    """``conformal_check`` with the pullback J^T H J by ``_linalg.mat_mul``
    and the least-squares sums started from the int 0."""
    x = tuple(to_scalar(c, mode) for c in x)
    jets = f.jet(x, truncated_algebra(f.n_in, 1).generators(), mode)
    jac = [list(w.coords[1:f.n_in + 1]) for w in jets]
    if _linalg.det(jac) == 0:
        raise GeometryError("map is singular at the base point")
    fx = tuple(w.coords[0] for w in jets) if mode == EXACT else f.evaluate(x, mode)
    h = g_dst.matrix_at(fx, mode)
    g = g_src.matrix_at(x, mode)
    m = _linalg.mat_mul(_linalg.transpose(jac), _linalg.mat_mul(h, jac))
    n = g_src.n
    pairs = [(m[i][j], g[i][j]) for i in range(n) for j in range(i, n)]
    denom = sum(gv * gv for _, gv in pairs)
    if denom == 0:
        raise GeometryError("source metric vanishes identically at the point")
    k = sum(mv * gv for mv, gv in pairs) / denom
    tol = eps if mode == FLOAT else None
    ok = scalars_equal(max(abs(mv - k * gv) for mv, gv in pairs), 0, tol) and k > 0
    return ConformalReport(ok, k if ok else None, ok and scalars_equal(k, 1, tol), mode, tol)


def conformal_check_by_ratio(f, g_src, g_dst, x):
    """Exact ``conformal_check`` with k the first nonzero ratio m_ij / g_ij
    over the upper triangle, and every pair then tested against it."""
    x = tuple(to_scalar(c) for c in x)
    jac = f.jacobian(x, EXACT)
    if _linalg.det(jac) == 0:
        raise GeometryError("map is singular at the base point")
    h = g_dst.matrix_at(f.evaluate(x, EXACT))
    g = g_src.matrix_at(x)
    m = _linalg.mat_mul(_linalg.transpose(jac), _linalg.mat_mul(h, jac))
    n = g_src.n
    pairs = [(m[i][j], g[i][j]) for i in range(n) for j in range(i, n)]
    k = next((mv / gv for mv, gv in pairs if gv != 0), None)
    if k is None:
        raise GeometryError("source metric vanishes identically at the point")
    ok = all(mv == k * gv for mv, gv in pairs) and k > 0
    return ConformalReport(ok, k if ok else None, ok and k == 1, EXACT, None)


# -- plane-map detectors through separate jets: the reference for the one-jet detectors --

def preserves_laplace_neighbors_by_jacobian(f, x, mode=EXACT, eps=DEFAULT_EPS):
    """``preserves_laplace_neighbors`` with the Jacobian from its own jet in
    ``truncated_algebra(n, 1)`` and the offsets taken from f(x) as evaluated."""
    if f.n_in != f.n_out:
        raise ValueError("isotropy preservation needs a self-map dimension-wise")
    x = tuple(to_scalar(c, mode) for c in x)
    if _linalg.det(f.jacobian(x, mode)) == 0:
        raise GeometryError("map is singular at the base point")
    image = f.jet(x, laplace_algebra(f.n_in).generators(), mode)
    offsets = [w - v for w, v in zip(image, f.evaluate(x, mode))]
    return satisfies_laplace_relations(offsets, eps if mode == FLOAT else None)


def cr_check_by_laplacians(f, x, mode=EXACT, eps=DEFAULT_EPS):
    """``cr_check`` with the Jacobian from its own jet, harmonicity from two
    ``is_harmonic_at`` Laplacians on the flat plane, and the first-order
    identity checked on a third jet against f(x) as evaluated."""
    if f.n_in != 2 or f.n_out != 2:
        raise ValueError("the Cauchy-Riemann detector expects a plane map")
    x = tuple(to_scalar(c, mode) for c in x)
    jac = f.jacobian(x, mode)
    tol = eps if mode == FLOAT else None
    cr = scalars_equal(jac[0][0], jac[1][1], tol) and scalars_equal(jac[0][1], -jac[1][0], tol)
    orientation = _linalg.det(jac) > 0
    flat = MetricField.standard_flat(2)
    harmonic = all(is_harmonic_at(flat, comp, x, mode=mode, eps=eps) for comp in f.components)
    derivative = None
    if cr and orientation and harmonic:
        a, b = jac[0][0], jac[1][0]
        gens = laplace_algebra(2).generators()
        fx = f.evaluate(x, mode)
        expected = (fx[0] + gens[0] * a - gens[1] * b, fx[1] + gens[0] * b + gens[1] * a)
        for got, want in zip(f.jet(x, gens, mode), expected):
            if not (got - want).is_zero(tol):
                raise GeometryError("complex derivative failed to reproduce the map on the isotropic point")
        derivative = (a, b)
    return CRReport(cr and orientation, derivative, cr, orientation, harmonic, mode, tol)


# -- the chart correction with every Christoffel term: the reference for the paired terms --

def half_gamma_all_terms(chart, w):
    """1/2 Gamma(w, w) read off the full Christoffel array, each nonzero
    symbol Gamma^i_jk and Gamma^i_kj added on its own."""
    return [
        sum(w[j] * w[k] * g for j, row in enumerate(plane) for k, g in enumerate(row) if g != 0) * Fraction(1, 2)
        for plane in chart.gamma
    ]


def push_offsets_all_terms(chart, zeta):
    """``GeodesicChart.push_offsets`` with ``half_gamma_all_terms``, the
    identity linear part applied as a matrix."""
    az = _apply(_linalg.identity(chart.n), zeta)
    return tuple(a - c for a, c in zip(az, half_gamma_all_terms(chart, az)))


# -- the chart's products formed where they are used: the references for the shared ones --

def half_gamma_per_term(chart, w):
    """1/2 Gamma(w, w) over the chart's first-kind terms, each pair product
    w_j w_k formed anew for every term that uses it, then G(x)^-1 applied
    as the chart applies it."""
    return _apply(chart.ginv, [sum(w[j] * w[k] * c for j, k, c in terms) for terms in chart._lowered])


def half_gamma_dense_first_kind(chart, w):
    """1/2 Gamma(w, w) as dense first-kind sums, every pair j <= k with the
    chart's coefficient or 0, times the dense G(x)^-1."""
    n = chart.n
    coeffs = [{(j, k): c for j, k, c in terms} for terms in chart._lowered]
    lowered = [sum(w[j] * w[k] * coeff.get((j, k), 0) for j in range(n) for k in range(j, n)) for coeff in coeffs]
    return apply_dense(chart.ginv, lowered)


def push_offsets_per_term(chart, zeta):
    return tuple(a - c for a, c in zip(zeta, half_gamma_per_term(chart, zeta)))


def ginv_by_rows(c, d):
    """G(x)^-1 = C diag(1/d) C^T entry by entry, each entry summed over k in
    increasing order from the zero of d's type, skipping a k where c_ik or
    c_jk is zero.  The additions run left to right, as the built-in ``sum``
    of Python 3.10 and 3.11 does (3.12 compensates float sums)."""
    n = len(d)
    zero = d[0] - d[0]
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][k] and c[j][k]:
                    out[i][j] = out[i][j] + c[i][k] * c[j][k] / d[k]
    return out


def ginv_by_columns(c, d):
    """G(x)^-1 = C diag(1/d) C^T as ``GeodesicChart`` accumulated it before
    ``geometry._inverse``: every entry, below the diagonal too, starts from
    the zero of d's type and adds c_ik * c_jk / d_k in increasing k over the
    rows where column k of C is nonzero, with no factor or divisor 1
    skipped."""
    n = len(d)
    zero = d[0] - d[0]
    ginv = [[zero] * n for _ in range(n)]
    for k in range(n):
        rows = [i for i in range(n) if c[i][k]]
        for i in rows:
            for j in rows:
                ginv[i][j] = ginv[i][j] + c[i][k] * c[j][k] / d[k]
    return ginv


def congruence_dense(a):
    """``_linalg.congruence`` as it was before it skipped zero source
    entries: the frame starts from a fresh ``Fraction(1)`` (1.0 in float
    mode), and ``add_column`` adds t * y to every entry of the column and
    the row, y = 0 included."""
    n = len(a)
    exact = not any(isinstance(x, float) for row in a for x in row)
    m = [list(row) for row in a]
    c = _linalg.identity(n, Fraction(1) if exact else 1.0)

    def add_column(dst, src, t):
        for row in (*m, *c):
            row[dst] += t * row[src]
        m[dst] = [x + t * y for x, y in zip(m[dst], m[src])]

    for k in range(n):
        j = _linalg._pivot_row(m, k, k + 1, exact)
        if j is not None and abs(m[k][k]) <= (0 if exact else abs(m[j][k]) / 2):
            add_column(k, j, -1 if m[k][j] * m[j][j] < 0 else 1)
        elif m[k][k] == 0:
            raise ZeroDivisionError("singular matrix")
        for j in range(k + 1, n):
            if m[k][j] != 0:
                add_column(j, k, -m[k][j] / m[k][k])
    return c, [m[k][k] for k in range(n)]


def product_without_one_test(x, y):
    """``WeilElement.__mul__`` before it took the other factor of
    ``weil._ONE`` as it is.  A scalar y: x itself for y == 1, else a * y
    for every nonzero coordinate a.  An element y: every pair of nonzero
    coordinates forms a * b; the rest is as there (constants 1 add a * b
    itself, the first term of a coordinate as ``Fraction(0) + t`` leaves
    it)."""
    if not isinstance(y, WeilElement):
        return x if y == 1 else WeilElement(x.algebra, [a * y if a else a for a in x.coords])
    table = x.algebra._table
    out = [None] * x.algebra.dimension
    right = [(j, b) for j, b in enumerate(y.coords) if b]
    for i, a in enumerate(x.coords):
        if not a:
            continue
        row = table[i]
        for j, b in right:
            entry = row[j]
            if not entry:
                continue
            ab = a * b
            for k, c in entry:
                t = ab if c == 1 else ab * c
                out[k] = Fraction(0) + t if out[k] is None else out[k] + t
    return WeilElement(x.algebra, [Fraction(0) if o is None else o for o in out])


def shift_by_addition(w, s):
    """w + s for a scalar s as ``WeilElement._shift`` formed it before an
    exact zero unit coordinate took s as it is: coordinate 0 plus s."""
    return w if not s else WeilElement(w.algebra, (w.coords[0] + s,) + w.coords[1:])


def check_order_by_multisets(offsets, order, eps=None):
    """``_check_order`` forming every product, whatever the degree bound:
    each (order+1)-fold product of the offsets over a nondecreasing index
    sequence must vanish, else GeometryError."""
    elems = list(offsets)
    frontier = list(enumerate(elems))  # (index of the last factor, product)
    for _ in range(order):
        frontier = [(j, p * elems[j]) for i, p in frontier for j in range(i, len(elems))]
    for _, p in frontier:
        if not p.is_zero(eps):
            raise GeometryError(f"point is not an order-{order} neighbor of the base")


def check_order_all_sequences(offsets, order, eps=None):
    """Whether every ordered (order+1)-fold product of the offsets, started
    from the unit, vanishes."""
    elems = list(offsets)
    frontier = [elems[0].algebra.one()]
    for _ in range(order + 1):
        frontier = [p * w for p in frontier for w in elems]
    return all(p.is_zero(eps) for p in frontier)


def generators_from_normal_forms(algebra):
    """The generators Z_1..Z_n built on every call from the basis labels:
    Z_i is the basis element labelled e_i."""
    labels = [tuple(int(j == i) for j in range(algebra.n)) for i in range(algebra.n)]
    return [algebra.basis_element(algebra.basis.index(e)) for e in labels]


def product_by_fraction_loop(x, y):
    """The product of two Weil elements as ``WeilElement.__mul__`` formed it
    while table constants were ``Fraction``s: each output coordinate starts
    at ``Fraction(0)`` and every table term adds ``ab * c``, also c = 1."""
    dim = x.algebra.dimension
    table = x.algebra._table
    out = [Fraction(0)] * dim
    right = [(j, b) for j, b in enumerate(y.coords) if b]
    for i, a in enumerate(x.coords):
        if not a:
            continue
        row = table[i]
        for j, b in right:
            entry = row[j]
            if not entry:  # the two basis monomials multiply to 0
                continue
            ab = a * b
            for k, c in entry:
                out[k] = out[k] + ab * c
    return WeilElement(x.algebra, out)


def check_nilpotent(algebra):
    """ValueError unless each nonunit basis element is nilpotent: raised to
    powers, with up to dim products each.  ``algebra_from_json`` ran this
    until it read the powers of the nonunit part off the table."""
    for i, m in enumerate(algebra.basis):
        if sum(m) == 0:
            continue
        elem = algebra.basis_element(i)
        power = elem
        for _ in range(len(algebra.basis) + 1):
            if power.is_zero():
                break
            power = power * elem
        else:
            raise ValueError(f"basis monomial {m} is not nilpotent; not a Weil algebra")


def is_weil_document_by_brute_force(doc):
    """Whether an ``algebra_to_json`` document, of the right shape,
    presents a Weil algebra with its degree bound: distinct basis monomials,
    the unit first, table indices in range, a symmetric table whose unit row
    fixes each basis element, (b_i b_j) b_k = b_i (b_j b_k) on every basis
    triple, each nonunit basis element nilpotent (``check_nilpotent``),
    every product of bound + 1 nonunit basis elements zero, and every label
    Z^m, its exponents non-negative, equal to the product of the basis
    elements labelled by its generators: b_m = prod over g of b_(e_g)^m_g."""
    n, bound = doc["n"], doc["degree_bound"]
    basis = [tuple(m) for m in doc["basis"]]
    dim = len(basis)
    table = [[tuple((k, Fraction(c)) for c, k in entry) for entry in row] for row in doc["table"]]
    if len(set(basis)) != dim or basis[0] != (0,) * n:
        return False
    if any(not 0 <= k < dim for row in table for entry in row for k, _ in entry):
        return False
    if any(table[i][j] != table[j][i] for i in range(dim) for j in range(dim)):
        return False
    if any(table[0][i] != ((i, 1),) for i in range(dim)):
        return False
    algebra = WeilAlgebra(n, bound, basis, table, (), ())
    b = [algebra.basis_element(i) for i in range(dim)]
    if any((x * y) * z != x * (y * z) for x in b for y in b for z in b):
        return False
    try:
        check_nilpotent(algebra)
    except ValueError:
        return False
    products = {w.coords: w for w in b[1:]}
    for _ in range(bound):
        products = {p.coords: p for p in (w * x for w in products.values() for x in b[1:]) if not p.is_zero()}
    if products:
        return False
    labelled = dict(zip(basis, b))
    for m, x in labelled.items():
        product = algebra.one()
        for g, e in enumerate(m):
            e_g = tuple(int(h == g) for h in range(n))
            if e < 0 or (e and e_g not in labelled):
                return False
            if e:
                product = product * labelled[e_g] ** e
        if product != x:
            return False
    return True


def satisfies_isotropy_by_ginv(zs, ginv, eps=None):
    """True iff z_i z_j = lam * ginv[i][j] for one lam (and, one generator
    only, z^3 = 0), for any symmetric ``ginv``: cross-multiplied against its
    largest entry ginv[p][q], z_i z_j ginv[p][q] = z_p z_q ginv[i][j].  The
    general-matrix test that ``weil._satisfies_isotropy`` ran until it took
    the diagonal of the chart's congruence frame instead."""
    zs = list(zs)
    n = len(zs)
    if n == 0:
        raise ValueError("empty point")
    for z in zs:
        if z.algebra != zs[0].algebra:
            raise ValueError("point coordinates live in different algebras")
        if not z.is_nilpotent(eps):
            raise ValueError("point coordinates must be nilpotent")
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    p, q = max(pairs, key=lambda ij: abs(ginv[ij[0]][ij[1]]))
    pivot, pivot_product = ginv[p][q], zs[p] * zs[q]
    for i, j in pairs:
        residue = zs[i] * zs[j] * pivot
        if ginv[i][j] != 0:
            residue = residue - pivot_product * ginv[i][j]
        if not residue.is_zero(eps):
            return False
    return n > 1 or (zs[0] * zs[0] * zs[0]).is_zero(eps)


def is_laplace_neighbor_by_ginv(metric, x, z, mode=EXACT, eps=DEFAULT_EPS):
    """``is_laplace_neighbor`` on the general matrices: exact mode tests the
    plain chart coordinates against the chart's G(x)^-1, float mode the
    orthonormal eta against diag(sign d) as a full matrix, both with
    ``satisfies_isotropy_by_ginv``."""
    chart = geodesic_chart(metric, x, mode, eps)
    tol = eps if mode == FLOAT else None
    zeta = chart.to_chart(z)
    check_order_by_multisets(zeta, 2, tol)
    if mode == EXACT:
        return satisfies_isotropy_by_ginv(zeta, chart.ginv)
    c, d = chart.frame
    frame = _linalg.mat_mul(_linalg.transpose(c), chart.G0)
    eta = _apply([[f / math.sqrt(abs(dk)) for f in row] for row, dk in zip(frame, d)], zeta)
    unit = max(abs(v) for w in eta for v in (w * w).coords)
    if unit > 0:
        eta = [w * (1 / math.sqrt(unit)) for w in eta]
    signs = [[math.copysign(1.0, dk) if i == k else 0.0 for k in range(len(d))] for i, dk in enumerate(d)]
    return satisfies_isotropy_by_ginv(eta, signs, tol)


def check_table_by_square(algebra):
    """``WeilAlgebra._check_table`` in its earlier order, with the
    generators read off the table rather than the labels: the shape, index,
    symmetry and unit-row checks; S, the nonunit basis elements that lead no
    row of the reduced span of N^2, whatever the labels say; the layers
    W_1 = span S, W_(k+1) = span(S W_k), against the degree bound, and then
    their reduced span, which must be N; Light's test on S; the labels last."""
    table, basis, dim = algebra._table, algebra.basis, len(algebra.basis)
    index = {m: i for i, m in enumerate(basis)}
    if len(index) != dim:
        raise ValueError("basis monomials are not distinct")
    for i, row in enumerate(table):
        for j, entry in enumerate(row):
            if any(not 0 <= k < dim for k, _ in entry):
                raise ValueError(f"table entry ({i}, {j}) names a basis index outside 0..{dim - 1}")
            if entry != table[j][i]:
                raise ValueError(f"multiplication table is not symmetric at ({i}, {j})")
        if table[0][i] != ((i, 1),):
            raise ValueError(f"unit row of the table does not fix basis element {i}")
    nonzero = [[k for k, entry in enumerate(row) if entry] for row in table]
    rank = {m: mono_key(m) for m in basis}
    entries = {e for row in table[1:] for e in row[1:] if e}
    square = _reduce_rows(({basis[k]: Fraction(c) for k, c in e if c} for e in entries), rank)
    gens = dict.fromkeys(s for s in range(1, dim) if basis[s] not in square)
    layer, span, k = [{basis[s]: Fraction(1)} for s in gens], [], 1
    while layer and k < dim:
        if k > algebra.degree_bound:
            raise ValueError(f"a product of {k} nonunit basis elements is not 0:"
                             f" degree bound {algebra.degree_bound} is too small")
        span += layer
        products = (algebra._times([(index[m], c) for m, c in row.items()], s) for row in layer for s in gens)
        layer = list(_reduce_rows(({basis[q]: v for q, v in p.items()} for p in products), rank).values())
        k += 1
    span = _reduce_rows(span, rank)
    if layer or len(span) != dim - 1 or any(basis[0] in row for row in span.values()):
        raise ValueError("the nonunit basis elements are not nilpotent; not a Weil algebra")
    algebra._check_associative(gens, nonzero)
    for i, m in enumerate(basis):
        if any(e < 0 for e in m):
            raise ValueError(f"basis label {list(m)} has a negative exponent")
        if sum(m) > 1:
            g = next(g for g, e in enumerate(m) if e)
            e_g = tuple(int(h == g) for h in range(len(m)))
            unit, rest = index.get(e_g), index.get(m[:g] + (m[g] - 1,) + m[g + 1:])
            if unit is None or rest is None or table[rest][unit] != ((i, 1),):
                raise ValueError(f"basis label {list(m)} is not the product it names")
