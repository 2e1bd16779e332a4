"""Small dense linear algebra over exact rationals or floats.

Matrices are lists of row lists.  Sizes here never exceed a few dozen, so
plain Gaussian elimination is all we need; keeping one code path for
Fraction and float avoids dtype surprises.  Two eliminations live here:
``congruence`` diagonalizes a symmetric matrix (every metric quantity is
read off it), and ``det`` serves the non-symmetric Jacobians and
``weil.algebra_isomorphism``.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n, one=Fraction(1)):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def transpose(a):
    return [list(col) for col in zip(*a)]


def _pivot_row(rows, col, start, exact):
    best, best_mag = None, 0
    for r in range(start, len(rows)):
        mag = abs(rows[r][col])
        if mag > 0 and (exact or mag > best_mag):
            best, best_mag = r, mag
            if exact:
                break
    return best


def det(a):
    n = len(a)
    exact = not any(isinstance(x, float) for row in a for x in row)
    m = [list(row) for row in a]
    result = Fraction(1)
    for col in range(n):
        piv = _pivot_row(m, col, col, exact)
        if piv is None or m[piv][col] == 0:
            return 0 * result
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            result = -result
        result = result * m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / m[col][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return result


def congruence(a):
    """C and d with C^T a C = diag(d) for symmetric nonsingular a: LDL^T
    elimination with no square root, so exact stays exact and a may be
    indefinite.  A zero pivot a_kk (in float mode, one below half of the
    largest a_jk under it) takes +-column j, the sign making a_kk grow by
    2|a_kj| + |a_jj| (to 2 a_kj when a_kk = a_jj = 0)."""
    n = len(a)
    exact = not any(isinstance(x, float) for row in a for x in row)
    m = [list(row) for row in a]
    c = identity(n, Fraction(1) if exact else 1.0)

    def add_column(dst, src, t):  # column and row dst += t * src in m; column in c
        for row in (*m, *c):
            row[dst] += t * row[src]
        m[dst] = [x + t * y for x, y in zip(m[dst], m[src])]

    for k in range(n):
        j = _pivot_row(m, k, k + 1, exact)
        if j is not None and abs(m[k][k]) <= (0 if exact else abs(m[j][k]) / 2):
            add_column(k, j, -1 if m[k][j] * m[j][j] < 0 else 1)
        elif m[k][k] == 0:
            raise ZeroDivisionError("singular matrix")
        for j in range(k + 1, n):
            if m[k][j] != 0:
                add_column(j, k, -m[k][j] / m[k][k])
    return c, [m[k][k] for k in range(n)]
