"""Reference computations made apart from nilgeom.

Everything here uses sympy or plain ``fractions.Fraction`` arithmetic on the
benchmark's own input strings; nothing imports nilgeom.  sympy is imported
lazily because it is only needed after the timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction

FLOAT_TOL = 1e-7


def _sympy():
    import sympy

    return sympy


def symbols(n):
    sp = _sympy()
    return sp.symbols(" ".join(f"x{i + 1}" for i in range(n)), seq=True)


def sym(text, n, prefix="x"):
    """Parse a string of the nilgeom grammar (``^`` for powers) with sympy."""
    sp = _sympy()
    names = {f"{prefix}{i + 1}": s for i, s in enumerate(symbols(n))}
    return sp.parse_expr(text.replace("^", "**"), local_dict=names)


def to_fraction(value) -> Fraction:
    value = _sympy().Rational(value)
    return Fraction(int(value.p), int(value.q))


def close(got, want, tol=FLOAT_TOL) -> bool:
    return abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want)))


# ---------------------------------------------------------------------------
# Laplace-Beltrami: g^{ij} (d_i d_j f - Gamma^k_ij d_k f)
# ---------------------------------------------------------------------------

def laplace_beltrami(metric_rows, f_text, point, exact=True):
    """Classical coordinate formula evaluated at ``point``.

    ``metric_rows`` is the full n x n matrix of entry strings (``None`` means
    the standard flat metric).  Exact mode returns a Fraction, float mode a
    float.
    """
    sp = _sympy()
    n = len(point)
    xs = symbols(n)
    if metric_rows is None:
        metric_rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    g = sp.Matrix(n, n, lambda i, j: sym(metric_rows[min(i, j)][max(i, j)], n))
    f = sym(f_text, n)
    if exact:
        at = {x: sp.Rational(p.numerator, p.denominator) for x, p in zip(xs, map(Fraction, point))}
    else:
        at = {x: sp.Float(float(p), 30) for x, p in zip(xs, point)}

    def val(e):
        return e.subs(at)

    g0 = g.applyfunc(val)
    ginv = g0.inv()
    dg = [[[val(sp.diff(g[l, i], xs[j])) for j in range(n)] for i in range(n)] for l in range(n)]
    df = [val(sp.diff(f, xs[k])) for k in range(n)]
    total = 0
    for i in range(n):
        for j in range(n):
            if ginv[i, j] == 0:
                continue
            term = val(sp.diff(f, xs[i], xs[j]))
            for k in range(n):
                gamma = sum(
                    ginv[k, l] * (dg[l][i][j] + dg[l][j][i] - dg[i][j][l]) for l in range(n)
                ) / 2
                term -= gamma * df[k]
            total += ginv[i, j] * term
    return to_fraction(total) if exact else float(total)


# ---------------------------------------------------------------------------
# Taylor coefficients d^alpha f(base) / alpha!
# ---------------------------------------------------------------------------

def taylor_exact(text, n, base, order):
    """Exact Taylor coefficients of a rational function, as the truncated
    power series of f(base + y) computed in sympy's QQ[y] ring."""
    sp = _sympy()
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    ys_names = ",".join(f"y{i}" for i in range(n))
    r, *ys = ring(ys_names, QQ)
    xs = symbols(n)
    num, den = sp.fraction(sp.together(sym(text, n)))
    shift = {x: sp.Rational(b.numerator, b.denominator) + sp.Symbol(f"y{i}")
             for i, (x, b) in enumerate(zip(xs, base))}

    def to_ring(e):
        return r(sp.expand(e.subs(shift)))

    def trunc(p):
        return r({m: c for m, c in p.items() if sum(m) <= order})

    p_num, p_den = to_ring(num), to_ring(den)
    q0 = dict(p_den.items()).get((0,) * n, QQ(0))
    if q0 == 0:
        raise ZeroDivisionError("denominator vanishes at the base point")
    u = trunc(p_den * (QQ(1) / q0) - 1)
    inverse, term = r(1), r(1)
    for _ in range(order):
        term = trunc(-term * u)
        inverse += term
    series = trunc(p_num * inverse * (QQ(1) / q0))
    return {m: Fraction(int(c.numerator), int(c.denominator)) for m, c in series.items()}


def monomials(n, order):
    if n == 0:
        return [()]
    return [(e,) + rest for e in range(order + 1) for rest in monomials(n - 1, order - e)]


def taylor_float(text, n, base, order):
    """Float Taylor coefficients by repeated sympy differentiation."""
    sp = _sympy()
    xs = symbols(n)
    at = {x: sp.Float(float(b), 30) for x, b in zip(xs, base)}
    derivs = {(0,) * n: sym(text, n)}
    out = {}
    for alpha in sorted(monomials(n, order), key=sum):
        if alpha not in derivs:
            i = next(k for k, a in enumerate(alpha) if a > 0)
            parent = tuple(a - (1 if k == i else 0) for k, a in enumerate(alpha))
            derivs[alpha] = sp.diff(derivs[parent], xs[i])
        fact = math.prod(math.factorial(a) for a in alpha)
        out[alpha] = float(derivs[alpha].subs(at).evalf(20)) / fact
    return out


# ---------------------------------------------------------------------------
# polynomials and complex polynomial maps, in plain Fractions
# ---------------------------------------------------------------------------

def coeff_text(c):
    c = Fraction(c)
    if c.denominator == 1:
        return f"({c.numerator})" if c < 0 else str(c.numerator)
    return f"({c.numerator}/{c.denominator})"


def poly_text(terms, prefix="x"):
    """Render {exponent tuple: Fraction} in the nilgeom grammar."""
    parts = []
    for mono, c in sorted(terms.items()):
        factors = [coeff_text(c)]
        factors += [f"{prefix}{i + 1}^{e}" for i, e in enumerate(mono) if e]
        parts.append("*".join(factors))
    return "+".join(parts) if parts else "0"


def poly_value(terms, point):
    total = Fraction(0)
    for mono, c in terms.items():
        v = c
        for x, e in zip(point, mono):
            v *= Fraction(x) ** e
        total += v
    return total


def complex_poly_parts(coeffs):
    """Real and imaginary parts of p(x1 + i x2) = sum a_k z^k, a_k = (re, im)."""
    re, im = {}, {}
    for k, (a, b) in enumerate(coeffs):
        for j in range(k + 1):
            binom = math.comb(k, j)
            # (i x2)^j = i^j x2^j; i^j cycles 1, i, -1, -i
            unit = [(1, 0), (0, 1), (-1, 0), (0, -1)][j % 4]
            # (a + ib) * unit
            cr = a * unit[0] - b * unit[1]
            ci = a * unit[1] + b * unit[0]
            mono = (k - j, j)
            for target, c in ((re, cr), (im, ci)):
                if c:
                    target[mono] = target.get(mono, Fraction(0)) + binom * Fraction(c)
    return ({m: c for m, c in re.items() if c}, {m: c for m, c in im.items() if c})


def complex_derivative(coeffs, point):
    """p'(x1 + i x2) as a pair of Fractions."""
    z = (Fraction(point[0]), Fraction(point[1]))

    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    total = (Fraction(0), Fraction(0))
    power = (Fraction(1), Fraction(0))
    for k in range(1, len(coeffs)):
        a, b = coeffs[k]
        term = mul((Fraction(k * a), Fraction(k * b)), power)
        total = (total[0] + term[0], total[1] + term[1])
        power = mul(power, z)
    return total


# ---------------------------------------------------------------------------
# distributions: binomial comultiplication, pairing, generated dimension
# ---------------------------------------------------------------------------

def binomial_coproduct(terms):
    """Delta(d^alpha) = sum over beta <= alpha of C(alpha, beta) d^beta (x) d^(alpha-beta)."""
    out = {}
    for alpha, c in terms.items():
        for beta in _below(alpha):
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            w = c * math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
            out[(beta, gamma)] = out.get((beta, gamma), Fraction(0)) + w
    return {k: v for k, v in out.items() if v}


def _below(alpha):
    if not alpha:
        return [()]
    return [(b,) + rest for b in range(alpha[0] + 1) for rest in _below(alpha[1:])]


def pairing(dist_terms, poly_terms):
    """<d, f> = sum of d_alpha f_alpha alpha!."""
    return sum(
        (c * poly_terms.get(alpha, 0) * math.prod(math.factorial(a) for a in alpha)
         for alpha, c in dist_terms.items()),
        Fraction(0),
    )


def _derivative_rows(terms, n):
    """Coefficient vectors of every partial derivative of the symbol."""
    sp = _sympy()
    xs = symbols(n)
    p = sum(sp.Rational(c.numerator, c.denominator) * sp.prod([x ** e for x, e in zip(xs, m)])
            for m, c in terms.items())
    degree = max(sum(m) for m in terms)
    monos = monomials(n, degree)
    rows = []
    for alpha in monos:
        d = sp.diff(p, *[x for x, e in zip(xs, alpha) for _ in range(e)]) if sum(alpha) else p
        poly = sp.Poly(d, *xs) if d != 0 else None
        coeffs = dict(poly.terms()) if poly is not None else {}
        rows.append([coeffs.get(m, 0) for m in monos])
    return rows, monos


def derivative_span(terms, n, candidates):
    """The dimension of the span of all derivatives of the symbol, and
    whether every candidate ({monomial: coeff}) lies in that span; both by
    rank in sympy."""
    sp = _sympy()
    rows, monos = _derivative_rows(terms, n)
    rank = sp.Matrix(rows).rank()
    if any(m not in monos for cand in candidates for m in cand):
        return rank, False
    extra = [[sp.Rational(cand.get(m, Fraction(0)).numerator, cand.get(m, Fraction(0)).denominator)
              for m in monos] for cand in candidates]
    return rank, sp.Matrix(rows + extra).rank() == rank


def quotient_dimension(relations, n, bound):
    """dim of k[x]/(relations) truncated at total degree ``bound``, by the
    rank of the ideal's span in sympy."""
    sp = _sympy()
    monos = monomials(n, bound)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for rel in relations:
        for m in monomials(n, bound):
            row = [0] * len(monos)
            for mono, c in rel.items():
                prod = tuple(a + b for a, b in zip(m, mono))
                if sum(prod) <= bound:
                    row[index[prod]] += sp.Rational(c.numerator, c.denominator)
            if any(row):
                rows.append(row)
    return len(monos) - (sp.Matrix(rows).rank() if rows else 0)
