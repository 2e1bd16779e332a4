"""Distributions supported at the origin, and the coalgebra they span.

A distribution here is a constant-coefficient differential operator
followed by evaluation at 0, stored as a polynomial in derivative symbols.
Multiplication of test polynomials dualizes to a comultiplication on these
functionals (the generalized Leibniz rule); each distribution spans a
finite-dimensional subcoalgebra, computed as the span of the divided
derivatives of its symbol.  Dualizing that subcoalgebra back yields a Weil
algebra: starting from the sum of pure second derivatives, this loop lands,
up to an explicit table isomorphism, on ``laplace_algebra(n)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .scalars import Scalar
from .weil import (
    Polynomial,
    WeilAlgebra,
    _check_dimension,
    _presentation,
    _reduce_rows,
    all_monomials,
    mono_degree,
    mono_key,
    unit_monomial,
)


class Distribution:
    """Linear functional on polynomials: apply a symbol of derivatives, then
    evaluate at the origin."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    self.terms[tuple(mono)] = coeff

    @classmethod
    def from_polynomial(cls, symbol: Polynomial) -> "Distribution":
        return cls(symbol.n, symbol.terms)

    def symbol(self) -> Polynomial:
        return Polynomial(self.n, self.terms)

    def apply(self, f: Polynomial) -> Scalar:
        """Sum of c_alpha * (d^alpha f)(0): pairs ``d^alpha`` with ``X^alpha``
        against the factorial weight alpha!."""
        if f.n != self.n:
            raise ValueError("polynomial arity does not match the distribution")
        total = Fraction(0)
        for alpha, c in self.terms.items():
            coeff = f.terms.get(alpha)
            if coeff:
                total += c * coeff * _factorial(alpha)
        return total

    def degree(self):
        return max((mono_degree(m) for m in self.terms), default=0)

    def counit(self) -> Scalar:
        """Action on the constant polynomial 1."""
        return self.terms.get(unit_monomial(self.n), Fraction(0))

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Distribution(self.n, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Distribution(self.n, out)

    def __mul__(self, scalar):
        return Distribution(self.n, {m: c * scalar for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Distribution) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def is_zero(self):
        return not self.terms

    def to_string(self) -> str:
        return self.symbol().to_string("d")

    def __repr__(self):
        return f"Distribution({self.to_string()})"


def _factorial(mono):
    out = 1
    for e in mono:
        out *= math.factorial(e)
    return out


def dirac(n: int) -> Distribution:
    """Evaluation at the origin."""
    return Distribution(n, {unit_monomial(n): 1})


def coordinate_derivative(n: int, i: int) -> Distribution:
    return Distribution(n, {tuple(1 if j == i else 0 for j in range(n)): 1})


def laplace_distribution(n: int) -> Distribution:
    """f maps to the sum of its pure second partials at 0."""
    return Distribution(n, {tuple(2 if j == i else 0 for j in range(n)): 1 for i in range(n)})


# ---------------------------------------------------------------------------
# comultiplication
# ---------------------------------------------------------------------------

def comultiply(d: Distribution) -> dict:
    """The tensor T with d(f*g) = sum of T'(f) * T''(g) over its terms.

    For a single derivative symbol the expansion is binomial:
    psi(d^alpha) = sum over beta <= alpha of C(alpha, beta)
    d^beta (x) d^(alpha-beta); extended linearly.  Keys are pairs of
    exponent vectors.
    """
    out = {}
    for alpha, c in d.terms.items():
        for beta in _sub_multi_indices(alpha):
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            w = c * _multi_binomial(alpha, beta)
            key = (beta, gamma)
            out[key] = out.get(key, Fraction(0)) + w
            if out[key] == 0:
                del out[key]
    return out


def _sub_multi_indices(alpha):
    if not alpha:
        yield ()
        return
    for first in range(alpha[0] + 1):
        for rest in _sub_multi_indices(alpha[1:]):
            yield (first,) + rest


def _multi_binomial(alpha, beta):
    out = 1
    for a, b in zip(alpha, beta):
        out *= math.comb(a, b)
    return out


def leibniz_expand(d: Distribution, f: Polynomial, g: Polynomial) -> Scalar:
    """Evaluate d on a product through the comultiplication tensor."""
    total = Fraction(0)
    for (mu, nu), c in comultiply(d).items():
        total += c * Distribution(d.n, {mu: 1}).apply(f) * Distribution(d.n, {nu: 1}).apply(g)
    return total


# ---------------------------------------------------------------------------
# generated subcoalgebras
# ---------------------------------------------------------------------------

class Subcoalgebra(Record):
    """Span of distributions closed under comultiplication.

    Fields ``n``, ``basis`` and ``comult``; ``comult[i]`` expands the
    comultiplication of ``basis[i]`` in basis-pair coordinates: a map
    (j, k) -> coefficient.
    """

    __slots__ = ("n", "basis", "comult")

    @property
    def dimension(self):
        return len(self.basis)


def divided_derivatives(d: Distribution) -> list:
    """All nonzero divided (Hasse) derivatives of the symbol, d included."""
    out = []
    max_deg = d.degree()
    _check_dimension(d.n, max_deg)
    for beta in all_monomials(d.n, max_deg):
        terms = {}
        for alpha, c in d.terms.items():
            if all(a >= b for a, b in zip(alpha, beta)):
                terms_key = tuple(a - b for a, b in zip(alpha, beta))
                terms[terms_key] = terms.get(terms_key, Fraction(0)) + c * _multi_binomial(alpha, beta)
        dd = Distribution(d.n, terms)
        if not dd.is_zero():
            out.append(dd)
    return out


def subcoalgebra_generated(d: Distribution) -> Subcoalgebra:
    """Smallest subcoalgebra containing d, with its comultiplication table.

    The span of all divided derivatives of the symbol is comultiplication
    closed; row reduction gives a reduced echelon basis ordered by lead
    monomial.  Each lead occurs, with coefficient 1, in its own basis
    element only, so the coefficient of b_i (x) b_j in the comultiplication
    of b is the coefficient of (lead_i, lead_j); recomposing the table
    checks that nothing escaped the span.
    """
    pivots = _reduce_rows([dd.terms for dd in divided_derivatives(d)])
    leads = sorted(pivots, key=mono_key)
    basis = [Distribution(d.n, pivots[lead]) for lead in leads]
    index = {lead: i for i, lead in enumerate(leads)}
    comult_rows = []
    for b in basis:
        tensor = comultiply(b)
        row = dict(sorted(
            ((index[mu], index[nu]), c)
            for (mu, nu), c in tensor.items()
            if mu in index and nu in index
        ))
        recomposed = {}
        for (i, j), c in row.items():
            for mu, ci in basis[i].terms.items():
                for nu, cj in basis[j].terms.items():
                    recomposed[(mu, nu)] = recomposed.get((mu, nu), Fraction(0)) + c * ci * cj
        if {key: v for key, v in recomposed.items() if v != 0} != tensor:
            raise AssertionError("comultiplication escaped the generated span")
        comult_rows.append(row)
    return Subcoalgebra(d.n, tuple(basis), tuple(comult_rows))


# ---------------------------------------------------------------------------
# the dual Weil algebra
# ---------------------------------------------------------------------------

def dual_algebra(c: Subcoalgebra, degree_bound: int | None = None) -> WeilAlgebra:
    """Quotient of the polynomial ring by the annihilator of the subcoalgebra.

    The pairing of d^alpha with x^beta is alpha! when alpha = beta and 0
    otherwise.  With the basis in reduced echelon form (b_k with lead
    monomial lead_k), the annihilator in degrees <= degree_bound is spanned
    by one relation per non-lead monomial m:
    x^m - sum over k of b_k[m] * m!/lead_k! * x^lead_k.
    These relations are linearly independent, so their span has
    codimension dim c.  When c is closed under comultiplication its
    annihilator is an ideal, and this span is all of its part up to the
    bound; the ideal the relations generate adds nothing, so reducing the
    relations alone gives the reduced echelon form, and with it the basis
    and normal forms, that ``quotient_algebra`` would.

    A hand-built ``Subcoalgebra`` need not be closed, and then the span is
    no ideal.  The guard multiplies every reduced relation by every
    generator and requires the product, truncated at the bound, to reduce
    to zero; a basis without the counit (evaluation at 0) would put 1 in
    the annihilator.  Both raise ValueError, as does a linearly dependent
    basis, which leaves the quotient too large.
    """
    if not c.basis:
        raise ValueError(
            "the zero subcoalgebra is annihilated by 1; its dual is not a Weil algebra"
        )
    max_deg = max(b.degree() for b in c.basis)
    if degree_bound is None:
        degree_bound = max_deg + 1
    if degree_bound < max_deg + 1:
        raise ValueError(
            f"degree bound {degree_bound} cannot present the dual algebra; need >= {max_deg + 1}"
        )
    _check_dimension(c.n, degree_bound)
    pivots = _reduce_rows([b.terms for b in c.basis])
    if unit_monomial(c.n) not in pivots:
        raise ValueError(
            "the basis does not span the counit, so 1 annihilates it; its dual is not a Weil algebra"
        )
    monomials = all_monomials(c.n, degree_bound)
    relations = []
    for m in monomials:
        if m in pivots:
            continue
        weight = _factorial(m)
        terms = {m: Fraction(1)}
        for lead, row in pivots.items():
            coeff = row.get(m)
            if coeff:
                terms[lead] = -coeff * weight / _factorial(lead)
        relations.append(Polynomial(c.n, terms))
    kernel = _reduce_rows([r.terms for r in relations])
    dimension = len(monomials) - len(kernel)
    if dimension != c.dimension:
        raise ValueError(
            f"dual algebra came out {dimension}-dimensional, expected {c.dimension};"
            " inconsistent degree bound"
        )
    _check_ideal(kernel, c.n, degree_bound)
    return _presentation(c.n, degree_bound, kernel, relations)


def _check_ideal(kernel, n, degree_bound):
    """ValueError unless the span of the reduced echelon rows ``kernel`` is
    closed under multiplication by each generator in the ring truncated at
    the bound.  Row tails hold no lead, so one pass of subtraction reduces
    a product; what is left on the non-lead monomials must vanish."""
    for row in kernel.values():
        for i in range(n):
            product = {}
            for m, coeff in row.items():
                if mono_degree(m) < degree_bound:
                    product[m[:i] + (m[i] + 1,) + m[i + 1:]] = coeff
            rest = {m: v for m, v in product.items() if m not in kernel}
            for lead, factor in product.items():
                if lead not in kernel:
                    continue
                for m, v in kernel[lead].items():
                    if m != lead:
                        rest[m] = rest.get(m, Fraction(0)) - factor * v
            if any(rest.values()):
                raise ValueError(
                    f"the basis is not closed under comultiplication: x{i + 1} times an"
                    " annihilating relation leaves the annihilator"
                )


def distribution_report(d: Distribution) -> dict:
    """JSON-ready summary: generated basis, dimension, dual algebra."""
    from .weil import algebra_to_json

    sub = subcoalgebra_generated(d)
    return {
        "distribution": d.to_string(),
        "n": d.n,
        "dimension": sub.dimension,
        "basis": [b.to_string() for b in sub.basis],
        "dual_algebra": algebra_to_json(dual_algebra(sub)),
    }
