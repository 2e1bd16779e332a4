"""Distributions supported at the origin, and the coalgebra they span.

A distribution here is a constant-coefficient differential operator
followed by evaluation at 0, stored as its symbol: a ``Polynomial`` in
derivative symbols d1..dn, whose arithmetic it inherits (a product of
symbols composes the operators).  Multiplication of test polynomials
dualizes to a comultiplication on these functionals, the generalized
Leibniz rule, which expands each monomial of the symbol binomially.  The
left factors of that expansion index the divided (Hasse) derivatives of
the symbol, and the right factors are their terms.  Over Q the partial
derivatives d/d(d_i), taken repeatedly, span what the divided ones span:
the finite-dimensional subcoalgebra the distribution generates, which one
row reduction with a closing map finds.  Dualizing that subcoalgebra back
yields a Weil algebra: starting from the sum of pure second derivatives,
this loop lands, up to an explicit table isomorphism, on
``laplace_algebra(n)``.
"""

from __future__ import annotations

import functools
import itertools
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
    unit_monomial,
)


class Distribution(Polynomial):
    """Linear functional on polynomials: apply a symbol of derivatives, then
    evaluate at the origin.

    The symbol's monomial ``alpha`` stands for d^alpha.  Sums, differences,
    scalar multiples, products and powers are those of the symbols and stay
    Distributions; a Distribution never equals a ``Polynomial``.
    """

    __slots__ = ()

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

    # the action on the constant polynomial 1
    counit = Polynomial.constant_term

    def to_string(self, prefix: str = "d") -> str:
        return super().to_string(prefix)

    def __repr__(self):
        return f"Distribution({self.to_string()})"


_ONE = Fraction(1)


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
    exponent vectors; since alpha = beta + (alpha-beta), distinct terms of
    the symbol give distinct keys and every coefficient is nonzero.
    """
    return {
        (beta, tuple(a - b for a, b in zip(alpha, beta))): c * _multi_binomial(alpha, beta)
        for alpha, c in d.terms.items()
        for beta in itertools.product(*(range(a + 1) for a in alpha))
    }


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


def _partials(terms):
    """The partial derivatives d/d(d_i) of a nonzero symbol's terms map, one
    terms map for each i: d^alpha goes to alpha_i d^(alpha - e_i)."""
    n = len(next(iter(terms)))
    return [{m[:i] + (m[i] - 1,) + m[i + 1:]: c if m[i] == 1 else c * m[i] for m, c in terms.items() if m[i]}
            for i in range(n)]


def subcoalgebra_generated(d: Distribution) -> Subcoalgebra:
    """Smallest subcoalgebra containing d, with its comultiplication table.

    ``_reduce_rows`` closes d under the partial derivatives.  The closure S
    spans the divided derivatives D^beta d (the order-beta partial over
    beta!), and is closed under comultiplication: the expansion of b in S
    is symmetric, and its right factors are divided derivatives of b, so
    of d (D^beta D^gamma d = C(beta + gamma, beta) D^(beta+gamma) d), hence
    in S; by symmetry so are its left factors.  The basis is the unique
    reduced echelon one, ordered by lead monomial.  Each lead occurs, with
    coefficient 1, in its own basis element only, so the coefficient of
    b_i (x) b_j in the comultiplication of b is that of (lead_i, lead_j).
    """
    _check_dimension(d.n, d.degree())
    monos = all_monomials(d.n, d.degree())
    pivots = _reduce_rows([d.terms], {m: i for i, m in enumerate(monos)}, _partials)
    leads = [m for m in monos if m in pivots]
    basis = [Distribution(d.n, pivots[lead]) for lead in leads]
    index = {lead: i for i, lead in enumerate(leads)}
    return Subcoalgebra(d.n, tuple(basis), tuple(_comult_row(b.terms, index) for b in basis))


def _comult_row(terms, index):
    """The comultiplication of the symbol ``terms`` in basis-pair
    coordinates: the terms of ``comultiply`` whose two factors are both
    leads in ``index``, keyed and sorted by the pair of lead indices.  The
    binomial weight is formed for those pairs only, and a weight of 1
    multiplies nothing."""
    row = {}
    for alpha, c in terms.items():
        for mu in itertools.product(*(range(a + 1) for a in alpha)):
            i = index.get(mu)
            if i is not None:
                j = index.get(tuple(a - b for a, b in zip(alpha, mu)))
                if j is not None:
                    weight = _multi_binomial(alpha, mu)
                    row[i, j] = c if weight == 1 else c * weight
    return dict(sorted(row.items()))


# ---------------------------------------------------------------------------
# the dual Weil algebra
# ---------------------------------------------------------------------------

def dual_algebra(c: Subcoalgebra) -> WeilAlgebra:
    """Quotient of the polynomial ring by the annihilator of the subcoalgebra.

    The pairing of d^alpha with x^beta is alpha! when alpha = beta and 0
    otherwise.  The degree bound is one past the basis's top degree: every
    monomial beyond that degree annihilates c, so a larger bound would
    present the same basis and table.  With the basis in reduced echelon
    form (b_k with lead monomial lead_k), the annihilator in degrees <= the
    bound is spanned by one relation per non-lead monomial m:
    x^m - sum over k of b_k[m] * m!/lead_k! * x^lead_k.
    These relations are linearly independent, so their span has
    codimension dim c.  When c is closed under comultiplication its
    annihilator is an ideal, and this span is all of its part up to the
    bound; the ideal the relations generate adds nothing, so reducing the
    relations alone gives the reduced echelon form, and with it the basis,
    table and generator classes, that ``quotient_algebra`` would.  The
    relations are filled in as plain rows by walking the tail of each
    basis element once.  The algebra keeps only a reference to the basis:
    each read of ``relations`` builds them again, as ``Polynomial``s.

    A hand-built ``Subcoalgebra`` need not be closed, and then the span is
    no ideal.  A linearly dependent basis would give fewer dimensions than
    it lists, and raises ValueError.  So does a span that closing under the
    derivatives grows, naming an element it adds: d/d(d_i) is adjoint to
    x_i (<d/d(d_i) d^alpha, x^beta> and <d^alpha, x_i x^beta> are both
    alpha! when alpha = beta + e_i, else 0), so the annihilator is an ideal
    exactly when the span is closed under them.  A closed nonzero span
    holds the counit (evaluation at 0), so 1 never annihilates it: the
    alpha-th derivative of an element with a top-degree term c d^alpha is
    c alpha! times the counit.  A basis without the counit is therefore
    refused as not closed.
    """
    if not c.basis:
        raise ValueError(
            "the zero subcoalgebra is annihilated by 1; its dual is not a Weil algebra"
        )
    degree_bound = max(b.degree() for b in c.basis) + 1
    _check_dimension(c.n, degree_bound)
    rank, pivots = _echelon(c.n, degree_bound, c.basis)
    if len(pivots) != c.dimension:
        raise ValueError(f"the basis spans {len(pivots)} dimensions, not {c.dimension}: it is linearly dependent")
    closed = _reduce_rows(pivots.values(), rank, _partials)
    added = [lead for lead in closed if lead not in pivots]
    if added:
        witness = Distribution(c.n, closed[min(added, key=rank.__getitem__)]).to_string()
        raise ValueError(
            f"the basis is not closed under comultiplication: its derivatives span {witness}, which it does not"
        )
    kernel = _reduce_rows(_relation_rows(rank, pivots), rank)
    return _presentation(c.n, degree_bound, rank, kernel, functools.partial(_relations, c.n, degree_bound, c.basis))


def _echelon(n, degree_bound, basis):
    """The monomials up to the bound ranked in basis order, and the basis in
    reduced echelon form (lead monomial -> row)."""
    rank = {m: i for i, m in enumerate(all_monomials(n, degree_bound))}
    return rank, _reduce_rows([b.terms for b in basis], rank)


def _relation_rows(rank, pivots):
    """One relation row per ranked monomial m that leads no pivot row,
    x^m - sum over k of b_k[m] * m!/lead_k! * x^lead_k, filled in by
    walking the tail of each pivot row once."""
    rows = {m: {m: _ONE} for m in rank if m not in pivots}
    for lead, row in pivots.items():
        scale = _factorial(lead)
        for m, coeff in row.items():
            if m != lead:
                rows[m][lead] = -coeff * _factorial(m) / scale
    return list(rows.values())


def _relations(n, degree_bound, basis):
    """The relations of ``dual_algebra``, rebuilt from the basis as
    ``Polynomial``s."""
    return [Polynomial(n, row) for row in _relation_rows(*_echelon(n, degree_bound, basis))]


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
