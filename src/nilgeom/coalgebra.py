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
    mono_key,
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
    return [{m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in terms.items() if m[i]} for i in range(n)]


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
    pivots = _reduce_rows([d.terms], _partials)
    leads = sorted(pivots, key=mono_key)
    basis = [Distribution(d.n, pivots[lead]) for lead in leads]
    index = {lead: i for i, lead in enumerate(leads)}
    comult = tuple(
        dict(sorted(
            ((index[mu], index[nu]), c)
            for (mu, nu), c in comultiply(b).items()
            if mu in index and nu in index
        ))
        for b in basis
    )
    return Subcoalgebra(d.n, tuple(basis), comult)


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
    table and generator classes, that ``quotient_algebra`` would.

    A hand-built ``Subcoalgebra`` need not be closed, and then the span is
    no ideal.  A basis without the counit (evaluation at 0) would put 1 in
    the annihilator, and a linearly dependent one would give fewer
    dimensions than it lists; both raise ValueError.  So does a span that
    closing under the derivatives grows, naming an element it adds:
    d/d(d_i) is adjoint to x_i (<d/d(d_i) d^alpha, x^beta> and
    <d^alpha, x_i x^beta> are both alpha! when alpha = beta + e_i, else 0),
    so the annihilator is an ideal exactly when the span is closed under
    them.
    """
    if not c.basis:
        raise ValueError(
            "the zero subcoalgebra is annihilated by 1; its dual is not a Weil algebra"
        )
    degree_bound = max(b.degree() for b in c.basis) + 1
    _check_dimension(c.n, degree_bound)
    pivots = _reduce_rows([b.terms for b in c.basis])
    if unit_monomial(c.n) not in pivots:
        raise ValueError(
            "the basis does not span the counit, so 1 annihilates it; its dual is not a Weil algebra"
        )
    if len(pivots) != c.dimension:
        raise ValueError(f"the basis spans {len(pivots)} dimensions, not {c.dimension}: it is linearly dependent")
    closed = _reduce_rows(pivots.values(), _partials)
    added = [lead for lead in closed if lead not in pivots]
    if added:
        witness = Distribution(c.n, closed[min(added, key=mono_key)]).to_string()
        raise ValueError(
            f"the basis is not closed under comultiplication: its derivatives span {witness}, which it does not"
        )
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
    kernel = _reduce_rows([r.terms for r in relations])
    return _presentation(c.n, degree_bound, kernel, relations)


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
