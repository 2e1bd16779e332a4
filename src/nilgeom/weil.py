"""Exact truncated polynomial arithmetic: Weil algebras and their elements.

A Weil algebra here is a finite-dimensional quotient of a polynomial ring
by an ideal of nilpotents, presented concretely: an ordered monomial basis
(unit first), a multiplication table of structure constants, and the class
of each generator as a table entry.  Three constructors cover everything
the rest of the library needs:

* ``truncated_algebra(n, order)``: kill all monomials of degree > order,
  the coordinate ring of the order-k infinitesimal neighborhood of 0.
* ``laplace_algebra(n)``: the (n+2)-dimensional algebra with relations
  "all generator squares equal, distinct-generator products vanish"; the
  natural support of the mirror-average Laplacian.
* ``quotient_algebra(n, degree_bound, relations)``: generic quotient by a
  relation list: ``_reduce_rows`` closes the relations under
  multiplication by each generator.  The tests use it as the oracle for
  the hand-written tables and for ``tensor_algebra``, which multiplies
  the factors' tables instead.  The coalgebra pipeline does not call it
  either: the annihilator it presents is already an ideal, so
  ``dual_algebra`` reduces its relation rows once, with no closing map,
  and shares only the last step, ``_presentation``; like the Laplace
  algebras, it builds its relation polynomials only when ``relations``
  is read.

Every constructor counts its monomials before building anything and
refuses more than ``MAX_DIMENSION`` of them.  ``laplace_algebra`` writes
its table down directly, in O(n^2) steps, and builds its n^2 relation
polynomials each time they are read, keeping none.  Both algebras depend
only on their arguments, so ``truncated_algebra`` and ``laplace_algebra``
return the algebra they built last time for the same arguments: each
checks them, then looks in a cache of the last 16, which retains about
50 kB at the sizes the geometry uses (n <= 6) and at most about 130 MB at
``MAX_DIMENSION`` (see there).  Equal algebras are then mostly one object,
and ``==`` tests identity first.

Normal forms live only in ``_presentation``, which writes the table and
the generator classes of truncated, quotient and dual algebras, and forms
no product of two monomials whose degrees add up past the bound.
``algebra_from_json`` refuses a negative degree bound, one that the table
exceeds, and a basis label Z^m that is not the product it names.

Structure constants are held in the scalars the product uses: a constant
1 is the int 1, and every table shares one entry ((k, 1),) per basis
index; another integral constant is an int; a float-mode weighted
isotropy algebra holds its float weights.  Element arithmetic is
coordinate vectors times these constants, with one path for every scalar
(``int``, ``Fraction`` or ``float``): a scalar added or subtracted changes
coordinate 0 only, multiplying by one touches only the nonzero
coordinates, and ``w + 0`` and ``w * 1`` return ``w`` itself.  Sums and
differences of two elements skip zeros: where one operand's coordinate is
0 the other's is taken as it is (negated, for 0 - b), and negation leaves
a zero alone.  Products skip zero coordinates and vanishing table entries
and add a * b itself where the constant is 1.  A float element may
therefore hold exact coordinates, and a float zero either sign, which it
keeps until ``format_scalar`` prints it as 0; ``_in_mode`` makes every
coordinate of a float-mode result a float where it leaves the library.
Every coordinate the library writes in exact mode is a ``Fraction``, never
an int.

A structural 1 is one shared object, ``_ONE`` = Fraction(1), next to the
product's ``_ZERO``: ``generators()`` and ``basis_element`` write their
coordinate 1 as ``_ONE``, and so does the exact frame of a geodesic chart
(``_linalg.congruence``).  A product of two elements takes the other factor
of ``_ONE`` as it is, a scalar product writes the scalar itself where a
coordinate is ``_ONE`` (an int as a ``Fraction``), and a scalar added to an
element whose unit coordinate is an exact zero becomes that coordinate as
it is.  Only identity is tested, so a 1 that arithmetic produced is
multiplied like any other coordinate; every skip leaves the value, the
type and, in float mode, the bits (x * 1.0 is x) of the full operation.

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .scalars import FLOAT, format_scalar, parse_rational, to_scalar

Monomial = tuple  # exponent vector, length n

_SCALARS = (int, Fraction, float)


# ---------------------------------------------------------------------------
# monomial order: degree, then lexicographic with the first variable largest.
# Fixed globally so bases and tables are reproducible bit for bit.
# ---------------------------------------------------------------------------

def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_key(m: Monomial):
    return (sum(m), tuple(-e for e in m))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def unit_monomial(n: int) -> Monomial:
    return (0,) * n


def all_monomials(n: int, max_degree: int) -> list:
    """Every exponent vector of total degree <= max_degree, in basis order:
    ``combinations_with_replacement`` lists each degree's variable indices
    in ascending lexicographic order, so the exponents come in basis order."""
    result = []
    for total in range(max_degree + 1):
        for indices in itertools.combinations_with_replacement(range(n), total):
            m = [0] * n
            for i in indices:
                m[i] += 1
            result.append(tuple(m))
    return result


MAX_DIMENSION = 500
"""Most monomials an algebra constructor or the coalgebra pipeline may work
with: C(n + k, k) for n generators up to degree k (``truncated_algebra``,
``quotient_algebra``, ``subcoalgebra_generated``, ``dual_algebra``, which
also refuse n >= MAX_DIMENSION at degree 0) and n + 2 for
``laplace_algebra``.  A multiplication table holds the square of the
dimension, but only the pairs whose degrees stay within the bound cost a
product of monomials: at the cap a truncated algebra builds in 0.01-0.05 s
(``truncated_algebra(498, 1)`` 0.024 s, ``(1, 499)`` 0.049 s, both 2.7 s
and 0.09 s while every pair was multiplied) and the Laplace algebra in
about 0.01 s (2-core VM, Python 3.11).

``truncated_algebra`` and ``laplace_algebra`` each keep the last
``_CACHE_SIZE`` = 16 algebras they built, keyed by their arguments.  One
algebra at the cap retains up to about 4.1 MB, by tracemalloc: the table's
row lists (2 MB at dimension 500) and the basis monomials, whose length
is n, while the table entries of constant 1 are the shared ``_UNITS``
(56 kB, held once).  ``truncated_algebra(498, 1)`` and
``laplace_algebra(498)`` retain 4.1 MB each, ``truncated_algebra(1, 499)``
2.1 MB and ``truncated_algebra(2, 30)`` 2.1 MB (11.6 and 5.6 MB while each
entry held its own ``Fraction(1)``).  So the two caches hold at most
about 16 x 4.1 MB + 16 x 4.1 MB, 130 MB; ``truncated_algebra(n, 1)``,
``truncated_algebra(n, 2)`` and ``laplace_algebra(n)`` for n <= 6, the
sizes the geometry uses, hold about 50 kB together.  Reading
``relations`` of a Laplace algebra builds its n^2 relation polynomials,
n^3 exponents, afresh; the algebra does not keep them."""

_CACHE_SIZE = 16

_ZERO = Fraction(0)  # an untouched coordinate of a product
_ONE = Fraction(1)  # a structural 1: products and scalar products take the other factor as it is

_UNITS = tuple(((k, 1),) for k in range(MAX_DIMENSION))
"""The table entry ((k, 1),) of each basis index k below ``MAX_DIMENSION``,
one tuple shared by every table."""


def _constant(c):
    """A structure constant in the scalars the product uses: a constant
    equal to 1, of any type, is the int 1, so the product adds a * b itself;
    another integral ``Fraction`` is an int; the rest (a non-integral
    ``Fraction``, a float weight of a float-mode chart) stay as they are."""
    if c == 1:
        return 1
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _unit(k):
    """The table entry ((k, 1),), shared below ``MAX_DIMENSION``."""
    return _UNITS[k] if 0 <= k < MAX_DIMENSION else ((k, 1),)


def _entry(terms):
    """A table entry, the tuple of (basis index, constant) pairs of
    ``terms`` with each constant passed through ``_constant``; a lone
    constant 1 is the ``_unit`` of its index."""
    entry = tuple((k, _constant(c)) for k, c in terms)
    return _unit(entry[0][0]) if len(entry) == 1 and entry[0][1] == 1 else entry


def _check_dimension(n: int, degree: int) -> None:
    """ValueError when C(n + degree, degree), the number of monomials of
    degree <= degree in n variables, exceeds ``MAX_DIMENSION``.  Counts up
    along the smaller argument and stops once past the cap, so huge inputs
    cost a few steps.  The count is 1 at degree 0, so n itself must then
    stay below ``MAX_DIMENSION``, where degree 1 passes the cap."""
    count, high = 1, max(n, degree)
    for i in range(1, min(n, degree) + 1):
        count = count * (high + i) // i
        if count > MAX_DIMENSION:
            raise ValueError(
                f"{n} generators up to degree {degree} give more than"
                f" MAX_DIMENSION = {MAX_DIMENSION} monomials"
            )
    if n >= MAX_DIMENSION:
        raise ValueError(f"{n} generators are more than MAX_DIMENSION - 1 = {MAX_DIMENSION - 1}")


class Polynomial:
    """Commutative polynomial over exact rationals, sparse terms map.  A
    subclass (``coalgebra.Distribution``) inherits the arithmetic: results
    keep the operands' type, and polynomials of two types never mix or
    compare equal."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != n:
                    raise ValueError(f"monomial {mono} has wrong arity for n={n}")
                coeff = to_scalar(coeff)
                if coeff != 0:
                    self.terms[tuple(mono)] = coeff

    @classmethod
    def constant(cls, n, value):
        return cls(n, {unit_monomial(n): value})

    @classmethod
    def variable(cls, n, i):
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        mono = tuple(1 if j == i else 0 for j in range(n))
        return cls(n, {mono: 1})

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((mono_degree(m) for m in self.terms), default=0)

    def constant_term(self) -> Fraction:
        return self.terms.get(unit_monomial(self.n), Fraction(0))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return type(self)(self.n, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return type(self)(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return type(self)(self.n, {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                out[m] = out.get(m, Fraction(0)) + ca * cb
        return type(self)(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = self.constant(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if type(other) is not type(self):
                raise TypeError(f"cannot combine {type(self).__name__} and {type(other).__name__}")
            if other.n != self.n:
                raise ValueError("mixed variable counts")
            return other
        return Polynomial.constant(self.n, other)

    def __eq__(self, other):
        return type(other) is type(self) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def to_string(self, prefix: str = "x") -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=mono_key):
            c = self.terms[m]
            factors = [f"{prefix}{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e > 0]
            body = "*".join(factors)
            if not factors:
                parts.append(format_scalar(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{format_scalar(c)}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Polynomial({self.to_string()})"


# ---------------------------------------------------------------------------
# sparse exact row reduction over monomial columns
# ---------------------------------------------------------------------------

def _reduce_rows(rows, rank, close=None):
    """Gauss-Jordan on sparse {monomial: coeff} rows; pivots on the largest
    monomial of each row so small monomials survive as quotient basis.

    ``rank`` maps every monomial that can occur, in ``rows`` or in what
    ``close`` yields, to a value that orders as ``mono_key`` does (its
    position in ``all_monomials``, say), so no step recomputes a key.  Rows
    hold exact scalars (``Fraction``s).  Every pivot row has lead
    coefficient 1: a reduced row whose lead coefficient is already 1 is
    stored as it is, and any other is divided by its lead coefficient.

    ``close``, a linear map from a row to a list of rows, closes the span:
    the images of each row that yields a new pivot join the rows to reduce.
    Those rows, taken as given (which keeps them sparse), span what the
    pivot rows span, so the result is the reduced echelon form, which is
    unique, of the smallest span that holds ``rows`` and is closed under
    ``close``."""
    key = rank.__getitem__
    pivots = {}  # pivot monomial -> reduced row
    queue = list(rows)
    for given in queue:  # the loop reaches the rows that ``close`` appends
        row = dict(given)
        while row:
            lead = max(row, key=key)
            pivot = pivots.get(lead)
            if pivot is not None:
                _subtract(row, row[lead], pivot)
            else:
                inv = row[lead]
                if inv != 1:
                    row = {m: c / inv for m, c in row.items()}
                pivots[lead] = row
                if close is not None:
                    queue.extend(close(given))
                break
    # back-substitute so pivot rows mention no other pivot in their tail: one
    # pass in increasing lead order suffices, because a tail holds only
    # monomials smaller than its lead, whose pivot rows are reduced already
    for lead in sorted(pivots, key=key):
        row = pivots[lead]
        for m in [m for m in row if m != lead and m in pivots]:
            _subtract(row, row[m], pivots[m])
    return pivots


def _subtract(row, factor, pivot):
    """row -= factor * pivot in place, dropping the terms that cancel (the
    pivot's lead among them); a factor of 1 multiplies nothing."""
    scaled = pivot.items() if factor == 1 else ((m, factor * c) for m, c in pivot.items())
    for m, c in scaled:
        if m in row:
            c = row[m] - c
            if c:
                row[m] = c
            else:
                del row[m]
        else:
            row[m] = -c


class WeilAlgebra:
    """Finite-dimensional nilpotent quotient with explicit structure constants.

    Attributes: ``n`` generators, ``degree_bound`` (monomials above it all
    reduce to zero), ``basis`` (ordered monomials, unit first, each the
    product it names), the multiplication table (rows of tuples of (basis
    index, coefficient) pairs), and each generator's class as a table
    entry, or None where it is not recorded, for ``generators``.
    ``relations`` records the defining relations of a quotient or Laplace
    algebra (empty for truncated, tensor and deserialized algebras); a
    constructor may pass a function instead, called on each read and its
    result not kept.  Constructors write their constants through ``_entry``
    and ``_unit``: a constant 1 is the int 1, an entry that is one basis
    element is the shared ``_unit(k)``, other integral constants are
    ints, and ``generators`` turns them into ``Fraction``s.  Tables are
    checked where they come from outside: ``algebra_from_json`` checks
    shape, symmetry, the unit row, the labels, the degree bound and
    associativity (``_check_table``), while the library's own tables are right by
    construction and are not checked.
    """

    __slots__ = ("n", "degree_bound", "basis", "_table", "_classes", "_relations", "_gens")

    def __init__(self, n, degree_bound, basis, table, classes, relations):
        self.n = n
        self.degree_bound = degree_bound
        self.basis = tuple(basis)
        self._table = table
        self._classes = tuple(classes)  # generator i -> its table entry, or None
        self._relations = relations if callable(relations) else tuple(relations)
        self._gens = None  # the generators, once ``generators`` has built them

    @property
    def relations(self):
        return tuple(self._relations()) if callable(self._relations) else self._relations

    def _check_table(self):
        """Reject repeated basis monomials; a table (square, as checked by
        ``algebra_from_json``) that names a basis index out of range, is not
        symmetric or has a wrong unit row; a negative exponent, or a label m
        of degree >= 2 with b_(m-e_g) b_(e_g) != b_m, g its first nonzero
        index (by induction each label is then its product); then a table
        that fails ``_filtration`` or ``_check_associative``."""
        table, basis, dim = self._table, self.basis, len(self.basis)
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
        for i, m in enumerate(basis):
            if any(e < 0 for e in m):
                raise ValueError(f"basis label {list(m)} has a negative exponent")
            if sum(m) > 1:
                g = next(g for g, e in enumerate(m) if e)
                e_g = (0,) * g + (1,) + (0,) * (len(m) - g - 1)
                unit, rest = index.get(e_g), index.get(m[:g] + (m[g] - 1,) + m[g + 1:])
                if unit is None or rest is None or table[rest][unit] != ((i, 1),):
                    raise ValueError(f"basis label {list(m)} is not the product it names")
        nonzero = [[k for k, entry in enumerate(row) if entry] for row in table]
        self._check_associative(self._filtration(nonzero, index), nonzero)

    def _times(self, entry, k):
        """(basis index, constant) pairs times b_k, as {index: constant} without zeros."""
        out = {}
        for p, v in entry:
            for q, w in self._table[p][k]:
                out[q] = out[q] + v * w if q in out else v * w
        return {q: v for q, v in out.items() if v}

    def _filtration(self, nonzero, index):
        """The indices of S, the basis elements labelled e_g.  W_1 = span S,
        W_(k+1) = span(S W_k), and b_m = b_(m-e_g) b_(e_g) lies in W_|m|, so
        the W_k span N at least.  ValueError when W_(bound+1) or W_dim is not
        0 or a W_k has a unit coordinate (N is not nilpotent).  Once S passes
        ``_check_associative``, N^k is the sum of the W_j, j >= k, so a bound
        that passes is honest."""
        basis, dim = self.basis, len(self.basis)
        rank = {m: mono_key(m) for m in basis}  # the labels come in any order
        gens = dict.fromkeys(s for s in range(1, dim) if sum(basis[s]) == 1)
        layer, span, k = [{basis[s]: Fraction(1)} for s in gens], [], 1
        while layer and k < dim:  # a nilpotent N, of dimension dim - 1, has N^dim = 0
            if k > self.degree_bound:
                raise ValueError(f"a product of {k} nonunit basis elements is not 0:"
                                 f" degree bound {self.degree_bound} is too small")
            span += layer
            # b_s w for s in S and w in W_k, but not where b_s's table row vanishes on w's support
            products = (self._times([(index[m], c) for m, c in row.items()], s) for row in layer
                        for s in dict.fromkeys(s for m in row for s in nonzero[index[m]] if s in gens))
            layer = list(_reduce_rows(({basis[q]: v for q, v in p.items()} for p in products), rank).values())
            k += 1
        if layer or any(basis[0] in row for row in span):
            raise ValueError("the nonunit basis elements are not nilpotent; not a Weil algebra")
        return gens

    def _check_associative(self, gens, nonzero):
        """Light's test on S, the ``gens`` of ``_filtration``: the b_g with
        (b_x b_g) b_y = b_x (b_g b_y) for all x, y span a subalgebra, and S
        generates.  By commutativity b_x (b_g b_y) = (b_y b_g) b_x; only the
        products that ``nonzero`` lists are visited."""
        table = self._table
        for g in gens:
            for x in nonzero[g][1:]:
                xg = table[x][g]
                for y in sorted({y for p, _ in xg for y in nonzero[p]} - {0}):
                    if self._times(xg, y) != self._times(table[y][g], x):
                        raise ValueError(f"multiplication table is not associative on basis triple ({x}, {g}, {y})")

    # -- elements -----------------------------------------------------------

    @property
    def dimension(self):
        return len(self.basis)

    def element(self, coords) -> "WeilElement":
        coords = tuple(coords)
        if len(coords) != self.dimension:
            raise ValueError("coordinate vector has wrong length")
        return WeilElement(self, coords)

    def zero(self):
        return self.element((Fraction(0),) * self.dimension)

    def one(self):
        return self.scalar(1)

    def scalar(self, value):
        coords = [Fraction(0)] * self.dimension
        coords[0] = value if isinstance(value, float) else to_scalar(value)
        return self.element(coords)

    def basis_element(self, i):
        coords = [_ZERO] * self.dimension
        coords[i] = _ONE
        return self.element(coords)

    def generators(self):
        """Images of the ring generators Z_1..Z_n as elements, in a fresh
        list on each call.  The elements are immutable, so they are built on
        the first call and shared after it; an algebra that does not record
        a generator's class raises ValueError on every call."""
        if self._gens is None:
            gens = []
            for i, entry in enumerate(self._classes):
                if entry is None:  # a deserialized algebra without the label e_i
                    raise ValueError(f"serialized algebra does not record the class of generator Z{i + 1}")
                coords = [_ZERO] * self.dimension
                for k, c in entry:  # an int constant becomes a Fraction, as in a product; 1 is ``_ONE``
                    coords[k] = _ONE if c == 1 else Fraction(c) if isinstance(c, int) else c
                gens.append(self.element(coords))
            self._gens = tuple(gens)
        return list(self._gens)

    def from_polynomial(self, p: Polynomial) -> "WeilElement":
        """Class of a polynomial in the quotient."""
        if p.n != self.n:
            raise ValueError("polynomial arity does not match algebra")
        gens = self.generators()
        out = self.zero()
        for m, c in p.terms.items():
            term = self.scalar(c)
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * gens[i]
            out = out + term
        return out

    def __eq__(self, other):
        return self is other or (
            isinstance(other, WeilAlgebra)
            and self.n == other.n
            and self.degree_bound == other.degree_bound
            and self.basis == other.basis
            and self._table == other._table
        )

    def __hash__(self):
        return hash((self.n, self.degree_bound, self.basis))

    def __repr__(self):
        return f"WeilAlgebra(n={self.n}, bound={self.degree_bound}, dim={self.dimension})"


class WeilElement:
    """Coefficient vector over a WeilAlgebra basis; a nilpotent-augmented scalar.

    Every scalar operand (``int``, ``Fraction`` or ``float``) takes one
    path: adding or subtracting it changes coordinate 0 only, multiplying
    by it touches only the nonzero coordinates, and ``w + 0``, ``w - 0`` and
    ``w * 1`` return ``w`` itself (elements are immutable).  Sums and
    differences of two elements take a coordinate as it is where the other
    operand's is zero (a + 0 is a, 0 - b is -b), and negation leaves zeros
    alone, so -0.0 + 0.0 stays -0.0 and a float zero may keep its sign
    until ``format_scalar`` prints it as 0.  Products of two
    elements skip zero coordinates on both sides and table entries that
    vanish, add a * b itself where the constant is 1, and write the first
    term t of an output coordinate as ``Fraction(0) + t`` leaves it (a
    ``Fraction`` as it is, a float as t + 0.0, so -0.0 becomes +0.0, an
    int as a ``Fraction``); a coordinate no term reaches is ``Fraction(0)``.
    A coordinate no operation touched keeps its type, so float mode fixes
    its results with ``_in_mode``.  A coordinate that is the shared
    ``_ONE`` (a generator's, a basis element's, an exact chart frame's)
    costs no product: a * b is b where a is ``_ONE``, and a scalar s times
    it is s itself, an int s as a ``Fraction``.

    Every operation collects its coordinates in a list, never a generator.
    ``tuple()`` of a generator builds an oversized tuple and shrinks it,
    which bypasses CPython's per-size cache of freed tuples, yet the tuple
    enters that cache when it is freed; so the caches filled up to 2000
    tuples of each algebra dimension, about 1 MB in the jet-orders
    benchmark.  A tuple made from a list is taken from the cache.
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def _match(self, other):
        if isinstance(other, WeilElement):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ValueError("operands live in different algebras")
            return other
        return NotImplemented

    def _shift(self, value):
        """Self plus the scalar ``value``: coordinate 0 only.  An exact zero
        there takes a ``Fraction`` or float ``value`` itself, as 0 + value
        leaves it (value is nonzero); an int is still added, so it becomes
        a ``Fraction``."""
        if not value:
            return self
        coords = self.coords
        unit = coords[0]
        if unit.__class__ is Fraction and not unit and value.__class__ in (Fraction, float):
            unit = value
        else:
            unit = unit + value
        return WeilElement(self.algebra, (unit,) + coords[1:])

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            return self._shift(other)
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return WeilElement(self.algebra, [(a + b if a else b) if b else a
                                          for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            return self._shift(-other)
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return WeilElement(self.algebra, [(a - b if a else -b) if b else a
                                          for a, b in zip(self.coords, other.coords)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return WeilElement(self.algebra, [-a if a else a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            if other == 1:
                return self
            # a coordinate _ONE becomes other itself, as _ONE * other leaves it (an int as a Fraction)
            one = other if other.__class__ in (Fraction, float) else _ONE * other
            return WeilElement(self.algebra, [(one if a is _ONE else a * other) if a else a
                                              for a in self.coords])
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        table = self.algebra._table
        out = [_ZERO] * self.algebra.dimension
        right = [(j, b) for j, b in enumerate(other.coords) if b]
        for i, a in enumerate(self.coords):
            if not a:
                continue
            row = table[i]
            for j, b in right:
                entry = row[j]
                if not entry:  # the two basis monomials multiply to 0
                    continue
                ab = b if a is _ONE else a if b is _ONE else a * b
                for k, c in entry:
                    t = ab if c == 1 else ab * c
                    o = out[k]
                    if o is not _ZERO:
                        out[k] = o + t
                    # the first term, as Fraction(0) + t leaves it
                    elif t.__class__ is Fraction:
                        out[k] = t
                    elif t.__class__ is float:
                        out[k] = t + 0.0  # -0.0 becomes +0.0
                    else:
                        out[k] = Fraction(t)
        return WeilElement(self.algebra, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a Weil element")
        out, square = None, self
        while True:
            if k & 1:
                out = square if out is None else out * square
            k >>= 1
            if not k:
                return self.algebra.one() if out is None else out
            square = square * square

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = self.algebra.scalar(other)
        return (
            isinstance(other, WeilElement)
            and self.algebra == other.algebra
            and self.coords == other.coords
        )

    def __hash__(self):
        # an element with zero nilpotent part equals its unit coordinate as a scalar
        coords = self.coords
        return hash((self.algebra, coords) if any(coords[1:]) else coords[0])

    def is_zero(self, eps=None):
        if eps is None:
            return all(c == 0 for c in self.coords)
        return all(abs(c) <= eps for c in self.coords)

    def nilpotent_part(self) -> "WeilElement":
        coords = self.coords
        return WeilElement(self.algebra, (coords[0] - coords[0],) + coords[1:])

    def is_nilpotent(self, eps=None):
        if eps is None:
            return self.coords[0] == 0
        return abs(self.coords[0]) <= eps

    def __repr__(self):
        parts = []
        for m, c in zip(self.algebra.basis, self.coords):
            if c == 0:
                continue
            name = Polynomial(self.algebra.n, {m: 1}).to_string("Z") if sum(m) else "1"
            parts.append(f"{format_scalar(c)}*{name}" if name != "1" else format_scalar(c))
        return " + ".join(parts) if parts else "0"


def _in_mode(w: WeilElement, mode: str) -> WeilElement:
    """``w`` as a result of a ``mode`` computation: in float mode every
    coordinate a float, whatever the operands held; exact mode keeps it.
    An exact coordinate beyond the float range is an input error."""
    if mode != FLOAT:
        return w
    try:
        return WeilElement(w.algebra, list(map(float, w.coords)))
    except OverflowError:
        raise ValueError("an exact coordinate lies outside the float range") from None


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def truncated_algebra(n: int, order: int) -> WeilAlgebra:
    """k[Z_1..Z_n] with every monomial of degree > order killed.

    Models the order-k neighborhood of the origin: dimension C(n+k, k).
    Arguments seen recently return the algebra built then (see
    ``MAX_DIMENSION``).
    """
    if n < 1:
        raise ValueError("need at least one generator")
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    _check_dimension(n, order)
    return _truncated(n, order)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _truncated(n, order):
    return _presentation(n, order, all_monomials(n, order), {}, ())


def laplace_algebra(n: int) -> WeilAlgebra:
    """The algebra of relations "Z_i^2 all equal, Z_i Z_j = 0 for i != j".

    Dimension n+2 with basis {1, Z_1..Z_n, Q}, Q the common square class
    (represented by the monomial Z_1^2).  For n = 1 this is the order-2
    truncated algebra on one generator.  Cached like ``truncated_algebra``.
    """
    if n < 1:
        raise ValueError("need at least one generator")
    _check_laplace_dimension(n)
    return _laplace(n)


def _check_laplace_dimension(n: int) -> None:
    """ValueError when n + 2, the dimension of ``laplace_algebra(n)``, exceeds ``MAX_DIMENSION``."""
    if n + 2 > MAX_DIMENSION:
        raise ValueError(f"laplace_algebra({n}) has dimension {n + 2} > MAX_DIMENSION = {MAX_DIMENSION}")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _laplace(n):
    return _weighted_algebra((1,) * n)


def _isotropy_algebra(weights) -> WeilAlgebra:
    """Z_i^2 = weights[i] * Q, Z_i Z_j = 0 on the basis {1, Z_1..Z_n, Q};
    Q is represented by Z_1^2, so weights[0] must be 1.  All weights 1 (a
    flat metric, or G(x) = I) give the shared ``laplace_algebra(n)``; more
    than ``MAX_DIMENSION`` - 2 weights are refused, as there."""
    _check_laplace_dimension(len(weights))
    if all(w == 1 for w in weights):
        return _laplace(len(weights))
    return _weighted_algebra(weights)


def _weighted_algebra(weights) -> WeilAlgebra:
    """The algebra of ``_isotropy_algebra``, built.  The table is written
    down directly, in O(n^2) steps: the unit row and column,
    Z_i Z_i = weights[i] Q, and 0 everywhere else.  The n^2 relation
    polynomials, n^3 exponents in all, are built on each read of
    ``relations`` and not kept."""
    n = len(weights)
    gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    q_mono = (2,) + (0,) * (n - 1)  # class of Z_1^2
    basis = [unit_monomial(n)] + gens + [q_mono]
    dim = n + 2
    table = [[()] * dim for _ in range(dim)]
    for k in range(dim):
        table[0][k] = table[k][0] = _unit(k)
    for i, w in enumerate(weights, start=1):
        table[i][i] = _entry(((n + 1, w),))
    classes = [_unit(i) for i in range(1, n + 1)]
    return WeilAlgebra(n, 2, basis, table, classes, functools.partial(_isotropy_relations, tuple(weights)))


def _isotropy_relations(weights):
    """Z_1^2 weights[i] - Z_i^2 for i > 0, then Z_i Z_j for i < j."""
    n = len(weights)
    gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    q_mono = mono_mul(gens[0], gens[0])
    return [Polynomial(n, {q_mono: Fraction(weights[i]), mono_mul(gens[i], gens[i]): -1}) for i in range(1, n)] + [
        Polynomial(n, {mono_mul(g1, g2): 1}) for g1, g2 in itertools.combinations(gens, 2)
    ]


def quotient_algebra(n: int, degree_bound: int, relations) -> WeilAlgebra:
    """Quotient of the degree-truncated ring by the ideal the relations generate.

    Relations must have zero constant term (so the quotient keeps its unit).
    ``_reduce_rows`` closes the relations under multiplication by each
    generator, terms past the bound dropped throughout (they would stay
    past it), which spans the ideal in degrees <= degree_bound; the
    monomials that lead no row form the basis.
    """
    if n < 1:
        raise ValueError("need at least one generator")
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    _check_dimension(n, degree_bound)
    relations = [r if isinstance(r, Polynomial) else Polynomial(n, r) for r in relations]
    for r in relations:
        if r.n != n:
            raise ValueError("relation arity does not match n")
        if r.constant_term() != 0:
            raise ValueError("relations must have zero constant term")

    def times_generators(row):
        return [{m[:i] + (m[i] + 1,) + m[i + 1:]: c for m, c in row.items() if mono_degree(m) < degree_bound}
                for i in range(n)]

    rows = [{m: c for m, c in r.terms.items() if mono_degree(m) <= degree_bound} for r in relations]
    rank = {m: i for i, m in enumerate(all_monomials(n, degree_bound))}
    return _presentation(n, degree_bound, rank, _reduce_rows(rows, rank, times_generators), relations)


def _presentation(n, degree_bound, monos, pivots, relations) -> WeilAlgebra:
    """The quotient whose kernel in degrees <= degree_bound has the reduced
    echelon rows ``pivots`` (lead monomial -> row, as ``_reduce_rows``
    returns them; {} for the truncated algebra): the monomials of ``monos``
    (every monomial up to the bound in basis order, as ``all_monomials``
    lists them or a rank built from it) that lead no row form the basis,
    and a lead's normal form is minus the tail of its row, sorted by basis
    index.  The normal forms write the table and the generator classes; a
    pair whose degrees add up past the bound is 0 without its product being
    formed, since ``nf`` holds no monomial past the bound."""
    assert unit_monomial(n) not in pivots, "zero-constant-term relations cannot kill the unit"
    basis = [m for m in monos if m not in pivots]
    index = {m: i for i, m in enumerate(basis)}
    nf = {m: _unit(i) for m, i in index.items()}
    for lead, row in pivots.items():
        nf[lead] = _entry(sorted((index[m], -c) for m, c in row.items() if m != lead))
    dim = len(basis)
    deg = [sum(m) for m in basis]
    table = [[()] * dim for _ in range(dim)]
    for i in range(dim):
        room = degree_bound - deg[i]
        for j in range(i, dim):
            if deg[j] <= room:
                table[i][j] = table[j][i] = nf.get(mono_mul(basis[i], basis[j]), ())
    classes = {m.index(1): entry for m, entry in nf.items() if sum(m) == 1}  # past the bound, Z_g is 0
    return WeilAlgebra(n, degree_bound, basis, table, [classes.get(g, ()) for g in range(n)], relations)


def tensor_algebra(a: WeilAlgebra, b: WeilAlgebra):
    """Tensor product of two Weil algebras, with the two embeddings.

    Returns ``(c, embed_a, embed_b)`` where the embeddings carry elements of
    the factors into the product algebra.  Used to adjoin independent
    nilpotent generators, e.g. a square-zero scalar alongside a generic
    second-order point.  Read off the factors' tables, so deserialized
    factors work too: the basis is the products a.basis[i] b.basis[k] in
    basis order, their table entries the products of the factors' entries,
    and the embeddings copy coordinates.  ``relations`` is empty.
    """
    dim = a.dimension * b.dimension
    if dim > MAX_DIMENSION:
        raise ValueError(f"the tensor product has dimension {dim} > MAX_DIMENSION = {MAX_DIMENSION}")
    pairs = sorted(itertools.product(range(a.dimension), range(b.dimension)),
                   key=lambda ik: mono_key(a.basis[ik[0]] + b.basis[ik[1]]))
    index = {ik: r for r, ik in enumerate(pairs)}
    table = [[None] * dim for _ in range(dim)]
    for r, (i, k) in enumerate(pairs):
        for s in range(r, dim):
            j, l = pairs[s]
            entry = sorted((index[p, q], x * y) for p, x in a._table[i][j] for q, y in b._table[k][l])
            table[r][s] = table[s][r] = _entry((t, v) for t, v in entry if v)
    place_a = [index[i, 0] for i in range(a.dimension)]
    place_b = [index[0, k] for k in range(b.dimension)]
    classes = [entry if entry is None else _entry((place[k], v) for k, v in entry)  # placed, where recorded
               for factor, place in ((a, place_a), (b, place_b)) for entry in factor._classes]
    basis = [a.basis[i] + b.basis[k] for i, k in pairs]
    c = WeilAlgebra(a.n + b.n, a.degree_bound + b.degree_bound, basis, table, classes, ())

    def _embedding(factor, place):
        def embed(elem):
            if elem.algebra != factor:
                raise ValueError("element does not belong to the tensor factor")
            coords = [Fraction(0)] * dim
            for i, v in enumerate(elem.coords):
                if v:
                    coords[place[i]] = v
            return WeilElement(c, coords)

        return embed

    return c, _embedding(a, place_a), _embedding(b, place_b)


# ---------------------------------------------------------------------------
# relation predicates
# ---------------------------------------------------------------------------

def satisfies_laplace_relations(zs, eps=None) -> bool:
    """True iff the tuple of nilpotents satisfies the isotropy relations:
    all squares equal, distinct products vanish, and (one generator only)
    the cube vanishes.  The unit-weight case of ``_satisfies_isotropy``."""
    zs = list(zs)
    return _satisfies_isotropy(zs, [1] * len(zs), eps)


def _satisfies_isotropy(zs, weights, eps=None) -> bool:
    """True iff z_i z_j = 0 for i < j and z_i^2 = lam weights[i] for one lam
    (and, one generator only, z^3 = 0): an isotropic neighbor's coordinates
    in a frame where the inverse metric is diag(weights).  The squares are
    cross-multiplied against index 0, z_i^2 weights[0] = z_0^2 weights[i],
    so nothing is divided; with ``eps`` each residue coordinate is compared
    against it."""
    zs = list(zs)
    if not zs:
        raise ValueError("empty point")
    algebra = zs[0].algebra
    for z in zs:
        if z.algebra != algebra:
            raise ValueError("point coordinates live in different algebras")
        if not z.is_nilpotent(eps):
            raise ValueError("point coordinates must be nilpotent")
    square = zs[0] * zs[0]
    residues = (z * w if i < j else z * z * weights[0] - square * weights[i]
                for i, z in enumerate(zs) for j, w in enumerate(zs[i:], i))
    return all(r.is_zero(eps) for r in residues) and (len(zs) > 1 or (square * zs[0]).is_zero(eps))


# ---------------------------------------------------------------------------
# serialization and table matching
# ---------------------------------------------------------------------------

def algebra_to_json(a: WeilAlgebra) -> dict:
    """JSON document: basis exponent vectors plus structure constants."""
    table = [[[[format_scalar(c), k] for k, c in entry] for entry in row] for row in a._table]
    return {
        "n": a.n,
        "degree_bound": a.degree_bound,
        "basis": [list(m) for m in a.basis],
        "table": table,
    }


def algebra_from_json(doc: dict) -> WeilAlgebra:
    """The algebra of an ``algebra_to_json`` document: n, the bound, each
    exponent and index a JSON integer, each constant a string, and the
    bound at least 0, as every constructor requires.  The basis
    (at most ``MAX_DIMENSION`` monomials, the unit first) and the table's
    shape (a row per basis monomial, each as long as the basis) are checked
    before any table entry is read; then ``_check_table``, which refuses a
    label that is not the product it names and a ``degree_bound`` below the
    table's own.  Z_g's class is the element labelled e_g, 0 past the
    degree bound, and else not recorded."""
    n, bound = _json_field(doc["n"], int, "n"), _json_field(doc["degree_bound"], int, "degree_bound")
    if bound < 0:
        raise ValueError("degree bound must be >= 0")
    if len(doc["basis"]) > MAX_DIMENSION:
        raise ValueError(f"serialized basis has {len(doc['basis'])} monomials > MAX_DIMENSION = {MAX_DIMENSION}")
    basis = [tuple(_json_field(e, int, "exponent") for e in m) for m in doc["basis"]]
    if not basis or basis[0] != unit_monomial(n):
        raise ValueError("serialized algebra has no unit monomial first")
    if any(len(m) != n for m in basis):
        raise ValueError(f"serialized basis monomials must have {n} exponents")
    rows = doc["table"]
    if len(rows) != len(basis) or any(len(row) != len(basis) for row in rows):
        raise ValueError("multiplication table has wrong shape")
    table = [[_entry((_json_field(k, int, "basis index"), parse_rational(_json_field(c, str, "constant")))
                     for c, k in entry) for entry in row] for row in rows]
    units = {m.index(1): _unit(i) for i, m in enumerate(basis) if sum(m) == 1 and m.count(0) == n - 1}
    classes = [units.get(g, () if bound < 1 else None) for g in range(n)]
    algebra = WeilAlgebra(n, bound, basis, table, classes, ())
    algebra._check_table()
    return algebra


def _json_field(value, kind, name):
    """``value``, whose type must be exactly ``kind``: JSON true is no int."""
    if type(value) is not kind:
        raise ValueError(f"serialized {name} is {type(value).__name__}, not {kind.__name__}")
    return value


def algebra_isomorphism(src: WeilAlgebra, dst: WeilAlgebra):
    """Unital algebra isomorphism matching src basis monomials to products of
    dst generators.  Returns the dimension x dimension matrix (columns are
    images of src basis elements) or None if the map fails to be one."""
    from . import _linalg

    if src.dimension != dst.dimension or src.n != dst.n:
        return None
    images = [dst.from_polynomial(Polynomial(src.n, {m: 1})) for m in src.basis]
    matrix = [[images[j].coords[i] for j in range(src.dimension)] for i in range(dst.dimension)]
    if _linalg.det(matrix) == 0:
        return None
    # multiplicativity against both tables
    for i in range(src.dimension):
        for j in range(i, src.dimension):
            lhs = images[i] * images[j]
            rhs = dst.zero()
            for k, c in src._table[i][j]:
                rhs = rhs + images[k] * c
            if lhs != rhs:
                return None
    return matrix
