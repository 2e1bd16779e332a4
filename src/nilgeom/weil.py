"""Exact truncated polynomial arithmetic: Weil algebras and their elements.

A Weil algebra here is a finite-dimensional quotient of a polynomial ring
by an ideal of nilpotents, presented concretely: an ordered monomial basis
(unit first), a normal-form map for monomials, and a multiplication table
of structure constants.  Three constructors cover everything the rest of
the library needs:

* ``truncated_algebra(n, order)``: kill all monomials of degree > order,
  the coordinate ring of the order-k infinitesimal neighborhood of 0.
* ``laplace_algebra(n)``: the (n+2)-dimensional algebra with relations
  "all generator squares equal, distinct-generator products vanish"; the
  natural support of the mirror-average Laplacian.
* ``quotient_algebra(n, degree_bound, relations)``: generic quotient by a
  relation list, computed by exact row reduction of the ideal the
  relations generate.  Used as the oracle for the hand-written tables and
  by ``tensor_algebra``.  The coalgebra pipeline does not call it: the
  annihilator it presents is already an ideal, so ``dual_algebra`` reduces
  its relations once and shares only the last step, ``_presentation``.

Every constructor counts its monomials before building anything and
refuses more than ``MAX_DIMENSION`` of them.

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .scalars import Scalar, format_scalar, parse_rational, to_scalar

Monomial = tuple  # exponent vector, length n


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
    """Every exponent vector of total degree <= max_degree, in basis order."""
    result = []
    for total in range(max_degree + 1):
        result.extend(_homogeneous(n, total))
    return sorted(result, key=mono_key)


MAX_DIMENSION = 500
"""Most monomials an algebra constructor or the coalgebra pipeline may work
with: C(n + k, k) for n generators up to degree k (``truncated_algebra``,
``quotient_algebra``, ``divided_derivatives``, ``dual_algebra``) and n + 2
for ``laplace_algebra``.  A multiplication table holds the square of the
dimension, and building ``laplace_algebra(n)`` costs about n^3 steps: at
the cap a truncated algebra builds in about half a second and the Laplace
algebra in about 20 s (2-core VM, Python 3.11)."""


def _check_dimension(n: int, degree: int) -> None:
    """ValueError when C(n + degree, degree), the number of monomials of
    degree <= degree in n variables, exceeds ``MAX_DIMENSION``.  Counts up
    along the smaller argument and stops once past the cap, so huge inputs
    cost a few steps."""
    count, high = 1, max(n, degree)
    for i in range(1, min(n, degree) + 1):
        count = count * (high + i) // i
        if count > MAX_DIMENSION:
            raise ValueError(
                f"{n} generators up to degree {degree} give more than"
                f" MAX_DIMENSION = {MAX_DIMENSION} monomials"
            )


def _homogeneous(n, total):
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        out.extend((first,) + rest for rest in _homogeneous(n - 1, total - first))
    return out


class Polynomial:
    """Commutative polynomial over exact rationals, sparse terms map."""

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
    def zero(cls, n):
        return cls(n)

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
        return Polynomial(self.n, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return Polynomial(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.n, {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                out[m] = out.get(m, Fraction(0)) + ca * cb
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.constant(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError("mixed variable counts")
            return other
        return Polynomial.constant(self.n, other)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def shift_into(self, n_total: int, offset: int) -> "Polynomial":
        """Reinterpret in a larger variable set, variables moved by offset."""
        out = {}
        for m, c in self.terms.items():
            new = [0] * n_total
            for i, e in enumerate(m):
                new[offset + i] = e
            out[tuple(new)] = c
        return Polynomial(n_total, out)

    def to_string(self, prefix: str = "x") -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=mono_key):
            c = self.terms[m]
            factors = [
                f"{prefix}{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m)
                if e > 0
            ]
            body = "*".join(factors)
            if not factors:
                parts.append(format_scalar(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{format_scalar(c)}*{body}")
        text = " + ".join(parts).replace("+ -", "- ")
        return text

    def __repr__(self):
        return f"Polynomial({self.to_string()})"


# ---------------------------------------------------------------------------
# sparse exact row reduction over monomial columns
# ---------------------------------------------------------------------------

def _reduce_rows(rows):
    """Gauss-Jordan on sparse {monomial: coeff} rows; pivots on the largest
    monomial of each row so small monomials survive as quotient basis."""
    pivots = {}  # pivot monomial -> reduced row
    for row in rows:
        row = dict(row)
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
                break
    # back-substitute so pivot rows mention no other pivot in their tail
    for lead in sorted(pivots, key=mono_key):
        row = pivots[lead]
        changed = True
        while changed:
            changed = False
            for m in list(row):
                if m != lead and m in pivots:
                    factor = row[m]
                    del row[m]
                    for mm, cc in pivots[m].items():
                        if mm == m:
                            continue
                        row[mm] = row.get(mm, Fraction(0)) + (-factor) * cc
                        if row[mm] == 0:
                            del row[mm]
                    changed = True
    return pivots


class WeilAlgebra:
    """Finite-dimensional nilpotent quotient with explicit structure constants.

    Attributes: ``n`` generators, ``degree_bound`` (monomials above it all
    reduce to zero), ``basis`` (ordered monomials, unit first), and the
    multiplication table.  ``relations`` records the defining generators so
    algebras can be tensored.  The table is built from the normal forms
    unless one is given (rows of tuples of (basis index, coefficient)
    pairs, as deserialized); a given table is checked before use.
    """

    __slots__ = ("n", "degree_bound", "basis", "relations", "_index", "_nf", "_table")

    def __init__(self, n, degree_bound, basis, normal_form, relations, table=None):
        self.n = n
        self.degree_bound = degree_bound
        self.basis = tuple(basis)
        self.relations = tuple(relations)
        self._index = {m: i for i, m in enumerate(self.basis)}
        self._nf = normal_form  # monomial -> tuple of (basis index, coeff)
        if self.basis[0] != unit_monomial(n):
            raise AssertionError("quotient lost its unit")
        if table is None:
            self._table = self._build_table()
        else:
            self._check_table(table)
            self._table = table
        self._check_nilpotent()

    # -- construction helpers ---------------------------------------------

    def _reduce_monomial(self, m):
        if mono_degree(m) > self.degree_bound:
            return ()
        if m in self._nf:
            return self._nf[m]
        return ((self._index[m], Fraction(1)),)

    def _build_table(self):
        dim = len(self.basis)
        table = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                entry = self._reduce_monomial(mono_mul(self.basis[i], self.basis[j]))
                table[i][j] = entry
                table[j][i] = entry
        return table

    def _check_table(self, table):
        """Reject a given table that is not square over the basis, names a
        basis index out of range, is not symmetric or has a wrong unit row."""
        dim = len(self.basis)
        if len(self._index) != dim:
            raise ValueError("basis monomials are not distinct")
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ValueError("multiplication table has wrong shape")
        for i, row in enumerate(table):
            for j, entry in enumerate(row):
                for k, _ in entry:
                    if not 0 <= k < dim:
                        raise ValueError(
                            f"table entry ({i}, {j}) names basis index {k}; the dimension is {dim}"
                        )
                if entry != table[j][i]:
                    raise ValueError(f"multiplication table is not symmetric at ({i}, {j})")
            if table[0][i] != ((i, 1),):
                raise ValueError(f"unit row of the table does not fix basis element {i}")

    def _check_nilpotent(self):
        for i, m in enumerate(self.basis):
            if mono_degree(m) == 0:
                continue
            elem = self.basis_element(i)
            power = elem
            for _ in range(len(self.basis) + 1):
                if power.is_zero():
                    break
                power = power * elem
            else:
                raise ValueError(f"basis monomial {m} is not nilpotent; not a Weil algebra")

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
        coords = [Fraction(0)] * self.dimension
        coords[i] = Fraction(1)
        return self.element(coords)

    def generators(self):
        """Images of the ring generators Z_1..Z_n as elements."""
        gens = []
        for i in range(self.n):
            mono = tuple(1 if j == i else 0 for j in range(self.n))
            try:
                entries = self._reduce_monomial(mono)
            except KeyError:
                # algebra_from_json keeps the table only, not the normal forms
                raise ValueError(
                    f"serialized algebra does not record the class of generator Z{i + 1}"
                ) from None
            coords = [Fraction(0)] * self.dimension
            for k, c in entries:
                coords[k] = c
            gens.append(self.element(coords))
        return gens

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
        return (
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
    """Coefficient vector over a WeilAlgebra basis; a nilpotent-augmented scalar."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def _match(self, other):
        if isinstance(other, WeilElement):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ValueError("operands live in different algebras")
            return other
        if isinstance(other, (int, Fraction, float)):
            return self.algebra.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return WeilElement(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return WeilElement(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return WeilElement(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return WeilElement(self.algebra, tuple(a * other for a in self.coords))
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        dim = self.algebra.dimension
        table = self.algebra._table
        out = [Fraction(0)] * dim
        right = [(j, b) for j, b in enumerate(other.coords) if b != 0]
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            row = table[i]
            for j, b in right:
                entry = row[j]
                if not entry:  # the two basis monomials multiply to 0
                    continue
                ab = a * b
                for k, c in entry:
                    out[k] = out[k] + ab * c
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
        if isinstance(other, (int, Fraction, float)):
            other = self.algebra.scalar(other)
        return (
            isinstance(other, WeilElement)
            and self.algebra == other.algebra
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.algebra, self.coords))

    def isclose(self, other, eps: float) -> bool:
        other = self._match(other)
        return all(abs(a - b) <= eps for a, b in zip(self.coords, other.coords))

    def is_zero(self, eps=None):
        if eps is None:
            return all(c == 0 for c in self.coords)
        return all(abs(c) <= eps for c in self.coords)

    def unit_part(self) -> Scalar:
        return self.coords[0]

    def nilpotent_part(self) -> "WeilElement":
        return self - self.algebra.scalar(self.coords[0])

    def is_nilpotent(self, eps=None):
        if eps is None:
            return self.coords[0] == 0
        return abs(self.coords[0]) <= eps

    def coefficient(self, i) -> Scalar:
        return self.coords[i]

    def __repr__(self):
        parts = []
        for m, c in zip(self.algebra.basis, self.coords):
            if c == 0:
                continue
            name = Polynomial(self.algebra.n, {m: 1}).to_string("Z") if sum(m) else "1"
            parts.append(f"{format_scalar(c)}*{name}" if name != "1" else format_scalar(c))
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def truncated_algebra(n: int, order: int) -> WeilAlgebra:
    """k[Z_1..Z_n] with every monomial of degree > order killed.

    Models the order-k neighborhood of the origin: dimension C(n+k, k).
    """
    if n < 1:
        raise ValueError("need at least one generator")
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    _check_dimension(n, order)
    basis = all_monomials(n, order)
    return WeilAlgebra(n, order, basis, {}, relations=())


def laplace_algebra(n: int) -> WeilAlgebra:
    """The algebra of relations "Z_i^2 all equal, Z_i Z_j = 0 for i != j".

    Dimension n+2 with basis {1, Z_1..Z_n, Q}, Q the common square class
    (represented by the monomial Z_1^2).  For n = 1 this is the order-2
    truncated algebra on one generator.
    """
    if n < 1:
        raise ValueError("need at least one generator")
    if n + 2 > MAX_DIMENSION:
        raise ValueError(f"laplace_algebra({n}) has dimension {n + 2} > MAX_DIMENSION = {MAX_DIMENSION}")
    return _isotropy_algebra((Fraction(1),) * n)


def _isotropy_algebra(weights) -> WeilAlgebra:
    """Z_i^2 = weights[i] * Q, Z_i Z_j = 0 on the basis {1, Z_1..Z_n, Q};
    Q is represented by Z_1^2, so weights[0] must be 1."""
    n = len(weights)
    gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    q_mono = mono_mul(gens[0], gens[0])  # class of Z_1^2
    basis = [unit_monomial(n)] + gens + [q_mono]
    nf = {mono_mul(g1, g2): () for g1, g2 in itertools.combinations(gens, 2)}
    nf.update({mono_mul(g, g): ((n + 1, w),) for g, w in zip(gens, weights)})
    relations = tuple(
        [Polynomial(n, {q_mono: weights[i], mono_mul(gens[i], gens[i]): -1}) for i in range(1, n)]
        + [Polynomial(n, {mono_mul(g1, g2): 1}) for g1, g2 in itertools.combinations(gens, 2)]
    )
    return WeilAlgebra(n, 2, basis, nf, relations)


def quotient_algebra(n: int, degree_bound: int, relations) -> WeilAlgebra:
    """Quotient of the degree-truncated ring by the ideal the relations generate.

    Relations must have zero constant term (so the quotient keeps its unit).
    The ideal's span in degrees <= degree_bound is produced by multiplying
    each relation by every monomial and discarding terms past the bound,
    then row-reducing exactly; the surviving monomials form the basis.
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
    return _presentation(n, degree_bound, _reduce_rows(rows), relations)


def _presentation(n, degree_bound, pivots, relations) -> WeilAlgebra:
    """The quotient whose kernel in degrees <= degree_bound has the reduced
    echelon rows ``pivots`` (lead monomial -> row, as ``_reduce_rows``
    returns them): the monomials that lead no row form the basis, and a
    lead's normal form is minus the tail of its row."""
    assert unit_monomial(n) not in pivots, "zero-constant-term relations cannot kill the unit"
    basis = [m for m in all_monomials(n, degree_bound) if m not in pivots]
    index = {m: i for i, m in enumerate(basis)}
    nf = {}
    for lead, row in pivots.items():
        nf[lead] = tuple(
            (index[m], -c) for m, c in sorted(row.items(), key=lambda kv: mono_key(kv[0]))
            if m != lead
        )
    return WeilAlgebra(n, degree_bound, basis, nf, tuple(relations))


def tensor_algebra(a: WeilAlgebra, b: WeilAlgebra):
    """Tensor product of two Weil algebras, with the two embeddings.

    Returns ``(c, embed_a, embed_b)`` where the embeddings carry elements of
    the factors into the product algebra.  Used to adjoin independent
    nilpotent generators, e.g. a square-zero scalar alongside a generic
    second-order point.
    """
    n = a.n + b.n
    bound = a.degree_bound + b.degree_bound
    relations = []
    for r in a.relations:
        relations.append(r.shift_into(n, 0))
    for m in _homogeneous(a.n, a.degree_bound + 1):
        relations.append(Polynomial(a.n, {m: 1}).shift_into(n, 0))
    for r in b.relations:
        relations.append(r.shift_into(n, a.n))
    for m in _homogeneous(b.n, b.degree_bound + 1):
        relations.append(Polynomial(b.n, {m: 1}).shift_into(n, a.n))
    c = quotient_algebra(n, bound, relations)
    if c.dimension != a.dimension * b.dimension:
        raise AssertionError("tensor construction lost dimensions")

    def _embedding(factor, offset):
        def embed(elem):
            if elem.algebra != factor:
                raise ValueError("element does not belong to the tensor factor")
            out = c.zero()
            for m, coeff in zip(factor.basis, elem.coords):
                if coeff == 0:
                    continue
                mono_elem = c.from_polynomial(Polynomial(n, {_shift_mono(m, n, offset): 1}))
                out = out + mono_elem * coeff
            return out

        return embed

    return c, _embedding(a, 0), _embedding(b, a.n)


def _shift_mono(m, n_total, offset):
    out = [0] * n_total
    for i, e in enumerate(m):
        out[offset + i] = e
    return tuple(out)


# ---------------------------------------------------------------------------
# relation predicates
# ---------------------------------------------------------------------------

def satisfies_laplace_relations(zs, eps=None) -> bool:
    """True iff the tuple of nilpotents satisfies the isotropy relations:
    all squares equal, distinct products vanish, and (one generator only)
    the cube vanishes.  The G^-1 = I case of ``_satisfies_isotropy``."""
    zs = list(zs)
    n = len(zs)
    return _satisfies_isotropy(zs, [[int(i == j) for j in range(n)] for i in range(n)], eps)


def _satisfies_isotropy(zs, ginv, eps=None) -> bool:
    """True iff z_i z_j = lam * ginv[i][j] for one lam (and, one generator
    only, z^3 = 0): the coordinates of an isotropic neighbor in a chart
    where the inverse metric is ``ginv``.  Tested by cross-multiplication
    against the largest entry ginv[p][q], z_i z_j ginv[p][q] = z_p z_q
    ginv[i][j], so nothing is divided; with ``eps`` each residue
    coordinate is compared against it."""
    zs = list(zs)
    n = len(zs)
    if n == 0:
        raise ValueError("empty point")
    algebra = zs[0].algebra
    for z in zs:
        if z.algebra != algebra:
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


# ---------------------------------------------------------------------------
# serialization and table matching
# ---------------------------------------------------------------------------

def algebra_to_json(a: WeilAlgebra) -> dict:
    """JSON document: basis exponent vectors plus structure constants."""
    table = [
        [[[format_scalar(c), k] for k, c in entry] for entry in row]
        for row in a._table
    ]
    return {
        "n": a.n,
        "degree_bound": a.degree_bound,
        "basis": [list(m) for m in a.basis],
        "table": table,
    }


def algebra_from_json(doc: dict) -> WeilAlgebra:
    n = int(doc["n"])
    bound = int(doc["degree_bound"])
    basis = [tuple(int(e) for e in m) for m in doc["basis"]]
    if not basis or basis[0] != unit_monomial(n):
        raise ValueError("serialized algebra has no unit monomial first")
    if any(len(m) != n for m in basis):
        raise ValueError(f"serialized basis monomials must have {n} exponents")
    table = [
        [tuple((int(k), parse_rational(c)) for c, k in entry) for entry in row]
        for row in doc["table"]
    ]
    return WeilAlgebra(n, bound, basis, {}, (), table=table)


def algebra_isomorphism(src: WeilAlgebra, dst: WeilAlgebra):
    """Unital algebra isomorphism matching src basis monomials to products of
    dst generators.  Returns the dimension x dimension matrix (columns are
    images of src basis elements) or None if the map fails to be one."""
    from . import _linalg

    if src.dimension != dst.dimension:
        return None
    if src.n != dst.n:
        return None
    gens = dst.generators()
    images = []
    for m in src.basis:
        img = dst.one()
        for i, e in enumerate(m):
            for _ in range(e):
                img = img * gens[i]
        images.append(img)
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
