"""Riemannian layer over nilpotent points.

The metric is carried as a square-distance form g(x, y) = (y-x)^T G(x) (y-x)
on pairs of second-order neighbors, G a symmetric matrix of expressions.
Points infinitesimally near a base point are modeled as tuples of Weil
elements whose unit coordinates hold the base; identities are verified on
*universal* points (generic nilpotent coordinates), so a single equation
check covers every neighbor of the given order.

The central construction is the geodesic chart, one per base point: a
quadratic coordinate change with linear part I after which the metric has
no first-order variation at the base.  ``GeodesicChart`` is also the record
of everything the metric gives there: a first-order jet of each entry of G
yields G(x) and its first partials, and one square-root-free congruence
C^T G(x) C = diag(d) yields G(x)^-1 = C diag(1/d) C^T and the Christoffel
symbols.  Mirror images, affine combinations, isotropy and the Laplacian
are intrinsic, the same in every geodesic chart, so this one serves them
all.  A neighbor is isotropic exactly when its chart coordinates have
zeta zeta^T = lam G(x)^-1 for one lam, that is eta eta^T = lam diag(d) in
the congruence frame, eta = C^T G(x) zeta: a diagonal test with no square
root, so exact mode decides it on every nondegenerate metric.  The
universal isotropic point has chart coordinates C Z, Z generating a
weighted laplace_algebra (the plain one where G(x) = I), and a closed-form
image on the manifold.  Averaging a function over it and its mirror image,
the automorphism Z -> -Z, yields the Laplacian with no integration and no
divergence/gradient detour: the Q coordinate of one jet of f there."""

from __future__ import annotations

import math
from fractions import Fraction

from . import _linalg
from ._record import Record
from .scalars import DEFAULT_EPS, EXACT, FLOAT, Scalar, check_mode, format_scalar, scalars_equal, to_scalar
from .expr import (
    Const,
    Expr,
    FunctionModel,
    _jet,
    format_expr,
    jet_eval,
    parse_expr,
    scalar_function,
    variables,
)
from .weil import (
    WeilElement,
    _check_laplace_dimension,
    _in_mode,
    _isotropy_algebra,
    _satisfies_isotropy,
    laplace_algebra,
    satisfies_laplace_relations,
    truncated_algebra,
)


class GeometryError(ArithmeticError):
    """A mathematical precondition failed: singular metric, improper tangent,
    a point that is not a neighbor of the required order, and the like."""


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

class MetricField:
    """Symmetric n x n matrix of expressions; only the upper triangle is
    stored.  Mirrored entries must print alike (``format_expr``), so that
    an asymmetric matrix is rejected rather than read by its upper half.
    n + 2, the dimension of the Laplacian's ``laplace_algebra(n)``, may not
    exceed ``MAX_DIMENSION``: checked before any entry is built or printed."""

    __slots__ = ("n", "_upper", "_variables")

    def __init__(self, n: int, entries):
        _check_laplace_dimension(n)
        self.n = n
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("metric matrix must be n x n")
        if not all(isinstance(e, Expr) for row in entries for e in row):
            raise TypeError("metric entries must be expressions")
        self._upper, self._variables = {}, {}  # each upper entry, and the variables it uses
        for i in range(n):
            for j in range(i, n):
                e = entries[i][j]
                self._variables[(i, j)] = used = variables(e)
                bad = [v for v in used if v >= n]
                if bad:
                    raise ValueError(f"metric entry uses x{bad[0] + 1} beyond dimension {n}")
                if i < j and format_expr(e) != format_expr(entries[j][i]):
                    raise ValueError(
                        f"metric is not symmetric: entries ({i + 1}, {j + 1}) and ({j + 1}, {i + 1}) differ"
                    )
                self._upper[(i, j)] = e

    @classmethod
    def standard_flat(cls, n: int) -> "MetricField":
        _check_laplace_dimension(n)
        return cls(n, [[Const(Fraction(1 if i == j else 0)) for j in range(n)] for i in range(n)])

    @classmethod
    def from_strings(cls, rows) -> "MetricField":
        """Rows of expression strings; a row that is no list is refused, not read per character."""
        n = len(rows)
        _check_laplace_dimension(n)
        if not all(isinstance(row, (list, tuple)) and all(isinstance(s, str) for s in row) for row in rows):
            raise TypeError("metric rows must be lists of expression strings")
        return cls(n, [[parse_expr(s, n=n) for s in row] for row in rows])

    def entry(self, i, j) -> Expr:
        return self._upper[(i, j) if i <= j else (j, i)]

    def is_standard_flat(self) -> bool:
        for (i, j), e in self._upper.items():
            if not (isinstance(e, Const) and e.value == (1 if i == j else 0)):
                return False
        return True

    def matrix_at(self, x, mode: str = EXACT):
        """Numeric G(x), entries only evaluated; raises GeometryError when singular."""
        check_mode(mode)
        x = _coordinates((to_scalar(c, mode) for c in x), self.n)
        g = [[None] * self.n for _ in range(self.n)]
        for (i, j), e in self._upper.items():
            g[i][j] = g[j][i] = _jet(e, x, mode)
        _congruence(g, x)
        return g


def _congruence(g, x):
    """C and d with C^T G(x) C = diag(d); a zero pivot means G(x) is singular."""
    try:
        return _linalg.congruence(g)
    except ZeroDivisionError:
        raise GeometryError(f"metric is singular at ({', '.join(map(format_scalar, x))})") from None


# ---------------------------------------------------------------------------
# points near a base: tuples of Weil elements, base in the unit coordinate
# ---------------------------------------------------------------------------

def make_point(base, offsets):
    """Attach a real base point to nilpotent offsets, one per coordinate."""
    return tuple(w + b for w, b in zip(_coordinates(offsets, len(base), "base"), base))


def point_offsets(point, base, eps=None):
    """Strip the base off a point model; offsets must come out nilpotent."""
    out = []
    for p, b in zip(_coordinates(point, len(base), "base"), base):
        w = p - b
        if not w.is_nilpotent(eps):
            raise GeometryError("point is not infinitesimally near the base")
        if eps is not None and w.coords[0] != 0:
            w = w.nilpotent_part()
        out.append(w)
    return tuple(out)


def _coordinates(v, n, against="metric"):
    """The tuple of ``v``, which must have the n coordinates of the metric or the base."""
    v = tuple(v)
    if len(v) != n:
        raise ValueError(f"point dimension does not match the {against}")
    return v


def _check_order(offsets, order, eps=None):
    """Verify that all (order+1)-fold products of the offsets vanish.  The
    algebras are commutative, so only nondecreasing index sequences are
    multiplied: one product per multiset of factors."""
    elems = list(offsets)
    frontier = list(enumerate(elems))  # (index of the last factor, product)
    for _ in range(order):
        frontier = [(j, p * elems[j]) for i, p in frontier for j in range(i, len(elems))]
    for _, p in frontier:
        if not p.is_zero(eps):
            raise GeometryError(f"point is not an order-{order} neighbor of the base")


# ---------------------------------------------------------------------------
# square-distance evaluation
# ---------------------------------------------------------------------------

def g_eval(metric: MetricField, base, z, y=None, mode: str = EXACT) -> WeilElement:
    """g(base+y, base+z) = (z-y)^T G(base+y) (z-y), inside the ambient algebra.

    With y omitted this is the square distance from the base itself, which
    only sees the degree-zero part G(base).
    """
    z = _coordinates(z, metric.n)
    if z[0].algebra.degree_bound < 2:
        raise GeometryError("square distance needs an ambient algebra of order >= 2")
    if y is None:
        gm = metric.matrix_at(base, mode)
        return _in_mode(_square(z, {(i, j): gm[i][j] for i, j in metric._upper}), mode)
    y = _coordinates(y, metric.n)
    d = tuple(zz - yy for zz, yy in zip(z, y))
    return _in_mode(_square(d, {ij: jet_eval(e, base, y, mode) for ij, e in metric._upper.items()}), mode)


def _square(d, upper):
    """d^T G d from the upper triangle {(i, j): G_ij} of a symmetric G."""
    return sum(d[i] * g * d[j] * (1 if i == j else 2) for (i, j), g in upper.items())


def gbar_eval(metric: MetricField, base, z, y=None, mode: str = EXACT) -> WeilElement:
    """The symmetric extension of g to third-order neighbor pairs:
    1/2 (g(base+y, base+z) + g(base+z, base+y)), y omitted meaning the base.

    z - y must be a third-order pair (its fourfold products vanish; float
    mode reads them against ``DEFAULT_EPS``), else GeometryError.  Then
    this is (z-y)^T (G(p) + 1/2 D_{z-y}G(p)) (z-y) with p = base + y, since
    G(p + d) = G(p) + D_dG(p) + terms with two factors of d = z - y, which
    the two outer factors of d raise to four."""
    z = _coordinates(z, metric.n)
    algebra = z[0].algebra
    if algebra.degree_bound < 3:
        raise GeometryError("extended square distance needs an ambient algebra of order >= 3")
    y = _coordinates(y, metric.n) if y is not None else tuple(algebra.zero() for _ in z)
    _check_order([zz - yy for zz, yy in zip(z, y)], 3, DEFAULT_EPS if mode == FLOAT else None)
    return (g_eval(metric, base, z, y, mode) + g_eval(metric, base, y, z, mode)) * Fraction(1, 2)


# ---------------------------------------------------------------------------
# Christoffel symbols and geodesic charts
# ---------------------------------------------------------------------------

def christoffel(metric: MetricField, x, mode: str = EXACT):
    """Gamma^i_{jk} at x, built from the chart's first-kind terms (see
    ``GeodesicChart``)."""
    return geodesic_chart(metric, x, mode).gamma


class GeodesicChart:
    """Everything the metric gives at one base point x, and the quadratic
    coordinate change y -> x + y - 1/2 Gamma(y, y) that is geodesic there:
    the pushed-forward metric has vanishing first partials at 0, so mirror
    images, affine combinations and geodesic prolongations become plain
    coordinate algebra.

    Each upper entry of G that has variables (``MetricField`` records them)
    is jetted at x + Z, Z the generators of ``truncated_algebra(n, 1)``,
    which yields G(x) (``G0``) and its first partials; an entry without
    variables is only evaluated.  The Christoffel symbols are kept in one
    form, of the first kind, Gamma_l,jk = 1/2 (d_j G_lk + d_k G_lj - d_l G_jk):
    ``_lowered[l]`` lists (j, k, c) for j <= k in increasing order, c the
    coefficient of w_j w_k in 1/2 Gamma_l(w, w).  Each nonzero partial
    d_m G_ab is added into the three places where it occurs and a sum that
    cancels is dropped, so a metric of constants lists no terms.  One
    ``_linalg.congruence`` yields ``frame`` = (C, d) with C^T G(x) C =
    diag(d), the weights of ``laplace_point``; ``ginv`` = G(x)^-1 =
    C diag(1/d) C^T is accumulated column by column of C, in increasing k,
    over the rows where column k is nonzero (n terms when C = I).  The
    transport of a general point (``push_offsets``, ``pull_offsets``)
    applies it to the lowered sums (``_half_gamma``); that of the universal
    isotropic point is push(s C Z) = s C Z - s^2 d_1 b Q in closed form
    (``laplace_offsets``), b^i = 1/2 G^jk Gamma^i_jk.  The second-kind
    ``gamma`` is built only when read.  Nothing that depends on the metric
    or the point is cached, only the shape-keyed algebra of the jets."""

    __slots__ = ("metric", "base", "mode", "eps", "G0", "ginv", "frame", "_lowered", "_pairs")

    def __init__(self, metric: MetricField, x, mode: str = EXACT, eps: float = DEFAULT_EPS):
        check_mode(mode)
        n = metric.n
        self.metric, self.mode, self.eps = metric, mode, eps
        self.base = x = _coordinates((to_scalar(c, mode) for c in x), n)
        point = [z + b for z, b in zip(truncated_algebra(n, 1).generators(), x)]  # x + Z
        g = [[None] * n for _ in range(n)]
        lowered = [{} for _ in range(n)]  # lowered[l][j, k], j <= k
        for (a, b), e in metric._upper.items():
            if metric._variables[a, b]:
                g[a][b], *partials = _in_mode(_jet(e, point, mode), mode).coords
            else:
                g[a][b], partials = _jet(e, x, mode), ()
            g[b][a] = g[a][b]
            for m, p in enumerate(partials):
                if not p:
                    continue
                # d_m G_ab sits at w_m w_b in component a, at w_m w_a in b and at -w_a w_b in m
                if a == b:
                    places = ((a, m, a, p / 2), (m, a, a, -p / 4))
                else:
                    places = ((a, m, b, p / 2), (b, m, a, p / 2), (m, a, b, -p / 2))
                for l, j, k, v in places:
                    key = (j, k) if j <= k else (k, j)
                    lowered[l][key] = lowered[l].get(key, 0) + v
        c, d = _congruence(g, x)
        zero = d[0] - d[0]
        ginv = [[zero] * n for _ in range(n)]
        for k in range(n):
            rows = [i for i in range(n) if c[i][k]]
            for i in rows:
                for j in rows:
                    ginv[i][j] = ginv[i][j] + c[i][k] * c[j][k] / d[k]
        self.G0, self.ginv, self.frame = g, ginv, (c, d)
        self._lowered = [sorted((j, k, v) for (j, k), v in terms.items() if v != 0) for terms in lowered]
        self._pairs = sorted({(j, k) for terms in self._lowered for j, k, _ in terms})

    @property
    def gamma(self):
        """Gamma^i_jk = sum_l G^il Gamma_l,jk, built anew on each read; a
        symbol without a term is a zero of the mode's type."""
        n = self.n
        gamma = [[[0.0 if self.mode == FLOAT else Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for l, terms in enumerate(self._lowered):
            for j, k, c in terms:
                for i, row in enumerate(self.ginv):  # Gamma_l,jk is c, or 2c on the diagonal
                    gamma[i][j][k] = gamma[i][k][j] = gamma[i][j][k] + row[l] * (c if j < k else 2 * c)
        return gamma

    @property
    def n(self):
        return self.metric.n

    # -- point transport ---------------------------------------------------

    def _contract(self, products):
        """G(x)^-1 applied to the lowered sums, each component's terms
        summed in their order over ``products`` {(j, k): w_j w_k}, one per
        pair that a lowered term needs; a metric of constants gives scalar
        zeros."""
        return _apply(self.ginv, [sum(products[j, k] * c for j, k, c in terms) for terms in self._lowered])

    def _half_gamma(self, w):
        """1/2 Gamma(w, w), componentwise, for Weil elements or expressions:
        each pair product w_j w_k is formed once (at most n(n+1)/2)."""
        return self._contract({(j, k): w[j] * w[k] for j, k in self._pairs})

    def push_offsets(self, zeta):
        """Chart coordinates (nilpotent, n of them) -> manifold offsets from the base."""
        return tuple(a - c for a, c in zip(_coordinates(zeta, self.n), self._half_gamma(zeta)))

    def pull_offsets(self, w):
        """Manifold offsets from the base -> chart coordinates."""
        return tuple(a + c for a, c in zip(w, self._half_gamma(w)))

    def laplace_offsets(self, scales=(1,)):
        """push(s C Z) = (0, s C_i1 .. s C_in, -s^2 d_1 b_i) for each s in
        ``scales`` (C Z: ``laplace_point``), with no Weil product; a zero Q
        coordinate is +0.  d_1 b is formed once from d_1 G^jk, summed over a
        of C_ja C_ka d_1/d_a as zeta_j zeta_k sums it: ``push_offsets``'s bits."""
        c, d = self.frame
        weights = [d[0] / v for v in d]  # in the mode's scalars; a float quotient is correctly rounded
        h = self._contract({(j, k): sum(p * q * v for p, q, v in zip(c[j], c[k], weights) if p and q)
                            for j, k in self._pairs})
        algebra, zero = _isotropy_algebra(weights), Fraction(0)
        out = []
        for s in scales:
            rows = c if s == 1 else [[v * s if v else v for v in row] for row in c]
            out.append(tuple(WeilElement(algebra, (zero, *row, -(s * s) * hi if hi else zero))
                             for row, hi in zip(rows, h)))
        return out

    def from_chart(self, zeta):
        return tuple(_in_mode(w, self.mode) for w in make_point(self.base, self.push_offsets(zeta)))

    def to_chart(self, point):
        offsets = point_offsets(point, self.base, self.eps if self.mode == FLOAT else None)
        for w in offsets:  # float mode: refuse an exact coordinate beyond the float range; check, not convert
            _in_mode(w, self.mode)
        return tuple(_in_mode(w, self.mode) for w in self.pull_offsets(offsets))


def _apply(m, v):
    """The matrix m times a vector v of Weil elements or expressions, one
    path for exact and float entries alike: zero entries are skipped and an
    entry 1 contributes v_j itself."""
    out = []
    for row in m:
        total = None
        for mij, vj in zip(row, v):
            if mij:
                term = vj if mij == 1 else mij * vj
                total = term if total is None else total + term
        out.append(row[0] * v[0] if total is None else total)  # a zero row: a zero of its type
    return tuple(out)


def geodesic_chart(metric: MetricField, x, mode: str = EXACT, eps: float = DEFAULT_EPS) -> GeodesicChart:
    """The chart geodesic at x (see ``GeodesicChart``), on every
    nondegenerate metric, definite or not, in both modes."""
    return GeodesicChart(metric, x, mode, eps)


# ---------------------------------------------------------------------------
# chart-level geometry: mirrors, affine combinations, prolongations
# ---------------------------------------------------------------------------

def mirror(chart: GeodesicChart, z):
    """Mirror image of z in the chart base, the affine combination 2x - z:
    negation of chart coordinates."""
    return affine_combination(chart, 2, z)


def affine_combination(chart: GeodesicChart, t, z):
    """The combination t*x + (1-t)*z of the base with a second-order point."""
    t = to_scalar(t, chart.mode)
    zeta = chart.to_chart(z)
    return chart.from_chart(tuple(c * (1 - t) for c in zeta))


def parallelogram(chart: GeodesicChart, y, z):
    """Parallelogram completion of two first-order neighbors of the base."""
    wy = chart.to_chart(y)
    wz = chart.to_chart(z)
    eps = chart.eps if chart.mode == FLOAT else None
    _check_order(wy, 1, eps)
    _check_order(wz, 1, eps)
    return chart.from_chart(tuple(a + b for a, b in zip(wy, wz)))


class TangentVector(Record):
    """Tangent at a point, determined by its principal part u (t(d) = x + d u).

    Fields: ``base`` and ``u``, tuples of equal length.
    """

    __slots__ = ("base", "u")

    def __post_init__(self):
        if len(self.base) != len(self.u):
            raise ValueError("principal part and base have different lengths")


def geodesic_prolong(chart: GeodesicChart, t: TangentVector, delta: WeilElement):
    """Extend the tangent's infinitesimal segment to a cube-zero parameter:
    the point with chart coordinates delta * u_chart."""
    if tuple(t.base) != chart.base:
        raise GeometryError("tangent is not based at the chart base")
    if not (delta * delta * delta).is_zero(chart.eps if chart.mode == FLOAT else None):
        raise GeometryError("prolongation parameter must have vanishing cube")
    return chart.from_chart(tuple(delta * c for c in t.u))


def inner_product(metric: MetricField, t: TangentVector, s: TangentVector, mode: str = EXACT) -> Scalar:
    """u^T G(x) v for tangents at a common base point."""
    if tuple(t.base) != tuple(s.base):
        raise ValueError("tangents must share a base point")
    gm = metric.matrix_at(t.base, mode)
    return sum(t.u[i] * sum(gm[i][j] * s.u[j] for j in range(metric.n)) for i in range(metric.n))


def scalar_component(chart: GeodesicChart, z, t: TangentVector) -> WeilElement:
    """The cube-zero parameter alpha with proj_t(z) = prolongation of t at alpha.

    The chart's linear part is I, so u is also the principal part in chart
    coordinates zeta: alpha = (u . G(x) zeta) / (u . G(x) u), the familiar
    (z . u)/(u . u) when G(x) = I.
    """
    if tuple(t.base) != chart.base:
        raise GeometryError("tangent is not based at the chart base")
    u = [to_scalar(c, chart.mode) for c in t.u]
    gu = _apply(chart.G0, u)
    norm = sum(a * b for a, b in zip(u, gu))
    if norm == 0 or (chart.mode == FLOAT and abs(norm) <= chart.eps):
        raise GeometryError("improper tangent: <t,t> is not invertible")
    zeta = chart.to_chart(z)
    acc = zeta[0].algebra.zero()
    for c, w in zip(gu, zeta):
        acc = acc + w * c
    return acc * (1 / norm)  # all float in float mode: zeta comes from to_chart


def orthogonal_projection(chart: GeodesicChart, z, t: TangentVector):
    """Projection of a second-order point onto the geodesic of a proper tangent."""
    alpha = scalar_component(chart, z, t)
    return geodesic_prolong(chart, t, alpha)


# ---------------------------------------------------------------------------
# isotropic (Laplace) neighbors and the Laplacian
# ---------------------------------------------------------------------------

def laplace_point(chart: GeodesicChart):
    """The universal isotropic second-order neighbor of the chart base, on
    any nondegenerate metric: chart coordinates C Z (``frame`` = (C, d)),
    with Z_i^2 = (d_1/d_i) Q and Z_i Z_j = 0, so that g(x, z) = n d_1 Q sees
    no direction, pushed in closed form to x + C Z - d_1 b Q, b = 1/2
    Gamma-bar (``GeodesicChart.laplace_offsets``).  An identity verified on
    this single point holds for every isotropic neighbor."""
    (offsets,) = chart.laplace_offsets()
    return tuple(_in_mode(w, chart.mode) for w in make_point(chart.base, offsets))


def is_laplace_neighbor(metric: MetricField, x, z, mode: str = EXACT, eps: float = DEFAULT_EPS) -> bool:
    """Whether the point model z is an isotropic second-order neighbor of x:
    square distance blind to every direction, zeta zeta^T = lam G(x)^-1 for
    one lam in the plain geodesic chart.  As C^T G(x) C = diag(d), exact
    mode tests eta eta^T = lam diag(d) for eta = C^T (G(x) zeta) with
    ``weil._satisfies_isotropy``: no square root, so both modes answer on
    every nondegenerate metric.

    Float mode reads the residue per unit of lam, in an orthonormal frame
    so that one tolerance fits every entry (those of d may differ by orders
    of magnitude): eta = |d|^(-1/2) C^T G(x) zeta with weights sign d,
    scaled so that its largest square has coordinates of size 1, against
    ``eps``."""
    chart = geodesic_chart(metric, x, mode, eps)
    tol = eps if mode == FLOAT else None
    zeta = chart.to_chart(z)
    _check_order(zeta, 2, tol)
    c, d = chart.frame
    if mode == EXACT:
        return _satisfies_isotropy(_apply(_linalg.transpose(c), _apply(chart.G0, zeta)), d)
    frame = _linalg.mat_mul(_linalg.transpose(c), chart.G0)
    eta = _apply([[f / math.sqrt(abs(dk)) for f in row] for row, dk in zip(frame, d)], zeta)
    unit = max(abs(v) for w in eta for v in (w * w).coords)
    if unit > 0:
        eta = [w * (1 / math.sqrt(unit)) for w in eta]
    return _satisfies_isotropy(eta, [math.copysign(1.0, dk) for dk in d], tol)


def laplacian(metric: MetricField, f: Expr, x, mode: str = EXACT) -> Scalar:
    """The Laplacian of the expression f at x by the mirror-image average.

    Evaluate f at the universal isotropic point z = x + C Z - d_1 b Q
    (``laplace_point``) and at its mirror image, form f(z) + f(z') - 2 f(x);
    only the isotropic square-class coordinate survives, and dividing by
    the matching coordinate of g(x, z) = n d_1 Q gives the eigenvalue L.
    The result is n * L.  One jet, the only Weil arithmetic, suffices: the
    mirror image is the automorphism Z -> -Z, Q -> Q, with which the chart
    map and the jet commute, so the average is 2 q Q, q the Q coordinate
    of f(z).  Both modes take this one route, with no square root, on any
    nondegenerate metric; an indefinite one gives the wave operator.  No
    step compares against a tolerance, so there is no ``eps``.
    """
    chart = geodesic_chart(metric, x, mode=mode)
    (offsets,) = chart.laplace_offsets()
    f_z = jet_eval(f, chart.base, offsets, mode)
    return 2 * f_z.coords[metric.n + 1] / chart.frame[1][0]


def laplace_taylor(metric: MetricField, f: Expr, x, offsets, mode: str = EXACT) -> WeilElement:
    """Reconstruct the expression f at an isotropic neighbor from value,
    differential and Laplacian: f(x) + df_x(z-x) + (Laplacian/2n) ||z-x||^2.

    Only valid over the standard flat metric; the result equals the jet of f
    exactly whenever the offsets satisfy the isotropy relations.  One jet at
    the universal isotropic point gives all three (``_flat_laplace_jets``):
    the value, the partials and q, the Laplacian being 2 q.
    """
    if not metric.is_standard_flat():
        raise GeometryError("the Taylor reconstruction requires the standard flat metric")
    check_mode(mode)
    n = metric.n
    (jet,), _ = _flat_laplace_jets(scalar_function(f, n), tuple(to_scalar(c, mode) for c in x), mode)
    value, *partials, q = jet.coords
    offsets = _coordinates(offsets, n)
    algebra = offsets[0].algebra
    out = algebra.scalar(value)
    for w, partial in zip(offsets, partials):
        out = out + w * partial
    norm_sq = algebra.zero()
    for w in offsets:
        norm_sq = norm_sq + w * w
    return _in_mode(out + norm_sq * (q / n), mode)  # Laplacian/2n = q/n


def is_harmonic_at(metric: MetricField, f: Expr, x, mode: str = EXACT, eps: float = DEFAULT_EPS) -> bool:
    """Vanishing Laplacian at x (exactly, or within eps in float mode)."""
    lap = laplacian(metric, f, x, mode=mode)
    return scalars_equal(lap, 0, eps if mode == FLOAT else None)


AFFINE_SCALES = (Fraction(-1), Fraction(2), Fraction(1, 2))


def preserves_affine_combinations(metric: MetricField, f: Expr, x, mode: str = EXACT,
                                  eps: float = DEFAULT_EPS) -> bool:
    """Whether the expression f has f(s*x + (1-s)*z) = s*f(x) + (1-s)*f(z)
    at the universal isotropic point (the one ``laplacian`` averages over),
    for each s in ``AFFINE_SCALES``.  Equivalent to harmonicity.  z and
    s*x + (1-s)*z are x + t C Z - t^2 d_1 b Q, t = 1 and 1 - s, from one
    ``GeodesicChart.laplace_offsets`` call.  The residue's Q coordinate is
    read per unit of g(x, z)/n = d_1 Q, as in an orthonormal chart, before
    the float tolerance applies.  f(x) is the unit coordinate of the jet
    f(z); each scaled point takes a jet of its own, so this check stays
    independent of ``laplacian``.  ``eps`` is only that tolerance, the
    chart takes none.  In float mode eps = 0 means exact float equality;
    the scales are dyadic, so the residue's unit coordinate
    f(x) - (1-s) f(x) - s f(x) is an exact 0."""
    chart = geodesic_chart(metric, x, mode=mode)
    x, d1 = chart.base, chart.frame[1][0]
    tol = eps if mode == FLOAT else None
    scales = [to_scalar(s, mode) for s in AFFINE_SCALES]
    unit, *scaled = chart.laplace_offsets((1, *(1 - s for s in scales)))
    f_z = jet_eval(f, x, unit, mode)
    f_x = f_z.coords[0]
    for s, offsets in zip(scales, scaled):
        lhs = jet_eval(f, x, offsets, mode)
        *low, q = (lhs - f_z * (1 - s) - f_x * s).coords
        if not all(scalars_equal(c, 0, tol) for c in (*low, q / d1)):
            return False
    return True


# ---------------------------------------------------------------------------
# conformality, isotropy preservation, and the complex plane
# ---------------------------------------------------------------------------

class ConformalReport(Record):
    """Verdict of ``conformal_check``; ``factor`` is the positive scale k,
    present iff conformal."""

    __slots__ = ("conformal", "factor", "isometry", "mode", "eps")
    _defaults = {"factor": None, "isometry": False, "mode": EXACT, "eps": None}


def conformal_check(
    f: FunctionModel,
    g_src: MetricField,
    g_dst: MetricField,
    x,
    mode: str = EXACT,
    eps: float = DEFAULT_EPS,
) -> ConformalReport:
    """Test whether the pullback m = J^T H(f(x)) J of the target metric
    along df_x is a single positive multiple of the source metric g at x.

    Both modes take the least-squares k = sum m_ij g_ij / sum g_ij^2 over
    the upper triangle and require the residual max |m_ij - k g_ij| to
    vanish (within ``eps`` in float mode) and k > 0.  When m is a multiple
    of g, k is that multiple exactly."""
    check_mode(mode)
    if f.n_in != f.n_out:
        raise ValueError("conformality needs a map between spaces of one dimension")
    if f.n_in != g_src.n or f.n_out != g_dst.n:
        raise ValueError("map dimensions do not match the metrics")
    x = tuple(to_scalar(c, mode) for c in x)
    jac = f.jacobian(x, mode)
    if _linalg.det(jac) == 0:
        raise GeometryError("map is singular at the base point")
    fx = f.evaluate(x, mode)
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


def _flat_laplace_jets(f: FunctionModel, x, mode):
    """f's jets at the generators of ``laplace_algebra(n)``, the universal
    isotropic point of flat n-space, with the Jacobian they carry: each jet
    has coordinates [f_i(x), d_1 f_i .. d_n f_i, 1/2 sum_k d_kk f_i], so
    one jet gives the first partials and the flat Laplacian 2 Q."""
    image = f.jet(x, laplace_algebra(f.n_in).generators(), mode)
    return image, [list(w.coords[1:f.n_in + 1]) for w in image]


def preserves_laplace_neighbors(f: FunctionModel, x, mode: str = EXACT, eps: float = DEFAULT_EPS) -> bool:
    """Whether f maps isotropic neighbors of x to isotropic neighbors of f(x)
    (flat source and target).  Verified on the universal isotropic point,
    whose jet also gives the Jacobian."""
    check_mode(mode)
    if f.n_in != f.n_out:
        raise ValueError("isotropy preservation needs a self-map dimension-wise")
    x = tuple(to_scalar(c, mode) for c in x)
    image, jac = _flat_laplace_jets(f, x, mode)
    if _linalg.det(jac) == 0:
        raise GeometryError("map is singular at the base point")
    return satisfies_laplace_relations([w.nilpotent_part() for w in image], eps if mode == FLOAT else None)


class CRReport(Record):
    """Verdict of ``cr_check``; ``derivative`` is (re, im) of f'(x), present
    iff the map is holomorphic and its components harmonic."""

    __slots__ = ("holomorphic", "derivative", "cr_equations", "orientation_preserving",
                 "harmonic_components", "mode", "eps")
    _defaults = {"derivative": None, "cr_equations": False, "orientation_preserving": False,
                 "harmonic_components": False, "mode": EXACT, "eps": None}


def cr_check(f: FunctionModel, x, mode: str = EXACT, eps: float = DEFAULT_EPS) -> CRReport:
    """Cauchy-Riemann detector for plane maps.

    Checks the first-order equations and orientation; when the components
    are additionally harmonic at x, reports the complex derivative f'(x) =
    a + ib.  The components' jets at the universal isotropic point of the
    plane give all three: the Jacobian, and each Laplacian as twice the Q
    coordinate.  The first-order complex identity f(z) = f(x) + f'(x)(z-x)
    on that point then holds by construction: the difference of its two
    sides has coordinates 0, j01 + j10, j11 - j00 and q in each component,
    which the Cauchy-Riemann and harmonicity tests have already bounded.
    """
    check_mode(mode)
    if f.n_in != 2 or f.n_out != 2:
        raise ValueError("the Cauchy-Riemann detector expects a plane map")
    x = tuple(to_scalar(c, mode) for c in x)
    image, jac = _flat_laplace_jets(f, x, mode)
    tol = eps if mode == FLOAT else None
    cr = scalars_equal(jac[0][0], jac[1][1], tol) and scalars_equal(jac[0][1], -jac[1][0], tol)
    orientation = _linalg.det(jac) > 0
    harmonic = all(scalars_equal(2 * w.coords[3], 0, tol) for w in image)
    holomorphic = cr and orientation
    derivative = (jac[0][0], jac[1][0]) if holomorphic and harmonic else None
    return CRReport(holomorphic, derivative, cr, orientation, harmonic, mode, tol)


def almost_complex_apply(x, z):
    """Quarter-turn of a first-order neighbor around x in the plane:
    (x1 - (z2 - x2), x2 + (z1 - x1))."""
    if len(x) != 2 or len(z) != 2:
        raise ValueError("the almost-complex structure lives on the plane")
    w = point_offsets(z, x)
    _check_order(w, 1)
    return make_point(x, (-w[1], w[0]))
