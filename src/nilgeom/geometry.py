"""Riemannian layer over nilpotent points.

The metric is carried as a square-distance form g(x, y) = (y-x)^T G(x) (y-x)
on pairs of second-order neighbors, G a symmetric matrix of expressions.
Points infinitesimally near a base point are modeled as tuples of Weil
elements whose unit coordinates hold the base; identities are verified on
*universal* points (generic nilpotent coordinates), so a single equation
check covers every neighbor of the given order.

Everything the metric gives at one base point comes from one record,
``_MetricAt``: a first-order jet of each entry of G yields G(x) and its
first partials, and one square-root-free congruence C^T G(x) C = diag(d)
yields G(x)^-1 = C diag(1/d) C^T and the Christoffel symbols.

The central construction is the geodesic chart: a quadratic coordinate
change after which the metric has no first-order variation at the base.
In the plain chart (linear part I) a neighbor is isotropic exactly when its
chart coordinates satisfy zeta_i zeta_j = lam (G(x)^-1)_ij for one lam, a
test with no square root, so exact mode decides it on every nondegenerate
metric.  The universal isotropic point has chart coordinates C Z, with Z
generating a weighted laplace_algebra (the plain one in a normal chart),
and averaging a function over it and its mirror image yields the
Laplacian with no integration and no divergence/gradient detour.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _linalg
from ._record import Record
from .scalars import DEFAULT_EPS, EXACT, FLOAT, Scalar, check_mode, scalars_equal, to_scalar
from .expr import (
    Const,
    Expr,
    FunctionModel,
    Var,
    evaluate,
    format_expr,
    jet_eval,
    parse_expr,
    scalar_function,
    variables,
)
from .weil import (
    Polynomial,
    WeilElement,
    _isotropy_algebra,
    _satisfies_isotropy,
    laplace_algebra,
    satisfies_laplace_relations,
    tensor_algebra,
    truncated_algebra,
)


class GeometryError(ArithmeticError):
    """A mathematical precondition failed: singular metric, improper tangent,
    normalization without positive definiteness, and the like."""


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

class MetricField:
    """Symmetric n x n matrix of expressions; only the upper triangle is
    stored.  Mirrored entries must print alike (``format_expr``), so that
    an asymmetric matrix is rejected rather than read by its upper half."""

    __slots__ = ("n", "_upper")

    def __init__(self, n: int, entries):
        self.n = n
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("metric matrix must be n x n")
        if not all(isinstance(e, Expr) for row in entries for e in row):
            raise TypeError("metric entries must be expressions")
        self._upper = {}
        for i in range(n):
            for j in range(i, n):
                e = entries[i][j]
                bad = [v for v in variables(e) if v >= n]
                if bad:
                    raise ValueError(f"metric entry uses x{bad[0] + 1} beyond dimension {n}")
                if i < j and format_expr(e) != format_expr(entries[j][i]):
                    raise ValueError(
                        f"metric is not symmetric: entries ({i + 1}, {j + 1}) and ({j + 1}, {i + 1}) differ"
                    )
                self._upper[(i, j)] = e

    @classmethod
    def standard_flat(cls, n: int) -> "MetricField":
        return cls(n, [[Const(Fraction(1 if i == j else 0)) for j in range(n)] for i in range(n)])

    @classmethod
    def from_strings(cls, rows) -> "MetricField":
        n = len(rows)
        return cls(n, [[parse_expr(s, n=n) for s in row] for row in rows])

    def entry(self, i, j) -> Expr:
        return self._upper[(i, j) if i <= j else (j, i)]

    def is_standard_flat(self) -> bool:
        for (i, j), e in self._upper.items():
            if not (isinstance(e, Const) and e.value == (1 if i == j else 0)):
                return False
        return True

    def matrix_at(self, x, mode: str = EXACT):
        """Numeric G(x); raises GeometryError when singular."""
        return _MetricAt(self, x, mode, derivatives=False).G

    def to_strings(self):
        return [[format_expr(self.entry(i, j)) for j in range(self.n)] for i in range(self.n)]


class _MetricAt:
    """Everything the metric gives at one base point x.

    A first-order jet of each upper entry of G yields G(x) and its first
    partials; one ``_linalg.congruence`` call yields C and d with
    C^T G(x) C = diag(d), a zero pivot meaning G(x) is singular.  Then
    G(x)^-1 = C diag(1/d) C^T, and det G(x) = prod d since C is a product
    of column additions; the Christoffel symbols follow from G(x)^-1 and
    the partials.  Without ``derivatives`` (``matrix_at``) G is only
    evaluated and ``gamma`` is None.  Built once per call and passed down;
    nothing is cached.
    """

    __slots__ = ("x", "mode", "G", "C", "d", "ginv", "gamma")

    def __init__(self, metric: MetricField, x, mode: str, derivatives: bool = True):
        check_mode(mode)
        n = metric.n
        where = tuple(x)
        self.x = x = tuple(to_scalar(c, mode) for c in x)
        self.mode = mode
        gens = truncated_algebra(n, 1).generators() if derivatives else None
        g = [[None] * n for _ in range(n)]
        dg = [[None] * n for _ in range(n)]  # dg[l][k][j] = d_j G_lk
        for (i, j), e in metric._upper.items():
            if derivatives:
                g[i][j], *dg[i][j] = jet_eval(e, x, gens, mode).coords
                dg[j][i] = dg[i][j]
            else:
                g[i][j] = evaluate(e, x, mode)
            g[j][i] = g[i][j]
        try:
            c, d = _linalg.congruence(g)
        except ZeroDivisionError:
            raise GeometryError(f"metric is singular at {where}") from None
        ginv = [[sum(c[i][k] * c[j][k] / d[k] for k in range(n)) for j in range(n)] for i in range(n)]
        self.G, self.C, self.d, self.ginv = g, c, d, ginv
        self.gamma = _christoffel(dg, ginv) if derivatives else None


def _christoffel(dg, ginv):
    """Gamma^i_jk = 1/2 sum_l G^il (d_k G_lj + d_j G_lk - d_l G_jk) from
    dg[l][k][j] = d_j G_lk; each bracket is formed once per j <= k and
    skipped when it is all zero."""
    n = len(ginv)
    zero = ginv[0][0] * 0
    gamma = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            bracket = [(l, dg[l][k][j] + dg[l][j][k] - dg[j][k][l]) for l in range(n)]
            bracket = [(l, b) for l, b in bracket if b != 0]
            if not bracket:
                continue
            for i in range(n):
                s = sum(ginv[i][l] * b for l, b in bracket) * Fraction(1, 2)
                gamma[i][j][k] = gamma[i][k][j] = s
    return gamma


# ---------------------------------------------------------------------------
# points near a base: tuples of Weil elements, base in the unit coordinate
# ---------------------------------------------------------------------------

def make_point(base, offsets):
    """Attach a real base point to nilpotent offsets."""
    return tuple(w + b for w, b in zip(offsets, base))


def point_offsets(point, base, eps=None):
    """Strip the base off a point model; offsets must come out nilpotent."""
    out = []
    for p, b in zip(point, base):
        w = p - b
        if not w.is_nilpotent(eps):
            raise GeometryError("point is not infinitesimally near the base")
        if eps is not None and w.coords[0] != 0:
            coords = list(w.coords)
            coords[0] = Fraction(0)
            w = w.algebra.element(coords)
        out.append(w)
    return tuple(out)


def _check_order(offsets, order, eps=None):
    """Verify that all (order+1)-fold products of the offsets vanish."""
    elems = list(offsets)
    if not elems:
        return
    frontier = [elems[0].algebra.one()]
    for _ in range(order + 1):
        frontier = [p * w for p in frontier for w in elems]
    for p in frontier:
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
    z = tuple(z)
    if z[0].algebra.degree_bound < 2:
        raise GeometryError("square distance needs an ambient algebra of order >= 2")
    if y is None:
        gm = metric.matrix_at(base, mode)
        return _square(z, {(i, j): gm[i][j] for i, j in metric._upper})
    y = tuple(y)
    d = tuple(zz - yy for zz, yy in zip(z, y))
    return _square(d, {ij: jet_eval(e, base, y, mode) for ij, e in metric._upper.items()})


def _square(d, upper):
    """d^T G d from the upper triangle {(i, j): G_ij} of a symmetric G."""
    return sum(d[i] * g * d[j] * (1 if i == j else 2) for (i, j), g in upper.items())


def gbar_eval(metric: MetricField, base, z, y=None, mode: str = EXACT) -> WeilElement:
    """The symmetric extension of g to third-order neighbor pairs:
    (z-y)^T (G(p) + 1/2 D_{z-y}G(p)) (z-y) with p = base + y.

    One jet of G at y + e (z-y) in the ambient algebra tensored with a
    square-zero e gives G(p) + e D_{z-y}G(p); the sum is formed there and
    its e-part is halved on the way back to the ambient algebra."""
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
    total = _square(dd, {ij: jet_eval(e, base, offsets, mode) for ij, e in metric._upper.items()})
    back = [
        algebra.from_polynomial(Polynomial(algebra.n, {m[:-1]: Fraction(1, 2) if m[-1] else 1}))
        for m in pair.basis
    ]
    return sum((v * c for v, c in zip(back, total.coords) if c != 0), start=algebra.zero())


# ---------------------------------------------------------------------------
# Christoffel symbols and geodesic charts
# ---------------------------------------------------------------------------

def christoffel(metric: MetricField, x, mode: str = EXACT):
    """Gamma^i_{jk} at x from the classical first-derivative formula (see
    ``_MetricAt``)."""
    return _MetricAt(metric, x, mode).gamma


class GeodesicChart:
    """Quadratic coordinate change that is geodesic at its base point.

    The forward map sends chart coordinates y to
    base + A y - 1/2 Gamma(Ay, Ay); its linear part A is the identity (the
    plain chart) or an orthonormal frame with A^T G(x) A = I (a normal
    chart), so A^-1 is I or A^T G(x) and needs no solve.  The
    pushed-forward metric has vanishing first partials at 0, so mirror
    images, affine combinations and geodesic prolongations become plain
    coordinate algebra.  ``frame`` holds C and d with
    C^T Ghat0 C = diag(d), the weights of ``laplace_point``.
    """

    __slots__ = ("metric", "base", "mode", "eps", "A", "A_inv", "gamma", "G0", "Ghat0", "normal", "frame")

    def __init__(self, metric: MetricField, at: _MetricAt, eps, A=None):
        ident = _linalg.identity(metric.n)
        self.metric = metric
        self.base = at.x
        self.mode = at.mode
        self.eps = eps
        self.gamma = at.gamma
        self.G0 = at.G
        if A is None:
            self.A = self.A_inv = ident
            self.Ghat0 = at.G
            self.frame = (at.C, at.d)
            self.normal = at.G == ident
        else:
            self.A = A
            self.A_inv = _linalg.mat_mul(_linalg.transpose(A), at.G)
            self.Ghat0 = ident
            self.frame = (ident, [Fraction(1)] * metric.n)
            self.normal = True

    @property
    def n(self):
        return self.metric.n

    # -- point transport ---------------------------------------------------

    def _half_gamma(self, w):
        """1/2 Gamma(w, w), componentwise, for Weil elements or expressions."""
        return [
            sum(w[j] * w[k] * g for j, row in enumerate(plane) for k, g in enumerate(row) if g != 0) * Fraction(1, 2)
            for plane in self.gamma
        ]

    def push_offsets(self, zeta):
        """Chart coordinates (nilpotent) -> manifold offsets from the base."""
        az = _apply(self.A, zeta)
        return tuple(a - c for a, c in zip(az, self._half_gamma(az)))

    def pull_offsets(self, w):
        """Manifold offsets from the base -> chart coordinates."""
        w = tuple(w)
        return _apply(self.A_inv, [a + c for a, c in zip(w, self._half_gamma(w))])

    def from_chart(self, zeta):
        return make_point(self.base, self.push_offsets(zeta))

    def to_chart(self, point):
        eps = self.eps if self.mode == FLOAT else None
        return self.pull_offsets(point_offsets(point, self.base, eps))

    def principal_in_chart(self, u):
        """Chart principal part of a manifold tangent principal part."""
        return _linalg.mat_vec(self.A_inv, list(u))

    # -- expression models ---------------------------------------------------

    def forward_model(self) -> FunctionModel:
        """The forward map as expressions in the chart coordinates."""
        offsets = self.push_offsets([Var(i) for i in range(self.n)])
        return FunctionModel(self.n, self.n, tuple(Const(b) + w for b, w in zip(self.base, offsets)))

    def inverse_model(self) -> FunctionModel:
        """The inverse map as expressions in the manifold coordinates."""
        offsets = [Var(i) - Const(b) for i, b in enumerate(self.base)]
        return FunctionModel(self.n, self.n, self.pull_offsets(offsets))


def _apply(m, v):
    """The matrix m times a vector v of Weil elements or expressions."""
    return tuple(sum(mij * vj for mij, vj in zip(row, v)) for row in m)


def geodesic_chart(
    metric: MetricField,
    x,
    normalize: bool = False,
    mode: str = EXACT,
    eps: float = DEFAULT_EPS,
) -> GeodesicChart:
    """Build a chart geodesic at x.

    The plain chart (linear part I) exists on every nondegenerate metric,
    and ``laplace_point`` and ``is_laplace_neighbor`` need nothing more.
    With ``normalize`` the chart is normal (pushed-forward metric I at 0):
    exact mode allows that only when G(x) is already the identity; float
    mode scales column i of the congruence C^T G(x) C = diag(d) by
    1/sqrt(d_i), so it requires positive definiteness.
    """
    check_mode(mode)
    at = _MetricAt(metric, x, mode)
    ident = _linalg.identity(metric.n)
    if not normalize:
        return GeodesicChart(metric, at, eps)
    if at.G == ident:
        return GeodesicChart(metric, at, eps, ident)
    if mode == EXACT:
        raise GeometryError("exact normalization needs G(x) = I; use the plain chart or float mode")
    if not all(v > 0 for v in at.d):
        raise GeometryError("metric is not positive definite at the base point")
    return GeodesicChart(metric, at, eps, [[v / math.sqrt(dj) for v, dj in zip(row, at.d)] for row in at.C])


# ---------------------------------------------------------------------------
# chart-level geometry: mirrors, affine combinations, prolongations
# ---------------------------------------------------------------------------

def mirror(chart: GeodesicChart, z):
    """Mirror image of z in the chart base: negation of chart coordinates,
    intrinsically the affine combination 2x - z."""
    zeta = chart.to_chart(z)
    return chart.from_chart(tuple(-c for c in zeta))


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
    u_chart = chart.principal_in_chart(t.u)
    return chart.from_chart(tuple(delta * c for c in u_chart))


def inner_product(metric: MetricField, t: TangentVector, s: TangentVector, mode: str = EXACT) -> Scalar:
    """u^T G(x) v for tangents at a common base point."""
    if tuple(t.base) != tuple(s.base):
        raise ValueError("tangents must share a base point")
    gm = metric.matrix_at(t.base, mode)
    return sum(t.u[i] * sum(gm[i][j] * s.u[j] for j in range(metric.n)) for i in range(metric.n))


def scalar_component(chart: GeodesicChart, z, t: TangentVector) -> WeilElement:
    """The cube-zero parameter alpha with proj_t(z) = prolongation of t at alpha.

    In chart coordinates: (u . G_chart zeta) / (u . G_chart u), which reduces
    to the familiar (z . u)/(u . u) in a normal chart.
    """
    if tuple(t.base) != chart.base:
        raise GeometryError("tangent is not based at the chart base")
    u_chart = chart.principal_in_chart(t.u)
    gu = _linalg.mat_vec(chart.Ghat0, u_chart)
    norm = sum(a * b for a, b in zip(u_chart, gu))
    if norm == 0 or (chart.mode == FLOAT and abs(norm) <= chart.eps):
        raise GeometryError("improper tangent: <t,t> is not invertible")
    zeta = chart.to_chart(z)
    acc = zeta[0].algebra.zero()
    for c, w in zip(gu, zeta):
        acc = acc + w * c
    return acc * (Fraction(1) / norm if chart.mode == EXACT else 1.0 / norm)


def orthogonal_projection(chart: GeodesicChart, z, t: TangentVector):
    """Projection of a second-order point onto the geodesic of a proper tangent."""
    alpha = scalar_component(chart, z, t)
    return geodesic_prolong(chart, t, alpha)


# ---------------------------------------------------------------------------
# isotropic (Laplace) neighbors and the Laplacian
# ---------------------------------------------------------------------------

def laplace_point(chart: GeodesicChart):
    """The universal isotropic second-order neighbor of the chart base, on
    any chart of any nondegenerate metric.

    Its chart coordinates are C Z, where C^T Ghat0 C = diag(d) is the
    chart's ``frame`` and the Z_i generate Z_i^2 = (d_1/d_i) Q, Z_i Z_j = 0,
    so that g(x, z) = sum d_i Z_i^2 = n d_1 Q sees no direction.  In a
    normal chart C = I, d = 1 and the Z_i generate ``laplace_algebra(n)``.
    An identity verified on this single point holds for every isotropic
    neighbor.
    """
    return chart.from_chart(_weighted_point(*chart.frame))


def _weighted_point(c, d):
    """Chart coordinates C Z of the universal isotropic point of diag(d)."""
    return _apply(c, _isotropy_algebra([Fraction(d[0]) / Fraction(v) for v in d]).generators())


def is_laplace_neighbor(metric: MetricField, x, z, mode: str = EXACT, eps: float = DEFAULT_EPS) -> bool:
    """Whether the point model z is an isotropic second-order neighbor of x:
    square distance blind to every direction.  In the plain geodesic chart
    that means coordinates with zeta_i zeta_j = lam (G(x)^-1)_ij for one
    lam (``weil._satisfies_isotropy``), which needs no square root, so both
    modes answer on every nondegenerate metric.

    Float mode reads the residue per unit of lam, in an orthonormal frame
    so that one tolerance fits every entry (those of G^-1 may differ by
    orders of magnitude): it tests eta = |d|^(-1/2) C^T G(x) zeta, where
    G^-1 becomes diag(sign d), scaled so that its largest square has
    coordinates of size 1, against ``eps``.
    """
    at = _MetricAt(metric, x, mode)
    chart = GeodesicChart(metric, at, eps)
    tol = eps if mode == FLOAT else None
    zeta = chart.to_chart(z)
    _check_order(zeta, 2, tol)
    if mode == EXACT:
        return _satisfies_isotropy(zeta, at.ginv)
    frame = _linalg.mat_mul(_linalg.transpose(at.C), at.G)
    eta = _apply([[f / math.sqrt(abs(dk)) for f in row] for row, dk in zip(frame, at.d)], zeta)
    unit = max(abs(c) for w in eta for c in (w * w).coords)
    if unit > 0:
        eta = [w * (1 / math.sqrt(unit)) for w in eta]
    signs = [[math.copysign(1.0, dk) if i == k else 0.0 for k in range(len(at.d))] for i, dk in enumerate(at.d)]
    return _satisfies_isotropy(eta, signs, tol)


def _as_scalar_model(f, n):
    if isinstance(f, Expr):
        return scalar_function(f, n)
    if isinstance(f, FunctionModel):
        if f.n_out != 1:
            raise ValueError("expected a scalar function model")
        return f
    raise TypeError("expected an expression or function model")


def _universal_point(metric, x, mode, eps):
    """The plain geodesic chart at x, the chart coordinates of its universal
    isotropic point (see ``laplace_point``) and d_1, for any mode and any
    nondegenerate (also indefinite) G."""
    chart = geodesic_chart(metric, x, mode=mode, eps=eps)
    return chart, _weighted_point(*chart.frame), chart.frame[1][0]


def laplacian(metric: MetricField, f, x, mode: str = EXACT, eps: float = DEFAULT_EPS) -> Scalar:
    """The Laplacian at x by the mirror-image average.

    Evaluate f at the universal isotropic point z and at its mirror image,
    form f(z) + f(z') - 2 f(x); only the isotropic square-class coordinate
    survives, and dividing by the matching coordinate of g(x, z) = n d_1 Q
    gives the eigenvalue L.  The result is n * L.

    Both modes take this one route, with no square root, on any
    nondegenerate metric (see ``_universal_point``); an indefinite one gives
    the wave operator.
    """
    f = _as_scalar_model(f, metric.n)
    chart, gens, d1 = _universal_point(metric, x, mode, eps)
    x = chart.base
    n = metric.n
    w_plus = chart.push_offsets(gens)
    w_minus = chart.push_offsets(tuple(-g for g in gens))
    expr = f.components[0]
    f_z = jet_eval(expr, x, w_plus, mode)
    f_mirror = jet_eval(expr, x, w_minus, mode)
    f_x = evaluate(expr, x, mode)
    combined = f_z + f_mirror - f_x * 2
    tol = eps if mode == FLOAT else None
    for c in combined.coords[: n + 1]:
        if not scalars_equal(c, 0, tol):
            raise GeometryError("mirror average has a non-isotropic residue; chart is not geodesic")
    return combined.coords[n + 1] / d1


def laplace_taylor(metric: MetricField, f, x, offsets, mode: str = EXACT) -> WeilElement:
    """Reconstruct f at an isotropic neighbor from value, differential and
    Laplacian: f(x) + df_x(z-x) + (Laplacian/2n) ||z-x||^2.

    Only valid over the standard flat metric; the result equals the jet of f
    exactly whenever the offsets satisfy the isotropy relations.
    """
    if not metric.is_standard_flat():
        raise GeometryError("the Taylor reconstruction requires the standard flat metric")
    f = _as_scalar_model(f, metric.n)
    expr = f.components[0]
    n = metric.n
    offsets = tuple(offsets)
    algebra = offsets[0].algebra
    value = evaluate(expr, x, mode)
    out = algebra.scalar(value)
    for w, partial in zip(offsets, f.jacobian(x, mode)[0]):
        out = out + w * partial
    lap = laplacian(metric, f, x, mode=mode)
    norm_sq = algebra.zero()
    for w in offsets:
        norm_sq = norm_sq + w * w
    return out + norm_sq * (lap / (2 * n))


def is_harmonic_at(metric: MetricField, f, x, mode: str = EXACT, eps: float = DEFAULT_EPS) -> bool:
    """Vanishing Laplacian at x (exactly, or within eps in float mode)."""
    lap = laplacian(metric, f, x, mode=mode, eps=eps)
    return scalars_equal(lap, 0, eps if mode == FLOAT else None)


DEFAULT_SCALES = (Fraction(-1), Fraction(2), Fraction(1, 2))


def preserves_affine_combinations(
    metric: MetricField,
    f,
    x,
    scales=DEFAULT_SCALES,
    mode: str = EXACT,
    eps: float = DEFAULT_EPS,
) -> bool:
    """Whether f(s*x + (1-s)*z) = s*f(x) + (1-s)*f(z) at the universal
    isotropic point (the one ``laplacian`` averages over), for each sampled
    scale.  Equivalent to harmonicity.  The residue's Q coordinate is read
    per unit of g(x, z)/n = d_1 Q, as in an orthonormal chart, before the
    float tolerance applies."""
    f = _as_scalar_model(f, metric.n)
    expr = f.components[0]
    chart, gens, d1 = _universal_point(metric, x, mode, eps)
    x = chart.base
    tol = eps if mode == FLOAT else None
    f_x = evaluate(expr, x, mode)
    f_z = jet_eval(expr, x, chart.push_offsets(gens), mode)
    for s in scales:
        s = to_scalar(s, mode)
        scaled = tuple(g * (1 - s) for g in gens)
        lhs = jet_eval(expr, x, chart.push_offsets(scaled), mode)
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
    """Test whether the pullback of the target metric along df_x is a single
    positive multiple of the source metric at x."""
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
    if mode == EXACT:
        k = None
        for mv, gv in pairs:
            if gv != 0:
                k = mv / gv
                break
        if k is None:
            raise GeometryError("source metric vanishes identically at the point")
        ok = all(mv == k * gv for mv, gv in pairs) and k > 0
        return ConformalReport(ok, k if ok else None, ok and k == 1, EXACT, None)
    denom = sum(gv * gv for _, gv in pairs)
    if denom == 0:
        raise GeometryError("source metric vanishes identically at the point")
    k = sum(mv * gv for mv, gv in pairs) / denom
    residual = max(abs(mv - k * gv) for mv, gv in pairs)
    ok = residual <= eps and k > 0
    return ConformalReport(ok, k if ok else None, ok and abs(k - 1) <= eps, FLOAT, eps)


def preserves_laplace_neighbors(f: FunctionModel, x, mode: str = EXACT, eps: float = DEFAULT_EPS) -> bool:
    """Whether f maps isotropic neighbors of x to isotropic neighbors of f(x)
    (flat source and target).  Verified on the universal isotropic point."""
    check_mode(mode)
    if f.n_in != f.n_out:
        raise ValueError("isotropy preservation needs a self-map dimension-wise")
    x = tuple(to_scalar(c, mode) for c in x)
    jac = f.jacobian(x, mode)
    if _linalg.det(jac) == 0:
        raise GeometryError("map is singular at the base point")
    gens = laplace_algebra(f.n_in).generators()
    image = f.jet(x, gens, mode)
    fx = f.evaluate(x, mode)
    offsets = [w - v for w, v in zip(image, fx)]
    return satisfies_laplace_relations(offsets, eps if mode == FLOAT else None)


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
    are additionally harmonic at x, reports the complex derivative and
    verifies the first-order complex identity f(z) = f(x) + f'(x)(z-x)
    on the universal isotropic point of the plane.
    """
    check_mode(mode)
    if f.n_in != 2 or f.n_out != 2:
        raise ValueError("the Cauchy-Riemann detector expects a plane map")
    x = tuple(to_scalar(c, mode) for c in x)
    jac = f.jacobian(x, mode)
    tol = eps if mode == FLOAT else None
    cr = scalars_equal(jac[0][0], jac[1][1], tol) and scalars_equal(jac[0][1], -jac[1][0], tol)
    orientation = _linalg.det(jac) > 0
    flat = MetricField.standard_flat(2)
    harmonic = all(
        is_harmonic_at(flat, comp, x, mode=mode, eps=eps) for comp in f.components
    )
    holomorphic = cr and orientation
    derivative = None
    if holomorphic and harmonic:
        a, b = jac[0][0], jac[1][0]
        gens = laplace_algebra(2).generators()
        image = f.jet(x, gens, mode)
        fx = f.evaluate(x, mode)
        expected = (
            fx[0] + gens[0] * a - gens[1] * b,
            fx[1] + gens[0] * b + gens[1] * a,
        )
        for got, want in zip(image, expected):
            if not (got - want).is_zero(tol):
                raise GeometryError("complex derivative failed to reproduce the map on the isotropic point")
        derivative = (a, b)
    return CRReport(holomorphic, derivative, cr, orientation, harmonic, mode, eps if mode == FLOAT else None)


def almost_complex_apply(x, z):
    """Quarter-turn of a first-order neighbor around x in the plane:
    (x1 - (z2 - x2), x2 + (z1 - x1))."""
    if len(x) != 2 or len(z) != 2:
        raise ValueError("the almost-complex structure lives on the plane")
    w = point_offsets(z, x)
    _check_order(w, 1)
    return make_point(x, (-w[1], w[0]))
