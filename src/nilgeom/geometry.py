"""Riemannian layer over nilpotent points.

The metric is carried as a square-distance form g(x, y) = (y-x)^T G(x) (y-x)
on pairs of second-order neighbors, G a symmetric matrix of expressions.
Points infinitesimally near a base point are modeled as tuples of Weil
elements whose unit coordinates hold the base; identities are verified on
*universal* points (generic nilpotent coordinates), so a single equation
check covers every neighbor of the given order.

The central construction is the geodesic chart: a quadratic coordinate
change after which the metric has no first-order variation at the base.
In a chart whose linear part diagonalizes G(x) by an exact congruence the
isotropic second-order neighbors form a weighted laplace_algebra point set
(the plain one in a normal chart), and averaging a function over a point
and its mirror image yields the Laplacian with no integration and no
divergence/gradient detour.
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
    diff,
    evaluate,
    format_expr,
    jet_eval,
    parse_expr,
    scalar_function,
)
from .weil import WeilElement, _isotropy_algebra, laplace_algebra, satisfies_laplace_relations, truncated_algebra


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
                bad = [v for v in _expr_vars(e) if v >= n]
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
        m = [[evaluate(self.entry(i, j), x, mode) for j in range(self.n)] for i in range(self.n)]
        if _linalg.det(m) == 0:
            raise GeometryError(f"metric is singular at {tuple(x)}")
        return m

    def jet_matrix(self, base, offsets, mode: str = EXACT):
        """G evaluated at base + offsets inside the offsets' algebra."""
        return [
            [jet_eval(self.entry(i, j), base, offsets, mode) for j in range(self.n)]
            for i in range(self.n)
        ]

    def to_strings(self):
        return [[format_expr(self.entry(i, j)) for j in range(self.n)] for i in range(self.n)]


def _expr_vars(e):
    from .expr import variables

    return variables(e)


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
    algebra = z[0].algebra
    if algebra.degree_bound < 2:
        raise GeometryError("square distance needs an ambient algebra of order >= 2")
    if y is None:
        gm = metric.matrix_at(base, mode)
        d = z
    else:
        gm = metric.jet_matrix(base, tuple(y), mode)
        d = tuple(zz - yy for zz, yy in zip(z, y))
    total = algebra.zero()
    for i in range(metric.n):
        for j in range(metric.n):
            total = total + d[i] * gm[i][j] * d[j]
    return total


def gbar_eval(metric: MetricField, base, z, y=None, mode: str = EXACT) -> WeilElement:
    """The symmetric extension of g to third-order neighbor pairs:
    (z-y)^T (G(p) + 1/2 D_{z-y}G(p)) (z-y) with p = base + y."""
    z = tuple(z)
    algebra = z[0].algebra
    if algebra.degree_bound < 3:
        raise GeometryError("extended square distance needs an ambient algebra of order >= 3")
    y = tuple(y) if y is not None else tuple(algebra.zero() for _ in z)
    d = tuple(zz - yy for zz, yy in zip(z, y))
    gm = metric.jet_matrix(base, y, mode)
    n = metric.n
    correction = [[algebra.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = algebra.zero()
            for k in range(n):
                acc = acc + jet_eval(diff(metric.entry(i, j), k), base, y, mode) * d[k]
            correction[i][j] = acc
            correction[j][i] = acc
    total = algebra.zero()
    half = Fraction(1, 2)
    for i in range(n):
        for j in range(n):
            total = total + d[i] * (gm[i][j] + correction[i][j] * half) * d[j]
    return total


# ---------------------------------------------------------------------------
# Christoffel symbols and geodesic charts
# ---------------------------------------------------------------------------

def christoffel(metric: MetricField, x, mode: str = EXACT):
    """Gamma^i_{jk} at x from the classical first-derivative formula; each
    bracket is formed once per j <= k and skipped when it is all zero."""
    n = metric.n
    gm = metric.matrix_at(x, mode)
    ginv = _linalg.invert(gm)
    # dg[l][k][j] = d_j G_lk: first-order jet coordinates
    jets = metric.jet_matrix(x, truncated_algebra(n, 1).generators(), mode)
    dg = [[jets[l][k].coords[1:] for k in range(n)] for l in range(n)]
    zero = gm[0][0] * 0
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


class GeodesicChart:
    """Quadratic coordinate change that is geodesic at its base point.

    The forward map sends chart coordinates y to
    base + A y - 1/2 Gamma(Ay, Ay); its linear part A defaults to the
    identity and is an orthonormalizer when the chart is normal.  The
    pushed-forward metric has vanishing first partials at 0, so mirror
    images, affine combinations and geodesic prolongations become plain
    coordinate algebra.
    """

    __slots__ = ("metric", "base", "mode", "eps", "A", "A_inv", "gamma", "G0", "Ghat0", "normal")

    def __init__(self, metric, base, mode, eps, A, gamma, G0, normal):
        self.metric = metric
        self.base = tuple(base)
        self.mode = mode
        self.eps = eps
        self.A = A
        self.A_inv = _linalg.invert(A)
        self.gamma = gamma
        self.G0 = G0
        self.Ghat0 = _linalg.mat_mul(_linalg.transpose(A), _linalg.mat_mul(G0, A))
        self.normal = normal

    @property
    def n(self):
        return self.metric.n

    # -- point transport ---------------------------------------------------

    def push_offsets(self, zeta):
        """Chart coordinates (nilpotent) -> manifold offsets from the base."""
        zeta = tuple(zeta)
        n = self.n
        az = [sum((self.A[i][j] * zeta[j] for j in range(n)), start=zeta[0].algebra.zero()) for i in range(n)]
        out = []
        for i in range(n):
            corr = zeta[0].algebra.zero()
            for j in range(n):
                for k in range(n):
                    gjk = self.gamma[i][j][k]
                    if gjk != 0:
                        corr = corr + az[j] * az[k] * gjk
            out.append(az[i] - corr * Fraction(1, 2))
        return tuple(out)

    def pull_offsets(self, w):
        """Manifold offsets from the base -> chart coordinates."""
        w = tuple(w)
        n = self.n
        corrected = []
        for i in range(n):
            corr = w[0].algebra.zero()
            for j in range(n):
                for k in range(n):
                    gjk = self.gamma[i][j][k]
                    if gjk != 0:
                        corr = corr + w[j] * w[k] * gjk
            corrected.append(w[i] + corr * Fraction(1, 2))
        return tuple(
            sum((self.A_inv[i][j] * corrected[j] for j in range(n)), start=w[0].algebra.zero())
            for i in range(n)
        )

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
        n = self.n
        comps = []
        for i in range(n):
            e = Const(self.base[i])
            for j in range(n):
                e = e + Const(self.A[i][j]) * Var(j)
            for j in range(n):
                for k in range(n):
                    if self.gamma[i][j][k] != 0:
                        az_j = _linear_expr(self.A, j)
                        az_k = _linear_expr(self.A, k)
                        e = e - Const(Fraction(1, 2) * self.gamma[i][j][k]) * az_j * az_k
            comps.append(e)
        return FunctionModel(n, n, tuple(comps))

    def inverse_model(self) -> FunctionModel:
        n = self.n
        w = [Var(i) - Const(self.base[i]) for i in range(n)]
        corrected = []
        for i in range(n):
            e = w[i]
            for j in range(n):
                for k in range(n):
                    if self.gamma[i][j][k] != 0:
                        e = e + Const(Fraction(1, 2) * self.gamma[i][j][k]) * w[j] * w[k]
            corrected.append(e)
        comps = []
        for i in range(n):
            e = Const(Fraction(0))
            for j in range(n):
                e = e + Const(self.A_inv[i][j]) * corrected[j]
            comps.append(e)
        return FunctionModel(n, n, tuple(comps))


def _linear_expr(a, row):
    e = Const(Fraction(0))
    for j in range(len(a)):
        e = e + Const(a[row][j]) * Var(j)
    return e


def geodesic_chart(
    metric: MetricField,
    x,
    normalize: bool = False,
    mode: str = EXACT,
    eps: float = DEFAULT_EPS,
    normalizer=None,
) -> GeodesicChart:
    """Build a chart geodesic at x; with ``normalize`` the chart is normal
    (pushed-forward metric is the identity at 0).

    Exact mode can normalize only when G(x) is already the identity or the
    caller supplies an exact congruence A with A^T G(x) A = I.  Float mode
    takes the square-root-free congruence C^T G(x) C = diag(d) and scales
    column i by 1/sqrt(d_i), so it requires positive definiteness.
    """
    check_mode(mode)
    x = tuple(to_scalar(c, mode) for c in x)
    g0 = metric.matrix_at(x, mode)
    gamma = christoffel(metric, x, mode)
    n = metric.n
    ident = _linalg.identity(n)
    if not normalize:
        a = ident
        normal = all(g0[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))
    elif normalizer is not None:
        a = [[to_scalar(v, mode) for v in row] for row in normalizer]
        congruent = _linalg.mat_mul(_linalg.transpose(a), _linalg.mat_mul(g0, a))
        for i in range(n):
            for j in range(n):
                if not scalars_equal(congruent[i][j], 1 if i == j else 0, eps if mode == FLOAT else None):
                    raise GeometryError("supplied normalizer is not a congruence to the identity")
        normal = True
    elif all(g0[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)):
        a = ident
        normal = True
    elif mode == FLOAT:
        c, d = _linalg.congruence(g0)
        if not all(v > 0 for v in d):
            raise GeometryError("metric is not positive definite at the base point")
        a = [[v / math.sqrt(dj) for v, dj in zip(row, d)] for row in c]
        normal = True
    else:
        raise GeometryError(
            "exact normalization needs G(x) = I or an explicit exact congruence; use float mode"
        )
    return GeodesicChart(metric, x, mode, eps, a, gamma, g0, normal)


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
    """The universal isotropic second-order neighbor of the chart base.

    Its coordinates generate the laplace algebra, so an identity verified on
    this single point holds for every isotropic neighbor.
    """
    if not chart.normal:
        raise GeometryError("the universal isotropic point needs a normal chart")
    gens = laplace_algebra(chart.n).generators()
    return chart.from_chart(gens)


def is_laplace_neighbor(metric: MetricField, x, z, mode: str = EXACT, eps: float = DEFAULT_EPS) -> bool:
    """Whether the point model z is an isotropic second-order neighbor of x:
    square distance blind to every direction (all chart squares equal, all
    chart cross-products zero)."""
    chart = geodesic_chart(metric, x, normalize=True, mode=mode, eps=eps)
    tol = eps if mode == FLOAT else None
    zeta = chart.to_chart(z)
    _check_order(zeta, 2, tol)
    return satisfies_laplace_relations(zeta, tol)


def _as_scalar_model(f, n):
    if isinstance(f, Expr):
        return scalar_function(f, n)
    if isinstance(f, FunctionModel):
        if f.n_out != 1:
            raise ValueError("expected a scalar function model")
        return f
    raise TypeError("expected an expression or function model")


def _universal_point(metric, x, mode, eps):
    """The geodesic chart at x and its universal isotropic point: chart
    coordinates C Z, where C^T G(x) C = diag(d) by the square-root-free
    ``_linalg.congruence`` and the Z_i generate Z_i^2 = (d_1/d_i) Q, so that
    g(x, z) = sum d_i Z_i^2 = n d_1 Q sees no direction, for any mode and any
    nondegenerate (also indefinite) G.  Also returns d_1."""
    chart = geodesic_chart(metric, x, mode=mode, eps=eps)
    c, d = _linalg.congruence(chart.G0)
    z = _isotropy_algebra([Fraction(d[0]) / Fraction(v) for v in d]).generators()
    zero = z[0].algebra.zero()
    gens = tuple(sum((cij * zj for cij, zj in zip(row, z)), start=zero) for row in c)
    return chart, gens, d[0]


def laplacian(metric: MetricField, f, x, mode: str = EXACT, eps: float = DEFAULT_EPS) -> Scalar:
    """The Laplacian at x by the mirror-image average.

    Evaluate f at the universal isotropic point z and at its mirror image,
    form f(z) + f(z') - 2 f(x); only the isotropic square-class coordinate
    survives, and dividing by the matching coordinate of g(x, z) gives the
    eigenvalue L.  The result is n * L.

    Both modes take this one route, with no square root, on any
    nondegenerate metric (see ``_universal_point``); an indefinite one gives
    the wave operator.
    """
    f = _as_scalar_model(f, metric.n)
    chart, gens, _ = _universal_point(metric, x, mode, eps)
    x = chart.base
    n = metric.n
    w_plus = chart.push_offsets(gens)
    w_minus = chart.push_offsets(tuple(-g for g in gens))
    expr = f.components[0]
    f_z = jet_eval(expr, x, w_plus, mode)
    f_mirror = jet_eval(expr, x, w_minus, mode)
    f_x = evaluate(expr, x, mode)
    combined = f_z + f_mirror - f_x * 2
    g_val = g_eval(metric, x, w_plus, mode=mode)
    tol = eps if mode == FLOAT else None
    for c in combined.coords[: n + 1]:
        if not scalars_equal(c, 0, tol):
            raise GeometryError("mirror average has a non-isotropic residue; chart is not geodesic")
    q_num = combined.coords[n + 1]
    q_den = g_val.coords[n + 1]
    return n * q_num / q_den


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
