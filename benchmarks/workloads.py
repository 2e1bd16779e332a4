"""Seeded operation lists for the three workloads.

Each builder returns the list of operations that make up one round.  The seed
picks coefficients, base points and orthogonal frames; it never changes how
many operations of each kind a round holds, their degrees, orders or
dimensions, so the cost of a round barely moves between seeds.  Building the
list (parsing, metric fields, algebras, metric files) is the workload's
set-up; ``Op.run`` is the timed call and ``Op.check`` compares its output
with the independent references in ``oracles``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction as F

import nilgeom as ng
import nilgeom.cli

import oracles as orc


class Op:
    """One timed call.  ``check(result, first_round)`` returns True when the
    result agrees with the reference; ``first_round`` holds every
    operation's result from the same round, for cross-operation identities."""

    __slots__ = ("kind", "attrs", "run", "check")

    def __init__(self, kind, attrs, run, check):
        self.kind = kind
        self.attrs = attrs
        self.run = run
        self.check = check


def build(workload, seed, tiny=False, cli_env=None):
    """The operation list of one round.  With ``cli_env`` the laplace-mix
    list ends with the CLI command list, run in-process: the traced run
    measures the ``cli`` layer there, since no workload starts the CLI cold."""
    rng = random.Random(f"{workload}:{seed}")
    # two independently seeded copies give a round over 100 distinct
    # operations, so more than ten lie beyond the 90th percentile
    copies = 1 if tiny else 2
    if workload == "laplace-mix":
        ops = [op for _ in range(copies) for op in laplace_mix(rng, tiny)]
        return ops + cli_commands(rng, tiny, cli_env) if cli_env else ops
    if workload == "jet-orders":
        return jet_orders(rng, tiny, copies)
    if workload == "coalgebra-dims":
        return coalgebra_dims(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# seeded values
# ---------------------------------------------------------------------------

def nonzero(rng, lo, hi):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def rational(rng, top=3, dens=(1, 2, 3)):
    return F(nonzero(rng, -top, top), rng.choice(dens))


def coef(rng):
    """A coefficient that is never 0 or +-1: nilgeom folds factors of 0 and 1
    away, so these keep every seed's expression trees the same shape."""
    return rng.choice((1, -1)) * rng.choice((F(2), F(3), F(3, 2), F(5, 2)))


def point(rng, n):
    """Coordinates from a small set, so exact arithmetic on them handles
    numbers of about the same size whatever the seed."""
    return tuple(rng.choice((1, -1)) * rng.choice((F(1, 2), F(1), F(3, 2), F(2))) for _ in range(n))


def float_point(rng, n):
    return tuple(round(rng.uniform(-0.9, 0.9), 2) or 0.25 for _ in range(n))


def random_poly(rng, n, degrees):
    """One term of each listed total degree (the next lower degree when every
    monomial of that degree is taken) with seeded non-zero coefficients.  The
    monomials are fixed by n and the degrees: the seed moves values, never
    the shape, which is what sets the cost of a symbolic derivative."""
    terms = {}
    for d in degrees:
        while True:
            free = [m for m in orc.monomials(n, d) if sum(m) == d and m not in terms]
            if free or d == 0:
                break
            d -= 1
        if free:
            terms[free[len(free) // 2]] = coef(rng)
    return terms


def fdet(m):
    """Determinant over Fractions by elimination."""
    m = [list(map(F, row)) for row in m]
    n, sign, out = len(m), 1, F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        out *= m[c][c]
        for r in range(c + 1, n):
            factor = m[r][c] / m[c][c]
            m[r] = [a - factor * b for a, b in zip(m[r], m[c])]
    return sign * out


ORTHO_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


def rational_rotation(rng, n):
    """An orthogonal matrix with rational entries: a Pythagorean rotation or
    reflection in one coordinate plane, +-1 on the other axes."""
    a, b, c = rng.choice(ORTHO_TRIPLES)
    i, j = rng.sample(range(n), 2)
    r = [[F(int(p == q)) * rng.choice((1, -1)) if p == q else F(0) for q in range(n)] for p in range(n)]
    flip = rng.choice((1, -1))
    r[i][i], r[i][j] = F(a, c), F(-b, c)
    r[j][i], r[j][j] = F(b, c) * flip, F(a, c) * flip
    return r


# ---------------------------------------------------------------------------
# metrics (full matrices of entry strings; nilgeom reads the upper triangle)
# ---------------------------------------------------------------------------

def curved_metric(rng, n):
    """G(x) != I at the returned point: diagonal a + b x_j^2 > 1, couplings c x_i x_j."""
    rows = [[None] * n for _ in range(n)]
    diag = [(rng.choice((1, 2, 3)), rng.choice((F(1, 2), F(3, 2), F(2)))) for _ in range(n)]
    couple = {}
    for i in range(n):
        rows[i][i] = f"{diag[i][0]}+{orc.coeff_text(diag[i][1])}*x{(i + 1) % n + 1}^2"
        for j in range(i + 1, n):
            couple[i, j] = rng.choice((1, -1)) * rng.choice((F(1, 4), F(1, 2), F(3, 4)))
            rows[i][j] = rows[j][i] = f"{orc.coeff_text(couple[i, j])}*x{i + 1}*x{j + 1}"
    while True:
        x = point(rng, n)
        g = [[couple.get((min(i, j), max(i, j)), F(0)) * x[i] * x[j] for j in range(n)] for i in range(n)]
        for i in range(n):
            a, b = diag[i]
            g[i][i] = a + b * x[(i + 1) % n] ** 2
        if fdet(g) != 0:
            return rows, x


def identity_metric(rng, n):
    """Non-flat metric equal to I at the returned point, with non-zero first
    derivatives there (so the Christoffel terms matter)."""
    p = point(rng, n)
    shift = [f"(x{k + 1}-{orc.coeff_text(p[k])})" for k in range(n)]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        a, b = coef(rng) / 4, coef(rng) / 5
        rows[i][i] = f"1+{orc.coeff_text(a)}*{shift[(i + 1) % n]}+{orc.coeff_text(b)}*{shift[i]}^2"
        for j in range(i + 1, n):
            c = coef(rng) / 4
            rows[i][j] = rows[j][i] = f"{orc.coeff_text(c)}*{shift[(i + j) % n]}"
    return rows, p


FLOAT_DIAG = ("sin(x{i})^2", "exp(x{i})/4", "cos(x{i})^2")


def float_metric(rng, n):
    """Positive definite near the returned point by diagonal dominance: the
    diagonal is >= 1 and each row's couplings sum to at most 3/4."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        a = rng.choice(("1", "3/2", "2"))
        rows[i][i] = f"{a}+" + FLOAT_DIAG[i % 3].format(i=i + 1)
        for j in range(i + 1, n):
            c = rng.choice((F(1, 4), F(-1, 4), F(1, 8), F(-1, 8)))
            rows[i][j] = rows[j][i] = f"{orc.coeff_text(c)}*cos(x{j + 1})"
    return rows, float_point(rng, n)


def metric_field(rows, n):
    return ng.MetricField.standard_flat(n) if rows is None else ng.MetricField.from_strings(rows)


# ---------------------------------------------------------------------------
# plane maps with known conformal and holomorphic behaviour
# ---------------------------------------------------------------------------

def holomorphic(rng, degree):
    """Coefficients of p(z), the map (Re p, Im p) and a point with p'(x) != 0."""
    coeffs = [(coef(rng), coef(rng)) for _ in range(degree)]
    coeffs.append((coef(rng), coef(rng)))
    re, im = orc.complex_poly_parts(coeffs)
    while True:
        x = point(rng, 2)
        if orc.complex_derivative(coeffs, x) != (0, 0):
            return coeffs, re, im, x


def map_text(*components):
    return ", ".join(orc.poly_text(c) for c in components)


def non_conformal(rng):
    """(a x1 + b x2 + e x1^2, c x1 + d x2) at a point where its Jacobian is
    invertible and not a multiple of an orthogonal matrix."""
    while True:
        a, b, c, d, e = (coef(rng) for _ in range(5))
        x = point(rng, 2)
        j = [[a + 2 * e * x[0], F(b)], [F(c), F(d)]]
        conformal = (j[0][0] ** 2 + j[1][0] ** 2 == j[0][1] ** 2 + j[1][1] ** 2
                     and j[0][0] * j[0][1] + j[1][0] * j[1][1] == 0)
        if fdet(j) != 0 and not conformal:
            u = {(1, 0): F(a), (0, 1): F(b), (2, 0): F(e)}
            v = {(1, 0): F(c), (0, 1): F(d)}
            return u, v, x


def harmonic_poly(rng, n):
    """A harmonic polynomial: Re p(z) in the plane, x_i x_j and x_i^2 - x_j^2
    combinations in higher dimension."""
    if n == 2:
        coeffs = [(coef(rng), coef(rng)) for _ in range(4)]
        return orc.complex_poly_parts(coeffs)[0]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            mono = tuple(int(k in (i, j)) for k in range(n))
            out[mono] = coef(rng)
    c = coef(rng)
    out[tuple(2 * int(k == 1) for k in range(n))] = c
    out[tuple(2 * int(k == 2) for k in range(n))] = -c
    return out


def with_square(terms, n, rng):
    """terms + e x1^2 with e != 0: Laplacian shifted by 2e."""
    out = dict(terms)
    sq = tuple(2 * int(k == 0) for k in range(n))
    out[sq] = out.get(sq, F(0)) + abs(coef(rng))
    return out


# ---------------------------------------------------------------------------
# laplace-mix
# ---------------------------------------------------------------------------

def _laplacian_op(kind, rows, f_text, x, mode=ng.EXACT):
    n = len(x)
    metric = metric_field(rows, n)
    f = ng.parse_expr(f_text, n=n)
    exact = mode == ng.EXACT

    def check(result, _):
        want = orc.laplace_beltrami(rows, f_text, x, exact)
        return result == want if exact else orc.close(result, want)

    return Op(kind, {"n": n}, lambda: ng.laplacian(metric, f, x, mode=mode), check)


def laplace_mix(rng, tiny):
    ops = []
    flat_dims = (2, 3) if tiny else (2, 3, 4, 5, 6)
    curved_dims = (2,) if tiny else (2, 3, 4)
    for n in flat_dims:
        # five n = 6 calls per copy put the 90th percentile inside a group of
        # calls of about the same cost (with the curved n = 3 calls), below
        # the two curved n = 4 calls, instead of in the gap between two
        # groups, where noise moves it most
        for _ in range(5 if n == 6 else 2):
            ops.append(_laplacian_op("laplacian.flat", None, orc.poly_text(random_poly(rng, n, (3, 3, 2, 1))), point(rng, n)))
    # one call per metric, and quadratic f on the curved metrics: with cubic
    # f a curved call took 50-60 ms, and a few long calls made most of the
    # round, whose best times then moved the most between runs
    for n in curved_dims:
        rows, x = curved_metric(rng, n)
        ops.append(_laplacian_op("laplacian.curved", rows, orc.poly_text(random_poly(rng, n, (2, 2, 1))), x))
    for n in curved_dims:
        rows, x = identity_metric(rng, n)
        ops.append(_laplacian_op("laplacian.identity", rows, orc.poly_text(random_poly(rng, n, (3, 3, 2, 1))), x))
    for n in curved_dims:
        rows, x = float_metric(rng, n)
        text = orc.poly_text(random_poly(rng, n, (3, 2, 1))) + f"+sin(x1)*exp(x{n}/2)"
        ops.append(_laplacian_op("laplacian.float", rows, text, x, mode=ng.FLOAT))
    ops += _plane_map_ops(rng, tiny)
    ops += _harmonic_ops(rng, tiny)
    ops += _neighbor_ops(rng, tiny)
    return ops


def _plane_map_ops(rng, tiny):
    flat = ng.MetricField.standard_flat(2)
    ops = []
    for degree in ((2,) if tiny else (2, 3)):
        coeffs, re, im, x = holomorphic(rng, degree)
        a, b = orc.complex_derivative(coeffs, x)
        factor = a * a + b * b
        for conj in (False, True):
            fmap = ng.parse_function(map_text(re, {m: -c for m, c in im.items()} if conj else im), n=2)
            ops.append(_conformal_op(fmap, flat, x, True, factor))
            ops.append(Op("detector.preserves_l", {}, _bind(ng.preserves_laplace_neighbors, fmap, x),
                          lambda r, _: r is True))
            ops.append(Op("detector.cr", {}, _bind(ng.cr_check, fmap, x),
                          _cr_check_expect(not conj, (a, b))))
    for _ in range(1 if tiny else 2):
        u, v, x = non_conformal(rng)
        fmap = ng.parse_function(map_text(u, v), n=2)
        ops.append(_conformal_op(fmap, flat, x, False, None))
        ops.append(Op("detector.preserves_l", {}, _bind(ng.preserves_laplace_neighbors, fmap, x),
                      lambda r, _: r is False))
    return ops


def _bind(fn, *args, **kwargs):
    return lambda: fn(*args, **kwargs)


def _conformal_op(fmap, flat, x, conformal, factor):
    def check(report, _):
        return (report.conformal is conformal and report.factor == factor
                and report.isometry is (factor == 1))

    return Op("detector.conformal", {}, _bind(ng.conformal_check, fmap, flat, flat, x), check)


def _cr_check_expect(holo, derivative):
    def check(report, _):
        return (report.holomorphic is holo and report.cr_equations is holo
                and report.orientation_preserving is holo and report.harmonic_components is True
                and report.derivative == (derivative if holo else None))

    return check


def _harmonic_ops(rng, tiny):
    ops = []
    for n in ((2,) if tiny else (2, 3)):
        flat = ng.MetricField.standard_flat(n)
        h = harmonic_poly(rng, n)
        x = point(rng, n)
        for terms, harmonic in ((h, True), (with_square(h, n, rng), False)):
            f = ng.parse_expr(orc.poly_text(terms), n=n)
            ops.append(Op("detector.harmonic", {}, _bind(ng.is_harmonic_at, flat, f, x),
                          lambda r, _, want=harmonic: r is want))
            ops.append(Op("detector.affine", {}, _bind(ng.preserves_affine_combinations, flat, f, x),
                          lambda r, _, want=harmonic: r is want))
    for n in ((2,) if tiny else (2, 3)):
        rows, x = identity_metric(rng, n)
        text = orc.poly_text(random_poly(rng, n, (2, 2, 1)))
        f = ng.parse_expr(text, n=n)
        metric = metric_field(rows, n)
        ops.append(Op("detector.affine", {}, _bind(ng.preserves_affine_combinations, metric, f, x),
                      lambda r, _, rows=rows, text=text, x=x: r is (orc.laplace_beltrami(rows, text, x) == 0)))
    return ops


def _neighbor_ops(rng, tiny):
    ops = []
    for n in ((2,) if tiny else (2, 3)):
        flat = ng.MetricField.standard_flat(n)
        gens = ng.laplace_algebra(n).generators()
        x = point(rng, n)
        scale = rational(rng)
        rot = rational_rotation(rng, n)
        stretch = [[F(i + 1) if i == j else F(0) for j in range(n)] for i in range(n)]
        for frame, isotropic in ((rot, True), (stretch, False)):
            z = tuple(x[i] + sum((gens[j] * (frame[i][j] * scale) for j in range(n)), gens[0] * 0)
                      for i in range(n))
            ops.append(Op("detector.l_neighbor", {}, _bind(ng.is_laplace_neighbor, flat, x, z),
                          lambda r, _, want=isotropic: r is want))
    return ops


# ---------------------------------------------------------------------------
# jet-orders
# ---------------------------------------------------------------------------

def _jet_op(kind, text, algebra, offsets, base, reduce, mode=ng.EXACT):
    n = len(base)
    expr = ng.parse_expr(text, n=n)
    order = algebra.degree_bound

    def check(result, _):
        if mode == ng.EXACT:
            want = reduce(orc.taylor_exact(text, n, base, order))
            return result.coords == tuple(want.get(m, F(0)) for m in algebra.basis)
        want = reduce(orc.taylor_float(text, n, base, order))
        return all(orc.close(c, want.get(m, 0.0)) for c, m in zip(result.coords, algebra.basis))

    run = _bind(ng.jet_eval, expr, base, offsets, mode)
    return Op(kind, {"n": n, "order": order}, run, check)


def _truncate(order):
    def reduce(coeffs):
        return {m: c for m, c in coeffs.items() if sum(m) <= order}

    return reduce


def _isotropic_reduce(basis, square_dims):
    """Coefficients -> coordinates for algebras where Z_i Z_j = 0 (i != j)
    and Z_i^2 = Q among the first ``square_dims`` generators; the remaining
    generators are square-zero.  ``basis`` names the representative of Q."""
    n_sq = square_dims

    def reduce(coeffs):
        out = {}
        for alpha, c in coeffs.items():
            head, tail = alpha[:n_sq], alpha[n_sq:]
            if any(t > 1 for t in tail):
                continue
            if sum(head) <= 1:
                key = alpha
            elif sorted(head)[-1] == 2 and sum(head) == 2:
                key = next(m for m in basis if sum(m[:n_sq]) == 2 and m[n_sq:] == tail)
            else:
                continue
            if key in basis:
                out[key] = out.get(key, 0) + c
        return out

    return reduce


def _ring_map_check(base_check, i_f, i_g):
    """jet(f) * jet(g) = jet(f g), beside the coordinate check."""
    def check(result, first_round):
        return base_check(result, first_round) and first_round[i_f] * first_round[i_g] == result

    return check


def _jet_triple(ops, rng, n, algebra, offsets, base, reduce, kind):
    f = orc.poly_text(random_poly(rng, n, (3, 3, 2, 1)))
    g = orc.poly_text(random_poly(rng, n, (2, 2, 1)))
    i = len(ops)
    ops.append(_jet_op(kind, f, algebra, offsets, base, reduce))
    ops.append(_jet_op(kind, g, algebra, offsets, base, reduce))
    fg = _jet_op(kind, f"({f})*({g})", algebra, offsets, base, reduce)
    fg.check = _ring_map_check(fg.check, i, i + 1)
    ops.append(fg)


def _rational_text(rng, n, base):
    """(a + b x_i) / (c + d x_j).  Its order-6 jet in two variables takes
    about 25 ms; a quadratic denominator would take 0.5-0.9 s, and a call
    that long gets its best time only when the host stays fast throughout,
    which made such calls the noisiest part of the benchmark."""
    num = random_poly(rng, n, (1, 0))
    den = random_poly(rng, n, (1,))
    shift = F(nonzero(rng, 1, 3))
    if orc.poly_value(den, base) + shift == 0:
        shift += 1
    den[(0,) * n] = den.get((0,) * n, F(0)) + shift
    return f"({orc.poly_text(num)})/({orc.poly_text(den)})"


def jet_orders(rng, tiny, copies):
    orders = (2, 3) if tiny else (2, 3, 4, 5, 6)
    truncated = {(n, k): ng.truncated_algebra(n, k) for n in ((1, 2) if tiny else (1, 2, 3)) for k in orders}
    laplace = {n: ng.laplace_algebra(n) for n in ((2,) if tiny else (2, 3, 4))}
    tensor, embed_l, embed_t = ng.tensor_algebra(ng.laplace_algebra(2), ng.truncated_algebra(1, 1))
    z1, z2 = ng.laplace_algebra(2).generators()
    (e,) = ng.truncated_algebra(1, 1).generators()
    tensor_offsets = (embed_l(z1), embed_l(z2), embed_t(e))
    ops = []
    for _ in range(copies):
        bases = {}
        for (n, k), alg in truncated.items():
            if n not in bases:
                bases[n] = (point(rng, n), float_point(rng, n))
            base, fbase = bases[n]
            gens = alg.generators()
            _jet_triple(ops, rng, n, alg, gens, base, _truncate(k), "jet.poly")
            ops.append(_jet_op("jet.rational", _rational_text(rng, n, base), alg, gens, base, _truncate(k)))
            if n <= 2:
                a = orc.coeff_text(rng.choice((F(1, 2), F(-1, 2), F(3, 2), F(-3, 2))))
                text = f"exp({a}*x1)*sin(x{n})+cos(x1*x{n})"
                ops.append(_jet_op("jet.float", text, alg, gens, fbase, _truncate(k), mode=ng.FLOAT))
        for n, alg in laplace.items():
            gens = alg.generators()
            base = point(rng, n)
            reduce = _isotropic_reduce(alg.basis, n)
            ops.append(_jet_op("jet.laplace", orc.poly_text(random_poly(rng, n, (3, 3, 2, 1))), alg, gens, base, reduce))
            ops.append(_jet_op("jet.laplace", _rational_text(rng, n, base), alg, gens, base, reduce))
        _jet_triple(ops, rng, 3, tensor, tensor_offsets, point(rng, 3), _isotropic_reduce(tensor.basis, 2),
                    "jet.tensor")
    return ops


# ---------------------------------------------------------------------------
# coalgebra-dims
# ---------------------------------------------------------------------------

def _pipeline(dist):
    sub = ng.subcoalgebra_generated(dist)
    return sub, ng.dual_algebra(sub)


def _coalgebra_op(kind, dist, expected_dim):
    terms = dict(dist.terms)
    n = dist.n

    def check(result, _):
        sub, alg = result
        rank, inside = orc.derivative_span(terms, n, [terms] + [b.terms for b in sub.basis])
        want = expected_dim if expected_dim is not None else rank
        if not inside or sub.dimension != want or alg.dimension != want:
            return False
        # the table recomposes to the binomial comultiplication of each basis element
        for b, row in zip(sub.basis, sub.comult):
            recomposed = {}
            for (j, k), c in row.items():
                for mu, cj in sub.basis[j].terms.items():
                    for nu, ck in sub.basis[k].terms.items():
                        recomposed[(mu, nu)] = recomposed.get((mu, nu), F(0)) + c * cj * ck
            if {key: v for key, v in recomposed.items() if v} != orc.binomial_coproduct(b.terms):
                return False
        # every basis distribution annihilates every defining relation of the dual
        return all(orc.pairing(b.terms, r.terms) == 0 for b in sub.basis for r in alg.relations)

    attrs = {"n": n} if expected_dim is None else {"n": n, "dim": expected_dim}
    return Op(kind, attrs, _bind(_pipeline, dist), check)


def _quadratic_form(rng, n):
    """A nondegenerate quadratic symbol plus a linear term: its derivatives
    span n + 2 dimensions."""
    while True:
        q = [[F(0)] * n for _ in range(n)]
        terms = {}
        for i in range(n):
            for j in range(i, n):
                c = coef(rng)
                mono = tuple(int(k == i) + int(k == j) for k in range(n))
                terms[mono] = c
                q[i][j] += c if i == j else c / 2
                q[j][i] = q[i][j]
        if fdet(q) != 0:
            terms[tuple(int(k == 0) for k in range(n))] = coef(rng)
            return terms


def _square_symbol(rng):
    """c1 d1^2 + c2 d2: derivatives span 3 dimensions."""
    return {(2, 0): coef(rng), (0, 1): coef(rng)}


def _mixed_symbol(rng):
    """c1 d1 d2 + c2 d1 + c3 d3: derivatives span 4 dimensions."""
    return {(1, 1, 0): coef(rng), (1, 0, 0): coef(rng), (0, 0, 1): coef(rng)}


def coalgebra_dims(rng, tiny):
    # No call here takes much more than 50 ms.  Larger ones (d1^6 to d1^9,
    # laplace_distribution(4) and (5), binary cubics: 0.1-0.9 s each) get
    # their best time only when the host stays fast for the whole call, and
    # moved the most between runs; their costs are in README.md.
    ops = []
    for k in ((2, 3) if tiny else range(2, 6)):
        ops.append(_coalgebra_op("coalgebra.power", ng.Distribution(1, {(k,): 1}), k + 1))
    for n in ((2,) if tiny else (2, 3)):
        ops.append(_coalgebra_op("coalgebra.laplace", ng.laplace_distribution(n), n + 2))
    # 100 operations a round: the binary square symbols hold the median; two
    # operations cost more than a binary quadratic form, so the 90th
    # percentile falls inside the group of twelve quadratic forms
    counts = (2, 1, 1) if tiny else (78, 4, 12)
    ops += [_coalgebra_op("coalgebra.square", ng.Distribution(2, _square_symbol(rng)), None) for _ in range(counts[0])]
    ops += [_coalgebra_op("coalgebra.mixed", ng.Distribution(3, _mixed_symbol(rng)), None) for _ in range(counts[1])]
    ops += [_coalgebra_op("coalgebra.quadratic", ng.Distribution(2, _quadratic_form(rng, 2)), None)
            for _ in range(counts[2])]
    return ops


# ---------------------------------------------------------------------------
# CLI commands (traced laplace-mix run only)
# ---------------------------------------------------------------------------

class CliEnv:
    """Runs CLI commands in-process; metric files go to ``scratch``."""

    def __init__(self, scratch):
        self.scratch = scratch

    def runner(self, argv):
        return _bind(_main_in_process, argv)


def _main_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nilgeom.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"exit {code}")
    return out.getvalue().encode()


def _json_check(expect):
    def check(stdout, _):
        return expect(json.loads(stdout))

    return check


def _exact(text):
    return F(text)


def cli_commands(rng, tiny, env):
    cmds = []

    def add(kind, argv, expect):
        cmds.append(Op(kind, {}, env.runner(argv), _json_check(expect)))

    def write_metric(name, rows):
        path = os.path.join(env.scratch, name)
        with open(path, "w") as fh:
            json.dump({"n": len(rows), "G": rows}, fh)
        return path

    def pt(x):
        return ",".join(str(c) for c in x)

    # algebra constructors, checked against their defining relations
    for n in (rng.choice((2, 3)), rng.choice((4, 5))):
        add("cli.algebra", ["algebra", "dl", "--n", str(n)], lambda d, n=n: _check_dl(d, n))
    for n, k in (((2, 2),) if tiny else ((2, 3), (3, 4))):
        add("cli.algebra", ["algebra", "dk", "--n", str(n), "--k", str(k)], lambda d, n=n, k=k: _check_dk(d, n, k))
    c = rational(rng)
    rels = [{(2, 0): F(1), (0, 2): -c}, {(1, 1): F(1)}]
    add("cli.algebra", ["algebra", "quotient", "--n", "2", "--bound", "3",
                        "--rel", orc.poly_text(rels[0]), "--rel", orc.poly_text(rels[1])],
        lambda d, rels=rels: d["dimension"] == orc.quotient_dimension(rels, 2, 3) == len(d["basis"]))

    # Laplacians: flat, curved (G != I), identity-at-point, float
    def laplacian_cmd(rows, f_text, x, mode, n):
        argv = [] if mode == ng.EXACT else ["--mode", "float"]
        argv += ["laplacian", "--fn", f_text, "--point=" + pt(x)]
        if rows is not None:
            argv += ["--metric", write_metric(f"metric{len(cmds)}.json", rows)]
        exact = mode == ng.EXACT
        want = (lambda d: _exact(d["value"]) == orc.laplace_beltrami(rows, f_text, x)) if exact else (
            lambda d: orc.close(float(d["value"]), orc.laplace_beltrami(rows, f_text, x, exact=False)))
        add(f"cli.laplacian.{'exact' if exact else 'float'}", argv, want)

    for n in ((2,) if tiny else (2, 3, 4)):
        laplacian_cmd(None, orc.poly_text(random_poly(rng, n, (3, 3, 2, 1))), point(rng, n), ng.EXACT, n)
    for n in ((2,) if tiny else (2, 3)):
        rows, x = curved_metric(rng, n)
        laplacian_cmd(rows, orc.poly_text(random_poly(rng, n, (3, 3, 2, 1))), x, ng.EXACT, n)
        rows, x = identity_metric(rng, n)
        laplacian_cmd(rows, orc.poly_text(random_poly(rng, n, (3, 3, 2, 1))), x, ng.EXACT, n)
        rows, x = float_metric(rng, n)
        laplacian_cmd(rows, orc.poly_text(random_poly(rng, n, (3, 2, 1))) + "+sin(x1)*exp(x2/2)", x, ng.FLOAT, n)

    # detectors on plane maps
    coeffs, re, im, x = holomorphic(rng, 2 if tiny else 3)
    a, b = orc.complex_derivative(coeffs, x)
    holo = map_text(re, im)
    conj = map_text(re, {m: -v for m, v in im.items()})
    u, v, y = non_conformal(rng)
    nonconf = map_text(u, v)
    add("cli.check", ["check", "cr", "--map", holo, "--point=" + pt(x)],
        lambda d: d["holomorphic"] is True and [_exact(s) for s in d["derivative"]] == [a, b])
    add("cli.check", ["check", "cr", "--map", conj, "--point=" + pt(x)],
        lambda d: d["holomorphic"] is False and d["derivative"] is None and d["harmonic_components"] is True)
    add("cli.check", ["check", "conformal", "--map", holo, "--point=" + pt(x)],
        lambda d: d["conformal"] is True and _exact(d["factor"]) == a * a + b * b)
    add("cli.check", ["check", "conformal", "--map", nonconf, "--point=" + pt(y)],
        lambda d: d["conformal"] is False and d["factor"] is None)
    xf = tuple(float(c) for c in x)
    add("cli.check", ["--mode", "float", "check", "conformal", "--map", holo, "--point=" + pt(xf)],
        lambda d, xf=xf: d["conformal"] is True and orc.close(float(d["factor"]), _abs2_derivative(coeffs, xf)))
    add("cli.check", ["--mode", "float", "check", "cr", "--map", holo, "--point=" + pt(xf)],
        lambda d: d["holomorphic"] is True and all(orc.close(float(s), float(w)) for s, w in zip(d["derivative"], (a, b))))
    add("cli.check", ["check", "preserves-l", "--map", conj, "--point=" + pt(x)], lambda d: d["preserves_l"] is True)
    add("cli.check", ["--mode", "float", "check", "preserves-l", "--map", holo, "--point=" + pt(xf)],
        lambda d: d["preserves_l"] is True)
    add("cli.check", ["check", "preserves-l", "--map", nonconf, "--point=" + pt(y)], lambda d: d["preserves_l"] is False)
    for n in ((2,) if tiny else (2, 3)):
        h = harmonic_poly(rng, n)
        x = point(rng, n)
        for terms, harmonic in ((h, True), (with_square(h, n, rng), False)):
            text = orc.poly_text(terms)
            add("cli.check", ["check", "harmonic", "--fn", text, "--point=" + pt(x)],
                lambda d, want=harmonic, text=text, x=x: d["harmonic"] is want and d["affine_preserving"] is want
                and _exact(d["laplacian"]) == orc.laplace_beltrami(None, text, x))
        hx = float_point(rng, n)
        text = orc.poly_text(h)
        add("cli.check", ["--mode", "float", "check", "harmonic", "--fn", text, "--point=" + pt(hx)],
            lambda d, text=text, hx=hx: d["harmonic"] is True and d["affine_preserving"] is True
            and orc.close(float(d["laplacian"]), orc.laplace_beltrami(None, text, hx, exact=False)))
    x = point(rng, 2)
    add("cli.check", ["check", "l-neighbor", "--point=" + pt(x), "--z", "d1, d2"], lambda d: d["l_neighbor"] is False)
    add("cli.check", ["check", "l-neighbor", "--point=" + pt(x), "--z", "d1^2, d1*d2"], lambda d: d["l_neighbor"] is True)

    # the coalgebra pipeline
    for k in ((3,) if tiny else (3, 5)):
        add("cli.coalgebra", ["coalgebra", "--dist", f"d1^{k}", "--n", "1"],
            lambda d, k=k: _check_coalgebra(d, {(k,): F(1)}, 1, k + 1))
    lap3 = {tuple(2 * int(j == i) for j in range(3)): F(1) for i in range(3)}
    add("cli.coalgebra", ["coalgebra", "--dist", "d1^2+d2^2+d3^2", "--n", "3"], lambda d: _check_coalgebra(d, lap3, 3, 5))
    q = _quadratic_form(rng, 2)
    add("cli.coalgebra", ["coalgebra", "--dist", orc.poly_text(q, "d"), "--n", "2"],
        lambda d: _check_coalgebra(d, q, 2, None))
    return cmds


def _abs2_derivative(coeffs, x):
    a, b = orc.complex_derivative(coeffs, [F(c) for c in x])
    return float(a * a + b * b)


def _check_dl(doc, n):
    q = doc["basis"].index([2] + [0] * (n - 1))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            want = [["1", q]] if i == j else []
            if doc["table"][i][j] != want:
                return False
    return doc["dimension"] == n + 2


def _check_dk(doc, n, k):
    basis = [tuple(m) for m in doc["basis"]]
    if sorted(basis) != sorted(orc.monomials(n, k)) or doc["dimension"] != math.comb(n + k, k):
        return False
    index = {m: i for i, m in enumerate(basis)}
    for i, mi in enumerate(basis):
        for j, mj in enumerate(basis):
            prod = tuple(a + b for a, b in zip(mi, mj))
            want = [["1", index[prod]]] if sum(prod) <= k else []
            if doc["table"][i][j] != want:
                return False
    return True


def _check_coalgebra(doc, terms, n, expected_dim):
    """Dimensions, and every printed basis symbol inside the span of the
    symbol's derivatives."""
    sp = orc._sympy()
    xs = orc.symbols(n)
    basis = [{m: orc.to_fraction(c) for m, c in sp.Poly(orc.sym(text, n, prefix="d"), *xs).terms()}
             for text in doc["basis"]]
    rank, inside = orc.derivative_span(terms, n, basis)
    want = expected_dim if expected_dim is not None else rank
    return inside and doc["dimension"] == len(basis) == len(doc["dual_algebra"]["basis"]) == want
