"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
pass/fail line per criterion (the -v test names mirror them).
"""

import json
import random
import time
from fractions import Fraction

from nilgeom.cli import main as cli_main
from nilgeom.expr import (
    Const,
    Var,
    evaluate,
    jet_eval,
    parse_expr,
    parse_function,
)
from nilgeom.geometry import (
    GeometryError,
    MetricField,
    conformal_check,
    cr_check,
    g_eval,
    geodesic_chart,
    laplace_taylor,
    laplacian,
    preserves_affine_combinations,
    preserves_laplace_neighbors,
)
from nilgeom.weil import (
    algebra_isomorphism,
    laplace_algebra,
    tensor_algebra,
    truncated_algebra,
)
from nilgeom.coalgebra import laplace_distribution, leibniz_expand, subcoalgebra_generated, dual_algebra
from conftest import random_metric, random_point, random_poly_expr, random_polynomial, second_partials_sum

F = Fraction


def report(number, description, passed):
    print(f"criterion {number:02d} ({description}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} failed: {description}"


def linear_map(matrix):
    n = len(matrix)
    comps = []
    for row in matrix:
        e = Const(F(0))
        for j, a in enumerate(row):
            e = e + Const(F(a)) * Var(j)
        comps.append(e)
    from nilgeom.expr import FunctionModel

    return FunctionModel(n, n, tuple(comps))


def test_criterion_01_dimension_law():
    start = time.monotonic()
    ok = all(laplace_algebra(n).dimension == n + 2 for n in range(1, 7))
    elapsed = time.monotonic() - start
    report(1, "dim of the isotropic-neighborhood algebra is n+2 for n=1..6", ok and elapsed < 1.0)


def _flat_corpus(seed=2024, count=50):
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        n = rng.randint(1, 4)
        corpus.append((n, random_poly_expr(rng, n, 4, terms=6), [random_point(rng, n) for _ in range(5)]))
    return corpus


def test_criterion_02_flat_laplacian_oracle():
    ok = True
    for n, f, points in _flat_corpus():
        metric = MetricField.standard_flat(n)
        for x in points:
            # flat metric puts the exact route through the mirror average
            if laplacian(metric, f, x) != second_partials_sum(f, x):
                ok = False
    report(2, "mirror-average Laplacian equals the sum of second partials, exact", ok)


def _sympy_lb(entries, fn_text, point):
    import sympy as sp

    n = len(entries)
    xs = sp.symbols(f"x1:{n + 1}")
    G = sp.Matrix([[sp.sympify(e.replace("^", "**")) for e in row] for row in entries])
    Ginv = G.inv()
    sqrt_det = sp.sqrt(G.det())
    f = sp.sympify(fn_text.replace("^", "**"))
    total = sp.Integer(0)
    for i in range(n):
        inner = sum(sqrt_det * Ginv[i, j] * sp.diff(f, xs[j]) for j in range(n))
        total += sp.diff(inner, xs[i])
    value = (total / sqrt_det).subs(dict(zip(xs, point)))
    return float(value)


def test_criterion_03_curved_metric_oracle():
    metrics = [
        [["1", "0"], ["0", "x1^2"]],
        [["1", "0"], ["0", "sin(x1)^2"]],
    ]
    functions = ["x1^2", "x1*x2", "x2^2", "x1^3 - 3*x1*x2^2", "x1^2*x2"]
    points = [(0.6 + 0.2 * i, -1.0 + 0.35 * i) for i in range(11)]
    worst = 0.0
    for entries in metrics:
        metric = MetricField.from_strings(entries)
        for fn_text in functions:
            f = parse_expr(fn_text)
            for x in points:
                mine = laplacian(metric, f, x, mode="float")
                oracle = _sympy_lb(entries, fn_text, x)
                worst = max(worst, abs(mine - oracle))
    report(3, f"geodesic-chart Laplacian matches divergence-form oracle (max |diff| {worst:.2e})", worst <= 1e-7)


def test_criterion_04_mirror_average_well_posed():
    ok = True
    for n, f, points in _flat_corpus(seed=404, count=50):
        alg = laplace_algebra(n)
        gens = alg.generators()
        neg = [-g for g in gens]
        for x in points[:2]:
            combined = (
                jet_eval(f, x, gens) + jet_eval(f, x, neg) - evaluate(f, x) * 2
            )
            if any(c != 0 for c in combined.coords[: n + 1]):
                ok = False
    # curved metric whose matrix is the identity at the base point
    curved = MetricField.from_strings([["1", "0"], ["0", "1 + x1^2"]])
    chart = geodesic_chart(curved, (F(0), F(3)))
    gens = laplace_algebra(2).generators()
    rng = random.Random(405)
    for _ in range(5):
        f = random_poly_expr(rng, 2, 4)
        plus = jet_eval(f, chart.base, chart.push_offsets(gens))
        minus = jet_eval(f, chart.base, chart.push_offsets([-g for g in gens]))
        combined = plus + minus - evaluate(f, chart.base) * 2
        if any(c != 0 for c in combined.coords[:3]):
            ok = False
    report(4, "f(z) + f(z') - 2 f(x) is purely isotropic (square class only)", ok)


def test_criterion_05_conformal_iff_isotropy_preserving():
    rng = random.Random(505)
    flat = {n: MetricField.standard_flat(n) for n in (2, 3)}
    cases = []
    for _ in range(110):
        n = rng.choice((2, 3))
        cases.append((linear_map([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]),
                      random_point(rng, n)))
    for _ in range(20):
        a, b = rng.randint(1, 3), rng.randint(-3, 3)
        cases.append((linear_map([[a, -b], [b, a]]), random_point(rng, 2)))
        scale = rng.randint(1, 3)
        cases.append((linear_map([[0, scale, 0], [0, 0, scale], [scale, 0, 0]]), random_point(rng, 3)))
    cases += [
        (parse_function("x1^2 - x2^2, 2*x1*x2"), (F(1), F(0))),
        (parse_function("x1^2 - x2^2, 2*x1*x2"), (F(2), F(-1))),
        (parse_function("x1^3 - 3*x1*x2^2, 3*x1^2*x2 - x2^3"), (F(1), F(1))),
        (parse_function("x1 + x2, x2"), (F(0), F(0))),
        (parse_function("x1, 2*x2"), (F(1), F(1))),
    ]
    checked = 0
    disagreements = 0
    for fmap, x in cases:
        try:
            conf = conformal_check(fmap, flat[fmap.n_in], flat[fmap.n_in], x).conformal
        except GeometryError:
            continue  # singular point: not a regular sample
        checked += 1
        if conf != preserves_laplace_neighbors(fmap, x):
            disagreements += 1
    report(
        5,
        f"conformality and isotropy preservation agree ({checked} regular samples, {disagreements} disagreements)",
        checked >= 100 and disagreements == 0,
    )


CR_CORPUS = [
    # (map text, point, expected derivative or None)
    ("x1^2 - x2^2, 2*x1*x2", (F(1), F(0)), (F(2), F(0))),
    ("x1^3 - 3*x1*x2^2, 3*x1^2*x2 - x2^3", (F(1), F(1)), (F(0), F(6))),
    ("-x2, x1", (F(2), F(3)), (F(0), F(1))),
    ("2*x1 - x2 + 3, x1 + 2*x2 - 1", (F(0), F(0)), (F(2), F(1))),
    ("x1^2 - x2^2 + x1, 2*x1*x2 + x2", (F(1), F(1)), (F(3), F(2))),
    ("x1 + x2, x2", (F(1), F(1)), None),
    ("x1, 2*x2", (F(1), F(1)), None),
    ("x1^2, x2", (F(1), F(1)), None),
    ("x1 + x2^2, x2", (F(2), F(1)), None),
    ("x1^3, x2", (F(1), F(1)), None),
]


def test_criterion_06_cr_equivalence_chain():
    from nilgeom._linalg import det

    flat = MetricField.standard_flat(2)
    ok = True
    for text, x, expected in CR_CORPUS:
        fmap = parse_function(text)
        jac = fmap.jacobian(x)
        if det(jac) <= 0:
            ok = False  # corpus is meant to sample orientation-preserving regular points
            continue
        cond_preserves = preserves_laplace_neighbors(fmap, x)
        cond_conformal = conformal_check(fmap, flat, flat, x).conformal
        rep = cr_check(fmap, x)
        cond_cr = rep.cr_equations
        cond_commutes = jac[0][0] == jac[1][1] and jac[0][1] == -jac[1][0]
        if not (cond_preserves == cond_conformal == cond_cr == cond_commutes):
            ok = False
        if expected is not None:
            # cr_check verifies f(z) = f(x) + f'(x)(z - x) on the universal
            # plane point before reporting the derivative
            if rep.derivative != expected:
                ok = False
        elif rep.derivative is not None:
            ok = False
    report(6, "isotropy/conformal/CR/quarter-turn conditions agree; derivatives reconstruct", ok)


def test_criterion_07_taylor_identity():
    rng = random.Random(707)
    ok = True
    count = 0
    while count < 50:
        n = rng.randint(1, 4)
        metric = MetricField.standard_flat(n)
        f = random_poly_expr(rng, n, 4, terms=6)
        x = random_point(rng, n)
        gens = laplace_algebra(n).generators()
        if laplace_taylor(metric, f, x, gens) != jet_eval(f, x, gens):
            ok = False
        count += 1
    report(7, "value + differential + Laplacian reconstructs f at isotropic points", ok)


def test_criterion_08_harmonic_scaling():
    flat = MetricField.standard_flat(2)
    points = [(F(0), F(0)), (F(1), F(2)), (F(-2), F(1, 2))]
    ok = True
    for text in ("x1*x2", "x1^2 - x2^2", "x1^3 - 3*x1*x2^2"):
        f = parse_expr(text)
        for x in points:
            if not preserves_affine_combinations(flat, f, x):
                ok = False
    for text in ("x1^2", "x1^2 + x2^2"):
        f = parse_expr(text)
        for x in points:
            if preserves_affine_combinations(flat, f, x):
                ok = False
    report(8, "affine preservation at scales {-1, 2, 1/2} separates harmonic functions", ok)


def test_criterion_09_coalgebra_grand_loop():
    ok = True
    for n in (2, 3, 4):
        sub = subcoalgebra_generated(laplace_distribution(n))
        dual = dual_algebra(sub)
        if algebra_isomorphism(dual, laplace_algebra(n)) is None:
            ok = False
    rng = random.Random(909)
    sub = subcoalgebra_generated(laplace_distribution(2))
    for _ in range(30):
        f = random_polynomial(rng, 2, 4)
        g = random_polynomial(rng, 2, 4)
        for b in sub.basis:
            if b.apply(f * g) != leibniz_expand(b, f, g):
                ok = False
    report(9, "dual of the generated subcoalgebra is the isotropic algebra; Leibniz exact", ok)


def test_criterion_10_first_order_metric_identity():
    rng = random.Random(1010)
    ok = True
    count = 0
    for n in (2, 3):
        first = truncated_algebra(n, 1)
        ambient, left, right = tensor_algebra(first, first)
        y1 = [left(g) for g in first.generators()]
        y2 = [right(g) for g in first.generators()]
        diffs = [b - a for a, b in zip(y1, y2)]
        for _ in range(12):
            x = random_point(rng, n)
            metric = random_metric(rng, n, x)
            if g_eval(metric, x, diffs) != g_eval(metric, x, y2, y=y1):
                ok = False
            count += 1
    report(10, f"g(x, x + y2 - y1) = g(y1, y2) on {count} random polynomial metrics", ok)


EXAMPLE_INVOCATIONS = [
    ["algebra", "dl", "--n", "3"],
    ["algebra", "dk", "--n", "2", "--k", "2"],
    ["algebra", "quotient", "--n", "2", "--bound", "2", "--rel", "x1^2 - x2^2", "--rel", "x1*x2"],
    ["laplacian", "--fn", "x1^2+x2^2", "--point", "0,0"],
    ["laplacian", "--fn", "x1^3 - 3*x1*x2^2", "--point", "1,1"],
    ["laplacian", "--metric", "POLAR", "--fn", "x1^2", "--point", "1,0"],
    ["--mode", "float", "laplacian", "--metric", "POLAR", "--fn", "x1^2", "--point", "3/2,0"],
    ["check", "cr", "--map", "x1^2-x2^2, 2*x1*x2", "--point", "1,0"],
    ["check", "conformal", "--map", "x1, 2*x2", "--point", "0,0"],
    ["check", "harmonic", "--fn", "x1*x2", "--point", "3,5"],
    ["check", "l-neighbor", "--point", "0,0", "--z", "d1, d2"],
    ["check", "preserves-l", "--map", "x1^2-x2^2, 2*x1*x2", "--point", "1,0"],
    ["coalgebra", "--dist", "d1^2+d2^2", "--n", "2"],
    ["coalgebra", "--dist", "1", "--n", "1"],
    ["coalgebra", "--dist", "d1", "--n", "1"],
]


def test_criterion_11_cli_determinism(tmp_path):
    polar = tmp_path / "polar.json"
    polar.write_text(json.dumps({"n": 2, "G": [["1", "0"], ["0", "x1^2"]]}))
    ok = True
    for idx, argv in enumerate(EXAMPLE_INVOCATIONS):
        argv = [str(polar) if a == "POLAR" else a for a in argv]
        outputs = []
        for run in (0, 1):
            path = tmp_path / f"run{idx}_{run}.json"
            code = cli_main(argv + ["--output", str(path)])
            if code != 0:
                ok = False
                break
            outputs.append(path.read_bytes())
        if len(outputs) != 2 or outputs[0] != outputs[1]:
            ok = False
    report(11, f"CLI byte-identical across two runs on {len(EXAMPLE_INVOCATIONS)} invocations", ok)
