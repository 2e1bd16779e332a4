"""nilgeom: exact computation with nilpotent infinitesimals.

Weil algebras model infinitesimal neighborhoods of a point; smooth maps
act on them through truncated Taylor expansion; a Riemannian square
distance then supports geodesic charts, mirror images, a mirror-average
Laplacian, and detectors for harmonicity, conformality and holomorphy.
A distribution/coalgebra pipeline recovers the Laplacian's support algebra
from the operator itself.

All values are immutable after construction and every operation is pure,
so everything here is safe to share across threads.
"""

from .scalars import DEFAULT_EPS, EXACT, FLOAT
from .weil import (
    Polynomial,
    WeilAlgebra,
    WeilElement,
    algebra_from_json,
    algebra_isomorphism,
    algebra_to_json,
    laplace_algebra,
    quotient_algebra,
    satisfies_laplace_relations,
    tensor_algebra,
    truncated_algebra,
)
from .expr import (
    Const,
    Expr,
    FunctionModel,
    Var,
    evaluate,
    expr_to_polynomial,
    format_expr,
    jet_eval,
    parse_expr,
    parse_function,
    polynomial_to_expr,
    taylor_coefficients,
)
from .geometry import (
    ConformalReport,
    CRReport,
    GeodesicChart,
    GeometryError,
    MetricField,
    TangentVector,
    affine_combination,
    almost_complex_apply,
    christoffel,
    conformal_check,
    cr_check,
    g_eval,
    gbar_eval,
    geodesic_chart,
    geodesic_prolong,
    inner_product,
    is_harmonic_at,
    is_laplace_neighbor,
    laplace_point,
    laplace_taylor,
    laplacian,
    make_point,
    mirror,
    orthogonal_projection,
    parallelogram,
    point_offsets,
    preserves_affine_combinations,
    preserves_laplace_neighbors,
    scalar_component,
)
from .coalgebra import (
    Distribution,
    Subcoalgebra,
    comultiply,
    coordinate_derivative,
    dirac,
    dual_algebra,
    laplace_distribution,
    leibniz_expand,
    subcoalgebra_generated,
)

__version__ = "0.1.0"
