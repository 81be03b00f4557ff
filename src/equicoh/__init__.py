"""Equivariant cohomology of circle and complexity-one torus actions.

The package computes, over the rationals and with exact arithmetic, the
equivariant cohomology data determined by the combinatorial invariants of
a Hamiltonian circle action on a compact symplectic four-manifold
(decorated graphs) and of a complexity-one torus action (x-rays): Betti
numbers and Poincare series, equivariant Euler classes and localization
sums, membership in the image of the fixed-set restriction map, and
canonical graded bases of that image.
"""

from .core import (
    ComponentClass,
    Laurent,
    PoincareSeries,
    SurfaceClass,
    cup_surface,
    integrate_surface,
    laurent_mul,
)
from .errors import (
    DegenerateInputError,
    EquicohError,
    InputError,
    InternalInconsistencyError,
    ParseError,
    SchemaError,
)
from .graph import (
    DecoratedGraph,
    FatVertex,
    GraphEdge,
    IsolatedVertex,
    Violation,
    abbv_zero_check,
    extremal_self_intersections,
    graph_to_dict,
    parse_graph,
    report_to_json,
    resolve_self_intersections,
    serialize_graph,
    validate_graph,
    weight_product,
)
from .mpoly import (
    MPoly,
    is_primitive,
    monomials_of_degree,
    unimodular_completion,
)
from .s1 import (
    DEFAULT_MAX_DEGREE,
    EquivariantClass,
    EquivariantEuler,
    MembershipDecision,
    MembershipViolation,
    abbv_degree2_functional,
    betti_contribution,
    check_membership,
    check_membership_torus,
    class_from_vector,
    class_to_dict,
    class_to_vector,
    degree_slots,
    equivariant_series,
    euler_class,
    image_basis,
    in_image_span,
    inverse_euler,
    localize,
    localize_torus,
    parse_class,
    poincare_fixed_set,
    poincare_manifold,
    promote_to_torus,
    relation_counts,
    slot_value,
    torus_obstructions,
    unit_class,
)
from .xray import (
    DEFAULT_XRAY_MAX_DEGREE,
    SkeletonPiece,
    TorusFixedComponent,
    XRay,
    check_membership_xray,
    image_basis_xray,
    parse_class_torus,
    parse_xray,
    serialize_xray,
    validate_xray,
    xray_to_dict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
