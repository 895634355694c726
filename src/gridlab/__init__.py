"""Exact computational algebra for grid-free hypersurfaces over finite fields."""

from .fields import GF, QQ, canonical_modulus, norm, norm_poly, pi_s
from .poly import (
    BiHomPoly,
    MultiPoly,
    bihomogenize,
    exact_div,
    gcd,
    resultant,
    squarefree_part,
)
from .hypersurfaces import Hypersurface, OpenSet, ProjPoint, construct, proj_points
from .gridcheck import (
    BipartiteGraph,
    build_graph,
    edge_report,
    find_grid,
    max_common_neighborhood,
)
from .curves import (
    PlaneCurve,
    common_component_rank_test,
    conic_classify,
    intersection_multiplicity,
    moura_max,
)
from .classify_s1 import s1_classify, s1_reduce
from .cremona import (
    RationalMap,
    apply_map,
    example_line_map,
    grid_transport_check,
    nagata,
    standard_quadratic,
)

__version__ = "0.1.0"
