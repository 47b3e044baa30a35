"""Angle-bounded spanning trees and directional-antenna hop spanners."""

from .approx import (
    AlphaTree,
    AlphaTreeReport,
    TourPartition,
    build_tree,
    check_alpha_tree,
    partition_tour,
    verify_alpha_tree,
)
from .errors import (
    ApexMismatchError,
    ComponentClaimViolation,
    DegreeTooHighError,
    DisconnectedUDGError,
    DuplicatePointError,
    GadgetSearchFailed,
    GridLayoutError,
    GuaranteeViolation,
    HopBoundViolation,
    InstanceParseError,
    NotBipartiteError,
    PartitionError,
    SeparationConnectivityViolation,
    TheoremViolation,
    TooFewPointsError,
    TooManyPointsError,
    UnknownGeneratorError,
    WedgespanError,
)
from .gadget import (
    TripletOrientation,
    orient_pair,
    orient_quadruplet,
    orient_triplet,
    verify_coverage,
)
from .geom import (
    Direction,
    Point,
    PointArray,
    PointSet,
    Wedge,
    angular_spread,
    direction,
)
from .graph import (
    CommGraph,
    SpanningTree,
    Tour,
    cross_edge,
    euclidean_mst,
    induced_graph,
    tsp_tour,
    unit_disk_graph,
)
from .oracle import (
    GridGraph,
    ReductionInstance,
    brute_force_alpha_mst,
    hex_grid_graph,
    hex_grid_of_cells,
    square_grid_graph,
    square_grid_reduction,
)
from .spanner import (
    ComponentPartition,
    SpannerResult,
    build_spanner,
    check_spanner,
    greedy_components,
    orient_components,
    verify_hop_spanner,
)

__version__ = "0.1.0"
