"""Angle-bounded spanning trees and directional-antenna hop spanners."""

from .approx import (
    AlphaTree,
    AlphaTreeReport,
    TourPartition,
    build_tree,
    build_tree_90,
    build_tree_120,
    build_tree_180,
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
    QuadrupletOrientation,
    TripletOrientation,
    orient_pair,
    orient_quadruplet,
    orient_triplet,
    pair_halfplane_covered,
    verify_coverage,
)
from .geom import (
    AngleInterval,
    Direction,
    Point,
    PointSet,
    Wedge,
    angular_spread,
    covering_wedge,
    direction,
    max_spread,
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
    brute_force_alpha_mst_multi,
    hamiltonian_cycle_exists,
    hamiltonian_path_exists,
    hex_grid_graph,
    hex_grid_of_cells,
    hex_grid_reduction,
    square_grid_graph,
    square_grid_reduction,
)
from .spanner import (
    ComponentPartition,
    SpannerResult,
    build_spanner,
    greedy_components,
    orient_components,
    verify_hop_spanner,
)

__version__ = "0.1.0"
