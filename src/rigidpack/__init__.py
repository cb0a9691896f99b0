"""Sparsity, rigidity and partition-connectivity of multigraphs.

Certified constructions: count-matroid bases via pebble games, matroid-union
packings of spanning trees and spanning rigid subgraphs (with degree
bounds), structure partitions for deficient packings, and constrained
orientations (prescribed in-degrees, Eulerian/smooth, arc-connectivity,
vertex-robust arc-strong). Every construction is re-verified before it is
returned; brute-force oracles back the test suite.
"""

__version__ = "0.1.0"

from .graph import MultiGraph, mask_of, vertices_of, INFINITY
from .setfuncs import (
    SetFunc, lmn, const, zero, vertex_weights, table_func, with_overrides,
    scaled, halved_slack, rho_slack, property_report,
    PropertyReport,
)
from .sparsity import (
    PebbleState, is_sparse, rank_and_rigid, rigid_components,
    minimal_rigid_vertices, exchange, SparseResult, RigidResult,
)
from .packing import (
    Packing, PackPart, StructureCertificate, HypothesisReport, PackOutcome,
    matroid_union_pack, structure_partition, decompose_p_rigid,
    pack_partition_rigid, preset_tree_rigid, preset_tree_rigid_ec,
    preset_bipartite_degree, check_weakly_connected,
    check_uniform_weakly_connected, check_rigid_necessary,
    check_rigid_sufficient, check_rigid_cut_consequences, check_pack_basic,
    check_pack_refined, check_pack_degree, violation_threshold,
)
from .orientation import (
    Orientation, HakimiResult, hakimi_orient, euler_orient,
    smooth_orient, rigid_to_orientation, orientation_to_rigid,
    packed_orientation, odd_spanning_forest, rigid_factor, robust_arc_strong,
)

__all__ = [
    "MultiGraph", "mask_of", "vertices_of", "INFINITY",
    "SetFunc", "lmn", "const", "zero", "vertex_weights", "table_func",
    "with_overrides", "scaled", "halved_slack",
    "rho_slack", "property_report", "PropertyReport",
    "PebbleState", "is_sparse", "rank_and_rigid", "rigid_components",
    "minimal_rigid_vertices", "exchange", "SparseResult", "RigidResult",
    "Packing", "PackPart", "StructureCertificate", "HypothesisReport",
    "PackOutcome", "matroid_union_pack", "structure_partition",
    "decompose_p_rigid", "pack_partition_rigid", "preset_tree_rigid",
    "preset_tree_rigid_ec", "preset_bipartite_degree",
    "check_weakly_connected", "check_uniform_weakly_connected",
    "check_rigid_necessary", "check_rigid_sufficient",
    "check_rigid_cut_consequences", "check_pack_basic", "check_pack_refined",
    "check_pack_degree", "violation_threshold",
    "Orientation", "HakimiResult", "hakimi_orient", "euler_orient",
    "smooth_orient", "rigid_to_orientation", "orientation_to_rigid",
    "packed_orientation", "odd_spanning_forest", "rigid_factor",
    "robust_arc_strong",
    "__version__",
]
