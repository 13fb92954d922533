"""Generic minimal rigidity of planar frameworks with forced
crystallographic symmetry (rotation groups of order 2, 3, 4 and 6).

Combinatorial sparsity oracles built on a group-labeled matroid are
cross-validated against direction-network and infinitesimal-rigidity
systems: kernels are exact, and generic ranks are certified from below
mod a 61-bit prime.
"""

from .groups import (
    GroupContext,
    GroupElement,
    IndexedSubset,
    Lattice,
    SubgroupDescriptor,
    classify_subgroup,
    g1_rank,
    in_closure,
    lattice_from_generators,
    saturate,
)
from .colored_graph import (
    ColoredGraph,
    Edge,
    GraphParseError,
    lift_patch,
    make_graph,
    parse_graph,
    serialize_graph,
    spanning_forest,
)
from .sparsity import (
    CountReport,
    UnionCertificate,
    brute_force_sparse,
    count_report,
    decompose11,
    find_laman_circuit,
    is_gamma22,
    is_gamma22_sparse,
    is_gen_cone11,
    is_laman,
    is_laman_sparse,
    union_certificate,
)
from .realization import (
    Realization,
    RealizationDiagnosis,
    Scalar,
    assemble_direction_system,
    collapsed_dim_bound,
    generic_rigidity_rank,
    random_directions,
    realize,
    rigidity_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "GroupContext",
    "GroupElement",
    "IndexedSubset",
    "Lattice",
    "SubgroupDescriptor",
    "classify_subgroup",
    "g1_rank",
    "in_closure",
    "lattice_from_generators",
    "saturate",
    "ColoredGraph",
    "Edge",
    "GraphParseError",
    "lift_patch",
    "make_graph",
    "parse_graph",
    "serialize_graph",
    "spanning_forest",
    "CountReport",
    "UnionCertificate",
    "brute_force_sparse",
    "count_report",
    "decompose11",
    "find_laman_circuit",
    "is_gamma22",
    "is_gamma22_sparse",
    "is_gen_cone11",
    "is_laman",
    "is_laman_sparse",
    "union_certificate",
    "Realization",
    "RealizationDiagnosis",
    "Scalar",
    "assemble_direction_system",
    "collapsed_dim_bound",
    "generic_rigidity_rank",
    "random_directions",
    "realize",
    "rigidity_matrix",
    "__version__",
]
