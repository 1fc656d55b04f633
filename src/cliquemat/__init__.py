"""Congested-clique protocols: approximate minimum spanning trees of points
in Hamming space and tree-guided Boolean matrix multiplication, on top of a
round-accurate clique simulator."""

from .bits import (
    BitVector,
    BooleanMatrix,
    Traversal,
    Tree,
    WeightedEdge,
    apply_witnesses,
    boolean_product_naive,
    distance_matrix_via_products,
    euler_traversal,
    hamming_distance,
    local_mst,
    witnesses,
)
from .clusmat import (
    BlockAssignment,
    TraversalPlan,
    assign_pairs,
    block_multiply,
    choose_orientation,
    clusmat_oriented,
    clusmat_protocol,
    distribute_witnesses,
    plan_blocks,
)
from .engine import CliqueConfig, CliqueEngine, Message, NodeState, RoundLedger
from .harness import (
    BenchCell,
    BenchReport,
    GenSpec,
    bench_grid,
    exact_mst_cost,
    gen_clustered,
    gen_uniform,
    verify,
)
from .hmst import (
    EstimatedGraph,
    ProjectionConfig,
    ProjectionFamily,
    estimate_distance,
    gen_projection,
    hmst_protocol,
    sketch_bits,
)
from .routing import (
    Batch,
    bounded_route,
    solve_relaxed_idt,
    vector_multicast,
)

__version__ = "0.1.0"
