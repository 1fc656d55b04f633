"""Unit tests for the tree-guided Boolean product protocol."""

import random

import pytest

from cliquemat.bits import (
    BitVector,
    BooleanMatrix,
    Traversal,
    Tree,
    WeightedEdge,
    boolean_product_naive,
    euler_traversal,
    hamming_distance,
    witnesses,
)
from cliquemat.clusmat import (
    BlockAssignment,
    assign_pairs,
    block_multiply,
    choose_orientation,
    clusmat_protocol,
    plan_blocks,
)
from cliquemat.engine import CliqueConfig
from cliquemat.errors import InvalidPlanError, InvalidWitnessError


def bv(s):
    return BitVector.from_string(s)


def make_traversal(pairs, costs, indices=None):
    indices = indices or tuple(1 for _ in pairs)
    return Traversal(pairs[0][0], tuple(pairs), tuple(indices), tuple(costs))


# ---------------------------------------------------------------------------
# plan_blocks
# ---------------------------------------------------------------------------

def test_plan_blocks_hand_example():
    # tour of a 3-vertex path with per-directed-edge costs [3, 1, 2, 2]
    tour = make_traversal(
        [(1, 2), (2, 3), (3, 2), (2, 1)], [3, 1, 2, 2], (1, 2, 2, 1)
    )
    plan = plan_blocks(tour, [3, 1, 2, 2], n=4)
    assert plan.total_cost == 8
    assert plan.t == 2
    assert plan.traversal_blocks == ((0, 2), (2, 4))
    assert plan.block_costs == (4, 4)


def test_plan_blocks_zero_cost():
    tour = make_traversal([(1, 2), (2, 1)], [0, 0], (1, 1))
    plan = plan_blocks(tour, [0, 0], n=4)
    assert plan.t == 1
    assert plan.num_blocks == 1
    assert len(plan.column_blocks) == 4
    assert all(hi == lo for lo, hi in plan.column_blocks)


def test_plan_blocks_column_arithmetic():
    # n=100, M=300 -> t=2, 50 column blocks of size 2
    tree = Tree(3, (WeightedEdge(1, 2, 75), WeightedEdge(2, 3, 75)))
    tour = euler_traversal(tree, 1)
    plan = plan_blocks(tour, [75, 75, 75, 75], n=100)
    assert plan.total_cost == 300
    assert plan.t == 2
    assert len(plan.column_blocks) == 50
    assert all(hi - lo + 1 == 2 for lo, hi in plan.column_blocks)


def test_plan_blocks_block_invariants():
    rng = random.Random(0)
    for n in (8, 32, 64):
        tree_edges = tuple(
            WeightedEdge(rng.randrange(1, i), i, 0) for i in range(2, n + 1)
        )
        tree = Tree(n, tree_edges)
        costs_by_edge = {i: rng.randrange(0, n + 1) for i in range(1, n)}
        tour = euler_traversal(tree, 1, edge_costs=costs_by_edge)
        costs = [costs_by_edge[e] for e in tour.edge_indices]
        plan = plan_blocks(tour, costs, n)
        M, t = plan.total_cost, plan.t
        assert plan.num_blocks <= t
        assert t * len(plan.column_blocks) <= n
        # blocks partition the directed edges
        flat = [i for lo, hi in plan.traversal_blocks for i in range(lo, hi)]
        assert flat == list(range(2 * (n - 1)))
        budget = -(-M // t) if M else 1
        for cost in plan.block_costs:
            assert cost <= budget + n
        # column blocks partition 1..n with sizes <= t+1
        cols = [j for lo, hi in plan.column_blocks for j in range(lo, hi + 1)]
        assert cols == list(range(1, n + 1))
        assert all(hi - lo + 1 <= t + 1 for lo, hi in plan.column_blocks)
        # every vertex appears in some block
        union = set()
        for b in range(1, plan.num_blocks + 1):
            union.update(plan.block_vertices(b))
        assert union == set(range(1, n + 1))


def test_plan_blocks_length_mismatch():
    tour = make_traversal([(1, 2), (2, 1)], [1, 1], (1, 1))
    with pytest.raises(InvalidPlanError):
        plan_blocks(tour, [1], n=4)


# ---------------------------------------------------------------------------
# assign_pairs
# ---------------------------------------------------------------------------

def test_assign_pairs_lexicographic():
    tour = make_traversal([(1, 2), (2, 1)], [4, 4], (1, 1))
    plan = plan_blocks(tour, [4, 4], n=4)  # M=8, t=2, q=2
    assert plan.t == 2 and plan.num_blocks == 2
    asg = assign_pairs(plan, 4)
    assert asg.node_for(1, 1) == 1
    assert asg.node_for(1, 2) == 2
    assert asg.node_for(2, 1) == 3
    assert asg.node_for(2, 2) == 4


def test_assign_pairs_t1_identity():
    tour = make_traversal([(1, 2), (2, 1)], [0, 0], (1, 1))
    plan = plan_blocks(tour, [0, 0], n=5)
    asg = assign_pairs(plan, 5)
    for c in range(1, 6):
        assert asg.node_for(1, c) == c


def test_assign_pairs_deterministic():
    tour = make_traversal([(1, 2), (2, 1)], [3, 3], (1, 1))
    plan = plan_blocks(tour, [3, 3], n=6)
    a = assign_pairs(plan, 6)
    b = assign_pairs(plan, 6)
    assert a.pair_to_node == b.pair_to_node


# ---------------------------------------------------------------------------
# block_multiply
# ---------------------------------------------------------------------------

def block_rows(*args):
    """The (vertex, column, bit) columns of :func:`block_multiply` as a
    list of rows."""
    return list(zip(*(c.tolist() for c in block_multiply(*args))))


def test_block_multiply_no_edges_is_inner_product():
    r = bv("1010")
    cols = [(1, bv("1000")), (2, bv("0101"))]
    out = block_rows(3, r, [], {}, cols)
    assert out == [(3, 1, 1), (3, 2, 0)]


def test_block_multiply_two_rows_oracle():
    # rows 1010 -> (witnesses [2, 4]) -> 1111 against column 0101:
    # direct inner products give 0 and 2 shared ones, so bits 0 and 1
    start = bv("1010")
    col = bv("0101")
    nxt = bv("1111")
    assert witnesses(start, nxt) == [2, 4]
    assert (start.value & col.value).bit_count() == 0
    assert (nxt.value & col.value).bit_count() == 2
    out = block_rows(1, start, [(1, 2, 1)], {1: [2, 4]}, [(1, col)])
    assert out == [(1, 1, 0), (2, 1, 1)]


def test_block_multiply_matches_naive_on_random_blocks():
    rng = random.Random(9)
    n = 32
    for _ in range(10):
        rows = [BitVector(n, rng.getrandbits(n)) for _ in range(4)]
        walk = [(i + 1, i + 2, i + 1) for i in range(3)]
        wit = {i + 1: witnesses(rows[i], rows[i + 1]) for i in range(3)}
        cols = [(j, BitVector(n, rng.getrandbits(n))) for j in (2, 5, 7)]
        out = block_rows(1, rows[0], walk, wit, cols)
        for vertex, j, bit in out:
            colv = dict(cols)[j]
            expect = 1 if (rows[vertex - 1].value & colv.value) else 0
            assert bit == expect


def test_block_multiply_bad_witness():
    with pytest.raises(InvalidWitnessError):
        block_rows(1, bv("1010"), [(1, 2, 1)], {1: [9]}, [(1, bv("1111"))])


@pytest.mark.parametrize("coord", [0, 5])
def test_block_multiply_rejects_witness_just_outside_range(coord):
    # n = 4: coordinates 0 and n+1 are the nearest invalid ones
    with pytest.raises(InvalidWitnessError):
        block_rows(
            1, bv("1010"), [(1, 2, 1)], {1: [2, coord]}, [(1, bv("1111"))]
        )


def test_block_multiply_duplicated_witness_cancels():
    # two flips of coordinate 3 leave the row as it was: [2, 3, 3] acts as [2]
    start = bv("1010")
    cols = [(1, bv("0100")), (2, bv("0010")), (3, bv("1000"))]
    walk = [(1, 2, 1)]
    once = block_rows(1, start, walk, {1: [2]}, cols)
    twice = block_rows(1, start, walk, {1: [2, 3, 3]}, cols)
    assert twice == once == [
        (1, 1, 0), (1, 2, 1), (1, 3, 1),
        (2, 1, 1), (2, 2, 1), (2, 3, 1),
    ]
    assert block_rows(1, start, walk, {1: [3, 3]}, cols)[3:] == [
        (2, 1, 0), (2, 2, 1), (2, 3, 1),
    ]


def test_block_multiply_emits_revisited_vertex_once_at_first_visit():
    # 1 -> 2 -> 1 -> 3; the return to 1 runs over an edge whose witnesses do
    # not undo the first step, so the row rebuilt for vertex 1 on the second
    # visit differs from its start row, and only the first visit counts
    start = bv("1000")
    cols = [(4, bv("1000")), (7, bv("0100"))]
    walk = [(1, 2, 1), (2, 1, 2), (1, 3, 3)]
    wit = {1: [2], 2: [1], 3: []}
    out = block_rows(1, start, walk, wit, cols)
    assert out == [
        (1, 4, 1), (1, 7, 0),
        (2, 4, 1), (2, 7, 1),
        (3, 4, 0), (3, 7, 1),
    ]


def test_block_multiply_no_columns():
    assert block_rows(1, bv("1010"), [(1, 2, 1)], {1: [2]}, []) == []
    assert block_rows(1, bv("1010"), [], {}, []) == []


def test_block_multiply_matches_naive_on_tour_blocks():
    """Blocks of Euler tours walk back over tree edges, so edges repeat and
    vertices are revisited; every first visit must give the naive inner
    products, in column order."""
    rng = random.Random(20261018)
    for _ in range(25):
        n = rng.randrange(2, 40)
        rows = [BitVector(n, rng.getrandbits(n)) for _ in range(n)]
        tree = Tree(n, tuple(
            WeightedEdge(rng.randrange(1, i), i, 0) for i in range(2, n + 1)
        ))
        tour = euler_traversal(tree, root=1)
        wit = {
            idx: witnesses(rows[e.u - 1], rows[e.v - 1])
            for idx, e in enumerate(tree.edges, start=1)
        }
        lo = rng.randrange(len(tour.directed_edges))
        hi = rng.randrange(lo, len(tour.directed_edges) + 1)
        walk = [
            (u, v, tour.edge_indices[i])
            for i, (u, v) in enumerate(tour.directed_edges[lo:hi], start=lo)
        ]
        start = tour.directed_edges[lo][0]
        cols = [
            (j, BitVector(n, rng.getrandbits(n)))
            for j in sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
        ]
        order = [start]
        for _, head, _ in walk:
            if head not in order:
                order.append(head)
        expect = [
            (x, j, 1 if rows[x - 1].value & col.value else 0)
            for x in order
            for j, col in cols
        ]
        assert block_rows(start, rows[start - 1], walk, wit, cols) == expect


# ---------------------------------------------------------------------------
# end-to-end protocol
# ---------------------------------------------------------------------------

def random_matrix_local(n, rng):
    return BooleanMatrix(tuple(BitVector(n, rng.getrandbits(n)) for _ in range(n)))


def test_clusmat_identity_gives_b():
    rng = random.Random(0)
    n = 8
    B = random_matrix_local(n, rng)
    for routing in ("simulated", "accounted"):
        C, _, _ = clusmat_protocol(
            BooleanMatrix.identity(n), B, CliqueConfig(n=n, routing=routing, seed=1)
        )
        assert C == B


def test_clusmat_identical_rows():
    rng = random.Random(1)
    n = 8
    row = BitVector(n, rng.getrandbits(n))
    A = BooleanMatrix(tuple(row for _ in range(n)))
    B = random_matrix_local(n, rng)
    C, ledger, info = clusmat_protocol(A, B, CliqueConfig(n=n, routing="accounted", seed=2))
    assert C == boolean_product_naive(A, B)
    assert info["m_realized"] == 0 and info["t"] == 1


def test_clusmat_random_simulated_and_accounted():
    rng = random.Random(2)
    for n in (4, 8, 16):
        A = random_matrix_local(n, rng)
        B = random_matrix_local(n, rng)
        expect = boolean_product_naive(A, B)
        for routing in ("simulated", "accounted"):
            C, ledger, _ = clusmat_protocol(
                A, B, CliqueConfig(n=n, routing=routing, seed=n)
            )
            assert C == expect, f"n={n} routing={routing}"


def test_clusmat_tiny_n2():
    A = BooleanMatrix.from_strings(["11", "01"])
    B = BooleanMatrix.from_strings(["10", "11"])
    C, _, _ = clusmat_protocol(A, B, CliqueConfig(n=2, seed=0))
    assert C == boolean_product_naive(A, B)


def test_clusmat_ledger_step_decomposition():
    rng = random.Random(3)
    n = 16
    A = random_matrix_local(n, rng)
    B = random_matrix_local(n, rng)
    _, ledger, _ = clusmat_protocol(A, B, CliqueConfig(n=n, seed=4))
    steps = {k: v for k, v in ledger.step_rounds.items() if k.startswith("step") and "_" not in k.removeprefix("step")}
    step_keys = [f"step{i}" for i in range(1, 11)]
    assert set(steps) == set(step_keys)
    assert sum(steps.values()) == ledger.rounds
    assert ledger.step_rounds["step6"] == 0  # planning is local


def test_clusmat_determinism():
    rng = random.Random(5)
    n = 16
    A = random_matrix_local(n, rng)
    B = random_matrix_local(n, rng)
    cfg = CliqueConfig(n=n, routing="accounted", seed=11)
    r1 = clusmat_protocol(A, B, cfg)
    r2 = clusmat_protocol(A, B, cfg)
    assert r1[0] == r2[0]
    assert r1[1].as_dict() == r2[1].as_dict()
    assert r1[2] == r2[2]


def test_clusmat_strict_capacity_mode():
    rng = random.Random(6)
    n = 16
    A = random_matrix_local(n, rng)
    B = random_matrix_local(n, rng)
    C, _, _ = clusmat_protocol(A, B, CliqueConfig(n=n, strict=True, seed=7))
    assert C == boolean_product_naive(A, B)


# ---------------------------------------------------------------------------
# choose_orientation
# ---------------------------------------------------------------------------

def clustered_rows_inputs():
    """A with identical rows (row-side cost 0), B random."""
    rng = random.Random(7)
    n = 8
    row = BitVector(n, rng.getrandbits(n))
    A = BooleanMatrix(tuple(row for _ in range(n)))
    B = random_matrix_local(n, rng)
    return A, B, CliqueConfig(n=n, routing="accounted", seed=8)


def clustered_columns_inputs():
    """A random, B with identical columns (column-side cost 0)."""
    rng = random.Random(8)
    n = 8
    A = random_matrix_local(n, rng)
    col_row = BitVector(n, rng.getrandbits(n))
    B = BooleanMatrix(tuple(col_row for _ in range(n))).transpose()
    return A, B, CliqueConfig(n=n, routing="accounted", seed=9)


def test_orientation_prefers_clustered_rows():
    A, B, cfg = clustered_rows_inputs()
    C, orientation, _, info = choose_orientation(A, B, cfg)
    assert orientation == "ab"
    assert info["cost_a"] == 0
    assert C == boolean_product_naive(A, B)


def test_orientation_prefers_clustered_columns():
    A, B, cfg = clustered_columns_inputs()
    C, orientation, _, info = choose_orientation(A, B, cfg)
    assert orientation == "ba"
    assert info["cost_b"] == 0
    assert C == boolean_product_naive(A, B)


def test_orientation_tie_breaks_to_ab():
    n = 4
    A = BooleanMatrix.identity(n)
    C, orientation, _, info = choose_orientation(
        A, A, CliqueConfig(n=n, routing="accounted", seed=10)
    )
    assert info["cost_a"] == info["cost_b"]
    assert orientation == "ab"
    assert C == boolean_product_naive(A, A)


def test_orientation_both_sides_correct_random():
    rng = random.Random(9)
    for seed in range(3):
        n = 8
        A = random_matrix_local(n, rng)
        B = random_matrix_local(n, rng)
        C, _, _, _ = choose_orientation(
            A, B, CliqueConfig(n=n, routing="accounted", seed=seed)
        )
        assert C == boolean_product_naive(A, B)


@pytest.mark.parametrize(
    "inputs, expect",
    [(clustered_rows_inputs, "ab"), (clustered_columns_inputs, "ba")],
    ids=["ab", "ba"],
)
def test_orientation_passes_isolation_audit(monkeypatch, inputs, expect):
    """Both outcomes of the orientation choice touch only the active
    node's storage in every local phase."""
    from cliquemat import clusmat
    from cliquemat.engine import CliqueEngine

    class AuditedEngine(CliqueEngine):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.audit = True

    monkeypatch.setattr(clusmat, "CliqueEngine", AuditedEngine)
    A, B, cfg = inputs()
    C, orientation, _, _ = choose_orientation(A, B, cfg)
    assert orientation == expect
    assert C == boolean_product_naive(A, B)


# ---------------------------------------------------------------------------
# node isolation and replicated planning
# ---------------------------------------------------------------------------

def run_placed(engine, A, B):
    """The ab run on ``engine`` after the entry-point input placement."""
    from cliquemat import clusmat
    from cliquemat.hmst import ProjectionConfig

    clusmat._place_inputs(engine, A, B)
    return clusmat.run_clusmat(engine, "a_row", "b_col", ProjectionConfig())


def test_clusmat_passes_isolation_audit():
    """Every local phase touches only the active node's storage."""
    from cliquemat.engine import CliqueEngine

    rng = random.Random(10)
    n = 8
    A = random_matrix_local(n, rng)
    B = random_matrix_local(n, rng)
    engine = CliqueEngine(CliqueConfig(n=n, seed=3))
    engine.audit = True
    C, _ = run_placed(engine, A, B)
    assert C == boolean_product_naive(A, B)


def test_clusmat_plans_identical_across_nodes():
    from cliquemat.engine import CliqueEngine

    rng = random.Random(11)
    n = 16
    A = random_matrix_local(n, rng)
    B = random_matrix_local(n, rng)
    engine = CliqueEngine(CliqueConfig(n=n, routing="accounted", seed=4))
    run_placed(engine, A, B)
    plans = [engine.node(i).storage["plan"] for i in engine.node_ids()]
    assignments = [engine.node(i).storage["assignment"] for i in engine.node_ids()]
    assert all(p == plans[0] for p in plans)
    assert all(a.pair_to_node == assignments[0].pair_to_node for a in assignments)


def fresh_plan(tree, distances, n):
    """Step 6 derived from scratch: tour, plan, assignment, schedules."""
    from cliquemat.clusmat import witness_schedules

    tour = euler_traversal(tree, root=1, edge_costs=distances)
    plan = plan_blocks(tour, [distances[e] for e in tour.edge_indices], n)
    assignment = assign_pairs(plan, n)
    return plan, assignment, witness_schedules(plan, assignment, distances, n)


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_replicated_plan_matches_fresh_derivation_at_every_node(routing):
    from cliquemat.engine import CliqueEngine
    from cliquemat.harness import GenSpec, generate

    n = 12
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=5))
    B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=6))
    engine = CliqueEngine(CliqueConfig(n=n, routing=routing, seed=5))
    engine.audit = True
    C, _ = run_placed(engine, A, B)
    assert C == boolean_product_naive(A, B)
    for i in engine.node_ids():
        st = engine.node(i).storage
        plan, assignment, schedules = fresh_plan(st["tree"], st["distances"], n)
        assert st["plan"] == plan
        assert st["assignment"] == assignment
        assert st["schedules"] == schedules


def test_step6_derives_once_per_distinct_tree_and_distances(monkeypatch):
    """Nodes holding the same shared tree and distance table share one
    derivation; a node holding its own copy of the tree derives its own."""
    from cliquemat import clusmat
    from cliquemat.engine import CliqueEngine

    n, other = 10, 4
    rng = random.Random(12)
    A = random_matrix_local(n, rng)
    B = random_matrix_local(n, rng)
    tours = []
    euler = clusmat.euler_traversal
    broadcast = clusmat._broadcast_tree

    def counting_euler(tree, *args, **kwargs):
        tours.append(tree)
        return euler(tree, *args, **kwargs)

    def broadcast_then_copy(engine, *args, **kwargs):
        broadcast(engine, *args, **kwargs)
        with engine.as_node(other) as node:
            t = node.storage["tree"]
            node.storage["tree"] = Tree(t.n, t.edges)

    monkeypatch.setattr(clusmat, "euler_traversal", counting_euler)
    monkeypatch.setattr(clusmat, "_broadcast_tree", broadcast_then_copy)
    engine = CliqueEngine(CliqueConfig(n=n, routing="accounted", seed=2))
    C, _ = run_placed(engine, A, B)
    assert C == boolean_product_naive(A, B)
    shared = engine.node(1).storage
    own = engine.node(other).storage
    assert tours == [shared["tree"], own["tree"]]
    assert tours[0] is shared["tree"] and tours[1] is own["tree"]
    assert own["plan"] == shared["plan"]
    assert own["plan"] is not shared["plan"]
    assert all(
        engine.node(i).storage["plan"] is shared["plan"]
        for i in engine.node_ids() if i != other
    )


# ---------------------------------------------------------------------------
# witness distribution
# ---------------------------------------------------------------------------

def run_engine_protocol(n, A, B, routing="simulated", seed=0):
    from cliquemat.engine import CliqueEngine

    engine = CliqueEngine(CliqueConfig(n=n, routing=routing, seed=seed))
    C, info = run_placed(engine, A, B)
    return engine, C, info


def test_witnesses_at_pair_nodes_match_direct_union():
    """Every pair node ends with exactly the witness lists a direct local
    computation over its block's edges would give."""
    from cliquemat.harness import GenSpec, generate

    n = 16
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=2))
    B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=3))
    engine, C, _ = run_engine_protocol(n, A, B)
    assert C == boolean_product_naive(A, B)
    for i in engine.node_ids():
        st = engine.node(i).storage
        pair = st["assignment"].node_to_pair.get(i)
        if pair is None:
            continue
        plan = st["plan"]
        got = st["block_witnesses"]
        tree = st["tree"]
        for e in plan.block_edge_ids(pair[0]):
            edge = tree.edge(e)
            expect = witnesses(A.row(edge.u), A.row(edge.v))
            assert got[e] == expect


def test_witness_delivery_free_when_rows_identical():
    n = 8
    row = bv("10110100")
    A = BooleanMatrix(tuple(row for _ in range(n)))
    B = BooleanMatrix.identity(n)
    engine, C, info = run_engine_protocol(n, A, B, routing="accounted")
    assert C == boolean_product_naive(A, B)
    assert info["m_realized"] == 0
    assert engine.ledger.step_rounds["step8"] == 0


def test_step8_rounds_fit_t_logn_shape():
    from cliquemat.harness import GenSpec, generate

    ratios = []
    for n, density in ((64, 0.13), (64, 0.5), (128, 0.1), (128, 0.5), (256, 0.08)):
        A = generate(GenSpec(n=n, kind="uniform", density=density, seed=0))
        B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=1))
        engine, _, info = run_engine_protocol(n, A, B, routing="accounted")
        import math

        ratios.append(
            engine.ledger.step_rounds["step8"] / (info["t"] * math.log2(n))
        )
    assert max(ratios) <= 4 * min(ratios)


def test_identical_rows_rounds_dominated_by_tree_step():
    """With all rows of A equal, the tree-construction step carries the
    round count; every other step together stays below it."""
    n = 32
    row = BitVector(n, 0x5A5A5A5A & ((1 << n) - 1))
    A = BooleanMatrix(tuple(row for _ in range(n)))
    B = BooleanMatrix.identity(n)
    engine, C, info = run_engine_protocol(n, A, B, routing="accounted", seed=2)
    assert C == boolean_product_naive(A, B)
    assert info["m_realized"] == 0
    steps = engine.ledger.step_rounds
    others = sum(steps[f"step{i}"] for i in range(1, 11) if i != 2)
    assert steps["step2"] > others
