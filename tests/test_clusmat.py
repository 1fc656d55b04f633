"""Unit tests for the tree-guided Boolean product protocol."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquemat import clusmat
from cliquemat.bits import (
    BooleanMatrix,
    Traversal,
    Tree,
    WeightedEdge,
    boolean_product_naive,
    euler_traversal,
    hamming_distance,
    own_rows,
    witnesses,
)
from cliquemat.clusmat import (
    BlockAssignment,
    assign_pairs,
    block_multiply,
    choose_orientation,
    clusmat_oriented,
    plan_blocks,
    visited_rows,
)
from cliquemat.engine import CliqueConfig
from cliquemat.errors import InvalidPlanError, InvalidWitnessError
from cliquemat.routing import Batch, count_bits, solve_relaxed_idt
from recording import RecordingEngine
from rows import row01, row_of, value_of, values_of
from tree_reference import edge_weights


def identity(n):
    return BooleanMatrix(tuple(row_of(1 << i, n) for i in range(n)))


def make_traversal(pairs, costs, indices=None):
    indices = indices or tuple(1 for _ in pairs)
    walk = [(u, v, e) for (u, v), e in zip(pairs, indices)]
    return Traversal(pairs[0][0], walk_array(walk), np.array(costs, dtype=np.int64))


def walk_array(triples):
    """(tail, head, edge index) triples as the (steps, 3) int64 walk array
    :func:`visited_rows` takes."""
    return np.array(triples, dtype=np.int64).reshape(-1, 3)


# ---------------------------------------------------------------------------
# plan_blocks
# ---------------------------------------------------------------------------

def test_plan_blocks_hand_example():
    # tour of a 3-vertex path with per-directed-edge costs [3, 1, 2, 2]
    tour = make_traversal(
        [(1, 2), (2, 3), (3, 2), (2, 1)], [3, 1, 2, 2], (1, 2, 2, 1)
    )
    plan = plan_blocks(tour, n=4)
    assert plan.total_cost == 8
    assert plan.t == 2
    assert plan.traversal_blocks == ((0, 2), (2, 4))
    assert plan.block_costs == (4, 4)


def test_plan_blocks_zero_cost():
    tour = make_traversal([(1, 2), (2, 1)], [0, 0], (1, 1))
    plan = plan_blocks(tour, n=4)
    assert plan.t == 1
    assert plan.num_blocks == 1
    assert len(plan.column_blocks) == 4
    assert all(hi == lo for lo, hi in plan.column_blocks)


def test_plan_blocks_column_arithmetic():
    # n=100, M=300 -> t=2, 50 column blocks of size 2
    tree = Tree(3, (WeightedEdge(1, 2, 75), WeightedEdge(2, 3, 75)))
    tour = euler_traversal(tree, edge_weights(tree))
    plan = plan_blocks(tour, n=100)
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
        costs_by_edge = np.array([0] + [rng.randrange(0, n + 1) for i in range(1, n)])
        tour = euler_traversal(tree, edge_costs=costs_by_edge)
        plan = plan_blocks(tour, n)
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
        for lo, hi in plan.traversal_blocks:
            union.add(tour.directed_edges[lo][0])
            union.update(v for _, v in tour.directed_edges[lo:hi])
        assert union == set(range(1, n + 1))


def test_plan_blocks_negative_cost():
    tour = make_traversal([(1, 2), (2, 1)], [-1, 1], (1, 1))
    with pytest.raises(InvalidPlanError, match="nonnegative"):
        plan_blocks(tour, n=4)


# ---------------------------------------------------------------------------
# assign_pairs
# ---------------------------------------------------------------------------

def test_assign_pairs_lexicographic():
    tour = make_traversal([(1, 2), (2, 1)], [4, 4], (1, 1))
    plan = plan_blocks(tour, n=4)  # M=8, t=2, q=2
    assert plan.t == 2 and plan.num_blocks == 2
    asg = assign_pairs(plan, 4)
    assert asg.q == 2
    assert [asg.pair_of(v) for v in range(1, 5)] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_assign_pairs_t1_identity():
    tour = make_traversal([(1, 2), (2, 1)], [0, 0], (1, 1))
    plan = plan_blocks(tour, n=5)
    asg = assign_pairs(plan, 5)
    for c in range(1, 6):
        assert asg.pair_of(c) == (1, c)


def test_assign_pairs_deterministic():
    tour = make_traversal([(1, 2), (2, 1)], [3, 3], (1, 1))
    plan = plan_blocks(tour, n=6)
    a = assign_pairs(plan, 6)
    b = assign_pairs(plan, 6)
    assert a == b


def scanned_pairs(plan):
    """The (block, column block) -> node map as assign_pairs once built it;
    the lookups below scan it, as BlockAssignment once did."""
    q = len(plan.column_blocks)
    return {
        (b, c): (b - 1) * q + c
        for b in range(1, plan.num_blocks + 1)
        for c in range(1, q + 1)
    }


def scanned_column_block(plan, j):
    for c, (lo, hi) in enumerate(plan.column_blocks, start=1):
        if lo <= j <= hi:
            return c
    return None


@pytest.mark.parametrize("n", [2, 9, 64, 257])
def test_assignment_lookups_match_scans(n):
    """The closed-form lookups agree with scans of every pair, in and out
    of range, over plans of several t."""
    rng = random.Random(n)
    ts = set()
    for scale in (0, 1, 2, 4, 8, 16, n):
        tree = Tree(n, tuple(
            WeightedEdge(rng.randrange(1, i), i, 0) for i in range(2, n + 1)
        ))
        costs = np.array([0] + [rng.randrange(0, scale + 1) for i in range(1, n)])
        tour = euler_traversal(tree, edge_costs=costs)
        plan = plan_blocks(tour, n)
        ts.add(plan.t)
        asg = assign_pairs(plan, n)
        pairs = scanned_pairs(plan)
        q = len(plan.column_blocks)
        for (b, c), v in pairs.items():
            assert (b - 1) * asg.q + c == v
        for b in range(-1, plan.num_blocks + 3):
            expect = sorted(v for (bb, _), v in pairs.items() if bb == b)
            assert list(asg.nodes_for_block(b)) == expect
        for c in range(-1, q + 3):
            expect = sorted(v for (_, cc), v in pairs.items() if cc == c)
            assert list(asg.nodes_for_column_block(c)) == expect
        node_to_pair = {v: bc for bc, v in pairs.items()}
        for v in range(-1, n + 3):
            assert asg.pair_of(v) == node_to_pair.get(v)
        for j in range(1, n + 1):
            assert plan.column_block_of(j) == scanned_column_block(plan, j)
        for j in (-1, 0, n + 1):
            with pytest.raises(InvalidPlanError):
                plan.column_block_of(j)
    assert len(ts) == 1 if n == 2 else len(ts) >= 3


# ---------------------------------------------------------------------------
# block_multiply
# ---------------------------------------------------------------------------

def block_rows(start_vertex, start_row, walk, wit, columns):
    """The (vertex, column, bit) columns of :func:`block_multiply` on the
    rows :func:`visited_rows` rebuilds, as a list of rows."""
    rows = visited_rows(start_vertex, start_row, walk_array(walk), wit)
    return list(zip(*(c.tolist() for c in block_multiply(*rows, columns))))


def test_block_multiply_no_edges_is_inner_product():
    r = row01("1010")
    cols = [(1, row01("1000")), (2, row01("0101"))]
    out = block_rows(3, r, [], {}, cols)
    assert out == [(3, 1, 1), (3, 2, 0)]


def test_block_multiply_two_rows_oracle():
    # rows 1010 -> (witnesses [2, 4]) -> 1111 against column 0101:
    # direct inner products give 0 and 2 shared ones, so bits 0 and 1
    start = row01("1010")
    col = row01("0101")
    nxt = row01("1111")
    assert witnesses(start, nxt).tolist() == [2, 4]
    assert (value_of(start) & value_of(col)).bit_count() == 0
    assert (value_of(nxt) & value_of(col)).bit_count() == 2
    out = block_rows(1, start, [(1, 2, 1)], {1: [2, 4]}, [(1, col)])
    assert out == [(1, 1, 0), (2, 1, 1)]


def test_block_multiply_matches_naive_on_random_blocks():
    rng = random.Random(9)
    n = 32
    for _ in range(10):
        rows = [row_of(rng.getrandbits(n), n) for _ in range(4)]
        walk = [(i + 1, i + 2, i + 1) for i in range(3)]
        wit = {i + 1: witnesses(rows[i], rows[i + 1]) for i in range(3)}
        cols = [(j, row_of(rng.getrandbits(n), n)) for j in (2, 5, 7)]
        out = block_rows(1, rows[0], walk, wit, cols)
        for vertex, j, bit in out:
            colv = dict(cols)[j]
            expect = 1 if (value_of(rows[vertex - 1]) & value_of(colv)) else 0
            assert bit == expect


def test_block_multiply_bad_witness():
    with pytest.raises(InvalidWitnessError):
        block_rows(1, row01("1010"), [(1, 2, 1)], {1: [9]}, [(1, row01("1111"))])


@pytest.mark.parametrize("coord", [0, 5])
def test_block_multiply_rejects_witness_just_outside_range(coord):
    # n = 4: coordinates 0 and n+1 are the nearest invalid ones
    with pytest.raises(InvalidWitnessError):
        block_rows(
            1, row01("1010"), [(1, 2, 1)], {1: [2, coord]}, [(1, row01("1111"))]
        )


def test_block_multiply_duplicated_witness_cancels():
    # two flips of coordinate 3 leave the row as it was: [2, 3, 3] acts as [2]
    start = row01("1010")
    cols = [(1, row01("0100")), (2, row01("0010")), (3, row01("1000"))]
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
    start = row01("1000")
    cols = [(4, row01("1000")), (7, row01("0100"))]
    walk = [(1, 2, 1), (2, 1, 2), (1, 3, 3)]
    wit = {1: [2], 2: [1], 3: []}
    out = block_rows(1, start, walk, wit, cols)
    assert out == [
        (1, 4, 1), (1, 7, 0),
        (2, 4, 1), (2, 7, 1),
        (3, 4, 0), (3, 7, 1),
    ]


def test_block_multiply_no_columns():
    assert block_rows(1, row01("1010"), [(1, 2, 1)], {1: [2]}, []) == []
    assert block_rows(1, row01("1010"), [], {}, []) == []


def walked_rows(start_vertex, start_row, walk, wit):
    """A tour block's first-visit vertices and rows, walked edge by edge,
    one flip per listed coordinate: the reference for visited_rows."""
    cur = value_of(start_row)
    vertices, rows = [start_vertex], [cur]
    for _, head, e in walk:
        for i in wit.get(e, ()):
            cur ^= 1 << (int(i) - 1)
        if head not in vertices:
            vertices.append(head)
            rows.append(cur)
    return vertices, rows


def check_visited_rows(start_vertex, start_row, walk, wit):
    vertices, rows = visited_rows(start_vertex, start_row, walk_array(walk), wit)
    expect_vertices, expect_rows = walked_rows(start_vertex, start_row, walk, wit)
    assert vertices.tolist() == expect_vertices
    assert rows.dtype == np.float32
    assert rows.shape == (len(expect_vertices), len(start_row))
    assert set(np.unique(rows).tolist()) <= {0.0, 1.0}
    assert values_of(rows) == expect_rows


@pytest.mark.parametrize("n", [1, 63, 64, 65])
def test_visited_rows_match_python_walk(n):
    """Random walks over a few vertices revisit them and reuse edges;
    witness lists may repeat a coordinate, and some are arrays."""
    rng = random.Random(n)
    for _ in range(40):
        k = rng.randrange(2, 7)
        at = start = rng.randrange(1, k + 1)
        walk = []
        for _ in range(rng.randrange(0, 3 * k)):
            head = rng.choice([v for v in range(1, k + 1) if v != at])
            walk.append((at, head, min(at, head) * 10 + max(at, head)))
            at = head
        wit = {}
        for _, _, e in walk:
            coords = [rng.randrange(1, n + 1) for _ in range(rng.randrange(0, 6))]
            wit[e] = np.array(coords, dtype=np.int64) if rng.random() < 0.5 else coords
        check_visited_rows(start, row_of(rng.getrandbits(n), n), walk, wit)


@pytest.mark.parametrize("n", [1, 63, 64, 65])
def test_visited_rows_edge_cases(n):
    row = row_of((1 << n) - 1, n)
    # an empty walk is the start row alone
    check_visited_rows(4, row, [], {})
    vertices, rows = visited_rows(4, row, walk_array([]), {})
    assert vertices.tolist() == [4] and values_of(rows) == [value_of(row)]
    # a coordinate repeated in one list: an odd count flips, an even one
    # cancels; an edge without a list flips nothing
    walk = [(1, 2, 1), (2, 3, 2), (3, 2, 2), (2, 4, 3)]
    check_visited_rows(1, row, walk, {1: [n, n, n], 2: [1, 1]})
    _, rows = visited_rows(1, row, walk_array(walk), {1: [n, n, n], 2: [1, 1]})
    flipped = value_of(row) ^ (1 << (n - 1))
    assert values_of(rows) == [value_of(row), flipped, flipped, flipped]


def test_block_multiply_matches_naive_on_tour_blocks():
    """Blocks of Euler tours walk back over tree edges, so edges repeat and
    vertices are revisited; every first visit must give the naive inner
    products, in column order."""
    rng = random.Random(20261018)
    for _ in range(25):
        n = rng.randrange(2, 40)
        rows = [row_of(rng.getrandbits(n), n) for _ in range(n)]
        tree = Tree(n, tuple(
            WeightedEdge(rng.randrange(1, i), i, 0) for i in range(2, n + 1)
        ))
        tour = euler_traversal(tree, edge_weights(tree))
        wit = {
            idx: witnesses(rows[e.u - 1], rows[e.v - 1])
            for idx, e in enumerate(tree.edges, start=1)
        }
        lo = rng.randrange(len(tour.directed_edges))
        hi = rng.randrange(lo, len(tour.directed_edges) + 1)
        walk = [tuple(step) for step in tour.walk[lo:hi].tolist()]
        start = tour.directed_edges[lo][0]
        cols = [
            (j, row_of(rng.getrandbits(n), n))
            for j in sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
        ]
        order = [start]
        for _, head, _ in walk:
            if head not in order:
                order.append(head)
        expect = [
            (x, j, 1 if value_of(rows[x - 1]) & value_of(col) else 0)
            for x in order
            for j, col in cols
        ]
        assert block_rows(start, rows[start - 1], walk, wit, cols) == expect


# ---------------------------------------------------------------------------
# end-to-end protocol
# ---------------------------------------------------------------------------

def random_matrix_local(n, rng):
    return BooleanMatrix(tuple(row_of(rng.getrandbits(n), n) for _ in range(n)))


def test_clusmat_identity_gives_b():
    rng = random.Random(0)
    n = 8
    B = random_matrix_local(n, rng)
    for routing in ("simulated", "accounted"):
        C, _, _ = clusmat_oriented(
            identity(n), B, CliqueConfig(n=n, routing=routing, seed=1)
        )
        assert C == B


def test_clusmat_identical_rows():
    rng = random.Random(1)
    n = 8
    row = row_of(rng.getrandbits(n), n)
    A = BooleanMatrix(tuple(row for _ in range(n)))
    B = random_matrix_local(n, rng)
    C, ledger, info = clusmat_oriented(A, B, CliqueConfig(n=n, routing="accounted", seed=2))
    assert C == boolean_product_naive(A, B)
    assert info["m_realized"] == 0 and info["t"] == 1


def test_clusmat_random_simulated_and_accounted():
    rng = random.Random(2)
    for n in (4, 8, 16):
        A = random_matrix_local(n, rng)
        B = random_matrix_local(n, rng)
        expect = boolean_product_naive(A, B)
        for routing in ("simulated", "accounted"):
            C, ledger, _ = clusmat_oriented(
                A, B, CliqueConfig(n=n, routing=routing, seed=n)
            )
            assert C == expect, f"n={n} routing={routing}"


def test_clusmat_tiny_n2():
    A = BooleanMatrix.from_strings(["11", "01"])
    B = BooleanMatrix.from_strings(["10", "11"])
    C, _, _ = clusmat_oriented(A, B, CliqueConfig(n=2, seed=0))
    assert C == boolean_product_naive(A, B)


@pytest.mark.parametrize("entry", ["ab", "ba", "auto"])
def test_clusmat_ledger_step_decomposition(entry):
    """The top-level step records sum to the ledger's rounds, and an auto
    run records the same steps as the forced run of the orientation it
    picks."""
    rng = random.Random(3)
    n = 16
    A = random_matrix_local(n, rng)
    B = random_matrix_local(n, rng)
    cfg = CliqueConfig(n=n, seed=4)
    if entry == "auto":
        _, chosen, ledger, _ = choose_orientation(A, B, cfg)
    else:
        _, ledger, _ = clusmat_oriented(A, B, cfg, orientation=entry)
        chosen = entry
    forced = clusmat_oriented(A, B, cfg, orientation=chosen)[1]
    top = [f"step{i}" for i in range(1, 11)] + ["orient_transpose"] * (chosen == "ba")
    hmst = [f"step2_hmst_step{i}" for i in range(1, 4)]
    assert set(ledger.step_rounds) == set(forced.step_rounds) == {*top, *hmst}
    assert sum(ledger.step_rounds[k] for k in top) == ledger.rounds
    assert ledger.step_rounds["step6"] == 0  # planning is local


def test_clusmat_determinism():
    rng = random.Random(5)
    n = 16
    A = random_matrix_local(n, rng)
    B = random_matrix_local(n, rng)
    cfg = CliqueConfig(n=n, routing="accounted", seed=11)
    r1 = clusmat_oriented(A, B, cfg)
    r2 = clusmat_oriented(A, B, cfg)
    assert r1[0] == r2[0]
    assert r1[1].as_dict() == r2[1].as_dict()
    assert r1[2] == r2[2]


def test_clusmat_strict_capacity_mode():
    """The capacity --strict sets, ceil(log2 n) + 16 bits."""
    rng = random.Random(6)
    n = 16
    A = random_matrix_local(n, rng)
    B = random_matrix_local(n, rng)
    C, _, _ = clusmat_oriented(A, B, CliqueConfig(n=n, w=4 + 16, seed=7))
    assert C == boolean_product_naive(A, B)


def reference_transpose(engine, src_key, out_key):
    """The transpose exchange with its n^2 items in (src, dst) order:
    node j's bit i goes to node i, and node i's received column is
    scattered back from the delivered rows."""
    n = engine.n
    rows = engine.local(lambda node: node.storage[src_key])
    src = np.repeat(np.arange(1, n + 1), n)
    dst = np.tile(np.arange(1, n + 1), n)
    delivered, _ = solve_relaxed_idt(
        engine, Batch.build(engine.w, src, dst, 1, np.concatenate(list(rows.values())))
    )
    received = np.zeros((n, n), dtype=np.uint8)
    received[delivered.dst - 1, delivered.src - 1] = delivered.payload
    engine.put(out_key, dict(enumerate(own_rows(received), 1)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    w=st.sampled_from(["strict", 64, 100]),
    routing=st.sampled_from(["simulated", "accounted"]),
    in_place=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_transpose_layout_leaves_schedule_and_columns_unchanged(n, w, routing, in_place, seed):
    """The transpose in (dst, src) order charges the ledger and per-node
    work of the (src, dst) layout, sends the same messages in the same
    rounds (simulated), and leaves every node the same column, whether the
    column replaces the row (the ``ba`` flip) or is stored beside it
    (step 1)."""
    cfg = CliqueConfig(n=n, w=math.ceil(math.log2(n)) + 16 if w == "strict" else w, routing=routing)
    M = np.random.default_rng(seed).integers(0, 2, (n, n), dtype=np.uint8)
    keys = ("c_row", "c_row") if in_place else ("b_row", "b_col")
    engines = []
    for transpose in (clusmat._transpose_exchange, reference_transpose):
        eng = RecordingEngine(cfg)
        eng.put(keys[0], dict(enumerate(own_rows(M), 1)))
        transpose(eng, *keys)
        engines.append(eng)
    got, want = engines
    assert got.ledger.as_dict() == want.ledger.as_dict()
    assert got.ledger.work == want.ledger.work
    assert sorted(got.rows) == sorted(want.rows)
    for i in got.node_ids():
        col = got.node(i).storage[keys[1]]
        assert col.dtype == np.uint8 and not col.flags.writeable
        assert col.tolist() == want.node(i).storage[keys[1]].tolist() == M[:, i - 1].tolist()


# ---------------------------------------------------------------------------
# choose_orientation
# ---------------------------------------------------------------------------

def clustered_rows_inputs():
    """A with identical rows (row-side cost 0), B random."""
    rng = random.Random(7)
    n = 8
    row = row_of(rng.getrandbits(n), n)
    A = BooleanMatrix(tuple(row for _ in range(n)))
    B = random_matrix_local(n, rng)
    return A, B, CliqueConfig(n=n, routing="accounted", seed=8)


def clustered_columns_inputs():
    """A random, B with identical columns (column-side cost 0)."""
    rng = random.Random(8)
    n = 8
    A = random_matrix_local(n, rng)
    col_row = row_of(rng.getrandbits(n), n)
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
    A = identity(n)
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
            super().__init__(cfg, audit=True)

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
    C, _, _, info = clusmat.run_clusmat(engine, ("ab",), ProjectionConfig())
    return C, info


def test_clusmat_passes_isolation_audit():
    """Every local phase touches only the active node's storage."""
    from cliquemat.engine import CliqueEngine

    rng = random.Random(10)
    n = 8
    A = random_matrix_local(n, rng)
    B = random_matrix_local(n, rng)
    engine = CliqueEngine(CliqueConfig(n=n, seed=3), audit=True)
    C, _ = run_placed(engine, A, B)
    assert C == boolean_product_naive(A, B)


@pytest.mark.parametrize("audit", [False, True])
@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_finished_run_frees_its_engine_by_reference_counting(monkeypatch, routing, audit):
    """No node refers back to its engine, so a finished run's engine, its
    nodes and all they store go as soon as the last reference does,
    without the cycle collector."""
    import gc
    import weakref

    from cliquemat.engine import CliqueEngine
    from cliquemat.harness import GenSpec, generate

    refs = []

    class Watched(CliqueEngine):
        def __init__(self, cfg):
            super().__init__(cfg, audit=audit)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(clusmat, "CliqueEngine", Watched)
    n = 16
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=5))
    B = generate(GenSpec(n=n, kind="uniform", density=0.4, seed=6))
    gc.collect()
    gc.disable()
    try:
        C, _, _ = clusmat_oriented(A, B, CliqueConfig(n=n, routing=routing, seed=3))
        (ref,) = refs
        assert ref() is None
    finally:
        gc.enable()
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
    assert all(a == assignments[0] for a in assignments)


def fresh_plan(tree, distances, n):
    """Step 6 derived from scratch: tour, plan, assignment, schedules."""
    from cliquemat.clusmat import witness_schedules

    tour = euler_traversal(tree, edge_costs=distances)
    plan = plan_blocks(tour, n)
    assignment = assign_pairs(plan, n)
    return plan, assignment, witness_schedules(plan, assignment, distances, n)


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_replicated_plan_matches_fresh_derivation_at_every_node(routing):
    from cliquemat.engine import CliqueEngine
    from cliquemat.harness import GenSpec, generate

    n = 12
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=5))
    B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=6))
    engine = CliqueEngine(CliqueConfig(n=n, routing=routing, seed=5), audit=True)
    C, _ = run_placed(engine, A, B)
    assert C == boolean_product_naive(A, B)
    for i in engine.node_ids():
        st = engine.node(i).storage
        plan, assignment, schedules = fresh_plan(st["tree", "a_row"], st["distances", "a_row"], n)
        assert st["plan"] == plan
        assert st["assignment"] == assignment
        assert st["schedules"] == schedules


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_pair_nodes_with_altered_inputs_derive_their_own_rows(routing, monkeypatch):
    """Pair nodes of one block share one witness decode and one rebuild of
    the block's rows.  A node holding a copy of its start row rebuilds its
    own rows; a node holding reordered copies of its witness packets
    decodes its own witnesses and rebuilds its own rows.  Both still end
    with the correct product."""
    from cliquemat import clusmat
    from cliquemat.engine import CliqueEngine
    from cliquemat.harness import GenSpec, generate

    n, own_start, own_packets = 16, 2, 3
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=7))
    B = generate(GenSpec(n=n, kind="uniform", density=0.3, seed=8))
    rebuilds = []
    rebuild = clusmat.visited_rows

    def counting_rebuild(*args):
        rebuilds.append(args)
        return rebuild(*args)

    class AlteringEngine(CliqueEngine):
        def local(self, fn):
            if fn.__name__ == "multiply":
                with self.as_node(own_start) as node:
                    (start, row), = node.storage["start_rows"].items()
                    node.storage["start_rows"] = {start: row.copy()}
                with self.as_node(own_packets) as node:
                    packets = node.storage["witness_packets"]
                    assert packets
                    node.storage["witness_packets"] = [p[::-1].copy() for p in packets]
            return super().local(fn)

    monkeypatch.setattr(clusmat, "visited_rows", counting_rebuild)
    engine = AlteringEngine(CliqueConfig(n=n, routing=routing, seed=7), audit=True)
    C, _ = run_placed(engine, A, B)
    assert C == boolean_product_naive(A, B)

    plan, asg = engine.node(1).storage["plan"], engine.node(1).storage["assignment"]
    assert asg.q >= 4 and list(asg.nodes_for_block(1))[1:3] == [own_start, own_packets]
    assert len(rebuilds) == plan.num_blocks + 2
    for b in range(1, plan.num_blocks + 1):
        first = engine.node((b - 1) * asg.q + 1).storage
        for v in asg.nodes_for_block(b):
            st = engine.node(v).storage
            assert (st["block_witnesses"] is first["block_witnesses"]) == (v != own_packets)
            assert (st["block_rows"] is first["block_rows"]) == (v not in (own_start, own_packets))
            assert st["block_witnesses"].keys() == first["block_witnesses"].keys()
            for e, coords in st["block_witnesses"].items():
                assert coords.tolist() == first["block_witnesses"][e].tolist()
            for got, shared in zip(st["block_rows"], first["block_rows"]):
                assert np.array_equal(got, shared)


@pytest.mark.parametrize("drop", ["col_rows", "witness_packets"])
def test_pair_node_missing_a_delivery_stops_step10(drop):
    """Step 10 checks what steps 7-9 delivered before a pair node
    multiplies: a node short of one column of its block stops the run with
    a SchedulingError naming the node, and a node short of one witness
    packet with one naming its block and the packet's edge."""
    from cliquemat.engine import CliqueEngine
    from cliquemat.errors import SchedulingError
    from cliquemat.harness import GenSpec, generate
    from cliquemat.routing import count_bits

    n = 16
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=7))
    B = generate(GenSpec(n=n, kind="uniform", density=0.3, seed=8))
    expect = []

    class AlteringEngine(CliqueEngine):
        def local(self, fn):
            if fn.__name__ == "multiply":
                v = min(i for i in self.node_ids() if any(
                    p.size for p in self.node(i).storage["witness_packets"]
                ))
                with self.as_node(v) as node:
                    st = node.storage
                    if drop == "col_rows":
                        st["col_rows"] = dict(list(st["col_rows"].items())[1:])
                        expect.append(f"pair node {v} ")
                    else:
                        first, *rest = (p for p in st["witness_packets"] if p.size)
                        st["witness_packets"] = [first[1:], *rest]
                        b = st["assignment"].pair_of(v)[0]
                        e = int(first[0]) >> count_bits(n)
                        expect.append(f"block {b} holds .* witnesses of edge {e},")
            return super().local(fn)

    engine = AlteringEngine(CliqueConfig(n=n, routing="accounted", seed=7), audit=True)
    with pytest.raises(SchedulingError) as err:
        run_placed(engine, A, B)
    assert len(expect) == 1
    assert re.search(expect[0], str(err.value))


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
@pytest.mark.parametrize("flip", [False, True])
def test_step10_copies_that_disagree_stop_the_run(routing, flip, monkeypatch):
    """A vertex visited in several tour blocks receives each of its entries
    once per block.  With one such copy's bit flipped in the delivered
    step-10 batch, the run stops with a SchedulingError naming the entry's
    row and column; unflipped, the product is exact."""
    from cliquemat.errors import SchedulingError
    from cliquemat.harness import GenSpec, generate

    n = 32
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=7))
    B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=8))
    route, flipped = clusmat.bounded_route, []

    def spy(engine, batch):
        delivered, rounds = route(engine, batch)
        if flip and "step9" in engine.ledger.step_rounds:  # step 10's call
            # (row, column) of each entry; flip the second copy of the first
            # entry that arrives twice
            key = delivered.dst * 2 * n + (delivered.payload.astype(np.int64) >> 1)
            _, first, count = np.unique(key, return_index=True, return_counts=True)
            i = int(np.flatnonzero(key == key[first[count > 1][0]])[1])
            payload = delivered.payload.copy()
            payload[i] ^= 1
            flipped.append((int(delivered.dst[i]), (int(payload[i]) >> 1) + 1))
            delivered = Batch(delivered.src, delivered.dst, delivered.nbits, payload)
        return delivered, rounds

    monkeypatch.setattr(clusmat, "bounded_route", spy)
    cfg = CliqueConfig(n=n, routing=routing, seed=7)
    if not flip:
        assert clusmat_oriented(A, B, cfg, orientation="ab")[0] == boolean_product_naive(A, B)
        return
    with pytest.raises(SchedulingError) as err:
        clusmat_oriented(A, B, cfg, orientation="ab")
    (row, col), = flipped
    assert f"entry ({row}, {col})" in str(err.value)


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_step10_hands_every_row_over_through_put(routing, monkeypatch):
    """Step 10 checks the product's rows whole at the host and hands node
    i its row through ``put``, under the isolation audit, in one call for
    every node."""
    from cliquemat.engine import CliqueEngine
    from cliquemat.harness import GenSpec, generate

    n = 16
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=7))
    B = generate(GenSpec(n=n, kind="uniform", density=0.3, seed=8))
    engine = CliqueEngine(CliqueConfig(n=n, routing=routing, seed=7), audit=True)
    handed, put = [], engine.put

    def recording_put(key, values):
        if key == "c_row":
            handed.append(dict(values))
        put(key, values)

    monkeypatch.setattr(engine, "put", recording_put)
    C, _ = run_placed(engine, A, B)
    assert C == boolean_product_naive(A, B)
    (values,) = handed
    assert list(values) == list(engine.node_ids())
    for i in engine.node_ids():
        assert engine.node(i).storage["c_row"] is values[i]


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_step10_short_row_stops_the_run(routing, monkeypatch):
    """With one entry of each of two rows lost from the delivered step-10
    batch, each the only copy of its entry, the run stops with a
    SchedulingError naming the lower row and its count."""
    from cliquemat.errors import SchedulingError
    from cliquemat.harness import GenSpec, generate

    n = 16
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=7))
    B = generate(GenSpec(n=n, kind="uniform", density=0.3, seed=8))
    route, lost = clusmat.bounded_route, []

    def dropping(engine, batch):
        delivered, rounds = route(engine, batch)
        if "step9" in engine.ledger.step_rounds:  # step 10's call
            key = delivered.dst * 2 * n + (delivered.payload.astype(np.int64) >> 1)
            _, first, count = np.unique(key, return_index=True, return_counts=True)
            once = first[count == 1]
            drop = once[[0, -1]]  # the lowest and the highest row's
            lost.extend(int(delivered.dst[i]) for i in drop)
            keep = np.ones(len(delivered), dtype=bool)
            keep[drop] = False
            cols = (delivered.src, delivered.dst, delivered.nbits, delivered.payload)
            delivered = Batch(*(col[keep] for col in cols))
        return delivered, rounds

    monkeypatch.setattr(clusmat, "bounded_route", dropping)
    with pytest.raises(SchedulingError) as err:
        clusmat_oriented(A, B, CliqueConfig(n=n, routing=routing, seed=7), orientation="ab")
    low, high = lost
    assert low < high
    assert str(err.value) == f"row {low} incomplete: {n - 1} of {n} entries"


def test_step10_holds_each_entry_column_once(monkeypatch):
    """Step 10's (vertex, column, bit) entries, about n^2 of them, set the
    run's memory peak.  On the accounted n=256 instance with A uniform the
    step peaks, under tracemalloc, less than 52 bytes per routed entry
    above its start (48.9 measured): the pair nodes' rows, then the
    batch's three int64 columns, which routing hands back as they are, and
    the flat index column scattered from them, each once.  A delivery
    sorted into a copy beside the batch took 66; keeping the entry columns
    beside the batch, a uint64 payload copy and a gathered width column
    took 107."""
    import tracemalloc

    from cliquemat.engine import CliqueEngine
    from cliquemat.harness import GenSpec, generate
    from memory_report import measuring_steps

    n = 256
    A = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=0))
    B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=1))
    traced, routed = {}, []
    route = clusmat.bounded_route

    def spy(engine, batch):
        routed.append(len(batch))
        return route(engine, batch)

    monkeypatch.setattr(clusmat, "bounded_route", spy)
    monkeypatch.setattr(
        CliqueEngine, "step", measuring_steps(lambda name, peak, _: traced.update({name: peak}))
    )
    tracemalloc.start()
    try:
        C, _, _ = clusmat_oriented(A, B, CliqueConfig(n=n, routing="accounted", seed=0))
    finally:
        tracemalloc.stop()
    assert C == boolean_product_naive(A, B)
    assert routed[-1] > n * n
    assert traced["step10"] < 52 * routed[-1]


def test_simulated_step10_schedule_holds_few_bytes_per_entry(monkeypatch):
    """Simulated, step 10 schedules every round of routing its entries.
    On the n=128 simulated baseline instance (A clustered, 4 clusters,
    spread 6, seed 0; B uniform, density 0.5, seed 1) the step peaks, under
    tracemalloc, at most 150 bytes per routed cross entry above its start
    (121 measured), and the schedule builder's own peak is at most 120
    bytes per item it schedules (56 measured).  Releasing each sub-task's
    relaxed tasks pass by pass, every pass gathering the pending int64
    columns again, took 240 and 184.  tracemalloc keeps one peak, so the
    builder is measured in a second run, whose steps are not measured."""
    import tracemalloc

    from cliquemat import routing
    from cliquemat.engine import CliqueEngine
    from cliquemat.harness import GenSpec, generate
    from memory_report import cross_items, measuring_steps

    n = 128
    A = generate(GenSpec(n=n, kind="clustered", clusters=4, spread=6, seed=0))
    B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=1))
    cfg = CliqueConfig(n=n, routing="simulated", seed=0)
    traced, routed, built = {}, [], []
    route, build = clusmat.bounded_route, routing._bounded_rounds

    def route_spy(engine, batch):
        routed.append(cross_items(batch))
        return route(engine, batch)

    def build_spy(n, src, dst, nbits, blocks):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build(n, src, dst, nbits, blocks)
        built.append((src.size, tracemalloc.get_traced_memory()[1] - start))

    monkeypatch.setattr(clusmat, "bounded_route", route_spy)
    tracemalloc.start()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(
                CliqueEngine, "step",
                measuring_steps(lambda name, peak, _: traced.update({name: peak})),
            )
            C, _, _ = clusmat_oriented(A, B, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(routing, "_bounded_rounds", build_spy)
            clusmat_oriented(A, B, cfg)
    finally:
        tracemalloc.stop()
    assert C == boolean_product_naive(A, B)
    items, peak = built[-1]  # step 10's call, the run's last
    assert items == routed[-1] > n * n
    assert traced["step10"] <= 150 * items
    assert peak <= 120 * items


def test_orientation_choice_keeps_both_candidates(monkeypatch):
    """After the choice every node still holds both candidate trees'
    distance tables, which sum to the reported costs, and its plan is the
    fresh step-6 derivation over the chosen rows' tree and distances."""
    from cliquemat import clusmat
    from cliquemat.engine import CliqueEngine
    from cliquemat.harness import GenSpec, generate

    n = 23
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=n))
    B = generate(GenSpec(n=n, kind="uniform", density=0.15, seed=n + 1))
    engines = []

    class KeptEngine(CliqueEngine):
        def __init__(self, cfg):
            super().__init__(cfg)
            engines.append(self)

    monkeypatch.setattr(clusmat, "CliqueEngine", KeptEngine)
    C, orientation, _, info = choose_orientation(
        A, B, CliqueConfig(n=n, routing="accounted", seed=7)
    )
    assert orientation == "ba" and info["cost_b"] < info["cost_a"]
    assert C == boolean_product_naive(A, B)
    (engine,) = engines
    for i in engine.node_ids():
        st = engine.node(i).storage
        assert st["distances", "a_row"].sum() == info["cost_a"]
        assert st["distances", "b_col"].sum() == info["cost_b"]
        plan, assignment, schedules = fresh_plan(st["tree", "b_col"], st["distances", "b_col"], n)
        assert st["plan"] == plan
        assert st["assignment"] == assignment
        assert st["schedules"] == schedules


def golden_inputs(n):
    """The golden grid's (A, B) at n: clustered rows, sparse uniform B."""
    from cliquemat.harness import GenSpec, generate

    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=n))
    B = generate(GenSpec(n=n, kind="uniform", density=0.15, seed=n + 1))
    return A, B


@pytest.mark.parametrize("seed_mode", [False, True], ids=["ship", "seed"])
@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_auto_run_hands_out_one_family(routing, seed_mode, monkeypatch):
    """Both candidate trees are built on one projection family: node 1
    draws once (a seed, or one block of entries per scale) and generates
    one family, every node stores the same family object when each
    candidate's tree is built, and hmst step 1 costs what it costs in a
    forced run."""
    from cliquemat.engine import NodeState
    from cliquemat.hmst import ProjectionConfig, ProjectionFamily, scales_for

    n = 16
    A, B = golden_inputs(n)
    cfg = CliqueConfig(n=n, routing=routing, seed=7)
    proj = ProjectionConfig(seed_mode=seed_mode)
    _, forced, _ = clusmat_oriented(A, B, cfg, proj)
    draws, generated, families = [], [], []
    stream, run_hmst = NodeState.rng, clusmat.run_hmst
    generate_family = ProjectionFamily.generate.__func__

    class Draws:
        """A node's random stream that records each draw made from it."""

        def __init__(self, node):
            self.node, self.rng = node.id, stream.fget(node)

        def __getattr__(self, name):
            draws.append((self.node, name))
            return getattr(self.rng, name)

    def counting(cls, *args):
        generated.append(args)
        return generate_family(cls, *args)

    def recording_run(engine, *args, **kwargs):
        families.append([engine.node(v).storage["family"] for v in engine.node_ids()])
        return run_hmst(engine, *args, **kwargs)

    monkeypatch.setattr(NodeState, "rng", property(Draws))
    monkeypatch.setattr(ProjectionFamily, "generate", classmethod(counting))
    monkeypatch.setattr(clusmat, "run_hmst", recording_run)
    C, _, ledger, _ = choose_orientation(A, B, cfg, proj)
    assert C == boolean_product_naive(A, B)
    assert draws == ([(1, "integers")] if seed_mode else [(1, "random")] * len(scales_for(n)))
    assert len(generated) == 1
    first, second = families
    assert all(a is b for a, b in zip(first, second))
    assert ledger.step_rounds["step2_hmst_step1"] == forced.step_rounds["step2_hmst_step1"]


@pytest.mark.parametrize("orientations", [("ab", "ba"), ("ab",), ("ba",)])
@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_step5_broadcasts_every_candidate_distance_in_one_round(routing, orientations):
    """Step 5 is one all-to-all round for any number of candidates: edge
    owner j sends one message carrying its edge's distance in every
    candidate tree, cb bits each.  Every node stores each tree's per-edge
    Hamming distances under its rows' key, and the pick follows their sums
    as computed here from the inputs (ties to the first candidate)."""
    from cliquemat.engine import CliqueEngine
    from cliquemat.hmst import ProjectionConfig

    class Step5Engine(CliqueEngine):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.step5 = []

        def broadcast(self, senders, nbits, label=""):
            if label == "step5":
                self.step5.append((list(senders), nbits))
            super().broadcast(senders, nbits, label)

    n = 23
    A, B = golden_inputs(n)
    engine = Step5Engine(CliqueConfig(n=n, routing=routing, seed=7))
    clusmat._place_inputs(engine, A, B)
    C, orientation, costs, _ = clusmat.run_clusmat(engine, orientations, ProjectionConfig())
    assert C == boolean_product_naive(A, B)
    assert engine.step5 == [(list(range(1, n)), len(orientations) * count_bits(n))]
    assert engine.ledger.step_rounds["step5"] == 1
    points = {"a_row": A.bits, "b_col": B.bits.T}
    expected = {}
    for o in orientations:
        key = clusmat._ROLES[o][0]
        tree = engine.node(1).storage["tree", key]
        distances = [0] + [
            hamming_distance(points[key][e.u - 1], points[key][e.v - 1])
            for e in map(tree.edge, range(1, n))
        ]
        for v in engine.node_ids():
            assert engine.node(v).storage["distances", key].tolist() == distances
        expected[o] = sum(distances)
    assert costs == expected
    assert orientation == min(orientations, key=expected.__getitem__)


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
            t = node.storage["tree", "a_row"]
            node.storage["tree", "a_row"] = Tree(t.n, t.edges)

    monkeypatch.setattr(clusmat, "euler_traversal", counting_euler)
    monkeypatch.setattr(clusmat, "_broadcast_tree", broadcast_then_copy)
    engine = CliqueEngine(CliqueConfig(n=n, routing="accounted", seed=2))
    C, _ = run_placed(engine, A, B)
    assert C == boolean_product_naive(A, B)
    shared = engine.node(1).storage
    own = engine.node(other).storage
    assert tours == [shared["tree", "a_row"], own["tree", "a_row"]]
    assert tours[0] is shared["tree", "a_row"] and tours[1] is own["tree", "a_row"]
    assert own["plan"] == shared["plan"]
    assert own["plan"] is not shared["plan"]
    assert all(
        engine.node(i).storage["plan"] is shared["plan"]
        for i in engine.node_ids() if i != other
    )


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_one_tour_array_from_step5_to_step10(routing, monkeypatch):
    """Every node stores step 5's distances as one read-only (n,) array;
    the tour holds the tree's read-only walk itself, and every walk step 10
    rebuilds rows from is a slice of it.  What the plan, the summary and
    the ledger report are Python ints, as the JSON ledger digest and the
    run report need."""
    from cliquemat import clusmat
    from cliquemat.engine import CliqueEngine
    from cliquemat.harness import GenSpec, generate

    n = 16
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=7))
    B = generate(GenSpec(n=n, kind="uniform", density=0.3, seed=8))
    engines, walks = [], []
    rebuild = clusmat.visited_rows

    class KeptEngine(CliqueEngine):
        def __init__(self, cfg):
            super().__init__(cfg)
            engines.append(self)

    def spy(start_vertex, start_row, walk, wit):
        walks.append(walk)
        return rebuild(start_vertex, start_row, walk, wit)

    monkeypatch.setattr(clusmat, "CliqueEngine", KeptEngine)
    monkeypatch.setattr(clusmat, "visited_rows", spy)
    C, orientation, ledger, info = choose_orientation(
        A, B, CliqueConfig(n=n, routing=routing, seed=7)
    )
    assert C == boolean_product_naive(A, B)
    (engine,) = engines
    for i in engine.node_ids():
        for row_key in ("a_row", "b_col"):
            d = engine.node(i).storage["distances", row_key]
            assert type(d) is np.ndarray and d.dtype == np.int64 and d.shape == (n,)
            assert not d.flags.writeable
    st = engine.node(1).storage
    row_key = "a_row" if orientation == "ab" else "b_col"
    tree, plan = st["tree", row_key], st["plan"]
    tour = euler_traversal(tree, st["distances", row_key])
    assert tour.walk is tree.walk and plan.traversal.walk is tree.walk
    assert plan.traversal == tour
    assert not tour.walk.flags.writeable and not tour.costs.flags.writeable
    assert len(walks) == plan.num_blocks
    assert all(np.shares_memory(walk, plan.traversal.walk) for walk in walks)
    reported = [
        plan.total_cost, plan.t, *plan.block_costs,
        info["m_realized"], info["cost_a"], info["cost_b"], *ledger.work,
    ]
    assert [type(x) for x in reported] == [int] * len(reported)


def test_step3_structure_is_node1_tree_at_weight_zero(monkeypatch):
    """Both candidate trees reach every node as node 1's tree at weight 0,
    sharing its walk and adjacency, so each edge set is walked once; no
    node but node 1 holds an estimated weight."""
    from cliquemat import clusmat
    from cliquemat.engine import CliqueEngine
    from cliquemat.harness import GenSpec, generate

    n = 16
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=5))
    B = generate(GenSpec(n=n, kind="uniform", density=0.3, seed=6))
    engines = []

    class KeptEngine(CliqueEngine):
        def __init__(self, cfg):
            super().__init__(cfg)
            engines.append(self)

    monkeypatch.setattr(clusmat, "CliqueEngine", KeptEngine)
    C, _, _, _ = choose_orientation(A, B, CliqueConfig(n=n, routing="accounted", seed=5))
    assert C == boolean_product_naive(A, B)
    (engine,) = engines
    node1 = engine.node(1).storage
    for row_key in ("a_row", "b_col"):
        estimated, structure = node1["hmst_tree", row_key], node1["tree", row_key]
        assert all(e.weight > 0 for e in estimated.edges)
        assert structure.walk is estimated.walk
        assert structure.adjacency is estimated.adjacency
        assert [(e.u, e.v, e.weight) for e in structure.edges] == [
            (e.u, e.v, 0) for e in estimated.edges
        ]
    for i in range(2, n + 1):
        storage = engine.node(i).storage
        trees = [v for v in storage.values() if isinstance(v, Tree)]
        assert len(trees) == 2
        assert all(storage["tree", key] is node1["tree", key] for key in ("a_row", "b_col"))
        assert all(e.weight == 0 for tree in trees for e in tree.edges)


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
        pair = st["assignment"].pair_of(i)
        if pair is None:
            continue
        plan = st["plan"]
        got = st["block_witnesses"]
        tree = st["tree", "a_row"]
        for e in plan.block_edge_ids(pair[0]):
            edge = tree.edge(e)
            expect = witnesses(A.row(edge.u), A.row(edge.v))
            assert got[e].tolist() == expect.tolist()


def test_witness_delivery_free_when_rows_identical():
    n = 8
    row = row01("10110100")
    A = BooleanMatrix(tuple(row for _ in range(n)))
    B = identity(n)
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
    row = row_of(0x5A5A5A5A & ((1 << n) - 1), n)
    A = BooleanMatrix(tuple(row for _ in range(n)))
    B = identity(n)
    engine, C, info = run_engine_protocol(n, A, B, routing="accounted", seed=2)
    assert C == boolean_product_naive(A, B)
    assert info["m_realized"] == 0
    steps = engine.ledger.step_rounds
    others = sum(steps[f"step{i}"] for i in range(1, 11) if i != 2)
    assert steps["step2"] > others


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_representatives_receive_their_slice_of_stage1(routing, monkeypatch):
    """Step 8 hands each representative its rows of the stage-1 delivery
    through ``put``, under the isolation audit: one own int64 array per
    node with rows, equal to that node's slice of the delivered batch, and
    nothing for any other node."""
    from cliquemat.engine import CliqueEngine
    from cliquemat.harness import GenSpec, generate

    n = 16
    A = generate(GenSpec(n=n, kind="uniform", density=0.3, seed=2))
    B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=3))
    routed, handed = [], []
    route = clusmat.bounded_route

    def spy(engine, batch):
        routed.append(route(engine, batch)[0])
        return routed[-1], None

    class Handing(CliqueEngine):
        def put(self, key, values):
            if key == "stage1_packets":
                handed.append((routed[-1], dict(values)))
            super().put(key, values)

    monkeypatch.setattr(clusmat, "bounded_route", spy)
    engine = Handing(CliqueConfig(n=n, routing=routing, seed=4), audit=True)
    C, _ = run_placed(engine, A, B)
    assert C == boolean_product_naive(A, B)
    (delivered, values), = handed
    assert values
    for v in engine.node_ids():
        rows = delivered.payload[delivered.dst == v]
        if not rows.size:
            assert v not in values
            continue
        got = values[v]
        assert got.dtype == np.int64 and got.base is None
        assert got.tolist() == rows.tolist()
        assert "stage1_packets" not in engine.node(v).storage  # taken to send on


# ---------------------------------------------------------------------------
# grouped column builders against their one-at-a-time references
# ---------------------------------------------------------------------------

def random_schedules(rng, n):
    """Step 6's witness schedules and distances over a random tree."""
    tree = Tree(n, tuple(WeightedEdge(rng.randrange(1, i), i, 0) for i in range(2, n + 1)))
    distances = np.array([0] + [rng.randrange(0, n + 1) for _ in range(1, n)], dtype=np.int64)
    return clusmat._derive_plan(tree, distances, n)[2], distances


def assert_same_columns(got, expect):
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def assert_same_stage1(n, got, expect):
    """The same columns, and the same stage-1 batch built from them."""
    assert_same_columns(got, expect)
    cb = count_bits(n)
    batches = [
        Batch.build(64, edge, rep, 2 * cb, (edge << cb) | (coords - 1))
        for edge, rep, coords in (got, expect)
    ]
    assert_same_columns(*((b.src, b.dst, b.nbits, b.payload) for b in batches))


@pytest.mark.parametrize("seed", range(16))
def test_stage1_columns_match_per_owner_reference(seed):
    """Over random plans, with every owner holding one schedules object
    (even seeds) or some owners holding a second, different one (odd
    seeds), the grouped stage-1 builder gives the per-owner reference's
    columns in the same order."""
    from step_reference import stage1_columns

    rng = random.Random(seed)
    n = rng.randrange(2, 80)
    (first, distances), (second, _) = random_schedules(rng, n), random_schedules(rng, n)
    others = set(rng.sample(range(1, n), rng.randrange(1, n))) if seed % 2 else set()
    owned = {
        e: (
            np.array(sorted(rng.sample(range(1, n + 1), int(distances[e]))), dtype=np.int64),
            second if e in others else first,
        )
        for e in range(1, n)
    }
    assert_same_stage1(n, clusmat._stage1_columns(owned), stage1_columns(owned))


@pytest.mark.parametrize("seed", range(16))
def test_pair_entries_match_per_block_reference(seed):
    """Random tour blocks and column blocks; a pair node may hold a copy
    of its block's rows (its own block) or copies of its column rows (its
    block's own column set), so products run for several column sets and
    their entries must come back in block order."""
    from step_reference import pair_entries

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    t = max(1, int(rng.integers(1, math.isqrt(n + 1) + 1)))
    cuts = np.array_split(np.arange(1, n + 1), n // t)
    columns = own_rows(rng.integers(0, 2, (n, n)))
    emitted = {}
    for b in range(t):
        count = int(rng.integers(1, n + 1))
        vertices = rng.permutation(np.arange(1, n + 1))[:count]
        rows = (vertices, rng.integers(0, 2, (count, n)).astype(np.float32))
        for c, cut in enumerate(cuts):
            cols = {int(j): columns[j - 1] for j in cut}
            if rng.random() < 0.2:
                rows = (rows[0], rows[1].copy())
            if rng.random() < 0.2:
                cols = {j: col.copy() for j, col in cols.items()}
            emitted[b * len(cuts) + c + 1] = (rows, cols)
    assert_same_columns(clusmat._pair_entries(emitted), pair_entries(emitted))


def test_grouped_builders_match_references_in_products(monkeypatch):
    """In whole products over fuzz seeds and both backends, every stage-1
    and step-10 build equals its reference.  Then one run gives a node its
    own copy of the tree, so its schedules are a second object, and a pair
    node of tour block 2 copies of its column rows, so step 10 multiplies
    several column sets and puts block 2's entries back between the
    others'; the product is still exact."""
    from cliquemat.engine import CliqueEngine
    from cliquemat.harness import GenSpec, generate
    from step_reference import pair_entries, stage1_columns
    from test_fuzz import draw_spec

    stage1, entries, product = clusmat._stage1_columns, clusmat._pair_entries, clusmat.block_multiply
    schedules, products = [], []

    def checked_stage1(owned):
        got = stage1(owned)
        assert_same_columns(got, stage1_columns(owned))
        schedules.append(len({id(s) for _, s in owned.values()}))
        return got

    def checked_entries(emitted):
        got = entries(emitted)
        assert_same_columns(got, pair_entries(emitted))
        return got

    def counted_product(*args):
        products[-1] += 1
        return product(*args)

    def counted_entries(emitted):
        products.append(0)
        return checked_entries(emitted)

    monkeypatch.setattr(clusmat, "_stage1_columns", checked_stage1)
    monkeypatch.setattr(clusmat, "_pair_entries", counted_entries)
    monkeypatch.setattr(clusmat, "block_multiply", counted_product)
    rng = np.random.default_rng(20261020)
    for i in range(8):
        n = int(rng.integers(2, 40))
        A, B = generate(draw_spec(rng, n)), generate(draw_spec(rng, n))
        cfg = CliqueConfig(n=n, routing=("simulated", "accounted")[i % 2], seed=i)
        C, _, _, _ = choose_orientation(A, B, cfg)
        assert C == boolean_product_naive(A, B)
    assert schedules == [1] * 8 and products == [1] * 8

    n, other = 16, 4
    broadcast = clusmat._broadcast_tree

    def broadcast_then_copy(engine, *args, **kwargs):
        broadcast(engine, *args, **kwargs)
        with engine.as_node(other) as node:
            t = node.storage["tree", "a_row"]
            node.storage["tree", "a_row"] = Tree(t.n, t.edges)

    class CopyingEngine(CliqueEngine):
        def local(self, fn):
            if fn.__name__ == "multiply":
                with self.as_node(1) as node:
                    v = node.storage["assignment"].nodes_for_block(2)[0]
                with self.as_node(v) as node:
                    cols = node.storage["col_rows"]
                    node.storage["col_rows"] = {j: col.copy() for j, col in cols.items()}
            return super().local(fn)

    monkeypatch.setattr(clusmat, "_broadcast_tree", broadcast_then_copy)
    A = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=1))
    B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=2))
    engine = CopyingEngine(CliqueConfig(n=n, routing="accounted", seed=7), audit=True)
    C, info = run_placed(engine, A, B)
    assert C == boolean_product_naive(A, B)
    assert info["blocks"] >= 3
    assert schedules[-1] == 2 and products[-1] > 1


# ---------------------------------------------------------------------------
# stored rows
# ---------------------------------------------------------------------------

ROW_KEYS = ("a_row", "b_row", "b_col", "c_row", "point")
ROW_DICT_KEYS = ("edge_rows", "start_rows", "col_rows")


def stored_rows(engine):
    """(storage key, sender or None, row) of every 0/1 row the nodes
    store: under the row keys, and as the values of the received-row
    dicts, keyed by sender."""
    for i in engine.node_ids():
        for key, value in engine.node(i).storage.items():
            name = key[0] if isinstance(key, tuple) else key
            if name in ROW_KEYS:
                yield key, None, value
            elif name in ROW_DICT_KEYS:
                yield from ((key, s, row) for s, row in value.items())


def check_stored_rows(engine, names):
    """Each stored row is its own read-only uint8 array, and all recipients
    of one sender's multicast hold one row object."""
    seen = set()
    by_sender = {}
    for key, sender, row in stored_rows(engine):
        seen.add(key[0] if isinstance(key, tuple) else key)
        assert row.dtype == np.uint8 and row.shape == (engine.n,)
        assert row.base is None and not row.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1 - row[0]
        if sender is not None:
            by_sender.setdefault((key, sender), set()).add(id(row))
    assert seen == set(names)
    assert all(len(ids) == 1 for ids in by_sender.values())


@pytest.fixture
def engines(monkeypatch):
    """The engines the entry points create, in order."""
    from cliquemat import clusmat, hmst
    from cliquemat.engine import CliqueEngine

    made = []

    class Recording(CliqueEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(clusmat, "CliqueEngine", Recording)
    monkeypatch.setattr(hmst, "CliqueEngine", Recording)
    return made


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
@pytest.mark.parametrize("entry", ["ab", "ba", "auto"])
def test_stored_rows_are_own_read_only_arrays(engines, routing, entry):
    """A view would hand a node the whole input through ``.base``, and a
    writable row shared by a multicast's recipients would let one node
    change another's copy."""
    from cliquemat.harness import GenSpec, generate

    n = 16
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=3, seed=4))
    B = generate(GenSpec(n=n, kind="uniform", density=0.4, seed=5))
    cfg = CliqueConfig(n=n, routing=routing, seed=6)
    if entry == "auto":
        C, _, _, _ = choose_orientation(A, B, cfg)
    else:
        C, _, _ = clusmat_oriented(A, B, cfg, orientation=entry)
    assert C == boolean_product_naive(A, B)
    (engine,) = engines
    check_stored_rows(engine, ROW_KEYS[:4] + ROW_DICT_KEYS)


def test_stored_points_are_own_read_only_arrays(engines):
    from cliquemat.harness import GenSpec, generate
    from cliquemat.hmst import hmst_protocol

    M = generate(GenSpec(n=12, kind="clustered", clusters=2, spread=2, seed=3))
    hmst_protocol(M.bits, CliqueConfig(n=12, seed=1))
    (engine,) = engines
    check_stored_rows(engine, ("point",))
    assert not np.shares_memory(engine.node(1).storage["point"], M.bits)
