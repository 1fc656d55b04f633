"""Unit tests for the bit-level primitives."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquemat.bits import (
    BooleanMatrix,
    Traversal,
    Tree,
    WeightedEdge,
    boolean_product_naive,
    distance_matrix_via_products,
    euler_traversal,
    hamming_distance,
    local_mst,
    chunk_widths,
    pack_chunks,
    unpack_chunks,
    witnesses,
)
from field_codec import pack_fields, unpack_fields
from rows import row01, row_of, rows_of
from tree_reference import edge_weights, euler_walk, is_spanning_tree, walk_triples
from cliquemat.harness import GenSpec, exact_mst_cost, gen_clustered, gen_uniform
from cliquemat.hmst import scales_for
from cliquemat.errors import (
    DimensionError,
    InvalidMatrixError,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def mst_cost_prim(H) -> int:
    """Independent MST cost via Prim's algorithm on a dense matrix."""
    n = len(H)
    in_tree = [False] * n
    dist = [float("inf")] * n
    dist[0] = 0
    total = 0
    for _ in range(n):
        u = min((d, i) for i, d in enumerate(dist) if not in_tree[i])[1]
        in_tree[u] = True
        total += dist[u]
        for v in range(n):
            if not in_tree[v] and H[u][v] < dist[v]:
                dist[v] = H[u][v]
    return int(total)


def pack_rows_per_bit(bits) -> list[int]:
    """Each row of a 0/1 array as an integer, entry j at bit j, bit by bit."""
    out = []
    for row in bits:
        value = 0
        for j, b in enumerate(row):
            value |= int(b) << j
        out.append(value)
    return out


def transpose_per_bit(M: BooleanMatrix) -> BooleanMatrix:
    """Transpose by single-entry reads: column j becomes row j."""
    n = M.n
    return BooleanMatrix(
        [[int(M.row(i)[j - 1]) for i in range(1, n + 1)] for j in range(1, n + 1)]
    )


def mst_cost_exhaustive(H) -> int:
    """Minimum spanning tree cost by enumerating every spanning tree
    (Pruefer sequences); only viable for small n."""
    import heapq

    n = len(H)
    if n == 1:
        return 0
    best = None
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        avail = [i for i in range(n) if degree[i] == 1]
        heapq.heapify(avail)
        cost = 0
        for x in seq:
            leaf = heapq.heappop(avail)
            cost += H[leaf][x]
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(avail, x)
        # exactly two degree-1 vertices remain; join them
        rest = sorted(avail)
        assert len(rest) == 2
        cost += H[rest[0]][rest[1]]
        if best is None or cost < best:
            best = cost
    return best


# ---------------------------------------------------------------------------
# BooleanMatrix
# ---------------------------------------------------------------------------

def test_matrix_strings_roundtrip():
    M = BooleanMatrix.from_strings(["101", "110", " 011 "])
    assert M.n == 3
    assert M.bits.dtype == np.uint8
    assert M.row(3).tolist() == [0, 1, 1]
    assert M.to_strings() == ["101", "110", "011"]
    assert M.transpose().to_strings() == ["110", "011", "101"]


@pytest.mark.parametrize(
    "bits, error",
    [
        (np.zeros((2, 3)), DimensionError),
        (np.zeros((0, 0)), DimensionError),
        (np.zeros(4), DimensionError),
        (np.zeros((2, 2, 2)), DimensionError),
        ([[0, 2], [1, 0]], ValueError),
        ([[0, -1], [1, 0]], ValueError),
    ],
)
def test_matrix_rejects_bad_input(bits, error):
    with pytest.raises(error):
        BooleanMatrix(bits)


@pytest.mark.parametrize("lines", [["01", "1x"], ["0 1", "110", "011"], ["02", "10"]])
def test_matrix_from_strings_names_the_bad_character(lines):
    bad = next(c for c in "".join(lines) if c not in "01")
    row = next(i for i, s in enumerate(lines, 1) if bad in s)
    with pytest.raises(ValueError, match=f"row {row} holds {bad!r}, not 0 or 1"):
        BooleanMatrix.from_strings(lines)


def test_matrix_bits_are_a_read_only_copy():
    given = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    M = BooleanMatrix(given)
    given[0, 0] = 0
    assert M.row(1).tolist() == [1, 0]
    with pytest.raises(ValueError):
        M.bits[0, 0] = 0
    with pytest.raises(ValueError):
        M.row(2)[0] = 1
    assert M == BooleanMatrix(np.eye(2, dtype=bool))
    assert M != BooleanMatrix(np.ones((2, 2))) and M != M.bits


# ---------------------------------------------------------------------------
# hamming_distance / witnesses
# ---------------------------------------------------------------------------

def test_hamming_distance_examples():
    assert hamming_distance(row01("1010"), row01("1001")) == 2
    x = row01("10110")
    assert hamming_distance(x, x) == 0
    assert hamming_distance(row01("0000"), row01("1111")) == 4


def test_hamming_distance_mismatch():
    with pytest.raises(DimensionError):
        hamming_distance(row01("10"), row01("100"))
    with pytest.raises(DimensionError):
        witnesses(row01("10"), row01("100"))


def test_witnesses_examples():
    assert witnesses(row01("110"), row01("011")).tolist() == [1, 3]
    x = row01("0110")
    assert witnesses(x, x).tolist() == []
    assert witnesses(row01("0000"), row01("1111")).tolist() == [1, 2, 3, 4]


def witnesses_per_bit(x: int, y: int, n: int):
    """Reference: the differing coordinates of two n-bit integers, one bit
    test each."""
    return [i for i in range(1, n + 1) if (x >> (i - 1)) & 1 != (y >> (i - 1)) & 1]


@pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 256])
def test_witnesses_match_per_bit_reference(n):
    rng = random.Random(n)
    for _ in range(20):
        x = rng.getrandbits(n)
        for y in (rng.getrandbits(n), x, x ^ (1 << (n - 1))):
            got = witnesses(row_of(x, n), row_of(y, n))
            assert got.dtype == np.int64
            assert got.tolist() == witnesses_per_bit(x, y, n)
    ones = row_of((1 << n) - 1, n)
    assert witnesses(row_of(0, n), ones).tolist() == list(range(1, n + 1))


# ---------------------------------------------------------------------------
# distance_matrix_via_products
# ---------------------------------------------------------------------------

def test_distance_identity_hand_example():
    P = BooleanMatrix.from_strings(["101", "110", "011"])
    H = distance_matrix_via_products(P)
    assert H[0][1] == 2  # 3 - 1 shared one - 0 shared zeros


def test_distance_identity_identical_rows():
    P = BooleanMatrix.from_strings(["1100", "1100", "1100", "1100"])
    H = distance_matrix_via_products(P)
    assert np.all(H == 0)


def test_distance_identity_random_vs_pairwise():
    rng = random.Random(7)
    for n in (8, 17, 64):
        rows = rows_of([rng.getrandbits(n) for _ in range(n)], n)
        P = BooleanMatrix(rows)
        H = distance_matrix_via_products(P)
        assert np.array_equal(H, H.T)
        assert np.all(np.diagonal(H) == 0)
        for i in range(n):
            for j in range(n):
                assert H[i][j] == hamming_distance(rows[i], rows[j])


# ---------------------------------------------------------------------------
# local_mst
# ---------------------------------------------------------------------------

def dist_matrix(points):
    n = len(points)
    return [[hamming_distance(points[i], points[j]) if i != j else 0 for j in range(n)] for i in range(n)]


def test_local_mst_three_points():
    pts = [row01("00"), row01("01"), row01("11")]
    t = local_mst(dist_matrix(pts))
    assert {(e.u, e.v) for e in t.edges} == {(1, 2), (2, 3)}
    assert t.cost() == 2


def test_local_mst_tie_break_star():
    H = [[0] * 5 for _ in range(5)]
    t = local_mst(H)
    assert {(e.u, e.v) for e in t.edges} == {(1, 2), (1, 3), (1, 4), (1, 5)}
    assert t.cost() == 0


def test_local_mst_rejects_bad_matrix():
    with pytest.raises(InvalidMatrixError):
        local_mst([[0, 1], [2, 0]])
    with pytest.raises(InvalidMatrixError):
        local_mst([[1, 1], [1, 0]])
    with pytest.raises(InvalidMatrixError):
        local_mst([[0, -1], [-1, 0]])


def test_local_mst_against_prim_random():
    rng = random.Random(13)
    for n in (10, 33, 128):
        H = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                H[i][j] = H[j][i] = rng.randrange(0, 50)
        t = local_mst(H)
        assert t.cost() == mst_cost_prim(H)


def test_exact_mst_cost_matches_prim_oracle():
    for n, seed in ((2, 0), (9, 1), (33, 2), (64, 3)):
        for M in (
            gen_uniform(n, 0.5, seed),
            gen_clustered(GenSpec(n=n, clusters=min(4, n), spread=min(5, n), seed=seed)),
        ):
            assert exact_mst_cost(M) == mst_cost_prim(dist_matrix(M.bits))


def test_local_mst_against_exhaustive_small():
    rng = random.Random(5)
    for n in (4, 5, 6):
        for _ in range(3):
            H = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    H[i][j] = H[j][i] = rng.randrange(0, 9)
            t = local_mst(H)
            assert t.cost() == mst_cost_exhaustive(H)


def kruskal_reference(H) -> Tree:
    """Kruskal over edges sorted by (weight, u, v), u < v, with a plain
    component-label union; the order is total, so the tree is unique."""
    n = len(H)
    label = list(range(n + 1))
    picked = []
    for w, u, v in sorted(
        (H[u - 1][v - 1], u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
    ):
        if label[u] != label[v]:
            old = label[v]
            label = [label[u] if x == old else x for x in label]
            picked.append(WeightedEdge(u, v, w))
    return Tree(n, tuple(picked))


def tie_heavy_matrix(n, rng):
    H = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            H[i][j] = H[j][i] = rng.randrange(0, 3)
    return H


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 256])
def test_local_mst_equals_kruskal_reference(n):
    """Same edges and weights as Kruskal on (weight, u, v), on tie-heavy
    weights in {0, 1, 2} and on Hamming distances of clustered points."""
    rng = random.Random(100 + n)
    for _ in range(3):
        H = tie_heavy_matrix(n, rng)
        assert local_mst(H).edges == kruskal_reference(H).edges
        base = rng.getrandbits(24)
        sparse = [rng.getrandbits(24) & rng.getrandbits(24) & rng.getrandbits(24) for _ in range(n)]
        H = dist_matrix(rows_of([base ^ s for s in sparse], 24))
        assert local_mst(H).edges == kruskal_reference(H).edges


def test_local_mst_orders_weights_too_large_for_one_key():
    """Weights near 2**62 cannot share an int64 key with the edge rank; the
    tree is still Kruskal's, with the weights as given."""
    rng = random.Random(7)
    n = 40
    H = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            H[i][j] = H[j][i] = (1 << 62) - rng.randrange(0, 4)
    assert local_mst(H).edges == kruskal_reference(H).edges


@pytest.mark.parametrize("n", [2, 5, 33, 128])
def test_local_mst_equals_kruskal_reference_on_scale_weights(n):
    """Same tree as Kruskal on weights drawn from scales_for(n), the only
    values the all-pairs estimate writes off the diagonal: few distinct
    weights, so nearly every choice falls to the (u, v) tie-break."""
    rng = np.random.default_rng(n)
    for _ in range(3):
        H = rng.choice(np.array(scales_for(n)), size=(n, n))
        H = np.triu(H, 1) + np.triu(H, 1).T
        assert local_mst(H).edges == kruskal_reference(H.tolist()).edges


def test_tree_edge_numbering_and_validation():
    t = Tree(3, (WeightedEdge(3, 2, 1), WeightedEdge(2, 1, 4)))
    # normalized and sorted by (min, max)
    assert (t.edge(1).u, t.edge(1).v) == (1, 2)
    assert (t.edge(2).u, t.edge(2).v) == (2, 3)
    with pytest.raises(ValueError):
        Tree(3, (WeightedEdge(1, 2, 0),))
    with pytest.raises(ValueError):
        Tree(3, (WeightedEdge(1, 2, 0), WeightedEdge(2, 1, 0)))


def mixed_edges(pairs, weight=0):
    """Edges of the pairs, every other one written (v, u)."""
    return tuple(
        WeightedEdge(*((u, v) if i % 2 else (v, u)), weight) for i, (u, v) in enumerate(pairs)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tree_accepts_exactly_the_spanning_trees(n):
    """Every multiset of n-1 edges over the C(n, 2) pairs (715 at n=5):
    ``Tree`` accepts exactly the spanning trees the union-find reference
    finds, and each accepted tree walks the reference tour."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    accepted = 0
    for chosen in itertools.combinations_with_replacement(pairs, n - 1):
        if not is_spanning_tree(n, chosen):
            with pytest.raises(ValueError, match="cycle"):
                Tree(n, mixed_edges(chosen))
            continue
        t = Tree(n, mixed_edges(chosen))
        accepted += 1
        assert walk_triples(t) == euler_walk(t)
        euler_traversal(t, np.ones(n, dtype=np.int64)).validate(t)
    assert accepted == (n ** (n - 2) if n > 1 else 1)  # Cayley's formula


def random_tree_pairs(n, rng):
    """A uniformly labelled random tree as shuffled (u, v) pairs: each
    vertex but the first of a random order attaches to an earlier one."""
    order = rng.sample(range(1, n + 1), n)
    pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    rng.shuffle(pairs)
    return pairs


@pytest.mark.parametrize("n, seed", [(17, 0), (17, 1), (300, 2), (300, 3)])
def test_tree_walk_matches_reference_on_random_trees(n, seed):
    t = Tree(n, mixed_edges(random_tree_pairs(n, random.Random(seed))))
    assert walk_triples(t) == euler_walk(t)
    assert len(t.walk) == 2 * (n - 1)


def test_tree_walks_a_long_path_without_recursion():
    n = 5000
    t = Tree(n, mixed_edges([(v, v + 1) for v in range(1, n)]))
    assert walk_triples(t) == euler_walk(t)
    assert t.walk[n - 2].tolist() == [n - 1, n, n - 1] and t.walk[-1].tolist() == [2, 1, 1]


def test_tree_equality_ignores_edge_order():
    pairs = random_tree_pairs(40, random.Random(4))
    a = Tree(40, mixed_edges(pairs, weight=3))
    b = Tree(40, mixed_edges(pairs[::-1], weight=3))
    assert a == b and hash(a) == hash(b)
    assert a != Tree(40, mixed_edges(pairs, weight=2))


def test_tree_adjacency_and_walk_are_read_only():
    t = Tree(3, (WeightedEdge(1, 2, 0), WeightedEdge(2, 3, 0)))
    assert t.adjacency == ((), ((2, 1),), ((1, 1), (3, 2)), ((2, 2),))
    with pytest.raises(TypeError):
        t.adjacency[1] = ()
    with pytest.raises(TypeError):
        t.adjacency[2][0] = (3, 2)
    with pytest.raises(ValueError, match="read-only"):
        t.walk[0] = (1, 3, 2)


def test_tree_structure_keeps_the_edges_at_weight_zero_and_shares_the_walk():
    pairs = random_tree_pairs(40, random.Random(9))
    t = Tree(40, mixed_edges(pairs, weight=3))
    s = t.structure()
    assert s == Tree(40, mixed_edges(pairs, weight=0))
    assert [(e.u, e.v) for e in s.edges] == [(e.u, e.v) for e in t.edges]
    assert s.walk is t.walk and s.adjacency is t.adjacency
    assert all(e.weight == 3 for e in t.edges)


# ---------------------------------------------------------------------------
# euler_traversal
# ---------------------------------------------------------------------------

def test_euler_star():
    t = Tree(3, (WeightedEdge(1, 2, 1), WeightedEdge(1, 3, 1)))
    tr = euler_traversal(t, edge_weights(t))
    assert tr.directed_edges.tolist() == [[1, 2], [2, 1], [1, 3], [3, 1]]
    tr.validate(t)


def test_euler_single_edge():
    t = Tree(2, (WeightedEdge(1, 2, 3),))
    tr = euler_traversal(t, edge_weights(t))
    assert tr.directed_edges.tolist() == [[1, 2], [2, 1]]
    assert tr.costs.tolist() == [3, 3]


def test_euler_path():
    t = Tree(3, (WeightedEdge(1, 2, 1), WeightedEdge(2, 3, 1)))
    tr = euler_traversal(t, edge_weights(t))
    assert tr.directed_edges.tolist() == [[1, 2], [2, 3], [3, 2], [2, 1]]


def test_euler_visits_all_and_costs_override():
    rng = random.Random(3)
    n = 17
    H = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            H[i][j] = H[j][i] = rng.randrange(1, 20)
    t = local_mst(H)
    tr = euler_traversal(t, edge_weights(t))
    tr.validate(t)
    seen = {tr.root} | {b for _, b in tr.directed_edges}
    assert seen == set(range(1, n + 1))
    override = np.full(n, 7)
    tr2 = euler_traversal(t, edge_costs=override)
    assert sum(tr2.costs) == 7 * 2 * (n - 1)


@pytest.mark.parametrize("fault, match", [
    ("swap", "named by its index"),
    ("short", "one cost per step"),
])
def test_traversal_validate_rejects_steps_off_their_edges(fault, match):
    """Swapping the edge indices of the first two steps keeps every edge
    crossed once in each direction, yet each of the two steps names the
    other's edge; a tour one cost short is rejected too."""
    t = Tree(4, (WeightedEdge(1, 2, 1), WeightedEdge(2, 3, 2), WeightedEdge(2, 4, 3)))
    tr = euler_traversal(t, edge_weights(t))
    tr.validate(t)
    walk, costs = tr.walk.copy(), tr.costs
    if fault == "swap":
        walk[[0, 1], 2] = walk[[1, 0], 2]
        assert walk[:2].tolist() == [[1, 2, 2], [2, 3, 1]]
    else:
        costs = costs[:-1]
    with pytest.raises(ValueError, match=match):
        Traversal(tr.root, walk, costs).validate(t)


# ---------------------------------------------------------------------------
# boolean_product_naive
# ---------------------------------------------------------------------------

def identity(n):
    return BooleanMatrix(rows_of([1 << i for i in range(n)], n))


def test_product_hand_example():
    A = BooleanMatrix.from_strings(["10", "11"])
    B = BooleanMatrix.from_strings(["01", "10"])
    C = boolean_product_naive(A, B)
    assert C.to_strings() == ["01", "11"]


def test_product_identity_and_zero():
    rng = random.Random(11)
    n = 9
    B = BooleanMatrix(rows_of([rng.getrandbits(n) for _ in range(n)], n))
    assert boolean_product_naive(identity(n), B) == B
    zero = BooleanMatrix(rows_of([0] * n, n))
    assert boolean_product_naive(zero, B) == zero


def test_product_matches_integer_product():
    rng = np.random.default_rng(4)
    for n in (5, 16, 64):
        Aa = rng.integers(0, 2, size=(n, n))
        Bb = rng.integers(0, 2, size=(n, n))
        C = boolean_product_naive(BooleanMatrix(Aa), BooleanMatrix(Bb))
        expect = (Aa @ Bb) >= 1
        assert np.array_equal(C.bits == 1, expect)


def test_product_shape_mismatch():
    with pytest.raises(DimensionError):
        boolean_product_naive(identity(2), identity(3))


# ---------------------------------------------------------------------------
# chunk packing
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.integers(1, 150), st.integers(1, 130), st.data())
def test_chunk_codec_matches_field_codec(count, width, w, data):
    """A vector of fixed-width fields, as the 0/1 row rows_of gives,
    goes on the wire exactly as the reference field codec sends it, for
    fields wider than a chunk and chunks above 64 bits, and comes back."""
    fields = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=count, max_size=count))
    row = rows_of(fields, width).reshape(1, -1)
    payloads, widths = pack_chunks(row, w)
    assert list(zip(payloads.tolist(), widths.tolist())) == pack_fields(fields, width, w)
    if count:  # a row of no bits sends no chunks, so there is nothing to decode
        assert np.array_equal(unpack_chunks(payloads, widths, count * width), row)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(1, 200), st.integers(1, 130), st.data())
def test_chunk_codec_roundtrip(rows, length, w, data):
    """Rows come back unchanged from chunks of 1..w bits, low bits first;
    every row is cut into the same widths.  Both columns are uint64 at
    w <= 64 and Python ints in an object column above."""
    values = data.draw(st.lists(st.integers(0, (1 << length) - 1), min_size=rows, max_size=rows))
    bits = rows_of(values, length)
    payloads, widths = pack_chunks(bits, w)
    assert payloads.dtype == widths.dtype == (np.uint64 if w <= 64 else object)
    assert w <= 64 or all(type(x) is int for x in [*payloads, *widths])
    per = -(-length // w)
    assert len(payloads) == len(widths) == rows * per
    nbits = widths.tolist()
    assert all(1 <= nb <= w for nb in nbits) and nbits == nbits[:per] * rows
    chunks = list(zip(payloads.tolist(), nbits))
    for i, value in enumerate(values):
        assert unpack_fields(chunks[i * per:(i + 1) * per], length, 1) == (value,)
    assert np.array_equal(unpack_chunks(payloads, widths, length), bits)


@pytest.mark.parametrize("length, w, want", [
    (20, 8, [8, 8, 4]), (64, 10, [10] * 6 + [4]), (64, 64, [64]), (64, 100, [64]),
    (130, 65, [65, 65]), (1, 1, [1]), (0, 8, []),
])
def test_chunk_widths_cut_one_row_low_bits_first(length, w, want):
    """Full chunks of w bits, then the remainder; the widths sum to the
    row's length and each is in 1..w."""
    widths = chunk_widths(length, w)
    assert widths.dtype == np.int64 and widths.tolist() == want


def test_chunk_codec_rejects_wrong_bit_count():
    """A chunk list that lost its last chunk, carries one too many, or has
    a width out of the row pattern raises DimensionError (not an assert,
    which ``python -O`` drops)."""
    bits = rows_of([0b0111_11111_00000_00011, 1 << 19], 20)
    payloads, widths = pack_chunks(bits, 8)
    assert widths.tolist() == [8, 8, 4] * 2
    assert np.array_equal(unpack_chunks(payloads, widths, 20), bits)
    bad = [
        (payloads[:-1], widths[:-1]),
        (np.append(payloads, 0), np.append(widths, 1)),
        (payloads, [8, 8, 4, 8, 4, 8]),
    ]
    for p, nb in bad:
        with pytest.raises(DimensionError):
            unpack_chunks(p, nb, 20)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65])
def test_pack_rows_and_transpose_match_per_bit_reference(n):
    rng = np.random.default_rng(n)
    bits = rng.random((n, n)) < 0.5
    bits[0] = True  # the top bit of a full row
    M = BooleanMatrix(rows_of(pack_rows_per_bit(bits), n))
    T = M.transpose()
    assert T == transpose_per_bit(M)
    assert T.transpose() == M
