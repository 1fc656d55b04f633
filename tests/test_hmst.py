"""Unit tests for the sketch-based approximate MST protocol."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from cliquemat.bits import Tree, hamming_distance, local_mst, pack_chunks
from cliquemat.engine import CliqueConfig
from cliquemat.errors import DimensionError, MalformedSketchError
from cliquemat.hmst import (
    ProjectionConfig,
    ProjectionFamily,
    build_estimated_graph,
    delta_for_scale,
    distribute_projections,
    family_from_vectors,
    hmst_protocol,
    run_hmst,
    scale_thresholds,
    scales_for,
    sketch_bits,
    sketch_point,
)
from field_codec import unpack_fields
from rows import row01, row_of, rows_of, value_of, values_of
from sketch_reference import estimate_distance


def exact_mst_cost(points):
    """Independent Prim oracle on true Hamming distances."""
    n = len(points)
    in_t = [False] * n
    dist = [float("inf")] * n
    dist[0] = 0
    total = 0
    for _ in range(n):
        u = min((d, i) for i, d in enumerate(dist) if not in_t[i])[1]
        in_t[u] = True
        total += dist[u]
        for v in range(n):
            if not in_t[v]:
                d = hamming_distance(points[u], points[v])
                if d < dist[v]:
                    dist[v] = d
    return int(total)


def clustered_points(n, clusters, spread, seed):
    rng = np.random.default_rng(seed)
    centers = [int(rng.integers(0, 1 << n, dtype=np.uint64)) if n <= 63 else 0 for _ in range(clusters)]
    if n > 63:
        centers = []
        for _ in range(clusters):
            value = 0
            for chunk in range((n + 62) // 63):
                value |= int(rng.integers(0, 1 << min(63, n - chunk * 63))) << (chunk * 63)
            centers.append(value)
    pts = []
    for _ in range(n):
        v = centers[int(rng.integers(clusters))]
        nf = int(rng.integers(0, spread + 1))
        coords = rng.choice(n, size=nf, replace=False) + 1
        for f in coords:
            v ^= 1 << (int(f) - 1)
        pts.append(row_of(v, n))
    return pts


# ---------------------------------------------------------------------------
# scales, deltas, thresholds
# ---------------------------------------------------------------------------

def test_scales():
    assert scales_for(2) == (1, 2)
    assert scales_for(64) == (1, 2, 4, 8, 16, 32, 64)
    assert scales_for(100) == (1, 2, 4, 8, 16, 32, 64, 128)


def test_delta():
    assert delta_for_scale(1) == 0.5
    assert delta_for_scale(4) == 0.125
    assert delta_for_scale(1000) == 1 / 2000


def test_thresholds_shape():
    taus = scale_thresholds(256, 64)
    assert taus[1] == 0
    assert all(0 <= t <= 32 for t in taus.values())
    # scales with a live rejection duty sit below the later accept-biased ones
    assert taus[64] < taus[128]


# ---------------------------------------------------------------------------
# the projection family / the GF(2) sketch kernel
# ---------------------------------------------------------------------------

def same_family(a, b) -> bool:
    """Field-wise equality of two families, their bits compared as arrays."""
    fields = [(f.n, f.k, f.scales, f.thresholds) for f in (a, b)]
    return fields[0] == fields[1] and np.array_equal(a.bits, b.bits)


@pytest.mark.parametrize("n", [7, 9, 65])
@pytest.mark.parametrize("k, seed", [(5, 0), (13, 1), (70, 2)])
def test_generate_draws_one_block_per_scale_in_scale_order(n, k, seed):
    """The family array stacks the k x n blocks that one generator draws
    scale after scale: the reference draws each scale's matrix on its own
    and keeps it as one packed n-bit integer per row."""
    rng = np.random.default_rng(seed)
    want = [values_of(rng.random((k, n)) < delta_for_scale(r)) for r in scales_for(n)]
    fam = ProjectionFamily.generate(n, k, np.random.default_rng(seed))
    assert fam.bits.dtype == np.uint8 and fam.bits.shape == (len(fam.scales) * k, n)
    assert [values_of(fam.bits[s * k:(s + 1) * k]) for s in range(len(fam.scales))] == want


def test_generate_deterministic():
    a = ProjectionFamily.generate(32, 16, np.random.default_rng(9))
    b = ProjectionFamily.generate(32, 16, np.random.default_rng(9))
    assert same_family(a, b)
    assert same_family(a, ProjectionFamily.from_seed(32, 16, 9))


def test_generate_density():
    n, k = 64, 256
    r = scales_for(n)[-1]  # top scale, r >= n
    block = ProjectionFamily.generate(n, k, np.random.default_rng(3)).bits[-k:]
    ones = int(block.sum())
    total = k * n
    delta = delta_for_scale(r)
    sigma = math.sqrt(delta * (1 - delta) / total)
    assert abs(ones / total - delta) <= 3 * sigma


def project(matrix, x) -> int:
    """Per-row parity reference: output bit j is the parity of row j of the
    0/1 ``matrix`` AND the 0/1 point x."""
    value = 0
    for j, row in enumerate(matrix):
        value |= ((value_of(row) & value_of(x)).bit_count() & 1) << j
    return value


def one_scale_family(matrix, n):
    """A family holding the 0/1 ``matrix`` as its only (scale-1) matrix."""
    return ProjectionFamily(n, len(matrix), (1,), np.array(matrix, dtype=np.uint8), {1: 0})


def kernel(matrix, x) -> int:
    """The GF(2) sketch kernel applied to one matrix and one point, its
    sketch bits packed."""
    (row,) = sketch_point(one_scale_family(matrix, len(x)), x)
    return value_of(row)


def sketch_ints(fam, x) -> tuple[int, ...]:
    """sketch_point's rows as one packed k-bit integer per scale."""
    return tuple(value_of(row) for row in sketch_point(fam, x))


def test_project_identity_and_zero():
    n = 8
    matrix = np.eye(n, dtype=np.uint8)
    x = row01("10110010")
    assert kernel(matrix, x) == value_of(x)
    assert kernel(matrix, row_of(0, n)) == 0


def test_project_linearity():
    rng = np.random.default_rng(5)
    n, k = 24, 12
    A = (rng.random((k, n)) < delta_for_scale(2)).astype(np.uint8)
    for _ in range(20):
        xv = int(rng.integers(0, 1 << n))
        yv = int(rng.integers(0, 1 << n))
        left = kernel(A, row_of(xv ^ yv, n))
        right = kernel(A, row_of(xv, n)) ^ kernel(A, row_of(yv, n))
        assert left == right
        direct = (A @ np.array([(xv ^ yv) >> c & 1 for c in range(n)])) % 2
        assert row_of(left, k).tolist() == list(direct)


@pytest.mark.parametrize("n", [2, 7, 9, 64, 65])
@pytest.mark.parametrize("k", [5, 13, 70])
def test_sketch_kernel_matches_per_row_parity(n, k):
    """One GF(2) product over all points equals the per-row parity loop at
    every scale, for point lengths and sketch widths that fill no whole
    byte or 64-bit word."""
    rng = random.Random(n * 1000 + k)
    fam = ProjectionFamily.generate(n, k, np.random.default_rng(n + k))
    points = [row_of(rng.getrandbits(n), n) for _ in range(n + 3)]
    points[0] = row_of((1 << n) - 1, n)
    bits = sketch_bits(fam, points)
    assert bits.shape == (len(points), len(fam.scales) * k)
    matrices = [fam.bits[idx * k:(idx + 1) * k] for idx in range(len(fam.scales))]
    for x, row in zip(points, bits):
        for idx, matrix in enumerate(matrices):
            want = row_of(project(matrix, x), k).tolist()
            assert row[idx * k:(idx + 1) * k].tolist() == want
        assert sketch_ints(fam, x) == tuple(project(matrix, x) for matrix in matrices)


def test_sketch_kernel_rejects_wrong_dimension():
    fam = family_for(8)
    with pytest.raises(DimensionError):
        sketch_bits(fam, [row_of(0, 8), row_of(0, 9)])


# ---------------------------------------------------------------------------
# estimate_distance
# ---------------------------------------------------------------------------

def family_for(n, kappa=8.0, seed=0):
    k = ProjectionConfig(kappa=kappa).k_for(n)
    return ProjectionFamily.generate(n, k, np.random.default_rng(seed))


def test_estimate_equal_points_is_one():
    n = 32
    fam = family_for(n)
    x = row_of(0x12345678, n)
    sk = sketch_ints(fam, x)
    assert estimate_distance(sk, sk, fam) == 1


def test_estimate_fallback_on_adversarial_sketches():
    n = 256
    fam = family_for(n)
    all_zero = tuple(0 for _ in fam.scales)
    all_one = tuple((1 << fam.k) - 1 for _ in fam.scales)
    assert estimate_distance(all_zero, all_one, fam) == 256


def test_estimate_missing_scale_rejected():
    n = 16
    fam = family_for(n)
    sk = sketch_ints(fam, row_of(0, n))
    with pytest.raises(MalformedSketchError):
        estimate_distance(sk[:-1], sk, fam)


def test_estimate_monotone_scale_rule():
    """If some scale passes the test, the estimate is at most that scale."""
    n = 64
    fam = family_for(n)
    rng = random.Random(0)
    for _ in range(50):
        x = row_of(rng.getrandbits(n), n)
        y = row_of(rng.getrandbits(n), n)
        si, sj = sketch_ints(fam, x), sketch_ints(fam, y)
        w = estimate_distance(si, sj, fam)
        for idx, r in enumerate(fam.scales):
            if (si[idx] ^ sj[idx]).bit_count() <= fam.thresholds[r]:
                assert w <= r
                break


def near_sketch_sets(fam, count, rng):
    """Sketch sets that sit a few flips apart per scale, so many pairs pass
    an early scale, mixed with independent random ones."""
    base = [rng.getrandbits(fam.k) for _ in fam.scales]
    sets = []
    for i in range(count):
        if i % 4 == 3:
            sets.append(tuple(rng.getrandbits(fam.k) for _ in fam.scales))
            continue
        sk = []
        for b in base:
            for _ in range(rng.randrange(0, 6)):
                b ^= 1 << rng.randrange(fam.k)
            sk.append(b)
        sets.append(tuple(sk))
    return sets


def sketch_array(sets, fam):
    """Per-scale sketch integers as the (count, scales * k) bit array that
    sketch_bits returns."""
    return rows_of([s for sk in sets for s in sk], fam.k).reshape(len(sets), -1)


def sketch_sets(bits, fam):
    """Rows of a sketch_bits array as per-scale sketch integers."""
    return [tuple(values_of(row.reshape(len(fam.scales), fam.k))) for row in bits]


@pytest.mark.parametrize("n, k", [(32, 40), (24, 64), (24, 65), (24, 72), (40, 130)])
def test_build_estimated_graph_matches_pairwise_estimate(n, k):
    """The all-pairs estimate equals estimate_distance on every pair, for
    sketch widths within one and beyond one 64-bit word."""
    fam = ProjectionFamily.generate(n, k, np.random.default_rng(n + k))
    rng = random.Random(k)
    sets = near_sketch_sets(fam, n, rng)
    g = build_estimated_graph(sketch_array(sets, fam), fam)
    assert g.shape == (n, n) and g.dtype == np.int64 and not g.flags.writeable
    for i in range(n):
        assert g[i, i] == 0
        for j in range(n):
            if i != j:
                assert g[i, j] == estimate_distance(sets[i], sets[j], fam)


def test_build_estimated_graph_of_real_sketches():
    n = 48
    fam = family_for(n, seed=4)
    pts = clustered_points(n, 3, 3, 6)
    sets = [sketch_ints(fam, p) for p in pts]
    bits = sketch_bits(fam, pts)
    assert sketch_sets(bits, fam) == sets
    g = build_estimated_graph(bits, fam)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert g[i, j] == estimate_distance(sets[i], sets[j], fam)


@pytest.mark.parametrize("k", [40, 65, 130])
def test_build_estimated_graph_in_row_blocks(k, monkeypatch):
    """Blocks of 5 rows, the last one short, give the estimate of one
    whole-array block, pair by pair estimate_distance's."""
    from cliquemat import hmst

    n = 23
    fam = ProjectionFamily.generate(n, k, np.random.default_rng(k))
    sets = near_sketch_sets(fam, n, random.Random(n + k))
    sketches = sketch_array(sets, fam)
    whole = build_estimated_graph(sketches, fam)
    monkeypatch.setattr(hmst, "_BLOCK_BYTES", 5 * 8 * n * ((k + 63) // 64))
    g = build_estimated_graph(sketches, fam)
    assert np.array_equal(g, whole)
    for i in range(n):
        for j in range(n):
            assert g[i, j] == (estimate_distance(sets[i], sets[j], fam) if i != j else 0)


def crafted_pair(fam, flips, rng):
    """Two sketch rows whose sketch distance at scale index s is
    ``flips[s]``, the flipped bits spread over every word of a scale."""
    base = rng.integers(0, 2, (len(fam.scales), fam.k), dtype=np.uint8)
    other = base.copy()
    for s, count in enumerate(flips):
        other[s, rng.choice(fam.k, size=count, replace=False)] ^= 1
    return np.stack([base.ravel(), other.ravel()])


@pytest.mark.parametrize("k", [64, 130])
@pytest.mark.parametrize("n", [2, 64])
def test_build_estimated_graph_at_scale_edges(n, k):
    """Pairs that pass scale s + 1 but not s, pass s but not s + 1, pass
    every scale, or pass none, in one and in three 64-bit words per scale;
    each is estimated as estimate_distance does, alone as an n = 2 array
    and among all the crafted rows."""
    fam = ProjectionFamily.generate(n, k, np.random.default_rng(k))
    cut = [fam.thresholds[r] for r in fam.scales]
    fail = [c + 1 for c in cut]
    s = max(0, len(cut) - 3)
    cases = [
        (fam.scales[s + 1], fail[:s + 1] + [0] * (len(cut) - s - 1)),
        (fam.scales[s], fail[:s] + [0] + fail[s + 1:]),
        (fam.scales[0], [0] * len(cut)),
        (fam.scales[-1], fail),
    ]
    rng = np.random.default_rng(n + k)
    rows = []
    for expected, flips in cases:
        pair = crafted_pair(fam, flips, rng)
        assert build_estimated_graph(pair, fam).tolist() == [[0, expected], [expected, 0]]
        rows.extend(pair)
    sets = sketch_sets(np.array(rows), fam)
    g = build_estimated_graph(np.array(rows), fam)
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert g[i, j] == (estimate_distance(sets[i], sets[j], fam) if i != j else 0)


@pytest.mark.parametrize("k", [64, 130])
def test_build_estimated_graph_of_one_point(k):
    """One point, one scale: the estimate is the 1 x 1 zero array and its
    tree has no edges."""
    fam = ProjectionFamily.generate(1, k, np.random.default_rng(k))
    assert fam.scales == (1,)
    g = build_estimated_graph(np.ones((1, k), dtype=np.uint8), fam)
    assert g.tolist() == [[0]] and g.dtype == np.int64 and not g.flags.writeable
    assert local_mst(g) == Tree(1, ())


def traced_peak(fn, *args) -> int:
    """Bytes at the tracemalloc peak of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_node1_kernels_keep_their_scratch_small():
    """At n = 256 the all-pairs estimate, its (n, n) result included,
    peaks below the 1,968 KiB of the (rows, n, scales + 1) kernel it
    replaced, and
    Prim on that graph keeps O(n) scratch, at most 256 KiB."""
    n = 256
    fam = family_for(n)
    rng = np.random.default_rng(2)
    base = rng.integers(0, 2, n, dtype=np.uint8)
    points = [base ^ (rng.random(n) < (0.02 if i % 3 else 0.5)) for i in range(n)]
    sketches = sketch_bits(fam, points).astype(np.uint8)
    assert traced_peak(build_estimated_graph, sketches, fam) < 1968 * 1024
    graph = build_estimated_graph(sketches, fam)
    assert len(np.unique(graph)) > 3
    assert traced_peak(local_mst, graph) <= 256 * 1024


def test_build_estimated_graph_rejects_missing_scale():
    """A sketch array that is not (points, scales * k) raises, whether a
    scale or a bit is missing or extra, or the points are not rows."""
    n = 16
    fam = family_for(n)
    rng = random.Random(3)
    bits = sketch_bits(fam, [row_of(rng.getrandbits(n), n) for _ in range(n)])
    bad = [
        bits[:, :-fam.k],
        bits[:, :-1],
        np.hstack([bits, bits[:, :1]]),
        bits.ravel(),
        bits.reshape(n, len(fam.scales), fam.k),
    ]
    for sketches in bad:
        with pytest.raises(MalformedSketchError):
            build_estimated_graph(sketches, fam)


def test_estimated_graph_symmetric():
    n = 16
    fam = family_for(n)
    rng = random.Random(1)
    pts = [row_of(rng.getrandbits(n), n) for _ in range(n)]
    g = build_estimated_graph(sketch_bits(fam, pts), fam)
    for i in range(n):
        for j in range(n):
            assert g[i, j] == g[j, i]
            if i != j:
                assert g[i, j] in scales_for(n)


# ---------------------------------------------------------------------------
# the protocol end to end
# ---------------------------------------------------------------------------

def test_hmst_identical_points():
    n = 16
    pts = [row_of(0xBEEF, n) for _ in range(n)]
    tree, ledger = hmst_protocol(pts, CliqueConfig(n=n, routing="accounted", seed=1))
    true_cost = sum(
        hamming_distance(pts[e.u - 1], pts[e.v - 1]) for e in tree.edges
    )
    assert true_cost == 0
    assert tree.cost() == n - 1  # every estimate is the smallest scale


def test_hmst_tree_always_spans():
    for seed in range(3):
        n = 32
        rng = random.Random(seed)
        pts = [row_of(rng.getrandbits(n), n) for _ in range(n)]
        tree, _ = hmst_protocol(pts, CliqueConfig(n=n, routing="accounted", seed=seed))
        assert tree.n == n and len(tree.edges) == n - 1  # Tree() validates shape


def test_hmst_approximation_smoke():
    n = 64
    ok = 0
    for seed in range(10):
        pts = clustered_points(n, 3, 2, seed)
        tree, _ = hmst_protocol(pts, CliqueConfig(n=n, routing="accounted", seed=seed))
        cost = sum(hamming_distance(pts[e.u - 1], pts[e.v - 1]) for e in tree.edges)
        if cost <= 3 * exact_mst_cost(pts) + 3 * n - 3:
            ok += 1
    assert ok >= 9


def test_hmst_simulated_matches_accounted_tree():
    n = 8
    rng = random.Random(7)
    pts = [row_of(rng.getrandbits(n), n) for _ in range(n)]
    t_sim, led_sim = hmst_protocol(pts, CliqueConfig(n=n, seed=3))
    t_acc, led_acc = hmst_protocol(pts, CliqueConfig(n=n, routing="accounted", seed=3))
    assert t_sim.edges == t_acc.edges
    assert led_sim.rounds > 0 and led_acc.rounds > 0


def test_hmst_deterministic():
    n = 16
    rng = random.Random(2)
    pts = [row_of(rng.getrandbits(n), n) for _ in range(n)]
    runs = [hmst_protocol(pts, CliqueConfig(n=n, seed=5)) for _ in range(2)]
    assert runs[0][0].edges == runs[1][0].edges
    assert runs[0][1].as_dict() == runs[1][1].as_dict()


def test_hmst_seed_mode_cheaper():
    n = 16
    rng = random.Random(4)
    pts = [row_of(rng.getrandbits(n), n) for _ in range(n)]
    cfg = CliqueConfig(n=n, routing="accounted", seed=6)
    _, led_full = hmst_protocol(pts, cfg)
    tree, led_seed = hmst_protocol(pts, cfg, ProjectionConfig(seed_mode=True))
    assert led_seed.rounds < led_full.rounds
    assert len(tree.edges) == n - 1


def test_hmst_step_subtotals_cover_rounds():
    n = 16
    rng = random.Random(8)
    pts = [row_of(rng.getrandbits(n), n) for _ in range(n)]
    _, led = hmst_protocol(pts, CliqueConfig(n=n, seed=9))
    steps = {k: v for k, v in led.step_rounds.items() if k.startswith("hmst_")}
    assert set(steps) == {"hmst_step1", "hmst_step2", "hmst_step3"}
    assert sum(steps.values()) == led.rounds
    assert steps["hmst_step3"] == 0  # purely local


def test_hmst_input_validation():
    pts = [row_of(0, 4)] * 3
    with pytest.raises(DimensionError):
        hmst_protocol(pts, CliqueConfig(n=4))
    with pytest.raises(DimensionError):
        hmst_protocol([row_of(0, 3)] * 4, CliqueConfig(n=4))


# ---------------------------------------------------------------------------
# the replicated projection family
# ---------------------------------------------------------------------------

def hmst_steps(engine, proj):
    """hmst on ``engine``: step 1 hands out the family, then
    :func:`run_hmst` builds the tree over the points on it."""
    distribute_projections(engine, proj)
    return run_hmst(engine, proj)


def engine_with_points(n, routing, seed):
    """Audited engine whose node i stores a random point under "point"."""
    from cliquemat.engine import CliqueEngine

    rng = random.Random(seed)
    pts = [row_of(rng.getrandbits(n), n) for _ in range(n)]
    engine = CliqueEngine(CliqueConfig(n=n, routing=routing, seed=seed), audit=True)

    def seed_points(node):
        node.storage["point"] = pts[node.id - 1]

    engine.local(seed_points)
    return engine


def record_broadcast_seed(monkeypatch):
    """Spy on ProjectionFamily.from_seed; the returned list collects the
    seed of each call, which in seed mode is the seed node 1 broadcast."""
    seeds = []
    from_seed = ProjectionFamily.from_seed.__func__

    def recording(cls, n, k, seed):
        seeds.append(seed)
        return from_seed(cls, n, k, seed)

    monkeypatch.setattr(ProjectionFamily, "from_seed", classmethod(recording))
    return seeds


def record_multicast(monkeypatch):
    """Wrap the projection multicast; the returned dict collects, per
    recipient, every chunk of the vectors the multicast hands back for it,
    in order."""
    from cliquemat import hmst

    received: dict[int, list[tuple[int, int]]] = {}
    multicast = hmst.vector_multicast

    def recording(engine, senders):
        sent, rounds = multicast(engine, senders)
        for vec, recips in sent.values():
            for v in recips:
                received.setdefault(v, []).extend(map(tuple, vec.tolist()))
        return sent, rounds

    monkeypatch.setattr(hmst, "vector_multicast", recording)
    return received


def alter_stored(monkeypatch, key, node, alter):
    """Wrap ``CliqueEngine.put`` so that node ``node`` stores
    ``alter(value)`` instead of the value put under ``key``; the returned
    list collects each altered value."""
    from cliquemat.engine import CliqueEngine

    altered = []
    put = CliqueEngine.put

    def altering(self, k, values):
        if k == key and node in values:
            values = {**values, node: alter(values[node])}
            altered.append(values[node])
        put(self, k, values)

    monkeypatch.setattr(CliqueEngine, "put", altering)
    return altered


def flip_first_chunk(vectors):
    """The projection vectors with the low bit of the first chunk flipped,
    in a vector object of its own."""
    first = vectors[0].copy()
    first[0, 0] ^= 1
    return [first, *vectors[1:]]


def family_from_chunks(chunks, n, k):
    """Fresh ship-mode derivation: split a node's received chunks into
    k*n-bit scales in order and decode each into its k rows with the
    reference field codec."""
    rows = []
    pos = 0
    for _ in scales_for(n):
        start, bits = pos, 0
        while bits < k * n:
            bits += chunks[pos][1]
            pos += 1
        rows += unpack_fields(chunks[start:pos], n, k)
    assert pos == len(chunks)
    return ProjectionFamily(n, k, scales_for(n), rows_of(rows, n), scale_thresholds(n, k))


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
@pytest.mark.parametrize("w", [64, 256])
def test_lost_sketch_chunk_raises(routing, w, monkeypatch):
    """Node 1 checks that every node's sketch set arrived whole: one chunk
    lost on its way there raises, also when a set is a single chunk and
    the rest would still decode into whole rows."""
    from cliquemat import hmst
    from cliquemat.engine import CliqueEngine
    from cliquemat.routing import Batch

    n, lossy = 12, 5
    rng = random.Random(8)
    engine = CliqueEngine(CliqueConfig(n=n, w=w, routing=routing, seed=8))
    engine.put("point", {i: row_of(rng.getrandbits(n), n) for i in engine.node_ids()})
    route = hmst.bounded_route

    def dropping(engine, batch):
        delivered, rounds = route(engine, batch)
        keep = np.ones(len(delivered), dtype=bool)
        keep[np.flatnonzero(delivered.src == lossy)[-1]] = False
        cols = (delivered.src, delivered.dst, delivered.nbits, delivered.payload)
        return Batch(*(col[keep] for col in cols)), rounds

    monkeypatch.setattr(hmst, "bounded_route", dropping)
    with pytest.raises(MalformedSketchError, match=f"node {lossy} "):
        hmst_steps(engine, ProjectionConfig())


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_node1_receives_its_sketch_rows_through_put(routing, monkeypatch):
    """Step 2 hands node 1 its rows of the delivered sketch batch through
    ``put``, under the isolation audit, as the (source, payload, nbits)
    columns of its slice; step 3 takes them out of its storage."""
    from cliquemat import hmst

    n = 12
    engine = engine_with_points(n, routing, 4)
    routed, handed = [], []
    route, put = hmst.bounded_route, engine.put

    def spy(engine, batch):
        routed.append(route(engine, batch)[0])
        return routed[-1], None

    def recording_put(key, values):
        if key == ("sketch_chunks", "point"):
            handed.append(dict(values))
        put(key, values)

    monkeypatch.setattr(hmst, "bounded_route", spy)
    monkeypatch.setattr(engine, "put", recording_put)
    hmst_steps(engine, ProjectionConfig())
    (delivered,), (values,) = routed, handed
    assert list(values) == [1]
    mine = delivered.dst == 1
    for got, col in zip(values[1], (delivered.src, delivered.payload, delivered.nbits)):
        assert got.dtype == col.dtype and np.array_equal(got, col[mine])
    assert ("sketch_chunks", "point") not in engine.node(1).storage


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_seed_mode_family_matches_fresh_derivation_at_every_node(routing, monkeypatch):
    n = 12
    k = ProjectionConfig().k_for(n)
    engine = engine_with_points(n, routing, 3)
    seeds = record_broadcast_seed(monkeypatch)
    hmst_steps(engine, ProjectionConfig(seed_mode=True))
    (seed,) = seeds
    assert 0 <= seed < 1 << 63
    fresh = ProjectionFamily.from_seed(n, k, seed)
    for i in engine.node_ids():
        assert same_family(engine.node(i).storage["family"], fresh)


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_seed_mode_node_with_altered_seed_derives_its_own_family(routing, monkeypatch):
    """Every node regenerates its family from the seed stored at it: a node
    whose stored seed is altered on its way into its storage derives the
    altered seed's family, and every other node shares node 1's."""
    n, other = 12, 5
    k = ProjectionConfig().k_for(n)
    engine = engine_with_points(n, routing, 3)
    seeds = record_broadcast_seed(monkeypatch)
    stored = alter_stored(monkeypatch, "projection_seed", other, lambda seed: seed ^ 1)
    hmst_steps(engine, ProjectionConfig(seed_mode=True))
    (altered,), (seed, own_seed) = stored, seeds
    assert own_seed == altered == seed ^ 1
    shared = engine.node(1).storage["family"]
    assert same_family(shared, ProjectionFamily.from_seed(n, k, seed))
    own = engine.node(other).storage["family"]
    assert same_family(own, ProjectionFamily.from_seed(n, k, altered))
    assert not same_family(own, shared)
    for v in engine.node_ids():
        if v != other:
            assert engine.node(v).storage["family"] is shared


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
@pytest.mark.parametrize("w", [10, 64, 100])
def test_seed_broadcast_sends_the_64_bit_seed_in_w_bit_chunks(routing, w, monkeypatch):
    """Seed-mode step 1 sends ceil(64/W) chunks, one round each, from node
    1 to every other node: ceil(64/W) rounds, (n-1) ceil(64/W) messages and
    (n-1) 64 bits, the ledger as step 2's routing finds it."""
    from cliquemat import hmst
    from cliquemat.engine import CliqueEngine

    n = 12
    rng = random.Random(w)
    engine = CliqueEngine(CliqueConfig(n=n, w=w, routing=routing, seed=3))
    engine.put("point", {i: row_of(rng.getrandbits(n), n) for i in engine.node_ids()})
    route = hmst.bounded_route
    at_step2 = []

    def snapshot(engine, batch):
        at_step2.append((engine.ledger.messages, engine.ledger.bits))
        return route(engine, batch)

    monkeypatch.setattr(hmst, "bounded_route", snapshot)
    hmst_steps(engine, ProjectionConfig(seed_mode=True))
    chunks = math.ceil(64 / w)
    assert engine.ledger.primitive_rounds["seed_bcast"] == chunks
    assert engine.ledger.step_rounds["hmst_step1"] == chunks
    assert at_step2 == [((n - 1) * chunks, (n - 1) * 64)]


def test_seed_mode_derives_family_once_per_run(monkeypatch):
    """Every node holds the same seed, so one from_seed serves all n nodes,
    while each node is still charged for its own regeneration."""
    n = 12
    k = ProjectionConfig().k_for(n)
    engine = engine_with_points(n, "accounted", 5)
    calls = []
    from_seed = ProjectionFamily.from_seed.__func__

    def counting(cls, *args):
        calls.append(args)
        return from_seed(cls, *args)

    monkeypatch.setattr(ProjectionFamily, "from_seed", classmethod(counting))
    hmst_steps(engine, ProjectionConfig(seed_mode=True))
    assert len(calls) == 1
    per_node = len(scales_for(n)) * math.ceil(k * n / engine.w)
    assert all(engine.ledger.work[i] >= per_node for i in engine.node_ids())


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_ship_mode_family_matches_fresh_derivation_at_every_node(routing, monkeypatch):
    n = 12
    k = ProjectionConfig().k_for(n)
    engine = engine_with_points(n, routing, 4)
    received = record_multicast(monkeypatch)
    hmst_steps(engine, ProjectionConfig())
    assert sorted(received) == list(range(2, n + 1))
    node1 = engine.node(1).storage["family"]
    for v, chunks in received.items():
        fam = engine.node(v).storage["family"]
        assert same_family(fam, family_from_chunks(chunks, n, k))
        assert same_family(fam, node1)


def test_ship_mode_node_with_altered_chunks_derives_its_own_family(monkeypatch):
    """Every node rebuilds its family from the vectors stored at it: a node
    whose stored vectors are altered on their way into its storage derives
    its own family from them, and every other node shares node 1's."""
    from cliquemat import hmst

    n, other = 12, 5
    k = ProjectionConfig().k_for(n)
    engine = engine_with_points(n, "accounted", 6)
    received = record_multicast(monkeypatch)
    stored = alter_stored(monkeypatch, "projection_vectors", other, flip_first_chunk)
    decodes = []
    decode = hmst.family_from_vectors

    def counting_decode(*args):
        decodes.append(args)
        return decode(*args)

    monkeypatch.setattr(hmst, "family_from_vectors", counting_decode)
    hmst_steps(engine, ProjectionConfig())
    node1 = engine.node(1).storage["family"]
    own = engine.node(other).storage["family"]
    (vectors,) = stored
    altered = [tuple(chunk) for vec in vectors for chunk in vec.tolist()]
    assert altered != received[other]
    assert same_family(own, family_from_chunks(altered, n, k))
    assert not same_family(own, node1)
    for v in range(2, n + 1):
        if v != other:
            assert same_family(engine.node(v).storage["family"], node1)
    # one derivation from the shared vectors and one from the altered ones
    assert len(decodes) == 2


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_node1_decodes_each_sketch_set_as_its_sender_row(routing, monkeypatch):
    """Step 2 sketches the nodes of each family object together, so with
    one node holding altered projection chunks the sketch batch is out of
    sender order: node 1's family alone, the shared one, then the altered
    node's.  Node 1 sorts what it receives by sender, so row v of the
    sketches it decodes is node v's sketch under node v's own family."""
    from cliquemat import hmst

    n, other = 12, 5
    engine = engine_with_points(n, routing, 6)
    alter_stored(monkeypatch, "projection_vectors", other, flip_first_chunk)
    routed, decoded = [], []
    route, build = hmst.bounded_route, hmst.build_estimated_graph

    def spy(engine, batch):
        routed.append(batch.src.tolist())
        return route(engine, batch)

    def recording_build(bits, fam):
        decoded.append(bits)
        return build(bits, fam)

    monkeypatch.setattr(hmst, "bounded_route", spy)
    monkeypatch.setattr(hmst, "build_estimated_graph", recording_build)
    hmst_steps(engine, ProjectionConfig())
    (senders,), (bits,) = routed, decoded
    assert senders != sorted(senders)
    for v in engine.node_ids():
        st = engine.node(v).storage
        assert bits[v - 1].tolist() == sketch_bits(st["family"], [st["point"]])[0].tolist()


def test_family_bits_are_read_only():
    """Nodes share one family object, so no holder can write its bits:
    not after generate, from_seed, or the ship-mode rebuild."""
    n = 12
    engine = engine_with_points(n, "accounted", 7)
    hmst_steps(engine, ProjectionConfig())
    families = [
        ProjectionFamily.generate(n, 9, np.random.default_rng(1)),
        ProjectionFamily.from_seed(n, 9, 1),
        engine.node(1).storage["family"],
        engine.node(2).storage["family"],
    ]
    assert families[2] is not families[3]  # node 2 holds the rebuilt family
    for fam in families:
        assert not fam.bits.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fam.bits[0, 0] ^= 1


def test_family_from_vectors_missing_last_scale_raises():
    """The rebuild decodes the vectors it got in scale order; one scale's
    vector short raises instead of leaving a family with fewer scales."""
    n, k, w = 12, 9, 64
    fam = ProjectionFamily.generate(n, k, np.random.default_rng(2))
    scales = len(fam.scales)
    chunks = list(zip(*pack_chunks(fam.bits.reshape(scales, k * n), w)))
    per = len(chunks) // scales
    vectors = [tuple(chunks[lo:lo + per]) for lo in range(0, len(chunks), per)]
    assert same_family(family_from_vectors(n, k, *vectors), fam)
    with pytest.raises(MalformedSketchError, match=f"carry {scales - 1} of {scales} scales"):
        family_from_vectors(n, k, *vectors[:-1])
