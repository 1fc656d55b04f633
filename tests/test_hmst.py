"""Unit tests for the sketch-based approximate MST protocol."""

import math
import random

import numpy as np
import pytest

from cliquemat.bits import BitVector, hamming_distance, pack_chunks, unpack_chunks
from cliquemat.engine import CliqueConfig
from cliquemat.errors import DimensionError, MalformedSketchError
from cliquemat.hmst import (
    ProjectionConfig,
    ProjectionFamily,
    build_estimated_graph,
    delta_for_scale,
    estimate_distance,
    gen_projection,
    hmst_protocol,
    rows_from_chunks,
    run_hmst,
    scale_thresholds,
    scales_for,
    sketch_bits,
    sketch_point,
    sketches_from_chunks,
)


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
    centers = [BitVector(n, int(rng.integers(0, 1 << n, dtype=np.uint64)) if n <= 63 else 0) for _ in range(clusters)]
    if n > 63:
        centers = []
        for _ in range(clusters):
            value = 0
            for chunk in range((n + 62) // 63):
                value |= int(rng.integers(0, 1 << min(63, n - chunk * 63))) << (chunk * 63)
            centers.append(BitVector(n, value))
    pts = []
    for _ in range(n):
        c = centers[int(rng.integers(clusters))]
        nf = int(rng.integers(0, spread + 1))
        coords = rng.choice(n, size=nf, replace=False) + 1
        v = c.value
        for f in coords:
            v ^= 1 << (int(f) - 1)
        pts.append(BitVector(n, v))
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
# gen_projection / the GF(2) sketch kernel
# ---------------------------------------------------------------------------

def test_gen_projection_deterministic():
    a = gen_projection(4, 16, 32, np.random.default_rng(9))
    b = gen_projection(4, 16, 32, np.random.default_rng(9))
    assert a == b


def test_gen_projection_density():
    n, k = 64, 256
    r = scales_for(n)[-1]  # top scale, r >= n
    rows = gen_projection(r, k, n, np.random.default_rng(3))
    ones = sum(row.bit_count() for row in rows)
    total = k * n
    delta = delta_for_scale(r)
    sigma = math.sqrt(delta * (1 - delta) / total)
    assert abs(ones / total - delta) <= 3 * sigma


def project(rows, x: BitVector) -> BitVector:
    """Per-row parity reference: output bit j is the parity of row j AND x."""
    value = 0
    for j, row in enumerate(rows):
        value |= ((row & x.value).bit_count() & 1) << j
    return BitVector(len(rows), value)


def one_scale_family(rows, n):
    """A family holding ``rows`` as its only (scale-1) matrix."""
    return ProjectionFamily(n, len(rows), (1,), {1: tuple(rows)}, {1: 0})


def kernel(rows, x: BitVector) -> BitVector:
    """The GF(2) sketch kernel applied to one matrix and one point."""
    (value,) = sketch_point(one_scale_family(rows, x.n), x)
    return BitVector(len(rows), value)


def test_project_identity_and_zero():
    n = 8
    rows = tuple(1 << i for i in range(n))  # identity matrix
    x = BitVector.from_string("10110010")
    assert kernel(rows, x) == x
    assert kernel(rows, BitVector.zeros(n)) == BitVector.zeros(n)


def test_project_linearity():
    rng = np.random.default_rng(5)
    n, k = 24, 12
    rows = gen_projection(2, k, n, rng)
    A = np.array([[(row >> c) & 1 for c in range(n)] for row in rows])
    for _ in range(20):
        xv = int(rng.integers(0, 1 << n))
        yv = int(rng.integers(0, 1 << n))
        x, y = BitVector(n, xv), BitVector(n, yv)
        left = kernel(rows, x ^ y)
        right = kernel(rows, x) ^ kernel(rows, y)
        assert left == right
        direct = (A @ np.array([(xv ^ yv) >> c & 1 for c in range(n)])) % 2
        assert list(left.bits()) == list(direct)


@pytest.mark.parametrize("n", [2, 7, 9, 64, 65])
@pytest.mark.parametrize("k", [5, 13, 70])
def test_sketch_kernel_matches_per_row_parity(n, k):
    """One GF(2) product over all points equals the per-row parity loop at
    every scale, for point lengths and sketch widths that fill no whole
    byte or 64-bit word."""
    rng = random.Random(n * 1000 + k)
    fam = ProjectionFamily.generate(n, k, np.random.default_rng(n + k))
    points = [BitVector(n, rng.getrandbits(n)) for _ in range(n + 3)]
    points[0] = BitVector.ones(n)
    bits = sketch_bits(fam, points)
    assert bits.shape == (len(points), len(fam.scales) * k)
    for x, row in zip(points, bits):
        for idx, r in enumerate(fam.scales):
            want = project(fam.matrices[r], x).bits()
            assert tuple(row[idx * k:(idx + 1) * k].tolist()) == want
        assert sketch_point(fam, x) == tuple(project(fam.matrices[r], x).value for r in fam.scales)


def test_sketch_kernel_rejects_wrong_dimension():
    fam = family_for(8)
    with pytest.raises(DimensionError):
        sketch_bits(fam, [BitVector.zeros(8), BitVector.zeros(9)])


# ---------------------------------------------------------------------------
# estimate_distance
# ---------------------------------------------------------------------------

def family_for(n, kappa=8.0, seed=0):
    k = ProjectionConfig(kappa=kappa).k_for(n)
    return ProjectionFamily.generate(n, k, np.random.default_rng(seed))


def test_estimate_equal_points_is_one():
    n = 32
    fam = family_for(n)
    x = BitVector(n, 0x12345678)
    sk = sketch_point(fam, x)
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
    sk = sketch_point(fam, BitVector.zeros(n))
    with pytest.raises(MalformedSketchError):
        estimate_distance(sk[:-1], sk, fam)


def test_truncated_chunk_list_rejected():
    """A received projection or sketch that lost its last chunk raises
    MalformedSketchError (not an assert, which ``python -O`` drops)."""
    k, n = 5, 16
    rows = tuple(range(1, k + 1))
    value = sum(row << (i * n) for i, row in enumerate(rows))
    chunks = pack_chunks(value, k * n, 32)
    assert rows_from_chunks(chunks, k, n) == rows
    with pytest.raises(MalformedSketchError):
        rows_from_chunks(chunks[:-1], k, n)

    sketches = (3, 0, 31, 7)
    value = sum(s << (i * k) for i, s in enumerate(sketches))
    chunks = pack_chunks(value, len(sketches) * k, 8)
    assert sketches_from_chunks(chunks, k, len(sketches)) == sketches
    with pytest.raises(MalformedSketchError):
        sketches_from_chunks(chunks[:-1], k, len(sketches))


def test_estimate_monotone_scale_rule():
    """If some scale passes the test, the estimate is at most that scale."""
    n = 64
    fam = family_for(n)
    rng = random.Random(0)
    for _ in range(50):
        x = BitVector(n, rng.getrandbits(n))
        y = BitVector(n, rng.getrandbits(n))
        si, sj = sketch_point(fam, x), sketch_point(fam, y)
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


@pytest.mark.parametrize("n, k", [(32, 40), (24, 64), (24, 72), (40, 130)])
def test_build_estimated_graph_matches_pairwise_estimate(n, k):
    """The all-pairs estimate equals estimate_distance on every pair, for
    sketch widths within one and beyond one 64-bit word."""
    fam = ProjectionFamily.generate(n, k, np.random.default_rng(n + k))
    rng = random.Random(k)
    sets = near_sketch_sets(fam, n, rng)
    g = build_estimated_graph(sets, fam)
    assert g.n == n
    for i in range(1, n + 1):
        assert g.weight(i, i) == 0
        for j in range(1, n + 1):
            if i != j:
                assert g.weight(i, j) == estimate_distance(sets[i - 1], sets[j - 1], fam)


def test_build_estimated_graph_of_real_sketches():
    n = 48
    fam = family_for(n, seed=4)
    pts = clustered_points(n, 3, 3, 6)
    sets = [sketch_point(fam, p) for p in pts]
    g = build_estimated_graph(sets, fam)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert g.weight(i + 1, j + 1) == estimate_distance(sets[i], sets[j], fam)


def test_build_estimated_graph_rejects_missing_scale():
    n = 16
    fam = family_for(n)
    rng = random.Random(3)
    sets = [sketch_point(fam, BitVector(n, rng.getrandbits(n))) for _ in range(n)]
    sets[5] = sets[5][:-1]
    with pytest.raises(MalformedSketchError):
        build_estimated_graph(sets, fam)


def test_estimated_graph_symmetric():
    n = 16
    fam = family_for(n)
    rng = random.Random(1)
    sets = [sketch_point(fam, BitVector(n, rng.getrandbits(n))) for _ in range(n)]
    g = build_estimated_graph(sets, fam)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert g.weight(i, j) == g.weight(j, i)
            if i != j:
                assert g.weight(i, j) in scales_for(n)


# ---------------------------------------------------------------------------
# the protocol end to end
# ---------------------------------------------------------------------------

def test_hmst_identical_points():
    n = 16
    pts = [BitVector(n, 0xBEEF) for _ in range(n)]
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
        pts = [BitVector(n, rng.getrandbits(n)) for _ in range(n)]
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
    pts = [BitVector(n, rng.getrandbits(n)) for _ in range(n)]
    t_sim, led_sim = hmst_protocol(pts, CliqueConfig(n=n, seed=3))
    t_acc, led_acc = hmst_protocol(pts, CliqueConfig(n=n, routing="accounted", seed=3))
    assert t_sim.edges == t_acc.edges
    assert led_sim.rounds > 0 and led_acc.rounds > 0


def test_hmst_deterministic():
    n = 16
    rng = random.Random(2)
    pts = [BitVector(n, rng.getrandbits(n)) for _ in range(n)]
    runs = [hmst_protocol(pts, CliqueConfig(n=n, seed=5)) for _ in range(2)]
    assert runs[0][0].edges == runs[1][0].edges
    assert runs[0][1].as_dict() == runs[1][1].as_dict()


def test_hmst_seed_mode_cheaper():
    n = 16
    rng = random.Random(4)
    pts = [BitVector(n, rng.getrandbits(n)) for _ in range(n)]
    cfg = CliqueConfig(n=n, routing="accounted", seed=6)
    _, led_full = hmst_protocol(pts, cfg)
    tree, led_seed = hmst_protocol(pts, cfg, ProjectionConfig(seed_mode=True))
    assert led_seed.rounds < led_full.rounds
    assert len(tree.edges) == n - 1


def test_hmst_step_subtotals_cover_rounds():
    n = 16
    rng = random.Random(8)
    pts = [BitVector(n, rng.getrandbits(n)) for _ in range(n)]
    _, led = hmst_protocol(pts, CliqueConfig(n=n, seed=9))
    steps = {k: v for k, v in led.step_rounds.items() if k.startswith("hmst_")}
    assert set(steps) == {"hmst_step1", "hmst_step2", "hmst_step3"}
    assert sum(steps.values()) == led.rounds
    assert steps["hmst_step3"] == 0  # purely local


def test_hmst_input_validation():
    pts = [BitVector(4, 0)] * 3
    with pytest.raises(DimensionError):
        hmst_protocol(pts, CliqueConfig(n=4))
    with pytest.raises(DimensionError):
        hmst_protocol([BitVector(3, 0)] * 4, CliqueConfig(n=4))


# ---------------------------------------------------------------------------
# the replicated projection family
# ---------------------------------------------------------------------------

def engine_with_points(n, routing, seed):
    """Audited engine whose node i stores a random point under "point"."""
    from cliquemat.engine import CliqueEngine

    rng = random.Random(seed)
    pts = [BitVector(n, rng.getrandbits(n)) for _ in range(n)]
    engine = CliqueEngine(CliqueConfig(n=n, routing=routing, seed=seed))

    def seed_points(node):
        node.storage["point"] = pts[node.id - 1]

    engine.local(seed_points)
    engine.audit = True
    return engine


def record_broadcast_seed(monkeypatch):
    """Wrap the seed broadcast; the returned list collects each seed sent."""
    from cliquemat import hmst

    seeds = []
    broadcast = hmst._broadcast_from_node1

    def recording(engine, chunks, label):
        seeds.append(unpack_chunks(chunks))
        return broadcast(engine, chunks, label)

    monkeypatch.setattr(hmst, "_broadcast_from_node1", recording)
    return seeds


def record_multicast(monkeypatch, alter=None):
    """Wrap the projection multicast; the returned dict collects, per
    recipient, every chunk it received in order.  ``alter`` (node id) gets
    the low bit of its first received chunk flipped."""
    from cliquemat import hmst

    received: dict[int, list[tuple[int, int]]] = {}
    multicast = hmst.vector_multicast

    def recording(engine, senders, label="vector_multicast"):
        out, rounds = multicast(engine, senders, label=label)
        if alter in out and alter not in received:
            src, got = out[alter][0]
            out[alter][0] = (src, [(got[0][0] ^ 1, got[0][1])] + got[1:])
        for v, lists in out.items():
            for _, got in lists:
                received.setdefault(v, []).extend(got)
        return out, rounds

    monkeypatch.setattr(hmst, "vector_multicast", recording)
    return received


def family_from_chunks(chunks, n, k):
    """Fresh ship-mode derivation: split a node's received chunks into
    k*n-bit scales in order and decode each."""
    mats = {}
    pos = 0
    for r in scales_for(n):
        start, bits = pos, 0
        while bits < k * n:
            bits += chunks[pos][1]
            pos += 1
        mats[r] = rows_from_chunks(chunks[start:pos], k, n)
    assert pos == len(chunks)
    return ProjectionFamily(n, k, scales_for(n), mats, scale_thresholds(n, k))


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_seed_mode_family_matches_fresh_derivation_at_every_node(routing, monkeypatch):
    n = 12
    k = ProjectionConfig().k_for(n)
    engine = engine_with_points(n, routing, 3)
    seeds = record_broadcast_seed(monkeypatch)
    run_hmst(engine, ProjectionConfig(seed_mode=True))
    ((seed, nbits),) = seeds
    assert nbits == 64
    fresh = ProjectionFamily.from_seed(n, k, seed)
    for i in engine.node_ids():
        assert engine.node(i).storage["family"] == fresh


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
    run_hmst(engine, ProjectionConfig(seed_mode=True))
    assert len(calls) == 1
    per_node = len(scales_for(n)) * math.ceil(k * n / engine.w)
    assert all(engine.ledger.work[i] >= per_node for i in engine.node_ids())


@pytest.mark.parametrize("routing", ["simulated", "accounted"])
def test_ship_mode_family_matches_fresh_derivation_at_every_node(routing, monkeypatch):
    n = 12
    k = ProjectionConfig().k_for(n)
    engine = engine_with_points(n, routing, 4)
    received = record_multicast(monkeypatch)
    run_hmst(engine, ProjectionConfig())
    assert sorted(received) == list(range(2, n + 1))
    node1 = engine.node(1).storage["family"]
    for v, chunks in received.items():
        fam = engine.node(v).storage["family"]
        assert fam == family_from_chunks(chunks, n, k)
        assert fam == node1


def test_ship_mode_node_with_altered_chunks_derives_its_own_family(monkeypatch):
    from cliquemat import hmst

    n, other = 12, 5
    k = ProjectionConfig().k_for(n)
    engine = engine_with_points(n, "accounted", 6)
    received = record_multicast(monkeypatch, alter=other)
    decodes = []
    decode = hmst.rows_from_chunks

    def counting_decode(*args):
        decodes.append(args)
        return decode(*args)

    monkeypatch.setattr(hmst, "rows_from_chunks", counting_decode)
    run_hmst(engine, ProjectionConfig())
    node1 = engine.node(1).storage["family"]
    own = engine.node(other).storage["family"]
    assert own == family_from_chunks(received[other], n, k)
    assert own != node1
    for v in range(2, n + 1):
        if v != other:
            assert engine.node(v).storage["family"] == node1
    # one decode per scale for the shared chunks and one for the altered ones
    assert len(decodes) == 2 * len(scales_for(n))
