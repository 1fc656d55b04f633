"""Unit tests for the sketch-based approximate MST protocol."""

import math
import random

import numpy as np
import pytest

from cliquemat.bits import BitVector, hamming_distance, pack_chunks
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
    project,
    rows_from_chunks,
    scale_thresholds,
    scales_for,
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
# gen_projection / project
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


def test_project_identity_and_zero():
    n = 8
    rows = tuple(1 << i for i in range(n))  # identity matrix
    x = BitVector.from_string("10110010")
    assert project(rows, x) == x
    assert project(rows, BitVector.zeros(n)) == BitVector.zeros(n)


def test_project_linearity():
    rng = np.random.default_rng(5)
    n, k = 24, 12
    rows = gen_projection(2, k, n, rng)
    A = np.array([[(row >> c) & 1 for c in range(n)] for row in rows])
    for _ in range(20):
        xv = int(rng.integers(0, 1 << n))
        yv = int(rng.integers(0, 1 << n))
        x, y = BitVector(n, xv), BitVector(n, yv)
        left = project(rows, x ^ y)
        right = project(rows, x) ^ project(rows, y)
        assert left == right
        direct = (A @ np.array([(xv ^ yv) >> c & 1 for c in range(n)])) % 2
        assert list(left.bits()) == list(direct)


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
