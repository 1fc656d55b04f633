"""Unit tests for generators, verification, and the bench grid."""

import pytest

from cliquemat.bits import BitVector, BooleanMatrix, boolean_product_naive
from cliquemat.harness import (
    GenSpec,
    bench_grid,
    exact_mst_cost,
    fit_envelope,
    gen_clustered,
    gen_uniform,
    generate,
    verify,
)
from cliquemat.hmst import ProjectionConfig


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_clustered_single_center_no_spread():
    M = gen_clustered(GenSpec(n=16, clusters=1, spread=0, seed=0))
    assert all(r == M.rows[0] for r in M.rows)
    assert exact_mst_cost(M) == 0


def test_gen_clustered_spread_bounds_cost():
    n = 64
    M = gen_clustered(GenSpec(n=n, clusters=1, spread=1, seed=1))
    assert exact_mst_cost(M) <= 2 * n


def test_gen_uniform_extremes():
    assert gen_uniform(8, 0.0, 0) == BooleanMatrix((BitVector(8, 0),) * 8)
    ones = gen_uniform(8, 1.0, 0)
    assert all(r.value.bit_count() == 8 for r in ones.rows)
    assert exact_mst_cost(ones) == 0


def test_generators_deterministic():
    spec = GenSpec(n=32, clusters=3, spread=4, seed=9)
    assert gen_clustered(spec) == gen_clustered(spec)
    assert gen_uniform(32, 0.5, 5) == gen_uniform(32, 0.5, 5)


def test_gen_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=8, clusters=0)
    with pytest.raises(ValueError):
        GenSpec(n=8, spread=9)
    with pytest.raises(ValueError):
        GenSpec(n=8, density=1.5)
    with pytest.raises(ValueError):
        GenSpec(n=8, kind="other")


def test_clustered_cost_grows_with_spread():
    costs = [
        exact_mst_cost(gen_clustered(GenSpec(n=64, clusters=4, spread=s, seed=3)))
        for s in (0, 4, 16)
    ]
    assert costs[0] < costs[1] < costs[2]


def test_clustered_degenerates_toward_uniform():
    """With one cluster per row and no spread the centers are uniform but
    sampled with replacement, so the cost climbs to the same order as the
    uniform baseline (collisions keep it somewhat below)."""
    n = 64
    degen = exact_mst_cost(gen_clustered(GenSpec(n=n, clusters=n, spread=0, seed=4)))
    few = exact_mst_cost(gen_clustered(GenSpec(n=n, clusters=4, spread=0, seed=4)))
    baseline = [exact_mst_cost(gen_uniform(n, 0.5, s)) for s in range(8)]
    assert degen > 5 * few
    assert 0.5 * min(baseline) <= degen <= 1.2 * max(baseline)


def test_uniform_cost_within_3_sigma_of_baseline():
    n = 64
    costs = [exact_mst_cost(gen_uniform(n, 0.5, s)) for s in range(40)]
    mean = sum(costs) / len(costs)
    var = sum((c - mean) ** 2 for c in costs) / (len(costs) - 1)
    sigma = var ** 0.5
    held_out = exact_mst_cost(gen_uniform(n, 0.5, 101))
    assert abs(held_out - mean) <= 3 * sigma


def test_ladder_generator_pins_cost():
    spec = GenSpec(n=64, kind="ladder", clusters=42, spread=16)
    M = generate(spec)
    assert exact_mst_cost(M) == 16 + 2 * 41
    assert generate(spec) == M


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_accepts_naive_product():
    A = generate(GenSpec(n=8, kind="uniform", seed=1))
    B = generate(GenSpec(n=8, kind="uniform", seed=2))
    C = boolean_product_naive(A, B)
    assert verify(C, A, B)


def test_verify_rejects_flipped_bit():
    A = generate(GenSpec(n=8, kind="uniform", seed=3))
    B = generate(GenSpec(n=8, kind="uniform", seed=4))
    C = boolean_product_naive(A, B)
    flipped = BooleanMatrix((C.rows[0] ^ BitVector(8, 1),) + C.rows[1:])
    assert not verify(flipped, A, B)


# ---------------------------------------------------------------------------
# fits and the grid
# ---------------------------------------------------------------------------

def test_fit_envelope():
    fit = fit_envelope([10.0, 20.0], [5.0, 5.0])
    assert fit["max_ratio"] == 4.0 and fit["min_ratio"] == 2.0
    assert abs(fit["constant"] - (8.0 ** 0.5)) < 1e-12
    assert abs(fit["max_residual"] - (2.0 ** 0.5)) < 1e-12
    with pytest.raises(ValueError):
        fit_envelope([], [])


def test_bench_grid_small():
    report = bench_grid([16], [2], range(3), "accounted", ProjectionConfig())
    assert len(report["rows"]) == 6  # three clustered, three uniform anchors
    assert all(r["correct"] for r in report["rows"])
    assert "rounds" in report["fits"] and "work" in report["fits"]
    for row in report["rows"]:
        assert row["exact_mst_cost"] >= 0
        assert row["m_realized"] >= 0
        assert row["rounds"] > 0


def test_bench_grid_empty():
    report = bench_grid([], [2], [0], "accounted", ProjectionConfig())
    assert report == {"rows": [], "fits": {}}
