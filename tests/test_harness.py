"""Unit tests for generators, verification, and the bench grid."""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cliquemat.bits import BooleanMatrix, boolean_product_naive
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
from cliquemat.textio import matrix_to_text


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_clustered_single_center_no_spread():
    M = gen_clustered(GenSpec(n=16, clusters=1, spread=0, seed=0))
    assert (M.bits == M.row(1)).all()
    assert exact_mst_cost(M) == 0


def test_gen_clustered_spread_bounds_cost():
    n = 64
    M = gen_clustered(GenSpec(n=n, clusters=1, spread=1, seed=1))
    assert exact_mst_cost(M) <= 2 * n


def test_gen_uniform_extremes():
    assert gen_uniform(8, 0.0, 0) == BooleanMatrix(np.zeros((8, 8)))
    ones = gen_uniform(8, 1.0, 0)
    assert ones.bits.sum() == 64
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


# sha256 of each generated matrix's text, recorded when rows were packed
# integers; the 0/1 array rows must draw the same numbers
GENERATED = {
    ("clustered", 7): "6e734c87a47bf6f91fc471254341346b25e17c823a91eab798a09534a378f4e3",
    ("clustered", 64): "af0fd19343f233755e004565e7b47387f50bc0881ccf4a1f2305d31c974c83e2",
    ("clustered", 65): "dba288f4e7502d339252aec7524dd209560c9bb35445ace5968549c56bf4ca85",
    ("uniform", 7): "50c79be8b8fb7b6ed7f4df912a4f00e1eb6d64875909ee42188cb02be6dfc2e2",
    ("uniform", 64): "9bbdbb0064a69530f07578e668d19e28211f64339484b18a925c41729a40ab70",
    ("uniform", 65): "cf4edd1056609f636bf98d8a49937c8c35fc5e5253013262b472a1f3924b6383",
    ("ladder", 7): "2e57b12bd7d5da6f2e943e4025561ce832a1ade456e3f38e179bc1b2764ead9f",
    ("ladder", 64): "c4127678450cc9c47cb72b6fb0a16d0542d7ab9a249c8c35fee2e3314fa63465",
    ("ladder", 65): "ff566662ebcee51e0794562aaea5dc11a00cc60c2d6d90ba257d4437692e964d",
}


@pytest.mark.parametrize("kind, n", sorted(GENERATED))
def test_generated_matrices_are_pinned(kind, n):
    spec = GenSpec(n=n, kind=kind, clusters=3, spread=2, density=0.3, seed=n + 1)
    text = matrix_to_text(generate(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED[kind, n]


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
    bits = C.bits.copy()
    bits[0, 0] ^= 1
    flipped = BooleanMatrix(bits)
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


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

PRODUCT_IMPORTS = """
import sys
from cliquemat.clusmat import choose_orientation, clusmat_oriented
from cliquemat.engine import CliqueConfig
from cliquemat.harness import GenSpec, generate, verify
from cliquemat.hmst import ProjectionConfig
A = generate(GenSpec(n=16, clusters=2, spread=3, seed=0))
B = generate(GenSpec(n=16, kind="uniform", seed=1))
for routing in ("simulated", "accounted"):
    cfg = CliqueConfig(n=16, routing=routing)
    assert verify(clusmat_oriented(A, B, cfg)[0], A, B)
    assert verify(choose_orientation(A, B, cfg, ProjectionConfig(seed_mode=True))[0], A, B)
print("numpy.ma" in sys.modules)
"""


def test_products_do_not_import_numpy_ma():
    """A product under either backend never imports ``numpy.ma`` (about
    0.5 MiB of resident memory), which numpy loads lazily, for instance on
    a plain ``np.unique``."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r})\n" + PRODUCT_IMPORTS],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == ["False"]
