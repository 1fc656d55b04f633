"""Seeded fuzz: random products, each equal to the naive product, over the
sizes and capacities the golden grid (n = 16 and 23) does not reach.

One fixed seed draws every case.  The cases cycle through each combination
of routing backend, capacity W (the smallest that ``_place_inputs``
accepts, 2 * count_bits(n); strict, ceil(log2 n) + 16; 64; and 100, where
chunk payloads are Python ints), shipped or seed-mode projections, and
orientation ``ab``, ``ba`` or ``auto``, so every combination runs at
several n in 2..40.  A and B are each clustered, uniform or a ladder with
valid parameters."""

import itertools
import math

import numpy as np
import pytest

from cliquemat.bits import boolean_product_naive
from cliquemat.clusmat import choose_orientation, clusmat_oriented
from cliquemat.engine import CliqueConfig
from cliquemat.harness import GenSpec, generate
from cliquemat.hmst import ProjectionConfig
from cliquemat.routing import count_bits

SEED = 20261020
CASES = 200
COMBOS = list(itertools.product(
    ("simulated", "accounted"), ("min", "strict", 64, 100), ("ship", "seed"), ("ab", "ba", "auto")
))


def draw_spec(rng: np.random.Generator, n: int) -> GenSpec:
    kind = str(rng.choice(["clustered", "uniform", "ladder"]))
    seed = int(rng.integers(1 << 31))
    if kind == "clustered":
        clusters = int(rng.integers(1, min(n, 5) + 1))
        return GenSpec(n, kind, clusters=clusters, spread=int(rng.integers(0, n + 1)), seed=seed)
    if kind == "uniform":
        return GenSpec(n, kind, density=float(rng.choice([0.05, 0.2, 0.5, 0.9])), seed=seed)
    # a window of L in 1..n coordinates slides over at most n - L + 1 rows
    window = int(rng.integers(1, n + 1))
    chain = int(rng.integers(1, n - window + 2))
    return GenSpec(n, kind, clusters=chain, spread=window, seed=seed)


def draw_cases():
    rng = np.random.default_rng(SEED)
    cases = []
    for i in range(CASES):
        routing, capacity, mode, orientation = COMBOS[i % len(COMBOS)]
        n = int(rng.integers(2, 41))
        smallest, strict = 2 * count_bits(n), math.ceil(math.log2(n)) + 16
        w = {"min": smallest, "strict": strict}.get(capacity, capacity)
        specs = (draw_spec(rng, n), draw_spec(rng, n))
        case = (n, w, routing, mode, orientation, specs, int(rng.integers(1 << 31)))
        cases.append(pytest.param(*case, id=f"{i}-n{n}-w{w}-{routing}-{mode}-{orientation}"))
    return cases


@pytest.mark.parametrize(
    "n, w, routing, mode, orientation, specs, engine_seed",
    draw_cases(),
)
def test_random_product_matches_naive(n, w, routing, mode, orientation, specs, engine_seed):
    A, B = map(generate, specs)
    cfg = CliqueConfig(n=n, w=w, routing=routing, seed=engine_seed)
    proj = ProjectionConfig(seed_mode=mode == "seed")
    if orientation == "auto":
        C, chosen, _, _ = choose_orientation(A, B, cfg, proj)
        assert chosen in ("ab", "ba")
    else:
        C, _, _ = clusmat_oriented(A, B, cfg, proj, orientation=orientation)
    assert C == boolean_product_naive(A, B)
