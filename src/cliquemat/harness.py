"""Instance generators, oracle verification, and the benchmark grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import (
    BooleanMatrix,
    boolean_product_naive,
    distance_matrix_via_products,
    local_mst,
)
from .clusmat import clusmat_oriented
from .engine import CliqueConfig
from .errors import DimensionError
from .hmst import ProjectionConfig


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated matrix.

    ``kind`` selects the generator: ``clustered`` draws ``clusters`` uniform
    centers and flips at most ``spread`` random coordinates per row;
    ``uniform`` fills entries i.i.d. with probability ``density``;
    ``ladder`` is :func:`gen_ladder`.
    """

    n: int
    kind: str = "clustered"
    clusters: int = 1
    spread: int = 0
    density: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("clustered", "uniform", "ladder"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not 1 <= self.clusters <= self.n:
            raise ValueError("clusters must lie in 1..n")
        if not 0 <= self.spread <= self.n:
            raise ValueError("spread must lie in 0..n")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must lie in [0, 1]")


def _random_rows(count: int, n: int, rng: np.random.Generator, density: float = 0.5) -> np.ndarray:
    """``count`` rows of i.i.d. Bernoulli(density) entries, drawn one row at
    a time: the numbers of one (count, n) draw without its count * n
    floats."""
    bits = np.empty((count, n), dtype=np.uint8)
    for row in bits:
        row[:] = rng.random(n) < density
    return bits


def gen_clustered(spec: GenSpec) -> BooleanMatrix:
    """Rows scattered around ``clusters`` random centers, each row at most
    ``spread`` flips away from its center."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    centers = _random_rows(spec.clusters, n, rng)
    bits = np.empty((n, n), dtype=np.uint8)
    for row in bits:
        row[:] = centers[int(rng.integers(spec.clusters))]
        flips = int(rng.integers(0, spec.spread + 1))
        if flips:
            row[rng.choice(n, size=flips, replace=False)] ^= 1
    return BooleanMatrix(bits)


def gen_uniform(n: int, density: float, seed: int) -> BooleanMatrix:
    """I.i.d. Bernoulli(density) entries."""
    return BooleanMatrix(_random_rows(n, n, np.random.default_rng(seed), density))


def gen_ladder(spec: GenSpec) -> BooleanMatrix:
    """One dense cluster plus a chain of rows whose flipped window slides one
    coordinate at a time: ``clusters`` chain rows, window length ``spread``.

    The true MST is one window-length edge plus distance-2 chain links, so
    the cost is pinned almost deterministically without collapsing to zero.
    """
    rng = np.random.default_rng(spec.seed)
    n, L, m = spec.n, max(1, spec.spread), min(spec.clusters, spec.n)
    if m > n - L + 1:
        raise ValueError("too many chain rows for the window length")
    bits = np.repeat(_random_rows(1, n, rng), n, axis=0)
    for i in range(m):
        bits[i, i:i + L] ^= 1
    return BooleanMatrix(bits)


def generate(spec: GenSpec) -> BooleanMatrix:
    if spec.kind == "uniform":
        return gen_uniform(spec.n, spec.density, spec.seed)
    if spec.kind == "ladder":
        return gen_ladder(spec)
    return gen_clustered(spec)


def verify(C: BooleanMatrix, A: BooleanMatrix, B: BooleanMatrix) -> bool:
    """True iff C equals the naive Boolean product of A and B."""
    if not (A.n == B.n == C.n):
        raise DimensionError("shapes must match")
    return C == boolean_product_naive(A, B)


def exact_mst_cost(M: BooleanMatrix) -> int:
    """Cost of an exact MST of M's rows in Hamming space (local oracle)."""
    return local_mst(distance_matrix_via_products(M)).cost()


# ---------------------------------------------------------------------------
# envelope fits
# ---------------------------------------------------------------------------

def fit_envelope(values: Sequence[float], models: Sequence[float]) -> dict:
    """Fit one constant C with value <= C * model across all points.

    The constant is the geometric midpoint of the extreme ratios, so the
    worst residual is sqrt(max_ratio / min_ratio) on either side.
    """
    if len(values) != len(models) or not values:
        raise ValueError("need matching, nonempty value/model sequences")
    ratios = [v / m for v, m in zip(values, models)]
    hi, lo = max(ratios), min(ratios)
    if lo <= 0:
        raise ValueError("values must be positive to fit an envelope")
    constant = math.sqrt(hi * lo)
    return {
        "constant": constant,
        "max_ratio": hi,
        "min_ratio": lo,
        "max_residual": math.sqrt(hi / lo),
    }


def rounds_model(n: int, m_realized: int) -> float:
    return math.sqrt(m_realized / n + 1.0) * math.log2(n) ** 3


def work_model(n: int, m_realized: int) -> float:
    return n * (n + m_realized) * math.log2(n) ** 3


# ---------------------------------------------------------------------------
# benchmark grid
# ---------------------------------------------------------------------------

def bench_grid(
    n_list: Sequence[int],
    spreads: Sequence[int],
    seeds: Sequence[int],
    routing: str,
    proj: ProjectionConfig,
) -> dict:
    """One product per cell, as ``{"rows": [...], "fits": {...}}``: at each n,
    A clustered (min(4, n) clusters) at each spread and seed, then A uniform
    at each seed to anchor the high end of the realized tree cost; B is
    uniform.  A failing cell gives an error row; the rounds and work
    envelopes are fitted over the correct rows."""
    cells = []  # (A's spec, B's seed, engine seed)
    for n in n_list:
        cells += [
            (GenSpec(n=n, clusters=min(4, n), spread=min(s, n), seed=seed), seed + 1, seed)
            for s in spreads for seed in seeds
        ]
        cells += [(GenSpec(n=n, kind="uniform", seed=seed + 2), seed + 3, seed) for seed in seeds]
    rows = []
    for spec, b_seed, seed in cells:
        cell = {
            "n": spec.n,
            "a_kind": spec.kind,
            "clusters": spec.clusters,
            "spread": spec.spread,
            "density": spec.density,
            "seed": seed,
            "routing": routing,
        }
        try:
            a, b = generate(spec), gen_uniform(spec.n, 0.5, b_seed)
            cfg = CliqueConfig(n=spec.n, routing=routing, seed=seed)
            C, ledger, info = clusmat_oriented(a, b, cfg, proj)
            rows.append({
                **cell,
                "orientation": "ab",
                "exact_mst_cost": exact_mst_cost(a),
                "m_realized": info["m_realized"],
                "t": info["t"],
                "blocks": info["blocks"],
                "rounds": ledger.rounds,
                "messages": ledger.messages,
                "bits": ledger.bits,
                "work": ledger.work_total,
                "correct": verify(C, a, b),
            })
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            rows.append({k: cell[k] for k in ("n", "a_kind", "spread", "seed", "routing")}
                        | {"correct": False, "error": f"{type(exc).__name__}: {exc}"})
    good = [r for r in rows if r["correct"]]
    fits = {
        key: fit_envelope(
            [r[key] for r in good], [model(r["n"], r["m_realized"]) for r in good]
        )
        for key, model in (("rounds", rounds_model), ("work", work_model))
        if good
    }
    return {"rows": rows, "fits": fits}
