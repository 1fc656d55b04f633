"""The benchmark's three workloads and the protocol call each one makes.

A workload fixes the matrix shapes, the routing backend, the projection
mode and the entry point.  The run's ``--seed`` picks the instance list:
instance ``i`` of seed ``s`` draws A from generator seed ``2*(s*K + i)`` and
B from the next seed, where ``K`` is the workload's instance count.  Seed 0
therefore starts with the (A seed 0, B seed 1) pair that the ROADMAP
baseline table was measured on.

Nothing here imports ``cliquemat`` at module level, so the set-up probe can
time that import in a fresh process.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    routing: str
    seed_mode: bool
    entry: str  # "ab" runs clusmat_oriented(..., "ab"); "auto" runs choose_orientation
    a_kind: str
    b_kind: str
    b_transposed: bool
    instances: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sim-clustered",
            n=128,
            routing="simulated",
            seed_mode=False,
            entry="ab",
            a_kind="clustered",
            b_kind="uniform",
            b_transposed=False,
            instances=3,
        ),
        Workload(
            name="acc-uniform",
            n=256,
            routing="accounted",
            seed_mode=False,
            entry="ab",
            a_kind="uniform",
            b_kind="uniform",
            b_transposed=False,
            instances=3,
        ),
        Workload(
            name="acc-auto-seed",
            n=256,
            routing="accounted",
            seed_mode=True,
            entry="auto",
            a_kind="uniform",
            b_kind="clustered",
            b_transposed=True,
            instances=6,
        ),
    )
}


def instance_seeds(w: Workload, seed: int) -> list[tuple[int, int]]:
    """(A seed, B seed) for every instance of run seed ``seed``."""
    return [
        (2 * (seed * w.instances + i), 2 * (seed * w.instances + i) + 1)
        for i in range(w.instances)
    ]


def _spec(kind: str, n: int, seed: int):
    from cliquemat.harness import GenSpec

    if kind == "clustered":
        return GenSpec(n=n, kind="clustered", clusters=4, spread=6, seed=seed)
    return GenSpec(n=n, kind="uniform", density=0.5, seed=seed)


def generate_instance(w: Workload, n: int, a_seed: int, b_seed: int):
    """The (A, B) pair the protocol receives."""
    from cliquemat import harness

    A = harness.generate(_spec(w.a_kind, n, a_seed))
    B = harness.generate(_spec(w.b_kind, n, b_seed))
    if w.b_transposed:
        B = B.transpose()
    return A, B


def call(w: Workload, A, B, engine_seed: int):
    """One protocol call.  Returns (C, orientation, ledger, info).

    The entry points are looked up on the module at call time, so the traced
    run's wrappers are the ones called.
    """
    from cliquemat import clusmat
    from cliquemat.engine import CliqueConfig
    from cliquemat.hmst import ProjectionConfig

    cfg = CliqueConfig(n=A.n, routing=w.routing, seed=engine_seed)
    proj = ProjectionConfig(seed_mode=w.seed_mode)
    if w.entry == "auto":
        return clusmat.choose_orientation(A, B, cfg, proj)
    C, ledger, info = clusmat.clusmat_oriented(A, B, cfg, proj, orientation="ab")
    return C, "ab", ledger, info
