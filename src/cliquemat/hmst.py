"""Approximate minimum spanning tree of n points in {0,1}^n on the clique.

The first node draws one random GF(2) projection matrix per scale
r = 1, 2, 4, ..., 2^ceil(log2 n) and ships them to everyone; each node
projects its point to k = ceil(kappa * log2 n) bits per scale and returns
the sketches to the first node, which estimates every pairwise distance by
the smallest scale whose sketch distance passes that scale's cutoff and
builds the minimum spanning tree of the estimated graph locally.

Protocol outline (per-step round subtotals land in the ledger):

1. generate the per-scale projection matrices at node 1 and multicast them
   (or, in seed mode, broadcast one 64-bit seed and regenerate locally);
2. sketch every point locally and route all sketches to node 1 as one
   batch of W-bit chunks;
3. estimate all pairwise distances and build the tree at node 1, from the
   chunks the delivered batch holds for it.

Every node holds the replicated family, but the simulator derives it once
per distinct input (the seed, or the received chunks) and hands the same
object to every node holding that input; each node is still charged its
own regeneration.  Likewise, the points of all nodes holding the same
family are sketched in one GF(2) matrix product (:func:`sketch_bits`),
each node charged its own sketch.  Node 1's all-pairs estimate runs on
packed sketch arrays and its tree is an O(n^2) Prim; the ledger charges the
paper's per-pair work either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import BitVector, Tree, local_mst, pack_chunks, pack_rows, unpack_chunks, unpack_rows
from .engine import CliqueConfig, CliqueEngine, RoundLedger
from .errors import DimensionError, MalformedSketchError
from .routing import Batch, bounded_route, to_all_others, vector_multicast


@dataclass(frozen=True)
class ProjectionConfig:
    """Sketch parameters.

    ``kappa`` fixes the sketch width k = ceil(kappa * log2 n).  With
    ``seed_mode`` the projection matrices are regenerated at every node
    from one broadcast seed instead of being shipped bit by bit.
    """

    kappa: float = 8.0
    seed_mode: bool = False

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")

    def k_for(self, n: int) -> int:
        return max(1, math.ceil(self.kappa * math.log2(n)))


def scales_for(n: int) -> tuple[int, ...]:
    """Scales 1, 2, 4, ..., 2^ceil(log2 n)."""
    return tuple(1 << j for j in range(math.ceil(math.log2(n)) + 1))


def delta_for_scale(r: int) -> float:
    """Per-entry one-probability of the scale-r projection matrix."""
    return min(0.5, 1.0 / (2.0 * r))


def flip_probability(r: int, d: float) -> float:
    """Chance that one sketch coordinate differs for points at distance d."""
    return (1.0 - (1.0 - 2.0 * delta_for_scale(r)) ** d) / 2.0


def scale_thresholds(n: int, k: int) -> dict[int, int]:
    """Per-scale acceptance cutoffs for the sketch-distance test.

    A pair passes scale r when its k-bit sketch distance is at most tau(r);
    the estimator returns the smallest passing scale.  Ideally a scale
    accepts pairs at distance <= r and rejects pairs at distance >= 1.5 r,
    but with only k = O(log n) sketch bits both duties cannot hold with
    useful margins at that boundary, so each cutoff keeps the duty that
    realistic distance spectra actually exercise:

    * scale 1 accepts exact sketch equality only -- identical points produce
      identical sketches, and any cutoff above zero lets far pairs through
      at a rate that poisons the estimated tree;
    * scales whose rejection boundary 1.5 r reaches into the bulk of
      unstructured pair distances (around n/2) sit three sigma below the
      rejection mean, so bulk pairs essentially never pass early;
    * the remaining large scales bias toward acceptance so that pairs at
      distance about r still pass and estimates never overshoot 2(d+1).
    """
    out: dict[int, int] = {}
    bulk = n / 2.0 + 2.0 * math.sqrt(n)
    for r in scales_for(n):
        if r == 1:
            out[r] = 0
            continue
        qn = flip_probability(r, r)
        qf = flip_probability(r, 1.5 * r)
        mid = k * (qn + qf) / 2.0
        sig_n = math.sqrt(k * qn * (1.0 - qn))
        sig_f = math.sqrt(k * qf * (1.0 - qf))
        if 1.5 * r <= bulk:
            tau = min(mid, k * qf - 3.0 * sig_f)
        else:
            tau = max(mid, k * qn + 3.0 * sig_n)
        out[r] = int(max(0, min(math.floor(tau), k // 2)))
    return out


def gen_projection(r: int, k: int, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """k x n binary matrix with entries one with probability delta(r),
    returned as one packed n-bit integer per row."""
    if r < 1 or r > (1 << math.ceil(math.log2(n))):
        raise ValueError(f"scale {r} out of range for n={n}")
    return tuple(pack_rows(rng.random((k, n)) < delta_for_scale(r)))


@dataclass(frozen=True)
class ProjectionFamily:
    """One projection matrix per scale plus the calibrated cutoffs."""

    n: int
    k: int
    scales: tuple[int, ...]
    matrices: dict[int, tuple[int, ...]]
    thresholds: dict[int, int]

    @classmethod
    def generate(cls, n: int, k: int, rng: np.random.Generator) -> "ProjectionFamily":
        scales = scales_for(n)
        matrices = {r: gen_projection(r, k, n, rng) for r in scales}
        return cls(n, k, scales, matrices, scale_thresholds(n, k))

    @classmethod
    def from_seed(cls, n: int, k: int, seed: int) -> "ProjectionFamily":
        return cls.generate(n, k, np.random.default_rng(seed))

    def serialize_scale(self, r: int) -> tuple[int, int]:
        """(packed value, bit length) of the scale-r matrix, row-major."""
        value = 0
        for i, row in enumerate(self.matrices[r]):
            value |= row << (i * self.n)
        return value, self.k * self.n


def sketch_bits(family: ProjectionFamily, points: Sequence[BitVector]) -> np.ndarray:
    """Sketches of many points in one GF(2) product, (X @ P.T) & 1 on 0/1
    arrays: row i, bit s*k + j is the parity of row j of the scale-s matrix
    AND point i.  The product runs in float32 (BLAS); each sum counts at
    most n ones, exact below 2**24."""
    n = family.n
    for x in points:
        if x.n != n:
            raise DimensionError(f"point length {x.n} does not match n={n}")
    X = unpack_rows([x.value for x in points], n).astype(np.float32)
    P = unpack_rows([row for r in family.scales for row in family.matrices[r]], n)
    return (X @ P.T.astype(np.float32)).astype(np.int64) & 1


def sketch_point(family: ProjectionFamily, x: BitVector) -> tuple[int, ...]:
    """Sketches of x at every scale, one packed k-bit integer per scale."""
    bits = sketch_bits(family, [x]).reshape(len(family.scales), family.k)
    return tuple(pack_rows(bits))


def estimate_distance(
    sketches_i: Sequence[int], sketches_j: Sequence[int], family: ProjectionFamily
) -> int:
    """Power-of-two distance estimate: the smallest scale whose sketch
    distance passes that scale's cutoff, or the top scale as fallback."""
    if len(sketches_i) != len(family.scales) or len(sketches_j) != len(family.scales):
        raise MalformedSketchError(
            f"sketch sets must cover all {len(family.scales)} scales"
        )
    for idx, r in enumerate(family.scales):
        if (sketches_i[idx] ^ sketches_j[idx]).bit_count() <= family.thresholds[r]:
            return r
    return family.scales[-1]


def rows_from_chunks(chunks: Sequence[tuple[int, int]], k: int, n: int) -> tuple[int, ...]:
    """Rows of one k x n projection matrix from its received chunks."""
    value, nbits = unpack_chunks(chunks)
    if nbits != k * n:
        raise MalformedSketchError(
            f"projection chunks carry {nbits} bits, expected {k * n}"
        )
    mask = (1 << n) - 1
    return tuple((value >> (i * n)) & mask for i in range(k))


def sketches_from_chunks(
    chunks: Sequence[tuple[int, int]], k: int, num_scales: int
) -> tuple[int, ...]:
    """One k-bit sketch per scale from a node's received sketch chunks."""
    value, nbits = unpack_chunks(chunks)
    if nbits != num_scales * k:
        raise MalformedSketchError(
            f"sketch chunks carry {nbits} bits, expected {num_scales * k}"
        )
    kmask = (1 << k) - 1
    return tuple((value >> (idx * k)) & kmask for idx in range(num_scales))


@dataclass(frozen=True, eq=False)
class EstimatedGraph:
    """Symmetric matrix of power-of-two distance estimates (zero diagonal),
    as a read-only (n, n) int64 array that :func:`local_mst` takes as is;
    its tree is the minimum spanning tree under the (weight, u, v) order."""

    n: int
    weights: np.ndarray

    def weight(self, i: int, j: int) -> int:
        return int(self.weights[i - 1, j - 1])


# bytes of XOR scratch per row block of the all-pairs estimate
_BLOCK_BYTES = 1 << 20


def build_estimated_graph(
    sketch_sets: Sequence[Sequence[int]], family: ProjectionFamily
) -> EstimatedGraph:
    """:func:`estimate_distance` for every pair at once: the sketches are
    packed into an (n, scales, ceil(k/64)) array of 64-bit words, and each
    block of rows is XORed against all rows and popcounted per scale."""
    n = len(sketch_sets)
    num_scales = len(family.scales)
    words = (family.k + 63) // 64
    for sk in sketch_sets:
        if len(sk) != num_scales:
            raise MalformedSketchError(f"sketch sets must cover all {num_scales} scales")
    try:
        raw = b"".join(s.to_bytes(8 * words, "little") for sk in sketch_sets for s in sk)
    except OverflowError as exc:
        raise MalformedSketchError(f"a sketch does not fit in k={family.k} bits") from exc
    packed = np.frombuffer(raw, dtype="<u8").reshape(n, num_scales, words)
    scales = np.array(family.scales, dtype=np.int64)
    cutoffs = np.array([family.thresholds[r] for r in family.scales])
    weights = np.empty((n, n), dtype=np.int64)
    block = max(1, _BLOCK_BYTES // max(1, n * num_scales * 8 * words))
    for lo in range(0, n, block):
        diff = np.bitwise_xor(packed[lo:lo + block, None], packed[None])
        dist = np.bitwise_count(diff).sum(axis=-1, dtype=np.int32)
        passes = dist <= cutoffs
        first = np.where(passes.any(axis=-1), passes.argmax(axis=-1), num_scales - 1)
        weights[lo:lo + block] = scales[first]
    np.fill_diagonal(weights, 0)
    weights.flags.writeable = False
    return EstimatedGraph(n, weights)


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------

def _broadcast_from_node1(engine: CliqueEngine, payload_chunks, label: str) -> None:
    """Node 1 sends the same small chunk sequence to every other node, one
    chunk per round (used only for seed mode)."""
    src, dst = to_all_others(engine.n, [1])
    rounds = len(payload_chunks)
    engine.exchange(
        rounds,
        np.repeat(np.arange(rounds), src.size),
        np.tile(src, rounds),
        np.tile(dst, rounds),
        np.repeat([nbits for _, nbits in payload_chunks], src.size),
        label=label,
    )


def run_hmst(
    engine: CliqueEngine,
    proj: ProjectionConfig,
    point_key: str = "point",
    tree_key: str = "hmst_tree",
    step_prefix: str = "hmst_",
) -> Tree:
    """Run the tree protocol on an engine whose node i already stores its
    point under ``point_key``; leaves the tree at node 1 under ``tree_key``
    and returns it."""
    n = engine.n
    w = engine.w
    k = proj.k_for(n)
    scales = scales_for(n)

    # -- step 1: node 1 generates the projections and distributes them.
    # Every node derives the family from what it holds; the simulator
    # derives it once per distinct input (seed value or received chunks)
    # and shares that object among the nodes holding the same input.
    with engine.step(step_prefix + "step1"):
        if proj.seed_mode:
            with engine.as_node(1) as node1:
                seed64 = int(node1.rng.integers(0, 1 << 63))
                by_seed = {seed64: ProjectionFamily.from_seed(n, k, seed64)}
                node1.storage["family"] = by_seed[seed64]
                engine.charge_work(1, len(scales) * math.ceil(k * n / w))
            _broadcast_from_node1(engine, pack_chunks(seed64, 64, w), label="seed_bcast")

            def regen(node):
                if node.id == 1:
                    return
                if seed64 not in by_seed:
                    by_seed[seed64] = ProjectionFamily.from_seed(n, k, seed64)
                node.storage["family"] = by_seed[seed64]
                engine.charge_work(node.id, len(scales) * math.ceil(k * n / w))

            engine.local(regen)
        else:
            with engine.as_node(1) as node1:
                family1 = ProjectionFamily.generate(n, k, node1.rng)
                node1.storage["family"] = family1
                engine.charge_work(1, len(scales) * math.ceil(k * n / w))
            recipients = [v for v in range(2, n + 1)]
            received_chunks: dict[int, dict[int, list[tuple[int, int]]]] = {
                v: {r: [] for r in scales} for v in recipients
            }
            for r in scales:
                value, total_bits = family1.serialize_scale(r)
                chunks = pack_chunks(value, total_bits, w)
                for lo in range(0, len(chunks), n):
                    vec = chunks[lo:lo + n]
                    out, _ = vector_multicast(engine, {1: (vec, recipients)}, label="vector_multicast")
                    for v in recipients:
                        for _, got in out.get(v, []):
                            received_chunks[v][r].extend(got)

            by_chunks: dict[tuple, ProjectionFamily] = {}

            def rebuild(node):
                if node.id == 1:
                    return
                got = received_chunks[node.id]
                key = tuple(tuple(got[r]) for r in scales)
                if key not in by_chunks:
                    mats = {r: rows_from_chunks(got[r], k, n) for r in scales}
                    by_chunks[key] = ProjectionFamily(n, k, scales, mats, scale_thresholds(n, k))
                node.storage["family"] = by_chunks[key]

            engine.local(rebuild)

    # -- step 2: sketch locally, route every sketch set to node 1.  Nodes
    # holding the same family object are sketched in one product.
    with engine.step(step_prefix + "step2"):
        groups: dict[int, tuple[ProjectionFamily, list[int], list[BitVector]]] = {}

        def sketch(node):
            fam: ProjectionFamily = node.storage["family"]
            _, ids, points = groups.setdefault(id(fam), (fam, [], []))
            ids.append(node.id)
            points.append(node.storage[point_key])
            engine.charge_work(node.id, len(scales) * k * math.ceil(n / w))

        engine.local(sketch)
        # each sketch set is len(scales) * k bits, sent as W-bit chunks, low bits first
        total, per_node = len(scales) * k, math.ceil(len(scales) * k / w)
        src = np.concatenate([ids for _, ids, _ in groups.values()])
        sketches = np.zeros((src.size, per_node * w), dtype=np.uint8)
        sketches[:, :total] = np.concatenate([sketch_bits(f, pts) for f, _, pts in groups.values()])
        widths = np.minimum(w, total - w * np.arange(per_node))
        chunks = Batch.build(
            w, np.repeat(src, per_node), 1, np.tile(widths, src.size),
            pack_rows(sketches.reshape(-1, w)), tag=np.tile(np.arange(per_node), src.size),
        )
        delivered, _ = bounded_route(engine, chunks, label="bounded_route")

    # -- step 3: node 1 estimates all pairs on arrays and builds the tree
    # locally; the ledger charges the paper's per-pair and n^2 tree work
    with engine.step(step_prefix + "step3"):
        tree_holder: dict[str, Tree] = {}

        def estimate(node):
            if node.id != 1:
                return
            fam: ProjectionFamily = node.storage["family"]
            got = delivered.span(1)  # in (src, tag) order
            cuts = np.searchsorted(delivered.src[got], np.arange(1, n + 2)).tolist()
            payload, nbits = delivered.payload[got].tolist(), delivered.nbits[got].tolist()
            sketch_sets = [
                sketches_from_chunks(list(zip(payload[lo:hi], nbits[lo:hi])), k, len(scales))
                for lo, hi in zip(cuts[:-1], cuts[1:])
            ]
            graph = build_estimated_graph(sketch_sets, fam)
            engine.charge_work(1, (n * (n - 1) // 2) * len(scales) * math.ceil(k / w))
            tree = local_mst(graph.weights)
            engine.charge_work(1, n * n)
            node.storage[tree_key] = tree
            tree_holder["tree"] = tree

        engine.local(estimate)
    return tree_holder["tree"]


def hmst_protocol(
    points: Sequence[BitVector],
    cfg: CliqueConfig,
    proj: ProjectionConfig | None = None,
) -> tuple[Tree, RoundLedger]:
    """Full run on a fresh engine: point i at node i, tree at node 1."""
    proj = proj or ProjectionConfig()
    n = cfg.n
    if len(points) != n:
        raise DimensionError(f"need {n} points, got {len(points)}")
    for p in points:
        if p.n != n:
            raise DimensionError(f"points must have dimension n={n}, got {p.n}")
    engine = CliqueEngine(cfg)

    def seed_points(node):
        node.storage["point"] = points[node.id - 1]

    engine.local(seed_points)
    tree = run_hmst(engine, proj)
    return tree, engine.ledger
