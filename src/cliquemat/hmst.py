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
3. check that every node's sketch set arrived whole, estimate all pairwise
   distances and build the tree at node 1.

Step 1 is :func:`distribute_projections` and steps 2-3 are
:func:`run_hmst`.  A family is drawn without looking at the points, so one
family serves every point set on the engine: the product's auto
orientation hands it out once and builds both candidate trees on it, and a
union bound over the point sets keeps each tree's approximation w.h.p.

A family's matrices are one read-only (scales * k, n) 0/1 array.  Each
scale's k*n bits and each sketch set is one row of the :func:`pack_chunks`
wire format, and the seed takes the :func:`chunk_widths` of a 64-bit row; a
step encodes or decodes all its rows in one call, and the chunks stay numpy
columns in between: step 1 multicasts (chunks, 2) slices of one packed
array, step 2 builds its batch from the codec's columns and step 3 decodes
the delivered ones.  The points of all nodes holding the same family object
are sketched in one GF(2) matrix product (:func:`sketch_bits`), each node
charged its own sketch.  Node 1's all-pairs estimate runs on the
(n, scales * k) sketch bit array and its tree is an O(n^2) Prim; the ledger
charges the paper's per-pair work either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import BooleanMatrix, Tree, chunk_widths, local_mst, own_rows, pack_chunks, unpack_chunks
from .engine import CliqueConfig, CliqueEngine, RoundLedger
from .errors import DimensionError, MalformedSketchError
from .routing import Batch, bounded_route, vector_multicast


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
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")

    def k_for(self, n: int) -> int:
        width = self.kappa * math.log2(n)
        if not math.isfinite(width):
            raise ValueError(f"kappa={self.kappa} gives no finite sketch width at n={n}")
        return max(1, math.ceil(width))


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


@dataclass(frozen=True, eq=False)
class ProjectionFamily:
    """One projection matrix per scale plus the calibrated cutoffs: rows
    s*k .. (s+1)*k - 1 of the 0/1 uint8 array ``bits`` are the s-th scale's,
    read-only because nodes share one family."""

    n: int
    k: int
    scales: tuple[int, ...]
    bits: np.ndarray
    thresholds: dict[int, int]

    def __post_init__(self) -> None:
        self.bits.flags.writeable = False

    @classmethod
    def generate(cls, n: int, k: int, rng: np.random.Generator) -> "ProjectionFamily":
        scales = scales_for(n)
        blocks = [rng.random((k, n)) < delta_for_scale(r) for r in scales]
        return cls(n, k, scales, np.concatenate(blocks).view(np.uint8), scale_thresholds(n, k))

    @classmethod
    def from_seed(cls, n: int, k: int, seed: int) -> "ProjectionFamily":
        return cls.generate(n, k, np.random.default_rng(seed))


def sketch_bits(family: ProjectionFamily, points: Sequence[np.ndarray]) -> np.ndarray:
    """Sketches of many 0/1 points in one GF(2) product, (X @ P.T) & 1:
    row i, bit s*k + j is the parity of row j of the scale-s matrix AND
    point i.  The product runs in float32 (BLAS); each sum counts at most n
    ones, exact below 2**24."""
    n = family.n
    for x in points:
        if len(x) != n:
            raise DimensionError(f"point length {len(x)} does not match n={n}")
    X = np.array(points, dtype=np.float32)
    return (X @ family.bits.T.astype(np.float32)).astype(np.int64) & 1


def sketch_point(family: ProjectionFamily, x: np.ndarray) -> np.ndarray:
    """Sketches of x at every scale, one row of k bits per scale."""
    return sketch_bits(family, [x]).reshape(len(family.scales), family.k)


def family_from_vectors(n: int, k: int, *vectors) -> ProjectionFamily:
    """The family a node rebuilds from the (chunks, 2) projection vectors
    it received, in scale order: one k*n-bit wire-format row per scale."""
    chunks = np.concatenate([np.zeros((0, 2), np.uint64), *vectors])
    bits = unpack_chunks(chunks[:, 0], chunks[:, 1], k * n)
    scales = scales_for(n)
    if len(bits) != len(scales):
        raise MalformedSketchError(f"projection chunks carry {len(bits)} of {len(scales)} scales")
    return ProjectionFamily(n, k, scales, bits.reshape(len(scales) * k, n), scale_thresholds(n, k))


# bytes of XOR words per row block of the all-pairs estimate
_BLOCK_BYTES = 1 << 20


def build_estimated_graph(sketches: np.ndarray, family: ProjectionFamily) -> np.ndarray:
    """The estimated distance of every pair of rows of a :func:`sketch_bits`
    array, as a symmetric read-only (n, n) int64 array with a zero diagonal
    that :func:`local_mst` takes as is: the smallest scale whose cutoff the
    pair's sketch distance passes, or the top scale if none does.

    The sketches are packed into 64-bit words, ceil(k/64) per scale.  A
    uint8 (n, n) array of scale indices starts at the top scale; then, for
    each block of rows (all n rows while their XOR words fit in 1 MiB, up
    to n = 256 at the default kappa), one pass per scale below the top
    XORs and popcounts that scale's words against all rows (one
    ``np.add`` per further word sums a pair's popcounts) and, branchless,
    takes the minimum of each index and the scale where the pair passes
    its cutoff; one ``take`` maps indices to scales.  Scratch is the
    indices, the XOR words, their popcounts and one candidate block."""
    num_scales, k = len(family.scales), family.k
    if np.ndim(sketches) != 2 or np.shape(sketches)[1] != num_scales * k:
        raise MalformedSketchError(f"sketch sets must be {num_scales} scales of {k} bits")
    n = len(sketches)
    words = (k + 63) // 64
    padded = np.zeros((num_scales, n, 64 * words), dtype=np.uint8)
    padded[..., :k] = np.reshape(sketches, (n, num_scales, k)).transpose(1, 0, 2)
    packed = np.packbits(padded, axis=-1, bitorder="little").view("<u8")
    del padded
    index = np.full((n, n), num_scales - 1, dtype=np.uint8)
    block = max(1, _BLOCK_BYTES // (8 * n * words))
    for lo in range(0, n, block):
        part = index[lo:lo + block]
        xor = np.empty((len(part), n, words), dtype=np.uint64)
        count = np.empty(xor.shape, dtype=np.uint8)
        dist = count[..., 0] if words == 1 else np.empty(part.shape, dtype=np.int32)
        lower = np.empty(part.shape, dtype=np.uint8)
        for s in range(num_scales - 2, -1, -1):
            np.bitwise_xor(packed[s, lo:lo + len(part), None], packed[s, None], out=xor)
            np.bitwise_count(xor, out=count)
            for j in range(1, words):
                np.add(dist if j > 1 else count[..., 0], count[..., j], out=dist, dtype=np.int32)
            # s where the pair passes, 255 (0 - 1) where it fails
            np.negative(np.greater(dist, family.thresholds[family.scales[s]], out=lower), out=lower)
            np.minimum(part, np.bitwise_or(lower, s, out=lower), out=part)
    del packed, xor, count, dist, lower
    weights = np.array(family.scales, dtype=np.int64).take(index.astype(np.intp))
    np.fill_diagonal(weights, 0)
    weights.flags.writeable = False
    return weights


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------

def distribute_projections(
    engine: CliqueEngine, proj: ProjectionConfig, step_prefix: str = "hmst_"
) -> None:
    """Step 1: node 1 draws one projection family and hands it to every
    node, which stores it under ``family``; every tree :func:`run_hmst`
    builds on the engine afterwards is built on it."""
    n = engine.n
    w = engine.w
    k = proj.k_for(n)
    scales = scales_for(n)

    with engine.step(step_prefix + "step1"):
        if proj.seed_mode:
            with engine.as_node(1) as node1:
                seed64 = int(node1.rng.integers(0, 1 << 63))
            # node 1 sends the seed's chunks to every other node, one per round
            widths = chunk_widths(64, w)
            rounds = [(r, [1], nbits) for r, nbits in enumerate(widths)]
            engine.exchange(len(widths), 0, (), (), (), "seed_bcast", rounds)
            engine.put("projection_seed", dict.fromkeys(engine.node_ids(), seed64))

            def regen(node):
                seed = node.storage.pop("projection_seed")
                node.storage["family"] = engine.derive(ProjectionFamily.from_seed, n, k, seed)
                engine.charge_work(node.id, len(scales) * math.ceil(k * n / w))

            engine.local(regen)
        else:
            with engine.as_node(1) as node1:
                family1 = ProjectionFamily.generate(n, k, node1.rng)
                node1.storage["family"] = family1
                engine.charge_work(1, len(scales) * math.ceil(k * n / w))
            recipients = list(range(2, n + 1))
            # one k*n-bit row per scale, one multicast each; every recipient
            # stores the vectors it received, in scale order
            chunks = np.stack(pack_chunks(family1.bits.reshape(len(scales), k * n), w), axis=1)
            vectors = []
            for vec in np.split(chunks, len(scales)):
                sent, _ = vector_multicast(engine, {1: (vec, recipients)})
                vectors.append(sent[1][0])
            engine.put("projection_vectors", dict.fromkeys(recipients, vectors))

            def rebuild(node):
                if node.id != 1:
                    got = node.storage.pop("projection_vectors")
                    node.storage["family"] = engine.derive(family_from_vectors, n, k, *got)

            engine.local(rebuild)


def run_hmst(
    engine: CliqueEngine,
    proj: ProjectionConfig,
    point_key: str = "point",
    step_prefix: str = "hmst_",
) -> Tree:
    """Steps 2-3 on an engine whose node i already stores its point under
    ``point_key`` and the family :func:`distribute_projections` handed it
    under ``family``; leaves the tree at node 1 under
    ``("hmst_tree", point_key)``, so trees over different point sets keep
    apart, and returns it."""
    n = engine.n
    w = engine.w
    k = proj.k_for(n)
    scales = scales_for(n)

    # -- step 2: sketch locally, route every sketch set to node 1.  Nodes
    # holding the same family object are sketched in one product.
    with engine.step(step_prefix + "step2"):

        def sketch(node):
            engine.charge_work(node.id, len(scales) * k * math.ceil(n / w))
            return node.storage["family"], node.storage[point_key]

        groups: dict[int, tuple[ProjectionFamily, list[int], list[np.ndarray]]] = {}
        for v, (fam, point) in engine.local(sketch).items():
            _, ids, points = groups.setdefault(id(fam), (fam, [], []))
            ids.append(v)
            points.append(point)
        # each sketch set is one len(scales) * k-bit row of the wire format
        per_node = math.ceil(len(scales) * k / w)
        src = np.concatenate([ids for _, ids, _ in groups.values()])
        sketches = np.concatenate([sketch_bits(f, pts) for f, _, pts in groups.values()])
        payloads, widths = pack_chunks(sketches, w)
        batch = Batch.build(w, np.repeat(src, per_node), 1, widths, payloads)
        delivered, _ = bounded_route(engine, batch)
        # node 1's rows of the delivery, as its (source, payload, nbits) columns
        mine = delivered.dst == 1
        engine.put(("sketch_chunks", point_key), {
            1: tuple(c[mine] for c in (delivered.src, delivered.payload, delivered.nbits))
        })

    # -- step 3: node 1 estimates all pairs on arrays and builds the tree
    # locally; the ledger charges the paper's per-pair and n^2 tree work
    with engine.step(step_prefix + "step3"):
        with engine.as_node(1) as node1:
            fam: ProjectionFamily = node1.storage["family"]
            senders, payloads, widths = node1.storage.pop(("sketch_chunks", point_key))
            # by sender, each sender's chunks in the order it sent them
            by_src = np.argsort(senders, kind="stable")
            sent = np.bincount(senders, minlength=n + 1)[1:]
            if (sent != per_node).any():
                v = int((sent != per_node).argmax())
                raise MalformedSketchError(f"node {v + 1} sent {sent[v]} of {per_node} chunks")
            bits = unpack_chunks(payloads[by_src], widths[by_src], len(scales) * k)
            graph = build_estimated_graph(bits, fam)
            engine.charge_work(1, (n * (n - 1) // 2) * len(scales) * math.ceil(k / w))
            tree = local_mst(graph)
            engine.charge_work(1, n * n)
            node1.storage["hmst_tree", point_key] = tree
    return tree


def hmst_protocol(
    points: Sequence[np.ndarray],
    cfg: CliqueConfig,
    proj: ProjectionConfig | None = None,
) -> tuple[Tree, RoundLedger]:
    """Full run on a fresh engine: point i, row i of the n x n 0/1 array
    ``points``, at node i; tree at node 1."""
    P = BooleanMatrix(points)
    if P.n != cfg.n:
        raise DimensionError(f"need {cfg.n} points of dimension n={cfg.n}, got {P.n}")
    engine = CliqueEngine(cfg)
    engine.put("point", dict(enumerate(own_rows(P.bits), 1)))
    proj = proj or ProjectionConfig()
    distribute_projections(engine, proj)
    tree = run_hmst(engine, proj)
    return tree, engine.ledger
