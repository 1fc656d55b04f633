"""Boolean matrix product guided by a spanning tree of the row set.

Given square Boolean matrices A and B with row i of each held at node i, the
protocol computes C = A o B (Boolean product) so that node i ends up with
row i of C.  The work plan exploits clustering: an approximate minimum
spanning tree of A's rows is built with sketches, its closed tour is cut
into blocks of balanced Hamming cost, B's columns are cut into blocks of
consecutive columns, and every (tour block, column block) pair goes to one
node, which reconstructs the block's rows incrementally from witness lists
and updates per-column overlap counts only at flipped coordinates.

The ledger charges that incremental-count work as the paper states it.  The
simulation reaches the same entries more cheaply on the host: a pair node
rebuilds each row by XOR with one mask per tour edge and tests all its rows
against all its columns in one product (:func:`block_multiply`), the
replicated step-6 plan is derived once and shared by every node that holds
the same tree and distance table, and the bulk routing tasks (transposes,
witnesses, product entries) are built and read as numpy columns.

Inputs come from node storage only: the entry points put row i of A and
row i of B at node i once, and every step after that reads what the nodes
hold.  Steps (per-step round subtotals land in ``ledger.step_rounds``):

 1. every node learns its column of B (transpose exchange);
 2. approximate spanning tree of A's rows, built at node 1;
 3. node 1 ships edge j to node j, which re-broadcasts it;
 4. each row goes to the owners of its incident tree edges;
 5. edge owners compute their edge's distance and broadcast it;
 6. edge owners list their edge's witnesses; every node derives the same
    tour, blocks, and pair assignment locally;
 7. tour-block start rows go to the assigned pair nodes;
 8. witnesses go to block representatives, then to all pair nodes;
 9. column blocks go to the assigned pair nodes;
10. pair nodes multiply incrementally and route finished entries home.

Orientation ``ba`` swaps the roles: the tree spans B's columns (from step
1) against A's rows, so the nodes end with (A o B) transposed and one more
transpose exchange flips it.  :func:`choose_orientation` builds both trees,
runs steps 3-5 on each, lets every node pick the cheaper tree from the
broadcast distances (ties to ``ab``), and runs steps 6-10 once on it.

End-to-end correctness is exact for every seed: randomness only moves the
tree, and steps 4-10 are correct for any spanning tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Mapping, Sequence

import numpy as np

from .bits import (
    BitVector,
    BooleanMatrix,
    Traversal,
    Tree,
    WeightedEdge,
    euler_traversal,
    hamming_distance,
    pack_chunks,
    pack_rows,
    unpack_chunks,
    unpack_rows,
    witnesses,
)
from .engine import CliqueConfig, CliqueEngine, NodeState, RoundLedger
from .errors import (
    DimensionError,
    InvalidPlanError,
    InvalidWitnessError,
    SchedulingError,
)
from .hmst import ProjectionConfig, run_hmst
from .routing import (
    Batch,
    bounded_route,
    count_bits,
    multicast_accounted_rounds,
    solve_relaxed_idt,
    to_all_others,
    vector_multicast,
)


# ---------------------------------------------------------------------------
# planning (pure, replicated at every node)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraversalPlan:
    """Tour blocks of balanced cost plus consecutive column blocks.

    ``traversal_blocks`` are half-open index ranges into the tour's directed
    edges; ``column_blocks`` are inclusive 1-based column ranges.
    """

    traversal: Traversal
    total_cost: int
    t: int
    traversal_blocks: tuple[tuple[int, int], ...]
    block_costs: tuple[int, ...]
    column_blocks: tuple[tuple[int, int], ...]

    @property
    def num_blocks(self) -> int:
        return len(self.traversal_blocks)

    def block_edge_range(self, b: int) -> tuple[int, int]:
        """Directed-edge index range of tour block b (1-based block id)."""
        return self.traversal_blocks[b - 1]

    def block_edge_ids(self, b: int) -> list[int]:
        """Sorted distinct undirected edge ids covered by tour block b."""
        lo, hi = self.traversal_blocks[b - 1]
        return sorted({self.traversal.edge_indices[i] for i in range(lo, hi)})

    def block_vertices(self, b: int) -> list[int]:
        """Vertices visited by tour block b (start vertex plus edge heads)."""
        lo, hi = self.traversal_blocks[b - 1]
        seen = {self.traversal.directed_edges[lo][0]}
        for i in range(lo, hi):
            seen.add(self.traversal.directed_edges[i][1])
        return sorted(seen)

    def block_start_vertex(self, b: int) -> int:
        lo, _ = self.traversal_blocks[b - 1]
        return self.traversal.directed_edges[lo][0]

    def column_block_of(self, j: int) -> int:
        for c, (lo, hi) in enumerate(self.column_blocks, start=1):
            if lo <= j <= hi:
                return c
        raise InvalidPlanError(f"column {j} not covered by any block")


def plan_blocks(traversal: Traversal, edge_costs: Sequence[int], n: int) -> TraversalPlan:
    """Cut the tour into at most t = ceil(sqrt(M/n + 1)) blocks of cost at
    most ceil(M/t) + max edge cost, and the n columns into floor(n/t) blocks
    of at most t+1 consecutive columns.

    Greedy left-to-right: a block closes as soon as its cost reaches the
    budget ceil(M/t); a trailing zero-cost block merges into its
    predecessor.  t is clamped to floor(sqrt(n+1)) so that floor(n/t)
    column blocks of size at most t+1 can always cover all n columns.
    """
    m = len(traversal.directed_edges)
    if len(edge_costs) != m:
        raise InvalidPlanError(
            f"{len(edge_costs)} costs for {m} directed edges"
        )
    if any(c < 0 for c in edge_costs):
        raise InvalidPlanError("edge costs must be nonnegative")
    total = sum(edge_costs)
    t = math.ceil(math.sqrt(total / n + 1))
    t = min(t, math.isqrt(n + 1))
    t = max(t, 1)

    budget = max(1, math.ceil(total / t))
    blocks: list[tuple[int, int]] = []
    costs: list[int] = []
    start = 0
    acc = 0
    for i, c in enumerate(edge_costs):
        acc += c
        if acc >= budget:
            blocks.append((start, i + 1))
            costs.append(acc)
            start = i + 1
            acc = 0
    if start < m:
        blocks.append((start, m))
        costs.append(acc)
    if len(blocks) > 1 and costs[-1] == 0:
        lo, _ = blocks[-2]
        _, hi = blocks[-1]
        blocks[-2:] = [(lo, hi)]
        costs[-2:] = [costs[-2]]
    if len(blocks) > t:
        raise InvalidPlanError(f"{len(blocks)} blocks exceed t={t}")

    q = n // t
    base, extra = divmod(n, q)
    column_blocks: list[tuple[int, int]] = []
    lo = 1
    for c in range(q):
        size = base + (1 if c < extra else 0)
        column_blocks.append((lo, lo + size - 1))
        lo += size
    if any(hi - lo + 1 > t + 1 for lo, hi in column_blocks):
        raise InvalidPlanError("a column block exceeds t+1 columns")

    return TraversalPlan(
        traversal=traversal,
        total_cost=total,
        t=t,
        traversal_blocks=tuple(blocks),
        block_costs=tuple(costs),
        column_blocks=tuple(column_blocks),
    )


@dataclass(frozen=True)
class BlockAssignment:
    """Injective map from (tour block, column block) pairs to nodes:
    pair (b, c) lives at node (b-1) * floor(n/t) + c."""

    pair_to_node: dict[tuple[int, int], int]
    node_to_pair: dict[int, tuple[int, int]]

    def node_for(self, b: int, c: int) -> int:
        return self.pair_to_node[(b, c)]

    def nodes_for_block(self, b: int) -> list[int]:
        return sorted(v for (bb, _), v in self.pair_to_node.items() if bb == b)

    def nodes_for_column_block(self, c: int) -> list[int]:
        return sorted(v for (_, cc), v in self.pair_to_node.items() if cc == c)


def assign_pairs(plan: TraversalPlan, n: int) -> BlockAssignment:
    q = len(plan.column_blocks)
    if plan.num_blocks * q > n:
        raise InvalidPlanError(
            f"{plan.num_blocks * q} block pairs exceed {n} nodes"
        )
    pair_to_node = {}
    for b in range(1, plan.num_blocks + 1):
        for c in range(1, q + 1):
            pair_to_node[(b, c)] = (b - 1) * q + c
    node_to_pair = {v: bc for bc, v in pair_to_node.items()}
    return BlockAssignment(pair_to_node, node_to_pair)


@dataclass(frozen=True)
class WitnessSchedule:
    """Shared stage-1 routing rule for one tour block: which representative
    receives each witness position, with per-representative capacity big
    enough that at most O(total/n) representatives are used."""

    reps: tuple[int, ...]
    capacity: int
    edge_offsets: dict[int, int]
    total: int

    def rep_for_positions(self, pos: np.ndarray) -> np.ndarray:
        """The representative of each witness position."""
        idx = np.minimum(pos // self.capacity, len(self.reps) - 1)
        return np.asarray(self.reps, dtype=np.int64)[idx]


def witness_schedules(
    plan: TraversalPlan,
    assignment: BlockAssignment,
    distances: Mapping[int, int],
    n: int,
) -> dict[int, WitnessSchedule]:
    """Derive, for every tour block, the representative interval (the
    block's own pair nodes), per-representative capacity, and the position
    offset of each edge's witness run.  Pure function of shared data, so
    every node computes the identical schedule."""
    out: dict[int, WitnessSchedule] = {}
    for b in range(1, plan.num_blocks + 1):
        reps = tuple(assignment.nodes_for_block(b))
        edge_ids = plan.block_edge_ids(b)
        offsets: dict[int, int] = {}
        pos = 0
        for e in edge_ids:
            offsets[e] = pos
            pos += distances[e]
        capacity = max(2 * n, math.ceil(pos / len(reps))) if pos else 2 * n
        out[b] = WitnessSchedule(reps, capacity, offsets, pos)
    return out


# ---------------------------------------------------------------------------
# witness distribution (step 8)
# ---------------------------------------------------------------------------

def distribute_witnesses(engine: CliqueEngine) -> None:
    """Two-stage delivery: every edge owner routes each witness to one block
    representative chosen by the shared schedule (balanced, O(n) per
    representative), then representatives multicast their vectors to the
    block's pair nodes in sub-stages of at most n messages each.

    Reads per-node storage written by earlier steps (``wit``, ``plan``,
    ``assignment``, ``schedules``, ``distances``) and fills
    ``block_witnesses`` at every pair node.
    """
    n = engine.n
    cb = count_bits(n)
    # (edge, representative, coordinate) columns of every witness run
    runs = [(np.zeros(0, np.int64),) * 3]

    def build_stage1(node):
        wit = node.storage.get("wit")
        if wit is None:
            return
        plan: TraversalPlan = node.storage["plan"]
        schedules: dict[int, WitnessSchedule] = node.storage["schedules"]
        e = node.id
        coords = np.asarray(wit, dtype=np.int64)
        for b in range(1, plan.num_blocks + 1):
            sched = schedules[b]
            if e in sched.edge_offsets:
                pos = sched.edge_offsets[e] + np.arange(coords.size)
                runs.append((np.full(coords.size, e), sched.rep_for_positions(pos), coords))

    engine.local(build_stage1)
    edge, reps, coords = (np.concatenate(c) for c in zip(*runs))
    stage1 = Batch.build(engine.w, edge, reps, 2 * cb, (edge << cb) | (coords - 1), tag=edge)
    delivered, _ = bounded_route(engine, stage1, label="bounded_route")

    # representative -> (its packets (edge << cb) | (coordinate - 1), sorted
    # by (edge, coordinate), and its block's pair nodes)
    rep_packets: dict[int, tuple[np.ndarray, list[int]]] = {}
    coord_mask = (1 << cb) - 1

    def collect_rep(node):
        got = delivered.span(node.id)
        if got.start == got.stop:
            return
        sched_map: dict[int, WitnessSchedule] = node.storage["schedules"]
        assignment: BlockAssignment = node.storage["assignment"]
        pair = assignment.node_to_pair.get(node.id)
        b = pair[0] if pair else None
        cap = sched_map[b].capacity if b else 0
        packets = np.sort(delivered.payload[got].astype(np.int64))
        if b is None or packets.size > cap:
            raise SchedulingError(
                f"representative {node.id} got {packets.size} witnesses"
            )
        rep_packets[node.id] = (packets, assignment.nodes_for_block(b))

    engine.local(collect_rep)

    # stage 2: representatives push their packets to every pair node of
    # their block, as sub-vectors of at most n messages each
    received: dict[int, list[np.ndarray]] = {}
    if engine.accounted and rep_packets:
        # charge the published bound: O(1) sub-stages, each delivering one
        # vector from each of the O(block total / n) loaded representatives
        with engine.as_node(1) as node1:
            schedules: dict[int, WitnessSchedule] = node1.storage["schedules"]
        max_total = max(s.total for s in schedules.values())
        cap = max(s.capacity for s in schedules.values())
        used_pub = math.ceil(max_total / cap)
        substages = math.ceil(cap / n)
        per_subtask = multicast_accounted_rounds(n, min(cap, n), engine.cfg.c_idt)
        engine.charge_rounds(substages * used_pub * per_subtask, "vector_multicast")
        for rep in sorted(rep_packets):
            packets, recips = rep_packets[rep]
            for v in recips:
                if v != rep:
                    engine.count_traffic(rep, v, 2 * cb, count=packets.size)
                received.setdefault(v, []).append(packets)
    else:
        substages = max(
            (math.ceil(p.size / n) for p, _ in rep_packets.values()), default=0
        )
        for s in range(substages):
            senders = {}
            for rep in sorted(rep_packets):
                packets, recips = rep_packets[rep]
                part = packets[s * n:(s + 1) * n].tolist()
                if part:
                    senders[rep] = ([(p, 2 * cb) for p in part], recips)
            if not senders:
                continue
            out, _ = vector_multicast(engine, senders, label="vector_multicast")
            for v in sorted(out):
                for _, chunks in out[v]:
                    received.setdefault(v, []).append(
                        np.array([p for p, _ in chunks], dtype=np.int64)
                    )

    def store_block_witnesses(node):
        assignment: BlockAssignment = node.storage.get("assignment")
        if assignment is None or node.id not in assignment.node_to_pair:
            return
        plan: TraversalPlan = node.storage["plan"]
        distances: dict[int, int] = node.storage["distances"]
        b = assignment.node_to_pair[node.id][0]
        packets = np.sort(np.concatenate([np.zeros(0, np.int64)] + received.get(node.id, [])))
        edges, coords = packets >> cb, ((packets & coord_mask) + 1).tolist()
        by_edge: dict[int, list[int]] = {}
        block_edges = plan.block_edge_ids(b)
        lo = np.searchsorted(edges, block_edges, "left").tolist()
        hi = np.searchsorted(edges, block_edges, "right").tolist()
        for e, a, z in zip(block_edges, lo, hi):
            if z - a != distances[e]:
                raise SchedulingError(
                    f"pair node {node.id} holds {z - a} witnesses of edge {e}, "
                    f"expected {distances[e]}"
                )
            by_edge[e] = coords[a:z]
        node.storage["block_witnesses"] = by_edge

    engine.local(store_block_witnesses)


# ---------------------------------------------------------------------------
# block multiply (step 10 local part)
# ---------------------------------------------------------------------------

def block_multiply(
    start_vertex: int,
    start_row: BitVector,
    walk: Sequence[tuple[int, int, int]],
    witnesses_by_edge: Mapping[int, Sequence[int]],
    columns: Sequence[tuple[int, BitVector]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk the tour block reconstructing every row from the previous one and
    return the (row vertex, column index, bit) columns of each visited
    vertex x column.

    Entries come out at each vertex's first visit, in the given column
    order.  The witnesses of all walk edges are XORed at once into one mask
    of 64-bit words per edge (a repeated coordinate cancels, as two flips
    would), each applied to the whole row; the bits of all visited rows
    against all columns come from one product of their 0/1 arrays.  The
    paper's algorithm instead keeps one count of shared ones per column and
    updates it at every flipped coordinate; the ledger charges that work,
    (n + block cost) x columns, whatever this simulation spends.
    """
    n = start_row.n
    edges = list(dict.fromkeys(eidx for _, _, eidx in walk))
    lists = [witnesses_by_edge.get(e, ()) for e in edges]
    sizes = [len(c) for c in lists]
    coords = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=sum(sizes))
    if coords.size and (coords.min() < 1 or coords.max() > n):
        bad = coords.min() if coords.min() < 1 else coords.max()
        raise InvalidWitnessError(f"witness {bad} outside 1..{n}")
    words = (n + 63) // 64
    packed = np.zeros(len(edges) * words, dtype="<u8")
    np.bitwise_xor.at(
        packed,
        np.repeat(np.arange(len(edges)) * words, sizes) + (coords - 1) // 64,
        np.left_shift(np.uint64(1), ((coords - 1) % 64).astype(np.uint64)),
    )
    raw, size = packed.tobytes(), 8 * words
    masks = {e: int.from_bytes(raw[i * size:(i + 1) * size], "little") for i, e in enumerate(edges)}
    cur = start_row.value
    vertices, rows = [start_vertex], [cur]
    seen = {start_vertex}
    for (_, head, eidx) in walk:
        cur ^= masks[eidx]
        if head not in seen:
            seen.add(head)
            vertices.append(head)
            rows.append(cur)
    js = np.array([j for j, _ in columns], dtype=np.int64)
    cols = unpack_rows([col.value for _, col in columns], n).astype(np.float32)
    hits = unpack_rows(rows, n).astype(np.float32) @ cols.T
    return (
        np.repeat(np.array(vertices, dtype=np.int64), js.size),
        np.tile(js, len(vertices)),
        (hits > 0).astype(np.int64).ravel(),
    )


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------

# storage keys of the (tree rows, columns) roles in each orientation; "ba"
# computes (A o B) transposed
_ROLES = {"ab": ("a_row", "b_col"), "ba": ("b_col", "a_row")}


def _place_inputs(engine: CliqueEngine, A: BooleanMatrix, B: BooleanMatrix) -> None:
    """Check the inputs against the model, then put row i of A under
    ``a_row`` and row i of B under ``b_row`` at node i.  Every later step
    reads its inputs from node storage only."""
    n = engine.n
    if A.n != n or B.n != n:
        raise DimensionError(f"matrices must match n={n}")
    cb = count_bits(n)
    if engine.w < 2 * cb:
        raise DimensionError(
            f"payload capacity {engine.w} cannot carry an edge id and a coordinate "
            f"({2 * cb} bits) at n={n}"
        )

    def place(node):
        node.storage["a_row"] = A.row(node.id)
        node.storage["b_row"] = B.row(node.id)

    engine.local(place)


def _transpose_exchange(engine: CliqueEngine, src_key: str, out_key: str) -> None:
    """One relaxed routing task: node j ships bit i of the row it stores
    under ``src_key`` to node i, so node i stores column i under
    ``out_key``."""
    n = engine.n
    rows: list[BitVector] = []

    def send(node):
        rows.append(node.storage[src_key])

    engine.local(send)
    src = np.repeat(np.arange(1, n + 1), n)
    bits = BooleanMatrix(tuple(rows)).to_array().ravel()  # node j's bit i goes to node i
    batch = Batch.build(engine.w, src, np.tile(np.arange(1, n + 1), n), 1, bits, tag=src)
    delivered, _ = solve_relaxed_idt(engine, batch, label="relaxed_idt")
    received = np.zeros((n, n), dtype=np.uint8)
    received[delivered.dst - 1, delivered.src - 1] = delivered.payload
    columns = pack_rows(received)

    def build(node):
        node.storage[out_key] = BitVector(n, columns[node.id - 1])

    engine.local(build)


def _broadcast_tree(engine: CliqueEngine, label: str, suffix: str = "") -> None:
    """Node 1 sends edge j of the tree it stores under ``hmst_tree`` to node
    j; next round node j re-broadcasts it.  Afterwards every node stores the
    tree structure under ``tree``.  ``suffix`` extends every key, so the
    two candidate trees of the orientation choice keep apart."""
    n = engine.n
    cb = count_bits(n)
    with engine.as_node(1) as node1:
        tree: Tree = node1.storage["hmst_tree" + suffix]
    pairs = [(e.u, e.v) for e in tree.edges]

    owners = np.arange(2, len(pairs) + 1)
    src, dst = to_all_others(n, np.arange(1, len(pairs) + 1))
    engine.exchange(
        2,
        np.repeat([0, 1], [owners.size, src.size]),
        np.concatenate([np.ones(owners.size, np.int64), src]),
        np.concatenate([owners, dst]),
        2 * cb,
        label=label,
    )

    structure = Tree(n, tuple(WeightedEdge(u, v, 0) for u, v in pairs))

    def store(node):
        node.storage["tree" + suffix] = structure

    engine.local(store)


def _multicast_rows(
    engine: CliqueEngine, row_key: str, recipients: Callable[[NodeState], Sequence[int]]
) -> dict[int, dict[int, BitVector]]:
    """Every node multicasts the row it stores under ``row_key`` to the
    nodes ``recipients(node)`` names, if any.  Returns, per receiving node,
    the rows it received keyed by sender, in ascending sender order."""
    n = engine.n
    senders = {}

    def build(node):
        recips = recipients(node)
        if recips:
            row: BitVector = node.storage[row_key]
            senders[node.id] = (pack_chunks(row.value, n, engine.w), sorted(recips))

    engine.local(build)
    out, _ = vector_multicast(engine, senders, label="vector_multicast")
    return {
        v: {sender: BitVector(n, unpack_chunks(chunks)[0]) for sender, chunks in got}
        for v, got in out.items()
    }


def _deliver_endpoint_rows(engine: CliqueEngine, row_key: str, suffix: str = "") -> None:
    """Each node multicasts its row to the owners of its incident tree edges;
    every owner ends with both endpoint rows (at most two vectors each)
    under ``edge_rows``.  Nodes share one adjacency per distinct tree
    object (step 3 hands every node the same one)."""
    adjacency: dict[int, dict[int, list[tuple[int, int]]]] = {}

    def incident_edges(node):
        tree: Tree = node.storage["tree" + suffix]
        if id(tree) not in adjacency:
            adjacency[id(tree)] = tree.adjacency()
        return [idx for _, idx in adjacency[id(tree)][node.id]]

    received = _multicast_rows(engine, row_key, incident_edges)

    def store(node):
        node.storage["edge_rows" + suffix] = received.get(node.id, {})

    engine.local(store)


def _owner_distance_broadcast(engine: CliqueEngine, label: str, suffix: str = "") -> None:
    """Edge owner j computes the Hamming distance of its edge's endpoint
    rows (ceil(n/W) work) and broadcasts it to every node; all nodes store
    the full distance table under ``distances``.  The distances sum to the
    tree's true cost."""
    n = engine.n
    cb = count_bits(n)
    values: dict[int, int] = {}

    def compute(node):
        tree: Tree = node.storage["tree" + suffix]
        if node.id > n - 1:
            return
        e = tree.edge(node.id)
        rows: dict[int, BitVector] = node.storage["edge_rows" + suffix]
        values[node.id] = hamming_distance(rows[e.u], rows[e.v])
        engine.charge_work(node.id, math.ceil(n / engine.w))

    engine.local(compute)
    src, dst = to_all_others(n, sorted(values))
    engine.exchange(1, 0, src, dst, cb, label=label)

    table = dict(values)

    def store(node):
        node.storage["distances" + suffix] = table

    engine.local(store)


def _gather(engine: CliqueEngine) -> BooleanMatrix:
    """The product rows the nodes hold under ``c_row``."""
    return BooleanMatrix(tuple(engine.node(i).storage["c_row"] for i in engine.node_ids()))


def _flip(engine: CliqueEngine) -> BooleanMatrix:
    """Node i holds row i of (A o B) transposed; one exchange turns it into
    row i of A o B."""
    with engine.step("orient_transpose"):
        _transpose_exchange(engine, "c_row", "c_row")
    return _gather(engine)


def run_clusmat(
    engine: CliqueEngine, row_key: str, col_key: str, proj: ProjectionConfig
) -> tuple[BooleanMatrix, dict]:
    """Execute the ten protocol steps on ``engine`` whose nodes hold their
    inputs as :func:`_place_inputs` leaves them; returns the product and a
    plan summary.

    Step 1 gives node i column i of B under ``b_col``.  The tree then runs
    over the rows stored under ``row_key`` against the columns stored under
    ``col_key``: (``a_row``, ``b_col``) computes A o B, and (``b_col``,
    ``a_row``) computes (A o B) transposed."""
    # step 1: transpose exchange so node i also holds column i of B
    with engine.step("step1"):
        _transpose_exchange(engine, "b_row", "b_col")

    # step 2: approximate spanning tree of the rows at node 1
    with engine.step("step2"):
        run_hmst(engine, proj, point_key=row_key, step_prefix="step2_hmst_")

    # step 3: tree structure to every node
    with engine.step("step3"):
        _broadcast_tree(engine, label="step3")

    # step 4: endpoint rows to edge owners
    with engine.step("step4"):
        _deliver_endpoint_rows(engine, row_key)

    # step 5: distances at owners, then everywhere
    with engine.step("step5"):
        _owner_distance_broadcast(engine, label="step5")

    info = _multiply_along_tree(engine, row_key, col_key)
    return _gather(engine), info


def _multiply_along_tree(engine: CliqueEngine, row_key: str, col_key: str) -> dict:
    """Steps 6-10 on the tree, edge rows and distances each node stores
    under ``tree``, ``edge_rows`` and ``distances``; node i ends with row i
    of the product under ``c_row``.  Returns the plan summary."""
    n = engine.n
    cb = count_bits(n)

    # step 6: owners list their edge's witnesses; identical local planning
    # at every node.  Steps 3 and 5 hand every node the same tree and
    # distance objects, so nodes share one derivation per distinct pair,
    # keyed by identity (a node holding other objects derives its own); each
    # node is still charged 2n for it.
    with engine.step("step6"):

        def list_witnesses(node):
            if node.id > n - 1:
                return
            e = node.storage["tree"].edge(node.id)
            rows: dict[int, BitVector] = node.storage["edge_rows"]
            wit = witnesses(rows[e.u], rows[e.v])
            node.storage["wit"] = wit
            engine.charge_work(node.id, len(wit))

        engine.local(list_witnesses)
        derived: dict[tuple[int, int], tuple] = {}

        def make_plan(node):
            t: Tree = node.storage["tree"]
            distances: dict[int, int] = node.storage["distances"]
            key = (id(t), id(distances))
            if key not in derived:
                tour = euler_traversal(t, root=1, edge_costs=distances)
                plan = plan_blocks(
                    tour, [distances[e] for e in tour.edge_indices], n
                )
                assignment = assign_pairs(plan, n)
                schedules = witness_schedules(plan, assignment, distances, n)
                derived[key] = (plan, assignment, schedules)
            plan, assignment, schedules = derived[key]
            node.storage["plan"] = plan
            node.storage["assignment"] = assignment
            node.storage["schedules"] = schedules
            engine.charge_work(node.id, 2 * n)

        engine.local(make_plan)
        with engine.as_node(1) as node1:
            plan: TraversalPlan = node1.storage["plan"]

    # step 7: tour-block start rows to pair nodes
    with engine.step("step7"):

        def start_recipients(node):
            pl: TraversalPlan = node.storage["plan"]
            asg: BlockAssignment = node.storage["assignment"]
            recips: set[int] = set()
            for b in range(1, pl.num_blocks + 1):
                if pl.block_start_vertex(b) == node.id:
                    recips.update(asg.nodes_for_block(b))
            return recips

        start_rows = _multicast_rows(engine, row_key, start_recipients)

        def store_start(node):
            asg: BlockAssignment = node.storage["assignment"]
            pair = asg.node_to_pair.get(node.id)
            if pair is None:
                return
            pl: TraversalPlan = node.storage["plan"]
            row = start_rows.get(node.id, {}).get(pl.block_start_vertex(pair[0]))
            if row is None:
                raise SchedulingError(f"pair node {node.id} missed its start row")
            node.storage["start_row"] = row

        engine.local(store_start)

    # step 8: witnesses to every pair node
    with engine.step("step8"):
        distribute_witnesses(engine)

    # step 9: column blocks to pair nodes
    with engine.step("step9"):

        def column_recipients(node):
            pl: TraversalPlan = node.storage["plan"]
            asg: BlockAssignment = node.storage["assignment"]
            return asg.nodes_for_column_block(pl.column_block_of(node.id))

        col_rows = _multicast_rows(engine, col_key, column_recipients)

        def store_cols(node):
            asg: BlockAssignment = node.storage["assignment"]
            pair = asg.node_to_pair.get(node.id)
            if pair is None:
                return
            pl: TraversalPlan = node.storage["plan"]
            lo, hi = pl.column_blocks[pair[1] - 1]
            cols = sorted(col_rows.get(node.id, {}).items())
            got = [j for j, _ in cols]
            if got != list(range(lo, hi + 1)):
                raise SchedulingError(
                    f"pair node {node.id} got columns {got}, wanted {lo}..{hi}"
                )
            node.storage["columns"] = cols

        engine.local(store_cols)

    # step 10: incremental multiply, then entries home as (vertex, column,
    # bit) columns; every row is assembled by one scatter into an n x n grid
    with engine.step("step10"):
        blocks: list[tuple[np.ndarray, ...]] = []  # (src, vertex, column, bit)

        def multiply(node):
            asg: BlockAssignment = node.storage["assignment"]
            pair = asg.node_to_pair.get(node.id)
            if pair is None:
                return
            pl: TraversalPlan = node.storage["plan"]
            b, _ = pair
            lo, hi = pl.block_edge_range(b)
            walk = [
                (
                    pl.traversal.directed_edges[i][0],
                    pl.traversal.directed_edges[i][1],
                    pl.traversal.edge_indices[i],
                )
                for i in range(lo, hi)
            ]
            vertex, j, bit = block_multiply(
                pl.block_start_vertex(b),
                node.storage["start_row"],
                walk,
                node.storage["block_witnesses"],
                node.storage["columns"],
            )
            engine.charge_work(
                node.id, (n + pl.block_costs[b - 1]) * len(node.storage["columns"])
            )
            blocks.append((np.full(vertex.size, node.id), vertex, j, bit))

        engine.local(multiply)
        src, vertex, j, bit = (np.concatenate(c) for c in zip(*blocks))
        entries = Batch.build(engine.w, src, vertex, cb + 1, ((j - 1) << 1) | bit, tag=j)
        delivered10, _ = bounded_route(engine, entries, label="bounded_route")
        # entry (row, column): 0 not received, 1 a zero bit, 2 a one bit
        got = delivered10.payload.astype(np.int64)
        entry = np.zeros((n, n), dtype=np.int8)
        np.maximum.at(entry, (delivered10.dst - 1, got >> 1), 1 + (got & 1))
        counts = (entry > 0).sum(axis=1).tolist()
        values = pack_rows(entry == 2)

        def assemble(node):
            if counts[node.id - 1] != n:
                raise SchedulingError(
                    f"row {node.id} incomplete: {counts[node.id - 1]} of {n} entries"
                )
            node.storage["c_row"] = BitVector(n, values[node.id - 1])

        engine.local(assemble)

    return {
        "m_realized": plan.total_cost,
        "t": plan.t,
        "blocks": plan.num_blocks,
        "column_blocks": len(plan.column_blocks),
    }


def clusmat_protocol(
    A: BooleanMatrix,
    B: BooleanMatrix,
    cfg: CliqueConfig,
    proj: ProjectionConfig | None = None,
) -> tuple[BooleanMatrix, RoundLedger, dict]:
    """Full product run on a fresh engine; node i starts with row i of A and
    row i of B and finishes with row i of C = A o B."""
    return clusmat_oriented(A, B, cfg, proj)


def clusmat_oriented(
    A: BooleanMatrix,
    B: BooleanMatrix,
    cfg: CliqueConfig,
    proj: ProjectionConfig | None = None,
    orientation: str = "ab",
) -> tuple[BooleanMatrix, RoundLedger, dict]:
    """Product run with a forced orientation: ``ab`` follows A's rows,
    ``ba`` follows B's columns and flips the result back."""
    if orientation not in _ROLES:
        raise ValueError(f"orientation must be 'ab' or 'ba', got {orientation!r}")
    engine = CliqueEngine(cfg)
    _place_inputs(engine, A, B)
    C, info = run_clusmat(engine, *_ROLES[orientation], proj or ProjectionConfig())
    if orientation == "ba":
        C = _flip(engine)
    return C, engine.ledger, info


def choose_orientation(
    A: BooleanMatrix,
    B: BooleanMatrix,
    cfg: CliqueConfig,
    proj: ProjectionConfig | None = None,
) -> tuple[BooleanMatrix, str, RoundLedger, dict]:
    """Build approximate trees for A's rows and for B's columns, run steps
    3-5 on each, and run steps 6-10 once, on the cheaper tree (ties go to
    the row side).  Step 5 hands every node both trees' edge distances, so
    each node makes the same choice locally.  The transposed run's result
    is transposed back, so the output equals A o B either way."""
    proj = proj or ProjectionConfig()
    engine = CliqueEngine(cfg)
    _place_inputs(engine, A, B)

    # candidate tree for the rows of A
    with engine.step("orient_tree_a"):
        run_hmst(engine, proj, point_key="a_row", tree_key="hmst_tree_ab", step_prefix="orient_a_")

    # candidate tree for the columns of B, which step 1 would deliver anyway
    with engine.step("orient_tree_b"):
        _transpose_exchange(engine, "b_row", "b_col")
        run_hmst(engine, proj, point_key="b_col", tree_key="hmst_tree_ba", step_prefix="orient_b_")

    # steps 3-5 on each candidate, then every node adopts the cheaper one
    with engine.step("orient_choice"):
        for side, (row_key, _) in _ROLES.items():
            _broadcast_tree(engine, label="step3", suffix="_" + side)
            _deliver_endpoint_rows(engine, row_key, suffix="_" + side)
            _owner_distance_broadcast(engine, label="step5", suffix="_" + side)

        def choose(node):
            st = node.storage
            costs = {side: sum(st["distances_" + side].values()) for side in _ROLES}
            side = "ba" if costs["ba"] < costs["ab"] else "ab"
            for key in ("tree", "edge_rows", "distances"):
                st[key] = st[key + "_" + side]
            st["orient_costs"] = costs
            st["orientation"] = side

        engine.local(choose)

    with engine.as_node(1) as node1:
        orientation: str = node1.storage["orientation"]
        costs: dict[str, int] = node1.storage["orient_costs"]
    info = _multiply_along_tree(engine, *_ROLES[orientation])
    C = _gather(engine) if orientation == "ab" else _flip(engine)
    info["cost_a"] = costs["ab"]
    info["cost_b"] = costs["ba"]
    return C, orientation, engine.ledger, info
