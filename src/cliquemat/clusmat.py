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
simulation reaches the same entries more cheaply on the host: a block's
rows come from one prefix XOR of per-edge masks (:func:`visited_rows`), and
the tour blocks whose pair nodes hold the same column rows are multiplied
in one product over their stacked rows (one :func:`block_multiply` per
column set; in the protocol every block's pair nodes hold the same one);
each node gets the entries of its own columns and is charged its own
work.  In steps 8 and 10 each node's phase emits only what it holds, and
the routing columns are built from that in one pass per shared object
(:func:`_stage1_columns`, :func:`_pair_entries`).  Bulk routing tasks are
built and read as numpy columns; steps 3 and 5 broadcast through the
engine's closed-form all-to-all round.  From step 5 on, the plan reads one
array per tree for the tour (the tree's walk, which each tour block
slices) and one for the distances (entry e is edge e's distance).

Inputs come from node storage only: the entry points put row i of A and
row i of B at node i once, and every step after that reads what the nodes
hold.  Steps (per-step round subtotals land in ``ledger.step_rounds``):

 1. every node learns its column of B (transpose exchange);
 2. approximate spanning tree of A's rows, built at node 1;
 3. node 1 ships edge j to node j, which re-broadcasts it;
 4. each row goes to the owners of its incident tree edges;
 5. edge owners compute their edge's distance in every candidate tree and
    broadcast them in one message; every node picks the cheapest tree;
 6. edge owners list their edge's witnesses; every node derives the same
    tour, blocks, and pair assignment locally;
 7. tour-block start rows go to the assigned pair nodes;
 8. witnesses go to block representatives, then to all pair nodes;
 9. column blocks go to the assigned pair nodes;
10. pair nodes decode their witnesses, rebuild their block's rows, multiply
    incrementally and route finished entries home.

Steps 7-9 only deliver: every node stores what it received, and step 10 is
each pair node's one local phase over it, followed by one product per
column set.

The paper's bound takes M from the cheaper of the trees over A's rows and
over B's columns, so the orientation is part of the protocol.  Orientation
``ba`` swaps the roles: the tree spans B's columns (from step 1) against
A's rows, so the nodes end with (A o B) transposed and one more transpose
exchange flips it.  :func:`run_clusmat` hands out one projection family
in step 2 (hmst step 1, :func:`~cliquemat.hmst.distribute_projections`),
builds each candidate's tree on it and runs steps 3 and 4 once per
candidate, each step's rounds summed over them (a tree and what steps 3-5
derive from it are keyed by the rows it spans, so candidates keep apart).
Step 5 is one broadcast: each edge owner's message carries its edge's
distance in every candidate tree.  Steps 6-10 run once, on the cheapest
tree.  A forced orientation is one candidate; :func:`choose_orientation`
passes ``ab`` and ``ba``.

End-to-end correctness is exact for every seed: randomness only moves the
tree, and steps 4-10 are correct for any spanning tree.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .bits import (
    BooleanMatrix,
    Traversal,
    Tree,
    euler_traversal,
    hamming_distance,
    own_rows,
    pack_chunks,
    unpack_chunks,
    witnesses,
)
from .engine import CliqueConfig, CliqueEngine, NodeState, RoundLedger
from .errors import (
    DimensionError,
    InvalidPlanError,
    InvalidWitnessError,
    SchedulingError,
)
from .hmst import ProjectionConfig, distribute_projections, run_hmst
from .routing import (
    Batch,
    bounded_route,
    count_bits,
    multicast_accounted_rounds,
    solve_relaxed_idt,
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

    def block_edge_ids(self, b: int) -> np.ndarray:
        """Sorted distinct undirected edge ids covered by tour block b."""
        lo, hi = self.traversal_blocks[b - 1]
        return np.flatnonzero(np.bincount(self.traversal.walk[lo:hi, 2]))

    def block_start_vertex(self, b: int) -> int:
        return int(self.traversal.walk[self.traversal_blocks[b - 1][0], 0])

    def blocks_by_start_vertex(self) -> dict[int, list[int]]:
        """Start vertex -> the tour blocks that start there, ascending."""
        out: dict[int, list[int]] = {}
        for b in range(1, self.num_blocks + 1):
            out.setdefault(self.block_start_vertex(b), []).append(b)
        return out

    def column_block_of(self, j: int) -> int:
        c = bisect_right(self.column_blocks, (j, math.inf))
        if c == 0 or j > self.column_blocks[c - 1][1]:
            raise InvalidPlanError(f"column {j} not covered by any block")
        return c


def plan_blocks(traversal: Traversal, n: int) -> TraversalPlan:
    """Cut the tour into at most t = ceil(sqrt(M/n + 1)) blocks of cost at
    most ceil(M/t) + max edge cost, and the n columns into floor(n/t) blocks
    of at most t+1 consecutive columns; M is the total of the tour's
    per-directed-edge costs.

    Greedy left-to-right: a block closes as soon as its cost reaches the
    budget ceil(M/t); a trailing zero-cost block merges into its
    predecessor.  t is clamped to floor(sqrt(n+1)) so that floor(n/t)
    column blocks of size at most t+1 can always cover all n columns.
    """
    m = len(traversal)
    edge_costs = traversal.costs.tolist()
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

    cuts = np.array_split(np.arange(1, n + 1), n // t)
    column_blocks = [(int(c[0]), int(c[-1])) for c in cuts]
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
    """Injective map from (tour block, column block) pairs to nodes: pair
    (b, c) lives at node (b-1) * q + c, where q = floor(n/t) is the number
    of column blocks, so every lookup is closed form."""

    num_blocks: int
    q: int

    def pair_of(self, v: int) -> tuple[int, int] | None:
        """The (tour block, column block) pair node v serves, if any."""
        b, c = divmod(v - 1, self.q)
        return (b + 1, c + 1) if 1 <= v <= self.num_blocks * self.q else None

    def nodes_for_block(self, b: int) -> range:
        return range((b - 1) * self.q + 1, b * self.q + 1) if 1 <= b <= self.num_blocks else range(0)

    def nodes_for_column_block(self, c: int) -> range:
        return range(c, self.num_blocks * self.q + 1, self.q) if 1 <= c <= self.q else range(0)


def assign_pairs(plan: TraversalPlan, n: int) -> BlockAssignment:
    q = len(plan.column_blocks)
    if plan.num_blocks * q > n:
        raise InvalidPlanError(
            f"{plan.num_blocks * q} block pairs exceed {n} nodes"
        )
    return BlockAssignment(plan.num_blocks, q)


@dataclass(frozen=True)
class WitnessSchedule:
    """Shared stage-1 routing rule for one tour block: which representative
    receives each witness position, with per-representative capacity big
    enough that at most O(total/n) representatives are used."""

    reps: range
    capacity: int
    edge_offsets: dict[int, int]
    total: int


def witness_schedules(
    plan: TraversalPlan,
    assignment: BlockAssignment,
    distances: np.ndarray,
    n: int,
) -> dict[int, WitnessSchedule]:
    """Derive, for every tour block, the representative interval (the
    block's own pair nodes), per-representative capacity, and the position
    offset of each edge's witness run.  Pure function of shared data, so
    every node computes the identical schedule."""
    out: dict[int, WitnessSchedule] = {}
    for b in range(1, plan.num_blocks + 1):
        reps = assignment.nodes_for_block(b)
        edge_ids = plan.block_edge_ids(b)
        counts = distances[edge_ids]
        offsets = dict(zip(edge_ids.tolist(), (np.cumsum(counts) - counts).tolist()))
        pos = int(counts.sum())
        capacity = max(2 * n, math.ceil(pos / len(reps))) if pos else 2 * n
        out[b] = WitnessSchedule(reps, capacity, offsets, pos)
    return out


def _derive_plan(
    tree: Tree, distances: np.ndarray, n: int
) -> tuple[TraversalPlan, BlockAssignment, dict[int, WitnessSchedule]]:
    """Step 6 at any node: the tour of the tree under the edge distances,
    its blocks, the pair assignment and the witness schedules."""
    plan = plan_blocks(euler_traversal(tree, edge_costs=distances), n)
    assignment = assign_pairs(plan, n)
    return plan, assignment, witness_schedules(plan, assignment, distances, n)


# ---------------------------------------------------------------------------
# witness distribution (step 8)
# ---------------------------------------------------------------------------

def _block_witnesses(
    n: int, plan: TraversalPlan, b: int, distances: np.ndarray, *arrays: np.ndarray
) -> dict[int, np.ndarray]:
    """Tour block b's witness lists (edge -> ascending coordinates) from the
    packet arrays one of its pair nodes received in step 8; step 10 decodes
    them."""
    cb = count_bits(n)
    packets = np.sort(np.concatenate([np.zeros(0, np.int64), *arrays]))
    edges, coords = packets >> cb, (packets & ((1 << cb) - 1)) + 1
    block_edges = plan.block_edge_ids(b)
    lo = np.searchsorted(edges, block_edges, "left")
    hi = np.searchsorted(edges, block_edges, "right")
    short = np.flatnonzero(hi - lo != distances[block_edges])
    if short.size:
        e = block_edges[short[0]]
        raise SchedulingError(
            f"a pair node of block {b} holds {hi[short[0]] - lo[short[0]]} witnesses "
            f"of edge {e}, expected {distances[e]}"
        )
    return {e: coords[a:z] for e, a, z in zip(block_edges.tolist(), lo.tolist(), hi.tolist())}


def _witness_runs(
    schedules: dict[int, WitnessSchedule], owners: Sequence[int]
) -> np.ndarray:
    """The (edge, offset, first representative, representatives, capacity)
    rows, as int64 columns, of every edge of ``owners`` in every tour block
    of ``schedules`` that covers it: blocks in the dict's order, each
    block's edges ascending."""
    runs = np.array([
        (e, offset, s.reps.start, len(s.reps), s.capacity)
        for s in schedules.values() for e, offset in s.edge_offsets.items()
    ], dtype=np.int64).reshape(-1, 5).T
    return runs[:, np.isin(runs[0], owners)]


def _stage1_columns(
    owned: Mapping[int, tuple[np.ndarray, dict[int, WitnessSchedule]]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage 1 of step 8 as (edge, representative, coordinate) columns.
    ``owned`` maps each edge owner, ascending, to its witness array and
    the schedules it holds.  Every witness of each owner's edge goes, in
    each tour block that covers the edge, to the representative that its
    position in the block's run picks; rows are in (owner, block,
    position) order.

    The runs are read once per distinct schedules object, for the owners
    holding it, as :func:`~cliquemat.hmst.sketch_bits` groups nodes by
    family; one pass over all runs then lays out the columns."""
    groups: dict[int, tuple[dict[int, WitnessSchedule], list[int]]] = {}
    for e, (_, schedules) in owned.items():
        groups.setdefault(id(schedules), (schedules, []))[1].append(e)
    runs = np.concatenate(
        [np.zeros((5, 0), np.int64)] + [_witness_runs(*g) for g in groups.values()], axis=1
    )
    edge, offset, first, reps, capacity = runs[:, np.argsort(runs[0], kind="stable")]
    wits = [owned[e][0] for e in edge.tolist()]
    count = np.array([wit.size for wit in wits], dtype=np.int64)
    # each row's position in its block's run, then its representative
    pos = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - offset, count)
    rep = np.repeat(first, count) + np.minimum(
        pos // np.repeat(capacity, count), np.repeat(reps - 1, count)
    )
    return np.repeat(edge, count), rep, np.concatenate([np.zeros(0, np.int64), *wits])


def distribute_witnesses(engine: CliqueEngine) -> None:
    """Two-stage delivery: every edge owner routes each witness to one block
    representative chosen by the shared schedule (balanced, O(n) per
    representative), then representatives multicast their vectors to the
    block's pair nodes.

    Reads per-node storage written by step 6 (``wit``, ``schedules``,
    ``assignment``).  Each representative receives the packets stage 1
    delivered to it under ``stage1_packets``, as int64, and takes them out
    to send them on; every node ends with its received packet arrays
    under ``witness_packets``.

    Accounted, stage 2 counts one message per packet copy from its
    representative and leaves out the multicast announcements (ranks and
    whose-vector messages) that accounted ``vector_multicast`` counts, so
    it counts fewer messages and bits than the simulated stage 2 sends.
    """
    n = engine.n
    cb = count_bits(n)

    # every edge owner emits its witnesses and the schedules it holds
    def emit_witnesses(node):
        wit = node.storage.get("wit")
        return None if wit is None else (wit, node.storage["schedules"])

    edge, reps, coords = _stage1_columns(engine.local(emit_witnesses))
    stage1 = Batch.build(engine.w, edge, reps, 2 * cb, (edge << cb) | (coords - 1))
    delivered, _ = bounded_route(engine, stage1)
    # each representative's rows of the delivery: one stable sort by
    # receiver, then one search
    by_dst = np.argsort(delivered.dst, kind="stable")
    payload = delivered.payload[by_dst]
    cuts = np.searchsorted(delivered.dst[by_dst], np.arange(1, n + 2)).tolist()
    engine.put("stage1_packets", {
        v: payload[lo:hi].astype(np.int64)
        for v, lo, hi in zip(engine.node_ids(), cuts, cuts[1:]) if lo < hi
    })

    # a representative's packets (edge << cb) | (coordinate - 1), sorted by
    # (edge, coordinate), and its block's pair nodes
    def collect_rep(node):
        packets = node.storage.pop("stage1_packets", None)
        if packets is None:
            return None
        packets.sort()
        pair = node.storage["assignment"].pair_of(node.id)
        sched: WitnessSchedule | None = node.storage["schedules"][pair[0]] if pair else None
        if sched is None or packets.size > sched.capacity:
            raise SchedulingError(f"representative {node.id} got {packets.size} witnesses")
        return packets, sched.reps

    rep_packets: dict[int, tuple[np.ndarray, range]] = engine.local(collect_rep)

    # stage 2: representatives push their packets to every pair node of
    # their block; both backends deliver the same arrays and differ only in
    # what they charge
    received: dict[int, list[np.ndarray]] = {}
    for packets, recips in rep_packets.values():
        for v in recips:
            received.setdefault(v, []).append(packets)
    if engine.accounted and rep_packets:
        # charge the published bound: O(1) sub-stages, each delivering one
        # vector from each of the O(block total / n) loaded representatives
        with engine.as_node(1) as node1:
            schedules: dict[int, WitnessSchedule] = node1.storage["schedules"]
        max_total = max(s.total for s in schedules.values())
        cap = max(s.capacity for s in schedules.values())
        used_pub = math.ceil(max_total / cap)
        substages = math.ceil(cap / n)
        per_subtask = multicast_accounted_rounds(n, min(cap, n))
        engine.charge_rounds(substages * used_pub * per_subtask, "vector_multicast")
        reps = list(rep_packets)
        fan = [len(rep_packets[rep][1]) for rep in reps]
        src = np.repeat(reps, fan)
        dst = np.concatenate([rep_packets[rep][1] for rep in reps])
        count = np.repeat([rep_packets[rep][0].size for rep in reps], fan) * (src != dst)
        load = np.bincount(src, count, n + 1) + np.bincount(dst, count, n + 1)
        engine.count_traffic(count.sum(), 2 * cb * count.sum(), load.astype(np.int64))
    else:
        # each packet is one 2*cb-bit chunk, in the payload column's dtype
        dtype = delivered.payload.dtype
        vector_multicast(engine, {
            rep: (np.stack((p, np.full_like(p, 2 * cb)), axis=1).astype(dtype), recips)
            for rep, (p, recips) in rep_packets.items()
        })
    engine.put("witness_packets", {v: received.get(v, []) for v in engine.node_ids()})


# ---------------------------------------------------------------------------
# block multiply (step 10 local part)
# ---------------------------------------------------------------------------

def visited_rows(
    start_vertex: int,
    start_row: np.ndarray,
    walk: np.ndarray,
    witnesses_by_edge: Mapping[int, Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild every row a tour block visits from its 0/1 start row and the
    witness lists of its walk, a (steps, 3) int64 array of (tail, head,
    edge) rows; returns the vertices in first-visit order and, for
    each, its row at that visit as one 0/1 float32 row of an array ready
    for :func:`block_multiply`.

    The witnesses of each distinct walk edge make one 0/1 mask: a
    coordinate listed an odd number of times is set, an even one cancels,
    as two flips would.  The counts come from one sort of the flat (edge,
    coordinate) indices.  The row after step i is the start row XOR the
    running XOR of the first i step masks, taken over the whole walk at
    once.
    """
    n = len(start_row)
    _, heads, eidx = walk.T
    edges, step_edge = np.unique(eidx, return_inverse=True)
    lists = [np.asarray(witnesses_by_edge.get(e, ()), dtype=np.int64) for e in edges.tolist()]
    coords = np.concatenate([np.zeros(0, np.int64), *lists])
    if coords.size and (coords.min() < 1 or coords.max() > n):
        bad = coords.min() if coords.min() < 1 else coords.max()
        raise InvalidWitnessError(f"witness {bad} outside 1..{n}")
    flat = np.repeat(np.arange(edges.size) * n - 1, [c.size for c in lists]) + coords
    flat, count = np.unique(flat, return_counts=True)
    masks = np.zeros((edges.size, n), dtype=np.uint8)
    masks.reshape(-1)[flat] = count & 1
    rows = np.vstack([start_row, np.bitwise_xor.accumulate(masks[step_edge], axis=0) ^ start_row])
    vertices = np.concatenate([[start_vertex], heads])
    first = np.sort(np.unique(vertices, return_index=True)[1])
    return vertices[first], rows[first].astype(np.float32)


def _block_rows(
    plan: TraversalPlan,
    b: int,
    start_row: np.ndarray,
    witnesses_by_edge: Mapping[int, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`visited_rows` of tour block b, its walk a slice of the tour's."""
    lo, hi = plan.traversal_blocks[b - 1]
    walk = plan.traversal.walk[lo:hi]
    return visited_rows(plan.block_start_vertex(b), start_row, walk, witnesses_by_edge)


def block_multiply(
    vertices: np.ndarray, rows: np.ndarray, columns: Sequence[tuple[int, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row vertex, column index, bit) columns of each visited vertex x
    column, vertices in the order given and columns in the given order.

    ``vertices`` and ``rows`` are the rows of one tour block from
    :func:`visited_rows`, or of several stacked; the bits of all of them
    against all columns come from one product of 0/1 arrays, for which the
    columns are converted once.  The paper's algorithm instead keeps
    one count of shared ones per column and updates it at every flipped
    coordinate; the ledger charges that work, (n + block cost) x columns,
    whatever this simulation spends.
    """
    js = np.array([j for j, _ in columns], dtype=np.int64)
    cols = np.array([col for _, col in columns], dtype=np.float32).reshape(len(js), rows.shape[1])
    bits = (rows @ cols.T > 0).astype(np.int64).ravel()
    del cols  # before the entry columns are allocated
    return np.repeat(vertices, js.size), np.tile(js, len(vertices)), bits


def _pair_entries(
    emitted: Mapping[int, tuple[tuple[np.ndarray, np.ndarray], Mapping[int, np.ndarray]]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step 10's (pair node, vertex, column, bit) columns.  ``emitted``
    maps each pair node, ascending, to its tour block's rows from
    :func:`visited_rows` and its ``{column: row}`` dict.

    The pair nodes holding the same block rows (one tour block's) form a
    block, in the order of their first nodes; a block's entries are each
    visited vertex against its pair nodes' columns, in node order.  The
    blocks whose pair nodes hold the same column rows, in the same order,
    share one :func:`block_multiply` over their stacked rows, so each column
    set is converted for the product once."""
    by_rows: dict[int, tuple[tuple, list[int], list[Mapping[int, np.ndarray]]]] = {}
    for v, (block_rows, cols) in emitted.items():
        _, nodes, dicts = by_rows.setdefault(id(block_rows), (block_rows, [], []))
        nodes.append(v)
        dicts.append(cols)
    blocks = list(by_rows.values())
    products: dict[tuple, list[int]] = {}
    for b, (_, _, dicts) in enumerate(blocks):
        js = tuple(j for cols in dicts for j in cols)
        objs = [col for cols in dicts for col in cols.values()]
        products.setdefault((js, *map(id, objs)), []).append(b)
    pieces: list = [None] * len(blocks)
    for (js, *_), members in products.items():
        columns = [item for cols in blocks[members[0]][2] for item in cols.items()]
        vertices, rows = (np.concatenate(c) for c in zip(*(blocks[b][0] for b in members)))
        counts = [len(blocks[b][0][0]) for b in members]
        # row i: each column's pair node in member block i
        owners = np.stack([
            np.repeat(nodes, [len(cols) for cols in dicts])
            for _, nodes, dicts in (blocks[b] for b in members)
        ])
        entries = (
            owners[np.repeat(np.arange(len(members)), counts)].ravel(),
            *block_multiply(vertices, rows, columns),
        )
        if len(products) == 1:  # one product covers every block, in order
            return entries
        cuts = np.cumsum(counts)[:-1] * len(js)
        for b, *piece in zip(members, *(np.split(c, cuts) for c in entries)):
            pieces[b] = piece
    return tuple(np.concatenate(c) for c in zip(*pieces))


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
    engine.put("a_row", dict(enumerate(own_rows(A.bits), 1)))
    engine.put("b_row", dict(enumerate(own_rows(B.bits), 1)))


def _transpose_exchange(engine: CliqueEngine, src_key: str, out_key: str) -> None:
    """One relaxed routing task: node j ships bit i of the row it stores
    under ``src_key`` to node i, so node i stores column i under
    ``out_key``.  The items are laid out by (dst, src), and routing hands
    the batch back in its order, so the delivered payloads are the columns,
    row-major.  The schedule is the (src, dst) layout's: each source's
    items still go in ascending destination, one per ordered pair, so
    ranks, intermediates, drain ranks and loads stay the same."""
    n = engine.n
    rows = engine.local(lambda node: node.storage[src_key])
    ids = np.arange(1, n + 1)
    bits = np.stack(list(rows.values()), axis=1)  # [i-1, j-1]: node j's bit i
    batch = Batch.build(engine.w, np.tile(ids, n), np.repeat(ids, n), 1, bits.ravel())
    delivered, _ = solve_relaxed_idt(engine, batch)
    engine.put(out_key, dict(enumerate(own_rows(delivered.payload.reshape(n, n)), 1)))


def _broadcast_tree(engine: CliqueEngine, row_key: str) -> None:
    """Node 1 sends edge j of the tree over the rows under ``row_key``, which
    it stores under ``("hmst_tree", row_key)``, to node j; next round node j
    re-broadcasts it.  Afterwards every node stores the tree structure under
    ``("tree", row_key)``: the same edges at weight 0, sharing node 1's
    walk, so only node 1 holds estimated weights."""
    n = engine.n
    cb = count_bits(n)
    with engine.as_node(1) as node1:
        tree: Tree = node1.storage["hmst_tree", row_key]

    # round 0: node 1 to nodes 2..n-1; round 1: nodes 1..n-1 to all others
    engine.exchange(2, 0, 1, np.arange(2, n), 2 * cb, "step3", ((1, np.arange(1, n), 2 * cb),))

    engine.put(("tree", row_key), dict.fromkeys(engine.node_ids(), tree.structure()))


def _multicast_rows(
    engine: CliqueEngine, row_key: str, recipients: Callable[[NodeState], Sequence[int]],
    out_key: Hashable,
) -> None:
    """Every node multicasts the row it stores under ``row_key`` to the
    nodes ``recipients(node)`` names, if any.  Every node then stores the
    rows it received under ``out_key``, keyed by sender in ascending sender
    order, ``{}`` if none arrived."""
    n = engine.n

    def build(node):
        recips = recipients(node)
        if not recips:
            return None
        return node.storage[row_key], sorted(recips)

    sending = engine.local(build)
    chunks = np.stack(pack_chunks([row for row, _ in sending.values()], engine.w), axis=1)
    split = np.split(chunks, len(sending))
    sent, _ = vector_multicast(engine, {
        s: (vec, recips) for vec, (s, (_, recips)) in zip(split, sending.items())
    })
    # every recipient of a sender holds its vector, decoded once into one
    # shared row; senders ascend, so each node's rows do too
    flat = np.concatenate([vec for vec, _ in sent.values()])
    rows = own_rows(unpack_chunks(flat[:, 0], flat[:, 1], n))
    received: dict[int, dict[int, np.ndarray]] = {v: {} for v in engine.node_ids()}
    for (s, (_, recips)), row in zip(sent.items(), rows):
        for v in recips:
            received[v][s] = row
    engine.put(out_key, received)


def _deliver_endpoint_rows(engine: CliqueEngine, row_key: str) -> None:
    """Each node multicasts its row under ``row_key`` to the owners of its
    incident edges of the tree under ``("tree", row_key)``; every owner ends
    with both endpoint rows (at most two vectors each) under
    ``("edge_rows", row_key)``."""

    def incident_edges(node):
        return [idx for _, idx in node.storage["tree", row_key].adjacency[node.id]]

    _multicast_rows(engine, row_key, incident_edges, ("edge_rows", row_key))


def _owner_distance_broadcast(engine: CliqueEngine, rows: Sequence[str]) -> None:
    """Edge owner j computes the Hamming distance of its edge's endpoint
    rows in the tree over each key of ``rows`` (ceil(n/W) work each) and
    broadcasts them all in one message of ``len(rows)`` cb-bit fields; every
    node stores each tree's full distance table under
    ``("distances", row_key)``, one read-only (n,) int64 array whose entry e
    is edge e's distance (entry 0 unused).  The distances sum to the tree's
    true cost."""
    n = engine.n
    cb = count_bits(n)

    def compute(node):
        if node.id > n - 1:
            return None
        fields = []
        for row_key in rows:
            e = node.storage["tree", row_key].edge(node.id)
            ends: dict[int, np.ndarray] = node.storage["edge_rows", row_key]
            engine.charge_work(node.id, math.ceil(n / engine.w))
            fields.append(hamming_distance(ends[e.u], ends[e.v]))
        return fields

    table = engine.local(compute)
    engine.broadcast(list(table), len(rows) * cb, label="step5")
    # field i of every message is the tree over rows[i]'s
    for row_key, column in zip(rows, zip(*table.values())):
        distances = np.array([0, *column], dtype=np.int64)
        distances.flags.writeable = False
        engine.put(("distances", row_key), dict.fromkeys(engine.node_ids(), distances))


def run_clusmat(
    engine: CliqueEngine, orientations: Sequence[str], proj: ProjectionConfig
) -> tuple[BooleanMatrix, str, dict[str, int], dict]:
    """Execute the ten protocol steps on ``engine`` whose nodes hold their
    inputs as :func:`_place_inputs` leaves them; returns A o B, the chosen
    orientation, each candidate's tree cost and a plan summary.

    Step 2 hands out one projection family and builds a tree on it for
    each of ``orientations`` in the order given; steps 3 and 4 run per
    candidate and step 5 broadcasts every candidate's distances at once.
    Every node then picks the cheapest tree (ties to the first candidate)
    and steps 6-10 run once on it."""
    rows = [_ROLES[o][0] for o in orientations]

    # step 1: transpose exchange so node i also holds column i of B
    with engine.step("step1"):
        _transpose_exchange(engine, "b_row", "b_col")

    # step 2: one projection family for every candidate, then an
    # approximate spanning tree of each candidate's rows at node 1
    with engine.step("step2"):
        distribute_projections(engine, proj, step_prefix="step2_hmst_")
        for row_key in rows:
            run_hmst(engine, proj, point_key=row_key, step_prefix="step2_hmst_")

    # step 3: tree structure to every node
    with engine.step("step3"):
        for row_key in rows:
            _broadcast_tree(engine, row_key)

    # step 4: endpoint rows to edge owners
    with engine.step("step4"):
        for row_key in rows:
            _deliver_endpoint_rows(engine, row_key)

    # step 5: distances at owners, then every tree's in one broadcast
    with engine.step("step5"):
        _owner_distance_broadcast(engine, rows)

    # every node sums each candidate's distances and picks the least; all
    # nodes hold the same distance arrays, so the pick is derived once
    def cheapest(*distances):
        costs = dict(zip(orientations, (int(d.sum()) for d in distances)))
        return min(costs, key=costs.__getitem__), costs

    def pick(node):
        return engine.derive(cheapest, *(node.storage["distances", r] for r in rows))

    orientation, costs = engine.local(pick)[1]
    info = _multiply_along_tree(engine, *_ROLES[orientation])
    if orientation == "ba":  # node i holds row i of (A o B) transposed
        with engine.step("orient_transpose"):
            _transpose_exchange(engine, "c_row", "c_row")
    C = BooleanMatrix([engine.node(i).storage["c_row"] for i in engine.node_ids()])
    return C, orientation, costs, info


def _multiply_along_tree(engine: CliqueEngine, row_key: str, col_key: str) -> dict:
    """Steps 6-10 on the tree, edge rows and distances each node stores
    under ``("tree", row_key)``, ``("edge_rows", row_key)`` and
    ``("distances", row_key)``; node i ends with row i of the product under
    ``c_row``.  Returns the plan summary."""
    n = engine.n
    cb = count_bits(n)

    # step 6: owners list their edge's witnesses; identical local planning
    # at every node
    with engine.step("step6"):

        def make_plan(node):
            st = node.storage
            if node.id < n:
                e = st["tree", row_key].edge(node.id)
                rows: dict[int, np.ndarray] = st["edge_rows", row_key]
                st["wit"] = witnesses(rows[e.u], rows[e.v])
                engine.charge_work(node.id, len(st["wit"]))
            st["plan"], st["assignment"], st["schedules"] = engine.derive(
                _derive_plan, st["tree", row_key], st["distances", row_key], n
            )
            engine.charge_work(node.id, 2 * n)

        engine.local(make_plan)
        with engine.as_node(1) as node1:
            plan: TraversalPlan = node1.storage["plan"]

    # step 7: tour-block start rows to pair nodes
    with engine.step("step7"):

        def start_recipients(node):
            starts = engine.derive(TraversalPlan.blocks_by_start_vertex, node.storage["plan"])
            asg: BlockAssignment = node.storage["assignment"]
            return [v for b in starts.get(node.id, ()) for v in asg.nodes_for_block(b)]

        _multicast_rows(engine, row_key, start_recipients, "start_rows")

    # step 8: witnesses to every pair node
    with engine.step("step8"):
        distribute_witnesses(engine)

    # step 9: column blocks to pair nodes
    with engine.step("step9"):

        def column_recipients(node):
            pl: TraversalPlan = node.storage["plan"]
            asg: BlockAssignment = node.storage["assignment"]
            return asg.nodes_for_column_block(pl.column_block_of(node.id))

        _multicast_rows(engine, col_key, column_recipients, "col_rows")

    # step 10: pair nodes decode their witnesses, rebuild their block's rows
    # and multiply incrementally, then entries go home as (vertex, column,
    # bit) columns; every row is assembled by one scatter into an n x n grid
    with engine.step("step10"):

        def multiply(node):
            st = node.storage
            pair = st["assignment"].pair_of(node.id)
            if pair is None:
                return None
            pl: TraversalPlan = st["plan"]
            b, c = pair
            start, (lo, hi) = pl.block_start_vertex(b), pl.column_blocks[c - 1]
            starts, cols = st["start_rows"], st["col_rows"]
            if list(starts) != [start] or list(cols) != list(range(lo, hi + 1)):
                raise SchedulingError(
                    f"pair node {node.id} holds the rows of {list(starts)} and columns "
                    f"{list(cols)}, wanted the row of {start} and columns {lo}..{hi}"
                )
            st["block_witnesses"] = engine.derive(
                _block_witnesses, n, pl, b, st["distances", row_key], *st["witness_packets"]
            )
            st["block_rows"] = engine.derive(
                _block_rows, pl, b, starts[start], st["block_witnesses"]
            )
            engine.charge_work(node.id, (n + pl.block_costs[b - 1]) * len(cols))
            return st["block_rows"], cols

        # each n^2-sized column exists once: the payload ((j - 1) << 1) | bit
        # is folded into the fresh column of j, and the entry columns live
        # on only in the batch, which is dropped once delivered
        src, vertex, payload, bit = _pair_entries(engine.local(multiply))
        payload -= 1
        payload <<= 1
        payload |= bit
        # a view, not a uint64 copy: every payload is nonnegative
        entries = Batch.build(engine.w, src, vertex, cb + 1, payload.view(np.uint64))
        del src, vertex, payload, bit
        entries, _ = bounded_route(engine, entries)  # the batch, in its order
        # entry (row, column): 0 not received, 1 a zero bit, 2 a one bit; a
        # vertex visited in several tour blocks gets one copy per block, and
        # the last copy written must equal every other
        flat = entries.dst - 1
        flat *= 2 * n
        flat += entries.payload.astype(np.int64)  # twice the flat index, plus the bit
        del entries
        value = (flat & 1).astype(np.uint8)
        value += 1
        flat >>= 1
        entry = np.zeros((n, n), dtype=np.uint8)
        entry.reshape(-1)[flat] = value
        disagree = np.flatnonzero(entry.reshape(-1)[flat] != value)
        if disagree.size:
            row, col = divmod(int(flat[disagree[0]]), n)
            raise SchedulingError(
                f"entry ({row + 1}, {col + 1}) arrived as both a zero and a one"
            )
        del flat, value
        counts = np.count_nonzero(entry, axis=1)
        if (counts != n).any():
            v = int((counts != n).argmax())
            raise SchedulingError(f"row {v + 1} incomplete: {counts[v]} of {n} entries")
        engine.put("c_row", dict(enumerate(own_rows(entry == 2), 1)))

    return {
        "m_realized": plan.total_cost,
        "t": plan.t,
        "blocks": plan.num_blocks,
        "column_blocks": len(plan.column_blocks),
    }


def clusmat_oriented(
    A: BooleanMatrix,
    B: BooleanMatrix,
    cfg: CliqueConfig,
    proj: ProjectionConfig | None = None,
    orientation: str = "ab",
) -> tuple[BooleanMatrix, RoundLedger, dict]:
    """Full product run on a fresh engine; node i starts with row i of A and
    row i of B and finishes with row i of C = A o B.  The orientation is
    forced, as :func:`run_clusmat` with one candidate: ``ab`` follows A's
    rows, ``ba`` follows B's columns and flips the result back."""
    if orientation not in _ROLES:
        raise ValueError(f"orientation must be 'ab' or 'ba', got {orientation!r}")
    engine = CliqueEngine(cfg)
    _place_inputs(engine, A, B)
    C, _, _, info = run_clusmat(engine, (orientation,), proj or ProjectionConfig())
    return C, engine.ledger, info


def choose_orientation(
    A: BooleanMatrix,
    B: BooleanMatrix,
    cfg: CliqueConfig,
    proj: ProjectionConfig | None = None,
) -> tuple[BooleanMatrix, str, RoundLedger, dict]:
    """:func:`run_clusmat` on a fresh engine with both candidates: the
    trees over A's rows and over B's columns, both built on the one
    projection family node 1 hands out, and steps 6-10 on the cheaper
    (ties go to the row side).  Step 5's one broadcast hands every node
    both trees' edge distances, so each node makes the same choice
    locally.  ``info`` adds both tree costs as ``cost_a`` and
    ``cost_b``."""
    engine = CliqueEngine(cfg)
    _place_inputs(engine, A, B)
    C, orientation, costs, info = run_clusmat(engine, ("ab", "ba"), proj or ProjectionConfig())
    info["cost_a"] = costs["ab"]
    info["cost_b"] = costs["ba"]
    return C, orientation, engine.ledger, info
