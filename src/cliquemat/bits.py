"""Bit-level primitives: points of {0,1}^n and their Hamming geometry, the
wire codec, a local MST oracle, spanning trees that carry their depth-first
walk as one int64 array (the one Euler tour, which a :class:`Traversal`
holds itself next to its step costs), and the naive Boolean matrix product.

Coordinates and vertex labels are 1-based in every public signature.  A
point of {0,1}^n, such as a row of a matrix, is a 1-D uint8 array of 0s and
1s whose entry i-1 is coordinate i; a :class:`BooleanMatrix` is one
read-only (n, n) array of them.  Only the wire codec packs bits into
integers: entry j of a row goes to bit j, and chunk payloads travel as
uint64 columns at W <= 64, Python ints above.  Every function is pure.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DimensionError, InvalidMatrixError


def _check_len(x: np.ndarray, y: np.ndarray) -> None:
    if len(x) != len(y):
        raise DimensionError(f"length mismatch: {len(x)} vs {len(y)}")


def hamming_distance(x: np.ndarray, y: np.ndarray) -> int:
    """Number of coordinates where the 0/1 rows x and y differ."""
    _check_len(x, y)
    return int(np.count_nonzero(x != y))


def witnesses(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ascending int64 array of the coordinates where x and y differ."""
    _check_len(x, y)
    return np.flatnonzero(x != y) + 1


def own_rows(bits) -> list[np.ndarray]:
    """Each row of a 2-D 0/1 array as its own read-only uint8 array, which
    shares no memory with ``bits`` or with another row."""
    rows = [np.array(row, dtype=np.uint8) for row in bits]
    for row in rows:
        row.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class BooleanMatrix:
    """Square 0/1 matrix as one read-only (n, n) uint8 array ``bits``, a copy
    of the array given; row i is ``bits[i - 1]``.  Matrices compare by
    entries."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.ndim != 2 or bits.shape[0] != bits.shape[1] or bits.size == 0:
            raise DimensionError(f"matrix must be square and nonempty, got shape {bits.shape}")
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("matrix entries must be 0 or 1")
        bits = np.array(bits, dtype=np.uint8, order="C")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BooleanMatrix) and np.array_equal(self.bits, other.bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    @classmethod
    def from_strings(cls, lines: Iterable[str]) -> "BooleanMatrix":
        """Rows such as '1010', the first character as coordinate 1."""
        rows = [s.strip() for s in lines]
        for i, s in enumerate(rows, 1):
            bad = s.replace("0", "").replace("1", "")
            if bad:
                raise ValueError(f"row {i} holds {bad[0]!r}, not 0 or 1")
        return cls(np.array([np.frombuffer(s.encode(), np.uint8) for s in rows]) - ord("0"))

    def row(self, i: int) -> np.ndarray:
        """Row i, 1-based."""
        return self.bits[i - 1]

    def transpose(self) -> "BooleanMatrix":
        return BooleanMatrix(self.bits.T)

    def to_strings(self) -> list[str]:
        return [row.tobytes().decode() for row in self.bits + ord("0")]


def distance_matrix_via_products(P: BooleanMatrix) -> np.ndarray:
    """All pairwise Hamming distances of P's rows from one matrix product:
    X = P (1-P)^T counts the coordinates where row i has a one and row j a
    zero, so the distance matrix is X + X^T.  The product runs in float64
    (BLAS), exact for every count below 2^53, and comes back as int64."""
    R = P.bits.astype(np.float64)
    X = R @ (1.0 - R).T
    return (X + X.T).astype(np.int64)


@dataclass(frozen=True, slots=True)
class WeightedEdge:
    u: int
    v: int
    weight: int

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError("self-loop edge")
        if min(self.u, self.v) < 1:
            raise ValueError("vertex labels are 1-based")
        if self.weight < 0:
            raise ValueError("negative edge weight")


@dataclass(frozen=True)
class Tree:
    """Spanning tree over vertices 1..n.

    Edges are normalized to u < v and stored sorted by (u, v); that order is
    the canonical edge numbering: ``edge(i)`` is the i-th edge, 1-based.
    ``adjacency[v]`` holds v's sorted (neighbour, edge index) pairs (index 0
    is empty), as nested tuples, and ``walk`` is the tree's closed
    depth-first walk from vertex 1, children ascending, as one read-only
    (2(n-1), 3) int64 array of (tail, head, edge index) rows: the one Euler
    tour every plan reads.  Neither takes part in equality.
    """

    n: int
    edges: tuple[WeightedEdge, ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, compare=False, repr=False)
    walk: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("tree needs at least one vertex")
        if len(self.edges) != self.n - 1:
            raise ValueError(
                f"spanning tree on {self.n} vertices needs {self.n - 1} edges, "
                f"got {len(self.edges)}"
            )
        for e in self.edges:
            if e.v > self.n or e.u > self.n:
                raise ValueError(f"edge {e} outside vertex set 1..{self.n}")
        # edges are immutable, so one already normalized is kept as it is
        edges = [e if e.u < e.v else WeightedEdge(e.v, e.u, e.weight) for e in self.edges]
        edges.sort(key=lambda e: (e.u, e.v))
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n + 1)]
        for idx, e in enumerate(edges, start=1):
            adj[e.u].append((e.v, idx))
            adj[e.v].append((e.u, idx))
        # the edges ascend by (u, v), so each vertex gets its smaller
        # neighbours, then its larger ones, each in ascending order
        adjacency = tuple(map(tuple, adj))
        # Iterative DFS; each frame is (vertex, edge from its parent, the
        # rest of its neighbours).
        walk: list[tuple[int, int, int]] = []
        seen = [False] * (self.n + 1)
        seen[1] = True
        stack = [(1, 0, iter(adjacency[1]))]
        while stack:
            v, up, nbrs = stack[-1]
            for w, idx in nbrs:
                if not seen[w]:
                    seen[w] = True
                    walk.append((v, w, idx))
                    stack.append((w, idx, iter(adjacency[w])))
                    break
            else:
                stack.pop()
                if stack:
                    walk.append((v, stack[-1][0], up))
        # n-1 edges that miss a vertex of 1..n hold a cycle
        if len(walk) != 2 * (self.n - 1):
            raise ValueError("edges contain a cycle")
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "walk", np.array(walk, dtype=np.int64).reshape(-1, 3))
        self.walk.flags.writeable = False

    def edge(self, i: int) -> WeightedEdge:
        """The i-th edge in the canonical numbering, 1-based."""
        return self.edges[i - 1]

    def structure(self) -> "Tree":
        """The same edges, numbered the same, at weight 0.  The walk and the
        adjacency depend on the edge set only, so the new tree shares them
        with this one instead of walking again."""
        tree = copy.copy(self)
        object.__setattr__(tree, "edges", tuple(WeightedEdge(e.u, e.v, 0) for e in self.edges))
        return tree

    def cost(self) -> int:
        return sum(e.weight for e in self.edges)


@dataclass(frozen=True, eq=False)
class Traversal:
    """Closed walk from ``root`` over every tree edge once each way: ``walk``
    holds its (tail, head, edge index) int64 rows and ``costs`` each step's
    int64 cost.  Traversals compare by value."""

    root: int
    walk: np.ndarray
    costs: np.ndarray

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Traversal)
            and self.root == other.root
            and np.array_equal(self.walk, other.walk)
            and np.array_equal(self.costs, other.costs)
        )

    def __len__(self) -> int:
        return len(self.walk)

    @property
    def directed_edges(self) -> np.ndarray:
        """The (tail, head) columns of the walk, a view."""
        return self.walk[:, :2]

    def validate(self, tree: Tree) -> None:
        """Raise ValueError unless this is a closed walk of ``tree`` from
        ``root`` over each edge once each way, each step naming its edge, with
        one cost per step."""
        if self.walk.shape != (2 * (tree.n - 1), 3):
            raise ValueError("traversal must contain 2(n-1) directed edges")
        if self.costs.shape != (len(self.walk),):
            raise ValueError("traversal must carry one cost per step")
        if not self.walk.size:
            return
        tails, heads, _ = self.walk.T
        if tails[0] != self.root:
            raise ValueError("traversal must start at the root")
        if heads[-1] != self.root:
            raise ValueError("traversal must end at the root")
        if np.any(tails[1:] != heads[:-1]):
            raise ValueError("consecutive edges must share an endpoint")
        # the tree's own walk takes each (tail, head, edge index) step once
        steps, tree_steps = (w[np.lexsort(w.T)] for w in (self.walk, tree.walk))
        if not np.array_equal(steps, tree_steps):
            raise ValueError("each tree edge must appear once per direction, named by its index")


def local_mst(H) -> Tree:
    """Minimum spanning tree of the complete graph on 1..n weighted by H.

    Edges compare on (weight, u, v) with u < v.  That order is total, so
    the tree is unique (Kruskal's, wherever it is recomputed); an O(n^2)
    Prim finds it, taking at each step the smallest crossing edge in that
    order.  Each edge's place in the order is one int64 key, weight * n^2
    + rank with rank = u * n + v (0-based); weights too large for the key
    enter by their dense rank, which keeps the order.

    Each step is one ``argmin`` over the best key of every outside vertex
    and one masked ``np.minimum`` with the new vertex's keys, built in
    preallocated rows, so the scratch is O(n).  The picked keys are kept
    and decoded to edges in one pass after the loop.
    """
    M = np.asarray(H)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidMatrixError(f"weight matrix must be square, got {M.shape}")
    n = int(M.shape[0])
    if n < 1:
        raise InvalidMatrixError("empty weight matrix")
    if not np.array_equal(M, M.T):
        raise InvalidMatrixError("weight matrix must be symmetric")
    if np.any(np.diagonal(M) != 0):
        raise InvalidMatrixError("weight matrix must have a zero diagonal")
    if np.any(M < 0):
        raise InvalidMatrixError("weights must be nonnegative")

    W = M.astype(np.int64, copy=False)
    nn = n * n
    if n > 1 and int(W.max()) >= (1 << 63) // nn - 1:
        W = np.unique(W, return_inverse=True)[1].reshape(n, n)
    pos = np.arange(n)
    pos_n = pos * n
    done = np.iinfo(np.int64).max
    # best key of an edge from each outside vertex to the tree; tree
    # vertices hold ``done``, which no key reaches
    outside = pos > 0
    best = W[0] * nn + pos
    best[0] = done
    picked = np.empty(n - 1, dtype=np.int64)
    key = np.empty(n, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    for i in range(n - 1):
        x = int(best.argmin())
        picked[i] = best[x]
        outside[x] = False
        best[x] = done
        # rank of edge (x, y) is x * n + y for y > x and y * n + x below
        np.add(pos_n[:x], x, out=rank[:x])
        np.add(pos[x:], x * n, out=rank[x:])
        np.multiply(W[x], nn, out=key)
        np.add(key, rank, out=key)
        np.minimum(best, key, out=best, where=outside)
    # ranks ascend in (u, v) order, the order Tree keeps its edges in
    u, v = np.divmod(np.sort(picked % nn), n)
    weights = map(int, M[u, v].tolist())
    return Tree(n, tuple(map(WeightedEdge, (u + 1).tolist(), (v + 1).tolist(), weights)))


def euler_traversal(tree: Tree, edge_costs: np.ndarray) -> Traversal:
    """``tree.walk`` itself as a :class:`Traversal` from vertex 1; each step
    costs entry e of ``edge_costs``, an (n,) array whose entry e is edge e's
    cost (entry 0 unused), for the edge e it crosses."""
    costs = np.asarray(edge_costs, dtype=np.int64)[tree.walk[:, 2]]
    costs.flags.writeable = False
    return Traversal(1, tree.walk, costs)


def boolean_product_naive(A: BooleanMatrix, B: BooleanMatrix) -> BooleanMatrix:
    """C[i][j] = OR_k (A[i][k] AND B[k][j]); the reference product, as the
    positive entries of one product of the 0/1 matrices.  It runs in
    float64 (BLAS), exact for every count below 2^53, so it shares no kernel
    with the float32 products of the protocols."""
    if A.n != B.n:
        raise DimensionError(f"shape mismatch: {A.n} vs {B.n}")
    return BooleanMatrix(A.bits.astype(np.float64) @ B.bits.astype(np.float64) > 0)


def chunk_widths(length: int, w: int) -> np.ndarray:
    """The int64 widths of the chunks of at most ``w`` bits that cut one
    ``length``-bit row, low bits first: the one width pattern of the wire."""
    return np.minimum(w, length - w * np.arange(-(-length // w)))


def pack_chunks(bits, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The wire format of vectors: each row of a 2-D 0/1 array, entry j at
    bit j, cut into the :func:`chunk_widths` chunks.  Returns the chunks'
    payload and width columns, row after row, both uint64 at ``w`` <= 64
    and Python ints above, so ``np.stack(..., axis=1)`` makes the
    (chunks, 2) vectors of a multicast."""
    bits = np.asarray(bits, dtype=bool)
    rows, length = bits.shape
    pattern = chunk_widths(length, w)
    padded = np.zeros((rows, pattern.size * w), dtype=bool)
    padded[:, :length] = bits
    packed = np.packbits(padded.reshape(-1, w), axis=1, bitorder="little")
    widths = np.tile(pattern, rows).astype(object if w > 64 else np.uint64)
    if w > 64:
        raw, nbytes = packed.tobytes(), packed.shape[1]
        ints = [int.from_bytes(raw[lo:lo + nbytes], "little") for lo in range(0, len(raw), nbytes)]
        return np.array(ints, dtype=object), widths
    words = np.zeros((widths.size, 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view("<u8").ravel(), widths


def unpack_chunks(payloads, nbits, length: int) -> np.ndarray:
    """Inverse of :func:`pack_chunks`: the (rows, ``length``) uint8 array
    whose rows the chunks carry, given as payload and width columns (a
    delivered batch's will do), W taken from the widest chunk.  Raises
    :class:`DimensionError` unless the widths repeat, row after row, the
    :func:`chunk_widths` of one ``length``-bit row."""
    nbits = np.asarray(nbits, dtype=np.int64)
    w = int(nbits.max(initial=1))
    pattern = chunk_widths(length, w)
    rows, extra = divmod(nbits.size, pattern.size)
    if extra or np.any(nbits != np.tile(pattern, rows)):
        raise DimensionError(f"chunk widths do not cut rows of {length} bits")
    if w > 64:
        nbytes = (w + 7) // 8
        raw = b"".join(v.to_bytes(nbytes, "little") for v in payloads)
        words = np.frombuffer(raw, dtype=np.uint8).reshape(-1, nbytes)
    else:
        words = np.ascontiguousarray(payloads, dtype="<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(words, axis=1, bitorder="little")
    return bits[:, :w].reshape(rows, pattern.size * w)[:, :length]
