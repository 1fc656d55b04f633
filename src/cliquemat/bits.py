"""Bit-level primitives: packed binary vectors, Hamming geometry, a local MST
oracle, Euler tours, and the naive Boolean matrix product.

Coordinates and vertex labels are 1-based in every public signature.  A
vector's coordinate i lives at bit i-1 of the packed integer, so XOR,
AND and popcount work directly on whole vectors.  All types here are
immutable; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionError, InvalidMatrixError, InvalidWitnessError


@dataclass(frozen=True, slots=True)
class BitVector:
    """Fixed-length binary vector packed into an int."""

    n: int
    value: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionError(f"vector length must be >= 1, got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value does not fit in {self.n} bits")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        value = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"coordinate must be 0 or 1, got {b!r}")
            value |= b << n
            n += 1
        return cls(n, value)

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        """Parse '1010' with the first character as coordinate 1."""
        return cls.from_bits(int(c) for c in s.strip())

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    def get(self, i: int) -> int:
        """Coordinate i, 1-based."""
        if not 1 <= i <= self.n:
            raise IndexError(f"coordinate {i} out of range 1..{self.n}")
        return (self.value >> (i - 1)) & 1

    def flip(self, i: int) -> "BitVector":
        if not 1 <= i <= self.n:
            raise IndexError(f"coordinate {i} out of range 1..{self.n}")
        return BitVector(self.n, self.value ^ (1 << (i - 1)))

    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> i) & 1 for i in range(self.n))

    def to01(self) -> str:
        return "".join(str(b) for b in self.bits())

    def popcount(self) -> int:
        return self.value.bit_count()

    def __xor__(self, other: "BitVector") -> "BitVector":
        _check_len(self, other)
        return BitVector(self.n, self.value ^ other.value)

    def __and__(self, other: "BitVector") -> "BitVector":
        _check_len(self, other)
        return BitVector(self.n, self.value & other.value)

    def __or__(self, other: "BitVector") -> "BitVector":
        _check_len(self, other)
        return BitVector(self.n, self.value | other.value)


def _check_len(x: BitVector, y: BitVector) -> None:
    if x.n != y.n:
        raise DimensionError(f"length mismatch: {x.n} vs {y.n}")


def hamming_distance(x: BitVector, y: BitVector) -> int:
    """Number of coordinates where x and y differ."""
    _check_len(x, y)
    return (x.value ^ y.value).bit_count()


def witnesses(x: BitVector, y: BitVector) -> list[int]:
    """Ascending list of coordinates where x and y differ."""
    _check_len(x, y)
    diff = x.value ^ y.value
    out = []
    while diff:
        low = diff & -diff
        out.append(low.bit_length())
        diff ^= low
    return out


def apply_witnesses(row: BitVector, w: Sequence[int]) -> BitVector:
    """Flip the listed coordinates of ``row`` (involutive)."""
    mask = 0
    for i in w:
        if not 1 <= i <= row.n:
            raise InvalidWitnessError(f"witness {i} out of range 1..{row.n}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise InvalidWitnessError(f"witness {i} listed twice")
        mask |= bit
    return BitVector(row.n, row.value ^ mask)


@dataclass(frozen=True, slots=True)
class BooleanMatrix:
    """Square 0/1 matrix stored as one packed BitVector per row."""

    rows: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if n < 1:
            raise DimensionError("matrix must have at least one row")
        for r in self.rows:
            if r.n != n:
                raise DimensionError(
                    f"matrix must be square: {n} rows but a row of length {r.n}"
                )

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Iterable[BitVector]) -> "BooleanMatrix":
        return cls(tuple(rows))

    @classmethod
    def from_strings(cls, lines: Iterable[str]) -> "BooleanMatrix":
        return cls(tuple(BitVector.from_string(s) for s in lines))

    @classmethod
    def from_lists(cls, data: Sequence[Sequence[int]]) -> "BooleanMatrix":
        return cls(tuple(BitVector.from_bits(row) for row in data))

    @classmethod
    def identity(cls, n: int) -> "BooleanMatrix":
        return cls(tuple(BitVector(n, 1 << i) for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "BooleanMatrix":
        return cls(tuple(BitVector.zeros(n) for _ in range(n)))

    def row(self, i: int) -> BitVector:
        """Row i, 1-based."""
        return self.rows[i - 1]

    def get(self, i: int, j: int) -> int:
        return self.rows[i - 1].get(j)

    def transpose(self) -> "BooleanMatrix":
        n = self.n
        return BooleanMatrix(tuple(BitVector(n, v) for v in pack_rows(self.to_array().T)))

    def to_strings(self) -> list[str]:
        return [r.to01() for r in self.rows]

    def to_array(self) -> np.ndarray:
        """0/1 entries as an (n, n) int64 array."""
        return unpack_rows([r.value for r in self.rows], self.n).astype(np.int64)


def pack_rows(bits) -> list[int]:
    """Each row of a 2-D 0/1 array as one packed integer, entry j of a row
    at bit j."""
    bits = np.asarray(bits, dtype=bool)
    nbytes = (bits.shape[1] + 7) // 8
    raw = np.packbits(bits, axis=1, bitorder="little").tobytes()
    return [
        int.from_bytes(raw[lo:lo + nbytes], "little")
        for lo in range(0, len(raw), nbytes)
    ]


def unpack_rows(values: Sequence[int], width: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: bit j of each nonnegative integer below
    2**width as entry j of one row of a (len(values), width) uint8 array."""
    nbytes = (width + 7) // 8
    raw = b"".join(v.to_bytes(nbytes, "little") for v in values)
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(values), nbytes),
        axis=1,
        bitorder="little",
    )
    return bits[:, :width]


def distance_matrix_via_products(P: BooleanMatrix) -> np.ndarray:
    """All pairwise Hamming distances of P's rows from one matrix product:
    X = P (1-P)^T counts the coordinates where row i has a one and row j a
    zero, so the distance matrix is X + X^T.  The product runs in float64
    (BLAS), exact for every count below 2^53, and comes back as int64."""
    R = P.to_array().astype(np.float64)
    X = R @ (1.0 - R).T
    return (X + X.T).astype(np.int64)


class _UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n + 1))
        self.rank = [0] * (n + 1)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


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

    def key(self) -> tuple[int, int]:
        return (min(self.u, self.v), max(self.u, self.v))


@dataclass(frozen=True)
class Tree:
    """Spanning tree over vertices 1..n.

    Edges are normalized to u < v and stored sorted by (u, v); that order is
    the canonical edge numbering: ``edge(i)`` is the i-th edge, 1-based.
    """

    n: int
    edges: tuple[WeightedEdge, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("tree needs at least one vertex")
        if len(self.edges) != self.n - 1:
            raise ValueError(
                f"spanning tree on {self.n} vertices needs {self.n - 1} edges, "
                f"got {len(self.edges)}"
            )
        norm = []
        uf = _UnionFind(self.n)
        for e in self.edges:
            if e.v > self.n or e.u > self.n:
                raise ValueError(f"edge {e} outside vertex set 1..{self.n}")
            a, b = e.key()
            if not uf.union(a, b):
                raise ValueError("edges contain a cycle")
            norm.append(WeightedEdge(a, b, e.weight))
        norm.sort(key=lambda e: (e.u, e.v))
        object.__setattr__(self, "edges", tuple(norm))

    def edge(self, i: int) -> WeightedEdge:
        """The i-th edge in the canonical numbering, 1-based."""
        return self.edges[i - 1]

    def cost(self) -> int:
        return sum(e.weight for e in self.edges)

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """vertex -> sorted list of (neighbour, 1-based edge index)."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, self.n + 1)}
        for idx, e in enumerate(self.edges, start=1):
            adj[e.u].append((e.v, idx))
            adj[e.v].append((e.u, idx))
        for v in adj:
            adj[v].sort()
        return adj


@dataclass(frozen=True)
class Traversal:
    """Closed walk visiting every tree edge once in each direction."""

    root: int
    directed_edges: tuple[tuple[int, int], ...]
    edge_indices: tuple[int, ...]
    costs: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.directed_edges)

    def total_cost(self) -> int:
        return sum(self.costs)

    def validate(self, tree: Tree) -> None:
        if len(self.directed_edges) != 2 * (tree.n - 1):
            raise ValueError("traversal must contain 2(n-1) directed edges")
        if self.directed_edges:
            if self.directed_edges[0][0] != self.root:
                raise ValueError("traversal must start at the root")
            if self.directed_edges[-1][1] != self.root:
                raise ValueError("traversal must end at the root")
        seen: dict[tuple[int, int], int] = {}
        prev_to = self.root
        for (a, b) in self.directed_edges:
            if a != prev_to:
                raise ValueError("consecutive edges must share an endpoint")
            seen[(a, b)] = seen.get((a, b), 0) + 1
            prev_to = b
        for e in tree.edges:
            if seen.get((e.u, e.v), 0) != 1 or seen.get((e.v, e.u), 0) != 1:
                raise ValueError("each tree edge must appear once per direction")


def local_mst(H) -> Tree:
    """Minimum spanning tree of the complete graph on 1..n weighted by H.

    Edges compare on (weight, u, v) with u < v.  That order is total, so
    the tree is unique (Kruskal's, wherever it is recomputed); an O(n^2)
    Prim finds it, taking at each step the smallest crossing edge in that
    order.
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
    pos = np.arange(n)
    # best edge from each outside vertex x to the tree: weight, tree endpoint
    # and the rank min(u, x) * n + max(u, x) that orders equal weights
    outside = pos > 0
    best_w = W[0].copy()
    best_u = np.zeros(n, dtype=np.int64)
    best_rank = pos.copy()
    picked: list[WeightedEdge] = []
    for _ in range(n - 1):
        cand = np.flatnonzero(outside)
        weight = best_w[cand].min()
        tied = cand[best_w[cand] == weight]
        x = int(tied[np.argmin(best_rank[tied])])
        u = int(best_u[x])
        picked.append(WeightedEdge(min(u, x) + 1, max(u, x) + 1, int(weight)))
        outside[x] = False
        row = W[x]
        rank = np.minimum(pos, x) * n + np.maximum(pos, x)
        better = outside & ((row < best_w) | ((row == best_w) & (rank < best_rank)))
        best_w[better] = row[better]
        best_u[better] = x
        best_rank[better] = rank[better]
    return Tree(n, tuple(picked))


def euler_traversal(tree: Tree, root: int = 1, edge_costs: Mapping[int, int] | None = None) -> Traversal:
    """Depth-first closed tour of ``tree`` from ``root``, children visited in
    ascending vertex order.  Per-directed-edge costs default to the tree's
    own edge weights; ``edge_costs`` (1-based edge index -> cost) overrides.
    """
    if not 1 <= root <= tree.n:
        raise ValueError(f"root {root} outside 1..{tree.n}")
    adj = tree.adjacency()
    directed: list[tuple[int, int]] = []
    indices: list[int] = []
    # Iterative DFS; each frame is (vertex, parent, iterator position).
    stack: list[tuple[int, int, int]] = [(root, 0, 0)]
    while stack:
        v, parent, pos = stack.pop()
        nbrs = adj[v]
        advanced = False
        while pos < len(nbrs):
            w, eidx = nbrs[pos]
            pos += 1
            if w == parent:
                continue
            stack.append((v, parent, pos))
            directed.append((v, w))
            indices.append(eidx)
            stack.append((w, v, 0))
            advanced = True
            break
        if not advanced and parent != 0:
            directed.append((v, parent))
            # Walking back over the same tree edge.
            indices.append(next(e for u, e in adj[v] if u == parent))
    if edge_costs is None:
        costs = tuple(tree.edge(i).weight for i in indices)
    else:
        costs = tuple(int(edge_costs[i]) for i in indices)
    return Traversal(root, tuple(directed), tuple(indices), costs)


def boolean_product_naive(A: BooleanMatrix, B: BooleanMatrix) -> BooleanMatrix:
    """C[i][j] = OR_k (A[i][k] AND B[k][j]); the reference product."""
    if A.n != B.n:
        raise DimensionError(f"shape mismatch: {A.n} vs {B.n}")
    n = A.n
    cols = [c.value for c in B.transpose().rows]
    out_rows = []
    for r in A.rows:
        value = 0
        rv = r.value
        for j in range(n):
            if rv & cols[j]:
                value |= 1 << j
        out_rows.append(BitVector(n, value))
    return BooleanMatrix(tuple(out_rows))


def pack_chunks(value: int, total_bits: int, w: int) -> list[tuple[int, int]]:
    """Split a ``total_bits``-wide integer into (payload, nbits) chunks of at
    most ``w`` bits, low bits first."""
    if total_bits < 0:
        raise ValueError("total_bits must be nonnegative")
    chunks = []
    remaining = total_bits
    mask = (1 << w) - 1
    while remaining > 0:
        take = min(w, remaining)
        chunks.append((value & mask if take == w else value & ((1 << take) - 1), take))
        value >>= take
        remaining -= take
    return chunks


def unpack_chunks(chunks: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Inverse of :func:`pack_chunks`; returns (value, total_bits)."""
    value = 0
    shift = 0
    for payload, nbits in chunks:
        value |= payload << shift
        shift += nbits
    return value, shift
