"""Reference tree checks for the tests, written apart from ``bits.Tree``: a
union-find that tells whether n-1 edges form a spanning tree of 1..n, and
the depth-first closed tour over an adjacency dict.  ``Tree`` must accept
exactly the edge sets the union-find calls spanning trees, and its ``walk``
must be the tour given here.  Two helpers put a tree's edge weights and its
walk in the forms the tests pass and compare."""

import numpy as np


class UnionFind:
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


def is_spanning_tree(n: int, pairs) -> bool:
    """Whether the (u, v) pairs, u != v in 1..n, are n-1 edges without a
    cycle, which is a spanning tree of 1..n."""
    uf = UnionFind(n)
    return len(pairs) == n - 1 and all(uf.union(a, b) for a, b in pairs)


def adjacency(tree) -> dict[int, list[tuple[int, int]]]:
    """vertex -> sorted list of (neighbour, 1-based edge index)."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, tree.n + 1)}
    for idx, e in enumerate(tree.edges, start=1):
        adj[e.u].append((e.v, idx))
        adj[e.v].append((e.u, idx))
    for v in adj:
        adj[v].sort()
    return adj


def edge_weights(tree) -> np.ndarray:
    """The (n,) distance array whose entry e is edge e's weight (entry 0
    unused), the form step 5 hands to ``euler_traversal``."""
    return np.array([0, *(e.weight for e in tree.edges)], dtype=np.int64)


def walk_triples(tree) -> list[tuple[int, int, int]]:
    """The rows of ``tree.walk`` as (tail, head, edge index) tuples."""
    return [tuple(step) for step in tree.walk.tolist()]


def euler_walk(tree) -> list[tuple[int, int, int]]:
    """Depth-first closed tour of ``tree`` from vertex 1, children visited
    in ascending vertex order, as (tail, head, edge index) triples."""
    adj = adjacency(tree)
    walk: list[tuple[int, int, int]] = []
    # Iterative DFS; each frame is (vertex, parent, iterator position).
    stack: list[tuple[int, int, int]] = [(1, 0, 0)]
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
            walk.append((v, w, eidx))
            stack.append((w, v, 0))
            advanced = True
            break
        if not advanced and parent != 0:
            # Walking back over the same tree edge.
            walk.append((v, parent, next(e for u, e in adj[v] if u == parent)))
    return walk
