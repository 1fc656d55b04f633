"""Reference for the simulated routing schedules: the loop versions of the
relaxed-task and bounded-route builders, which release every sub-task's
items pass by pass under receiver quotas, as the preamble rounds grant
them.  ``routing._bounded_rounds`` and ``routing._idt_rounds`` must append
the same rounds and the same messages; these keep the rule they compute in
closed form spelled out one pass at a time."""

import numpy as np

from cliquemat.routing import count_bits


def _run_ranks(keys: np.ndarray) -> np.ndarray:
    """Rank of each entry within its run of equal consecutive keys."""
    idx = np.arange(keys.size)
    start = np.ones(keys.size, dtype=bool)
    start[1:] = keys[1:] != keys[:-1]
    return idx - np.maximum.accumulate(np.where(start, idx, 0))


def _idt_rounds(n: int, src, dst, nbits, blocks: list) -> None:
    """One relaxed task: spread over intermediates, announce backlogs, drain."""
    by_src = np.argsort(src, kind="stable")
    rank = np.empty(src.size, dtype=np.int64)  # each item's rank at its source
    rank[by_src] = _run_ranks(src[by_src])
    mid = (src - 1 + rank) % n + 1
    hop = np.flatnonzero(mid != src)
    held = np.flatnonzero(mid != dst)
    # held items by (intermediate, dst) pair, then by (src, position)
    key = (mid[held] * (n + 1) + dst[held]) * (n + 1) + src[held]
    held = held[np.argsort(key, kind="stable")]
    q = _run_ranks(mid[held] * (n + 1) + dst[held])
    announce = held[q == 0]
    blocks.append((
        2 + (int(q.max()) + 1 if q.size else 0),
        np.concatenate([np.repeat([0, 1], [hop.size, announce.size]), 2 + q], dtype=np.int32),
        np.concatenate([src[hop], mid[announce], mid[held]], dtype=np.int32),
        np.concatenate([mid[hop], dst[announce], dst[held]], dtype=np.int32),
        np.concatenate(
            [nbits[hop], np.full(announce.size, count_bits(n)), nbits[held]], dtype=np.int32
        ),
    ))


def _bounded_rounds(n: int, src, dst, nbits, blocks: list) -> None:
    """Sub-tasks of at most n items per sender; each releases relaxed tasks
    under receiver quotas until its items are gone."""
    if not src.size:
        return
    cbits = count_bits(2 * n)
    by_src = np.argsort(src, kind="stable")
    subtask = _run_ranks(src[by_src]) // n
    for s in range(int(subtask.max()) + 1):
        pending = by_src[subtask == s]  # (src, position) order
        while pending.size:
            ps, pd = src[pending], dst[pending]
            # preamble 1: one count per (src, dst) pair
            order = np.argsort(ps * (n + 1) + pd, kind="stable")
            rank = _run_ranks(ps[order] * (n + 1) + pd[order])
            first = np.flatnonzero(rank == 0)
            pair_src, pair_dst = ps[order][first], pd[order][first]
            count = np.diff(np.append(first, order.size))
            # preamble 2: quotas in (dst, src) order, at most n per receiver
            by_dst = np.argsort(pair_dst * (n + 1) + pair_src, kind="stable")
            c = count[by_dst]
            before = np.cumsum(c) - c  # nondecreasing
            starts = _run_ranks(pair_dst[by_dst]) == 0
            asked = before - np.maximum.accumulate(np.where(starts, before, 0))
            quota = np.empty_like(count)
            quota[by_dst] = np.minimum(c, np.maximum(0, n - asked))
            release = np.zeros(pending.size, dtype=bool)
            release[order] = rank < np.repeat(quota, count)
            blocks.append((
                2,
                np.repeat([0, 1], first.size),
                np.concatenate([pair_src, pair_dst]),
                np.concatenate([pair_dst, pair_src]),
                cbits,
            ))
            batch = pending[release]
            _idt_rounds(n, src[batch], dst[batch], nbits[batch], blocks)
            pending = pending[~release]
