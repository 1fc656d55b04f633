"""Message-distribution subprotocols on the clique engine.

Three primitives share one code path for both routing backends: the batch's
columns are checked against the per-node send and receive bounds and
delivered to the caller.  Only the cost rule depends on the engine's
routing mode:

* ``simulated`` builds every round of the schedule below as message columns
  (round, src, dst, nbits) and runs them through
  :meth:`CliqueEngine.exchange`, which enforces endpoints, capacity and one
  message per ordered pair per round, and fills the ledger;
* ``accounted`` charges the published analytic round cost and counts one
  message per item (plus the multicast announcements) without scheduling.
  A multicast counts every copy as a direct message from the sender, so the
  sender carries W work per copy; accounted per-node work, and with it
  ``work_max_node``, is an upper bound and not comparable with simulated
  runs, where the doubling tree spreads the copies over the recipients.

The simulated schedules:

* ``solve_relaxed_idt`` -- every node sends and receives at most n items.
  The item of rank j at its source goes to intermediate ((src-1+j) mod n)+1;
  the next round announces one backlog count per (intermediate, destination)
  pair; then the item ranked q in its pair, by (src, tag, position), is
  drained q rounds later, one item per ordered pair per round.  Accounted:
  ``c_idt`` rounds per ceil(sends/n) * ceil(receives/n).
* ``bounded_route`` -- at most k*n sends and l*n receives per node, solved
  as sub-tasks of at most n items per sender, each split into relaxed tasks.
  Every relaxed task is preceded by two preamble rounds: senders announce
  per-destination counts, and receivers reply with quotas granted in
  ascending (dst, src) order up to n items per receiver.
* ``vector_multicast`` -- each sender pushes one vector of at most n chunks
  to a recipient set.  Sub-task m serves every recipient's m-th sender; it
  opens with two announcement rounds (senders tell recipients their rank,
  recipients tell every node whose vector they take), then covers the
  recipients by doubling (groups of 2, 4, 8...), each phase routed as one
  bounded task with per-holder fan-out 2.

Out of band: payloads never enter a schedule, so each simulated primitive
checks once, on receipt of its batch, that every payload fits its declared
width; payload and width do not change between hops.  The forwarded
destination, original source and position of an item travel with the
schedule and are not charged as header bits.

All primitives deliver self-addressed items locally at no message cost and
return ``(delivered, rounds_used)``.  The two task primitives take one
:class:`Batch` of columns and deliver one, ordered by (dst, src, tag,
position); a node finds its rows with :meth:`Batch.span`.
``vector_multicast`` takes and returns per-sender vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .engine import CliqueEngine
from .errors import CapacityError, PreconditionError


class RoutingItem(NamedTuple):
    """One row of a :class:`Batch`, as iterating the batch yields it."""

    src: int
    dst: int
    payload: int
    nbits: int
    tag: int = 0


@dataclass(frozen=True, eq=False)
class Batch:
    """A routing batch as columns: item i goes from ``src[i]`` to ``dst[i]``
    under ``tag[i]``, carrying ``payload[i]`` in ``nbits[i]`` bits.  The
    payload is uint64, or Python ints when built for W > 64; the rest is
    int64.  ``len`` counts items; iteration yields :class:`RoutingItem` rows."""

    src: np.ndarray
    dst: np.ndarray
    nbits: np.ndarray
    tag: np.ndarray
    payload: np.ndarray

    @classmethod
    def build(cls, w: int, src, dst, nbits, payload, tag=0) -> "Batch":
        """A batch for capacity ``w``; a scalar stands for a constant column.
        At ``w`` <= 64 a payload outside 0..2**64-1 raises CapacityError.
        Payloads not given as an array are read as Python ints (numpy reads
        ints mixed below and above 2**63 as float64)."""
        if not isinstance(payload, np.ndarray):
            payload = np.array(payload, dtype=object)
        src, dst, nbits, tag, payload = np.broadcast_arrays(
            *(np.atleast_1d(a) for a in (src, dst, nbits, tag, payload))
        )
        if w <= 64 and payload.dtype.kind != "u" and payload.size:
            if payload.min() < 0 or payload.max() >= 1 << 64:
                raise CapacityError("a payload value does not fit a 64-bit column")
        payload = payload.astype(object if w > 64 else np.uint64)
        return cls(*(a.astype(np.int64, copy=False) for a in (src, dst, nbits, tag)), payload)

    def __len__(self) -> int:
        return self.src.size

    def __iter__(self):
        cols = (self.src, self.dst, self.payload, self.nbits, self.tag)
        return map(RoutingItem._make, zip(*(c.tolist() for c in cols)))

    def span(self, node: int) -> slice:
        """The rows addressed to ``node`` in a delivered batch, which is
        sorted by destination."""
        lo, hi = np.searchsorted(self.dst, [node, node + 1])
        return slice(int(lo), int(hi))


def count_bits(n: int) -> int:
    """Bits that carry any value in 0..n."""
    return max(1, math.ceil(math.log2(n + 1)))


def idt_accounted_rounds(n: int, max_send: int, max_recv: int, c_idt: int) -> int:
    return math.ceil(max_send / n) * math.ceil(max_recv / n) * c_idt


def bounded_route_accounted_rounds(k: int, ell: int, c_idt: int) -> int:
    # two preamble rounds per relaxed sub-sub-task
    return k * ell * (c_idt + 2)


def multicast_accounted_rounds(n: int, chunks: int, c_idt: int) -> int:
    """Published bound of one multicast sub-task of vectors of at most
    ``chunks`` chunks: two announcement rounds, then ceil(log2 n) doubling
    phases whatever the recipient count, each one bounded task with
    per-holder fan-out 2."""
    kk = max(1, math.ceil(2 * chunks / n))
    return 2 + max(1, math.ceil(math.log2(n))) * bounded_route_accounted_rounds(kk, 1, c_idt)


def multicast_phases(num_recipients: int) -> int:
    """Doubling phases needed to cover ``num_recipients``: groups of
    2, 4, 8, ... nodes, each member forwarding to at most two."""
    if num_recipients <= 0:
        return 0
    p = 1
    while (1 << (p + 1)) - 2 < num_recipients:
        p += 1
    return p


def to_all_others(n: int, senders) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) columns of one message from each sender to every other
    node, senders in the given order, receivers ascending."""
    senders = np.asarray(senders, dtype=np.int64)
    src = np.repeat(senders, n)
    dst = np.tile(np.arange(1, n + 1), senders.size)
    keep = src != dst
    return src[keep], dst[keep]


# ---------------------------------------------------------------------------
# shared batch handling
# ---------------------------------------------------------------------------

def _check_payloads(payload: np.ndarray, nbits) -> None:
    """Every payload is a nonnegative integer below 2**nbits (x >> nb is
    nonzero exactly when x is negative or needs more than nb bits).  The
    widths take the payload column's dtype: numpy promotes uint64 with
    int64 to float."""
    if np.any(payload >> np.asarray(nbits).astype(payload.dtype)):
        raise CapacityError("a payload value does not fit its declared bits")


def _peak_loads(b: Batch) -> tuple[int, int]:
    """Largest per-node count of cross items sent and received."""
    cross = b.src != b.dst
    if not cross.any():
        return 0, 0
    return int(np.bincount(b.src[cross]).max()), int(np.bincount(b.dst[cross]).max())


def _deliver(b: Batch) -> Batch:
    """Every item at its destination: one stable sort by (dst, src, tag),
    so equal keys keep their position order."""
    order = np.lexsort((b.tag, b.src, b.dst))
    return Batch(b.src[order], b.dst[order], b.nbits[order], b.tag[order], b.payload[order])


def _run_ranks(keys: np.ndarray) -> np.ndarray:
    """Rank of each entry within its run of equal consecutive keys."""
    idx = np.arange(keys.size)
    start = np.ones(keys.size, dtype=bool)
    start[1:] = keys[1:] != keys[:-1]
    return idx - np.maximum.accumulate(np.where(start, idx, 0))


def _rank_within(keys: np.ndarray) -> np.ndarray:
    """Rank of each entry among the entries with the same key, in column
    order."""
    order = np.argsort(keys, kind="stable")
    rank = np.empty(keys.size, dtype=np.int64)
    rank[order] = _run_ranks(keys[order])
    return rank


# ---------------------------------------------------------------------------
# simulated schedules (columns of cross items in position order)
# ---------------------------------------------------------------------------

def _idt_rounds(engine: CliqueEngine, src, dst, nbits, tag) -> None:
    """One relaxed task: spread over intermediates, announce backlogs, drain."""
    n = engine.n
    mid = (src - 1 + _rank_within(src)) % n + 1
    hop = np.flatnonzero(mid != src)
    held = np.flatnonzero(mid != dst)
    # held items by (intermediate, dst) pair, then by (src, tag, position)
    held = held[np.lexsort((held, tag[held], src[held], dst[held], mid[held]))]
    q = _run_ranks(mid[held] * (n + 1) + dst[held])
    announce = held[q == 0]
    engine.exchange(
        2 + (int(q.max()) + 1 if q.size else 0),
        np.concatenate([np.repeat([0, 1], [hop.size, announce.size]), 2 + q]),
        np.concatenate([src[hop], mid[announce], mid[held]]),
        np.concatenate([mid[hop], dst[announce], dst[held]]),
        np.concatenate([nbits[hop], np.full(announce.size, count_bits(n)), nbits[held]]),
    )


def _copies(holders, targets, widths):
    """(src, dst, nbits, tag) columns of every chunk of one vector, sent
    from ``holders[i]`` to ``targets[i]``; the tag is the chunk index."""
    c = widths.size
    return (
        np.repeat(holders, c),
        np.repeat(targets, c),
        np.tile(widths, targets.size),
        np.tile(np.arange(c), targets.size),
    )


def _bounded_rounds(engine: CliqueEngine, src, dst, nbits, tag) -> None:
    """Sub-tasks of at most n items per sender; each releases relaxed tasks
    under receiver quotas until its items are gone."""
    if not src.size:
        return
    n = engine.n
    cbits = count_bits(2 * n)
    by_src = np.argsort(src, kind="stable")
    subtask = _rank_within(src)[by_src] // n
    for s in range(int(subtask.max()) + 1):
        pending = by_src[subtask == s]  # (src, position) order
        while pending.size:
            ps, pd = src[pending], dst[pending]
            # preamble 1: one count per (src, dst) pair
            order = np.lexsort((pd, ps))
            rank = _run_ranks(ps[order] * (n + 1) + pd[order])
            first = np.flatnonzero(rank == 0)
            pair_src, pair_dst = ps[order][first], pd[order][first]
            count = np.diff(np.append(first, order.size))
            # preamble 2: quotas in (dst, src) order, at most n per receiver
            by_dst = np.lexsort((pair_src, pair_dst))
            c = count[by_dst]
            before = np.cumsum(c) - c  # nondecreasing
            starts = _run_ranks(pair_dst[by_dst]) == 0
            asked = before - np.maximum.accumulate(np.where(starts, before, 0))
            quota = np.empty_like(count)
            quota[by_dst] = np.minimum(c, np.maximum(0, n - asked))
            release = np.zeros(pending.size, dtype=bool)
            release[order] = rank < np.repeat(quota, count)
            engine.exchange(
                2,
                np.repeat([0, 1], first.size),
                np.concatenate([pair_src, pair_dst]),
                np.concatenate([pair_dst, pair_src]),
                cbits,
            )
            batch = pending[release]
            _idt_rounds(engine, src[batch], dst[batch], nbits[batch], tag[batch])
            pending = pending[~release]


def _route(engine: CliqueEngine, b: Batch, charge: int, schedule, label: str) -> int:
    """Move the cross items of ``b``: accounted, charge ``charge`` rounds and
    count one message per item; simulated, check the payloads and run
    ``schedule``.  Returns the rounds used."""
    cross = b.src != b.dst
    if not cross.any():
        return 0
    src, dst, nbits = b.src[cross], b.dst[cross], b.nbits[cross]
    if engine.accounted:
        engine.charge_rounds(charge, label)
        engine.count_messages(src, dst, nbits)
        return charge
    _check_payloads(b.payload, b.nbits)
    start = engine.ledger.rounds
    with engine.measure(label):
        schedule(engine, src, dst, nbits, b.tag[cross])
    return engine.ledger.rounds - start


# ---------------------------------------------------------------------------
# the primitives
# ---------------------------------------------------------------------------

def solve_relaxed_idt(
    engine: CliqueEngine,
    b: Batch,
    label: str = "relaxed_idt",
) -> tuple[Batch, int]:
    """Deliver a batch in which every node sends <= n and receives <= n items."""
    n = engine.n
    max_send, max_recv = _peak_loads(b)
    if max_send > n:
        raise PreconditionError(
            f"a node sends {max_send} > n={n} items; use bounded_route"
        )
    if max_recv > n:
        raise PreconditionError(
            f"a node receives {max_recv} > n={n} items; use bounded_route"
        )
    charge = idt_accounted_rounds(n, max_send, max_recv, engine.cfg.c_idt)
    return _deliver(b), _route(engine, b, charge, _idt_rounds, label)


def bounded_route(
    engine: CliqueEngine,
    b: Batch,
    k: int | None = None,
    ell: int | None = None,
    label: str = "bounded_route",
) -> tuple[Batch, int]:
    """Deliver a batch with per-node sends <= k*n and receives <= ell*n."""
    n = engine.n
    max_send, max_recv = _peak_loads(b)
    if k is None:
        k = max(1, math.ceil(max_send / n))
    if ell is None:
        ell = max(1, math.ceil(max_recv / n))
    if max_send > k * n:
        raise PreconditionError(f"a node sends {max_send} > k*n = {k * n}")
    if max_recv > ell * n:
        raise PreconditionError(f"a node receives {max_recv} > l*n = {ell * n}")
    charge = bounded_route_accounted_rounds(k, ell, engine.cfg.c_idt)
    return _deliver(b), _route(engine, b, charge, _bounded_rounds, label)


def vector_multicast(
    engine: CliqueEngine,
    senders: dict[int, tuple[Sequence[tuple[int, int]], Sequence[int]]],
    label: str = "vector_multicast",
) -> tuple[dict[int, list[tuple[int, list[tuple[int, int]]]]], int]:
    """Each sender pushes its vector of (payload, nbits) chunks to every node
    in its recipient set.  Returns per-recipient lists of (sender, chunks)
    and the rounds used.
    """
    n = engine.n
    senders_net: dict[int, tuple[list[tuple[int, int]], list[int]]] = {}
    result: dict[int, list[tuple[int, list[tuple[int, int]]]]] = {}
    for s in sorted(senders):
        chunks, recips = senders[s]
        chunks = list(chunks)
        if not 1 <= len(chunks) <= n:
            raise PreconditionError(
                f"sender {s} has {len(chunks)} chunks; must be in 1..n"
            )
        if len(set(recips)) != len(recips):
            raise PreconditionError(f"sender {s} lists a recipient twice")
        net = []
        for v in recips:
            if not 1 <= v <= n:
                raise PreconditionError(f"recipient {v} outside 1..{n}")
            if v == s:
                result.setdefault(v, []).append((s, list(chunks)))
            else:
                net.append(v)
        if net:
            senders_net[s] = (chunks, sorted(net))

    if not senders_net:
        return result, 0
    if not engine.accounted:
        for chunks, _ in senders_net.values():
            payload, nbits = zip(*chunks)
            _check_payloads(np.array(payload, dtype=object), nbits)

    # sub-task m serves every recipient's m-th sender (ascending sender id),
    # so recipient sets inside a sub-task are disjoint by construction
    by_recipient: dict[int, list[int]] = {}
    for s in sorted(senders_net):
        for v in senders_net[s][1]:
            by_recipient.setdefault(v, []).append(s)
    ell = max(len(v) for v in by_recipient.values())

    total_rounds = 0
    idbits = count_bits(n)
    for m in range(ell):
        sub: dict[int, list[int]] = {}
        for v in sorted(by_recipient):
            slist = by_recipient[v]
            if m < len(slist):
                sub.setdefault(slist[m], []).append(v)
        order = sorted(sub)
        recips = {s: np.array(sub[s], dtype=np.int64) for s in order}
        widths = {s: np.array([nb for _, nb in senders_net[s][0]], dtype=np.int64) for s in order}
        for s in order:
            for v in sub[s]:
                result.setdefault(v, []).append((s, list(senders_net[s][0])))

        # announcement 1: each sender tells its recipients their rank;
        # announcement 2: each recipient tells everyone whose it is
        sizes = [recips[s].size for s in order]
        ranked = np.concatenate([recips[s] for s in order])
        told_src, told_dst = to_all_others(n, ranked)
        ann_rnd = np.repeat([0, 1], [ranked.size, told_src.size])
        ann_src = np.concatenate([np.repeat(order, sizes), told_src])
        ann_dst = np.concatenate([ranked, told_dst])

        if engine.accounted:
            # charge the published per-sub-task bound; count every chunk as
            # one direct message from the sender
            rounds_m = multicast_accounted_rounds(
                n, max(w.size for w in widths.values()), engine.cfg.c_idt
            )
            engine.charge_rounds(rounds_m, label)
            direct = [_copies(np.full(recips[s].size, s), recips[s], widths[s]) for s in order]
            src, dst, nbits, _ = (np.concatenate(c) for c in zip(*direct))
            engine.count_messages(
                np.concatenate([ann_src, src]),
                np.concatenate([ann_dst, dst]),
                np.concatenate([np.full(ann_src.size, idbits), nbits]),
            )
            total_rounds += rounds_m
            continue

        start = engine.ledger.rounds
        with engine.measure(label):
            engine.exchange(2, ann_rnd, ann_src, ann_dst, idbits)
            for p in range(1, multicast_phases(max(sizes)) + 1):
                # phase p reaches ranks lo..hi-1; the sender holds the vector
                # in phase 1, later the recipient of rank plo + (t-lo)//2
                lo, hi, plo = (1 << p) - 2, (1 << (p + 1)) - 2, (1 << (p - 1)) - 2
                cols = []
                for s in order:
                    rs = recips[s]
                    t = np.arange(lo, min(hi, rs.size))
                    holders = np.full(t.size, s) if p == 1 else rs[plo + (t - lo) // 2]
                    cols.append(_copies(holders, rs[t], widths[s]))
                _bounded_rounds(engine, *(np.concatenate(c) for c in zip(*cols)))
        total_rounds += engine.ledger.rounds - start

    for v in result:
        result[v].sort(key=lambda sv: sv[0])
    return result, total_rounds
